"""Paper reproduction layer: published values, tables, figures, claims."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "compare": ("Claim", "all_claims"),
        "expected": (
            "ExpectedBar",
            "fig2_expected",
            "fig3_expected",
            "fig4_expected",
        ),
        "figures": (
            "FIGURE_TITLES",
            "MINIAPP_ORDER",
            "LatencySeries",
            "RatioPoint",
            "figure1",
            "figure2",
            "figure3",
            "figure4",
            "render_figure",
            "render_ratio_points",
        ),
        "report": (
            "claims_markdown",
            "full_report",
            "table2_markdown",
            "table6_markdown",
        ),
        "roofline_data": (
            "KernelPoint",
            "RooflineSeries",
            "paper_kernels",
            "roofline_series",
        ),
        "scaling_study": (
            "ScalingPoint",
            "ScalingStudy",
            "app_scaling",
            "micro_scaling",
        ),
        "paper_values": (
            "FIG1_RELATIVE_LATENCY",
            "MINIBUDE_PEAK_FRACTIONS",
            "SCALING_QUOTES",
            "TABLE_II",
            "TABLE_III",
            "TABLE_IV",
            "TABLE_VI",
            "scope_key",
        ),
        "tables": (
            "table_i",
            "table_ii",
            "table_iii",
            "table_iv",
            "table_v",
            "table_vi",
        ),
    },
)
