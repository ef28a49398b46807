"""The paper's artifacts: one registry every entry point renders from.

The ``pvc-bench`` subcommand of each name, a service ``bench`` request
and a campaign's text unit all print :func:`render`'s text.  A campaign
measures a table's systems one unit each and merges the cells, which
renders the same text because a table driver fills each system's
columns independently.

Drivers are named ``module:attribute`` and resolved per call: this
module imports no driver (building the CLI parser loads no analysis
code), and a wrapper on a driver's module attribute sees every call.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.context import ExecutionContext

__all__ = ["Artifact", "ARTIFACTS", "render"]


class Artifact(NamedTuple):
    """One artifact: its driver is called with ``args``, plus ``ctx=``
    if it ``takes_ctx``.  A measured table names the ``systems`` it
    covers, and its driver takes ``systems=`` and returns a
    :class:`~repro.core.result.ResultTable`; any other artifact is one
    text."""

    name: str
    driver: str
    args: tuple[str, ...] = ()
    takes_ctx: bool = False
    systems: tuple[str, ...] = ()

    @property
    def in_campaign(self) -> bool:
        """A campaign publishes measured tables and context-free texts;
        the report reads a context but has no per-system split."""
        return bool(self.systems) or not self.takes_ctx

    def call(self, **kwargs):
        module, _, attr = self.driver.partition(":")
        return getattr(import_module(module), attr)(*self.args, **kwargs)


_TABLES = "repro.analysis.tables"
_PVC = ("aurora", "dawn")

#: Every artifact, in the order the service lists them.
ARTIFACTS: dict[str, Artifact] = {
    a.name: a
    for a in (
        Artifact("table1", f"{_TABLES}:table_i"),
        Artifact("table2", f"{_TABLES}:table_ii", takes_ctx=True, systems=_PVC),
        Artifact("table3", f"{_TABLES}:table_iii", takes_ctx=True, systems=_PVC),
        Artifact("table4", f"{_TABLES}:table_iv"),
        Artifact("table5", f"{_TABLES}:table_v"),
        Artifact(
            "table6", f"{_TABLES}:table_vi", takes_ctx=True,
            systems=_PVC + ("jlse-h100", "jlse-mi250"),
        ),
        *(
            Artifact(fig, "repro.analysis.figures:render_figure", args=(fig,))
            for fig in ("fig1", "fig2", "fig3", "fig4")
        ),
        Artifact("report", "repro.analysis.report:full_report", takes_ctx=True),
    )
}


def render(name: str, ctx: "ExecutionContext | None" = None) -> str:
    """The text of artifact *name* (no trailing newline)."""
    artifact = ARTIFACTS[name]
    kwargs: dict = {"ctx": ctx} if artifact.takes_ctx else {}
    if artifact.systems:
        kwargs["systems"] = artifact.systems
    out = artifact.call(**kwargs)
    return out if isinstance(out, str) else out.render()
