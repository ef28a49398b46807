"""Campaign specs: the paper's result set as a deterministic DAG.

A :class:`CampaignSpec` enumerates :class:`CampaignUnit`\\ s — table
cells grouped per system, figure series, static tables — plus *render*
units that merge measured cells into the final paper-style tables and a
*summary* unit that rolls every artifact's status into one page.  Units
are declared in topological order (a unit may only depend on units
declared before it), which both proves the graph is acyclic and fixes
the execution order the orchestrator and the resume path share.

The spec :meth:`~CampaignSpec.digest` pins the campaign's identity: the
journal records it at campaign start and ``resume`` refuses to continue
under a spec whose digest no longer matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.artifacts import ARTIFACTS
from ..errors import CampaignError
from ..ioutils import canonical_json, sha256_text

__all__ = ["CampaignUnit", "CampaignSpec", "SPEC_NAMES", "get_spec"]

#: Unit kinds the executor understands.
UNIT_KINDS = ("table", "render", "static", "figure", "summary")


@dataclass(frozen=True, slots=True)
class CampaignUnit:
    """One schedulable node of the campaign DAG.

    ``kind`` selects the executor: ``table`` measures one system's slice
    of one paper table; ``render`` merges its dependencies' cells into
    the final table text; ``static``/``figure`` produce text directly;
    ``summary`` reports every dependency's status.  ``artifact`` names
    the output file (under the campaign's ``tables/`` directory) the
    unit's text is published to on completion, if any.
    """

    id: str
    kind: str
    table: str | None = None
    system: str | None = None
    figure: str | None = None
    artifact: str | None = None
    deps: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in UNIT_KINDS:
            raise CampaignError(
                f"unit {self.id!r}: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(UNIT_KINDS)})"
            )

    def to_doc(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "table": self.table,
            "system": self.system,
            "figure": self.figure,
            "artifact": self.artifact,
            "deps": list(self.deps),
        }


@dataclass(frozen=True)
class CampaignSpec:
    """A named, validated campaign DAG."""

    name: str
    units: tuple[CampaignUnit, ...]
    _index: dict[str, CampaignUnit] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        seen: dict[str, CampaignUnit] = {}
        for unit in self.units:
            if unit.id in seen:
                raise CampaignError(f"duplicate unit id {unit.id!r}")
            for dep in unit.deps:
                if dep not in seen:
                    raise CampaignError(
                        f"unit {unit.id!r} depends on {dep!r}, which is not "
                        "declared before it (cycle or missing unit)"
                    )
            seen[unit.id] = unit
        self._index.update(seen)

    def __len__(self) -> int:
        return len(self.units)

    def unit(self, unit_id: str) -> CampaignUnit:
        try:
            return self._index[unit_id]
        except KeyError:
            raise CampaignError(
                f"spec {self.name!r} has no unit {unit_id!r}"
            ) from None

    def execution_order(self) -> tuple[CampaignUnit, ...]:
        """Topological execution order (the declaration order)."""
        return self.units

    def waves(self) -> tuple[tuple[CampaignUnit, ...], ...]:
        """Topological partition into waves of independent units.

        Wave *k* holds every unit whose longest dependency chain has
        length *k*; all units within a wave may execute concurrently.
        The partition bounds the campaign's critical path (number of
        waves) and its maximum useful parallelism (widest wave).
        """
        depth: dict[str, int] = {}
        for unit in self.units:
            depth[unit.id] = 1 + max(
                (depth[d] for d in unit.deps), default=-1
            )
        n_waves = 1 + max(depth.values(), default=-1)
        waves: list[list[CampaignUnit]] = [[] for _ in range(n_waves)]
        for unit in self.units:
            waves[depth[unit.id]].append(unit)
        return tuple(tuple(w) for w in waves)

    def systems(self) -> list[str]:
        """Every system any measuring unit touches, sorted."""
        return sorted({u.system for u in self.units if u.system is not None})

    def to_doc(self) -> dict:
        return {
            "schema": "repro.campaign.spec/v1",
            "name": self.name,
            "units": [u.to_doc() for u in self.units],
        }

    def digest(self) -> str:
        """Content digest pinning the campaign's identity across runs."""
        return sha256_text(canonical_json(self.to_doc()))


# ----------------------------------------------------------------------
# named specs
# ----------------------------------------------------------------------

def _measured_units(
    table: str, systems: tuple[str, ...]
) -> list[CampaignUnit]:
    measures = [
        CampaignUnit(
            id=f"{table}:{system}", kind="table", table=table, system=system
        )
        for system in systems
    ]
    render = CampaignUnit(
        id=f"{table}:render",
        kind="render",
        table=table,
        artifact=f"{table}.txt",
        deps=tuple(u.id for u in measures),
    )
    return measures + [render]


def _summary_unit(units: list[CampaignUnit]) -> CampaignUnit:
    published = tuple(u.id for u in units if u.artifact is not None)
    return CampaignUnit(
        id="campaign:summary",
        kind="summary",
        artifact="summary.txt",
        deps=published,
    )


def _text_unit(name: str) -> CampaignUnit:
    if name.startswith("fig"):
        return CampaignUnit(
            id=f"{name}:render", kind="figure", figure=name,
            artifact=f"{name}.txt",
        )
    return CampaignUnit(
        id=f"{name}:render", kind="static", table=name,
        artifact=f"{name}.txt",
    )


def paper_spec() -> CampaignSpec:
    """The full campaign: every registry artifact a campaign publishes
    (:attr:`~repro.analysis.artifacts.Artifact.in_campaign`), measured
    tables first."""
    published = [a for a in ARTIFACTS.values() if a.in_campaign]
    units: list[CampaignUnit] = []
    for artifact in published:
        if artifact.systems:
            units.extend(_measured_units(artifact.name, artifact.systems))
    for artifact in published:
        if not artifact.systems:
            units.append(_text_unit(artifact.name))
    units.append(_summary_unit(units))
    return CampaignSpec("paper", tuple(units))


def smoke_spec() -> CampaignSpec:
    """A three-minute spec for CI and tests: Table III plus the summary."""
    units = _measured_units("table3", ("aurora", "dawn"))
    units.append(_summary_unit(units))
    return CampaignSpec("smoke", tuple(units))


_SPECS = {"paper": paper_spec, "smoke": smoke_spec}

SPEC_NAMES: tuple[str, ...] = tuple(sorted(_SPECS))


def get_spec(name: str) -> CampaignSpec:
    """Look up a named campaign spec (``paper`` or ``smoke``)."""
    try:
        builder = _SPECS[name.strip().lower()]
    except KeyError:
        raise CampaignError(
            f"unknown campaign spec {name!r}; known: {', '.join(SPEC_NAMES)}"
        ) from None
    return builder()
