"""Declarative sweep specifications.

A :class:`SweepSpec` names a design space, not a result: a workload
family (how axis values become kernel descriptors), the systems to
evaluate on, the precision and stack-count scopes, and the parameter
axes proper (tile sizes, lane counts, ppwi, work-group sizes, ...).
The runner (:mod:`.runner`) expands the cross product lazily — a chunk
of global indices turns into per-axis value arrays with a few ``divmod``
array ops, never a Python loop over points — so a million-point spec
costs a few hundred bytes until evaluated.

Builtin specs cover the paper's exploration needs (a test-sized
``smoke``, the ~140k-point ``ci`` gate sweep, the ≥10^6-point
``million`` space, the miniBUDE launch grid, and an instruction-mix
space across all four systems); arbitrary spaces load from JSON files
with the ``repro.sweep.spec/v1`` schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from ..dtypes import Precision
from ..errors import ConfigurationError
from ..hw.systems import SYSTEM_NAMES, get_system

__all__ = [
    "SWEEP_SPEC_NAMES",
    "SWEEP_SPEC_SCHEMA",
    "WORKLOAD_NAMES",
    "SweepSpec",
    "get_sweep_spec",
    "load_sweep_spec",
]

SWEEP_SPEC_SCHEMA = "repro.sweep.spec/v1"


@lru_cache(maxsize=None)
def _n_stacks(sysname: str) -> int:
    """Stack count of a named system.

    ``get_system`` builds the whole node (fabric graph included) on
    every call; the runner asks for the stack scope once per chunk,
    inside the timed batch path, so the count is looked up once per
    name.
    """
    return get_system(sysname).n_stacks

#: Workload families the runner knows how to turn into kernel columns,
#: with the axes each one requires (in grid order).
_WORKLOAD_AXES: dict[str, tuple[str, ...]] = {
    "gemm-tile": ("tile_m", "tile_n", "tile_k"),
    "fma": ("lanes", "chain"),
    "stream": ("array_mib",),
    "bude": ("ppwi", "wgsize"),
    "mix": ("intensity_q", "size_kib"),
}

WORKLOAD_NAMES: tuple[str, ...] = tuple(sorted(_WORKLOAD_AXES))

#: Precision label used in specs/rows for "no precision" (pure data
#: movement; the engine rates it as FP32).
NO_PRECISION = "none"


def _precision_code(label: str) -> int:
    from ..sim.batch import PRECISION_CODES

    if label == NO_PRECISION:
        return PRECISION_CODES[None]
    try:
        return PRECISION_CODES[Precision.from_label(label)]
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None


@dataclass(frozen=True)
class SweepSpec:
    """One declarative design space.

    Attributes
    ----------
    name:
        Spec label (rides into ``sweep.json`` and baseline entries).
    workload:
        Workload family; decides which axes are required and how axis
        values become kernel descriptors (see :data:`WORKLOAD_NAMES`).
    systems:
        System names (grid-outermost; each system's sub-grid is
        evaluated on its own engine).
    precisions:
        Precision labels (``"fp64"``, ..., or ``"none"``).
    stacks:
        Explicit stack counts, or ``"all"`` for 1..n_stacks per system
        (so Aurora contributes 12 scopes where Dawn contributes 8).
    axes:
        Ordered ``(name, values)`` pairs; the last axis varies fastest.
    description:
        One line for ``pvc-bench sweep --list`` style surfaces.
    """

    name: str
    workload: str
    systems: tuple[str, ...]
    precisions: tuple[str, ...]
    stacks: tuple[int, ...] | str
    axes: tuple[tuple[str, tuple[int, ...]], ...]
    description: str = ""

    def __post_init__(self) -> None:
        if self.workload not in _WORKLOAD_AXES:
            raise ConfigurationError(
                f"unknown sweep workload {self.workload!r}; known: "
                + ", ".join(WORKLOAD_NAMES)
            )
        required = _WORKLOAD_AXES[self.workload]
        names = tuple(name for name, _ in self.axes)
        if names != required:
            raise ConfigurationError(
                f"workload {self.workload!r} needs axes {required}, "
                f"spec {self.name!r} has {names}"
            )
        if not self.systems:
            raise ConfigurationError(f"spec {self.name!r} names no systems")
        for sysname in self.systems:
            _n_stacks(sysname)  # raises UnknownSystemError early
        if not self.precisions:
            raise ConfigurationError(
                f"spec {self.name!r} names no precisions"
            )
        for label in self.precisions:
            _precision_code(label)
        if isinstance(self.stacks, str):
            if self.stacks != "all":
                raise ConfigurationError(
                    f"stacks must be explicit counts or 'all', "
                    f"got {self.stacks!r}"
                )
        elif not self.stacks or any(s < 1 for s in self.stacks):
            raise ConfigurationError(
                f"spec {self.name!r} has an empty or non-positive "
                "stack list"
            )
        for axis, values in self.axes:
            if not values:
                raise ConfigurationError(
                    f"spec {self.name!r} axis {axis!r} is empty"
                )
            if any(v < 1 for v in values):
                raise ConfigurationError(
                    f"spec {self.name!r} axis {axis!r} has non-positive "
                    "values"
                )

    # -- geometry ----------------------------------------------------------

    def stack_values(self, sysname: str) -> tuple[int, ...]:
        """The stack-count scope for one system."""
        n = _n_stacks(sysname)
        if self.stacks == "all":
            return tuple(range(1, n + 1))
        bad = [s for s in self.stacks if s > n]
        if bad:
            raise ConfigurationError(
                f"spec {self.name!r} asks for {max(bad)} stack(s) on "
                f"{sysname} (has {n})"
            )
        return tuple(self.stacks)

    def precision_codes(self) -> tuple[int, ...]:
        return tuple(_precision_code(label) for label in self.precisions)

    def system_points(self, sysname: str) -> int:
        """Grid size of one system's sub-grid."""
        n = len(self.stack_values(sysname)) * len(self.precisions)
        for _, values in self.axes:
            n *= len(values)
        return n

    def n_points(self) -> int:
        """Total points across every system."""
        return sum(self.system_points(s) for s in self.systems)

    # -- serialization -----------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "schema": SWEEP_SPEC_SCHEMA,
            "name": self.name,
            "workload": self.workload,
            "systems": list(self.systems),
            "precisions": list(self.precisions),
            "stacks": (
                self.stacks if isinstance(self.stacks, str)
                else list(self.stacks)
            ),
            "axes": [[name, list(values)] for name, values in self.axes],
            "description": self.description,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "SweepSpec":
        if not isinstance(doc, dict) or doc.get("schema") != SWEEP_SPEC_SCHEMA:
            raise ConfigurationError(
                "not a sweep spec document (expected schema "
                f"{SWEEP_SPEC_SCHEMA!r}, got "
                f"{doc.get('schema') if isinstance(doc, dict) else None!r})"
            )
        stacks = doc.get("stacks", "all")
        # A spec file is untrusted input: a missing field, an axis that
        # is not a (name, values) pair or a non-integer value is a
        # ConfigurationError (one CLI error line), not a traceback.
        try:
            return cls(
                name=str(doc["name"]),
                workload=str(doc["workload"]),
                systems=tuple(str(s) for s in doc["systems"]),
                precisions=tuple(str(p) for p in doc["precisions"]),
                stacks=(
                    stacks if isinstance(stacks, str)
                    else tuple(int(s) for s in stacks)
                ),
                axes=tuple(
                    (str(name), tuple(int(v) for v in values))
                    for name, values in doc["axes"]
                ),
                description=str(doc.get("description", "")),
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"sweep spec is missing field {exc.args[0]!r}"
            ) from None
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed sweep spec: {exc}") from None


def _tile_axis(lo: int, hi: int, step: int) -> tuple[int, ...]:
    return tuple(range(lo, hi + 1, step))


#: The builtin design spaces.  ``million`` is the acceptance space:
#: 48 x 48 tile shapes x 4 depths x 6 precisions x every stack scope of
#: Aurora (12) and Dawn (8) = 9216 x 4 x 6 x 20 / 4 ... = 1,105,920
#: points, all through the batch path in one CLI invocation.  The PVC
#: and H100 calibrations cover all six GEMM precisions; MI250 lacks
#: TF32, so the cross-system ``mix`` space sticks to the vector
#: precisions.
_BUILTIN_SPECS: dict[str, SweepSpec] = {
    spec.name: spec
    for spec in (
        SweepSpec(
            name="smoke",
            workload="gemm-tile",
            systems=("aurora",),
            precisions=("fp64", "fp32"),
            stacks=(1, 2),
            axes=(
                ("tile_m", (64, 128, 256)),
                ("tile_n", (64, 128, 256)),
                ("tile_k", (16, 32)),
            ),
            description="72-point test space (fast enough for unit tests)",
        ),
        SweepSpec(
            name="ci",
            workload="gemm-tile",
            systems=("aurora", "dawn"),
            precisions=("fp64", "fp32", "fp16", "bf16", "tf32", "i8"),
            stacks="all",
            axes=(
                ("tile_m", _tile_axis(16, 384, 16)),
                ("tile_n", _tile_axis(16, 384, 16)),
                ("tile_k", (16, 32)),
            ),
            description="~138k-point PVC tile space (the BENCH_3 gate sweep)",
        ),
        SweepSpec(
            name="million",
            workload="gemm-tile",
            systems=("aurora", "dawn"),
            precisions=("fp64", "fp32", "fp16", "bf16", "tf32", "i8"),
            stacks="all",
            axes=(
                ("tile_m", _tile_axis(16, 768, 16)),
                ("tile_n", _tile_axis(16, 768, 16)),
                ("tile_k", (16, 32, 64, 128)),
            ),
            description=">=10^6-point tile space (the acceptance sweep)",
        ),
        SweepSpec(
            name="bude-tune",
            workload="bude",
            systems=("aurora", "dawn"),
            precisions=("fp32",),
            stacks=(1,),
            axes=(
                ("ppwi", (1, 2, 4, 8, 16, 32, 64, 128)),
                ("wgsize", (32, 64, 128, 256, 512, 1024)),
            ),
            description="miniBUDE launch grid as a roofline space",
        ),
        SweepSpec(
            name="mix",
            workload="mix",
            systems=SYSTEM_NAMES,
            precisions=("fp64", "fp32"),
            stacks="all",
            axes=(
                ("intensity_q", (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)),
                ("size_kib", (64, 256, 1024, 4096, 16384)),
            ),
            description="arithmetic-intensity ladder across all four systems",
        ),
    )
}

SWEEP_SPEC_NAMES: tuple[str, ...] = tuple(sorted(_BUILTIN_SPECS))


def get_sweep_spec(name: str) -> SweepSpec:
    """A builtin spec by name."""
    try:
        return _BUILTIN_SPECS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown sweep spec {name!r}; builtin: "
            + ", ".join(SWEEP_SPEC_NAMES)
        ) from None


def load_sweep_spec(name_or_path: str) -> SweepSpec:
    """A builtin spec by name, or a JSON spec file by path."""
    if name_or_path in _BUILTIN_SPECS:
        return _BUILTIN_SPECS[name_or_path]
    path = Path(name_or_path)
    if not path.exists():
        raise ConfigurationError(
            f"no builtin sweep spec and no spec file at {name_or_path!r}; "
            f"builtin: {', '.join(SWEEP_SPEC_NAMES)}"
        )
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"sweep spec {path} is not valid JSON: {exc}"
        ) from exc
    return SweepSpec.from_doc(doc)


# Re-exported for the runner (the axis contract belongs to the
# workload registry, not to the dataclass API).
WORKLOAD_AXES = _WORKLOAD_AXES
