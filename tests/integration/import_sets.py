"""Import-set golden: the ``repro`` modules each benchmarked entry point
loads before its command runs.

A ``pvc-bench`` process imports ``repro.cli``, ``repro.ioutils`` and the
module its command dispatches to, then calls ``main``.  For
``campaign run --spec paper``, ``sweep million`` and ``serve-bench``
the golden lists, per command, the sorted ``repro`` modules loaded by
those three imports in a fresh interpreter.  A module that appears here
but runs nothing in its command is start-up time spent for nothing
(every module loaded is also compiled when bytecode is not cached).

Regenerate ``data/import_sets.json`` only when an entry point is meant
to load a different set::

    PYTHONPATH=src python -m tests.integration.import_sets
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

GOLDEN_PATH = Path(__file__).parent / "data" / "import_sets.json"

#: command -> the module its handler dispatches to.
DISPATCH = {
    "campaign run --spec paper": "repro.campaign.orchestrator",
    "serve-bench": "repro.service.daemon",
    "sweep million": "repro.sweep.runner",
}


def run_fresh(code: str) -> list[str]:
    """Run *code* in a fresh interpreter; the lines it prints."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return out.strip().splitlines()


def modules_loaded(code: str, prefixes: tuple[str, ...]) -> list[str]:
    """The sorted modules starting with one of *prefixes* that are
    loaded after *code* runs in a fresh interpreter."""
    lines = run_fresh(
        code + "\nimport json, sys; print(json.dumps(sorted(m for m in "
        f"sys.modules if m.startswith({prefixes!r}))))"
    )
    return json.loads(lines[-1])


def import_set(command: str) -> list[str]:
    return modules_loaded(
        f"import repro.cli, repro.ioutils, {DISPATCH[command]}", ("repro",)
    )


def compute_import_sets() -> dict[str, list[str]]:
    return {command: import_set(command) for command in DISPATCH}


def main() -> None:
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_import_sets(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
