"""Metrics-contract golden: sha256 digests of what the metrics feed.

Every metric a run records ends up in bytes a user keeps: the paper
campaign embeds each unit's metrics snapshot in its ``store/`` records,
folds them into ``manifest.json``, and streams unit events to
``events.ndjson``; ``pvc-bench metrics <bench>`` prints the Prometheus
scrape.  The golden pins one digest per artifact:

* the paper campaign at ``--jobs 1``: the ``store/`` tree,
  ``events.ndjson`` and ``manifest.json``;
* ``pvc-bench metrics`` stdout for ``gemm``, ``triad``, ``p2p`` and
  ``gemm --inject device-loss --seed 7``.

A change that reorders one float sum, drops a sample or renames a label
changes a digest.  Regenerate ``data/metrics_contract.json`` only when
the metrics are meant to change::

    PYTHONPATH=src python -m tests.integration.metrics_golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from repro.cli import main as cli_main

GOLDEN_PATH = Path(__file__).parent / "data" / "metrics_contract.json"

#: scrape name -> ``pvc-bench`` arguments.
SCRAPES = {
    "metrics gemm": ["metrics", "gemm"],
    "metrics triad": ["metrics", "triad"],
    "metrics p2p": ["metrics", "p2p"],
    "metrics gemm --inject device-loss --seed 7": [
        "metrics", "gemm", "--inject", "device-loss", "--seed", "7",
    ],
}


def tree_digest(directory: Path) -> str:
    """sha256 over each file's ``relative path + NUL + bytes``, by path."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        rel = path.relative_to(directory).as_posix()
        digest.update(rel.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``pvc-bench argv`` in-process: ``(exit code, stdout)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = cli_main(argv)
    return code, out.getvalue()


def campaign_digests(directory: Path) -> dict[str, str]:
    """Run the paper campaign serially into *directory*; its digests."""
    code, _ = run_cli(["campaign", "run", "--dir", str(directory),
                       "--spec", "paper", "--jobs", "1"])
    assert code == 0, code
    return {
        "campaign paper store/": tree_digest(directory / "store"),
        "campaign paper events.ndjson": file_digest(
            directory / "events.ndjson"
        ),
        "campaign paper manifest.json": file_digest(
            directory / "manifest.json"
        ),
    }


def scrape_digests() -> dict[str, str]:
    out = {}
    for name, argv in SCRAPES.items():
        _, text = run_cli(argv)
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


def compute_digests(directory: Path) -> dict[str, str]:
    return {**campaign_digests(directory), **scrape_digests()}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute_digests(Path(tmp) / "paper")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
