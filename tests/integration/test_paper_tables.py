"""The paper campaign's tables match the benchmark's output oracle.

``bench/expected.json`` pins a digest of every table and figure the
paper campaign writes.  Checking it here keeps the functional-leg
protocol, the simulation memo and any future leg or engine cache honest
in the tier-1 suite, not only in benchmark runs.
"""

import hashlib
import json
import os
from pathlib import Path

from repro.cli import main

EXPECTED = Path(__file__).resolve().parents[2] / "bench" / "expected.json"


def tables_digest(directory: Path) -> str:
    """sha256 over each table file's ``name + NUL + bytes``, by name."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode() + b"\0" + (directory / name).read_bytes())
    return digest.hexdigest()


def test_paper_campaign_tables_match_the_oracle(tmp_path, capsys):
    run = tmp_path / "paper"
    rc = main(["campaign", "run", "--dir", str(run), "--spec", "paper",
               "--jobs", "1"])
    assert rc == 0, capsys.readouterr().err
    expected = json.loads(EXPECTED.read_text())["campaign-paper"]
    assert tables_digest(run / "tables") == expected["tables_sha256"]
