"""Regenerate ``bench/expected.json``, the benchmark's correctness oracles.

Run from the repository root, on a commit whose outputs are trusted::

    python3 bench/make_expected.py

It runs the paper campaign, the ``million`` sweep and one request per
service command once each, and records:

* ``campaign-paper.tables_sha256``: sha256 over each ``tables/`` file's
  ``name + NUL + bytes``, in name order;
* ``sweep-million.topk_sha256``: sha256 of the sorted-key JSON of the
  sweep's top-K rows, plus the point count;
* ``service.<command>``: sha256 of each command's result text, which
  does not depend on the request's seed when no fault scenario is set
  (checked here on several seeds).
"""

from __future__ import annotations

import json
import os
import sys
import time

import openloop
from procs import ROOT, Scratch
from workloads import DAEMON_URL, EXPECTED_PATH, SweepMillion, tables_digest, topk_digest

#: Service commands, as the daemon names them.
COMMANDS = ("fig1", "fig2", "fig3", "fig4", "report", "table1", "table2",
            "table3", "table4", "table5", "table6")

#: Request seeds on which every command's text must be the same.
SEEDS = (0, 1, 7)


def _service(scratch: Scratch) -> dict:
    child = scratch.spawn(
        "expected-service",
        lambda d: ["serve-bench", "--dir", os.path.join(d, "state"), "--port", "0"],
    )
    try:
        while not (found := DAEMON_URL.search(child.stderr())):
            if not child.alive:
                raise RuntimeError(child.stderr())
            time.sleep(0.01)
        port = int(found.group(1))
        digests: dict[str, str] = {}
        for command in COMMANDS:
            for seed in SEEDS:
                out = openloop.Outcome(index=0, due=time.monotonic_ns(), body={
                    "request_id": f"{command}-{seed}", "command": command,
                    "seed": seed})
                openloop.send_one("127.0.0.1", port, out, 120.0)
                if out.error or out.status != "done":
                    raise RuntimeError(f"{command}: {out.error or out.status}")
                if digests.setdefault(command, out.text_sha256) != out.text_sha256:
                    raise RuntimeError(f"{command}: text depends on the seed")
    finally:
        child.terminate(30.0)
    return digests


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with Scratch() as scratch:
        campaign = scratch.spawn(
            "expected-campaign",
            lambda d: ["campaign", "run", "--dir", os.path.join(d, "run"),
                       "--spec", "paper", "--jobs", "1"],
        )
        sweep = scratch.spawn("expected-sweep", SweepMillion().args)
        if campaign.wait(120.0) or sweep.wait(120.0):
            raise RuntimeError("campaign or sweep failed")
        with open(os.path.join(sweep.dir, "run", "sweep.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        if summary["scalar"].get("verified") is not True:
            raise RuntimeError("sweep scalar golden check did not verify")
        doc = {
            "campaign-paper": {
                "tables_sha256": tables_digest(
                    os.path.join(campaign.dir, "run", "tables")),
            },
            "service": _service(scratch),
            "sweep-million": {
                "points": summary["points"],
                "topk_sha256": topk_digest(summary["topk"]),
            },
        }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
