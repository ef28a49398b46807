"""The bytes the metrics feed match their golden digests.

``data/metrics_contract.json`` pins the paper campaign's ``store/``
tree, ``events.ndjson`` and ``manifest.json`` at ``--jobs 1``, and the
``pvc-bench metrics`` scrapes of ``gemm``, ``triad``, ``p2p`` and a
fault-injected ``gemm`` (see ``metrics_golden.py``).  The metrics are
folded from recorded events; a fold that reorders one float sum or
loses one event changes a digest.
"""

import json

from .metrics_golden import GOLDEN_PATH, campaign_digests, scrape_digests


def test_paper_campaign_artifacts_match_the_golden(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert campaign_digests(tmp_path / "paper") == {
        name: digest for name, digest in golden.items()
        if name.startswith("campaign ")
    }


def test_metrics_scrapes_match_the_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert scrape_digests() == {
        name: digest for name, digest in golden.items()
        if name.startswith("metrics ")
    }
