"""One artifact, one text: every path that renders a paper artifact
prints the same bytes.

Walks :data:`repro.analysis.artifacts.ARTIFACTS`.  For each artifact
(clean, and under ``device-loss --seed 7`` when it takes the fault
flags) three paths must agree:

* the CLI's stdout (``pvc-bench <name> [--inject ... --seed ...]``);
* the paper campaign's ``tables/<name>.txt`` (the report has none);
* the service's ``bench`` text plus the newline ``print`` adds.
"""

import pytest

from repro.analysis.artifacts import ARTIFACTS
from repro.cli import main
from repro.service.daemon import BenchDaemon
from repro.service.state import normalize_request

#: (scenario, seed) pairs; ``None`` is the clean run.
FAULTS = {"clean": (None, 0), "device-loss-7": ("device-loss", 7)}

CASES = [
    pytest.param(name, fault, id=f"{name}-{fault}")
    for name, artifact in ARTIFACTS.items()
    for fault in FAULTS
    if fault == "clean" or artifact.takes_ctx
]


def _flags(fault: str) -> list[str]:
    scenario, seed = FAULTS[fault]
    return [] if scenario is None else ["--inject", scenario, "--seed", str(seed)]


@pytest.fixture(scope="module")
def campaign_tables(tmp_path_factory):
    """``fault -> tables/`` of one paper campaign per fault setting."""
    tables = {}
    for fault in FAULTS:
        run = tmp_path_factory.mktemp(f"campaign-{fault}")
        main(["campaign", "run", "--dir", str(run), "--spec", "paper",
              *_flags(fault)])
        tables[fault] = run / "tables"
    return tables


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """An unstarted daemon: its executor's bench path, in process."""
    return BenchDaemon(tmp_path_factory.mktemp("service") / "state", workers=1)


@pytest.mark.parametrize("name, fault", CASES)
def test_every_path_renders_the_same_bytes(
    name, fault, campaign_tables, service, capsys
):
    capsys.readouterr()
    main([name, *_flags(fault)])
    stdout = capsys.readouterr().out

    if ARTIFACTS[name].in_campaign:
        assert (campaign_tables[fault] / f"{name}.txt").read_text() == stdout

    scenario, seed = FAULTS[fault]
    body = normalize_request({"command": name, "scenario": scenario, "seed": seed})
    status, _, text = service._run_bench(body)
    assert status == "done"
    assert text + "\n" == stdout


def test_campaign_publishes_every_registry_artifact_but_the_report(
    campaign_tables,
):
    published = sorted(
        p.stem for p in campaign_tables["clean"].iterdir() if p.stem != "summary"
    )
    assert published == sorted(n for n in ARTIFACTS if n != "report")
