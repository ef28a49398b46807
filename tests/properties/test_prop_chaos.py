"""Process-level chaos: byte-identity of campaigns whose workers die.

The property: for every injected worker SIGKILL or transient-ENOSPC
point, at ``--jobs`` 2 and 4, the campaign completes and its journal,
result store, manifest, event stream and rendered tables are
**byte-identical** to a clean serial run.  A worker death breaks the
process pool and the scheduler runs the unsettled units in-process;
unit execution is a pure function of the unit's identity, so the bytes
cannot tell.

Every kill point of the smoke spec is swept exhaustively (each unit,
at two pool sizes), not sampled: the degrade step must hold whichever
unit the dead worker held.
"""

import os

import pytest

from repro.campaign.orchestrator import Orchestrator
from repro.campaign.spec import get_spec
from repro.exitcodes import ExitCode
from repro.faults.process import WorkerFaultPlan, build_worker_plan
from repro.ioutils import io_retry_count, reset_io_retry_count

SPEC = "smoke"
_UNIT_IDS = [u.id for u in get_spec(SPEC).execution_order()]


def _tree_bytes(directory, exclude=()):
    out = {}
    for root, _, files in os.walk(directory):
        for name in files:
            full = os.path.join(root, name)
            rel = os.path.relpath(full, directory)
            # live.ndjson is wall-clock telemetry, outside the
            # byte-identity contract (docs/observability.md).
            if rel in exclude or name == "live.ndjson":
                continue
            with open(full, "rb") as fh:
                out[rel] = fh.read()
    return out


def _run(directory, *, jobs=1, worker_plan=None):
    orch = Orchestrator(
        directory,
        spec=get_spec(SPEC),
        seed=0,
        jobs=jobs,
        worker_plan=worker_plan,
    )
    return orch.run()


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """One clean serial run: the byte-level ground truth."""
    directory = tmp_path_factory.mktemp("golden") / "campaign"
    code = _run(str(directory))
    assert code == ExitCode.OK
    return _tree_bytes(directory)


class TestKillSweep:
    """Every (unit, pool size) kill heals to identical bytes."""

    @pytest.mark.parametrize("jobs", [2, 4])
    @pytest.mark.parametrize("unit_id", _UNIT_IDS)
    def test_any_kill_point_is_byte_identical(
        self, golden, tmp_path, unit_id, jobs
    ):
        plan = WorkerFaultPlan("worker-kill", 0, kill=unit_id)
        code = _run(str(tmp_path / "c"), jobs=jobs, worker_plan=plan)
        assert code == ExitCode.OK
        assert _tree_bytes(tmp_path / "c") == golden


class TestTransientEnospc:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_enospc_is_absorbed_byte_identically(self, golden, tmp_path, jobs):
        reset_io_retry_count()
        plan = build_worker_plan("io-enospc", 0, _UNIT_IDS)
        assert plan.enospc, "seed 0 must schedule at least one failing op"
        directory = tmp_path / f"c{jobs}"
        code = _run(str(directory), jobs=jobs, worker_plan=plan)
        assert code == ExitCode.OK
        assert io_retry_count() > 0, "the fault never fired"
        assert _tree_bytes(directory) == golden


class TestSeededScenarios:
    """The CLI-facing builders stay deterministic and in range."""

    @pytest.mark.parametrize("scenario", ["worker-kill", "io-enospc"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_plans_are_pure_functions_of_seed(self, scenario, seed):
        a = build_worker_plan(scenario, seed, _UNIT_IDS)
        b = build_worker_plan(scenario, seed, _UNIT_IDS)
        assert a == b
        if scenario == "worker-kill":
            assert a.kill in _UNIT_IDS
        else:
            assert a.enospc and a.kill is None

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_seeded_kill_scenario_heals(self, golden, tmp_path, seed):
        plan = build_worker_plan("worker-kill", seed, _UNIT_IDS)
        directory = tmp_path / "c"
        code = _run(str(directory), jobs=2, worker_plan=plan)
        assert code == ExitCode.OK
        assert _tree_bytes(directory) == golden
