"""CLI smoke tests (every subcommand)."""

import json
import re
import shlex
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main

from .import_sets import (
    DISPATCH,
    GOLDEN_PATH,
    compute_import_sets,
    modules_loaded,
    run_fresh,
)


class TestCli:
    @pytest.mark.parametrize(
        "command",
        [
            "table1",
            "table3",
            "table4",
            "table5",
            "fig2",
            "claims",
            "systems",
            "roofline",
            "top500",
        ],
    )
    def test_command_runs(self, command, capsys):
        assert main([command]) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_table2_prints_paper_rows(self, capsys):
        main(["table2"])
        out = capsys.readouterr().out
        assert "Double Precision Peak Flops" in out
        assert "Aurora (PVC) / Six PVC" in out
        assert "17 TFlop/s" in out

    def test_table6_prints_foms(self, capsys):
        main(["table6"])
        out = capsys.readouterr().out
        assert "miniBUDE" in out and "HACC" in out

    def test_claims_all_pass(self, capsys):
        main(["claims"])
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_fig1_prints_series(self, capsys):
        main(["fig1"])
        out = capsys.readouterr().out
        assert "# aurora" in out and "cycles" in out

    def test_fig3_marks_minibude_deviation(self, capsys):
        main(["fig3"])
        out = capsys.readouterr().out
        assert "[deviates]" in out  # miniBUDE beats its expected bar
        assert "[as expected]" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["table9"])


class TestFaultInjectionCli:
    def test_device_loss_degrades_but_completes(self, capsys):
        # Acceptance: the full suite completes, affected cells are marked
        # DEGRADED with provenance, and the exit code is 1 — no traceback.
        assert main(["table2", "--inject", "device-loss", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        assert "fault provenance:" in out
        assert "Double Precision Peak Flops" in out  # table still rendered

    def test_injected_run_is_deterministic(self, capsys):
        assert main(["table3", "--inject", "plane-outage", "--seed", "0"]) == 1
        first = capsys.readouterr().out
        assert main(["table3", "--inject", "plane-outage", "--seed", "0"]) == 1
        second = capsys.readouterr().out
        assert first == second

    def test_plane_outage_changes_table3_cells(self, capsys):
        main(["table3"])
        clean = capsys.readouterr().out
        main(["table3", "--inject", "plane-outage", "--seed", "0"])
        faulted = capsys.readouterr().out
        # Values change (rerouted traffic), not just annotations.
        clean_cells = [l.split("*")[0].rstrip() for l in clean.splitlines()]
        faulted_cells = [
            l.split("*")[0].rstrip()
            for l in faulted.splitlines()[: len(clean_cells)]
        ]
        assert clean_cells != faulted_cells

    def test_mpi_hang_is_diagnosed_not_waited_out(self, capsys):
        # The hung rank is diagnosed the moment its peers block, and the
        # stdout matches the recorded golden byte for byte.
        golden = Path(__file__).parent / "data" / "table3_mpi_hang_seed0.txt"
        start = time.monotonic()
        assert main(["table3", "--inject", "mpi-hang", "--seed", "0"]) == 1
        assert time.monotonic() - start < 1.0
        assert capsys.readouterr().out == golden.read_text()

    def test_partition_fails_cells_exit_2(self, capsys):
        assert main(["table3", "--inject", "partition", "--seed", "0"]) == 2
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "TopologyError" in out

    def test_unknown_scenario_one_line_diagnosis(self, capsys):
        assert main(["table2", "--inject", "meteor-strike"]) == 2
        captured = capsys.readouterr()
        assert "pvc-bench: ScenarioError:" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_clean_run_unchanged_by_flag_defaults(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "fault provenance" not in out

    def test_health_clean(self, capsys):
        assert main(["health"]) == 0
        out = capsys.readouterr().out
        assert "verdict: HEALTHY" in out

    def test_health_under_injection(self, capsys):
        assert main(["health", "--inject", "device-loss", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert "verdict: DEGRADED" in out
        assert "fault history" in out


def _exit_code(argv):
    """The process exit code: main's return value or its SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestFlagOwnership:
    """Each command accepts only the flags its handler reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            "table4 --inject throttle",
            "table4 --top-k 3",
            "sweep smoke --spec paper",
            "campaign status --dir D --top-k 1",
            "loadgen --port 1 --ndjson",
            "profile sweep --system dawn",
            "profile sweep --inject throttle",
            "profile sweep --seed 1",
            "profile service --flamegraph x",
            "profile service --out y",
            "profile service --manifest m",
        ],
    )
    def test_foreign_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        err = capsys.readouterr().err
        foreign = argv.split(" --")[-1].split()[0]  # the last flag
        assert f"unrecognized arguments: --{foreign}" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            "sweep smoke --top-k 0",
            "sweep smoke --jobs 0",
            "campaign watch RUN --interval 0",
            "serve-bench --dir D --workers 0",
            "loadgen --port 9 --concurrency 0",
        ],
    )
    def test_explicit_zero_is_not_replaced_by_the_default(self, argv, capsys):
        assert _exit_code(argv.split()) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("value", ["1", "0", "1.5"])
    def test_slo_availability_outside_open_unit_interval(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve-bench", "--dir", "D", "--slo-availability", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "(0, 1)" in err
        assert len(err.strip().splitlines()) == 1

    def test_import_loads_no_service_sweep_or_profiler_code(self):
        # Every pvc-bench process imports the CLI and builds its parser;
        # the heavy subsystems load only when their command runs.
        out = modules_loaded(
            "import repro.cli; repro.cli.build_parser()",
            ("repro.service", "repro.sweep", "repro.profiler"),
        )
        assert out == []

    def test_bench_entry_points_load_neither_networkx_nor_scipy(self):
        # The fabric routes on its own adjacency map and the HPCG solver
        # imports scipy only when it runs, so no campaign, sweep or
        # service process pays for either package at start-up.
        out = modules_loaded(
            "import repro.cli, repro.campaign.orchestrator, "
            "repro.sweep.runner, repro.service.daemon",
            ("networkx", "scipy"),
        )
        assert out == []

    def test_bench_entry_points_load_no_process_pool(self):
        # A pool is built only inside a --jobs > 1 run, so importing the
        # entry points loads neither multiprocessing nor the executor.
        out = modules_loaded(
            "import repro.cli, repro.campaign.orchestrator, "
            "repro.sweep.runner, repro.service.daemon",
            (
                "multiprocessing",
                "concurrent.futures",
                "repro.campaign.supervisor",
            ),
        )
        assert out == []

    def test_top500_does_not_load_scipy(self):
        # top500 reads only the analytic HPL/HPCG models.
        out = modules_loaded(
            "from repro.cli import main; main(['top500'])", ("scipy",)
        )
        assert out == []


class TestImportSets:
    """Each benchmarked entry point loads what its command runs, before
    ``main`` starts (see ``import_sets.py``)."""

    def test_entry_points_load_the_pinned_import_sets(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        now = compute_import_sets()
        assert now.keys() == golden.keys() == DISPATCH.keys()
        for command, modules in golden.items():
            extra = sorted(set(now[command]) - set(modules))
            missing = sorted(set(modules) - set(now[command]))
            assert not extra and not missing, (command, extra, missing)

    @pytest.mark.parametrize(
        "argv, dispatch",
        [
            (["campaign", "run", "--spec", "smoke"], "repro.campaign.orchestrator"),
            (["sweep", "smoke"], "repro.sweep.runner"),
            (["sweep", "bude-tune"], "repro.sweep.runner"),
        ],
        ids=["campaign-smoke", "sweep-smoke", "sweep-bude-tune"],
    )
    def test_main_loads_no_module(self, argv, dispatch, tmp_path):
        # Start-up is timed apart from the run: an import that first
        # happens inside main() would move into the timed region.
        argv = argv + ["--dir", str(tmp_path / "run")]
        lines = run_fresh(
            f"import json, sys, repro.cli, repro.ioutils, {dispatch}\n"
            "before = set(sys.modules)\n"
            f"code = repro.cli.main({argv!r})\n"
            "print(json.dumps([code, sorted(m for m in set(sys.modules) - "
            "before if m.startswith('repro'))]))"
        )
        code, late = json.loads(lines[-1])
        assert code == 0
        assert late == []


_ROOT = Path(__file__).resolve().parents[2]

#: A quickstart line whose comment states the value it evaluates to.
_STATED_VALUE = re.compile(r"^(\S.*?)\s+#\s+(\d\.\d+e\d+)\b.*$", re.M)


def test_readme_quickstart_states_true_values():
    # The README's snippets import through the packages' lazy
    # re-exports; run them as a new user would, in a fresh interpreter.
    text = (_ROOT / "README.md").read_text()
    section = text.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    source = "\n".join(re.findall(r"```python\n(.*?)```", section, re.S))
    stated = [value for _, value in _STATED_VALUE.findall(source)]
    assert stated == ["1.70e13", "2.29e13", "1.0e12"]
    program = _STATED_VALUE.sub(r"print(repr(\1))", source)
    *values, quantity = run_fresh(program)
    for got, want in zip(values, stated, strict=True):
        digits = len(want.split("e")[0]) - 2
        assert f"{float(got):.{digits}e}" == f"{float(want):.{digits}e}"
    assert quantity == "195 TFlop/s"

#: A line that starts a ``pvc-bench`` shell command, after an optional
#: CI ``run:`` key, a ``!`` negation and environment assignments.
_INVOCATION = re.compile(
    r"^\s*(?:run:\s*)?(?:!\s*)?(?:[A-Z_]+=\S*\s+)*pvc-bench\s+(.*)$"
)


def _documented_invocations() -> dict[str, list[str]]:
    """Every ``pvc-bench`` command line in the docs, the CLI docstring
    and CI, reduced to its argv (comments, redirections, pipes, ``&``
    and ``\\`` continuations stripped)."""
    import repro.cli

    texts = [repro.cli.__doc__]
    for path in [
        _ROOT / "README.md",
        *sorted((_ROOT / "docs").glob("*.md")),
        _ROOT / ".github" / "workflows" / "ci.yml",
    ]:
        texts.append(path.read_text())
    found = {}
    for text in texts:
        for line in text.replace("\\\n", " ").splitlines():
            match = _INVOCATION.match(line)
            if match is None:
                continue
            cmd = re.split(r"\s#", match.group(1))[0]
            cmd = re.sub(r"\s\d?>&?\s*[^\s|&;]+", "", cmd)
            cmd = re.split(r"[|&;]", cmd)[0]
            argv = shlex.split(cmd)
            found[" ".join(argv)] = argv
    return found


_DOCUMENTED = _documented_invocations()


class TestDocumentedInvocations:
    def test_extraction_finds_the_documented_surface(self):
        commands = {argv[0] for argv in _DOCUMENTED.values()}
        assert len(_DOCUMENTED) > 80
        assert {"campaign", "obs", "service", "serve-bench", "loadgen",
                "sweep", "profile", "trend", "trace"} <= commands

    @pytest.mark.parametrize("argv", list(_DOCUMENTED.values()),
                             ids=list(_DOCUMENTED))
    def test_parses(self, argv):
        build_parser().parse_args(argv)
