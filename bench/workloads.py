"""The four workloads: what each runs, how it is checked, what it records.

Two shapes:

* **process workloads** (``campaign-paper``, ``sweep-million``) spawn one
  fresh ``pvc-bench`` process per op, back to back after one untimed
  warm-up, as a user regenerating the paper or exploring the design
  space does.  An op's latency is spawn to exit.
* **service workloads** (``service-warm``, ``service-cold``) boot the
  ``serve-bench`` daemon in a child process, warm it with one request
  per command, then drive it with an open loop (``openloop.py``).

Every op's output is checked against ``expected.json``; an op that
exits non-zero, answers non-200, or whose output digest differs counts
as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import time
from dataclasses import dataclass, field

import openloop
import spans
from procs import BENCH_DIR, Child, Scratch, import_times

__all__ = ["WORKLOADS", "Run", "load_expected"]

EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

#: Longest a single campaign or sweep process may take before it is
#: killed and counted as failed.
PROCESS_TIMEOUT_S = 60.0

#: Longest the daemon may take to bind its port, and to drain on SIGTERM.
DAEMON_START_TIMEOUT_S = 60.0
DAEMON_STOP_TIMEOUT_S = 30.0

#: Fewest set-ups per service run; set-up time is their median.
SERVICE_SETUPS = 3

#: Tenants the service workloads spread requests over, round-robin.
TENANTS = 4


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def tables_digest(directory: str) -> str:
    """sha256 over each table file's ``name + NUL + bytes``, by name."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def topk_digest(rows: list[dict]) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


@dataclass
class Run:
    """Everything one workload run measured."""

    slo_s: float
    ops: list[dict] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    work_per_s: list[float] = field(default_factory=list)
    lag_s: list[float] = field(default_factory=list)
    #: Traced ops' layer folds and artifacts (``--trace`` runs only).
    traced: list[dict] = field(default_factory=list)

    def untraced(self) -> list[dict]:
        return [op for op in self.ops if not op["traced"]]


# ----------------------------------------------------------------------
# process workloads
# ----------------------------------------------------------------------


class ProcessWorkload:
    """One ``pvc-bench`` process per op."""

    name = ""
    why = ""
    slo_s = 0.0
    #: Entry points a traced op must call (the ledger's wrapper guard).
    ledger: tuple[str, ...] = ()

    def args(self, directory: str) -> list[str]:
        raise NotImplementedError

    def check(self, run_dir: str, expected: dict) -> tuple[float, str]:
        """``(work units done, error or "")`` from the op's artifacts."""
        raise NotImplementedError

    def artifacts(self, run_dir: str) -> dict:
        """Layer figures the op's own artifacts report (traced ops)."""
        return {}

    def run(self, scratch: Scratch, expected: dict, seconds: float,
            trace: bool, seed: int) -> Run:
        """Ops back to back for *seconds*; with *trace*, every other op
        is traced.  The inputs are fixed by the spec, so *seed* is
        unused."""
        run = Run(self.slo_s)
        warm = self._one(scratch, expected, traced=False)
        if not warm["ok"]:
            raise RuntimeError(f"{self.name} warm-up failed: {warm['error']}")
        start = time.monotonic_ns()
        previous_exit = None
        while (time.monotonic_ns() - start) / 1e9 < seconds:
            traced = trace and len(run.ops) % 2 == 1
            op = self._one(scratch, expected, traced)
            spawn_ns, exit_ns = op.pop("spawn_ns"), op.pop("exit_ns")
            if previous_exit is not None:
                run.lag_s.append((spawn_ns - previous_exit) / 1e9)
            previous_exit = exit_ns
            run.ops.append(op)
            if op["ok"] and not traced:
                run.setup_s.append(op["setup_s"])
                run.rss_mb.append(op["rss_mb"])
                run.work_per_s.append(op["work"] / op["main_s"])
            if op["ok"] and traced:
                run.traced.append(op.pop("trace"))
        return run

    def _one(self, scratch: Scratch, expected: dict, traced: bool) -> dict:
        child = scratch.spawn(self.name, self.args, traced)
        code = child.wait(PROCESS_TIMEOUT_S)
        op = {
            "latency_s": child.wall_s,
            "traced": traced,
            "ok": False,
            "error": "",
            "rss_mb": child.peak_rss_mb,
            "spawn_ns": child.spawn_ns,
            "exit_ns": child.exit_ns,
        }
        run_dir = os.path.join(child.dir, "run")
        if code != 0:
            tail = child.stderr().strip().splitlines()[-1:] or [""]
            op["error"] = f"exit {code}: {tail[0]}"
        else:
            marker = child.marker()
            op["setup_s"] = (marker["ready"] - child.spawn_ns) / 1e9
            op["main_s"] = (marker["main_end"] - marker["main_start"]) / 1e9
            op["work"], op["error"] = self.check(run_dir, expected)
            op["ok"] = not op["error"]
            if traced and op["ok"]:
                op["trace"] = {
                    "wall_s": child.wall_s,
                    "fold": spans.fold(spans.load(child.spans_path), {"process"}),
                    "imports": import_times(child.stderr()),
                    "io_retries": marker["io_retries"],
                    "installed": marker["installed"],
                    **self.artifacts(run_dir),
                }
        shutil.rmtree(child.dir, ignore_errors=True)
        return op


class CampaignPaper(ProcessWorkload):
    name = "campaign-paper"
    why = ("regenerates every paper table as a user does; its time is mostly "
           "the micro functional legs")
    slo_s = 5.0
    ledger = (
        "repro.micro.gemm:blocked_gemm",
        "repro.micro.fft:fft",
        "repro.micro.fft:fft2",
        "repro.micro.common:MicroBenchmark.measure",
        "repro.sim.engine:PerfEngine.kernel_time_s",
        "repro.sim.engine:PerfEngine.roofline",
        "repro.runtime.sycl:SyclQueue.submit",
        "repro.runtime.sycl:SyclQueue.memcpy",
        "repro.telemetry.metrics:MetricsRegistry.inc",
        "repro.telemetry.metrics:MetricsRegistry.observe",
        "repro.analysis.tables:table_i",
        "repro.analysis.tables:table_ii",
        "repro.analysis.tables:table_iii",
        "repro.analysis.tables:table_iv",
        "repro.analysis.tables:table_v",
        "repro.analysis.tables:table_vi",
        "repro.analysis.figures:render_figure",
        "repro.campaign.units:execute_unit",
        "repro.campaign.journal:Journal.append",
        "repro.campaign.store:ResultStore.put",
        "repro.ioutils:atomic_write_text",
        "repro.ioutils:atomic_write_json",
        "repro.ioutils:fsync_append_text",
        "repro.obs.events:EventBus.emit",
        "repro.obs.events:EventBus.live",
    )

    def args(self, directory: str) -> list[str]:
        return ["campaign", "run", "--dir", os.path.join(directory, "run"),
                "--spec", "paper", "--jobs", "1"]

    def check(self, run_dir: str, expected: dict) -> tuple[float, str]:
        from repro.obs.events import EVENTS_FILE, read_events

        got = tables_digest(os.path.join(run_dir, "tables"))
        if got != expected["campaign-paper"]["tables_sha256"]:
            return 0.0, f"tables digest {got[:12]} differs from expected"
        units = sum(
            1 for rec in read_events(os.path.join(run_dir, EVENTS_FILE))
            if rec.get("type") == "unit-committed"
        )
        return float(units), ""

    def artifacts(self, run_dir: str) -> dict:
        with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
            metrics = json.load(fh)["campaign"]["metrics"]

        def total(name: str) -> float:
            return sum(s["value"] for s in metrics.get(name, {}).get("samples", []))

        return {"simcache_hit": total("simcache.hit"),
                "simcache_miss": total("simcache.miss")}


class SweepMillion(ProcessWorkload):
    name = "sweep-million"
    why = ("1,105,920-point design-space sweep: all batch-engine NumPy, "
           "bypassing micro, journal and HTTP")
    slo_s = 5.0
    ledger = (
        "repro.sweep.runner:run_sweep",
        "repro.sim.batch:BatchEngine.evaluate",
        "repro.sim.engine:PerfEngine.roofline",
        "repro.ioutils:atomic_write_text",
        "repro.ioutils:atomic_write_json",
    )

    def args(self, directory: str) -> list[str]:
        return ["sweep", "million", "--dir", os.path.join(directory, "run")]

    def _summary(self, run_dir: str) -> dict:
        from repro.sweep.runner import SWEEP_FILE

        with open(os.path.join(run_dir, SWEEP_FILE), encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, run_dir: str, expected: dict) -> tuple[float, str]:
        summary = self._summary(run_dir)
        want = expected["sweep-million"]
        got = topk_digest(summary["topk"])
        if got != want["topk_sha256"]:
            return 0.0, f"top-K digest {got[:12]} differs from expected"
        if summary["scalar"].get("verified") is not True:
            return 0.0, "scalar golden check did not verify"
        if summary["points"] != want["points"]:
            return 0.0, f"{summary['points']} points, expected {want['points']}"
        return float(summary["points"]), ""

    def artifacts(self, run_dir: str) -> dict:
        chunks = self._summary(run_dir)["chunks"]
        return {"chunks": len(chunks),
                "chunk_s": sum(c["wall_s"] for c in chunks)}


# ----------------------------------------------------------------------
# service workloads
# ----------------------------------------------------------------------

DAEMON_URL = re.compile(r"at http://[0-9.]+:(\d+)")


@dataclass
class Daemon:
    child: Child
    port: int
    setup_s: float


class ServiceWorkload:
    """The daemon in a child process, driven by an open loop."""

    name = ""
    why = ""
    slo_s = 0.0
    rate_per_s = 0.0
    ledger: tuple[str, ...] = ()
    #: Daemons measured per run, each for an equal share of the window;
    #: the latency median is the median of theirs, because a fresh
    #: daemon process shifts it by more than a longer window does.
    daemons = 1
    #: Client threads (and connections).  A request holds its
    #: connection until it is done, so a loop of slow requests needs
    #: more of them to send each request when it is due.
    clients = openloop.CLIENTS

    def schedule(self, seed: int, seconds: float, commands: list[str],
                 t0: int) -> list[tuple[int, dict]]:
        raise NotImplementedError

    def check(self, out: openloop.Outcome, expected: dict) -> str:
        if out.error:
            return out.error
        if out.http != 200 or out.status != "done":
            return f"http {out.http} status {out.status!r}"
        want = expected["service"][out.body["command"]]
        if out.text_sha256 != want:
            return f"{out.body['command']} text digest differs from expected"
        return ""

    def boot(self, scratch: Scratch, expected: dict, traced: bool) -> Daemon:
        """Spawn the daemon, wait for its port, warm every command once."""
        child = scratch.spawn(
            self.name,
            lambda d: ["serve-bench", "--dir", os.path.join(d, "state"),
                       "--port", "0"],
            traced,
        )
        deadline = time.monotonic() + DAEMON_START_TIMEOUT_S
        port = None
        while port is None:
            found = DAEMON_URL.search(child.stderr())
            if found:
                port = int(found.group(1))
            elif not child.alive or time.monotonic() > deadline:
                child.kill()
                child.wait(DAEMON_STOP_TIMEOUT_S)
                raise RuntimeError(
                    f"{self.name}: daemon did not start: {child.stderr()[-500:]}"
                )
            else:
                time.sleep(0.002)
        for command in sorted(expected["service"]):
            out = openloop.Outcome(
                index=0, due=time.monotonic_ns(),
                body={"request_id": f"setup-{command}", "tenant": "setup",
                      "command": command, "seed": 0},
            )
            openloop.send_one("127.0.0.1", port, out, 60.0)
            error = self.check(out, expected)
            if error:
                child.terminate(DAEMON_STOP_TIMEOUT_S)
                raise RuntimeError(f"{self.name} warm pass failed: {error}")
        return Daemon(child, port, (time.monotonic_ns() - child.spawn_ns) / 1e9)

    def drive(self, daemon: Daemon, run: Run, seed: int, seconds: float,
              expected: dict, traced: bool, group: int = 0) -> list[openloop.Outcome]:
        commands = sorted(expected["service"])
        t0 = time.monotonic_ns() + 50_000_000
        schedule = self.schedule(seed, seconds, commands, t0)
        outcomes = openloop.run_schedule("127.0.0.1", daemon.port, schedule,
                                         clients=self.clients)
        ok_done = []
        for out in outcomes:
            error = self.check(out, expected)
            run.ops.append({"latency_s": out.latency_s, "traced": traced,
                            "ok": not error, "error": error, "group": group})
            run.lag_s.append(out.lag_s)
            if not error:
                ok_done.append(out.done)
        if ok_done and not traced:
            run.work_per_s.append(len(ok_done) / ((max(ok_done) - t0) / 1e9))
        return outcomes

    def stop(self, daemon: Daemon) -> None:
        code = daemon.child.terminate(DAEMON_STOP_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"{self.name}: daemon exited {code} on SIGTERM")

    def run(self, scratch: Scratch, expected: dict, seconds: float,
            trace: bool, seed: int) -> Run:
        run = Run(self.slo_s)
        if not trace:
            boots = max(SERVICE_SETUPS, self.daemons)
            for index in range(boots):
                daemon = self.boot(scratch, expected, traced=False)
                run.setup_s.append(daemon.setup_s)
                group = index - (boots - self.daemons)
                if group >= 0:
                    self.drive(daemon, run, seed + group, seconds / self.daemons,
                               expected, traced=False, group=group)
                self.stop(daemon)
                if group >= 0:
                    run.rss_mb.append(daemon.child.peak_rss_mb)
            return run
        # Traced run: half the window untraced (the overhead baseline),
        # half on a traced daemon whose spans feed the ledger.
        plain = self.boot(scratch, expected, traced=False)
        self.drive(plain, run, seed, seconds / 2, expected, traced=False)
        self.stop(plain)
        daemon = self.boot(scratch, expected, traced=True)
        outcomes = self.drive(daemon, run, seed + 1, seconds / 2, expected,
                              traced=True)
        self.stop(daemon)
        run.traced.append(self._fold(daemon, outcomes, seconds / 2))
        return run

    def _fold(self, daemon: Daemon, outcomes, window_s: float) -> dict:
        from repro.obs.requests import REQUESTS_FILE, read_requests

        child = daemon.child
        ops = {out.trace_id for out in outcomes if out.trace_id}
        records = {
            rec["trace_id"]: rec
            for rec in read_requests(os.path.join(child.dir, "state", REQUESTS_FILE))
            if rec.get("type") == "request-span"
        }
        return {
            "fold": spans.fold(spans.load(child.spans_path), ops),
            "imports": import_times(child.stderr()),
            "installed": child.marker()["installed"],
            "io_retries": child.marker()["io_retries"],
            "requests": [
                {"latency_s": out.latency_s,
                 "server": records.get(out.trace_id)}
                for out in outcomes
            ],
            "window_s": window_s,
        }


class ServiceWarm(ServiceWorkload):
    name = "service-warm"
    why = ("open loop of repeated bodies: every request is a result-cache "
           "hit, so HTTP, admission and cache reads are timed")
    slo_s = 0.025
    rate_per_s = 100.0
    daemons = 6
    ledger = (
        "repro.sim.memostore:MemoStore.get",
        "repro.service.state:ServiceState.journal_accepted",
        "repro.service.state:ServiceState.journal_done",
        "repro.ioutils:fsync_append_text",
        "repro.ioutils:atomic_write_json",
        "repro.obs.requests:RequestLog.append",
        "repro.obs.events:EventBus.live",
        "repro.telemetry.metrics:MetricsRegistry.inc",
        "repro.telemetry.metrics:MetricsRegistry.observe",
    )

    def schedule(self, seed, seconds, commands, t0):
        rng = random.Random(seed)
        spacing = int(1e9 / self.rate_per_s)
        count = int(seconds * self.rate_per_s)
        return [
            (t0 + i * spacing,
             {"request_id": f"warm-{seed}-{i}", "tenant": f"tenant-{i % TENANTS}",
              "command": rng.choice(commands), "seed": 0})
            for i in range(count)
        ]


class ServiceCold(ServiceWorkload):
    name = "service-cold"
    why = ("open loop of never-repeated seeds: every request misses the "
           "result cache and executes, writing journal, records and cache")
    slo_s = 2.0
    rate_per_s = 5.0
    clients = 8
    #: Each block of ``block`` requests (``block / rate_per_s`` seconds)
    #: sends ``block - 1`` light requests ``light_spacing_s`` apart, then
    #: one ``heavy`` request at ``heavy_offset_s``, which finishes before
    #: the next block starts.  Light requests then never wait behind it,
    #: so p50 lies inside the light mode and p90 inside the heavy one.
    heavy = "table2"
    block = 8
    light_spacing_s = 0.1
    heavy_offset_s = 0.8
    ledger = ServiceWarm.ledger + (
        "repro.sim.memostore:MemoStore.put",
        "repro.micro.gemm:blocked_gemm",
        "repro.micro.common:MicroBenchmark.measure",
        "repro.sim.engine:PerfEngine.roofline",
        "repro.analysis.tables:table_ii",
    )

    def schedule(self, seed, seconds, commands, t0):
        rng = random.Random(seed)
        light = [c for c in commands if c != self.heavy]
        rng.shuffle(light)
        block_ns = int(self.block / self.rate_per_s * 1e9)
        count = int(seconds * self.rate_per_s)
        out = []
        for start in range(0, count, self.block):
            # A seeded rotation through the light commands keeps their
            # mix the same in every run; the seed orders it.
            base = start // self.block * (self.block - 1)
            names = [light[(base + k) % len(light)] for k in range(self.block - 1)]
            rng.shuffle(names)
            block_t0 = t0 + (start // self.block) * block_ns
            slots = [(block_t0 + int(k * self.light_spacing_s * 1e9), name)
                     for k, name in enumerate(names)]
            slots.append((block_t0 + int(self.heavy_offset_s * 1e9), self.heavy))
            out.extend(slots)
        return [
            (due, {"request_id": f"cold-{seed}-{i}", "tenant": f"tenant-{i % TENANTS}",
                   "command": command, "seed": 1 + seed * 1_000_000 + i})
            for i, (due, command) in enumerate(out[:count])
        ]


WORKLOADS = {
    wl.name: wl
    for wl in (CampaignPaper(), ServiceWarm(), ServiceCold(), SweepMillion())
}
