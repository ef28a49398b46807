"""Child processes under test, each in its own scratch directory.

Every process gets a fresh directory under the run's scratch root with
its own ``TMPDIR``, ``HOME`` and ``XDG_CACHE_HOME``, so a cache the
program keeps there starts cold, as it does for a user.  The scratch
root lives inside the checkout and is removed when the run ends, after
every child has been reaped.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

__all__ = ["Child", "Scratch", "import_times"]

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")

#: Environment variables that would change what the program does.
_PROGRAM_ENV = ("CAMPAIGN_JOBS", "REPRO_TRACEPARENT", "PYTHONPATH")


class Child:
    """One spawned ``child.py`` process and what it left behind."""

    def __init__(self, directory: str, cli_args: list[str], traced: bool,
                 env: dict) -> None:
        self.dir = directory
        self.marker_path = os.path.join(directory, "marker.json")
        self.spans_path = os.path.join(directory, "spans.json") if traced else None
        self.stderr_path = os.path.join(directory, "stderr.txt")
        self.traced = traced
        cmd = [sys.executable]
        if traced:
            cmd += ["-X", "importtime"]
        cmd += [CHILD, "--marker", self.marker_path]
        if traced:
            cmd += ["--spans", self.spans_path]
        cmd += ["--", *cli_args]
        self._stderr = open(self.stderr_path, "wb")
        self.spawn_ns = time.monotonic_ns()
        self.popen = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._stderr, env=env, cwd=directory,
        )
        self.exit_ns = 0
        self.exit_code: int | None = None
        self.rusage = None

    def wait(self, timeout_s: float) -> int:
        """Reap the child (killing it after *timeout_s*); its exit code."""
        if self.exit_code is not None:
            return self.exit_code
        timer = threading.Timer(timeout_s, self.kill)
        timer.start()
        try:
            _, status, self.rusage = os.wait4(self.popen.pid, 0)
        finally:
            timer.cancel()
        self.exit_ns = time.monotonic_ns()
        self.exit_code = os.waitstatus_to_exitcode(status)
        self.popen.returncode = self.exit_code
        self._stderr.close()
        return self.exit_code

    def kill(self) -> None:
        if self.exit_code is None:
            try:
                self.popen.send_signal(signal.SIGKILL)
            except ProcessLookupError:
                pass

    def terminate(self, timeout_s: float) -> int:
        """SIGTERM (the daemon drains), then reap."""
        if self.exit_code is None:
            self.popen.send_signal(signal.SIGTERM)
        return self.wait(timeout_s)

    @property
    def alive(self) -> bool:
        return self.exit_code is None and self.popen.poll() is None

    @property
    def wall_s(self) -> float:
        return (self.exit_ns - self.spawn_ns) / 1e9

    @property
    def peak_rss_mb(self) -> float:
        # ru_maxrss is in KiB on Linux.
        return self.rusage.ru_maxrss / 1024.0

    def marker(self) -> dict:
        with open(self.marker_path, encoding="utf-8") as fh:
            return json.load(fh)

    def stderr(self) -> str:
        with open(self.stderr_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()


class Scratch:
    """One run's scratch root; spawns children and reaps them all."""

    def __init__(self) -> None:
        base = os.path.join(ROOT, ".bench_scratch")
        os.makedirs(base, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=base)
        self._children: list[Child] = []
        self._ids = itertools.count()

    def fresh_dir(self, tag: str) -> str:
        directory = os.path.join(self.path, f"{next(self._ids):04d}-{tag}")
        for sub in ("tmp", "home", "cache"):
            os.makedirs(os.path.join(directory, sub))
        return directory

    def spawn(self, tag: str, cli_args, traced: bool = False) -> Child:
        """Start ``child.py`` in a fresh directory; *cli_args* is a
        function of that directory giving the ``pvc-bench`` arguments."""
        directory = self.fresh_dir(tag)
        env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
        env.update(
            PYTHONPATH=os.path.join(ROOT, "src"),
            TMPDIR=os.path.join(directory, "tmp"),
            HOME=os.path.join(directory, "home"),
            XDG_CACHE_HOME=os.path.join(directory, "cache"),
        )
        child = Child(directory, cli_args(directory), traced, env)
        self._children.append(child)
        return child

    def close(self) -> None:
        """Kill and reap any child still running; remove the root."""
        for child in self._children:
            if child.exit_code is None:
                child.kill()
                child.wait(30.0)
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def import_times(stderr_text: str) -> dict[str, float]:
    """Seconds of ``-X importtime`` self time by top-level package."""
    totals: dict[str, float] = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        try:
            self_us, _cumulative, name = line[len("import time:"):].split("|")
            package = name.strip().split(".")[0]
            totals[package] = totals.get(package, 0.0) + int(self_us) / 1e6
        except ValueError:
            continue
    return totals
