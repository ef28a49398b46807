"""One process under test: import the program, mark ready, run one CLI call.

Usage (the benchmark spawns this; it is not meant to be run by hand)::

    python bench/child.py --marker M.json [--spans S.json] -- <pvc-bench args>

The marker file records, in ``time.monotonic_ns()`` (one clock for every
process on the machine), when imports finished (``ready``) and when
``repro.cli.main`` started and returned; set-up time is spawn-to-ready.  With ``--spans`` every layer entry point
is wrapped (see ``spans.py``) and the spans are written when ``main``
returns, which for ``serve-bench`` is after a SIGTERM drain.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

#: The module each CLI command dispatches to, imported before the ready
#: mark so that set-up time covers every import the command needs.
_DISPATCH = {
    "campaign": "repro.campaign.orchestrator",
    "serve-bench": "repro.service.daemon",
    "sweep": "repro.sweep.runner",
}


def _write(path: str, doc: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    marker = opts[opts.index("--marker") + 1]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    import repro.cli
    import repro.ioutils

    importlib.import_module(_DISPATCH[cli_args[0]])
    recorder = None
    installed: list[str] = []
    run = repro.cli.main
    if spans_path is not None:
        import spans

        recorder = spans.SpanRecorder()
        installed = spans.install(recorder)
        recorder.bind_op("process")
        run = recorder.wrap("main", "repro.cli:main", repro.cli.main)
    doc = {"ready": time.monotonic_ns(), "installed": installed}
    _write(marker, doc)
    doc["main_start"] = time.monotonic_ns()
    code = run(cli_args)
    doc["main_end"] = time.monotonic_ns()
    doc["exit"] = code
    doc["io_retries"] = repro.ioutils.io_retry_count()
    if recorder is not None:
        recorder.dump(spans_path)
    _write(marker, doc)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
