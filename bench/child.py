"""One benchmark process: a relex CLI call, a set-up probe, or the cost table.

run.py starts this script in a fresh single-threaded interpreter with one JSON
argument and reads the JSON line it prints last:

    python bench/child.py '{"mode": "op", "argv": ["compare", ...],
                            "trace": false, "criteria": null, "spawned": T}'

``mode`` is "op" (run the CLI call), "probe" (stop at the handler call, so only
set-up is timed) or "cost" (per-call cost table). ``spawned`` is the parent's
``time.monotonic()`` just before it started this process; CLOCK_MONOTONIC is
shared by all processes, so set-up time includes interpreter start-up.
``criteria`` restricts ``relex check`` to a subset (smoke mode only);
``repeats`` sets the samples per call of the cost table.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import relex.cli as cli
    result = {"import_s": time.perf_counter() - start}

    if spec["mode"] == "cost":
        from tracer import cost_table
        result["cost"] = cost_table(repeats=spec["repeats"])
        print(json.dumps(result))
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if spec.get("criteria"):
        import relex.acceptance as acceptance
        acceptance.CRITERIA = tuple(c for c in acceptance.CRITERIA
                                    if int(c[0].split()[0]) in spec["criteria"])

    marks = {}

    def timed(handler):
        def run(*args, **kwargs):
            marks["handler_at"] = time.monotonic()
            if tracer is not None:
                marks["setup_trace"] = tracer.take()
            if spec["mode"] == "probe":
                return 0
            begin = time.perf_counter()
            try:
                return handler(*args, **kwargs)
            finally:
                marks["wall_s"] = time.perf_counter() - begin
                if tracer is not None:
                    marks["trace"] = tracer.take()
        return run

    for name, handler in list(cli.HANDLERS.items()):
        cli.HANDLERS[name] = timed(handler)

    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            rc = cli.main(spec["argv"])
    except Exception:                       # reported as a failed operation
        rc = None
        result["error"] = traceback.format_exc()
    result.update(marks)
    result["rc"] = rc
    result["stdout"] = captured.getvalue()
    if "handler_at" in marks:
        result["setup_s"] = marks["handler_at"] - spec["spawned"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
