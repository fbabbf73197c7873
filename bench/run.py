"""relex benchmark: the paper-protocol compare, a wide-ensemble compare and the
acceptance check, timed end to end and traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the repository root. Each operation is one relex CLI call in a
fresh single-threaded process (closed loop: one operation at a time); the run
makes the whole number of operations that best fills ``--seconds``, at least
one. The output checks of every operation decide ``correct``
and ``failed``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``detail: {...}``) holds provenance, per-operation records and the SHA-256 of
every compare CSV.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs each operation twice with the same root seed, untraced and
then traced (tracer.py), reports the per-layer metrics of the traced runs, the
tracing overhead, and the per-call cost table. ``--smoke`` shrinks every
workload so the whole benchmark runs in seconds (test_bench_smoke.py).

Timings come from the benchmark's own processes only: no ``perf``, no cache
dropping and no system-wide tracing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

STARTED = time.monotonic()
LOADAVG_AT_START = os.getloadavg()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")
PROTOCOL = "configs/mixture_taus_0.01_1.cfg"

RUN_LIMIT_S = 170.0        # every run must end within 180 s
SETUP_PROBES = 10          # set-up-only processes per untraced run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
ALGORITHMS = ("low-temp", "high-temp", "replica-exchange")
BEST_HEADER = "iteration,algorithm,seed,best_so_far"
SUMMARY_HEADER = "iteration,algorithm,median,q25,q75"
TIMING_NOTE = ("timings come from the benchmark's own processes only: no perf, "
               "no cache dropping, no system-wide tracing")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "particle_steps_per_s": "1/s",
             "peak_rss_mb": "MiB", "success_frac": "ratio"}

# Euler-Maruyama particle updates each acceptance criterion makes at its
# pinned sizes (see src/relex/acceptance.py):
#   2: two single chains plus an a = 0 pair, 5 seeds x 10^4 steps;
#   3: 2000 chains x 50000 steps;
#   4: two chi-square experiments, 2000 pairs x 1000 steps each;
#   6: 500 pairs over 3200 reference steps plus 25 + 50 + 100 + 200 coarse steps;
#   7: the protocol compare, 4 particles x 20 seeds x 10^4 steps;
#   8: two formulations, 2000 pairs x 20000 steps each.
CHECK_PARTICLE_STEPS = {1: 0, 2: 4 * 5 * 10_000, 3: 2000 * 50_000,
                        4: 2 * 2 * 2000 * 1000, 5: 0,
                        6: 2 * 500 * (3200 + 25 + 50 + 100 + 200),
                        7: 4 * 20 * 10_000, 8: 2 * 2 * 2000 * 20_000, 9: 0}
SMOKE_CRITERIA = (1, 4, 5, 6, 9)   # the criteria that take under a second


class Compare:
    """``relex compare`` on the protocol config, the root seed as argument."""

    def __init__(self, overrides):
        from relex.cli import load_config
        self.overrides = list(overrides)
        cfg = load_config(os.path.join(ROOT, PROTOCOL), self.overrides)
        dyn = cfg["dynamics"]
        self.kappa = float(cfg["objective"]["kappa"])
        self.ensemble = int(dyn["ensemble"])
        self.steps = int(dyn["steps"])
        self.stride = int(dyn["stride"])
        # Low and high baselines move one particle each, the replica pair two.
        self.particle_steps = 4 * self.ensemble * self.steps

    def argv(self, root_seed, out_dir):
        sets = [arg for item in self.overrides for arg in ("--set", item)]
        return (["compare", "--config", PROTOCOL] + sets
                + ["--seed", str(root_seed), "--out", out_dir])

    def judge(self, child, out_dir, root_seed):
        """(attempted, failed, record) for one compare call."""
        problems = []
        shas = {}
        if child.get("rc") != 0:
            problems.append(f"exit code {child.get('rc')}: {child.get('error', '')}")
        else:
            npoints = self.steps // self.stride + 1
            for name, header, rows in (
                    ("bestsofar.csv", BEST_HEADER, 3 * self.ensemble * npoints),
                    ("summary.csv", SUMMARY_HEADER, 3 * npoints)):
                path = os.path.join(out_dir, name)
                if not os.path.isfile(path):
                    problems.append(f"{name} missing")
                    continue
                with open(path, "rb") as fh:
                    data = fh.read()
                shas[name] = hashlib.sha256(data).hexdigest()
                lines = data.decode().splitlines()
                problems += self._check_echo(name, lines[0], root_seed)
                if lines[1:2] != [header]:
                    problems.append(f"{name} header {lines[1:2]}")
                if len(lines) - 2 != rows:
                    problems.append(f"{name} has {len(lines) - 2} rows, expected {rows}")
                elif name == "bestsofar.csv":
                    problems += self._check_curves(lines[2:], npoints)
                else:
                    problems += self._check_summary(lines[2:])
        record = {"root_seed": root_seed, "csv_sha256": shas, "problems": problems}
        return 1, int(bool(problems)), record

    def _check_echo(self, name, line, root_seed):
        from relex.cli import emit_canonical_config, load_config, parse_canonical_config
        prefix = "# config: "
        if not line.startswith(prefix):
            return [f"{name} lacks the config echo"]
        echo = line[len(prefix):]
        if emit_canonical_config(parse_canonical_config(echo)) != echo:
            return [f"{name} config echo does not round-trip"]
        expected = load_config(os.path.join(ROOT, PROTOCOL), self.overrides, root_seed)
        if echo != emit_canonical_config(expected):
            return [f"{name} config echo differs from the config run"]
        return []

    def _check_curves(self, rows, npoints):
        import numpy as np
        cols = np.array(" ".join(rows).replace(",", " ").split()).reshape(-1, 4).T
        iters = cols[0].astype(int).reshape(-1, npoints)
        algs = cols[1].reshape(-1, npoints)
        seeds = cols[2].astype(int).reshape(-1, npoints)
        values = cols[3].astype(float).reshape(-1, npoints)
        problems = []
        if not np.all(iters == np.arange(0, self.steps + 1, self.stride)):
            problems.append("best-so-far iterations are not 0, stride, ..., steps")
        keys = set(zip(algs[:, 0], seeds[:, 0]))
        if (not np.all(algs == algs[:, :1]) or not np.all(seeds == seeds[:, :1])
                or keys != {(a, s) for a in ALGORITHMS for s in range(self.ensemble)}):
            problems.append("best-so-far rows are not one curve per (algorithm, seed)")
        # The mixture weights i/325 sum to 1, so U >= -1 / (2 pi kappa).
        floor = -1.0 / (2.0 * math.pi * self.kappa)
        if not np.all(np.isfinite(values)):
            problems.append("best-so-far has non-finite values")
        elif np.any(np.diff(values, axis=1) > 0):
            problems.append("a best-so-far curve increases")
        elif values.min() < floor:
            problems.append(f"best-so-far {values.min()} below the mixture minimum bound {floor}")
        return problems

    def _check_summary(self, rows):
        values = [float(v) for row in rows for v in row.split(",")[2:]]
        return [] if all(map(math.isfinite, values)) else ["summary has non-finite values"]


class Check:
    """``relex check``: every criterion pins its own seeds, so the root seed
    does not reach it."""

    def __init__(self, only=None):
        self.only = only      # a subset of criteria (smoke mode), or None for all
        self.criteria = tuple(only or range(1, 10))
        self.particle_steps = sum(CHECK_PARTICLE_STEPS[c] for c in self.criteria)

    def argv(self, root_seed, out_dir):
        return ["check"]

    def judge(self, child, out_dir, root_seed):
        """(attempted, failed, record); one operation per criterion."""
        status = {}
        for line in child.get("stdout", "").splitlines():
            match = re.match(r"\[(PASS|FAIL)\] (\d+) ", line)
            if match:
                status[int(match.group(2))] = match.group(1) == "PASS"
        passed = sum(status.get(c, False) for c in self.criteria)
        attempted = len(self.criteria)
        problems = [f"criterion {c} {'FAIL' if c in status else 'missing'}"
                    for c in self.criteria if not status.get(c, False)]
        expected_rc = 0 if passed == attempted else 4
        summary = f"check: {passed}/{attempted} criteria passed"
        if child.get("rc") != expected_rc or summary not in child.get("stdout", ""):
            problems.append(f"exit code {child.get('rc')}: {child.get('error', '')}")
            passed = 0
        record = {"criteria": {str(c): status.get(c) for c in self.criteria},
                  "problems": problems}
        return attempted, attempted - passed, record


def make_workload(name, smoke):
    if name == "compare_protocol":
        return Compare(["steps=200"] if smoke else [])
    if name == "compare_wide":
        return Compare(["ensemble=100", "steps=20"] if smoke
                       else ["ensemble=2000", "steps=200"])
    return Check(SMOKE_CRITERIA if smoke else None)


WORKLOADS = ("compare_protocol", "compare_wide", "acceptance_check")


# ---------------------------------------------------------------------------
# Processes.

def child_env():
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def spawn(spec):
    """Run child.py with ``spec`` and return its JSON result, or an error."""
    remaining = RUN_LIMIT_S - (time.monotonic() - STARTED)
    spec = dict(spec, spawned=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}


def run_op(workload, root_seed, trace, work_dir):
    out_dir = tempfile.mkdtemp(prefix="op-", dir=work_dir)
    try:
        child = spawn({"mode": "op", "argv": workload.argv(root_seed, out_dir),
                       "trace": trace, "criteria": getattr(workload, "only", None)})
        attempted, failed, record = workload.judge(child, out_dir, root_seed)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    record.update(trace=trace, attempted=attempted, failed=failed,
                  **{k: child[k] for k in ("wall_s", "setup_s", "peak_rss_mb")
                     if k in child})
    return record, child


# ---------------------------------------------------------------------------
# Measurement.

def measure(workload, seed, seconds, trace, smoke, work_dir):
    """Run operations for about ``seconds``; returns (ops, probes, traced, cost)."""
    start = time.monotonic()
    probes, ops, traced, cost = [], [], [], None
    if not trace:
        # The first probe warms the file cache and is discarded.
        for i in range(SETUP_PROBES + 1 if not smoke else 1):
            child = spawn({"mode": "probe", "argv": workload.argv(seed, work_dir),
                           "trace": False})
            if (i > 0 or smoke) and "setup_s" in child:
                probes.append(child["setup_s"])
    loop_start = time.monotonic()
    index = 0
    while True:
        root_seed = seed * 1000 + index
        record, _ = run_op(workload, root_seed, False, work_dir)
        ops.append(record)
        if trace:
            record, child = run_op(workload, root_seed, True, work_dir)
            if record.get("csv_sha256") != ops[-1].get("csv_sha256"):
                record["problems"].append("traced CSVs differ from the untraced ones")
                record["failed"] = record["attempted"]
            ops.append(record)
            traced.append(child)
        index += 1
        now = time.monotonic()
        per_op = (now - loop_start) / index
        # Make the whole number of operations that best fills the window.
        if (now - start + per_op / 2 > seconds
                or now - STARTED + per_op > RUN_LIMIT_S - 15):
            break
    if trace:
        cost = spawn({"mode": "cost", "repeats": 1 if smoke else 5})
    return ops, probes, traced, cost


def end_to_end(workload, ops, probes):
    good = [op for op in ops if "wall_s" in op and not op["failed"]]
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    if not good:
        return None
    median = statistics.median
    return {
        "wall_s": median(op["wall_s"] for op in good),
        "setup_s": median(probes + [op["setup_s"] for op in good]),
        "particle_steps_per_s": median(workload.particle_steps / op["wall_s"] for op in good),
        "peak_rss_mb": median(op["peak_rss_mb"] for op in good),
        "success_frac": (attempted - failed) / attempted,
    }


def per_layer(workload, ops, traced, cost):
    import tracer
    done = [child for child in traced if "trace" in child]
    untraced = [op["wall_s"] for op in ops if not op["trace"] and "wall_s" in op]
    if not done or not untraced:
        return None
    # One whole traced operation, the one with the median wall time, so that its
    # layer self times and remainder add up to its trace.wall_s.
    walls = [child["wall_s"] for child in done]
    chosen = done[walls.index(statistics.median_low(walls))]
    metrics = tracer.layer_metrics(chosen, workload.particle_steps)
    metrics["trace.overhead_s"] = chosen["wall_s"] - statistics.median(untraced)
    if "error" in cost:
        print(f"bench: cost table failed: {cost['error']}", file=sys.stderr)
    for name, _ in tracer.COST_METRICS:
        metrics[name] = cost.get("cost", {}).get(name)
    return metrics


# ---------------------------------------------------------------------------
# Provenance and output.

def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_sha():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def reference_kernel_ms(repeats=7):
    """Median time of a fixed numpy kernel that does not touch relex: shows
    how fast the machine ran, so its drift can be told from program changes."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 1_000_000)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.exp(-x * x).sum()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def provenance(reference_ms):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "child_num_threads": dict.fromkeys(THREAD_VARS, "1"),
        "loadavg_at_start": LOADAVG_AT_START,
        "reference_kernel_ms_at_start_and_end": reference_ms,
        "note": TIMING_NOTE,
    }


def print_table(metrics, units):
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:<40} {shown:>14} {units[name]}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every workload and the tracer in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    for needed in ("src/relex/cli.py", PROTOCOL):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"bench: {needed} not found under {ROOT}; run from a relex checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = make_workload(args.workload, args.smoke)

    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    reference_ms = [reference_kernel_ms()]
    try:
        ops, probes, traced, cost = measure(workload, args.seed, args.seconds,
                                            bool(args.trace), args.smoke, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    reference_ms.append(reference_kernel_ms())

    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    if args.trace:
        import tracer
        metrics = per_layer(workload, ops, traced, cost)
        units = tracer.metric_units()
    else:
        metrics = end_to_end(workload, ops, probes)
        units = E2E_UNITS
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "particle_steps_per_op": workload.particle_steps,
              "failed_frac": failed / attempted if attempted else None,
              "setup_probes_s": probes, "ops": ops, "provenance": provenance(reference_ms)}
    for op in ops:
        for problem in op.get("problems", []):
            print(f"bench: {args.workload} root seed {op.get('root_seed')}: {problem}",
                  file=sys.stderr)
    if metrics is None:
        print("bench: no operation completed", file=sys.stderr)
        print("detail: " + json.dumps(detail))
        return 1
    print_table(metrics, units)
    print("detail: " + json.dumps(detail))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: ({"value": value, "unit": units[name]} if value is not None
                                 else {"value": None, "unit": units[name], "absent": True})
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
