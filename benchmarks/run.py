"""billiardlab benchmark: end-to-end and per-layer timings of three workloads.

Usage (from the repository root):

    python3 benchmarks/run.py --workload reflect --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25
    python3 benchmarks/run.py --selftest

One run generates the workload's inputs from ``--seed``, times set-up in
fresh interpreters, runs one untimed pass that warms up and checks every
result, then repeats the same fixed batch as a closed loop (one client,
each operation starts when the previous one returns) for ``--seconds``.
Later passes must reproduce the checked results exactly.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record (manifest, per-pass times, failures) goes to
``.bench_out/result-<workload>-seed<seed>-trace<k>.json``.  The exit code
is 1 when any check fails and 2 when billiardlab cannot be imported.
"""

import os

# One client, no worker threads: pin every BLAS/OpenMP pool before numpy loads.
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("reflect", "projtest", "capacity")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# Host-speed normalization: a fixed kernel is timed at least every
# CALIBRATION_INTERVAL_S, and each time is scaled by
# REFERENCE_KERNEL_S / (kernel time around it).  See README.md.
CALIBRATION_INTERVAL_S = 0.2
REFERENCE_KERNEL_S = 0.003


def import_library():
    """Import billiardlab from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import billiardlab
    except ImportError as exc:
        print(f"error: cannot import billiardlab from src/: {exc}", file=sys.stderr)
        sys.exit(2)
    if src.resolve() not in Path(billiardlab.__file__).resolve().parents:
        print(f"error: billiardlab was imported from {billiardlab.__file__}, "
              "not from src/", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------

def git_sha():
    """HEAD commit read from .git without running git ("unknown" outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_line_count():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def manifest(seed):
    import numpy
    import scipy
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_lines": src_line_count(),
        "thread_pinning": dict(PINNED_THREADS),
        "clients": 1,
        "loop": "closed",
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

def calibration_kernel():
    """Fixed work shaped like the library's: bisection on a small numpy
    implicit function plus a 3x3 LAPACK solve.  It never calls billiardlab,
    so a change to the library cannot change it."""
    import numpy as np
    a = np.array([1.0, 0.8])
    p = np.array([0.1, 0.2])
    v = np.array([0.6, 0.8])
    total = 0.0
    for rep in range(8):
        lo, hi = 0.0, 3.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if float(np.sum(np.abs((p + mid * v) / a) ** 4.0)) < 1.0:
                lo = mid
            else:
                hi = mid
        M = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5 + rep]])
        total += lo + float(np.linalg.solve(M, np.ones(3))[0])
    return total


class HostSpeed:
    """Times the calibration kernel; ``scale`` turns host seconds into
    reference seconds for work done between two calibrations."""

    def __init__(self):
        self.last_at = -float("inf")
        self.last_s = None
        self.samples = []

    def measure(self):
        t0 = time.perf_counter()
        calibration_kernel()
        self.last_at = time.perf_counter()
        self.last_s = self.last_at - t0
        self.samples.append(self.last_s)
        return self.last_s

    def due(self):
        return time.perf_counter() - self.last_at > CALIBRATION_INTERVAL_S

    @staticmethod
    def scale(before_s, after_s):
        return REFERENCE_KERNEL_S / (0.5 * (before_s + after_s))


# ---------------------------------------------------------------------------
# Set-up timing in fresh interpreters
# ---------------------------------------------------------------------------

def probe_setup(spec_path, count, speed):
    """Median over ``count`` fresh interpreters doing the set-up, each in
    reference seconds (scaled by the kernel timed before and after it)."""
    walls, raw, imports, builds = [], [], [], []
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for _ in range(count):
        before = speed.measure()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(spec_path)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        scale = speed.scale(before, speed.measure())
        parts = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(wall)
        walls.append(scale * wall)
        imports.append(scale * parts["import_s"])
        builds.append(scale * parts["bodies_s"])
    return {"setup_s": statistics.median(walls), "import_s": statistics.median(imports),
            "bodies_s": statistics.median(builds), "samples": walls, "raw_samples": raw}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed operations, with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, label, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 50:
                self.reasons.append(f"{label}: {reason}")


def run_op(op):
    """(seconds, result, error text) of one operation."""
    from billiardlab.errors import GeometryError
    t0 = time.perf_counter()
    try:
        result = op.run()
    except GeometryError as exc:
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    except Exception:  # a library bug fails the operation, not the benchmark
        return time.perf_counter() - t0, None, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, result, None


def check_pass(wl, tally):
    """Untimed first pass: warms up and checks every result in full."""
    from workloads import CheckFailure
    results, reasons = [], {}
    for i, op in enumerate(wl.ops):
        _, result, error = run_op(op)
        if error is None:
            try:
                wl.check(i, result)
            except CheckFailure as exc:
                error = str(exc)
        results.append(result)
        if error is not None:
            reasons[i] = error
    for i, reason in wl.group_checks(results).items():
        reasons.setdefault(i, reason)
    for i, op in enumerate(wl.ops):
        tally.record(op.label, reasons.get(i))
    for label, reason in wl.run_checks():
        tally.record(label, reason)
    return [None if i in reasons else wl.fingerprint(i, r) for i, r in enumerate(results)]


def timed_pass(wl, reference, tally, speed):
    """One pass of the batch; every result must equal the checked one.

    Returns (reference-second latencies, host-second latencies, results).
    """
    raw, scaled, results, pending = [], [], [], []
    before = speed.measure()

    def rescale():
        scale = speed.scale(before, speed.measure())
        scaled.extend(scale * s for s in pending)
        pending.clear()
        return speed.last_s

    for i, op in enumerate(wl.ops):
        if pending and speed.due():
            before = rescale()
        seconds, result, error = run_op(op)
        raw.append(seconds)
        pending.append(seconds)
        results.append(result)
        if error is None and reference[i] is None:
            error = "operation failed its check in the first pass"
        elif error is None and wl.fingerprint(i, result) != reference[i]:
            error = "result differs from the checked pass with the same seed"
        tally.record(op.label, error)
    rescale()
    return scaled, raw, results


def percentile(values, q):
    """q-th percentile (0 < q < 100) by the inclusive quantile method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns (final JSON payload, full record)."""
    import tracing
    import workloads

    tag = f"{name}-seed{seed}-trace{int(trace)}"
    OUT.mkdir(exist_ok=True)
    spec = workloads.make_spec(name, seed, tiny=tiny)
    spec_path = OUT / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    speed = HostSpeed()
    setup = probe_setup(spec_path, 1 if tiny else SETUP_PROBES, speed)
    wl = workloads.make_workload(spec, workloads.build_bodies(spec), OUT / f"work-{tag}")

    tally = Tally()
    reference = check_pass(wl, tally)

    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    raw_walls = []
    pass_cost = {False: 0.0, True: 0.0}
    latencies, raw_latencies = [], []
    summaries = []
    first_spans = None
    start = time.perf_counter()
    k = 0
    while True:
        traced = bool(trace) and k % 2 == 1
        gc.collect()
        t0 = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            lats, raw, results = timed_pass(wl, reference, tally, speed)
        finally:
            tracer.uninstall()
        if traced:
            counts = dict(tracer.counts)
            counts.update(wl.pass_counts(results))
            summaries.append(tracing.summarize(tracer.spans, counts, sum(lats) / sum(raw)))
            if first_spans is None:
                first_spans = tracer.spans
        else:
            latencies.extend(lats)
            raw_latencies.extend(raw)
            raw_walls.append(sum(raw))
        walls[traced].append(sum(lats))
        pass_cost[traced] = time.perf_counter() - t0
        k += 1
        elapsed = time.perf_counter() - start
        enough = walls[False] and (not trace or walls[True])
        next_traced = bool(trace) and k % 2 == 1
        if enough and elapsed + pass_cost[next_traced] > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wall_s = statistics.median(walls[False])
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "manifest": manifest(seed),
        "ops_per_pass": len(wl.ops),
        "pass_wall_s": walls[False], "traced_pass_wall_s": walls[True],
        "raw_pass_wall_s": raw_walls,
        "reference_kernel_s": REFERENCE_KERNEL_S,
        "kernel_s_quartiles": statistics.quantiles(speed.samples, n=4),
        "setup": setup,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.reasons,
    }
    if trace:
        overhead = statistics.median(walls[True]) - wall_s
        metrics = tracing.layer_metrics(summaries, setup, overhead)
        record["overhead_frac"] = overhead / wall_s
        (OUT / f"spans-{tag}.json").write_text(json.dumps(first_spans), encoding="utf-8")
    else:
        n = len(latencies)
        metrics = {
            "wall_s": (wall_s, "s"),
            "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "op_p90_ms": (1e3 * percentile(latencies, 90), "ms"),
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record["raw_op_p50_ms"] = 1e3 * statistics.median(raw_latencies)
        record["raw_op_p90_ms"] = 1e3 * percentile(raw_latencies, 90)
        record["op_samples"] = n
        record["op_samples_beyond_p90"] = sum(x > metrics["op_p90_ms"][0] / 1e3
                                              for x in latencies)
        record["by_family"] = _family_breakdown(wl, latencies)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    payload = {"correct": tally.failed == 0, "attempted": tally.attempted,
               "failed": tally.failed, "metrics": record["metrics"]}
    return payload, record


def _family_breakdown(wl, latencies):
    """Median latency and share of the pass time of each body family."""
    per = {}
    n_ops = len(wl.ops)
    for j, seconds in enumerate(latencies):
        per.setdefault(wl.ops[j % n_ops].family, []).append(seconds)
    total = sum(latencies)
    return {fam: {"p50_ms": 1e3 * statistics.median(v), "share": sum(v) / total}
            for fam, v in sorted(per.items())}


def report(payload, record):
    """Human-readable lines: every metric by name, unit and sample count."""
    name, m = record["workload"], payload["metrics"]
    lines = [f"# {name} seed={record['seed']} trace={record['trace']} "
             f"ops/pass={record['ops_per_pass']} passes={len(record['pass_wall_s'])}"
             f"+{len(record['traced_pass_wall_s'])} traced  "
             f"manifest={json.dumps(record['manifest'], sort_keys=True)}"]
    if record["trace"]:
        for key, v in m.items():
            lines.append(f"{name} {key} = {v['value']:.6g} {v['unit']}")
        lines.append(f"{name} tracing overhead = {m['trace.overhead_s']['value']:.4f} s "
                     f"({100 * record['overhead_frac']:.1f}% of wall_s)")
    else:
        n = record["op_samples"]
        notes = {
            "wall_s": f"median of {len(record['pass_wall_s'])} passes",
            "op_p50_ms": f"n={n} operations",
            "op_p90_ms": f"n={n} operations, {record['op_samples_beyond_p90']} beyond p90",
            "setup_s": f"median of {len(record['setup']['samples'])} fresh interpreters",
            "peak_rss_mb": "ru_maxrss of the workload process",
        }
        for key, v in m.items():
            lines.append(f"{name} {key} = {v['value']:.6g} {v['unit']}  ({notes[key]})")
    lines.append(f"{name} failed_frac = {record['failed_frac']:.6g}  "
                 f"({record['failed']} of {record['attempted']} operations attempted)")
    return lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_all(args):
    """Every workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, timeout=900)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the harness at its smallest size")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")
    import_library()
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload == "all":
        return run_all(args)
    payload, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for line in report(payload, record):
        print(line)
    for reason in record["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps(payload), flush=True)
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
