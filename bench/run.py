"""Benchmark of xplab: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload campaign|estimate|docs --seed N --seconds S --trace 0|1

Run from the root of a checkout; xplab is imported from its ``src``. The
workload's inputs are generated from the seed, then passes over the same
operations run until S seconds are spent, and every output is checked
against bench/reference.py. Informational lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.

--trace 0 reports the end-to-end metrics of untraced passes. --trace 1 spends
half the time on untraced passes and half on passes traced by bench/tracing.py,
and reports the per-layer metrics per pass plus the tracing overhead.
"""

import os

# One BLAS thread, set before numpy loads: a single-process workload then
# uses one core and its timings do not depend on what else shares the box.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("campaign", "estimate", "docs")
SETUP_REPS = 5


def _import_program():
    """Fresh import of xplab from this checkout's src; returns the package."""
    for name in [n for n in sys.modules if n == "xplab" or n.startswith("xplab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("xplab")
    importlib.import_module("xplab.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "xplab":
        raise ImportError(f"xplab came from {pkg.__file__}, not from {SRC}")
    return pkg


def setup(workload, seed: int, outdir: Path) -> tuple[list[float], dict]:
    """Import plus input generation, SETUP_REPS times; the last inputs are kept."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        _import_program()
        inputs = workload.generate(seed, outdir)
        times.append(time.perf_counter() - t0)
    return times, inputs


def resident_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def measure(workload, inputs, seconds: float) -> tuple[list, float]:
    """Whole passes until `seconds` have gone by.

    Returns [(wall, ops), ...] and the largest resident set size seen at the
    end of a pass. Sampling between passes keeps memory that outlives an
    operation (caches, retained objects) and leaves out arrays freed inside
    one, whose size swings with the seed's random dimensions.
    """
    passes = []
    rss = 0.0
    t_end = time.perf_counter() + seconds
    while True:
        passes.append(workload.run_pass(inputs))
        rss = max(rss, resident_mb())
        if time.perf_counter() >= t_end:
            return passes, rss


def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile, as statistics.quantiles(method="inclusive")."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else float("nan")


def end_to_end(passes, setup_times, rss) -> dict:
    ops = [op for _, pass_ops in passes for op in pass_ops]
    lat_ms = [op.seconds * 1e3 for op in ops if op.seconds is not None]
    first = passes[0][1]
    shares = {m: [op.attained[1] for op in first if op.attained and op.attained[0] == m
                  and op.attained[1] is not None] for m in ("2w", "xp")}
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(wall for wall, _ in passes), "s"),
        "peak_rss_mb": (rss, "MB"),
        "query_p50_ms": (_quantile(lat_ms, 0.5), "ms"),
        "query_p90_ms": (_quantile(lat_ms, 0.9), "ms"),
        "opnorm_2w_attained": (_geomean(shares["2w"]), "ratio"),
        "opnorm_xp_attained": (_geomean(shares["xp"]), "ratio"),
    }


def per_layer(tracer, traced, untraced) -> dict:
    m = tracer.metrics(len(traced))
    plain = statistics.median(wall for wall, _ in untraced)
    with_trace = statistics.median(wall for wall, _ in traced)
    m["trace.untraced_wall_s"] = (plain, "s")
    m["trace.traced_wall_s"] = (with_trace, "s")
    m["trace.overhead_pct"] = (100.0 * (with_trace - plain) / plain, "%")
    return m


def _summary(passes, problems_shown: int = 5) -> None:
    ops = [op for _, pass_ops in passes for op in pass_ops]
    lat = [op.seconds for op in ops if op.seconds is not None]
    print(f"passes={len(passes)} operations={len(ops)} timed={len(lat)}")
    bad = [op for op in ops if op.problems]
    for op in bad[:problems_shown]:
        print(f"FAILED {op.name}: {'; '.join(op.problems)[:500]}")
    if len(bad) > problems_shown:
        print(f"... {len(bad) - problems_shown} more failed operations")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "xplab" / "__init__.py").is_file():
        print(f"error: no xplab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = importlib.import_module(args.workload)

    OUT.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_times, inputs = setup(workload, args.seed, outdir)
        if args.trace:
            from tracing import Tracer

            untraced, _ = measure(workload, inputs, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = measure(workload, inputs, args.seconds / 2)
            finally:
                tracer.uninstall()
            passes = untraced + traced
            metrics = per_layer(tracer, traced, untraced)
        else:
            passes, rss = measure(workload, inputs, args.seconds)
            metrics = end_to_end(passes, setup_times, rss)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass

    _summary(passes)
    ops = [op for _, pass_ops in passes for op in pass_ops]
    failed = sum(1 for op in ops if op.problems)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": all(math.isfinite(v) for v, _ in metrics.values()),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
