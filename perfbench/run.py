"""hotelsim benchmark: one workload per process, closed loop, seeded.

    python3 perfbench/run.py --workload ideal-sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports hotelsim from its
src/ directory.  Every workload prints every metric of BENCHMARK.json:
with --trace 0 the end-to-end metrics; with --trace 1 it alternates traced
and untraced rounds and prints the per-layer metrics, including the
tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  See perfbench/README.md.
"""

import time

T_IMPORT = time.perf_counter()   # fallback process start when /proc is absent

import argparse
import json
import os
import resource
import sys
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("ideal-sweep", "grid-dynamics", "oam-bench")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        age = -1.0
    return age if 0.0 < age < 3600.0 else time.perf_counter() - T_IMPORT


def cap_blas_threads() -> int:
    """Limit BLAS to the cores this process may use; before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            asked = int(os.environ.get(var, cores))
        except ValueError:
            asked = cores
        os.environ[var] = str(max(1, min(asked, cores)))
    return cores


def blas_threads():
    """Threads numpy's bundled OpenBLAS reports, or the requested cap."""
    import ctypes
    import glob
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def fingerprint(cores: int) -> dict:
    import platform
    import numpy
    import scipy
    return {"cores": cores, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "hotelsim" / "__init__.py").is_file():
        print(f"error: no hotelsim sources under {src}", file=sys.stderr)
        return 2
    cores = cap_blas_threads()
    sys.path.insert(0, str(src))
    import hotelsim
    if Path(hotelsim.__file__).resolve().parent != src / "hotelsim":
        print(f"error: hotelsim imported from {hotelsim.__file__}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS   # imports numpy: after the BLAS cap

    tracer = None
    if args.trace:
        import hotelsim.cli  # noqa: F401  (loads every traced module)
        tracer = tracing.Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    try:
        workload.setup()
        setup_s = process_age()
        first_timed = len(tracer.spans) if tracer else 0
        attempted = failed = 0
        round_s = {True: [], False: []}
        traced = bool(tracer)
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            ops, bad = workload.round()
            round_s[traced].append(time.perf_counter() - t0)
            attempted += ops
            failed += bad
            if tracer:
                traced = not traced
                (tracer.install if traced else tracer.uninstall)()
            if (time.perf_counter() - start >= args.seconds
                    and (not tracer or traced)):
                break
        if tracer:
            tracer.uninstall()
            metrics = tracing.layer_metrics(tracer, first_timed,
                                            len(round_s[True]), workload.LAYERS)
            metrics["trace.overhead_pct"] = tracing.overhead_pct(
                round_s[True], round_s[False])
            tracer.dump(ROOT / ".perfbench_trace"
                        / f"{args.workload}-seed{args.seed}.json")
        else:
            metrics = workload.metrics()
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        workload.close()

    for err in workload.errors[:10]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"fingerprint": fingerprint(cores)}))
    print(json.dumps({
        "correct": not workload.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
