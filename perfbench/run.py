"""wishart-dp benchmark runner.

One workload per process:

    python3 perfbench/run.py --workload mia --seed 1 --seconds 25 --trace 0

runs the workload's operation cycles in a closed loop for at least --seconds
seconds (always whole cycles, at least the workload's minimum), checks every
operation's output, and prints an environment block, a human-readable report and, as the last
line of stdout, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end metrics; with --trace 1
odd cycles run with every library layer wrapped in spans and the metrics are
the per-layer figures (per traced operation) plus the tracing overhead.

    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --smoke

run every workload (traced and untraced) in fresh processes and print every
metric with its unit; --smoke does so briefly and fails if any metric named
in BENCHMARK.json is missing or any operation failed. See perfbench/README.md
for why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, set before numpy is imported here or in a set-up probe.
# The workloads are a single closed-loop caller on small matrices; OpenBLAS's
# default of one thread per core only adds spinning helper threads, which on
# a small shared machine roughly double the run-to-run spread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("perfbench") / "out"
SETUP_PROBES = 5


@dataclass
class Record:
    kind: str
    cycle: int
    traced: bool
    latency: float
    out: object
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None


def _import_library():
    """Import wishart_dp from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import wishart_dp
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import wishart_dp from {ROOT / 'src'}: {exc}")
    if Path(wishart_dp.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"perfbench: wishart_dp was imported from {wishart_dp.__file__}, not from this checkout")


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "WISHART_DP_THREADS": os.environ.get("WISHART_DP_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# set-up time: fresh processes that import and build inputs, then stop
# ---------------------------------------------------------------------------


def _probe(workload: str, seed: int) -> None:
    """Body of a set-up probe process: import, build the inputs, report ready."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, OUT / f"probe-{workload}")
    print("ready", flush=True)
    wl.close()


def setup_seconds(workload: str, seed: int) -> float:
    """Seconds from process start until the first operation could be issued."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        sys.exit(f"perfbench: set-up probe for {workload} failed (exit {code})")
    return elapsed


# ---------------------------------------------------------------------------
# the timed window
# ---------------------------------------------------------------------------


def run_window(wl, seconds: float, recorder=None):
    """Closed loop over whole cycles; with a recorder, odd cycles are traced.

    Returns the op records and the window's wall time. The work before the
    first cycle and after the last (mia's canary crafting and AUC) belongs to
    the traced phase when tracing.
    """

    def phase(fn, *args):
        if recorder is None:
            return fn(*args)
        recorder.install()
        try:
            return recorder.span("bench." + fn.__name__, fn, *args)
        finally:
            recorder.uninstall()

    records: list[Record] = []
    t_start = time.perf_counter()
    phase(wl.begin)
    c = 0
    while c < wl.min_cycles or time.perf_counter() - t_start < seconds:
        traced = recorder is not None and c % 2 == 1
        if traced:
            recorder.install()
        try:
            for kind, fn in wl.cycle(c):
                t0 = time.perf_counter()
                try:
                    out = recorder.span("op." + kind, fn) if traced else fn()
                    error = None
                except Exception:  # an operation that raises is counted as failed
                    out, error = None, traceback.format_exc()
                latency = time.perf_counter() - t0
                if error is None:
                    out = wl.observe(kind, out)
                records.append(Record(kind, c, traced, latency, out, error))
        finally:
            if traced:
                recorder.uninstall()
        c += 1
    phase(wl.end, records)
    return records, time.perf_counter() - t_start


def check(wl, records) -> list[str | None]:
    ok = [r for r in records if r.ok]
    reasons = iter(wl.check(ok))
    return [next(reasons) if r.ok else r.error.strip().splitlines()[-1] for r in records]


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples): the highest integer percentile with at
    least ten operations beyond it, by nearest rank; the maximum below 11 ops."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100, n
    p = 100 * (n - 10) // n
    rank = -(-p * n // 100)
    return xs[rank - 1], p, n


def end_to_end(records, elapsed: float, setups: list[float]) -> tuple[dict, list[str]]:
    lat = [r.latency for r in records]
    tail_s, tail_p, n = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(records) / elapsed, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"op_tail_ms is p{tail_p} of {n} operations",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
    ]
    for kind in dict.fromkeys(r.kind for r in records):
        kind_lat = [r.latency for r in records if r.kind == kind]
        notes.append(f"{kind}: {len(kind_lat)} ops, median {1e3 * statistics.median(kind_lat):.4g} ms")
    return metrics, notes


def layer_metrics(recorder, records) -> dict:
    from spans import per_layer

    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    rate = lambda rs: len(rs) / sum(r.latency for r in rs)
    overhead = 1.0 - rate(traced) / rate(plain)
    return per_layer(recorder, len(traced), overhead)


def run_one(args) -> int:
    _import_library()
    from workloads import WORKLOADS

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    setups = [] if args.trace else [setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    wl = WORKLOADS[args.workload](args.seed, OUT / f"work-{args.workload}")
    try:
        recorder = None
        if args.trace:
            from spans import Recorder

            recorder = Recorder()
        records, elapsed = run_window(wl, args.seconds, recorder)
        reasons = check(wl, records)
    finally:
        wl.close()

    failed = [(r, why) for r, why in zip(records, reasons) if why is not None]
    if args.trace:
        metrics = layer_metrics(recorder, records)
        notes = [f"{sum(r.traced for r in records)} of {len(records)} operations traced"]
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}.npz"
        recorder.save(spans_path)
        notes.append(f"{len(recorder.start)} spans written to {spans_path}")
    else:
        metrics, notes = end_to_end(records, elapsed, setups)
    notes.append(f"failed_frac = {len(failed) / len(records):.6g} ({len(failed)} of {len(records)})")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"{args.workload} {note}")
    for r, why in failed[:5]:
        print(f"{args.workload} FAILED {r.kind} (cycle {r.cycle}): {why}", file=sys.stderr)

    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# all workloads / smoke
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    problems = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None:
                print(f"{w['name']} trace={trace}: exit {proc.returncode}, no result")
                problems += 1
                continue
            print(f"== {w['name']} (trace {trace}): attempted {result['attempted']}, failed {result['failed']}")
            for name in expected[trace]:
                m = result["metrics"].get(name)
                print(f"  {name:52s} " + ("MISSING" if m is None else f"{m['value']:.6g} {m['unit']}"))
                problems += m is None
            problems += result["failed"] > 0 or not result["correct"]
    print("all metrics present and all operations correct" if not problems else f"{problems} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["mia", "profile", "account", "train"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    parser.add_argument("--smoke", action="store_true", help="--all with a one-second window")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.smoke:
        args.seconds = 1
    if args.all or args.smoke:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required unless --all or --smoke is given")
    if args.setup_probe:
        _import_library()
        _probe(args.workload, args.seed)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
