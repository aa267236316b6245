"""Benchmark of the ``selcon`` library: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload binding-q4 --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 0

Run from the root of a checkout: the program is imported from its ``src/``
directory, never from an installed copy, and the run fails when that
directory is missing.  One workload runs in one process.  The generator
writes the inputs from ``--seed``; operations then repeat until ``--seconds``
have passed, each followed by correctness checks outside its timing.
``perfbench/NOTES.md`` describes the workloads and metrics.

``--trace 0`` reports the end-to-end metrics with nothing installed.
``--trace 1`` alternates plain and traced operations and reports the
per-layer metrics from the traced ones, plus the tracing overhead.  Earlier
stdout lines, each starting with ``#``, record the environment, the seeds
and sizes, and a metric table; the last line is one JSON object.  The exit
code is 1 when any check fails.
"""

from __future__ import annotations

import os
import sys

# BLAS and OpenMP thread counts must be fixed before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("SELCON_SEED", None)  # it would override the program's seed

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("binding-q4", "fairness-sweep", "verify-exhaustive")
MIN_OPS = 3
# After each operation, set-ups are timed for this share of its wall time.
SETUP_SHARE = 0.1

# End-to-end metrics (name, unit); BENCHMARK.json lists the same ones.
END_TO_END = [("total_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
# Printed in the table, where the workload has them, but not bounded: their
# spread from seed to seed is wider than the largest bound allowed.
UNBOUNDED = [("select_s", "s"), ("select_s_max", "s"), ("f_final", "objective"),
             ("f_vs_random", "ratio"), ("test_mse", "mse"), ("fairness_violation", "mse")]


def import_program():
    """Put the checkout's ``src`` first on the path and import ``selcon`` from it."""
    package = SRC / "selcon"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a selcon checkout")
    sys.path.insert(0, str(SRC))
    import selcon

    if Path(selcon.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported selcon from {selcon.__file__}, not from {package}")


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _fastest(samples: dict[int, list[float]]) -> float:
    """Median over instances of the fastest sample on each instance.

    A shared virtual machine can switch every few seconds between two
    speeds about 1.8 times apart (perfbench/NOTES.md), so sample times are
    bimodal and a median over samples jumps with the share of the run spent
    at the slow speed.  The fastest of many samples spread over the run is
    the time at the fast speed; the median over instances keeps one
    unusually cheap or costly instance from setting the figure."""
    return statistics.median(min(v) for v in samples.values())


def measure(wl, seconds: float, trace: bool):
    """Run one checked but untimed warm-up operation, then repeat operations
    until ``seconds`` have passed, cycling over the workload's instances.
    With tracing, operations come in pairs on one instance: plain, then
    traced.  After each operation set-ups are timed one after another for
    ``SETUP_SHARE`` of its wall time, at least once, so that set-up samples
    span the run like the operations do.  One sample is the mean of
    ``wl.setup_batch`` set-ups, for set-ups too short to time one by one."""
    import spans
    from selcon import cli
    from workloads import Checks

    checks = Checks()
    setup = {}
    tracer = spans.Tracer() if trace else None
    plain, traced, select = {}, [], []
    ops = -1  # the warm-up
    crashed = False
    min_ops = max(MIN_OPS, len(wl.items))
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or ops < min_ops or trace and ops % 2:
        use_trace = trace and ops >= 0 and ops % 2 == 1
        index = max(ops // 2 if trace else ops, 0) % len(wl.items)
        inst = wl.items[index]
        try:
            if use_trace:
                with spans.installed(tracer):
                    main = tracer.wrap("cli.main", cli.main)
                    t0 = time.perf_counter()
                    res = wl.run(inst, main)
                    res.total_s = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                res = wl.run(inst, cli.main)
                res.total_s = time.perf_counter() - t0
            wl.check(inst, res, checks)
        except Exception:  # a crash in the program is a failed operation, not a benchmark error
            traceback.print_exc()
            checks.check("operation_completed", False, "raised; see stderr")
            crashed = True
            break
        inst.last = res
        samples = setup.setdefault(index, [])
        setup_end = time.perf_counter() + SETUP_SHARE * res.total_s
        while True:
            t0 = time.perf_counter()
            for _ in range(wl.setup_batch):
                wl.setup(inst)
            samples.append((time.perf_counter() - t0) / wl.setup_batch)
            if time.perf_counter() >= setup_end:
                break
        ops += 1
        if ops == 0:
            deadline = time.perf_counter() + seconds
        elif use_trace:
            traced.append(res.total_s)
        else:
            plain.setdefault(index, []).append(res.total_s)
            select.extend(res.select_s)
    return checks, setup, plain, traced, select, tracer, crashed


def end_to_end(wl, setup, plain, select) -> tuple[dict, dict]:
    """The bounded metrics, and the table-only ones the workload has."""
    values = {
        "total_s": _fastest(plain),
        "setup_s": _fastest(setup),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {}
    if select:
        extra = {"select_s": statistics.median(select), "select_s_max": max(select)}
    quality = [wl.quality(inst) for inst in wl.items]
    extra.update({name: float(statistics.fmean(q[name] for q in quality)) for name in quality[0]})
    return values, extra


def run_one(args) -> int:
    import_program()
    import spans
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        wl = cls(args.seed, workdir, args.tiny)
        print("# env " + json.dumps(environment(), sort_keys=True))
        print("# workload " + json.dumps({"name": wl.name, "why": wl.why, "seed": args.seed,
                                          "seconds": args.seconds, "trace": args.trace,
                                          "tiny": args.tiny, "sizes": wl.sizes}))
        checks, setup, plain, traced, select, tracer, crashed = measure(
            wl, args.seconds, args.trace)
        values, extra = {}, {}
        if args.trace:
            units = dict(spans.PER_LAYER)
            if not crashed:
                all_plain = [t for v in plain.values() for t in v]
                values = spans.layer_metrics(tracer, len(traced), traced, all_plain)
        else:
            units = dict(END_TO_END)
            if not crashed:
                values, extra = end_to_end(wl, setup, plain, select)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    rows = [(name, values[name], unit) for name, unit in units.items() if name in values]
    rows += [(name, extra[name], unit) for name, unit in UNBOUNDED if name in extra]
    rows += [
        ("failed_frac", checks.failed / checks.attempted if checks.attempted else 1.0, "ratio"),
        ("checks_attempted", checks.attempted, "count"),
        ("operations", sum(map(len, plain.values())) + len(traced), "count"),
        ("select_samples", len(select), "count"),
        ("setup_reps", sum(map(len, setup.values())), "count"),
    ]
    for name, value, unit in rows:
        print(f"# {wl.name:18s} {name:38s} {value!r:>24} {unit}")
    print("# samples " + json.dumps({"setup_s": setup, "total_s": plain, "traced_total_s": traced}))
    ok = checks.failed == 0 and checks.attempted > 0 and set(values) == set(units)
    print(json.dumps({
        "correct": ok,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed if checks.attempted else 1,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if ok else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
