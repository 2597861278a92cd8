#!/usr/bin/env python3
"""Benchmark of the authalic pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload param-large --seed 1 --seconds 20 --trace 0

The library is imported from ``./src``.  The runner sets up the
workload's inputs several times (``setup_s`` is the median), then runs
the workload's operation in a closed loop until the next operation would
end after ``--seconds`` (always at least one), checks every output, and
prints one JSON object as the last line of standard output.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` untraced and traced operations alternate; the metrics are
the per-layer ones (medians over traced operations) plus
``trace.overhead_ratio``, and the spans are written to
``perfbench/out/``.  Metric definitions are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time

# set-up repeats: at least SETUP_MIN_REPEATS and SETUP_MIN_SECONDS in
# all, so that a cheap set-up is sampled often enough for a steady median
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 20
SETUP_MIN_SECONDS = 4.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_thread_pools() -> None:
    """Cap the BLAS/OpenMP pools at the usable cores; must run before
    numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(_nproc())


def _import_library(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "authalic", "__init__.py")):
        raise SystemExit(f"error: no authalic sources under {src}; "
                         "run from the repository root")
    sys.path.insert(0, src)
    import authalic
    if not os.path.realpath(authalic.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"error: authalic was imported from {authalic.__file__}, "
                         f"not from {src}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine() -> dict:
    import numpy
    import scipy
    return {
        "nproc": _nproc(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


def _median(values):
    return float(statistics.median(values))


def _timed(fn, *args):
    wall, cpu = time.perf_counter(), time.process_time()
    out = fn(*args)
    return out, time.perf_counter() - wall, time.process_time() - cpu


def _setup(workload, seed, recorder=None):
    """Set up repeatedly; returns the last state and the times."""
    times, state = [], None
    while len(times) < SETUP_MIN_REPEATS or (sum(times) < SETUP_MIN_SECONDS
                                              and len(times) < SETUP_MAX_REPEATS):
        state = None  # free the previous inputs before building new ones
        scope = (recorder.operation(f"setup-{len(times)}", "setup") if recorder
                 else contextlib.nullcontext())
        with scope:
            state, wall, _ = _timed(workload.setup, seed)
        times.append(wall)
    return state, times


def _end_to_end(ops, outcomes, setup_times) -> dict:
    succeeded = [o for o in outcomes if o.error is None]
    maps = sum(o.maps for o in succeeded)
    mismatch = [o.mismatch_ratio for o in succeeded if o.mismatch_ratio is not None]
    return {
        "setup_s": (_median(setup_times), "s"),
        "wall_s": (_median([w for w, _ in ops]), "s"),
        "cpu_s": (_median([c for _, c in ops]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (sum(o.ok for o in outcomes) / len(outcomes), "ratio"),
        "fold_free_ratio": ((maps - sum(o.folded_maps for o in succeeded)) / maps
                            if maps else 0.0, "ratio"),
        "sd_over_mean_max": (max((o.sd_over_mean for o in succeeded), default=0.0), "ratio"),
        "authalic_max": (max((o.authalic for o in succeeded), default=0.0), "energy"),
        # no alignment runs on the parameterization workloads: final
        # mismatch equals initial mismatch
        "landmark_mismatch_ratio": (_median(mismatch) if mismatch else 1.0, "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _cap_thread_pools()
    root = os.getcwd()
    _import_library(root)
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    print("machine: " + json.dumps(_machine(), sort_keys=True), flush=True)

    recorder = spans.Recorder() if args.trace else None
    restore = spans.instrument(recorder) if recorder else None
    state, setup_times = _setup(workload, args.seed, recorder)
    if restore:
        restore()

    ops, traced, checked, layer = [], [], [], []
    start = time.perf_counter()
    while True:
        result, wall, cpu = _timed(workload.run, state)
        ops.append((wall, cpu))
        checked.append(workload.check(state, result))
        if recorder:
            op_id = f"op-{len(traced)}"
            restore = spans.instrument(recorder)
            try:
                with recorder.operation(op_id, "operation"):
                    result, t_wall, _ = _timed(workload.run, state)
            finally:
                restore()
            traced.append(t_wall)
            checked.append(workload.check(state, result))
            layer.append(spans.layer_metrics(recorder, op_id))
            wall = wall + t_wall
        if time.perf_counter() - start + wall > args.seconds:
            break
    del state, result

    outcomes = [o for op in checked for o in op]
    failed = [o for o in outcomes if not o.ok]
    for o in failed:
        print(f"failed: {o.name}: {o.error or '; '.join(o.failed_checks)}", file=sys.stderr)
    e2e = _end_to_end(ops, outcomes, setup_times)
    print("summary: " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "op_wall_s": [w for w, _ in ops], "traced_op_wall_s": traced,
        "fail_ratio": len(failed) / len(outcomes),
        "folds_total": max(sum(o.folds for o in op) for op in checked),
        **{k: v for k, (v, _) in e2e.items()}}, sort_keys=True), flush=True)

    if recorder:
        layer += [spans.setup_metrics(recorder, f"setup-{r}") for r in range(len(setup_times))]
        overhead = _median(traced) / _median([w for w, _ in ops]) - 1.0
        metrics = {name: (overhead if name == "trace.overhead_ratio"
                          else _median([m[name] for m in layer if name in m]), unit)
                   for name, unit in spans.LAYER_UNITS.items()}
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        recorder.dump(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = e2e

    print(json.dumps({
        "correct": all(o.correct for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
