#!/usr/bin/env python3
"""The grnas benchmark: one command prints every metric and checks outputs.

Run from the repository root:

    python3 perfbench/run.py --workload search-k100 --seed 1 --seconds 20 --trace 0

Workloads are described in ``workloads.py``.  With ``--trace 0`` the run
measures the end-to-end metrics, with no wrapper installed except a timer
on ``search.bilevel_train_step``.  With ``--trace 1`` it measures the
per-layer metrics of ``layers.py``: the first half of the time untraced,
the second half with every layer wrapped, and the rate difference is
reported as ``trace.overhead_frac``.

Lines before the last one are a human-readable report: the environment and
each end-to-end metric under the name a user of that workload knows it by,
with its sample count.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` /
``attempted`` is the share of rounds that failed a check.  A traced run
also writes its spans and exact work counters to ``.perfbench-out/``.

BLAS and OpenMP pools are pinned to one thread.  The code measured is
``src/grnas`` of the checkout this file sits in, never an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import layers
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPS = 11  # fresh processes per run; setup_s is their median
SETUP_TIMEOUT_S = 120
# The host's speed drifts by 15-30% over a minute or more, longer than a
# run, which moves a run's median with it.  Other tenants leave quiet
# moments of tens of milliseconds, so the fastest run of a short operation
# is steady: the result line carries the fastest operation and a round
# built of its parts at their fastest; the report lines add the median and
# the tail.
END_TO_END = (
    ("op_time_s_min", "s"),
    ("work_per_s_max", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import ``grnas`` from this checkout's ``src``; None if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import grnas
    except ImportError as err:
        print(f"perfbench: cannot import grnas from {SRC}: {err}", file=sys.stderr)
        return None
    if os.path.commonpath([os.path.abspath(grnas.__file__), SRC]) != SRC:
        print(f"perfbench: grnas imported from {grnas.__file__}, not {SRC}", file=sys.stderr)
        return None
    return grnas


def environment() -> dict:
    import numpy as np

    from grnas import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "backend": kernels.active_backend() if hasattr(kernels, "active_backend") else "n/a",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def time_setup(args) -> float:
    """Wall time of a fresh process that imports, builds inputs and warms up."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def measure(wl, seconds, after_round=None):
    """Closed loop of rounds for ``seconds``: [(wall_s, ok)] and failure texts.

    A round starts only if a round of median length still fits, so a run
    does not overshoot its time by most of a round.  Each passed round's
    part times are folded into the workload's fastest parts.
    """
    rounds, failures = [], []
    deadline = time.perf_counter() + seconds
    while not rounds or (
        time.perf_counter() + statistics.median(t for t, _ in rounds) <= deadline
    ):
        t0 = time.perf_counter()
        wl.parts = []
        try:
            wl.check_round(wl.run_round())
            wl.keep_fastest_parts(time.perf_counter() - t0)
            ok = True
        except Exception:  # a failed round is counted, never raised past the workload
            failures.append(traceback.format_exc())
            ok = False
        rounds.append((time.perf_counter() - t0, ok))
        if after_round is not None:
            after_round()
    return rounds, failures


def work_rate(wl, rounds) -> float:
    done = [t for t, ok in rounds if ok]
    return len(done) * wl.work_per_round() / sum(done) if done else 0.0


def best_round_rate(wl) -> float:
    """Work per second of a round made of its parts at their fastest."""
    best = wl.best_round_s()
    return wl.work_per_round() / best if best else 0.0


def step_timer(wl, times):
    """Time each call into ``times`` and, as a part of its round, into ``wl.parts``."""

    def make(target, original):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                times.append(elapsed)
                wl.parts.append(elapsed)

        return timed

    return make


def run_plain(wl, args, setup_s):
    step_times = []
    installed = tracing.install(
        [tracing.Target(wl.timed_step)] if wl.timed_step else [], step_timer(wl, step_times)
    )
    try:
        rounds, failures = measure(wl, args.seconds)
    finally:
        installed.remove()
    if installed.missing:
        failures.append(f"timed step {wl.timed_step} is missing")
    op_times = step_times if wl.timed_step else [t for t, ok in rounds if ok]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "op_time_s_min": min(op_times) if wl.timed_step and op_times else wl.best_round_s(),
        "work_per_s_max": best_round_rate(wl),
        "peak_rss_mb": peak_mb,
        "setup_s": setup_s,
    }
    name, scale, unit = wl.op_label
    n_ops = f"(n={len(op_times)})"
    if op_times:
        print(f"{name}_min: {values['op_time_s_min'] * scale:.6g} {unit} {n_ops}")
        print(f"{name}_p50: {statistics.median(op_times) * scale:.6g} {unit} {n_ops}")
    tail = tracing.tail_percentile(len(op_times))
    if tail is not None and tail > 50:
        value = tracing.percentile(op_times, tail) * scale
        print(f"{name}_p{tail:g}: {value:.6g} {unit} {n_ops}")
    n_done = f"(n={sum(ok for _, ok in rounds)} rounds of {wl.work_per_round():g})"
    print(f"{wl.work_label}: {work_rate(wl, rounds):.6g} 1/s over the run, "
          f"{values['work_per_s_max']:.6g} 1/s with each part of a round at its fastest {n_done}")
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    return rounds, failures, metrics


def run_traced(wl_factory, args, env):
    tracer = tracing.Tracer()
    spans = tracing.span_wrapper(tracer)

    def make(target, original):
        if target.dotted == layers.TAPE_RECORD:
            return tracing.record_wrapper(tracer, original)
        return spans(target, original)

    installed = tracing.install(layers.TARGETS, make)
    try:
        wl = wl_factory()
        wl.warm_up()
    finally:
        installed.remove()
    setup_totals, _ = tracer.take()

    half = args.seconds / 2.0
    plain, failures = measure(wl, half)

    totals, counts, signatures = {}, {}, []

    def after_round():
        round_totals, round_counts = tracer.take()
        for name, row in round_totals.items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            for j in range(3):
                acc[j] += row[j]
        for name, value in round_counts.items():
            counts[name] = counts.get(name, 0) + value
        signatures.append(
            {**{f"calls:{n}": row[0] for n, row in round_totals.items()}, **round_counts}
        )

    tracer.keep_sample = True
    installed = tracing.install(layers.TARGETS, make)
    try:
        traced, traced_failures = measure(wl, half, after_round)
    finally:
        installed.remove()
    failures += traced_failures
    mismatched = [i for i, sig in enumerate(signatures) if sig != signatures[0]]
    for i in mismatched:
        failures.append(f"traced round {i}: work counters differ from round 0")

    overhead = work_rate(wl, plain) / work_rate(wl, traced) - 1.0 if work_rate(wl, traced) else 0.0
    steps = len(traced) * wl.steps_per_round
    values = layers.per_layer_values(totals, counts, steps, setup_totals, overhead)
    zero_call = [
        name for name in layers.EXPECTED[wl.name]
        if totals.get(name, [0])[0] + setup_totals.get(name, [0])[0] == 0
    ]
    print(f"trace: {len(plain)} untraced and {len(traced)} traced rounds,"
          f" overhead {overhead:+.2%} of the untraced work rate")
    print(f"trace: missing targets: {installed.missing or 'none'}")
    print(f"trace: expected spans with zero calls: {zero_call or 'none'}")
    print(f"trace: work counters equal over {len(signatures)} traced rounds: {not mismatched}")

    os.makedirs(OUT_DIR, exist_ok=True)
    t0 = tracer.sample[0][1] if tracer.sample else 0.0
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "environment": env,
        "rounds": {"untraced": len(plain), "traced": len(traced), "steps_traced": steps},
        "missing": installed.missing,
        "zero_call": zero_call,
        "overhead_frac": overhead,
        "counters_per_round": signatures[0] if signatures else {},
        "counters_equal": not mismatched,
        "per_layer": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
        "sample_spans": [(n, s - t0, e - t0, p) for n, s, e, p in tracer.sample],
    }
    path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"trace: written to {os.path.relpath(path, ROOT)}")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    return wl, plain + traced, failures, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported, here and in set-up processes
        os.environ[var] = "1"
    if import_program() is None:
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    def factory():
        return workloads.build(args.workload, args.seed, OUT_DIR)

    if args.setup_only:
        wl = factory()
        try:
            wl.warm_up()
        finally:
            wl.close()
        return 0

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    if args.trace:
        wl, rounds, failures, metrics = run_traced(factory, args, env)
    else:
        setup_samples = [time_setup(args) for _ in range(SETUP_REPS)]
        setup_s = statistics.median(setup_samples)
        print(f"setup_s: {setup_s:.6g} s (median of n={len(setup_samples)} fresh processes)")
        wl = factory()
        wl.warm_up()
        rounds, failures, metrics = run_plain(wl, args, setup_s)
    wl.close()

    attempted = len(rounds)
    failed = min(attempted, len(failures))  # a failure is a failed round or counter mismatch
    print(f"failed_frac: {tracing.failed_frac(attempted, failed):.6g}"
          f" ({failed} of {attempted} rounds)")
    for text in failures[:3]:
        print("failure: " + text.strip().replace("\n", "\n  "), file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
