"""Benchmark of l1paths: end-to-end metrics, or a traced per-layer split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload block --seed 1 --seconds 25 --trace 0

Workloads are block, tall, sine and monotone_search (see workloads.py).
The package is imported from ``src/`` of the checkout; the benchmark
fails with exit code 2 when it is not there. Every input comes from
``--seed``, which gives a stream of instances. One client runs cycles in
a closed loop (each operation starts after the previous one ends) for
``--seconds`` seconds: each cycle sets up the stream's next instance and
runs the workload's operation mix on it, checking every output.

With ``--trace 0`` the last line of standard output is a JSON object
whose metrics are the end-to-end metrics listed in BENCHMARK.json, with
times as costs relative to a reference workload (see session.py) and
solves costed per path segment; the lines before it print those, the
raw times and the workload's other end-to-end figures with their units. With ``--trace 1`` the benchmark
repeats a fixed pass untraced and then traced (see tracing.py), reports
the per-layer metrics and the tracing overhead, and writes the spans to
``.bench_build/perfbench/``.

BLAS is pinned to one thread, so that no run uses more threads or
processes than the machine has CPUs (the monotone search pool uses one
worker per CPU).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

# Seeds 0-99 are for tuning and for the runs that gate a change; a claimed
# gain must also hold on this seed, which no change may be tuned on.
HELD_OUT_SEED = 7919
# More instances than any run sets up.
MAX_INSTANCES = 10000

# Operation kinds that are one in-process solve_path call.
SOLVE_KINDS = ("lar", "lasso", "fs0", "lar.step", "lasso.step", "fs0.step")


def machine_facts(workers: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception:  # older numpy: no dict mode
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workers": workers,
    }


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def median(values):
    return statistics.median(values) if values else None


def quantile_tail(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], round(100.0 * (n - 10) / n, 1)


def rate(times, counts, kinds, count_name=None):
    busy = sum(sum(times[k]) for k in kinds)
    done = counts[count_name] if count_name else sum(len(times[k]) for k in kinds)
    return done / busy if busy > 0 else None


def run_stream(workload, sess, seeds, seconds):
    """Closed loop, one client: a fresh instance per cycle until time is up.

    Each cycle sets up the next instance of the seed's stream (untimed)
    and runs the workload's operation mix on it; at least one cycle runs.
    Returns the set-up time of every instance.
    """
    setup_times = []
    start = perf_counter()
    while sess.cycle == 0 or perf_counter() - start < seconds:
        gc.collect()
        t0 = perf_counter()
        inst = workload.setup(int(seeds[sess.cycle % len(seeds)]), "run")
        setup_times.append(perf_counter() - t0)
        workload.cycle(sess, inst, sess.cycle)
        sess.cycle += 1
    return setup_times


def mix_total(mix, per_kind):
    """The cost of one cycle: each kind of the mix at its median, or None."""
    if any(not per_kind[k] for k in mix):
        return None
    return sum(count * median(per_kind[k]) for k, count in mix.items())


def end_to_end(sess, workload, setup_s):
    """Gated metrics (BENCHMARK.json), then printed-only figures."""
    times, counts = sess.times(), sess.counts
    costs, work_costs = sess.costs()
    gated = {
        "setup_s": (setup_s, "s"),
        "cycle_cost": (mix_total(workload.mix, costs), "ref"),
        "lar_seg_cost.p50": (median(work_costs["lar"]), "ref"),
        "lasso_seg_cost.p50": (median(work_costs["lasso"]), "ref"),
        "fs0_seg_cost.p50": (median(work_costs["fs0"]), "ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    figures = {
        "ref_s.p50": (median([v for _, v in sess.reference.samples]), "s"),
        "cycle_s": (mix_total(workload.mix, times), "s"),
        "paths_per_s": (rate(times, counts, SOLVE_KINDS), "1/s"),
        "lar_cost.p50": (median(costs["lar"]), "ref"),
        "lasso_cost.p50": (median(costs["lasso"]), "ref"),
        "fs0_cost.p50": (median(costs["fs0"]), "ref"),
        "lar_s.p50": (median(times["lar"]), "s"),
        "lasso_s.p50": (median(times["lasso"]), "s"),
        "fs0_s.p50": (median(times["fs0"]), "s"),
    }
    if times["cli_solve"]:
        n = len(times["cli_solve"])
        tail = quantile_tail(times["cli_solve"])
        figures["cli_solve_s.p50"] = (median(times["cli_solve"]), "s")
        figures["cli_solve_s.tail"] = (
            (tail[0], f"s (p{tail[1]:g} of {n} samples)") if tail
            else (None, f"s (undefined: {n} samples, needs 11)"))
        figures["cli_read_s.p50"] = (median(times["cli_read"]), "s")
    if counts["eps_steps"]:
        figures["eps_steps_per_s"] = (
            rate(times, counts, ("eps_monotone", "eps_fs"), "eps_steps"), "1/s")
        figures["euler_steps_per_s"] = (rate(times, counts, ("euler",), "euler_steps"), "1/s")
    if counts["subsets.search_serial"]:
        figures["subsets_per_s.serial"] = (
            rate(times, counts, ("search_serial",), "subsets.search_serial"), "1/s")
        figures["subsets_per_s.pool"] = (
            rate(times, counts, ("search_pool",), "subsets.search_pool"), "1/s")
    figures["failed_ratio"] = (sess.failed / max(sess.attempted, 1), "1")
    ops = []
    for kind, values in ((k, v) for k, v in times.items() if v):
        q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        ops.append(f"  op {kind:<14} n={len(values):<4} min={min(values):.4g} q1={q[0]:.4g} "
                   f"p50={q[1]:.4g} q3={q[2]:.4g} max={max(values):.4g} "
                   f"cost.p50={median(costs[kind]):.4g} ref")
    return gated, figures, ops


def fmt_metric(name, value, unit):
    shown = "n/a" if value is None else f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<40} {shown:>14} {unit}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("block", "tall", "sine", "monotone_search"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    args = ap.parse_args(argv)

    if not (SRC / "l1paths" / "__init__.py").is_file():
        print(f"error: the l1paths sources are not at {SRC}", file=sys.stderr)
        return 2
    # Before numpy is imported; subprocesses and pool workers inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("L1PATHS_THREADS", None)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import l1paths
    import l1paths.cli  # noqa: F401  (part of what a CLI user imports)
    import tracing
    import workloads
    from session import Reference, Session
    if Path(l1paths.__file__).resolve().parent != (SRC / "l1paths").resolve():
        print(f"error: imported l1paths from {l1paths.__file__}, not {SRC}", file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", message=".*budget exhausted.*")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    workdir = BUILD / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.tiny, workdir)
        workers = getattr(workload, "workers", 1)
        # The seed's stream of instance seeds; a run takes as many as its time allows.
        seeds = np.random.SeedSequence(args.seed).generate_state(MAX_INSTANCES)

        print(f"workload: {args.workload}  seed: {args.seed}  held_out_seed: {HELD_OUT_SEED}  "
              f"seconds: {args.seconds:g}  trace: {args.trace}")
        print("machine: " + json.dumps(machine_facts(workers), sort_keys=True))
        if args.trace:
            spans_file = BUILD / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, attempted, failed, failures = tracing.traced_run(
                workload, int(seeds[0]), args.seconds, env, workers, spans_file)
            print(f"spans: {spans_file.relative_to(ROOT)}")
            print("per-layer metrics (one pass; times are medians over passes):")
            for name, (value, unit) in metrics.items():
                print(fmt_metric(name, value, unit))
        else:
            sess = Session(env, in_process_cli=False, reference=Reference())
            setup_times = run_stream(workload, sess, seeds, args.seconds)
            # One import's time jitters by a fifth; a median of fresh imports is steadier.
            setup_s = tracing.import_subprocess_s(env) + statistics.median(setup_times)
            attempted, failed, failures = sess.attempted, sess.failed, sess.failures
            metrics, figures, ops = end_to_end(sess, workload, setup_s)
            print(f"end-to-end metrics ({sess.cycle} cycles, one instance each, closed loop, "
                  "one client; cost = time / reference time around it):")
            for name, (value, unit) in metrics.items():
                print(fmt_metric(name, value, unit))
            print("raw times and workload figures (not gated):")
            for name, (value, unit) in figures.items():
                print(fmt_metric(name, value, unit))
            print("operations, s (count, min, quartiles, max) and median cost:")
            print("\n".join(ops))
        for line in failures[:20]:
            print(f"failure: {line}")
        correct = failed == 0 and all(v is not None for v, _ in metrics.values())
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
