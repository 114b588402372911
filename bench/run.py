"""Benchmark of the riskrnn pipeline: train, eval and data workloads.

Run from the root of a repository checkout:

    python3 bench/run.py --workload {train,eval,data} --seed N --seconds S --trace {0,1}

``--trace 0`` runs rounds of the workload, untraced, while another round
fits in S seconds, and reports the end-to-end metrics. ``--trace 1`` reports
the per-layer metrics. So that every one of them has a value, it covers all
three workloads whatever ``--workload`` names: per workload an untraced round
and two traced ones, repeated while another such cycle fits in S seconds.
One cycle, the least it runs, takes 60 to 80 s on a shared 2-CPU Xeon at
2.0 GHz. It checks that the count metrics of all traced rounds agree, and
reports what tracing added to the round time.

The seed fixes every input. A call that raises or returns output failing a
check is a failed operation, printed with its workload, variant and
exception; a failed check also makes the result incorrect. The last line of
standard output is the result, one JSON object. The process runs single
threaded: BLAS is pinned to one thread before numpy is imported.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_ROUNDS = 3


def bootstrap() -> bool:
    """Pin BLAS to one thread and put the checkout's ``src`` on the path.

    Must run before numpy is imported; returns False when the checkout has
    no riskrnn sources.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before its thread count was fixed")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "riskrnn" / "__init__.py").is_file():
        print(f"error: no riskrnn sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def declared_metrics(trace: int) -> list[dict]:
    """The metrics BENCHMARK.json declares for this kind of run: name, unit
    and direction. The file is their only source."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return declared["per_layer" if trace else "end_to_end"]


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def round_seconds(records) -> float:
    return sum(r.seconds for r in records)


def goodput(rounds) -> float:
    """Successful videos per second of call time, failed calls included.

    Totals, not a median or minimum of calls: the machine's speed drifts
    over minutes, and the total averages over that drift where a median or
    a minimum jumps with it.
    """
    calls = [r for records in rounds for r in records]
    return sum(r.op.videos for r in calls if r.error is None) / sum(r.seconds for r in calls)


def variant_rates(rounds) -> dict:
    """Per op label, the goodput of that op's successful calls alone."""
    by_label = defaultdict(list)
    for records in rounds:
        for r in records:
            if r.error is None:
                by_label[r.op.label].append(r)
    return {label: goodput([calls]) for label, calls in by_label.items()}


def check_golden(tally, names) -> None:
    """Compare the pinned small-configuration outputs; outside any timing."""
    import golden

    for workload in names:
        for problem in golden.check(workload):
            tally.correct = False
            print(f"WRONG {problem}", flush=True)


def measure(workload: str, seed: int, seconds: float, import_seconds: float):
    """The untraced run: end-to-end metrics of one workload."""
    import workloads

    cfg = workloads.run_config(seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = perf_counter()
        inputs = workloads.SETUP[workload](cfg)
        setup_times.append(perf_counter() - start)
    ops = workloads.make_ops(workload, cfg, inputs, ROOT)

    tally = workloads.Tally()
    rounds = []
    deadline = perf_counter() + seconds
    round_start = perf_counter()
    while len(rounds) < MIN_ROUNDS or round_start + last_round < deadline:
        rounds.append(workloads.run_round(ops, tally))
        last_round = perf_counter() - round_start
        round_start += last_round

    check_golden(tally, (workload,))

    rates = ", ".join(f"{label} {rate:.2f}" for label, rate in variant_rates(rounds).items())
    print(f"{workload}: {len(rounds)} rounds; videos/s of successful calls: {rates or 'none'}")
    values = {
        "setup_s": import_seconds + median(setup_times),
        "videos_per_s": goodput(rounds),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, values


def measure_traced(seed: int, seconds: float, units: dict):
    """The traced run: per-layer metrics of all three workloads."""
    import workloads
    from tracing import EXACT_UNITS, LAYER_VARIANTS, Tracer, installed, layer_metrics

    cfg = workloads.run_config(seed)
    tally = workloads.Tally()
    plans = {w: workloads.make_ops(w, cfg, workloads.SETUP[w](cfg), ROOT)
             for w in workloads.WORKLOADS}
    plain = {w: [] for w in plans}
    traced = {w: [] for w in plans}
    deadline = perf_counter() + seconds
    cycle_start = perf_counter()
    while not plain["data"] or cycle_start + last_cycle < deadline:
        for w, ops in plans.items():
            plain[w].append(workloads.run_round(ops, tally))
            for _ in range(2):
                tracer = Tracer()
                with installed(tracer):
                    records = workloads.run_round(ops, tally, tracer)
                traced[w].append((records, tracer))
        last_cycle = perf_counter() - cycle_start
        cycle_start += last_cycle
    check_golden(tally, plans)

    values = {}
    for w in plans:
        merged = Tracer()
        exact = []
        for _, tracer in traced[w]:
            merged.merge(tracer)
            exact.append({k: v for k, v in layer_metrics(w, tracer).items()
                          if units[k] in EXACT_UNITS})
        for name in exact[0]:
            seen = {e[name] for e in exact}
            if len(seen) > 1:
                tally.correct = False
                print(f"WRONG {name} differs between traced rounds: {sorted(seen)}", flush=True)
        values.update(layer_metrics(w, merged))
        # fastest against fastest: load from other processes only adds time
        values[f"trace.overhead_frac.{w}"] = (
            min(round_seconds(r) for r, _ in traced[w])
            / min(round_seconds(r) for r in plain[w]) - 1.0)
        if w != "data":
            rates = variant_rates(plain[w])
            for v in LAYER_VARIANTS:
                values[f"videos_per_s.{w}.{v}"] = rates.get(v)
    for v in LAYER_VARIANTS:
        epochs = [s for records in plain["train"] for r in records
                  if r.error is None and r.op.label == v for s in r.kept]
        values[f"training.epoch_s.{v}"] = median(epochs) if epochs else None
    return tally, values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "eval", "data"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = perf_counter()
    if not bootstrap():
        return 2
    table = declared_metrics(args.trace)
    units = {m["name"]: m["unit"] for m in table}
    import workloads  # noqa: F401 -- imports the program, timed as part of setup_s

    import_seconds = perf_counter() - start
    print("env " + json.dumps(environment(args.seed)), flush=True)

    if args.trace:
        tally, values = measure_traced(args.seed, args.seconds, units)
    else:
        tally, values = measure(args.workload, args.seed, args.seconds, import_seconds)
    if set(values) != set(units):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: {sorted(set(values))}")

    for name, unit in units.items():
        value = values[name]
        shown = "undefined (no successful call)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name} = {shown}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
