"""Pinned outputs of RA and L-RA on a small fixed configuration.

Every benchmark run recomputes them and compares within ``workloads.RTOL``
and ``workloads.ATOL``: ``train_model`` loss histories for the train
workload, ``evaluate_model`` report fields for the eval workload. RAI and
L-RAI are not pinned; they raise at the commit that pinned these values.

Re-pin only for a change meant to alter the numbers, and say so in it:

    python3 bench/golden.py
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
PINNED_VARIANTS = ("RA", "L-RA")


def compute(workload: str) -> dict:
    from riskrnn import pipeline, training
    import workloads

    cfg = replace(workloads.run_config(0), n_train=6, n_val=4, n_test=8, epochs=2, patience=3)
    inputs = workloads.SETUP[workload](cfg)
    if workload == "train":
        train_videos, val_videos = inputs
        return {v: workloads.history_rows(training.train_model(cfg, v, train_videos, val_videos)[1])
                for v in PINNED_VARIANTS}
    test_videos, models = inputs
    return {v: pipeline.evaluate_model(models[v], test_videos, cfg).report_fields()
            for v in PINNED_VARIANTS}


def check(workload: str) -> list[str]:
    """Mismatches against the pinned values; empty when all agree or when
    nothing is pinned for the workload."""
    import workloads

    pinned = json.loads(GOLDEN_PATH.read_text()).get(workload, {})
    if not pinned:
        return []
    try:
        got = compute(workload)
    except Exception as exc:  # reported as a failed check, not a crash
        return [f"golden {workload}: {type(exc).__name__}: {exc}"]
    problems = []
    for variant, expected in pinned.items():
        actual = got[variant]
        if isinstance(expected, dict):
            if actual.keys() != expected.keys():
                problems.append(f"golden {workload} {variant}: fields {sorted(actual)}")
                continue
            actual, expected = [actual[k] for k in expected], list(expected.values())
        if not workloads.close(actual, expected):
            problems.append(f"golden {workload} {variant}: {actual} != pinned {expected}")
    return problems


def main() -> int:
    from run import bootstrap

    if not bootstrap():
        return 2
    values = {workload: compute(workload) for workload in ("train", "eval")}
    GOLDEN_PATH.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
