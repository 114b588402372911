"""The benchmark's own output checks at test sizes: the pinned golden values
of ``bench/golden.py`` and each workload's inspection of what its calls
return (``bench/workloads.py``). A change that would make a benchmark run
report ``correct: false`` fails here first."""
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import golden  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["train", "eval"])
def test_the_pinned_golden_outputs_hold(workload):
    assert golden.check(workload) == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_operation_passes_its_workload_checks(workload, tmp_path):
    cfg = replace(workloads.run_config(5), n_train=3, n_val=2, n_test=6, epochs=2, patience=3)
    inputs = workloads.SETUP[workload](cfg)
    ops = workloads.make_ops(workload, cfg, inputs, tmp_path)
    assert ops
    for op in ops:
        problems, summary = op.inspect(op.call())
        assert problems == [], op.label
        assert len(summary) > 0
