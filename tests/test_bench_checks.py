"""The benchmark's own output checks at test sizes: the pinned golden values
of ``bench/golden.py`` and each workload's inspection of what its calls
return (``bench/workloads.py``). A change that would make a benchmark run
report ``correct: false`` fails here first, and so does one that would let
the data check miss a change to a video."""
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from riskrnn import synthworld

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


# the data check's name for a change in each field of a video; a box
# entry also reads into the frames' records, but the targets come first
FIELD_NAMES = {"video_id": "labels", "positive": "labels", "t_accident": "labels",
               "agent_class": "labels", "region_class": "labels",
               "agent_box": "targets", "risky_box": "targets",
               "agent_feat": "agent at frame {t}",
               "region_box": "regions at frame {t}", "region_feat": "regions at frame {t}",
               "proposal_box": "proposals at frame {t}",
               "proposal_score": "proposals at frame {t}",
               "proposal_feat": "proposals at frame {t}"}
LABEL_CHANGES = {"video_id": lambda v: v.video_id + "x", "positive": lambda v: not v.positive,
                 "t_accident": lambda v: v.t_accident - 1,
                 "agent_class": lambda v: v.agent_class + 1}


@pytest.fixture(scope="module")
def positive_video():
    cfg = workloads.run_config(5)
    videos = synthworld.generate_split(workloads.setup_data(cfg), 2, "test")
    return next(video for video in videos if video.positive)


def test_the_data_check_reads_an_unchanged_copy_as_the_same(positive_video):
    copy = replace(positive_video, **{key: getattr(positive_video, key).copy()
                                      for key in FIELD_NAMES if key not in LABEL_CHANGES})
    assert workloads.sample_mismatch(positive_video, copy) is None


@pytest.mark.parametrize("key", FIELD_NAMES)
def test_the_data_check_names_a_change_to_any_field(positive_video, key):
    """Each array changed in one entry, a float one by one ulp: the last
    entry that is not NaN padding, so a later frame's records differ."""
    if key in LABEL_CHANGES:
        value, t = LABEL_CHANGES[key](positive_video), None
    else:
        value = getattr(positive_video, key).copy()
        index = np.unravel_index(np.flatnonzero(~np.isnan(value.astype(np.float64)))[-1],
                                 value.shape)
        value[index] = (value[index] + 1 if value.dtype == np.int64
                        else np.nextafter(value[index], np.inf))
        t = index[0]
    changed = replace(positive_video, **{key: value})
    assert workloads.sample_mismatch(positive_video, changed) == FIELD_NAMES[key].format(t=t)
    assert workloads.sample_mismatch(changed, positive_video) == FIELD_NAMES[key].format(t=t)
