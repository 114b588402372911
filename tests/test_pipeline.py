"""The test-time protocol of pipeline.eval_video: every detected track runs
through the model, and each frame takes its score and its region scores from
the most alarmed track."""
from dataclasses import replace

import numpy as np
import pytest

from riskrnn.config import RunConfig
from riskrnn.model import VARIANTS, RiskModel
from riskrnn.pipeline import eval_video
from riskrnn.synthworld import generate_split
from riskrnn.training import detected_tracks, frames_for_track

CFG = RunConfig(n_test=3, seed=6)


@pytest.fixture(scope="module")
def samples():
    return generate_split(CFG.scenario_config(), CFG.n_test, "test")


@pytest.mark.parametrize("use_fused", [True, False])
@pytest.mark.parametrize("variant", VARIANTS)
def test_each_frame_follows_its_most_alarmed_track(samples, variant, use_fused):
    cfg = replace(CFG, use_fused=use_fused)
    model = RiskModel.create(cfg.model_config(variant), seed=6)
    for sample in samples:
        tracks = detected_tracks(sample, cfg)
        outs = [model.forward_video(frames_for_track(sample, track)) for track in tracks]
        probs = [(out.y_fused if use_fused else out.y)[:, 1] for out in outs]
        scores = [out.s_fused if use_fused else out.s for out in outs]
        result = eval_video(model, sample, cfg)
        assert result.n_tracks == len(tracks) > 1
        assert len(result.frame_probs) == len(result.frame_regions) == sample.n_frames
        for t, (boxes, region_scores) in enumerate(result.frame_regions):
            frame = [p[t] for p in probs]
            assert result.frame_probs[t] == max(frame)
            assert boxes == sample.frames[t].region_boxes
            np.testing.assert_array_equal(region_scores, scores[frame.index(max(frame))][t])
