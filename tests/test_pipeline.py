"""The test-time protocol of pipeline.eval_video: every detected track of a
video runs through the model in one pass, and each frame takes its score and
its region scores from the most alarmed track."""
from dataclasses import replace

import numpy as np
import pytest

from riskrnn.config import RunConfig
from riskrnn.model import VARIANTS, RiskModel
from riskrnn.pipeline import eval_video, evaluate_model
from riskrnn.synthworld import generate_split
from riskrnn.training import detected_tracks, track_inputs, video_regions

CFG = RunConfig(n_test=3, seed=6)


@pytest.fixture(scope="module")
def samples():
    return generate_split(CFG.scenario_config(), CFG.n_test, "test")


def outputs(out, use_fused):
    return (out.y_fused, out.s_fused) if use_fused else (out.y, out.s)


@pytest.mark.parametrize("use_fused", [True, False])
@pytest.mark.parametrize("variant", VARIANTS)
def test_each_frame_follows_its_most_alarmed_track(samples, variant, use_fused):
    cfg = replace(CFG, use_fused=use_fused)
    model = RiskModel.create(cfg.model_config(variant), seed=6)
    for sample, tracks in zip(samples, detected_tracks(samples, cfg)):
        y, s = outputs(model.forward_video(
            track_inputs(tracks, [video_regions(sample)] * len(tracks))), use_fused)
        # column t * K + k is track k at frame t
        probs = y[:, 1].reshape(sample.n_frames, len(tracks))
        scores = s.reshape(sample.n_frames, len(tracks), -1)
        result = eval_video(model, sample, tracks, cfg)
        assert result.n_tracks == len(tracks) > 1
        assert len(result.frame_probs) == len(result.region_scores) == sample.n_frames
        assert result.region_boxes is sample.region_box
        for t, region_scores in enumerate(result.region_scores):
            assert result.frame_probs[t] == probs[t].max()
            np.testing.assert_array_equal(region_scores, scores[t, probs[t].argmax()])


@pytest.mark.parametrize("use_fused", [True, False])
@pytest.mark.parametrize("variant", VARIANTS)
def test_the_batched_pass_matches_one_forward_per_track(samples, variant, use_fused):
    # the batched matmuls sum in another order than one track's, so the
    # columns agree with the separate forwards to rounding, not bit for bit
    cfg = replace(CFG, use_fused=use_fused)
    model = RiskModel.create(cfg.model_config(variant), seed=6)
    for sample, tracks in zip(samples, detected_tracks(samples, cfg)):
        y, s = outputs(model.forward_video(
            track_inputs(tracks, [video_regions(sample)] * len(tracks))), use_fused)
        for k, track in enumerate(tracks):
            y_k, s_k = outputs(model.forward_video(
                track_inputs([track], [video_regions(sample)])), use_fused)
            np.testing.assert_allclose(y[k::len(tracks)], y_k, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(s[k::len(tracks)], s_k, rtol=1e-12, atol=1e-12)


# a video's frames share one proposal count, so a frame without proposals is
# a video without them, and its first frame is named
@pytest.mark.parametrize("empty_frame", [0])
def test_a_frame_without_proposals_names_the_video_and_the_frame(samples, empty_frame):
    sample = samples[1]
    broken = replace(sample, proposal_box=sample.proposal_box[:, :0],
                     proposal_score=sample.proposal_score[:, :0],
                     proposal_feat=sample.proposal_feat[:, :0])
    model = RiskModel.create(CFG.model_config("L-RA"), seed=6)
    with pytest.raises(ValueError, match=f"^video {sample.video_id}: frame {empty_frame} "
                                         f"has no proposals"):
        evaluate_model(model, [samples[0], broken, samples[2]], CFG)
