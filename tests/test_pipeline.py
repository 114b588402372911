"""The test-time protocol of pipeline.eval_video: every detected track of a
batch of videos runs through the model in one pass, and each frame of a
video takes its score and its region scores from that video's most alarmed
track."""
from dataclasses import replace

import numpy as np
import pytest

from riskrnn import training
from riskrnn.config import RunConfig
from riskrnn.model import VARIANTS, RiskModel
from riskrnn.pipeline import eval_video, evaluate_model
from riskrnn.synthworld import generate_scenario, generate_split
from riskrnn.training import detected_tracks, track_inputs

import oracles
from helpers import split_of

CFG = RunConfig(n_test=3, seed=6)


@pytest.fixture(scope="module")
def samples():
    return generate_split(CFG.scenario_config(), CFG.n_test, "test")


def each_video(samples, cfg):
    """Each video, a split of one, with its rows of the split's
    ``detected_tracks`` table, as the table of a batch of that video alone."""
    boxes, feats, video_of = detected_tracks(samples, cfg)
    return [(samples[v:v + 1], (boxes[video_of == v], feats[video_of == v],
                                np.zeros((video_of == v).sum(), dtype=int)))
            for v in range(len(samples))]


@pytest.mark.parametrize("variant", VARIANTS)
def test_each_frame_follows_its_most_alarmed_track(samples, variant):
    model = RiskModel.create(CFG.model_config(variant), seed=6)
    for video, tracks in each_video(samples, CFG):
        boxes, feats, video_of = tracks
        n_frames = video.agent_box.shape[1]
        out = model.forward_video(track_inputs(boxes, feats, video, video_of))
        # column t * K + k is track k at frame t
        probs = out.y[:, 1].reshape(n_frames, len(boxes))
        scores = out.s.reshape(n_frames, len(boxes), -1)
        [result] = eval_video(model, video, tracks)
        assert result.n_tracks == len(boxes) > 1
        assert len(result.frame_probs) == len(result.region_scores) == n_frames
        # the split's own region boxes, not a copy
        assert np.shares_memory(result.region_boxes, video.region_box)
        np.testing.assert_array_equal(result.region_boxes, video.region_box[0])
        for t, region_scores in enumerate(result.region_scores):
            assert result.frame_probs[t] == probs[t].max()
            np.testing.assert_array_equal(region_scores, scores[t, probs[t].argmax()])


def outputs(out, fused):
    """The fused (C, 2) and (C, N) outputs, or every level's, each column's
    levels side by side."""
    if fused:
        return out.y, out.s
    return (np.concatenate([y.value.T for y, _ in out.levels], axis=1),
            np.concatenate([s.value for _, s in out.levels], axis=1))


@pytest.mark.parametrize("fused", [True, False])
@pytest.mark.parametrize("variant", VARIANTS)
def test_the_batched_pass_matches_one_forward_per_track(samples, variant, fused):
    # the batched matmuls sum in another order than one track's, so the
    # columns agree with the separate forwards to rounding, not bit for bit
    model = RiskModel.create(CFG.model_config(variant), seed=6)
    for video, (boxes, feats, video_of) in each_video(samples, CFG):
        y, s = outputs(model.forward_video(track_inputs(boxes, feats, video, video_of)), fused)
        for k in range(len(boxes)):
            y_k, s_k = outputs(model.forward_video(
                track_inputs(boxes[k:k + 1], feats[k:k + 1], video, [0])), fused)
            np.testing.assert_allclose(y[k::len(boxes)], y_k, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(s[k::len(boxes)], s_k, rtol=1e-12, atol=1e-12)


# a video's frames share one proposal count, so a frame without proposals is
# a video without them, and its first frame is named
@pytest.mark.parametrize("empty_frame", [0])
def test_a_frame_without_proposals_names_the_video_and_the_frame(samples, empty_frame):
    sample = list(samples)[1]
    broken = replace(samples, proposal_box=samples.proposal_box[:, :, :0],
                     proposal_score=samples.proposal_score[:, :, :0],
                     proposal_feat=samples.proposal_feat[:, :, :0])
    model = RiskModel.create(CFG.model_config("L-RA"), seed=6)
    with pytest.raises(ValueError, match=f"^video {sample.video_id}: frame {empty_frame} "
                                         f"has no proposals"):
        evaluate_model(model, broken.take([1, 0, 2]), CFG)


def test_a_split_of_two_shapes_fails_before_the_tracker(samples, monkeypatch):
    odd = replace(generate_scenario(replace(CFG, frames_per_video=CFG.frames_per_video - 2)
                                    .scenario_config(), positive=True, split="test"),
                  video_id="odd")

    def never(*args, **kwargs):
        raise AssertionError("a split of two shapes reached the tracker")

    monkeypatch.setattr(training, "track_by_detection", never)
    model = RiskModel.create(CFG.model_config("RA"), seed=6)
    with pytest.raises(ValueError, match=r"^video odd: agent_box has shape "):
        evaluate_model(model, split_of(*samples, odd), CFG)


@pytest.fixture(scope="module")
def ten_samples():
    """A split with several positives and risky boxes."""
    return generate_split(CFG.scenario_config(), 10, "test")


@pytest.mark.parametrize("variant", ["RA", "L-RAI"])
def test_one_video_per_pass_is_eval_video_on_each_video_alone(ten_samples, variant):
    cfg = replace(CFG, batch_size=1)
    model = RiskModel.create(cfg.model_config(variant), seed=6)
    summary = evaluate_model(model, ten_samples, cfg)
    for (video, tracks), result in zip(each_video(ten_samples, cfg), summary.videos,
                                       strict=True):
        [alone] = eval_video(model, video, tracks)
        assert (result.video_id, result.n_tracks) == (alone.video_id, alone.n_tracks)
        np.testing.assert_array_equal(result.frame_probs, alone.frame_probs)
        np.testing.assert_array_equal(result.region_scores, alone.region_scores)


@pytest.mark.parametrize("variant", ["RA", "L-RAI"])
def test_a_batch_of_videos_scores_each_as_it_scores_alone(ten_samples, variant):
    # 10 videos three to a pass, so the last pass holds one; the batched
    # matmuls sum in another order than one video's, so the scores agree to
    # rounding, not bit for bit
    model = RiskModel.create(CFG.model_config(variant), seed=6)
    alone = evaluate_model(model, ten_samples, replace(CFG, batch_size=1))
    batched = evaluate_model(model, ten_samples, replace(CFG, batch_size=3))
    assert batched.report_fields() == alone.report_fields()
    np.testing.assert_allclose(batched.curve_rows, alone.curve_rows, rtol=0, atol=1e-12)
    for got, want in zip(batched.videos, alone.videos, strict=True):
        assert (got.video_id, got.positive, got.n_tracks) == (
            want.video_id, want.positive, want.n_tracks)
        assert np.shares_memory(got.region_boxes, want.region_boxes)
        np.testing.assert_allclose(got.frame_probs, want.frame_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.region_scores, want.region_scores, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["RA", "L-RAI"])
def test_the_report_equals_the_scalar_references_of_each_metric(ten_samples, variant):
    # an untrained model on a split with several positives and risky boxes
    cfg, samples = replace(CFG, n_test=10), ten_samples
    model = RiskModel.create(cfg.model_config(variant), seed=6)
    summary = evaluate_model(model, samples, cfg)
    results = summary.videos
    assert [r.video_id for r in results] == [s.video_id for s in samples]

    peaks = [(float(r.frame_probs.max()), s.positive) for r, s in zip(results, samples)]
    assert summary.anticipation_map == oracles.average_precision(peaks)
    rows, atta = oracles.tta_atta([r.frame_probs for r in results],
                                  [s.positive for s in samples],
                                  [s.t_accident for s in samples])
    assert summary.curve_rows == rows
    assert summary.atta_frames == atta and summary.atta_seconds == atta / cfg.fps

    # per video, per frame: its (box, score) detections and its risky boxes
    frames = [[(list(zip(oracles.boxes(region_box), scores.tolist())),
                oracles.boxes(risky[~np.isnan(risky).any(axis=1)]))
               for region_box, scores, risky in zip(s.region_box, r.region_scores, s.risky_box)]
              for r, s in zip(results, samples)]
    assert 0.0 < summary.region_map == oracles.region_average_precision(frames)
    assert 0.0 < summary.oracle_region_map == oracles.oracle_region_average_precision(frames)
    fields = summary.report_fields()
    assert (fields["n_videos"], fields["n_positive"]) == (
        len(samples), sum(s.positive for s in samples))
