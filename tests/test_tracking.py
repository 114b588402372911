from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrnn.synthworld import ScenarioConfig, generate_scenario
from riskrnn.tracking import deduplicate_tracks, track_by_detection

import oracles

CFG = ScenarioConfig(frames_per_video=8, n_regions=5, feature_dim=16,
                     n_distractor_proposals=12, seed=11)


def track_videos(videos, **kwargs):
    """Per video, the (K, T, 4) boxes, (K, T, D) features and (K, T) scores
    of its tracks, from one tracker call over videos given as their (T, M, 4)
    proposal boxes, (T, M, D) features and (T, M) scores, all of one frame
    count and one proposal count."""
    return list(zip(*track_by_detection(*zip(*videos), **kwargs)))


def proposals(sample):
    return sample.proposal_box, sample.proposal_feat, sample.proposal_score


def assert_same_tracks(got, want):
    """The arrays of K tracks, (K, T, ·) each, hold the oracle's K Track
    records, compared with ==."""
    assert all(len(part) == len(want) for part in got)
    for part, name in zip(got, ("boxes", "feats", "scores")):
        for g, w in zip(part, want):
            np.testing.assert_array_equal(g, getattr(w, name))


class TestTrackByDetection:
    def test_zero_jitter_proposals_recover_the_annotated_track(self):
        cfg = replace(CFG, proposal_jitter=0.0)
        samples = [generate_scenario(cfg, positive, index=index, split="test")
                   for index, positive in enumerate([True, False, True, False])]
        for sample, (boxes, _, _) in zip(samples, track_videos([proposals(s) for s in samples],
                                                               top_init=10, top_iou=10)):
            assert any(np.array_equal(track, sample.agent_box) for track in boxes), \
                sample.video_id

    def test_no_frame_is_an_error(self):
        for boxes in ([], [np.empty((0, 3, 4))]):
            with pytest.raises(ValueError, match="at least one video and one frame"):
                track_by_detection(boxes, [np.empty((0, 3, 2))] * len(boxes),
                                   [np.empty((0, 3))] * len(boxes), 10, 10)


class TestDeduplicateTracks:
    def test_is_idempotent(self):
        samples = [generate_scenario(CFG, index % 2 == 0, index=index, split="val")
                   for index in range(4)]
        for boxes, _, scores in track_videos([proposals(s) for s in samples],
                                              top_init=10, top_iou=10):
            for overlap in (0.1, 0.4, 0.7):
                kept = deduplicate_tracks(boxes, scores, overlap)
                assert np.all(np.diff(kept) > 0)
                again = deduplicate_tracks(boxes[kept], scores[kept], overlap)
                np.testing.assert_array_equal(again, np.arange(len(kept)))

    def test_no_track_keeps_none(self):
        kept = deduplicate_tracks(np.empty((0, 3, 4)), np.empty((0, 3)), 0.7)
        assert kept.shape == (0,)


# Coordinates on a coarse grid and small-integer features keep every IoU and
# cosine exact, so equal IoUs, equal similarities (duplicate or parallel
# features) and equal object scores all occur and the tie order is exercised.
GRID = ([0.25, 0.375, 0.5, 0.625], [0.25, 0.5, 0.75], [0.125, 0.25, 0.5], [0.25, 0.5])


@st.composite
def proposal_frame(draw, n_proposals):
    """One frame's (M, 4) boxes, (M, 3) features and (M,) scores."""
    xywh = np.array([[draw(st.sampled_from(axis)) for axis in GRID]
                     for _ in range(n_proposals)]).reshape(-1, 4)
    scores = np.array([draw(st.sampled_from([0.1, 0.5, 0.9])) for _ in range(n_proposals)])
    feats = np.array([[draw(st.integers(-2, 2)) for _ in range(3)]
                      for _ in range(n_proposals)], dtype=np.float64).reshape(-1, 3)
    # repeat one proposal's feature within the frame
    if n_proposals > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n_proposals)))[:2]
        feats[dst] = feats[src]
    return xywh, feats, scores


@st.composite
def proposal_videos(draw):
    """Videos of one frame count and one proposal count, each its (T, M, 4)
    boxes, (T, M, 3) features and (T, M) scores."""
    n_frames, n_proposals = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    return [tuple(map(np.array, zip(*(draw(proposal_frame(n_proposals))
                                      for _ in range(n_frames)))))
            for _ in range(draw(st.integers(1, 4)))]


class TestMatchesScalarReference:
    @settings(max_examples=200, deadline=None)
    @given(proposal_videos(), st.integers(1, 5), st.integers(1, 5),
           st.sampled_from([0.0, 0.3, 0.7]))
    def test_same_track_choices(self, videos, top_init, top_iou, overlap):
        # the videos are tracked in one call, the reference tracks each alone
        got = track_videos(videos, top_init=top_init, top_iou=top_iou)
        for (boxes, feats, scores), tracks in zip(videos, got):
            want = oracles.track_by_detection(boxes, feats, scores, top_init=top_init,
                                              top_iou=top_iou)
            assert_same_tracks(tracks, want)
            kept = deduplicate_tracks(tracks[0], tracks[2], overlap)
            assert_same_tracks([part[kept] for part in tracks],
                               oracles.deduplicate_tracks(want, overlap))
