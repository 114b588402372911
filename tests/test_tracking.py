from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrnn.config import RunConfig
from riskrnn.data import Proposal
from riskrnn.geometry import Box, stack_boxes
from riskrnn.synthworld import ScenarioConfig, generate_scenario
from riskrnn.tracking import Track, deduplicate_tracks, track_by_detection
from riskrnn.training import _proposal_arrays, detected_tracks

import oracles

CFG = ScenarioConfig(frames_per_video=8, n_regions=5, feature_dim=16,
                     n_distractor_proposals=12, seed=11)
RUN = RunConfig(top_init=6, top_iou=4)


def track_videos(videos, **kwargs):
    """Per video, its Tracks from one tracker call over videos given as
    per-frame proposal lists, all of one frame count and one proposal count."""
    boxes, feats, scores = track_by_detection(
        (_proposal_arrays(frames) for frames in zip(*videos)), **kwargs)
    return [[Track(boxes[v, :, k], feats[v, :, k], scores[v, :, k])
             for k in range(boxes.shape[2])] for v in range(len(videos))]


def assert_same_tracks(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for part in ("boxes", "feats", "scores"):
            np.testing.assert_array_equal(getattr(g, part), getattr(w, part))


class TestTrackByDetection:
    def test_zero_jitter_proposals_recover_the_annotated_track(self):
        cfg = replace(CFG, proposal_jitter=0.0)
        samples = [generate_scenario(cfg, positive, index=index, split="test")
                   for index, positive in enumerate([True, False, True, False])]
        for sample, tracks in zip(samples, track_videos([s.proposals for s in samples])):
            annotated = stack_boxes(sample.targets.agent_track)
            assert any(np.array_equal(track.boxes, annotated) for track in tracks), \
                sample.video_id

    def test_no_frame_is_an_error(self):
        with pytest.raises(ValueError, match="at least one frame"):
            track_by_detection([])


class TestDeduplicateTracks:
    def test_is_idempotent(self):
        samples = [generate_scenario(CFG, index % 2 == 0, index=index, split="val")
                   for index in range(4)]
        for tracks in track_videos([s.proposals for s in samples]):
            for overlap in (0.1, 0.4, 0.7):
                kept = deduplicate_tracks(tracks, overlap)
                again = deduplicate_tracks(kept, overlap)
                assert [id(t) for t in again] == [id(t) for t in kept]


class TestDetectedTracks:
    def test_a_split_of_mixed_shapes_gives_each_video_its_own_tracks(self):
        shapes = [{}, {"frames_per_video": 5}, {"n_distractor_proposals": 7},
                  {"frames_per_video": 5, "n_distractor_proposals": 7}]
        split = [generate_scenario(replace(CFG, **shapes[index % 4]), index % 3 == 0,
                                   index=index, split="test") for index in range(9)]
        together = detected_tracks(split, RUN)
        assert len(together) == len(split)
        for sample, tracks in zip(split, together):
            assert len(tracks) > 1
            assert all(len(track) == sample.n_frames for track in tracks)
            assert_same_tracks(tracks, detected_tracks([sample], RUN)[0])

    def test_frames_of_different_proposal_counts_name_the_video(self):
        samples = [generate_scenario(CFG, index % 2 == 0, index=index, split="test")
                   for index in range(3)]
        proposals = list(samples[1].proposals)
        proposals[4] = proposals[4][:-1]
        samples[1] = replace(samples[1], proposals=tuple(proposals))
        with pytest.raises(ValueError, match=f"^video {samples[1].video_id}: frames have "
                                             f"{len(proposals[4])} to {len(proposals[0])} "
                                             f"proposals"):
            detected_tracks(samples, RUN)


# Coordinates on a coarse grid and small-integer features keep every IoU and
# cosine exact, so equal IoUs, equal similarities (duplicate or parallel
# features) and equal object scores all occur and the tie order is exercised.
grid_boxes = st.builds(Box, st.sampled_from([0.25, 0.375, 0.5, 0.625]),
                       st.sampled_from([0.25, 0.5, 0.75]),
                       st.sampled_from([0.125, 0.25, 0.5]), st.sampled_from([0.25, 0.5]))
small_features = st.lists(st.integers(-2, 2), min_size=3, max_size=3).map(
    lambda v: np.array(v, dtype=np.float64))
proposals = st.builds(Proposal, grid_boxes, st.sampled_from([0.1, 0.5, 0.9]), small_features)


@st.composite
def proposal_videos(draw):
    """Videos of one frame count and one proposal count, as per-frame lists."""
    n_frames, n_proposals = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    videos = []
    for _ in range(draw(st.integers(1, 4))):
        frames = [tuple(draw(st.lists(proposals, min_size=n_proposals, max_size=n_proposals)))
                  for _ in range(n_frames)]
        # repeat one proposal's feature within each frame
        for t, frame in enumerate(frames):
            if len(frame) > 1 and draw(st.booleans()):
                src, dst = draw(st.permutations(range(len(frame))))[:2]
                copy = Proposal(frame[dst].box, frame[dst].score, frame[src].feat.copy())
                frames[t] = frame[:dst] + (copy,) + frame[dst + 1:]
        videos.append(frames)
    return videos


class TestMatchesScalarReference:
    @settings(max_examples=200, deadline=None)
    @given(proposal_videos(), st.integers(1, 5), st.integers(1, 5),
           st.sampled_from([0.0, 0.3, 0.7]))
    def test_same_track_choices(self, videos, top_init, top_iou, overlap):
        # the videos are tracked in one call, the reference tracks each alone
        got = track_videos(videos, top_init=top_init, top_iou=top_iou)
        for frames, tracks in zip(videos, got):
            want = oracles.track_by_detection(frames, top_init=top_init, top_iou=top_iou)
            assert_same_tracks(tracks, want)
            assert_same_tracks(deduplicate_tracks(tracks, overlap),
                               oracles.deduplicate_tracks(want, overlap))
