from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrnn.data import Proposal
from riskrnn.geometry import Box
from riskrnn.synthworld import ScenarioConfig, generate_scenario
from riskrnn.tracking import deduplicate_tracks, track_by_detection

import oracles

CFG = ScenarioConfig(frames_per_video=8, n_regions=5, feature_dim=16,
                     n_distractor_proposals=12, seed=11)


def chosen(tracks):
    """Per track, the identity of the feature picked at every frame."""
    return [[id(feat) for feat in track.feats] for track in tracks]


class TestTrackByDetection:
    def test_zero_jitter_proposals_recover_the_annotated_track(self):
        cfg = replace(CFG, proposal_jitter=0.0)
        for index, positive in enumerate([True, False, True, False]):
            sample = generate_scenario(cfg, positive, index=index, split="test")
            tracks = track_by_detection(sample.proposals)
            annotated = list(sample.targets.agent_track)
            assert any(track.boxes == annotated for track in tracks), sample.video_id

    def test_an_empty_frame_ends_every_live_track(self):
        sample = generate_scenario(CFG, True, index=2, split="test")
        proposals = list(sample.proposals)
        proposals[3] = ()
        tracks = track_by_detection(proposals, top_init=4)
        assert len(tracks) == 4
        assert all(len(track) == 3 for track in tracks)

    def test_no_proposals_in_the_first_frame_start_no_track(self):
        sample = generate_scenario(CFG, False, index=1, split="test")
        assert track_by_detection(((),) + sample.proposals[1:]) == []


class TestDeduplicateTracks:
    def test_is_idempotent(self):
        for index in range(4):
            sample = generate_scenario(CFG, index % 2 == 0, index=index, split="val")
            for overlap in (0.1, 0.4, 0.7):
                kept = deduplicate_tracks(track_by_detection(sample.proposals), overlap)
                again = deduplicate_tracks(kept, overlap)
                assert [id(t) for t in again] == [id(t) for t in kept]


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
    n_frames = draw(st.integers(1, 6))
    frames = [tuple(draw(st.lists(proposals, min_size=1, max_size=7))) for _ in range(n_frames)]
    # repeat one proposal's feature within each frame
    for t, frame in enumerate(frames):
        if len(frame) > 1 and draw(st.booleans()):
            src, dst = draw(st.permutations(range(len(frame))))[:2]
            copy = Proposal(frame[dst].box, frame[dst].score, frame[src].feat.copy())
            frames[t] = frame[:dst] + (copy,) + frame[dst + 1:]
    return frames


class TestMatchesScalarReference:
    @settings(max_examples=200, deadline=None)
    @given(proposal_videos(), st.integers(1, 5), st.integers(1, 5),
           st.sampled_from([0.0, 0.3, 0.7]))
    def test_same_track_choices(self, frames, top_init, top_iou, overlap):
        got = track_by_detection(frames, top_init=top_init, top_iou=top_iou)
        want = oracles.track_by_detection(frames, top_init=top_init, top_iou=top_iou)
        assert chosen(got) == chosen(want)
        assert chosen(deduplicate_tracks(got, overlap)) == \
            chosen(oracles.deduplicate_tracks(want, overlap))
