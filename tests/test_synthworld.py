import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrnn.data import _LAYOUT
from riskrnn.synthworld import (ScenarioConfig, _distractor_regions, class_embeddings,
                                generate_scenario, generate_split, read_dataset,
                                synthesize_proposals, verify_collision_predicate,
                                write_dataset)

import oracles
from oracles import stack_boxes

CFG = ScenarioConfig(frames_per_video=6, n_regions=4, feature_dim=5,
                     n_distractor_proposals=3, seed=3)

# SHA-256 of the test split of DIGEST_CFG's first six videos as written to
# disk (see dataset_digest); it changes with any draw of the generator
DIGEST_CFG = ScenarioConfig(frames_per_video=4, n_regions=3, feature_dim=4,
                            n_distractor_proposals=5, seed=5)
DATASET_SHA256 = "ff571063f8089e3591bc0462cb0e231f95d2faa50605399bb90645fe1f1ea54e"


def assert_same_sample(a, b):
    """Every field of two videos is the same: the labels equal, the arrays
    bit for bit once of the file's dtype."""
    for key, (dtype, dims) in _LAYOUT.items():
        got, want = getattr(a, key), getattr(b, key)
        if dims == "V":
            assert (type(got), got) == (type(want), want), key
        else:
            assert_same_bits(np.asarray(got, dtype), np.asarray(want, dtype))


def dataset_digest(path) -> str:
    """SHA-256 over every array of a dataset file, in layout order: the
    key, dtype and shape of each, then its bytes."""
    digest = hashlib.sha256()
    with np.load(path, allow_pickle=False) as npz:
        for key in _LAYOUT:
            a = npz[key]
            digest.update(f"{key} {a.dtype.str} {a.shape}".encode())
            digest.update(a.tobytes())
    return digest.hexdigest()


def assert_same_bits(got: np.ndarray, want: np.ndarray):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def assert_same_proposals(got, want):
    """The (T, M, ·) proposal boxes, scores and features hold, at each frame,
    those of the reference's Proposal records for that frame, bit for bit."""
    boxes, scores, feats = got
    assert len(boxes) == len(scores) == len(feats) == len(want)
    for t, records in enumerate(want):
        assert_same_bits(boxes[t], stack_boxes(p.box for p in records))
        assert_same_bits(scores[t], np.array([p.score for p in records]))
        assert_same_bits(feats[t], np.array([p.feat for p in records]))


def assert_same_stream_position(got, want):
    """The generators are in the same state and agree on their next draws."""
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(0, 2**31) == want.integers(0, 2**31)
    assert got.standard_normal() == want.standard_normal()


def paired_generators(entropy):
    return (np.random.default_rng(np.random.SeedSequence(entropy)) for _ in range(2))


def random_track(rng, n_frames, n_regions) -> tuple:
    """The (T, 4) boxes of a moving agent and the (T, N, 4) boxes of fixed
    regions, all random."""
    def box():
        return rng.uniform([0.05, 0.05, 0.02, 0.02], [0.95, 0.95, 0.3, 0.3])
    regions = np.array([box() for _ in range(n_regions)]).reshape(-1, 4)
    return np.array([box() for _ in range(n_frames)]), np.repeat(regions[None], n_frames, axis=0)


noise_levels = st.sampled_from([0.0, 0.05]) | st.floats(0.0, 0.5)


@st.composite
def scenario_configs(draw):
    n_regions = draw(st.integers(1, 4))
    return ScenarioConfig(
        frames_per_video=draw(st.integers(1, 4)), n_regions=n_regions,
        feature_dim=draw(st.integers(1, 6)),
        n_classes=draw(st.integers(1 if n_regions == 1 else 2, 6)),
        noise_sigma=draw(noise_levels), proposal_jitter=draw(noise_levels),
        n_distractor_proposals=draw(st.integers(0, 4)), seed=draw(st.integers(0, 2**32 - 1)))


class TestArrayDrawsMatchTheScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(scenario_configs(), st.integers(0, 2**64 - 1))
    def test_proposals(self, cfg, entropy):
        track = random_track(np.random.default_rng(entropy), cfg.frames_per_video, cfg.n_regions)
        classes = np.random.default_rng(entropy).integers(0, cfg.n_classes, cfg.n_regions).tolist()
        embeddings = class_embeddings(cfg)
        got_rng, want_rng = paired_generators(entropy)
        got = synthesize_proposals(cfg, *track, classes, embeddings, got_rng)
        want = oracles.synthesize_proposals(cfg, *track, classes, embeddings, want_rng)
        assert_same_proposals(got, want)
        assert_same_stream_position(got_rng, want_rng)

    @settings(max_examples=100, deadline=None)
    @given(scenario_configs(), st.integers(0, 2**64 - 1))
    def test_distractor_regions(self, cfg, entropy):
        got_rng, want_rng = paired_generators(entropy)
        got_boxes, got_classes = _distractor_regions(cfg, got_rng)
        want_boxes, want_classes = oracles.distractor_regions(cfg, want_rng)
        assert got_classes.tolist() == want_classes
        assert_same_bits(got_boxes, stack_boxes(want_boxes))
        assert_same_stream_position(got_rng, want_rng)


class TestGeneration:
    def test_unknown_split_is_rejected(self):
        with pytest.raises(ValueError, match="'train', 'val', 'test'"):
            generate_scenario(CFG, positive=True, split="tset")

    @pytest.mark.parametrize("positive", [True, False])
    def test_pure_function_of_seed_split_and_index(self, positive):
        a = generate_scenario(CFG, positive, index=4, split="val")
        assert_same_sample(a, generate_scenario(CFG, positive, index=4, split="val"))
        for other in (generate_scenario(CFG, positive, index=5, split="val"),
                      generate_scenario(CFG, positive, index=4, split="test")):
            assert not np.array_equal(other.agent_box, a.agent_box)

    def test_labels_match_the_collision_predicate(self):
        samples = generate_split(CFG, 12, "test")
        assert [s.positive for s in samples] == [i % 2 == 0 for i in range(12)]
        assert all(verify_collision_predicate(s, CFG.collision_iou) for s in samples)

    @pytest.mark.parametrize("positive", [True, False])
    def test_a_video_without_a_hazard_region_collides_at_no_frame(self, positive):
        video = generate_scenario(CFG, positive, index=2, split="test")
        no_hazard = replace(video, region_class=np.ones_like(video.region_class))
        assert verify_collision_predicate(no_hazard, CFG.collision_iou) is (not positive)

    def test_distractor_regions_need_a_class_besides_the_hazard(self):
        with pytest.raises(ValueError, match="n_classes must be >= 2, got 1"):
            generate_scenario(ScenarioConfig(n_regions=2, n_classes=1), positive=True)
        lone = generate_scenario(ScenarioConfig(n_regions=1, n_classes=1), positive=True)
        assert lone.region_class.tolist() == [0]


class TestDatasetFiles:
    def test_round_trip_is_exact(self, tmp_path):
        samples = generate_split(CFG, 4, "train")
        path = tmp_path / "train.dat"
        write_dataset(path, samples)
        read = read_dataset(path)
        assert len(read) == len(samples)
        for a, b in zip(samples, read):
            assert_same_sample(a, b)

    @settings(max_examples=40, deadline=None)
    @given(scenario_configs(), st.integers(1, 3), st.sampled_from(["train", "val", "test"]))
    def test_reading_a_written_split_gives_back_its_arrays(self, cfg, n_videos, split):
        samples = generate_split(cfg, n_videos, split)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{split}.dat"
            write_dataset(path, samples)
            read = read_dataset(path)
        assert len(read) == len(samples)
        for a, b in zip(samples, read):
            assert_same_sample(a, b)

    def test_written_dataset_matches_its_pinned_digest(self, tmp_path):
        path = tmp_path / "test.dat"
        write_dataset(path, generate_split(DIGEST_CFG, 6, "test"))
        assert dataset_digest(path) == DATASET_SHA256
