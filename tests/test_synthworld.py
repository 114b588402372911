import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrnn.data import _LAYOUT, FrameInput, RegionSet
from riskrnn.geometry import Box, stack_boxes
from riskrnn.synthworld import (ScenarioConfig, _distractor_regions, class_embeddings,
                                generate_scenario, generate_split, read_dataset,
                                synthesize_proposals, verify_collision_predicate,
                                write_dataset)

import oracles

CFG = ScenarioConfig(frames_per_video=6, n_regions=4, feature_dim=5,
                     n_distractor_proposals=3, seed=3)

# SHA-256 of the test split of DIGEST_CFG's first six videos as written to
# disk (see dataset_digest); it changes with any draw of the generator
DIGEST_CFG = ScenarioConfig(frames_per_video=4, n_regions=3, feature_dim=4,
                            n_distractor_proposals=5, seed=5)
DATASET_SHA256 = "ff571063f8089e3591bc0462cb0e231f95d2faa50605399bb90645fe1f1ea54e"


def assert_same_sample(a, b):
    """Exact equality of every stored field of two videos."""
    assert (a.video_id, a.positive, a.agent_class, a.region_classes) == \
        (b.video_id, b.positive, b.agent_class, b.region_classes)
    assert a.targets == b.targets
    assert len(a.frames) == len(b.frames)
    for fa, fb in zip(a.frames, b.frames):
        assert fa.agent_box == fb.agent_box
        assert fa.region_boxes == fb.region_boxes
        assert np.array_equal(fa.agent_feat, fb.agent_feat)
        assert np.array_equal(fa.region_feats, fb.region_feats)
    assert len(a.proposals) == len(b.proposals)
    for pa, pb in zip(a.proposals, b.proposals):
        assert len(pa) == len(pb)
        for x, y in zip(pa, pb):
            assert (x.box, x.score) == (y.box, y.score)
            assert np.array_equal(x.feat, y.feat)


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


def proposal_arrays(proposals) -> tuple:
    """Per-frame counts, then the boxes, scores and features of every
    proposal as arrays."""
    flat = [p for frame in proposals for p in frame]
    return (np.array([len(frame) for frame in proposals]), stack_boxes(p.box for p in flat),
            np.array([p.score for p in flat]), np.array([p.feat for p in flat]))


def assert_same_bits(got: np.ndarray, want: np.ndarray):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def assert_same_stream_position(got, want):
    """The generators are in the same state and agree on their next draws."""
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(0, 2**31) == want.integers(0, 2**31)
    assert got.standard_normal() == want.standard_normal()


def paired_generators(entropy):
    return (np.random.default_rng(np.random.SeedSequence(entropy)) for _ in range(2))


def random_frames(rng, n_frames, n_regions, feature_dim) -> list:
    """Frames of a moving agent among fixed regions, all random boxes."""
    def box():
        return Box(*rng.uniform([0.05, 0.05, 0.02, 0.02], [0.95, 0.95, 0.3, 0.3]).tolist())
    regions = RegionSet([box() for _ in range(n_regions)], np.zeros((n_regions, feature_dim)))
    return [FrameInput(np.zeros(feature_dim), box(), regions) for _ in range(n_frames)]


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
        frames = random_frames(np.random.default_rng(entropy), cfg.frames_per_video,
                               cfg.n_regions, cfg.feature_dim)
        classes = np.random.default_rng(entropy).integers(0, cfg.n_classes, cfg.n_regions).tolist()
        embeddings = class_embeddings(cfg)
        got_rng, want_rng = paired_generators(entropy)
        got = synthesize_proposals(cfg, frames, classes, embeddings, got_rng)
        want = oracles.synthesize_proposals(cfg, frames, classes, embeddings, want_rng)
        for got_array, want_array in zip(proposal_arrays(got), proposal_arrays(want)):
            assert_same_bits(got_array, want_array)
        assert_same_stream_position(got_rng, want_rng)

    @settings(max_examples=100, deadline=None)
    @given(scenario_configs(), st.integers(0, 2**64 - 1))
    def test_distractor_regions(self, cfg, entropy):
        got_rng, want_rng = paired_generators(entropy)
        got_boxes, got_classes = _distractor_regions(cfg, got_rng)
        want_boxes, want_classes = oracles.distractor_regions(cfg, want_rng)
        assert got_classes == want_classes
        assert_same_bits(stack_boxes(got_boxes), stack_boxes(want_boxes))
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
            assert other.targets.agent_track != a.targets.agent_track

    def test_labels_match_the_collision_predicate(self):
        samples = generate_split(CFG, 12, "test")
        assert [s.positive for s in samples] == [i % 2 == 0 for i in range(12)]
        assert all(verify_collision_predicate(s, CFG.collision_iou) for s in samples)

    def test_distractor_regions_need_a_class_besides_the_hazard(self):
        with pytest.raises(ValueError, match="n_classes must be >= 2, got 1"):
            generate_scenario(ScenarioConfig(n_regions=2, n_classes=1), positive=True)
        lone = generate_scenario(ScenarioConfig(n_regions=1, n_classes=1), positive=True)
        assert lone.region_classes == (0,)


class TestDatasetFiles:
    def test_round_trip_is_exact(self, tmp_path):
        samples = generate_split(CFG, 4, "train")
        path = tmp_path / "train.dat"
        write_dataset(path, samples)
        read = read_dataset(path)
        assert len(read) == len(samples)
        for a, b in zip(samples, read):
            assert_same_sample(a, b)

    def test_written_dataset_matches_its_pinned_digest(self, tmp_path):
        path = tmp_path / "test.dat"
        write_dataset(path, generate_split(DIGEST_CFG, 6, "test"))
        assert dataset_digest(path) == DATASET_SHA256
