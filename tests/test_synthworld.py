import numpy as np
import pytest

from riskrnn.synthworld import (ScenarioConfig, generate_scenario, generate_split,
                                read_dataset, verify_collision_predicate,
                                write_dataset)

CFG = ScenarioConfig(frames_per_video=6, n_regions=4, feature_dim=5,
                     n_distractor_proposals=3, seed=3)


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


class TestDatasetFiles:
    def test_round_trip_is_exact(self, tmp_path):
        samples = generate_split(CFG, 4, "train")
        path = tmp_path / "train.dat"
        write_dataset(path, samples)
        read = read_dataset(path)
        assert len(read) == len(samples)
        for a, b in zip(samples, read):
            assert_same_sample(a, b)
