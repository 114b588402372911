import math
import re
from dataclasses import replace

import numpy as np
import pytest

import riskrnn.autodiff as ad
from riskrnn.autodiff import Tape
from riskrnn.data import write_dataset
from riskrnn.geometry import encode_box_transform, iou
from riskrnn.synthworld import ScenarioConfig, generate_split

import oracles
from oracles import Box, apply_box_transform, as_array, relative_config, stack_boxes


def random_box(rng) -> Box:
    return Box(rng.uniform(-2, 2), rng.uniform(-2, 2),
               rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0))


class TestBox:
    def test_corners_and_area(self):
        x1, y1, x2, y2 = oracles.corners(Box(0.5, 0.5, 0.2, 0.4))
        assert (x1, y1, x2, y2) == pytest.approx((0.4, 0.3, 0.6, 0.7))
        assert (x2 - x1) * (y2 - y1) == pytest.approx(0.08)

    # a box is an array row, checked once, by the dataset check on write
    # and on read; here on the agent's row of a one-video split
    VIDEO = generate_split(ScenarioConfig(frames_per_video=2, n_regions=2, feature_dim=2,
                                          n_distractor_proposals=1), 1, "val")[0]

    def rejects(self, tmp_path, **fields):
        agent_box = self.VIDEO.agent_box.copy()
        agent_box[1] = [fields.get(name, 0.5) for name in ("cx", "cy", "w", "h")]
        with pytest.raises(ValueError, match=re.escape(
                f"frame 1: agent 0 has box {agent_box[1].tolist()}")):
            write_dataset(tmp_path / "video.dat", [replace(self.VIDEO, agent_box=agent_box)])
        assert not (tmp_path / "video.dat").exists()

    @pytest.mark.parametrize("w,h", [(0.0, 0.1), (-0.1, 0.1), (0.1, 0.0), (0.1, -0.1)])
    def test_rejects_degenerate_sides(self, tmp_path, w, h):
        self.rejects(tmp_path, w=w, h=h)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["cx", "cy", "w", "h"])
    def test_rejects_non_finite(self, tmp_path, field, value):
        self.rejects(tmp_path, **{field: value})


class TestStackBoxes:
    def test_rows_are_the_box_fields(self):
        boxes = [Box(0.5, 0.4, 0.2, 0.1), Box(0.1, 0.2, 0.3, 0.4)]
        assert stack_boxes(boxes).tolist() == [[0.5, 0.4, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]]

    def test_no_boxes_is_an_empty_table(self):
        assert stack_boxes(iter([])).shape == (0, 4)


class TestIou:
    def test_identical_boxes(self):
        b = np.array([0.5, 0.5, 0.2, 0.2])
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou([0.1, 0.1, 0.1, 0.1], [0.9, 0.9, 0.1, 0.1]) == 0.0

    def test_hand_computed_overlap(self):
        # intersection 1, union 4 + 4 - 1 = 7
        assert iou([0, 0, 2, 2], [1, 1, 2, 2]) == pytest.approx(1 / 7, abs=1e-12)

    def test_symmetry_and_self(self):
        rng = np.random.default_rng(1)
        a = stack_boxes([random_box(rng) for _ in range(200)])
        b = stack_boxes([random_box(rng) for _ in range(200)])
        np.testing.assert_array_equal(iou(a, b), iou(b, a))
        assert np.all((0.0 <= iou(a, b)) & (iou(a, b) <= 1.0))
        assert np.all(iou(a, a) == 1.0)

    def test_pair_matrix_equals_the_scalar_reference(self):
        rng = np.random.default_rng(5)
        a = [random_box(rng) for _ in range(7)]
        b = [random_box(rng) for _ in range(5)] + a[:2]
        got = iou(stack_boxes(a)[:, None], stack_boxes(b)[None])
        assert got.shape == (7, 7)
        np.testing.assert_array_equal(got, [[oracles.iou(x, y) for y in b] for x in a])
        # the tracker's gate: V = 2 videos' (K, 1, 4) track boxes against
        # their (1, M, 4) proposals, the last one of each an all-NaN
        # padding row, whose IoU is NaN
        tracks, proposals = [a[:3], a[3:6]], [b[:3], b[3:6]]
        padded = np.concatenate([np.stack([stack_boxes(p) for p in proposals]),
                                 np.full((2, 1, 4), np.nan)], axis=1)
        got = iou(np.stack([stack_boxes(t) for t in tracks])[:, :, None], padded[:, None])
        assert got.shape == (2, 3, 4)
        np.testing.assert_array_equal(got, [[[oracles.iou(x, y) for y in p] + [np.nan]
                                             for x in t] for t, p in zip(tracks, proposals)])

    def test_leading_axes_broadcast(self):
        rng = np.random.default_rng(6)
        regions = rng.uniform(0.1, 0.3, size=(3, 4, 1, 4))
        risky = rng.uniform(0.1, 0.3, size=(3, 1, 2, 4))
        got = iou(regions, risky)
        assert got.shape == (3, 4, 2)
        assert got[2, 1, 0] == iou(regions[2, 1, 0], risky[2, 0, 0])


class TestRelativeConfig:
    def test_self_configuration(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            agent = random_box(rng)
            got = relative_config(agent, agent)
            np.testing.assert_allclose(
                got, [0, 0, -0.5, -0.5, 0.5, 0.5, 1, 1, 1], atol=1e-12)

    def test_shifted_same_size_region(self):
        agent = Box(0.5, 0.5, 0.1, 0.1)
        region = Box(0.6, 0.5, 0.1, 0.1)
        got = relative_config(agent, region)
        np.testing.assert_allclose(got, [1, 0, 0.5, -0.5, 1.5, 0.5, 1, 1, 0], atol=1e-12)

    def test_concentric_double_size_region(self):
        agent = Box(0.5, 0.5, 0.2, 0.2)
        region = Box(0.5, 0.5, 0.4, 0.4)
        got = relative_config(agent, region)
        np.testing.assert_allclose(got, [0, 0, -1, -1, 1, 1, 2, 2, 0.25], atol=1e-12)

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            agent, region = random_box(rng), random_box(rng)
            base = relative_config(agent, region)
            k = rng.uniform(0.5, 4.0)
            dx, dy = rng.uniform(-3, 3, size=2)
            agent2 = Box(k * (agent.cx + dx), k * (agent.cy + dy), k * agent.w, k * agent.h)
            region2 = Box(k * (region.cx + dx), k * (region.cy + dy), k * region.w, k * region.h)
            moved = relative_config(agent2, region2)
            np.testing.assert_allclose(moved, base, rtol=1e-9, atol=1e-12)


class TestBoxTransform:
    def test_identity_transform(self):
        p = Box(0.3, 0.7, 0.2, 0.1)
        assert apply_box_transform(p, (0, 0, 0, 0)) == p

    def test_pure_shift(self):
        got = apply_box_transform(Box(2, 3, 4, 5), (1, 0, 0, 0))
        assert got == Box(6, 3, 4, 5)

    def test_pure_width_scale(self):
        got = apply_box_transform(Box(0, 0, 1, 1), (0, 0, math.log(2), 0))
        assert as_array(got) == pytest.approx([0, 0, 2, 1])

    def test_rejects_extreme_log_scale(self):
        with pytest.raises(ValueError):
            apply_box_transform(Box(0, 0, 1, 1), (0, 0, 21.0, 0))

    def test_encode_identity(self):
        p = np.array([0.3, 0.7, 0.2, 0.1])
        assert encode_box_transform(p, p).tolist() == [0, 0, 0, 0]

    def test_encode_inverts_shift(self):
        got = encode_box_transform(np.array([2.0, 3, 4, 5]), np.array([6.0, 3, 4, 5]))
        assert got.tolist() == [1, 0, 0, 0]

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        src = [random_box(rng) for _ in range(200)]
        dst = [random_box(rng) for _ in range(200)]
        c = encode_box_transform(stack_boxes(src).T, stack_boxes(dst).T)
        assert c.shape == (4, 200)
        for t, (s, d) in enumerate(zip(src, dst)):
            back = apply_box_transform(s, c[:, t])
            np.testing.assert_allclose(as_array(back), as_array(d), rtol=1e-9, atol=1e-12)


def smooth_l1(z):
    """The transform-regression penalty evaluated on a constant tape node."""
    out = ad.smooth_l1(Tape().const(z)).value
    return float(out) if out.ndim == 0 else out


class TestSmoothL1:
    @pytest.mark.parametrize("z,expected", [(0.0, 0.0), (0.5, 0.125), (2.0, 1.5),
                                            (-0.5, 0.125), (-2.0, 1.5)])
    def test_values(self, z, expected):
        assert smooth_l1(z) == pytest.approx(expected, abs=1e-15)

    def test_continuous_and_smooth_at_one(self):
        eps = 1e-8
        assert smooth_l1(1 + eps) - smooth_l1(1 - eps) == pytest.approx(0.0, abs=1e-7)
        left = (smooth_l1(1.0) - smooth_l1(1.0 - eps)) / eps
        right = (smooth_l1(1.0 + eps) - smooth_l1(1.0)) / eps
        assert left == pytest.approx(1.0, abs=1e-6)
        assert right == pytest.approx(1.0, abs=1e-6)

    def test_elementwise_on_arrays(self):
        got = smooth_l1(np.array([0.0, 0.5, 2.0]))
        np.testing.assert_allclose(got, [0.0, 0.125, 1.5])
