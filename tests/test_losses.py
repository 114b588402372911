import math

import numpy as np
import pytest

from riskrnn.autodiff import Tape
from riskrnn.data import VideoTargets
from riskrnn.geometry import Box, encode_box_transform, iou, stack_boxes
from riskrnn.losses import (anticipation_loss, region_labels,
                            region_loss, total_loss, transform_loss)
from riskrnn.model import RiskModel, forward_video, variant_config

import oracles
from helpers import TINY_CONFIG, random_box, random_frames, random_targets, tiny_model


def prob_nodes(tape, values):
    """(2, T) constant: per frame the distribution (1 - v, v)."""
    values = np.asarray(values, dtype=np.float64)
    return tape.const(np.stack([1.0 - values, values]))


def frame_labels(region_boxes, risky_boxes):
    """Labels of one frame's regions: a video of one frame."""
    return region_labels(stack_boxes(region_boxes)[None], stack_boxes(risky_boxes)[None])[0]


class TestRegionLabels:
    def test_exact_match_is_risky(self):
        box = Box(0.5, 0.5, 0.2, 0.2)
        assert frame_labels([box], [box]).tolist() == [1.0]

    def test_disjoint_is_not_risky(self):
        assert frame_labels([Box(0.1, 0.1, 0.1, 0.1)],
                            [Box(0.9, 0.9, 0.1, 0.1)]).tolist() == [0.0]

    def test_boundary_iou_is_strict(self):
        # dyadic sides/centers make intersection 0.125 and union 0.3125 exact,
        # so the IoU is the float 0.4 itself and the strict > comparison must
        # leave the region unlabeled
        region = Box(0.25, 0.25, 0.5, 0.5)
        gt = Box(0.125, 0.25, 0.75, 0.25)
        assert iou(region.as_array(), gt.as_array()) == 0.4
        assert frame_labels([region], [gt]).tolist() == [0.0]

    def test_negative_video_all_zero(self):
        boxes = [Box(0.5, 0.5, 0.2, 0.2), Box(0.3, 0.3, 0.1, 0.1)]
        assert frame_labels(boxes, []).tolist() == [0.0, 0.0]

    def test_invariant_to_gt_order(self):
        rng = np.random.default_rng(0)
        boxes = [Box(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), 0.2, 0.2)
                 for _ in range(6)]
        gts = boxes[:2] + [Box(0.9, 0.9, 0.05, 0.05)]
        a = frame_labels(boxes, gts)
        b = frame_labels(boxes, gts[::-1])
        assert np.array_equal(a, b)

    def test_each_frame_against_its_own_risky_boxes_as_the_scalar_reference(self):
        rng = np.random.default_rng(7)
        regions = [[random_box(rng) for _ in range(5)] for _ in range(4)]
        # frames 1 and 3 hold one of their own regions; the NaN rows that pad
        # frames 0, 2 and 3 to two risky boxes overlap nothing
        risky = [[random_box(rng)], [random_box(rng), regions[1][0]], [], [regions[3][2]]]
        targets = VideoTargets(True, 3, [b[0] for b in regions], risky)
        got = region_labels(np.stack([stack_boxes(r) for r in regions]), targets.risky_array())
        want = [[float(any(oracles.iou(box, gt) > 0.4 for gt in gts)) for box in boxes]
                for boxes, gts in zip(regions, risky)]
        assert got.tolist() == want
        assert got[1, 0] == got[3, 2] == 1.0


class TestAnticipationLoss:
    def test_unit_weight_at_accident_frame(self):
        tape = Tape()
        loss = anticipation_loss(tape, prob_nodes(tape, [0.8]), positive=True,
                                 t_accident=0)
        assert float(loss.value) == pytest.approx(-math.log(0.8), abs=1e-12)

    def test_one_frame_before_accident(self):
        tape = Tape()
        loss = anticipation_loss(tape, prob_nodes(tape, [0.5, 0.5]), positive=True,
                                 t_accident=1)
        want = math.exp(-1) * math.log(2) + math.log(2)
        assert float(loss.value) == pytest.approx(want, abs=1e-12)
        assert math.exp(-1) * math.log(2) == pytest.approx(0.2550, abs=1e-4)

    def test_perfect_negative_is_zero(self):
        tape = Tape()
        loss = anticipation_loss(tape, prob_nodes(tape, [0.0, 0.0, 0.0]),
                                 positive=False)
        assert float(loss.value) == pytest.approx(0.0, abs=1e-9)

    def test_matches_summed_formula_and_weights_grow(self):
        tape = Tape()
        n, p = 6, 0.3
        loss = anticipation_loss(tape, prob_nodes(tape, [p] * n), positive=True,
                                 t_accident=n - 1)
        terms = [math.exp(-(n - 1 - t)) * -math.log(p) for t in range(n)]
        assert float(loss.value) == pytest.approx(sum(terms), rel=1e-12)
        assert all(a < b for a, b in zip(terms, terms[1:]))

    def test_time_scale_rescales_gap(self):
        tape = Tape()
        loss = anticipation_loss(tape, prob_nodes(tape, [0.5, 0.5]), positive=True,
                                 t_accident=1, time_scale=0.5)
        want = math.exp(-0.5) * math.log(2) + math.log(2)
        assert float(loss.value) == pytest.approx(want, rel=1e-12)

    def test_always_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            tape = Tape()
            probs = rng.uniform(0.001, 0.999, size=5)
            positive = bool(rng.integers(2))
            loss = anticipation_loss(tape, prob_nodes(tape, probs), positive,
                                     t_accident=4)
            assert float(loss.value) >= 0.0


class TestRegionLoss:
    def test_risky_half_score(self):
        tape = Tape()
        loss = region_loss(tape, tape.const([[0.5]]), [[1.0]])
        assert float(loss.value) == pytest.approx(math.log(2), abs=1e-12)
        assert math.log(2) == pytest.approx(0.6931, abs=1e-4)

    def test_confident_non_risky_is_tiny(self):
        tape = Tape()
        loss = region_loss(tape, tape.const([[1e-9]]), [[0.0]])
        assert float(loss.value) == pytest.approx(0.0, abs=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = float(rng.uniform(0.01, 0.99))
            tape = Tape()
            risky = region_loss(tape, tape.const([[s]]), [[1.0]])
            flipped = region_loss(tape, tape.const([[1.0 - s]]), [[0.0]])
            assert float(risky.value) == pytest.approx(float(flipped.value), rel=1e-12)

    def test_sums_over_frames_and_regions(self):
        tape = Tape()
        loss = region_loss(tape, tape.const([[0.5, 0.5], [0.5, 0.5]]),
                           [[1.0, 0.0], [0.0, 1.0]])
        assert float(loss.value) == pytest.approx(4 * math.log(2), rel=1e-12)

    def test_length_mismatch(self):
        tape = Tape()
        with pytest.raises(ValueError):
            region_loss(tape, tape.const([[0.5]]), [[1.0, 0.0]])


class TestTransformLoss:
    def track(self, n):
        return [Box(0.1 + 0.05 * t, 0.5, 0.1, 0.1) for t in range(n)]

    def test_perfect_prediction_is_zero(self):
        tape = Tape()
        track = self.track(4)
        c = np.zeros((4, 4))
        for t in range(3):
            c[:, t] = encode_box_transform(track[t].as_array(), track[t + 1].as_array())
        c[:, 3] = 5.0  # the last frame has no target
        loss = transform_loss(tape, tape.const(c), track, horizon=1)
        assert float(loss.value) == pytest.approx(0.0, abs=1e-12)

    def test_single_half_unit_error(self):
        tape = Tape()
        track = [Box(0.5, 0.5, 0.1, 0.1)] * 2
        c = tape.const([[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        loss = transform_loss(tape, c, track, horizon=1)
        assert float(loss.value) == pytest.approx(0.125, abs=1e-12)

    def test_static_track_zero_transform(self):
        tape = Tape()
        track = [Box(0.5, 0.5, 0.1, 0.1)] * 5
        loss = transform_loss(tape, tape.const(np.zeros((4, 5))), track, horizon=2)
        assert float(loss.value) == 0.0

    def test_tail_frames_skipped(self):
        tape = Tape()
        track = self.track(3)
        # only frame 0 has a target at horizon 2; frames 1, 2 contribute nothing
        c = np.array([[0.0, 9.0, 9.0], [0.0, 9.0, 9.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with_tail = tape.leaf(c)
        loss = transform_loss(tape, with_tail, track, horizon=2)
        only_first = transform_loss(tape, tape.const(c[:, :1]), track, horizon=2)
        assert float(loss.value) == pytest.approx(float(only_first.value))
        tape.backward(loss)
        np.testing.assert_array_equal(with_tail.grad[:, 1:], 0.0)

    def test_no_transform_head_is_zero(self):
        tape = Tape()
        assert float(transform_loss(tape, None, self.track(3), horizon=1).value) == 0.0


class TestTotalLoss:
    def test_single_level_reduces_to_three_term_sum(self):
        cfg = variant_config(TINY_CONFIG, "L-RA")
        model = RiskModel.create(cfg, seed=3)
        rng = np.random.default_rng(3)
        frames = random_frames(rng, cfg, 4, 3)
        targets = random_targets(rng, frames, positive=True)
        tape = Tape(train=False)
        out = forward_video(model.store, cfg, frames, tape)
        total = total_loss(tape, frames, out, targets, (1.0,), cfg.horizon)
        labels = region_labels(np.stack([f.regions.xywh for f in frames]),
                               targets.risky_array())
        want = (float(anticipation_loss(tape, out.y_node, True, targets.t_accident).value)
                + float(region_loss(tape, out.s_node, labels).value))
        assert float(total.value) == pytest.approx(want, rel=1e-12)

    def test_equal_level_losses_average_out(self):
        # fabricate predictions whose imagined outputs equal the observed ones;
        # the weighted task part must equal the single-level task loss
        cfg = TINY_CONFIG
        model = tiny_model(4)
        model.store["imagine_head_W"].values[...] = 0.0
        rng = np.random.default_rng(4)
        frames = random_frames(rng, cfg, 3, 3)
        targets = random_targets(rng, frames, positive=False)
        tape = Tape(train=False)
        out = forward_video(model.store, cfg, frames, tape)
        total = total_loss(tape, frames, out, targets, cfg.lambdas, cfg.horizon)
        labels = [[0.0] * 3 for _ in frames]
        obs = (float(anticipation_loss(tape, out.y_node, False).value)
               + float(region_loss(tape, out.s_node, labels).value))
        imag = (float(anticipation_loss(tape, out.imagined[0].y_node, False).value)
                + float(region_loss(tape, out.imagined[0].s_node, labels).value))
        lp = float(transform_loss(tape, out.c_node, targets.agent_track, cfg.horizon).value)
        assert float(total.value) == pytest.approx(lp + 0.6 * obs + 0.4 * imag, rel=1e-12)

    def test_lambda_mismatch_rejected(self):
        model = tiny_model(5)
        rng = np.random.default_rng(5)
        frames = random_frames(rng, TINY_CONFIG, 2, 3)
        targets = random_targets(rng, frames, positive=False)
        tape = Tape(train=False)
        out = forward_video(model.store, TINY_CONFIG, frames, tape)
        with pytest.raises(ValueError):
            total_loss(tape, frames, out, targets, (1.0,), TINY_CONFIG.horizon)

    def test_gradient_matches_finite_differences(self):
        from riskrnn.nn import finite_diff_check
        from helpers import gradcheck_fixture
        model = tiny_model(6)
        rng = np.random.default_rng(6)
        frames, targets = gradcheck_fixture(rng, TINY_CONFIG, 2, 3, positive=True)

        def make_loss():
            tape = Tape()
            out = forward_video(model.store, TINY_CONFIG, frames, tape)
            return tape, total_loss(tape, frames, out, targets,
                                    TINY_CONFIG.lambdas, TINY_CONFIG.horizon)

        assert finite_diff_check(model.store, make_loss) < 1e-4

    def test_targets_validation(self):
        with pytest.raises(ValueError):
            VideoTargets(True, None, [Box(0.5, 0.5, 0.1, 0.1)], [[]]).validate(1)
        with pytest.raises(ValueError):
            VideoTargets(False, None, [], []).validate(2)
