import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrnn.autodiff import Tape
from riskrnn.data import write_dataset
from riskrnn.geometry import encode_box_transform, iou
import riskrnn.autodiff as ad
from riskrnn.losses import (SequenceTargets, anticipation_loss, anticipation_weights,
                            region_labels, region_loss, total_loss, transform_loss,
                            transform_targets)
from riskrnn.model import VARIANTS, RiskModel, forward_video, variant_config
from riskrnn.training import stack_regions, track_inputs

import oracles
from oracles import Box, as_array, stack_boxes
from helpers import (TINY_CONFIG, agent_tracks, leaf, padded_negative, random_box, random_targets,
                     random_video, tiny_model)


def prob_nodes(tape, values):
    """(2, T) constant: per frame the distribution (1 - v, v)."""
    values = np.asarray(values, dtype=np.float64)
    return tape.const(np.stack([1.0 - values, values]))


def anticipation(values, positive, t_accident=-1, time_scale=1.0) -> float:
    """The anticipation loss of one video with per-frame accident
    probabilities ``values``, summed over its frames."""
    tape = Tape()
    weights = anticipation_weights(positive, t_accident, len(values), time_scale)
    return float(anticipation_loss(tape, prob_nodes(tape, values), weights).value.sum())


def summed(loss) -> float:
    return float(loss.value.sum())


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
        assert iou(as_array(region), as_array(gt)) == 0.4
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
        regions = np.array([[random_box(rng) for _ in range(5)] for _ in range(4)])
        # frames 1 and 3 hold one of their own regions; the NaN rows that pad
        # frames 0, 2 and 3 to two risky boxes overlap nothing
        risky = [[random_box(rng)], [random_box(rng), regions[1][0]], [], [regions[3][2]]]
        padded = np.full((4, 2, 4), np.nan)
        for t, rows in enumerate(risky):
            padded[t, :len(rows)] = np.reshape(rows, (-1, 4))
        got = region_labels(regions, padded)
        want = [[float(any(oracles.iou(box, gt) > 0.4 for gt in oracles.boxes(gts)))
                 for box in oracles.boxes(boxes)] for boxes, gts in zip(regions, risky)]
        assert got.tolist() == want
        assert got[1, 0] == got[3, 2] == 1.0


class TestAnticipationLoss:
    def test_unit_weight_at_accident_frame(self):
        loss = anticipation([0.8], positive=True, t_accident=0)
        assert loss == pytest.approx(-math.log(0.8), abs=1e-12)

    def test_one_frame_before_accident(self):
        loss = anticipation([0.5, 0.5], positive=True, t_accident=1)
        want = math.exp(-1) * math.log(2) + math.log(2)
        assert loss == pytest.approx(want, abs=1e-12)
        assert math.exp(-1) * math.log(2) == pytest.approx(0.2550, abs=1e-4)

    def test_perfect_negative_is_zero(self):
        loss = anticipation([0.0, 0.0, 0.0], positive=False)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_matches_summed_formula_and_weights_grow(self):
        n, p = 6, 0.3
        tape = Tape()
        loss = anticipation_loss(tape, prob_nodes(tape, [p] * n),
                                 anticipation_weights(True, n - 1, n))
        terms = [math.exp(-(n - 1 - t)) * -math.log(p) for t in range(n)]
        np.testing.assert_allclose(loss.value, terms, rtol=1e-12)
        assert summed(loss) == pytest.approx(sum(terms), rel=1e-12)
        assert all(a < b for a, b in zip(terms, terms[1:]))

    def test_time_scale_rescales_gap(self):
        loss = anticipation([0.5, 0.5], positive=True, t_accident=1, time_scale=0.5)
        want = math.exp(-0.5) * math.log(2) + math.log(2)
        assert loss == pytest.approx(want, rel=1e-12)

    def test_always_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            probs = rng.uniform(0.001, 0.999, size=5)
            positive = bool(rng.integers(2))
            assert anticipation(probs, positive, t_accident=4) >= 0.0


class TestRegionLoss:
    def test_risky_half_score(self):
        tape = Tape()
        loss = region_loss(tape, tape.const([[0.5]]), [[1.0]])
        assert summed(loss) == pytest.approx(math.log(2), abs=1e-12)
        assert math.log(2) == pytest.approx(0.6931, abs=1e-4)

    def test_confident_non_risky_is_tiny(self):
        tape = Tape()
        loss = region_loss(tape, tape.const([[1e-9]]), [[0.0]])
        assert summed(loss) == pytest.approx(0.0, abs=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = float(rng.uniform(0.01, 0.99))
            tape = Tape()
            risky = region_loss(tape, tape.const([[s]]), [[1.0]])
            flipped = region_loss(tape, tape.const([[1.0 - s]]), [[0.0]])
            assert summed(risky) == pytest.approx(summed(flipped), rel=1e-12)

    def test_sums_over_frames_and_regions(self):
        tape = Tape()
        loss = region_loss(tape, tape.const([[0.5, 0.5], [0.5, 0.5]]),
                           [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(loss.value, [2 * math.log(2)] * 2, rtol=1e-12)
        assert summed(loss) == pytest.approx(4 * math.log(2), rel=1e-12)

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
            c[:, t] = encode_box_transform(as_array(track[t]), as_array(track[t + 1]))
        c[:, 3] = 5.0  # the last frame has no target
        loss = transform_loss(tape, tape.const(c),
                              *transform_targets(stack_boxes(track), horizon=1))
        assert summed(loss) == pytest.approx(0.0, abs=1e-12)

    def test_single_half_unit_error(self):
        tape = Tape()
        track = [Box(0.5, 0.5, 0.1, 0.1)] * 2
        c = tape.const([[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        loss = transform_loss(tape, c, *transform_targets(stack_boxes(track), horizon=1))
        assert summed(loss) == pytest.approx(0.125, abs=1e-12)

    def test_static_track_zero_transform(self):
        tape = Tape()
        track = [Box(0.5, 0.5, 0.1, 0.1)] * 5
        loss = transform_loss(tape, tape.const(np.zeros((4, 5))),
                              *transform_targets(stack_boxes(track), horizon=2))
        assert summed(loss) == 0.0

    def test_tail_frames_skipped(self):
        tape = Tape()
        track = self.track(3)
        # only frame 0 has a target at horizon 2; frames 1, 2 contribute nothing
        c = np.array([[0.0, 9.0, 9.0], [0.0, 9.0, 9.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with_tail = leaf(tape, c)
        target, has_target = transform_targets(stack_boxes(track), horizon=2)
        assert has_target.tolist() == [True, False, False]
        loss = transform_loss(tape, with_tail, target, has_target)
        only_first = transform_loss(tape, tape.const(c[:, :1]), target[:, :1], has_target[:1])
        assert summed(loss) == pytest.approx(summed(only_first))
        tape.backward(ad.vsum(loss))
        np.testing.assert_array_equal(with_tail.grad[:, 1:], 0.0)

    def test_no_transform_head_is_zero(self):
        # without imagination there is no transform head, so the total never
        # reads the transform targets
        cfg = variant_config(TINY_CONFIG, "RA")
        rng = np.random.default_rng(8)
        sample = random_targets(rng, random_video(rng, cfg, 3, 2), positive=True)
        targets = SequenceTargets.of([sample], cfg.horizon)
        tape = Tape()
        out = forward_video(RiskModel.create(cfg, seed=8).store, cfg, agent_tracks(sample), tape)
        assert out.c_node is None
        garbled = replace(targets, transforms=np.full_like(targets.transforms, np.nan))
        assert (float(total_loss(tape, out, garbled, [0]).total.value)
                == float(total_loss(tape, out, targets, [0]).total.value))


class TestTotalLoss:
    def test_single_level_reduces_to_three_term_sum(self):
        cfg = variant_config(TINY_CONFIG, "L-RA")
        model = RiskModel.create(cfg, seed=3)
        rng = np.random.default_rng(3)
        sample = random_targets(rng, random_video(rng, cfg, 4, 3), positive=True)
        tape = Tape(train=False)
        inputs = agent_tracks(sample)
        out = forward_video(model.store, cfg, inputs, tape)
        total = total_loss(tape, out, SequenceTargets.of([sample], cfg.horizon), [0])
        labels = region_labels(sample.region_box, sample.risky_box)
        weights = anticipation_weights(True, sample.t_accident, sample.n_frames)
        (y, s), = out.levels
        want = (summed(anticipation_loss(tape, y, weights))
                + summed(region_loss(tape, s, labels)))
        assert float(total.total.value) == pytest.approx(want, rel=1e-12)
        assert total.per_sequence.tolist() == [float(total.total.value)]

    def test_equal_level_losses_average_out(self):
        # fabricate predictions whose imagined outputs equal the observed ones;
        # the weighted task part must equal the single-level task loss
        cfg = TINY_CONFIG
        model = tiny_model(4)
        model.store["imagine_head_W"].values[...] = 0.0
        rng = np.random.default_rng(4)
        sample = random_targets(rng, random_video(rng, cfg, 3, 3), positive=False)
        tape = Tape(train=False)
        inputs = agent_tracks(sample)
        out = forward_video(model.store, cfg, inputs, tape)
        total = total_loss(tape, out, SequenceTargets.of([sample], cfg.horizon), [0])
        labels = [[0.0] * 3] * sample.n_frames
        weights = anticipation_weights(False, -1, sample.n_frames)
        obs, imag = (summed(anticipation_loss(tape, y, weights))
                     + summed(region_loss(tape, s, labels)) for y, s in out.levels)
        lp = summed(transform_loss(tape, out.c_node,
                                   *transform_targets(sample.agent_box, cfg.horizon)))
        assert float(total.total.value) == pytest.approx(lp + 0.6 * obs + 0.4 * imag,
                                                         rel=1e-12)

    def test_lambda_mismatch_rejected(self):
        # the model config holds one weight per level; an output built with
        # another count is not scored on a subset of its levels
        model = tiny_model(5)
        rng = np.random.default_rng(5)
        sample = random_targets(rng, random_video(rng, TINY_CONFIG, 2, 3), positive=False)
        tape = Tape(train=False)
        out = forward_video(model.store, TINY_CONFIG, agent_tracks(sample), tape)
        with pytest.raises(ValueError):
            total_loss(tape, replace(out, lambdas=(1.0,)),
                       SequenceTargets.of([sample], TINY_CONFIG.horizon), [0])

    def test_gradient_matches_finite_differences(self):
        from helpers import finite_diff_check, gradcheck_fixture
        model = tiny_model(6)
        rng = np.random.default_rng(6)
        sample = gradcheck_fixture(rng, TINY_CONFIG, 2, 3, positive=True)
        inputs = agent_tracks(sample)
        targets = SequenceTargets.of([sample], TINY_CONFIG.horizon)

        def make_loss():
            tape = Tape()
            out = forward_video(model.store, TINY_CONFIG, inputs, tape)
            return tape, total_loss(tape, out, targets, [0]).total

        assert finite_diff_check(model.store, make_loss) < 1e-4

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), variant=st.sampled_from(VARIANTS), n_videos=st.integers(1, 3),
           n_frames=st.integers(1, 6), n_regions=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_a_pass_is_the_sum_of_each_sequences_own_loss(self, data, variant, n_videos,
                                                           n_frames, n_regions, seed):
        # any video_of, repeats and all, against each sequence run alone on
        # the targets and regions of its video alone; the batched matmuls sum
        # in another order, so the losses agree to rounding
        video_of = data.draw(st.lists(st.integers(0, n_videos - 1), min_size=1, max_size=5))
        cfg = variant_config(TINY_CONFIG, variant)
        rng = np.random.default_rng(seed)
        videos = [random_video(rng, cfg, n_frames, n_regions) for _ in range(n_videos)]
        videos = [random_targets(rng, v, positive=True) if rng.random() < 0.5
                  else padded_negative(v) for v in videos]
        boxes = np.array([[random_box(rng) for _ in range(n_frames)] for _ in video_of])
        feats = rng.normal(size=(len(video_of), n_frames, cfg.d_agent))
        store = RiskModel.create(cfg, seed=seed).store

        def loss(boxes, feats, split, video_of):
            tape = Tape(train=False)
            out = forward_video(store, cfg, track_inputs(boxes, feats, stack_regions(split),
                                                         video_of), tape)
            return total_loss(tape, out, SequenceTargets.of(split, cfg.horizon), video_of)

        got = loss(boxes, feats, videos, video_of)
        alone = [loss(boxes[s:s + 1], feats[s:s + 1], [videos[v]], [0]).per_sequence[0]
                 for s, v in enumerate(video_of)]
        np.testing.assert_allclose(got.per_sequence, alone, rtol=1e-12, atol=1e-12)
        assert float(got.total.value) == pytest.approx(math.fsum(alone), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("t_accident", [-1, 2])
    def test_a_positive_needs_an_accident_frame_among_its_frames(self, t_accident):
        rng = np.random.default_rng(10)
        sample = random_targets(rng, random_video(rng, TINY_CONFIG, 2, 3), positive=True)
        broken = replace(sample, t_accident=t_accident, video_id="broken")
        with pytest.raises(ValueError, match=rf"^video broken: positive video needs an accident "
                                             rf"frame in \[0, 2\), got {t_accident}$"):
            SequenceTargets.of([sample, broken], TINY_CONFIG.horizon)

    def test_targets_validation(self, tmp_path):
        sample = random_video(np.random.default_rng(9), TINY_CONFIG, 2, 3)
        # a file needs proposals: the regions serve
        sample = replace(sample, proposal_box=sample.region_box,
                         proposal_score=np.ones(sample.region_box.shape[:2]),
                         proposal_feat=sample.region_feat)
        write_dataset(tmp_path / "video.dat", [sample])
        with pytest.raises(ValueError, match="positive video needs an accident frame"):
            write_dataset(tmp_path / "video.dat", [replace(sample, positive=True)])
        with pytest.raises(ValueError, match="negative video needs no accident frame"):
            write_dataset(tmp_path / "video.dat",
                          [replace(sample, risky_box=sample.region_box[:, :1])])
