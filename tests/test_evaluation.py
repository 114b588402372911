import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskrnn.evaluation import (REGION_IOU_THRESHOLD, average_precision, match_frame_detections,
                                oracle_region_average_precision, region_average_precision,
                                region_overlaps, risk_map_raster, tta_atta)
from riskrnn.geometry import iou

import oracles
from oracles import Box, as_array, stack_boxes

unit_floats = st.floats(0.0, 1.0, allow_nan=False)
labelled = st.lists(st.tuples(unit_floats, st.booleans()), min_size=1, max_size=60).filter(
    lambda pairs: any(positive for _, positive in pairs))


def ap_of(pairs, n_positive=None):
    return average_precision([score for score, _ in pairs],
                             [positive for _, positive in pairs], n_positive)


class TestAveragePrecision:
    def test_perfect_ranking_of_nine_positives_is_exactly_one(self):
        scores = np.concatenate([1.0 - 0.05 * np.arange(9), 0.1 - 0.01 * np.arange(5)])
        assert average_precision(scores, np.arange(14) < 9) == 1.0

    def test_recall_denominator_below_the_positive_items_is_rejected(self):
        scores, positive = np.array([0.5, 0.4]), np.array([True, True])
        with pytest.raises(ValueError, match="n_positive=1 is below the 2 positive items"):
            average_precision(scores, positive, n_positive=1)
        assert average_precision(scores, positive, n_positive=4) == 0.5

    @settings(deadline=None)
    @given(labelled)
    def test_lies_in_the_unit_interval(self, pairs):
        assert 0.0 < ap_of(pairs) <= 1.0

    @settings(deadline=None)
    @given(st.data(), labelled)
    def test_invariant_to_item_order(self, data, pairs):
        shuffled = data.draw(st.permutations(pairs))
        assert ap_of(shuffled) == ap_of(pairs)

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.2, 0.5, 0.8]), st.booleans()),
                    min_size=1, max_size=40)
           .filter(lambda pairs: any(positive for _, positive in pairs)))
    def test_ties_rank_positives_after_negatives(self, pairs):
        # lowering each positive just below its tie ranks it after the
        # negatives of its score and before every lower score
        tied = ap_of(pairs)
        after = ap_of([(score - 0.01 if positive else score, positive)
                       for score, positive in pairs])
        assert tied == after

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), unit_floats),
                              st.booleans()), max_size=60),
           st.integers(0, 5))
    def test_equals_the_scalar_reference_bit_for_bit(self, pairs, extra_positives):
        # tied scores, the 0 and 1 extremes, and a recall denominator above
        # the positive items, as region AP's unmatched ground truth makes
        n_positive = sum(positive for _, positive in pairs) + extra_positives
        if n_positive == 0:
            with pytest.raises(ValueError, match="undefined without positives"):
                ap_of(pairs, n_positive)
            return
        assert ap_of(pairs, n_positive) == oracles.average_precision(pairs, n_positive)


# probabilities that often tie, within and across videos, and hit 0 and 1
tied_probs = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), unit_floats)


@st.composite
def labelled_videos(draw):
    """A split's (V, T) frame scores, one T per split, with each video's
    positive flag and accident frame (-1 for a negative); one video at
    least is positive."""
    n_videos, n_frames = draw(st.integers(1, 15)), draw(st.integers(1, 12))
    probs = np.array(draw(st.lists(st.lists(tied_probs, min_size=n_frames, max_size=n_frames),
                                   min_size=n_videos, max_size=n_videos)))
    positive = np.array(draw(st.lists(st.booleans(), min_size=n_videos, max_size=n_videos)))
    positive[0] |= not positive.any()
    t_accident = np.array([draw(st.integers(0, n_frames - 1)) if is_positive else -1
                           for is_positive in positive])
    return probs, positive, t_accident


def video_ids(n_videos):
    return [f"v{i}" for i in range(n_videos)]


class TestTtaAtta:
    def test_twelve_positives_crossing_at_frame_zero_give_exactly_eleven(self):
        probs = np.repeat(0.9 - 0.05 * np.arange(12)[:, None], 12, axis=1)
        _, atta = tta_atta(probs, np.ones(12, bool), np.full(12, 11), video_ids(12))
        assert atta == 11.0

    @pytest.mark.parametrize("t_accident", [-1, 12])
    def test_a_positive_without_an_accident_frame_names_the_video(self, t_accident):
        with pytest.raises(ValueError, match=rf"^video broken: positive video needs an accident "
                                             rf"frame in \[0, 12\), got {t_accident}$"):
            tta_atta(np.full((2, 12), 0.5), [True, True], [11, t_accident], ["kept", "broken"])

    @settings(deadline=None)
    @given(labelled_videos())
    def test_atta_is_bounded_by_the_latest_accident(self, videos):
        probs, positive, t_accident = videos
        rows, atta = tta_atta(probs, positive, t_accident, video_ids(len(probs)))
        assert 0.0 <= atta <= t_accident.max()
        recalls = [recall for _, _, recall, _ in rows]
        assert recalls == sorted(recalls)

    @settings(max_examples=200, deadline=None)
    @given(labelled_videos())
    def test_equals_the_scalar_reference_bit_for_bit(self, videos):
        probs, positive, t_accident = videos
        assert tta_atta(probs, positive, t_accident, video_ids(len(probs))) == \
            oracles.tta_atta(probs, positive, t_accident)


# grid boxes make equal IoUs, and so ties between ground-truth boxes, common
grid_boxes = st.builds(Box, st.sampled_from([0.25, 0.375, 0.5, 0.625]),
                       st.sampled_from([0.25, 0.375, 0.5]),
                       st.sampled_from([0.125, 0.25, 0.5]), st.sampled_from([0.25, 0.5]))
detection_scores = st.sampled_from([0.2, 0.5, 0.8])


@st.composite
def contested_frames(draw, n_dets, max_gt):
    """A frame's ``n_dets`` (box, score) detections and at most ``max_gt``
    ground-truth boxes, grid boxes all, in any order.

    Where there is room, the frame may hold a contest: a detection's grid box
    shifted a quarter of its side each way gives two ground-truth boxes that
    it overlaps at one IoU, 0.6, and that overlap each other below 0.4, and a
    weaker detection copies one of them. That copy is matched only if the
    stronger detection claimed the other, so the contest decides which of
    equal ground truths a detection claims.
    """
    contest = n_dets >= 2 and max_gt >= 2 and draw(st.booleans())
    gt_boxes = draw(st.lists(grid_boxes, max_size=max_gt - 2 * contest))
    size = n_dets - 2 * contest
    dets = draw(st.lists(st.tuples(grid_boxes, detection_scores), min_size=size, max_size=size))
    if contest:
        box = draw(grid_boxes)
        dx, dy = draw(st.sampled_from([(box.w / 4, 0.0), (0.0, box.h / 4)]))
        pair = [Box(box.cx - dx, box.cy - dy, box.w, box.h),
                Box(box.cx + dx, box.cy + dy, box.w, box.h)]
        gt_boxes = draw(st.permutations(gt_boxes + pair))
        dets = draw(st.permutations(dets + [(box, 0.8), (draw(st.sampled_from(pair)), 0.1)]))
    return dets, gt_boxes


def frame_overlaps(boxes, gt_boxes):
    return iou(stack_boxes(boxes)[:, None], stack_boxes(gt_boxes)[None])


class TestMatchFrameDetections:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(0, 5))
    def test_claims_each_ground_truth_once_as_the_scalar_reference(self, data, n_dets):
        dets, gt = data.draw(contested_frames(n_dets, max_gt=4))
        scores = np.array([score for _, score in dets])
        got = match_frame_detections(scores, frame_overlaps([box for box, _ in dets], gt))
        assert got.shape == (len(dets),) and got.sum() <= len(gt)
        assert got.tolist() == [hit for _, hit in oracles.match_frame_detections(dets, gt)]

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(0, 4), st.integers(0, 4))
    def test_a_split_matches_each_frame_as_the_scalar_reference(self, data, n_videos, n_frames,
                                                               n_dets, n_gt):
        # the split shares one N and one R; a frame's ground truth short of R
        # is NaN padding, and R = 0 leaves nothing to match
        scores = np.zeros((n_videos, n_frames, n_dets))
        boxes = np.zeros(scores.shape + (4,))
        gt = np.full((n_videos, n_frames, n_gt, 4), np.nan)
        frames = []
        for index in np.ndindex(n_videos, n_frames):
            dets, gt_boxes = data.draw(contested_frames(n_dets, n_gt))
            frames.append((index, dets, gt_boxes))
            scores[index] = [score for _, score in dets]
            boxes[index] = stack_boxes(box for box, _ in dets)
            gt[index][:len(gt_boxes)] = stack_boxes(gt_boxes)
        got = match_frame_detections(scores, region_overlaps(boxes, gt))
        assert got.shape == scores.shape
        for index, dets, gt_boxes in frames:
            assert got[index].tolist() == [
                hit for _, hit in oracles.match_frame_detections(dets, gt_boxes)]

    def test_at_equal_iou_the_later_ground_truth_is_claimed(self):
        # dyadic boxes make both overlaps exactly 0.6; the weaker detection
        # overlaps only the first ground truth, which is left to it
        first, second = Box(0.4375, 0.5, 0.25, 0.25), Box(0.5625, 0.5, 0.25, 0.25)
        strong = Box(0.5, 0.5, 0.25, 0.25)
        assert iou(as_array(strong), as_array(first)) == iou(as_array(strong),
                                                             as_array(second)) == 0.6
        assert iou(as_array(first), as_array(second)) < 0.4
        got = match_frame_detections(np.array([0.8, 0.9]),
                                     frame_overlaps([first, strong], [first, second]))
        assert got.tolist() == [True, True]


def random_region_videos(rng, n_videos=4, n_frames=5):
    """A split as the per-frame (detections, ground truth) lists of the
    scalar references and as the metrics' (V, T, N) scores and
    (V, T, N, R) overlaps, from one ``region_overlaps`` call.

    The split has one detection count N and up to R (1 to 3) ground-truth
    boxes a frame, NaN-padded to R where a frame has fewer; a video drawn
    without ground truth is all padding. About half the ground truth is a
    jittered copy of a detection so some overlaps pass 0.4, and scores tie
    often. The first frame of the first video has its first detection as
    ground truth, so every draw has a match."""
    def box():
        return Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.3, 2))

    n_dets, n_gt = rng.integers(1, 7), rng.integers(1, 4)
    frames = []
    scores = np.zeros((n_videos, n_frames, n_dets))
    boxes = np.zeros(scores.shape + (4,))
    gt = np.full((n_videos, n_frames, n_gt, 4), np.nan)
    for v in range(n_videos):
        max_gt = rng.integers(0 if v else 1, n_gt + 1)
        video = []
        for t in range(n_frames):
            dets = [(box(), float(rng.choice([0.0, 0.5, 1.0, rng.uniform()])))
                    for _ in range(n_dets)]
            gt_boxes = [Box(b.cx + rng.normal(0, 0.02), b.cy, b.w, b.h) if rng.uniform() < 0.5
                        else box() for b, _ in dets[:rng.integers(0, max_gt + 1)]]
            if v == t == 0:
                gt_boxes[:1] = [dets[0][0]]
            video.append((dets, gt_boxes))
            boxes[v, t] = stack_boxes(b for b, _ in dets)
            scores[v, t] = [s for _, s in dets]
            gt[v, t, :len(gt_boxes)] = stack_boxes(gt_boxes)
        frames.append(video)
    return frames, scores, region_overlaps(boxes, gt)


class TestRegionAp:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_scalar_reference(self, seed):
        frames, scores, overlaps = random_region_videos(np.random.default_rng(seed))
        got = region_average_precision(scores, overlaps)
        assert 0.0 < got == oracles.region_average_precision(frames)

    def test_padding_columns_are_not_ground_truth(self):
        frames, scores, overlaps = random_region_videos(np.random.default_rng(0), n_videos=1)
        padded = np.concatenate([overlaps, np.full(overlaps.shape[:3] + (2,), np.nan)], axis=3)
        assert region_average_precision(scores, padded) == \
            region_average_precision(scores, overlaps) == oracles.region_average_precision(frames)

    def test_an_overlap_exactly_at_the_threshold_matches(self):
        scores = np.array([[[0.9, 0.5]]])
        overlaps = np.array([[[[REGION_IOU_THRESHOLD], [0.1]]]])
        assert region_average_precision(scores, overlaps) == 1.0


class TestOracleRegionAp:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_scalar_reference(self, seed):
        frames, _, overlaps = random_region_videos(np.random.default_rng(seed))
        got = oracle_region_average_precision(overlaps)
        assert 0.0 < got == oracles.oracle_region_average_precision(frames)

    def test_no_detection_on_any_ground_truth_warns_and_reports_zero(self):
        _, _, overlaps = random_region_videos(np.random.default_rng(1))
        # every detection moved off its frame's ground truth
        missed = np.where(np.isnan(overlaps), np.nan, 0.0)
        with pytest.warns(UserWarning, match="no proposal overlaps any ground truth"):
            assert oracle_region_average_precision(missed) == 0.0


scored_boxes = st.lists(st.tuples(st.builds(Box, st.floats(-0.5, 1.5), st.floats(-0.5, 1.5),
                                            st.floats(1e-3, 2.0), st.floats(1e-3, 2.0)),
                                  unit_floats), max_size=8)
# dyadic edges on power-of-two grids put box edges on cell centers
sixteenths = st.integers(1, 16).map(lambda k: k / 16)
dyadic_scored_boxes = st.lists(st.tuples(st.builds(Box, sixteenths, sixteenths, sixteenths,
                                                   sixteenths), unit_floats), max_size=8)


class TestRiskMapRaster:
    @settings(deadline=None)
    @given(scored_boxes, st.integers(1, 16), st.integers(1, 16))
    def test_values_lie_in_the_unit_interval(self, scored, grid_w, grid_h):
        boxes = stack_boxes(box for box, _ in scored)
        scores = [score for _, score in scored]
        values = risk_map_raster(boxes, scores, grid_w, grid_h)
        assert values.shape == (grid_h, grid_w)
        assert np.all((values >= 0.0) & (values <= 1.0))

    @settings(max_examples=200, deadline=None)
    @given(scored_boxes | dyadic_scored_boxes, st.sampled_from([1, 4, 8, 16]),
           st.integers(1, 16))
    # eight boxes on one cell: a pairwise sum is 2.8e-17 off the running one
    @example([(Box(0.0, 0.0, 1.0, 1.0), score)
              for score in (0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.5510275822490188,
                            0.27664533870162616)], 1, 1)
    def test_equals_the_per_box_reference_bit_for_bit(self, scored, grid_w, grid_h):
        boxes = stack_boxes(box for box, _ in scored)
        scores = np.array([score for _, score in scored])
        got = risk_map_raster(boxes, scores, grid_w, grid_h)
        want = oracles.risk_map_raster(scored, grid_w, grid_h)
        assert got.tobytes() == want.tobytes()
