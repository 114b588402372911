import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrnn.evaluation import (REGION_IOU_THRESHOLD, VideoPrediction, average_precision,
                                match_frame_detections, oracle_region_average_precision,
                                region_average_precision, region_overlaps, risk_map_raster,
                                tta_atta)
from riskrnn.geometry import Box, iou

import oracles
from oracles import as_array, stack_boxes

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
    videos = []
    for _ in range(draw(st.integers(1, 15))):
        probs = np.array(draw(st.lists(tied_probs, min_size=1, max_size=12)))
        positive = draw(st.booleans())
        t_accident = draw(st.integers(0, len(probs) - 1)) if positive else None
        videos.append(VideoPrediction(probs, positive, t_accident))
    if not any(v.positive for v in videos):
        videos[0] = VideoPrediction(videos[0].probs, True, len(videos[0].probs) - 1)
    return videos


class TestTtaAtta:
    def test_twelve_positives_crossing_at_frame_zero_give_exactly_eleven(self):
        videos = [VideoPrediction(np.full(12, 0.9 - 0.05 * i), True, 11) for i in range(12)]
        _, atta = tta_atta(videos)
        assert atta == 11.0

    @settings(deadline=None)
    @given(labelled_videos())
    def test_atta_is_bounded_by_the_latest_accident(self, videos):
        rows, atta = tta_atta(videos)
        assert 0.0 <= atta <= max(v.t_accident for v in videos if v.positive)
        recalls = [recall for _, _, recall, _ in rows]
        assert recalls == sorted(recalls)

    @settings(max_examples=200, deadline=None)
    @given(labelled_videos())
    def test_equals_the_scalar_reference_bit_for_bit(self, videos):
        assert tta_atta(videos) == oracles.tta_atta(videos)


# grid boxes make equal IoUs, and so ties between ground-truth boxes, common
grid_boxes = st.builds(Box, st.sampled_from([0.25, 0.375, 0.5, 0.625]),
                       st.sampled_from([0.25, 0.375, 0.5]),
                       st.sampled_from([0.125, 0.25, 0.5]), st.sampled_from([0.25, 0.5]))
detections = st.lists(st.tuples(grid_boxes, st.sampled_from([0.2, 0.5, 0.8])), max_size=8)


def frame_overlaps(boxes, gt_boxes):
    return iou(stack_boxes(boxes)[:, None], stack_boxes(gt_boxes)[None])


class TestMatchFrameDetections:
    @settings(max_examples=300, deadline=None)
    @given(detections, st.lists(grid_boxes, max_size=5))
    def test_claims_each_ground_truth_once_as_the_scalar_reference(self, dets, gt):
        scores = np.array([score for _, score in dets])
        got = match_frame_detections(scores, frame_overlaps([box for box, _ in dets], gt))
        assert got.shape == (len(dets),) and got.sum() <= len(gt)
        assert got.tolist() == [hit for _, hit in oracles.match_frame_detections(dets, gt)]

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
    """Videos as the per-frame (detections, ground truth) lists of the
    scalar references and as the (scores, overlaps) arrays of the metrics.

    Each video has one detection count N and up to R = 3 ground-truth boxes
    a frame, NaN-padded to R where a frame has fewer; R is 0 for some
    videos. About half the ground truth is a jittered copy of a detection so
    some overlaps pass 0.4, and scores tie often. The first frame of the
    first video has its first detection as ground truth, so every draw has
    a match."""
    def box():
        return Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.3, 2))

    frames, arrays = [], []
    for v in range(n_videos):
        n_dets, max_gt = rng.integers(1, 7), rng.integers(0 if v else 1, 4)
        video, boxes, scores = [], [], []
        gt = np.full((n_frames, max_gt, 4), np.nan)
        for t in range(n_frames):
            dets = [(box(), float(rng.choice([0.0, 0.5, 1.0, rng.uniform()])))
                    for _ in range(n_dets)]
            gt_boxes = [Box(b.cx + rng.normal(0, 0.02), b.cy, b.w, b.h) if rng.uniform() < 0.5
                        else box() for b, _ in dets[:rng.integers(0, max_gt + 1)]]
            if v == t == 0:
                gt_boxes[:1] = [dets[0][0]]
            video.append((dets, gt_boxes))
            boxes.append(stack_boxes(b for b, _ in dets))
            scores.append([s for _, s in dets])
            gt[t, :len(gt_boxes)] = stack_boxes(gt_boxes)
        frames.append(video)
        arrays.append((np.array(scores), region_overlaps(np.stack(boxes), gt)))
    return frames, arrays


class TestRegionAp:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("per_video", [False, True])
    def test_equals_the_scalar_reference(self, seed, per_video):
        frames, arrays = random_region_videos(np.random.default_rng(seed))
        got = region_average_precision(arrays, per_video=per_video)
        assert 0.0 < got == oracles.region_average_precision(frames, per_video=per_video)

    def test_padding_columns_are_not_ground_truth(self):
        frames, arrays = random_region_videos(np.random.default_rng(0), n_videos=1)
        scores, overlaps = arrays[0]
        padded = np.concatenate([overlaps, np.full(overlaps.shape[:2] + (2,), np.nan)], axis=2)
        assert region_average_precision([(scores, padded)]) == \
            region_average_precision(arrays) == oracles.region_average_precision(frames)

    def test_an_overlap_exactly_at_the_threshold_matches(self):
        scores = np.array([[0.9, 0.5]])
        overlaps = np.array([[[REGION_IOU_THRESHOLD], [0.1]]])
        assert region_average_precision([(scores, overlaps)]) == 1.0


class TestOracleRegionAp:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("per_video", [False, True])
    def test_equals_the_scalar_reference(self, seed, per_video):
        frames, arrays = random_region_videos(np.random.default_rng(seed))
        got = oracle_region_average_precision(arrays, per_video=per_video)
        assert 0.0 < got == oracles.oracle_region_average_precision(frames, per_video=per_video)

    def test_no_detection_on_any_ground_truth_warns_and_reports_zero(self):
        frames, arrays = random_region_videos(np.random.default_rng(1))
        # every detection moved off its frame's ground truth
        missed = [(scores, np.where(np.isnan(overlaps), np.nan, 0.0)) for scores, overlaps in arrays]
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
        values = risk_map_raster(boxes, scores, grid_w, grid_h).values
        assert values.shape == (grid_h, grid_w)
        assert np.all((values >= 0.0) & (values <= 1.0))

    @settings(max_examples=200, deadline=None)
    @given(scored_boxes | dyadic_scored_boxes, st.sampled_from([1, 4, 8, 16]),
           st.integers(1, 16))
    def test_equals_the_per_box_reference_bit_for_bit(self, scored, grid_w, grid_h):
        boxes = stack_boxes(box for box, _ in scored)
        scores = np.array([score for _, score in scored])
        got = risk_map_raster(boxes, scores, grid_w, grid_h).values
        want = oracles.risk_map_raster(scored, grid_w, grid_h)
        assert got.tobytes() == want.tobytes()
