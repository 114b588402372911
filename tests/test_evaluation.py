import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrnn import evaluation
from riskrnn.evaluation import (ScoredItem, VideoPrediction, average_precision,
                                match_frame_detections, oracle_region_average_precision,
                                region_average_precision, tta_atta)
from riskrnn.geometry import Box, iou

import oracles

unit_floats = st.floats(0.0, 1.0, allow_nan=False)


class TestAveragePrecision:
    def test_perfect_ranking_of_nine_positives_is_exactly_one(self):
        items = [ScoredItem(1.0 - 0.05 * i, True) for i in range(9)]
        items += [ScoredItem(0.1 - 0.01 * i, False) for i in range(5)]
        assert average_precision(items) == 1.0

    def test_recall_denominator_below_the_positive_items_is_rejected(self):
        items = [ScoredItem(0.5, True), ScoredItem(0.4, True)]
        with pytest.raises(ValueError, match="n_positive=1 is below the 2 positive items"):
            average_precision(items, n_positive=1)
        assert average_precision(items, n_positive=4) == 0.5

    @settings(deadline=None)
    @given(st.lists(st.tuples(unit_floats, st.booleans()), min_size=1, max_size=60)
           .filter(lambda pairs: any(positive for _, positive in pairs)))
    def test_lies_in_the_unit_interval(self, pairs):
        ap = average_precision([ScoredItem(score, positive) for score, positive in pairs])
        assert 0.0 < ap <= 1.0


@st.composite
def labelled_videos(draw):
    n_frames = draw(st.integers(1, 12))
    videos = []
    for _ in range(draw(st.integers(1, 15))):
        probs = np.array(draw(st.lists(unit_floats, min_size=n_frames, max_size=n_frames)))
        positive = draw(st.booleans())
        t_accident = draw(st.integers(0, n_frames - 1)) if positive else None
        videos.append(VideoPrediction(probs, positive, t_accident))
    if not any(v.positive for v in videos):
        videos[0] = VideoPrediction(videos[0].probs, True, n_frames - 1)
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


# grid boxes make equal IoUs, and so ties between ground-truth boxes, common
grid_boxes = st.builds(Box, st.sampled_from([0.25, 0.375, 0.5, 0.625]),
                       st.sampled_from([0.25, 0.375, 0.5]),
                       st.sampled_from([0.125, 0.25, 0.5]), st.sampled_from([0.25, 0.5]))
detections = st.lists(st.tuples(grid_boxes, st.sampled_from([0.2, 0.5, 0.8])), max_size=8)


class TestMatchFrameDetections:
    @settings(max_examples=300, deadline=None)
    @given(detections, st.lists(grid_boxes, max_size=5))
    def test_claims_each_ground_truth_once_as_the_scalar_reference(self, dets, gt):
        got = match_frame_detections(dets, gt)
        assert sum(hit for _, hit in got) <= len(gt)
        assert got == oracles.match_frame_detections(dets, gt)

    def test_at_equal_iou_the_later_ground_truth_is_claimed(self):
        # dyadic boxes make both overlaps exactly 0.6; the weaker detection
        # overlaps only the first ground truth, which is left to it
        first, second = Box(0.4375, 0.5, 0.25, 0.25), Box(0.5625, 0.5, 0.25, 0.25)
        strong = Box(0.5, 0.5, 0.25, 0.25)
        assert iou(strong.as_array(), first.as_array()) == iou(strong.as_array(),
                                                               second.as_array()) == 0.6
        assert iou(first.as_array(), second.as_array()) < 0.4
        got = match_frame_detections([(first, 0.8), (strong, 0.9)], [first, second])
        assert got == [(0.8, True), (0.9, True)]


def random_region_frames(rng, n_videos=4, n_frames=5):
    """Videos of (detections, ground truth) frames; about half the ground
    truth is a jittered copy of a detection so some overlaps pass 0.4."""
    def box():
        return Box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.3, 2))

    videos = []
    for _ in range(n_videos):
        video = []
        for _ in range(n_frames):
            dets = [(box(), float(rng.uniform())) for _ in range(rng.integers(1, 7))]
            gt = [Box(b.cx + rng.normal(0, 0.02), b.cy, b.w, b.h) if rng.uniform() < 0.5
                  else box() for b, _ in dets[:rng.integers(0, 3)]]
            video.append((dets, gt))
        videos.append(video)
    return videos


class TestOracleRegionAp:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("per_video", [False, True])
    def test_equals_the_scalar_reference(self, seed, per_video):
        frames = random_region_frames(np.random.default_rng(seed))
        got = oracle_region_average_precision(frames, per_video=per_video)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "match_frame_detections", oracles.match_frame_detections)
            want = region_average_precision(oracles.oracle_rescore(frames), per_video=per_video)
        assert 0.0 < got == want
