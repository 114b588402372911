import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrnn.evaluation import ScoredItem, VideoPrediction, average_precision, tta_atta

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
