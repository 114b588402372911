"""Online tracking-by-detection over per-frame proposal sets.

Tracks start from the highest object-score proposals of the first frame. Each
step keeps the next frame's best-IoU candidates and extends with the one most
similar in feature space to the current box, so appearance carries a track
through cluttered geometry. Near-duplicate tracks (final boxes overlapping)
are collapsed onto the one with the best average object score.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import iou, stack_boxes


@dataclass
class Track:
    """Chained per-frame (box, feature, object score) triples."""

    start_frame: int = 0
    boxes: list = field(default_factory=list)
    feats: list = field(default_factory=list)
    scores: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.boxes)

    @property
    def mean_score(self) -> float:
        return float(np.mean(self.scores)) if self.scores else 0.0


def track_by_detection(proposals_per_frame, top_init: int = 10,
                       top_iou: int = 10) -> list[Track]:
    """Chain proposals into tracks.

    Args:
        proposals_per_frame: per frame, a list of objects with .box, .feat,
            .score attributes.
        top_init: how many top object-score proposals of frame 0 seed tracks.
        top_iou: per step, how many best-IoU candidates the feature match
            chooses among. Candidate ties on similarity fall to the higher
            object score, then the lower proposal index.

    Each step compares every live track with every proposal of the next
    frame at once, as one IoU and one cosine-similarity matrix. A frame with
    no proposals terminates every live track there.
    """
    if len(proposals_per_frame) == 0:
        raise ValueError("need at least one frame of proposals")
    boxes, feats, scores = _frame_arrays(proposals_per_frame[0])
    chosen = np.argsort(-scores, kind="stable")[:top_init]
    picks = [chosen]
    for frame in proposals_per_frame[1:]:
        if len(frame) == 0 or len(chosen) == 0:
            break
        track_boxes, track_feats = boxes[chosen], feats[chosen]
        boxes, feats, scores = _frame_arrays(frame)
        gate = np.argsort(-iou(track_boxes[:, None], boxes[None]), axis=1,
                          kind="stable")[:, :top_iou]
        norms = np.linalg.norm(track_feats, axis=1)[:, None] * np.linalg.norm(feats, axis=1)
        similarity = np.divide(track_feats @ feats.T, norms, out=np.zeros_like(norms),
                               where=norms != 0.0)
        order = np.lexsort((gate, -scores[gate], -np.take_along_axis(similarity, gate, axis=1)),
                           axis=1)
        chosen = np.take_along_axis(gate, order[:, :1], axis=1)[:, 0]
        picks.append(chosen)

    tracks = []
    for track_picks in zip(*picks):
        props = [frame[i] for frame, i in zip(proposals_per_frame, track_picks)]
        tracks.append(Track(boxes=[p.box for p in props], feats=[p.feat for p in props],
                            scores=[p.score for p in props]))
    return tracks


def _frame_arrays(frame):
    """The (M, 4) boxes, (M, D) features and (M,) object scores of a frame's proposals."""
    return (stack_boxes(p.box for p in frame), np.array([p.feat for p in frame], dtype=np.float64),
            np.array([p.score for p in frame], dtype=np.float64))


def deduplicate_tracks(tracks, overlap_iou: float = 0.7) -> list[Track]:
    """Collapse tracks whose final boxes overlap above the threshold.

    Grouping is single-link on final-frame IoU; each group keeps the track
    with the highest mean object score (first one on a tie).
    """
    if len(tracks) == 0:
        return []
    last = stack_boxes(track.boxes[-1] for track in tracks)
    linked = iou(last[:, None], last[None]) > overlap_iou
    np.fill_diagonal(linked, True)
    # each track takes the lowest group label it links to until none
    # changes, which labels every group by its lowest index
    group, previous = np.arange(len(tracks)), None
    while not np.array_equal(group, previous):
        group, previous = np.where(linked, group, len(tracks)).min(axis=1), group

    best: dict[int, int] = {}
    for i, root in enumerate(group.tolist()):
        if root not in best or tracks[i].mean_score > tracks[best[root]].mean_score:
            best[root] = i
    return [tracks[i] for i in sorted(best.values())]


def select_training_track(gt_track: Track, td_tracks, rng) -> Track:
    """Uniform choice over the ground-truth track plus the detected ones."""
    pool = [gt_track] + list(td_tracks)
    return pool[int(rng.integers(0, len(pool)))]


def track_from_targets(sample) -> Track:
    """The annotated agent track as a Track (object score 1 everywhere)."""
    return Track(
        start_frame=0,
        boxes=list(sample.targets.agent_track),
        feats=[frame.agent_feat for frame in sample.frames],
        scores=[1.0] * sample.n_frames,
    )
