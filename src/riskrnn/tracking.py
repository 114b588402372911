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

from .geometry import Box, iou


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


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b)) / denom


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

    A frame with no proposals terminates every live track there.
    """
    if len(proposals_per_frame) == 0:
        raise ValueError("need at least one frame of proposals")
    first = proposals_per_frame[0]
    order = sorted(range(len(first)), key=lambda i: (-first[i].score, i))
    tracks = []
    for i in order[:top_init]:
        p = first[i]
        tracks.append(Track(start_frame=0, boxes=[p.box], feats=[p.feat],
                            scores=[p.score]))

    for frame in proposals_per_frame[1:]:
        if len(frame) == 0:
            break
        for track in tracks:
            cur_box = track.boxes[-1]
            cur_feat = track.feats[-1]
            ious = np.array([iou(cur_box, p.box) for p in frame])
            gate = np.argsort(-ious, kind="stable")[:top_iou]
            best = min(
                gate,
                key=lambda i: (-cosine_similarity(cur_feat, frame[i].feat),
                               -frame[i].score, i),
            )
            chosen = frame[best]
            track.boxes.append(chosen.box)
            track.feats.append(chosen.feat)
            track.scores.append(chosen.score)
    return tracks


def deduplicate_tracks(tracks, overlap_iou: float = 0.7) -> list[Track]:
    """Collapse tracks whose final boxes overlap above the threshold.

    Grouping is single-link on final-frame IoU; each group keeps the track
    with the highest mean object score (first one on a tie).
    """
    n = len(tracks)
    if n == 0:
        return []
    group = list(range(n))

    def find(i):
        while group[i] != i:
            group[i] = group[group[i]]
            i = group[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if iou(tracks[i].boxes[-1], tracks[j].boxes[-1]) > overlap_iou:
                group[find(j)] = find(i)

    best: dict[int, int] = {}
    for i, track in enumerate(tracks):
        root = find(i)
        if root not in best or track.mean_score > tracks[best[root]].mean_score:
            best[root] = i
    keep = sorted(best.values())
    return [tracks[i] for i in keep]


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
