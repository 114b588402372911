"""Online tracking-by-detection over per-frame proposal arrays.

Tracks start from the highest object-score proposals of the first frame. Each
step keeps the next frame's best-IoU candidates and extends with the one most
similar in feature space to the current box, so appearance carries a track
through cluttered geometry. Near-duplicate tracks (final boxes overlapping)
are collapsed onto the one with the best average object score.

The tracker runs V videos of one frame count and one proposal count at once:
every step is one IoU gate, one similarity matmul and one lexsort over a
leading video axis, and each video's result is the one it would get alone.
It reads the videos' proposal arrays as the dataset holds them, (T, M, ·)
per video, and stacks each frame's (V, M, ·) arrays when it reaches it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import iou


@dataclass
class Track:
    """One track over T frames: its (T, 4) boxes, (T, D) features and (T,)
    object scores."""

    boxes: np.ndarray
    feats: np.ndarray
    scores: np.ndarray

    @property
    def mean_score(self) -> float:
        return float(np.mean(self.scores))


def track_by_detection(boxes, feats, scores, top_init: int = 10, top_iou: int = 10):
    """Chain each video's proposals into tracks, all videos in one loop over
    frames.

    Args:
        boxes, feats, scores: the (V, T, M, 4) proposal boxes, (V, T, M, D)
            features and (V, T, M) object scores of V videos of one T and
            one M, each given as an array or as a sequence of V per-video
            arrays. Each frame's (V, M, ·) arrays are stacked when the loop
            reaches it.
        top_init: how many top object-score proposals of frame 0 seed tracks.
        top_iou: per step, how many best-IoU candidates the feature match
            chooses among. Candidate ties on similarity fall to the higher
            object score, then the lower proposal index.

    Returns the (V, T, K, 4) boxes, (V, T, K, D) features and (V, T, K)
    object scores of each video's K = min(top_init, M) tracks, ordered by
    their first frame's object score (stable on ties). Each frame's picks
    are written into these arrays, allocated at frame 0.
    """
    n_videos = len(boxes)
    n_frames = len(boxes[0]) if n_videos else 0
    if n_frames == 0:
        raise ValueError("need at least one video and one frame of proposals")
    rows = np.arange(n_videos)[:, None]
    for t in range(n_frames):
        frame_boxes, frame_feats, frame_scores = (np.stack([video[t] for video in part])
                                                  for part in (boxes, feats, scores))
        if t == 0:
            chosen = np.argsort(-frame_scores, axis=1, kind="stable")[:, :top_init]
            shape = (n_videos, n_frames, chosen.shape[1])
            tracks = (np.empty(shape + (4,)), np.empty(shape + frame_feats.shape[2:]),
                      np.empty(shape))
        else:
            gate = np.argsort(-iou(track_boxes[:, :, None], frame_boxes[:, None]), axis=2,
                              kind="stable")[:, :, :top_iou]
            norms = (np.linalg.norm(track_feats, axis=2)[:, :, None]
                     * np.linalg.norm(frame_feats, axis=2)[:, None])
            similarity = np.divide(track_feats @ frame_feats.transpose(0, 2, 1), norms,
                                   out=np.zeros_like(norms), where=norms != 0.0)
            order = np.lexsort((gate, -frame_scores[rows[:, :, None], gate],
                                -np.take_along_axis(similarity, gate, axis=2)), axis=2)
            chosen = np.take_along_axis(gate, order[:, :, :1], axis=2)[:, :, 0]
        track_boxes, track_feats = frame_boxes[rows, chosen], frame_feats[rows, chosen]
        for part, picked in zip(tracks, (track_boxes, track_feats, frame_scores[rows, chosen])):
            part[:, t] = picked
    return tracks


def deduplicate_tracks(tracks, overlap_iou: float = 0.7) -> list[Track]:
    """Collapse tracks whose final boxes overlap above the threshold.

    Grouping is single-link on final-frame IoU; each group keeps the track
    with the highest mean object score (first one on a tie).
    """
    if len(tracks) == 0:
        return []
    last = np.array([track.boxes[-1] for track in tracks])
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


def annotated_track(sample) -> Track:
    """A video's annotated agent track, its agent boxes and features, as a
    Track (object score 1 everywhere)."""
    return Track(sample.agent_box, sample.agent_feat, np.ones(sample.n_frames))
