"""Online tracking-by-detection over per-frame proposal arrays.

Tracks start from the highest object-score proposals of the first frame. Each
step keeps the next frame's best-IoU candidates and extends with the one most
similar in feature space to the current box, so appearance carries a track
through cluttered geometry. Near-duplicate tracks (final boxes overlapping)
are collapsed onto the one with the best average object score.

The tracker runs V videos at once, and they share one shape as a split's
videos do: one frame count, proposal count and feature size. Every step is
one IoU gate, one similarity matmul and one pick over a leading video
axis, and each video's result is the one it would get alone. The pick
takes, among a track's gate, the candidates of the highest similarity,
then among those the highest object score, then the lowest proposal
index: two max reductions and one min over the gate, no sort, which holds
for the finite features and scores a dataset holds. It reads the
videos' proposal arrays as the dataset holds them, (T, M, ·) per video, and
stacks each frame's (V, M, ·) arrays when it reaches it. Tracks stay arrays
throughout: a video's K tracks are its (K, T, ·) row of the tracker's
output, and deduplication returns the indices of the tracks it keeps.
"""
from __future__ import annotations

import numpy as np

from .geometry import iou


def track_by_detection(boxes, feats, scores, top_init: int, top_iou: int):
    """Chain each video's proposals into tracks, all videos in one loop over
    frames.

    Args:
        boxes, feats, scores: the (V, T, M, 4) proposal boxes, (V, T, M, D)
            features and (V, T, M) object scores of V videos that share
            one T, M and D, as a split's videos do, each given as an array
            or as a sequence of V per-video arrays. Each frame's (V, M, ·)
            arrays are stacked when the loop reaches it.
        top_init: how many top object-score proposals of frame 0 seed tracks.
        top_iou: per step, how many best-IoU candidates the feature match
            chooses among. Candidate ties on similarity fall to the higher
            object score, then the lower proposal index.

    Returns the (V, K, T, 4) boxes, (V, K, T, D) features and (V, K, T)
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
            shape = (n_videos, chosen.shape[1], n_frames)
            tracks = (np.empty(shape + (4,)), np.empty(shape + frame_feats.shape[2:]),
                      np.empty(shape))
        else:
            gate = np.argsort(-iou(track_boxes[:, :, None], frame_boxes[:, None]), axis=2,
                              kind="stable")[:, :, :top_iou]
            norms = (np.linalg.norm(track_feats, axis=2)[:, :, None]
                     * np.linalg.norm(frame_feats, axis=2)[:, None])
            similarity = np.divide(track_feats @ frame_feats.transpose(0, 2, 1), norms,
                                   out=np.zeros_like(norms), where=norms != 0.0)
            # of the gate: the most similar candidates, which keep their
            # scores (the rest -inf); of these the top scored, which keep
            # their proposal index (the rest M); of these the lowest index
            gate_similarity = np.take_along_axis(similarity, gate, axis=2)
            gate_scores = np.where(gate_similarity == gate_similarity.max(axis=2, keepdims=True),
                                   frame_scores[rows[:, :, None], gate], -np.inf)
            chosen = np.where(gate_scores == gate_scores.max(axis=2, keepdims=True), gate,
                              frame_scores.shape[1]).min(axis=2)
        track_boxes, track_feats = frame_boxes[rows, chosen], frame_feats[rows, chosen]
        for part, picked in zip(tracks, (track_boxes, track_feats, frame_scores[rows, chosen])):
            part[:, :, t] = picked
    return tracks


def deduplicate_tracks(boxes, scores, dedup_iou: float) -> np.ndarray:
    """Collapse tracks whose final boxes overlap above ``dedup_iou``.

    ``boxes`` and ``scores`` are the (K, T, 4) boxes and (K, T) object
    scores of K tracks. Grouping is single-link on final-frame IoU; each
    group keeps the track with the highest mean object score (first one on a
    tie). Returns the kept tracks' indices, ascending.
    """
    if len(boxes) == 0:
        return np.empty(0, dtype=np.intp)
    last = np.asarray(boxes)[:, -1]
    linked = iou(last[:, None], last[None]) > dedup_iou
    np.fill_diagonal(linked, True)
    # each track takes the lowest group label it links to until none
    # changes, which labels every group by its lowest index
    group, previous = np.arange(len(boxes)), None
    while not np.array_equal(group, previous):
        group, previous = np.where(linked, group, len(boxes)).min(axis=1), group

    means = np.asarray(scores).mean(axis=1).tolist()
    best: dict[int, int] = {}
    for i, root in enumerate(group.tolist()):
        if root not in best or means[i] > means[best[root]]:
            best[root] = i
    return np.array(sorted(best.values()), dtype=np.intp)
