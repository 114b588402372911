"""Test-time protocol: detected tracks only, per-frame max over tracks for
the video-level anticipation score, and region riskiness taken from whichever
track is most alarmed at each frame.

The split is tracked once, before any forward pass, into one row table
(``detected_tracks``): each track's boxes, features and video, the rows
sorted by video. Then ``eval_video`` runs the videos ``batch_size`` at a
time, as validation does, on their rows of the table, by the rule of every
pass: its rows' ``video_of`` takes each track's regions from the batch's
arrays into the model's columns (``model.take_columns``), so all its
tracks run as one forward pass, each over its own video's regions, and
each frame of a video reduces over its rows' columns. The CLI's
single-video commands run a batch of one. The metrics then read its
results' (V, T) frame scores and (V, T, N) region scores, with the one
(V, T, N, R) IoU matrix of the split's regions with its risky boxes, which
region AP and its oracle bound share, each matching every frame in one call.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .config import RunConfig
from .data import Split
from .evaluation import (average_precision, oracle_region_average_precision,
                         region_average_precision, region_overlaps, tta_atta)
from .model import RiskModel
from .training import detected_tracks, track_inputs


@dataclass
class VideoEvalResult:
    video_id: str
    positive: bool
    frame_probs: np.ndarray            # (T,): per frame, max over candidate tracks
    region_boxes: np.ndarray           # (T, N, 4)
    region_scores: np.ndarray          # (T, N): per frame, the most alarmed track's
    n_tracks: int

    @property
    def frame_regions(self) -> list:
        """Per frame, its (N, 4) region boxes and (N,) region scores."""
        return list(zip(self.region_boxes, self.region_scores))


@dataclass
class EvalSummary:
    anticipation_map: float
    atta_frames: float
    atta_seconds: float
    region_map: float
    oracle_region_map: float
    curve_rows: list
    videos: list

    def report_fields(self) -> dict:
        """Each float field, in field order, then the video and positive counts."""
        metrics = {f.name: getattr(self, f.name) for f in fields(self) if f.type == "float"}
        return {**metrics, "n_videos": len(self.videos),
                "n_positive": sum(1 for v in self.videos if v.positive)}


def eval_video(model: RiskModel, split: Split, tracks) -> list[VideoEvalResult]:
    """Run every row of ``tracks``, the split's ``detected_tracks`` table,
    through the model in one pass, and reduce each video's rows per frame.
    Returns one result per video, in order."""
    boxes, feats, video_of = tracks
    out = model.forward_video(track_inputs(boxes, feats, split, video_of))
    n_frames, n_tracks = split.agent_box.shape[1], len(video_of)
    # column t * S + s is row s at frame t, each video's rows in turn
    starts = np.searchsorted(video_of, np.arange(1, len(split)))
    probs = np.split(out.y[:, 1].reshape(n_frames, n_tracks), starts, axis=1)
    region_scores = np.split(out.s.reshape(n_frames, n_tracks, -1), starts, axis=1)
    frames, ids, positive = np.arange(n_frames), split.video_id.tolist(), split.positive.tolist()
    return [VideoEvalResult(video_id=ids[v],
                            positive=positive[v],
                            frame_probs=video_probs.max(axis=1),
                            region_boxes=split.region_box[v],
                            region_scores=video_scores[frames, video_probs.argmax(axis=1)],
                            n_tracks=video_probs.shape[1])
            for v, (video_probs, video_scores) in enumerate(zip(probs, region_scores))]


def check_scorable(split: Split) -> None:
    """Raise ValueError if the split has no positive video, which
    anticipation AP, ATTA and region AP all need."""
    if not split.positive.any():
        raise ValueError(f"no positive video among the {len(split)} test videos; "
                         f"anticipation AP, ATTA and region AP need at least one")


def evaluate_model(model: RiskModel, split: Split, run_cfg: RunConfig, *,
                   tracks=None) -> EvalSummary:
    """Score the split, ``run_cfg.batch_size`` videos per forward pass.

    ``tracks`` is the split's ``detected_tracks`` table under ``run_cfg``,
    which depends on no model, so a caller that scores several models on one
    split tracks it once and passes the table to each call; with none given
    the split is tracked here. A split without a positive video raises
    ValueError before any tracking or forward pass."""
    check_scorable(split)
    boxes, feats, video_of = detected_tracks(split, run_cfg) if tracks is None else tracks
    results = []
    for start in range(0, len(split), run_cfg.batch_size):
        stop = start + run_cfg.batch_size
        rows = slice(*np.searchsorted(video_of, [start, stop]))
        results.extend(eval_video(model, split[start:stop],
                                  (boxes[rows], feats[rows], video_of[rows] - start)))

    probs = np.stack([result.frame_probs for result in results])
    anticipation_map = average_precision(probs.max(axis=1), split.positive)
    curve_rows, atta_frames = tta_atta(probs, split.positive, split.t_accident, split.video_id)

    overlaps = region_overlaps(split.region_box, split.risky_box)
    region_map = region_average_precision(np.stack([result.region_scores for result in results]),
                                          overlaps)
    oracle_map = oracle_region_average_precision(overlaps)

    return EvalSummary(
        anticipation_map=float(anticipation_map),
        atta_frames=float(atta_frames),
        atta_seconds=float(atta_frames / run_cfg.fps),
        region_map=float(region_map),
        oracle_region_map=float(oracle_map),
        curve_rows=curve_rows,
        videos=results,
    )
