"""Test-time protocol: detected tracks only, per-frame max over tracks for
the video-level anticipation score, and region riskiness taken from whichever
track is most alarmed at each frame.

The split is tracked once, before any forward pass (``detected_tracks``).
Then all detected tracks of a video run through the model as one forward
pass, each track a sequence over the video's regions, its (frame, track)
columns frame-major, and each frame reduces over its K columns.
The metrics then read the split's arrays: its (V, T) frame scores, and its
(V, T, N) region scores with the one (V, T, N, R) IoU matrix of its regions
with its risky boxes, which region AP and its oracle bound share.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
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
        return {
            "anticipation_map": self.anticipation_map,
            "atta_frames": self.atta_frames,
            "atta_seconds": self.atta_seconds,
            "region_map": self.region_map,
            "oracle_region_map": self.oracle_region_map,
            "n_videos": len(self.videos),
            "n_positive": sum(1 for v in self.videos if v.positive),
        }


def eval_video(model: RiskModel, sample, tracks) -> VideoEvalResult:
    """Run every candidate track of the video, its ``detected_tracks`` (K, T, 4)
    boxes and (K, T, D) features, through the model in one pass and reduce
    per frame."""
    boxes, feats = tracks
    n_frames = sample.n_frames
    out = model.forward_video(track_inputs(boxes, feats, [sample] * len(boxes)))
    probs = out.y[:, 1].reshape(n_frames, len(boxes))
    region_scores = out.s.reshape(n_frames, len(boxes), -1)

    return VideoEvalResult(
        video_id=sample.video_id,
        positive=sample.positive,
        frame_probs=probs.max(axis=1),
        region_boxes=sample.region_box,
        region_scores=region_scores[np.arange(n_frames), probs.argmax(axis=1)],
        n_tracks=len(boxes),
    )


def evaluate_model(model: RiskModel, samples, run_cfg: RunConfig) -> EvalSummary:
    """Score the split; one without a positive video raises ValueError
    before any tracking or forward pass."""
    if not any(sample.positive for sample in samples):
        raise ValueError(f"no positive video among the {len(samples)} test videos; "
                         f"anticipation AP, ATTA and region AP need at least one")
    results = [eval_video(model, sample, tracks)
               for sample, tracks in zip(samples, detected_tracks(samples, run_cfg))]

    probs = np.stack([result.frame_probs for result in results])
    positive = [sample.positive for sample in samples]
    anticipation_map = average_precision(probs.max(axis=1), positive)
    curve_rows, atta_frames = tta_atta(probs, positive, [sample.t_accident for sample in samples],
                                       [sample.video_id for sample in samples])

    overlaps = region_overlaps(np.stack([sample.region_box for sample in samples]),
                               np.stack([sample.risky_box for sample in samples]))
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
