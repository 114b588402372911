"""Test-time protocol: detected tracks only, per-frame max over tracks for
the video-level anticipation score, and region riskiness taken from whichever
track is most alarmed at each frame.

The split is tracked once, before any forward pass (``detected_tracks``).
Then all detected tracks of a video run through the model as one forward
pass, each track a sequence over the video's regions, its (frame, track)
columns frame-major, and each frame reduces over its K columns.
Region AP and its oracle bound share one IoU matrix per video, of its
regions with its risky boxes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .evaluation import (VideoPrediction, average_precision,
                         oracle_region_average_precision,
                         region_average_precision, region_overlaps, tta_atta,
                         video_level_scores)
from .model import RiskModel
from .training import detected_tracks, track_inputs, video_regions


@dataclass
class VideoEvalResult:
    video_id: str
    positive: bool
    t_accident: int                    # -1 for a video without an accident
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


def eval_video(model: RiskModel, sample, tracks, run_cfg: RunConfig) -> VideoEvalResult:
    """Run every candidate track of the video, its ``detected_tracks``, through
    the model in one pass and reduce per frame."""
    n_frames = sample.n_frames
    out = model.forward_video(track_inputs(tracks, [video_regions(sample)] * len(tracks)))
    y, s = (out.y_fused, out.s_fused) if run_cfg.use_fused else (out.y, out.s)
    probs = y[:, 1].reshape(n_frames, len(tracks))
    region_scores = s.reshape(n_frames, len(tracks), -1)

    return VideoEvalResult(
        video_id=sample.video_id,
        positive=sample.positive,
        t_accident=sample.t_accident,
        frame_probs=probs.max(axis=1),
        region_boxes=sample.region_box,
        region_scores=region_scores[np.arange(n_frames), probs.argmax(axis=1)],
        n_tracks=len(tracks),
    )


def evaluate_model(model: RiskModel, samples, run_cfg: RunConfig) -> EvalSummary:
    """Score the split; one without a positive video raises ValueError
    before any tracking or forward pass."""
    if not any(sample.positive for sample in samples):
        raise ValueError(f"no positive video among the {len(samples)} test videos; "
                         f"anticipation AP, ATTA and region AP need at least one")
    results = [eval_video(model, sample, tracks, run_cfg)
               for sample, tracks in zip(samples, detected_tracks(samples, run_cfg))]

    vpreds = [VideoPrediction(r.frame_probs, r.positive, r.t_accident)
              for r in results]
    anticipation_map = average_precision(video_level_scores(vpreds),
                                         [r.positive for r in results])
    curve_rows, atta_frames = tta_atta(vpreds)

    region_videos = [(result.region_scores, region_overlaps(sample.region_box, sample.risky_box))
                     for sample, result in zip(samples, results)]
    region_map = region_average_precision(region_videos,
                                          per_video=run_cfg.per_video_region_ap)
    oracle_map = oracle_region_average_precision(
        region_videos, per_video=run_cfg.per_video_region_ap)

    return EvalSummary(
        anticipation_map=float(anticipation_map),
        atta_frames=float(atta_frames),
        atta_seconds=float(atta_frames / run_cfg.fps),
        region_map=float(region_map),
        oracle_region_map=float(oracle_map),
        curve_rows=curve_rows,
        videos=results,
    )
