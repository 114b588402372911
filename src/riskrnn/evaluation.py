"""Metrics: average precision, video-level anticipation scores, time-to-accident
curves, per-frame region detection AP with its oracle bound, and risk-map
rasterization, plus the report/CSV/PGM writers.

The metrics take arrays: AP a score and a positive flag per item; region AP
and its oracle, per video, the (T, N) detection scores and one (T, N, R) IoU
matrix with the ground truth (``region_overlaps``), whose NaN columns pad
frames with fewer ground-truth boxes and count as none.

Tie conventions are pessimistic and deterministic: at equal scores negatives
rank before positives, and equal-scored detections keep their input order.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import iou

REPORT_HEADER = "RISKRNN-REPORT v1"
REGION_IOU_THRESHOLD = 0.4


@dataclass
class VideoPrediction:
    """Per-frame anticipation probabilities for one video (already reduced
    over candidate tracks), with its label and accident frame."""

    probs: np.ndarray
    positive: bool
    t_accident: int | None = None


@dataclass
class RiskMap:
    width: int
    height: int
    values: np.ndarray  # (height, width), each cell in [0, 1]


def average_precision(scores, positive, n_positive: int | None = None) -> float:
    """Area under the all-point precision-recall curve of items given as
    ``scores`` and boolean ``positive`` flags, two arrays of one length.

    Items are ranked by descending score with positives after negatives on
    ties. ``n_positive`` overrides the recall denominator (detection-style
    evaluation counts ground-truth boxes, some of which may go unmatched).
    Precisions are summed exactly and divided once, so a perfect ranking
    scores exactly 1.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    positives = int(np.count_nonzero(positive))
    if n_positive is None:
        n_positive = positives
    if n_positive < 1:
        raise ValueError("average precision is undefined without positives")
    if n_positive < positives:
        raise ValueError(f"n_positive={n_positive} is below the {positives} positive items")
    ranks = np.flatnonzero(positive[np.lexsort((positive, -scores))]) + 1
    return math.fsum((np.arange(1, positives + 1) / ranks).tolist()) / n_positive


def video_level_scores(videos) -> np.ndarray:
    """The (V,) video scores: each video's max per-frame probability."""
    return np.array([v.probs.max() for v in videos], dtype=np.float64)


def tta_atta(videos):
    """Sweep thresholds over the distinct video scores and summarize lead time.

    At each operating point (taken just below a distinct score, so crossings
    are inclusive) we compute precision/recall over video-level scores and,
    for the recalled positives, the mean time to accident T - t_hat, floored
    at zero, where t_hat is the first frame reaching the threshold. The
    scalar summary integrates mean TTA over the recall axis by recall
    increments, summed exactly as newly recalled positives times mean TTA
    over the positive count, so it never exceeds the largest accident frame.
    Returns (rows, atta) where each row is
    (threshold, precision, recall, mean_tta).
    """
    positives = [v for v in videos if v.positive]
    if not positives:
        raise ValueError("time-to-accident needs at least one positive video")
    scores = video_level_scores(videos)
    thresholds = sorted(set(scores.tolist()), reverse=True)
    # each positive's first crossing of every threshold is where its running
    # maximum first reaches it; above its peak, where it is not recalled, the
    # search gives its length, which is never read
    crossings = np.array([np.searchsorted(np.maximum.accumulate(v.probs), thresholds,
                                          side="left") for v in positives])
    ttas = np.maximum(0.0, np.array([v.t_accident for v in positives])[:, None] - crossings)
    recalled = video_level_scores(positives)[:, None] >= np.array(thresholds)
    predicted = len(scores) - np.searchsorted(np.sort(scores), thresholds, side="left")
    n_pos = len(positives)
    rows = []
    terms = []
    prev_recalled = 0
    for j, threshold in enumerate(thresholds):
        n_recalled = int(np.count_nonzero(recalled[:, j]))
        precision = n_recalled / int(predicted[j])
        mean_tta = float(np.mean(ttas[recalled[:, j], j])) if n_recalled else 0.0
        terms.append((n_recalled - prev_recalled) * mean_tta)
        rows.append((threshold, precision, n_recalled / n_pos, mean_tta))
        prev_recalled = n_recalled
    return rows, math.fsum(terms) / n_pos


# ---------------------------------------------------------------------------
# risky-region detection AP

def region_overlaps(boxes: np.ndarray, gt_boxes: np.ndarray) -> np.ndarray:
    """The (T, N, R) IoU of a video's (T, N, 4) detections with its (T, R, 4)
    ground truth; NaN padding rows give NaN columns."""
    return iou(boxes[:, :, None], gt_boxes[:, None])


def match_frame_detections(scores, overlaps, iou_threshold=REGION_IOU_THRESHOLD) -> np.ndarray:
    """Greedy matching within one frame of N detections and R ground truths.

    Takes the (N,) detection scores and their (N, R) IoU matrix. Detections
    are visited in descending score order (ties keep input order); each
    claims the best still-unmatched ground truth overlapping at or above the
    threshold. Returns the (N,) matched flags in input order.
    """
    over = overlaps >= iou_threshold
    matched = np.zeros(len(scores), dtype=bool)
    open_gt = np.ones(overlaps.shape[1], dtype=bool)
    order = np.argsort(-scores, kind="stable")
    for i in order[over.any(axis=1)[order]]:
        # the best open ground truth; of equal ones, the last
        candidates = np.flatnonzero(open_gt & over[i])[::-1]
        if candidates.size:
            open_gt[candidates[np.argmax(overlaps[i, candidates])]] = False
            matched[i] = True
    return matched


def _ground_truth_count(overlaps: np.ndarray) -> int:
    """The columns of a (T, N, R) IoU matrix that are not NaN padding."""
    return int(np.count_nonzero(~np.isnan(overlaps).all(axis=1)))


def region_average_precision(videos, per_video: bool = False):
    """Detection AP over videos given as (scores, overlaps) pairs: the
    (T, N) detection scores and their (T, N, R) IoU matrix.

    Detections are matched frame by frame, pooled across every frame of
    every video, and the recall axis counts all ground-truth boxes. With
    ``per_video`` the AP is instead averaged over videos that have any
    ground truth.
    """
    def pooled_ap(video_list):
        scores, hits = [], []
        n_gt = 0
        for video_scores, overlaps in video_list:
            n_gt += _ground_truth_count(overlaps)
            scores.append(np.ravel(video_scores))
            # a frame where no detection reaches a ground truth matches none
            video_hits = np.zeros(video_scores.shape, dtype=bool)
            for t in np.flatnonzero((overlaps >= REGION_IOU_THRESHOLD).any(axis=(1, 2))):
                video_hits[t] = match_frame_detections(video_scores[t], overlaps[t])
            hits.append(video_hits.ravel())
        if n_gt == 0:
            raise ValueError("region AP needs at least one ground-truth box")
        return average_precision(np.concatenate(scores), np.concatenate(hits), n_positive=n_gt)

    if not per_video:
        return pooled_ap(videos)
    aps = [pooled_ap([video]) for video in videos if _ground_truth_count(video[1])]
    if not aps:
        raise ValueError("region AP needs at least one ground-truth box")
    return float(np.mean(aps))


def oracle_region_average_precision(videos, per_video: bool = False):
    """Upper bound: every detection overlapping ground truth scores 1, else 0.
    Takes the (scores, overlaps) pairs of ``region_average_precision`` and
    rescores from the same overlaps.

    Degenerate inputs where no detection overlaps any ground truth report 0
    with a warning instead of failing.
    """
    rescored = [((overlaps >= REGION_IOU_THRESHOLD).any(axis=2).astype(np.float64), overlaps)
                for _, overlaps in videos]
    if not any(scores.any() for scores, _ in rescored):
        warnings.warn("no proposal overlaps any ground truth; oracle region AP reported as 0")
        return 0.0
    return region_average_precision(rescored, per_video=per_video)


# ---------------------------------------------------------------------------
# risk maps

def risk_map_raster(boxes, scores, grid_w: int, grid_h: int) -> RiskMap:
    """Mean risk of the (N, 4) boxes covering each cell center, given their
    (N,) scores; 0 where uncovered."""
    if grid_w < 1 or grid_h < 1:
        raise ValueError(f"grid dims must be >= 1, got {grid_w}x{grid_h}")
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    half = 0.5 * boxes[:, 2:]
    lo, hi = boxes[:, :2] - half, boxes[:, :2] + half
    xs = (np.arange(grid_w) + 0.5) / grid_w
    ys = (np.arange(grid_h) + 0.5) / grid_h
    cover_x = (xs >= lo[:, :1]) & (xs <= hi[:, :1])
    cover_y = (ys >= lo[:, 1:]) & (ys <= hi[:, 1:])
    mask = cover_y[:, :, None] & cover_x[:, None, :]
    total = (mask * np.asarray(scores)[:, None, None]).sum(axis=0)
    count = mask.sum(axis=0)
    values = np.divide(total, count, out=np.zeros_like(total), where=count > 0)
    return RiskMap(grid_w, grid_h, np.clip(values, 0.0, 1.0))


def write_pgm(path, risk_map: RiskMap) -> None:
    """Plain-text PGM (P2, maxval 255), cell = round(255 * risk)."""
    pixels = np.rint(risk_map.values * 255.0).astype(int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{risk_map.width} {risk_map.height}\n255\n")
        for row in pixels:
            fh.write(" ".join(str(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# report and curve files

def _fmt(value) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"refusing to write non-finite metric {value!r}")
        return f"{value:.17g}"
    return str(value)


def write_report(path, sections: dict) -> None:
    """Machine-parseable metrics report: one [variant] section of key = value
    lines per evaluated model."""
    lines = [REPORT_HEADER]
    for variant, fields in sections.items():
        lines.append(f"[{variant}]")
        for key, value in fields.items():
            lines.append(f"{key} = {_fmt(value)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_report(path) -> dict:
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != REPORT_HEADER:
        raise ValueError(f"{path}: not a {REPORT_HEADER} file")
    sections: dict = {}
    current = None
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = {}
        elif " = " in line and current is not None:
            key, _, value = line.partition(" = ")
            sections[current][key.strip()] = value.strip()
    return sections


def write_curve_csv(path, rows) -> None:
    """threshold/precision/recall/mean_tta rows from the TTA sweep."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "precision", "recall", "mean_tta"])
        for threshold, precision, recall, mean_tta in rows:
            writer.writerow([_fmt(float(threshold)), _fmt(float(precision)),
                             _fmt(float(recall)), _fmt(float(mean_tta))])
