"""Metrics: average precision, video-level anticipation scores, time-to-accident
curves, per-frame region detection AP with its oracle bound, and risk-map
rasterization, plus the report/CSV/PGM writers.

Tie conventions are pessimistic and deterministic: at equal scores negatives
rank before positives, and equal-scored detections keep their input order.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import iou, stack_boxes

REPORT_HEADER = "RISKRNN-REPORT v1"
REGION_IOU_THRESHOLD = 0.4


@dataclass
class ScoredItem:
    score: float
    is_positive: bool
    tta_value: float | None = None


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


def average_precision(items, n_positive: int | None = None) -> float:
    """Area under the all-point precision-recall curve.

    Items are ranked by descending score with positives after negatives on
    ties. ``n_positive`` overrides the recall denominator (detection-style
    evaluation counts ground-truth boxes, some of which may go unmatched).
    Precisions are summed exactly and divided once, so a perfect ranking
    scores exactly 1.
    """
    positives = sum(1 for it in items if it.is_positive)
    if n_positive is None:
        n_positive = positives
    if n_positive < 1:
        raise ValueError("average precision is undefined without positives")
    if n_positive < positives:
        raise ValueError(f"n_positive={n_positive} is below the {positives} positive items")
    ranked = sorted(items, key=lambda it: (-it.score, it.is_positive))
    precisions = []
    for rank, item in enumerate(ranked, start=1):
        if item.is_positive:
            precisions.append((len(precisions) + 1) / rank)
    return math.fsum(precisions) / n_positive


def video_level_scores(videos) -> list[ScoredItem]:
    """One item per video: the max per-frame probability as the video score."""
    return [ScoredItem(float(v.probs.max()), v.positive) for v in videos]


def first_crossing(probs: np.ndarray, threshold: float) -> int | None:
    """First frame whose probability reaches the threshold, else None."""
    hits = np.nonzero(probs >= threshold)[0]
    return int(hits[0]) if hits.shape[0] else None


def tta_atta(videos):
    """Sweep thresholds over the distinct video scores and summarize lead time.

    At each operating point (taken just below a distinct score, so crossings
    are inclusive) we compute precision/recall over video-level scores and,
    for the recalled positives, the mean time to accident T - t_hat, floored
    at zero. The scalar summary integrates mean TTA over the recall axis by
    recall increments, summed exactly as newly recalled positives times mean
    TTA over the positive count, so it never exceeds the largest accident
    frame. Returns (rows, atta) where each row is
    (threshold, precision, recall, mean_tta).
    """
    positives = [v for v in videos if v.positive]
    if not positives:
        raise ValueError("time-to-accident needs at least one positive video")
    scores = np.array([float(v.probs.max()) for v in videos])
    n_pos = len(positives)
    rows = []
    terms = []
    prev_recalled = 0
    for threshold in sorted(set(scores.tolist()), reverse=True):
        predicted = int(np.sum(scores >= threshold))
        recalled = [v for v in positives if float(v.probs.max()) >= threshold]
        recall = len(recalled) / n_pos
        precision = len(recalled) / predicted if predicted else 0.0
        ttas = []
        for v in recalled:
            t_hat = first_crossing(v.probs, threshold)
            ttas.append(max(0.0, float(v.t_accident - t_hat)))
        mean_tta = float(np.mean(ttas)) if ttas else 0.0
        terms.append((len(recalled) - prev_recalled) * mean_tta)
        rows.append((threshold, precision, recall, mean_tta))
        prev_recalled = len(recalled)
    return rows, math.fsum(terms) / n_pos


# ---------------------------------------------------------------------------
# risky-region detection AP

def match_frame_detections(detections, gt_boxes, iou_threshold=REGION_IOU_THRESHOLD):
    """Greedy matching within one frame.

    Detections are (box, score) pairs, visited in descending score order
    (ties keep input order); each claims the best still-unmatched ground
    truth overlapping at or above the threshold. Returns (score, matched)
    pairs in input order.
    """
    matched = [False] * len(detections)
    overlaps = _overlaps(detections, gt_boxes)
    over = overlaps >= iou_threshold
    can_match = over.any(axis=1).tolist()
    open_gt = np.ones(len(gt_boxes), dtype=bool)
    for i in sorted(range(len(detections)), key=lambda i: (-detections[i][1], i)):
        if not can_match[i]:
            continue
        # the best open ground truth; of equal ones, the last
        candidates = np.flatnonzero(open_gt & over[i])[::-1]
        if candidates.size:
            open_gt[candidates[np.argmax(overlaps[i, candidates])]] = False
            matched[i] = True
    return [(float(score), matched[i]) for i, (_, score) in enumerate(detections)]


def _overlaps(detections, gt_boxes) -> np.ndarray:
    """(detections, ground truth) IoU matrix of one frame."""
    if len(gt_boxes) == 0:  # every frame of a negative video
        return np.zeros((len(detections), 0))
    return iou(stack_boxes(box for box, _ in detections)[:, None], stack_boxes(gt_boxes)[None])


def region_average_precision(frames, per_video: bool = False):
    """Detection AP over per-frame (detections, ground-truth boxes) pairs.

    ``frames`` is a list of videos, each a list of (detections, gt_boxes)
    frame pairs. Pairs are pooled across every frame of every video and the
    recall axis counts all ground-truth boxes. With ``per_video`` the AP is
    instead averaged over videos that have any ground truth.
    """
    def pooled_ap(video_list):
        items = []
        n_gt = 0
        for video in video_list:
            for detections, gt_boxes in video:
                n_gt += len(gt_boxes)
                for score, hit in match_frame_detections(detections, gt_boxes):
                    items.append(ScoredItem(score, hit))
        if n_gt == 0:
            raise ValueError("region AP needs at least one ground-truth box")
        return average_precision(items, n_positive=n_gt)

    if not per_video:
        return pooled_ap(frames)
    aps = []
    for video in frames:
        if any(len(gt) for _, gt in video):
            aps.append(pooled_ap([video]))
    if not aps:
        raise ValueError("region AP needs at least one ground-truth box")
    return float(np.mean(aps))


def oracle_region_average_precision(frames, per_video: bool = False):
    """Upper bound: every detection overlapping ground truth scores 1, else 0.

    Degenerate inputs where no detection overlaps any ground truth report 0
    with a warning instead of failing.
    """
    rescored = []
    for video in frames:
        new_video = []
        for detections, gt_boxes in video:
            hits = (_overlaps(detections, gt_boxes) >= REGION_IOU_THRESHOLD).any(axis=1)
            new_dets = [(box, float(hit)) for (box, _), hit in zip(detections, hits)]
            new_video.append((new_dets, gt_boxes))
        rescored.append(new_video)
    hits = sum(score for video in rescored for dets, _ in video for _, score in dets)
    if hits == 0:
        warnings.warn("no proposal overlaps any ground truth; oracle region AP reported as 0")
        return 0.0
    return region_average_precision(rescored, per_video=per_video)


# ---------------------------------------------------------------------------
# risk maps

def risk_map_raster(boxes, scores, grid_w: int, grid_h: int) -> RiskMap:
    """Mean risk of the boxes covering each cell center; 0 where uncovered."""
    if grid_w < 1 or grid_h < 1:
        raise ValueError(f"grid dims must be >= 1, got {grid_w}x{grid_h}")
    xs = (np.arange(grid_w) + 0.5) / grid_w
    ys = (np.arange(grid_h) + 0.5) / grid_h
    total = np.zeros((grid_h, grid_w))
    count = np.zeros((grid_h, grid_w))
    for box, score in zip(boxes, scores):
        cover_x = (xs >= box.x1) & (xs <= box.x2)
        cover_y = (ys >= box.y1) & (ys <= box.y2)
        mask = np.outer(cover_y, cover_x)
        total += mask * score
        count += mask
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
