"""Metrics: average precision, time-to-accident curves, per-frame region
detection AP with its oracle bound, and risk-map rasterization, plus the
report/CSV/PGM writers.

The metrics take a split's arrays, its videos sharing one shape: AP a score
and a positive flag per item; the time-to-accident sweep the (V, T) frame
scores with each video's label and accident frame; region AP and its oracle
the (V, T, N) detection scores and the one (V, T, N, R) IoU matrix of the
split's regions with its ground truth (``region_overlaps``), whose NaN
columns pad frames with fewer ground-truth boxes and count as none.

Tie conventions are pessimistic and deterministic: at equal scores negatives
rank before positives, and equal-scored detections keep their input order.
"""
from __future__ import annotations

import csv
import math
import warnings

import numpy as np

from .data import check_accident_frames
from .geometry import iou

REPORT_HEADER = "RISKRNN-REPORT v1"
REGION_IOU_THRESHOLD = 0.4


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


def tta_atta(probs, positive, t_accident, video_ids):
    """Sweep thresholds over the distinct video scores and summarize lead time.

    Takes the (V, T) frame scores, the (V,) positive flags and accident
    frames (-1 for a video without an accident), and the video ids, which
    only name a broken video. A video scores its peak frame. At each
    operating point (taken just below a distinct score, so crossings are
    inclusive) we compute precision/recall over video scores and, for the
    recalled positives, the mean time to accident T - t_hat, floored at
    zero, where t_hat is the first frame reaching the threshold. The scalar
    summary integrates mean TTA over the recall axis by recall increments,
    summed exactly as newly recalled positives times mean TTA over the
    positive count, so it never exceeds the largest accident frame.
    Returns (rows, atta) where each row is
    (threshold, precision, recall, mean_tta). Raises ValueError, naming the
    video, for a positive whose accident frame is not one of its frames.
    """
    probs = np.asarray(probs, dtype=np.float64)
    positive, t_accident = np.asarray(positive, dtype=bool), np.asarray(t_accident)
    if not positive.any():
        raise ValueError("time-to-accident needs at least one positive video")
    check_accident_frames(video_ids, positive, t_accident, probs.shape[1])
    scores = probs.max(axis=1)
    thresholds = np.unique(scores)[::-1]
    # each positive's first crossing of every threshold is where its running
    # maximum first reaches it
    crossings = np.array([np.searchsorted(running, thresholds, side="left")
                          for running in np.maximum.accumulate(probs[positive], axis=1)])
    recalled = scores[positive][:, None] >= thresholds
    # above a positive's peak its crossing is T, past its accident frame, so
    # its TTA is 0 where it is not recalled; TTAs are whole frame counts, so
    # their sums are exact in any order
    ttas = np.maximum(0.0, t_accident[positive][:, None] - crossings)
    n_recalled = np.count_nonzero(recalled, axis=0)
    predicted = np.count_nonzero(scores[:, None] >= thresholds, axis=0)
    mean_tta = np.divide(ttas.sum(axis=0), n_recalled, out=np.zeros(len(thresholds)),
                         where=n_recalled > 0)
    n_pos = len(crossings)
    rows = list(zip(thresholds.tolist(), (n_recalled / predicted).tolist(),
                    (n_recalled / n_pos).tolist(), mean_tta.tolist()))
    terms = np.diff(n_recalled, prepend=0) * mean_tta
    return rows, math.fsum(terms.tolist()) / n_pos


# ---------------------------------------------------------------------------
# risky-region detection AP

def region_overlaps(boxes: np.ndarray, gt_boxes: np.ndarray) -> np.ndarray:
    """The (..., N, R) IoU of (..., N, 4) detections with (..., R, 4) ground
    truth, the leading axes (a split's videos and frames) shared; NaN
    padding rows give NaN columns."""
    return iou(boxes[..., :, None, :], gt_boxes[..., None, :, :])


def overlaps_enough(overlaps: np.ndarray) -> np.ndarray:
    """The risky-region rule of training's labels, the matcher and the oracle
    bound, elementwise: an IoU at or above the threshold; NaN padding never."""
    return overlaps >= REGION_IOU_THRESHOLD


def match_frame_detections(scores, overlaps) -> np.ndarray:
    """Greedy matching within each frame of N detections and R ground truths.

    Takes the (..., N) detection scores and their (..., N, R) IoU matrix,
    the leading axes (a split's videos and frames) shared. Within a frame,
    detections are visited in descending score order (ties keep input
    order); each claims the best still-unmatched ground truth it overlaps
    enough (``overlaps_enough``), of equal ones the last. Every frame
    takes its next detection at once, so the loop runs over the N ranks.
    Returns the (..., N) matched flags in input order.
    """
    scores, overlaps = np.asarray(scores), np.asarray(overlaps)
    if overlaps.size == 0:  # no frame, detection or ground truth to match
        return np.zeros(scores.shape, dtype=bool)
    n_gt = overlaps.shape[-1]
    flat_scores = scores.reshape(-1, scores.shape[-1])
    flat_overlaps = overlaps.reshape(flat_scores.shape + (n_gt,))
    frames = np.arange(len(flat_scores))
    matched = np.zeros(flat_scores.shape, dtype=bool)
    open_gt = np.ones((len(flat_scores), n_gt), dtype=bool)
    for picked in np.argsort(-flat_scores, axis=1, kind="stable").T:
        row = flat_overlaps[frames, picked]
        candidates = open_gt & overlaps_enough(row)
        claims = np.flatnonzero(candidates.any(axis=1))
        # the best open ground truth; of equal ones, the last
        best = n_gt - 1 - np.argmax(np.where(candidates, row, -np.inf)[claims, ::-1], axis=1)
        open_gt[claims, best] = False
        matched[claims, picked[claims]] = True
    return matched.reshape(scores.shape)


def region_average_precision(scores, overlaps):
    """Detection AP of a split's (V, T, N) detection scores, given their
    (V, T, N, R) IoU matrix with the ground truth.

    Detections are matched frame by frame, all frames in one call, pooled
    across every frame of every video, and the recall axis counts all
    ground-truth boxes.
    """
    # the columns that are not NaN padding
    n_gt = int(np.count_nonzero(~np.isnan(overlaps).all(axis=-2)))
    if n_gt == 0:
        raise ValueError("region AP needs at least one ground-truth box")
    hits = match_frame_detections(scores, overlaps)
    return average_precision(np.ravel(scores), hits.ravel(), n_positive=n_gt)


def oracle_region_average_precision(overlaps):
    """Upper bound: each detection that overlaps ground truth enough scores 1, else 0.
    Takes the (V, T, N, R) IoU matrix of ``region_average_precision``, which
    is all it reads.

    Degenerate inputs where no detection overlaps any ground truth report 0
    with a warning instead of failing.
    """
    hit = overlaps_enough(overlaps).any(axis=-1)
    if not hit.any():
        warnings.warn("no proposal overlaps any ground truth; oracle region AP reported as 0")
        return 0.0
    return region_average_precision(hit.astype(np.float64), overlaps)


# ---------------------------------------------------------------------------
# risk maps

def risk_map_raster(boxes, scores, grid_w: int, grid_h: int) -> np.ndarray:
    """The (grid_h, grid_w) risk map: the mean risk of the (N, 4) boxes
    covering each cell center, given their (N,) scores; 0 where uncovered.
    Each cell lies in [0, 1]."""
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
    # a running sum adds the boxes in order on every grid; sum() would add
    # them pairwise where the grid is one cell
    weighted = mask * np.asarray(scores)[:, None, None]
    total = np.cumsum(weighted, axis=0)[-1] if len(boxes) else np.zeros((grid_h, grid_w))
    count = mask.sum(axis=0)
    values = np.divide(total, count, out=np.zeros_like(total), where=count > 0)
    return np.clip(values, 0.0, 1.0)


def write_pgm(path, risk_map: np.ndarray) -> None:
    """The (height, width) risk map as a plain-text PGM (P2, maxval 255),
    cell = round(255 * risk)."""
    pixels = np.rint(risk_map * 255.0).astype(int)
    height, width = risk_map.shape
    with open(path, "w") as fh:
        fh.write(f"P2\n{width} {height}\n255\n")
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
