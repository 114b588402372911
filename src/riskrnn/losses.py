"""Task losses: anticipation, region risk, box-transform regression, and the
imagination-weighted total.

Per-frame terms are summed (not averaged) within a video; batch averaging is
the trainer's job. Log arguments are clamped to [1e-12, 1 - 1e-12].
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape
from .geometry import encode_box_transform, iou

if TYPE_CHECKING:
    from .data import VideoTargets

PROB_CLAMP = 1e-12
RISKY_IOU_THRESHOLD = 0.4


def region_labels(region_boxes, risky_boxes) -> np.ndarray:
    """1 for regions overlapping any ground-truth risky box above 0.4 IoU.

    The comparison is strict (> 0.4). An empty ground-truth list (negative
    videos) labels everything 0.
    """
    labels = np.zeros(len(region_boxes), dtype=np.float64)
    if not risky_boxes:
        return labels
    for i, box in enumerate(region_boxes):
        best = max(iou(box, gt) for gt in risky_boxes)
        if best > RISKY_IOU_THRESHOLD:
            labels[i] = 1.0
    return labels


def anticipation_loss(tape: Tape, y_nodes, positive: bool,
                      t_accident: int | None = None,
                      time_scale: float = 1.0) -> Node:
    """Cross-entropy over the accident/non-accident sequence.

    Negatives pay -log y[0] every frame. Positives pay -log y[1] weighted by
    exp(-(T - t) * time_scale), so frames close to the accident dominate.
    ``time_scale`` rescales the frame-unit gap (1.0 = one e-fold per frame).
    """
    idx = 1 if positive else 0
    picks = ad.stack_scalars([ad.pick(y, idx) for y in y_nodes])
    logs = ad.log(ad.clip(picks, PROB_CLAMP, 1.0 - PROB_CLAMP))
    if positive:
        if t_accident is None:
            raise ValueError("positive sequence needs the accident frame index")
        t = np.arange(len(y_nodes), dtype=np.float64)
        weights = np.exp(-(t_accident - t) * time_scale)
        return -ad.dot(logs, tape.const(weights))
    return -ad.vsum(logs)


def region_loss(tape: Tape, s_nodes, labels) -> Node:
    """Per-region sigmoid cross entropy summed over frames and regions."""
    scores = ad.concat(list(s_nodes))
    lbl = tape.const(np.concatenate([np.asarray(l, dtype=np.float64) for l in labels]))
    if scores.value.shape != lbl.value.shape:
        raise ValueError(
            f"{scores.value.shape[0]} scores vs {lbl.value.shape[0]} labels"
        )
    p = ad.clip(scores, PROB_CLAMP, 1.0 - PROB_CLAMP)
    ce = -(lbl * ad.log(p) + (1.0 - lbl) * ad.log(1.0 - p))
    return ad.vsum(ce)


def transform_loss(tape: Tape, c_nodes, agent_track, horizon: int) -> Node:
    """Smooth-L1 between predicted transforms and the track's true ones.

    The target at frame t encodes the move from track[t] to track[t + K];
    frames within K of the end contribute nothing.
    """
    terms = []
    for t, c in enumerate(c_nodes):
        if c is None or t + horizon >= len(agent_track):
            continue
        target = encode_box_transform(agent_track[t], agent_track[t + horizon])
        diff = c - tape.const(target.as_array())
        terms.append(ad.vsum(ad.smooth_l1(diff)))
    if not terms:
        return tape.const(0.0)
    return ad.vsum(ad.stack_scalars(terms))


def total_loss(tape: Tape, frames, predictions, targets: VideoTargets,
               lambdas, horizon: int, time_scale: float = 1.0) -> Node:
    """Transform loss plus the fusion-weighted sum of per-level task losses.

    Level 0 is the observed predictions; level n >= 1 is the n-th imagination
    hop, scored against the same accident time and the same per-frame region
    labels (regions are frozen during imagination).
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    n_levels = 1 + (len(predictions[0].imagined) if predictions else 0)
    if lam.shape[0] != n_levels:
        raise ValueError(f"need {n_levels} fusion weights, got {lam.shape[0]}")
    targets.validate(len(frames))

    labels = [
        region_labels(frame.region_boxes,
                      targets.risky_boxes[t] if targets.positive else [])
        for t, frame in enumerate(frames)
    ]

    loss = transform_loss(tape, [p.c_node for p in predictions],
                          targets.agent_track, horizon)
    for level in range(n_levels):
        if level == 0:
            y_nodes = [p.y_node for p in predictions]
            s_nodes = [p.s_node for p in predictions]
        else:
            y_nodes = [p.imagined[level - 1].y_node for p in predictions]
            s_nodes = [p.imagined[level - 1].s_node for p in predictions]
        level_loss = (anticipation_loss(tape, y_nodes, targets.positive,
                                        targets.t_accident, time_scale)
                      + region_loss(tape, s_nodes, labels))
        loss = loss + float(lam[level]) * level_loss
    return loss
