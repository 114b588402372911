"""Task losses: anticipation, region risk, box-transform regression, and the
imagination-weighted total.

Each term reads a whole video's outputs at once. Per-frame terms are summed
(not averaged) within a video; batch averaging is the trainer's job. Log
arguments are clamped to [1e-12, 1 - 1e-12].
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape
from .geometry import encode_box_transform, iou, stack_boxes

if TYPE_CHECKING:
    from .data import VideoTargets
    from .model import AgentTracks, ModelOutput

PROB_CLAMP = 1e-12
RISKY_IOU_THRESHOLD = 0.4


def region_labels(region_boxes: np.ndarray, risky_boxes: np.ndarray) -> np.ndarray:
    """(T, N) labels of a video's (T, N, 4) region boxes against its
    (T, R, 4) ground-truth risky boxes: 1 for a region overlapping any risky
    box of its frame above 0.4 IoU.

    The comparison is strict (> 0.4). No ground truth (R = 0, as in negative
    videos) labels everything 0, and NaN rows, which pad frames with fewer
    risky boxes, overlap nothing.
    """
    overlaps = iou(region_boxes[:, :, None], risky_boxes[:, None])
    return (overlaps > RISKY_IOU_THRESHOLD).any(axis=2).astype(np.float64)


def anticipation_loss(tape: Tape, y: Node, positive: bool,
                      t_accident: int | None = None,
                      time_scale: float = 1.0) -> Node:
    """Cross-entropy over the accident/non-accident sequence.

    ``y`` holds a (non-accident, accident) distribution per frame as its
    (2, T) columns. Negatives pay -log y[0] every frame. Positives pay
    -log y[1] weighted by exp(-(T - t) * time_scale), so frames close to the
    accident dominate. ``time_scale`` rescales the frame-unit gap (1.0 = one
    e-fold per frame).
    """
    idx = 1 if positive else 0
    logs = ad.log(ad.clip(ad.pick(y, idx), PROB_CLAMP, 1.0 - PROB_CLAMP))
    if positive:
        if t_accident is None:
            raise ValueError("positive sequence needs the accident frame index")
        t = np.arange(y.value.shape[1], dtype=np.float64)
        weights = np.exp(-(t_accident - t) * time_scale)
        return -ad.dot(logs, tape.const(weights))
    return -ad.vsum(logs)


def region_loss(tape: Tape, scores: Node, labels) -> Node:
    """Per-region sigmoid cross entropy of (T, N) scores against (T, N)
    labels, summed over frames and regions."""
    lbl = tape.const(np.asarray(labels, dtype=np.float64))
    if scores.value.shape != lbl.value.shape:
        raise ValueError(f"scores {scores.value.shape} vs labels {lbl.value.shape}")
    p = ad.clip(scores, PROB_CLAMP, 1.0 - PROB_CLAMP)
    ce = -(lbl * ad.log(p) + (1.0 - lbl) * ad.log(1.0 - p))
    return ad.vsum(ce)


def transform_loss(tape: Tape, c: Node | None, agent_track, horizon: int) -> Node:
    """Smooth-L1 between the (4, T) predicted transforms and the track's
    true ones.

    The target at frame t encodes the move from track[t] to track[t + K];
    frames within K of the end contribute nothing.
    """
    n_targets = len(agent_track) - horizon
    if c is None or n_targets <= 0:
        return tape.const(0.0)
    track = stack_boxes(agent_track).T
    target = np.zeros(c.value.shape)
    target[:, :n_targets] = encode_box_transform(track[:, :n_targets], track[:, horizon:])
    has_target = np.arange(c.value.shape[1]) < n_targets
    return ad.vsum(ad.smooth_l1(c - tape.const(target)) * tape.const(has_target))


def total_loss(tape: Tape, frames: AgentTracks, predictions: ModelOutput,
               targets: VideoTargets, lambdas, horizon: int, time_scale: float = 1.0) -> Node:
    """Transform loss plus the fusion-weighted sum of per-level task losses
    of a one-track forward, whose columns are the frames.

    Level 0 is the observed predictions; level n >= 1 is the n-th imagination
    hop, scored against the same accident time and the same per-frame region
    labels (regions are frozen during imagination).
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    levels = [predictions] + list(predictions.imagined)
    if lam.shape[0] != len(levels):
        raise ValueError(f"need {len(levels)} fusion weights, got {lam.shape[0]}")
    targets.validate(len(frames))

    risky = targets.risky_array() if targets.positive else np.empty((len(frames), 0, 4))
    labels = region_labels(frames.regions.xywh, risky)

    loss = transform_loss(tape, predictions.c_node, targets.agent_track, horizon)
    for weight, level in zip(lam, levels):
        level_loss = (anticipation_loss(tape, level.y_node, targets.positive,
                                        targets.t_accident, time_scale)
                      + region_loss(tape, level.s_node, labels))
        loss = loss + float(weight) * level_loss
    return loss
