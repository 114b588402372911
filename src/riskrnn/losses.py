"""Task losses: anticipation, region risk, box-transform regression, and the
imagination-weighted total.

The losses read the model's (frame, sequence) columns, t * B + b, with a
SequenceTargets per sequence. Each term gives a loss per column, and the
total sums each sequence's columns, so a batch of B videos records as many
tape nodes as one video, and each video's loss is the one its own pass gives.
Per-frame terms are summed (not averaged) within a video; batch averaging is
the trainer's job. Log arguments are clamped to [1e-12, 1 - 1e-12].
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape
from .geometry import encode_box_transform, iou
from .model import frame_major

if TYPE_CHECKING:
    from .data import VideoSample
    from .model import ModelOutput

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


def anticipation_weights(positive: bool, t_accident: int, n_frames: int,
                         time_scale: float = 1.0) -> np.ndarray:
    """(2, T) weights of the per-frame (non-accident, accident) log
    probabilities in the anticipation loss.

    Negatives pay -log y[0] every frame. Positives pay -log y[1] weighted by
    exp(-(t_accident - t) * time_scale), so frames close to the accident
    dominate. ``time_scale`` rescales the frame-unit gap (1.0 = one e-fold
    per frame).
    """
    weights = np.zeros((2, n_frames))
    if positive:
        t = np.arange(n_frames, dtype=np.float64)
        weights[1] = np.exp(-(t_accident - t) * time_scale)
    else:
        weights[0] = 1.0
    return weights


def anticipation_loss(tape: Tape, y: Node, weights: np.ndarray) -> Node:
    """(C,) cross-entropy of each column's (non-accident, accident)
    distribution, the (2, C) columns of ``y``, under the (2, C) weights
    anticipation_weights gives."""
    logs = ad.log(ad.clip(y, PROB_CLAMP, 1.0 - PROB_CLAMP))
    return ad.vsum(logs * tape.const(-weights), axis=0)


def region_loss(tape: Tape, scores: Node, labels) -> Node:
    """(C,) sigmoid cross entropy of each column's N region scores against
    its 0/1 labels, from (C, N) scores and labels, summed over the regions."""
    lbl = np.asarray(labels, dtype=np.float64)
    if scores.value.shape != lbl.shape:
        raise ValueError(f"scores {scores.value.shape} vs labels {lbl.shape}")
    p = ad.clip(scores, PROB_CLAMP, 1.0 - PROB_CLAMP)
    # the likelihood of the label: p where it is 1 and 1 - p where it is 0, both exact
    likelihood = p * tape.const(2.0 * lbl - 1.0) + tape.const(1.0 - lbl)
    return -ad.vsum(ad.log(likelihood), axis=1)


def transform_targets(agent_track: np.ndarray, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The (4, T) true transforms of a (T, 4) track and the (T,) mask of
    frames that have one: the target at frame t encodes the move from
    track[t] to track[t + horizon], so frames within ``horizon`` of the end
    have none."""
    track = agent_track.T
    n_targets = max(track.shape[1] - horizon, 0)
    target = np.zeros(track.shape)
    if n_targets:
        target[:, :n_targets] = encode_box_transform(track[:, :n_targets], track[:, horizon:])
    return target, np.arange(track.shape[1]) < n_targets


def transform_loss(tape: Tape, c: Node, target: np.ndarray, has_target: np.ndarray) -> Node:
    """(C,) smooth-L1 between each column's predicted (4, C) transform and
    its target, zero where the mask is off."""
    return ad.vsum(ad.smooth_l1(c - tape.const(target)) * tape.const(has_target), axis=0)


@dataclass(frozen=True)
class SequenceTargets:
    """A video's loss targets over its T frames: the (2, T) anticipation
    weights, the (T, N) region labels, and the (4, T) box transforms with
    the (T,) mask of frames that have one. They depend only on the video and
    the loss settings, so a trainer builds them once per video."""

    weights: np.ndarray
    labels: np.ndarray
    transforms: np.ndarray
    has_transform: np.ndarray

    @classmethod
    def of(cls, video: VideoSample, horizon: int, time_scale: float = 1.0) -> "SequenceTargets":
        """The targets of a video: its labels, its agent track, and its
        region boxes against its risky boxes. Raises ValueError, naming the
        video, for a positive whose accident frame is not one of its frames."""
        if video.positive and not 0 <= video.t_accident < video.n_frames:
            raise ValueError(f"video {video.video_id}: positive video needs an accident frame "
                             f"in [0, {video.n_frames}), got {video.t_accident}")
        return cls(anticipation_weights(video.positive, video.t_accident, video.n_frames,
                                        time_scale),
                   region_labels(video.region_box, video.risky_box),
                   *transform_targets(video.agent_box, horizon))


@dataclass
class SequenceLosses:
    """The loss of a pass: ``total`` is the scalar tape node summing the
    (B,) ``per_sequence`` losses, each sequence's loss as its own pass gives
    it."""

    total: Node
    per_sequence: np.ndarray


def total_loss(tape: Tape, predictions: ModelOutput, targets) -> SequenceLosses:
    """Transform loss plus the fusion-weighted sum of per-level task losses,
    for each of the B sequences of a pass, one SequenceTargets each.

    The levels and their weights are the output's ``levels`` and
    ``lambdas``: level 0 is the observed assessment, level n >= 1 the n-th
    imagination hop, scored against the same accident time and the same
    per-frame region labels (regions are frozen during imagination).
    """
    n_frames = targets[0].labels.shape[0]
    columns = predictions.levels[0][0].value.shape[1]
    if columns != n_frames * len(targets) or any(
            t.labels.shape[0] != n_frames for t in targets):
        raise ValueError(f"{columns} columns are not {len(targets)} sequences of "
                         f"{[t.labels.shape[0] for t in targets]} frames")

    weights = frame_major([t.weights for t in targets], 1)
    labels = frame_major([t.labels for t in targets], 0)
    per_column = None
    if predictions.c_node is not None:
        per_column = transform_loss(tape, predictions.c_node,
                                    frame_major([t.transforms for t in targets], 1),
                                    frame_major([t.has_transform for t in targets], 0))
    for weight, (y, s) in zip(predictions.lambdas, predictions.levels, strict=True):
        level_loss = float(weight) * (anticipation_loss(tape, y, weights)
                                      + region_loss(tape, s, labels))
        per_column = level_loss if per_column is None else per_column + level_loss
    per_sequence = ad.vsum(ad.reshape(per_column, (n_frames, len(targets))), axis=0)
    return SequenceLosses(ad.vsum(per_sequence), per_sequence.value)
