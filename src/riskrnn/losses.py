"""Task losses: anticipation, region risk, box-transform regression, and the
imagination-weighted total.

A split's targets are stacked once (``SequenceTargets.of``), and a pass takes
sequence s's from video ``video_of[s]`` into the model's (frame, sequence)
columns t * S + s, one ``model.take_columns`` per target array. Each term
gives a loss per column and the total sums each sequence's, so a pass of S
sequences tapes as many nodes as one, and each sequence's loss is the one
its own pass gives. Per-frame terms are summed (not averaged) within a
sequence; batch averaging is the trainer's job. Log arguments are clamped
to [1e-12, 1 - 1e-12].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape
from .data import check_accident_frames
from .geometry import encode_box_transform, iou
from .model import ModelOutput, take_columns

PROB_CLAMP = 1e-12
RISKY_IOU_THRESHOLD = 0.4


def region_labels(region_boxes: np.ndarray, risky_boxes: np.ndarray) -> np.ndarray:
    """(..., N) labels of frames' (..., N, 4) region boxes against their
    (..., R, 4) risky boxes, the leading axes (a video's frames, or a split's
    frames and videos) shared: 1 for a region overlapping any risky box of
    its frame above 0.4 IoU, strictly. No ground truth (R = 0) labels
    everything 0, and all-NaN rows, which pad frames with fewer risky boxes,
    overlap nothing."""
    overlaps = iou(region_boxes[..., :, None, :], risky_boxes[..., None, :, :])
    return (overlaps > RISKY_IOU_THRESHOLD).any(axis=-1).astype(np.float64)


def anticipation_weights(positive, t_accident, n_frames: int,
                         time_scale: float = 1.0) -> np.ndarray:
    """(2, T, ...) weights of the per-frame (non-accident, accident) log
    probabilities in the anticipation loss, for videos whose positive flags
    and accident frames have the trailing shape (none for one video).
    Negatives pay -log y[0] every frame. Positives pay -log y[1] weighted by
    exp(-(t_accident - t) * time_scale), so frames close to the accident
    dominate (``time_scale`` 1.0 is one e-fold per frame)."""
    positive = np.asarray(positive, dtype=bool)
    weights = np.zeros((2, n_frames) + positive.shape)
    weights[0] = ~positive
    t = np.arange(n_frames, dtype=np.float64)[:, None]
    weights[1][:, positive] = np.exp(-(np.asarray(t_accident)[positive] - t) * time_scale)
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
    """The (4, T, ...) true transforms of (T, ..., 4) tracks and the (T, ...)
    mask of frames that have one: the target at frame t encodes the move
    from track[t] to track[t + horizon], so frames within ``horizon`` of the
    end have none."""
    track = np.moveaxis(agent_track, -1, 0)
    n_targets = max(track.shape[1] - horizon, 0)
    target = np.zeros(track.shape)
    has_target = np.zeros(track.shape[1:], dtype=bool)
    target[:, :n_targets] = encode_box_transform(track[:, :n_targets], track[:, horizon:])
    has_target[:n_targets] = True
    return target, has_target


def transform_loss(tape: Tape, c: Node, target: np.ndarray, has_target: np.ndarray) -> Node:
    """(C,) smooth-L1 between each column's predicted (4, C) transform and
    its target, zero where the mask is off."""
    return ad.vsum(ad.smooth_l1(c - tape.const(target)) * tape.const(has_target), axis=0)


@dataclass(frozen=True)
class SequenceTargets:
    """A split's loss targets, built once: the (2, T, V) anticipation
    weights, the (T, V, N) region labels, and the (4, T, V) box transforms
    with the (T, V) mask of frames that have one. The video axis follows the
    frame axis, so a pass takes its sequences' videos along it and merges
    the two into its (frame, sequence) columns."""

    weights: np.ndarray
    labels: np.ndarray
    transforms: np.ndarray
    has_transform: np.ndarray

    @classmethod
    def of(cls, videos, horizon: int, time_scale: float = 1.0) -> "SequenceTargets":
        """The targets of videos of one shape: their labels, their agent
        tracks, and their region boxes against their risky boxes. Raises
        ValueError, naming the video, for a positive whose accident frame is
        not one of its frames."""
        videos = list(videos)
        n_frames = videos[0].n_frames
        positive = np.array([v.positive for v in videos])
        t_accident = np.array([v.t_accident for v in videos])
        check_accident_frames([v.video_id for v in videos], positive, t_accident, n_frames)
        boxes = {key: np.stack([getattr(v, key) for v in videos], axis=1)
                 for key in ("agent_box", "region_box", "risky_box")}
        return cls(anticipation_weights(positive, t_accident, n_frames, time_scale),
                   region_labels(boxes["region_box"], boxes["risky_box"]),
                   *transform_targets(boxes["agent_box"], horizon))


@dataclass
class SequenceLosses:
    """The loss of a pass: ``total`` is the scalar tape node summing the
    (S,) ``per_sequence`` losses."""

    total: Node
    per_sequence: np.ndarray


def total_loss(tape: Tape, predictions: ModelOutput, targets: SequenceTargets,
               video_of) -> SequenceLosses:
    """Transform loss plus the fusion-weighted sum of per-level task losses,
    for each of the S sequences of a pass, sequence s scored against the
    targets of the split's video ``video_of[s]``.

    The levels and their weights are the output's ``levels`` and
    ``lambdas``: level 0 is the observed assessment, level n >= 1 the n-th
    imagination hop, scored against the same accident time and the same
    per-frame region labels (regions are frozen during imagination).
    """
    n_frames, n_sequences = targets.labels.shape[0], len(video_of)
    columns = predictions.levels[0][0].value.shape[1]
    if columns != n_frames * n_sequences:
        raise ValueError(f"{columns} columns are not {n_sequences} sequences of "
                         f"{n_frames} frames")

    weights = take_columns(targets.weights, video_of, 1)
    labels = take_columns(targets.labels, video_of, 0)
    per_column = None
    if predictions.c_node is not None:
        per_column = transform_loss(tape, predictions.c_node,
                                    take_columns(targets.transforms, video_of, 1),
                                    take_columns(targets.has_transform, video_of, 0))
    for weight, (y, s) in zip(predictions.lambdas, predictions.levels, strict=True):
        level_loss = float(weight) * (anticipation_loss(tape, y, weights)
                                      + region_loss(tape, s, labels))
        per_column = level_loss if per_column is None else per_column + level_loss
    per_sequence = ad.vsum(ad.reshape(per_column, (n_frames, n_sequences)), axis=0)
    return SequenceLosses(ad.vsum(per_sequence), per_sequence.value)
