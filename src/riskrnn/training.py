"""Training loop: noisy-track selection, one pass per batch of videos, Adam,
and early stopping on validation loss; the tracks a split's videos give; and
the model input of every pass.

A split's videos share one shape, as a dataset file's do. ``check_one_shape``
checks it once per split, before any tracking or training, so a mixed split
fails with one message whatever the batch size or the shuffle.

A split's tracks are one row table: (S, T, 4) boxes, (S, T, D) features
and the (S,) ``video_of`` of each row, its video's index in the split, the
rows sorted by video. ``detected_tracks`` gives the table of the tracks
found in the proposals, each video's rows in the tracker's order, and
``_Split`` puts each video's annotated track (its agent boxes and features)
just ahead of its detected rows, so video v's candidates are rows
``first[v]:first[v + 1]``, its annotated track first.

A pass selects rows of such a table, and every pass, training's and eval's,
follows one rule: its videos' regions (``stack_regions``) and loss targets
(``SequenceTargets.of``) are stacked once, and ``track_inputs`` and
``total_loss`` take each sequence's from them by ``model.take_columns`` and
the pass's ``video_of``, the video of each sequence. A training batch's
``video_of`` is its videos' indices in the split; eval's is its rows'.

Each epoch runs every training video once on a candidate drawn uniformly,
row ``first[v]`` plus the draw; the video's accident label is shared by
whichever track is drawn. One loss and one backward pass give the batch's
mean gradient. Validation runs the annotated tracks, batch_size videos per
forward pass, so the early-stopping signal is deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .config import RunConfig, derive_seed
from .data import check_one_shape
from .evaluation import average_precision
from .losses import SequenceTargets, total_loss
from .model import AgentTracks, RiskModel, forward_video, take_columns
from .nn import TrainingError, adam_step
from .tracking import deduplicate_tracks, track_by_detection

_TRAIN_STREAM = 7
_INIT_STREAM = 11


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_map: float


def stack_regions(videos) -> tuple[np.ndarray, np.ndarray]:
    """The regions of videos of one shape, stacked once, the video axis just
    after the frame axis: the (T, V, N, 4) boxes and the (D, T, V, N)
    appearances."""
    n_frames, n_regions, d_region = videos[0].region_feat.shape
    # each video's appearances are copied once, into the stack
    feats = np.empty((d_region, n_frames, len(videos), n_regions))
    np.stack([np.moveaxis(v.region_feat, 2, 0) for v in videos], axis=2, out=feats)
    return np.ascontiguousarray(np.stack([v.region_box for v in videos], axis=1)), feats


def track_inputs(boxes, feats, regions, video_of) -> AgentTracks:
    """The model input of S sequences: sequence s is the (T, 4) boxes
    ``boxes[s]`` and (T, D) features ``feats[s]`` playing the agent over the
    regions of video ``video_of[s]`` of ``regions``, the (T, V, N, 4) boxes
    and (D, T, V, N) appearances ``stack_regions`` gives, each taken into
    the pass's columns by ``take_columns``."""
    region_boxes, region_feats = regions
    return AgentTracks(np.transpose(feats, (2, 1, 0)), np.transpose(boxes, (2, 1, 0)),
                       take_columns(region_boxes, video_of, 0),
                       take_columns(region_feats, video_of, 1))


def detected_tracks(samples, run_cfg: RunConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The split's deduplicated tracks, found in its proposals, as one row
    table: the (S, T, 4) boxes, (S, T, D) features and (S,) ``video_of``
    of its rows, sorted by video, each video's rows in the tracker's order.
    The split's videos, which must share one shape, are tracked in one
    tracker call; each video's tracks are then deduplicated on their own.
    Raises ValueError naming the first video without proposals, and its
    first frame (a video's frames share one proposal count), or else, before
    any tracking, the first video of another shape."""
    samples = list(samples)
    for sample in samples:
        if sample.proposal_score.shape[1] == 0:
            raise ValueError(f"video {sample.video_id}: frame 0 has no proposals to track the "
                             f"agent through")
    check_one_shape(samples)
    boxes, feats, scores = track_by_detection(
        [v.proposal_box for v in samples], [v.proposal_feat for v in samples],
        [v.proposal_score for v in samples], top_init=run_cfg.top_init, top_iou=run_cfg.top_iou)
    kept = [deduplicate_tracks(video_boxes, video_scores, overlap_iou=run_cfg.dedup_iou)
            for video_boxes, video_scores in zip(boxes, scores)]
    video_of = np.repeat(np.arange(len(kept)), [len(rows) for rows in kept])
    rows = np.concatenate(kept)
    return boxes[video_of, rows], feats[video_of, rows], video_of


class _Split:
    """A split's videos with what every epoch reuses, built once: its
    stacked regions and loss targets, and its candidates as one row table,
    the (S, T, 4) ``boxes`` and (S, T, D) ``feats``. Video v's candidates
    are rows ``first[v]:first[v + 1]``: its annotated track, then its rows
    of ``detected``, the split's ``detected_tracks`` table (none if not
    given). A split of two shapes raises ``check_one_shape``'s ValueError."""

    def __init__(self, videos, horizon: int, time_scale: float, detected=None):
        self.videos = list(videos)
        check_one_shape(self.videos)
        annotated = (np.stack([v.agent_box for v in self.videos]),
                     np.stack([v.agent_feat for v in self.videos]), np.arange(len(self.videos)))
        detected = detected or tuple(part[:0] for part in annotated)
        # each video's annotated row goes just ahead of its first detected one
        at = np.searchsorted(detected[2], annotated[2])
        self.boxes, self.feats, video_of = (np.insert(rows, at, own, axis=0)
                                            for rows, own in zip(detected, annotated))
        self.first = np.searchsorted(video_of, np.arange(len(self.videos) + 1))
        self.targets = SequenceTargets.of(self.videos, horizon, time_scale)
        self.regions = stack_regions(self.videos)

    def loss(self, model: RiskModel, batch, picks, tape: Tape):
        """One forward pass and loss of the batch, the split's video indices,
        each video on its candidate ``picks`` gives it, 0 its annotated
        track."""
        rows = self.first[batch] + picks
        frames = track_inputs(self.boxes[rows], self.feats[rows], self.regions, batch)
        out = forward_video(model.store, model.cfg, frames, tape)
        return total_loss(tape, out, self.targets, batch), out


def _validation_pass(model: RiskModel, split: _Split, run_cfg: RunConfig, epoch: int):
    """Deterministic loss and anticipation AP on the annotated tracks. Raises
    TrainingError naming the epoch and the first video whose loss is not
    finite, which no epoch's loss could improve on."""
    losses, peaks = [], []
    for start in range(0, len(split.videos), run_cfg.batch_size):
        chunk = np.arange(start, min(start + run_cfg.batch_size, len(split.videos)))
        loss, out = split.loss(model, chunk, 0, Tape(train=False))
        losses.extend(loss.per_sequence)
        peaks.append(out.y[:, 1].reshape(-1, len(chunk)).max(axis=0))
    val_loss = float(np.mean(losses))
    if not math.isfinite(val_loss):
        bad = next(i for i, loss in enumerate(losses) if not math.isfinite(loss))
        raise TrainingError(f"non-finite validation loss at epoch {epoch}, "
                            f"video {split.videos[bad].video_id}")
    positive = [video.positive for video in split.videos]
    val_map = average_precision(np.concatenate(peaks), positive) if any(positive) else 0.0
    return val_loss, val_map


def _backward_pass(model: RiskModel, split: _Split, batch, picks, epoch: int) -> np.ndarray:
    """Add the batch's mean gradient to the parameters with one forward and
    one backward pass; returns each video's loss. The pass's graph is freed
    on return, before the next pass builds its own. Raises TrainingError
    naming the epoch and the first video of the batch whose loss is not
    finite."""
    tape = Tape(train=True)
    loss, _ = split.loss(model, batch, picks, tape)
    bad = np.flatnonzero(~np.isfinite(loss.per_sequence))
    if len(bad):
        raise TrainingError(f"non-finite loss at epoch {epoch}, "
                            f"video {split.videos[batch[bad[0]]].video_id}")
    tape.backward(loss.total, seed=1.0 / len(batch))
    tape.release()
    return loss.per_sequence


def train_model(run_cfg: RunConfig, variant: str, train_videos, val_videos,
                progress=None) -> tuple[RiskModel, list[EpochStats]]:
    """Train one ablation variant; returns the best-validation model.

    Raises ValueError naming an empty split, and TrainingError if any video,
    training or validation, produces a non-finite loss.
    """
    train_videos, val_videos = list(train_videos), list(val_videos)
    for name, videos in (("training", train_videos), ("validation", val_videos)):
        if not videos:
            raise ValueError(f"the {name} split has no videos")
    model = RiskModel.create(run_cfg.model_config(variant),
                             seed=derive_seed(run_cfg.seed, _INIT_STREAM))
    rng = np.random.default_rng(
        np.random.SeedSequence([run_cfg.seed, _TRAIN_STREAM]))

    val = _Split(val_videos, model.cfg.horizon, run_cfg.time_scale)
    train = _Split(train_videos, model.cfg.horizon, run_cfg.time_scale,
                   detected_tracks(train_videos, run_cfg))

    history: list[EpochStats] = []
    best_values = model.store.values.copy()
    best_val = math.inf
    epochs_since_best = 0
    step = 0
    n, candidates = len(train.videos), np.diff(train.first)

    for epoch in range(1, run_cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, run_cfg.batch_size):
            batch = order[start:start + run_cfg.batch_size]
            # uniform over each video's annotated track and its detected ones
            picks = [int(rng.integers(0, candidates[i])) for i in batch]
            epoch_losses.extend(_backward_pass(model, train, batch, picks, epoch))
            step += 1
            adam_step(model.store, lr=run_cfg.lr, t=step)

        val_loss, val_map = _validation_pass(model, val, run_cfg, epoch)
        stats = EpochStats(epoch, float(np.mean(epoch_losses)), val_loss, val_map)
        history.append(stats)
        if progress is not None:
            progress(stats)

        if val_loss < best_val:
            best_val = val_loss
            np.copyto(best_values, model.store.values)
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= run_cfg.patience:
                break

    model.store.values[...] = best_values
    return model, history


def write_training_log(path, history) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,train_loss,val_loss,val_map\n")
        for row in history:
            fh.write(f"{row.epoch},{row.train_loss:.17g},"
                     f"{row.val_loss:.17g},{row.val_map:.17g}\n")
