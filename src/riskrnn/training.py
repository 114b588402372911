"""Training loop: noisy-track selection, one pass per batch of videos, Adam,
and early stopping on validation loss; and the tracks a split's videos give.

``detected_tracks`` tracks a whole split before any forward pass: its videos
of one frame count and one proposal count run as one tracker call over their
proposal arrays, and each video's tracks are then deduplicated on their own.

Each epoch runs every training video once on a track drawn uniformly from
{annotated track} + {detected tracks}; the video's accident label is shared
by whichever track is drawn. A batch of B videos runs as one forward pass of
B sequences, each video's track over that video's own regions, so column
t * B + b is video b at frame t; one loss and one backward pass give the
batch's mean gradient. Validation runs the annotated tracks, batch_size
videos per forward pass, so the early-stopping signal is deterministic. The
videos of one pass need one frame count and one region count.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .config import RunConfig, derive_seed
from .evaluation import average_precision
from .losses import SequenceTargets, total_loss
from .model import AgentTracks, RiskModel, VideoRegions, forward_video
from .nn import TrainingError, adam_step
from .tracking import (Track, annotated_track, deduplicate_tracks, select_training_track,
                       track_by_detection)

_TRAIN_STREAM = 7
_INIT_STREAM = 11


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_map: float


def video_regions(sample) -> VideoRegions:
    """The candidate regions of every frame of a video."""
    return VideoRegions(sample.region_box, sample.region_feat)


def track_inputs(tracks, regions) -> AgentTracks:
    """The model input of B sequences: sequence b is ``tracks[b]`` playing
    the agent over ``regions[b]``, the VideoRegions of its video. Eval passes
    one video's regions for each of its tracks, training each batch video's
    own."""
    feats = np.array([track.feats for track in tracks], dtype=np.float64)
    boxes = np.array([track.boxes for track in tracks], dtype=np.float64)
    return AgentTracks(feats.transpose(2, 1, 0), boxes.transpose(2, 1, 0),
                       VideoRegions.interleave(regions))


def detected_tracks(samples, run_cfg: RunConfig) -> list[list[Track]]:
    """Each video's deduplicated tracks, found in its proposals.

    Videos of one frame count and one proposal count are tracked in one
    tracker call over their proposal arrays; every video's tracks are then
    deduplicated on their own.

    Raises ValueError naming the first video without proposals, and its
    first frame: a video's frames share one proposal count.
    """
    samples = list(samples)
    groups = defaultdict(list)
    for i, sample in enumerate(samples):
        if sample.proposal_score.shape[1] == 0:
            raise ValueError(f"video {sample.video_id}: frame 0 has no proposals to track the "
                             f"agent through")
        groups[sample.proposal_score.shape].append(i)

    tracks = [None] * len(samples)
    for members in groups.values():
        videos = [samples[i] for i in members]
        boxes, feats, scores = track_by_detection(
            [v.proposal_box for v in videos], [v.proposal_feat for v in videos],
            [v.proposal_score for v in videos], top_init=run_cfg.top_init, top_iou=run_cfg.top_iou)
        for j, i in enumerate(members):
            found = [Track(boxes[j, :, k], feats[j, :, k], scores[j, :, k])
                     for k in range(boxes.shape[2])]
            tracks[i] = deduplicate_tracks(found, overlap_iou=run_cfg.dedup_iou)
    return tracks


class _Split:
    """A split's videos with what every epoch reuses, built once: each
    video's regions, annotated track and loss targets."""

    def __init__(self, videos, horizon: int, time_scale: float):
        self.videos = list(videos)
        self.regions = [video_regions(v) for v in self.videos]
        self.annotated = [annotated_track(v) for v in self.videos]
        self.targets = [SequenceTargets.of(v, horizon, time_scale) for v in self.videos]

    def loss(self, model: RiskModel, batch, tracks, tape: Tape):
        """One forward pass and loss of the batch's videos, each on its track.

        Raises ValueError naming the first video whose frame or region count
        differs from the batch's first video.
        """
        first = self.regions[batch[0]]
        for i in batch[1:]:
            for what, got, want in (("frames", len(self.regions[i]), len(first)),
                                    ("regions per frame", self.regions[i].n, first.n)):
                if got != want:
                    raise ValueError(
                        f"video {self.videos[i].video_id} has {got} {what} and video "
                        f"{self.videos[batch[0]].video_id} has {want}; the videos of a "
                        f"batch need one frame count and one region count")
        out = forward_video(model.store, model.cfg,
                            track_inputs(tracks, [self.regions[i] for i in batch]), tape)
        return total_loss(tape, out, [self.targets[i] for i in batch], model.cfg.lambdas), out


def _validation_pass(model: RiskModel, split: _Split, run_cfg: RunConfig):
    """Deterministic loss and anticipation AP on the annotated tracks."""
    losses = []
    peaks = []
    for start in range(0, len(split.videos), run_cfg.batch_size):
        chunk = range(start, min(start + run_cfg.batch_size, len(split.videos)))
        loss, out = split.loss(model, chunk, [split.annotated[i] for i in chunk],
                               Tape(train=False))
        losses.extend(loss.per_sequence)
        probs = out.y_fused[:, 1] if run_cfg.use_fused else out.y[:, 1]
        peaks.append(probs.reshape(-1, len(chunk)).max(axis=0))
    positive = [video.positive for video in split.videos]
    val_map = average_precision(np.concatenate(peaks), positive) if any(positive) else 0.0
    return float(np.mean(losses)), val_map


def _backward_pass(model: RiskModel, split: _Split, batch, tracks, epoch: int) -> np.ndarray:
    """Add the batch's mean gradient to the parameters with one forward and
    one backward pass; returns each video's loss. The pass's graph is freed
    on return, before the next pass builds its own.

    Raises TrainingError naming the epoch and the first video of the batch
    whose loss is not finite.
    """
    tape = Tape(train=True)
    loss, _ = split.loss(model, batch, tracks, tape)
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

    Raises TrainingError if any video produces a non-finite loss.
    """
    model = RiskModel.create(run_cfg.model_config(variant),
                             seed=derive_seed(run_cfg.seed, _INIT_STREAM))
    rng = np.random.default_rng(
        np.random.SeedSequence([run_cfg.seed, _TRAIN_STREAM]))

    train = _Split(train_videos, model.cfg.horizon, run_cfg.time_scale)
    val = _Split(val_videos, model.cfg.horizon, run_cfg.time_scale)
    td_tracks = detected_tracks(train.videos, run_cfg)

    history: list[EpochStats] = []
    best_values = model.store.values.copy()
    best_val = math.inf
    epochs_since_best = 0
    step = 0
    n = len(train.videos)

    for epoch in range(1, run_cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, run_cfg.batch_size):
            batch = order[start:start + run_cfg.batch_size]
            tracks = [select_training_track(train.annotated[i], td_tracks[i], rng)
                      for i in batch]
            epoch_losses.extend(_backward_pass(model, train, batch, tracks, epoch))
            step += 1
            adam_step(model.store, lr=run_cfg.lr, t=step)

        val_loss, val_map = _validation_pass(model, val, run_cfg)
        stats = EpochStats(epoch, float(np.mean(epoch_losses)), val_loss, val_map)
        history.append(stats)
        if progress is not None:
            progress(stats)

        if val_loss < best_val:
            best_val = val_loss
            best_values = model.store.values.copy()
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
