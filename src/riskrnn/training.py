"""Training loop: noisy-track selection, batched gradient accumulation, Adam,
and early stopping on validation loss.

Each epoch runs every training video once on a track drawn uniformly from
{annotated track} + {detected tracks}; the video's accident label is shared
by whichever track is drawn. Gradients are averaged over batches of videos.
Validation uses the annotated track so the early-stopping signal is
deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .config import RunConfig, derive_seed
from .evaluation import ScoredItem, average_precision
from .geometry import stack_boxes
from .losses import total_loss
from .model import AgentTracks, RiskModel, VideoRegions, forward_video
from .nn import TrainingError, adam_step
from .tracking import (Track, deduplicate_tracks, select_training_track,
                       track_by_detection, track_from_targets)

_TRAIN_STREAM = 7
_INIT_STREAM = 11


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_map: float


def track_inputs(sample, tracks) -> AgentTracks:
    """The model input where each of the K tracks plays the agent over the
    video's own candidate regions: track k is entry k of every frame."""
    feats = np.array([track.feats for track in tracks], dtype=np.float64)
    boxes = np.array([stack_boxes(track.boxes) for track in tracks])
    return AgentTracks(feats.transpose(2, 1, 0), boxes.transpose(2, 1, 0),
                       VideoRegions([frame.regions for frame in sample.frames]))


def video_loss(model: RiskModel, sample, track: Track, time_scale: float,
               tape: Tape):
    inputs = track_inputs(sample, [track])
    out = forward_video(model.store, model.cfg, inputs, tape)
    loss = total_loss(tape, inputs, out, sample.targets, model.cfg.lambdas,
                      model.cfg.horizon, time_scale)
    return loss, out


def detected_tracks(sample, run_cfg: RunConfig) -> list[Track]:
    """The deduplicated tracks the tracker finds in a video's proposals.

    Raises ValueError naming the video and its first frame without
    proposals: the tracker would end every track there, short of the video.
    """
    empty = [t for t, frame in enumerate(sample.proposals) if len(frame) == 0]
    if empty:
        raise ValueError(f"video {sample.video_id}: frame {empty[0]} has no proposals "
                         f"to track the agent through")
    tracks = track_by_detection(sample.proposals, top_init=run_cfg.top_init,
                                top_iou=run_cfg.top_iou)
    return deduplicate_tracks(tracks, overlap_iou=run_cfg.dedup_iou)


def _validation_pass(model: RiskModel, videos, run_cfg: RunConfig):
    """Deterministic loss and anticipation AP on the annotated tracks."""
    losses = []
    items = []
    for sample in videos:
        tape = Tape(train=False)
        inputs = track_inputs(sample, [track_from_targets(sample)])
        out = forward_video(model.store, model.cfg, inputs, tape)
        loss = total_loss(tape, inputs, out, sample.targets, model.cfg.lambdas,
                          model.cfg.horizon, run_cfg.time_scale)
        losses.append(float(loss.value))
        probs = out.y_fused[:, 1] if run_cfg.use_fused else out.y[:, 1]
        items.append(ScoredItem(float(probs.max()), sample.positive))
    val_map = average_precision(items) if any(i.is_positive for i in items) else 0.0
    return float(np.mean(losses)), val_map


def train_model(run_cfg: RunConfig, variant: str, train_videos, val_videos,
                progress=None) -> tuple[RiskModel, list[EpochStats]]:
    """Train one ablation variant; returns the best-validation model.

    Raises TrainingError if any video produces a non-finite loss.
    """
    model = RiskModel.create(run_cfg.model_config(variant),
                             seed=derive_seed(run_cfg.seed, _INIT_STREAM))
    rng = np.random.default_rng(
        np.random.SeedSequence([run_cfg.seed, _TRAIN_STREAM]))

    gt_tracks = [track_from_targets(v) for v in train_videos]
    td_tracks = [detected_tracks(v, run_cfg) for v in train_videos]

    history: list[EpochStats] = []
    best_snapshot = model.store.snapshot()
    best_val = math.inf
    epochs_since_best = 0
    step = 0
    n = len(train_videos)

    for epoch in range(1, run_cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, run_cfg.batch_size):
            batch = order[start:start + run_cfg.batch_size]
            for idx in batch:
                sample = train_videos[idx]
                track = select_training_track(gt_tracks[idx], td_tracks[idx], rng)
                tape = Tape(train=True)
                loss, _ = video_loss(model, sample, track, run_cfg.time_scale, tape)
                value = float(loss.value)
                if not math.isfinite(value):
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, video {sample.video_id}")
                tape.backward(loss, seed=1.0 / len(batch))
                tape.release()
                epoch_losses.append(value)
            step += 1
            adam_step(model.store, lr=run_cfg.lr, t=step)

        val_loss, val_map = _validation_pass(model, val_videos, run_cfg)
        stats = EpochStats(epoch, float(np.mean(epoch_losses)), val_loss, val_map)
        history.append(stats)
        if progress is not None:
            progress(stats)

        if val_loss < best_val:
            best_val = val_loss
            best_snapshot = model.store.snapshot()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= run_cfg.patience:
                break

    model.store.restore(best_snapshot)
    return model, history


def write_training_log(path, history) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,train_loss,val_loss,val_map\n")
        for row in history:
            fh.write(f"{row.epoch},{row.train_loss:.17g},"
                     f"{row.val_loss:.17g},{row.val_map:.17g}\n")
