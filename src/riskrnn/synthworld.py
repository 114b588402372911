"""Seeded synthetic scenarios: a moving agent, one hazard, benign distractor
regions, collision-defined accidents, class-embedding features, and noisy
proposal sets for the tracker.

A positive video walks the agent into the hazard so that their IoU first
exceeds the collision threshold exactly at the last frame; a negative video
keeps the whole walk clear of the hazard. Every random draw comes from a
per-video generator derived from (seed, split, index), so datasets are a pure
function of their configuration.

Distractor regions and each frame's proposals are drawn as arrays, in the
order in which a loop drawing one value at a time would take them from the
generator, so the datasets are those of that loop bit for bit;
``tests/oracles.py`` keeps the loop as the reference. A video holds the
arrays as drawn; no record is built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Split, VideoSample
from .data import read_dataset, write_dataset  # noqa: F401 - the split files' API
from .geometry import iou

HAZARD_CLASS = 0

_EMBED_TAG = 101
_SPLIT_TAGS = {"train": 1, "val": 2, "test": 3}
_MAX_ATTEMPTS = 200
# uniform bounds of a random (cx, cy, w, h) box, then of a distractor proposal's score
_RANDOM_LO = np.array([0.1, 0.1, 0.06, 0.06, 0.0])
_RANDOM_HI = np.array([0.9, 0.9, 0.18, 0.18, 0.5])
_RANDOM_SPAN = _RANDOM_HI - _RANDOM_LO


class GenerationError(RuntimeError):
    pass


@dataclass
class ScenarioConfig:
    frames_per_video: int = 12
    n_regions: int = 8
    feature_dim: int = 32
    n_classes: int = 6
    noise_sigma: float = 0.1
    collision_iou: float = 0.3
    proposal_jitter: float = 0.05
    n_distractor_proposals: int = 20
    seed: int = 0

    def validate(self) -> None:
        counts = (self.frames_per_video, self.n_regions, self.feature_dim, self.n_classes)
        if any(c < 1 for c in counts):
            raise ValueError(f"scenario counts must be >= 1, got {counts}")
        # each comparison is written so that NaN fails it
        if not (0 <= self.noise_sigma < np.inf and 0 <= self.proposal_jitter < np.inf
                and self.n_distractor_proposals >= 0):
            raise ValueError("noise levels and proposal counts must be finite and non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 < self.collision_iou < 1.0):
            raise ValueError(f"collision_iou must lie in (0, 1), got {self.collision_iou}")
        if self.n_regions > 1 and self.n_classes < 2:
            raise ValueError(f"{self.n_regions - 1} distractor regions need a class besides "
                             f"the hazard's, so n_classes must be >= 2, got {self.n_classes}")


def class_embeddings(cfg: ScenarioConfig) -> np.ndarray:
    """Unit-norm feature prototypes: rows 0..n_classes-1 are region classes
    (row 0 the hazard), the final row is the agent."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _EMBED_TAG]))
    emb = rng.normal(size=(cfg.n_classes + 1, cfg.feature_dim))
    return emb / np.linalg.norm(emb, axis=1, keepdims=True)


def agent_class_id(cfg: ScenarioConfig) -> int:
    return cfg.n_classes


def synthesize_features(cfg: ScenarioConfig, embeddings: np.ndarray,
                        class_ids, n_frames: int, rng) -> np.ndarray:
    """(n_frames, len(class_ids), feature_dim) noisy class-embedding draws."""
    base = embeddings[np.asarray(class_ids, dtype=int)]
    noise = rng.normal(0.0, cfg.noise_sigma, size=(n_frames,) + base.shape)
    return base[None, :, :] + noise


def _video_rng(cfg: ScenarioConfig, split_tag: int, index: int):
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, split_tag, index]))


def _collision_distance(agent_w, agent_h, hazard: np.ndarray, direction, threshold) -> float:
    """Center distance along ``direction`` where the agent-hazard IoU hits the
    collision threshold (bisection; IoU decreases with distance)."""
    def overlap(d):  # of the hazard and the agent at distance d from its center
        return iou(np.array([hazard[0] + direction[0] * d, hazard[1] + direction[1] * d,
                             agent_w, agent_h]), hazard)

    if overlap(0.0) <= threshold:
        raise GenerationError("hazard too small for the collision threshold")
    lo, hi = 0.0, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if overlap(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _track_rows(xs, ys, agent_w, agent_h) -> np.ndarray:
    """The (T, 4) agent boxes of a walk through the centers (xs, ys)."""
    return np.stack([xs, ys, np.full_like(xs, agent_w), np.full_like(xs, agent_h)], axis=1)


def _positive_walk(cfg: ScenarioConfig, rng):
    """The (T, 4) agent track and the (4,) hazard box, their first collision
    exactly at the last frame."""
    last = cfg.frames_per_video - 1
    for _ in range(_MAX_ATTEMPTS):
        agent_w = rng.uniform(0.08, 0.12)
        agent_h = rng.uniform(0.08, 0.12)
        hazard = np.array([rng.uniform(0.35, 0.65), rng.uniform(0.35, 0.65),
                           agent_w * rng.uniform(0.9, 1.3), agent_h * rng.uniform(0.9, 1.3)])
        theta = rng.uniform(0.0, 2.0 * np.pi)
        direction = np.array([np.cos(theta), np.sin(theta)])
        d_hit = _collision_distance(agent_w, agent_h, hazard, direction, cfg.collision_iou)
        d_final = d_hit * rng.uniform(0.55, 0.8)
        step = rng.uniform(0.025, 0.04) if last > 0 else 0.0
        distances = d_final + step * np.arange(last, -1.0, -1.0)
        centers = hazard[0] + direction[0] * distances, hazard[1] + direction[1] * distances
        xs, ys = centers
        # heading noise perpendicular to the walk, final frame kept exact
        perp = np.array([-direction[1], direction[0]])
        wobble = rng.normal(0.0, 0.006, size=cfg.frames_per_video)
        wobble[last] = 0.0
        xs = xs + perp[0] * wobble
        ys = ys + perp[1] * wobble
        if xs.min() < 0.03 or xs.max() > 0.97 or ys.min() < 0.03 or ys.max() > 0.97:
            continue
        track = _track_rows(xs, ys, agent_w, agent_h)
        hit = iou(track, hazard) > cfg.collision_iou
        if hit[last] and not hit[:last].any():
            return track, hazard
    raise GenerationError("could not construct a positive walk within the attempt budget")


def _negative_walk(cfg: ScenarioConfig, rng):
    """The (T, 4) agent track and a (4,) hazard box the walk never collides with."""
    for _ in range(_MAX_ATTEMPTS):
        agent_w = rng.uniform(0.08, 0.12)
        agent_h = rng.uniform(0.08, 0.12)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        direction = np.array([np.cos(theta), np.sin(theta)])
        step = rng.uniform(0.025, 0.04)
        start = np.array([rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)])
        offsets = step * np.arange(cfg.frames_per_video)
        xs = start[0] + direction[0] * offsets + rng.normal(0.0, 0.006, cfg.frames_per_video)
        ys = start[1] + direction[1] * offsets + rng.normal(0.0, 0.006, cfg.frames_per_video)
        if xs.min() < 0.03 or xs.max() > 0.97 or ys.min() < 0.03 or ys.max() > 0.97:
            continue
        hazard = np.array([rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                           agent_w * rng.uniform(0.9, 1.3), agent_h * rng.uniform(0.9, 1.3)])
        track = _track_rows(xs, ys, agent_w, agent_h)
        if not iou(track, hazard).any():
            return track, hazard
    raise GenerationError("could not construct a negative walk within the attempt budget")


def _distractor_regions(cfg: ScenarioConfig, rng):
    """The (n, 4) boxes and the (n,) non-hazard classes of the n = ``n_regions - 1``
    benign regions."""
    n = cfg.n_regions - 1
    rows = rng.uniform(_RANDOM_LO[:4], _RANDOM_HI[:4], size=(n, 4))
    return rows, rng.integers(1, cfg.n_classes, size=n)


def generate_scenario(cfg: ScenarioConfig, positive: bool, *, index: int = 0,
                      split: str = "train") -> VideoSample:
    """Build one deterministic video with features, targets, and proposals."""
    cfg.validate()
    if split not in _SPLIT_TAGS:
        raise ValueError(f"unknown split {split!r}, expected one of {tuple(_SPLIT_TAGS)}")
    rng = _video_rng(cfg, _SPLIT_TAGS[split], index)
    embeddings = class_embeddings(cfg)
    n_frames = cfg.frames_per_video

    if positive:
        track, hazard = _positive_walk(cfg, rng)
    else:
        track, hazard = _negative_walk(cfg, rng)

    distractors, distractor_classes = _distractor_regions(cfg, rng)
    order = rng.permutation(cfg.n_regions)
    region_box = np.vstack((distractors, hazard))[order]
    region_class = np.append(distractor_classes, HAZARD_CLASS)[order]

    agent_feat = synthesize_features(cfg, embeddings, [agent_class_id(cfg)], n_frames, rng)[:, 0]
    region_feat = synthesize_features(cfg, embeddings, region_class, n_frames, rng)
    region_box = np.repeat(region_box[None], n_frames, axis=0)
    proposal_box, proposal_score, proposal_feat = synthesize_proposals(
        cfg, track, region_box, region_class, embeddings, rng)
    return VideoSample(
        video_id=f"{split}-{index:05d}",
        positive=positive,
        t_accident=n_frames - 1 if positive else -1,
        agent_class=agent_class_id(cfg),
        region_class=region_class,
        agent_box=track,
        agent_feat=agent_feat,
        region_box=region_box,
        region_feat=region_feat,
        proposal_box=proposal_box,
        proposal_score=proposal_score,
        proposal_feat=proposal_feat,
        risky_box=np.repeat(hazard[None, None] if positive else np.full((1, 1, 4), np.nan),
                            n_frames, axis=0),
    )


def synthesize_proposals(cfg: ScenarioConfig, agent_box: np.ndarray, region_box: np.ndarray,
                         region_classes, embeddings: np.ndarray, rng) -> tuple:
    """The (T, M, 4) boxes, (T, M) object scores and (T, M, D) features of
    each frame's proposals, given the video's (T, 4) agent boxes and
    (T, N, 4) region boxes: one jittered high-score copy of each true box
    plus random low-score distractor boxes, each carrying a feature of its
    source class.

    A frame takes from ``rng`` one normal draw for all its true boxes (the
    agent's, then the regions'), each row holding four jitters, a score and
    the feature noise; then for each distractor its class, its feature noise
    and the uniforms of its box and score.
    """
    n_frames, n_fake = len(agent_box), cfg.n_distractor_proposals
    true_classes = [agent_class_id(cfg), *region_classes]
    true_z = np.empty((n_frames, len(true_classes), 5 + cfg.feature_dim))
    fake_classes = np.empty((n_frames, n_fake), dtype=np.int64)
    fake_z = np.empty((n_frames, n_fake, cfg.feature_dim))
    fake_u = np.empty((n_frames, n_fake, len(_RANDOM_LO)))
    for t in range(n_frames):
        rng.standard_normal(out=true_z[t])
        for j in range(n_fake):
            fake_classes[t, j] = rng.integers(0, cfg.n_classes)
            rng.standard_normal(out=fake_z[t, j])
            rng.random(out=fake_u[t, j])

    # rng.normal(0, s) and rng.uniform(lo, hi) are 0 + s * z and lo + (hi - lo) * u
    true_boxes = np.concatenate((agent_box[:, None], region_box), axis=1)
    sides = true_boxes[..., 2:]
    jitter = 0.0 + cfg.proposal_jitter * true_z[..., :4]
    fakes = _RANDOM_LO + _RANDOM_SPAN * fake_u
    boxes = np.concatenate((true_boxes[..., :2] + jitter[..., :2] * sides,
                            sides * np.exp(jitter[..., 2:])), axis=-1)
    boxes = np.concatenate((boxes, fakes[..., :4]), axis=1)
    scores = np.concatenate((np.clip(0.9 + (0.0 + 0.05 * true_z[..., 4]), 0.0, 1.0),
                             fakes[..., 4]), axis=1)
    feats = np.concatenate((embeddings[true_classes] + (0.0 + cfg.noise_sigma * true_z[..., 5:]),
                            embeddings[fake_classes] + (0.0 + cfg.noise_sigma * fake_z)), axis=1)
    return boxes, scores, feats


def generate_split(cfg: ScenarioConfig, n_videos: int, split: str) -> Split:
    """Alternating positive/negative videos; an even count is exactly
    balanced. Each is copied into its rows of the split as it is drawn."""
    return Split.of((generate_scenario(cfg, positive=(i % 2 == 0), index=i, split=split)
                     for i in range(n_videos)), n_videos)


def verify_collision_predicate(sample: VideoSample, collision_iou: float) -> bool:
    """Re-check the label against the stored boxes, independent of
    generation. A video without a hazard region collides at no frame."""
    hazards = sample.region_box[0, sample.region_class == HAZARD_CLASS]
    hit = (iou(sample.agent_box[:, None], hazards[None]) > collision_iou).any(axis=1)
    if sample.positive:
        return bool(hit[-1] and not hit[:-1].any())
    return not hit.any()
