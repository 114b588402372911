"""Shared builders for model-level tests: random frames, targets, and stores."""
import numpy as np

from riskrnn.data import FrameInput, RegionSet, VideoTargets
from riskrnn.geometry import Box
from riskrnn.model import ModelConfig, RiskModel

TINY_CONFIG = ModelConfig(d_agent=8, d_region=8, d_u=6, h_agent=8, h_aa=8,
                          horizon=1, imagine_steps=1, lambdas=(0.6, 0.4))


def random_box(rng, lo=0.1, hi=0.9) -> Box:
    return Box(rng.uniform(lo, hi), rng.uniform(lo, hi),
               rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3))


def moderate_box(rng) -> Box:
    """Well-conditioned box for finite-difference fixtures.

    Tiny sides put 1/w^4-scale curvature into the relative-configuration
    terms, which swamps central differences at h = 1e-5; moderate sides keep
    the comparison noise-limited well below the 1e-4 gate.
    """
    return Box(rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7),
               rng.uniform(0.15, 0.35), rng.uniform(0.15, 0.35))


def gradcheck_fixture(rng, cfg: ModelConfig, n_frames: int, n_regions: int,
                      positive: bool):
    """Frames plus targets built from moderate boxes, for gradient checks."""
    frames = []
    for _ in range(n_frames):
        frames.append(FrameInput(
            rng.normal(size=cfg.d_agent),
            moderate_box(rng),
            RegionSet([moderate_box(rng) for _ in range(n_regions)],
                      rng.normal(size=(n_regions, cfg.d_region))),
        ))
    track = [f.agent_box for f in frames]
    if positive:
        targets = VideoTargets(True, n_frames - 1, track,
                               [[moderate_box(rng)] for _ in range(n_frames)])
    else:
        targets = VideoTargets(False, None, track, [[] for _ in range(n_frames)])
    return frames, targets


def random_frames(rng, cfg: ModelConfig, n_frames: int, n_regions: int):
    frames = []
    for _ in range(n_frames):
        frames.append(FrameInput(
            rng.normal(size=cfg.d_agent),
            random_box(rng),
            RegionSet([random_box(rng) for _ in range(n_regions)],
                      rng.normal(size=(n_regions, cfg.d_region))),
        ))
    return frames


def random_targets(rng, frames, positive: bool) -> VideoTargets:
    n = len(frames)
    track = [f.agent_box for f in frames]
    if positive:
        risky = [[random_box(rng)] for _ in range(n)]
        return VideoTargets(True, n - 1, track, risky)
    return VideoTargets(False, None, track, [[] for _ in range(n)])


def tiny_model(seed: int, cfg: ModelConfig = TINY_CONFIG) -> RiskModel:
    return RiskModel.create(cfg, seed)


def zeroed_model(cfg: ModelConfig) -> RiskModel:
    model = RiskModel.create(cfg, seed=0)
    for pm in model.store:
        pm.values[...] = 0.0
    return model
