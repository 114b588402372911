"""Shared builders for model-level tests: random frames, targets, stores,
the model input and the loss targets, and the finite-difference gradient
check."""
import numpy as np

from riskrnn.data import FrameInput, RegionSet, VideoTargets
from riskrnn.geometry import Box, stack_boxes
from riskrnn.losses import SequenceTargets
from riskrnn.model import AgentTracks, ModelConfig, RiskModel, VideoRegions
from riskrnn.nn import ParameterStore
from riskrnn.tracking import Track
from riskrnn.training import track_inputs

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


def video_regions(frames) -> VideoRegions:
    return VideoRegions([frame.regions for frame in frames])


def agent_tracks(*tracks) -> AgentTracks:
    """The model input of B sequences, each a list of FrameInput over T
    frames playing the agent over its own frames' regions, built as
    training.track_inputs builds it: K tracks of one video share its
    RegionSets, B videos of a batch have their own."""
    agents = [Track(stack_boxes(frame.agent_box for frame in track),
                    np.array([frame.agent_feat for frame in track]), np.ones(len(track)))
              for track in tracks]
    return track_inputs(agents, [video_regions(track) for track in tracks])


def loss_targets(frames, targets: VideoTargets, horizon: int,
                 time_scale: float = 1.0) -> SequenceTargets:
    """The loss targets of a video of FrameInput."""
    return SequenceTargets.of(targets, video_regions(frames), horizon, time_scale)


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


def finite_diff_check(store: ParameterStore, make_loss, h: float = 1e-5) -> float:
    """Worst relative disagreement between tape gradients and central differences.

    ``make_loss`` rebuilds the forward pass from the store's current values
    and returns (tape, scalar loss node); it must be deterministic. Relative
    error uses a small denominator floor so near-zero gradients are compared
    absolutely.
    """
    store.grad.fill(0.0)
    tape, loss = make_loss()
    tape.backward(loss)
    analytic = {pm.name: pm.grad.copy() for pm in store}
    store.grad.fill(0.0)

    def loss_value() -> float:
        return float(make_loss()[1].value)

    worst = 0.0
    for pm in store:
        values = pm.values
        flat = values.reshape(-1)
        for idx in range(flat.shape[0]):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_value()
            flat[idx] = orig - h
            down = loss_value()
            flat[idx] = orig
            numeric = (up - down) / (2.0 * h)
            a = analytic[pm.name].reshape(-1)[idx]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-5)
            worst = max(worst, err)
    return worst
