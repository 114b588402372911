"""Shared builders for model-level tests: random videos as arrays, the
model input, stores, a differentiable leaf, and the finite-difference
gradient check."""
import dataclasses

import numpy as np

from riskrnn.autodiff import Node, Tape
from riskrnn.data import VideoSample
from riskrnn.model import AgentTracks, ModelConfig, RiskModel
from riskrnn.nn import ParameterStore
from riskrnn.training import stack_regions, track_inputs

TINY_CONFIG = ModelConfig(d_agent=8, d_region=8, d_u=6, h_agent=8, h_aa=8,
                          horizon=1, imagine_steps=1, lambdas=(0.6, 0.4))


def random_box(rng, lo=0.1, hi=0.9) -> np.ndarray:
    """A (cx, cy, w, h) row."""
    return np.array([rng.uniform(lo, hi), rng.uniform(lo, hi),
                     rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3)])


def moderate_box(rng) -> np.ndarray:
    """Well-conditioned box for finite-difference fixtures.

    Tiny sides put 1/w^4-scale curvature into the relative-configuration
    terms, which swamps central differences at h = 1e-5; moderate sides keep
    the comparison noise-limited well below the 1e-4 gate.
    """
    return np.array([rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7),
                     rng.uniform(0.15, 0.35), rng.uniform(0.15, 0.35)])


def video(agent_box, agent_feat, region_box, region_feat, t_accident=-1, risky_box=None,
          video_id="video") -> VideoSample:
    """A video of the given (T, 4) agent boxes, (T, D) agent features,
    (T, N, 4) region boxes and (T, N, D) region features, without
    proposals; positive when ``t_accident`` is a frame. ``risky_box``
    defaults to no risky box, (T, 0, 4)."""
    agent_box, region_box = np.asarray(agent_box, dtype=np.float64), np.asarray(region_box)
    n_frames, n_regions = region_box.shape[:2]
    return VideoSample(
        video_id=video_id, positive=t_accident >= 0, t_accident=t_accident, agent_class=0,
        region_class=np.zeros(n_regions, dtype=np.int64), agent_box=agent_box,
        agent_feat=np.asarray(agent_feat), region_box=region_box,
        region_feat=np.asarray(region_feat), proposal_box=np.empty((n_frames, 0, 4)),
        proposal_score=np.empty((n_frames, 0)), proposal_feat=np.empty((n_frames, 0, 1)),
        risky_box=np.empty((n_frames, 0, 4)) if risky_box is None else np.asarray(risky_box))


def random_video(rng, cfg: ModelConfig, n_frames: int, n_regions: int,
                 box=random_box) -> VideoSample:
    """A negative video of random boxes and features, drawn frame by frame:
    the agent's feature and box, then the regions' boxes and features."""
    frames = [(rng.normal(size=cfg.d_agent), box(rng), [box(rng) for _ in range(n_regions)],
               rng.normal(size=(n_regions, cfg.d_region))) for _ in range(n_frames)]
    agent_feat, agent_box, region_box, region_feat = map(np.array, zip(*frames))
    return video(agent_box, agent_feat, region_box, region_feat)


def random_targets(rng, sample: VideoSample, positive: bool, box=random_box) -> VideoSample:
    """The video, positive with an accident at its last frame and one random
    risky box per frame, or negative."""
    if not positive:
        return sample
    risky = np.array([[box(rng)] for _ in range(sample.n_frames)])
    return dataclasses.replace(sample, positive=True, t_accident=sample.n_frames - 1,
                               risky_box=risky)


def padded_negative(sample: VideoSample) -> VideoSample:
    """The negative video with one all-NaN risky row a frame, the padding of
    a split whose positives have one risky box a frame."""
    return dataclasses.replace(sample, risky_box=np.full((sample.n_frames, 1, 4), np.nan))


def gradcheck_fixture(rng, cfg: ModelConfig, n_frames: int, n_regions: int,
                      positive: bool) -> VideoSample:
    """A video built from moderate boxes, for gradient checks."""
    return random_targets(rng, random_video(rng, cfg, n_frames, n_regions, moderate_box),
                          positive, moderate_box)


def agent_tracks(*videos) -> AgentTracks:
    """The model input of B sequences, each a video's annotated agent track
    over its own regions, built by training.track_inputs."""
    return track_inputs([v.agent_box for v in videos], [v.agent_feat for v in videos],
                        stack_regions(videos), np.arange(len(videos)))


def leaf(tape: Tape, value) -> Node:
    """A differentiable input that is not a stored parameter."""
    node = Node(tape, np.asarray(value, dtype=np.float64), tape.train)
    if node.requires_grad:
        tape.nodes.append(node)
    return node


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
