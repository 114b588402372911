"""Risk-assessment network: dynamic region scoring, twin recurrent memories,
and recursive future-location imagination.

Per frame the model sees the agent (appearance vector + box) and N candidate
regions (appearance vectors + boxes). A small hypernetwork turns the agent
state and each region's relative geometry into per-region classifier weights,
whose dot product with the region appearance gives a risk score. Risk-weighted
region pooling plus the agent state feed an anticipation head that outputs a
(non-accident, accident) distribution. With imagination enabled, the model
regresses its own box a fixed number of frames ahead, re-scores every region
from the imagined position without touching the committed recurrent state,
and fuses observed and imagined outputs as a convex combination.

Four ablation variants are supported: RA (single frame), RAI (adds
imagination), L-RA (adds the two LSTMs), and L-RAI (everything).

A video runs as whole-video passes with one column per frame (or per frame
and region), each a handful of tape nodes however long the video is:

1. the agent memory: one LSTM sweep over the frames' appearance and box;
2. region scoring and pooling over all T x N (frame, region) columns;
3. the risk memory: one LSTM sweep over the pooled frames, then the
   anticipation head on all T columns;
4. each imagination hop: the box transform, the relative geometry, scoring,
   pooling and one branched LSTM step, for all T frames at once.

Only the two memory sweeps (1 and 3) are sequential over time; RA and RAI
have none.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape
from .geometry import MAX_LOG_SCALE, RELATIVE_CONFIG_DIM, stack_boxes
from .nn import (LstmState, ParameterStore, dense, init_params, load_params,
                 lstm_step, lstm_sweep, parse_config_value, save_params)

VARIANTS = ("RA", "RAI", "L-RA", "L-RAI")


@dataclass
class ModelConfig:
    d_agent: int = 32
    d_region: int = 32
    d_u: int = 16
    h_agent: int = 64
    h_aa: int = 64
    horizon: int = 5        # frames jumped per imagination step
    imagine_steps: int = 1
    lambdas: tuple = (0.6, 0.4)
    use_memory: bool = True
    use_imagination: bool = True

    def validate(self) -> None:
        dims = (self.d_agent, self.d_region, self.d_u, self.h_agent, self.h_aa)
        if any(d < 1 for d in dims):
            raise ValueError(f"model dims must be >= 1, got {dims}")
        if self.horizon < 1:
            raise ValueError(f"imagination horizon must be >= 1, got {self.horizon}")
        if self.use_imagination:
            if self.imagine_steps < 1:
                raise ValueError("imagination enabled but imagine_steps < 1")
        elif self.imagine_steps != 0:
            raise ValueError("imagine_steps must be 0 when imagination is off")
        lam = np.asarray(self.lambdas, dtype=np.float64)
        if lam.shape[0] != self.imagine_steps + 1:
            raise ValueError(
                f"need {self.imagine_steps + 1} fusion weights, got {lam.shape[0]}"
            )
        if np.any(lam < 0.0) or abs(lam.sum() - 1.0) > 1e-9:
            raise ValueError(f"fusion weights must be non-negative and sum to 1, got {self.lambdas}")

    @property
    def agent_code_dim(self) -> int:
        return self.h_agent if self.use_memory else self.d_agent

    @property
    def q_dim(self) -> int:
        return self.agent_code_dim + self.d_region

    @property
    def o_dim(self) -> int:
        return self.h_aa if self.use_memory else self.q_dim

    @property
    def variant(self) -> str:
        name = "RAI" if self.use_imagination else "RA"
        return ("L-" + name) if self.use_memory else name


def variant_config(base: ModelConfig, variant: str) -> ModelConfig:
    """Derive an ablation config (RA / RAI / L-RA / L-RAI) from a base config."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    use_memory = variant.startswith("L-")
    use_imagination = variant.endswith("I")
    cfg = replace(base, use_memory=use_memory, use_imagination=use_imagination)
    if not use_imagination:
        cfg = replace(cfg, imagine_steps=0, lambdas=(1.0,))
    cfg.validate()
    return cfg


@dataclass
class Assessment:
    """One assessment of every frame of a video, as tape nodes: the (2, T)
    (non-accident, accident) distributions and the (T, N) region scores.
    The ``y`` and ``s`` arrays are frame-major: (T, 2) and (T, N)."""

    y_node: Node
    s_node: Node

    @property
    def y(self) -> np.ndarray:
        return self.y_node.value.T.copy()

    @property
    def s(self) -> np.ndarray:
        return self.s_node.value.copy()


@dataclass
class ModelOutput(Assessment):
    """A video's observed assessment, the fused (T, 2) and (T, N) outputs,
    one more assessment per imagination hop, and the first hop's (4, T) box
    transforms ``c_node`` (None without imagination). The nodes are kept for
    loss construction."""

    y_fused: np.ndarray
    s_fused: np.ndarray
    imagined: list
    c_node: Node | None


class VideoRegions:
    """The candidate regions of every frame of a video, stacked: the (N,)
    box arrays of each frame's data.RegionSet become (T, N) arrays ``cx``,
    ``cy``, ``w``, ``h``, ``x1``, ``y1``, ``x2``, ``y2`` and ``area``, and
    its appearances the (D, T, N) matrix ``feats``. The region passes need
    one N for the whole video."""

    BOX_ARRAYS = ("cx", "cy", "w", "h", "x1", "y1", "x2", "y2", "area")
    __slots__ = ("n", "feats") + BOX_ARRAYS

    def __init__(self, region_sets):
        self.n = len(region_sets[0])
        for t, regions in enumerate(region_sets):
            if len(regions) != self.n:
                raise ValueError(f"frame {t} has {len(regions)} regions and frame 0 "
                                 f"has {self.n}; a video needs one region count")
        for name in self.BOX_ARRAYS:
            setattr(self, name, np.stack([getattr(r, name) for r in region_sets]))
        self.feats = np.stack([r.feats_t for r in region_sets], axis=1)


# ---------------------------------------------------------------------------
# parameter construction

def param_specs(cfg: ModelConfig):
    specs = [
        ("geom_fc_W", cfg.d_u, RELATIVE_CONFIG_DIM),
        ("geom_fc_b", cfg.d_u, 1),
        ("scorer_fc_W", cfg.d_region, cfg.agent_code_dim + cfg.d_u),
        ("scorer_fc_b", cfg.d_region, 1),
        ("accident_head_W", 2, cfg.o_dim),
    ]
    if cfg.use_imagination:
        specs.append(("imagine_head_W", 4, cfg.o_dim))
    if cfg.use_memory:
        specs.extend([
            ("agent_rnn_W", 4 * cfg.h_agent, cfg.d_agent + 4 + cfg.h_agent),
            ("agent_rnn_b", 4 * cfg.h_agent, 1),
            ("risk_rnn_W", 4 * cfg.h_aa, cfg.q_dim + cfg.h_aa),
            ("risk_rnn_b", 4 * cfg.h_aa, 1),
        ])
    return specs


# ---------------------------------------------------------------------------
# model stages, each over every frame of a video at once

def score_regions(tape: Tape, store: ParameterStore, agent_code: Node,
                  u: Node, regions: VideoRegions) -> Node:
    """(T, N) risk scores of every region of every frame.

    Each (frame, region) column of the (9, T, N) geometry is embedded, joined
    with that frame's column of the (A, T) agent code, and mapped to a weight
    vector whose dot product with the region's appearance is squashed to a
    probability.
    """
    u_cols = ad.reshape(u, (u.value.shape[0], -1))
    embedded = ad.relu(dense(tape, store["geom_fc_W"], u_cols, store["geom_fc_b"]))
    joined = ad.concat([ad.repeat_cols(agent_code, regions.n), embedded])
    weights = ad.relu(dense(tape, store["scorer_fc_W"], joined, store["scorer_fc_b"]))
    feats = tape.const(regions.feats.reshape(weights.value.shape))
    logits = ad.reshape(ad.vsum(weights * feats, axis=0), u.value.shape[1:])
    return ad.sigmoid(logits)


def pool_regions(tape: Tape, scores: Node, regions: VideoRegions) -> Node:
    """(D, T): per frame, the risk-weighted sum of its region appearances."""
    return ad.vsum(tape.const(regions.feats) * scores, axis=2)


def agent_rnn_step(tape: Tape, store: ParameterStore, inputs: np.ndarray) -> LstmState:
    """The agent memory over the video: one sweep over the (d_agent + 4, T)
    columns of appearance and normalized box."""
    return lstm_sweep(tape, store["agent_rnn_W"], store["agent_rnn_b"], tape.const(inputs))


def anticipate_step(tape: Tape, store: ParameterStore, cfg: ModelConfig,
                    state: LstmState | None, agent_code: Node, pooled: Node):
    """Anticipation for every frame; returns (state, holistic code, (2, T) probabilities).

    With memory, ``state=None`` runs the risk memory over the T columns as a
    sequence from a zero state, while a given state (a column per frame)
    advances each column by one branched step.
    """
    q = ad.concat([agent_code, pooled])
    if cfg.use_memory:
        weight, bias = store["risk_rnn_W"], store["risk_rnn_b"]
        if state is None:
            state = lstm_sweep(tape, weight, bias, q)
        else:
            state = lstm_step(tape, weight, bias, q, state)
        o = state.hidden
    else:
        o = q
    y = ad.softmax(ad.matmul(tape.param(store["accident_head_W"]), o))
    return state, o, y


def imagine_location(tape: Tape, store: ParameterStore, o: Node, boxes: Node):
    """Regress the (4, T) transforms taking each frame's box to the imagined one."""
    c = ad.matmul(tape.param(store["imagine_head_W"]), o)
    largest = np.abs(c.value[2:4]).max()
    if largest > MAX_LOG_SCALE:
        raise ValueError(f"log size ratios out of range: |{largest}| > {MAX_LOG_SCALE}")
    return c, ad.apply_box_transform(boxes, c)


def imagined_reassessment(tape: Tape, store: ParameterStore, cfg: ModelConfig,
                          agent_code: Node, state: LstmState | None,
                          o_prev: Node, boxes: Node, regions: VideoRegions):
    """One imagination hop for every frame: move the agent, re-score the
    unchanged regions.

    The recurrent state advances on a branched copy only; the caller's
    committed state is never mutated.
    """
    c, new_boxes = imagine_location(tape, store, o_prev, boxes)
    u_hat = ad.relative_config(new_boxes, regions)
    s_hat = score_regions(tape, store, agent_code, u_hat, regions)
    pooled = pool_regions(tape, s_hat, regions)
    new_state, new_o, y_hat = anticipate_step(tape, store, cfg, state, agent_code, pooled)
    return c, new_boxes, y_hat, s_hat, new_state, new_o


def fuse_predictions(y: np.ndarray, s: np.ndarray, imagined_ys, imagined_ss, lambdas):
    """Convex combination of observed and imagined outputs."""
    lam = np.asarray(lambdas, dtype=np.float64)
    y_fused = lam[0] * y
    s_fused = lam[0] * s
    for weight, y_hat, s_hat in zip(lam[1:], imagined_ys, imagined_ss):
        y_fused = y_fused + weight * y_hat
        s_fused = s_fused + weight * s_hat
    return y_fused, s_fused


def forward_video(store: ParameterStore, cfg: ModelConfig, frames,
                  tape: Tape) -> ModelOutput:
    """Run the configured variant over a frame sequence.

    Every frame is a column, so the video runs as whole-video passes: the
    agent memory sweep, region scoring and pooling over all T x N (frame,
    region) columns, the risk memory sweep with the anticipation head, and
    each imagination hop for all frames at once. Only the two memory sweeps
    are sequential. Imagination branches from the risk state of each frame,
    so observed outputs are identical with it on or off.
    """
    if len(frames) == 0:
        raise ValueError("cannot run forward on an empty video")
    for t, frame in enumerate(frames):
        if frame.agent_feat.shape != (cfg.d_agent,):
            raise ValueError(f"frame {t}: agent feature shape {frame.agent_feat.shape} "
                             f"!= ({cfg.d_agent},)")
        if frame.regions.feats.shape[1] != cfg.d_region:
            raise ValueError(f"frame {t}: region feature dim "
                             f"{frame.regions.feats.shape[1]} != {cfg.d_region}")
    regions = VideoRegions([frame.regions for frame in frames])
    feats = np.stack([frame.agent_feat for frame in frames], axis=1)
    boxes = tape.const(stack_boxes(frame.agent_box for frame in frames).T)
    if cfg.use_memory:
        agent_code = agent_rnn_step(tape, store, np.concatenate([feats, boxes.value])).hidden
    else:
        agent_code = tape.const(feats)

    s = score_regions(tape, store, agent_code, ad.relative_config(boxes, regions), regions)
    pooled = pool_regions(tape, s, regions)
    state, o, y = anticipate_step(tape, store, cfg, None, agent_code, pooled)

    imagined = []
    c_first = None
    for _ in range(cfg.imagine_steps):
        c, boxes, y_hat, s_hat, state, o = imagined_reassessment(
            tape, store, cfg, agent_code, state, o, boxes, regions)
        c_first = c if c_first is None else c_first
        imagined.append(Assessment(y_hat, s_hat))

    y_fused, s_fused = fuse_predictions(
        y.value.T, s.value, [a.y for a in imagined], [a.s for a in imagined], cfg.lambdas)
    return ModelOutput(y_node=y, s_node=s, imagined=imagined, c_node=c_first,
                       y_fused=y_fused, s_fused=s_fused)


# ---------------------------------------------------------------------------

class RiskModel:
    """A config plus its parameter store, with save/load."""

    def __init__(self, cfg: ModelConfig, store: ParameterStore):
        cfg.validate()
        self.cfg = cfg
        self.store = store

    @classmethod
    def create(cls, cfg: ModelConfig, seed: int) -> "RiskModel":
        cfg.validate()
        return cls(cfg, init_params(param_specs(cfg), seed))

    def forward_video(self, frames, tape: Tape | None = None) -> ModelOutput:
        if tape is None:
            tape = Tape(train=False)
        return forward_video(self.store, self.cfg, frames, tape)

    def save(self, path) -> None:
        header = {"variant": self.cfg.variant}
        header.update((f.name, getattr(self.cfg, f.name)) for f in fields(ModelConfig))
        save_params(path, self.store, header)

    @classmethod
    def load(cls, path) -> "RiskModel":
        """Read a model file; its parameters must be the ones its config needs."""
        store, raw = load_params(path)
        values = {}
        for f in fields(ModelConfig):
            if f.name not in raw:
                raise ValueError(f"{path}: missing config key {f.name!r}")
            try:
                values[f.name] = parse_config_value(f.type, raw[f.name])
            except ValueError as err:
                raise ValueError(f"{path}: {err} for key {f.name!r}") from None
        cfg = ModelConfig(**values)
        expected = {name: (rows, cols) for name, rows, cols in param_specs(cfg)}
        found = {pm.name: pm.values.shape for pm in store}
        if found != expected:
            raise ValueError(f"{path}: parameters {found} are not the {expected} "
                             f"its {cfg.variant} config needs")
        return cls(cfg, store)
