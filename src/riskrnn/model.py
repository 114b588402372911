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

The input is B sequences over T frames (AgentTracks), each an agent track
over its own video's regions. Every (frame, sequence) pair is one column,
frame-major: column t * B + b is sequence b at frame t, seeing the regions
of sequence b's video at frame t. Eval runs every detected track of one
video as its sequences, all over that video's regions; training runs each
video of a batch on one track, over its own regions. The model never needs
to know whether sequences share a video. The passes run over those columns
(or over the (frame, sequence, region) columns), each a handful of tape
nodes however long the videos are and however many sequences there are:

1. the agent memory: one LSTM sweep over the tracks' appearance and box,
   the B sequences independent;
2. region scoring and pooling over all T x B x N columns;
3. the risk memory: one LSTM sweep over the pooled columns, again B
   sequences, then the anticipation head on all T x B columns;
4. each imagination hop: the box transform, the relative geometry, scoring,
   pooling and one branched LSTM step, for all T x B columns at once.

Only the two memory sweeps (1 and 3) are sequential over time; RA and RAI
have none.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape
from .geometry import MAX_LOG_SCALE, RELATIVE_CONFIG_DIM
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
    """One assessment of every column, as tape nodes: the (2, C)
    (non-accident, accident) distributions and the (C, N) region scores,
    C = T * B (frame, sequence) columns, frame-major. The ``y`` and ``s``
    arrays have a row per column: (C, 2) and (C, N)."""

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
    """The observed assessment, the fused (C, 2) and (C, N) outputs,
    one more assessment per imagination hop, and the first hop's (4, C) box
    transforms ``c_node`` (None without imagination). The nodes are kept for
    loss construction."""

    y_fused: np.ndarray
    s_fused: np.ndarray
    imagined: list
    c_node: Node | None


class VideoRegions:
    """The candidate regions of every frame of a video, from its (T, N, 4)
    boxes and (T, N, D) appearances: the boxes ``xywh``, the (T, N) box
    arrays ``cx``, ``cy``, ``w``, ``h``, ``x1``, ``y1``, ``x2``, ``y2`` and
    ``area`` that ad.relative_config reads, and the (D, T, N) appearances
    ``feats``. ``interleave`` joins the regions of several videos as rows of
    (frame, sequence) columns, the layout the model reads."""

    __slots__ = ("n", "xywh", "feats", "cx", "cy", "w", "h", "x1", "y1", "x2", "y2", "area")

    def __init__(self, xywh: np.ndarray, feats: np.ndarray):
        if len(xywh) == 0:
            raise ValueError("a video needs at least one frame")
        self._set(xywh, np.ascontiguousarray(np.moveaxis(feats, 2, 0)))

    def _set(self, xywh: np.ndarray, feats: np.ndarray) -> None:
        self.n = xywh.shape[1]
        self.xywh, self.feats = xywh, feats
        cx, cy, w, h = np.moveaxis(xywh, 2, 0).copy()
        self.cx, self.cy, self.w, self.h = cx, cy, w, h
        self.x1, self.y1 = cx - 0.5 * w, cy - 0.5 * h
        self.x2, self.y2 = cx + 0.5 * w, cy + 0.5 * h
        self.area = w * h

    def __len__(self) -> int:
        return self.xywh.shape[0]

    @classmethod
    def interleave(cls, videos) -> "VideoRegions":
        """The regions of B videos with one T and one N, one row per (frame,
        sequence) column: row t * B + b holds frame t of ``videos[b]``."""
        out = object.__new__(cls)
        out._set(frame_major([v.xywh for v in videos], 0),
                 frame_major([v.feats for v in videos], 1))
        return out


def frame_major(arrays, axis: int) -> np.ndarray:
    """B arrays of one shape, T frames along ``axis``, joined along it as
    the T * B (frame, sequence) columns of the model: entry t * B + b is
    ``arrays[b]`` at frame t."""
    shape = list(arrays[0].shape)
    shape[axis] = -1
    return np.stack(arrays, axis=axis + 1).reshape(shape)


class AgentTracks:
    """The model input: B agent sequences over T frames. ``feats`` holds
    the (D, T, B) agent appearances and ``boxes`` the (4, T, B) agent boxes
    as (cx, cy, w, h) rows; entry (t, b) is sequence b at frame t.
    ``regions`` has a row per (frame, sequence) column, t * B + b, holding
    the regions sequence b sees at frame t. ``len()`` is T."""

    __slots__ = ("feats", "boxes", "regions")

    def __init__(self, feats: np.ndarray, boxes: np.ndarray, regions: VideoRegions):
        feats = np.ascontiguousarray(feats, dtype=np.float64)
        boxes = np.ascontiguousarray(boxes, dtype=np.float64)
        if feats.ndim != 3 or boxes.shape != (4,) + feats.shape[1:]:
            raise ValueError(f"agent features {feats.shape} and boxes {boxes.shape} are not "
                             f"(D, T, B) and (4, T, B)")
        if feats.shape[1] * feats.shape[2] != len(regions):
            raise ValueError(f"{feats.shape[2]} sequences of {feats.shape[1]} frames need a "
                             f"row of regions per column, got {len(regions)} rows")
        self.feats, self.boxes, self.regions = feats, boxes, regions

    def __len__(self) -> int:
        return self.feats.shape[1]


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
# model stages, each over every (frame, sequence) column at once

def score_regions(tape: Tape, store: ParameterStore, agent_code: Node,
                  u: Node, regions: VideoRegions) -> Node:
    """(C, N) risk scores of every region of every column.

    Each (column, region) pair of the (9, C, N) geometry is embedded, joined
    with that column of the (A, C) agent code, and mapped to a weight
    vector whose dot product with the region's appearance is squashed to a
    probability. ``regions`` has one row per column.
    """
    u_cols = ad.reshape(u, (u.value.shape[0], -1))
    embedded = ad.relu(dense(tape, store["geom_fc_W"], u_cols, store["geom_fc_b"]))
    joined = ad.concat([ad.repeat_cols(agent_code, regions.n), embedded])
    weights = ad.relu(dense(tape, store["scorer_fc_W"], joined, store["scorer_fc_b"]))
    feats = tape.const(regions.feats.reshape(weights.value.shape))
    logits = ad.reshape(ad.vsum(weights * feats, axis=0), u.value.shape[1:])
    return ad.sigmoid(logits)


def pool_regions(tape: Tape, scores: Node, regions: VideoRegions) -> Node:
    """(D, C): per column, the risk-weighted sum of its region appearances."""
    return ad.vsum(tape.const(regions.feats) * scores, axis=2)


def agent_rnn_step(tape: Tape, store: ParameterStore, inputs: np.ndarray) -> LstmState:
    """The agent memory: one sweep over the (d_agent + 4, T, B) appearances
    and boxes of B independent sequences; returns (H, T * B) states,
    frame-major."""
    rows, _, sequences = inputs.shape
    return lstm_sweep(tape, store["agent_rnn_W"], store["agent_rnn_b"],
                      tape.const(inputs.reshape(rows, -1)), sequences)


def anticipate_step(tape: Tape, store: ParameterStore, cfg: ModelConfig,
                    state: LstmState | None, agent_code: Node, pooled: Node,
                    sequences: int = 1):
    """Anticipation for every column; returns (state, holistic code, (2, C) probabilities).

    With memory, ``state=None`` runs the risk memory over the C = T * B
    frame-major columns as ``sequences`` = B sequences from a zero state, while
    a given state (one per column) advances each column by one branched step.
    """
    q = ad.concat([agent_code, pooled])
    if cfg.use_memory:
        weight, bias = store["risk_rnn_W"], store["risk_rnn_b"]
        if state is None:
            state = lstm_sweep(tape, weight, bias, q, sequences)
        else:
            state = lstm_step(tape, weight, bias, q, state)
        o = state.hidden
    else:
        o = q
    y = ad.softmax(ad.matmul(tape.param(store["accident_head_W"]), o))
    return state, o, y


def imagine_location(tape: Tape, store: ParameterStore, o: Node, boxes: Node):
    """Regress the (4, C) transforms taking each column's box to the imagined one."""
    c = ad.matmul(tape.param(store["imagine_head_W"]), o)
    largest = np.abs(c.value[2:4]).max()
    if largest > MAX_LOG_SCALE:
        raise ValueError(f"log size ratios out of range: |{largest}| > {MAX_LOG_SCALE}")
    return c, ad.apply_box_transform(boxes, c)


def imagined_reassessment(tape: Tape, store: ParameterStore, cfg: ModelConfig,
                          agent_code: Node, state: LstmState | None,
                          o_prev: Node, boxes: Node, regions: VideoRegions):
    """One imagination hop for every column: move the agent, re-score the
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


def forward_video(store: ParameterStore, cfg: ModelConfig, frames: AgentTracks,
                  tape: Tape) -> ModelOutput:
    """Run the configured variant over B agent sequences of T frames.

    Every (frame, sequence) pair is a column, t * B + b, with its own row of
    ``frames.regions``, so all sequences run as passes at once: the agent
    memory sweep, region scoring and pooling over all T x B x N columns, the
    risk memory sweep with the anticipation head, and each imagination hop.
    Only the two memory sweeps are sequential, each over B independent
    sequences.
    Imagination branches from the risk state of each column, so observed
    outputs are identical with it on or off. The outputs have T * B columns.
    """
    d_agent, _, sequences = frames.feats.shape
    if d_agent != cfg.d_agent:
        raise ValueError(f"agent feature dim {d_agent} != {cfg.d_agent}")
    if frames.regions.feats.shape[0] != cfg.d_region:
        raise ValueError(f"region feature dim {frames.regions.feats.shape[0]} "
                         f"!= {cfg.d_region}")
    boxes = tape.const(frames.boxes.reshape(4, -1))
    if cfg.use_memory:
        agent_code = agent_rnn_step(tape, store,
                                    np.concatenate([frames.feats, frames.boxes])).hidden
    else:
        agent_code = tape.const(frames.feats.reshape(d_agent, -1))

    s = score_regions(tape, store, agent_code, ad.relative_config(boxes, frames.regions),
                      frames.regions)
    pooled = pool_regions(tape, s, frames.regions)
    state, o, y = anticipate_step(tape, store, cfg, None, agent_code, pooled, sequences)

    imagined = []
    c_first = None
    for _ in range(cfg.imagine_steps):
        c, boxes, y_hat, s_hat, state, o = imagined_reassessment(
            tape, store, cfg, agent_code, state, o, boxes, frames.regions)
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

    def forward_video(self, frames: AgentTracks, tape: Tape | None = None) -> ModelOutput:
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
