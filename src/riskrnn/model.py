"""Risk-assessment network: dynamic region scoring, twin recurrent memories,
and recursive future-location imagination.

Per frame the model sees the agent (appearance vector + box) and N candidate
regions (appearance vectors + boxes). A small hypernetwork turns the agent
state and each region's relative geometry into per-region classifier weights,
whose dot product with the region appearance gives a risk score. Risk-weighted
region pooling plus the agent state feed an anticipation head that outputs a
(non-accident, accident) distribution. With imagination enabled, the model
regresses its own box a fixed number of frames ahead and assesses the
unchanged regions again from the imagined position, branching from the
committed recurrent state without touching it. Each assessment is one level:
the observed one, then one per imagination hop. The fused outputs are their
convex combination.

Four ablation variants are supported: RA (single frame), RAI (adds
imagination), L-RA (adds the two LSTMs), and L-RAI (everything).

The input is B sequences over T frames (AgentTracks), each an agent track
over its own video's regions, held as the four arrays the passes read: the
agents' appearances and boxes, and the regions' boxes and appearances. Every
(frame, sequence) pair is one column, frame-major: column t * B + b is
sequence b at frame t, seeing the regions of sequence b's video at frame t
(``frame_major`` lays sequences out so). Eval runs every detected track of
one video as its sequences, all over that video's regions; training runs
each video of a batch on one track, over its own regions. The model never
needs to know whether sequences share a video. The passes run over those columns
(or over the (frame, sequence, region) columns), each a handful of tape
nodes however long the videos are and however many sequences there are:

1. the agent memory: one ``lstm_step`` sweep over the frame-major columns
   of the tracks' appearance and box, the B sequences independent;
2. the observed level: region scoring and pooling over all T x B x N columns;
3. the risk memory: one ``lstm_step`` sweep over the pooled columns, again
   B sequences, then the anticipation head on all T x B columns;
4. each imagination hop, one more level: the box transform, then passes 2
   and 3 from the moved boxes, where ``lstm_step`` from the last level's
   state steps all T x B columns once, branched, in place of the sweep.

Only the two memory sweeps (1 and 3) are sequential over time; RA and RAI
have none.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape
from .geometry import MAX_LOG_SCALE, RELATIVE_CONFIG_DIM
from .nn import (ParameterStore, dense, init_params, load_params, lstm_step,
                 parse_config_value, save_params)

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
class ModelOutput:
    """The model's assessments of C = T * B (frame, sequence) columns,
    frame-major. ``levels`` holds, as tape nodes, each level's (2, C)
    (non-accident, accident) distributions and (C, N) region scores: the
    observed level, then one per imagination hop. ``c_node`` holds the first
    hop's (4, C) box transforms (None without imagination), and ``lambdas``
    one fusion weight per level. ``y`` (C, 2) and ``s`` (C, N) are the fused
    outputs, the weighted sum of the levels in level order."""

    levels: list
    c_node: Node | None
    lambdas: tuple

    def _fused(self, part: int) -> np.ndarray:
        return sum(weight * level[part].value
                   for weight, level in zip(self.lambdas, self.levels, strict=True))

    @property
    def y(self) -> np.ndarray:
        return self._fused(0).T

    @property
    def s(self) -> np.ndarray:
        return self._fused(1)


def frame_major(arrays, axis: int) -> np.ndarray:
    """B arrays of one shape, T frames along ``axis``, joined along it as
    the T * B (frame, sequence) columns of the model: entry t * B + b is
    ``arrays[b]`` at frame t."""
    shape = list(arrays[0].shape)
    shape[axis] = -1
    return np.stack(arrays, axis=axis + 1).reshape(shape)


class AgentTracks:
    """The model input: B agent sequences over T frames, over C = T * B
    (frame, sequence) columns. ``feats`` holds the (D, T, B) agent
    appearances and ``boxes`` the (4, T, B) agent boxes as (cx, cy, w, h)
    rows; entry (t, b) is sequence b at frame t. ``region_boxes`` (C, N, 4)
    and ``region_feats`` (D, C, N) hold, at column t * B + b, the regions
    sequence b sees at frame t. ``len()`` is T."""

    __slots__ = ("feats", "boxes", "region_boxes", "region_feats")

    def __init__(self, feats, boxes, region_boxes, region_feats):
        feats, boxes, region_boxes, region_feats = (
            np.ascontiguousarray(a, dtype=np.float64)
            for a in (feats, boxes, region_boxes, region_feats))
        if feats.ndim != 3 or boxes.shape != (4,) + feats.shape[1:]:
            raise ValueError(f"agent features {feats.shape} and boxes {boxes.shape} are not "
                             f"(D, T, B) and (4, T, B)")
        if feats.shape[1] == 0:
            raise ValueError("a video needs at least one frame")
        columns = feats.shape[1] * feats.shape[2]
        n_regions = region_boxes.shape[1] if region_boxes.ndim == 3 else None
        if (region_boxes.shape != (columns, n_regions, 4)
                or region_feats.shape[1:] != (columns, n_regions)):
            raise ValueError(f"{feats.shape[2]} sequences of {feats.shape[1]} frames need "
                             f"(C, N, 4) region boxes and (D, C, N) region features with "
                             f"C = {columns}, got {region_boxes.shape} and {region_feats.shape}")
        self.feats, self.boxes = feats, boxes
        self.region_boxes, self.region_feats = region_boxes, region_feats

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
                  u: Node, region_feats: np.ndarray) -> Node:
    """(C, N) risk scores of every region of every column.

    Each (column, region) pair of the (9, C, N) geometry is embedded, joined
    with that column of the (A, C) agent code, and mapped to a weight
    vector whose dot product with the region's appearance is squashed to a
    probability. ``region_feats`` holds the (D, C, N) region appearances.
    """
    u_cols = ad.reshape(u, (u.value.shape[0], -1))
    embedded = ad.relu(dense(tape, store["geom_fc_W"], u_cols, store["geom_fc_b"]))
    joined = ad.concat([ad.repeat_cols(agent_code, region_feats.shape[2]), embedded])
    weights = ad.relu(dense(tape, store["scorer_fc_W"], joined, store["scorer_fc_b"]))
    feats = tape.const(region_feats.reshape(weights.value.shape))
    logits = ad.reshape(ad.vsum(weights * feats, axis=0), u.value.shape[1:])
    return ad.sigmoid(logits)


def pool_regions(tape: Tape, scores: Node, region_feats: np.ndarray) -> Node:
    """(D, C): per column, the risk-weighted sum of its (D, N) region appearances."""
    return ad.vsum(tape.const(region_feats) * scores, axis=2)


def agent_rnn_step(tape: Tape, store: ParameterStore, inputs: np.ndarray) -> tuple[Node, Node]:
    """The agent memory: one sweep over the (d_agent + 4, T, B) appearances
    and boxes of B independent sequences; returns the (hidden, cell) states,
    each (H, T * B) and frame-major."""
    rows, _, sequences = inputs.shape
    return lstm_step(tape, store["agent_rnn_W"], store["agent_rnn_b"],
                     tape.const(inputs.reshape(rows, -1)), sequences=sequences)


def anticipate_step(tape: Tape, store: ParameterStore, cfg: ModelConfig,
                    state: tuple[Node, Node] | None, agent_code: Node, pooled: Node,
                    sequences: int = 1):
    """Anticipation for every column; returns (state, holistic code, (2, C) probabilities).

    With memory, the risk memory's (hidden, cell) ``state`` is None to sweep
    the C = T * B frame-major columns as ``sequences`` = B sequences from a
    zero state, or one (H, C) pair to advance each column by one branched step.
    """
    q = ad.concat([agent_code, pooled])
    if cfg.use_memory:
        state = lstm_step(tape, store["risk_rnn_W"], store["risk_rnn_b"], q, state, sequences)
        o = state[0]
    else:
        o = q
    y = ad.softmax(ad.matmul(tape.param(store["accident_head_W"]), o))
    return state, o, y


def forward_video(store: ParameterStore, cfg: ModelConfig, frames: AgentTracks,
                  tape: Tape) -> ModelOutput:
    """Run the configured variant over B agent sequences of T frames.

    Every (frame, sequence) pair is a column, t * B + b, with its own
    regions, so all sequences run as passes at once. After the agent memory
    sweep, level 0 assesses the observed boxes: region scoring and pooling
    over all T x B x N columns, the risk memory sweep and the anticipation
    head. Each imagination hop moves the boxes and assesses them the same
    way, with one branched step from the last level's risk state in place of
    the sweep, so the observed level is identical with imagination on or off.
    Only the two memory sweeps are sequential, each over B independent
    sequences. The outputs have T * B columns.
    """
    d_agent, _, sequences = frames.feats.shape
    if d_agent != cfg.d_agent:
        raise ValueError(f"agent feature dim {d_agent} != {cfg.d_agent}")
    if frames.region_feats.shape[0] != cfg.d_region:
        raise ValueError(f"region feature dim {frames.region_feats.shape[0]} "
                         f"!= {cfg.d_region}")
    boxes = tape.const(frames.boxes.reshape(4, -1))
    if cfg.use_memory:
        agent_code, _ = agent_rnn_step(tape, store, np.concatenate([frames.feats, frames.boxes]))
    else:
        agent_code = tape.const(frames.feats.reshape(d_agent, -1))

    state = o = c_node = None
    levels = []
    for level in range(cfg.imagine_steps + 1):
        if level:
            # an imagination hop: move every column's box from the last level's code
            c = ad.matmul(tape.param(store["imagine_head_W"]), o)
            largest = np.abs(c.value[2:4]).max()
            if largest > MAX_LOG_SCALE:
                raise ValueError(f"log size ratios out of range: |{largest}| > {MAX_LOG_SCALE}")
            boxes = ad.apply_box_transform(boxes, c)
            c_node = c if level == 1 else c_node
        s = score_regions(tape, store, agent_code,
                          ad.relative_config(boxes, frames.region_boxes), frames.region_feats)
        pooled = pool_regions(tape, s, frames.region_feats)
        state, o, y = anticipate_step(tape, store, cfg, state, agent_code, pooled, sequences)
        levels.append((y, s))
    return ModelOutput(levels, c_node, cfg.lambdas)


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
        """Read a model file; its header must be the variant line and the
        config keys, once each, the config valid, that variant the config's,
        and its parameters the ones the config needs."""
        store, raw = load_params(path)
        unknown = raw.keys() - {"variant"} - {f.name for f in fields(ModelConfig)}
        if unknown:
            raise ValueError(f"{path}: unknown config key {sorted(unknown)[0]!r}")
        values = {}
        for f in fields(ModelConfig):
            if f.name not in raw:
                raise ValueError(f"{path}: missing config key {f.name!r}")
            try:
                values[f.name] = parse_config_value(f.type, raw[f.name])
            except ValueError as err:
                raise ValueError(f"{path}: {err} for key {f.name!r}") from None
        cfg = ModelConfig(**values)
        try:
            cfg.validate()
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        expected = {name: (rows, cols) for name, rows, cols in param_specs(cfg)}
        found = {pm.name: pm.values.shape for pm in store}
        if found != expected:
            raise ValueError(f"{path}: parameters {found} are not the {expected} "
                             f"its {cfg.variant} config needs")
        if raw.get("variant") != cfg.variant:
            raise ValueError(f"{path}: variant {raw.get('variant')!r} is not the "
                             f"{cfg.variant} its config describes")
        return cls(cfg, store)
