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

The input (AgentTracks) is B agent sequences over T frames, each over its
own video's regions, as ``training.track_inputs`` builds it from rows of a
split's track table and a pass's ``video_of``, the video of each sequence.
Every (frame, sequence) pair is one column, frame-major: column t * B + b is
sequence b at frame t, so the model never needs to know whether sequences
share a video. One rule, ``take_columns``, takes any split-wide per-video
array (the stacked regions, the loss targets) into these columns. Each pass
runs over all columns (or all (frame, sequence, region) columns) as a
handful of tape nodes:

1. the agent memory: one ``lstm_step`` sweep over the frame-major columns
   of the tracks' appearance and box, the B sequences independent;
2. the observed level: region scoring and pooling over all T x B x N
   columns, the scoring one fused op that takes the agent's half of the
   per-region classifier once per (frame, sequence) column, not per region;
3. the risk memory: one ``lstm_step`` sweep over the pooled columns, again
   B sequences, then the anticipation head on all T x B columns;
4. each imagination hop, one more level: the box transform, then passes 2
   and 3 from the moved boxes, where ``lstm_step`` from the last level's
   state steps all T x B columns once, branched, in place of the sweep.

Only the two memory sweeps (1 and 3) are sequential over time; RA and RAI
have none. Both call ``lstm_step``, this module's name for ``autodiff.lstm``
(the name the benchmark's tracer times), with their parameters' tape nodes.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape
from .autodiff import lstm as lstm_step
from .geometry import MAX_LOG_SCALE, RELATIVE_CONFIG_DIM
from .nn import ParameterStore, init_params, load_params, parse_config_value, save_params

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
        if not (np.all(lam >= 0.0) and abs(lam.sum() - 1.0) <= 1e-9):
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


def take_columns(array: np.ndarray, video_of, frame_axis: int) -> np.ndarray:
    """The split-wide ``array``, whose video axis follows its frame axis,
    taken at each sequence's video ``video_of[s]``, with the frame and
    sequence axes merged into the columns t * S + s. ``np.take`` along the
    video axis, unlike a fancy index there, gives a contiguous (T, S), so
    the merge is a view of its one copy."""
    taken = np.take(array, video_of, axis=frame_axis + 1)
    return taken.reshape(array.shape[:frame_axis] + (-1,) + array.shape[frame_axis + 2:])


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

    This is one fused op, ``autodiff.region_scores``. The agent code is the
    same for every region of a column, so its half of the scorer runs once
    per column, (d_region, A) by (A, C), and is broadcast over the N
    regions rather than copied onto each. ``scorer_fc_W`` keeps its
    (d_region, A + d_u) layout, agent columns first, so model files do not
    change.
    """
    return ad.region_scores(tape.param(store["geom_fc_W"]), tape.param(store["geom_fc_b"]),
                            tape.param(store["scorer_fc_W"]), tape.param(store["scorer_fc_b"]),
                            agent_code, u, region_feats)


def pool_regions(tape: Tape, scores: Node, region_feats: np.ndarray) -> Node:
    """(D, C): per column, the risk-weighted sum of its (D, N) region appearances."""
    return ad.vsum(tape.const(region_feats) * scores, axis=2)


def agent_rnn_step(tape: Tape, store: ParameterStore, inputs: np.ndarray) -> tuple[Node, Node]:
    """The agent memory: one ``lstm_step`` sweep from zero over the
    (d_agent + 4, T, B) appearances and boxes of B independent sequences;
    returns the (hidden, cell) states, each (H, T * B) and frame-major."""
    rows, _, sequences = inputs.shape
    return lstm_step(tape.param(store["agent_rnn_W"]), tape.param(store["agent_rnn_b"]),
                     tape.const(inputs.reshape(rows, -1)), None, sequences)


def anticipate_step(tape: Tape, store: ParameterStore, cfg: ModelConfig,
                    state: tuple[Node, Node] | None, agent_code: Node, pooled: Node,
                    sequences: int):
    """Anticipation for every column; returns (state, holistic code, (2, C) probabilities).

    With memory, ``lstm_step`` runs the risk memory from ``state``: None to
    sweep the C = T * B frame-major columns as ``sequences`` = B sequences
    from zero, or an (H, C) (hidden, cell) pair for one branched step a column.
    """
    q = ad.concat([agent_code, pooled])
    if cfg.use_memory:
        state = lstm_step(tape.param(store["risk_rnn_W"]), tape.param(store["risk_rnn_b"]),
                          q, state, sequences)
        o = state[0]
    else:
        o = q
    y = ad.softmax(ad.matmul(tape.param(store["accident_head_W"]), o))
    return state, o, y


def forward_video(store: ParameterStore, cfg: ModelConfig, frames: AgentTracks,
                  tape: Tape) -> ModelOutput:
    """Run the configured variant over B agent sequences of T frames, all
    T * B columns at once, by the passes the module docstring lists. Each
    imagination hop branches from the last level's risk state, so the
    observed level is identical with imagination on or off."""
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
