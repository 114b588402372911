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
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape
from .geometry import MAX_LOG_SCALE, RELATIVE_CONFIG_DIM, Box
from .nn import (LstmState, ParameterStore, dense, init_params, load_params,
                 lstm_step, lstm_zero_state, parse_config_value, save_params)

if TYPE_CHECKING:
    from .data import RegionSet

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
class ImaginedStep:
    """Outputs of one imagination hop: predicted box and re-scored risk."""

    box_node: Node
    y_node: Node
    s_node: Node

    @property
    def box(self) -> Box:
        return Box.from_array(self.box_node.value)

    @property
    def y(self) -> np.ndarray:
        return self.y_node.value.copy()

    @property
    def s(self) -> np.ndarray:
        return self.s_node.value.copy()


@dataclass
class FramePrediction:
    """Per-frame outputs, with tape nodes kept for loss construction."""

    y_node: Node
    s_node: Node
    imagined: list = field(default_factory=list)
    c_node: Node | None = None
    y_fused: np.ndarray | None = None
    s_fused: np.ndarray | None = None

    @property
    def y(self) -> np.ndarray:
        return self.y_node.value.copy()

    @property
    def s(self) -> np.ndarray:
        return self.s_node.value.copy()


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
# differentiable box transform

def apply_box_transform_nodes(box_vec: Node, c: Node) -> Node:
    """Differentiable counterpart of geometry.apply_box_transform on (cx,cy,w,h)."""
    if np.max(np.abs(c.value[2:4])) > MAX_LOG_SCALE:
        raise ValueError(f"log size ratios out of range: {c.value[2:4]}")
    xy_off = ad.vec_slice(c, 0, 2)
    wh_log = ad.vec_slice(c, 2, 4)
    p_xy = ad.vec_slice(box_vec, 0, 2)
    p_wh = ad.vec_slice(box_vec, 2, 4)
    return ad.concat([xy_off * p_wh + p_xy, ad.exp(wh_log) * p_wh])


# ---------------------------------------------------------------------------
# model stages

def score_regions(tape: Tape, store: ParameterStore, agent_code: Node,
                  u_mat: Node, regions: RegionSet):
    """Risk scores for every region, plus the predicted per-region weights.

    Each column of the (9, N) geometry matrix is embedded, joined with the
    agent code, and mapped to a weight vector whose dot product with that
    region's appearance is squashed to a probability.
    """
    embedded = ad.relu(dense(tape, store["geom_fc_W"], u_mat, store["geom_fc_b"]))
    joined = ad.vstack([ad.tile_cols(agent_code, len(regions)), embedded])
    weights = ad.relu(dense(tape, store["scorer_fc_W"], joined, store["scorer_fc_b"]))
    logits = ad.vsum(weights * tape.const(regions.feats_t), axis=0)
    return ad.sigmoid(logits), weights


def pool_regions(tape: Tape, scores: Node, regions: RegionSet) -> Node:
    """Risk-weighted sum of region appearances; output dim is fixed, any N."""
    return ad.matmul(tape.const(regions.feats_t), scores)


def agent_rnn_step(tape: Tape, store: ParameterStore, state: LstmState,
                   agent_feat: np.ndarray, agent_box: Box) -> LstmState:
    """Advance the agent memory on (appearance, normalized box) input."""
    x = tape.const(np.concatenate([agent_feat, agent_box.as_array()]))
    return lstm_step(tape, store["agent_rnn_W"], store["agent_rnn_b"], x, state)


def anticipate_step(tape: Tape, store: ParameterStore, cfg: ModelConfig,
                    state: LstmState | None, agent_code: Node, pooled: Node):
    """One anticipation step; returns (new state, holistic code, probabilities)."""
    q = ad.concat([agent_code, pooled])
    if cfg.use_memory:
        state = lstm_step(tape, store["risk_rnn_W"], store["risk_rnn_b"], q, state)
        o = state.hidden
    else:
        o = q
    y = ad.softmax(ad.matmul(tape.param(store["accident_head_W"]), o))
    return state, o, y


def imagine_location(tape: Tape, store: ParameterStore, o: Node, box_vec: Node):
    """Regress the transform taking the current box to the imagined one."""
    c = ad.matmul(tape.param(store["imagine_head_W"]), o)
    return c, apply_box_transform_nodes(box_vec, c)


def imagined_reassessment(tape: Tape, store: ParameterStore, cfg: ModelConfig,
                          agent_code: Node, state: LstmState | None,
                          o_prev: Node, box_vec: Node, regions: RegionSet):
    """One imagination hop: move the agent, re-score the unchanged regions.

    The recurrent state advances on a branched copy only; the caller's
    committed state is never mutated.
    """
    c, new_box = imagine_location(tape, store, o_prev, box_vec)
    u_hat = ad.relative_config(new_box, regions)
    s_hat, _ = score_regions(tape, store, agent_code, u_hat, regions)
    pooled = pool_regions(tape, s_hat, regions)
    new_state, new_o, y_hat = anticipate_step(tape, store, cfg, state, agent_code, pooled)
    return c, new_box, y_hat, s_hat, new_state, new_o


def fuse_predictions(y: np.ndarray, s: np.ndarray, imagined_ys, imagined_ss, lambdas):
    """Convex combination of observed and imagined outputs."""
    lam = np.asarray(lambdas, dtype=np.float64)
    if lam.shape[0] != 1 + len(imagined_ys):
        raise ValueError(
            f"need {1 + len(imagined_ys)} fusion weights, got {lam.shape[0]}"
        )
    y_fused = lam[0] * y
    s_fused = lam[0] * s
    for weight, y_hat, s_hat in zip(lam[1:], imagined_ys, imagined_ss):
        y_fused = y_fused + weight * y_hat
        s_fused = s_fused + weight * s_hat
    return y_fused, s_fused


def forward_video(store: ParameterStore, cfg: ModelConfig, frames,
                  tape: Tape) -> list[FramePrediction]:
    """Run the configured variant over a frame sequence.

    Both recurrent memories are threaded across frames; imagination runs on a
    branched state so observed outputs are identical with it on or off.
    """
    if len(frames) == 0:
        raise ValueError("cannot run forward on an empty video")
    agent_state = lstm_zero_state(tape, cfg.h_agent) if cfg.use_memory else None
    aa_state = lstm_zero_state(tape, cfg.h_aa) if cfg.use_memory else None
    preds = []
    for frame in frames:
        if frame.agent_feat.shape != (cfg.d_agent,):
            raise ValueError(
                f"agent feature shape {frame.agent_feat.shape} != ({cfg.d_agent},)"
            )
        if frame.regions.feats.shape[1] != cfg.d_region:
            raise ValueError(
                f"region feature dim {frame.regions.feats.shape[1]} != {cfg.d_region}"
            )
        if cfg.use_memory:
            agent_state = agent_rnn_step(tape, store, agent_state,
                                         frame.agent_feat, frame.agent_box)
            agent_code = agent_state.hidden
        else:
            agent_code = tape.const(frame.agent_feat)

        u = ad.relative_config(tape.const(frame.agent_box.as_array()), frame.regions)
        s, _ = score_regions(tape, store, agent_code, u, frame.regions)
        pooled = pool_regions(tape, s, frame.regions)
        aa_state, o, y = anticipate_step(tape, store, cfg, aa_state, agent_code, pooled)

        imagined = []
        c_first = None
        if cfg.use_imagination:
            branch_state, branch_o, branch_box = aa_state, o, box_vec
            for n in range(cfg.imagine_steps):
                c, branch_box, y_hat, s_hat, branch_state, branch_o = imagined_reassessment(
                    tape, store, cfg, agent_code, branch_state, branch_o,
                    branch_box, frame.regions)
                if n == 0:
                    c_first = c
                imagined.append(ImaginedStep(branch_box, y_hat, s_hat))

        y_fused, s_fused = fuse_predictions(
            y.value, s.value,
            [step.y_node.value for step in imagined],
            [step.s_node.value for step in imagined],
            cfg.lambdas)
        preds.append(FramePrediction(y_node=y, s_node=s, imagined=imagined,
                                     c_node=c_first, y_fused=y_fused,
                                     s_fused=s_fused))
    return preds


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

    def forward_video(self, frames, tape: Tape | None = None) -> list[FramePrediction]:
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
