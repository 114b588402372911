"""Plain-numpy reference of the risk model: one frame at a time, no tape.

This is the per-frame forward and loss that the model computed before it ran
whole videos as column passes, written out with numpy and the scalar
geometry functions. Tests compare the batched model with it.
"""
import numpy as np

from riskrnn.geometry import (BoxTransform, apply_box_transform, encode_box_transform,
                              iou, relative_config)
from riskrnn.losses import PROB_CLAMP, RISKY_IOU_THRESHOLD


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def relu(z):
    return np.maximum(z, 0.0)


def lstm_step(W, b, x, h, c):
    """One LSTM step as straight-line gate equations; returns (hidden, cell)."""
    hdim = W.shape[0] // 4
    z = W @ np.concatenate([x, h]) + b[:, 0]
    i, f = sigmoid(z[:hdim]), sigmoid(z[hdim:2 * hdim])
    g, o = np.tanh(z[2 * hdim:3 * hdim]), sigmoid(z[3 * hdim:])
    c = f * c + i * g
    return o * np.tanh(c), c


def score_regions(p, agent_code, agent_box, frame):
    u = np.stack([relative_config(agent_box, box) for box in frame.region_boxes], axis=1)
    embedded = relu(p["geom_fc_W"] @ u + p["geom_fc_b"])
    joined = np.vstack([np.repeat(agent_code[:, None], u.shape[1], axis=1), embedded])
    weights = relu(p["scorer_fc_W"] @ joined + p["scorer_fc_b"])
    return sigmoid((weights * frame.region_feats.T).sum(axis=0))


def anticipate(p, cfg, state, agent_code, pooled):
    q = np.concatenate([agent_code, pooled])
    if cfg.use_memory:
        state = lstm_step(p["risk_rnn_W"], p["risk_rnn_b"], q, *state)
        o = state[0]
    else:
        o = q
    z = p["accident_head_W"] @ o
    e = np.exp(z - z.max())
    return state, o, e / e.sum()


def forward(store, cfg, frames):
    """Per frame: a dict of y, s, the imagined (box, y, s) per hop, the first
    hop's transform c, and the fused y and s."""
    p = {pm.name: pm.values for pm in store}
    agent = (np.zeros(cfg.h_agent), np.zeros(cfg.h_agent))
    risk = (np.zeros(cfg.h_aa), np.zeros(cfg.h_aa))
    out = []
    for frame in frames:
        if cfg.use_memory:
            x = np.concatenate([frame.agent_feat, frame.agent_box.as_array()])
            agent = lstm_step(p["agent_rnn_W"], p["agent_rnn_b"], x, *agent)
            code = agent[0]
        else:
            code = frame.agent_feat
        s = score_regions(p, code, frame.agent_box, frame)
        risk, o, y = anticipate(p, cfg, risk, code, frame.region_feats.T @ s)
        hops, c_first = [], None
        state, box = risk, frame.agent_box
        for _ in range(cfg.imagine_steps):
            c = p["imagine_head_W"] @ o
            c_first = c if c_first is None else c_first
            box = apply_box_transform(box, BoxTransform(*c))
            s_hat = score_regions(p, code, box, frame)
            state, o, y_hat = anticipate(p, cfg, state, code, frame.region_feats.T @ s_hat)
            hops.append((box, y_hat, s_hat))
        lam = cfg.lambdas
        y_fused = lam[0] * y + sum(w * y_hat for w, (_, y_hat, _) in zip(lam[1:], hops))
        s_fused = lam[0] * s + sum(w * s_hat for w, (_, _, s_hat) in zip(lam[1:], hops))
        out.append(dict(y=y, s=s, hops=hops, c=c_first, y_fused=y_fused, s_fused=s_fused))
    return out


def total_loss(cfg, frames, preds, targets, time_scale=1.0):
    """The imagination-weighted loss of ``forward``'s output, frame by frame."""
    def log_clip(v):
        return np.log(np.clip(v, PROB_CLAMP, 1.0 - PROB_CLAMP))

    loss = 0.0
    for t, pred in enumerate(preds):
        if pred["c"] is not None and t + cfg.horizon < len(frames):
            target = encode_box_transform(targets.agent_track[t],
                                          targets.agent_track[t + cfg.horizon]).as_array()
            a = np.abs(pred["c"] - target)
            loss += np.where(a < 1.0, 0.5 * a * a, a - 0.5).sum()
    for level, weight in enumerate(cfg.lambdas):
        level_loss = 0.0
        for t, (frame, pred) in enumerate(zip(frames, preds)):
            y, s = (pred["y"], pred["s"]) if level == 0 else pred["hops"][level - 1][1:]
            if targets.positive:
                gap = targets.t_accident - t
                level_loss -= np.exp(-gap * time_scale) * log_clip(y[1])
                labels = np.array([max(iou(box, gt) for gt in targets.risky_boxes[t])
                                   > RISKY_IOU_THRESHOLD for box in frame.region_boxes])
            else:
                level_loss -= log_clip(y[0])
                labels = np.zeros(len(frame.region_boxes))
            p = np.clip(s, PROB_CLAMP, 1.0 - PROB_CLAMP)
            level_loss -= (labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)).sum()
        loss += weight * level_loss
    return loss
