"""Scalar references that tests compare the array code with, over records
built from the arrays' rows.

- box geometry one pair of boxes at a time: a box's corners, IoU, the
  agent-relative configuration and the box transform; and the (n, 4) array
  of a sequence of boxes;
- the per-frame forward and loss that the model computed before it ran whole
  videos as column passes, written out with numpy and the scalar geometry;
- the tracker, one video, one track and one proposal at a time over scalar
  IoU, the way it was written before it ran a split's videos as arrays;
- the per-frame detection matching and the oracle rescoring as pair loops
  over scalar IoU, the way they were written before they took whole IoU
  matrices;
- the time-to-accident sweep with one first-crossing search per recalled
  positive and threshold, the way it was written before it searched each
  positive's running maximum once;
- average precision over (score, positive) pairs and region AP over
  per-frame (detections, ground-truth boxes) lists, the way they were
  written before the metrics took arrays;
- the risk map, adding one box's cover at a time, the way it was written
  before it took the boxes as one array;
- the synthetic world's distractor regions and per-frame proposals drawn
  one value at a time, the stream order that synthworld's array draws keep;
- Adam one named matrix at a time, with a dict of moments per parameter,
  the way it ran before the store held one flat vector;
- the tape ops that only references composed from primitive ops use:
  division, maximum, minimum, row stacking, the dot product and picking
  one entry.
"""
import math
import warnings

import numpy as np

from riskrnn.autodiff import Node, _accum, _unbroadcast
from riskrnn.data import Proposal
from riskrnn.evaluation import REGION_IOU_THRESHOLD, video_level_scores
from riskrnn.geometry import MAX_LOG_SCALE, Box, encode_box_transform
from riskrnn.losses import PROB_CLAMP, RISKY_IOU_THRESHOLD
from riskrnn.synthworld import agent_class_id
from riskrnn.tracking import Track


# ---------------------------------------------------------------------------
# box geometry

def corners(box: Box) -> tuple:
    """(x1, y1, x2, y2): the min and max corners."""
    return (box.cx - 0.5 * box.w, box.cy - 0.5 * box.h,
            box.cx + 0.5 * box.w, box.cy + 0.5 * box.h)


def stack_boxes(boxes) -> np.ndarray:
    """The (n, 4) array of (cx, cy, w, h) rows of a sequence of boxes."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def as_array(box: Box) -> np.ndarray:
    return stack_boxes([box])[0]


def boxes(rows) -> list:
    """The Box records of an array's (cx, cy, w, h) rows."""
    return [Box(*row) for row in np.asarray(rows).tolist()]


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Areas are computed from the same corner expressions as the overlap so
    iou(a, a) is exactly 1 despite rounding.
    """
    ax1, ay1, ax2, ay2 = corners(a)
    bx1, by1, bx2, by2 = corners(b)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    return inter / (area_a + area_b - inter)


def relative_config(agent: Box, region: Box) -> np.ndarray:
    """The (9,) cues of ``region`` seen from ``agent``, in the row order of
    autodiff.relative_config: offsets of the region center, min corner and max
    corner from the agent center, x over agent width and y over agent height;
    then the two size ratios and the IoU of the boxes."""
    inv_w = 1.0 / agent.w
    inv_h = 1.0 / agent.h
    x1, y1, x2, y2 = corners(region)
    return np.array([
        (region.cx - agent.cx) * inv_w,
        (region.cy - agent.cy) * inv_h,
        (x1 - agent.cx) * inv_w,
        (y1 - agent.cy) * inv_h,
        (x2 - agent.cx) * inv_w,
        (y2 - agent.cy) * inv_h,
        region.w * inv_w,
        region.h * inv_h,
        iou(agent, region),
    ], dtype=np.float64)


def apply_box_transform(p: Box, c) -> Box:
    """Move/rescale ``p`` by the transform ``c`` = (dx, dy, log sw, log sh):
    offsets in box units, log scales."""
    cx_off, cy_off, cw_log, ch_log = c
    if abs(cw_log) > MAX_LOG_SCALE or abs(ch_log) > MAX_LOG_SCALE:
        raise ValueError(
            f"log size ratios out of range (|{cw_log}|, |{ch_log}| > {MAX_LOG_SCALE})"
        )
    return Box(
        cx=cx_off * p.w + p.cx,
        cy=cy_off * p.h + p.cy,
        w=math.exp(cw_log) * p.w,
        h=math.exp(ch_log) * p.h,
    )


# ---------------------------------------------------------------------------
# the per-frame model

def sigmoid(z):
    # below about -709 exp overflows and the value is exactly 0, as in the model
    with np.errstate(over="ignore"):
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


def score_regions(p, agent_code, agent_box, region_boxes, region_feats):
    u = np.stack([relative_config(agent_box, box) for box in region_boxes], axis=1)
    embedded = relu(p["geom_fc_W"] @ u + p["geom_fc_b"])
    joined = np.vstack([np.repeat(agent_code[:, None], u.shape[1], axis=1), embedded])
    weights = relu(p["scorer_fc_W"] @ joined + p["scorer_fc_b"])
    return sigmoid((weights * region_feats.T).sum(axis=0))


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


def forward(store, cfg, video):
    """Per frame of the video's agent track: a dict of y, s, the imagined
    (box, y, s) per hop, the first hop's transform c, and the fused y and s."""
    p = {pm.name: pm.values for pm in store}
    agent = (np.zeros(cfg.h_agent), np.zeros(cfg.h_agent))
    risk = (np.zeros(cfg.h_aa), np.zeros(cfg.h_aa))
    out = []
    for agent_feat, agent_box, region_rows, region_feats in zip(
            video.agent_feat, boxes(video.agent_box), video.region_box, video.region_feat):
        region_boxes = boxes(region_rows)
        if cfg.use_memory:
            x = np.concatenate([agent_feat, as_array(agent_box)])
            agent = lstm_step(p["agent_rnn_W"], p["agent_rnn_b"], x, *agent)
            code = agent[0]
        else:
            code = agent_feat
        s = score_regions(p, code, agent_box, region_boxes, region_feats)
        risk, o, y = anticipate(p, cfg, risk, code, region_feats.T @ s)
        hops, c_first = [], None
        state, box = risk, agent_box
        for _ in range(cfg.imagine_steps):
            c = p["imagine_head_W"] @ o
            c_first = c if c_first is None else c_first
            box = apply_box_transform(box, c)
            s_hat = score_regions(p, code, box, region_boxes, region_feats)
            state, o, y_hat = anticipate(p, cfg, state, code, region_feats.T @ s_hat)
            hops.append((box, y_hat, s_hat))
        lam = cfg.lambdas
        y_fused = lam[0] * y + sum(w * y_hat for w, (_, y_hat, _) in zip(lam[1:], hops))
        s_fused = lam[0] * s + sum(w * s_hat for w, (_, _, s_hat) in zip(lam[1:], hops))
        out.append(dict(y=y, s=s, hops=hops, c=c_first, y_fused=y_fused, s_fused=s_fused))
    return out


def total_loss(cfg, video, preds, time_scale=1.0):
    """The imagination-weighted loss of ``forward``'s output on the video,
    frame by frame; its risky boxes are the rows that are not NaN padding."""
    def log_clip(v):
        return np.log(np.clip(v, PROB_CLAMP, 1.0 - PROB_CLAMP))

    track = boxes(video.agent_box)
    loss = 0.0
    for t, pred in enumerate(preds):
        if pred["c"] is not None and t + cfg.horizon < len(track):
            target = encode_box_transform(as_array(track[t]), as_array(track[t + cfg.horizon]))
            a = np.abs(pred["c"] - target)
            loss += np.where(a < 1.0, 0.5 * a * a, a - 0.5).sum()
    for level, weight in enumerate(cfg.lambdas):
        level_loss = 0.0
        for t, (region_rows, risky_rows, pred) in enumerate(
                zip(video.region_box, video.risky_box, preds)):
            y, s = (pred["y"], pred["s"]) if level == 0 else pred["hops"][level - 1][1:]
            risky = boxes([row for row in risky_rows if not np.isnan(row).all()])
            if video.positive:
                gap = video.t_accident - t
                level_loss -= np.exp(-gap * time_scale) * log_clip(y[1])
                labels = np.array([max(iou(box, gt) for gt in risky) > RISKY_IOU_THRESHOLD
                                   for box in boxes(region_rows)])
            else:
                level_loss -= log_clip(y[0])
                labels = np.zeros(len(region_rows))
            p = np.clip(s, PROB_CLAMP, 1.0 - PROB_CLAMP)
            level_loss -= (labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)).sum()
        loss += weight * level_loss
    return loss


# ---------------------------------------------------------------------------
# synthetic world

def random_box(rng) -> Box:
    return Box(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
               rng.uniform(0.06, 0.18), rng.uniform(0.06, 0.18))


def distractor_regions(cfg, rng):
    """synthworld._distractor_regions, one box and one class at a time."""
    boxes = [random_box(rng) for _ in range(cfg.n_regions - 1)]
    return boxes, [int(rng.integers(1, cfg.n_classes)) for _ in boxes]


def synthesize_proposals(cfg, agent_box, region_box, region_classes,
                         embeddings: np.ndarray, rng) -> tuple:
    """synthworld.synthesize_proposals, one draw per jitter, score, feature
    and coordinate; per frame, a tuple of Proposal records."""
    out = []
    sigma = cfg.proposal_jitter
    true_classes = [agent_class_id(cfg)] + list(region_classes)
    for agent_row, region_rows in zip(agent_box, region_box):
        true_boxes = boxes(np.vstack((agent_row, region_rows)))
        props = []
        for box, cls in zip(true_boxes, true_classes):
            jittered = Box(
                box.cx + rng.normal(0.0, sigma) * box.w,
                box.cy + rng.normal(0.0, sigma) * box.h,
                box.w * float(np.exp(rng.normal(0.0, sigma))),
                box.h * float(np.exp(rng.normal(0.0, sigma))),
            )
            score = float(np.clip(0.9 + rng.normal(0.0, 0.05), 0.0, 1.0))
            feat = embeddings[cls] + rng.normal(0.0, cfg.noise_sigma, cfg.feature_dim)
            props.append(Proposal(jittered, score, feat))
        for _ in range(cfg.n_distractor_proposals):
            cls = int(rng.integers(0, cfg.n_classes))
            feat = embeddings[cls] + rng.normal(0.0, cfg.noise_sigma, cfg.feature_dim)
            props.append(Proposal(random_box(rng), float(rng.uniform(0.0, 0.5)), feat))
        out.append(tuple(props))
    return tuple(out)


# ---------------------------------------------------------------------------
# tracking and detection matching

def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b)) / denom


def track_by_detection(xywh, feats, scores, top_init: int = 10,
                       top_iou: int = 10) -> list[Track]:
    """tracking.track_by_detection of one video given as its (T, M, 4)
    proposal boxes, (T, M, D) features and (T, M) scores, over Proposal
    records, one track and one proposal at a time."""
    if len(xywh) == 0:
        raise ValueError("need at least one frame of proposals")
    proposals_per_frame = [[Proposal(box, float(score), feat)
                            for box, score, feat in zip(boxes(frame), frame_scores, frame_feats)]
                           for frame, frame_scores, frame_feats in zip(xywh, scores, feats)]
    first = proposals_per_frame[0]
    order = sorted(range(len(first)), key=lambda i: (-first[i].score, i))
    chains = [[first[i]] for i in order[:top_init]]
    for frame in proposals_per_frame[1:]:
        for chain in chains:
            current = chain[-1]
            ious = np.array([iou(current.box, p.box) for p in frame])
            gate = np.argsort(-ious, kind="stable")[:top_iou]
            best = min(
                gate,
                key=lambda i: (-cosine_similarity(current.feat, frame[i].feat),
                               -frame[i].score, i),
            )
            chain.append(frame[best])
    return [Track(stack_boxes(p.box for p in chain), np.array([p.feat for p in chain]),
                  np.array([p.score for p in chain])) for chain in chains]


def deduplicate_tracks(tracks, overlap_iou: float = 0.7) -> list[Track]:
    """tracking.deduplicate_tracks with a union-find over every pair."""
    n = len(tracks)
    if n == 0:
        return []
    group = list(range(n))

    def find(i):
        while group[i] != i:
            group[i] = group[group[i]]
            i = group[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if iou(Box(*tracks[i].boxes[-1]), Box(*tracks[j].boxes[-1])) > overlap_iou:
                group[find(j)] = find(i)

    best: dict[int, int] = {}
    for i, track in enumerate(tracks):
        root = find(i)
        if root not in best or track.mean_score > tracks[best[root]].mean_score:
            best[root] = i
    keep = sorted(best.values())
    return [tracks[i] for i in keep]


def match_frame_detections(detections, gt_boxes, iou_threshold=REGION_IOU_THRESHOLD):
    """evaluation.match_frame_detections, one detection-ground truth pair at a time."""
    order = sorted(range(len(detections)), key=lambda i: (-detections[i][1], i))
    taken = [False] * len(gt_boxes)
    matched = [False] * len(detections)
    for i in order:
        box = detections[i][0]
        best_j = -1
        best_iou = iou_threshold
        for j, gt in enumerate(gt_boxes):
            if taken[j]:
                continue
            overlap = iou(box, gt)
            if overlap >= best_iou:
                best_iou = overlap
                best_j = j
        if best_j >= 0:
            taken[best_j] = True
            matched[i] = True
    return [(float(score), matched[i]) for i, (_, score) in enumerate(detections)]


def oracle_rescore(frames):
    """The detections of evaluation.oracle_region_average_precision: each one
    overlapping any ground truth at the threshold scores 1, else 0."""
    return [[([(box, 1.0 if any(iou(box, gt) >= REGION_IOU_THRESHOLD for gt in gt_boxes)
                else 0.0) for box, _ in detections], gt_boxes)
             for detections, gt_boxes in video]
            for video in frames]


def average_precision(pairs, n_positive=None) -> float:
    """evaluation.average_precision over (score, is_positive) pairs, ranked
    with a sort key."""
    positives = sum(1 for _, positive in pairs if positive)
    if n_positive is None:
        n_positive = positives
    if n_positive < 1:
        raise ValueError("average precision is undefined without positives")
    ranked = sorted(pairs, key=lambda pair: (-pair[0], pair[1]))
    precisions = []
    for rank, (_, positive) in enumerate(ranked, start=1):
        if positive:
            precisions.append((len(precisions) + 1) / rank)
    return math.fsum(precisions) / n_positive


def region_average_precision(frames, per_video=False):
    """evaluation.region_average_precision over videos given as lists of
    per-frame (detections, gt_boxes) pairs, detections being (box, score)
    pairs."""
    def pooled_ap(videos):
        pairs = []
        n_gt = 0
        for video in videos:
            for detections, gt_boxes in video:
                n_gt += len(gt_boxes)
                pairs.extend(match_frame_detections(detections, gt_boxes))
        if n_gt == 0:
            raise ValueError("region AP needs at least one ground-truth box")
        return average_precision(pairs, n_positive=n_gt)

    if not per_video:
        return pooled_ap(frames)
    aps = [pooled_ap([video]) for video in frames if any(gt for _, gt in video)]
    if not aps:
        raise ValueError("region AP needs at least one ground-truth box")
    return float(np.mean(aps))


def oracle_region_average_precision(frames, per_video=False):
    """evaluation.oracle_region_average_precision over the per-frame lists
    of region_average_precision."""
    rescored = oracle_rescore(frames)
    if not any(score for video in rescored for dets, _ in video for _, score in dets):
        warnings.warn("no proposal overlaps any ground truth; oracle region AP reported as 0")
        return 0.0
    return region_average_precision(rescored, per_video=per_video)


def risk_map_raster(scored, grid_w: int, grid_h: int) -> np.ndarray:
    """The values of evaluation.risk_map_raster over (box, score) pairs,
    adding one box's cover at a time."""
    xs = (np.arange(grid_w) + 0.5) / grid_w
    ys = (np.arange(grid_h) + 0.5) / grid_h
    total = np.zeros((grid_h, grid_w))
    count = np.zeros((grid_h, grid_w))
    for box, score in scored:
        x1, y1, x2, y2 = corners(box)
        mask = np.outer((ys >= y1) & (ys <= y2), (xs >= x1) & (xs <= x2))
        total += mask * score
        count += mask
    values = np.divide(total, count, out=np.zeros_like(total), where=count > 0)
    return np.clip(values, 0.0, 1.0)


# ---------------------------------------------------------------------------
# time to accident

def first_crossing(probs: np.ndarray, threshold: float) -> int | None:
    """First frame whose probability reaches the threshold, else None."""
    hits = np.nonzero(probs >= threshold)[0]
    return int(hits[0]) if hits.shape[0] else None


def tta_atta(videos):
    """evaluation.tta_atta with a first-crossing search per recalled positive
    at every threshold."""
    positives = [v for v in videos if v.positive]
    if not positives:
        raise ValueError("time-to-accident needs at least one positive video")
    scores = video_level_scores(videos)
    n_pos = len(positives)
    rows = []
    terms = []
    prev_recalled = 0
    for threshold in sorted(set(scores.tolist()), reverse=True):
        predicted = int(np.sum(scores >= threshold))
        recalled = [v for v in positives if float(v.probs.max()) >= threshold]
        recall = len(recalled) / n_pos
        precision = len(recalled) / predicted if predicted else 0.0
        ttas = []
        for v in recalled:
            t_hat = first_crossing(v.probs, threshold)
            ttas.append(max(0.0, float(v.t_accident - t_hat)))
        mean_tta = float(np.mean(ttas)) if ttas else 0.0
        terms.append((len(recalled) - prev_recalled) * mean_tta)
        rows.append((threshold, precision, recall, mean_tta))
        prev_recalled = len(recalled)
    return rows, math.fsum(terms) / n_pos


# ---------------------------------------------------------------------------
# Adam

def adam_step(params, moments, lr, beta1, beta2, eps, t):
    """One Adam step over ``params``, a dict of name -> (values, grad)
    arrays updated in place; ``moments`` is the (m, v) pair of name -> array
    dicts that persists across steps. Zeroes every grad after."""
    m_all, v_all = moments
    for name, (values, g) in params.items():
        m = m_all.setdefault(name, np.zeros_like(g))
        v = v_all.setdefault(name, np.zeros_like(g))
        m[...] = beta1 * m + (1.0 - beta1) * g
        v[...] = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        values -= lr * m_hat / (np.sqrt(v_hat) + eps)
    for _, g in params.values():
        g.fill(0.0)


# ---------------------------------------------------------------------------
# tape ops for references built from primitive ops

def div(a: Node, b: Node) -> Node:
    def backward(g):
        _accum(a, _unbroadcast(g / b.value, a.value.shape))
        _accum(b, _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))
    return a.tape._make(a.value / b.value, (a, b), backward)


def maximum(a: Node, b: Node) -> Node:
    # ties route the gradient to the first operand
    mask = a.value >= b.value
    def backward(g):
        _accum(a, _unbroadcast(g * mask, a.value.shape))
        _accum(b, _unbroadcast(g * ~mask, b.value.shape))
    return a.tape._make(np.maximum(a.value, b.value), (a, b), backward)


def minimum(a: Node, b: Node) -> Node:
    mask = a.value <= b.value
    def backward(g):
        _accum(a, _unbroadcast(g * mask, a.value.shape))
        _accum(b, _unbroadcast(g * ~mask, b.value.shape))
    return a.tape._make(np.minimum(a.value, b.value), (a, b), backward)


def stack_rows(parts) -> Node:
    """Stack nodes of one shape along a new first axis of len(parts)."""
    def backward(g):
        for i, p in enumerate(parts):
            _accum(p, g[i])
    return parts[0].tape._make(np.stack([p.value for p in parts]),
                               tuple(parts), backward)


def dot(a: Node, b: Node) -> Node:
    def backward(g):
        _accum(a, g * b.value)
        _accum(b, g * a.value)
    return a.tape._make(np.dot(a.value, b.value), (a, b), backward)


def pick(x: Node, i: int) -> Node:
    """Select entry i along the first axis: an element of a vector as a 0-d
    node, or a row of a matrix."""
    def backward(g):
        full = np.zeros_like(x.value)
        full[i] = g
        _accum(x, full)
    return x.tape._make(np.asarray(x.value[i]), (x,), backward)
