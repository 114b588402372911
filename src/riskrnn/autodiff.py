"""Reverse-mode autodiff on numpy arrays, recorded on a per-pass tape.

Nodes hold 64-bit arrays (any shape, 0-d scalars included) that are never
written once made, so an op may return a view of its input. Ops append nodes
in creation order, which is already a topological order, so the backward pass
is a single reverse sweep that visits each node once. Gradients accumulate
additively and out of place, so several loss terms seeded on the same tape
combine into one weighted gradient sum and ops may pass one gradient buffer
to several nodes. Every op builds its backward closure, but a node none of
whose inputs needs a gradient is not taped and ``_make`` drops the closure,
so constant-only subgraphs (frozen inference, observed-frame geometry) cost
nothing in the backward sweep.

The ops are the ones the risk model and its losses run, on whole-video
matrices: broadcasting arithmetic, the nonlinearities and matrix and shape
ops they need, and four fused ops with hand-derived backward passes. These
are ``lstm``, the only LSTM, which runs S steps of B independent cells
(frame-major columns outside, one contiguous block per step inside),
``relative_config``, ``region_scores``, the region classifier with its
agent half taken once per column, and ``apply_box_transform``. Tests
compose references from these ops and from the few extra ops in
tests/oracles.py.

A tape is single-use for backward; build a fresh one per forward/backward
pass. A recording tape and its nodes form a reference cycle (each node points
back at its tape), so a trainer releases the tape once its gradients are in
the parameters rather than leave it to the cyclic garbage collector.
"""
from __future__ import annotations

import numpy as np


class Node:
    __slots__ = ("value", "grad", "requires_grad", "_backward", "tape")

    def __init__(self, tape, value, requires_grad):
        self.tape = tape
        self.value = value
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None

    # operators; raw numbers/arrays are wrapped as constants
    def __add__(self, other):
        return add(self, _wrap(self.tape, other))

    def __sub__(self, other):
        return sub(self, _wrap(self.tape, other))

    def __mul__(self, other):
        return mul(self, _wrap(self.tape, other))

    def __rmul__(self, other):
        return mul(_wrap(self.tape, other), self)

    def __neg__(self):
        return self * -1.0


class Tape:
    """Ordered record of differentiable ops for one forward/backward pass.

    With ``train=False`` parameter leaves are treated as constants and the
    whole pass records nothing, which is the cheap inference mode.
    """

    def __init__(self, train: bool = True):
        self.train = train
        self.nodes: list[Node] = []
        self._params: dict[str, tuple] = {}  # name -> (ParamMatrix, Node)

    def const(self, value) -> Node:
        return Node(self, np.asarray(value, dtype=np.float64), False)

    def param(self, pm) -> Node:
        """Leaf node viewing a ParamMatrix's values; cached so reuse shares one node."""
        cached = self._params.get(pm.name)
        if cached is not None:
            return cached[1]
        node = Node(self, pm.values, self.train)
        if node.requires_grad:
            self.nodes.append(node)
        self._params[pm.name] = (pm, node)
        return node

    def _make(self, value, parents, backward) -> Node:
        requires = any(p.requires_grad for p in parents)
        if type(value) is not np.ndarray:
            value = np.asarray(value, dtype=np.float64)
        node = Node(self, value, requires)
        if requires:
            node._backward = backward
            self.nodes.append(node)
        return node

    def backward(self, loss: Node, seed: float = 1.0) -> None:
        """Propagate d(seed * loss) into every reachable leaf and parameter.

        ``loss`` must be scalar. Parameter gradients are ADDED into each
        ParamMatrix's grad view, which is its span of the store's flat grad
        vector, so calling this once per sample accumulates a batch gradient.
        """
        if loss.value.ndim != 0:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        if not loss.requires_grad:
            return
        _accum(loss, np.asarray(seed, dtype=np.float64))
        for node in reversed(self.nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)
        for pm, node in self._params.values():
            if node.grad is not None:
                pm.grad += node.grad

    def release(self) -> None:
        """Forget the recorded nodes, which breaks the tape's reference cycle
        so the tape and its graph are freed as soon as callers drop them."""
        self.nodes = []
        self._params = {}


def _wrap(tape: Tape, x) -> Node:
    return x if isinstance(x, Node) else tape.const(x)


def _accum(node: Node, g) -> None:
    """Add ``g`` to the node's gradient out of place: gradients may share buffers."""
    if node.requires_grad:
        node.grad = g if node.grad is None else node.grad + g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting rules); an operand's gradient
# is computed only if it needs one, so a constant operand costs nothing

def add(a: Node, b: Node) -> Node:
    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.value.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.value.shape))
    return a.tape._make(a.value + b.value, (a, b), backward)


def sub(a: Node, b: Node) -> Node:
    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.value.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.value.shape))
    return a.tape._make(a.value - b.value, (a, b), backward)


def mul(a: Node, b: Node) -> Node:
    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.value, a.value.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.value, b.value.shape))
    return a.tape._make(a.value * b.value, (a, b), backward)


# ---------------------------------------------------------------------------
# nonlinearities

def _logistic(z: np.ndarray) -> np.ndarray:
    # below about -709 exp(-z) overflows to inf, which gives exactly 0, the right limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def log(x: Node) -> Node:
    def backward(g):
        _accum(x, g / x.value)
    return x.tape._make(np.log(x.value), (x,), backward)


def softmax(x: Node) -> Node:
    """Stable softmax over the first axis: of a vector, or of each column of
    a matrix; every output column sums to one."""
    shifted = x.value - x.value.max(axis=0)
    e = np.exp(shifted)
    out = e / e.sum(axis=0)
    def backward(g):
        _accum(x, out * (g - (g * out).sum(axis=0)))
    return x.tape._make(out, (x,), backward)


def clip(x: Node, lo: float, hi: float) -> Node:
    """Clamp values; gradient passes only through the interior."""
    mask = (x.value > lo) & (x.value < hi)
    def backward(g):
        _accum(x, g * mask)
    return x.tape._make(np.clip(x.value, lo, hi), (x,), backward)


def smooth_l1(x: Node) -> Node:
    """Element-wise Huber penalty, quadratic inside the unit interval."""
    a = np.abs(x.value)
    out = np.where(a < 1.0, 0.5 * x.value * x.value, a - 0.5)
    local = np.where(a < 1.0, x.value, np.sign(x.value))
    def backward(g):
        _accum(x, g * local)
    return x.tape._make(out, (x,), backward)


# ---------------------------------------------------------------------------
# linear algebra and shape ops

def matmul(a: Node, b: Node) -> Node:
    """Product of two matrices."""
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
    def backward(g):
        _accum(a, g @ bv.T)
        _accum(b, av.T @ g)
    return a.tape._make(av @ bv, (a, b), backward)


def vsum(x: Node, axis=None) -> Node:
    def backward(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.value.shape))
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.value.shape))
    return x.tape._make(x.value.sum(axis=axis), (x,), backward)


def concat(parts) -> Node:
    """Join nodes along the first axis: vectors end to end, matrices with the
    same columns one above the other."""
    sizes = [p.value.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)
    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[lo:hi])
    return parts[0].tape._make(np.concatenate([p.value for p in parts]),
                               tuple(parts), backward)


def vec_slice(x: Node, lo: int, hi: int) -> Node:
    def backward(g):
        full = np.zeros_like(x.value)
        full[lo:hi] = g
        _accum(x, full)
    return x.tape._make(x.value[lo:hi], (x,), backward)


def reshape(x: Node, shape) -> Node:
    def backward(g):
        _accum(x, g.reshape(x.value.shape))
    return x.tape._make(x.value.reshape(shape), (x,), backward)


# ---------------------------------------------------------------------------
# fused model ops with hand-derived backward passes

def lstm(w: Node, b: Node, x: Node, state: tuple[Node, Node] | None,
         sequences: int) -> tuple[Node, Node]:
    """S steps of B independent LSTM cells (no peepholes) as one op.

    ``w`` is the (4H, I + H) weight acting on [input; previous hidden] and
    ``b`` the (4H, 1) bias, gates ordered [input, forget, candidate, output].
    ``x`` is (I, S * B): column t * B + b is the input of cell b at step t,
    B always being ``sequences``. The cells start from ``state``, a (hidden,
    cell) pair of (H, B) nodes, or from zero when it is None; a state of
    another column count is a shape error. Returns the (H, S * B) hidden and
    cell states, column t * B + b being cell b after step t. The inputs of all steps are
    projected in one matmul; the backward pass runs backpropagation through
    time, forms the weight gradient as one product dZ @ [X; H_prev]^T and
    passes gradients on to ``x`` and the two start states. Fusing the gates
    and the recurrence into one taped op keeps node counts low, which
    dominates training cost at desk scale.

    Inside, the steps are step-major: the gates, states and gradients of
    step t are one contiguous (·, B) block of an (S, ·, B) array, so each
    step's elementwise calls run on contiguous memory, not on B strided
    columns of frame-major arrays; the gates become activations in place.
    The output, and dZ and H_prev before the weight gradient, are transposed
    back to frame-major columns once, so that dZ @ [X; H_prev]^T and the
    bias sum reduce over the columns in the order the input gives them and
    round exactly as a loop over frame-major columns does.
    """
    wv, xv = w.value, x.value
    hdim = wv.shape[0] // 4
    h0, c0 = state or (None, None)
    h0v = np.zeros((hdim, sequences)) if state is None else h0.value
    c0v = np.zeros((hdim, sequences)) if state is None else c0.value
    if (xv.ndim != 2 or sequences < 1 or xv.shape[1] % sequences != 0
            or wv.shape != (4 * hdim, xv.shape[0] + hdim) or b.value.shape != (4 * hdim, 1)
            or h0v.shape != (hdim, sequences) or c0v.shape != (hdim, sequences)):
        raise ValueError(f"lstm shape mismatch: weight {wv.shape}, bias {b.value.shape}, input "
                         f"{xv.shape} of {sequences} cells, states {h0v.shape} and {c0v.shape}")
    n_in, columns = xv.shape
    steps = columns // sequences
    w_x, w_h = wv[:, :n_in], wv[:, n_in:]
    # step t's gates are the contiguous (4H, B) block acts[t], preactivations
    # until the step turns them into activations in place
    acts = np.empty((steps, 4 * hdim, sequences))
    np.add((w_x @ xv).reshape(4 * hdim, steps, sequences).transpose(1, 0, 2), b.value, out=acts)
    tanh_c = np.empty((steps, hdim, sequences))
    hc = np.empty((steps, 2 * hdim, sequences))  # [hidden; cell]
    i, f, g_, o = (acts[:, k * hdim:(k + 1) * hdim] for k in range(4))
    h, c = h0v, c0v
    # below about -709 exp(-z) overflows to inf, which gives exactly 0, the right limit
    with np.errstate(over="ignore"):
        for t in range(steps):
            z = acts[t]
            z += w_h @ h
            candidate = np.tanh(z[2 * hdim:3 * hdim])
            np.negative(z, out=z)
            np.exp(z, out=z)
            z += 1.0
            np.divide(1.0, z, out=z)  # the logistic of every gate ...
            g_[t] = candidate         # ... but the candidate's, a tanh
            c_prev = c
            h, c = hc[t, :hdim], hc[t, hdim:]
            np.multiply(f[t], c_prev, out=c)
            c += i[t] * g_[t]
            np.tanh(c, out=tanh_c[t])
            np.multiply(o[t], tanh_c[t], out=h)

    def backward(grad):
        c_prev = np.concatenate([c0v[None], hc[:-1, hdim:]])
        # local derivatives, an entry per step and cell: of the input, forget
        # and candidate preactivations per unit of cell gradient, of the
        # output preactivation per unit of hidden gradient, and of
        # hidden = o * tanh(cell) with respect to the cell
        dz_dc = np.stack([g_ * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g_ * g_)],
                         axis=1)
        dz_dh = tanh_c * o * (1.0 - o)
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        grad = np.ascontiguousarray(grad.reshape(2 * hdim, steps, sequences).transpose(1, 0, 2))
        dz = np.empty((steps, 4 * hdim, sequences))
        dh_next = dc_next = np.zeros((hdim, sequences))
        for t in range(steps - 1, -1, -1):
            dh = grad[t, :hdim] + dh_next
            dc = grad[t, hdim:] + dc_next + dh * dc_dh[t]
            np.multiply(dc, dz_dc[t], out=dz[t, :3 * hdim].reshape(3, hdim, sequences))
            np.multiply(dh, dz_dh[t], out=dz[t, 3 * hdim:])
            dc_next = dc * f[t]
            dh_next = (dz[t].T @ w_h).T
        # back to frame-major columns, so that the weight and bias gradients
        # sum over the columns in the order of the input's
        dz = np.ascontiguousarray(dz.transpose(1, 0, 2)).reshape(4 * hdim, columns)
        xh = np.empty((n_in + hdim, steps, sequences))  # [input; previous hidden]
        xh[:n_in] = xv.reshape(n_in, steps, sequences)
        xh[n_in:, 0] = h0v
        xh[n_in:, 1:] = hc[:-1, :hdim].transpose(1, 0, 2)
        _accum(w, dz @ xh.reshape(n_in + hdim, columns).T)
        _accum(b, dz.sum(axis=1, keepdims=True))
        if x.requires_grad:
            _accum(x, w_x.T @ dz)
        if state is not None:
            _accum(h0, dh_next)
            _accum(c0, dc_next)
    out = w.tape._make(np.ascontiguousarray(hc.transpose(1, 0, 2)).reshape(2 * hdim, columns),
                       (w, b, x, *(state or ())), backward)
    return vec_slice(out, 0, hdim), vec_slice(out, hdim, 2 * hdim)


def relative_config(agent: Node, region_boxes: np.ndarray) -> Node:
    """Fused configuration of every region relative to the agent box.

    ``agent`` holds a (cx, cy, w, h) column per model column, (4, C), and
    ``region_boxes`` the (C, N, 4) (cx, cy, w, h) boxes of the regions each
    column sees. The output is (9, C, N). Rows are the region's center,
    min-corner and max-corner offsets from the agent center (x over agent
    width, y over agent height), its size ratios, and the IoU of the two
    boxes, the same cues as the scalar reference in tests/oracles.py. The
    backward pass returns the gradient with respect to the agent box only;
    overlap ties route to the agent's corner, and a span of exactly zero
    passes no gradient.
    """
    cx, cy, w, h = agent.value[:, :, None]
    rcx, rcy, rw, rh = np.moveaxis(region_boxes, 2, 0)
    rx1, ry1, rx2, ry2 = rcx - 0.5 * rw, rcy - 0.5 * rh, rcx + 0.5 * rw, rcy + 0.5 * rh
    inv_w, inv_h = 1.0 / w, 1.0 / h
    ax1, ax2 = cx - 0.5 * w, cx + 0.5 * w
    ay1, ay2 = cy - 0.5 * h, cy + 0.5 * h
    span_x = np.minimum(ax2, rx2) - np.maximum(ax1, rx1)
    span_y = np.minimum(ay2, ry2) - np.maximum(ay1, ry1)
    iw, ih = np.maximum(span_x, 0.0), np.maximum(span_y, 0.0)
    inter = iw * ih
    union = w * h + rw * rh - inter
    out = np.stack([
        (rcx - cx) * inv_w,
        (rcy - cy) * inv_h,
        (rx1 - cx) * inv_w,
        (ry1 - cy) * inv_h,
        (rx2 - cx) * inv_w,
        (ry2 - cy) * inv_h,
        rw * inv_w,
        rh * inv_h,
        inter / union,
    ])

    def backward(g):
        def per_box(v):  # sum over the regions of each agent box
            return v.sum(axis=-1, keepdims=True)
        g_x, g_y, g_iou = g[0:7:2], g[1:8:2], g[8]
        # IoU = inter / union with union = w * h + area - inter
        g_inter = g_iou * (1.0 / union + inter / (union * union))
        g_union = -g_iou * inter / (union * union)
        g_span_x = g_inter * ih * (span_x > 0.0)
        g_span_y = g_inter * iw * (span_y > 0.0)
        # span = min(a2, r2) - max(a1, r1); ties go to the agent's corner
        g_ax2, g_ax1 = g_span_x * (ax2 <= rx2), -g_span_x * (ax1 >= rx1)
        g_ay2, g_ay1 = g_span_y * (ay2 <= ry2), -g_span_y * (ay1 >= ry1)
        # each offset row is (r - c) / s and each size row r / s
        g_cx = -inv_w * per_box(g_x[:3].sum(axis=0)) + per_box(g_ax1 + g_ax2)
        g_cy = -inv_h * per_box(g_y[:3].sum(axis=0)) + per_box(g_ay1 + g_ay2)
        g_w = (-inv_w * per_box((g_x * out[0:7:2]).sum(axis=0))
               + per_box(0.5 * (g_ax2 - g_ax1) + g_union * h))
        g_h = (-inv_h * per_box((g_y * out[1:8:2]).sum(axis=0))
               + per_box(0.5 * (g_ay2 - g_ay1) + g_union * w))
        _accum(agent, np.stack([g_cx, g_cy, g_w, g_h]).reshape(agent.value.shape))
    return agent.tape._make(out, (agent,), backward)


def region_scores(geom_w: Node, geom_b: Node, scorer_w: Node, scorer_b: Node,
                  agent: Node, u: Node, feats: np.ndarray) -> Node:
    """Fused (C, N) risk scores of every region of every column.

    ``u`` is the (G, C, N) configuration of each region relative to its
    column's agent, ``agent`` the (A, C) agent code and ``feats`` the
    (R, C, N) region appearances. Each region's geometry is embedded as
    E = relu(geom_w @ u + geom_b), (K, C, N); the (R, A + K) ``scorer_w``
    acting on [agent; E] and the (R, 1) ``scorer_b`` give its classifier
    weights P = relu(...), and its score is the logistic of P · feats.

    The agent rows of [agent; E] are the same for every region of a column,
    so ``scorer_w`` is split by columns into [W_a | W_e] and the agent half
    W_a @ agent + scorer_b is one (R, C) product, broadcast over the N
    regions, not N copies of the agent code stacked onto E. The backward
    pass sums P's gradient over the regions once for the gradients of W_a,
    ``scorer_b`` and the agent code, and passes none to ``agent`` or ``u``
    when they are constants.
    """
    gw, sw, av, uv = geom_w.value, scorer_w.value, agent.value, u.value
    n_agent, columns = av.shape
    rows = sw.shape[0]
    cells = uv.shape[1:]
    if (uv.ndim != 3 or cells[0] != columns or gw.shape[1] != uv.shape[0]
            or geom_b.value.shape != (gw.shape[0], 1)
            or sw.shape[1] != n_agent + gw.shape[0] or scorer_b.value.shape != (rows, 1)
            or feats.shape != (rows,) + cells):
        raise ValueError(f"region_scores shape mismatch: geometry {gw.shape} and "
                         f"{geom_b.value.shape} on {uv.shape}, scorer {sw.shape} and "
                         f"{scorer_b.value.shape} on an {av.shape} agent code, "
                         f"appearances {feats.shape}")
    u_cols = uv.reshape(uv.shape[0], -1)
    w_a, w_e = sw[:, :n_agent], sw[:, n_agent:]
    embedded = gw @ u_cols
    embedded += geom_b.value
    np.maximum(embedded, 0.0, out=embedded)
    per_column = w_a @ av
    per_column += scorer_b.value
    weights = w_e @ embedded
    weights_3d = weights.reshape((rows,) + cells)
    weights_3d += per_column[:, :, None]
    # the backward pass needs only where P is live, so P is then multiplied
    # by the appearances in place: no (R, C, N) temporary per call
    live = weights_3d > 0.0
    np.maximum(weights, 0.0, out=weights)
    weights_3d *= feats
    out = _logistic(weights_3d.sum(axis=0))

    def backward(g):
        g_pre = feats * (g * out * (1.0 - out))
        g_pre *= live
        g_pre_cols = g_pre.reshape(rows, -1)
        g_column = g_pre.sum(axis=2)
        g_embedded = w_e.T @ g_pre_cols
        g_embedded *= embedded > 0.0
        _accum(scorer_w, np.concatenate([g_column @ av.T, g_pre_cols @ embedded.T], axis=1))
        _accum(scorer_b, g_column.sum(axis=1, keepdims=True))
        _accum(geom_w, g_embedded @ u_cols.T)
        _accum(geom_b, g_embedded.sum(axis=1, keepdims=True))
        if agent.requires_grad:
            _accum(agent, w_a.T @ g_column)
        if u.requires_grad:
            _accum(u, (gw.T @ g_embedded).reshape(uv.shape))
    return agent.tape._make(out, (geom_w, geom_b, scorer_w, scorer_b, agent, u), backward)


def apply_box_transform(box: Node, c: Node) -> Node:
    """Boxes (cx, cy, w, h) moved by transforms (dx, dy, log sw, log sh).

    The center moves by the offsets times the box size and each side is
    scaled by the exponent of its log ratio; geometry.encode_box_transform is
    its inverse. ``box`` and ``c`` are (4,) or (4, T) with one box per column.
    """
    p, cv = box.value, c.value
    scale = np.exp(cv[2:4])
    out = np.concatenate([cv[0:2] * p[2:4] + p[0:2], scale * p[2:4]])

    def backward(g):
        g_xy, g_wh = g[0:2], g[2:4]
        _accum(c, np.concatenate([g_xy * p[2:4], g_wh * out[2:4]]))
        _accum(box, np.concatenate([g_xy, g_xy * cv[0:2] + g_wh * scale]))
    return box.tape._make(out, (box, c), backward)
