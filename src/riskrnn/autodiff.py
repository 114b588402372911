"""Reverse-mode autodiff on numpy arrays, recorded on a per-pass tape.

Nodes hold 64-bit arrays (any shape, 0-d scalars included). Ops append nodes
in creation order, which is already a topological order, so the backward pass
is a single reverse sweep that visits each node once. Gradients accumulate
additively, so several loss terms seeded on the same tape combine into one
weighted gradient sum. Nodes that cannot reach a parameter skip closure
creation entirely, which keeps constant-only subgraphs (frozen inference,
observed-frame geometry) cheap.

The ops are the ones the risk model and its losses run, on whole-video
matrices: broadcasting arithmetic, the nonlinearities and matrix and shape
ops they need, and three fused ops with hand-derived backward passes. These
are ``lstm``, the only LSTM, which runs S steps of B independent cells,
``relative_config`` and ``apply_box_transform``. Tests compose references
from these ops and from the few extra ops in tests/oracles.py.

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
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = np.array(g, dtype=np.float64)  # own the buffer
    else:
        node.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting rules)

def add(a: Node, b: Node) -> Node:
    def backward(g):
        _accum(a, _unbroadcast(g, a.value.shape))
        _accum(b, _unbroadcast(g, b.value.shape))
    return a.tape._make(a.value + b.value, (a, b), backward)


def sub(a: Node, b: Node) -> Node:
    def backward(g):
        _accum(a, _unbroadcast(g, a.value.shape))
        _accum(b, _unbroadcast(-g, b.value.shape))
    return a.tape._make(a.value - b.value, (a, b), backward)


def mul(a: Node, b: Node) -> Node:
    def backward(g):
        _accum(a, _unbroadcast(g * b.value, a.value.shape))
        _accum(b, _unbroadcast(g * a.value, b.value.shape))
    return a.tape._make(a.value * b.value, (a, b), backward)


# ---------------------------------------------------------------------------
# nonlinearities

def relu(x: Node) -> Node:
    out = np.maximum(x.value, 0.0)
    def backward(g):
        _accum(x, g * (x.value > 0.0))
    return x.tape._make(out, (x,), backward)


def _logistic(z: np.ndarray) -> np.ndarray:
    # below about -709 exp(-z) overflows to inf, which gives exactly 0, the right limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def sigmoid(x: Node) -> Node:
    out = _logistic(x.value)
    def backward(g):
        _accum(x, g * out * (1.0 - out))
    return x.tape._make(out, (x,), backward)


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


def repeat_cols(x: Node, n: int) -> Node:
    """Repeat each column of a (k, T) matrix n times, copies side by side:
    column t * n + j of the (k, T * n) result is column t."""
    rows, cols = x.value.shape
    def backward(g):
        _accum(x, g.reshape(rows, cols, n).sum(axis=2))
    return x.tape._make(np.repeat(x.value, n, axis=1), (x,), backward)


def vec_slice(x: Node, lo: int, hi: int) -> Node:
    def backward(g):
        full = np.zeros_like(x.value)
        full[lo:hi] = g
        _accum(x, full)
    return x.tape._make(x.value[lo:hi].copy(), (x,), backward)


def reshape(x: Node, shape) -> Node:
    def backward(g):
        _accum(x, g.reshape(x.value.shape))
    return x.tape._make(x.value.reshape(shape), (x,), backward)


# ---------------------------------------------------------------------------
# fused model ops with hand-derived backward passes

def lstm(w: Node, b: Node, x: Node, h0: Node | None = None,
         c0: Node | None = None) -> tuple[Node, Node]:
    """S steps of B independent LSTM cells (no peepholes) as one op.

    ``w`` is the (4H, I + H) weight acting on [input; previous hidden] and
    ``b`` the (4H, 1) bias, gates ordered [input, forget, candidate, output].
    ``x`` is (I, S, B): column (s, b) is the input of cell b at step s. The
    cells start from the (H, B) states ``h0`` and ``c0``, zero when None.
    Returns the (H, S, B) hidden and cell sequences, entry s being the state
    after step s. The inputs of all steps are projected in one matmul; the
    backward pass runs backpropagation through time, forms the weight
    gradient as one product dZ @ [X; H_prev]^T and passes gradients on to
    ``x``, ``h0`` and ``c0``. Fusing the gates and the recurrence into one
    taped op keeps node counts low, which dominates training cost at desk
    scale.
    """
    wv, xv = w.value, x.value
    hdim = wv.shape[0] // 4
    n_in, batch = xv.shape[0], xv.shape[-1]
    h0v = np.zeros((hdim, batch)) if h0 is None else h0.value
    c0v = np.zeros((hdim, batch)) if c0 is None else c0.value
    if (xv.ndim != 3 or wv.shape != (4 * hdim, n_in + hdim) or b.value.shape != (4 * hdim, 1)
            or h0v.shape != (hdim, batch) or c0v.shape != (hdim, batch)):
        raise ValueError(f"lstm shape mismatch: weight {wv.shape}, bias {b.value.shape}, "
                         f"input {xv.shape}, states {h0v.shape} and {c0v.shape}")
    steps = xv.shape[1]
    w_x, w_h = wv[:, :n_in], wv[:, n_in:]
    z_in = (w_x @ xv.reshape(n_in, steps * batch) + b.value).reshape(4 * hdim, steps, batch)
    acts = np.empty((4 * hdim, steps, batch))  # [input; forget; candidate; output] gates
    tanh_c = np.empty((hdim, steps, batch))
    hc = np.empty((2 * hdim, steps, batch))    # [hidden; cell]
    h, c = h0v, c0v
    for t in range(steps):
        z = z_in[:, t] + w_h @ h
        a = _logistic(z)
        a[2 * hdim:3 * hdim] = np.tanh(z[2 * hdim:3 * hdim])
        c = a[hdim:2 * hdim] * c + a[0:hdim] * a[2 * hdim:3 * hdim]
        tanh_c[:, t] = np.tanh(c)
        h = a[3 * hdim:] * tanh_c[:, t]
        acts[:, t] = a
        hc[:hdim, t] = h
        hc[hdim:, t] = c

    def backward(grad):
        i, f, g_, o = acts[0:hdim], acts[hdim:2 * hdim], acts[2 * hdim:3 * hdim], acts[3 * hdim:]
        h_prev = np.concatenate([h0v[:, None], hc[:hdim, :-1]], axis=1)
        c_prev = np.concatenate([c0v[:, None], hc[hdim:, :-1]], axis=1)
        # local derivatives, an entry per step and cell: of the input, forget
        # and candidate preactivations per unit of cell gradient, of the
        # output preactivation per unit of hidden gradient, and of
        # hidden = o * tanh(cell) with respect to the cell
        dz_dc = np.stack([g_ * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g_ * g_)])
        dz_dh = tanh_c * o * (1.0 - o)
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        dz = np.empty((4 * hdim, steps, batch))
        dz_cell = dz[:3 * hdim].reshape(3, hdim, steps, batch)
        dh_next = dc_next = np.zeros((hdim, batch))
        for t in range(steps - 1, -1, -1):
            dh = grad[:hdim, t] + dh_next
            dc = grad[hdim:, t] + dc_next + dh * dc_dh[:, t]
            dz_cell[:, :, t] = dc * dz_dc[:, :, t]
            dz[3 * hdim:, t] = dh * dz_dh[:, t]
            dc_next = dc * f[:, t]
            dh_next = (dz[:, t].T @ w_h).T
        dz_cols = dz.reshape(4 * hdim, steps * batch)
        inputs = np.concatenate([xv, h_prev]).reshape(n_in + hdim, steps * batch)
        _accum(w, dz_cols @ inputs.T)
        _accum(b, dz_cols.sum(axis=1, keepdims=True))
        if x.requires_grad:
            _accum(x, (w_x.T @ dz_cols).reshape(xv.shape))
        if h0 is not None:
            _accum(h0, dh_next)
        if c0 is not None:
            _accum(c0, dc_next)
    states = tuple(s for s in (h0, c0) if s is not None)
    out = w.tape._make(hc, (w, b, x) + states, backward)
    return vec_slice(out, 0, hdim), vec_slice(out, hdim, 2 * hdim)


def relative_config(agent: Node, regions) -> Node:
    """Fused configuration of every region relative to the agent box.

    ``agent`` holds a (cx, cy, w, h) column per model column, (4, C).
    ``regions`` supplies (C, N) arrays ``cx``, ``cy``, ``w``, ``h``, ``x1``,
    ``y1``, ``x2``, ``y2`` and ``area``, row c being the regions column c
    sees, as model.VideoRegions does. The output is (9, C, N). Rows are the
    region's center, min-corner and max-corner offsets from the agent center
    (x over agent width, y over agent height), its size ratios, and the IoU
    of the two boxes, the same cues as the scalar reference in
    tests/oracles.py. The backward pass returns the gradient with respect to
    the agent box only; overlap ties route to the agent's corner, and a span
    of exactly zero passes no gradient.
    """
    cx, cy, w, h = agent.value[:, :, None]
    inv_w, inv_h = 1.0 / w, 1.0 / h
    ax1, ax2 = cx - 0.5 * w, cx + 0.5 * w
    ay1, ay2 = cy - 0.5 * h, cy + 0.5 * h
    span_x = np.minimum(ax2, regions.x2) - np.maximum(ax1, regions.x1)
    span_y = np.minimum(ay2, regions.y2) - np.maximum(ay1, regions.y1)
    iw, ih = np.maximum(span_x, 0.0), np.maximum(span_y, 0.0)
    inter = iw * ih
    union = w * h + regions.area - inter
    out = np.stack([
        (regions.cx - cx) * inv_w,
        (regions.cy - cy) * inv_h,
        (regions.x1 - cx) * inv_w,
        (regions.y1 - cy) * inv_h,
        (regions.x2 - cx) * inv_w,
        (regions.y2 - cy) * inv_h,
        regions.w * inv_w,
        regions.h * inv_h,
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
        g_ax2, g_ax1 = g_span_x * (ax2 <= regions.x2), -g_span_x * (ax1 >= regions.x1)
        g_ay2, g_ay1 = g_span_y * (ay2 <= regions.y2), -g_span_y * (ay1 >= regions.y1)
        # each offset row is (r - c) / s and each size row r / s
        g_cx = -inv_w * per_box(g_x[:3].sum(axis=0)) + per_box(g_ax1 + g_ax2)
        g_cy = -inv_h * per_box(g_y[:3].sum(axis=0)) + per_box(g_ay1 + g_ay2)
        g_w = (-inv_w * per_box((g_x * out[0:7:2]).sum(axis=0))
               + per_box(0.5 * (g_ax2 - g_ax1) + g_union * h))
        g_h = (-inv_h * per_box((g_y * out[1:8:2]).sum(axis=0))
               + per_box(0.5 * (g_ay2 - g_ay1) + g_union * w))
        _accum(agent, np.stack([g_cx, g_cy, g_w, g_h]).reshape(agent.value.shape))
    return agent.tape._make(out, (agent,), backward)


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
