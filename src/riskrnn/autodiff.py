"""Reverse-mode autodiff on numpy arrays, recorded on a per-pass tape.

Nodes hold 64-bit arrays (any shape, 0-d scalars included). Ops append nodes
in creation order, which is already a topological order, so the backward pass
is a single reverse sweep that visits each node once. Gradients accumulate
additively, so several loss terms seeded on the same tape combine into one
weighted gradient sum. Nodes that cannot reach a parameter skip closure
creation entirely, which keeps constant-only subgraphs (frozen inference,
observed-frame geometry) cheap.

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

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    # operators; raw numbers/arrays are wrapped as constants
    def __add__(self, other):
        return add(self, _wrap(self.tape, other))

    def __radd__(self, other):
        return add(_wrap(self.tape, other), self)

    def __sub__(self, other):
        return sub(self, _wrap(self.tape, other))

    def __rsub__(self, other):
        return sub(_wrap(self.tape, other), self)

    def __mul__(self, other):
        return mul(self, _wrap(self.tape, other))

    def __rmul__(self, other):
        return mul(_wrap(self.tape, other), self)

    def __truediv__(self, other):
        return div(self, _wrap(self.tape, other))

    def __rtruediv__(self, other):
        return div(_wrap(self.tape, other), self)

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"Node(shape={self.value.shape}, requires_grad={self.requires_grad})"


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

    def leaf(self, value) -> Node:
        """A differentiable input that is not a stored parameter."""
        node = Node(self, np.asarray(value, dtype=np.float64), self.train)
        if node.requires_grad:
            self.nodes.append(node)
        return node

    def param(self, pm) -> Node:
        """Leaf node viewing a ParamMatrix; cached so reuse shares one node."""
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

        ``loss`` must be scalar. Parameter gradients are ADDED into their
        ParamMatrix.grad buffers, so calling this once per sample accumulates
        a batch gradient.
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


# ---------------------------------------------------------------------------
# nonlinearities

def relu(x: Node) -> Node:
    out = np.maximum(x.value, 0.0)
    def backward(g):
        _accum(x, g * (x.value > 0.0))
    return x.tape._make(out, (x,), backward)


def sigmoid(x: Node) -> Node:
    out = 1.0 / (1.0 + np.exp(-x.value))
    def backward(g):
        _accum(x, g * out * (1.0 - out))
    return x.tape._make(out, (x,), backward)


def tanh(x: Node) -> Node:
    out = np.tanh(x.value)
    def backward(g):
        _accum(x, g * (1.0 - out * out))
    return x.tape._make(out, (x,), backward)


def exp(x: Node) -> Node:
    out = np.exp(x.value)
    def backward(g):
        _accum(x, g * out)
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
    """2-D @ 1-D or 2-D @ 2-D product."""
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim not in (1, 2) or av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
    if bv.ndim == 1:
        def backward(g):
            _accum(a, np.outer(g, bv))
            _accum(b, av.T @ g)
    else:
        def backward(g):
            _accum(a, g @ bv.T)
            _accum(b, av.T @ g)
    return a.tape._make(av @ bv, (a, b), backward)


def dot(a: Node, b: Node) -> Node:
    def backward(g):
        _accum(a, g * b.value)
        _accum(b, g * a.value)
    return a.tape._make(np.dot(a.value, b.value), (a, b), backward)


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


def stack_rows(parts) -> Node:
    """Stack 1-D nodes of equal length into a (len(parts), n) matrix."""
    def backward(g):
        for i, p in enumerate(parts):
            _accum(p, g[i])
    return parts[0].tape._make(np.stack([p.value for p in parts]),
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


def pick(x: Node, i: int) -> Node:
    """Select entry i along the first axis: an element of a vector as a 0-d
    node, or a row of a matrix."""
    def backward(g):
        full = np.zeros_like(x.value)
        full[i] = g
        _accum(x, full)
    return x.tape._make(np.asarray(x.value[i]), (x,), backward)


def reshape(x: Node, shape) -> Node:
    def backward(g):
        _accum(x, g.reshape(x.value.shape))
    return x.tape._make(x.value.reshape(shape), (x,), backward)


def flatten(x: Node) -> Node:
    return reshape(x, (-1,))


def lstm_core(z: Node, c_prev: Node) -> tuple[Node, Node]:
    """Fused LSTM cell body: gates from preactivations, then the state update.

    ``z`` holds the stacked (4H,) gate preactivations ordered
    [input, forget, candidate, output], or a (4H, B) matrix of them with one
    independent cell per column and a (H, B) ``c_prev``. Returns (hidden,
    cell). Fusing the gate nonlinearities and products into one taped op keeps
    node counts low, which dominates training cost at desk scale.
    """
    hdim = c_prev.value.shape[0]
    want = (4 * hdim,) + c_prev.value.shape[1:]
    if z.value.shape != want:
        raise ValueError(f"lstm_core expects {want} preactivations, got {z.value.shape}")
    zv = z.value
    i = 1.0 / (1.0 + np.exp(-zv[0:hdim]))
    f = 1.0 / (1.0 + np.exp(-zv[hdim:2 * hdim]))
    g_ = np.tanh(zv[2 * hdim:3 * hdim])
    o = 1.0 / (1.0 + np.exp(-zv[3 * hdim:4 * hdim]))
    cell = f * c_prev.value + i * g_
    tanh_c = np.tanh(cell)
    hidden = o * tanh_c

    def backward(g):
        gh = g[0:hdim]
        dc = g[hdim:2 * hdim] + gh * o * (1.0 - tanh_c * tanh_c)
        dz = np.empty_like(zv)
        dz[0:hdim] = dc * g_ * i * (1.0 - i)
        dz[hdim:2 * hdim] = dc * c_prev.value * f * (1.0 - f)
        dz[2 * hdim:3 * hdim] = dc * i * (1.0 - g_ * g_)
        dz[3 * hdim:4 * hdim] = gh * tanh_c * o * (1.0 - o)
        _accum(z, dz)
        _accum(c_prev, dc * f)
    hc = z.tape._make(np.concatenate([hidden, cell]), (z, c_prev), backward)
    return vec_slice(hc, 0, hdim), vec_slice(hc, hdim, 2 * hdim)


def lstm_sweep(w: Node, b: Node, x: Node) -> tuple[Node, Node]:
    """An LSTM run over the T columns of ``x`` from a zero state, as one op.

    ``w`` is the (4H, I + H) weight acting on [input; previous hidden] and
    ``b`` the (4H, 1) bias, gates ordered as in ``lstm_core``; ``x`` is
    (I, T). Returns the (H, T) hidden and cell sequences, column t being the
    state after step t. The inputs of all T steps are projected in one matmul;
    the backward pass runs backpropagation through time and forms the weight
    gradient as one product dZ @ [X; H_prev]^T.
    """
    wv, xv = w.value, x.value
    n_in, steps = xv.shape
    hdim = wv.shape[0] // 4
    if wv.shape != (4 * hdim, n_in + hdim) or b.value.shape != (4 * hdim, 1):
        raise ValueError(f"lstm_sweep shape mismatch: weight {wv.shape}, "
                         f"bias {b.value.shape}, input {xv.shape}")
    w_x, w_h = wv[:, :n_in], wv[:, n_in:]
    z_in = w_x @ xv + b.value
    acts = np.empty((4 * hdim, steps))   # [input; forget; candidate; output] gates
    tanh_c = np.empty((hdim, steps))
    hc = np.empty((2 * hdim, steps))     # [hidden; cell]
    h = c = np.zeros(hdim)
    for t in range(steps):
        z = z_in[:, t] + w_h @ h
        a = 1.0 / (1.0 + np.exp(-z))
        a[2 * hdim:3 * hdim] = np.tanh(z[2 * hdim:3 * hdim])
        c = a[hdim:2 * hdim] * c + a[0:hdim] * a[2 * hdim:3 * hdim]
        tanh_c[:, t] = np.tanh(c)
        h = a[3 * hdim:] * tanh_c[:, t]
        acts[:, t] = a
        hc[:hdim, t] = h
        hc[hdim:, t] = c

    def backward(grad):
        i, f, g_, o = acts[0:hdim], acts[hdim:2 * hdim], acts[2 * hdim:3 * hdim], acts[3 * hdim:]
        h_prev = np.zeros((hdim, steps))
        h_prev[:, 1:] = hc[:hdim, :-1]
        c_prev = np.zeros((hdim, steps))
        c_prev[:, 1:] = hc[hdim:, :-1]
        # local derivatives, a column per step: of the input, forget and
        # candidate preactivations per unit of cell gradient, of the output
        # preactivation per unit of hidden gradient, and of hidden = o * tanh(cell)
        # with respect to the cell
        dz_dc = np.stack([g_ * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g_ * g_)])
        dz_dh = tanh_c * o * (1.0 - o)
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        dz = np.empty((4 * hdim, steps))
        dz_cell = dz[:3 * hdim].reshape(3, hdim, steps)
        dh_next = dc_next = np.zeros(hdim)
        for t in range(steps - 1, -1, -1):
            dh = grad[:hdim, t] + dh_next
            dc = grad[hdim:, t] + dc_next + dh * dc_dh[:, t]
            dz_cell[:, :, t] = dc * dz_dc[:, :, t]
            dz[3 * hdim:, t] = dh * dz_dh[:, t]
            dc_next = dc * f[:, t]
            dh_next = dz[:, t] @ w_h
        _accum(w, dz @ np.concatenate([xv, h_prev]).T)
        _accum(b, dz.sum(axis=1, keepdims=True))
        if x.requires_grad:
            _accum(x, w_x.T @ dz)
    out = w.tape._make(hc, (w, b, x), backward)
    return vec_slice(out, 0, hdim), vec_slice(out, hdim, 2 * hdim)


def relative_config(agent: Node, regions) -> Node:
    """Fused configuration of every region relative to the agent box.

    ``agent`` holds (cx, cy, w, h), either one (4,) box or a (4, T) column per
    frame. ``regions`` supplies arrays ``cx``, ``cy``, ``w``, ``h``, ``x1``,
    ``y1``, ``x2``, ``y2`` and ``area`` of shape (N,) for one box, as
    data.RegionSet does, or (T, N) for T columns. The output is (9, N) or
    (9, T, N). Rows are the region's center, min-corner and max-corner
    offsets from the agent center (x over agent width, y over agent height),
    its size ratios, and the IoU of the two boxes, the same cues as
    geometry.relative_config. The backward pass returns the gradient with
    respect to the agent box only; overlap ties route the way ``minimum``,
    ``maximum`` and ``relu`` route them.
    """
    a = agent.value if agent.value.ndim == 1 else agent.value[:, :, None]
    cx, cy, w, h = a
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
    scaled by the exponent of its log ratio, as geometry.apply_box_transform
    does. ``box`` and ``c`` are (4,) or (4, T) with one box per column.
    """
    p, cv = box.value, c.value
    scale = np.exp(cv[2:4])
    out = np.concatenate([cv[0:2] * p[2:4] + p[0:2], scale * p[2:4]])

    def backward(g):
        g_xy, g_wh = g[0:2], g[2:4]
        _accum(c, np.concatenate([g_xy * p[2:4], g_wh * out[2:4]]))
        _accum(box, np.concatenate([g_xy, g_xy * cv[0:2] + g_wh * scale]))
    return box.tape._make(out, (box, c), backward)
