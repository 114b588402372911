"""Parameter storage, dense/LSTM building blocks, Adam, and model files.

Parameters live in a ParameterStore of named 2-D float64 matrices (biases are
(n, 1) columns). Names ending in ``_rnn_b`` are LSTM bias blocks laid out as
[input, forget, candidate, output]; their forget quarter is initialized to
one so fresh cells retain memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape


class TrainingError(RuntimeError):
    pass


class ParamMatrix:
    __slots__ = ("name", "values", "grad")

    def __init__(self, name: str, values: np.ndarray):
        self.name = name
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = np.zeros_like(self.values)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def __repr__(self):
        return f"ParamMatrix({self.name}, {self.rows}x{self.cols})"


class ParameterStore:
    """Ordered collection of named parameter matrices plus optimizer moments."""

    def __init__(self):
        self._params: dict[str, ParamMatrix] = {}
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}

    def add(self, pm: ParamMatrix) -> None:
        if pm.name in self._params:
            raise ValueError(f"duplicate parameter name: {pm.name}")
        self._params[pm.name] = pm

    def __getitem__(self, name: str) -> ParamMatrix:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params.keys())

    def zero_grads(self) -> None:
        for pm in self:
            pm.grad.fill(0.0)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: pm.values.copy() for name, pm in self._params.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, values in snap.items():
            self._params[name].values[...] = values


def init_params(specs, seed: int) -> ParameterStore:
    """Build a store from (name, rows, cols) triples.

    Entries are drawn uniformly from +/- sqrt(6 / (rows + cols)); the forget
    quarter of any ``*_rnn_b`` block is then overwritten with exactly 1.0.
    Deterministic for a given seed.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    store = ParameterStore()
    for name, rows, cols in specs:
        if rows < 1 or cols < 1:
            raise ValueError(f"parameter {name!r} needs positive dims, got {rows}x{cols}")
        bound = math.sqrt(6.0 / (rows + cols))
        values = rng.uniform(-bound, bound, size=(rows, cols))
        if name.endswith("_rnn_b"):
            if rows % 4 != 0 or cols != 1:
                raise ValueError(f"LSTM bias {name!r} must be a (4H, 1) column")
            h = rows // 4
            values[h:2 * h, 0] = 1.0
        store.add(ParamMatrix(name, values))
    return store


def dense(tape: Tape, weight: ParamMatrix, x: Node, bias: ParamMatrix | None = None) -> Node:
    """weight @ x (+ bias), recorded on the tape.

    ``x`` may be a vector or a matrix of column samples; the (n, 1) bias
    broadcasts across columns in the matrix case.
    """
    w = tape.param(weight)
    out = ad.matmul(w, x)
    if bias is not None:
        b = tape.param(bias)
        if x.value.ndim == 1:
            b = ad.flatten(b)
        out = out + b
    return out


@dataclass
class LstmState:
    """Hidden and cell vectors threaded through time as tape nodes."""

    hidden: Node
    cell: Node


def lstm_zero_state(tape: Tape, hidden_dim: int) -> LstmState:
    return LstmState(tape.const(np.zeros(hidden_dim)),
                     tape.const(np.zeros(hidden_dim)))


def lstm_step(tape: Tape, weight: ParamMatrix, bias: ParamMatrix,
              x: Node, state: LstmState) -> LstmState:
    """One vanilla LSTM step (no peepholes), gates ordered i, f, g, o."""
    hidden_dim = weight.rows // 4
    if x.value.ndim != 1 or weight.cols != x.value.shape[0] + hidden_dim:
        raise ValueError(
            f"lstm shape mismatch: weight {weight.values.shape}, "
            f"input {x.value.shape}, hidden {hidden_dim}"
        )
    z = dense(tape, weight, ad.concat([x, state.hidden]), bias)
    hidden, cell = ad.lstm_core(z, state.cell)
    return LstmState(hidden, cell)


def adam_step(store: ParameterStore, lr: float = 1e-4, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8, *, t: int) -> None:
    """Bias-corrected Adam update from accumulated grads; zeroes grads after.

    ``t`` is the 1-based step index; first and second moments persist in the
    store across calls.
    """
    if t < 1:
        raise ValueError(f"adam step index must be >= 1, got {t}")
    for pm in store:
        g = pm.grad
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in parameter {pm.name!r}")
        m = store.adam_m.setdefault(pm.name, np.zeros_like(g))
        v = store.adam_v.setdefault(pm.name, np.zeros_like(g))
        m[...] = beta1 * m + (1.0 - beta1) * g
        v[...] = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        pm.values -= lr * m_hat / (np.sqrt(v_hat) + eps)
    store.zero_grads()


def finite_diff_check(store: ParameterStore, make_loss, h: float = 1e-5) -> float:
    """Worst relative disagreement between tape gradients and central differences.

    ``make_loss`` rebuilds the forward pass from the store's current values
    and returns (tape, scalar loss node); it must be deterministic. Relative
    error uses a small denominator floor so near-zero gradients are compared
    absolutely.
    """
    store.zero_grads()
    tape, loss = make_loss()
    tape.backward(loss)
    analytic = {pm.name: pm.grad.copy() for pm in store}
    store.zero_grads()

    def loss_value() -> float:
        return float(make_loss()[1].value)

    worst = 0.0
    for pm in store:
        values = pm.values
        flat = values.reshape(-1)
        for idx in range(flat.shape[0]):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_value()
            flat[idx] = orig - h
            down = loss_value()
            flat[idx] = orig
            numeric = (up - down) / (2.0 * h)
            a = analytic[pm.name].reshape(-1)[idx]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-5)
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# model file format

MODEL_HEADER = "RISKRNN-MODEL v1"


def save_params(path, store: ParameterStore, config: dict | None = None) -> None:
    """Write the versioned text model file.

    Optional ``config`` entries become ``key = value`` lines between the
    header and the parameter blocks. Values carry 17 significant digits so a
    reload is bit-exact; the trailing checksum is the exact (fsum) total of
    every value written.
    """
    lines = [MODEL_HEADER]
    if config:
        for key, value in config.items():
            lines.append(f"{key} = {_format_config_value(value)}")
    everything = []
    for pm in store:
        lines.append(f"{pm.name} {pm.rows} {pm.cols}")
        for row in pm.values:
            lines.append(" ".join(f"{v:.17g}" for v in row))
            everything.extend(row)
    lines.append(f"checksum {math.fsum(everything):.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path) -> tuple[ParameterStore, dict[str, str]]:
    """Read a model file back; returns (store, raw config strings).

    Raises ValueError on a bad header, a malformed block, a missing final
    checksum line (a truncated file) or a checksum mismatch.
    """
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != MODEL_HEADER:
        raise ValueError(f"{path}: not a {MODEL_HEADER} file")
    if not lines[-1].startswith("checksum "):
        raise ValueError(f"{path}: no checksum line at the end; the file is truncated")
    config: dict[str, str] = {}
    store = ParameterStore()
    i = 1
    try:
        expected = float(lines[-1].split()[1])
        while i < len(lines) - 1:
            if " = " in lines[i]:
                key, _, value = lines[i].partition(" = ")
                config[key.strip()] = value.strip()
                i += 1
                continue
            name, rows, cols = lines[i].split()
            block = np.array([[float(v) for v in line.split()]
                              for line in lines[i + 1:i + 1 + int(rows)]], dtype=np.float64)
            if block.shape != (int(rows), int(cols)):
                raise ValueError(f"block {name} is {block.shape}, wanted {rows}x{cols}")
            store.add(ParamMatrix(name, block))
            i += 1 + int(rows)
    except ValueError as err:
        raise ValueError(f"{path}: line {i + 1}: {err}") from None
    actual = math.fsum(v for pm in store for v in pm.values.flat)
    if actual != expected:
        raise ValueError(f"{path}: checksum mismatch (file {expected!r}, data {actual!r})")
    return store, config


def _format_config_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest exact round-trip form
    if isinstance(value, (tuple, list)):
        return ",".join(_format_config_value(v) for v in value)
    return str(value)


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_PARSERS = {"int": int, "float": float, "bool": lambda raw: _BOOLS[raw.lower()],
            "tuple": lambda raw: tuple(float(v) for v in raw.split(",") if v.strip())}


def parse_config_value(kind: str, raw: str):
    """Read back a value of a dataclass field annotated ``kind`` (int, float,
    bool or tuple of floats), as written above or typed in a config file."""
    try:
        return _PARSERS[kind](raw.strip())
    except (KeyError, ValueError):
        raise ValueError(f"cannot parse {raw!r} as {kind}") from None
