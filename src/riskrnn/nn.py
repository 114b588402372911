"""Parameter storage, Adam, and model files.

A ParameterStore holds every parameter in one flat float64 vector, in
declaration order, with the gradients and Adam moments in vectors beside it.
Each ParamMatrix views its span of ``values`` and ``grad`` in its declared
shape (biases are (n, 1) columns). Names ending in ``_rnn_b`` are LSTM bias
blocks laid out as [input, forget, candidate, output]; their forget quarter is
initialized to one so fresh cells retain memory. ``adam_step`` reads its
decay rates and epsilon from ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.
The module imports only numpy and the standard library.
"""
from __future__ import annotations

import math
import numpy as np

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingError(RuntimeError):
    pass


class ParamMatrix:
    """A name plus ``values`` and ``grad`` views into its store's vectors."""

    __slots__ = ("name", "values", "grad")

    def __init__(self, name: str, values: np.ndarray, grad: np.ndarray):
        self.name = name
        self.values = values
        self.grad = grad


class ParameterStore:
    """Zero-filled parameters laid out in the order of the ``(name, shape)``
    pairs given, in a flat ``values`` vector with a ``grad`` vector of the same
    length. The first adam_step adds ``adam_m`` and ``adam_v`` of that length,
    and the ``adam_scratch`` vector its steps work in."""

    def __init__(self, shapes):
        shapes = list(shapes)
        size = sum(math.prod(shape) for _, shape in shapes)
        self.values = np.zeros(size)
        self.grad = np.zeros(size)
        # a model that only infers needs no moments
        self.adam_m = self.adam_v = self.adam_scratch = None
        self._params: dict[str, ParamMatrix] = {}
        start = 0
        for name, shape in shapes:
            if name in self._params:
                raise ValueError(f"duplicate parameter name: {name}")
            span = slice(start, start + math.prod(shape))
            self._params[name] = ParamMatrix(name, self.values[span].reshape(shape),
                                             self.grad[span].reshape(shape))
            start = span.stop

    def __getitem__(self, name: str) -> ParamMatrix:
        return self._params[name]

    def __iter__(self):
        return iter(self._params.values())


def _first_non_finite(store: ParameterStore, field: str) -> str | None:
    """The first parameter with a non-finite ``field`` entry, or None if none has one."""
    if np.isfinite(getattr(store, field)).all():
        return None
    return next(pm.name for pm in store if not np.isfinite(getattr(pm, field)).all())


def init_params(specs, seed: int) -> ParameterStore:
    """Build a store from (name, rows, cols) triples.

    Entries are drawn uniformly from +/- sqrt(6 / (rows + cols)), one block
    at a time in spec order; the forget quarter of any ``*_rnn_b`` block is
    then overwritten with exactly 1.0. Deterministic for a given seed.
    """
    for name, rows, cols in specs:
        if rows < 1 or cols < 1:
            raise ValueError(f"parameter {name!r} needs positive dims, got {rows}x{cols}")
        if name.endswith("_rnn_b") and (rows % 4 != 0 or cols != 1):
            raise ValueError(f"LSTM bias {name!r} must be a (4H, 1) column")
    rng = np.random.Generator(np.random.PCG64(seed))
    store = ParameterStore((name, (rows, cols)) for name, rows, cols in specs)
    for (name, rows, cols), pm in zip(specs, store):
        bound = math.sqrt(6.0 / (rows + cols))
        pm.values[...] = rng.uniform(-bound, bound, size=(rows, cols))
        if name.endswith("_rnn_b"):
            h = rows // 4
            pm.values[h:2 * h, 0] = 1.0
    return store


def adam_step(store: ParameterStore, lr: float, *, t: int) -> None:
    """Bias-corrected Adam update from accumulated grads; zeroes grads after.

    ``t`` is the 1-based step index; first and second moments persist in the
    store across calls. One elementwise pass updates the whole flat vector;
    a non-finite gradient anywhere leaves every parameter unchanged.

    Every operation writes into the store's vectors: the gradient, which the
    step zeroes anyway, holds the update's denominator, and ``adam_scratch``
    the scaled gradients and then its numerator, so a step allocates
    nothing. Each value is the product or quotient of the textbook form,
    operands swapped at most, so the result is the same bit for bit.
    """
    if t < 1:
        raise ValueError(f"adam step index must be >= 1, got {t}")
    bad = _first_non_finite(store, "grad")
    if bad is not None:
        raise TrainingError(f"non-finite gradient in parameter {bad!r}")
    if store.adam_m is None:
        store.adam_m, store.adam_v, store.adam_scratch = (np.zeros_like(store.grad)
                                                          for _ in range(3))
    g, m, v, s = store.grad, store.adam_m, store.adam_v, store.adam_scratch
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=s)
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=s)
    v += np.multiply(s, g, out=s)
    np.divide(m, 1.0 - ADAM_BETA1 ** t, out=s)  # m_hat
    s *= lr
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=g)  # v_hat
    np.sqrt(g, out=g)
    g += ADAM_EPS
    store.values -= np.divide(s, g, out=s)
    g.fill(0.0)


# ---------------------------------------------------------------------------
# model file format

MODEL_HEADER = "RISKRNN-MODEL v1"


def save_params(path, store: ParameterStore, config: dict) -> None:
    """Write the versioned text model file.

    The ``config`` entries become ``key = value`` lines between the header
    and the parameter blocks. Values carry 17 significant digits so a
    reload is bit-exact; the trailing checksum is the exact (fsum) total of
    every value written.
    """
    lines = [MODEL_HEADER]
    lines.extend(f"{key} = {_format_config_value(value)}" for key, value in config.items())
    for pm in store:
        rows, cols = pm.values.shape
        lines.append(f"{pm.name} {rows} {cols}")
        lines.extend(" ".join(f"{v:.17g}" for v in row) for row in pm.values)
    lines.append(f"checksum {math.fsum(store.values):.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path) -> tuple[ParameterStore, dict[str, str]]:
    """Read a model file back; returns (store, raw config strings).

    Raises ValueError on a bad header, a repeated config key, a malformed or
    repeated block, a missing final checksum line (a truncated file), a
    non-finite value or a checksum mismatch.
    """
    # bytes that are not text are replaced, so that such a file fails a check below
    with open(path, errors="replace") as fh:
        # the non-blank lines, each with its line number in the file
        numbered = [(n, line.strip()) for n, line in enumerate(fh, 1) if line.strip()]
    numbers, lines = [n for n, _ in numbered], [line for _, line in numbered]
    if not lines or lines[0] != MODEL_HEADER:
        raise ValueError(f"{path}: not a {MODEL_HEADER} file")
    if not lines[-1].startswith("checksum "):
        raise ValueError(f"{path}: no checksum line at the end; the file is truncated")
    config: dict[str, str] = {}
    blocks: dict[str, np.ndarray] = {}
    i = 1
    try:
        expected = float(lines[-1].split()[1])
        while i < len(lines) - 1:
            if " = " in lines[i]:
                key, _, value = (part.strip() for part in lines[i].partition(" = "))
                if key in config:
                    raise ValueError(f"duplicate config key {key!r}")
                config[key] = value
                i += 1
                continue
            name, rows, cols = lines[i].split()
            if name in blocks:
                raise ValueError(f"duplicate parameter name: {name}")
            block = np.array([[float(v) for v in line.split()]
                              for line in lines[i + 1:i + 1 + int(rows)]], dtype=np.float64)
            if block.shape != (int(rows), int(cols)):
                raise ValueError(f"block {name} is {block.shape}, wanted {rows}x{cols}")
            blocks[name] = block
            i += 1 + int(rows)
    except ValueError as err:
        raise ValueError(f"{path}: line {numbers[i]}: {err}") from None
    store = ParameterStore((name, block.shape) for name, block in blocks.items())
    for pm, block in zip(store, blocks.values()):
        pm.values[...] = block
    bad = _first_non_finite(store, "values")
    if bad is not None:
        raise ValueError(f"{path}: block {bad} holds a non-finite value")
    actual = math.fsum(store.values)
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
    bool or tuple of floats), as written above or typed in a config file.
    A float or tuple entry must be finite."""
    try:
        value = _PARSERS[kind](raw.strip())
    except (KeyError, ValueError):
        raise ValueError(f"cannot parse {raw!r} as {kind}") from None
    if kind in ("float", "tuple") and not np.isfinite(value).all():
        raise ValueError(f"{raw!r} is not finite")
    return value
