"""Axis-aligned box arithmetic: IoU and box transforms.

All coordinates are frame-normalized fractions, center-parameterized as
(cx, cy, w, h) rows of arrays, so a caller makes one call over all its
boxes. ``Box`` is the record of one such row that ``data``'s record views
build. Everything here is a pure function; nothing records onto an
autodiff tape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Log-scale transform components beyond this would overflow exp(); reject early.
MAX_LOG_SCALE = 20.0


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned rectangle with positive, finite sides."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0.0 and self.h > 0.0):
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)
                and math.isfinite(self.w) and math.isfinite(self.h)):
            raise ValueError("box fields must be finite")


#: Dimensionality of the relative configuration vector.
RELATIVE_CONFIG_DIM = 9


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of (..., 4) arrays of (cx, cy, w, h) boxes,
    which broadcast against each other; each value lies in [0, 1].

    Areas are computed from the same corner expressions as the overlap so a
    box's IoU with itself is exactly 1 despite rounding. A row of NaNs gives
    NaN, which no threshold comparison passes.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    a_center, b_center = a[..., :2], b[..., :2]
    a_half, b_half = 0.5 * a[..., 2:], 0.5 * b[..., 2:]
    a_lo, a_hi = a_center - a_half, a_center + a_half
    b_lo, b_hi = b_center - b_half, b_center + b_half
    span = np.maximum(np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo), 0.0)
    a_side, b_side = a_hi - a_lo, b_hi - b_lo
    inter = span[..., 0] * span[..., 1]
    return inter / (a_side[..., 0] * a_side[..., 1] + b_side[..., 0] * b_side[..., 1] - inter)


def encode_box_transform(p_from: np.ndarray, p_to: np.ndarray) -> np.ndarray:
    """The (dx, dy, log sw, log sh) transforms taking boxes ``p_from`` to
    ``p_to``: (4, ...) arrays with (cx, cy, w, h) along the first axis, one
    box per column as autodiff.apply_box_transform takes them; this is its
    inverse."""
    return np.concatenate([(p_to[0:2] - p_from[0:2]) / p_from[2:4],
                           np.log(p_to[2:4] / p_from[2:4])])
