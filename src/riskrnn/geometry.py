"""Axis-aligned box arithmetic: IoU and box transforms.

All coordinates are frame-normalized fractions, center-parameterized as
(cx, cy, w, h) rows of arrays, so a caller makes one call over all its
boxes. Everything here is a pure function; nothing records onto an
autodiff tape.
"""
from __future__ import annotations

import numpy as np

# Log-scale transform components beyond this would overflow exp(); reject early.
MAX_LOG_SCALE = 20.0

#: Dimensionality of the relative configuration vector.
RELATIVE_CONFIG_DIM = 9


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of (..., 4) arrays of (cx, cy, w, h) boxes,
    which broadcast against each other; each value lies in [0, 1].

    Areas are computed from the same corner expressions as the overlap so a
    box's IoU with itself is exactly 1 despite rounding. A row of NaNs gives
    NaN, which no threshold comparison passes.

    The corners of each input are computed once, over its own (..., 2)
    arrays. The overlap, which broadcasts to the output's shape, is then
    taken for the x and the y axis apart: a broadcast over a trailing axis of
    length 2 costs several times one over the leading axes alone.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    a_center, b_center = a[..., :2], b[..., :2]
    a_half, b_half = 0.5 * a[..., 2:], 0.5 * b[..., 2:]
    a_lo, a_hi = a_center - a_half, a_center + a_half
    b_lo, b_hi = b_center - b_half, b_center + b_half
    a_side, b_side = a_hi - a_lo, b_hi - b_lo
    inter = (np.maximum(np.minimum(a_hi[..., 0], b_hi[..., 0])
                        - np.maximum(a_lo[..., 0], b_lo[..., 0]), 0.0)
             * np.maximum(np.minimum(a_hi[..., 1], b_hi[..., 1])
                          - np.maximum(a_lo[..., 1], b_lo[..., 1]), 0.0))
    return inter / (a_side[..., 0] * a_side[..., 1] + b_side[..., 0] * b_side[..., 1] - inter)


def encode_box_transform(p_from: np.ndarray, p_to: np.ndarray) -> np.ndarray:
    """The (dx, dy, log sw, log sh) transforms taking boxes ``p_from`` to
    ``p_to``: (4, ...) arrays with (cx, cy, w, h) along the first axis, one
    box per column as autodiff.apply_box_transform takes them; this is its
    inverse."""
    return np.concatenate([(p_to[0:2] - p_from[0:2]) / p_from[2:4],
                           np.log(p_to[2:4] / p_from[2:4])])
