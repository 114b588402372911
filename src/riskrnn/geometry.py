"""Axis-aligned box arithmetic: IoU, agent-relative configuration, box transforms.

All coordinates are frame-normalized fractions, center-parameterized as
(cx, cy, w, h). Everything here is a pure function; nothing records onto an
autodiff tape. The model computes relative configurations with the fused tape
op autodiff.relative_config; the scalar :func:`relative_config` here is the
reference its tests compare against.
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
        if not all(math.isfinite(v) for v in (self.cx, self.cy, self.w, self.h)):
            raise ValueError("box fields must be finite")

    @property
    def x1(self) -> float:
        return self.cx - 0.5 * self.w

    @property
    def y1(self) -> float:
        return self.cy - 0.5 * self.h

    @property
    def x2(self) -> float:
        return self.cx + 0.5 * self.w

    @property
    def y2(self) -> float:
        return self.cy + 0.5 * self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)

    @staticmethod
    def from_array(a) -> "Box":
        return Box(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


#: Dimensionality of the relative configuration vector.
RELATIVE_CONFIG_DIM = 9


@dataclass(frozen=True)
class BoxTransform:
    """Center offsets in source-box units plus log size ratios."""

    cx_off: float
    cy_off: float
    cw_log: float
    ch_log: float

    def as_array(self) -> np.ndarray:
        return np.array([self.cx_off, self.cy_off, self.cw_log, self.ch_log],
                        dtype=np.float64)


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Areas are computed from the same corner expressions as the overlap so
    iou(a, a) is exactly 1 despite rounding.
    """
    ax1, ay1, ax2, ay2 = a.x1, a.y1, a.x2, a.y2
    bx1, by1, bx2, by2 = b.x1, b.y1, b.x2, b.y2
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
    return np.array([
        (region.cx - agent.cx) * inv_w,
        (region.cy - agent.cy) * inv_h,
        (region.x1 - agent.cx) * inv_w,
        (region.y1 - agent.cy) * inv_h,
        (region.x2 - agent.cx) * inv_w,
        (region.y2 - agent.cy) * inv_h,
        region.w * inv_w,
        region.h * inv_h,
        iou(agent, region),
    ], dtype=np.float64)


def apply_box_transform(p: Box, c: BoxTransform) -> Box:
    """Move/rescale ``p`` by transform ``c``: offsets in box units, log scales."""
    if abs(c.cw_log) > MAX_LOG_SCALE or abs(c.ch_log) > MAX_LOG_SCALE:
        raise ValueError(
            f"log size ratios out of range (|{c.cw_log}|, |{c.ch_log}| > {MAX_LOG_SCALE})"
        )
    return Box(
        cx=c.cx_off * p.w + p.cx,
        cy=c.cy_off * p.h + p.cy,
        w=math.exp(c.cw_log) * p.w,
        h=math.exp(c.ch_log) * p.h,
    )


def encode_box_transform(p_from: Box, p_to: Box) -> BoxTransform:
    """Inverse of :func:`apply_box_transform`: the transform taking p_from to p_to."""
    return BoxTransform(
        cx_off=(p_to.cx - p_from.cx) / p_from.w,
        cy_off=(p_to.cy - p_from.cy) / p_from.h,
        cw_log=math.log(p_to.w / p_from.w),
        ch_log=math.log(p_to.h / p_from.h),
    )
