"""Closed real intervals and axis-aligned boxes.

Intervals carry the range analysis used by the bounded-domain compiler and
the image-bound estimator; boxes describe feature domains, one closed
interval per coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Interval", "DomainBox"]


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def add(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, a: float) -> "Interval":
        if a == 0:
            return Interval(0.0, 0.0)  # 0 times any finite value, also on an unbounded interval
        if a > 0:
            return Interval(a * self.lo, a * self.hi)
        return Interval(a * self.hi, a * self.lo)

    def shift(self, c: float) -> "Interval":
        return Interval(self.lo + c, self.hi + c)

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widen(self, margin: float) -> "Interval":
        return Interval(self.lo - margin, self.hi + margin)

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class DomainBox:
    """Per-coordinate closed intervals; the feature domain X of dimension d."""

    intervals: tuple[Interval, ...]

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))

    @classmethod
    def cube(cls, lo: float, hi: float, dim: int) -> "DomainBox":
        return cls(tuple(Interval(lo, hi) for _ in range(dim)))

    @classmethod
    def from_pairs(cls, pairs) -> "DomainBox":
        return cls(tuple(Interval(lo, hi) for lo, hi in pairs))

    def to_pairs(self) -> list[list[float]]:
        return [[iv.lo, iv.hi] for iv in self.intervals]

    @property
    def dimension(self) -> int:
        return len(self.intervals)

    @property
    def lows(self) -> np.ndarray:
        return np.array([iv.lo for iv in self.intervals])

    @property
    def highs(self) -> np.ndarray:
        return np.array([iv.hi for iv in self.intervals])

    def __repr__(self) -> str:
        return "Box(" + " x ".join(repr(iv) for iv in self.intervals) + ")"
