"""Exact half-integer arithmetic.

Index values live in (1/2)Z and must never be rounded through floats.
``HalfInt`` stores twice the value as a Python int, so sums, negations
and equality checks are exact.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class HalfInt:
    """An element of (1/2)Z, stored as twice its value."""

    twice: int

    def __post_init__(self):
        if isinstance(self.twice, bool) or not isinstance(self.twice, int):
            raise TypeError("twice must be a Python int, got %r" % (self.twice,))

    @classmethod
    def from_int(cls, k: int) -> "HalfInt":
        """The integer k, an Integral (numpy integers too) but not a bool,
        else TypeError: ``int`` would truncate a float."""
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise TypeError("HalfInt.from_int needs an integer, got %r" % (k,))
        return cls(2 * int(k))

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Inverse of str(): accepts 'k' or 'k/2'."""
        text = text.strip()
        if text.endswith("/2"):
            return cls(int(text[:-2]))
        return cls.from_int(int(text))

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __add__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice - other.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __mul__(self, k: int) -> "HalfInt":
        """Scaled by an Integral (numpy integers too) but not a bool, as
        ``from_int`` takes them, else TypeError."""
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise TypeError("HalfInt can only be scaled by an integer, got %r" % (k,))
        return HalfInt(self.twice * int(k))

    __rmul__ = __mul__

    def __float__(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return "%d/2" % self.twice

    def __repr__(self) -> str:
        return "HalfInt(%s)" % self.__str__()


ZERO = HalfInt(0)
