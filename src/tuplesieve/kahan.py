"""Exact reciprocal sums held as one integer per accumulator.

Every term is the double 1.0/v for an integer 1 <= v <= WIDE_MAX, so
its exponent is at least -127 and its last significand bit is worth at
least 2^-179: each term is a whole multiple of 2^-UNIT_EXP.  An
accumulator keeps its sum as an integer count of those units, so
partial sums add exactly in any order, and value() rounds once (int
true division is correctly rounded), giving the same double as
math.fsum of the terms whatever the stripe count, merge order or
resume point.

The module and class keep their compensated-summation names because
callers and the benchmark's tracer look the methods up by them.
"""

from .arith import WIDE_MAX

__all__ = ["KahanBuckets", "UNIT_EXP"]

UNIT_EXP = WIDE_MAX.bit_length() + 53
# 2^UNIT_EXP / v rounds exactly as 1.0 / v does, scaled by a power of two
_SCALE = float(1 << UNIT_EXP)


class KahanBuckets:
    """An exact sum of reciprocals, in units of 2^-UNIT_EXP."""

    def __init__(self, units: int = 0):
        self.units = units

    def add_group(self, vals):
        """Add 1.0/v for each of one tuple's integer values."""
        units = self.units
        for v in vals:
            units += int(_SCALE / v)
        self.units = units

    def fold_into(self, acc: "KahanBuckets"):
        acc.units += self.units

    def value(self) -> float:
        return self.units / (1 << UNIT_EXP)
