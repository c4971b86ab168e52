"""Exact reciprocal sums held as one integer per accumulator.

Every term is the double 1.0/v for an integer 1 <= v <= WIDE_MAX, so
its exponent is at least -127 and its last significand bit is worth at
least 2^-179: each term is a whole multiple of 2^-UNIT_EXP.  An
accumulator keeps its sum as an integer count of those units, so
partial sums add exactly in any order, and value() rounds once (int
true division is correctly rounded), giving the same double as
math.fsum of the terms whatever the stripe count, merge order or
resume point.

add_group converts a whole group to units with C-level passes: it
builds the float terms with map(), then repeats r = math.fsum(terms),
adds r's units and appends -r, until the remaining sum is zero.  Each r
is a whole number of units, and each pass shrinks the remaining sum by
a factor of at least 2^53, so a group of total U units takes at most
ceil(bits(U) / 53) + 1 fsum passes (see add_group for the proof).

The module and class keep their compensated-summation names because
callers and the benchmark's tracer look the methods up by them.
"""

import math

from .arith import WIDE_MAX

__all__ = ["KahanBuckets", "UNIT_EXP"]

UNIT_EXP = WIDE_MAX.bit_length() + 53
_ONE = 1.0


class KahanBuckets:
    """An exact sum of reciprocals, in units of 2^-UNIT_EXP."""

    def __init__(self, units: int = 0):
        self.units = units

    def add_group(self, vals):
        """Add 1.0/v for each integer v of an iterable of values.

        Let S be the exact sum of the terms still in the list, a whole
        multiple of u = 2^-UNIT_EXP = 2^-180 (every term and every -r
        appended is one).  r = fsum(terms) is S correctly rounded.

        r is a whole number of units.  If |r| >= 2^-128, r's exponent is
        at least -128, so ulp(r) >= 2^-180 and r is a multiple of u.
        Otherwise |S| < 2^-128 (rounding is monotone and 2^-128 is a
        double), so S = k*u with |k| < 2^52: S fits in 53 bits and r = S
        exactly.  Either way ldexp(r, UNIT_EXP) is an exact integer.

        The loop ends.  Appending -r leaves S - r, and correct rounding
        gives |S - r| <= ulp(S)/2 <= 2^-53 |S|; a merely faithful
        rounding would still give |S - r| < ulp(S) <= 2^-52 |S|.  The
        remaining sum is a whole number of units, so once it drops
        below one unit it is zero and fsum returns 0.0.  A group of
        total U units therefore ends after at most
        ceil(bits(U) / 53) + 1 fsum passes.
        """
        terms = list(map(_ONE.__truediv__, vals))
        units = self.units
        while r := math.fsum(terms):
            units += int(math.ldexp(r, UNIT_EXP))
            terms.append(-r)
        self.units = units

    def fold_into(self, acc: "KahanBuckets"):
        acc.units += self.units

    def value(self) -> float:
        return self.units / (1 << UNIT_EXP)
