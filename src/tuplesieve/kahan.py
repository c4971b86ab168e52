"""Exact reciprocal sums held as one integer per accumulator.

Every term is the double 1.0/v for an integer 1 <= v <= WIDE_MAX, so
its exponent is at least -127 and its last significand bit is worth at
least 2^-179: each term is a whole multiple of 2^-UNIT_EXP.  An
accumulator keeps its sum as an integer count of those units, so
partial sums add exactly in any order, and value() rounds once (int
true division is correctly rounded), giving the same double as
math.fsum of the terms whatever the split into ranges, merge order
or resume point.

add_group converts a whole group to units: it builds the float terms
with one list comprehension per linear form a*x + b, then repeats
r = math.fsum(terms), adds r's units and appends -r, until the
remaining sum is zero.  Each r is a whole number of units, and each
pass shrinks the remaining sum by a factor of at least 2^53, so a group
of total U units takes at most ceil(bits(U) / 53) + 1 fsum passes.
When every value is at most top, a pass whose |r| is below
2^(53 - bits(top)) leaves a remainder that the next pass returns
exactly, so the loop stops there: a census's chunk, whose sum is far
below that bound, takes two passes (see add_group for both proofs).

The module and class keep their compensated-summation names because
callers and the benchmark's tracer look the methods up by them.
"""

import math

from .arith import WIDE_MAX

__all__ = ["KahanBuckets", "UNIT_EXP"]

UNIT_EXP = WIDE_MAX.bit_length() + 53
_FORM_X = ((1, 0),)  # the one form x: add_group(vals) sums 1.0/v


class KahanBuckets:
    """An exact sum of reciprocals, in units of 2^-UNIT_EXP."""

    def __init__(self, units: int = 0):
        self.units = units

    def add_group(self, xs, forms=_FORM_X, top=WIDE_MAX):
        """Add 1.0/(a*x + b) for each form (a, b) of forms and each
        integer x of xs; every value must lie in [1, top], top <= WIDE_MAX.
        xs is read once per form, so with more than one form it must be
        a sequence, not an iterator.  top is the caller's bound rather
        than one read off min(terms): that extra pass costs about what the
        early stop saves.

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

        The early stop.  Let t = bits(top) and g = 2^(-t-52).  Every
        value v <= top < 2^t gives float(v) <= 2^t, so every term is at
        least 2^-t, its exponent at least -t and its last bit worth at
        least g: every term is a multiple of g, hence so are S and, by
        the argument above with g for u, every r and every -r appended.
        If a pass returns |r| < 2^(53-t), then
        |S - r| <= 2^-53 |r| < 2^-t = 2^52 g, so S - r = k*g with
        |k| < 2^52 is a double, and the next pass returns it exactly
        and leaves zero: the loop stops after that pass without the
        pass that would only confirm the zero.
        """
        terms = []
        for a, b in forms:  # a == 1 skips the multiply, b == 0 the add
            if a != 1:
                terms += [1.0 / (a * x + b) for x in xs]
            elif b:
                terms += [1.0 / (x + b) for x in xs]
            else:
                terms += [1.0 / x for x in xs]
        exact = math.ldexp(1.0, 53 - top.bit_length())
        units = self.units
        last = False
        while r := math.fsum(terms):
            units += int(math.ldexp(r, UNIT_EXP))
            if last:
                break
            last = -exact < r < exact
            terms.append(-r)
        self.units = units

    def fold_into(self, acc: "KahanBuckets"):
        acc.units += self.units

    def value(self) -> float:
        return self.units / (1 << UNIT_EXP)
