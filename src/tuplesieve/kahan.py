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
with one list comprehension per linear form a*x + b, takes
r = sum(terms) as its first pass, then repeats: add r's units, append
-r and take r = math.fsum(terms), until the remaining sum is zero.
Each r is a whole number of units, and each fsum pass shrinks the
remaining sum by a factor of at least 2^53.  When every value is at
most top, an fsum pass whose |r| is below 2^-bits(top) has returned
the remainder exactly, so the loop stops there: a census chunk, whose
plain sum errs by far less than that, takes one fsum pass (see
add_group for the proofs).

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

        Let t = bits(top), g = 2^(-t-52) and S the exact sum of the
        terms still in the list.  Every value v <= top < 2^t gives
        float(v) <= 2^t, so every term is at least 2^-t, its exponent at
        least -t and its last bit worth at least g: every term is a
        multiple of g, and g of u = 2^-UNIT_EXP = 2^-180, as t <= 127.
        A rounded sum or difference of two multiples of g is one too:
        below 2^53 g in size it is a double already, and from there on
        its last bit is worth at least g.

        The first pass, r = sum(terms), is built of such rounded
        additions and subtractions alone: Python 3.10 and 3.11 add the
        terms one by one, and 3.12 also adds up Neumaier's compensation
        and adds it at the end.  Each later pass, r = fsum(terms), is S
        correctly rounded.  Either way r is a multiple of g, so
        ldexp(r, UNIT_EXP) is an exact integer and S stays a multiple
        of g when -r is appended.  Nothing below depends on how close
        the first pass comes to S.

        The loop ends.  Appending -r leaves S - r, and correct rounding
        gives |S - r| <= ulp(S)/2 <= 2^-53 |S|.  The remaining sum is a
        whole number of units, so once it drops below one unit it is
        zero and fsum returns 0.0.  If the first pass leaves U units, at
        most ceil(bits(U) / 53) + 1 fsum passes follow, and U is at most
        the group's total whenever 0 <= sum(terms) <= 2 S.

        The early stop.  If an fsum pass returns |r| < 2^-t = 2^52 g,
        then |S| < 2^-t, since rounding is monotone and 2^-t is a
        double.  So S = k*g with |k| < 2^52 is a double and r = S: adding
        r leaves zero, and the loop stops without the pass that would
        only confirm it.  After a correctly rounded pass with
        |r| < 2^(53-t) the next pass stops so; after the first pass the
        first fsum pass stops at once when |S - sum(terms)| < 2^-t.  A
        plain sum of n positive terms errs by at most
        (n - 1) 2^-53 sum(terms): each addition by at most 2^-53 of its
        result, which is at most the final sum.  3.12's compensated sum
        errs by at most 2^-53 |r| plus the rounding of its compensation,
        a sum of n - 1 such errors, about n^2 2^-106 sum(terms): no more
        while n^2 < 2^53.  A group with n*sum(terms) < 2^(53-t), whose
        sum is at least about n 2^-t, has n^2 below about 2^53 and
        takes one fsum pass under either sum.  A census chunk holds a
        few thousand terms whose sum is below 1, far inside that bound
        (at n = 10^8, t = 27).
        """
        terms = []
        for a, b in forms:  # a == 1 skips the multiply, b == 0 the add
            if a != 1:
                terms += [1.0 / (a * x + b) for x in xs]
            elif b:
                terms += [1.0 / (x + b) for x in xs]
            else:
                terms += [1.0 / x for x in xs]
        exact = math.ldexp(1.0, -top.bit_length())
        units, r, last = self.units, sum(terms), False
        while r:
            units += int(math.ldexp(r, UNIT_EXP))
            if last:
                break
            terms.append(-r)
            r = math.fsum(terms)
            last = -exact < r < exact
        self.units = units

    def fold_into(self, acc: "KahanBuckets"):
        acc.units += self.units

    def value(self) -> float:
        return self.units / (1 << UNIT_EXP)
