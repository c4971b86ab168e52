"""Wheel over pairwise-coprime prime moduli: enumerates residues r mod W
that survive every wheel prime.

The residues are numbered 0 .. residue_count() - 1, and `residue(pos)`
computes any of them directly: the position's mixed-radix digits, low
modulus first, pick one acceptable residue per modulus (in increasing
order), and precomputed CRT basis coefficients combine them.  The
enumeration walks the positions in order, so its cursor is one integer,
which makes ranges of positions and checkpoints well defined.
"""

import math

from .arith import WIDE_MAX, modinv
from .pattern import acceptable_residues
from .primality import is_prime

__all__ = ["Wheel", "WheelError", "build_wheel", "check_moduli"]

# the largest wheel modulus p: the wheel lists up to p residues for it, which
# `acceptable_residues` finds by a p-bit mask; the wheels plan.py chooses stay far below it
MODULUS_MAX = 1 << 16


class WheelError(ValueError):
    pass


class Wheel:
    """Position-indexed residues mod W, with a cursor for one walk, built
    from (prime modulus, its acceptable residues ascending) pairs."""

    def __init__(self, moduli_residues):
        if not moduli_residues:
            raise WheelError("wheel needs at least one modulus")
        self.moduli, self.accept = zip(*moduli_residues)
        if not all(self.accept):
            raise WheelError("every modulus needs an acceptable residue")
        if len(set(self.moduli)) != len(self.moduli):
            raise WheelError("moduli must be distinct")
        self.W = w = math.prod(self.moduli)
        # e_m = (W/m) * ((W/m)^-1 mod m): 1 mod m, 0 mod every other modulus
        self.basis = [w // p * modinv(w // p % p, p) % w for p in self.moduli]
        self._count = math.prod(map(len, self.accept))
        self.position = 0

    def residue_count(self) -> int:
        return self._count

    def residue(self, pos: int) -> int:
        """The residue at position pos, 0 <= pos < residue_count()."""
        r = 0
        for acc, e in zip(self.accept, self.basis):
            pos, digit = divmod(pos, len(acc))
            r += acc[digit] * e
        return r % self.W

    def seek(self, pos: int):
        """Move the cursor to position pos; residue_count() means exhausted."""
        if not 0 <= pos <= self._count:
            raise WheelError(f"position {pos} not in [0, {self._count}]")
        self.position = pos

    def next_residue(self):
        """The residue at the cursor, advancing it, or None when exhausted."""
        if self.position >= self._count:
            return None
        self.position += 1
        return self.residue(self.position - 1)

    def __iter__(self):
        while (r := self.next_residue()) is not None:
            yield r


def check_moduli(moduli) -> tuple:
    """A wheel given as input, as its ascending tuple of primes; raises
    WheelError unless the moduli are non-empty, distinct, primes up to
    MODULUS_MAX, and their product is at most WIDE_MAX."""
    moduli = tuple(sorted(moduli))
    if not (moduli and len(set(moduli)) == len(moduli) and math.prod(moduli) <= WIDE_MAX
            and all(p <= MODULUS_MAX and is_prime(p) for p in moduli)):
        raise WheelError(f"wheel ({','.join(map(str, moduli))}) is not distinct primes "
                         "up to 2^16 with a product below 2^127")
    return moduli


def build_wheel(pattern, moduli) -> Wheel:
    """The pattern's wheel over the prime moduli, in the order given."""
    return Wheel([(p, acceptable_residues(pattern, p).acceptable()) for p in moduli])
