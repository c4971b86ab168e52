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

from .apsieve import iter_primes
from .arith import check_wide, modinv
from .pattern import acceptable_residues

__all__ = ["Wheel", "WheelError", "build_wheel", "wheel_primes"]


class WheelError(ValueError):
    pass


class Wheel:
    """Position-indexed residues mod W, with a cursor for one walk."""

    def __init__(self, moduli_masks):
        if not moduli_masks:
            raise WheelError("wheel needs at least one modulus")
        self.moduli = []
        self.masks = []
        w = 1
        for p, mask in moduli_masks:
            if mask.modulus != p:
                raise WheelError(f"mask modulus {mask.modulus} != {p}")
            if mask.popcount == 0:
                raise WheelError(f"modulus {p} has no acceptable residues")
            self.moduli.append(p)
            self.masks.append(mask)
            w *= p
        if len(set(self.moduli)) != len(self.moduli):
            raise WheelError("moduli must be distinct")
        self.W = w
        # e_m = (W/m) * ((W/m)^-1 mod m): 1 mod m, 0 mod every other modulus
        self.basis = [w // p * modinv(w // p % p, p) % w for p in self.moduli]
        self.accept = [m.acceptable() for m in self.masks]
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


def wheel_primes(limit: int, excluded=frozenset()) -> list:
    """The greedy wheel's moduli: primes 2, 3, 5, ... in order, skipping
    `excluded`, taken while their product stays <= limit."""
    primes = []
    w = 1
    # a prime above limit never fits the product
    for p in iter_primes(limit):
        if p in excluded:
            continue
        if w * p > limit:
            break
        primes.append(p)
        w *= p
    return primes


def build_wheel(pattern, limit: int, excluded=frozenset()) -> Wheel:
    """Greedy wheel for a pattern over `wheel_primes(limit, excluded)`.

    Dropping a poorly filtering prime (one that excludes few residues)
    is the caller's call via `excluded`; nothing is dropped implicitly.
    """
    check_wide(limit, "wheel limit")
    if limit < 2:
        raise WheelError(f"wheel limit {limit} admits no prime modulus")
    moduli = wheel_primes(limit, frozenset(excluded))
    if not moduli:
        raise WheelError(f"no usable wheel prime under limit {limit}")
    return Wheel([(p, acceptable_residues(pattern, p)) for p in moduli])
