"""Patterns of linear forms a*x + b and their per-prime acceptable residues.

A pattern hits at x when every form evaluates to a prime.  For each prime
p the roots `apsieve.root_rows` lists, the residues x mod p that force a
form to 0 mod p, are excluded; the rest are the acceptable residues.
"""

from collections import namedtuple
from functools import lru_cache
from math import gcd
import re

from .apsieve import primes_upto, root_rows
from .arith import WIDE_MAX, check_wide

__all__ = [
    "Pattern",
    "PatternError",
    "ResidueMask",
    "make_pattern",
    "parse_pattern",
    "format_pattern",
    "admissible",
    "acceptable_residues",
    "chain_pattern",
]


class PatternError(ValueError):
    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class Pattern(namedtuple("Pattern", "forms")):
    """An ordered tuple of distinct linear forms (a, b) with a >= 1."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.forms)

    def evaluate(self, x: int) -> tuple:
        """All form values at x; rejects values outside the supported width."""
        # from a list: a tuple built from a generator is over-allocated
        # and shrunk, and the shrunk tuple stays on a free list
        vals = tuple([a * x + b for a, b in self.forms])
        for v in vals:
            if not 0 <= v <= WIDE_MAX:
                raise OverflowError(f"form value {v} at x={x} outside [0, 2^127)")
        return vals

    def max_value(self, x: int) -> int:
        return max(a * x + b for a, b in self.forms)

    def min_value(self, x: int) -> int:
        return min(a * x + b for a, b in self.forms)

    def x_max(self, n: int) -> int:
        """The largest x at which every form value is at most n."""
        return min((n - b) // a for a, b in self.forms)

    def shifted(self, s: int) -> "Pattern":
        """The pattern in y = x - s: each form a*x + b becomes
        a*y + (a*s + b), with the same values.  gcd(a, a*s + b) =
        gcd(a, b), so the forms stay coprime and distinct, and the
        residues each prime excludes only move: admissibility is kept."""
        return Pattern(tuple([(a, a * s + b) for a, b in self.forms]))

    def min_x(self) -> int:
        """Smallest x >= 0 at which every form value is at least 2."""
        lo = 0
        for a, b in self.forms:
            # smallest x with a*x + b >= 2
            need = -(-(2 - b) // a)
            lo = max(lo, need)
        return lo

    def __str__(self) -> str:
        return format_pattern(self)


class ResidueMask(namedtuple("ResidueMask", "modulus bits")):
    """Acceptable residues mod a prime, bit x set <=> residue x survives."""

    __slots__ = ()

    def acceptable(self) -> list:
        return [x for x in range(self.modulus) if self.bits >> x & 1]

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()


def make_pattern(forms) -> Pattern:
    """Validate and freeze a list of (a, b) forms.

    Rejects empty lists, duplicate forms, non-positive multipliers, and
    forms with gcd(a, b) > 1 (those have a fixed divisor and can be
    prime for at most one x).
    """
    forms = [(int(a), int(b)) for a, b in forms]
    if not forms:
        raise PatternError("pattern needs at least one form")
    seen = set()
    for i, (a, b) in enumerate(forms):
        if a < 1:
            raise PatternError(f"form {i}: multiplier {a} must be >= 1", index=i)
        check_wide(a, f"form {i} multiplier")
        if abs(b) > WIDE_MAX:
            raise OverflowError(f"form {i} offset {b} outside width")
        if gcd(a, b) > 1:
            raise PatternError(
                f"form {i}: gcd({a}, {b}) = {gcd(a, b)} > 1 (fixed divisor)", index=i
            )
        if (a, b) in seen:
            raise PatternError(f"form {i}: duplicate of {a}x{b:+d}", index=i)
        seen.add((a, b))
    return Pattern(tuple(forms))


_FORM_RE = re.compile(r"^(\d+)?\*?x([+-]\d+)?$")


def parse_pattern(text: str) -> Pattern:
    """Parse 'x,x+2,x+6,x+8' or '6x+1,12x+1,18x+1' style pattern text.

    Whitespace is ignored; a bare 'x' means a=1, a missing offset means
    b=0.  Both '6x+1' and '6*x+1' are accepted.
    """
    cleaned = re.sub(r"\s+", "", text)
    if not cleaned:
        raise PatternError("empty pattern text")
    forms = []
    for part in cleaned.split(","):
        m = _FORM_RE.match(part)
        if not m:
            raise PatternError(f"cannot parse form {part!r} (expected a*x+b)")
        a = int(m.group(1)) if m.group(1) else 1
        b = int(m.group(2)) if m.group(2) else 0
        forms.append((a, b))
    return make_pattern(forms)


def format_pattern(pattern: Pattern) -> str:
    parts = []
    for a, b in pattern.forms:
        s = "x" if a == 1 else f"{a}x"
        if b:
            s += f"{b:+d}"
        parts.append(s)
    return ",".join(parts)


# the planner asks each wheel candidate's mask once per wheel it tries,
# and the wheel and `admissible` ask again: each is derived once
@lru_cache(maxsize=256)
def acceptable_residues(pattern: Pattern, p: int) -> ResidueMask:
    """Mask of residues mod prime p at which no form vanishes mod p: the
    p low bits less the roots in p's row of `root_rows`."""
    roots = set(next(root_rows(pattern, (p,)))[2:])
    return ResidueMask(p, (1 << p) - 1 - sum(1 << x for x in roots))


def admissible(pattern: Pattern) -> bool:
    """True when every prime p <= k leaves at least one acceptable residue.

    Primes above k exclude at most k < p residues, so they cannot fail.
    """
    return all(acceptable_residues(pattern, p).popcount for p in primes_upto(pattern.k))


def chain_pattern(kind: str, length: int) -> Pattern:
    """Cunningham chain pattern of the given kind and length.

    First kind doubles and adds one (x, 2x+1, 4x+3, ...); second kind
    doubles and subtracts one (x, 2x-1, 4x-3, ...).
    """
    if kind not in ("first", "second"):
        raise PatternError(f"kind must be 'first' or 'second', got {kind!r}")
    if length < 1:
        raise PatternError("chain length must be >= 1")
    sign = 1 if kind == "first" else -1
    return make_pattern([(2**i, sign * (2**i - 1)) for i in range(length)])
