"""Segmented Eratosthenes sieve over the k arithmetic progressions
f_i(r + j*W), clearing candidates hit by any sieve prime.

One segment covers a single wheel residue r: byte j of the segment
stands for the candidate x(j) = r + j*W, and stays 1 only if no sieve
prime divides any form value there.  The segment runs up to
`Pattern.x_max(n)`, the largest x in range.  How deep to sieve and how
large a wheel to take is `search._resolve_plan`'s choice; this module
lists the primes (`make_plan`) and predicts what they leave
(`live_fractions`).

Where each prime's strikes start depends on r only through one product,
so the inverses behind it are computed once per run (`start_table`) and
every segment reuses them.
"""

import math
import re
from bisect import bisect_right
from collections import namedtuple
from itertools import compress

from .arith import modinv

__all__ = [
    "SievePlan",
    "make_plan",
    "SieveSegment",
    "start_table",
    "sieve_segment",
    "survivors",
    "primes_upto",
    "iter_primes",
    "live_fractions",
]


def primes_upto(n: int) -> list:
    """Primes <= n by a byte sieve."""
    if n < 2:
        return []
    t = bytearray([1]) * (n + 1)
    t[0] = t[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if t[p]:
            t[p * p :: p] = b"\x00" * ((n - p * p) // p + 1)
    return list(compress(range(n + 1), t))


def iter_primes(limit: int):
    """Primes <= limit, ascending, sieved in blocks that grow fourfold.

    A consumer that stops after the first few primes pays only for the
    block it stopped in, not for a sieve up to limit.
    """
    lo, hi = 1, 1024
    while lo < limit:
        hi = min(hi, limit)
        ps = primes_upto(hi)
        yield from ps[bisect_right(ps, lo):]
        lo, hi = hi, 4 * hi


class SievePlan(namedtuple("SievePlan", "B wheel_limit primes")):
    """Sieve bound B, wheel budget, and the primes <= B, as
    `search._resolve_plan` chose them.

    The primes split into wheel moduli and sieve primes only once the
    wheel is actually built; `sieve_primes` performs that split so an
    explicitly excluded wheel prime still gets sieved.
    """

    __slots__ = ()

    def sieve_primes(self, wheel_moduli) -> list:
        skip = set(wheel_moduli)
        return [p for p in self.primes if p not in skip]


def make_plan(B: int, wheel_limit: int, primes=None) -> SievePlan:
    """The plan for sieve bound B and wheel budget wheel_limit, with the
    primes up to B: `primes` if the caller already listed them, else
    sieved here.  `search._resolve_plan` sizes both."""
    return SievePlan(B=B, wheel_limit=wheel_limit,
                     primes=tuple(primes_upto(B) if primes is None else primes))


def live_fractions(pattern, primes):
    """Yield (p, predicted share of candidates no prime up to p clears)
    for each p in `primes`.

    The share is the running product of 1 - w(p)/p, where w(p) counts
    the distinct roots -b * a^-1 mod p over the forms a*x + b with p not
    dividing a.  `primes` may be lazy: a consumer that stops once the
    share is low enough reads no further primes than it needs.
    """
    frac = 1.0
    for p in primes:
        roots = {-b * pow(a, -1, p) % p for a, b in pattern.forms if a % p}
        frac *= 1 - len(roots) / p
        yield p, frac


# applied: sieve primes applied, the whole table; aborted: never set,
# but the benchmark's layer counters still read it
SieveSegment = namedtuple("SieveSegment", "r W bits applied aborted", defaults=(False,))
SieveSegment.__doc__ = """One wheel residue's candidates: byte j of `bits` stands for
    x(j) = r + j*W and is 1 while no sieve prime divides a form value
    there.  `search._resolve_plan` bounds its length by choosing W, and
    `survivors` reads it out a slice of bytes at a time."""


def start_table(pattern, W: int, sieve_primes) -> tuple:
    """Per-prime start data for sieving the progressions r + j*W.

    One flat row per prime, in the order given:
    (p, W^-1 mod p, s_1, s_2, ...), with s_i = W^-1 * (-b * a^-1) mod p
    for each form a*x + b whose multiplier p does not divide.  The row
    depends on the pattern, W and p but not on the residue r, so one
    table serves every segment of a run.  Raises NotInvertibleError
    when p divides W.  W^-1 is the row's one `modinv`; a form with a = 1
    has root -b and needs no inverse.
    """
    table = []
    for p in sieve_primes:
        winv = modinv(W % p, p)
        table.append((p, winv, *[winv * (-b if a == 1 else -b * pow(a, -1, p)) % p
                                 for a, b in pattern.forms if a % p]))
    return tuple(table)


def sieve_segment(pattern, r: int, W: int, n: int, table) -> SieveSegment:
    """Sieve the candidates x(j) = r + j*W <= `pattern.x_max(n)` by a
    start table.

    table is `start_table(pattern, W, primes)`, with W and the primes as
    `search._resolve_plan` sized them, and every row of it is applied.
    Form i is divisible by p at x(j) exactly when j = s_i - r*W^-1
    (mod p), so each row costs one multiply for the segment, then per
    form one subtract-mod for the first index j0 and strides of p from
    there.  Forms whose multiplier p divides have no entry in the row:
    their values are never 0 mod p.
    """
    # floor division by W is monotone, so this j_max is the least over the forms
    j_max = (pattern.x_max(n) - r) // W
    bits = bytearray([1]) * max(0, j_max + 1)
    for row in table:
        p = row[0]
        t = r * row[1]
        for s in row[2:]:
            j0 = (s - t) % p
            if j0 <= j_max:
                bits[j0::p] = b"\x00" * ((j_max - j0) // p + 1)
    return SieveSegment(r, W, bits, applied=len(table))


_LIVE = re.compile(b"\x01")


def survivors(seg: SieveSegment, lo: int = 0, hi: int | None = None) -> list:
    """Candidate x values still alive among the segment's bytes lo..hi-1
    (all of them by default), in increasing order.

    Each live byte j picks x(j) = r + j*W out of the segment's
    progression.  A compiled `finditer` finds the live bytes in C, where
    struck ones cost a fraction of a nanosecond each; only live bytes
    reach Python.
    """
    r, W = seg.r, seg.W
    hi = len(seg.bits) if hi is None else hi
    return [r + j * W for j in map(re.Match.start, _LIVE.finditer(seg.bits, lo, hi))]
