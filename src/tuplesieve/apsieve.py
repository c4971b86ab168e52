"""Segmented Eratosthenes sieve over the k arithmetic progressions
f_i(r + j*W), clearing candidates hit by any sieve prime.

One segment covers a single wheel residue r: byte j of the segment
stands for the candidate x(j) = r + j*W, and stays 1 only if no sieve
prime divides any form value there.  Segment length is about x_top/W,
where x_top = min_i (n - b_i) // a_i is the largest x in range.  The
planner's default wheel budget is x_top // B_s for its space bound
B_s >= B, so W <= x_top/B_s and a segment holds at least about B_s
bytes; it is not capped near B.

`live_fractions` predicts the share of a segment's bytes that survive
each prefix of the sieve primes; the search planner uses it to choose
the one sieve depth every segment of a run is sieved to.

Where each prime's strikes start depends on r only through one product,
so the inverses behind it are computed once per run (`start_table`) and
every segment reuses them.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress

from .arith import modinv

__all__ = [
    "PlanError",
    "SievePlan",
    "make_plan",
    "SieveSegment",
    "start_table",
    "sieve_segment",
    "survivors",
    "primes_upto",
    "iter_primes",
    "next_prime",
    "live_fractions",
]


class PlanError(ValueError):
    pass


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


def next_prime(p: int) -> int:
    """Least prime > p, by trial division."""
    c = max(p + 1, 2)
    while any(c % q == 0 for q in range(2, math.isqrt(c) + 1)):
        c += 1
    return c


@dataclass(frozen=True)
class SievePlan:
    """Sieve bound B, wheel budget, and the primes <= B.

    The primes split into wheel moduli and sieve primes only once the
    wheel is actually built; `sieve_primes` performs that split so an
    explicitly excluded wheel prime still gets sieved.
    """

    n: int
    B: int
    wheel_limit: int
    c: float | None
    primes: tuple

    def sieve_primes(self, wheel_moduli) -> list:
        skip = set(wheel_moduli)
        return [p for p in self.primes if p not in skip]


def make_plan(n: int, c: float | None = None, sieve_bound: int | None = None,
              wheel_limit: int | None = None, x_top: int | None = None) -> SievePlan:
    """Derive the sieve bound and enumerate its primes.

    Either pass an explicit sieve_bound, or a space exponent c > 2 which
    sets B to the power of two nearest n^(1/c) from below.  The wheel
    budget defaults to x_top // B, x_top being the largest x whose form
    values all stay <= n (n itself when not given), so that a segment
    spans at least about B candidates.
    """
    if sieve_bound is not None:
        B = int(sieve_bound)
    elif c is not None:
        if not c > 2:
            raise PlanError(f"space exponent c={c} must exceed 2")
        B = 1 << int(math.log2(n) / c)
    else:
        raise PlanError("need either a space exponent or an explicit sieve bound")
    if B < 2:
        raise PlanError(f"sieve bound B={B} below 2")
    if wheel_limit is None:
        wheel_limit = max(2, (n if x_top is None else x_top) // B)
    return SievePlan(n=n, B=B, wheel_limit=wheel_limit, c=c,
                     primes=tuple(primes_upto(B)))


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


@dataclass
class SieveSegment:
    r: int
    W: int
    j_max: int
    bits: bytearray
    applied: int          # sieve primes applied: the whole table
    aborted: bool = False  # never set; the benchmark's layer counters still read it


def segment_length(pattern, r: int, W: int, n: int) -> int:
    """j_max + 1 where j_max is the largest j with max_i f_i(r + j*W) <= n.

    Every form constrains j, not just the first; with multipliers above 1
    the steepest form is the binding one.
    """
    j_max = None
    for a, b in pattern.forms:
        x_top = (n - b) // a
        jm = (x_top - r) // W
        j_max = jm if j_max is None else min(j_max, jm)
    return max(0, j_max + 1)


def start_table(pattern, W: int, sieve_primes) -> tuple:
    """Per-prime start data for sieving the progressions r + j*W.

    One flat row per prime, in the order given:
    (p, W^-1 mod p, s_1, s_2, ...), with s_i = W^-1 * (-b * a^-1) mod p
    for each form a*x + b whose multiplier p does not divide.  The row
    depends on the pattern, W and p but not on the residue r, so one
    table serves every segment of a run.  Raises NotInvertibleError
    when p divides W.
    """
    table = []
    for p in sieve_primes:
        winv = modinv(W % p, p)
        table.append((p, winv, *(winv * (-b * modinv(a % p, p)) % p
                                  for a, b in pattern.forms if a % p)))
    return tuple(table)


def sieve_segment(pattern, r: int, W: int, n: int, table) -> SieveSegment:
    """Sieve the candidates x(j) = r + j*W, j = 0..j_max, by a start table.

    table is `start_table(pattern, W, primes)`, and every row of it is
    applied.  Form i is divisible by p at x(j) exactly when
    j = s_i - r*W^-1 (mod p), so each row costs one multiply for the
    segment, then per form one subtract-mod for the first index j0 and
    strides of p from there.  Forms whose multiplier p divides have no
    entry in the row: their values are never 0 mod p.
    """
    length = segment_length(pattern, r, W, n)
    bits = bytearray([1]) * length
    j_max = length - 1
    for row in table:
        p = row[0]
        t = r * row[1]
        for s in row[2:]:
            j0 = (s - t) % p
            if j0 <= j_max:
                bits[j0::p] = b"\x00" * ((j_max - j0) // p + 1)
    return SieveSegment(r, W, j_max, bits, applied=len(table))


def survivors(seg: SieveSegment) -> list:
    """Candidate x values still alive, in increasing order.

    Each live byte j picks x(j) = r + j*W out of the segment's
    progression; `compress` does the walk over the bytes in C.
    """
    r, W = seg.r, seg.W
    return list(compress(range(r, r + len(seg.bits) * W, W), seg.bits))
