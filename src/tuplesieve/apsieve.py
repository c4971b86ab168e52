"""Segmented Eratosthenes sieve over the k arithmetic progressions
f_i(r + j*W), clearing candidates hit by any sieve prime.

One segment covers a single wheel residue r: byte j of the segment
stands for the candidate x(j) = r + j*W, and stays 1 only if no sieve
prime divides any form value there.  The segment runs up to
`Pattern.x_max(n)`, the largest x in range.  How deep to sieve and how
large a wheel to take is the planner's choice (plan.py); this module
lists the primes (`primes_upto`, `iter_primes`) and counts what each
strikes (`strikes`, `live_fractions`).

One lazy iterator, `root_rows`, tells every reader where each form
vanishes mod p: the start table, `strikes`, `pattern.acceptable_residues`
and `search.boundary_tuples`.  The rows do not depend on r, so a run
lists them once (`start_table`) and every segment reuses them.  Past
`root_bound` a row's size and distinct roots are known without it, so
`strikes` counts those primes instead.

A row of the table is applied to a segment in one of two ways: by
strides, one slice assignment per entry, or as a mask (`mask_rows`),
one shift and one AND of an int that holds the segment as bits.
The planner chooses which rows are masks, once per run; `sieve_segment`
applies the masks first, writes the segment out as bytes, and strikes
the other rows after.
"""

import math
from bisect import bisect_right
from collections import namedtuple
from functools import cache
from itertools import accumulate, chain, combinations, compress

from .arith import modinv

__all__ = [
    "SieveSegment",
    "root_bound",
    "root_rows",
    "start_table",
    "mask_rows",
    "mask_bytes",
    "sieve_segment",
    "survivors",
    "primes_upto",
    "iter_primes",
    "strikes",
    "live_fractions",
]


def primes_upto(n: int) -> list:
    """Primes <= n, listed from `iter_primes`'s blocks."""
    return list(chain.from_iterable(_prime_blocks(n)))


# the first block of `iter_primes`
_FIRST_BLOCK = 1024


def _sieve_block(lo: int, hi: int, divisors) -> list:
    """The primes in [lo, hi], lo >= 2: a byte sieve striking each d in
    `divisors` at its multiples from max(d*d, lo) on.  `divisors` must
    hold every prime up to isqrt(hi); a composite among them strikes
    only composites."""
    t = bytearray([1]) * (hi - lo + 1)
    for d in divisors:
        j = max(d * d, -(-lo // d) * d) - lo
        t[j::d] = bytes(len(range(j, len(t), d)))
    return list(compress(range(lo, hi + 1), t))


@cache
def _first_primes() -> tuple:
    """The primes up to _FIRST_BLOCK, sieved on the first call only."""
    return tuple(_sieve_block(2, _FIRST_BLOCK, range(2, math.isqrt(_FIRST_BLOCK) + 1)))


def _prime_blocks(limit: int):
    """The primes <= limit, ascending, one list per block: the first
    block up to 1024, then blocks (lo, 4*lo].  A block is sieved only by
    the primes up to the square root of its end, which a second, lazy
    `iter_primes` lists."""
    first = _first_primes()
    yield first[:bisect_right(first, limit)]
    if limit <= _FIRST_BLOCK:
        return
    roots = iter_primes(math.isqrt(limit))
    base, pending = [], next(roots, None)
    lo, hi = _FIRST_BLOCK + 1, 4 * _FIRST_BLOCK
    while lo <= limit:
        hi = min(hi, limit)
        while pending is not None and pending * pending <= hi:
            base.append(pending)
            pending = next(roots, None)
        yield _sieve_block(lo, hi, base)
        lo, hi = hi + 1, 4 * hi


def iter_primes(limit: int):
    """Primes <= limit, ascending, sieved in blocks that grow fourfold.

    A consumer that stops after the first few primes pays only for the
    block it stopped in, not for a sieve up to limit.  The first block,
    the primes up to 1024, is sieved once per process: the planner
    reads it several times for every run.  Each later block is sieved
    by the primes up to the square root of its end alone.
    """
    return chain.from_iterable(_prime_blocks(limit))


# the most primes `root_rows` lists a column of at a time
ROW_BLOCK = 1024


def root_bound(pattern) -> int:
    """P* = max(largest multiplier, largest |a*d - b*c| over two forms
    a*x + b and c*x + d).  A prime past it divides no multiplier, and
    separates every two forms' roots (they share one mod p only if p
    divides a*d - b*c, never 0 for distinct coprime forms), so its row
    has k distinct entries."""
    forms = pattern.forms
    return max(max(a for a, _ in forms),
               max((abs(a * d - b * c) for (a, b), (c, d) in combinations(forms, 2)), default=0))


def root_rows(pattern, primes, W: int = 1):
    """Yield (p, W^-1 mod p, s_1, s_2, ...) for each p in `primes`, in order:
    s_i = W^-1 * (-b * a^-1) mod p for each form a*x + b, in form order,
    whose multiplier p does not divide (such a form never vanishes mod p);
    at W = 1 the s_i are the roots.  The one place that inverts a
    multiplier.  Raises NotInvertibleError when p divides W.

    A list or tuple of primes is built ROW_BLOCK primes at a time.  A
    block whose primes all exceed every multiplier gives each form a
    root mod each p, so it is built by columns: one W^-1 per prime, one
    comprehension per form, and `zip` makes the rows.  Any other block,
    and any other iterable, is built row by row; a lazy `primes` is read
    no further than asked.
    """
    return chain.from_iterable(_row_blocks(pattern, primes, W))


def _row_blocks(pattern, primes, W):
    """The rows of `root_rows`, one iterable per block of primes."""
    forms = [(a, -b) for a, b in pattern.forms]
    top = max(a for a, _ in forms)

    def row(p):
        winv = 1 if W == 1 else modinv(W % p, p)
        # a form with a = 1 has root -b and needs no inverse
        return (p, winv, *[winv * (c if a == 1 else c * pow(a, -1, p)) % p
                           for a, c in forms if a % p])

    if not isinstance(primes, (list, tuple)):
        yield map(row, primes)
        return
    for i in range(0, len(primes), ROW_BLOCK):
        block = primes[i:i + ROW_BLOCK]
        if min(block) <= top:
            yield map(row, block)
            continue
        try:
            winvs = [pow(W, -1, p) for p in block]
        except ValueError:  # a p divides W: raise as the row path does
            winvs = [modinv(W % p, p) for p in block]
        yield zip(block, winvs, *[[w * c % p for p, w in zip(block, winvs)] if a == 1 else
                                  [w * c * pow(a, -1, p) % p for p, w in zip(block, winvs)]
                                  for a, c in forms])


def strikes(pattern, primes):
    """Yield (p, w(p), rows) for each p in `primes`: w(p) counts the
    distinct roots in p's row of `root_rows`, and rows its entries, the
    rows p adds to a segment's sieve.  A p past `root_bound` has k of
    each, so it is counted, not derived; every p is tested on its own,
    in the order given, and read only when its row is asked for."""
    k, top = pattern.k, root_bound(pattern)
    # one lazy row stream for the primes up to the bound, fed one at a time
    fed = []
    rows = root_rows(pattern, iter(fed.pop, None))
    for p in primes:
        if p > top:
            yield p, k, k
        else:
            fed.append(p)
            roots = next(rows)[2:]
            yield p, len(set(roots)), len(roots)


def live_fractions(pattern, primes):
    """Yield (p, predicted share of candidates no prime up to p clears)
    for each p in `primes`: the running product of 1 - w(p)/p (see
    `strikes`)."""
    frac = 1.0
    for p, w, _ in strikes(pattern, primes):
        frac *= 1 - w / p
        yield p, frac


# applied: sieve primes applied, the whole table; aborted: never set,
# but the benchmark's layer counters still read it
SieveSegment = namedtuple("SieveSegment", "r W bits applied aborted", defaults=(False,))
SieveSegment.__doc__ = """One wheel residue's candidates: byte j of `bits` stands for
    x(j) = r + j*W and is 1 while no sieve prime divides a form value
    there.  The planner bounds its length by choosing W, and
    `survivors` reads it out a slice of bytes at a time."""


def start_table(pattern, W: int, sieve_primes) -> tuple:
    """The rows of `root_rows(pattern, sieve_primes, W)`, listed: they
    depend on W but not on the residue r, so one table serves every
    segment sieving the progressions r + j*W of a run.  A row that
    `mask_rows` turns into a mask is applied by one shift and one AND
    instead of its strides."""
    return tuple(root_rows(pattern, sieve_primes, W))


def mask_bytes(p: int, L: int) -> int:
    """The bytes of a `mask_rows` mask of period p for L bytes."""
    return (p * -(-L // p) + 2 * p + 7) // 8


def mask_rows(rows, L: int) -> tuple:
    """(p, W^-1 mod p, M) for each row (p, W^-1 mod p, s_1, ...) of a
    start table.  M is an int of ceil(L/p) + 2 periods of p bits: bit b
    is 0 where b = -s_i (mod p) for some entry, else 1.  One M serves
    every segment of at most L bytes in the run (see `sieve_segment`).
    One period is doubled until it is long enough, and the periods past
    that are shifted out at the low end, which keeps the phase."""
    masks = []
    for p, winv, *starts in rows:
        M = (1 << p) - 1 - sum({1 << (-s % p) for s in starts})
        size, need = p, p * (-(-L // p) + 2)
        while size < need:
            M |= M << size
            size += size
        masks.append((p, winv, M >> (size - need)))
    return tuple(masks)


# the bytes "0" and "1" of a binary numeral to a segment's 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def sieve_segment(pattern, r: int, W: int, n: int, table, masks=()) -> SieveSegment:
    """Sieve the candidates x(j) = r + j*W <= `pattern.x_max(n)` by a
    start table.

    table is `start_table(pattern, W, primes)`, with W and the primes as
    the planner sized them, and masks is `mask_rows` of other rows of
    that table, built for at least this segment's length L.
    Every row of both is applied, and `applied` counts them all.
    Form i is divisible by p at x(j) exactly when j = s_i - r*W^-1
    (mod p).  Forms whose multiplier p divides have no entry in a row:
    their values are never 0 mod p.

    Mask rows first.  The segment starts as the int v = 2^L - 1, byte j
    standing for bit L-1-j, and each mask M clears its row's bytes at
    once: v &= M >> ((1 - L - r*W^-1) mod p), which moves M's zero bits
    -s_i (mod p) to bits L-1-j for j = s_i - r*W^-1.  v is then written
    out once as L binary digits, translated to bytes 0 and 1.

    Stride rows after: each costs one multiply for the segment, then
    per form one subtract-mod for the first index j0 and strides of p
    from there.  With q, rem = divmod(L, p), a stride from j0 < p holds
    q + 1 bytes if j0 < rem, else q.  Two zero bytearrays of those
    lengths are struck from, as they are: a value that is not a
    bytearray would be copied into one first.  Rows ascend by p, so the
    pair starts at the first row's lengths and shrinks in place only
    when q falls; a row whose q exceeds them grows them again.  Empty
    strides, which rows past L have, are skipped: assigning one costs
    more than the test.
    """
    # floor division by W is monotone, so this length is the least over the forms
    L = max(0, (pattern.x_max(n) - r) // W + 1)
    applied = len(masks) + len(table)
    if L and masks:
        v, c = (1 << L) - 1, 1 - L
        for p, winv, M in masks:
            v &= M >> ((c - r * winv) % p)
        bits = bytearray(format(v, f"0{L}b"), "ascii").translate(_BIT_BYTES)
    else:
        bits = bytearray([1]) * L
    if not (L and table):
        return SieveSegment(r, W, bits, applied=applied)
    q = L // table[0][0]
    long, short = bytearray(q + 1), bytearray(q)
    for row in table:
        p = row[0]
        q, rem = divmod(L, p)
        if q > len(short):
            long, short = bytearray(q + 1), bytearray(q)
        elif q < len(short):
            del long[q + 1:], short[q:]
        t = r * row[1]
        for s in row[2:]:
            j0 = (s - t) % p
            if j0 < rem:
                bits[j0::p] = long
            elif q:
                bits[j0::p] = short
    return SieveSegment(r, W, bits, applied=applied)


def survivors(seg: SieveSegment, lo: int = 0, hi: int | None = None) -> list:
    """Candidate x values still alive among the segment's bytes lo..hi-1
    (all of them by default; hi may lie past the end), in increasing
    order.

    Each live byte j picks x(j) = r + j*W out of the segment's
    progression.  The bytes are read by their gaps: one `bytes` copy of
    the slice is split on the live byte, so a piece holds the struck
    bytes before a live one and the piece after the last live byte is
    dropped.  A piece of g bytes moves x on by W*(g + 1), and
    `accumulate` adds those steps from x(lo - 1).  Struck bytes cost a
    fraction of a nanosecond each in C; only live bytes reach Python.
    A `bytes` copy is split, not a `bytearray` slice: a bytearray
    splits into bytearray pieces, each with a buffer of its own, about
    20 % slower.
    """
    r, W = seg.r, seg.W
    pieces = bytes(memoryview(seg.bits)[lo:hi]).split(b"\x01")
    steps = [W * (len(piece) + 1) for piece in pieces]
    del pieces  # before the x values are made
    steps[0] += r + (lo - 1) * W
    steps.pop()  # the piece after the last live byte
    return list(accumulate(steps))
