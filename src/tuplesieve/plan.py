"""The planner: the one module that sizes a run.

This is where the code picks its point between the paper's two
algorithms.  `resolve_plan` fixes, from a `SearchConfig`, the one depth
B every segment is sieved to, the primes up to it and the wheel's
primes; `make_plan` records them.  `mask_split` then chooses which rows
of the run's start table are applied as masks.  Every rule prices the
work in ns of CPython time, from the one list of prices below.
"""

import math
from collections import namedtuple
from itertools import chain, islice, repeat

from .apsieve import iter_primes, mask_bytes, mask_rows, primes_upto, root_bound, strikes
from .arith import WIDE_MAX
from .pattern import acceptable_residues

__all__ = ["PlanError", "SievePlan", "make_plan", "mask_split", "resolve_plan"]

# budget for the plan's prime tables: the cost walk lists no prime past
# it, so sieving to sqrt(n) needs isqrt(n) <= it
SQRT_BOUND_MAX = 2**24
# the longest segment the wheel choice allows, in bytes; also the most
# bytes a run's masks may hold (`mask_split`)
SEGMENT_MAX = 1 << 22

# The prices, in ns.  Timed on the segment kernel alone (Python 3.11, 2
# vCPUs): a (segment, prime, form) row by strides about 0.15-0.19 us on
# top of its struck bytes, at about 0.85-1.2 ns each (chain windows of
# 3353 bytes, twins at 476191); one mask's shift and AND 0.18 us at 3353
# bits and 16.7 us at 476k; writing the segment out from its int 1.5-2 ns
# a candidate; building a mask, once per run, 4-10 us in the length-9
# hunt's windows
ROW_NS = 150
BYTE_NS = 1
MASK_NS = 60
BIT_NS = 0.035
CONV_NS = 2
BUILD_NS = 6000
# a segment byte in the wheel rule: 5 keeps the rule's old ratio of 30
# segment bytes a row
SEGMENT_NS = 5
# a base-2 strong test, per bit and per 30-bit digit of the value.  25
# keeps the depth rule's old ratio of 5 segment bytes; it is about a
# quarter of the measured ~0.1 us each (2.4 us at 27 bits, 7.7 us at 37,
# 13 us at 60), and refitting it moves plans (ROADMAP item 15)
TEST_NS = 25
# a certificate, `is_prime` past the gate, costs about ten strong tests
CERT_TESTS = 10


class PlanError(ValueError):
    pass


class SievePlan(namedtuple("SievePlan", "B moduli primes")):
    """Sieve bound B, the wheel's primes (ascending) and the primes <= B,
    as `resolve_plan` chose them.  A prime <= B left out of the wheel is
    one of the `sieve_primes`."""

    __slots__ = ()

    def sieve_primes(self, wheel_moduli) -> list:
        skip = set(wheel_moduli)
        return [p for p in self.primes if p not in skip]


def make_plan(B: int, moduli, primes=None) -> SievePlan:
    """The plan for sieve bound B and the wheel's primes `moduli`, with
    the primes up to B: `primes` if the caller already listed them, else
    sieved here.  `resolve_plan` chooses all three."""
    return SievePlan(B=B, moduli=tuple(moduli),
                     primes=tuple(primes_upto(B) if primes is None else primes))


def resolve_plan(cfg) -> tuple:
    """(B, the wheel's primes, the primes up to B) for the run: B is the
    one depth its segments are sieved to.

    The config's sieve_bound, capped at max(2, isqrt(n)), or
    2^floor(log2(n)/space_exp), is taken literally as B.  Else
    `_cost_depth` chooses B, at every n, and the wheel unless the
    config's wheel fixes it.  Otherwise the wheel is the config's or
    `_wheel_moduli`'s choice for x_top = `pattern.x_max(n)`, the largest
    x in range.  The primes the planner reads are the plan's, so they
    are listed once.  Raises PlanError for space_exp <= 2 or B < 2.
    """
    pattern, n = cfg.pattern, cfg.n
    x_top = pattern.x_max(n)
    moduli, primes = cfg.wheel, None
    if cfg.sieve_bound is not None:
        # a prime past isqrt(n) strikes only values the boundary window owns
        B = min(int(cfg.sieve_bound), max(2, math.isqrt(n)))
    elif cfg.space_exp is not None:
        if not cfg.space_exp > 2:
            raise PlanError(f"space exponent c={cfg.space_exp} must exceed 2")
        B = 1 << int(math.log2(n) / cfg.space_exp)
    else:
        B, primes, moduli = _cost_depth(cfg, x_top)
    if B < 2:
        raise PlanError(f"sieve bound B={B} below 2")
    if primes is None:
        primes = primes_upto(B)
    if moduli is None:
        moduli = _wheel_moduli(pattern, x_top, pattern.k * len(primes))
    return B, moduli, primes


def _cost_depth(cfg, x_top):
    """(B, the primes up to B, the wheel's primes) by predicted cost (the
    README's planner paragraph gives the model).  Below LADDER_TOP every
    depth gives the same verdicts; at or above it a depth decides only
    whether a value that passes every base of the ladder's top rung, and
    so raises in `is_prime`, is struck first.  The walk stops at the
    first sieve prime whose rows, ROW_NS each, cost more than the strong
    tests spared the survivors it strikes, per segment of x_top // W
    bytes; B is the prime before it.  The sqrt end wins if its rows cost
    no more than the stop plus k gates and k certificates per predicted
    true tuple; a bound on pi(isqrt(n)) rules it out unlisted.  Unless
    the config's wheel fixes it, the wheel starts at the one for one
    prime's rows, the largest, and B and the wheel are chosen in turn
    until the wheel repeats.
    """
    pattern, n, k = cfg.pattern, cfg.n, cfg.pattern.k
    root = max(2, math.isqrt(n))
    bits = n.bit_length()
    test = TEST_NS * bits * -(-bits // 30)
    # (prime, form) pairs with the prime dividing the multiplier: at most
    # the multiplier's bit length less one per form
    dropped = sum(a.bit_length() - 1 for a, _ in pattern.forms)
    # the primes read so far, ascending, and w(p) and the rows of those up
    # to `root_bound`: past it both are k, so only the primes are kept
    top = root_bound(pattern)
    read, ws, rs = [], [], []
    primes = iter_primes(min(root, SQRT_BOUND_MAX))

    def walk():
        yield from zip(range(len(read)), read, chain(ws, repeat(k)), chain(rs, repeat(k)))
        for p, w, r in strikes(pattern, primes):
            read.append(p)
            if p <= top:
                ws.append(w)
                rs.append(r)
            yield len(read) - 1, p, w, r

    def choose(moduli):
        """B and how many read primes are up to it, on the wheel `moduli`."""
        L = x_top // math.prod(moduli)
        rows, live = 0, 1.0
        for i, p, w, r in walk():
            if p in moduli:
                continue
            if ROW_NS * r > L * live * w / p * test:
                break
            rows += r
            live *= 1 - w / p
        else:
            return min(root, SQRT_BOUND_MAX), len(read)
        if root <= SQRT_BOUND_MAX:
            # the share left at isqrt(n), by Mertens's product
            tuples = live * (math.log(p) / math.log(root)) ** k
            stop_cost = ROW_NS * rows + L * test * (live + tuples * k * (1 + CERT_TESTS))
            beyond = (root / math.log(root) if root >= 17 else 0) - i - len(moduli)
            if ROW_NS * (rows + k * beyond - dropped) < stop_cost:
                for _, q, _, _ in walk():  # read the rows up to root_bound, then the primes
                    if q > top:
                        break
                read.extend(primes)
                rows += sum(r for q, r in zip(islice(read, i, None), chain(rs[i:], repeat(k)))
                            if q not in moduli)
                if ROW_NS * rows <= stop_cost:
                    return root, len(read)
        i = max(i, 1)
        return read[i - 1], i

    moduli, seen = cfg.wheel or _wheel_moduli(pattern, x_top, k), set()
    while moduli not in seen:  # the config's wheel is chosen once
        seen.add(moduli)
        B, count = choose(moduli)
        if not cfg.wheel:
            moduli = _wheel_moduli(pattern, x_top, k * count)
        if B == root:
            break  # a smaller wheel only makes a stop's tests dearer
    del read[count:]
    return B, read, moduli


def _wheel_moduli(pattern, x_top, rows) -> tuple:
    """The wheel's primes that the per-row cost model picks for segments
    of about x_top // W bytes sieved by `rows` (prime, form) rows, W
    being their product.

    A segment of L bytes costs ROW_NS * rows + SEGMENT_NS * L.  Prime q,
    taken in order 2, 3, 5, ..., joins the wheel while its acc(q)
    residues out of q cost less than one segment without it:
    acc(q) * (ROW_NS * rows + SEGMENT_NS * (L // q)) < ROW_NS * rows +
    SEGMENT_NS * L, or while L > SEGMENT_MAX, which bounds a segment's
    buffer.  The first prime always joins, as a wheel needs one modulus.
    Each prime taken shrinks L, and at L = 0 the inequality fails, so
    the loop reads a few dozen primes at most.
    """
    fixed = ROW_NS * rows
    moduli, W = [], 1
    for q in iter_primes(WIDE_MAX):
        L = x_top // W
        if (moduli and L <= SEGMENT_MAX and acceptable_residues(pattern, q).popcount
                * (fixed + SEGMENT_NS * (L // q)) >= fixed + SEGMENT_NS * L):
            break
        moduli.append(q)
        W *= q
    return tuple(moduli)


def mask_split(pattern, table, L: int, segments: int) -> tuple:
    """(masks, stride rows): the rows of a start table that pay as masks
    in a run of `segments` segments of at most L bytes, as `mask_rows`,
    and the others, in table order.

    A row of e entries costs e * (ROW_NS + L/p * BYTE_NS) by strides and
    MASK_NS + L * BIT_NS as a mask.  Read in table order (ascending p),
    a row becomes a mask while that saves time and the masks' bytes stay
    within SEGMENT_MAX.  Past the largest multiplier every row has k
    entries, so the saving only falls with p, and the first row there
    that saves nothing ends the scan.  The masks are kept only if, over
    the run, their savings sum to more than writing each segment out
    from its int, CONV_NS * L, and building each mask once, BUILD_NS;
    else every row strikes by strides.
    """
    if L <= 0:
        return (), table
    top = max(a for a, _ in pattern.forms)
    mask_ns = MASK_NS + L * BIT_NS
    rows, saving, room = [], 0.0, SEGMENT_MAX
    for row in table:
        p = row[0]
        gain = (len(row) - 2) * (ROW_NS + L / p * BYTE_NS) - mask_ns
        if gain <= 0:
            if p > top:
                break
            continue
        room -= mask_bytes(p, L)
        if room < 0:
            break
        rows.append(row)
        saving += gain
    if segments * (saving - CONV_NS * L) <= BUILD_NS * len(rows):
        return (), table
    masked = {row[0] for row in rows}
    return mask_rows(rows, L), tuple([row for row in table if row[0] not in masked])
