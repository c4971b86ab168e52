"""End-to-end pattern search: wheel residues -> AP sieve -> probable-prime
filter -> certified prime tests -> tuple stream.

The planner (`_resolve_plan`) is the one place that sizes a run: from
the input it fixes one sieve depth B, to which every segment is sieved,
and the wheel, chosen by what a sieve row costs in CPython against a
segment byte (`_wheel_modulus`).

Tuples containing a prime at or below the cut (B or the largest wheel
prime) never reach the sieve path (the wheel excludes their residue or
a sieve prime clears them), so a byte sieve over that boundary window
of x finds those first.  On the sieve path a segment's survivors come
out ascending, CHUNK bytes of it at a time, and two bisects split each
chunk's: those the boundary window owns are dropped, those whose
largest value is below (B+1)^2 are proved tuples by the sieve alone,
and the rest go through the SPRP gate and the certified test.  The
proved prefix and the tested tuples make one ascending list per chunk,
accounted in one step: its length
goes to the count and its values, as C-level map columns, to one
exact-sum call.  The boundary window is accounted the same way.  One
walk over the wheel's positions visits every residue once, in position
order and in one process; the residue at position p is accounted to stripe
p mod nu of nu logical workers.  The sieve path keeps its reciprocal
sum as one exact integer (see kahan.py), so the reported sum is the
correctly rounded total whatever the worker count or resume point.  A
checkpoint stores the walk's position, the stripe counts and that
integer.
"""

import math
import os
import time
from bisect import bisect_right
from collections import namedtuple
from itertools import chain, compress

from .apsieve import (
    iter_primes,
    live_fractions,
    make_plan,
    primes_upto,
    sieve_segment,
    start_table,
    survivors,
)
from .arith import WIDE_MAX
from .kahan import KahanBuckets
from .pattern import Pattern, acceptable_residues, admissible, chain_pattern, format_pattern
from .primality import is_prime, sprp_base2
from .wheel import build_wheel, wheel_primes

__all__ = [
    "SearchConfig",
    "SearchResult",
    "CheckpointError",
    "PlanError",
    "boundary_tuples",
    "find_pattern_primes",
    "run_striped",
    "smallest_chain",
]

CHECKPOINT_MAGIC = "TSCKPT v3"


class CheckpointError(RuntimeError):
    pass


class PlanError(ValueError):
    pass


SearchConfig = namedtuple(
    "SearchConfig",
    "pattern n nu sieve_bound space_exp wheel_limit excluded_wheel_primes checkpoint_interval",
    defaults=(1, None, None, None, frozenset(), 900.0),
)

# xs: x values found this run, sorted; None unless kept
# count: total tuples, including any restored progress
# recip_sum: sum of 1/f_i over all counted tuples, correctly rounded
SearchResult = namedtuple(
    "SearchResult",
    "xs count recip_sum stripe_counts boundary_count completed resumed",
    defaults=(False,),
)


# budget for the plan's prime tables: sieving to sqrt(n) lists every
# prime up to it, so above this the planner falls back to n^(1/3)
SQRT_BOUND_MAX = 2**24
# predicted share of live segment bytes at which sieving stops: a prime
# past it strikes almost nothing, and prime tests cost less
LIVE_FLOOR = 1 / 4096
# residues between two progress reports
PROGRESS_EVERY = 10000
# the cost of one (segment, prime, form) row of the sieve, counted in
# segment bytes: a row takes about 0.6 us in CPython, and a byte,
# allocated, struck and read out, some tens of ns at most
ROW_BYTES = 30
# the longest segment the wheel choice allows, in bytes
SEGMENT_MAX = 1 << 22
# segment bytes read out and accounted at a time, which bounds the
# survivor and term lists
CHUNK = 1 << 16


def _resolve_plan(cfg: SearchConfig):
    """The run's sieve plan: the one depth B its segments are sieved to,
    the primes up to it, and the wheel.

    The space bound B_s is the config's sieve_bound, or
    2^floor(log2(n)/space_exp), and B = B_s: explicit bounds are taken
    literally.  Otherwise B_s is isqrt(n), where sieving alone decides
    every survivor, as long as isqrt(n) <= SQRT_BOUND_MAX and the
    predicted live fraction over the sieve primes up to it stays above
    LIVE_FLOOR; else B_s = 2^floor(log2(n)/3).  Then B is the first
    sieve prime at which the prediction reaches LIVE_FLOOR, or B_s if
    none does.  The prediction skips the primes of a reference wheel
    budgeted x_top // B_s (x_top = `pattern.x_max(n)`, the largest x in
    range), because segment bytes are already wheel-filtered; the primes
    it reads are the plan's, so they are listed once.  The wheel itself
    is the config's wheel_limit or `_wheel_modulus`'s choice.  Raises
    PlanError for space_exp <= 2 or B < 2.
    """
    pattern, n = cfg.pattern, cfg.n
    x_top = pattern.x_max(n)

    def depth(space):
        """The first sieve prime up to `space` where the prediction
        reaches LIVE_FLOOR, or None if none does, and the primes up to
        it (up to `space` if none does)."""
        budget = max(2, x_top // space) if cfg.wheel_limit is None else cfg.wheel_limit
        skip = set(wheel_primes(budget, cfg.excluded_wheel_primes))
        listed = []

        def sieve_primes():
            for p in iter_primes(space):
                listed.append(p)
                if p not in skip:
                    yield p

        live = live_fractions(pattern, sieve_primes())
        return next((p for p, frac in live if frac <= LIVE_FLOOR), None), listed

    primes = None
    if cfg.sieve_bound is not None:
        space = B = int(cfg.sieve_bound)
    elif cfg.space_exp is not None:
        if not cfg.space_exp > 2:
            raise PlanError(f"space exponent c={cfg.space_exp} must exceed 2")
        space = B = 1 << int(math.log2(n) / cfg.space_exp)
    else:
        space = max(2, math.isqrt(n))
        B = None
        if space <= SQRT_BOUND_MAX:
            B, primes = depth(space)
        # past the table budget, or with a cut below sqrt(n), take n^(1/3)
        if space > SQRT_BOUND_MAX or B is not None:
            space = 1 << int(math.log2(n) / 3)
            B, primes = depth(space)
        B = B or space
    if B < 2:
        raise PlanError(f"sieve bound B={B} below 2")
    if primes is None:
        primes = primes_upto(B)
    wheel_limit = cfg.wheel_limit
    if wheel_limit is None:
        rows = pattern.k * len(primes)
        wheel_limit = _wheel_modulus(pattern, x_top, rows, cfg.excluded_wheel_primes)
    return make_plan(B, wheel_limit, primes)


def _wheel_modulus(pattern, x_top, rows, excluded) -> int:
    """The wheel modulus W that the per-row cost model picks for segments
    of about x_top // W bytes sieved by `rows` (prime, form) rows.

    A row costs about ROW_BYTES struck bytes, so a segment of L bytes
    costs ROW_BYTES * rows + L.  Prime q, taken in order 2, 3, 5, ...
    past the excluded ones, joins the wheel while its acc(q) residues
    out of q cost less than one segment without it:
    acc(q) * (ROW_BYTES * rows + L // q) < ROW_BYTES * rows + L, or
    while L > SEGMENT_MAX, which bounds a segment's buffer.  The first
    prime always joins, as a wheel needs one modulus.  Each prime taken
    shrinks L, and at L = 0 the inequality fails, so the loop reads a
    few dozen primes at most.
    """
    fixed = ROW_BYTES * rows
    W = 1
    for q in iter_primes(WIDE_MAX):
        if q in excluded:
            continue
        L = x_top // W
        if (W > 1 and L <= SEGMENT_MAX
                and acceptable_residues(pattern, q).popcount * (fixed + L // q) >= fixed + L):
            break
        W *= q
    return W


def _values(forms, xs):
    """Every form's values over the list xs, form by form, built by
    C-level iterators only (xs itself for the form x)."""
    cols = []
    for a, b in forms:
        col = xs if a == 1 else map(a.__mul__, xs)
        cols.append(col if b == 0 else map(b.__add__, col))
    return chain.from_iterable(cols)


def boundary_tuples(pattern: Pattern, cut: int, n: int) -> list:
    """All x with min_i f_i(x) <= cut, max_i f_i(x) <= n, every value prime.

    These tuples contain a prime <= cut and are invisible to the sieve
    path.  They lie in one window of x, from the first x where every
    form is at least 2 to the last where the least form is <= cut and
    the largest <= n.  A byte sieve over that window clears, for every
    prime q <= sqrt(max f), each form's multiples of q other than q
    itself.
    """
    x0 = pattern.min_x()
    stop = min(cut, n)  # past n even the smallest form is out of range
    x1 = min(max((stop - b) // a for a, b in pattern.forms), pattern.x_max(n))
    if x1 < x0:
        return []
    size = x1 - x0 + 1
    live = bytearray([1]) * size
    for q in primes_upto(math.isqrt(pattern.max_value(x1))):
        for a, b in pattern.forms:
            if a % q == 0:
                continue  # gcd(a, b) = 1, so q never divides a*x + b
            j = (-b * pow(a, -1, q) - x0) % q
            if a * (x0 + j) + b == q:
                j += q  # the value is q itself, a prime
            if j < size:
                live[j::q] = bytes(len(range(j, size, q)))
    return list(compress(range(x0, x1 + 1), live))


def _config_digest(cfg: SearchConfig, plan) -> str:
    import hashlib  # loads libcrypto, so only runs that checkpoint pay for it

    blob = "|".join(
        [
            "tsckpt3",
            format_pattern(cfg.pattern),
            f"n={cfg.n}",
            f"B={plan.B}",
            f"wl={plan.wheel_limit}",
            "excl=" + ",".join(map(str, sorted(cfg.excluded_wheel_primes))),
            f"nu={cfg.nu}",
        ]
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_checkpoint(path, digest, position, counts, recip):
    lines = [
        CHECKPOINT_MAGIC,
        f"digest {digest}",
        f"position {position}",
        "counts " + ",".join(map(str, counts)),
        f"sum {recip.units}",
    ]
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def _read_checkpoint(path, digest, nu, last):
    """The saved (position, stripe counts, sieve-path sum units); the
    position lies in [0, last], last meaning the walk is done."""
    try:
        with open(path) as f:
            lines = f.read().split("\n")
    except (OSError, UnicodeDecodeError) as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from None
    if lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint header {lines[0]!r}")
    try:
        fields = dict(ln.split(" ", 1) for ln in lines[1:] if ln)
        if sorted(fields) != ["counts", "digest", "position", "sum"]:
            raise ValueError(f"fields {sorted(fields)}")
        if fields["digest"] != digest:
            raise CheckpointError(
                "checkpoint digest mismatch: file belongs to a different "
                "configuration; refusing to restore"
            )
        counts = [int(c) for c in fields["counts"].split(",")]
        if len(counts) != nu:
            raise ValueError(f"{len(counts)} stripe counts for {nu} stripes")
        position = int(fields["position"])
        if not 0 <= position <= last:
            raise ValueError(f"position {position} not in [0, {last}]")
        return position, counts, int(fields["sum"])
    except ValueError as e:
        raise CheckpointError(f"corrupt checkpoint file: {e}") from None


def run_striped(cfg: SearchConfig, checkpoint_path=None, on_tuple=None,
                stop_after_residues=None, progress=None, keep_xs=True) -> SearchResult:
    """Run the full search, optionally resuming from a checkpoint file.

    on_tuple(x, values) fires in emission order: boundary tuples first,
    then sieve-path tuples by residue position, ascending within one.
    progress(done) fires every PROGRESS_EVERY residues.
    stop_after_residues ends the run once the walk has passed that many
    residues, after writing a checkpoint (deterministic stand-in for
    being killed mid-flight).  With keep_xs=False the run keeps no list
    of x values and the result's xs is None: a census needs only the
    count and the sum.
    """
    if not admissible(cfg.pattern):
        raise ValueError(f"pattern {format_pattern(cfg.pattern)} is not admissible")
    if cfg.nu < 1:
        raise ValueError("worker count must be >= 1")
    # every sieve-path value v has cut < v <= n, so this bounds them all
    if cfg.n > WIDE_MAX:
        raise OverflowError(f"bound n={cfg.n} outside [0, 2^127)")
    pattern, n, nu = cfg.pattern, cfg.n, cfg.nu
    forms = pattern.forms
    if pattern.x_max(n) < pattern.min_x():
        # no x has every value in [2, n], so nothing can be prime
        return SearchResult(xs=[] if keep_xs else None, count=0, recip_sum=0.0,
                            stripe_counts=[0] * nu, boundary_count=0, completed=True)

    plan = _resolve_plan(cfg)
    wheel = build_wheel(pattern, plan.wheel_limit, cfg.excluded_wheel_primes)
    sieve_table = start_table(pattern, wheel.W, plan.sieve_primes(wheel.moduli))
    cut = max(plan.B, max(wheel.moduli))

    # tuples containing a prime <= cut are found by the boundary window
    boundary = boundary_tuples(pattern, cut, n)
    total = KahanBuckets()
    total.add_group(_values(forms, boundary))
    found = list(boundary) if keep_xs else None
    if on_tuple:
        for x in boundary:
            on_tuple(x, pattern.evaluate(x))

    W, last = wheel.W, wheel.residue_count()
    counts = [0] * nu
    recip = KahanBuckets()  # the sieve path's sum, which a checkpoint holds
    resumed = checkpoint_path is not None and os.path.exists(checkpoint_path)
    if checkpoint_path is not None:
        digest = _config_digest(cfg, plan)
    if resumed:
        position, counts, units = _read_checkpoint(checkpoint_path, digest, nu, last)
        wheel.seek(position)
        recip = KahanBuckets(units)

    # min_value(x) <= cut exactly when x <= x_cut, since every a >= 1
    x_cut = max((cut - b) // a for a, b in forms)
    # a value below (B+1)^2 with no prime factor <= B is prime, and every
    # value of x is below it exactly when x <= x_proved
    x_proved = max(x_cut, pattern.x_max((plan.B + 1) ** 2 - 1))

    last_checkpoint = time.monotonic()
    completed = True
    while (r := wheel.next_residue()) is not None:
        done = wheel.position
        stripe = (done - 1) % nu
        seg = sieve_segment(pattern, r, W, n, sieve_table)
        for start in range(0, len(seg.bits), CHUNK):
            xs = survivors(seg, start, start + CHUNK)
            # the boundary window owns those up to x_cut
            lo, hi = bisect_right(xs, x_cut), bisect_right(xs, x_proved)
            ok = xs[lo:hi]  # proved by the sieve alone
            for x in xs[hi:]:
                vals = pattern.evaluate(x)
                # cheap probable-prime gates first, then certified tests
                if all(sprp_base2(v) for v in vals) and all(is_prime(v, plan.B) for v in vals):
                    ok.append(x)
            counts[stripe] += len(ok)
            recip.add_group(_values(forms, ok))
            if keep_xs:
                found.extend(ok)
            if on_tuple:
                for x in ok:
                    on_tuple(x, pattern.evaluate(x))
        del seg  # free the buffer before the next segment is sieved
        if progress and done % PROGRESS_EVERY == 0:
            progress(done)
        if stop_after_residues is not None and stop_after_residues <= done < last:
            completed = False
            break
        if checkpoint_path is not None:
            now = time.monotonic()
            if now - last_checkpoint >= cfg.checkpoint_interval:
                _write_checkpoint(checkpoint_path, digest, done, counts, recip)
                last_checkpoint = now

    if checkpoint_path is not None:
        _write_checkpoint(checkpoint_path, digest, wheel.position, counts, recip)

    recip.fold_into(total)
    return SearchResult(
        xs=sorted(found) if keep_xs else None,
        count=len(boundary) + sum(counts),
        recip_sum=total.value(),
        stripe_counts=counts,
        boundary_count=len(boundary),
        completed=completed,
        resumed=resumed,
    )


def find_pattern_primes(cfg: SearchConfig) -> list:
    """All x with every form value prime and max_i f_i(x) <= n, sorted."""
    return run_striped(cfg).xs


def _chain_complete(kind, length, x) -> bool:
    """No prime extends the chain at x in either direction."""
    pattern = chain_pattern(kind, length)
    last = pattern.evaluate(x)[-1]
    sign = 1 if kind == "first" else -1
    if is_prime(2 * last + sign):
        return False
    prev2 = x - sign  # predecessor y solves 2y + sign = x
    if prev2 % 2 == 0:
        y = prev2 // 2
        if y >= 2 and is_prime(y):
            return False
    return True


def smallest_chain(kind: str, length: int, cap: int, *, on_tuple=None, progress=None,
                   **cfg):
    """Least x <= cap starting a complete chain of exactly this length.

    Complete means unextendable: the next doubled value is composite and
    the would-be predecessor is not prime.  Searches in geometrically
    growing windows of the bound n, so small answers stay cheap.  Every
    window's search uses the `SearchConfig` fields in `cfg`, and
    progress(done) counts each window's residues; on_tuple(x, values)
    fires once, for the answer.  Every form has a multiplier >= 1, so
    a window bounded by max f(x_hi) holds only x <= x_hi.
    """
    pattern = chain_pattern(kind, length)
    x_hi = 1 << 11
    searched = 0
    while searched < cap:
        x_hi = min(x_hi, cap)
        window = SearchConfig(pattern=pattern, n=pattern.max_value(x_hi), **cfg)
        res = run_striped(window, progress=progress)
        x = next((x for x in res.xs if _chain_complete(kind, length, x)), None)
        if x is not None:
            if on_tuple:
                on_tuple(x, pattern.evaluate(x))
            return x
        searched = x_hi
        x_hi *= 8
    return None
