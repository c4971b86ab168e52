"""End-to-end pattern search: wheel residues -> AP sieve -> probable-prime
filter -> certified prime tests -> tuple stream.

The planner (`_resolve_plan`) fixes one sieve depth B and the wheel
budget per run from the input.  The space bound is sqrt(n), where
sieving alone decides primality, while the prime table fits its budget
and the predicted survivor density stays above LIVE_FLOOR; otherwise it
is n^(1/3).  The wheel budget is x_top // (space bound) over the x
range, and B is the first sieve prime at which the predicted density
reaches LIVE_FLOOR, or the space bound if none does.  Every segment is
sieved to B.

Tuples containing a prime at or below the cut (B or the largest wheel
prime) never reach the sieve path (the wheel excludes their residue or
a sieve prime clears them), so a byte sieve over that boundary window
of x finds those first.  On the sieve path a segment's survivors come
out ascending, and two bisects split them: those the boundary window
owns are dropped, those whose largest value is below (B+1)^2 are
proved tuples by the sieve alone and are accounted in bulk, and the
rest go through the SPRP gate and the certified test.  The residue stream
is striped across nu logical workers by enumeration position; workers
run in lockstep rounds inside one process, which keeps checkpoints
consistent and the merged output deterministic.  Each stripe keeps its
reciprocal sum as one exact integer (see kahan.py), so the reported
sum is the correctly rounded total whatever the worker count or resume
point, and a checkpoint stores that integer as it is.
"""

import hashlib
import math
import os
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress

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
from .pattern import Pattern, admissible, chain_pattern, format_pattern
from .primality import EMBEDDED_TABLE, is_prime, sprp_base2
from .wheel import WheelError, build_wheel, wheel_primes

__all__ = [
    "SearchConfig",
    "SearchResult",
    "CheckpointError",
    "boundary_tuples",
    "find_pattern_primes",
    "run_striped",
    "smallest_chain",
]

CHECKPOINT_MAGIC = "TSCKPT v2"


class CheckpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class SearchConfig:
    pattern: Pattern
    n: int
    nu: int = 1
    sieve_bound: int | None = None
    space_exp: float | None = None
    wheel_limit: int | None = None
    excluded_wheel_primes: frozenset = frozenset()
    checkpoint_interval: float = 900.0


@dataclass
class SearchResult:
    xs: list                 # x values found this run, sorted
    count: int               # total tuples, including any restored progress
    recip_sum: float         # sum of 1/f_i over all counted tuples, correctly rounded
    stripe_counts: list
    boundary_count: int
    completed: bool
    resumed: bool = False


# budget for the plan's prime tables: sieving to sqrt(n) lists every
# prime up to it, so above this the planner falls back to n^(1/3)
SQRT_BOUND_MAX = 2**24
# predicted share of live segment bytes at which sieving stops: a prime
# past it strikes almost nothing, and prime tests cost less
LIVE_FLOOR = 1 / 4096
# residues between two progress reports
PROGRESS_EVERY = 10000


def _resolve_plan(cfg: SearchConfig):
    """The run's sieve plan: the one depth B its segments are sieved to.

    An explicit sieve_bound or space_exp sets B literally.  Otherwise
    the space bound B_s is isqrt(n), where sieving alone decides every
    survivor, as long as isqrt(n) <= SQRT_BOUND_MAX and the predicted
    live fraction over the sieve primes up to it stays above
    LIVE_FLOOR; else B_s = 2^floor(log2(n)/3).  The wheel budget is
    x_top // B_s, x_top the largest x in range, unless the config's
    wheel_limit overrides it.  B is the first sieve prime at which the
    prediction reaches LIVE_FLOOR, or B_s if none does.  The prediction
    skips the primes the wheel will take, because segment bytes are
    already wheel-filtered.
    """
    pattern, n = cfg.pattern, cfg.n
    x_top = min((n - b) // a for a, b in pattern.forms)
    if cfg.sieve_bound is not None or cfg.space_exp is not None:
        return make_plan(n, c=cfg.space_exp, sieve_bound=cfg.sieve_bound,
                         wheel_limit=cfg.wheel_limit, x_top=x_top)

    def depth(bound):
        """The wheel budget for `bound`, and the first sieve prime up to
        it where the prediction reaches LIVE_FLOOR (None if none does)."""
        limit = max(2, x_top // bound) if cfg.wheel_limit is None else cfg.wheel_limit
        skip = set(wheel_primes(limit, cfg.excluded_wheel_primes))
        live = live_fractions(pattern, (p for p in iter_primes(bound) if p not in skip))
        return limit, next((p for p, frac in live if frac <= LIVE_FLOOR), None)

    root = max(2, math.isqrt(n))
    if root <= SQRT_BOUND_MAX:
        limit, B = depth(root)
        if B is None:
            return make_plan(n, sieve_bound=root, wheel_limit=limit)
    space = 1 << int(math.log2(n) / 3)
    limit, B = depth(space)
    return make_plan(n, sieve_bound=B or space, wheel_limit=limit)


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
    x1 = min(max((stop - b) // a for a, b in pattern.forms),
             min((n - b) // a for a, b in pattern.forms))
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


@dataclass
class _Stripe:
    idx: int
    wheel: object
    recip: KahanBuckets
    count: int = 0
    done: bool = False


def _advance(wheel, steps):
    for _ in range(steps):
        if wheel.next_residue() is None:
            break


def _config_digest(cfg: SearchConfig, plan) -> str:
    blob = "|".join(
        [
            "tsckpt2",
            format_pattern(cfg.pattern),
            f"n={cfg.n}",
            f"B={plan.B}",
            f"wl={plan.wheel_limit}",
            "excl=" + ",".join(map(str, sorted(cfg.excluded_wheel_primes))),
            f"nu={cfg.nu}",
        ]
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_checkpoint(path, digest, cfg, stripes):
    lines = [CHECKPOINT_MAGIC, f"digest {digest}", f"nu {cfg.nu}"]
    for st in stripes:
        parts = [f"stripe: idx={st.idx}", f"done={int(st.done)}", f"count={st.count}"]
        if not st.done:
            parts.append("cursor=" + ",".join(map(str, st.wheel.cursor())))
        parts.append(f"sum={st.recip.units}")
        lines.append(" ".join(parts))
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def _read_checkpoint(path, digest, cfg):
    try:
        with open(path) as f:
            lines = [ln.rstrip("\n") for ln in f]
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from None
    try:
        if lines[0] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint header {lines[0]!r}")
        saved_digest = lines[1].split()[1]
        if saved_digest != digest:
            raise CheckpointError(
                "checkpoint digest mismatch: file belongs to a different "
                "configuration; refusing to restore"
            )
        nu = int(lines[2].split()[1])
        if nu != cfg.nu:
            raise CheckpointError("checkpoint stripe layout differs from config")
        records = []
        for ln in lines[3:]:
            if not ln.strip():
                continue
            if not ln.startswith("stripe:"):
                raise CheckpointError(f"unexpected checkpoint line {ln!r}")
            fields = dict(p.split("=", 1) for p in ln[len("stripe:") :].split())
            rec = {
                "idx": int(fields["idx"]),
                "done": bool(int(fields["done"])),
                "count": int(fields["count"]),
                "sum": int(fields["sum"]),
            }
            if not rec["done"]:
                rec["cursor"] = [int(c) for c in fields["cursor"].split(",")]
            records.append(rec)
        if sorted(r["idx"] for r in records) != list(range(nu)):
            raise CheckpointError("checkpoint does not cover every stripe")
    except CheckpointError:
        raise
    except Exception as e:
        raise CheckpointError(f"corrupt checkpoint file: {e}") from None
    return records


def run_striped(cfg: SearchConfig, checkpoint_path=None, on_tuple=None,
                stop_after_residues=None, table=EMBEDDED_TABLE,
                progress=None) -> SearchResult:
    """Run the full search, optionally resuming from a checkpoint file.

    on_tuple(x, values) fires in emission order: boundary tuples first,
    then sieve-path tuples by residue position.  progress(done) fires
    every PROGRESS_EVERY residues.  stop_after_residues ends the run
    early at a round boundary after writing a checkpoint (deterministic
    stand-in for being killed mid-flight).
    """
    if not admissible(cfg.pattern):
        raise ValueError(f"pattern {format_pattern(cfg.pattern)} is not admissible")
    if cfg.n < cfg.pattern.max_value(1):
        raise ValueError(f"bound n={cfg.n} below the pattern's smallest values")
    if cfg.nu < 1:
        raise ValueError("worker count must be >= 1")
    # every sieve-path value v has cut < v <= n, so this bounds them all
    if cfg.n > WIDE_MAX:
        raise OverflowError(f"bound n={cfg.n} outside [0, 2^127)")

    plan = _resolve_plan(cfg)
    base_wheel = build_wheel(cfg.pattern, plan.wheel_limit, cfg.excluded_wheel_primes)
    sieve_table = start_table(cfg.pattern, base_wheel.W, plan.sieve_primes(base_wheel.moduli))
    cut = max(plan.B, max(base_wheel.moduli))
    digest = _config_digest(cfg, plan)

    # tuples containing a prime <= cut are found by the boundary window
    boundary = boundary_tuples(cfg.pattern, cut, cfg.n)
    total = KahanBuckets()
    found = []
    for x in boundary:
        vals = cfg.pattern.evaluate(x)
        total.add_group(vals)
        found.append(x)
        if on_tuple:
            on_tuple(x, vals)

    stripes = []
    resumed = False
    if checkpoint_path is not None:
        if os.path.exists(checkpoint_path):
            records = _read_checkpoint(checkpoint_path, digest, cfg)
            resumed = True
            for rec in sorted(records, key=lambda r: r["idx"]):
                w = base_wheel.copy()
                if rec["done"]:
                    w.exhausted = True
                else:
                    try:
                        w.seek(rec["cursor"])
                    except WheelError as e:
                        raise CheckpointError(
                            f"corrupt checkpoint file: stripe {rec['idx']}: {e}"
                        ) from None
                    if w.position % cfg.nu != rec["idx"]:
                        raise CheckpointError(
                            f"stripe {rec['idx']} cursor lands on position "
                            f"{w.position}, wrong stripe"
                        )
                stripes.append(_Stripe(rec["idx"], w, KahanBuckets(rec["sum"]),
                                       count=rec["count"], done=rec["done"]))
    if not stripes:
        for idx in range(cfg.nu):
            w = base_wheel.copy()
            w.reset()
            _advance(w, idx)
            stripes.append(_Stripe(idx, w, KahanBuckets()))

    pattern, n, W = cfg.pattern, cfg.n, base_wheel.W
    forms = pattern.forms
    # min_value(x) <= cut exactly when x <= x_cut, since every a >= 1
    x_cut = max((cut - b) // a for a, b in forms)
    # a value below (B+1)^2 with no prime factor <= B is prime, and every
    # value of x is below it exactly when x <= x_proved
    x_proved = max(x_cut, min(((plan.B + 1) ** 2 - 1 - b) // a for a, b in forms))
    # residues handled so far, derived from the live cursors on resume
    processed = sum(
        (st.wheel.position - st.idx) // cfg.nu
        for st in stripes
        if not st.done and st.wheel.position > st.idx
    )

    last_checkpoint = time.monotonic()
    interrupted = False
    while not all(st.done for st in stripes):
        for st in stripes:
            if st.done:
                continue
            r = st.wheel.next_residue()
            if r is None:
                st.done = True
                continue
            _advance(st.wheel, cfg.nu - 1)
            xs = survivors(sieve_segment(pattern, r, W, n, sieve_table))
            # the boundary window owns those up to x_cut
            lo, hi = bisect_right(xs, x_cut), bisect_right(xs, x_proved)
            proved = xs[lo:hi]
            st.count += len(proved)
            st.recip.add_group(a * x + b for a, b in forms for x in proved)
            found.extend(proved)
            if on_tuple:
                for x in proved:
                    on_tuple(x, pattern.evaluate(x))
            for x in xs[hi:]:
                vals = pattern.evaluate(x)
                # cheap probable-prime gates first, then certified tests
                if not all(sprp_base2(v) for v in vals):
                    continue
                if not all(is_prime(v, plan.B, table) for v in vals):
                    continue
                st.count += 1
                st.recip.add_group(vals)
                found.append(x)
                if on_tuple:
                    on_tuple(x, vals)
            processed += 1
            if progress and processed % PROGRESS_EVERY == 0:
                progress(processed)
        # round boundary: every live stripe is aligned here
        if checkpoint_path is not None:
            now = time.monotonic()
            if now - last_checkpoint >= cfg.checkpoint_interval:
                _write_checkpoint(checkpoint_path, digest, cfg, stripes)
                last_checkpoint = now
        if stop_after_residues is not None and processed >= stop_after_residues:
            if not all(st.done for st in stripes):
                if checkpoint_path is not None:
                    _write_checkpoint(checkpoint_path, digest, cfg, stripes)
                interrupted = True
                break

    completed = not interrupted
    if completed and checkpoint_path is not None:
        _write_checkpoint(checkpoint_path, digest, cfg, stripes)

    for st in stripes:
        st.recip.fold_into(total)
    return SearchResult(
        xs=sorted(found),
        count=len(boundary) + sum(st.count for st in stripes),
        recip_sum=total.value(),
        stripe_counts=[st.count for st in stripes],
        boundary_count=len(boundary),
        completed=completed,
        resumed=resumed,
    )


def find_pattern_primes(cfg: SearchConfig, table=EMBEDDED_TABLE) -> list:
    """All x with every form value prime and max_i f_i(x) <= n, sorted."""
    return run_striped(cfg, table=table).xs


def _chain_complete(kind, length, x, table) -> bool:
    """No prime extends the chain at x in either direction."""
    pattern = chain_pattern(kind, length)
    last = pattern.evaluate(x)[-1]
    sign = 1 if kind == "first" else -1
    if is_prime(2 * last + sign, 1, table):
        return False
    prev2 = x - sign  # predecessor y solves 2y + sign = x
    if prev2 % 2 == 0:
        y = prev2 // 2
        if y >= 2 and is_prime(y, 1, table):
            return False
    return True


def smallest_chain(kind: str, length: int, cap: int, table=EMBEDDED_TABLE, *,
                   on_tuple=None, progress=None, **cfg):
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
        res = run_striped(window, table=table, progress=progress)
        x = next((x for x in res.xs if _chain_complete(kind, length, x, table)), None)
        if x is not None:
            if on_tuple:
                on_tuple(x, pattern.evaluate(x))
            return x
        searched = x_hi
        x_hi *= 8
    return None
