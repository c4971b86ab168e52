"""End-to-end pattern search: wheel residues -> AP sieve -> probable-prime
filter -> certified prime tests -> tuple stream.

The planner (`_resolve_plan`) picks the sieve depth B, the wheel budget
and early abort from the input: B = sqrt(n), where sieving alone
decides primality, while the prime table fits its budget and the
predicted survivor density stays above early abort's threshold;
otherwise B = n^(1/3) with prime tests.  The wheel budget is x_top // B
over the x range, and early abort is on only where it is predicted to
fire.

Tuples containing a prime at or below the cut (B or the largest wheel
prime) never reach the sieve path (the wheel excludes their residue or
a sieve prime clears them), so a byte sieve over that boundary window
of x finds those first.  On the sieve path a segment's survivors come
out ascending, so one bisect drops those the boundary window owns.
When the segment's certified depth squared exceeds the largest
remaining value, sieving alone has proved every survivor a tuple, and
the count, the found list and the reciprocal sum take the whole
segment at once; otherwise each survivor goes through the SPRP gate
and the certified test.  The residue stream
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
    EarlyAbort,
    iter_primes,
    live_fraction,
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
    early_abort: EarlyAbort | None = None  # None: the planner decides
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


def _resolve_plan(cfg: SearchConfig):
    """The run's sieve plan and the early abort its segments use.

    Depth: B = isqrt(n), where sieving alone decides every survivor, as
    long as isqrt(n) <= SQRT_BOUND_MAX and a full sieve is predicted to
    leave more than 1 live byte per `min_live_per` (so it would not
    abort); otherwise B = 2^floor(log2(n)/3).  The wheel budget is
    x_top // B, x_top the largest x in range.  Early abort is on exactly
    when the prediction at the chosen B is at most that density.  The
    prediction skips the primes the wheel will take, because segment
    bytes are already wheel-filtered.  The config's sieve_bound,
    space_exp, wheel_limit and early_abort each override their part.
    """
    pattern, n = cfg.pattern, cfg.n
    x_top = min((n - b) // a for a, b in pattern.forms)
    floor = 1 / (cfg.early_abort or EarlyAbort()).min_live_per

    def predicted(primes, wheel_limit):
        skip = set(wheel_primes(wheel_limit, cfg.excluded_wheel_primes))
        return live_fraction(pattern, (p for p in primes if p not in skip), stop=floor)

    kw = dict(wheel_limit=cfg.wheel_limit, x_top=x_top)
    live = None
    if cfg.sieve_bound is not None:
        plan = make_plan(n, sieve_bound=cfg.sieve_bound, **kw)
    elif cfg.space_exp is not None:
        plan = make_plan(n, c=cfg.space_exp, **kw)
    else:
        root = math.isqrt(n)
        if root <= SQRT_BOUND_MAX:
            limit = max(2, x_top // root) if cfg.wheel_limit is None else cfg.wheel_limit
            live = predicted(iter_primes(root), limit)
        if live is not None and live > floor:
            plan = make_plan(n, sieve_bound=root, **kw)
        else:
            plan = make_plan(n, c=3.0, **kw)
            live = None
    if cfg.early_abort is not None:
        return plan, cfg.early_abort
    if live is None:
        live = predicted(plan.primes, plan.wheel_limit)
    return plan, EarlyAbort(enabled=live <= floor)


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
                stop_after_residues=None, checkpoint_every_residues=None,
                table=EMBEDDED_TABLE, progress=None, progress_every=100000) -> SearchResult:
    """Run the full search, optionally resuming from a checkpoint file.

    on_tuple(x, values) fires in emission order: boundary tuples first,
    then sieve-path tuples by residue position.  stop_after_residues
    ends the run early at a round boundary after writing a checkpoint
    (deterministic stand-in for being killed mid-flight).
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

    plan, early_abort = _resolve_plan(cfg)
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
    # residues handled so far, derived from the live cursors on resume
    processed = sum(
        (st.wheel.position - st.idx) // cfg.nu
        for st in stripes
        if not st.done and st.wheel.position > st.idx
    )
    next_count_ckpt = None
    if checkpoint_every_residues is not None:
        next_count_ckpt = (processed // checkpoint_every_residues + 1) * checkpoint_every_residues

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
            seg = sieve_segment(pattern, r, W, n, sieve_table,
                                early_abort=early_abort, full_bound=plan.B)
            depth = seg.sieved_to
            certified = (depth + 1) * (depth + 1)
            xs = survivors(seg)
            del xs[: bisect_right(xs, x_cut)]  # the boundary window owns these
            if xs and certified > pattern.max_value(xs[-1]):
                # the sieve alone proved every value prime: account in bulk
                st.count += len(xs)
                st.recip.add_group(a * x + b for a, b in forms for x in xs)
                found.extend(xs)
                if on_tuple:
                    for x in xs:
                        on_tuple(x, pattern.evaluate(x))
            else:
                for x in xs:
                    vals = pattern.evaluate(x)
                    if certified <= max(vals):
                        # cheap probable-prime gates first, then certified tests
                        if not all(sprp_base2(v) for v in vals):
                            continue
                        if not all(is_prime(v, depth, table) for v in vals):
                            continue
                    st.count += 1
                    st.recip.add_group(vals)
                    found.append(x)
                    if on_tuple:
                        on_tuple(x, vals)
            processed += 1
            if progress and processed % progress_every == 0:
                progress(processed)
        # round boundary: every live stripe is aligned here
        if checkpoint_path is not None:
            due = next_count_ckpt is not None and processed >= next_count_ckpt
            now = time.monotonic()
            if due or now - last_checkpoint >= cfg.checkpoint_interval:
                _write_checkpoint(checkpoint_path, digest, cfg, stripes)
                last_checkpoint = now
                if due:
                    next_count_ckpt = (
                        processed // checkpoint_every_residues + 1
                    ) * checkpoint_every_residues
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
        res = run_striped(window, table=table, progress=progress, progress_every=10000)
        x = next((x for x in res.xs if _chain_complete(kind, length, x, table)), None)
        if x is not None:
            if on_tuple:
                on_tuple(x, pattern.evaluate(x))
            return x
        searched = x_hi
        x_hi *= 8
    return None
