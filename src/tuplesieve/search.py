"""End-to-end pattern search: wheel residues -> AP sieve -> probable-prime
filter -> certified prime tests -> tuple stream.

The planner (`_resolve_plan`) is the one place that sizes a run: from
the input it fixes one sieve depth B, to which every segment is sieved,
and the wheel, chosen by what a sieve row costs in CPython against a
segment byte (`_wheel_modulus`).  `make_context` builds the rest once:
the wheel, the start table and the two cuts below.

Tuples containing a prime at or below the cut (B or the largest wheel
prime) never reach the sieve path (the wheel excludes their residue or
a sieve prime clears them), so a byte sieve over that boundary window
of x finds those first.  On the sieve path a segment's survivors come
out ascending, CHUNK bytes of it at a time, and two bisects split each
chunk's: those the boundary window owns are dropped, those whose
largest value is below (B+1)^2 are proved tuples by the sieve alone,
and the rest go through the SPRP gate and the certified test.  The
proved prefix and the tested tuples make one ascending list per chunk,
accounted in one step: its length goes to the count and its values, as
C-level map columns, to one exact-sum call.  The boundary window is
accounted the same way.

`run_range` does that for the wheel residues at positions [lo, hi) and
returns a partial: count, sum units (see kahan.py) and, when kept, the
x values in position order.  Partials of adjacent ranges merge by
addition and concatenation, so the reported sum is the correctly
rounded total however the positions are split.  `run_striped` drives a
run: it scans the boundary window, then cuts the positions left into
rounds of contiguous ranges, one per process, at most
min(nu, os.cpu_count()) of them.  The parent forks a child per range
after the first (`os.fork`, one pipe each, partials sent by `marshal`),
runs the first range itself, reads the children's partials in position
order and reaps every child; only then does it fire on_tuple, report
progress and write a checkpoint.  Rounds are cut from the config and
the start position alone, so every count is repeatable.  A checkpoint
stores the next position, the sieve path's count and sum units, and
how many bytes of tuple lines the caller had written.
"""

import marshal
import math
import os
import sys
import time
from bisect import bisect_right
from collections import namedtuple
from itertools import chain, compress
from types import SimpleNamespace

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
    "make_context",
    "run_range",
    "run_striped",
    "smallest_chain",
]

CHECKPOINT_MAGIC = "TSCKPT v4"


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
    "xs count recip_sum boundary_count completed resumed",
    defaults=(False,),
)


# budget for the plan's prime tables: sieving to sqrt(n) lists every
# prime up to it, so above this the planner falls back to n^(1/3)
SQRT_BOUND_MAX = 2**24
# predicted share of live segment bytes at which sieving stops: a prime
# past it strikes almost nothing, and prime tests cost less
LIVE_FLOOR = 1 / 4096
# residues between two progress reports; rounds end at its multiples
PROGRESS_EVERY = 10000
# segment bytes one process sieves in a round: rounds that long make a
# fork cost little, and bound the x values a round holds before merging
ROUND_BYTES = 1 << 24
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
            "tsckpt4",
            format_pattern(cfg.pattern),
            f"n={cfg.n}",
            f"B={plan.B}",
            f"wl={plan.wheel_limit}",
            "excl=" + ",".join(map(str, sorted(cfg.excluded_wheel_primes))),
        ]
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_checkpoint(path, digest, position, count, units, output):
    lines = [
        CHECKPOINT_MAGIC,
        f"digest {digest}",
        f"position {position}",
        f"count {count}",
        f"sum {units}",
        f"output {output.tell() if output is not None else 0}",
    ]
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def _read_checkpoint(path, digest, last):
    """The saved (position, sieve-path count, sieve-path sum units,
    output bytes); the position lies in [0, last], last meaning the walk
    is done."""
    try:
        with open(path) as f:
            lines = f.read().split("\n")
    except (OSError, UnicodeDecodeError) as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from None
    if lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint header {lines[0]!r}")
    try:
        fields = dict(ln.split(" ", 1) for ln in lines[1:] if ln)
        if sorted(fields) != ["count", "digest", "output", "position", "sum"]:
            raise ValueError(f"fields {sorted(fields)}")
        if fields["digest"] != digest:
            raise CheckpointError(
                "checkpoint digest mismatch: file belongs to a different "
                "configuration; refusing to restore"
            )
        position, count, units, output = (int(fields[k]) for k in
                                          ("position", "count", "sum", "output"))
        if not 0 <= position <= last:
            raise ValueError(f"position {position} not in [0, {last}]")
        if count < 0 or units < 0 or output < 0:
            raise ValueError("negative count, sum or output")
        return position, count, units, output
    except ValueError as e:
        raise CheckpointError(f"corrupt checkpoint file: {e}") from None


def make_context(cfg: SearchConfig) -> SimpleNamespace:
    """Plan the run and build what its ranges share: the pattern and n,
    the plan, the wheel, the start table, the cut of the boundary window
    (every tuple with a value <= cut has x <= x_cut) and x_proved, up to
    which the sieve alone proves a tuple."""
    pattern, n = cfg.pattern, cfg.n
    plan = _resolve_plan(cfg)
    wheel = build_wheel(pattern, plan.wheel_limit, cfg.excluded_wheel_primes)
    table = start_table(pattern, wheel.W, plan.sieve_primes(wheel.moduli))
    cut = max(plan.B, max(wheel.moduli))
    # min_value(x) <= cut exactly when x <= x_cut, since every a >= 1
    x_cut = max((cut - b) // a for a, b in pattern.forms)
    # a value below (B+1)^2 with no prime factor <= B is prime, and every
    # value of x is below it exactly when x <= x_proved
    x_proved = max(x_cut, pattern.x_max((plan.B + 1) ** 2 - 1))
    return SimpleNamespace(pattern=pattern, n=n, plan=plan, wheel=wheel, table=table,
                           cut=cut, x_cut=x_cut, x_proved=x_proved)


def run_range(ctx, lo: int, hi: int, keep: bool = True) -> tuple:
    """Sieve and account the wheel residues at positions [lo, hi).

    Returns the partial (count, units, xs): the number of tuples, their
    reciprocal sum in units of 2^-kahan.UNIT_EXP and, when keep is true,
    their x values, ascending within a residue and residues in position
    order (else None).  Boundary tuples (x <= ctx.x_cut) are not in it.
    Partials of adjacent ranges merge by addition and concatenation.
    """
    pattern, n, wheel, table = ctx.pattern, ctx.n, ctx.wheel, ctx.table
    forms, W, B, x_cut, x_proved = pattern.forms, wheel.W, ctx.plan.B, ctx.x_cut, ctx.x_proved
    count = 0
    recip = KahanBuckets()
    found = [] if keep else None
    wheel.seek(lo)
    while wheel.position < hi:
        r = wheel.next_residue()
        seg = sieve_segment(pattern, r, W, n, table)
        for start in range(0, len(seg.bits), CHUNK):
            xs = survivors(seg, start, start + CHUNK)
            # the boundary window owns those up to x_cut
            a, b = bisect_right(xs, x_cut), bisect_right(xs, x_proved)
            ok = xs[a:b]  # proved by the sieve alone
            for x in xs[b:]:
                vals = pattern.evaluate(x)
                # cheap probable-prime gates first, then certified tests
                if all(sprp_base2(v) for v in vals) and all(is_prime(v, B) for v in vals):
                    ok.append(x)
            count += len(ok)
            recip.add_group(_values(forms, ok))
            if keep:
                found.extend(ok)
        del seg  # free the buffer before the next segment is sieved
    return count, recip.units, found


def _fork_range(ctx, lo, hi, keep):
    """Fork a child that runs positions [lo, hi) and writes its partial,
    or the exception it raised, to a pipe; returns (pid, read end)."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid:
        os.close(wfd)
        return pid, rfd
    try:  # the child: never returns, and never flushes the parent's buffers
        os.close(rfd)
        try:
            reply = (True, run_range(ctx, lo, hi, keep))
        except BaseException as e:  # handed to the parent, which re-raises it
            reply = (False, (type(e).__module__, type(e).__qualname__, str(e)))
        with open(wfd, "wb") as f:
            f.write(marshal.dumps(reply))
    finally:
        os._exit(0)


def _reraise(module, qualname, message):
    """Raise the exception a child reported, by its type if this process
    has it loaded, else as a RuntimeError naming it."""
    cls = sys.modules.get(module)
    for part in qualname.split("."):
        cls = getattr(cls, part, None)
    exc = None
    if isinstance(cls, type) and issubclass(cls, BaseException):
        try:
            exc = cls(message)
        except TypeError:  # a type whose constructor takes other arguments
            pass
    raise exc if exc is not None else RuntimeError(f"{module}.{qualname}: {message}")


def _run_round(ctx, lo, hi, procs, keep) -> list:
    """The partials of positions [lo, hi), cut into at most procs
    contiguous ranges, in position order.  The first range runs here,
    each other one in a forked child; every child is reaped before this
    returns or raises."""
    k = min(procs, hi - lo)
    cuts = [lo + -(-(hi - lo) * i // k) for i in range(k + 1)]  # the first share is the largest
    children = {}  # pid -> pipe, until reaped
    try:
        if k > 1:
            sys.stdout.flush()
            sys.stderr.flush()
        for a, b in zip(cuts[1:-1], cuts[2:]):
            pid, fd = _fork_range(ctx, a, b, keep)
            children[pid] = open(fd, "rb")
        parts = [run_range(ctx, cuts[0], cuts[1], keep)]
        for pid, pipe in list(children.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if not data:
                raise RuntimeError(f"worker process {pid} ended without a result "
                                   f"(exit code {os.waitstatus_to_exitcode(status)})")
            ok, payload = marshal.loads(data)
            if not ok:
                _reraise(*payload)
            parts.append(payload)
        return parts
    finally:
        if children:  # an error or interrupt cut the round short
            import signal

            for pid, pipe in children.items():
                pipe.close()
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass  # an interrupt landed between its reaping and its removal


def run_striped(cfg: SearchConfig, checkpoint_path=None, on_tuple=None,
                stop_after_residues=None, progress=None, keep_xs=True,
                output=None) -> SearchResult:
    """Run the full search, optionally resuming from a checkpoint file.

    on_tuple(x, values) fires in emission order: boundary tuples first,
    then sieve-path tuples by residue position, ascending within one.  A
    resumed run fires only for the positions past the checkpoint: the
    run that wrote it fired the boundary tuples.  progress(done) fires
    every PROGRESS_EVERY residues.  stop_after_residues ends the run
    once the walk has passed that many residues, after writing a
    checkpoint (deterministic stand-in for being killed mid-flight).
    With keep_xs=False the run keeps no list of x values and the
    result's xs is None: a census needs only the count and the sum.

    output is the file, opened for appending, that on_tuple writes
    lines to, if any: each checkpoint records its length (`tell()`).
    Before it emits anything, a resumed run truncates the file back to
    that length and a fresh run empties it, so a killed run's output
    resumes without loss.
    """
    if not admissible(cfg.pattern):
        raise ValueError(f"pattern {format_pattern(cfg.pattern)} is not admissible")
    if cfg.nu < 1:
        raise ValueError("worker count must be >= 1")
    # every sieve-path value v has cut < v <= n, so this bounds them all
    if cfg.n > WIDE_MAX:
        raise OverflowError(f"bound n={cfg.n} outside [0, 2^127)")
    pattern, n = cfg.pattern, cfg.n
    if pattern.x_max(n) < pattern.min_x():
        # no x has every value in [2, n], so nothing can be prime
        return SearchResult(xs=[] if keep_xs else None, count=0, recip_sum=0.0,
                            boundary_count=0, completed=True)

    ctx = make_context(cfg)
    wheel, last = ctx.wheel, ctx.wheel.residue_count()
    position = count = units = written = 0
    resumed = checkpoint_path is not None and os.path.exists(checkpoint_path)
    if checkpoint_path is not None:
        digest = _config_digest(cfg, ctx.plan)
    if resumed:
        position, count, units, written = _read_checkpoint(checkpoint_path, digest, last)
    if output is not None:
        output.truncate(written)

    # tuples containing a prime <= cut are found by the boundary window
    boundary = boundary_tuples(pattern, ctx.cut, n)
    total = KahanBuckets()
    total.add_group(_values(pattern.forms, boundary))
    found = list(boundary) if keep_xs else None
    if on_tuple and not resumed:
        for x in boundary:
            on_tuple(x, pattern.evaluate(x))

    procs = min(cfg.nu, os.cpu_count() or 1)
    per_proc = max(1, ROUND_BYTES // (pattern.x_max(n) // wheel.W + 1))
    keep = keep_xs or on_tuple is not None
    last_checkpoint = time.monotonic()
    completed = True
    while position < last:
        end = min(last, position + procs * per_proc,
                  (position // PROGRESS_EVERY + 1) * PROGRESS_EVERY)
        if stop_after_residues is not None:
            end = min(end, max(stop_after_residues, position + 1))
        for part_count, part_units, xs in _run_round(ctx, position, end, procs, keep):
            count += part_count
            units += part_units
            if keep_xs:
                found.extend(xs)
            if on_tuple:
                for x in xs:
                    on_tuple(x, pattern.evaluate(x))
        position = end
        if progress and position % PROGRESS_EVERY == 0:
            progress(position)
        if stop_after_residues is not None and stop_after_residues <= position < last:
            completed = False
            break
        if checkpoint_path is not None:
            now = time.monotonic()
            if now - last_checkpoint >= cfg.checkpoint_interval:
                _write_checkpoint(checkpoint_path, digest, position, count, units, output)
                last_checkpoint = now

    if checkpoint_path is not None:
        _write_checkpoint(checkpoint_path, digest, position, count, units, output)

    KahanBuckets(units).fold_into(total)
    return SearchResult(
        xs=sorted(found) if keep_xs else None,
        count=len(boundary) + count,
        recip_sum=total.value(),
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
