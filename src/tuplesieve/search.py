"""End-to-end pattern search: wheel residues -> AP sieve -> probable-prime
filter -> certified prime tests -> tuple stream.

The planner (`_resolve_plan`) is the one place that sizes a run: from
the input it fixes one sieve depth B, to which every segment is sieved,
and the wheel, chosen by what a sieve row costs in CPython against a
segment byte (`_wheel_moduli`).  `make_context` builds the rest once:
the wheel, the start table and the two cuts below.

Tuples containing a prime at or below the cut (B or the largest wheel
prime) never reach the sieve path (the wheel excludes their residue or
a sieve prime clears them), so a byte sieve over that boundary window
of x finds those first.  On the sieve path a segment's survivors come
out ascending, CHUNK bytes of it at a time, and two bisects split each
chunk's: those the boundary window owns are dropped, those whose
largest value is below (B+1)^2 are proved tuples by the sieve alone,
and the rest go through the SPRP gate one form at a time (each form's
values of the x every form before it passed), then the certified test
on the x that passed them all.  The
proved prefix and the tested tuples make one ascending list per chunk,
accounted in one step: its length goes to the count, and the list, the
pattern's forms and n go to one exact-sum call, which builds each
form's terms with a list comprehension.  The boundary window is
accounted the same way.

`run_range` does that for the wheel residues at positions [lo, hi) and
returns a partial: count, sum units (see kahan.py) and, when kept, the
x values in position order.  Partials of adjacent ranges merge by
addition and concatenation, so the reported sum is the correctly
rounded total however the positions are split.  `run_striped` drives a
run: it scans the boundary window, then cuts the positions left into
rounds of contiguous ranges, one per process, at most nu and at most
the CPUs the process may run on (`_cpu_limit`).  The parent forks a
child per range after the first (`os.fork`, one pipe each, partials
sent by `marshal`), runs the first range itself, reads the children's
partials in position order and reaps every child; only then does it
fire on_tuple, report progress and write a checkpoint.  Rounds are cut
from the config and the start position alone, so every count is
repeatable.  A checkpoint stores the next position, the sieve path's
count and sum units, and how many bytes of tuple lines the caller had
written.
"""

import marshal
import math
import os
import sys
import time
from bisect import bisect_right
from collections import namedtuple
from itertools import chain, compress, islice, repeat
from types import SimpleNamespace

from .apsieve import (
    iter_primes,
    live_fractions,
    make_plan,
    mask_bytes,
    mask_rows,
    primes_upto,
    root_bound,
    root_rows,
    sieve_segment,
    start_table,
    strikes,
    survivors,
)
from .arith import WIDE_MAX
from .kahan import KahanBuckets
from .pattern import Pattern, acceptable_residues, admissible, chain_pattern, format_pattern
from .primality import LADDER_TOP, is_prime, sprp_base2
from .wheel import build_wheel, check_moduli, wheel_primes

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
    "pattern n nu sieve_bound space_exp wheel checkpoint_interval",
    defaults=(1, None, None, None, 900.0),
)

# xs: x values found this run, sorted; None unless kept
# count: total tuples, including any restored progress
# recip_sum: sum of 1/f_i over all counted tuples, correctly rounded
SearchResult = namedtuple(
    "SearchResult",
    "xs count recip_sum boundary_count completed resumed",
    defaults=(False,),
)


# budget for the plan's prime tables below LADDER_TOP: the cost walk
# lists no prime past it, so sieving to sqrt(n) needs isqrt(n) <= it
SQRT_BOUND_MAX = 2**24
# for n >= LADDER_TOP only: the predicted share of live segment bytes at
# which sieving stops.  A shallower depth there could leave a value that
# a deeper sieve strikes and no certifier covers, so cost is not asked
LIVE_FLOOR = 1 / 4096
# residues between two progress reports; rounds end at its multiples
PROGRESS_EVERY = 10000
# segment bytes one process sieves in a round: rounds that long make a
# fork cost little, and bound the x values a round holds before merging
ROUND_BYTES = 1 << 24
# the cost of one (segment, prime, form) row of the sieve, counted in
# segment bytes: a row takes about 0.35 us in CPython (it strikes from
# a zero buffer the segment keeps), a struck byte about 1.7 ns, and a
# segment byte, allocated, struck and read out, some tens of ns at most
ROW_BYTES = 30
# the cost of a base-2 strong test in segment bytes, per bit and per
# 30-bit digit of the value: about 0.1 us each in CPython (2.4 us at 27
# bits, 7.7 us at 37, 13 us at 60), against 0.02 us for a byte
TEST_BYTES = 5
# a certificate, `is_prime` past the gate, costs about ten strong tests
CERT_TESTS = 10
# the longest segment the wheel choice allows, in bytes; also the most
# bytes a run's masks may hold (`_mask_split`)
SEGMENT_MAX = 1 << 22
# what the segment kernel pays, in ns, for `_mask_split` to choose between
# a row's strides and its mask.  Timed on the kernel alone (Python 3.11,
# 2 vCPUs): a stride row about 0.15-0.19 us on top of its struck bytes,
# at about 0.85-1.2 ns each (chain windows of 3353 bytes, twins at
# 476191); one mask's shift and AND 0.18 us at 3353 bits and 16.7 us at
# 476k; writing the segment out from its int 1.5-2 ns a candidate;
# building a mask, once per run, 4-10 us in the length-9 hunt's windows
ROW_NS = 150
BYTE_NS = 1
MASK_NS = 60
BIT_NS = 0.035
CONV_NS = 2
BUILD_NS = 6000
# segment bytes read out and accounted at a time, which bounds the
# survivor and term lists
CHUNK = 1 << 16
# each window of `smallest_chain` is this many times wider than the
# last.  For a log-uniform answer x the windows search about
# (g - 1) / ln g times x in all (1.44 x at g = 2, 2.16 x at 4, 3.37 x at
# 8), and each window pays a fixed set-up of about a millisecond, which
# a smaller g pays more often.  Over hunts of lengths 5-9 of both kinds
# to 10^9, g = 4 took the least time (g = 6 tied within the noise)
CHAIN_GROWTH = 4


def _resolve_plan(cfg: SearchConfig):
    """The run's sieve plan: the one depth B its segments are sieved to,
    the primes up to it, and the wheel's primes.

    The config's sieve_bound, capped at max(2, isqrt(n)), or
    2^floor(log2(n)/space_exp), is taken literally as B.  Else B comes
    from `_cost_depth` below LADDER_TOP, with the wheel unless the
    config's wheel fixes it, and from `_floor_depth` at or above it.
    Otherwise the wheel is the config's or `_wheel_moduli`'s choice for
    x_top = `pattern.x_max(n)`, the largest x in range.  The primes the
    planner reads are the plan's, so they are listed once.  Raises
    PlanError for space_exp <= 2 or B < 2.
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
    elif n < LADDER_TOP:
        B, primes, moduli = _cost_depth(cfg, x_top)
    else:
        B, primes = _floor_depth(cfg, x_top)
    if B < 2:
        raise PlanError(f"sieve bound B={B} below 2")
    if primes is None:
        primes = primes_upto(B)
    if moduli is None:
        moduli = _wheel_moduli(pattern, x_top, pattern.k * len(primes))
    return make_plan(B, moduli, primes)


def _floor_depth(cfg, x_top):
    """B and the primes up to it for n >= LADDER_TOP, where a shallower
    B could leave a value no certifier covers: the first sieve prime up
    to 2^floor(log2(n)/3) where the predicted live share reaches
    LIVE_FLOOR, else that bound, past the config's wheel primes or else
    those of a reference wheel budgeted x_top // 2^floor(log2(n)/3)."""
    space = 1 << int(math.log2(cfg.n) / 3)
    skip = set(cfg.wheel or wheel_primes(max(2, x_top // space)))
    listed = []

    def sieve_primes():
        for p in iter_primes(space):
            listed.append(p)
            if p not in skip:
                yield p

    live = live_fractions(cfg.pattern, sieve_primes())
    B = next((p for p, frac in live if frac <= LIVE_FLOOR), None)
    return B or space, listed


def _cost_depth(cfg, x_top):
    """(B, the primes up to B, the wheel's primes) by predicted cost, for
    n < LADDER_TOP, where every depth gives the same verdicts (the
    README's planner paragraph gives the model).  The walk stops at the
    first sieve prime whose rows cost more than the strong tests spared
    the survivors it strikes, per segment of x_top // W bytes; B is the
    prime before it.  The sqrt end wins if its rows cost no more than
    the stop plus k gates and k certificates per predicted true tuple; a
    bound on pi(isqrt(n)) rules it out unlisted.  Unless the config's
    wheel fixes it, the wheel starts at the one for one prime's rows,
    the largest, and B and the wheel are chosen in turn until the wheel
    repeats.
    """
    pattern, n, k = cfg.pattern, cfg.n, cfg.pattern.k
    root = max(2, math.isqrt(n))
    bits = n.bit_length()
    test = TEST_BYTES * bits * -(-bits // 30)
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
            if ROW_BYTES * r > L * live * w / p * test:
                break
            rows += r
            live *= 1 - w / p
        else:
            return min(root, SQRT_BOUND_MAX), len(read)
        if root <= SQRT_BOUND_MAX:
            # the share left at isqrt(n), by Mertens's product
            tuples = live * (math.log(p) / math.log(root)) ** k
            stop_cost = ROW_BYTES * rows + L * test * (live + tuples * k * (1 + CERT_TESTS))
            beyond = (root / math.log(root) if root >= 17 else 0) - i - len(moduli)
            if ROW_BYTES * (rows + k * beyond - dropped) < stop_cost:
                for _, q, _, _ in walk():  # read the rows up to root_bound, then the primes
                    if q > top:
                        break
                read.extend(primes)
                rows += sum(r for q, r in zip(islice(read, i, None), chain(rs[i:], repeat(k)))
                            if q not in moduli)
                if ROW_BYTES * rows <= stop_cost:
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

    A row costs about ROW_BYTES struck bytes, so a segment of L bytes
    costs ROW_BYTES * rows + L.  Prime q, taken in order 2, 3, 5, ...,
    joins the wheel while its acc(q) residues out of q cost less than
    one segment without it:
    acc(q) * (ROW_BYTES * rows + L // q) < ROW_BYTES * rows + L, or
    while L > SEGMENT_MAX, which bounds a segment's buffer.  The first
    prime always joins, as a wheel needs one modulus.  Each prime taken
    shrinks L, and at L = 0 the inequality fails, so the loop reads a
    few dozen primes at most.
    """
    fixed = ROW_BYTES * rows
    moduli, W = [], 1
    for q in iter_primes(WIDE_MAX):
        L = x_top // W
        if (moduli and L <= SEGMENT_MAX
                and acceptable_residues(pattern, q).popcount * (fixed + L // q) >= fixed + L):
            break
        moduli.append(q)
        W *= q
    return tuple(moduli)


def boundary_tuples(pattern: Pattern, cut: int, n: int) -> list:
    """All x with min_i f_i(x) <= cut, max_i f_i(x) <= n, every value prime.

    These tuples contain a prime <= cut and are invisible to the sieve
    path.  They lie in one window of x, from the first x where every
    form is at least 2 to the last where the least form is <= cut and
    the largest <= n.  A byte sieve over that window clears, for every
    prime q <= sqrt(max f), each form's multiples of q other than q
    itself, from that form's root mod q (`root_rows`).
    """
    x0 = pattern.min_x()
    stop = min(cut, n)  # past n even the smallest form is out of range
    x1 = min(max((stop - b) // a for a, b in pattern.forms), pattern.x_max(n))
    if x1 < x0:
        return []
    size = x1 - x0 + 1
    live = bytearray([1]) * size
    for q, _, *roots in root_rows(pattern, primes_upto(math.isqrt(pattern.max_value(x1)))):
        # a form that q divides has no root: gcd(a, b) = 1, so q never divides a*x + b
        for (a, b), s in zip([(a, b) for a, b in pattern.forms if a % q], roots):
            j = (s - x0) % q
            if a * (x0 + j) + b == q:
                j += q  # the value is q itself, a prime
            if j < size:
                live[j::q] = bytearray(len(range(j, size, q)))
    return list(compress(range(x0, x1 + 1), live))


def _config_digest(cfg: SearchConfig, plan) -> str:
    import hashlib  # loads libcrypto, so only runs that checkpoint pay for it

    blob = "|".join(
        [
            "tsckpt5",
            format_pattern(cfg.pattern),
            f"n={cfg.n}",
            f"B={plan.B}",
            "wheel=" + ",".join(map(str, plan.moduli)),
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


def _mask_split(pattern, table, L: int, segments: int) -> tuple:
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


def make_context(cfg: SearchConfig) -> SimpleNamespace:
    """Plan the run and build what its ranges share: the pattern and n,
    the plan, the wheel, the start table split into masks and stride
    rows (`_mask_split`, for the wheel's residues, whose segments hold
    at most x_top // W + 1 bytes), the cut of the boundary window (every
    tuple with a value <= cut has x <= x_cut) and x_proved, up to which
    the sieve alone proves a tuple."""
    pattern, n = cfg.pattern, cfg.n
    plan = _resolve_plan(cfg)
    wheel = build_wheel(pattern, plan.moduli)
    table = start_table(pattern, wheel.W, plan.sieve_primes(wheel.moduli))
    masks, table = _mask_split(pattern, table, pattern.x_max(n) // wheel.W + 1,
                               wheel.residue_count())
    cut = max(plan.B, max(wheel.moduli))
    # min_value(x) <= cut exactly when x <= x_cut, since every a >= 1
    x_cut = max((cut - b) // a for a, b in pattern.forms)
    # a value below (B+1)^2 with no prime factor <= B is prime, and every
    # value of x is below it exactly when x <= x_proved
    x_proved = max(x_cut, pattern.x_max((plan.B + 1) ** 2 - 1))
    return SimpleNamespace(pattern=pattern, n=n, plan=plan, wheel=wheel, table=table,
                           masks=masks, cut=cut, x_cut=x_cut, x_proved=x_proved)


def run_range(ctx, lo: int, hi: int, keep: bool = True, parent: int | None = None) -> tuple:
    """Sieve and account the wheel residues at positions [lo, hi).

    Returns the partial (count, units, xs): the number of tuples, their
    reciprocal sum in units of 2^-kahan.UNIT_EXP and, when keep is true,
    their x values, ascending within a residue and residues in position
    order (else None).  Boundary tuples (x <= ctx.x_cut) are not in it.
    Partials of adjacent ranges merge by addition and concatenation.
    A forked worker passes its parent's pid, and exits between two
    segments once it has been re-parented: nothing would read it.
    """
    pattern, n, wheel, table, masks = ctx.pattern, ctx.n, ctx.wheel, ctx.table, ctx.masks
    forms, W, B, x_cut, x_proved = pattern.forms, wheel.W, ctx.plan.B, ctx.x_cut, ctx.x_proved
    count = 0
    recip = KahanBuckets()
    found = [] if keep else None
    wheel.seek(lo)
    while wheel.position < hi:
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        r = wheel.next_residue()
        seg = sieve_segment(pattern, r, W, n, table, masks)
        for start in range(0, len(seg.bits), CHUNK):
            xs = survivors(seg, start, start + CHUNK)
            # the boundary window owns those up to x_cut
            i, j = bisect_right(xs, x_cut), bisect_right(xs, x_proved)
            ok = xs[i:j]  # proved by the sieve alone
            # the base-2 gate one form at a time, each on the x the forms
            # before it passed; only those passing every form are certified
            rest = xs[j:]
            for a, b in forms:
                if not rest:
                    break
                rest = [x for x in rest if sprp_base2(a * x + b)]
            ok += [x for x in rest if all(is_prime(v, B) for v in pattern.evaluate(x))]
            count += len(ok)
            recip.add_group(ok, forms, n)
            if keep:
                found.extend(ok)
        del seg  # free the buffer before the next segment is sieved
    return count, recip.units, found


def _cpu_limit() -> int:
    """The CPUs this process may run on: its affinity set where the OS
    keeps one, else the CPU count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _fork_range(ctx, lo, hi, keep):
    """Fork a child that runs positions [lo, hi) and writes its partial,
    or the exception it raised, to a pipe; returns (pid, read end)."""
    rfd, wfd = os.pipe()
    parent = os.getpid()
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
            reply = (True, run_range(ctx, lo, hi, keep, parent))
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
    if cfg.wheel is not None:
        cfg = cfg._replace(wheel=check_moduli(cfg.wheel))
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
        try:  # fail now, not at the first write after the search
            open(tmp := f"{checkpoint_path}.tmp", "w").close()
            os.remove(tmp)
        except OSError as e:
            raise CheckpointError(f"cannot write checkpoint: {e}") from None
    if resumed:
        position, count, units, written = _read_checkpoint(checkpoint_path, digest, last)
    if output is not None:
        output.truncate(written)

    # tuples containing a prime <= cut are found by the boundary window
    boundary = boundary_tuples(pattern, ctx.cut, n)
    total = KahanBuckets()
    total.add_group(boundary, pattern.forms, n)
    found = list(boundary) if keep_xs else None
    if on_tuple and not resumed:
        for x in boundary:
            on_tuple(x, pattern.evaluate(x))

    procs = min(cfg.nu, _cpu_limit())
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
    the would-be predecessor is not prime.  Searches disjoint windows of
    x, [0, 2^11] first, each CHAIN_GROWTH times wider than the last, so
    small answers stay cheap and no x is searched twice.  The window
    [s, x_hi] is searched as the pattern translated to y = x - s
    (`Pattern.shifted`) at n = max f(x_hi): every form has a multiplier
    >= 1, so that n holds exactly the y <= x_hi - s, and the planner
    sizes the run by the window's width.  Every window's search uses
    the `SearchConfig` fields in `cfg`, and progress(done) counts each
    window's residues; on_tuple(x, values) fires once, for the answer.
    """
    pattern = chain_pattern(kind, length)
    s, x_hi = 0, 1 << 11
    while s <= cap:
        x_hi = min(x_hi, cap)
        window = SearchConfig(pattern=pattern.shifted(s), n=pattern.max_value(x_hi), **cfg)
        res = run_striped(window, progress=progress)
        x = next((y + s for y in res.xs if _chain_complete(kind, length, y + s)), None)
        if x is not None:
            if on_tuple:
                on_tuple(x, pattern.evaluate(x))
            return x
        s = x_hi + 1
        x_hi *= CHAIN_GROWTH
    return None
