"""End-to-end pattern search: wheel residues -> AP sieve -> probable-prime
filter -> certified prime tests -> tuple stream.

`make_context` has the run sized by the planner (plan.py: the depth B,
the wheel and which start-table rows are masks) and builds the rest
once: the wheel, the start table and the two cuts below.

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
partials in position order and reaps every child.  The end of a round
is the run's one commit point: the parent merges the partials, fires
on_tuple, writes the checkpoint and then reports progress.  Rounds are
cut from the config and the start position alone, so every count is
repeatable.  A checkpoint stores the next position, the sieve path's
count and sum units, and how many bytes of tuple lines the caller had
written; a run killed at any point resumes from its last round's end.
"""

import marshal
import math
import os
import sys
from bisect import bisect_right
from collections import namedtuple
from itertools import compress
from types import SimpleNamespace

from . import plan as planner
from .apsieve import primes_upto, root_rows, sieve_segment, start_table, survivors
from .arith import WIDE_MAX
from .kahan import KahanBuckets
from .pattern import Pattern, admissible, chain_pattern, format_pattern
from .plan import make_plan  # by name: the traced benchmark wraps `search.make_plan`
from .primality import is_prime, sprp_base2
from .wheel import build_wheel, check_moduli

__all__ = [
    "SearchConfig",
    "SearchResult",
    "CheckpointError",
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


SearchConfig = namedtuple(
    "SearchConfig",
    "pattern n nu sieve_bound space_exp wheel",
    defaults=(1, None, None, None),
)

# xs: x values found this run, sorted; None unless kept
# count: total tuples, including any restored progress
# recip_sum: sum of 1/f_i over all counted tuples, correctly rounded
SearchResult = namedtuple(
    "SearchResult",
    "xs count recip_sum boundary_count resumed",
    defaults=(False,),
)


# residues between two progress reports; rounds end at its multiples
PROGRESS_EVERY = 10000
# segment bytes one process sieves in a round: rounds that long make a
# fork and a checkpoint write cost little, and bound the x values a
# round holds before merging and the work a kill loses
ROUND_BYTES = 1 << 24
# segment bytes read out and accounted at a time, which bounds the
# survivor and term lists and the readout's gap pieces.  On twins to
# 10^8, 2^16 held about 0.3 MB more peak RSS than 2^15 for about 2 %
# less time, and 2^14 0.13 MB less for about 2 % more
CHUNK = 1 << 15
# each window of `smallest_chain` is this many times wider than the
# last.  For a log-uniform answer x the windows search about
# (g - 1) / ln g times x in all (1.44 x at g = 2, 2.16 x at 4, 3.37 x at
# 8), and each window pays a fixed set-up of about a millisecond, which
# a smaller g pays more often.  Over hunts of lengths 5-9 of both kinds
# to 10^9, g = 4 took the least time (g = 6 tied within the noise)
CHAIN_GROWTH = 4


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


def make_context(cfg: SearchConfig) -> SimpleNamespace:
    """Plan the run and build what its ranges share: the pattern and n,
    the plan, the wheel, the segment length L = x_top // W + 1 (that of
    residue 0, which no other residue's exceeds), the start table split
    into masks and stride rows (`plan.mask_split`), the cut of the
    boundary window (every tuple with a value <= cut has x <= x_cut) and
    x_proved, up to which the sieve alone proves a tuple."""
    pattern, n = cfg.pattern, cfg.n
    plan = make_plan(*planner.resolve_plan(cfg))
    wheel = build_wheel(pattern, plan.moduli)
    L = pattern.x_max(n) // wheel.W + 1
    table = start_table(pattern, wheel.W, plan.sieve_primes(wheel.moduli))
    masks, table = planner.mask_split(pattern, table, L, wheel.residue_count())
    cut = max(plan.B, max(wheel.moduli))
    # min_value(x) <= cut exactly when x <= x_cut, since every a >= 1
    x_cut = max((cut - b) // a for a, b in pattern.forms)
    # a value below (B+1)^2 with no prime factor <= B is prime, and every
    # value of x is below it exactly when x <= x_proved
    x_proved = max(x_cut, pattern.x_max((plan.B + 1) ** 2 - 1))
    return SimpleNamespace(pattern=pattern, n=n, plan=plan, wheel=wheel, L=L, table=table,
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
            # proved by the sieve alone; a census's chunks mostly are whole
            ok = xs if i == 0 and j == len(xs) else xs[i:j]
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
                progress=None, keep_xs=True, output=None) -> SearchResult:
    """Run the full search, optionally resuming from a checkpoint file.

    on_tuple(x, values) fires in emission order: boundary tuples first,
    then sieve-path tuples by residue position, ascending within one.  A
    resumed run fires only for the positions past the checkpoint: the
    run that wrote it fired the boundary tuples.  Every round ends with
    its tuples' on_tuple calls, then a checkpoint write, then
    progress(done) when done is a multiple of PROGRESS_EVERY.
    With keep_xs=False the run keeps no list of x values and the
    result's xs is None: a census needs only the count and the sum.

    output is the file, opened for appending, that on_tuple writes
    lines to, if any: each checkpoint records its length (`tell()`).
    Before it emits anything, a resumed run truncates the file back to
    that length and a fresh run empties it, so a killed run's output
    resumes without loss.  A file shorter than that length is not the
    run's: CheckpointError.
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
                            boundary_count=0)

    ctx = make_context(cfg)
    last = ctx.wheel.residue_count()
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
        size = output.seek(0, os.SEEK_END)
        if size < written:  # truncate would pad it with NUL bytes
            raise CheckpointError(f"output file holds {size} bytes, "
                                  f"fewer than the {written} its checkpoint recorded")
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
    per_proc = max(1, ROUND_BYTES // ctx.L)
    keep = keep_xs or on_tuple is not None
    while position < last:
        end = min(last, position + procs * per_proc,
                  (position // PROGRESS_EVERY + 1) * PROGRESS_EVERY)
        for part_count, part_units, xs in _run_round(ctx, position, end, procs, keep):
            count += part_count
            units += part_units
            if keep_xs:
                found.extend(xs)
            if on_tuple:
                for x in xs:
                    on_tuple(x, pattern.evaluate(x))
        position = end
        if checkpoint_path is not None:
            _write_checkpoint(checkpoint_path, digest, position, count, units, output)
        if progress and position % PROGRESS_EVERY == 0:
            progress(position)

    KahanBuckets(units).fold_into(total)
    return SearchResult(
        xs=sorted(found) if keep_xs else None,
        count=len(boundary) + count,
        recip_sum=total.value(),
        boundary_count=len(boundary),
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
