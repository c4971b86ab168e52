"""The range core and the worker processes: partials of any split of the
wheel's positions merge to one run's, forked workers give the output of
one process, and every child is reaped whatever ends the run."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tuplesieve.search as search_mod
from tuplesieve.apps import QUAD_PATTERN, TWIN_PATTERN
from tuplesieve.kahan import KahanBuckets
from tuplesieve.pattern import chain_pattern
from tuplesieve.primality import TableCapacityError
from tuplesieve.search import (
    SearchConfig,
    find_pattern_primes,
    make_context,
    run_range,
    run_striped,
)

from conftest import checkpoint_position, collect_xs, run_interrupted

SRC = str(Path(search_mod.__file__).parents[1])


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def merged(parts):
    """Adjacent ranges' partials in position order, merged."""
    xs = [x for _, _, part_xs in parts for x in part_xs]
    units = sum(units for _, units, _ in parts)
    return sum(count for count, _, _ in parts), KahanBuckets(units).value().hex(), xs


CASES = [
    SearchConfig(pattern=QUAD_PATTERN, n=10**5, space_exp=3.0, wheel=(2, 3, 5, 7, 11)),
    SearchConfig(pattern=TWIN_PATTERN, n=10**5, wheel=(2, 3, 5, 7, 11, 13)),
    SearchConfig(pattern=chain_pattern("first", 3), n=10**6),
]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(range(len(CASES))), data=st.data())
def test_any_split_merges_to_one_run(case, data):
    ctx = make_context(CASES[case])
    last = ctx.wheel.residue_count()
    cuts = sorted(data.draw(st.lists(st.integers(0, last), max_size=6)))
    bounds = [0, *cuts, last]
    parts = [run_range(ctx, a, b) for a, b in zip(bounds, bounds[1:])]
    assert merged(parts) == merged([run_range(ctx, 0, last)])
    # and run_striped's sieve path is that one run
    res, want = collect_xs(run_striped, CASES[case])
    count, _, xs = merged(parts)
    assert (count, sorted(xs)) == (res.count - res.boundary_count, want[res.boundary_count:])
    assert run_range(ctx, 0, last, keep=False)[2] is None


@pytest.mark.parametrize("cfg", CASES, ids=["quad-c3", "twin", "chain"])
def test_output_identical_for_1_2_4_workers(cfg, monkeypatch):
    monkeypatch.setattr(search_mod, "_cpu_limit", lambda: 4)
    runs = {}
    for nu in (1, 2, 4):
        seen = []
        res = run_striped(cfg._replace(nu=nu), on_tuple=lambda x, vals: seen.append((x, vals)))
        runs[nu] = (res.count, res.recip_sum.hex(), seen)
    assert runs[1] == runs[2] == runs[4]
    assert_no_children()


def test_process_count_capped_at_cpu_count(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(search_mod.os, "fork", counting_fork)
    # QUAD at 10^5 over W = 30030: 189 positions of 4 bytes, one round
    cfg = SearchConfig(pattern=QUAD_PATTERN, n=10**5, wheel=(2, 3, 5, 7, 11, 13), nu=10**6)
    want, want_xs = collect_xs(run_striped, cfg._replace(nu=1))
    assert forks == []
    res, xs = collect_xs(run_striped, cfg)
    assert len(forks) + 1 <= (os.cpu_count() or 1)
    assert (xs, res.recip_sum.hex()) == (want_xs, want.recip_sum.hex())
    forks.clear()
    monkeypatch.setattr(search_mod, "_cpu_limit", lambda: 3)
    assert find_pattern_primes(cfg) == want_xs
    assert len(forks) == 2  # the parent plus two children
    assert_no_children()


def test_process_count_capped_at_cpu_affinity(monkeypatch):
    # taskset -c 0 on a machine of 4 CPUs: a second process would share the first's CPU
    forks = []
    monkeypatch.setattr(search_mod.os, "fork", lambda: forks.append(1) or pytest.fail("forked"))
    monkeypatch.setattr(search_mod.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(search_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert search_mod._cpu_limit() == 1
    cfg = SearchConfig(pattern=QUAD_PATTERN, n=10**5, wheel=(2, 3, 5, 7, 11, 13), nu=2)
    xs = find_pattern_primes(cfg)
    assert forks == []
    assert xs == find_pattern_primes(cfg._replace(nu=1))
    # where the OS keeps no affinity set, the CPU count caps the processes
    monkeypatch.delattr(search_mod.os, "sched_getaffinity")
    assert search_mod._cpu_limit() == 4


def test_orphaned_worker_exits():
    # a parent killed by SIGKILL reaps nothing: its child must notice on its own
    code = f"""
import sys
sys.path.insert(0, {SRC!r})
import tuplesieve.search as s
from tuplesieve.apps import twins
s._cpu_limit = lambda: 2
fork = s._fork_range
def announce(*args):
    pid, fd = fork(*args)
    print(pid, flush=True)
    return pid, fd
s._fork_range = announce
twins(10**11, nu=2, wheel=(2, 3, 5, 7, 11, 13, 17, 19))
"""
    proc = subprocess.Popen([sys.executable, "-I", "-c", code], stdout=subprocess.PIPE, text=True)
    try:
        child = int(proc.stdout.readline())
        time.sleep(0.2)
        # 1627 segments of 10309 bytes a round, at some tens of ms each
        assert _alive(child)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 1.5
    while _alive(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    alive = _alive(child)
    if alive:
        os.kill(child, signal.SIGKILL)
    assert not alive


def _alive(pid) -> bool:
    """Whether pid runs, a zombie counting as ended."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(search_mod, "_cpu_limit", lambda: 2)


def _patch_segment(monkeypatch, in_child, in_parent=None):
    """Make sieve_segment call in_child(r) in a forked child, and
    in_parent(r) in this process, before sieving."""
    parent, real = os.getpid(), search_mod.sieve_segment

    def segment(pattern, r, *args, **kwargs):
        hook = in_parent if os.getpid() == parent else in_child
        if hook is not None:
            hook(r)
        return real(pattern, r, *args, **kwargs)

    monkeypatch.setattr(search_mod, "sieve_segment", segment)


def test_child_error_reraised_with_type_and_message(two_cpus, monkeypatch):
    cfg = SearchConfig(pattern=QUAD_PATTERN, n=10**5, wheel=(2, 3, 5, 7, 11), nu=2)

    def fail(r):
        raise TableCapacityError(f"no certifier for residue {r}")

    _patch_segment(monkeypatch, fail)
    with pytest.raises(TableCapacityError, match=r"^no certifier for residue \d+$"):
        run_striped(cfg)
    assert_no_children()

    def fail_other(r):
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    # a type that cannot be built from its message alone arrives named
    _patch_segment(monkeypatch, fail_other)
    with pytest.raises(RuntimeError, match="^builtins.UnicodeDecodeError: 'utf-8' codec"):
        run_striped(cfg)
    assert_no_children()


def test_child_without_result_is_an_error(two_cpus, monkeypatch):
    cfg = SearchConfig(pattern=QUAD_PATTERN, n=10**5, wheel=(2, 3, 5, 7, 11), nu=2)
    _patch_segment(monkeypatch, lambda r: os._exit(7))
    with pytest.raises(RuntimeError, match="without a result .exit code 7"):
        run_striped(cfg)
    assert_no_children()


def test_parent_error_kills_and_reaps_children(two_cpus, monkeypatch):
    cfg = SearchConfig(pattern=QUAD_PATTERN, n=10**5, wheel=(2, 3, 5, 7, 11), nu=2)

    def fail(r):
        raise ValueError("parent failed")

    t0 = time.monotonic()
    _patch_segment(monkeypatch, lambda r: time.sleep(60), fail)
    with pytest.raises(ValueError, match="parent failed"):
        run_striped(cfg)
    assert time.monotonic() - t0 < 30  # the sleeping child was killed, not waited for
    assert_no_children()


def test_interrupt_while_waiting_reaps_children(two_cpus, monkeypatch):
    # the parent's range is done and it waits on a child when ^C arrives
    cfg = SearchConfig(pattern=QUAD_PATTERN, n=10**5, wheel=(2, 3, 5, 7, 11), nu=2)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    _patch_segment(monkeypatch, lambda r: time.sleep(60))
    old = signal.signal(signal.SIGALRM, interrupt)
    t0 = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            run_striped(cfg)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert time.monotonic() - t0 < 30
    assert_no_children()


def test_interrupt_between_rounds_reaps_children(two_cpus, tmp_path):
    # four rounds of two processes, each forking a child, then ^C as the fifth starts
    cfg = SearchConfig(pattern=QUAD_PATTERN, n=10**5, space_exp=3.0, wheel=(2, 3, 5, 7, 11), nu=2)
    ck = tmp_path / "run.ckpt"
    run_interrupted(cfg, 4, ck)
    assert checkpoint_position(ck) == 8
    assert_no_children()
    resumed = run_striped(cfg, checkpoint_path=str(ck))
    assert resumed.resumed
    assert resumed.recip_sum.hex() == run_striped(cfg._replace(nu=1)).recip_sum.hex()
    assert_no_children()


def test_output_file_resumes_without_loss(two_cpus, tmp_path):
    # a run interrupted in mid-round, with lines written past its checkpoint, then resumed
    cfg = SearchConfig(pattern=QUAD_PATTERN, n=10**5, space_exp=3.0, wheel=(2, 3, 5, 7, 11), nu=2)
    full = find_pattern_primes(cfg)
    ck, dest = tmp_path / "run.ckpt", tmp_path / "out.txt"
    for rounds in (1, 4, 9):
        ck.unlink(missing_ok=True)
        dest.write_text("stale line from an earlier run\n")
        with open(dest, "a") as out:
            run_interrupted(cfg, rounds, ck, mid_round=True, output=out,
                            on_tuple=lambda x, vals: out.write(f"{x}\n"))
        assert checkpoint_position(ck) >= 2 * rounds
        recorded = int(ck.read_text().split("output ")[1])
        assert dest.stat().st_size > recorded  # lost when killed
        with open(dest, "a") as out:
            res = run_striped(cfg._replace(nu=1), checkpoint_path=str(ck), output=out,
                              on_tuple=lambda x, vals: out.write(f"{x}\n"))
        assert res.resumed
        assert sorted(map(int, dest.read_text().split())) == full


def test_run_leaves_no_worker_modules_loaded():
    code = (f"import sys; sys.path.insert(0, {SRC!r}); from tuplesieve.apps import twins; "
            "assert twins(10**6, nu=2).count == 8169; "
            "print(sorted({'multiprocessing', 'concurrent', 'pickle', 'dataclasses', "
            "'hashlib'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_unsorted_workers_print_no_line_twice():
    # the boundary window's tuples sit in the parent's stdout buffer when it forks
    argv = ["search", "--pattern", "x,x+2,x+6,x+8", "--n", "10000000", "--unsorted"]
    code = f"import sys; sys.path.insert(0, {SRC!r}); from tuplesieve.cli import main; " \
           "sys.exit(main(sys.argv[1:]))"
    runs = [subprocess.run([sys.executable, "-I", "-c", code, *argv, *extra],
                           capture_output=True, text=True, check=True, timeout=120).stdout
            for extra in ([], ["--workers", "2"])]
    lines = runs[1].splitlines()
    assert lines[-1] == "count=899"
    assert len(set(lines)) == len(lines)
    assert lines[:4] == ["5 5 7 11 13", "11 11 13 17 19", "101 101 103 107 109",
                         "191 191 193 197 199"]
    assert runs[0] == runs[1]
