import copy
import hashlib
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tuplesieve.plan as plan_mod
import tuplesieve.search as search_mod
from tuplesieve.apps import TupleCensus, quads, search
from tuplesieve.apsieve import SieveSegment, live_fractions, primes_upto, root_bound
from tuplesieve.arith import WIDE_MAX
from tuplesieve.pattern import (
    Pattern,
    ResidueMask,
    admissible,
    chain_pattern,
    format_pattern,
    make_pattern,
    parse_pattern,
)
from tuplesieve.plan import PlanError, SievePlan, make_plan
from tuplesieve.primality import LADDER_TOP, TableCapacityError
from tuplesieve.wheel import WheelError, build_wheel
from tuplesieve.search import (
    CheckpointError,
    SearchConfig,
    SearchResult,
    boundary_tuples,
    find_pattern_primes,
    run_striped,
    smallest_chain,
)

from conftest import (
    CORPUS,
    boundary_scan,
    checkpoint_position,
    collect_xs,
    naive_pattern_xs,
    run_interrupted,
    sieve_table,
    wheel_primes,
)

QUAD = make_pattern(CORPUS["quad"])
TWIN = make_pattern(CORPUS["twin"])


def _resolve(cfg):
    """The run's plan, as `make_context` makes it."""
    return make_plan(*plan_mod.resolve_plan(cfg))


def test_boundary_quadruplet_wheel_cut():
    assert boundary_tuples(QUAD, 7, 1000) == [5]


def test_boundary_quadruplet_sieve_cut():
    assert boundary_tuples(QUAD, 20, 5000) == [5, 11]


def test_boundary_below_first_value_empty():
    assert boundary_tuples(QUAD, 0, 1000) == []
    assert boundary_tuples(TWIN, 1, 1000) == []


def test_boundary_respects_n():
    # 11,13,17,19 tops out at 19 > n
    assert boundary_tuples(QUAD, 20, 15) == [5]


_FORM = st.tuples(st.integers(1, 6), st.integers(-10, 30)).filter(lambda f: math.gcd(*f) == 1)


@settings(max_examples=200, deadline=None)
@given(forms=st.lists(_FORM, min_size=1, max_size=4, unique=True),
       cut=st.integers(0, 3000),
       extra=st.one_of(st.integers(-5, 40), st.integers(0, 10**5)))
def test_boundary_window_matches_scan(forms, cut, extra):
    # n from just below to far above the pattern's values at x = 1
    pattern = make_pattern(forms)
    n = pattern.max_value(1) + extra
    assert boundary_tuples(pattern, cut, n) == boundary_scan(pattern, cut, n)


def test_find_quadruplets_1000():
    cfg = SearchConfig(pattern=QUAD, n=1000, wheel=(2, 3, 5, 7))
    assert find_pattern_primes(cfg) == [5, 11, 101, 191, 821]


def test_find_quadruplets_5050():
    cfg = SearchConfig(pattern=QUAD, n=5050, sieve_bound=20, wheel=(2, 3, 5, 7))
    got = find_pattern_primes(cfg)
    assert 1481 in got
    assert got == [5, 11, 101, 191, 821, 1481, 1871, 2081, 3251, 3461]


def test_find_twins_100():
    cfg = SearchConfig(pattern=TWIN, n=100)
    assert find_pattern_primes(cfg) == [3, 5, 11, 17, 29, 41, 59, 71]


def test_inadmissible_rejected_before_work():
    bad = make_pattern([(1, 0), (1, 1)])
    with pytest.raises(ValueError, match="admissible"):
        run_striped(SearchConfig(pattern=bad, n=1000))


@pytest.mark.parametrize("text,want", [("x", [2, 3]), ("x+1", [1, 2]), ("x,x+2", [])])
def test_bound_at_most_3_is_planned(text, want, table_1e5):
    # every value is 2 or 3, so the boundary window holds the whole answer
    pattern = parse_pattern(text)
    for n in range(pattern.max_value(1), 4):
        res, xs = collect_xs(run_striped, SearchConfig(pattern=pattern, n=n))
        assert xs == naive_pattern_xs(pattern.forms, n, table_1e5)
    assert xs == want
    assert res.count == len(want)


def test_progress_every_10000_residues(tmp_path):
    # wheel 2*3*...*17 leaves 22275 twin residues; each report follows its round's
    # checkpoint write
    for nu in (1, 2):
        seen, ck = [], tmp_path / f"run{nu}.ckpt"
        res = search(TWIN, 10**5, wheel=(2, 3, 5, 7, 11, 13, 17), sieve_bound=20, nu=nu,
                     checkpoint_path=str(ck),
                     progress=lambda done: seen.append((done, checkpoint_position(ck))))
        assert seen == [(10000, 10000), (20000, 20000)]
        assert res.count == 1224


def test_bound_below_pattern_start_is_empty():
    res, xs = collect_xs(run_striped, SearchConfig(pattern=QUAD, n=5, nu=2))
    assert (xs, res.count, res.recip_sum, res.boundary_count) == ([], 0, 0.0, 0)
    assert not res.resumed


_SHORT_RANGE = {**CORPUS, "x+3": [(1, 3)], "x-5": [(1, -5)]}


@pytest.mark.parametrize("name", sorted(_SHORT_RANGE))
def test_small_and_negative_bounds_match_scan(name, table_1e5):
    # x starts at 0, so x+3 has the prime 3 at n = 3 although max_value(1) = 4
    forms = _SHORT_RANGE[name]
    pattern = make_pattern(forms)
    for n in range(-10, 60):
        res, xs = collect_xs(run_striped, SearchConfig(pattern=pattern, n=n))
        assert xs == naive_pattern_xs(forms, n, table_1e5), n
        assert res.count == len(xs)


class _Planned(Exception):
    pass


def test_bound_past_width_rejected_before_planning(monkeypatch):
    def no_plan(cfg):
        raise _Planned

    monkeypatch.setattr(plan_mod, "resolve_plan", no_plan)
    seen = []

    def on_tuple(x, vals):
        seen.append(x)

    with pytest.raises(OverflowError):
        run_striped(SearchConfig(pattern=TWIN, n=WIDE_MAX + 1), on_tuple=on_tuple)
    # quads bounds its search by X - 1, so X = 2^127 + 1 is the least past the width
    with pytest.raises(OverflowError):
        quads(2**127 + 1, on_tuple=on_tuple)
    assert seen == []
    # n = WIDE_MAX itself fits and goes on to planning
    with pytest.raises(_Planned):
        run_striped(SearchConfig(pattern=TWIN, n=WIDE_MAX))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_oracle_equivalence_1e5(name, table_1e6):
    forms = CORPUS[name]
    pattern = make_pattern(forms)
    n = 10**5
    expect = naive_pattern_xs(forms, n, table_1e6)
    got = find_pattern_primes(SearchConfig(pattern=pattern, n=n))
    assert got == expect


@pytest.mark.parametrize("forms", [CORPUS["twin"], CORPUS["quad"]])
def test_config_equivalence_modes(forms, table_1e6):
    pattern = make_pattern(forms)
    n = 10**6
    a = find_pattern_primes(SearchConfig(pattern=pattern, n=n, sieve_bound=math.isqrt(n)))
    b = find_pattern_primes(SearchConfig(pattern=pattern, n=n, space_exp=3.0))
    assert a == b == naive_pattern_xs(forms, n, table_1e6)


def test_monotone_prefix():
    small = find_pattern_primes(SearchConfig(pattern=QUAD, n=10**4))
    large = find_pattern_primes(SearchConfig(pattern=QUAD, n=10**5))
    assert large[: len(small)] == small


@pytest.mark.parametrize("nu", [1, 2, 4, 7])
def test_stripes_partition_and_agree(nu, monkeypatch):
    # nu processes (as many CPUs as asked for) split the positions into ranges
    monkeypatch.setattr(search_mod.os, "cpu_count", lambda: nu)
    n = 2 * 10**5
    base, base_xs = collect_xs(run_striped, SearchConfig(pattern=QUAD, n=n, nu=1))
    split, split_xs = collect_xs(run_striped, SearchConfig(pattern=QUAD, n=n, nu=nu))
    assert split_xs == base_xs
    assert split.count == base.count
    assert split.recip_sum.hex() == base.recip_sum.hex()
    assert split.boundary_count == base.boundary_count


def test_emission_order_boundary_first():
    seen = []
    cfg = SearchConfig(pattern=QUAD, n=10**4)
    run_striped(cfg, on_tuple=lambda x, vals: seen.append(x))
    b = boundary_tuples(QUAD, 100, 10**4)
    assert seen[: len(b)] == b
    assert sorted(seen) == find_pattern_primes(cfg)


def test_checkpoint_interrupt_resume_bitwise(tmp_path, monkeypatch):
    # c=3 and W = 2310 give QUAD at 10^6 21 residues; three rounds of three
    # processes interrupt the run at position 9
    monkeypatch.setattr(search_mod, "_cpu_limit", lambda: 3)
    cfg = SearchConfig(pattern=QUAD, n=10**6, nu=3, space_exp=3.0, wheel=(2, 3, 5, 7, 11))
    full, full_xs = collect_xs(run_striped, cfg)
    ck = tmp_path / "run.ckpt"
    killed = run_interrupted(cfg, 3, ck)
    assert checkpoint_position(ck) == 9
    resumed, rest = collect_xs(run_striped, cfg, checkpoint_path=str(ck))
    assert resumed.resumed
    assert resumed.count == full.count
    assert resumed.recip_sum.hex() == full.recip_sum.hex()
    assert sorted(killed + rest) == full_xs


def test_checkpoint_interrupt_resume_default_plan(tmp_path):
    # the default plan sieves QUAD at 10^8 to sqrt(n) over the 3 residues of W = 210
    cfg = SearchConfig(pattern=QUAD, n=10**8, nu=1)
    assert build_wheel(QUAD, _resolve(cfg).moduli).residue_count() == 3
    full, full_xs = collect_xs(run_striped, cfg)
    ck = tmp_path / "run.ckpt"
    killed = run_interrupted(cfg, 1, ck)
    assert checkpoint_position(ck) == 1
    resumed, rest = collect_xs(run_striped, cfg, checkpoint_path=str(ck))
    assert resumed.resumed
    assert resumed.count == full.count
    assert resumed.recip_sum.hex() == full.recip_sum.hex()
    assert sorted(killed + rest) == full_xs


# c=3 and W = 2310 give QUAD at 10^5 a wheel of 21 residues
KILL_CFG = SearchConfig(pattern=QUAD, n=10**5, space_exp=3.0, wheel=(2, 3, 5, 7, 11))


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_kill_resume_at_every_position(tmp_path, nu, monkeypatch):
    # rounds of one residue a process end at every multiple of nu: interrupt the
    # run after each round but the last, and resume under another worker count
    monkeypatch.setattr(search_mod, "_cpu_limit", lambda: 3)
    cfg = KILL_CFG._replace(nu=nu)
    other = cfg._replace(nu=nu % 3 + 1)
    full, full_xs = collect_xs(run_striped, cfg)
    last = build_wheel(QUAD, _resolve(cfg).moduli).residue_count()
    assert last == 21
    # a resume that streams no tuple must checkpoint and end the same way
    for stream in (True, False):
        for rounds in range(1, -(-last // nu)):
            ck = tmp_path / f"run{stream}{rounds}.ckpt"
            killed = run_interrupted(cfg, rounds, ck)
            assert checkpoint_position(ck) == rounds * nu
            if stream:
                resumed, rest = collect_xs(run_striped, other, checkpoint_path=str(ck))
                assert sorted(killed + rest) == full_xs
            else:
                resumed = run_striped(other, checkpoint_path=str(ck))
            assert resumed.resumed
            assert resumed.count == full.count
            assert resumed.recip_sum.hex() == full.recip_sum.hex()


def _listing(cfg, path, **kw):
    """Run cfg with its tuple lines appended to path, the way --out
    writes them with --checkpoint; returns the result and the x values
    it emitted, sorted."""
    xs = []

    def write(x, vals):
        xs.append(x)
        out.write(f"{x} {vals}\n")

    with open(path, "a") as out:
        return run_striped(cfg, output=out, on_tuple=write, **kw), sorted(xs)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nu=st.sampled_from([1, 2, 3]), other=st.sampled_from([1, 2, 3]), data=st.data())
def test_interrupt_at_any_round_resumes_bitwise(tmp_path_factory, nu, other, data):
    # a run interrupted after round m has committed exactly m rounds of nu
    # residues; resumed under any worker count it ends as if never stopped
    d = tmp_path_factory.mktemp("kill")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_mod, "_cpu_limit", lambda: 3)
        cfg = KILL_CFG._replace(nu=nu)
        full, full_xs = _listing(cfg, d / "full.txt")
        rounds = data.draw(st.integers(0, -(-21 // nu) - 1), label="rounds")
        ck, dest = d / "run.ckpt", d / "out.txt"
        with open(dest, "a") as out:
            killed = run_interrupted(cfg, rounds, ck, output=out,
                                     on_tuple=lambda x, vals: out.write(f"{x} {vals}\n"))
        if rounds:
            assert checkpoint_position(ck) == rounds * nu
        else:  # interrupted before the first commit point: nothing to resume
            assert not ck.exists()
        resumed, rest = _listing(cfg._replace(nu=other), dest, checkpoint_path=str(ck))
    assert resumed.resumed == bool(rounds)
    assert (resumed.count, resumed.recip_sum.hex()) == (full.count, full.recip_sum.hex())
    # with no checkpoint to resume, the second run starts afresh and emits every tuple
    assert sorted((killed if rounds else []) + rest) == full_xs
    assert dest.read_text() == (d / "full.txt").read_text()


@pytest.mark.parametrize("mode", ["sqrt", "c3"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_run_without_on_tuple_matches_streamed_run(name, mode):
    # a run without on_tuple keeps no x past its chunk; its count and sum
    # are those of a run that streams every tuple
    n = 10**5
    plan = {"sqrt": dict(sieve_bound=math.isqrt(n)), "c3": dict(space_exp=3.0)}[mode]
    cfg = SearchConfig(pattern=make_pattern(CORPUS[name]), n=n, nu=2, **plan)
    seen = []
    full = run_striped(cfg, on_tuple=lambda x, vals: seen.append((x, vals)))
    lean = run_striped(cfg)
    assert seen and lean.count == full.count == len(seen)
    assert lean.recip_sum.hex() == full.recip_sum.hex()
    assert lean.boundary_count == full.boundary_count


def test_checkpoint_digest_mismatch(tmp_path):
    ck = tmp_path / "run.ckpt"
    cfg = SearchConfig(pattern=QUAD, n=10**6, nu=2)
    run_striped(cfg, checkpoint_path=str(ck))  # W = 30 leaves one residue: one round
    other = SearchConfig(pattern=QUAD, n=10**6 + 2, nu=2)
    with pytest.raises(CheckpointError, match="digest"):
        run_striped(other, checkpoint_path=str(ck))
    # the same B on another wheel walks other residues
    plan = _resolve(cfg)
    wheel = plan.moduli[:-1] + (plan.moduli[-1] + 2,)
    assert _resolve(cfg._replace(wheel=wheel)).B == plan.B
    with pytest.raises(CheckpointError, match="digest"):
        run_striped(cfg._replace(wheel=wheel), checkpoint_path=str(ck))
    # the worker count is not part of the configuration: any count resumes
    resumed = run_striped(SearchConfig(pattern=QUAD, n=10**6, nu=1), checkpoint_path=str(ck))
    assert resumed.resumed
    full = run_striped(SearchConfig(pattern=QUAD, n=10**6, nu=2))
    assert (resumed.count, resumed.recip_sum.hex()) == (full.count, full.recip_sum.hex())


def test_checkpoint_with_wheel_budget_digest_refused(tmp_path):
    # the digest once held the wheel budget and the excluded primes; a
    # file written that way for this very plan is refused as a mismatch
    ck = tmp_path / "run.ckpt"
    cfg = SearchConfig(pattern=QUAD, n=10**5, nu=1, space_exp=3.0, wheel=(2, 3, 5, 7, 11))
    run_interrupted(cfg, 2, ck)
    text = ck.read_text().splitlines()
    B = _resolve(cfg).B
    old = f"tsckpt4|{format_pattern(QUAD)}|n={cfg.n}|B={B}|wl=2310|excl="
    text[1] = "digest " + hashlib.sha256(old.encode()).hexdigest()
    ck.write_text("\n".join(text) + "\n")
    with pytest.raises(CheckpointError, match="digest mismatch"):
        run_striped(cfg, checkpoint_path=str(ck))


def test_checkpoint_corrupt_file(tmp_path):
    ck = tmp_path / "run.ckpt"
    cfg = SearchConfig(pattern=QUAD, n=10**5, nu=1, space_exp=3.0, wheel=(2, 3, 5, 7, 11))
    run_interrupted(cfg, 2, ck)
    text = ck.read_text().splitlines()
    assert text[0] == "TSCKPT v4" and text[2] == "position 2"
    ck.write_text("\n".join(text) + "\nstripe: garbage\n")
    with pytest.raises(CheckpointError, match="corrupt"):
        run_striped(cfg, checkpoint_path=str(ck))
    ck.write_text("WRONG HEADER\n")
    with pytest.raises(CheckpointError):
        run_striped(cfg, checkpoint_path=str(ck))
    ck.write_text("")
    with pytest.raises(CheckpointError, match="bad checkpoint header"):
        run_striped(cfg, checkpoint_path=str(ck))
    ck.write_bytes(b"\xff\xfe")
    with pytest.raises(CheckpointError, match="cannot read"):
        run_striped(cfg, checkpoint_path=str(ck))
    # the per-stripe layouts of v2 and v3 files are refused by their header
    for old in ("v2", "v3"):
        ck.write_text(text[0].replace("v4", old) + "\n" + "\n".join(text[1:]) + "\n")
        with pytest.raises(CheckpointError, match="bad checkpoint header"):
            run_striped(cfg, checkpoint_path=str(ck))
    # a position that is missing, negative, past the end or not an integer
    last = build_wheel(QUAD, _resolve(cfg).moduli).residue_count()
    for bad in ([], ["position -1"], [f"position {last + 1}"], ["position 2.5"]):
        ck.write_text("\n".join(text[:2] + bad + text[3:]) + "\n")
        with pytest.raises(CheckpointError, match="corrupt"):
            run_striped(cfg, checkpoint_path=str(ck))
    # a v3 file's per-stripe counts in place of the one count, or a negative count
    for bad in (["counts 1,2"], ["count -1"], ["count 1,2"]):
        ck.write_text("\n".join(text[:3] + bad + text[4:]) + "\n")
        with pytest.raises(CheckpointError, match="corrupt"):
            run_striped(cfg, checkpoint_path=str(ck))


def test_completed_checkpoint_resume_is_noop(tmp_path):
    ck = tmp_path / "run.ckpt"
    cfg = SearchConfig(pattern=QUAD, n=10**5, nu=2)
    full = run_striped(cfg, checkpoint_path=str(ck))
    written = ck.read_text()
    last = build_wheel(QUAD, _resolve(cfg).moduli).residue_count()
    assert checkpoint_position(ck) == last  # the last round's commit
    again = run_striped(cfg, checkpoint_path=str(ck))
    assert again.resumed
    assert again.count == full.count
    assert again.recip_sum.hex() == full.recip_sum.hex()
    assert ck.read_text() == written  # already current: nothing left to commit


def test_tiny_n_boundary_only():
    # n=14 leaves no residue in range: everything comes from the scan
    cfg = SearchConfig(pattern=QUAD, n=14, wheel=(2, 3, 5, 7))
    res, xs = collect_xs(run_striped, cfg)
    assert xs == [5]
    assert res.boundary_count == 1
    assert res.count == res.boundary_count
    # at n=30 the first residue fits, so x=11 arrives via the sieve path
    res, xs = collect_xs(run_striped, SearchConfig(pattern=QUAD, n=30, wheel=(2, 3, 5, 7)))
    assert xs == [5, 11]
    assert (res.boundary_count, res.count) == (1, 2)


def test_boundary_cut_inside_a_segment(table_1e5):
    # x,2x-1 is 1, 1 at x = 1: no prime divides 1, so x = 1 survives the
    # sieve in the segment of residue 1 mod W, and only the cut at
    # x <= x_cut keeps it out of the count
    pattern = parse_pattern("x,2x-1")
    want = naive_pattern_xs(pattern.forms, 1000, table_1e5)
    assert len(want) == 21
    for plan in ({}, {"sieve_bound": 31, "wheel": (2, 3)}):
        res, xs = collect_xs(run_striped, SearchConfig(pattern=pattern, n=1000, **plan))
        assert xs == want
        assert res.count == len(want)
    # with 5 kept out of the wheel and B = 3, nothing strikes x = 5 of
    # x,6x+1 (values 5 and 31), whose largest value is past (B+1)^2:
    # the boundary window owns it all the same
    pattern = parse_pattern("x,6x+1")
    res, xs = collect_xs(run_striped,
                         SearchConfig(pattern=pattern, n=1000, sieve_bound=3, wheel=(2, 3, 7)))
    assert xs == naive_pattern_xs(pattern.forms, 1000, table_1e5)
    assert res.count == len(xs) and 5 in xs


_PATTERN = st.lists(_FORM, min_size=1, max_size=4, unique=True).map(make_pattern).filter(admissible)
_SIEVE = st.one_of(
    st.just({}),                                    # the planner's choice
    st.just("sqrt"),                                # n^(1/2): every segment in bulk
    st.builds(lambda b: {"sieve_bound": b}, st.integers(2, 40)),
    st.just({"space_exp": 2.5}),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(pattern=_PATTERN, n=st.integers(100, 3 * 10**4), sieve=_SIEVE,
       wheel=st.sampled_from([None, (2,), (2, 3), (2, 3, 5), (2, 3, 5, 7),
                              (3,), (2, 5), (2, 3, 7), (3, 5, 7, 11)]),
       nu=st.integers(1, 3))
def test_differential_against_naive_scan(table_1e5, pattern, n, sieve, wheel, nu):
    if sieve == "sqrt":
        sieve = {"sieve_bound": math.isqrt(n)}
    cfg = SearchConfig(pattern=pattern, n=n, nu=nu, wheel=wheel, **sieve)
    seen = []
    res = run_striped(cfg, on_tuple=lambda x, vals: seen.append((x, vals)))
    want = naive_pattern_xs(pattern.forms, n, table_1e5)
    assert res.count == len(want)
    assert sorted(seen) == [(x, pattern.evaluate(x)) for x in want]
    assert res.recip_sum == math.fsum(1.0 / v for x in want for v in pattern.evaluate(x))


def test_plan_sqrt_for_twins_and_quads_at_1e8():
    for pattern in (TWIN, QUAD):
        plan = _resolve(SearchConfig(pattern=pattern, n=10**8))
        # the cost model stops at 11: its rows cost more than its residues save
        assert (plan.B, plan.moduli) == (10**4, (2, 3, 5, 7))
        assert plan.primes == tuple(primes_upto(10**4))
        assert len(plan.primes) == 1229


def _plan(pattern, n, **kw):
    return _resolve(SearchConfig(pattern=pattern, n=n, **kw))


X = make_pattern([(1, 0)])


def test_plan_power_of_two_rule():
    plan = _plan(X, 2**30, space_exp=3)
    # one form and 172 primes: even 11, which keeps 10 of its 11 residues, pays for its rows
    assert (plan.B, plan.moduli) == (1024, (2, 3, 5, 7, 11))
    assert plan.primes == tuple(primes_upto(1024))


def test_plan_sqrt_mode():
    plan = _plan(X, 10**8, sieve_bound=10**4)
    assert (plan.B, plan.moduli, len(plan.primes)) == (10**4, (2, 3, 5, 7), 1229)
    # the wheel follows the x range, not n: segments of 256x+1 are 256
    # times shorter than n / W, so fewer primes pay for their rows
    steep = make_pattern([(256, 1)])
    assert _plan(steep, 10**8, sieve_bound=10**4).moduli == (2, 3)
    assert plan_mod._wheel_moduli(steep, 10**8, 1229) == (2, 3, 5, 7)


def test_plan_errors():
    with pytest.raises(PlanError, match=r"^sieve bound B=1 below 2$"):
        _plan(X, 3, space_exp=3)
    with pytest.raises(PlanError, match=r"^space exponent c=2\.0 must exceed 2$"):
        _plan(X, 100, space_exp=2.0)
    with pytest.raises(PlanError, match=r"^sieve bound B=1 below 2$"):
        _plan(X, 100, sieve_bound=1)


def _cost_depth(pattern, n, moduli, limit=2**12):
    """The largest prime below the first sieve prime, past a wheel of
    the primes `moduli` with product W, whose rows cost more than the
    strong tests it spares the survivors it strikes, per segment of
    x_top // W bytes."""
    bits = n.bit_length()
    test = plan_mod.TEST_NS * bits * -(-bits // 30)
    segment = pattern.x_max(n) // math.prod(moduli)
    before = 1.0
    for p, frac in live_fractions(pattern, [p for p in primes_upto(limit) if p not in moduli]):
        rows = sum(a % p != 0 for a, _ in pattern.forms)
        if plan_mod.ROW_NS * rows > segment * (before - frac) * test:
            return primes_upto(p - 1)[-1]
        before = frac
    raise AssertionError(f"no stop up to {limit}")


def test_plan_chain_window_depth_cut(monkeypatch):
    import tuplesieve.apsieve as apsieve

    plans, asked = [], []
    resolve = plan_mod.resolve_plan
    sieve = apsieve._sieve_block
    # the end of every block of primes sieved
    monkeypatch.setattr(apsieve, "_sieve_block", lambda lo, hi, ds: asked.append(hi) or sieve(lo, hi, ds))

    def record(cfg):
        plan = resolve(cfg)
        plans.append((cfg, make_plan(*plan)))
        return plan

    monkeypatch.setattr(plan_mod, "resolve_plan", record)
    assert smallest_chain("first", 9, 10**9) == 85864769
    cfg, plan = plans[-1]  # the largest window, (2^25, 2^27]
    # searched as y = x - (2^25 + 1), so x_top is the window's width
    x_top = cfg.pattern.x_max(cfg.n)
    assert x_top == 2**27 - 2**25 - 1 == 100663295
    assert cfg.n == chain_pattern("first", 9).max_value(2**27)
    # 163's nine rows cost more than the 36-bit tests it spares the
    # survivors of 3352-byte segments; 1033 with an older rule
    assert plan.B == _cost_depth(cfg.pattern, cfg.n, plan.moduli) == 157
    assert plan.primes == tuple(primes_upto(157))
    # chains keep 2 of 11 and 4 of 13 residues, so both primes pay for their rows
    assert plan.moduli == (2, 3, 5, 7, 11, 13)
    assert build_wheel(cfg.pattern, plan.moduli).W == 30030
    assert [p.B for _, p in plans] == [13, 17, 23, 29, 59, 47, 89, 157, 157]
    # the sqrt end, 185363 in the last window, was ruled out by a bound:
    # no prime past the 4096 block was listed (none at all once the
    # first block is sieved)
    assert max(asked, default=0) <= 2**12


def test_plan_length_15_chain_lists_few_primes(monkeypatch):
    import tuplesieve.apsieve as apsieve

    asked = []
    sieve = apsieve._sieve_block
    # the end of every block of primes sieved
    monkeypatch.setattr(apsieve, "_sieve_block", lambda lo, hi, ds: asked.append(hi) or sieve(lo, hi, ds))
    chain = chain_pattern("first", 15)
    n = chain.max_value(10**20)
    plan = _resolve(SearchConfig(pattern=chain, n=n))
    assert max(asked) <= 2**12
    assert len(plan.primes) < 200
    assert plan.B == _cost_depth(chain, n, plan.moduli)


def test_plan_quads_1e17_within_table_budget(monkeypatch):
    import tuplesieve.apsieve as apsieve

    asked = []
    sieve = apsieve._sieve_block
    # the end of every block of primes sieved
    monkeypatch.setattr(apsieve, "_sieve_block", lambda lo, hi, ds: asked.append(hi) or sieve(lo, hi, ds))
    plan = _resolve(SearchConfig(pattern=QUAD, n=10**17))
    # 2^18 with the rule this replaced; sample residues ran 23 % faster here
    assert plan.B == _cost_depth(QUAD, 10**17, plan.moduli, 2**17) == 95707
    assert max(asked) <= 2**24


def test_plan_census_targets_unchanged():
    # the plans of twins(10**8) and quads(10**8): sqrt mode, 1229 primes, W = 210
    for pattern, n, B in ((TWIN, 10**8 + 1, 10**4), (QUAD, 10**8 - 1, 9999)):
        plan = _resolve(SearchConfig(pattern=pattern, n=n))
        assert (plan.B, plan.moduli) == (B, (2, 3, 5, 7))
        assert plan.primes == tuple(primes_upto(10**4))
    # a stop is charged for certifying the true tuples: uncharged, quads at
    # 10^10 would stop at 23879, where quads(10**10) took 62-66 s against
    # 4.4-5.1 s at the sqrt end
    plan = _resolve(SearchConfig(pattern=QUAD, n=10**10))
    assert (plan.B, plan.moduli) == (10**5, (2, 3, 5, 7, 11, 13))


def test_plan_derives_no_root_row_past_root_bound(monkeypatch):
    import tuplesieve.apsieve as apsieve

    asked = []
    rows = apsieve.root_rows

    def counted(pattern, primes, W=1):
        return rows(pattern, (asked.append(p) or p for p in primes), W)

    monkeypatch.setattr(apsieve, "root_rows", counted)
    plan = _resolve(SearchConfig(pattern=QUAD, n=10**8))
    assert (plan.B, len(plan.primes)) == (10**4, 1229)
    # past max |a*d - b*c| = 8 every prime is counted with k roots, not derived
    assert apsieve.root_bound(QUAD) == 8
    assert asked == [2, 3, 5, 7]


def test_plan_keeps_counts_up_to_a_prime_root_bound():
    # P* = |6 * (-166) - 227 * 1| = 1223 is a sieved prime whose row has
    # three entries but two distinct roots; a later wheel's walk must
    # read those counts again, not k
    pattern = make_pattern([(6, 227), (1, -166), (3, 236)])
    assert root_bound(pattern) == 1223
    plan = _resolve(SearchConfig(pattern=pattern, n=6 * 10**14))
    assert (plan.B, plan.moduli, len(plan.primes)) == (169097, (2, 3, 5, 7, 11, 13, 17, 19, 23), 15421)


def test_run_derives_each_residue_mask_once(monkeypatch):
    import tuplesieve.pattern as pattern_mod

    asked = []
    rows = pattern_mod.root_rows

    def counted(pattern, primes, W=1):
        asked.append((pattern, *primes))
        return rows(pattern, primes, W)

    monkeypatch.setattr(pattern_mod, "root_rows", counted)
    # a pattern no other test asks about: admissible, the wheel choice
    # (tried on two or three wheels) and the wheel each read one mask per prime
    chain = chain_pattern("first", 7).shifted(987654321)
    run_striped(SearchConfig(pattern=chain, n=chain.max_value(10**6)))
    assert asked and len(asked) == len(set(asked))


def test_plan_twins_1e12_sqrt_end():
    # 78498 primes to 10^6 on 17#: the walk derives one root row, that of 2,
    # and plans in about half the time it took while it derived every row
    plan = _resolve(SearchConfig(pattern=TWIN, n=10**12))
    assert (plan.B, plan.moduli) == (10**6, (2, 3, 5, 7, 11, 13, 17))
    assert len(plan.primes) == 78498 and plan.primes[-1] == 999983


def test_plan_past_ladder_top_uses_cost_depth():
    # from LADDER_TOP on the cost rule still sets B: a value it leaves to
    # the tests is proven composite by a failing base of the top rung, or
    # raises if it passes all 13
    top = LADDER_TOP
    c15, c17 = chain_pattern("first", 15), chain_pattern("first", 17)
    paper = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 37, 41, 43, 47)
    for chain, n, depths in ((c15, top, (1447, 467)),
                             (c15, c15.max_value(3 * 10**20), (1627, 523)),
                             (c17, top, (659, 263)),
                             (c17, c17.max_value(2759832934171386593519), (811, 769))):
        for wheel, B in zip((None, paper), depths):
            plan = _plan(chain, n, wheel=wheel)
            assert plan.B == _cost_depth(chain, n, plan.moduli) == B
    # one below the top, the same rule gives the same depth
    assert _plan(c15, top - 1).B == 1447

    def window(pattern, n, **kw):
        return run_striped(SearchConfig(pattern=parse_pattern(pattern), n=n, **kw))

    # 2^83 - 1 is a base-2 strong pseudoprime whose least factor is 167:
    # left by B = 2 and 100, struck by B = 200, count=0 at each depth
    m83 = 2**83 - 1
    for kw in ({}, {"sieve_bound": 100}, {"sieve_bound": 200}):
        assert window(f"x+{m83}", m83, **kw).count == 0
    # 101 values just past the top (the floor rule took 15 s and 1.4 GB)
    start = time.perf_counter()
    assert window("x+3317044064679887385962000", 3317044064679887385962100).count == 0
    assert time.perf_counter() - start < 1
    # at x = 0 the value is the top itself, a pseudoprime to all 13 bases
    with pytest.raises(TableCapacityError):
        window(f"x+{top}", top + 219)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(pattern=_PATTERN, n=st.integers(100, 10**6))
def test_planned_depth_matches_sqrt_depth(pattern, n):
    # below LADDER_TOP every depth gives the same verdicts
    chosen, chosen_xs = collect_xs(run_striped, SearchConfig(pattern=pattern, n=n))
    sqrt, sqrt_xs = collect_xs(run_striped,
                               SearchConfig(pattern=pattern, n=n, sieve_bound=math.isqrt(n)))
    assert chosen_xs == sqrt_xs
    assert chosen.count == sqrt.count
    assert chosen.recip_sum.hex() == sqrt.recip_sum.hex()


@pytest.mark.parametrize("length, x", [(15, 90616211958465842219),
                                       (17, 2759832934171386593519)])
def test_plan_record_chains_cap_segments(length, x):
    # a wheel budgeted x_top // B_s left 4.5e8- and 1.38e10-byte segments here
    chain = chain_pattern("first", length)
    n = chain.max_value(x)
    plan = _resolve(SearchConfig(pattern=chain, n=n))
    assert chain.x_max(n) // build_wheel(chain, plan.moduli).W <= plan_mod.SEGMENT_MAX


def _budget_wheel_plan(make_plan, pattern, n):
    """make_plan with the primes of the wheel budget max(2, x_top // B_s)
    in place of the cost model's wheel; B_s is isqrt(n) exactly when B is."""
    root = max(2, math.isqrt(n))

    def plan(B, moduli, primes):
        space = root if B == root else 1 << int(math.log2(n) / 3)
        return make_plan(B, wheel_primes(max(2, pattern.x_max(n) // space)), primes)

    return plan


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(pattern=_PATTERN, n=st.integers(0, 3 * 10**4), nu=st.integers(1, 3),
       chunk=st.sampled_from([1, 7, 100, search_mod.CHUNK]))
# xs [6, 7, 9, 11], values 2, 3, 5, 7: the default plan's cut (B = 2, W = 2)
# leaves one to the boundary window, the budget plan's (B = 2, W = 6) two
@example(pattern=parse_pattern("x-4"), n=8, nu=1, chunk=search_mod.CHUNK)
def test_default_wheel_matches_budget_wheel(pattern, n, nu, chunk):
    cfg = SearchConfig(pattern=pattern, n=n, nu=nu)

    def run(make_plan, chunk=search_mod.CHUNK):
        # the run's result, its x values and the plans it made: none for
        # an empty x range
        plans = []

        def plan(*args):
            plans.append(make_plan(*args))
            return plans[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search_mod, "CHUNK", chunk)
            mp.setattr(search_mod, "make_plan", plan)
            return *collect_xs(run_striped, cfg), plans

    # short chunks split segments, which are shorter than CHUNK at this n
    new, new_xs, new_plans = run(search_mod.make_plan, chunk)
    old, old_xs, old_plans = run(_budget_wheel_plan(search_mod.make_plan, pattern, n))
    assert new_xs == old_xs
    assert new.count == old.count
    assert new.recip_sum.hex() == old.recip_sum.hex()
    # each run's boundary window owns the tuples whose least value is at
    # most its own cut, max(B, largest wheel prime)
    for res, xs, plans in ((new, new_xs, new_plans), (old, old_xs, old_plans)):
        assert len(plans) <= 1
        cut = max(plans[0].B, plans[0].moduli[-1]) if plans else 0
        assert res.boundary_count == sum(pattern.min_value(x) <= cut for x in xs)


def test_import_leaves_hashlib_unloaded():
    # only a checkpointed run needs the digest, and hashlib loads libcrypto;
    # dataclasses would bring inspect, ast and dis, most of an import's cost
    src = str(Path(search_mod.__file__).parents[1])
    for module in ("tuplesieve", "tuplesieve.cli"):
        code = (f"import sys; sys.path.insert(0, {src!r}); import {module}; "
                "print(sorted({'hashlib', 'dataclasses', 'inspect'} & sys.modules.keys()))")
        out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                             check=True, timeout=60)
        assert out.stdout.strip() == "[]", module


RECORDS = [
    # (type, required fields, default fields as today's values)
    (Pattern, dict(forms=((1, 0), (1, 2))), {}),
    (ResidueMask, dict(modulus=3, bits=0b110), {}),
    (SievePlan, dict(B=20, moduli=(2, 3, 5, 7), primes=(2, 3, 5)), {}),
    (SieveSegment, dict(r=11, W=210, bits=bytearray(b"\x01\x00"), applied=4),
     dict(aborted=False)),
    (SearchConfig, dict(pattern=QUAD, n=10**4),
     dict(nu=1, sieve_bound=None, space_exp=None, wheel=None)),
    (SearchResult, dict(count=2, recip_sum=0.5, boundary_count=0),
     dict(resumed=False)),
    (TupleCensus, dict(bound=10, count=2, recip_sum=0.5), {}),
]


@pytest.mark.parametrize("cls, required, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, required, defaults):
    fields = {**required, **defaults}  # in declaration order
    rec = cls(**required)
    assert {f: getattr(rec, f) for f in fields} == fields
    twin = cls(*copy.deepcopy(list(fields.values())))
    assert rec == twin
    if any(isinstance(v, (list, bytearray)) for v in required.values()):
        with pytest.raises(TypeError):  # a mutable field makes the record unhashable
            hash(rec)
    else:
        assert hash(rec) == hash(twin)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    assert repr(rec).startswith(cls.__name__ + "(")
    assert all(f"{field}=" in repr(rec) for field in fields)


def test_plan_explicit_overrides_win():
    plan_of = _resolve
    chain = chain_pattern("first", 9)
    n = chain.max_value(2**20)  # the default plan cuts the sieve short of n^(1/3)
    assert plan_of(SearchConfig(pattern=chain, n=n)).B < 1 << int(math.log2(n) / 3)
    # explicit bounds are taken literally
    assert plan_of(SearchConfig(pattern=chain, n=n, sieve_bound=math.isqrt(n))).B == math.isqrt(n)
    assert plan_of(SearchConfig(pattern=chain, n=n, space_exp=3.0)).B == 1 << int(math.log2(n) / 3)
    assert plan_of(SearchConfig(pattern=QUAD, n=10**8, space_exp=3.0)).B == 2**8
    assert plan_of(SearchConfig(pattern=QUAD, n=10**8, wheel=(2, 3, 5))).moduli == (2, 3, 5)
    assert plan_of(SearchConfig(pattern=QUAD, n=10**8, wheel=(2, 3, 7))).moduli == (2, 3, 7)


def test_excluded_wheel_prime_same_output():
    # a wheel with 5 left out: 5 is sieved instead, and the output stays
    n = 10**5
    cfg = SearchConfig(pattern=QUAD, n=n, wheel=(2, 3, 7))
    plan = _resolve(cfg)
    assert 5 in plan.sieve_primes(plan.moduli)
    base, base_xs = collect_xs(run_striped, SearchConfig(pattern=QUAD, n=n))
    skipped, skipped_xs = collect_xs(run_striped, cfg)
    assert base_xs == skipped_xs
    assert (base.count, base.recip_sum.hex()) == (skipped.count, skipped.recip_sum.hex())


TOO_WIDE = tuple(primes_upto(101))  # 101# is the first primorial past 2^127


@pytest.mark.parametrize("wheel", [(), (0,), (4,), (2, 2), TOO_WIDE],
                         ids=["empty", "zero", "four", "repeat", "too-wide"])
def test_bad_wheel_rejected_before_planning(wheel, monkeypatch):
    def no_plan(cfg):
        raise _Planned

    monkeypatch.setattr(plan_mod, "resolve_plan", no_plan)
    # n = 3 leaves no x in range, n = 1000 a run; neither gets to plan
    for n in (3, 1000):
        with pytest.raises(WheelError):
            run_striped(SearchConfig(pattern=TWIN, n=n, wheel=wheel))


def test_wheel_override_is_sorted():
    xs = find_pattern_primes(SearchConfig(pattern=QUAD, n=10**4, wheel=[7, 2, 5, 3]))
    assert xs == find_pattern_primes(SearchConfig(pattern=QUAD, n=10**4))
    ctx = search_mod.make_context(SearchConfig(pattern=QUAD, n=10**4, wheel=(2, 3, 5, 7)))
    assert ctx.plan.moduli == ctx.wheel.moduli == (2, 3, 5, 7)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_explicit_sieve_bound_capped_at_isqrt(name, table_1e5):
    # a prime past isqrt(n) strikes only values the boundary window owns,
    # so B = 10^5 lists no such prime and answers as B = isqrt(n) does
    pattern = make_pattern(CORPUS[name])
    for n in (3, 10, 100, 1000, 5000):
        root = max(2, math.isqrt(n))
        deep = SearchConfig(pattern=pattern, n=n, sieve_bound=10**5)
        plan = _resolve(deep)
        assert plan.B == root
        assert plan.primes == tuple(primes_upto(root))
        res, xs = collect_xs(run_striped, deep)
        want = naive_pattern_xs(pattern.forms, n, table_1e5)
        assert xs == want and res.count == len(want)
        assert res.recip_sum == math.fsum(1.0 / v for x in want for v in pattern.evaluate(x))
        shallow, shallow_xs = collect_xs(run_striped,
                                         SearchConfig(pattern=pattern, n=n, sieve_bound=root))
        assert (shallow_xs, shallow.recip_sum.hex()) == (xs, res.recip_sum.hex())
    # 13 s and 934 MB before the cap: a table of the primes up to 10^8
    assert _plan(X, 100, sieve_bound=10**8).primes == (2, 3, 5, 7)


def test_gate_tests_each_form_once_per_untested_survivor(monkeypatch):
    # a shallow sieve leaves composites for the base-2 gate, form by form
    pattern = chain_pattern("first", 4)
    cfg = SearchConfig(pattern=pattern, n=pattern.max_value(10**6), sieve_bound=13)
    x_proved = search_mod.make_context(cfg).x_proved
    listed, gated, evaluated = [], [], []
    survivors, sprp, evaluate = search_mod.survivors, search_mod.sprp_base2, Pattern.evaluate

    def listing(*args):
        xs = survivors(*args)
        listed.extend(xs)
        return xs

    monkeypatch.setattr(search_mod, "survivors", listing)
    monkeypatch.setattr(search_mod, "sprp_base2", lambda v: gated.append(v) or sprp(v))
    monkeypatch.setattr(Pattern, "evaluate", lambda self, x: evaluated.append(x) or evaluate(self, x))
    res = run_striped(cfg)  # streams nothing, so evaluate runs only in the search
    # the values the per-x short circuit gated, and the x passing every form
    want, passed = [], []
    for x in (x for x in listed if x > x_proved):
        for v in evaluate(pattern, x):
            want.append(v)
            if not sprp(v):
                break
        else:
            passed.append(x)
    assert len(gated) == len(want) > 1000 and sorted(gated) == sorted(want)
    assert evaluated == passed and len(passed) < len(listed) // 10
    monkeypatch.undo()
    deep = run_striped(SearchConfig(pattern=pattern, n=cfg.n))
    assert (res.count, res.recip_sum.hex()) == (deep.count, deep.recip_sum.hex())


def test_smallest_chain_first_kind():
    # complete chains: unextendable in either direction
    assert smallest_chain("first", 1, 100) == 13
    assert smallest_chain("first", 2, 100) == 3
    assert smallest_chain("first", 3, 1000) == 41
    assert smallest_chain("first", 4, 10**4) == 509
    assert smallest_chain("first", 5, 100) == 2
    assert smallest_chain("first", 6, 10**4) == 89


def test_smallest_chain_a005602():
    # OEIS A005602, the least first-kind chains of lengths 10 and 12; each
    # answer's window sieves its segments by masks
    assert smallest_chain("first", 10, 10**11) == 26089808579
    assert smallest_chain("first", 12, 10**12) == 554688278429


def test_smallest_chain_second_kind():
    assert smallest_chain("second", 1, 100) == 11
    assert smallest_chain("second", 2, 100) == 7
    assert smallest_chain("second", 3, 100) == 2


def test_smallest_chain_not_found():
    assert smallest_chain("first", 6, 50) is None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(pattern=st.lists(_FORM, min_size=1, max_size=3, unique=True).map(make_pattern)
       .filter(admissible),
       s=st.one_of(st.integers(0, 12), st.integers(0, 300)),
       n=st.integers(0, 10**5))
@example(pattern=TWIN, s=3, n=1000)  # (3, 5) at y = 0 has a value <= cut
@example(pattern=chain_pattern("second", 3), s=1, n=10**4)  # every value at y = 0 is 1
@example(pattern=QUAD, s=300, n=10**5)
def test_translated_search_matches_search_from_s(pattern, s, n):
    # the search of the translated pattern is the search of x >= s
    want = [x for x in find_pattern_primes(SearchConfig(pattern=pattern, n=n)) if x >= s]
    res, ys = collect_xs(run_striped, SearchConfig(pattern=pattern.shifted(s), n=n))
    assert [y + s for y in ys] == want
    assert res.count == len(want)
    assert res.recip_sum == math.fsum(1.0 / v for x in want for v in pattern.evaluate(x))


def _is_prime_by_division(v):
    return v >= 2 and all(v % d for d in range(2, math.isqrt(v) + 1))


def _least_complete_chain(kind, length, limit):
    """The least x <= limit starting a complete chain of exactly this
    length, or None: the chain's values and the predecessor by a byte
    sieve, the next value by trial division."""
    sign = 1 if kind == "first" else -1
    mult = 2 ** (length - 1)
    table = sieve_table(mult * limit + mult)
    for x in range(limit + 1):
        vals = [2**i * x + sign * (2**i - 1) for i in range(length)]
        if not all(v >= 2 and table[v] for v in vals):
            continue
        prev = (x - sign) // 2 if (x - sign) % 2 == 0 else 0
        if not _is_prime_by_division(2 * vals[-1] + sign) and not (prev >= 2 and table[prev]):
            return x
    return None


# window edges of smallest_chain and their neighbours
_EDGE_CAPS = [e + d for e in (2048, 8192, 32768) for d in (-1, 0, 1)]


@pytest.mark.parametrize("length", range(1, 7))
@pytest.mark.parametrize("kind", ["first", "second"])
def test_smallest_chain_matches_brute_force_at_window_edges(kind, length):
    answer = _least_complete_chain(kind, length, 400000)
    assert answer is not None
    for cap in _EDGE_CAPS + [answer, answer - 1]:
        assert smallest_chain(kind, length, cap) == (answer if answer <= cap else None), cap


@pytest.mark.parametrize("kind,length,cap", [
    ("first", 7, 0), ("first", 7, 2047), ("first", 7, 2048), ("first", 7, 2049),
    ("first", 7, 8192), ("first", 7, 10**5), ("second", 8, 10**6),
])
def test_smallest_chain_windows_cover_each_x_once(monkeypatch, kind, length, cap):
    # no complete chain starts at x <= cap, so every window runs
    pattern = chain_pattern(kind, length)
    a, b = pattern.forms[0]
    covered = []
    run = search_mod.run_striped

    def record(cfg, **kw):
        s = (cfg.pattern.forms[0][1] - b) // a
        covered.append((s, s + cfg.pattern.x_max(cfg.n)))
        return run(cfg, **kw)

    monkeypatch.setattr(search_mod, "run_striped", record)
    assert smallest_chain(kind, length, cap) is None
    assert covered[0][0] == 0 and covered[-1][1] == cap
    for (_, hi), (lo, _) in zip(covered, covered[1:]):
        assert lo == hi + 1
    assert all(lo <= hi for lo, hi in covered)
    # each window is four times wider than the last, but for the cap
    assert [hi for _, hi in covered[:-1]] == [2**(11 + 2 * i) for i in range(len(covered) - 1)]


def _window_9():
    """The length-9 hunt's last window, (2^25, 2^27], as `smallest_chain` searches it."""
    chain = chain_pattern("first", 9)
    return SearchConfig(pattern=chain.shifted(2**25 + 1), n=chain.max_value(2**27))


def test_mask_split_chain_window_takes_every_row():
    ctx = search_mod.make_context(_window_9())
    # 32 segments of 3353 bytes on W = 30030, sieved to B = 157: 31 rows of 9 entries
    assert (ctx.plan.B, ctx.wheel.W) == (157, 30030)
    assert len(ctx.masks) == 31 and ctx.table == ()
    assert [p for p, _, _ in ctx.masks] == ctx.plan.sieve_primes(ctx.wheel.moduli)


@pytest.mark.parametrize("pattern, n", [(TWIN, 10**8 + 1), (QUAD, 10**8 - 1)])
def test_mask_split_census_takes_none(pattern, n):
    ctx = search_mod.make_context(SearchConfig(pattern=pattern, n=n))
    assert ctx.masks == () and len(ctx.table) == 1225
    read = []

    class Counted(tuple):
        def __iter__(self):
            for row in tuple.__iter__(self):
                read.append(row[0])
                yield row

    masks, rows = plan_mod.mask_split(pattern, Counted(ctx.table), ctx.L, ctx.wheel.residue_count())
    # 476191-byte segments: the first rows would pay as masks, but not for
    # writing the segment out from its int; the scan stops at the first
    # row that does not pay
    assert masks == () and rows == ctx.table
    assert 0 < len(read) < 40 and read == [p for p, *_ in ctx.table[:len(read)]]
