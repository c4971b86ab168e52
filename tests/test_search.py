import copy
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tuplesieve.search as search_mod
from tuplesieve.apps import TupleCensus, quads, search
from tuplesieve.apsieve import SievePlan, SieveSegment, live_fractions, primes_upto
from tuplesieve.arith import WIDE_MAX
from tuplesieve.pattern import (
    Pattern,
    ResidueMask,
    admissible,
    chain_pattern,
    make_pattern,
    parse_pattern,
)
from tuplesieve.wheel import build_wheel
from tuplesieve.search import (
    CheckpointError,
    PlanError,
    SearchConfig,
    SearchResult,
    boundary_tuples,
    find_pattern_primes,
    run_striped,
    smallest_chain,
)

from conftest import CORPUS, boundary_scan, naive_pattern_xs

QUAD = make_pattern(CORPUS["quad"])
TWIN = make_pattern(CORPUS["twin"])


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
    cfg = SearchConfig(pattern=QUAD, n=1000, wheel_limit=210)
    assert find_pattern_primes(cfg) == [5, 11, 101, 191, 821]


def test_find_quadruplets_5050():
    cfg = SearchConfig(pattern=QUAD, n=5050, sieve_bound=20, wheel_limit=210)
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
        res = run_striped(SearchConfig(pattern=pattern, n=n))
        assert res.xs == naive_pattern_xs(pattern.forms, n, table_1e5)
    assert res.xs == want
    assert res.count == len(want)


def test_progress_every_10000_residues():
    # wheel 2*3*...*17 leaves 22275 twin residues
    for nu in (1, 2):
        seen = []
        res = search(TWIN, 10**5, wheel_limit=510510, sieve_bound=20, progress=seen.append,
                     nu=nu)
        assert seen == [10000, 20000]
        assert res.count == 1224


def test_bound_below_pattern_start_is_empty():
    res = run_striped(SearchConfig(pattern=QUAD, n=5, nu=2))
    assert (res.xs, res.count, res.recip_sum, res.boundary_count) == ([], 0, 0.0, 0)
    assert res.completed and not res.resumed
    assert run_striped(SearchConfig(pattern=QUAD, n=5), keep_xs=False).xs is None


_SHORT_RANGE = {**CORPUS, "x+3": [(1, 3)], "x-5": [(1, -5)]}


@pytest.mark.parametrize("name", sorted(_SHORT_RANGE))
def test_small_and_negative_bounds_match_scan(name, table_1e5):
    # x starts at 0, so x+3 has the prime 3 at n = 3 although max_value(1) = 4
    forms = _SHORT_RANGE[name]
    pattern = make_pattern(forms)
    for n in range(-10, 60):
        res = run_striped(SearchConfig(pattern=pattern, n=n))
        assert res.xs == naive_pattern_xs(forms, n, table_1e5), n
        assert res.count == len(res.xs) and res.completed


class _Planned(Exception):
    pass


def test_bound_past_width_rejected_before_planning(monkeypatch):
    def no_plan(cfg):
        raise _Planned

    monkeypatch.setattr(search_mod, "_resolve_plan", no_plan)
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
    base = run_striped(SearchConfig(pattern=QUAD, n=n, nu=1))
    split = run_striped(SearchConfig(pattern=QUAD, n=n, nu=nu))
    assert split.xs == base.xs
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


def test_checkpoint_interrupt_resume_bitwise(tmp_path):
    # c=3 and W = 2310 give QUAD at 10^6 21 residues, so 9 of them interrupt the run
    cfg = SearchConfig(pattern=QUAD, n=10**6, nu=3, space_exp=3.0, wheel_limit=2310)
    full = run_striped(cfg)
    ck = tmp_path / "run.ckpt"
    part = run_striped(cfg, checkpoint_path=str(ck), stop_after_residues=9)
    assert not part.completed
    assert ck.exists()
    resumed = run_striped(cfg, checkpoint_path=str(ck))
    assert resumed.resumed and resumed.completed
    assert resumed.count == full.count
    assert resumed.recip_sum.hex() == full.recip_sum.hex()
    assert sorted(set(part.xs) | set(resumed.xs)) == full.xs


def test_checkpoint_interrupt_resume_default_plan(tmp_path):
    # the default plan sieves QUAD at 10^8 to sqrt(n) over the 3 residues of W = 210
    cfg = SearchConfig(pattern=QUAD, n=10**8, nu=1)
    assert build_wheel(QUAD, search_mod._resolve_plan(cfg).wheel_limit).residue_count() == 3
    full = run_striped(cfg)
    ck = tmp_path / "run.ckpt"
    part = run_striped(cfg, checkpoint_path=str(ck), stop_after_residues=1)
    assert not part.completed
    resumed = run_striped(cfg, checkpoint_path=str(ck))
    assert resumed.resumed and resumed.completed
    assert resumed.count == full.count
    assert resumed.recip_sum.hex() == full.recip_sum.hex()
    assert sorted(set(part.xs) | set(resumed.xs)) == full.xs


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_kill_resume_at_every_position(tmp_path, nu, monkeypatch):
    # c=3 and W = 2310 give QUAD at 10^5 a wheel of 21 residues; stop after each but the
    # last, and resume under another worker count
    monkeypatch.setattr(search_mod.os, "cpu_count", lambda: 3)
    cfg = SearchConfig(pattern=QUAD, n=10**5, nu=nu, space_exp=3.0, wheel_limit=2310)
    other = cfg._replace(nu=nu % 3 + 1)
    full = run_striped(cfg)
    last = build_wheel(QUAD, search_mod._resolve_plan(cfg).wheel_limit).residue_count()
    assert last == 21
    # a run that keeps no x list must checkpoint and resume the same way
    for keep_xs in (True, False):
        for stop in range(1, last):
            ck = tmp_path / f"run{keep_xs}{stop}.ckpt"
            part = run_striped(cfg, checkpoint_path=str(ck), stop_after_residues=stop,
                               keep_xs=keep_xs)
            assert not part.completed
            resumed = run_striped(other, checkpoint_path=str(ck), keep_xs=keep_xs)
            assert resumed.resumed and resumed.completed
            assert resumed.count == full.count
            assert resumed.recip_sum.hex() == full.recip_sum.hex()
            if keep_xs:
                assert sorted(set(part.xs) | set(resumed.xs)) == full.xs
            else:
                assert part.xs is None and resumed.xs is None


@pytest.mark.parametrize("mode", ["sqrt", "c3"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_keep_xs_false_matches_default_run(name, mode):
    n = 10**5
    plan = {"sqrt": dict(sieve_bound=math.isqrt(n)), "c3": dict(space_exp=3.0)}[mode]
    cfg = SearchConfig(pattern=make_pattern(CORPUS[name]), n=n, nu=2, **plan)
    seen = {True: [], False: []}
    full = run_striped(cfg, on_tuple=lambda x, vals: seen[True].append((x, vals)))
    lean = run_striped(cfg, on_tuple=lambda x, vals: seen[False].append((x, vals)),
                       keep_xs=False)
    assert full.xs and lean.xs is None
    assert lean.count == full.count == len(full.xs)
    assert lean.recip_sum.hex() == full.recip_sum.hex()
    assert lean.boundary_count == full.boundary_count
    assert seen[False] == seen[True]


def test_checkpoint_digest_mismatch(tmp_path):
    ck = tmp_path / "run.ckpt"
    cfg = SearchConfig(pattern=QUAD, n=10**6, nu=2)
    run_striped(cfg, checkpoint_path=str(ck), stop_after_residues=5)
    other = SearchConfig(pattern=QUAD, n=10**6 + 2, nu=2)
    with pytest.raises(CheckpointError, match="digest"):
        run_striped(other, checkpoint_path=str(ck))
    # the worker count is not part of the configuration: any count resumes
    resumed = run_striped(SearchConfig(pattern=QUAD, n=10**6, nu=1), checkpoint_path=str(ck))
    assert resumed.resumed and resumed.completed
    full = run_striped(SearchConfig(pattern=QUAD, n=10**6, nu=2))
    assert (resumed.count, resumed.recip_sum.hex()) == (full.count, full.recip_sum.hex())


def test_checkpoint_corrupt_file(tmp_path):
    ck = tmp_path / "run.ckpt"
    cfg = SearchConfig(pattern=QUAD, n=10**5, nu=1, space_exp=3.0, wheel_limit=2310)
    run_striped(cfg, checkpoint_path=str(ck), stop_after_residues=2)
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
    last = build_wheel(QUAD, search_mod._resolve_plan(cfg).wheel_limit).residue_count()
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
    again = run_striped(cfg, checkpoint_path=str(ck))
    assert again.resumed and again.completed
    assert again.count == full.count
    assert again.recip_sum.hex() == full.recip_sum.hex()


def test_tiny_n_boundary_only():
    # n=14 leaves no residue in range: everything comes from the scan
    cfg = SearchConfig(pattern=QUAD, n=14, wheel_limit=210)
    res = run_striped(cfg)
    assert res.xs == [5]
    assert res.boundary_count == 1
    assert res.count == res.boundary_count
    # at n=30 the first residue fits, so x=11 arrives via the sieve path
    res = run_striped(SearchConfig(pattern=QUAD, n=30, wheel_limit=210))
    assert res.xs == [5, 11]
    assert (res.boundary_count, res.count) == (1, 2)


def test_boundary_cut_inside_a_segment(table_1e5):
    # x,2x-1 is 1, 1 at x = 1: no prime divides 1, so x = 1 survives the
    # sieve in the segment of residue 1 mod W, and only the cut at
    # x <= x_cut keeps it out of the count
    pattern = parse_pattern("x,2x-1")
    want = naive_pattern_xs(pattern.forms, 1000, table_1e5)
    assert len(want) == 21
    for plan in ({}, {"sieve_bound": 31, "wheel_limit": 6}):
        res = run_striped(SearchConfig(pattern=pattern, n=1000, **plan))
        assert res.xs == want
        assert res.count == len(want)
    # with 5 kept out of the wheel and B = 3, nothing strikes x = 5 of
    # x,6x+1 (values 5 and 31), whose largest value is past (B+1)^2:
    # the boundary window owns it all the same
    pattern = parse_pattern("x,6x+1")
    res = run_striped(SearchConfig(pattern=pattern, n=1000, sieve_bound=3, wheel_limit=42,
                                   excluded_wheel_primes=frozenset({5})))
    assert res.xs == naive_pattern_xs(pattern.forms, 1000, table_1e5)
    assert res.count == len(res.xs) and 5 in res.xs


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
       wheel_limit=st.sampled_from([None, 2, 6, 30, 210]), nu=st.integers(1, 3))
def test_differential_against_naive_scan(table_1e5, pattern, n, sieve, wheel_limit, nu):
    if sieve == "sqrt":
        sieve = {"sieve_bound": math.isqrt(n)}
    cfg = SearchConfig(pattern=pattern, n=n, nu=nu, wheel_limit=wheel_limit, **sieve)
    seen = []
    res = run_striped(cfg, on_tuple=lambda x, vals: seen.append((x, vals)))
    want = naive_pattern_xs(pattern.forms, n, table_1e5)
    assert res.xs == want
    assert res.count == len(want)
    assert sorted(seen) == [(x, pattern.evaluate(x)) for x in want]
    assert res.recip_sum == math.fsum(1.0 / v for x in want for v in pattern.evaluate(x))


def test_plan_sqrt_for_twins_and_quads_at_1e8():
    for pattern in (TWIN, QUAD):
        plan = search_mod._resolve_plan(SearchConfig(pattern=pattern, n=10**8))
        # the cost model stops at 11: its rows cost more than its residues save
        assert (plan.B, plan.wheel_limit) == (10**4, 210)
        assert plan.primes == tuple(primes_upto(10**4))
        assert len(plan.primes) == 1229


def _plan(pattern, n, **kw):
    return search_mod._resolve_plan(SearchConfig(pattern=pattern, n=n, **kw))


X = make_pattern([(1, 0)])


def test_plan_power_of_two_rule():
    plan = _plan(X, 2**30, space_exp=3)
    # one form and 172 primes: even 11, which keeps 10 of its 11 residues, pays for its rows
    assert (plan.B, plan.wheel_limit) == (1024, 2310)
    assert plan.primes == tuple(primes_upto(1024))


def test_plan_sqrt_mode():
    plan = _plan(X, 10**8, sieve_bound=10**4)
    assert (plan.B, plan.wheel_limit, len(plan.primes)) == (10**4, 210, 1229)
    # the wheel follows the x range, not n: segments of 256x+1 are 256
    # times shorter than n / W, so fewer primes pay for their rows
    steep = make_pattern([(256, 1)])
    assert _plan(steep, 10**8, sieve_bound=10**4).wheel_limit == 6
    assert search_mod._wheel_modulus(steep, 10**8, 1229, frozenset()) == 210


def test_plan_errors():
    with pytest.raises(PlanError, match=r"^sieve bound B=1 below 2$"):
        _plan(X, 3, space_exp=3)
    with pytest.raises(PlanError, match=r"^space exponent c=2\.0 must exceed 2$"):
        _plan(X, 100, space_exp=2.0)
    with pytest.raises(PlanError, match=r"^sieve bound B=1 below 2$"):
        _plan(X, 100, sieve_bound=1)


def _planned_depth(pattern, bound, wheel_limit):
    """First prime <= bound, wheel primes left out, where the predicted
    live fraction is at most LIVE_FLOOR."""
    moduli = build_wheel(pattern, wheel_limit).moduli
    primes = [p for p in primes_upto(bound) if p not in moduli]
    return next(p for p, frac in live_fractions(pattern, primes)
                if frac <= search_mod.LIVE_FLOOR)


def test_plan_chain_window_depth_cut(monkeypatch):
    plans = []
    resolve = search_mod._resolve_plan

    def record(cfg):
        plan = resolve(cfg)
        plans.append((cfg, plan))
        return plan

    monkeypatch.setattr(search_mod, "_resolve_plan", record)
    assert smallest_chain("first", 9, 10**9) == 85864769
    cfg, plan = plans[-1]  # the largest window
    x_top = cfg.pattern.x_max(cfg.n)
    assert x_top == 2**29
    # the depth is predicted past a reference wheel budgeted by the space
    # bound n^(1/3); the wheel itself is the cost model's
    assert plan.B == _planned_depth(cfg.pattern, 2**12, x_top // 2**12) == 1033
    assert plan.primes == tuple(primes_upto(1033))
    # chains keep 2 of 11 and 4 of 13 residues, so both primes pay for their rows
    assert build_wheel(cfg.pattern, plan.wheel_limit).W == plan.wheel_limit == 30030


def test_plan_length_15_chain_lists_few_primes(monkeypatch):
    import tuplesieve.apsieve as apsieve

    asked = []
    listed = apsieve.primes_upto
    monkeypatch.setattr(apsieve, "primes_upto", lambda n: asked.append(n) or listed(n))
    chain = chain_pattern("first", 15)
    plan = search_mod._resolve_plan(SearchConfig(pattern=chain, n=chain.max_value(10**20)))
    assert max(asked) <= 2**12
    assert len(plan.primes) < 200
    # the probe's reference wheel is budgeted by the space bound 2^26
    assert plan.B == _planned_depth(chain, 2**12, 10**20 // 2**26)


def test_plan_quads_1e17_within_table_budget(monkeypatch):
    import tuplesieve.apsieve as apsieve

    asked = []
    listed = apsieve.primes_upto
    monkeypatch.setattr(apsieve, "primes_upto", lambda n: asked.append(n) or listed(n))
    plan = search_mod._resolve_plan(SearchConfig(pattern=QUAD, n=10**17))
    # past the wheel, no prime up to 2^18 brings the prediction to the floor
    assert plan.B == 2**18
    assert max(asked) <= 2**24


@pytest.mark.parametrize("length, x", [(15, 90616211958465842219),
                                       (17, 2759832934171386593519)])
def test_plan_record_chains_cap_segments(length, x):
    # a wheel budgeted x_top // B_s left 4.5e8- and 1.38e10-byte segments here
    chain = chain_pattern("first", length)
    n = chain.max_value(x)
    plan = search_mod._resolve_plan(SearchConfig(pattern=chain, n=n))
    assert chain.x_max(n) // build_wheel(chain, plan.wheel_limit).W <= search_mod.SEGMENT_MAX


def test_wheel_modulus_caps_segments():
    # twins at 2^48 sieve 2 x 1077871 rows a segment: the cost model alone
    # stops at 17#, whose 5.5e8-byte segments SEGMENT_MAX does not allow
    x_top = TWIN.x_max(2**48)
    W = search_mod._wheel_modulus(TWIN, x_top, 2 * 1077871, frozenset())
    assert W == 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    assert x_top // W <= search_mod.SEGMENT_MAX < x_top // (W // 23)


def _budget_wheel_plan(make_plan, pattern, n):
    """make_plan with the wheel budget max(2, x_top // B_s) in place of
    the cost model's wheel; B_s is isqrt(n) exactly when B is."""
    root = max(2, math.isqrt(n))

    def plan(B, wheel_limit, primes):
        space = root if B == root else 1 << int(math.log2(n) / 3)
        return make_plan(B, max(2, pattern.x_max(n) // space), primes)

    return plan


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(pattern=_PATTERN, n=st.integers(0, 3 * 10**4), nu=st.integers(1, 3),
       chunk=st.sampled_from([1, 7, 100, search_mod.CHUNK]))
def test_default_wheel_matches_budget_wheel(pattern, n, nu, chunk):
    cfg = SearchConfig(pattern=pattern, n=n, nu=nu)
    with pytest.MonkeyPatch.context() as mp:
        # short chunks split segments, which are shorter than CHUNK at this n
        mp.setattr(search_mod, "CHUNK", chunk)
        new = run_striped(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_mod, "make_plan",
                   _budget_wheel_plan(search_mod.make_plan, pattern, n))
        old = run_striped(cfg)
    assert new.xs == old.xs
    assert (new.count, new.boundary_count) == (old.count, old.boundary_count)
    assert new.recip_sum.hex() == old.recip_sum.hex()


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
    (SievePlan, dict(B=20, wheel_limit=210, primes=(2, 3, 5)), {}),
    (SieveSegment, dict(r=11, W=210, bits=bytearray(b"\x01\x00"), applied=4),
     dict(aborted=False)),
    (SearchConfig, dict(pattern=QUAD, n=10**4),
     dict(nu=1, sieve_bound=None, space_exp=None, wheel_limit=None,
          excluded_wheel_primes=frozenset(), checkpoint_interval=900.0)),
    (SearchResult, dict(xs=None, count=2, recip_sum=0.5, boundary_count=0, completed=True),
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
    plan_of = search_mod._resolve_plan
    chain = chain_pattern("first", 9)
    n = chain.max_value(2**20)  # the default plan cuts the sieve short of n^(1/3)
    assert plan_of(SearchConfig(pattern=chain, n=n)).B < 1 << int(math.log2(n) / 3)
    # explicit bounds are taken literally
    assert plan_of(SearchConfig(pattern=chain, n=n, sieve_bound=math.isqrt(n))).B == math.isqrt(n)
    assert plan_of(SearchConfig(pattern=chain, n=n, space_exp=3.0)).B == 1 << int(math.log2(n) / 3)
    assert plan_of(SearchConfig(pattern=QUAD, n=10**8, space_exp=3.0)).B == 2**8
    assert plan_of(SearchConfig(pattern=QUAD, n=10**8, wheel_limit=30)).wheel_limit == 30


def test_excluded_wheel_prime_same_output():
    n = 10**5
    base = find_pattern_primes(SearchConfig(pattern=QUAD, n=n))
    skipped = find_pattern_primes(
        SearchConfig(pattern=QUAD, n=n, excluded_wheel_primes=frozenset({5}))
    )
    assert base == skipped


def test_smallest_chain_first_kind():
    # complete chains: unextendable in either direction
    assert smallest_chain("first", 1, 100) == 13
    assert smallest_chain("first", 2, 100) == 3
    assert smallest_chain("first", 3, 1000) == 41
    assert smallest_chain("first", 4, 10**4) == 509
    assert smallest_chain("first", 5, 100) == 2
    assert smallest_chain("first", 6, 10**4) == 89


def test_smallest_chain_second_kind():
    assert smallest_chain("second", 1, 100) == 11
    assert smallest_chain("second", 2, 100) == 7
    assert smallest_chain("second", 3, 100) == 2


def test_smallest_chain_not_found():
    assert smallest_chain("first", 6, 50) is None
