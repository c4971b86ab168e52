import itertools
import math

import pytest

from tuplesieve.apsieve import primes_upto
from tuplesieve.pattern import chain_pattern, make_pattern
from tuplesieve.search import SearchConfig, make_context, run_range, run_striped
from tuplesieve.wheel import MODULUS_MAX, Wheel, WheelError, build_wheel, check_moduli

from conftest import CORPUS, collect_xs, wheel_primes

QUAD = make_pattern(CORPUS["quad"])
TWIN = make_pattern(CORPUS["twin"])
# the paper's wheel for length-15 first-kind chains: 47# with 31 left out
PAPER_CHAIN_WHEEL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 37, 41, 43, 47)


def test_quadruplet_wheel_210():
    w = build_wheel(QUAD, (2, 3, 5, 7))
    assert w.W == 210
    assert w.moduli == (2, 3, 5, 7)
    assert w.residue_count() == 3
    assert set(w) == {11, 101, 191}


def test_check_moduli_sorts_and_rejects():
    assert check_moduli([7, 2, 3]) == (2, 3, 7)
    assert check_moduli(PAPER_CHAIN_WHEEL) == PAPER_CHAIN_WHEEL
    assert check_moduli((65521,)) == (65521,)  # the largest prime up to MODULUS_MAX
    too_wide = tuple(primes_upto(101))  # 101# is the first primorial past 2^127
    assert math.prod(too_wide[:-1]) < 2**127 < math.prod(too_wide)
    assert check_moduli(too_wide[:-1]) == too_wide[:-1]
    for bad in ((), (0,), (1,), (4,), (-3,), (2, 2), (MODULUS_MAX + 1,), (65537,), too_wide):
        with pytest.raises(WheelError, match=r"is not distinct primes up to 2\^16 with a product"):
            check_moduli(bad)


def test_crt_combines_2_and_3():
    # 1 mod 2 with 2 mod 3 is 5 mod 6
    w = Wheel([(2, [1]), (3, [2])])
    assert list(w) == [5]


def test_single_modulus_wheel():
    w = Wheel([(3, [2])])
    assert list(w) == [2]


def test_build_wheel_twin_1e10():
    w = build_wheel(TWIN, wheel_primes(10**10))
    assert w.W == 6469693230
    assert w.moduli[-1] == 29


def test_build_wheel_exclusion():
    w = build_wheel(chain_pattern("first", 15), PAPER_CHAIN_WHEEL)
    assert w.W == 19835154277048110
    assert 31 not in w.moduli
    assert w.moduli[-1] == 47


def test_build_wheel_limit_too_small():
    # no prime fits the limit, and a wheel needs one modulus
    with pytest.raises(WheelError, match="at least one modulus"):
        build_wheel(TWIN, wheel_primes(1))


def test_residue_counts_match_popcount_product():
    w = build_wheel(TWIN, wheel_primes(10**10))
    assert w.residue_count() == 214708725
    w = build_wheel(QUAD, wheel_primes(200560490130))
    assert w.residue_count() == 472665375
    w = build_wheel(chain_pattern("first", 15), PAPER_CHAIN_WHEEL)
    assert w.residue_count() == 12841500672


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_enumeration_matches_brute_force(name):
    pattern = make_pattern(CORPUS[name])
    w = build_wheel(pattern, (2, 3, 5, 7))
    got = list(w)
    assert len(got) == len(set(got)) == w.residue_count()
    expect = set()
    for r in range(w.W):
        ok = all(
            (a * r + b) % p != 0
            for p in w.moduli
            for a, b in pattern.forms
            if a % p != 0
        )
        if ok:
            expect.add(r)
    assert set(got) == expect


def test_wheel_filters_exactly_like_wheel_primes(table_1e5):
    # x <= n survives the wheel iff no wheel prime divides an applicable form
    n = 3000
    w = build_wheel(QUAD, (2, 3, 5, 7))
    residues = set(w)
    covered = {x for x in range(n + 1) if x % 210 in residues}
    direct = set()
    for x in range(n + 1):
        if all(
            (a * x + b) % p != 0
            for p in (2, 3, 5, 7)
            for a, b in QUAD.forms
            if a % p != 0
        ):
            direct.add(x)
    assert covered == direct


def _crt_walk(wheel):
    """The walk order, computed without the wheel's basis: acceptable
    residues per modulus, the lowest modulus varying fastest, each tuple
    combined by stepwise CRT."""
    out = []
    for digits in itertools.product(*reversed(wheel.accept)):
        r, m = 0, 1
        for p, d in zip(reversed(wheel.moduli), digits):
            r += m * ((d - r) * pow(m, -1, p) % p)
            m *= p
        out.append(r)
    return out


@pytest.mark.parametrize("pattern,limit,W", [(QUAD, 30030, 30030),
                                             (chain_pattern("first", 4), 300, 210)])
def test_walk_order_is_low_modulus_first(pattern, limit, W):
    w = build_wheel(pattern, wheel_primes(limit))
    assert w.W == W
    assert list(w) == _crt_walk(w)
    assert [w.residue(pos) for pos in range(w.residue_count())] == _crt_walk(w)


def test_medium_wheel_yields_distinct():
    w = build_wheel(TWIN, wheel_primes(10**7))
    assert w.W == 9699690
    seen = set(w)
    assert len(seen) == w.residue_count() == 378675
    assert all(0 <= r < w.W for r in seen)


def test_stripe_identity():
    # one range over every position holds the whole sieve path
    cfg = SearchConfig(pattern=QUAD, n=10**5, wheel=(2, 3, 5, 7))
    res, want = collect_xs(run_striped, cfg)
    # 38 quadruplets, 4 of them (x = 5, 11, 101, 191) with a value <= B = 316
    assert (res.count, res.boundary_count) == (38, 4)
    count, _, xs = run_range(make_context(cfg), 0, 3)
    assert count == 34 and sorted(xs) == want[4:]


def test_stripe_each_gets_one():
    # QUAD at 210 has three residues, and the range of one position idx
    # counts exactly the tuples of residue(idx)
    w = build_wheel(QUAD, (2, 3, 5, 7))
    cfg = SearchConfig(pattern=QUAD, n=10**5, wheel=(2, 3, 5, 7), nu=3)
    res, xs = collect_xs(run_striped, cfg)
    sieve_xs = xs[res.boundary_count:]
    want = [sum(x % 210 == w.residue(idx) for x in sieve_xs) for idx in range(3)]
    ctx = make_context(cfg)
    assert [run_range(ctx, idx, idx + 1)[0] for idx in range(3)] == want
    assert all(want)


def test_stripe_twin_w30():
    # twin residues mod 30 walk as 11, 17, 29 (only 5 has two choices);
    # two stripes take positions 0, 2 and position 1
    w = build_wheel(TWIN, (2, 3, 5))
    assert w.W == 30
    assert list(w) == [11, 17, 29]
    assert [[w.residue(pos) for pos in range(idx, 3, 2)] for idx in range(2)] == [[11, 29], [17]]


@pytest.mark.parametrize("nu", [1, 2, 3, 5, 8])
def test_stripe_partition(nu):
    # stripe idx holds the positions idx mod nu, read without walking the rest
    w = build_wheel(QUAD, (2, 3, 5, 7, 11, 13))
    full = list(w)
    merged = []
    for idx in range(nu):
        part = [w.residue(pos) for pos in range(idx, w.residue_count(), nu)]
        assert part == full[idx::nu]
        merged.extend(part)
    assert sorted(merged) == sorted(full)


def test_cursor_roundtrip():
    w = build_wheel(QUAD, (2, 3, 5, 7, 11, 13))
    for _ in range(7):
        w.next_residue()
    assert w.position == 7
    rest_a = list(w)
    assert w.next_residue() is None
    w2 = build_wheel(QUAD, (2, 3, 5, 7, 11, 13))
    w2.seek(7)
    assert list(w2) == rest_a


def test_cursor_validation():
    w = build_wheel(QUAD, (2, 3, 5, 7))
    for bad in (-1, w.residue_count() + 1):
        with pytest.raises(WheelError):
            w.seek(bad)
    # the end of the walk is a valid cursor, with nothing left
    w.seek(w.residue_count())
    assert w.next_residue() is None
    w.seek(0)
    assert len(list(w)) == 3


def test_empty_mask_rejected():
    with pytest.raises(WheelError):
        Wheel([(3, [])])
