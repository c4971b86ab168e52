import pytest

from tuplesieve.pattern import ResidueMask, chain_pattern, make_pattern
from tuplesieve.wheel import Wheel, WheelError, build_wheel, wheel_primes

from conftest import CORPUS

QUAD = make_pattern(CORPUS["quad"])
TWIN = make_pattern(CORPUS["twin"])


def test_quadruplet_wheel_210():
    w = build_wheel(QUAD, 210)
    assert w.W == 210
    assert w.moduli == [2, 3, 5, 7]
    assert w.residue_count() == 3
    assert set(w) == {11, 101, 191}


def test_wheel_primes_are_the_built_moduli():
    assert wheel_primes(209) == [2, 3, 5]
    assert wheel_primes(210) == [2, 3, 5, 7]
    assert wheel_primes(1) == []
    # an excluded prime is skipped and the greedy walk goes on past it
    assert wheel_primes(2 * 3 * 7 * 11, excluded={5}) == [2, 3, 7, 11]
    for limit, excluded in ((30, set()), (10**6, {3}), (2 * 10**16, {31})):
        assert wheel_primes(limit, excluded) == build_wheel(QUAD, limit, excluded).moduli


def test_crt_combines_2_and_3():
    # 1 mod 2 with 2 mod 3 is 5 mod 6
    w = Wheel([(2, ResidueMask(2, 0b10)), (3, ResidueMask(3, 0b100))])
    assert list(w) == [5]


def test_single_modulus_wheel():
    w = Wheel([(3, ResidueMask(3, 0b100))])
    assert list(w) == [2]


def test_build_wheel_twin_1e10():
    w = build_wheel(TWIN, 10**10)
    assert w.W == 6469693230
    assert w.moduli[-1] == 29


def test_build_wheel_exclusion():
    w = build_wheel(chain_pattern("first", 15), 2 * 10**16, excluded={31})
    assert w.W == 19835154277048110
    assert 31 not in w.moduli
    assert w.moduli[-1] == 47


def test_build_wheel_limit_too_small():
    with pytest.raises(WheelError):
        build_wheel(TWIN, 1)


def test_residue_counts_match_popcount_product():
    w = build_wheel(TWIN, 10**10)
    assert w.residue_count() == 214708725
    w = build_wheel(QUAD, 200560490130)
    assert w.residue_count() == 472665375
    w = build_wheel(chain_pattern("first", 15), 2 * 10**16, excluded={31})
    assert w.residue_count() == 12841500672


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_enumeration_matches_brute_force(name):
    pattern = make_pattern(CORPUS[name])
    w = build_wheel(pattern, 300)
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
    w = build_wheel(QUAD, 210)
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


def test_amortized_step_cost():
    w = build_wheel(chain_pattern("first", 3), 9699690)
    count = w.residue_count()
    while w.next_residue() is not None:
        pass
    # odometer work is linear in the number of yields
    assert w.ops <= 3 * count + len(w.moduli)


def test_medium_wheel_yields_distinct():
    w = build_wheel(TWIN, 10**7)
    assert w.W == 9699690
    seen = set(w)
    assert len(seen) == w.residue_count() == 378675
    assert all(0 <= r < w.W for r in seen)


def test_stripe_identity():
    w1 = build_wheel(QUAD, 210)
    w2 = build_wheel(QUAD, 210)
    assert list(w1.stripe(1, 0)) == list(w2)


def test_stripe_each_gets_one():
    for idx in range(3):
        w = build_wheel(QUAD, 210)
        assert len(list(w.stripe(3, idx))) == 1


def test_stripe_twin_w30():
    # twin residues mod 30 are 11, 17, 29; two stripes split 2/1
    w = build_wheel(TWIN, 30)
    assert w.W == 30
    sizes = []
    for idx in range(2):
        ww = build_wheel(TWIN, 30)
        sizes.append(len(list(ww.stripe(2, idx))))
    assert sorted(sizes) == [1, 2]
    assert set(build_wheel(TWIN, 30)) == {11, 17, 29}


@pytest.mark.parametrize("nu", [1, 2, 3, 5, 8])
def test_stripe_partition(nu):
    full = list(build_wheel(QUAD, 30030))
    parts = []
    for idx in range(nu):
        w = build_wheel(QUAD, 30030)
        parts.append(list(w.stripe(nu, idx)))
    merged = []
    for i, part in enumerate(parts):
        assert part == full[i::nu]
        merged.extend(part)
    assert sorted(merged) == sorted(full)


def test_cursor_roundtrip():
    w = build_wheel(QUAD, 30030)
    for _ in range(7):
        w.next_residue()
    cur = w.cursor()
    rest_a = list(w)
    w2 = build_wheel(QUAD, 30030)
    w2.seek(cur)
    assert w2.position == 7
    assert list(w2) == rest_a


def test_cursor_validation():
    w = build_wheel(QUAD, 210)
    with pytest.raises(WheelError):
        w.seek([0, 0, 0])  # wrong digit count
    with pytest.raises(WheelError):
        w.seek([0, 0, 0, 99])


def test_copy_independent():
    w = build_wheel(QUAD, 210)
    w.next_residue()
    c = w.copy()
    assert list(c) == list(w)


def test_empty_mask_rejected():
    with pytest.raises(WheelError):
        Wheel([(3, ResidueMask(3, 0))])


def test_stripe_index_validation():
    w = build_wheel(QUAD, 210)
    with pytest.raises(ValueError):
        next(w.stripe(3, 3))
    with pytest.raises(ValueError):
        next(w.stripe(2, -1))
