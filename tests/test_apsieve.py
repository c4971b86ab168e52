import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tuplesieve.apsieve import (
    iter_primes,
    live_fractions,
    make_plan,
    primes_upto,
    sieve_segment,
    start_table,
    survivors,
)
from tuplesieve.arith import NotInvertibleError, modinv
from tuplesieve.pattern import admissible, chain_pattern, make_pattern

from conftest import CORPUS, naive_pattern_xs

QUAD = make_pattern(CORPUS["quad"])


def test_iter_primes_agrees_with_primes_upto():
    # limits on both sides of the first block boundaries (1024, 4096)
    for limit in (0, 1, 2, 3, 1023, 1024, 1025, 4096, 4097, 20011):
        assert list(iter_primes(limit)) == primes_upto(limit)


def test_plan_explicit_bound():
    plan = make_plan(20, 210)
    assert (plan.B, plan.wheel_limit) == (20, 210)
    assert plan.primes == (2, 3, 5, 7, 11, 13, 17, 19)
    assert plan.sieve_primes([2, 3, 5, 7]) == [11, 13, 17, 19]


@pytest.mark.parametrize("pattern,primes", [
    (QUAD, (7, 11, 13)),
    # 2 divides every multiplier but the first, and 3 sees two roots
    (chain_pattern("first", 4), (2, 3, 5, 7)),
    (make_pattern(CORPUS["chernick"]), (5, 7, 11)),
])
def test_live_fraction_counts_surviving_residues(pattern, primes):
    for k in range(1, len(primes) + 1):
        m = math.prod(primes[:k])
        live = sum(
            all((a * x + b) % p for p in primes[:k] for a, b in pattern.forms)
            for x in range(m)
        )
        p, frac = list(live_fractions(pattern, primes))[k - 1]
        assert p == primes[k - 1]
        assert frac == pytest.approx(live / m, rel=1e-12)


def test_live_fraction_stops_at_floor():
    primes = iter([7, 11, 13])
    assert next(p for p, frac in live_fractions(QUAD, primes) if frac <= 0.5) == 7
    assert next(primes) == 11  # nothing past the prime that reached the floor was read


def test_sieve_primes_keeps_excluded_wheel_prime():
    # a prime dropped from the wheel still gets sieved
    plan = make_plan(64, 10**6 // 64)
    s = plan.sieve_primes([2, 3, 5, 7, 13])  # 11 skipped by the wheel
    assert 11 in s
    assert s == sorted(set(plan.primes) - {2, 3, 5, 7, 13})


def test_worked_example_segment():
    seg = sieve_segment(QUAD, 11, 210, 5050, start_table(QUAD, 210, [11, 13, 17, 19]))
    assert len(seg.bits) == 24
    assert survivors(seg) == [851, 1481, 3161]
    assert seg.applied == 4
    assert not seg.aborted


@settings(max_examples=100, deadline=None)
@given(r=st.sampled_from([11, 101, 191]), n=st.integers(0, 10**5), step=st.integers(1, 700))
def test_survivors_by_chunks_concatenate(r, n, step):
    # 11, 101 and 191 are QUAD's residues mod 210
    seg = sieve_segment(QUAD, r, 210, n, start_table(QUAD, 210, primes_upto(100)[4:]))
    whole = survivors(seg)
    assert whole == [r + 210 * j for j, live in enumerate(seg.bits) if live]
    parts = [survivors(seg, lo, lo + step) for lo in range(0, len(seg.bits), step)]
    assert [x for part in parts for x in part] == whole


def test_worked_example_first_prime_only():
    seg = sieve_segment(QUAD, 11, 210, 5050, start_table(QUAD, 210, [11]))
    cleared = sorted(set(11 + 210 * j for j in range(24)) - set(survivors(seg)))
    assert cleared == [11, 641, 1061, 1901, 2321, 2951, 3371, 4211, 4631]


def test_empty_sieve_set_keeps_all():
    seg = sieve_segment(QUAD, 11, 210, 5050, start_table(QUAD, 210, []))
    assert survivors(seg) == [11 + 210 * j for j in range(24)]


def test_unsieved_short_segment():
    seg = sieve_segment(QUAD, 11, 210, 11 + 2 * 210 + 8, start_table(QUAD, 210, []))
    assert survivors(seg) == [11, 221, 431]


def test_out_of_range_residue_is_empty():
    seg = sieve_segment(QUAD, 191, 210, 150, start_table(QUAD, 210, [11]))
    assert survivors(seg) == []


def test_segment_length_binds_on_steepest_form():
    chern = make_pattern(CORPUS["chernick"])
    n = 10**4
    r, W = 11, 210
    length = len(sieve_segment(chern, r, W, n, start_table(chern, W, [])).bits)
    # every surviving candidate obeys max f <= n, one more would not
    assert chern.max_value(r + (length - 1) * W) <= n
    assert chern.max_value(r + length * W) > n
    # the first form alone would allow a longer segment
    assert (n - r) // W >= length


def test_soundness_no_survivor_divisible(table_1e5):
    primes = [p for p in primes_upto(100) if p > 7]
    for name, forms in CORPUS.items():
        pattern = make_pattern(forms)
        seg = sieve_segment(pattern, 11, 210, 50_000, start_table(pattern, 210, primes))
        for x in survivors(seg):
            for p in primes:
                for a, b in pattern.forms:
                    if a % p:
                        assert (a * x + b) % p != 0


def test_completeness_no_tuple_cleared(table_1e6):
    n = 10**5
    primes = [p for p in primes_upto(300) if p > 7]
    table = start_table(QUAD, 210, primes)
    expected = set(naive_pattern_xs(QUAD.forms, n, table_1e6))
    seg_xs = set()
    for r in (11, 101, 191):
        seg_xs.update(survivors(sieve_segment(QUAD, r, 210, n, table)))
    # every true tuple away from the small primes survives
    for x in expected:
        if x % 210 in (11, 101, 191) and QUAD.min_value(x) > 300:
            assert x in seg_xs


def test_sqrt_sieve_leaves_exactly_primes(table_1e6):
    # sieving to sqrt(n) leaves exactly the true tuples: any member at or
    # below B is itself a wheel or sieve prime, so its x never survives
    n = 40_000
    B = math.isqrt(n)
    table = start_table(QUAD, 210, [p for p in primes_upto(B) if p > 7])
    got = set()
    for r in (11, 101, 191):
        got.update(survivors(sieve_segment(QUAD, r, 210, n, table)))
    expect = {
        x
        for x in naive_pattern_xs(QUAD.forms, n, table_1e6)
        if QUAD.min_value(x) > B and x % 210 in (11, 101, 191)
    }
    assert got == expect


def _struck_by(pattern, r, W, length, primes):
    """Brute force: the j < length where some p in primes with p not
    dividing a divides a*(r + j*W) + b."""
    return {
        j
        for j in range(length)
        for p in primes
        for a, b in pattern.forms
        if a % p and (a * (r + j * W) + b) % p == 0
    }


CHERNICK = make_pattern(CORPUS["chernick"])
SECOND_5 = chain_pattern("second", 5)


@pytest.mark.parametrize("pattern, r, W, n, primes, floor", [
    # 2 and 3 divide every multiplier: their rows strike nothing
    (CHERNICK, 4, 5 * 7 * 11, 10**5, [2, 3, 13, 17, 19, 23, 29], None),
    (CHERNICK, 0, 5 * 7 * 11, 10**5, [3, 13, 17, 19], None),
    (SECOND_5, 7, 30, 10**5, [7, 11, 13, 17, 19, 23, 29, 31], None),
    (SECOND_5, 0, 30, 10**5, [7, 11, 13, 17], None),
    (QUAD, 0, 210, 10**5, [11, 13, 17, 19, 23], None),
    # 24 candidates: every prime from 29 on is longer than the segment
    (QUAD, 11, 210, 5050, primes_upto(100)[4:], None),
    # a table cut, as the planner cuts it, where the prediction reaches floor
    (QUAD, 11, 210, 10**6, primes_upto(400)[4:], 1 / 8),
    (SECOND_5, 1, 30, 10**6, primes_upto(400)[3:], 1 / 8),
])
def test_strike_set_matches_brute_force(pattern, r, W, n, primes, floor):
    if floor is not None:
        depth = next(p for p, frac in live_fractions(pattern, primes) if frac <= floor)
        assert depth < primes[-1]
        primes = primes[: primes.index(depth) + 1]
    seg = sieve_segment(pattern, r, W, n, start_table(pattern, W, primes))
    length = len(seg.bits)
    # the segment ends at the last candidate with every value <= n
    assert pattern.max_value(r + length * W) > n >= pattern.max_value(r + (length - 1) * W)
    struck = _struck_by(pattern, r, W, length, primes)
    assert [j for j in range(length) if not seg.bits[j]] == sorted(struck)
    assert seg.applied == len(primes) and not seg.aborted


def test_start_table_rows():
    # 2 and 3 divide every multiplier, so their rows carry no starts
    rows = start_table(CHERNICK, 385, [2, 3, 13])
    assert rows[0] == (2, 1) and rows[1] == (3, 1)
    p, winv, *starts = rows[2]
    assert (p, winv * 385 % p) == (13, 1)
    for s, (a, b) in zip(starts, CHERNICK.forms):
        assert (a * (s * 385) + b) % p == 0
    with pytest.raises(NotInvertibleError):
        start_table(QUAD, 210, [11, 7])  # 7 divides W


def _start_table_two_inverses(pattern, W, primes):
    """The start table as first written: an inverse of W and one of
    every form's multiplier per prime."""
    table = []
    for p in primes:
        winv = modinv(W % p, p)
        table.append((p, winv, *(winv * (-b * modinv(a % p, p)) % p
                                  for a, b in pattern.forms if a % p)))
    return tuple(table)


@settings(max_examples=300, deadline=None)
@given(
    forms=st.lists(st.tuples(st.integers(1, 300), st.integers(-10**4, 10**4)),
                   min_size=1, max_size=6, unique=True),
    W=st.integers(1, 10**9),
    primes=st.lists(st.sampled_from(primes_upto(2000)), max_size=40, unique=True),
)
def test_start_table_matches_two_inverse_table(forms, W, primes):
    forms = [(a, b) for a, b in forms if math.gcd(a, b) == 1]
    assume(forms)
    pattern = make_pattern(forms)
    assume(admissible(pattern))
    coprime = [p for p in primes if W % p]
    assert start_table(pattern, W, coprime) == _start_table_two_inverses(pattern, W, coprime)
    if len(coprime) < len(primes):
        with pytest.raises(NotInvertibleError):
            start_table(pattern, W, primes)
