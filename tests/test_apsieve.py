import math
import random
from itertools import islice

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from tuplesieve.apsieve import (
    SieveSegment,
    iter_primes,
    live_fractions,
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
from tuplesieve.arith import NotInvertibleError, modinv
from tuplesieve.pattern import admissible, chain_pattern, make_pattern
from tuplesieve.plan import make_plan

from conftest import CORPUS, naive_pattern_xs

QUAD = make_pattern(CORPUS["quad"])


def test_iter_primes_agrees_with_primes_upto():
    # limits on both sides of the first block boundaries (1024, 4096)
    for limit in (0, 1, 2, 3, 1023, 1024, 1025, 4096, 4097, 20011):
        assert list(iter_primes(limit)) == primes_upto(limit)


def test_iter_primes_sieves_the_first_block_once(monkeypatch):
    import tuplesieve.apsieve as apsieve

    first = list(iter_primes(5000))
    asked = []
    sieve = apsieve._sieve_block
    monkeypatch.setattr(apsieve, "_sieve_block",
                        lambda lo, hi, ds: asked.append((lo, hi, list(ds))) or sieve(lo, hi, ds))
    # a second call lists the same primes, and sieves only the blocks past 1024,
    # each by the primes up to the square root of its end
    assert list(iter_primes(5000)) == first
    assert list(iter_primes(1000)) == primes_upto(1000)
    assert asked == [(1025, 4096, primes_upto(64)), (4097, 5000, primes_upto(70))]
    assert first == _naive_primes(5000)


def _naive_primes(n):
    """The primes up to n by trial division."""
    return [m for m in range(2, n + 1) if all(m % d for d in range(2, math.isqrt(m) + 1))]


@settings(max_examples=40, deadline=None)
@given(limit=st.one_of(
    st.integers(-3, 70000),
    # both sides of the block edges
    st.sampled_from([1024, 4096, 16384, 65536]).flatmap(lambda e: st.integers(e - 2, e + 2)),
))
@example(limit=65536)
def test_prime_sieve_matches_trial_division(limit):
    want = _naive_primes(limit)
    assert primes_upto(limit) == list(iter_primes(limit)) == want


def test_iter_primes_reads_lazily_past_the_sieved_blocks():
    # past 2^20 the blocks' own sieving primes come from a second, lazy listing
    ps = list(iter_primes(2**22 + 5))
    assert ps[-1] == 4194301 and len(ps) == 295947  # pi(2^22 + 5), as sympy counts it
    # a limit near 2^127 sieves nothing past the block a consumer stops in
    assert list(islice(iter_primes(2**127 - 1), 200))[-1] == 1223


def test_plan_explicit_bound():
    plan = make_plan(20, [2, 3, 5, 7])
    assert (plan.B, plan.moduli) == (20, (2, 3, 5, 7))
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
    # a prime left out of the wheel still gets sieved
    plan = make_plan(64, (2, 3, 5, 7, 13))
    s = plan.sieve_primes(plan.moduli)  # 11 skipped by the wheel
    assert 11 in s
    assert s == sorted(set(plan.primes) - {2, 3, 5, 7, 13})


def test_worked_example_segment():
    seg = sieve_segment(QUAD, 11, 210, 5050, start_table(QUAD, 210, [11, 13, 17, 19]))
    assert len(seg.bits) == 24
    assert survivors(seg) == [851, 1481, 3161]
    assert seg.applied == 4
    assert not seg.aborted


@st.composite
def raw_segments(draw):
    """A segment of 0 and 1 bytes at a drawn live share from none to
    all, its first and last bytes drawn apart, at any r and W."""
    share = draw(st.integers(0, 256))
    bits = bytearray(b < share for b in draw(st.binary(max_size=600)))
    if bits:
        bits[0], bits[-1] = draw(st.booleans()), draw(st.booleans())
    return SieveSegment(draw(st.integers(0, 10**9)), draw(st.integers(1, 10**9)), bits, 0)


@settings(max_examples=100, deadline=None)
@given(r=st.sampled_from([11, 101, 191]), n=st.integers(0, 10**5), step=st.integers(1, 700),
       raw=raw_segments(), data=st.data())
def test_survivors_by_chunks_concatenate(r, n, step, raw, data):
    # 11, 101 and 191 are QUAD's residues mod 210
    seg = sieve_segment(QUAD, r, 210, n, start_table(QUAD, 210, primes_upto(100)[4:]))
    for seg in (seg, raw):
        want = [seg.r + seg.W * j for j, live in enumerate(seg.bits) if live]
        assert survivors(seg) == want
        # the last chunk's end may pass the segment's
        parts = [survivors(seg, lo, lo + step) for lo in range(0, len(seg.bits), step)]
        assert [x for part in parts for x in part] == want
    # one slice, empty or reaching past the end
    lo = data.draw(st.integers(0, len(raw.bits) + 2))
    hi = data.draw(st.integers(lo, len(raw.bits) + 2))
    assert survivors(raw, lo, hi) == [raw.r + raw.W * j for j in range(lo, hi)
                                      if j < len(raw.bits) and raw.bits[j]]
    assert survivors(raw, lo, lo) == []


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


def _exact_n(pattern, r, W, length):
    """A bound n whose segment at residue r holds exactly `length` bytes:
    the largest value at the last candidate, or one below the first's.
    Every multiplier is >= 1, so the largest value grows with x."""
    return pattern.max_value(r + (length - 1) * W) if length else pattern.max_value(r) - 1


@settings(max_examples=300, deadline=None)
@given(
    # multipliers up to 64 take in multiples of the sieve primes, whose rows drop forms
    forms=st.lists(st.tuples(st.integers(1, 64), st.integers(-64, 64)),
                   min_size=1, max_size=4, unique=True),
    W=st.integers(1, 210),
    data=st.data(),
)
def test_sieve_segment_matches_brute_force(forms, W, data):
    forms = [(a, b) for a, b in forms if math.gcd(a, b) == 1]
    assume(forms)
    pattern = make_pattern(forms)
    r = data.draw(st.integers(0, W - 1), label="r")
    primes = sorted(data.draw(st.lists(st.sampled_from([p for p in primes_upto(100) if W % p]),
                                       max_size=8, unique=True), label="primes"))
    first = primes[0] if primes else 2
    # empty, one byte, shorter than the first prime, three of a prime's
    # strides, or anywhere up to past the largest prime
    length = data.draw(st.one_of(
        st.sampled_from([0, 1, *(3 * p for p in primes)]),
        st.integers(0, first - 1),
        st.integers(0, 320),
    ), label="length")
    table = start_table(pattern, W, primes)
    seg = sieve_segment(pattern, r, W, _exact_n(pattern, r, W, length), table)
    struck = _struck_by(pattern, r, W, length, primes)
    assert seg.bits == bytes(j not in struck for j in range(length))
    assert seg.applied == len(primes)
    # the kernel's buffers follow the rows, in whatever order they come
    assert sieve_segment(pattern, r, W, _exact_n(pattern, r, W, length), table[::-1]).bits == seg.bits


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    # multipliers up to 64 take in multiples of the sieve primes, whose rows
    # drop forms; close offsets give rows with repeated roots
    forms=st.lists(st.tuples(st.integers(1, 64), st.integers(-12, 12)),
                   min_size=1, max_size=5, unique=True),
    W=st.sampled_from([1, 2, 6, 30, 210, 11, 77]),
    data=st.data(),
)
def test_mask_rows_match_stride_rows(forms, W, data):
    pattern = make_pattern([(a, b) for a, b in forms if math.gcd(a, b) == 1] or [(1, 0)])
    assume(admissible(pattern))
    primes = sorted(data.draw(st.lists(st.sampled_from([p for p in primes_upto(60) if W % p]),
                                       min_size=1, max_size=8, unique=True), label="primes"))
    table = start_table(pattern, W, primes)
    # each row to a mask or to strides, the strides kept in table order
    pick = data.draw(st.lists(st.booleans(), min_size=len(table), max_size=len(table)), label="masks")
    r = data.draw(st.integers(0, 3 * W), label="r")
    # empty, one byte, shorter than a prime, or longer than every period
    length = data.draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, primes[-1] - 1),
                                 st.integers(0, 400)), label="length")
    # masks built for this segment or for a longer one, as a run's shortest residue sees them
    span = length + data.draw(st.sampled_from([0, 0, 1, 2, 59, 200]), label="span")
    masks = mask_rows([row for row, m in zip(table, pick) if m], span)
    strides = tuple(row for row, m in zip(table, pick) if not m)
    n = _exact_n(pattern, r, W, length)
    want = sieve_segment(pattern, r, W, n, table)
    got = sieve_segment(pattern, r, W, n, strides, masks)
    assert type(got.bits) is bytearray and len(got.bits) == length
    assert got.bits == want.bits
    assert got.bits == bytes(j not in _struck_by(pattern, r, W, length, primes) for j in range(length))
    assert got.applied == want.applied == len(table)


def test_mask_rows_periods():
    # x, x+2, x+6, x+8 mod 7 at W = 1: roots 0, 5, 1, 6, so bits 0, 2, 6 and 1
    # of each period are clear; ceil(20/7) + 2 = 5 periods, written high bit first
    (p, winv, M), = mask_rows(start_table(QUAD, 1, [7]), 20)
    assert (p, winv) == (7, 1)
    assert M == int("0111000" * 5, 2) and mask_bytes(7, 20) == 5 == (M.bit_length() + 7) // 8
    # a row that drops every form clears nothing: four periods of 2 bits
    assert mask_rows(start_table(CHERNICK, 1, [2]), 3) == ((2, 1, 0xFF),)


@pytest.mark.parametrize("pattern, W, primes", [
    # x, x+6 share their root mod 2 and mod 3
    (make_pattern([(1, 0), (1, 6)]), 1, [2, 3, 5, 7]),
    (make_pattern([(1, 0), (1, 6)]), 7, [2, 3, 5]),
    # 2 and 3 divide every multiplier, so their rows have no entries
    (CHERNICK, 1, [2, 3, 5, 7, 11]),
    (CHERNICK, 385, [2, 3, 13, 17]),
    # the chain's multipliers 1, 2, 4, ... drop forms from 2's row only
    (SECOND_5, 1, [2, 3, 5, 7]),
])
def test_mask_rows_repeated_and_dropped_entries(pattern, W, primes):
    table = start_table(pattern, W, primes)
    for r in range(2 * W):
        for length in (0, 1, 5, 97):
            n = _exact_n(pattern, r, W, length)
            want = sieve_segment(pattern, r, W, n, table).bits
            for split in range(len(table) + 1):
                got = sieve_segment(pattern, r, W, n, table[split:], mask_rows(table[:split], length + 3))
                assert got.bits == want and got.applied == len(table)


def test_sieve_segment_rows_out_of_order():
    # 11 after 101 needs longer buffers than the first row's; 53 after 13 shorter ones
    primes = [11, 13, 17, 19, 23, 53, 101]
    shuffled = [101, 11, 53, 13, 23, 17, 19]
    n = _exact_n(QUAD, 11, 210, 500)
    want = sieve_segment(QUAD, 11, 210, n, start_table(QUAD, 210, primes))
    got = sieve_segment(QUAD, 11, 210, n, start_table(QUAD, 210, shuffled))
    assert len(got.bits) == 500 and got.bits == want.bits
    assert {j for j in range(500) if not got.bits[j]} == _struck_by(QUAD, 11, 210, 500, primes)


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


def _primes_forever():
    """Every prime, ascending, by trial division: a stream with no end."""
    p = 1
    while True:
        p += 1
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            yield p


@settings(max_examples=300, deadline=None)
@given(
    # multipliers up to 60 take in multiples of 2, 3 and 5, whose rows drop forms
    forms=st.lists(st.tuples(st.integers(1, 60), st.integers(-100, 100)),
                   min_size=1, max_size=6, unique=True),
    wheel=st.lists(st.sampled_from(primes_upto(50)), max_size=4, unique=True),
    primes=st.lists(st.sampled_from(primes_upto(200)), max_size=30, unique=True),
)
def test_root_rows_match_brute_force(forms, wheel, primes):
    forms = [(a, b) for a, b in forms if math.gcd(a, b) == 1]
    assume(forms)
    pattern = make_pattern(forms)
    W = math.prod(wheel)  # 1 for an empty wheel
    primes = [p for p in primes if p not in wheel]
    rows = list(root_rows(pattern, primes, W))
    assert [row[0] for row in rows] == primes
    for p, winv, *starts in rows:
        assert winv * W % p == 1 % p and 0 <= winv < p
        kept = [(a, b) for a, b in forms if a % p]  # in form order
        assert len(starts) == len(kept)
        for s, (a, b) in zip(starts, kept):
            assert 0 <= s < p and (a * (s * W % p) + b) % p == 0
    assert start_table(pattern, W, primes) == tuple(rows)


@settings(max_examples=150, deadline=None)
@given(
    forms=st.lists(st.tuples(st.integers(1, 60), st.integers(-100, 100)),
                   min_size=1, max_size=6, unique=True),
    primes=st.lists(st.sampled_from(primes_upto(200)), max_size=30, unique=True),
)
# past |a*d - b*c| (2 for twins, 8 for quadruplets) no two roots can coincide
@example(forms=[(1, 0), (1, 2)], primes=[2, 3, 5, 7])
@example(forms=[(1, 0), (1, 2), (1, 6), (1, 8)], primes=[2, 3, 5, 7, 11])
def test_strikes_match_brute_force(forms, primes):
    forms = [(a, b) for a, b in forms if math.gcd(a, b) == 1]
    assume(forms)
    want = [(p, sum(any((a * x + b) % p == 0 for a, b in forms) for x in range(p)),
             sum(a % p != 0 for a, _ in forms)) for p in primes]
    assert list(strikes(make_pattern(forms), primes)) == want


def test_first_row_and_strike_read_one_prime():
    # the planner stops reading where its cost walk stops: nothing is listed ahead
    stream = _primes_forever()
    assert next(root_rows(QUAD, stream)) == (2, 1, 0, 0, 0, 0)
    assert next(strikes(QUAD, stream)) == (3, 2, 4)
    assert next(root_rows(QUAD, stream, 12)) == (5, 3, 0, 4, 2, 1)  # 12 * 3 = 1 mod 5
    assert next(stream) == 7


def _strikes_brute_force(pattern, primes):
    return [(p, sum(any((a * x + b) % p == 0 for a, b in pattern.forms) for x in range(p)),
             sum(a % p != 0 for a, _ in pattern.forms)) for p in primes]


@pytest.mark.parametrize("pattern,bound,largest", [
    # multipliers up to 256, offsets past 2^33, |a*d - b*c| = 2^j - 2^i up to 255
    (chain_pattern("first", 9).shifted(2**25), 256, 256),
    (make_pattern([(11, -14)]), 11, 11),
    (make_pattern(CORPUS["twin"]), 2, 1),
    (make_pattern(CORPUS["chernick"]), 18, 18),
])
def test_strikes_and_table_straddle_root_bound(pattern, bound, largest):
    assert root_bound(pattern) == bound
    assert max(a for a, _ in pattern.forms) == largest
    primes = primes_upto(4 * bound + 40)
    shuffled = primes[:]
    random.Random(bound).shuffle(shuffled)
    # largest first, so the first blocks lie past every multiplier, then mixed
    for order in (primes, shuffled, primes[::-1]):
        assert list(strikes(pattern, order)) == _strikes_brute_force(pattern, order)
        for W in (1, 30, 30030):
            coprime = [p for p in order if W % p]
            want = _start_table_two_inverses(pattern, W, coprime)
            assert start_table(pattern, W, coprime) == want
            assert tuple(root_rows(pattern, iter(coprime), W)) == want
    # on both sides of the bound, a prime is read only when its count is asked for
    stream = _primes_forever()
    counted = strikes(pattern, stream)
    assert [next(counted) for _ in range(3)] == _strikes_brute_force(pattern, [2, 3, 5])
    assert next(stream) == 7


def test_start_table_columns_raise_not_invertible():
    # every prime exceeds the multipliers, so 13, which divides W, is in a column block
    with pytest.raises(NotInvertibleError):
        start_table(QUAD, 30030, [17, 19, 13, 23])
    with pytest.raises(NotInvertibleError):
        start_table(make_pattern([(11, -14)]), 30030, [101, 13])
    with pytest.raises(NotInvertibleError):
        next(root_rows(QUAD, [7], 210))


def test_root_rows_read_a_stream_one_prime_per_row():
    stream = _primes_forever()
    rows = root_rows(QUAD, stream)
    assert [next(rows)[0] for _ in range(5)] == [2, 3, 5, 7, 11]
    assert next(stream) == 13


def test_start_table_blocks_past_row_block():
    # 1223 rows past the multipliers: two column blocks, equal to the table
    # built with an inverse per form, and 13 | W raises from the second block
    primes = primes_upto(10**4)[6:]
    assert start_table(QUAD, 30030, primes) == _start_table_two_inverses(QUAD, 30030, primes)
    with pytest.raises(NotInvertibleError):
        start_table(QUAD, 30030, primes + [13])
