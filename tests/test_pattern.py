import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuplesieve.pattern import (
    PatternError,
    acceptable_residues,
    admissible,
    chain_pattern,
    format_pattern,
    make_pattern,
    parse_pattern,
)

from conftest import CORPUS


def test_make_twin():
    p = make_pattern([(1, 0), (1, 2)])
    assert p.k == 2
    assert p.evaluate(5) == (5, 7)


def test_evaluate_leaves_no_tuples_alive():
    p = chain_pattern("first", 9)
    # hold every free 9-tuple, so a tuple left behind by a call must be
    # a new allocation whatever ran before
    held = [tuple([i] * 9) for i in range(2100)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for x in range(2000):
            p.evaluate(x)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del held
    assert grown < 16 * 1024


def test_make_chernick():
    p = make_pattern([(6, 1), (12, 1), (18, 1)])
    assert p.evaluate(1) == (7, 13, 19)


def test_fixed_divisor_rejected():
    with pytest.raises(PatternError) as e:
        make_pattern([(2, 4)])
    assert e.value.index == 0


def test_duplicate_rejected():
    with pytest.raises(PatternError) as e:
        make_pattern([(1, 0), (1, 2), (1, 2)])
    assert e.value.index == 2


def test_bad_multiplier_rejected():
    with pytest.raises(PatternError):
        make_pattern([(0, 1)])
    with pytest.raises(PatternError):
        make_pattern([])


def test_parse_basic():
    assert parse_pattern("x,x+2,x+6,x+8").forms == ((1, 0), (1, 2), (1, 6), (1, 8))
    assert parse_pattern("6x+1,12x+1,18x+1").forms == ((6, 1), (12, 1), (18, 1))
    assert parse_pattern("6*x+1, 12*x+1 ,18x+1").forms == ((6, 1), (12, 1), (18, 1))
    assert parse_pattern("x,2x-1,4x-3").forms == ((1, 0), (2, -1), (4, -3))


@pytest.mark.parametrize("bad", ["", "y+1", "x^2", "x+", "2+x", "x,,x+2"])
def test_parse_rejects(bad):
    with pytest.raises(PatternError):
        parse_pattern(bad)


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.integers(1, 50), st.integers(-60, 60)),
        min_size=1,
        max_size=6,
        unique=True,
    )
)
def test_format_parse_roundtrip(forms):
    from math import gcd

    forms = [(a, b) for a, b in forms if gcd(a, b) == 1]
    if not forms:
        return
    p = make_pattern(forms)
    assert parse_pattern(format_pattern(p)).forms == p.forms


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.sampled_from(sorted(CORPUS)).map(CORPUS.get),
        # forms with offsets down to -1000, some of them below zero at x = 0
        st.lists(st.tuples(st.integers(1, 60), st.integers(-1000, 100)),
                 min_size=1, max_size=5, unique=True),
    ),
    st.integers(0, 10**6),
)
def test_x_max_is_largest_x_in_range(forms, n):
    from math import gcd

    forms = [(a, b) for a, b in forms if gcd(a, b) == 1]
    if not forms:
        return
    p = make_pattern(forms)
    x = p.x_max(n)
    # every multiplier is >= 1, so max_value grows strictly with x
    assert p.max_value(x) <= n < p.max_value(x + 1)


def test_mask_cunningham_first_mod3():
    # any first-kind chain of length >= 2 leaves only residue 2 mod 3
    for length in (2, 3, 5, 15):
        mask = acceptable_residues(chain_pattern("first", length), 3)
        assert mask.acceptable() == [2]


def test_mask_cunningham_first_mod7():
    mask = acceptable_residues(chain_pattern("first", 3), 7)
    assert mask.acceptable() == [2, 4, 5, 6]
    # longer chains wrap around the multiplicative order of 2 mod 7
    assert acceptable_residues(chain_pattern("first", 15), 7).acceptable() == [2, 4, 5, 6]


def test_mask_quadruplet():
    quad = make_pattern(CORPUS["quad"])
    assert acceptable_residues(quad, 7).acceptable() == [2, 3, 4]
    assert acceptable_residues(quad, 5).acceptable() == [1]
    assert acceptable_residues(quad, 2).acceptable() == [1]


def test_mask_skips_forms_with_divisible_multiplier():
    chern = make_pattern(CORPUS["chernick"])
    # 2 and 3 divide every multiplier: nothing is excluded
    assert acceptable_residues(chern, 2).popcount == 2
    assert acceptable_residues(chern, 3).popcount == 3
    assert acceptable_residues(chern, 5).acceptable() == [0, 1]


def _primes_below(n):
    return [p for p in range(2, n) if all(p % q for q in range(2, p))]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_mask_matches_trial_division(name):
    pattern = make_pattern(CORPUS[name])
    for p in _primes_below(100):
        mask = acceptable_residues(pattern, p)
        for x in range(p):
            hit = any(
                (a * x + b) % p == 0 for a, b in pattern.forms if a % p != 0
            )
            assert (x in mask.acceptable()) == (not hit)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 12), st.integers(-20, 20)),
        min_size=1,
        max_size=5,
        unique=True,
    ),
    st.sampled_from(_primes_below(50)),
)
def test_mask_matches_trial_division_random(forms, p):
    from math import gcd

    forms = [(a, b) for a, b in forms if gcd(a, b) == 1]
    if not forms:
        return
    pattern = make_pattern(forms)
    mask = acceptable_residues(pattern, p)
    for x in range(p):
        hit = any((a * x + b) % p == 0 for a, b in pattern.forms if a % p != 0)
        assert (x in mask.acceptable()) == (not hit)


def test_admissible_examples():
    assert admissible(make_pattern([(1, 0), (1, 2)]))
    assert not admissible(make_pattern([(1, 0), (1, 1)]))
    assert admissible(make_pattern(CORPUS["quad"]))


def test_admissible_matches_definition_scan():
    for forms in CORPUS.values():
        pattern = make_pattern(forms)
        expect = True
        for p in _primes_below(pattern.k + 1):
            ok_somewhere = any(
                all((a * x + b) % p != 0 for a, b in forms if a % p != 0)
                for x in range(p)
            )
            expect = expect and ok_somewhere
        assert admissible(pattern) == expect


def test_chain_patterns():
    assert chain_pattern("first", 3).forms == ((1, 0), (2, 1), (4, 3))
    assert chain_pattern("second", 3).forms == ((1, 0), (2, -1), (4, -3))
    assert chain_pattern("first", 1).forms == ((1, 0),)
    with pytest.raises(PatternError):
        chain_pattern("third", 2)
    with pytest.raises(PatternError):
        chain_pattern("first", 0)


@pytest.mark.parametrize("kind,step", [("first", 1), ("second", -1)])
def test_chain_recurrence(kind, step):
    p = chain_pattern(kind, 8)
    for x in (1, 2, 17, 10**6 + 3):
        vals = p.evaluate(x)
        for i in range(len(vals) - 1):
            assert vals[i + 1] == 2 * vals[i] + step


@pytest.mark.parametrize("s", [0, 1, 2, 7, 2049])
@pytest.mark.parametrize("forms", [[(1, 0), (1, 2), (1, 6), (1, 8)], [(1, 0), (2, -1), (4, -3)],
                                   [(6, 1), (12, 1), (18, 1)]])
def test_shifted_keeps_values_and_admissibility(forms, s):
    pattern = make_pattern(forms)
    moved = pattern.shifted(s)
    assert [a for a, _ in moved.forms] == [a for a, _ in forms]
    assert make_pattern(moved.forms) == moved  # coprime and distinct forms
    assert admissible(moved) == admissible(pattern)
    for x in range(max(s, pattern.min_x()), s + 20):
        assert moved.evaluate(x - s) == pattern.evaluate(x)


def test_min_x():
    assert make_pattern([(1, 0), (1, 2)]).min_x() == 2
    assert chain_pattern("second", 4).min_x() == 2
    assert make_pattern([(1, 5)]).min_x() == 0


def test_evaluate_overflow():
    p = make_pattern([(1, 0), (1, 2)])
    with pytest.raises(OverflowError):
        p.evaluate(2**127)
