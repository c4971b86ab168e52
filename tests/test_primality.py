import math
import random
from itertools import compress

import pytest
import sympy

from tuplesieve import primality
from tuplesieve.apsieve import primes_upto
from tuplesieve.primality import (
    _MR_LADDER,
    PSEUDOSQUARES,
    TableCapacityError,
    _level_for,
    is_perfect_power,
    is_prime,
    pseudosquares_test,
    sprp_base2,
)

from conftest import compute_pseudosquares


def test_sprp_examples():
    assert sprp_base2(1481)
    assert not sprp_base2(851)
    assert sprp_base2(2047)  # composite strong pseudoprime
    assert sprp_base2(1483)


def test_sprp_domain():
    with pytest.raises(ValueError):
        sprp_base2(2)
    with pytest.raises(ValueError):
        sprp_base2(10)
    with pytest.raises(ValueError):
        sprp_base2(1)


def test_sprp_catches_every_prime_and_only_base2_pseudoprimes(table_1e5):
    pseudo = []
    for n in range(3, 10**5, 2):
        got = sprp_base2(n)
        if table_1e5[n]:
            assert got, n
        elif got:
            pseudo.append(n)
    # the base-2 strong pseudoprimes below 1e5 (verified by factoring)
    assert pseudo == [2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281, 74665, 80581, 85489, 88357, 90751]


def test_compute_pseudosquares_examples():
    assert compute_pseudosquares(72) == ()
    assert compute_pseudosquares(300) == ((3, 73), (5, 241))


def test_compute_pseudosquares_matches_naive():
    # independent double loop straight from the definition
    limit = 120_000
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    best = {}
    for p_idx, p in enumerate(odd_primes):
        qs = odd_primes[: p_idx + 1]
        m = 9
        while m <= limit:
            r = math.isqrt(m)
            if r * r != m and all(pow(m % q, (q - 1) // 2, q) == 1 for q in qs):
                best[p] = m
                break
            m += 8
    # reduce the per-level values to run starts, the stored form
    run_starts = []
    prev = None
    for p in odd_primes:
        if p in best and best[p] != prev:
            run_starts.append((p, best[p]))
            prev = best[p]
    assert compute_pseudosquares(limit) == tuple(run_starts)


def test_embedded_prefix_matches_generator():
    limit = 2_000_000
    prefix = tuple((p, L) for p, L in PSEUDOSQUARES if L <= limit)
    assert compute_pseudosquares(limit) == prefix


def test_embedded_entries_have_exact_coverage():
    # each stored value is 1 mod 8, a non-square, a QR at every odd prime
    # up to (exclusive) the next entry's level, and a non-residue exactly
    # there; that pins every level attribution in the run-start encoding
    primes = [q for q in range(3, 200) if sympy.isprime(q)]
    entries = PSEUDOSQUARES
    for i, (p, L) in enumerate(entries):
        assert L % 8 == 1
        r = math.isqrt(L)
        assert r * r != L
        run_end = entries[i + 1][0] if i + 1 < len(entries) else p + 1
        for q in primes:
            if q < run_end:
                assert pow(L % q, (q - 1) // 2, q) == 1, (p, L, q)
        if i + 1 < len(entries):
            nxt = entries[i + 1][0]
            assert pow(L % nxt, (nxt - 1) // 2, nxt) != 1, (p, L)


def test_table_strictly_increasing():
    ps = [p for p, _ in PSEUDOSQUARES]
    ls = [L for _, L in PSEUDOSQUARES]
    assert ps == sorted(ps) and len(set(ps)) == len(ps)
    assert ls == sorted(ls) and len(set(ls)) == len(ls)


def _scan_level(N, trial_bound):
    """The least index with N < L * trial_bound, by a linear scan; None past the table."""
    for i, (_, L) in enumerate(PSEUDOSQUARES):
        if N < L * trial_bound:
            return i
    return None


@pytest.mark.parametrize("b", [1, 19, 1021, 1 << 18])
def test_level_choice_at_every_table_boundary(b):
    # L*b - 1 is the last N an entry covers; L*b needs the next entry
    last = len(PSEUDOSQUARES) - 1
    for i, (_, L) in enumerate(PSEUDOSQUARES):
        assert _level_for(L * b - 1, b) == _scan_level(L * b - 1, b) == i
        if i < last:
            assert _level_for(L * b, b) == _scan_level(L * b, b) == i + 1
        else:
            assert _scan_level(L * b, b) is None
            with pytest.raises(TableCapacityError):
                _level_for(L * b, b)


def test_pseudosquares_worked_examples():
    assert pseudosquares_test(1481, 19)
    assert not pseudosquares_test(851, 19)
    assert not pseudosquares_test(3161, 19)


def test_pseudosquares_rejects_prime_powers():
    assert not pseudosquares_test(243, 1)  # 3^5
    assert not pseudosquares_test(1194649, 1)  # 1093^2, base-2 strong psp


def test_pseudosquares_capacity_error():
    # past the shipped table's reach (L <= 1.96e11) at trial bound 1
    with pytest.raises(TableCapacityError):
        pseudosquares_test(sympy.nextprime(10**13) | 1, 1)


def test_pseudosquares_top_level_uses_every_odd_prime(monkeypatch):
    # a prime 3 mod 8 between the last two L values needs the top level, 113
    N = int(sympy.nextprime(10**11))
    assert N % 8 == 3 and PSEUDOSQUARES[-2][1] <= N < PSEUDOSQUARES[-1][1]
    seen = []
    powmod = primality.powmod
    monkeypatch.setattr(primality, "powmod", lambda a, e, m: seen.append(a) or powmod(a, e, m))
    assert pseudosquares_test(N, 1)
    assert seen == [2, *sympy.primerange(3, 114)]


@pytest.mark.parametrize("trial_bound", [19, 100, 1000])
def test_pseudosquares_matches_oracle(trial_bound, table_1e5):
    small = [p for p in range(2, trial_bound + 1) if table_1e5[p]]
    checked = 0
    for n in range(3, 60_000, 2):
        if any(n % p == 0 and n != p for p in small):
            continue
        got = pseudosquares_test(n, trial_bound)
        assert got == bool(table_1e5[n]), n
        checked += 1
    assert checked > 1000


def test_pseudosquares_random_large():
    rng = random.Random(31415)
    done = 0
    while done < 400:
        n = rng.randrange(10**6, 10**10) | 1
        tb = rng.choice((100, 1000, 10000))
        if any(n % p == 0 for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97) if p <= tb):
            continue
        assert pseudosquares_test(n, tb) == sympy.isprime(n)
        done += 1


def test_is_prime_trivia():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(3)
    assert is_prime(1483)
    assert not is_prime(2047)


def test_is_prime_matches_trial_division(table_1e5):
    for n in range(10**5 + 1):
        assert is_prime(n) == bool(table_1e5[n]), n


def test_is_prime_random_40_60_bit():
    rng = random.Random(2718)
    for _ in range(1000):
        n = rng.randrange(1 << 40, 1 << 60)
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_uses_trial_bound_fast_path():
    p = sympy.nextprime(10**9)
    assert is_prime(p, known_trial_bound=math.isqrt(p) + 1)


def test_is_prime_capacity_error_beyond_all_paths():
    # ~2^84 is past the proven strong-test thresholds and no trial bound
    # short of 2^42 lets the shipped table reach it
    n = int(sympy.nextprime(1 << 84))
    with pytest.raises(TableCapacityError):
        is_prime(n)
    with pytest.raises(TableCapacityError):
        is_prime(n, known_trial_bound=1 << 23)


def test_is_prime_pseudosquares_path_with_deep_trial_bound():
    # ~2^60 with a 2^23 trial bound sits inside the table's reach
    n = int(sympy.nextprime(1 << 60))
    assert is_prime(n, known_trial_bound=1 << 23)
    assert pseudosquares_test(n, 1 << 23)


def test_is_prime_mr_fallback_handles_wide_inputs():
    # beyond any pseudosquare coverage at trial bound 1
    p = int(sympy.nextprime(10**18))
    assert is_prime(p)
    assert not is_prime(p + 2) or sympy.isprime(p + 2)


# each ladder bound is the least strong pseudoprime to its base set
LADDER_TOP = _MR_LADDER[-1][0]


@pytest.mark.parametrize("N", sorted(
    bound + d for bound, _ in _MR_LADDER for d in (-4, -2, 0, 2, 4) if bound + d < LADDER_TOP
))
def test_is_prime_at_mr_ladder_bounds(N):
    assert is_prime(N) == sympy.isprime(N)


def test_is_prime_refuses_the_top_ladder_bound():
    assert sprp_base2(LADDER_TOP) and not sympy.isprime(LADDER_TOP)
    with pytest.raises(TableCapacityError):
        is_prime(LADDER_TOP)


def test_entries_reject_values_past_the_width():
    # powmod checks no width, so each entry must check N itself
    N = 2**127 + 1
    with pytest.raises(OverflowError):
        sprp_base2(N)
    with pytest.raises(OverflowError):
        pseudosquares_test(N, 1)
    with pytest.raises(OverflowError):
        is_prime(N)


def test_perfect_power():
    assert is_perfect_power(4)
    assert is_perfect_power(27)
    assert is_perfect_power(2**40)
    assert is_perfect_power(3**7)
    assert is_perfect_power(6**4)
    assert not is_perfect_power(2)
    assert not is_perfect_power(97)
    assert not is_perfect_power(2**40 + 1)


@pytest.mark.parametrize("b", [2, 3, 10, 31, 100, 997])
def test_perfect_power_trial_bound_matches_scan(b):
    # every N < 10^6 with no prime factor <= b, against all powers m^k below it
    limit = 10**6
    powers = {m**k for m in range(2, 1001) for k in range(2, 20) if m**k < limit}
    free = bytearray([1]) * limit
    for p in primes_upto(b):
        free[::p] = bytes(len(range(0, limit, p)))
    got = [N for N in compress(range(limit), free) if is_perfect_power(N, b)]
    assert got == sorted(N for N in powers if free[N])
