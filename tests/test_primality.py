import math
import random

import pytest
import sympy
from sympy.ntheory.primetest import mr

from tuplesieve import primality
from tuplesieve.primality import (
    _MR_LADDER,
    LADDER_TOP,
    TableCapacityError,
    is_prime,
    sprp_base2,
)


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


def test_split_of_n_minus_1():
    # random odd N of every width, and N - 1 a power of two (d = 1)
    rng = random.Random(1729)
    values = [rng.randrange(3, 1 << rng.randrange(2, 128)) | 1 for _ in range(2000)]
    values += [(1 << s) + 1 for s in range(1, 127)]
    for N in values:
        d, s = primality._split_even(N)
        assert d % 2 == 1 and d << s == N - 1, N


def test_is_prime_worked_examples():
    assert is_prime(1481, 19)
    assert not is_prime(851, 19)  # 23 * 37
    assert not is_prime(3161, 19)  # 29 * 109


def test_is_prime_rejects_prime_powers():
    # the ladder's thresholds cover prime powers: no separate power check
    assert not is_prime(243, 1)  # 3^5
    assert sprp_base2(1194649) and not is_prime(1194649, 1)  # 1093^2


@pytest.mark.parametrize("trial_bound", [19, 100, 1000])
def test_is_prime_with_trial_bound_matches_oracle(trial_bound, table_1e5):
    small = [p for p in range(2, trial_bound + 1) if table_1e5[p]]
    checked = 0
    for n in range(3, 60_000, 2):
        if any(n % p == 0 and n != p for p in small):
            continue
        got = is_prime(n, trial_bound)
        assert got == bool(table_1e5[n]), n
        checked += 1
    assert checked > 1000


def test_is_prime_random_large_with_trial_bound():
    rng = random.Random(31415)
    odd_primes = list(sympy.primerange(3, 10**4))
    done = 0
    while done < 400:
        n = rng.randrange(10**6, 10**10) | 1
        tb = rng.choice((100, 1000, 10000))
        # keep the claim: no prime factor <= tb
        if any(n % p == 0 for p in odd_primes if p <= tb):
            continue
        assert is_prime(n, tb) == sympy.isprime(n)
        done += 1


def test_is_prime_trivia():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(3)
    assert is_prime(1483)
    assert not is_prime(2047)


@pytest.mark.parametrize("b", [1, 2, 10**6, 2**63])
def test_is_prime_even_values_ignore_the_trial_bound(b):
    # an even N is decided before the claimed trial bound is read
    for N in (2, 4, 6, 10, 2**20, 2**64, LADDER_TOP + 1, 2**126):
        assert is_prime(N, b) == (N == 2), N


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
    # ~2^84 is past LADDER_TOP: only a trial bound b with (b+1)^2 > N proves it, and
    # the error names the bases it passed, not a trial bound no table can reach
    n = int(sympy.nextprime(1 << 84))
    for b in (1, 1 << 23, math.isqrt(n) - 1):
        with pytest.raises(TableCapacityError) as exc:
            is_prime(n, b)
        assert str(exc.value) == (
            f"N={n} passed all 13 bases of the top rung (2..41), and no proven "
            "certifier here covers N >= LADDER_TOP=3317044064679887385961981")
    assert is_prime(n, math.isqrt(n))
    # a failed base-2 test still proves a composite there
    assert not is_prime(3 * n)


def test_is_prime_with_deep_trial_bound():
    # ~2^60 with a 2^23 trial bound still needs the ladder
    n = int(sympy.nextprime(1 << 60))
    assert is_prime(n, known_trial_bound=1 << 23)
    assert not is_prime(int(sympy.nextprime(1 << 29)) * n, known_trial_bound=1 << 23)


def test_is_prime_handles_wide_inputs():
    p = int(sympy.nextprime(10**18))
    assert is_prime(p)
    assert not is_prime(p + 2) or sympy.isprime(p + 2)


# (previous bound, or 3 for the first rung; bound; bases) of each rung
RUNGS = [(lo, bound, bases) for lo, (bound, bases) in
         zip([3] + [bound for bound, _ in _MR_LADDER], _MR_LADDER)]


@pytest.mark.parametrize("lo, bound, bases", RUNGS, ids=[str(r[1]) for r in RUNGS])
def test_ladder_rung_matches_sympy(lo, bound, bases):
    # random odd N in the rung, with no trial bound and with one just below
    # N's least prime factor (capped below sqrt(N), so the rung decides)
    rng = random.Random(bound)
    values = [rng.randrange(lo, bound) | 1 for _ in range(100)]
    values += [p for p in (sympy.nextprime(rng.randrange(lo, bound)) for _ in range(20)) if p < bound]
    primes = 0
    for N in values:
        want = sympy.isprime(N)
        b = min(min(sympy.primefactors(N)), math.isqrt(N)) - 1
        assert is_prime(N) == is_prime(N, b) == want, (N, b)
        primes += want
    assert primes >= 10


@pytest.mark.parametrize("lo, bound, bases", RUNGS, ids=[str(r[1]) for r in RUNGS])
def test_is_prime_runs_each_base_of_its_rung_once(lo, bound, bases, monkeypatch):
    N = int(sympy.prevprime(bound))
    assert lo <= N
    seen = []
    powmod = primality.powmod
    monkeypatch.setattr(primality, "powmod", lambda a, e, m: seen.append(a) or powmod(a, e, m))
    assert is_prime(N)
    assert seen == list(bases)


# each ladder bound is the least strong pseudoprime to its base set
@pytest.mark.parametrize("N", sorted(
    bound + d for bound, _ in _MR_LADDER for d in (-4, -2, 0, 2, 4) if bound + d < LADDER_TOP
))
def test_is_prime_at_mr_ladder_bounds(N):
    assert is_prime(N) == sympy.isprime(N)


def test_is_prime_refuses_the_top_ladder_bound():
    assert sprp_base2(LADDER_TOP) and not sympy.isprime(LADDER_TOP)
    with pytest.raises(TableCapacityError):
        is_prime(LADDER_TOP)


TOP_BASES = _MR_LADDER[-1][1]


# 2^e - 1 for a prime e is a base-2 strong pseudoprime when composite;
# past the top a later base of the top rung proves these composite
@pytest.mark.parametrize("e", [83, 97, 101, 103, 109, 113])
def test_is_prime_top_rung_proves_mersenne_composites(e):
    N = 2**e - 1
    assert sprp_base2(N) and not sympy.isprime(N)
    assert is_prime(N) is False


@pytest.mark.parametrize("N", [2**107 - 1, 2**127 - 1, LADDER_TOP],
                         ids=["M107", "M127", "LADDER_TOP"])
def test_is_prime_raises_past_the_top_on_all_13_bases(N):
    # primes, and the top bound itself, pass every base of the top rung
    assert mr(N, TOP_BASES)
    with pytest.raises(TableCapacityError):
        is_prime(N)


def test_is_prime_past_the_top_matches_sympy():
    # random odd N in [LADDER_TOP, 2^127): never True, and False for every
    # composite that is not a strong pseudoprime to all 13 top-rung bases
    rng = random.Random(127)
    values = [rng.randrange(LADDER_TOP, 2**127) | 1 for _ in range(300)]
    values += [int(sympy.nextprime(rng.randrange(LADDER_TOP, 2**126))) for _ in range(10)]
    raised = 0
    for N in values:
        try:
            verdict = is_prime(N)
        except TableCapacityError:
            raised += 1
            assert mr(N, TOP_BASES)
            continue
        assert verdict is False and not sympy.isprime(N)
    assert raised >= 10


def test_entries_reject_values_past_the_width():
    # powmod checks no width, so each entry must check N itself
    N = 2**127 + 1
    with pytest.raises(OverflowError):
        sprp_base2(N)
    with pytest.raises(OverflowError):
        is_prime(N)
