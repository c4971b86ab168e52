"""Primality decisions for sieve survivors.

The pipeline filters candidates with a base-2 strong probable-prime
test, then certifies with the pseudosquares test of Lukes, Patterson,
and Williams: if N has no prime divisor <= B and N/B is below the
pseudosquare L_p, then Euler-criterion checks for the bases up to p
decide N exactly (proper powers excluded separately).  The pseudosquares
are a fixed list, `PSEUDOSQUARES`.  When it cannot cover N, a
strong-pseudoprime test over published base sets with verified
thresholds takes over; every answer is unconditional or an explicit
capacity error, never a guess.
"""

import math
from bisect import bisect_right

from .apsieve import primes_upto
from .arith import check_wide, powmod

__all__ = [
    "TableCapacityError",
    "PSEUDOSQUARES",
    "sprp_base2",
    "pseudosquares_test",
    "is_prime",
    "is_perfect_power",
    "LADDER_TOP",
]


class TableCapacityError(RuntimeError):
    """No certifier covers this input."""


# Pseudosquare values: L_p is the least non-square positive integer that
# is 1 mod 8 and a quadratic residue modulo every odd prime q <= p.
# Consecutive primes can share a value (L_59 = L_61, L_83 = L_89 = L_97,
# ...); each distinct value is stored once under the least p achieving
# it, which is what minimal-base-set lookup wants.  Every entry was
# regenerated by an exhaustive minimality scan through 2*10^11.  Pairs
# (p, L_p), strictly increasing in both coordinates.
PSEUDOSQUARES = (
    (3, 73),
    (5, 241),
    (7, 1009),
    (11, 2641),
    (13, 8089),
    (17, 18001),
    (19, 53881),
    (23, 87481),
    (29, 117049),
    (31, 515761),
    (37, 1083289),
    (41, 3206641),
    (43, 3818929),
    (47, 9257329),
    (53, 22000801),
    (59, 48473881),
    (67, 175244281),
    (71, 427733329),
    (79, 898716289),
    (83, 2805544681),
    (101, 10310263441),
    (103, 23616331489),
    (107, 85157610409),
    (113, 196265095009),
)

# Strong-pseudoprime base sets with verified thresholds: below each
# bound, passing all listed bases proves primality.
_MR_LADDER = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)

# below it every value has an exact verdict, whatever trial bound is known
LADDER_TOP = _MR_LADDER[-1][0]

_TRIAL_LIMIT = 1 << 20
_TRIAL_PRIMES = primes_upto(1024)  # covers sqrt(_TRIAL_LIMIT)

_PSQ_L = tuple(L for _, L in PSEUDOSQUARES)
# the odd bases some level uses: the odd primes up to the top level
_PSQ_BASES = tuple(_TRIAL_PRIMES[1:bisect_right(_TRIAL_PRIMES, PSEUDOSQUARES[-1][0])])


def _level_for(N: int, trial_bound: int) -> int:
    """Index of the least entry with L_p * trial_bound > N.

    N < L * trial_bound holds exactly when N // trial_bound < L.
    """
    level = bisect_right(_PSQ_L, N // trial_bound)
    if level == len(PSEUDOSQUARES):
        raise TableCapacityError(
            f"no pseudosquare above {N}/{trial_bound}; sieve deeper before testing"
        )
    return level


def _strong_test(N: int, base: int, d: int, s: int) -> bool:
    x = powmod(base % N, d, N)
    if x == 1 or x == N - 1:
        return True
    for _ in range(s - 1):
        x = x * x % N
        if x == N - 1:
            return True
    return False


def _split_even(N):
    d = N - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return d, s


def sprp_base2(N: int) -> bool:
    """Base-2 strong probable-prime test; true for every odd prime."""
    if N < 3 or N % 2 == 0:
        raise ValueError(f"N={N} must be odd and >= 3")
    check_wide(N, "N")
    d, s = _split_even(N)
    return _strong_test(N, 2, d, s)


def is_perfect_power(N: int, trial_bound: int = 1) -> bool:
    """True when N = m**k for some m >= 2, k >= 2 (always composite).

    N must have no prime factor <= trial_bound (1 claims nothing).  Then
    any base m has none either, so m >= trial_bound + 1, and m**k = N
    needs (trial_bound + 1)**k <= N.  A power with a composite exponent
    is also a power with a prime one, so only the square and the prime
    exponents within that bound are tried.
    """
    if N < 4:
        return False
    r = math.isqrt(N)
    if r * r == N:
        return True
    m_min = max(2, trial_bound + 1)
    for k in _TRIAL_PRIMES:
        if k == 2:
            continue
        if m_min**k > N:
            break
        root = round(N ** (1.0 / k))
        for m in (root - 1, root, root + 1):
            if m >= 2 and m**k == N:
                return True
    return False


def pseudosquares_test(N: int, trial_bound: int) -> bool:
    """Deterministic verdict for odd N with no prime divisor <= trial_bound.

    Picks the least table level p with L_p > N/trial_bound and checks
    q^((N-1)/2) mod N for q = 2 and all odd primes q <= p: every result
    must be +-1, with 2 forced to -1 when N is 5 mod 8, and some base
    forced to -1 when N is 1 mod 8.  Proper powers are rejected outright.
    When N is 1 mod 8 and no -1 shows up, the level is raised (larger
    L_p still exceeds N/trial_bound) until a witness appears or the
    table runs out.
    """
    if N <= 1 or N % 2 == 0:
        raise ValueError(f"N={N} must be odd and > 1")
    check_wide(N, "N")
    if trial_bound < 1:
        raise ValueError("trial_bound must be >= 1")
    level = _level_for(N, trial_bound)
    if is_perfect_power(N, trial_bound):
        return False
    half = (N - 1) // 2
    e2 = powmod(2, half, N)
    if e2 != 1 and e2 != N - 1:
        return False
    if N % 8 == 5 and e2 != N - 1:
        return False
    saw_minus_one = e2 == N - 1

    checked = 0  # _PSQ_BASES[:checked] passed at a lower level
    while True:
        p_level = PSEUDOSQUARES[level][0]
        upto = bisect_right(_PSQ_BASES, p_level)
        for q in _PSQ_BASES[checked:upto]:
            e = powmod(q % N, half, N)
            if e == 0:
                return q == N  # q divides N
            if e != 1 and e != N - 1:
                return False
            if e == N - 1:
                saw_minus_one = True
        checked = upto
        if N % 8 != 1:
            return True
        if saw_minus_one:
            return True
        level += 1  # need a -1 witness; larger levels stay valid
        if level == len(PSEUDOSQUARES):
            raise TableCapacityError(
                f"N={N} is 1 mod 8 with no -1 witness up to base {p_level}; "
                f"table exhausted"
            )


def _is_prime_small(N: int) -> bool:
    if N < 2:
        return False
    for p in _TRIAL_PRIMES:
        if p * p > N:
            return True
        if N % p == 0:
            return N == p
    return True


def _mr_proven(N: int):
    """Exact strong-pseudoprime verdict, or None above the proven range."""
    for bound, bases in _MR_LADDER:
        if N < bound:
            d, s = _split_even(N)
            return all(_strong_test(N, b, d, s) for b in bases if b % N != 0)
    return None


def is_prime(N: int, known_trial_bound: int = 1) -> bool:
    """Exact primality for 0 <= N < 2^127.

    known_trial_bound records how far trial division is already
    guaranteed (1 when nothing is known); the caller's claim is trusted.
    Small N goes through direct trial division.  Larger N passes the
    base-2 strong test, then the pseudosquares test; if the table cannot
    cover N the proven multi-base strong test takes over.  Inputs no
    path can certify raise TableCapacityError rather than guessing.
    """
    if N < 2:
        return False
    check_wide(N, "N")
    if N < _TRIAL_LIMIT:
        return _is_prime_small(N)
    if N % 2 == 0:
        return False
    b = max(1, known_trial_bound)
    if (b + 1) * (b + 1) > N:
        return True  # no divisor <= b and (b+1)^2 > N
    if not sprp_base2(N):
        return False
    try:
        return pseudosquares_test(N, b)
    except TableCapacityError:
        verdict = _mr_proven(N)
        if verdict is None:
            raise TableCapacityError(
                f"N={N} exceeds both the pseudosquare table (trial bound {b}) "
                f"and the proven strong-test range; sieve to a deeper bound"
            ) from None
        return verdict
