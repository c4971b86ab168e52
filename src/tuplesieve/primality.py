"""Primality decisions for sieve survivors.

The pipeline filters candidates with a base-2 strong probable-prime
test, then certifies with a strong-pseudoprime test over published base
sets with proven thresholds (`_MR_LADDER`, after Jaeschke, Math. Comp.
61, 1993, and Sorenson and Webster, Math. Comp. 86, 2017).  A value
below (B+1)^2 with no prime factor <= B needs no test at all.  Every
answer is unconditional or an explicit capacity error, never a guess.

The source paper certifies with the pseudosquares test of Lukes,
Patterson and Williams instead.  Past the trial shortcut its reach ends
below L_113^2 ~ 3.85e22, inside the ladder's 3.3e24, and it needs more
modular powers than the ladder at every N, so this width has no use
for it.
"""

from .arith import check_wide, powmod

__all__ = [
    "TableCapacityError",
    "sprp_base2",
    "is_prime",
    "LADDER_TOP",
]


class TableCapacityError(RuntimeError):
    """No certifier covers this input."""


# Strong-pseudoprime base sets with verified thresholds: below each
# bound, passing all listed bases proves primality.  Each bound is a
# strong pseudoprime to every base of its own rung.
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


def _strong_test(N: int, base: int, d: int, s: int) -> bool:
    x = powmod(base, d, N)
    if x == 1 or x == N - 1:
        return True
    for _ in range(s - 1):
        x = x * x % N
        if x == N - 1:
            return True
    return False


def _split_even(N):
    """(d, s) with d odd and d * 2^s = N - 1, for odd N >= 3: s is the
    index of the lowest set bit of N - 1, which (N-1) & (1-N) isolates."""
    s = ((N - 1) & (1 - N)).bit_length() - 1
    return (N - 1) >> s, s


def sprp_base2(N: int) -> bool:
    """Base-2 strong probable-prime test; true for every odd prime."""
    if N < 3 or N % 2 == 0:
        raise ValueError(f"N={N} must be odd and >= 3")
    check_wide(N, "N")
    d, s = _split_even(N)
    return _strong_test(N, 2, d, s)


def is_prime(N: int, known_trial_bound: int = 1) -> bool:
    """Exact primality for 0 <= N < 2^127.

    known_trial_bound records how far trial division is already
    guaranteed (1 when nothing is known); the caller's claim is trusted.
    An odd N below (b+1)^2 with no prime factor <= b is prime.  Any
    other odd N is decided by the first ladder rung whose bound exceeds
    it.  At or above LADDER_TOP no rung does: the top rung's bases still
    run, any that fails proves N composite, and a pass of all 13 raises
    TableCapacityError rather than a guess.
    """
    if N < 2:
        return False
    check_wide(N, "N")
    if N % 2 == 0:
        return N == 2
    b = max(1, known_trial_bound)
    if (b + 1) * (b + 1) > N:
        return True  # no divisor <= b and (b+1)^2 > N
    d, s = _split_even(N)
    for bound, bases in _MR_LADDER:
        if N < bound:
            return all(_strong_test(N, base, d, s) for base in bases)
    if not all(_strong_test(N, base, d, s) for base in bases):
        return False  # the top rung's bases: one that fails proves N composite
    raise TableCapacityError(
        f"N={N} passed all {len(bases)} bases of the top rung ({bases[0]}..{bases[-1]}), "
        f"and no proven certifier here covers N >= LADDER_TOP={LADDER_TOP}"
    )


# The benchmark's tracer wraps this name; ROADMAP item 1 removes that
# hook, and this line with it.
pseudosquares_test = is_prime
