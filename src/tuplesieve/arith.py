"""Overflow-checked modular arithmetic on integers below 2**127.

Python integers never wrap, so "overflow" here means exceeding the
declared width cap.  Every value stored or returned by this package is
kept under WIDE_MAX; intermediate products may exceed it freely.
"""

import math

WIDE_MAX = 2**127 - 1


class NotInvertibleError(ValueError):
    """gcd(a, m) != 1, so a has no inverse mod m."""


def check_wide(value: int, what: str = "value") -> int:
    """Validate that value fits the supported integer width."""
    if not 0 <= value <= WIDE_MAX:
        raise OverflowError(f"{what}={value} outside [0, 2^127)")
    return value


def powmod(a: int, e: int, m: int) -> int:
    """a**e mod m.

    Precondition, not checked here: a, e and m lie in [0, WIDE_MAX].
    The prime tests check N at each entry, and every base and exponent
    they pass is below N.
    """
    if m == 0:
        raise ZeroDivisionError("modulus is zero")
    return pow(a, e, m)


def modinv(a: int, m: int) -> int:
    """Inverse of a mod m, in [0, m).

    Raises NotInvertibleError when gcd(a, m) != 1; callers that sieve
    by a prime dividing a form's multiplier must handle that case.
    """
    if not 0 <= a <= WIDE_MAX >= m >= 2:  # one of these raises
        if m < 2:
            raise ValueError(f"modulus m={m} must be >= 2")
        check_wide(a, "a")
        check_wide(m, "m")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertibleError(f"gcd({a}, {m}) = {math.gcd(a, m)}, not invertible") from None
