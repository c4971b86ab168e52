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


def mulmod(a: int, b: int, m: int) -> int:
    """(a * b) mod m, exact for any modulus below 2^127."""
    if m == 0:
        raise ZeroDivisionError("modulus is zero")
    check_wide(a, "a")
    check_wide(b, "b")
    check_wide(m, "m")
    return a * b % m


def powmod(a: int, e: int, m: int) -> int:
    """a**e mod m for operands within the width cap."""
    if m == 0:
        raise ZeroDivisionError("modulus is zero")
    check_wide(a, "a")
    check_wide(e, "e")
    check_wide(m, "m")
    return pow(a, e, m)


def modinv(a: int, m: int) -> int:
    """Inverse of a mod m, in [0, m).

    Raises NotInvertibleError when gcd(a, m) != 1; callers that sieve
    by a prime dividing a form's multiplier must handle that case.
    """
    if m < 2:
        raise ValueError(f"modulus m={m} must be >= 2")
    check_wide(a, "a")
    check_wide(m, "m")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertibleError(f"gcd({a}, {m}) = {math.gcd(a, m)}, not invertible") from None
