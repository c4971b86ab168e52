"""Shared brute-force oracles: a plain byte sieve and a scan-everything
pattern search, kept independent of the package internals on purpose,
a boundary-window scan that tests each value with `is_prime`, and the
prime-prefix wheels the wheel tests build."""

import math

import pytest

from tuplesieve.primality import is_prime


def sieve_table(n: int) -> bytearray:
    """table[i] == 1 iff i is prime, for 0 <= i <= n."""
    t = bytearray([1]) * (n + 1)
    t[0] = t[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if t[p]:
            t[p * p :: p] = b"\x00" * ((n - p * p) // p + 1)
    return t


def naive_pattern_xs(forms, n, table) -> list:
    """Reference answer: scan every x, check each form value in the table."""
    out = []
    x = 0
    while True:
        vals = [a * x + b for a, b in forms]
        if max(vals) > n:
            break
        if all(v >= 2 and table[v] for v in vals):
            out.append(x)
        x += 1
    return out


def boundary_scan(pattern, cut, n) -> list:
    """Reference for `search.boundary_tuples`: from the first x where
    every form is at least 2, while the least form is <= min(cut, n),
    keep x when the largest form is <= n and every value is prime."""
    out = []
    x = pattern.min_x()
    while pattern.min_value(x) <= min(cut, n):
        if pattern.max_value(x) <= n and all(is_prime(v, 1) for v in pattern.evaluate(x)):
            out.append(x)
        x += 1
    return out


def wheel_primes(limit: int) -> list:
    """Primes 2, 3, 5, ... in order, taken while their product stays <= limit."""
    primes, w, p = [], 1, 2
    while w * p <= limit:
        primes.append(p)
        w *= p
        p += 1
        while any(p % q == 0 for q in primes):  # every prime below p is listed
            p += 1
    return primes


# the pattern corpus exercised by oracle-equivalence tests
CORPUS = {
    "twin": [(1, 0), (1, 2)],
    "triple_226": [(1, 0), (1, 2), (1, 6)],
    "triple_246": [(1, 0), (1, 4), (1, 6)],
    "quad": [(1, 0), (1, 2), (1, 6), (1, 8)],
    "chernick": [(6, 1), (12, 1), (18, 1)],
    "cunningham_first_3": [(1, 0), (2, 1), (4, 3)],
    "cunningham_second_3": [(1, 0), (2, -1), (4, -3)],
}


@pytest.fixture(scope="session")
def table_1e6():
    return sieve_table(10**6)


@pytest.fixture(scope="session")
def table_1e5():
    return sieve_table(10**5)
