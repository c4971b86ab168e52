import random

import pytest

from tuplesieve.arith import WIDE_MAX, NotInvertibleError, modinv, powmod


def test_powmod_trivial():
    for a in (0, 1, 2, 7, 10**12):
        assert powmod(a, 0, 97) == 1
        assert powmod(a, 1, 97) == a % 97
    assert powmod(5, 3, 1) == 0


def test_powmod_pseudoprime_witness():
    # 2047 = 23 * 89 passes the base-2 Fermat congruence
    assert powmod(2, 1023, 2047) == 1


def test_powmod_zero_modulus():
    with pytest.raises(ZeroDivisionError):
        powmod(2, 3, 0)


def test_modinv_examples():
    assert modinv(1, 7) == 1
    assert modinv(3, 7) == 5
    with pytest.raises(NotInvertibleError):
        modinv(2, 4)
    with pytest.raises(ValueError):
        modinv(3, 1)


def test_powmod_matches_builtin_pow():
    rng = random.Random(999)
    for _ in range(2000):
        m = rng.randrange(2, WIDE_MAX)
        a = rng.randrange(m)
        e = rng.randrange(2**64)
        assert powmod(a, e, m) == pow(a, e, m)


def test_powmod_exponent_addition_law():
    rng = random.Random(4242)
    for _ in range(500):
        m = rng.randrange(2, 2**100)
        a = rng.randrange(m)
        e1 = rng.randrange(2**40)
        e2 = rng.randrange(2**40)
        combined = powmod(a, e1 + e2, m)
        split = powmod(a, e1, m) * powmod(a, e2, m) % m
        assert combined == split


def test_modinv_inverts():
    rng = random.Random(77)
    from math import gcd

    done = 0
    while done < 2000:
        m = rng.randrange(2, 2**90)
        a = rng.randrange(1, m)
        if gcd(a, m) != 1:
            with pytest.raises(NotInvertibleError):
                modinv(a, m)
            continue
        u = modinv(a, m)
        assert 0 < u < m
        assert a * u % m == 1
        done += 1
