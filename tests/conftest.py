"""Shared brute-force oracles: a plain byte sieve and a scan-everything
pattern search, kept independent of the package internals on purpose,
a boundary-window scan that tests each value with `is_prime`, and the
prime-prefix wheels the wheel tests build.  Also `run_interrupted`,
which stops a checkpointed run the way ^C does, after a given round."""

import math

import pytest

import tuplesieve.search as search_mod
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


def run_interrupted(cfg, rounds, checkpoint_path, *, on_tuple=None, mid_round=False, **kw):
    """Run `run_striped(cfg, checkpoint_path, ...)` in rounds of one
    residue per process, and end it with KeyboardInterrupt as round
    rounds + 1 starts, before it sieves anything.  With mid_round, the
    interrupt comes instead from the first on_tuple call after round
    `rounds`, once on_tuple has run: lines written past the last
    checkpoint, as a kill in mid-round leaves them.  Returns the x
    values the run emitted, in order."""
    emitted, started = [], 0
    real_round = search_mod._run_round

    def run_round(*args):
        nonlocal started
        started += 1
        if started > rounds and not mid_round:
            raise KeyboardInterrupt
        return real_round(*args)

    def emit(x, vals):
        emitted.append(x)
        if on_tuple is not None:
            on_tuple(x, vals)
        if started > rounds:
            raise KeyboardInterrupt

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_mod, "ROUND_BYTES", 1)
        mp.setattr(search_mod, "_run_round", run_round)
        with pytest.raises(KeyboardInterrupt):
            search_mod.run_striped(cfg, checkpoint_path=str(checkpoint_path), on_tuple=emit, **kw)
    return emitted


def checkpoint_position(path) -> int:
    """The next wheel position a checkpoint file records."""
    fields = dict(line.split(" ", 1) for line in open(path).read().splitlines()[1:])
    return int(fields["position"])


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
