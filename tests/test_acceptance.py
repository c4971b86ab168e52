"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its timing (run with `pytest -v -s` to watch them go by).

Criteria 5 and 6 run the quadruplet search at n=10^8 and take the bulk
of the time; everything else is seconds.
"""

import math
import random
import time

import pytest
import sympy

import tuplesieve.search as search_mod
from tuplesieve.apps import QUAD_PATTERN, TWIN_PATTERN, quads, twins
from tuplesieve.apsieve import sieve_segment, start_table, survivors
from tuplesieve.cli import main
from tuplesieve.pattern import chain_pattern, make_pattern
from tuplesieve.primality import _MR_LADDER, LADDER_TOP, TableCapacityError, is_prime, sprp_base2
from tuplesieve.search import SearchConfig, find_pattern_primes, run_striped, smallest_chain
from tuplesieve.wheel import build_wheel

from conftest import (
    CORPUS,
    checkpoint_position,
    collect_xs,
    naive_pattern_xs,
    run_interrupted,
    sieve_table,
    wheel_primes,
)


def report(num, name, t0, detail=""):
    took = time.perf_counter() - t0
    print(f"PASS criterion {num} ({name}): {detail} [{took:.2f}s]")


def test_criterion_1_worked_example_fidelity(capsys):
    t0 = time.perf_counter()
    rc = main(["search", "--pattern", "x,x+2,x+6,x+8", "--n", "1000",
               "--wheel", "2,3,5,7"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    xs = [int(ln.split()[0]) for ln in lines[:-1]]
    assert xs == [5, 11, 101, 191, 821]
    assert lines[-1] == "count=5"

    table = start_table(QUAD_PATTERN, 210, [11, 13, 17, 19])
    seg = sieve_segment(QUAD_PATTERN, 11, 210, 5050, table)
    assert survivors(seg) == [851, 1481, 3161]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, "worked-example fidelity", t0, "x={5,11,101,191,821}; r=11 survivors {851,1481,3161}")


def test_criterion_2_residue_counts():
    t0 = time.perf_counter()
    twin_wheel = build_wheel(TWIN_PATTERN, wheel_primes(10**10))
    assert twin_wheel.W == 6469693230
    assert twin_wheel.residue_count() == 214708725

    quad_wheel = build_wheel(QUAD_PATTERN, wheel_primes(200560490130))
    assert quad_wheel.W == 200560490130
    assert quad_wheel.residue_count() == 472665375

    # the paper's chain wheel: 47# with 31 left out
    cunn_wheel = build_wheel(chain_pattern("first", 15),
                             (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 37, 41, 43, 47))
    assert cunn_wheel.W == 19835154277048110
    assert cunn_wheel.residue_count() == 12841500672
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, "residue-count reproduction", t0,
           "214708725 / 472665375 / 12841500672")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    n = 10**6
    table = sieve_table(n)
    for name, forms in sorted(CORPUS.items()):
        pattern = make_pattern(forms)
        got = find_pattern_primes(SearchConfig(pattern=pattern, n=n))
        want = naive_pattern_xs(forms, n, table)
        assert got == want, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(3, "oracle equivalence", t0, f"{len(CORPUS)} patterns at n=10^6")


def test_criterion_4_census_desk_scale():
    t0 = time.perf_counter()
    X = 10**7
    table = sieve_table(X + 10)

    pairs = [p for p in range(2, X) if table[p] and table[p + 2]]
    s2 = math.fsum(1.0 / q for p in pairs for q in (p, p + 2))
    c2 = twins(X)
    assert c2.count == len(pairs) == 58980
    assert c2.recip_sum == s2

    q_xs = [x for x in range(2, X - 8) if all(table[x + d] for d in (0, 2, 6, 8))]
    s4 = math.fsum(1.0 / (x + d) for x in q_xs for d in (0, 2, 6, 8))
    c4 = quads(X)
    assert c4.count == len(q_xs) == 899
    assert c4.recip_sum == s4
    # the published 10^16-scale rows are documented targets, not CI checks
    report(4, "census desk-scale", t0,
           f"pi2={c2.count} S2 ok; pi4={c4.count} S4 ok at X=10^7")


def test_criterion_5_configuration_invariance():
    t0 = time.perf_counter()
    n = 10**8
    runs = {}
    for mode, kw in {
        "sqrt": dict(sieve_bound=math.isqrt(n)),
        "c3": dict(space_exp=3.0),
    }.items():
        for nu in (1, 4):
            cfg = SearchConfig(pattern=QUAD_PATTERN, n=n, nu=nu, **kw)
            runs[(mode, nu)] = collect_xs(run_striped, cfg)
    baseline, baseline_xs = runs[("sqrt", 1)]
    for key, (res, xs) in runs.items():
        assert xs == baseline_xs, key
        assert res.count == baseline.count, key
        assert res.recip_sum.hex() == baseline.recip_sum.hex(), key
    report(5, "configuration invariance", t0,
           f"{baseline.count} quadruplets at n=10^8 across B=sqrt(n)/c=3, nu=1/4")


def test_criterion_6_checkpoint_determinism(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    n = 10**8
    # W = 30030 leaves 189 residues: 22 rounds of one residue in each of four
    # processes interrupt the run at position 88
    monkeypatch.setattr(search_mod, "_cpu_limit", lambda: 4)
    cfg = SearchConfig(pattern=QUAD_PATTERN, n=n, nu=4, space_exp=3.0, wheel=(2, 3, 5, 7, 11, 13))
    uninterrupted, uninterrupted_xs = collect_xs(run_striped, cfg)

    ck = tmp_path / "quad.ckpt"
    killed = run_interrupted(cfg, 22, ck)
    assert checkpoint_position(ck) == 88
    restored, rest = collect_xs(run_striped, cfg, checkpoint_path=str(ck))
    assert restored.resumed
    assert restored.count == uninterrupted.count
    assert restored.recip_sum.hex() == uninterrupted.recip_sum.hex()
    assert sorted(killed + rest) == uninterrupted_xs
    report(6, "checkpoint determinism", t0,
           f"count={restored.count}, sum bit-identical after kill/restore")


def test_criterion_7_primality_suite():
    t0 = time.perf_counter()
    limit = 10**6
    table = sieve_table(limit)
    for n in range(limit + 1):
        assert is_prime(n) == bool(table[n]), n

    rng = random.Random(60601)
    for _ in range(10**4):
        n = rng.randrange(1 << 40, 1 << 60)
        assert is_prime(n) == sympy.isprime(n), n

    assert sprp_base2(2047) and not is_prime(2047)

    def strong_probable_prime(N, base):
        d, s = N - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        x = pow(base, d, N)
        return x in (1, N - 1) or any(pow(x, 2**i, N) == N - 1 for i in range(1, s))

    # each ladder bound is a composite strong pseudoprime to every base of
    # its own rung, which is why the rung stops there; is_prime rejects it
    for bound, bases in _MR_LADDER:
        assert not sympy.isprime(bound)
        assert all(strong_probable_prime(bound, base) for base in bases), bound
        if bound < LADDER_TOP:
            assert not is_prime(bound), bound
        else:
            with pytest.raises(TableCapacityError):
                is_prime(bound)
    report(7, "primality suite", t0,
           "trial-division sweep to 10^6, 10^4 wide randoms, ladder self-consistency")


def test_criterion_8_chain_records_desk_scale():
    t0 = time.perf_counter()
    assert smallest_chain("first", 6, 10**4) == 89

    # brute-force oracle for length 7: sieve far enough to cover 64x+63
    cap = 1_300_000
    t = sieve_table(64 * cap + 64)

    def chain_len(x):
        k, v = 0, x
        while v < len(t) and t[v]:
            k += 1
            v = 2 * v + 1
        return k

    want = None
    for x in range(2, cap):
        if not t[x] or chain_len(x) != 7:
            continue
        y = (x - 1) // 2
        if x % 2 == 1 and y >= 2 and t[y]:
            continue  # extends backward
        want = x
        break
    assert want == 1122659
    got = smallest_chain("first", 7, 2 * 10**6)
    assert got == want
    # the length-15/17 starting points are documented targets only
    report(8, "chain records desk-scale", t0, f"length 6 -> 89, length 7 -> {got}")
