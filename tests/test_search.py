import math

import pytest

from tuplesieve.apsieve import EarlyAbort
from tuplesieve.pattern import chain_pattern, make_pattern
from tuplesieve.search import (
    CheckpointError,
    SearchConfig,
    boundary_tuples,
    find_pattern_primes,
    run_striped,
    smallest_chain,
)

from conftest import CORPUS, naive_pattern_xs

QUAD = make_pattern(CORPUS["quad"])
TWIN = make_pattern(CORPUS["twin"])


def test_boundary_quadruplet_wheel_cut():
    assert boundary_tuples(QUAD, 7, 1000) == [5]


def test_boundary_quadruplet_sieve_cut():
    assert boundary_tuples(QUAD, 20, 5000) == [5, 11]


def test_boundary_below_first_value_empty():
    assert boundary_tuples(QUAD, 0, 1000) == []
    assert boundary_tuples(TWIN, 1, 1000) == []


def test_boundary_respects_n():
    # 11,13,17,19 tops out at 19 > n
    assert boundary_tuples(QUAD, 20, 15) == [5]


def test_find_quadruplets_1000():
    cfg = SearchConfig(pattern=QUAD, n=1000, wheel_limit=210)
    assert find_pattern_primes(cfg) == [5, 11, 101, 191, 821]


def test_find_quadruplets_5050():
    cfg = SearchConfig(pattern=QUAD, n=5050, sieve_bound=20, wheel_limit=210)
    got = find_pattern_primes(cfg)
    assert 1481 in got
    assert got == [5, 11, 101, 191, 821, 1481, 1871, 2081, 3251, 3461]


def test_find_twins_100():
    cfg = SearchConfig(pattern=TWIN, n=100)
    assert find_pattern_primes(cfg) == [3, 5, 11, 17, 29, 41, 59, 71]


def test_inadmissible_rejected_before_work():
    bad = make_pattern([(1, 0), (1, 1)])
    with pytest.raises(ValueError, match="admissible"):
        run_striped(SearchConfig(pattern=bad, n=1000))


def test_bound_below_pattern_start_rejected():
    with pytest.raises(ValueError, match="below"):
        run_striped(SearchConfig(pattern=QUAD, n=5))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_oracle_equivalence_1e5(name, table_1e6):
    forms = CORPUS[name]
    pattern = make_pattern(forms)
    n = 10**5
    expect = naive_pattern_xs(forms, n, table_1e6)
    got = find_pattern_primes(SearchConfig(pattern=pattern, n=n))
    assert got == expect


@pytest.mark.parametrize("forms", [CORPUS["twin"], CORPUS["quad"]])
def test_config_equivalence_modes(forms, table_1e6):
    pattern = make_pattern(forms)
    n = 10**6
    a = find_pattern_primes(SearchConfig(pattern=pattern, n=n, sieve_bound=math.isqrt(n)))
    b = find_pattern_primes(SearchConfig(pattern=pattern, n=n, space_exp=3.0))
    assert a == b == naive_pattern_xs(forms, n, table_1e6)


def test_monotone_prefix():
    small = find_pattern_primes(SearchConfig(pattern=QUAD, n=10**4))
    large = find_pattern_primes(SearchConfig(pattern=QUAD, n=10**5))
    assert large[: len(small)] == small


@pytest.mark.parametrize("nu", [1, 2, 4, 7])
def test_stripes_partition_and_agree(nu):
    n = 2 * 10**5
    base = run_striped(SearchConfig(pattern=QUAD, n=n, nu=1))
    striped = run_striped(SearchConfig(pattern=QUAD, n=n, nu=nu))
    assert striped.xs == base.xs
    assert striped.count == base.count
    assert striped.recip_sum.hex() == base.recip_sum.hex()
    assert sum(striped.stripe_counts) + striped.boundary_count == striped.count
    assert len(striped.stripe_counts) == nu


def test_emission_order_boundary_first():
    seen = []
    cfg = SearchConfig(pattern=QUAD, n=10**4)
    run_striped(cfg, on_tuple=lambda x, vals: seen.append(x))
    b = boundary_tuples(QUAD, 100, 10**4)
    assert seen[: len(b)] == b
    assert sorted(seen) == find_pattern_primes(cfg)


def test_checkpoint_interrupt_resume_bitwise(tmp_path):
    cfg = SearchConfig(pattern=QUAD, n=10**6, nu=3)
    full = run_striped(cfg)
    ck = tmp_path / "run.ckpt"
    part = run_striped(cfg, checkpoint_path=str(ck), stop_after_residues=9)
    assert not part.completed
    assert ck.exists()
    resumed = run_striped(cfg, checkpoint_path=str(ck))
    assert resumed.resumed and resumed.completed
    assert resumed.count == full.count
    assert resumed.recip_sum.hex() == full.recip_sum.hex()
    assert sorted(set(part.xs) | set(resumed.xs)) == full.xs


def test_checkpoint_digest_mismatch(tmp_path):
    ck = tmp_path / "run.ckpt"
    cfg = SearchConfig(pattern=QUAD, n=10**6, nu=2)
    run_striped(cfg, checkpoint_path=str(ck), stop_after_residues=5)
    other = SearchConfig(pattern=QUAD, n=10**6 + 2, nu=2)
    with pytest.raises(CheckpointError, match="digest"):
        run_striped(other, checkpoint_path=str(ck))
    # changing worker count also refuses
    with pytest.raises(CheckpointError):
        run_striped(SearchConfig(pattern=QUAD, n=10**6, nu=3), checkpoint_path=str(ck))


def test_checkpoint_corrupt_file(tmp_path):
    ck = tmp_path / "run.ckpt"
    cfg = SearchConfig(pattern=QUAD, n=10**5, nu=1)
    run_striped(cfg, checkpoint_path=str(ck), stop_after_residues=2)
    text = ck.read_text().splitlines()
    ck.write_text("\n".join(text[:3]) + "\nstripe: garbage\n")
    with pytest.raises(CheckpointError, match="corrupt|cover|unexpected"):
        run_striped(cfg, checkpoint_path=str(ck))
    ck.write_text("WRONG HEADER\n")
    with pytest.raises(CheckpointError):
        run_striped(cfg, checkpoint_path=str(ck))
    ck.write_text(text[0].replace("v2", "v1") + "\n" + "\n".join(text[1:]) + "\n")
    with pytest.raises(CheckpointError, match="bad checkpoint header"):
        run_striped(cfg, checkpoint_path=str(ck))
    # a live stripe whose cursor is missing, too short or off the wheel
    stripe = text[3]
    cursor = stripe.split("cursor=")[1].split()[0]
    digits = cursor.split(",")
    for bad in (
        stripe.replace(f" cursor={cursor}", ""),
        stripe.replace(cursor, ",".join(digits[:-1])),
        stripe.replace(cursor, ",".join(digits[:-1] + ["99999"])),
    ):
        ck.write_text("\n".join(text[:3] + [bad]) + "\n")
        with pytest.raises(CheckpointError, match="corrupt"):
            run_striped(cfg, checkpoint_path=str(ck))


def test_completed_checkpoint_resume_is_noop(tmp_path):
    ck = tmp_path / "run.ckpt"
    cfg = SearchConfig(pattern=QUAD, n=10**5, nu=2)
    full = run_striped(cfg, checkpoint_path=str(ck))
    again = run_striped(cfg, checkpoint_path=str(ck))
    assert again.resumed and again.completed
    assert again.count == full.count
    assert again.recip_sum.hex() == full.recip_sum.hex()


def test_tiny_n_boundary_only():
    # n=14 leaves no residue in range: everything comes from the scan
    cfg = SearchConfig(pattern=QUAD, n=14, wheel_limit=210)
    res = run_striped(cfg)
    assert res.xs == [5]
    assert res.boundary_count == 1
    assert sum(res.stripe_counts) == 0
    # at n=30 the first residue fits, so x=11 arrives via the sieve path
    res = run_striped(SearchConfig(pattern=QUAD, n=30, wheel_limit=210))
    assert res.xs == [5, 11]
    assert (res.boundary_count, sum(res.stripe_counts)) == (1, 1)


def test_early_abort_output_invariant(table_1e6):
    pattern = chain_pattern("first", 5)
    n = 5 * 10**5
    eager = EarlyAbort(enabled=True, min_live_per=16, check_every=4)
    off = EarlyAbort(enabled=False)
    a = find_pattern_primes(SearchConfig(pattern=pattern, n=n, early_abort=eager))
    b = find_pattern_primes(SearchConfig(pattern=pattern, n=n, early_abort=off))
    assert a == b == naive_pattern_xs(pattern.forms, n, table_1e6)


def test_excluded_wheel_prime_same_output():
    n = 10**5
    base = find_pattern_primes(SearchConfig(pattern=QUAD, n=n))
    skipped = find_pattern_primes(
        SearchConfig(pattern=QUAD, n=n, excluded_wheel_primes=frozenset({5}))
    )
    assert base == skipped


def test_smallest_chain_first_kind():
    # complete chains: unextendable in either direction
    assert smallest_chain("first", 1, 100) == 13
    assert smallest_chain("first", 2, 100) == 3
    assert smallest_chain("first", 3, 1000) == 41
    assert smallest_chain("first", 4, 10**4) == 509
    assert smallest_chain("first", 5, 100) == 2
    assert smallest_chain("first", 6, 10**4) == 89


def test_smallest_chain_second_kind():
    assert smallest_chain("second", 1, 100) == 11
    assert smallest_chain("second", 2, 100) == 7
    assert smallest_chain("second", 3, 100) == 2


def test_smallest_chain_not_found():
    assert smallest_chain("first", 6, 50) is None
