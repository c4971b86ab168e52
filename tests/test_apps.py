import math
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuplesieve.kahan as kahan_mod
import tuplesieve.search as search_mod
from tuplesieve.apps import QUAD_PATTERN, chain_search, quads, twins
from tuplesieve.arith import WIDE_MAX
from tuplesieve.kahan import UNIT_EXP, KahanBuckets
from tuplesieve.search import SearchConfig, run_striped

from conftest import collect_xs, run_interrupted, sieve_table

# terms where float(v) rounds (2**53 + 1), 1/v sits at the width cap, or
# 1/v has a full significand down to the smallest unit (3 * 2**125)
EDGE_VALUES = [2, 3, 2**53 + 1, 3 * 2**125, WIDE_MAX // 3, WIDE_MAX] + [
    3 + 2 * i for i in range(5000)
]


def test_add_group_matches_fsum_in_any_order():
    want = math.fsum(1.0 / v for v in EDGE_VALUES)
    for order in (EDGE_VALUES, EDGE_VALUES[::-1]):
        acc = KahanBuckets()
        for i in range(0, len(order), 4):
            acc.add_group(order[i : i + 4])
        assert acc.value().hex() == want.hex()
    # a single term is rounded exactly once, to itself
    for v in EDGE_VALUES[:6]:
        one = KahanBuckets()
        one.add_group([v])
        assert one.value().hex() == (1.0 / v).hex()


def oracle_units(vals):
    """Each term converted on its own: 2^UNIT_EXP / v is 1.0 / v scaled
    by a power of two, so its int() is the term's exact unit count."""
    return sum(int(float(1 << UNIT_EXP) / v) for v in vals)


NEAR_2_53 = [2**53 + d for d in range(-3, 4)]
NEAR_WIDE_MAX = [WIDE_MAX - d for d in range(4)] + [WIDE_MAX // 2 + d for d in range(-2, 3)]
ORACLE_CASES = {
    "empty": [],
    "one": [1],
    "two": [2],
    "three": [3],
    "seven": [7],
    "2^53+1": [2**53 + 1],
    "wide_max": [WIDE_MAX],
    "edge": EDGE_VALUES,
    # 1/3 has a full significand, so 10^5 copies need more than one pass
    "threes": [3] * 10**5,
    "small_and_near_2^53": [*range(1, 10), *NEAR_2_53] * 50,
    "small_and_near_wide_max": [*NEAR_WIDE_MAX, *range(1, 10)] * 50,
    "all_mixed": [*range(1, 10), *NEAR_2_53, *NEAR_WIDE_MAX, 3 * 2**125] * 200,
    # 2^-60 is lost next to 1.0 in any sum(), so the first pass leaves
    # 50 * 2^-60, past 2^-bits(2^60): the one-fsum stop is refused
    "refused": [1, 2**60] * 50,
}


def _split_sums(vals, step):
    acc = KahanBuckets()
    for i in range(0, len(vals), step):
        acc.add_group(vals[i : i + step])
    return acc.units


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_add_group_units_match_per_term_oracle(name, monkeypatch):
    vals = ORACLE_CASES[name]
    want = oracle_units(vals)
    passes = []

    def fsum(terms):
        passes.append(len(terms))
        return math.fsum(terms)

    monkeypatch.setattr(kahan_mod, "math", types.SimpleNamespace(fsum=fsum, ldexp=math.ldexp))
    acc = KahanBuckets()
    acc.add_group(iter(vals))
    assert acc.units == want
    # the pass bound proved in add_group's docstring
    assert len(passes) <= -(-want.bit_length() // 53) + 1
    # any order, any split into groups
    assert _split_sums(vals[::-1], len(vals) or 1) == want
    for step in (1, 7, 1000):
        if len(vals) // step <= 10**4:
            assert _split_sums(vals, step) == want
            assert _split_sums(vals[::-1], step) == want


@settings(max_examples=300, deadline=None)
@given(vals=st.lists(st.integers(1, WIDE_MAX), max_size=40), data=st.data())
def test_add_group_units_match_oracle_on_any_ints(vals, data):
    want = oracle_units(vals)
    one = KahanBuckets()
    one.add_group(vals)
    assert one.units == want
    cut = data.draw(st.integers(0, len(vals)))
    order = data.draw(st.permutations(vals))
    parts = KahanBuckets()
    parts.add_group(order[:cut])
    parts.add_group(order[cut:])
    assert parts.units == want


# forms a*x + b, with x large enough that every value is at least 1 and
# small enough that it fits the width
FORMS = st.lists(st.one_of(st.sampled_from([(1, 0), (1, 2), (1, -2)]),
                           st.tuples(st.integers(1, 64), st.integers(-10**4, 10**4))),
                 min_size=1, max_size=4)
FORM_XS = st.lists(st.one_of(st.integers(10**4 + 1, 10**7),
                             st.integers(10**4 + 1, (WIDE_MAX - 10**4) // 64)), max_size=30)


@settings(max_examples=300, deadline=None)
@given(forms=FORMS, xs=FORM_XS, data=st.data())
def test_add_group_forms_match_per_term_oracle(forms, xs, data):
    vals = [a * x + b for a, b in forms for x in xs]
    want = oracle_units(vals)
    for top in (max(vals, default=1), WIDE_MAX):
        one = KahanBuckets()
        one.add_group(xs, forms, top)
        assert one.units == want
        cut = data.draw(st.integers(0, len(xs)))
        order = data.draw(st.permutations(xs))
        parts = KahanBuckets()
        parts.add_group(order[:cut], forms, top)
        parts.add_group(order[cut:], forms[::-1], top)
        assert parts.units == want
        singles = KahanBuckets()
        for x in order:
            singles.add_group([x], forms, top)
        assert singles.units == want


def _count_passes(monkeypatch):
    """Patch kahan's fsum; the returned list gets each pass's result."""
    results = []

    def fsum(terms):
        results.append(math.fsum(terms))
        return results[-1]

    monkeypatch.setattr(kahan_mod, "math", types.SimpleNamespace(fsum=fsum, ldexp=math.ldexp))
    return results


@pytest.mark.parametrize("name", sorted(set(ORACLE_CASES) - {"empty"}))
@pytest.mark.parametrize("at_max", [True, False])
def test_add_group_stops_after_the_exact_pass(name, at_max, monkeypatch):
    vals = ORACLE_CASES[name]
    top = max(vals) if at_max else WIDE_MAX
    results = _count_passes(monkeypatch)
    acc = KahanBuckets()
    acc.add_group(vals, top=top)
    assert acc.units == oracle_units(vals)
    # the early stops proved in add_group's docstring: an fsum pass below
    # 2^-bits(top) is the remainder itself, and one below 2^(53 - bits(top))
    # leaves a remainder the next pass returns so
    assert (len(results) == 1) == (abs(results[0]) < 2.0 ** -top.bit_length())
    if abs(results[0]) < 2.0 ** (53 - top.bit_length()):
        assert len(results) <= 2
    else:
        assert len(results) <= -(-acc.units.bit_length() // 53) + 1
    if name == "refused":
        assert len(results) > 1


def test_census_chunks_take_one_fsum_pass(monkeypatch):
    # every value is at most n = 10^6 and the plain sum of a chunk's terms
    # errs by far less than 2^-20, so the first fsum pass is the exact remainder
    results = _count_passes(monkeypatch)
    groups = []
    add_group = KahanBuckets.add_group

    def counted(self, xs, *args):
        before = len(results)
        add_group(self, xs, *args)
        groups.append((len(xs), len(results) - before))

    monkeypatch.setattr(KahanBuckets, "add_group", counted)
    census = twins(10**6, nu=1)  # one process, so the patches see every chunk
    assert census.count == 8169
    assert census.recip_sum.hex() == "0x1.b5f57a188e2dbp+0"  # the README's sum
    assert sum(size > 0 for size, _ in groups) > 2
    assert all(passes == (size > 0) for size, passes in groups)


def test_fold_into_equals_one_sum():
    whole = KahanBuckets()
    whole.add_group(EDGE_VALUES)
    parts = [KahanBuckets() for _ in range(7)]
    for i, v in enumerate(EDGE_VALUES):
        parts[i % 7].add_group([v])
    total = KahanBuckets()
    for part in reversed(parts):
        part.fold_into(total)
    KahanBuckets().fold_into(total)  # an empty part adds nothing
    assert total.units == whole.units
    assert total.value().hex() == whole.value().hex()


def test_checkpoint_sum_round_trips(tmp_path, monkeypatch):
    monkeypatch.setattr(search_mod, "_cpu_limit", lambda: 3)
    ck = tmp_path / "run.ckpt"
    # W = 2310 leaves 21 residues; the default plan's W = 30 would leave one
    cfg = SearchConfig(pattern=QUAD_PATTERN, n=10**6, nu=3, wheel=(2, 3, 5, 7, 11))
    full = run_striped(cfg)
    killed = run_interrupted(cfg, 3, ck)
    fields = dict(line.split(" ", 1) for line in ck.read_text().splitlines()[1:])
    assert fields["position"] == "9"
    # the boundary tuples are emitted first
    sieve_xs = killed[full.boundary_count :]
    assert sieve_xs
    want = math.fsum(1.0 / (x + d) for x in sieve_xs for d in (0, 2, 6, 8))
    assert KahanBuckets(int(fields["sum"])).value().hex() == want.hex()
    assert fields["count"] == str(len(sieve_xs))
    resumed = run_striped(cfg, checkpoint_path=str(ck))
    assert resumed.recip_sum.hex() == full.recip_sum.hex()


def test_twins_sum_is_fsum_for_every_worker_count(table_1e6):
    X = 10**4
    terms = [1.0 / q for p in range(2, X) if table_1e6[p] and table_1e6[p + 2]
             for q in (p, p + 2)]
    want = math.fsum(terms)
    for nu in (1, 2, 3, 5):
        assert twins(X, nu=nu).recip_sum.hex() == want.hex(), nu


def test_twins_census_small_oracle(table_1e6):
    X = 10**5
    pairs = [p for p in range(2, X) if table_1e6[p] and table_1e6[p + 2]]
    want_sum = math.fsum(1.0 / q for p in pairs for q in (p, p + 2))
    c = twins(X)
    assert c.count == len(pairs)
    assert c.recip_sum == want_sum


def test_twins_membership_is_strict():
    # pairs with p < X: at X=5 only (3,5) qualifies, (5,7) does not
    assert twins(5).count == 1
    assert twins(6).count == 2
    with pytest.raises(ValueError):
        twins(4)


def test_quads_census_5050(table_1e6):
    c = quads(5050)
    assert c.count == 10
    xs = [x for x in range(2, 5042) if all(table_1e6[x + d] for d in (0, 2, 6, 8))]
    assert xs == [5, 11, 101, 191, 821, 1481, 1871, 2081, 3251, 3461]
    want = math.fsum(1.0 / (x + d) for x in xs for d in (0, 2, 6, 8))
    assert c.recip_sum == want


def test_quads_membership_largest_below():
    assert quads(10).count == 0
    assert quads(13).count == 0  # largest member must be strictly below X
    assert quads(14).count == 1


def test_census_monotone():
    counts = [twins(X).count for X in (10**3, 10**4, 10**5)]
    assert counts == sorted(counts)
    qc = [quads(X).count for X in (10**3, 10**4, 10**5)]
    assert qc == sorted(qc)


def test_chain_search_first_kind():
    _, starts = collect_xs(chain_search, "first", 6, 10**5)
    assert starts[0] == 89
    # runs of >= 6 chained primes; every reported start checks out
    t = sieve_table(64 * 10**5 + 64)
    for x in starts:
        v = x
        for _ in range(6):
            assert t[v]
            v = 2 * v + 1


def test_chain_search_second_kind_length2():
    assert collect_xs(chain_search, "second", 2, 100)[1] == [2, 3, 7, 19, 31, 37, 79, 97]


def test_chain_search_includes_longer_runs():
    # 2 begins a run of five first-kind primes, so it starts every shorter run
    for length in (1, 2, 3, 4, 5):
        assert 2 in collect_xs(chain_search, "first", length, 10)[1]
