import importlib.util
import math
import re
from pathlib import Path

import tuplesieve.plan as plan_mod
import tuplesieve.search as search_mod
from tuplesieve.apsieve import mask_bytes
from tuplesieve.pattern import chain_pattern, make_pattern
from tuplesieve.search import SearchConfig

from conftest import CORPUS

TWIN = make_pattern(CORPUS["twin"])
ROOT = Path(__file__).resolve().parents[1]


def _plan_grid():
    """tools/plan_grid.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("plan_grid", ROOT / "tools" / "plan_grid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_plan_grid_small_plans_unchanged():
    # the golden grid's plans with B <= 10^4 (422 of its 586), re-planned:
    # B, wheel, prime count and masked primes as the file records them
    golden = (ROOT / "tests" / "data" / "plan_grid.txt").read_text().splitlines()
    assert len(golden) == 586
    want = [line for line in golden if int(re.search(r" B=(\d+) ", line)[1]) <= 10**4]
    assert len(want) == 422
    names = {line.split(":")[0] for line in want}
    grid = _plan_grid()
    assert [grid.plan_line(name, cfg) for name, cfg in grid.grid() if name in names] == want


def test_search_holds_no_planner_name():
    # a test that patched one of these on `search` would patch nothing
    for name in ("resolve_plan", "mask_split", "_resolve_plan", "_mask_split", "_cost_depth",
                 "_floor_depth", "_wheel_moduli", "wheel_primes", "mask_bytes", "PlanError",
                 "SEGMENT_MAX", "SQRT_BOUND_MAX", "LIVE_FLOOR", "CERT_TESTS", "ROW_NS",
                 "TEST_NS", "SEGMENT_NS", "ROW_BYTES", "TEST_BYTES"):
        assert not hasattr(search_mod, name), name
    # the one it keeps: the traced benchmark wraps `search.make_plan`
    assert search_mod.make_plan is plan_mod.make_plan


def test_wheel_moduli_caps_segments():
    # twins at 2^48 sieve 2 x 1077871 rows a segment: the cost model alone
    # stops at 17#, whose 5.5e8-byte segments SEGMENT_MAX does not allow
    x_top = TWIN.x_max(2**48)
    moduli = plan_mod._wheel_moduli(TWIN, x_top, 2 * 1077871)
    assert moduli == (2, 3, 5, 7, 11, 13, 17, 19, 23)
    W = math.prod(moduli)
    assert x_top // W <= plan_mod.SEGMENT_MAX < x_top // (W // 23)


def test_mask_split_pays_for_building_the_masks():
    # the length-9 hunt's window (2^17, 2^19] is one segment of 13108
    # bytes: its 14 rows would save less there than building their masks
    chain = chain_pattern("first", 9)
    ctx = search_mod.make_context(SearchConfig(pattern=chain.shifted(2**17 + 1),
                                               n=chain.max_value(2**19)))
    assert ctx.wheel.residue_count() == 1 and len(ctx.table) == 14 and ctx.masks == ()
    # the same rows over ten such segments are masks
    masks, rows = plan_mod.mask_split(ctx.pattern, ctx.table, ctx.L, 10)
    assert len(masks) == 14 and rows == ()


def test_mask_split_length_15_target_within_budget(monkeypatch):
    chain = chain_pattern("first", 15)
    cfg = SearchConfig(pattern=chain, n=chain.max_value(90616211958465842219))

    def held_bytes(ctx):
        held = sum((M.bit_length() + 7) // 8 for _, _, M in ctx.masks)
        assert held <= sum(mask_bytes(p, ctx.L) for p, _, _ in ctx.masks)
        return held

    ctx = search_mod.make_context(cfg)
    # 297835-byte segments on 41#: the small primes' rows are masks, the rest strides
    assert ctx.L == 297835 and ctx.masks and ctx.table
    assert len(ctx.masks) + len(ctx.table) == len(ctx.plan.sieve_primes(ctx.wheel.moduli))
    assert max(p for p, _, _ in ctx.masks) < min(row[0] for row in ctx.table)
    assert held_bytes(ctx) <= plan_mod.SEGMENT_MAX
    # a smaller budget binds, and the masks stay within it
    monkeypatch.setattr(plan_mod, "SEGMENT_MAX", 10**6)
    small = search_mod.make_context(cfg)
    assert 0 < len(small.masks) < len(ctx.masks)
    assert held_bytes(small) <= 10**6
    assert small.masks == ctx.masks[:len(small.masks)]
