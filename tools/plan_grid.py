"""Print the planner's choice for a fixed grid of runs, one line per plan.

    python tools/plan_grid.py > grid.txt    # PYTHONPATH=src unless installed
    diff tests/data/plan_grid.txt grid.txt

Each line names a run and gives its sieve depth B, the wheel's primes,
how many primes up to B the plan lists, and the primes whose start-table
rows `plan.mask_split` applies as masks.  The grid holds 586 runs:

- the twin and quadruplet censuses (`apps.twins`, `apps.quads`) to
  X = 10^4 .. 10^18;
- chains of both kinds, lengths 2-17, for x <= 10^4 .. 10^20
  (`apps.chain_search`);
- every window of `smallest_chain("first", 9, 10**9)`, searched to its
  cap;
- the length-15 record's target, x <= 90616211958465842219.

`tests/data/plan_grid.txt` is this output as the code last left it: a
change to the planner that moves a plan shows as a diff.  Nothing is
sieved, and the mask choice reads the start table's rows lazily: a plan
that takes no masks derives only the rows its scan reads, so the whole
grid takes seconds.
"""

from tuplesieve import plan as planner
from tuplesieve.apps import QUAD_PATTERN, TWIN_PATTERN
from tuplesieve.apsieve import root_rows
from tuplesieve.pattern import chain_pattern
from tuplesieve.search import SearchConfig, chain_windows
from tuplesieve.wheel import build_wheel


def grid():
    """Yield (name, SearchConfig) for every run of the grid, in order."""
    for e in range(4, 19):
        # the censuses' bounds: twins count p < X, quadruplets a largest member below X
        yield f"twins 1e{e}", SearchConfig(pattern=TWIN_PATTERN, n=10**e + 1)
        yield f"quads 1e{e}", SearchConfig(pattern=QUAD_PATTERN, n=10**e - 1)
    for kind in ("first", "second"):
        for length in range(2, 18):
            chain = chain_pattern(kind, length)
            for e in range(4, 21):
                yield f"{kind}-{length} x<=1e{e}", SearchConfig(pattern=chain,
                                                                 n=chain.max_value(10**e))
    # the windows as `smallest_chain` cuts them, each the pattern shifted to its first x
    chain = chain_pattern("first", 9)
    for s, x_hi in chain_windows(10**9):
        yield (f"first-9 window {s}..{x_hi}",
               SearchConfig(pattern=chain.shifted(s), n=chain.max_value(x_hi)))
    chain = chain_pattern("first", 15)
    yield "first-15 x<=90616211958465842219", SearchConfig(
        pattern=chain, n=chain.max_value(90616211958465842219))


def plan_line(name, cfg) -> str:
    """The grid's line for one run: B, wheel, prime count, masked primes."""
    B, moduli, primes = planner.resolve_plan(cfg)
    wheel = build_wheel(cfg.pattern, moduli)
    L = cfg.pattern.x_max(cfg.n) // wheel.W + 1
    plan = planner.make_plan(B, moduli, primes)
    rows = root_rows(cfg.pattern, iter(plan.sieve_primes(wheel.moduli)), wheel.W)
    masks, _ = planner.mask_split(cfg.pattern, rows, L, wheel.residue_count())
    return (f"{name}: B={B} wheel={','.join(map(str, moduli))} "
            f"primes={len(primes)} masked={','.join(str(p) for p, _, _ in masks)}")


if __name__ == "__main__":
    for name, cfg in grid():
        print(plan_line(name, cfg))
