"""Census commands built on the pattern search: twin pairs with their
reciprocal sum, prime quadruplets, and Cunningham chain hunting.

Membership conventions differ by census and are part of each command's
contract: twin pairs count p < X on the smaller element, quadruplets
count tuples whose largest member is below X.
"""

from dataclasses import dataclass

from .kahan import KahanBuckets
from .pattern import chain_pattern, make_pattern
from .primality import EMBEDDED_TABLE
from .search import SearchConfig, run_striped, smallest_chain

__all__ = [
    "TupleCensus",
    "twins",
    "quads",
    "chain_search",
    "smallest_chain",
    "KahanBuckets",
    "TWIN_PATTERN",
    "QUAD_PATTERN",
]

TWIN_PATTERN = make_pattern([(1, 0), (1, 2)])
QUAD_PATTERN = make_pattern([(1, 0), (1, 2), (1, 6), (1, 8)])


@dataclass(frozen=True)
class TupleCensus:
    bound: int
    count: int
    recip_sum: float


def _census(pattern, n, bound, nu=1, table=EMBEDDED_TABLE, **kw) -> TupleCensus:
    cfg = SearchConfig(pattern=pattern, n=n, nu=nu, **kw)
    res = run_striped(cfg, table=table)
    return TupleCensus(bound=bound, count=res.count, recip_sum=res.recip_sum)


def twins(X: int, nu: int = 1, **kw) -> TupleCensus:
    """Count pairs (p, p+2) with p < X and sum their reciprocals.

    Membership is on the smaller element, so the bound n handed to the
    search is X+1 (p <= X-1 exactly when p+2 <= X+1).
    """
    if X < 5:
        raise ValueError("twin census needs X >= 5")
    return _census(TWIN_PATTERN, X + 1, X, nu=nu, **kw)


def quads(X: int, nu: int = 1, **kw) -> TupleCensus:
    """Count quadruplets (p, p+2, p+6, p+8) with largest member below X."""
    if X < 2:
        raise ValueError("quadruplet census needs X >= 2")
    if X <= 13:
        # the smallest quadruplet tops out at 13, so nothing can fit
        return TupleCensus(bound=X, count=0, recip_sum=0.0)
    return _census(QUAD_PATTERN, X - 1, X, nu=nu, **kw)


def chain_search(kind: str, length: int, cap: int, nu: int = 1,
                 table=EMBEDDED_TABLE, progress=None) -> list:
    """Starts x <= cap of runs of `length` chained primes, in order.

    A start here is any x whose first `length` chain values are all
    prime; starts of longer runs qualify too.  smallest_chain() is the
    record-style variant that demands complete, unextendable chains.
    """
    pattern = chain_pattern(kind, length)
    n = pattern.max_value(cap)
    cfg = SearchConfig(pattern=pattern, n=n, nu=nu)
    res = run_striped(cfg, table=table, progress=progress, progress_every=10000)
    return [x for x in res.xs if x <= cap]
