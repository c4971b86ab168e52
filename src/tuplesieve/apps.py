"""The front end every command runs through: one `search` entry point,
the twin and quadruplet censuses, and Cunningham chain listings.

Each census convention lives here and nowhere else: twin pairs count
p < X on the smaller element, quadruplets count tuples whose largest
member is below X.  `search`, `twins`, `quads` and `chain_search` take
the `SearchConfig` fields (nu, sieve_bound, space_exp, wheel) and the
run options (checkpoint_path, on_tuple, progress, keep_xs, output) as
keywords.  wheel, if given, is the wheel's primes, e.g. (2, 3, 5, 7).
nu is the number of processes a run may use, at most the CPUs the
process may run on (its affinity set where the OS keeps one, else the
CPU count): the parent forks one child per range of wheel positions
after the first (see `search.run_striped`).  checkpoint_path names a
file written after every round, from which a killed run resumes.
keep_xs=False keeps no list of x values (the result's `.xs` is None);
`twins` and `quads` always pass it, since a census reports only the
count and the reciprocal sum, and so do the command line's listings.
`smallest_chain` takes the same, except checkpoint_path: it runs one
search per window of x, the windows disjoint and each four times wider
than the last, every one the pattern translated to the window's first
x.  It is defined in `search.py`, the module the chain-hunt benchmark
entry names.
"""

from collections import namedtuple

from .pattern import chain_pattern, make_pattern
from .search import SearchConfig, SearchResult, run_striped, smallest_chain

__all__ = [
    "TupleCensus",
    "search",
    "twins",
    "quads",
    "chain_search",
    "smallest_chain",
    "TWIN_PATTERN",
    "QUAD_PATTERN",
]

TWIN_PATTERN = make_pattern([(1, 0), (1, 2)])
QUAD_PATTERN = make_pattern([(1, 0), (1, 2), (1, 6), (1, 8)])


TupleCensus = namedtuple("TupleCensus", "bound count recip_sum")


def search(pattern, n: int, *, checkpoint_path=None, on_tuple=None, progress=None,
           keep_xs=True, output=None, **cfg) -> SearchResult:
    """Every x with all forms of `pattern` prime and max_i f_i(x) <= n.

    `cfg` holds the `SearchConfig` fields; on_tuple(x, values) fires in
    discovery order and progress(done) every `search.PROGRESS_EVERY`
    residues.  The result's `.xs` lists the x values, sorted, unless
    keep_xs is False.  output is the file on_tuple appends lines to,
    whose length a checkpoint records (see `search.run_striped`).
    """
    return run_striped(SearchConfig(pattern=pattern, n=n, **cfg),
                       checkpoint_path=checkpoint_path, on_tuple=on_tuple,
                       progress=progress, keep_xs=keep_xs, output=output)


def twins(X: int, **kw) -> TupleCensus:
    """Count pairs (p, p+2) with p < X and sum their reciprocals.

    Membership is on the smaller element, so the bound n handed to the
    search is X+1 (p <= X-1 exactly when p+2 <= X+1).
    """
    if X < 5:
        raise ValueError("twin census needs X >= 5 (--x >= 5)")
    res = search(TWIN_PATTERN, X + 1, keep_xs=False, **kw)
    return TupleCensus(bound=X, count=res.count, recip_sum=res.recip_sum)


def quads(X: int, **kw) -> TupleCensus:
    """Count quadruplets (p, p+2, p+6, p+8) with largest member below X."""
    if X < 2:
        raise ValueError("quadruplet census needs X >= 2 (--x >= 2)")
    if X <= 13:
        # the smallest quadruplet tops out at 13, so nothing can fit
        return TupleCensus(bound=X, count=0, recip_sum=0.0)
    res = search(QUAD_PATTERN, X - 1, keep_xs=False, **kw)
    return TupleCensus(bound=X, count=res.count, recip_sum=res.recip_sum)


def chain_search(kind: str, length: int, cap: int, **kw) -> SearchResult:
    """Starts x <= cap of runs of `length` chained primes; `.xs` in order.

    A start here is any x whose first `length` chain values are all
    prime; starts of longer runs qualify too.  Every form has a
    multiplier >= 1, so max f(x) <= max f(cap) exactly when x <= cap.
    smallest_chain() is the record-style variant that demands complete,
    unextendable chains.
    """
    pattern = chain_pattern(kind, length)
    return search(pattern, pattern.max_value(cap), **kw)
