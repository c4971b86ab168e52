"""tuplesieve: find every x where all forms of a linear pattern are prime.

Given k linear forms a_i*x + b_i and a bound n, the search reports all
x >= 0 with every form value prime and the largest value at most n.  A
wheel over small primes enumerates candidate residues, a segmented
sieve in arithmetic progressions clears composites up to a bound B, and
survivors are certified with a base-2 strong test plus the pseudosquares
prime test (deterministic Miller-Rabin under proven thresholds as the
fallback).  Ships census helpers for twin pairs, prime quadruplets, and
Cunningham chains.
"""

from .apsieve import (
    EarlyAbort,
    SievePlan,
    SieveSegment,
    make_plan,
    sieve_segment,
    start_table,
    survivors,
)
from .apps import (
    QUAD_PATTERN,
    TWIN_PATTERN,
    TupleCensus,
    chain_search,
    quads,
    twins,
)
from .arith import WIDE_MAX, NotInvertibleError, modinv, mulmod, powmod
from .kahan import KahanAccumulator, KahanBuckets, kahan_add, kahan_merge
from .pattern import (
    Pattern,
    PatternError,
    ResidueMask,
    acceptable_residues,
    admissible,
    chain_pattern,
    format_pattern,
    make_pattern,
    parse_pattern,
)
from .primality import (
    EMBEDDED_TABLE,
    PseudosquareTable,
    TableCapacityError,
    compute_pseudosquares,
    is_prime,
    load_table,
    pseudosquares_test,
    save_table,
    sprp_base2,
)
from .search import (
    CheckpointError,
    SearchConfig,
    SearchResult,
    boundary_tuples,
    find_pattern_primes,
    run_striped,
    smallest_chain,
)
from .wheel import Wheel, WheelError, build_wheel

__version__ = "0.1.0"
