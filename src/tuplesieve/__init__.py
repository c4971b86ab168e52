"""tuplesieve: find every x where all forms of a linear pattern are prime.

Given k linear forms a_i*x + b_i and a bound n, the search reports all
x >= 0 with every form value prime and the largest value at most n.  A
wheel over small primes enumerates candidate residues, a segmented
sieve in arithmetic progressions clears composites up to a bound B, and
survivors are certified with a base-2 strong test and then strong tests
over base sets with proven thresholds (deterministic Miller-Rabin).
Ships census helpers for twin pairs, prime quadruplets, and Cunningham
chains.

The package namespace holds the entry points the README shows and the
errors the command line maps to exit codes; everything else is
imported from its own module (`tuplesieve.apps`, `tuplesieve.search`,
...).
"""

from .apps import quads, smallest_chain, twins
from .pattern import PatternError, parse_pattern
from .primality import TableCapacityError
from .plan import PlanError
from .search import CheckpointError, SearchConfig, find_pattern_primes, run_striped
from .wheel import WheelError

__version__ = "0.1.0"
