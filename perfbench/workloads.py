"""The benchmark's workloads: fixed mathematical problems with published answers.

Each workload is one call into the library's public entry points.  The
full sizes are the benchmark; the smoke sizes run the same calls at desk
scale for the benchmark's own tests.
"""

import importlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str            # "module:function" under tuplesieve
    args: tuple
    kwargs: tuple = ()    # (key, value) pairs
    census: str = ""      # "twins" or "quads": recip_sum is checked too
    expected: int = 0     # published count, or the published answer

    def call(self):
        module, _, func = self.entry.partition(":")
        fn = getattr(importlib.import_module(f"tuplesieve.{module}"), func)
        return fn(*self.args, **dict(self.kwargs))


WORKLOADS = {
    # pi_2(10^8) = 440312: long-segment sieving and per-tuple accounting
    # with no survivor prime tests (sqrt mode); two stripes
    "twins-census": Workload("twins-census", "apps:twins", (10**8,), (("nu", 2),),
                             census="twins", expected=440312),
    # 4768 quadruplets below 10^8: the c=3 mode, where prime tests dominate
    "quads-census": Workload("quads-census", "apps:quads", (10**8,),
                             census="quads", expected=4768),
    # 85864769 starts the least complete first-kind chain of length 9:
    # many short segments with early aborts, and repeated per-run set-up
    "chain-hunt": Workload("chain-hunt", "search:smallest_chain", ("first", 9, 10**9),
                           expected=85864769),
}

SMOKE = {
    "twins-census": Workload("twins-census", "apps:twins", (10**5,), (("nu", 2),),
                             census="twins", expected=1224),
    "quads-census": Workload("quads-census", "apps:quads", (5050,),
                             census="quads", expected=10),
    "chain-hunt": Workload("chain-hunt", "search:smallest_chain", ("first", 6, 10**4),
                           expected=89),
}


def get(name: str, smoke: bool = False) -> Workload:
    return (SMOKE if smoke else WORKLOADS)[name]
