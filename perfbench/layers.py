"""The library names the traced run wraps, and the per-layer metrics
derived from their spans and results.

Each target is a name a module looks up when it calls it, so wrapping
the module attribute (or the class attribute, for methods) sees every
call without touching the library's source.  A metric whose span names
could not be wrapped, or whose observer failed on a changed result, is
reported as None rather than 0.
"""

import importlib
import math
import types


class Observed:
    """Counts read from the results of wrapped calls."""

    def __init__(self):
        self.tuples = 0
        self.boundary_tuples = 0
        self.plan_primes = 0
        self.plan = None
        self.runs = []  # per search run: [pattern, sieve primes, segment bytes]
        self.residues = 0
        self.segment_bytes = 0
        self.max_segment_bytes = 0
        self.primes_applied = 0
        self.early_aborts = 0
        self.survivors = 0
        self.sprp_rejects = 0
        self.mr_fallbacks = 0
        self.capacity_error = None

    def run_striped(self, args, res):
        self.tuples += res.count

    def boundary(self, args, res):
        self.boundary_tuples += len(res)

    def make_plan(self, args, plan):
        self.plan_primes += len(plan.primes)
        self.plan = plan

    def build_wheel(self, args, wheel):
        # the search splits the plan's primes the same way right after this
        self.runs.append([args[0], self.plan.sieve_primes(wheel.moduli), 0])

    def next_residue(self, args, r):
        self.residues += r is not None

    def sieve_segment(self, args, seg):
        size = len(seg.bits)
        self.segment_bytes += size
        self.max_segment_bytes = max(self.max_segment_bytes, size)
        self.primes_applied += seg.applied
        self.early_aborts += bool(seg.aborted)
        self.runs[-1][2] += size

    def survivors_of(self, args, xs):
        self.survivors += len(xs)

    def sprp(self, args, ok):
        self.sprp_rejects += not ok

    def psq_raised(self, exc):
        if isinstance(exc, self.capacity_error):
            self.mr_fallbacks += 1


# span name -> ("module:attribute" places the library looks the callable
# up, observer of its results, observer of its exceptions)
TARGETS = {
    "search.run_striped": (("tuplesieve.apps:run_striped", "tuplesieve.search:run_striped"),
                           Observed.run_striped, None),
    "search.boundary_tuples": (("tuplesieve.search:boundary_tuples",), Observed.boundary, None),
    "apsieve.make_plan": (("tuplesieve.search:make_plan",), Observed.make_plan, None),
    "wheel.build_wheel": (("tuplesieve.search:build_wheel",), Observed.build_wheel, None),
    "wheel.next_residue": (("tuplesieve.wheel:Wheel.next_residue",), Observed.next_residue, None),
    "apsieve.sieve_segment": (("tuplesieve.search:sieve_segment",), Observed.sieve_segment, None),
    "apsieve.survivors": (("tuplesieve.search:survivors",), Observed.survivors_of, None),
    "primality.sprp_base2": (("tuplesieve.search:sprp_base2",), Observed.sprp, None),
    "primality.is_prime": (("tuplesieve.search:is_prime",), None, None),
    "primality.pseudosquares_test": (("tuplesieve.primality:pseudosquares_test",),
                                     None, Observed.psq_raised),
    "arith.powmod": (("tuplesieve.primality:powmod",), None, None),
    "arith.modinv": (("tuplesieve.apsieve:modinv",), None, None),
    "pattern.evaluate": (("tuplesieve.pattern:Pattern.evaluate",), None, None),
    "pattern.min_value": (("tuplesieve.pattern:Pattern.min_value",), None, None),
    "kahan.add_group": (("tuplesieve.kahan:KahanBuckets.add_group",), None, None),
    "kahan.fold_into": (("tuplesieve.kahan:KahanBuckets.fold_into",), None, None),
}


def _resolve(spec):
    module, _, attr = spec.partition(":")
    *path, leaf = attr.split(".")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, leaf
    for part in path:
        owner = getattr(owner, part, None)
    return owner, leaf


def install(tracer) -> Observed:
    """Wrap every target; the observers fill the returned record."""
    obs = Observed()
    primality = importlib.import_module("tuplesieve.primality")
    obs.capacity_error = getattr(primality, "TableCapacityError", ())
    for name, (specs, on_return, on_raise) in TARGETS.items():
        on_return, on_raise = (f and types.MethodType(f, obs) for f in (on_return, on_raise))
        for spec in specs:
            owner, leaf = _resolve(spec)
            if owner is not None:
                tracer.patch(owner, leaf, name, on_return, on_raise)
    return obs


def _predicted_ratio(runs):
    """Segment-byte weighted mean, over search runs, of the product of
    popcount(acceptable_residues(p)) / p over the run's sieve primes."""
    from tuplesieve.pattern import acceptable_residues

    weight = sum(size for _, _, size in runs)
    if not weight:
        return None
    total = 0.0
    for pattern, primes, size in runs:
        ratio = math.prod(acceptable_residues(pattern, p).popcount / p for p in primes)
        total += size * ratio
    return total / weight


# metric -> (span names it needs, whether it is a time, value from
# (calls, self_s, span_s, observed))
METRICS = {
    "search.runs": (("search.run_striped",), False, lambda c, s, t, o: c["search.run_striped"]),
    "search.run_s": (("search.run_striped",), True, lambda c, s, t, o: t["search.run_striped"]),
    "search.accounting_s": (("search.run_striped",), True, lambda c, s, t, o: s["search.run_striped"]),
    "search.tuples": (("search.run_striped",), False, lambda c, s, t, o: o.tuples),
    "search.boundary_s": (("search.boundary_tuples",), True,
                          lambda c, s, t, o: t["search.boundary_tuples"]),
    "search.boundary_tuples": (("search.boundary_tuples",), False,
                               lambda c, s, t, o: o.boundary_tuples),
    "pattern.evaluate_calls": (("pattern.evaluate",), False, lambda c, s, t, o: c["pattern.evaluate"]),
    "pattern.min_value_calls": (("pattern.min_value",), False,
                                lambda c, s, t, o: c["pattern.min_value"]),
    "kahan.add_group_calls": (("kahan.add_group",), False, lambda c, s, t, o: c["kahan.add_group"]),
    "kahan.s": (("kahan.add_group", "kahan.fold_into"), True,
                lambda c, s, t, o: s["kahan.add_group"] + s["kahan.fold_into"]),
    "wheel.build_s": (("wheel.build_wheel",), True, lambda c, s, t, o: s["wheel.build_wheel"]),
    "wheel.residues": (("wheel.next_residue",), False, lambda c, s, t, o: o.residues),
    "apsieve.plan_s": (("apsieve.make_plan",), True, lambda c, s, t, o: s["apsieve.make_plan"]),
    "apsieve.plan_primes": (("apsieve.make_plan",), False, lambda c, s, t, o: o.plan_primes),
    "apsieve.sieve_s": (("apsieve.sieve_segment",), True,
                        lambda c, s, t, o: s["apsieve.sieve_segment"]),
    "apsieve.segments": (("apsieve.sieve_segment",), False,
                         lambda c, s, t, o: c["apsieve.sieve_segment"]),
    "apsieve.segment_bytes": (("apsieve.sieve_segment",), False, lambda c, s, t, o: o.segment_bytes),
    "apsieve.max_segment_bytes": (("apsieve.sieve_segment",), False,
                                  lambda c, s, t, o: o.max_segment_bytes),
    "apsieve.primes_applied": (("apsieve.sieve_segment",), False,
                               lambda c, s, t, o: o.primes_applied),
    "apsieve.early_aborts": (("apsieve.sieve_segment",), False, lambda c, s, t, o: o.early_aborts),
    "apsieve.survivors_s": (("apsieve.survivors",), True, lambda c, s, t, o: s["apsieve.survivors"]),
    "apsieve.survivors": (("apsieve.survivors",), False, lambda c, s, t, o: o.survivors),
    "apsieve.survivor_ratio": (("apsieve.survivors", "apsieve.sieve_segment"), False,
                               lambda c, s, t, o: o.survivors / o.segment_bytes
                               if o.segment_bytes else None),
    "apsieve.predicted_survivor_ratio": (
        ("apsieve.make_plan", "wheel.build_wheel", "apsieve.sieve_segment"), False,
        lambda c, s, t, o: _predicted_ratio(o.runs)),
    "arith.modinv_calls": (("arith.modinv",), False, lambda c, s, t, o: c["arith.modinv"]),
    "arith.powmod_calls": (("arith.powmod",), False, lambda c, s, t, o: c["arith.powmod"]),
    "primality.sprp_calls": (("primality.sprp_base2",), False,
                             lambda c, s, t, o: c["primality.sprp_base2"]),
    "primality.sprp_rejects": (("primality.sprp_base2",), False, lambda c, s, t, o: o.sprp_rejects),
    "primality.sprp_s": (("primality.sprp_base2",), True,
                         lambda c, s, t, o: s["primality.sprp_base2"]),
    "primality.is_prime_calls": (("primality.is_prime",), False,
                                 lambda c, s, t, o: c["primality.is_prime"]),
    "primality.is_prime_s": (("primality.is_prime",), True, lambda c, s, t, o: s["primality.is_prime"]),
    "primality.psq_calls": (("primality.pseudosquares_test",), False,
                            lambda c, s, t, o: c["primality.pseudosquares_test"]),
    "primality.psq_s": (("primality.pseudosquares_test",), True,
                        lambda c, s, t, o: s["primality.pseudosquares_test"]),
    "primality.mr_fallbacks": (("primality.pseudosquares_test",), False,
                               lambda c, s, t, o: o.mr_fallbacks),
}

TIMED = frozenset(name for name, (_, timed, _) in METRICS.items() if timed)


def layer_metrics(tracer, obs, totals) -> dict:
    """Every metric in METRICS, None where a span it needs is missing.
    totals is tracer.totals()."""
    calls, self_s, span_s = totals
    out = {}
    for name, (needs, _, value) in METRICS.items():
        ok = all(n in tracer.installed and n not in tracer.broken for n in needs)
        out[name] = value(calls, self_s, span_s, obs) if ok else None
    return out


def layer_shares(self_s: dict, wall: float) -> dict:
    """Self time per layer (the span name's prefix) as a share of the
    traced wall time; the entry point's own time is charged to 'other'."""
    shares = {}
    for name, sec in self_s.items():
        layer = name.split(".")[0] if name in TARGETS else "other"
        shares[layer] = shares.get(layer, 0.0) + sec / wall
    return shares
