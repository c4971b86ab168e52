"""Outside-in span tracer: wraps callables that a program looks up at call
time and records one span per call.

A span is (name, parent, start, end, run id).  Spans are kept in flat
in-memory arrays while the program runs and written out once at the
end, so recording costs a few appends per call and no I/O.  The tracer
assumes one thread: the parent of a span is whatever span was open when
the call started.

A wrapper's own bookkeeping runs partly outside its span, so it lands in
the caller's self time.  outside_cost() measures that part per call on a
no-op, and totals() can subtract it, once per wrapped child call, from
each caller's self time.
"""

import functools
import json
from array import array
from collections import Counter
from time import perf_counter

SPAN_FORMAT = "perfbench-spans-1"
_FIELDS = (("name", "H"), ("parent", "i"), ("start", "d"), ("end", "d"), ("run", "H"))


class Tracer:
    def __init__(self):
        self.names = []          # span names; a span stores the index
        self.name = array("H")
        self.parent = array("i")  # -1 for a root span
        self.start = array("d")
        self.end = array("d")
        self.run = array("H")
        self.raised = {}         # span index -> exception class name
        self.run_id = 0
        self.installed = set()   # span names with at least one wrapped target
        self.broken = {}         # span name -> error raised by its observer
        self.observed = set()    # span names wrapped with a result observer
        self._stack = [-1]
        self._undo = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, on_return=None, on_raise=None):
        """A stand-in for fn that records a span per call.

        Arguments, results and exceptions pass through unchanged.  The
        optional observers see (args, result) or the exception after the
        span has ended; an observer that fails marks the span name as
        broken instead of disturbing the program.
        """
        nid = self._name_id(name)
        if on_return is not None:
            self.observed.add(name)
        names, parents, starts, ends, runs = self.name, self.parent, self.start, self.end, self.run
        stack = self._stack

        def observe(observer, *info):
            try:
                observer(*info)
            except Exception as exc:  # a changed result shape must not break the run
                self.broken.setdefault(name, repr(exc))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = perf_counter()
                stack.pop()
                self.raised[i] = type(exc).__name__
                if on_raise is not None:
                    observe(on_raise, exc)
                raise
            ends[i] = perf_counter()
            stack.pop()
            if on_return is not None:
                observe(on_return, args, result)
            return result

        return traced

    def patch(self, owner, attr, name, on_return=None, on_raise=None) -> bool:
        """Replace owner.attr by a traced wrapper; False if it does not exist."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return False
        setattr(owner, attr, self.wrap(name, fn, on_return, on_raise))
        self._undo.append((owner, attr, fn))
        self.installed.add(name)
        return True

    def restore(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def wrap_costs(self, costs) -> dict:
        """Per span name, the seconds outside_cost() charges its caller per
        call; costs is {"plain": ..., "observed": ...} from outside_costs()."""
        return {n: costs["observed" if n in self.observed else "plain"] for n in self.names}

    def totals(self, cost=None):
        """Per span name: call count, self seconds, span seconds.  With
        cost (span name -> seconds per call), each span's cost is also
        taken from its parent's self time."""
        return span_totals(self.names, self.name, self.parent, self.start, self.end, cost)

    def write(self, path, **header):
        """Write every span to path: a JSON header line, then raw arrays."""
        arrays = [getattr(self, field) for field, _ in _FIELDS]
        head = dict(header, format=SPAN_FORMAT, names=self.names, count=len(self.name),
                    fields=[list(f) for f in _FIELDS],
                    raised={str(i): n for i, n in self.raised.items()})
        with open(path, "wb") as f:
            f.write(json.dumps(head).encode() + b"\n")
            for arr in arrays:
                arr.tofile(f)


def span_totals(names, name, parent, start, end, cost=None):
    """Self time is a span's duration minus the durations of its children,
    and minus cost[child's name] per child when cost is given."""
    charge = [cost.get(n, 0.0) if cost else 0.0 for n in names]
    own = array("d", bytes(8 * len(name)))
    for i, p in enumerate(parent):
        d = end[i] - start[i]
        own[i] += d
        if p >= 0:
            own[p] -= d + charge[name[i]]
    calls, self_s, span_s = Counter(), Counter(), Counter()
    for i, nid in enumerate(name):
        key = names[nid]
        calls[key] += 1
        self_s[key] += own[i]
        span_s[key] += end[i] - start[i]
    return calls, self_s, span_s


def _noop(*args):
    return None


def outside_cost(observed, calls=20000, repeat=7) -> float:
    """Median seconds per call that a wrapper spends outside its span, on
    a no-op called with two arguments: the part of the tracer's cost that
    lands in the caller's self time.  observed adds a result observer."""
    samples = []
    for _ in range(repeat):
        tracer = Tracer()
        g = tracer.wrap("noop", _noop, on_return=_noop if observed else None)
        loop = range(calls)
        t0 = perf_counter()
        for _ in loop:
            pass
        t1 = perf_counter()
        for i in loop:
            g(i, i)
        t2 = perf_counter()
        inside = sum(e - s for s, e in zip(tracer.start, tracer.end))
        samples.append((t2 - t1 - (t1 - t0) - inside) / calls)
    return max(0.0, sorted(samples)[repeat // 2])


def outside_costs() -> dict:
    return {"plain": outside_cost(False), "observed": outside_cost(True)}


def load_spans(path) -> dict:
    """Read a file written by Tracer.write: the header plus one array per field."""
    with open(path, "rb") as f:
        head = json.loads(f.readline())
        if head.get("format") != SPAN_FORMAT:
            raise ValueError(f"{path}: not a span file")
        out = {"header": head}
        for field, code in head["fields"]:
            arr = array(code)
            arr.fromfile(f, head["count"])
            out[field] = arr
    return out
