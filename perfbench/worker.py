"""One execution of a workload in a fresh interpreter; prints one JSON line.

    python3 -I perfbench/worker.py SRC setup
    python3 -I perfbench/worker.py SRC run WORKLOAD [--smoke] [--spans FILE]

SRC is the directory holding the tuplesieve package.  `setup` only
times the import; `run` also calls the workload's entry point, and with
--spans traces the call and writes its spans to FILE; self times are
then net of the tracer's own cost (tracer.outside_cost).  `run` also
times a fixed calibration loop before and after the call, so the caller
can scale times by how fast the shared machine ran at that moment.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
_t0 = time.perf_counter()
import tuplesieve  # noqa: E402  (timed: this is the set-up a user pays)

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, outside_costs  # noqa: E402


def calibrate() -> float:
    """Median seconds of a fixed block of interpreter work shaped like the
    library's: integer arithmetic in a loop, bytearray slice clearing and
    a modular power.  It does not depend on the library; the median over
    blocks keeps one interrupted block from skewing it."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(250000):
            acc = (acc * 31 + i) % 1000003
        bits = bytearray(200000)
        for p in (3, 5, 7, 11, 13):
            bits[p::p] = bytes(len(range(p, 200000, p)))
        pow(3, 10**5, 10**30 + 57)
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def _answer(result) -> dict:
    if hasattr(result, "recip_sum"):
        return {"count": result.count, "recip_sum": float(result.recip_sum).hex()}
    return {"value": result}


def _usage() -> dict:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        # a process pool shows up under RUSAGE_CHILDREN; ru_maxrss is in KiB
        "peak_rss_mb": max(me.ru_maxrss, kids.ru_maxrss) / 1024,
        "cpu_s": me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
    }


def run(name, smoke, spans) -> dict:
    wl = workloads.get(name, smoke)
    out = {"setup_s": SETUP_S, "cal_s": [calibrate()]}
    tracer = obs = None
    call = wl.call
    if spans:
        tracer = Tracer()
        obs = layers.install(tracer)
        call = tracer.wrap("workload", call)
        costs_before = outside_costs()
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception:  # a raising run is a failed run, reported to the parent
        out["wall_s"] = time.perf_counter() - t0
        out["error"] = traceback.format_exc()
        return out
    out["wall_s"] = time.perf_counter() - t0
    out.update(_usage())
    out["cal_s"].append(calibrate())
    out["answer"] = _answer(result)
    if tracer is not None:
        tracer.restore()
        # self times net of the wrappers' cost outside their spans, timed
        # before and after the call as the machine's speed drifts; the
        # uncorrected ones are kept next to them
        costs_after = outside_costs()
        costs = {k: (costs_before[k] + costs_after[k]) / 2 for k in costs_after}
        totals = tracer.totals(tracer.wrap_costs(costs))
        out["layers"] = layers.layer_metrics(tracer, obs, totals)
        out["self_s"] = dict(totals[1])
        out["self_s_raw"] = dict(tracer.totals()[1])
        out["wrap_cost_s"] = costs
        out["broken"] = tracer.broken
        tracer.write(spans, workload=name, wall_s=out["wall_s"], wrap_cost_s=costs)
    return out


def main():
    src = os.path.abspath(sys.argv[1])
    if not os.path.abspath(tuplesieve.__file__).startswith(src + os.sep):
        sys.exit(f"tuplesieve imported from {tuplesieve.__file__}, not from {src}")
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "run"])
    ap.add_argument("workload", nargs="?")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(sys.argv[2:])
    if args.mode == "setup":
        out = {"setup_s": SETUP_S}
    else:
        out = run(args.workload, args.smoke, args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
