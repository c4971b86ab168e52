"""tuplesieve benchmark: runs one workload repeatedly, each execution in a
fresh interpreter, and prints its metrics as one JSON line.

    python3 perfbench/run.py --workload twins-census --seed 1 --seconds 40 --trace 0

The load is a closed loop with one client: an execution starts only
after the previous one has returned.  With --trace 0 each round is one
execution, and the end-to-end metrics are medians over the run's
executions.  With --trace 1 each round is one untraced and one traced
execution, and the per-layer metrics come from the traced ones.  The
seed only sets the order of the two within each round: the inputs are
fixed problems whose answers are checked against references the
benchmark computes itself (see reference.py).  Run from the root of a
source checkout; the library is imported from its src/ directory.

Reported times are in nominal seconds: each process's times are scaled
by CAL_NOMINAL_S over the mean time of a fixed calibration loop it ran
next to its work, so much of a shared machine's drifting speed cancels
out.  The raw times are kept in the record written under perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from reference import Reference  # noqa: E402

MIN_ROUNDS = {0: 3, 1: 1}
DEADLINE_S = 170       # every run must end well inside 180 s
CHILD_TIMEOUT_S = 150
CAL_NOMINAL_S = 0.025  # worker.calibrate() on a 2.1 GHz Xeon core


def _stats(values):
    """Median, quartiles and sample count; None when nothing was measured."""
    if not values:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _median(values):
    return statistics.median(values) if values else None


def _units():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def _scale(rep):
    """Scale the process's times to the nominal machine speed, in place."""
    speed = rep["speed"] = CAL_NOMINAL_S / statistics.fmean(rep["cal_s"])
    rep["raw"] = {k: rep[k] for k in ("setup_s", "wall_s") if k in rep}
    for k in ("setup_s", "wall_s", "cpu_s"):
        if k in rep:
            rep[k] *= speed
    if "layers" in rep:
        rep["layers"] = {k: v * speed if k in layers.TIMED and v is not None else v
                         for k, v in rep["layers"].items()}
        for key in ("self_s", "self_s_raw"):
            rep[key] = {k: v * speed for k, v in rep[key].items()}
    return rep


def _git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(src):
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    """Starts worker processes one at a time and collects their reports."""

    def __init__(self, src, smoke):
        self.src, self.smoke = src, smoke
        self.started = time.monotonic()

    def child(self, *args):
        """Run one worker; its JSON report, or {'error': ...} if it failed."""
        # sh forks the worker instead of exec-ing it: a process that this
        # one execs directly would inherit our peak RSS as its ru_maxrss
        cmd = ["/bin/sh", "-c", '"$@"; exit $?', "sh",
               sys.executable, "-I", str(HERE / "worker.py"), str(self.src), *args]
        if self.smoke:
            cmd.append("--smoke")
        left = DEADLINE_S - (time.monotonic() - self.started)
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, min(CHILD_TIMEOUT_S, left)))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker too, not only sh
            proc.communicate()  # returns once every holder of the pipes is gone
            return {"error": "timed out"}
        if proc.returncode != 0:
            return {"error": f"exit {proc.returncode}: {err.strip()[-2000:]}"}
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return {"error": f"no report: {out[-500:]!r}"}


def measure(wl, *, seed, seconds, trace, smoke=False, root=None, out_dir=None):
    """Run workload wl for about `seconds`; returns (result line, record)."""
    root = Path(root or Path.cwd())
    src = root / "src"
    out_dir = Path(out_dir or HERE / "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = out_dir / f"spans-{wl.name}.bin"
    ref = Reference(wl)
    runner = Runner(src, smoke)
    rng = random.Random(seed)
    load_before = os.getloadavg()
    runner.child("setup")  # untimed: writes the bytecode cache

    attempted = failed = 0
    errors, plain, traced = [], [], []

    def execute(slot):
        nonlocal attempted, failed
        args = ["run", wl.name] + (["--spans", str(spans)] if slot == "traced" else [])
        rep = runner.child(*args)
        attempted += 1
        problem = rep.get("error") or ref.check(rep["answer"])
        if problem:
            failed += 1
            errors.append(problem)
            return
        (traced if slot == "traced" else plain).append(_scale(rep))

    slots = ["run", "traced"] if trace else ["run"]
    t0 = time.monotonic()
    rounds, last = 0, 0.0
    while rounds < MIN_ROUNDS[trace] or time.monotonic() - t0 + last <= seconds:
        r0 = time.monotonic()
        for slot in rng.sample(slots, len(slots)):
            execute(slot)
        rounds += 1
        last = time.monotonic() - r0
    measured_s = time.monotonic() - t0

    summary = {
        "wall_s": _stats([r["wall_s"] for r in plain]),
        "setup_s": _stats([r["setup_s"] for r in plain]),
        "peak_rss_mb": _stats([r["peak_rss_mb"] for r in plain]),
        "raw_wall_s": _stats([r["raw"]["wall_s"] for r in plain]),
        "raw_setup_s": _stats([r["raw"]["setup_s"] for r in plain]),
        "speed": _stats([r["speed"] for r in plain + traced]),
        "samples": [{"wall_s": r["raw"]["wall_s"], "cal_s": r["cal_s"]} for r in plain],
    }
    if trace:
        metrics, shares, mismatched = _traced_metrics(plain, traced)
        if mismatched:
            failed += 1  # counts must repeat exactly; one that does not is a defect
            errors.append(f"traced counts differ between executions: {mismatched}")
        metrics["error_rate"] = failed / attempted
    else:
        metrics = {k: summary[k]["median"] if summary[k] else None
                   for k in ("wall_s", "setup_s", "peak_rss_mb")}
        shares = None

    record = {
        "workload": wl.name,
        "smoke": smoke,
        "trace": trace,
        "provenance": {
            "seed": seed,
            "git_commit": _git_commit(root),
            "source_sha256": _source_digest(src),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
        "rounds": rounds,
        "measured_s": measured_s,
        "summary": summary,
        "layer_shares": shares,
        "broken": traced[0]["broken"] if traced else {},
        "errors": errors,
        "metrics": metrics,
    }
    units = _units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    name = f"{wl.name}{'-smoke' if smoke else ''}-trace{trace}-seed{seed}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def _traced_metrics(plain, traced):
    """Per-layer metrics: times are medians over traced executions, counts
    must agree across them.  Returns (metrics, layer shares, mismatched);
    the shares are of self time net of the tracer's cost and, under
    self_s_raw, including it."""
    reps = [r["layers"] for r in traced]
    metrics, mismatched = {}, []
    for name in layers.METRICS:
        values = [r[name] for r in reps]
        if name in layers.TIMED:
            metrics[name] = _median(values) if values and None not in values else None
        else:
            if len(set(values)) > 1:
                mismatched.append(name)
            metrics[name] = values[0] if values else None
    trace_wall = _median([r["wall_s"] for r in traced])
    plain_wall = _median([r["wall_s"] for r in plain])
    metrics["process.cpu_s"] = _median([r["cpu_s"] for r in plain])
    metrics["trace.wall_s"] = trace_wall
    metrics["trace.overhead_ratio"] = (trace_wall / plain_wall
                                       if trace_wall and plain_wall else None)
    shares = None
    if traced:
        shares = {}
        for key in ("self_s", "self_s_raw"):
            self_s = {k: _median([r[key].get(k, 0.0) for r in traced]) for k in traced[0][key]}
            shares[key] = layers.layer_shares(self_s, trace_wall)
        shares["wrap_cost_s"] = {k: _median([r["wrap_cost_s"][k] for r in traced])
                                 for k in traced[0]["wrap_cost_s"]}
    return metrics, shares, mismatched


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tuplesieve" / "__init__.py").is_file():
        sys.exit(f"run from the root of a tuplesieve checkout: no src/tuplesieve in {root}")
    result, record = measure(workloads.get(args.workload), seed=args.seed,
                             seconds=args.seconds, trace=args.trace, root=root)
    print(json.dumps({k: record[k] for k in ("workload", "provenance", "rounds", "summary",
                                             "layer_shares", "errors")}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
