"""Tests of the benchmark itself, at desk scale (a few seconds in all).

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, load_spans, outside_cost, span_totals  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def _measure(name, trace, tmp_path, **changes):
    wl = dataclasses.replace(workloads.get(name, smoke=True), **changes)
    return run.measure(wl, seed=1, seconds=0, trace=trace, smoke=True, root=ROOT,
                       out_dir=tmp_path)


def test_benchmark_file_matches_workloads_and_metrics():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS) == sorted(workloads.SMOKE)
    assert [m["name"] for m in BENCH["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert {m["name"] for m in BENCH["per_layer"]} == (
        set(layers.METRICS) | {"process.cpu_s", "trace.wall_s", "trace.overhead_ratio",
                               "error_rate"})


@pytest.mark.parametrize("kind, X, count", [("twins", 10**5, 1224), ("quads", 5050, 10),
                                            ("twins", 5, 1), ("quads", 14, 1)])
def test_reference_census_counts(kind, X, count):
    assert reference.census(kind, X)[0] == count


@pytest.mark.parametrize("name", NAMES)
def test_untimed_run_reports_every_end_to_end_metric(name, tmp_path):
    result, _ = _measure(name, 0, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    result, record = _measure(name, 1, tmp_path)
    assert result["correct"], record["errors"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    missing = [k for k, m in result["metrics"].items() if m["value"] is None]
    assert not missing
    assert result["metrics"]["error_rate"]["value"] == 0
    # deterministic counts repeat exactly in a second traced run
    again, _ = _measure(name, 1, tmp_path)
    for key in layers.METRICS:
        if key not in layers.TIMED:
            assert again["metrics"][key] == result["metrics"][key], key


@pytest.mark.parametrize("name", NAMES)
def test_wrong_reference_raises_error_rate(name, tmp_path):
    wl = workloads.get(name, smoke=True)
    result, record = _measure(name, 1, tmp_path, expected=wl.expected + 1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert result["metrics"]["error_rate"]["value"] == 1.0
    assert "published" in record["errors"][0]


def test_self_times_sum_to_at_most_traced_wall(tmp_path):
    _measure("quads-census", 1, tmp_path)
    spans = load_spans(tmp_path / "spans-quads-census.bin")
    head = spans["header"]
    assert head["count"] > 0 and "workload" in head["names"]
    calls, self_s, span_s = span_totals(head["names"], spans["name"], spans["parent"],
                                        spans["start"], spans["end"])
    assert sum(self_s.values()) <= head["wall_s"]
    assert all(s >= -1e-6 for s in self_s.values())
    cost = {n: head["wrap_cost_s"]["plain"] for n in head["names"]}
    _, net_s, _ = span_totals(head["names"], spans["name"], spans["parent"],
                              spans["start"], spans["end"], cost)
    assert all(net_s[k] <= self_s[k] for k in self_s)
    assert net_s["arith.powmod"] == self_s["arith.powmod"]  # a leaf: nothing to take off
    # every span lies inside its parent
    for i, p in enumerate(spans["parent"]):
        if p >= 0:
            assert spans["start"][p] <= spans["start"][i] <= spans["end"][i] <= spans["end"][p]


def test_wrap_cost_is_taken_once_per_child_from_the_parent():
    names = ["parent", "child"]
    name, parent = [0, 1, 1], [-1, 0, 0]
    start, end = [0.0, 1.0, 3.0], [10.0, 2.0, 4.0]
    _, raw, _ = span_totals(names, name, parent, start, end)
    _, net, span = span_totals(names, name, parent, start, end, {"child": 0.5})
    assert raw == {"parent": 8.0, "child": 2.0}
    assert net == {"parent": 7.0, "child": 2.0}
    assert span == {"parent": 10.0, "child": 2.0}


def test_outside_cost_is_positive_and_below_a_millisecond():
    assert 0 < outside_cost(False, calls=2000) < 1e-3
    assert 0 < outside_cost(True, calls=2000) < 1e-3


def test_wrapper_passes_arguments_results_and_exceptions_through():
    tracer = Tracer()
    seen = []

    def f(a, b=1):
        if a < 0:
            raise KeyError(a)
        return a + b

    g = tracer.wrap("f", f, on_return=lambda args, res: seen.append((args, res)))
    assert g(2, b=3) == 5
    with pytest.raises(KeyError):
        g(-1)
    assert seen == [((2,), 5)]
    assert list(tracer.name) == [0, 0] and tracer.raised == {1: "KeyError"}
    assert g.__name__ == "f"


def test_changed_result_shape_reports_null_not_zero():
    tracer = Tracer()
    obs = layers.Observed()
    owner = types.SimpleNamespace(sieve=lambda: "a segment without .bits")
    assert tracer.patch(owner, "sieve", "apsieve.sieve_segment", obs.sieve_segment)
    assert owner.sieve() == "a segment without .bits"
    assert "apsieve.sieve_segment" in tracer.broken
    metrics = layers.layer_metrics(tracer, obs, tracer.totals())
    assert metrics["apsieve.segments"] is None and metrics["apsieve.segment_bytes"] is None


def test_missing_name_reports_null(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    search = pytest.importorskip("tuplesieve.search")
    monkeypatch.delattr(search, "survivors")
    tracer = Tracer()
    obs = layers.install(tracer)
    try:
        metrics = layers.layer_metrics(tracer, obs, tracer.totals())
    finally:
        tracer.restore()
    assert metrics["apsieve.survivors"] is None and metrics["apsieve.survivors_s"] is None
    assert metrics["apsieve.survivor_ratio"] is None
    assert metrics["apsieve.segments"] == 0 and metrics["arith.modinv_calls"] == 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", NAMES[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
