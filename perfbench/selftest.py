"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Recorder, _slice_violations  # noqa: E402

# A few items per workload keep the tests short; the deep single-shot item
# (about 10 s) is left out.
SMALL = {"single-shot": slice(1, 5), "slice-keep": slice(0, 1),
         "slice-discard": slice(0, 1), "query-churn": slice(0, 1)}


def small_run(name: str, seed: int, tracer=None) -> Recorder:
    w = WORKLOADS[name]
    inputs = w.inputs(seed, 1)[SMALL[name]]
    if name == "query-churn":
        inputs = [(text, queries[:150]) for text, queries in inputs]
    states = w.setup(inputs)
    rec = Recorder(time.perf_counter() + 120)
    if tracer is None:
        w.run(states, rec)
    else:
        with tracer.root("bench.timed"):
            w.run(states, rec)
    return rec


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_counts_and_verdicts(name):
    a = small_run(name, 7)
    b = small_run(name, 7)
    assert a.failed == 0 and b.failed == 0, a.failures + b.failures
    assert a.attempted == b.attempted > 0
    assert a.counts == b.counts
    assert a.verdicts == b.verdicts


def test_seeds_pick_different_inputs():
    assert gen.pick(1, "shallow", 50) != gen.pick(2, "shallow", 50)
    assert gen.pick(1, "shallow", 50) == gen.pick(1, "shallow", 50)


def _attributes():
    out = {}
    for owner, attr, _ in tracing.SPANS:
        out[owner, attr] = vars(owner)[attr]
    for attr in ("_scan_clause", "_scan_cube"):
        owner = tracing.qcdcl.SolverState
        out[owner, attr] = vars(owner)[attr]
    return out


def test_tracer_restores_every_attribute():
    before = _attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = _attributes()
        assert all(patched[k] is not before[k] for k in before)
        rec = small_run("query-churn", 3, tracer)
    finally:
        tracer.uninstall()
    after = _attributes()
    assert all(after[k] is before[k] for k in before)
    # An untraced run after a traced one records no spans.
    n = len(tracer.events)
    plain = small_run("query-churn", 3)
    assert len(tracer.events) == n
    assert plain.counts == rec.counts and plain.verdicts == rec.verdicts


@pytest.mark.parametrize("name", ["single-shot", "slice-keep"])
def test_self_times_sum_to_root(name):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rec = small_run(name, 5, tracer)
    finally:
        tracer.uninstall()
    timed = tracer.summary(tracer.spans())["bench.timed"]
    assert timed["calls"]["solver.solve"] > 0
    assert sum(timed["self_s"].values()) == pytest.approx(timed["duration_s"],
                                                          abs=1e-6)
    assert timed["min_self_s"] >= run.MIN_SELF_S
    assert timed["children_s"] <= rec.wall_s
    assert timed["children_s"] == pytest.approx(rec.wall_s,
                                                rel=run.WALL_TOLERANCE)


def test_summary_flags_a_child_outside_its_parent():
    tracer = tracing.Tracer()
    timed = tracer.names.index("bench.timed")
    push = tracer.names.index("solver.push")
    # bench.timed [0, 1] holds solver.push [0.5, 2].
    tracer.events.extend([timed, push, tracing._EXIT, tracing._EXIT])
    tracer.times.extend([0.0, 0.5, 2.0, 1.0])
    summary = tracer.summary(tracer.spans())["bench.timed"]
    assert summary["children_s"] == 1.5
    assert summary["min_self_s"] == -0.5 < run.MIN_SELF_S


def test_run_rejects_seconds_beyond_the_pools():
    for w in WORKLOADS.values():
        too_many = (w.capacity + 1) / w.PER_SECOND
        with pytest.raises(SystemExit):
            run.main(["--workload", w.name, "--seed", "1",
                      "--seconds", str(too_many)])


def test_slice_invariants():
    want = "SSSU"
    assert _slice_violations("SSSU", "SSS", want) == set()
    # A forward verdict that differs from the stored one.
    assert _slice_violations("SSUU", "USS", want) == {("f", 2), ("r", 2)}
    # Non-monotone forward verdicts break the stored verdicts too.
    assert ("f", 3) in _slice_violations("SSSS", "SSS", want)
    # Reverse must equal forward at each depth and be U...US...S.
    assert _slice_violations("SSSU", "SUS", want) == {("r", 1)}


def test_expected_verdicts_cover_every_pool_item():
    for family, size in gen.POOL_SIZES.items():
        exp = workloads.load_expected(family)
        assert len(exp["verdicts"]) == size
        if family == "slices":
            assert all(len(v) == gen.SLICES for v in exp["verdicts"])
        if family == "base":
            assert all(len(v) == gen.QUERIES_PER_BASE for v in exp["verdicts"])


def test_metric_names_match_benchmark_json():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    w = WORKLOADS["query-churn"]
    inputs = [(text, queries[:100]) for text, queries in w.inputs(2, 1)[:1]]
    deadline = time.perf_counter() + 120
    rec, layer, _ = run.per_layer(w, "query-churn", 2, inputs, deadline)
    assert rec.failed == 0, rec.failures
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
    assert all(layer[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])
    rec, e2e, _ = run.end_to_end(w, inputs, deadline)
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert all(e2e[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])
