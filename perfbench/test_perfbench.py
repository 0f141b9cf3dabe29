"""Tests for the benchmark's own logic.

Run from the repository root::

    python3 -m pytest perfbench -q

The workload smokes swap the ``small`` corpus for the ``tiny`` profile
so each finishes in seconds; everything else about them is the real
workload.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.use_checkout_sources()

import benchstats  # noqa: E402
import layers  # noqa: E402
import processes  # noqa: E402
import reduce_workloads  # noqa: E402
import service_workload  # noqa: E402
from service_workload import (  # noqa: E402
    Due,
    PhaseResult,
    Sent,
    backlog_growing,
    deal_tenants,
    max_rate,
    schedule,
    sustained,
)

from repro.workloads.corpus import CorpusConfig  # noqa: E402


# ----------------------------------------------------------------------
# Span accounting
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_children_and_sums_to_roots():
    clock = FakeClock()
    recorder = layers.Recorder(clock=clock)
    with recorder.span("search"):
        clock.now += 1.0
        with recorder.span("predicate"):
            clock.now += 2.0
            with recorder.span("probe"):
                clock.now += 4.0
            clock.now += 0.5
        clock.now += 1.0
        with recorder.span("probe"):
            clock.now += 3.0
    with recorder.span("harness.measure"):
        clock.now += 0.25
    assert recorder.self_s("search") == pytest.approx(2.0)
    assert recorder.self_s("predicate") == pytest.approx(2.5)
    assert recorder.self_s("probe") == pytest.approx(7.0)
    assert recorder.calls("probe") == 2
    assert recorder.layers["search"].total_s == pytest.approx(11.5)
    assert recorder.total_self_s() == pytest.approx(recorder.root_s)
    assert recorder.root_s == pytest.approx(11.75)
    parents = {s.name: s.parent for s in recorder.spans if s.name != "probe"}
    assert parents["search"] is None
    assert recorder.spans[parents["predicate"]].name == "search"


def test_instrumented_wraps_nested_calls_and_restores():
    from repro.graphs import digraph, scc

    graph = digraph.DiGraph(nodes=["a", "b", "c"])
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    original_topo = digraph.DiGraph.topological_order
    original_condensation = scc.condensation
    recorder = layers.Recorder()
    with layers.instrumented(recorder):
        assert digraph.DiGraph.topological_order is not original_topo
        dag, _ = scc.condensation(graph)
        dag.topological_order()
        graph.topological_order()
    assert digraph.DiGraph.topological_order is original_topo
    assert scc.condensation is original_condensation
    assert recorder.calls("graphs.topo_order") == 2
    assert recorder.calls("graphs.dependency_graph") == 1
    assert recorder.total_self_s() == pytest.approx(recorder.root_s)


def test_only_under_wrapper_is_transparent_outside_its_parent():
    from repro.decompiler.oracle import DecompilerOracle
    from repro.workloads.corpus import build_benchmark

    benchmark = build_benchmark(0, CorpusConfig.tiny())
    instance = benchmark.instances[0]
    recorder = layers.Recorder()
    with layers.instrumented(recorder):
        oracle = DecompilerOracle(benchmark.app, instance.decompiler)
        assert oracle.class_predicate(frozenset(benchmark.app.class_names()))
    # The baseline decompile is baseline time; only the probe's counts.
    assert recorder.calls("oracle.baseline") == 1
    assert recorder.calls("probe") == 1
    assert recorder.calls("probe.decompile") == 1
    assert recorder.calls("probe.javac") == 1


# ----------------------------------------------------------------------
# Percentiles and open-loop latency math
# ----------------------------------------------------------------------


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert benchstats.percentile(values, 50) == 3.0
    assert benchstats.percentile(values, 90) == pytest.approx(4.6)
    assert benchstats.percentile(values, 0) == 1.0
    assert benchstats.percentile(values, 100) == 5.0
    assert benchstats.percentile([7.0], 90) == 7.0
    assert benchstats.percentile([], 50) == 0.0
    assert benchstats.geomean([0.25, 1.0]) == pytest.approx(0.5)


def test_latency_is_timed_from_the_due_time():
    one = Sent(Due(due=10.0, tenant="acme", pair=("b000", "alpha")))
    one.posted, one.accepted = 10.5, 10.52
    assert one.latency is None
    one.server_latency = 1.0
    # 0.5 s late to send + 0.02 s to be accepted + 1.0 s in the server.
    assert one.latency == pytest.approx(1.52)
    assert one.late == pytest.approx(0.5)


def test_schedule_sends_every_pair_equally_in_its_slot():
    pairs = [(f"b{i:03d}", "alpha") for i in range(7)]
    dues = schedule(pairs, rate=4.0, seconds=3.5, start=1.0,
                    rng=random.Random(3))
    assert len(dues) == 14
    assert sorted(d.pair for d in dues) == sorted(pairs * 2)
    for index, due in enumerate(dues):
        assert 1.0 + index * 0.25 <= due.due < 1.0 + (index + 1) * 0.25
    again = schedule(pairs, 4.0, 3.5, 1.0, random.Random(3))
    assert [(d.due, d.tenant, d.pair) for d in again] == [
        (d.due, d.tenant, d.pair) for d in dues
    ]


def test_tenants_are_dealt_by_weight():
    dealt = deal_tenants({"acme": 3, "beta": 2, "gamma": 1}, 12,
                         random.Random(0))
    assert sorted(dealt) == ["acme"] * 6 + ["beta"] * 4 + ["gamma"] * 2
    odd = deal_tenants({"acme": 3, "beta": 2, "gamma": 1}, 7,
                       random.Random(0))
    assert len(odd) == 7 and odd.count("acme") >= odd.count("gamma")


# ----------------------------------------------------------------------
# Backlog and max-rate detection on synthetic schedules
# ----------------------------------------------------------------------


def _phase(rate, latencies, backlog, status="success"):
    sent = []
    for index, latency in enumerate(latencies):
        one = Sent(Due(due=index / rate, tenant="acme", pair=("b", "a")))
        one.accepted = one.due.due
        one.server_latency = latency
        one.status = status
        sent.append(one)
    return PhaseResult(rate=rate, sent=sent, wall_s=1.0, backlog=backlog)


def test_backlog_growth_is_a_climbing_trend_not_noise():
    steady = [(t / 10, 2 + (t % 3)) for t in range(50)]
    assert not backlog_growing(steady, limit_jobs=4)
    climbing = [(t / 10, t // 4) for t in range(50)]  # +2.5 jobs/s
    assert backlog_growing(climbing, limit_jobs=4)
    assert not backlog_growing([(0.0, 9)], limit_jobs=4)


def test_max_rate_is_the_fastest_sustained_phase():
    calm = [(t / 10, 1) for t in range(40)]
    slow = _phase(3.0, [0.4] * 20, calm)
    ok = _phase(5.0, [0.5] * 19 + [3.0], calm)  # p90 stays 0.5
    late = _phase(8.0, [0.6] * 10 + [2.5] * 10, calm)  # p90 over limit
    growing = _phase(10.0, [0.6] * 20, [(t / 10, t) for t in range(40)])
    assert sustained(ok, 2.0, 4)
    assert not sustained(late, 2.0, 4)
    assert not sustained(growing, 2.0, 4)
    assert max_rate([slow, ok, late, growing], 2.0, 4) == 5.0
    failed = _phase(3.0, [0.4] * 20, calm, status="error")
    assert max_rate([failed], 2.0, 4) == 0.0


# ----------------------------------------------------------------------
# The benchmark definition and the command's contract
# ----------------------------------------------------------------------


def test_benchmark_json_declares_valid_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(set(all_names)) == len(all_names)
    assert all(name.match(n) for n in all_names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduce-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


ORPHAN_SCRIPT = """
import subprocess, sys, time
sys.path.insert(0, {here!r})
from processes import adopt_orphans, children, reap_children

assert adopt_orphans()
# The child exits at once; the grandchild it started is orphaned and
# becomes ours.
subprocess.run([sys.executable, "-c",
                "import subprocess, sys; subprocess.Popen([sys.executable,"
                " '-c', 'import time; time.sleep({sleep})'])"], check=True)
assert children()
start = time.monotonic()
reap_children(grace_s={grace})
assert not children()
print(round(time.monotonic() - start, 1))
"""


@pytest.mark.parametrize("sleep, grace, most_s", [(0.3, 30.0, 20.0),
                                                  (60.0, 0.2, 20.0)])
def test_reap_children_ends_orphaned_grandchildren(sleep, grace, most_s):
    done = subprocess.run(
        [sys.executable, "-c",
         ORPHAN_SCRIPT.format(here=HERE, sleep=sleep, grace=grace)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < most_s


# ----------------------------------------------------------------------
# Short smokes of every workload on the tiny corpus
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", autouse=True)
def reaped():
    """The in-process smokes start pools: end their processes here."""
    yield
    processes.reap_children()


@pytest.fixture
def tiny_corpus(monkeypatch):
    monkeypatch.setattr(reduce_workloads, "corpus_config", CorpusConfig.tiny)
    monkeypatch.setattr(service_workload, "corpus_config", CorpusConfig.tiny)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_smoke(workload, trace, tiny_corpus, tmp_path):
    report = run.run_workload(workload, seed=5, seconds=1.0, trace=trace,
                              workdir=str(tmp_path))
    assert report.failures == [] and report.failed == 0
    assert report.attempted > 0
    metrics = {
        name: m["value"]
        for name, m in run.result_metrics(report.metrics, trace).items()
    }
    if not trace:
        assert all(value > 0 for value in metrics.values())
        return
    # The layer each workload exists to exercise shows up in its trace.
    exercised = {
        "reduce-cold": ("probe.calls", "store.records"),
        "reduce-warm": ("store.lookups", "constraints.calls"),
        "reduce-latency": ("procpool.batches", "speculate.rounds"),
        "service-open": ("service.run_p50_s", "service.backlog_max"),
    }[workload]
    assert all(metrics[name] > 0 for name in exercised)
    if workload == "reduce-warm":
        assert metrics["probe.calls"] == 0 and metrics["store.hit_ratio"] == 1
    if workload != "service-open":
        assert metrics["harness.other_share"] <= 0.05
