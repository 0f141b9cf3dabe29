"""Tests for probe_scope annotations and `trace explain` resolution."""

import threading

import pytest

from repro.observability import (
    current_probe_fields,
    explain,
    probe_scope,
    render_explain,
)


class TestProbeScope:
    def test_empty_without_scope(self):
        assert current_probe_fields() == {}

    def test_fields_visible_inside_scope_only(self):
        with probe_scope(round=3):
            assert current_probe_fields() == {"round": 3}
        assert current_probe_fields() == {}

    def test_inner_scope_shadows_outer(self):
        with probe_scope(round=1, origin="head"):
            with probe_scope(round=2):
                assert current_probe_fields() == {
                    "round": 2, "origin": "head",
                }
            assert current_probe_fields()["round"] == 1

    def test_scopes_are_thread_local(self):
        seen = {}

        def worker():
            seen["fields"] = current_probe_fields()

        with probe_scope(round=9):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["fields"] == {}


def _trace_with_probe():
    return [
        {"type": "meta", "schema": 2},
        {
            "type": "span", "name": "instance.run", "span_id": "w0:0",
            "parent_span_id": None, "duration": 2.0, "vduration": 99.0,
            "attrs": {"strategy": "our-reducer"},
        },
        {
            "type": "span", "name": "speculate.round", "span_id": "w0:1",
            "parent_span_id": "w0:0", "duration": 0.5, "vduration": 33.0,
            "attrs": {},
        },
        {
            "type": "probe", "event_id": "w0:e2", "span_id": "w0:1",
            "key": "abcd1234", "cache": "fresh", "outcome": True,
            "wall_seconds": 0.01, "virtual_charge": 33.0,
            "round": 0, "batch_pos": 2, "retries": 1,
            "worker": "w0", "serial": 0, "trace_id": "t/0000",
        },
    ]


class TestExplain:
    def test_resolves_by_event_id(self):
        res = explain(_trace_with_probe(), "w0:e2")
        assert res["probe"]["key"] == "abcd1234"
        assert [s["name"] for s in res["chain"]] == [
            "speculate.round", "instance.run",
        ]

    def test_resolves_by_key_prefix(self):
        res = explain(_trace_with_probe(), "abcd")
        assert res["probe"]["event_id"] == "w0:e2"

    def test_unknown_handle_raises(self):
        with pytest.raises(ValueError, match="no probe matches"):
            explain(_trace_with_probe(), "nope")

    def test_trace_without_ledger_raises(self):
        with pytest.raises(ValueError, match="no probe ledger"):
            explain([{"type": "span", "name": "s", "span_id": "a"}], "x")

    def test_dangling_parent_raises(self):
        events = _trace_with_probe()
        events[1]["parent_span_id"] = "w9:99"  # never emitted
        with pytest.raises(ValueError, match="dangling"):
            explain(events, "w0:e2")

    def test_render_includes_costs_and_chain(self):
        text = render_explain(explain(_trace_with_probe(), "w0:e2"))
        assert "probe w0:e2" in text
        assert "cache=fresh" in text
        assert "round=0 batch_pos=2" in text
        assert "virtual=33.0s" in text
        assert "speculate.round" in text
        assert "instance.run" in text

    def test_probe_outside_any_span(self):
        events = [
            {"type": "probe", "event_id": "main:e0", "span_id": None,
             "cache": "store", "outcome": False},
        ]
        res = explain(events, "main:e0")
        assert res["chain"] == []
        assert "outside any span" in render_explain(res)

    def test_discarded_probe_is_flagged_in_render(self):
        events = _trace_with_probe()
        events[3]["discarded"] = True
        events[3]["virtual_charge"] = 0.0
        text = render_explain(explain(events, "w0:e2"))
        assert "DISCARDED" in text
        assert "earlier probe in the round raised" in text

    def test_committed_probe_is_not_flagged(self):
        text = render_explain(explain(_trace_with_probe(), "w0:e2"))
        assert "DISCARDED" not in text


class TestSequentialLedger:
    """A sequential GBR run: every fresh probe's ledger entry names its
    own ``predicate.call`` span and carries that call's resilience
    deltas, which ``trace explain`` prints."""

    def test_fresh_probes_carry_span_and_retry_deltas(self, tmp_path,
                                                      capsys):
        from repro.cli import main
        from repro.fji.examples import MAIN_CODE, figure1_problem
        from repro.observability import (
            load_trace,
            tracing_session,
            write_trace,
        )
        from repro.reduction import (
            ReductionProblem,
            generalized_binary_reduction,
        )
        from repro.reduction.predicate import InstrumentedPredicate
        from repro.resilience import FaultPlan, ResilientPredicate

        problem = figure1_problem()
        flaky = FaultPlan(kind="flaky", rate=0.3, seed=7).apply(
            problem.predicate, "ledger"
        )
        traced = ReductionProblem(
            variables=problem.variables,
            predicate=InstrumentedPredicate(
                ResilientPredicate(flaky, retries=10)
            ),
            constraint=problem.constraint,
            description=problem.description,
        )
        path = str(tmp_path / "sequential.jsonl")
        with tracing_session() as (tracer, metrics):
            result = generalized_binary_reduction(
                traced, require_true=frozenset({MAIN_CODE})
            )
            write_trace(path, tracer, metrics)
        events = load_trace(path)
        call_spans = {
            e["span_id"]
            for e in events
            if e["type"] == "span" and e["name"] == "predicate.call"
        }
        fresh = [
            e for e in events
            if e["type"] == "probe" and e["cache"] == "fresh"
        ]
        assert result.predicate_calls > 0
        assert len(fresh) == result.predicate_calls
        for probe in fresh:
            assert probe["span_id"] in call_spans
            assert probe["attempts"] == probe["retries"] + 1
            assert probe["timeouts"] == 0
            assert "batch_pos" not in probe
        # The seeded plan did inject faults, and retries absorbed them.
        retried = next(p for p in fresh if p["retries"] > 0)
        capsys.readouterr()
        assert main(["trace", "explain", retried["event_id"], path]) == 0
        out = capsys.readouterr().out
        assert (
            f"attempts={retried['attempts']} "
            f"retries={retried['retries']}"
        ) in out
        assert "predicate.call" in out
