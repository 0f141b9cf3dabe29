"""Tests for the corpus runner's run-level guarantees.

:func:`repro.parallel.run_corpus_experiment` is the one corpus engine:
inline at ``jobs=1``, worker processes otherwise.  These tests pin what
a caller relies on whatever the job count — job-count normalisation,
serial/pooled equality, predicate-store reuse, graceful degradation and
per-run telemetry isolation.
"""

import dataclasses

import pytest

import repro.parallel.scheduler as scheduler_module
from repro.harness import ExperimentConfig, run_instance
from repro.harness.experiments import outcome_signature
from repro.parallel import (
    StoreSpec,
    open_store,
    resolve_jobs,
    run_corpus_experiment,
)
from repro.workloads.corpus import CorpusConfig, build_corpus


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_corpus(
        CorpusConfig(num_benchmarks=2, min_classes=10, max_classes=18)
    )


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(strategies=("our-reducer", "jreduce"))


def comparable(outcome):
    """Everything except host wall time (same-process comparisons)."""
    fields = dataclasses.asdict(outcome)
    fields.pop("real_seconds")
    return fields


class TestResolveJobs:
    def test_none_and_zero_mean_cpu_count(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)

    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestSerialParallelEquality:
    def test_outcomes_identical_except_real_seconds(self, tiny_corpus, config):
        serial = run_corpus_experiment(tiny_corpus, config)
        parallel = run_corpus_experiment(tiny_corpus, config, jobs=2)
        assert len(serial) == len(parallel)
        # Across processes only the residency counters may differ.
        for expected, actual in zip(serial, parallel):
            assert outcome_signature(expected) == outcome_signature(actual)

    def test_parallel_progress_lines_in_serial_order(
        self, tiny_corpus, config
    ):
        serial_lines, parallel_lines = [], []
        run_corpus_experiment(
            tiny_corpus, config, progress=serial_lines.append
        )
        run_corpus_experiment(
            tiny_corpus, config, progress=parallel_lines.append, jobs=2
        )
        assert serial_lines == parallel_lines

    def test_jobs_kwarg_none_uses_all_cpus(
        self, tiny_corpus, config, monkeypatch
    ):
        # Pretend a two-CPU host so the pool stays small.
        monkeypatch.setattr(scheduler_module.os, "cpu_count", lambda: 2)
        sizes = []
        real_pool = scheduler_module.InstancePool

        def recording_pool(max_workers, backend="process"):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers, backend=backend)

        monkeypatch.setattr(scheduler_module, "InstancePool", recording_pool)
        outcomes = run_corpus_experiment(tiny_corpus, config, jobs=None)
        assert sizes == [2]
        assert [outcome_signature(o) for o in outcomes] == [
            outcome_signature(o)
            for o in run_corpus_experiment(tiny_corpus, config)
        ]


class TestPersistentStoreReuse:
    def test_warm_store_run_costs_zero_fresh_calls(
        self, tiny_corpus, config, tmp_path
    ):
        benchmark = next(b for b in tiny_corpus if b.instances)
        instance = benchmark.instances[0]
        with open_store(tmp_path / "store") as store:
            cold = run_instance(
                benchmark, instance, "our-reducer", config, store
            )
            warm = run_instance(
                benchmark, instance, "our-reducer", config, store
            )
        assert cold.predicate_calls > 0
        assert warm.predicate_calls == 0
        assert warm.metrics["predicate.cache_hit_rate"] == 1.0
        # The reduction itself is unchanged — only the cost vanishes.
        assert warm.final_bytes == cold.final_bytes
        assert warm.final_classes == cold.final_classes
        assert warm.simulated_seconds == 0.0

    def test_store_survives_process_boundary(
        self, tiny_corpus, config, tmp_path
    ):
        spec = StoreSpec(path=str(tmp_path / "store"))
        cold = run_corpus_experiment(
            tiny_corpus, config, jobs=1, store_spec=spec
        )
        # The worker processes read what the parent process wrote.
        warm = run_corpus_experiment(
            tiny_corpus, config, jobs=2, store_spec=spec
        )
        assert any(o.predicate_calls > 0 for o in cold)
        assert all(o.predicate_calls == 0 for o in warm)
        assert all(o.simulated_seconds == 0.0 for o in warm)

    def test_parallel_run_with_shared_store(self, tiny_corpus, config,
                                            tmp_path):
        spec = StoreSpec(path=str(tmp_path / "store"))
        first = run_corpus_experiment(
            tiny_corpus, config, jobs=2, store_spec=spec
        )
        second = run_corpus_experiment(
            tiny_corpus, config, jobs=2, store_spec=spec
        )
        assert all(o.predicate_calls == 0 for o in second)
        for cold, warm in zip(first, second):
            assert warm.final_bytes == cold.final_bytes
            assert warm.final_classes == cold.final_classes


class TestGracefulDegradation:
    """A crashing strategy run must not take the bench down (with
    keep_going).  The fault is injected in-process, so these run inline;
    the pooled path is the scheduler tests' chaos crash lane."""

    @staticmethod
    def _crash_one(monkeypatch, target_benchmark, target_strategy):
        real_run_instance = scheduler_module.run_instance

        def flaky_run_instance(
            benchmark, instance, strategy, config, store, **kwargs
        ):
            if (
                benchmark.benchmark_id == target_benchmark
                and strategy == target_strategy
            ):
                raise RuntimeError("worker exploded")
            return real_run_instance(
                benchmark, instance, strategy, config, store, **kwargs
            )

        monkeypatch.setattr(
            scheduler_module, "run_instance", flaky_run_instance
        )

    def test_injected_worker_exception_degrades_in_place(
        self, tiny_corpus, monkeypatch
    ):
        target = tiny_corpus[0].benchmark_id
        self._crash_one(monkeypatch, target, "jreduce")
        config = ExperimentConfig(
            strategies=("our-reducer", "jreduce"), keep_going=True
        )
        outcomes = run_corpus_experiment(tiny_corpus, config)
        expected_count = sum(len(b.instances) * 2 for b in tiny_corpus)
        assert len(outcomes) == expected_count
        # Error outcomes sit exactly where the serial order puts them.
        for i, outcome in enumerate(outcomes):
            serial_slot = (
                outcome.benchmark_id == target
                and outcome.strategy == "jreduce"
            )
            assert (outcome.status == "error") == serial_slot, i
        errored = [o for o in outcomes if o.status == "error"]
        assert errored
        assert all("worker exploded" in o.error for o in errored)
        # The rest of the corpus completed normally.
        assert all(
            o.error is None and o.predicate_calls > 0
            for o in outcomes
            if o.status == "complete"
        )

    def test_without_keep_going_the_exception_propagates(
        self, tiny_corpus, monkeypatch
    ):
        self._crash_one(
            monkeypatch, tiny_corpus[0].benchmark_id, "jreduce"
        )
        config = ExperimentConfig(strategies=("our-reducer", "jreduce"))
        with pytest.raises(RuntimeError, match="worker exploded"):
            run_corpus_experiment(tiny_corpus, config)


class TestConcurrentTelemetryIsolation:
    def test_parallel_metrics_match_serial(self, tiny_corpus, config):
        """Per-run metrics must not leak across concurrent reductions."""
        serial = run_corpus_experiment(tiny_corpus, config)
        parallel = run_corpus_experiment(tiny_corpus, config, jobs=2)
        for expected, actual in zip(serial, parallel):
            assert (
                outcome_signature(expected)["metrics"]
                == outcome_signature(actual)["metrics"]
            )
            assert (
                actual.metrics.get("predicate.calls", 0)
                == actual.predicate_calls
            )

    def test_scoped_attribution_under_jobs_and_speculation(self, tiny_corpus):
        """``scoped_metrics()`` attribution with two corpus workers and
        ``speculate=4``.

        Two layers of concurrency at once: corpus worker processes, each
        fanning probe batches onto its own speculation pool.  Batch
        results commit on the issuing worker's thread, so each
        instance's scoped registry must see exactly its own probes —
        comparing against a fully serial run catches any
        cross-contamination.
        """
        serial_config = ExperimentConfig(
            strategies=("our-reducer",), speculate=1
        )
        spec_config = ExperimentConfig(
            strategies=("our-reducer",), speculate=4, worker_budget=4
        )
        serial = run_corpus_experiment(tiny_corpus, serial_config)
        concurrent = run_corpus_experiment(tiny_corpus, spec_config, jobs=2)
        assert len(serial) == len(concurrent)
        for expected, actual in zip(serial, concurrent):
            assert actual.benchmark_id == expected.benchmark_id
            # Speculation may probe *more* (wasted speculative calls)
            # but attribution must stay per-instance and self-consistent.
            assert (
                actual.metrics.get("predicate.calls", 0)
                == actual.predicate_calls
            )
            assert actual.predicate_calls >= expected.predicate_calls
            # The reduction result itself is unchanged by concurrency.
            assert actual.final_bytes == expected.final_bytes
            assert actual.final_classes == expected.final_classes
        total_calls = sum(o.predicate_calls for o in concurrent)
        per_instance = [
            o.metrics.get("predicate.calls", 0) for o in concurrent
        ]
        assert sum(per_instance) == total_calls
