"""The corpus-reduction workloads: ``reduce-cold``, ``reduce-warm`` and
``reduce-latency``.

All three reduce the ``small`` corpus at its canonical master seed
(2021: 6 apps, 14 buggy instances) through the harness's public
``run_instance`` entry point, on the sequential inline path.  The
workload seed orders the (instance, strategy) runs; it deliberately
does not pick the corpus, because corpora drawn from other master seeds
differ threefold in work (944 to 2,867 fresh probes over seeds 1-6) and
no regression bound could then hold.

Every pass is checked: each outcome is ``complete``, each reduced app is
rebuilt and must satisfy R (the ``generate_constraints`` CNF plus the
entry point) and P (the same error set from a fresh
``DecompilerOracle``), repeated passes must agree on every
``outcome_signature`` (less the placement-dependent memo counters), and
``reduce-warm`` must make no fresh probe.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import os
import random
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from benchstats import geomean, median, peak_rss_mb, percentile, ratio
from layers import Recorder, instrumented

from repro.bytecode.constraints import generate_constraints
from repro.bytecode.items import items_of
from repro.bytecode.metrics import application_size_bytes
from repro.bytecode.reducer import reduce_application
from repro.bytecode.serializer import serialize_application
from repro.decompiler.oracle import DecompilerOracle, entry_items
from repro.harness.experiments import (
    STRATEGY_NAMES,
    ExperimentConfig,
    outcome_signature,
    probe_pool,
    run_instance,
)
from repro.logic.cnf import Clause
from repro.parallel import ProbeTaskSpec, open_store
from repro.workloads.corpus import CorpusConfig, build_corpus

PROFILE = "small"
#: ``reduce-latency``: the modelled external decompile+compile time per
#: fresh probe, and the speculation width that overlaps it.
TOOL_LATENCY_S = 0.02
SPECULATE = 2
#: Set-up repeats whose median is ``setup_s`` (the warm store is filled
#: once: its fill is a whole cold pass).
SETUP_REPEATS = 3

#: The strategy entry points as the harness module binds them.
SEARCH_ENTRY_POINTS = (
    "generalized_binary_reduction",
    "binary_reduction",
    "lossy_reduce",
)

#: Per-run counters that depend on which pool worker ran which probe:
#: each process worker keeps its own materialization memo, so on the
#: process backend two identical passes split these differently.
#: ``outcome_signature`` does not exclude them; pass comparison does.
PLACEMENT_METRICS = ("reducer.memo_hits", "reducer.memo_misses")

Run = Tuple[Any, Any, str]  # (benchmark, instance, strategy)


@dataclass
class Pass:
    """One measured pass over the plan."""

    wall_s: float
    outcomes: list
    solutions: list
    run_s: List[float]
    #: Opening and closing the pass's store, outside ``wall_s``.
    store_open_s: float = 0.0
    store_close_s: float = 0.0


@dataclass
class Report:
    """What a workload hands back to ``run.py``."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    failures: List[str] = field(default_factory=list)
    env: Dict[str, Any] = field(default_factory=dict)


def corpus_config() -> CorpusConfig:
    return CorpusConfig.small()


def make_plan(corpus, strategies, seed: int) -> List[Run]:
    """Every (instance, strategy) run of the corpus, in a seeded order."""
    runs = [
        (benchmark, instance, strategy)
        for benchmark in corpus
        for instance in benchmark.instances
        for strategy in strategies
    ]
    random.Random(seed).shuffle(runs)
    return runs


@contextmanager
def captured_solutions(sink: list) -> Iterator[list]:
    """Record each strategy's ``result.solution`` as the harness gets it.

    ``InstanceOutcome`` carries sizes only; the correctness check needs
    the kept set to rebuild the reduced app.
    """
    module = importlib.import_module("repro.harness.experiments")
    saved = {name: getattr(module, name) for name in SEARCH_ENTRY_POINTS}

    def capture(fn: Callable) -> Callable:
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result.solution)
            return result

        return call

    try:
        for name, fn in saved.items():
            setattr(module, name, capture(fn))
        yield sink
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def run_pass(plan: List[Run], config: ExperimentConfig, store=None,
             probe_executor=None) -> Pass:
    outcomes, solutions, run_s = [], [], []
    with captured_solutions(solutions):
        start = time.perf_counter()
        for benchmark, instance, strategy in plan:
            began = time.perf_counter()
            outcomes.append(run_instance(
                benchmark, instance, strategy, config, store,
                probe_executor=probe_executor,
            ))
            run_s.append(time.perf_counter() - began)
        wall = time.perf_counter() - start
    return Pass(wall, outcomes, solutions, run_s)


def run_store_pass(plan: List[Run], config: ExperimentConfig,
                   path: str) -> Pass:
    """A pass against the store at ``path``, opened and closed around it."""
    start = time.perf_counter()
    store = open_store(path)
    opened = time.perf_counter()
    try:
        one = run_pass(plan, config, store)
    finally:
        closing = time.perf_counter()
        store.close()
    one.store_open_s = opened - start
    one.store_close_s = time.perf_counter() - closing
    return one


class ResultChecker:
    """Rebuilds each reduced app and checks R and P on it."""

    def __init__(self) -> None:
        self._cnf: Dict[str, Any] = {}
        self._verdicts: Dict[Tuple, Optional[str]] = {}

    def _constraint(self, benchmark):
        cnf = self._cnf.get(benchmark.benchmark_id)
        if cnf is None:
            app = benchmark.app
            cnf = generate_constraints(app)
            for item in entry_items(app):
                cnf.add_clause(Clause.unit(item))
            self._cnf[benchmark.benchmark_id] = cnf
        return cnf

    def check(self, run: Run, outcome, solution) -> Optional[str]:
        """None when the outcome is correct, else why it is not."""
        benchmark, instance, strategy = run
        if outcome.status != "complete":
            return f"status {outcome.status}: {outcome.error}"
        digest = hashlib.sha256(
            repr(sorted(map(repr, solution))).encode()
        ).hexdigest()
        key = (benchmark.benchmark_id, instance.decompiler, strategy,
               digest, outcome.final_bytes)
        if key not in self._verdicts:
            self._verdicts[key] = self._verify(run, outcome, solution)
        return self._verdicts[key]

    def _verify(self, run: Run, outcome, solution) -> Optional[str]:
        benchmark, instance, strategy = run
        app = benchmark.app
        if strategy == "jreduce":
            reduced = app.replace_classes(
                tuple(c for c in app.classes if c.name in solution)
            )
            kept = frozenset(items_of(reduced))
        else:
            reduced = reduce_application(app, solution)
            kept = frozenset(solution)
        if not self._constraint(benchmark).satisfied_by(kept):
            return "reduced app violates R"
        if application_size_bytes(reduced) != outcome.final_bytes:
            return "final_bytes differs from the rebuilt app"
        oracle = DecompilerOracle(app, instance.decompiler)
        if oracle.errors_of(reduced) != oracle.original_errors:
            return "reduced app does not preserve the error set (P)"
        return None


def pass_signature(outcome) -> Dict[str, Any]:
    """``outcome_signature`` without the placement-dependent counters."""
    signature = outcome_signature(outcome)
    signature["metrics"] = {
        name: value for name, value in signature["metrics"].items()
        if name not in PLACEMENT_METRICS
    }
    return signature


def check_passes(plan: List[Run], passes: List[Pass], checker: ResultChecker,
                 warm: bool) -> Tuple[int, int, List[str]]:
    """(attempted, failed, reasons) over every outcome of every pass."""
    attempted = failed = 0
    reasons: List[str] = []
    reference = [pass_signature(o) for o in passes[0].outcomes]
    for one in passes:
        if len(one.solutions) != len(one.outcomes):
            raise RuntimeError("a strategy run left no solution to check")
        for run, outcome, solution, expected in zip(
            plan, one.outcomes, one.solutions, reference
        ):
            attempted += 1
            problem = checker.check(run, outcome, solution)
            if problem is None and warm and outcome.predicate_calls:
                problem = f"{outcome.predicate_calls} fresh probes on a warm store"
            if problem is None and pass_signature(outcome) != expected:
                problem = "outcome differs between passes"
            if problem is not None:
                failed += 1
                benchmark, instance, strategy = run
                reasons.append(
                    f"{benchmark.benchmark_id}/{instance.decompiler}/"
                    f"{strategy}: {problem}"
                )
    return attempted, failed, reasons


def end_to_end(passes: List[Pass], setup_s: List[float]) -> Dict[str, float]:
    walls = [p.wall_s for p in passes]
    run_s = [s for p in passes for s in p.run_s]
    wall = median(walls)
    runs = len(passes[0].outcomes)
    return {
        "setup_s": median(setup_s),
        "wall_s": wall,
        "latency_p50_s": percentile(run_s, 50),
        "latency_p90_s": percentile(run_s, 90),
        # A sequential reducer's highest sustainable rate is its
        # throughput, so both read reductions per second here.
        "jobs_per_s": runs / wall,
        "max_rate_jobs_per_s": runs / wall,
        "bytes_rel": geomean(o.relative_bytes for o in passes[0].outcomes),
        "peak_rss_mb": peak_rss_mb(),
    }


def _sum_metric(outcomes, name: str) -> float:
    return sum(o.metrics.get(name, 0) for o in outcomes)


def layer_metrics(recorder: Recorder, traced: Pass, untraced: Pass,
                  setup: Recorder) -> Dict[str, float]:
    """The per-layer figures of one traced pass (see README.md)."""
    outcomes = traced.outcomes
    counts = recorder.counts
    s = recorder.self_s
    c = recorder.calls
    memo_hits = _sum_metric(outcomes, "serializer.memo_hits")
    memo_all = memo_hits + _sum_metric(outcomes, "serializer.memo_misses")
    useful = _sum_metric(outcomes, "speculate.probes_useful")
    wasted = _sum_metric(outcomes, "speculate.probes_wasted")
    other = traced.wall_s - recorder.total_self_s()
    return {
        "predicate_calls": sum(o.predicate_calls for o in outcomes),
        "simulated_s": sum(o.simulated_seconds for o in outcomes),
        "workloads.corpus_build_s": setup.total_s("corpus_build"),
        "oracle.baseline_s": s("oracle.baseline"),
        "constraints.generate_s": s("constraints.generate"),
        "constraints.calls": c("constraints.generate"),
        "constraints.clauses": counts.get("constraints.clauses", 0),
        "graphs.dependency_graph_s": s("graphs.dependency_graph"),
        "graphs.closures_s": s("graphs.closures"),
        "graphs.topo_order_s": s("graphs.topo_order"),
        "graphs.topo_order_calls": c("graphs.topo_order"),
        "search.self_s": s("search"),
        "progression.build_s": s("progression.build"),
        "progression.builds": c("progression.build"),
        "msa.compute_s": s("msa.compute"),
        "msa.calls": c("msa.compute"),
        "predicate.lookups": _sum_metric(outcomes, "predicate.queries"),
        "predicate.cache_hits": _sum_metric(outcomes, "predicate.cache_hits"),
        "predicate.self_s": s("predicate"),
        "probe.calls": c("probe"),
        "probe.self_s": s("probe"),
        "probe.materialize_s": s("probe.materialize"),
        "probe.decompile_s": s("probe.decompile"),
        "probe.javac_s": s("probe.javac"),
        "descriptors.parse_calls": counts.get("descriptors.parse", 0),
        "serializer.size_s": s("serializer.size"),
        "serializer.size_calls": c("serializer.size"),
        "serializer.serialize_s": s("serializer.serialize"),
        "serializer.memo_hit_ratio": ratio(memo_hits, memo_all),
        "store.open_s": traced.store_open_s,
        "store.lookup_s": s("store.lookup"),
        "store.lookups": c("store.lookup"),
        "store.hit_ratio": ratio(counts.get("store.hits", 0), c("store.lookup")),
        "store.record_s": s("store.record"),
        "store.records": c("store.record"),
        "store.close_s": traced.store_close_s,
        "speculate.rounds": _sum_metric(outcomes, "speculate.rounds"),
        "speculate.useful_ratio": ratio(useful, useful + wasted),
        "procpool.batch_s": s("procpool.batch"),
        "procpool.batches": c("procpool.batch"),
        "procpool.start_s": setup.total_s("procpool.start"),
        "harness.measure_s": s("harness.measure"),
        "harness.other_s": other,
        "harness.other_share": ratio(other, traced.wall_s),
        "trace.overhead_ratio": traced.wall_s / untraced.wall_s - 1.0,
    }


# ----------------------------------------------------------------------
# The three workloads
# ----------------------------------------------------------------------


@dataclass
class Context:
    """Per-run settings ``run.py`` passes to a workload."""

    seed: int
    seconds: float
    trace: bool
    workdir: str


def _store_dir(ctx: Context, name: str) -> str:
    path = os.path.join(ctx.workdir, name)
    shutil.rmtree(path, ignore_errors=True)
    return path


def _tracing(recorder: Optional[Recorder]):
    return instrumented(recorder) if recorder is not None else nullcontext()


def _passes(ctx: Context, one_pass: Callable[[Optional[Recorder]], Pass]):
    """(untraced passes, (recorder, traced pass) or None).

    Untraced, passes repeat until the next would end after
    ``ctx.seconds`` (at least one).  Traced, one untraced pass is the
    overhead reference for one traced pass.
    """
    if ctx.trace:
        untraced = one_pass(None)
        recorder = Recorder()
        return [untraced], (recorder, one_pass(recorder))
    passes: List[Pass] = []
    start = time.perf_counter()
    while not passes or (
        time.perf_counter() - start + median([p.wall_s for p in passes])
        <= ctx.seconds
    ):
        passes.append(one_pass(None))
    return passes, None


def _finish(ctx: Context, plan, passes: List[Pass],
            traced: Optional[Tuple[Recorder, Pass]], setup: Recorder,
            setup_s: List[float], checker: ResultChecker, warm: bool,
            env: Dict[str, Any], fill: Optional[Pass] = None) -> Report:
    all_passes = passes + ([traced[1]] if traced else [])
    attempted, failed, reasons = check_passes(plan, all_passes, checker, warm)
    if fill is not None:
        # The cold fill is checked too, and the warm passes must match
        # its results in everything but their probe counts.
        for index, outcome in enumerate(fill.outcomes):
            attempted += 1
            problem = checker.check(plan[index], outcome, fill.solutions[index])
            if problem is None and (
                outcome.final_bytes != passes[0].outcomes[index].final_bytes
            ):
                problem = "warm result differs from the cold fill"
            if problem is not None:
                failed += 1
                reasons.append(f"fill run {index}: {problem}")
    if traced is not None:
        recorder, traced_pass = traced
        metrics = layer_metrics(recorder, traced_pass, passes[0], setup)
        metrics["failed_share"] = ratio(failed, attempted)
    else:
        metrics = end_to_end(passes, setup_s)
    return Report(metrics, attempted, failed, reasons, env)


def _setup_corpus(recorder: Optional[Recorder] = None):
    start = time.perf_counter()
    with _tracing(recorder):
        corpus = build_corpus(corpus_config())
    return corpus, time.perf_counter() - start


def reduce_cold(ctx: Context) -> Report:
    """All four strategies against a fresh sharded store per pass."""
    config = ExperimentConfig()
    setup = Recorder()
    setup_s = []
    for repeat in range(SETUP_REPEATS):
        corpus, build_s = _setup_corpus(setup if repeat == 0 else None)
        start = time.perf_counter()
        open_store(_store_dir(ctx, "setup-store")).close()
        setup_s.append(build_s + time.perf_counter() - start)
    plan = make_plan(corpus, STRATEGY_NAMES, ctx.seed)
    stores = itertools.count(1)

    def one_pass(recorder: Optional[Recorder]) -> Pass:
        path = _store_dir(ctx, f"store-{next(stores)}")
        with _tracing(recorder):
            return run_store_pass(plan, config, path)

    passes, traced = _passes(ctx, one_pass)
    return _finish(ctx, plan, passes, traced, setup, setup_s,
                   ResultChecker(), False, _env(corpus, config))


def reduce_warm(ctx: Context) -> Report:
    """The same runs against a store the set-up filled: no fresh probe.

    Each pass reopens the store, so shards fault in from disk the way a
    later session's warm run would read them.
    """
    config = ExperimentConfig()
    setup = Recorder()
    corpus, build_s = _setup_corpus(setup)
    plan = make_plan(corpus, STRATEGY_NAMES, ctx.seed)
    path = _store_dir(ctx, "store")
    start = time.perf_counter()
    with open_store(path) as store:
        fill = run_pass(plan, config, store)
    setup_s = [build_s + time.perf_counter() - start]

    def one_pass(recorder: Optional[Recorder]) -> Pass:
        with _tracing(recorder):
            return run_store_pass(plan, config, path)

    passes, traced = _passes(ctx, one_pass)
    return _finish(ctx, plan, passes, traced, setup, setup_s,
                   ResultChecker(), True, _env(corpus, config), fill=fill)


def _warm_pool(pool) -> None:
    """Spawn every probe worker with a throwaway probe on another app.

    The warm-up app is not in the corpus, so no worker-side predicate
    cache the measured pass could use is filled here.
    """
    from repro.workloads.corpus import build_benchmark

    benchmark = build_benchmark(0, CorpusConfig.tiny())
    instance = benchmark.instances[0]
    spec = ProbeTaskSpec(
        app_bytes=serialize_application(benchmark.app),
        decompiler=instance.decompiler,
    )
    everything = frozenset(items_of(benchmark.app))
    futures = [pool.submit_probe(spec, everything) for _ in range(SPECULATE)]
    for future in futures:
        future.result()


def _start_pool(config: ExperimentConfig, recorder: Optional[Recorder]):
    """A started probe pool and the seconds its start-up took."""
    start = time.perf_counter()
    with _tracing(recorder), (
        recorder.span("procpool.start") if recorder else nullcontext()
    ):
        pool = probe_pool(config)
        _warm_pool(pool)
    return pool, time.perf_counter() - start


def reduce_latency(ctx: Context) -> Report:
    """``our-reducer`` at speculation width 2 on process-pool probes.

    Every pass gets a pool of its own, started in set-up: pool workers
    keep per-probe-spec materialization memos, so a second pass through
    one pool would start warm and report other ``reducer.memo_*``
    counts.
    """
    config = ExperimentConfig(
        strategies=("our-reducer",),
        speculate=SPECULATE,
        probe_backend="process",
        tool_latency_seconds=TOOL_LATENCY_S,
    )
    setup = Recorder()
    setup_s = []
    pools = []
    try:
        for repeat in range(SETUP_REPEATS):
            recorder = setup if repeat == 0 else None
            corpus, build_s = _setup_corpus(recorder)
            pool, pool_s = _start_pool(config, recorder)
            pools.append(pool)
            setup_s.append(build_s + pool_s)
        plan = make_plan(corpus, config.strategies, ctx.seed)

        def one_pass(recorder: Optional[Recorder]) -> Pass:
            pool = pools.pop() if pools else _start_pool(config, None)[0]
            try:
                with _tracing(recorder):
                    return run_pass(plan, config, probe_executor=pool)
            finally:
                pool.shutdown(wait=True)

        passes, traced = _passes(ctx, one_pass)
    finally:
        for pool in pools:
            pool.shutdown(wait=True)
    env = _env(corpus, config)
    env["tool_latency_s"] = TOOL_LATENCY_S
    return _finish(ctx, plan, passes, traced, setup, setup_s,
                   ResultChecker(), False, env)


def _env(corpus, config: ExperimentConfig) -> Dict[str, Any]:
    return {
        "corpus_profile": PROFILE,
        "corpus_seed": corpus_config().seed,
        "apps": len(corpus),
        "instances": sum(len(b.instances) for b in corpus),
        "strategies": list(config.strategies),
        "speculate": config.speculate,
        "probe_backend": config.probe_backend,
    }
