"""Corpus execution and the persistent predicate cache.

Every (benchmark × decompiler × strategy) instance is independent, and
the predicate — the paper's ~33-second decompile+compile cycle — is a
pure function of (oracle, kept items).  This package amortizes both
axes:

- :mod:`repro.parallel.scheduler` — the one corpus engine,
  :func:`run_corpus_experiment`: inline at ``jobs=1`` (the sequential
  runner), otherwise whole reduction instances fanned to spawn-safe
  worker processes (:class:`InstanceTaskSpec`), dispatched adaptive
  longest-job-first, committed in serial order (outcomes, metrics,
  spans, ledger), with a shared :class:`WorkerBudget` so corpus
  workers × probe workers never oversubscribe the machine
  (``jlreduce bench --corpus-jobs N``),
- :mod:`repro.parallel.store` — the persistent predicate cache tier,
  keyed by oracle fingerprint + canonical sub-input hash, which
  :class:`~repro.reduction.predicate.InstrumentedPredicate` reads
  through and writes back, so repeat runs of the same instance cost
  zero fresh predicate calls.  One store behind one opener
  (:func:`open_store`): the sharded lazy-loading JSONL tier
  (:class:`ShardedPredicateStore` — hash-selected shard files, LRU
  size-bounded residency, threshold compaction, hit/miss/evict
  telemetry), which imports a v1 single-file store on first open,
- :mod:`repro.parallel.speculate` — speculative k-ary prefix search for
  GBR's inner binary search (``--speculate K``): k probes per round run
  concurrently on a dedicated pool, committed in deterministic serial
  order so results stay byte-identical to sequential runs,
- :mod:`repro.parallel.procpool` — the ``--probe-backend process``
  pool: fresh physical probes run in spawn-safe worker processes that
  rebuild the predicate chain from a picklable :class:`ProbeTaskSpec`
  through :func:`build_oracle_chain` (the one builder of the tool-
  latency → chaos → retries/deadline/budget chain, parent-side too),
  beating the GIL on the pure-Python probe work the thread pool cannot
  overlap; the parent commits results serially, so outcomes stay
  byte-identical across backends.

All of them lean on the concurrency-safe telemetry in
:mod:`repro.observability`: lock-protected metrics and thread-scoped
per-run registries (:func:`~repro.observability.scoped_metrics`), so
concurrent reductions never pollute each other's
``extras['metrics']``.
"""

from repro.parallel.procpool import (
    ProbeTaskSpec,
    ProcessProbePool,
    ToolLatencyPredicate,
    build_oracle_chain,
    build_worker_predicate,
)
from repro.parallel.scheduler import (
    InstancePool,
    InstanceTaskSpec,
    StoreSpec,
    WorkerBudget,
    close_worker_caches,
    load_cost_hints,
    resolve_jobs,
    run_corpus_experiment,
    run_instance_task,
)
from repro.parallel.speculate import (
    candidate_midpoints,
    speculation_allowed,
    speculative_interval_search,
)
from repro.parallel.store import (
    DEFAULT_SHARDS,
    ShardedPredicateStore,
    fingerprint_of,
    key_of,
    open_store,
)

__all__ = [
    "DEFAULT_SHARDS",
    "ShardedPredicateStore",
    "InstancePool",
    "InstanceTaskSpec",
    "ProbeTaskSpec",
    "ProcessProbePool",
    "StoreSpec",
    "ToolLatencyPredicate",
    "WorkerBudget",
    "build_oracle_chain",
    "build_worker_predicate",
    "candidate_midpoints",
    "close_worker_caches",
    "fingerprint_of",
    "key_of",
    "load_cost_hints",
    "run_instance_task",
    "open_store",
    "resolve_jobs",
    "run_corpus_experiment",
    "speculation_allowed",
    "speculative_interval_search",
]
