"""Predicate-store cache-tier benchmark: startup, throughput, warm runs.

Emits ``BENCH_8.json``.  A store whose history sits in one file must
re-parse *all* of it before the first probe can be answered — O(total
history), the cost of the old v1 single-file store and of a one-shard
store alike.  The sharded tier opens by reading a one-line manifest
and faults shards on demand, so startup is proportional to the shards
a run actually touches.  This bench measures that, plus the
operational properties the cache tier promises:

- **startup** — build identical one-shard and ``--shards``-shard
  stores of ``--entries`` outcomes; time cold-open-plus-first-lookup
  for each.  The headline is ``startup_speedup`` (one shard over
  ``--shards``), gated in CI.  The ratio is machine-independent: both
  sides parse the same JSONL, the sharded side just parses
  ~1/``shards`` of it.
- **throughput** — resident-shard lookup and append-record ops/sec on
  the store (the hot path of a warm corpus run).
- **warm corpus** — a 2-app corpus run twice against one sharded
  store: the second run must answer every probe from the cache (zero
  fresh predicate calls) and the ``store.hits`` counter must show it.
- **differential** — the same corpus, cold, with no store and with the
  sharded store: final bytes/classes, predicate calls, simulated
  seconds, and timelines must be identical (the store is invisible to
  reduction results).

Run it directly (pytest does not collect it — ``testpaths`` excludes
``benchmarks/`` and everything here is ``__main__``-guarded)::

    PYTHONPATH=src python benchmarks/bench_store.py --out BENCH_8.json

CI regression gate: ``--check BENCH_8.json`` re-runs and exits
non-zero when ``startup_speedup`` falls below ``--min-startup-speedup``
(default 3x), warm-run probes are not zero, the cross-run hit counter
is zero, lookup throughput falls below ``--min-lookup-ops``, the
store-backed run diverges from the store-less one on reduction
results, or a deterministic corpus figure (:data:`CORPUS_FIGURES`:
apps, instances, cold/warm probe counts, warm store hits/misses)
differs from the baseline's.  The baseline is read before the run, so
``--check`` may name the ``--out`` file.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from typing import Dict, List

from repro.harness import ExperimentConfig, run_instance
from repro.observability.metrics import MetricsRegistry, scoped_metrics
from repro.parallel import ShardedPredicateStore, open_store
from repro.workloads.corpus import CorpusConfig, build_corpus

SEED = 2021


def _fingerprint(i: int) -> str:
    return f"oracle-{i % 7}"


def _sub_input(i: int):
    return frozenset({f"var-{i}", f"var-{i + 1}"})


def bench_startup(root: str, entries: int, shards: int) -> Dict:
    """Cold open + first lookup: one-shard full scan vs lazy fault."""
    single_path = f"{root}/startup-single-shard"
    sharded_path = f"{root}/startup-sharded"
    for path, count in ((single_path, 1), (sharded_path, shards)):
        with ShardedPredicateStore(path, shards=count) as tier:
            for i in range(entries):
                tier.record(_fingerprint(i), _sub_input(i), i % 2 == 0)

    start = time.perf_counter()
    with ShardedPredicateStore(single_path) as store:
        assert store.lookup(_fingerprint(0), _sub_input(0)) is True
    single_open = time.perf_counter() - start

    start = time.perf_counter()
    with ShardedPredicateStore(sharded_path) as store:
        assert store.lookup(_fingerprint(0), _sub_input(0)) is True
        shard_loads = store.shard_loads
    sharded_open = time.perf_counter() - start

    return {
        "entries": entries,
        "shards": shards,
        "single_shard_open_seconds": round(single_open, 4),
        "sharded_open_seconds": round(sharded_open, 4),
        "sharded_shard_loads": shard_loads,
        "startup_speedup": round(single_open / sharded_open, 2),
    }


def bench_throughput(root: str, ops: int) -> Dict:
    """Resident-shard lookup and append-record rates."""
    path = f"{root}/throughput"
    with ShardedPredicateStore(path) as store:
        start = time.perf_counter()
        for i in range(ops):
            store.record(_fingerprint(i), _sub_input(i), i % 2 == 0)
        record_wall = time.perf_counter() - start

        start = time.perf_counter()
        for i in range(ops):
            store.lookup(_fingerprint(i), _sub_input(i))
        lookup_wall = time.perf_counter() - start

    return {
        "ops": ops,
        "record_ops_per_sec": int(ops / record_wall),
        "lookup_ops_per_sec": int(ops / lookup_wall),
    }


def _comparable(outcome):
    return (
        outcome.final_bytes,
        outcome.final_classes,
        outcome.predicate_calls,
        outcome.simulated_seconds,
        outcome.status,
        tuple(map(tuple, outcome.timeline)),
    )


def _run_corpus(pairs, config, store):
    return [
        run_instance(b, i, "our-reducer", config, store) for b, i in pairs
    ]


def bench_warm_and_differential(
    root: str, apps: int, min_classes: int, max_classes: int
) -> Dict:
    corpus = build_corpus(
        CorpusConfig(
            num_benchmarks=apps,
            min_classes=min_classes,
            max_classes=max_classes,
        )
    )
    pairs = [(b, i) for b in corpus for i in b.instances]
    config = ExperimentConfig(strategies=("our-reducer",))

    baseline = _run_corpus(pairs, config, None)
    path = f"{root}/corpus-sharded"
    with open_store(path) as store:
        cold = _run_corpus(pairs, config, store)
    identical = [_comparable(o) for o in cold] == [
        _comparable(o) for o in baseline
    ]

    # Warm rerun against the store, reopened cold, counters captured
    # through a scoped registry exactly like a --trace run.
    registry = MetricsRegistry()
    with scoped_metrics(registry):
        with open_store(path) as store:
            warm = _run_corpus(pairs, config, store)
    counters = registry.counter_values()
    warm_calls = sum(o.predicate_calls for o in warm)

    return {
        "apps": [b.benchmark_id for b in corpus],
        "instances": len(pairs),
        "identical_results": identical,
        "cold_predicate_calls": sum(o.predicate_calls for o in cold),
        "warm_predicate_calls": warm_calls,
        "warm_zero_fresh_probes": warm_calls == 0,
        "warm_store_hits": counters.get("store.hits", 0),
        "warm_store_misses": counters.get("store.misses", 0),
        "warm_shard_loads": counters.get("store.shard_loads", 0),
    }


#: The warm-corpus figures a rerun must reproduce exactly: they are a
#: deterministic function of the seeded corpus and the reduction, so any
#: drift is a behaviour change (or a stale baseline), never noise.
CORPUS_FIGURES = (
    "apps",
    "instances",
    "cold_predicate_calls",
    "warm_predicate_calls",
    "warm_store_hits",
    "warm_store_misses",
)


def check_payload(
    payload: Dict,
    min_startup_speedup: float,
    min_lookup_ops: int,
    baseline: Dict,
) -> List[str]:
    failures = []
    startup = payload["startup"]
    if startup["startup_speedup"] < min_startup_speedup:
        failures.append(
            f"sharded cold-open speedup {startup['startup_speedup']}x "
            f"fell below {min_startup_speedup}x"
        )
    throughput = payload["throughput"]
    if throughput["lookup_ops_per_sec"] < min_lookup_ops:
        failures.append(
            f"lookup throughput {throughput['lookup_ops_per_sec']}/s "
            f"fell below {min_lookup_ops}/s"
        )
    corpus = payload["corpus"]
    if not corpus["identical_results"]:
        failures.append(
            "the store-backed run diverged from the store-less run on "
            "reduction results"
        )
    if not corpus["warm_zero_fresh_probes"]:
        failures.append(
            f"warm rerun made {corpus['warm_predicate_calls']} fresh "
            "predicate calls (expected 0)"
        )
    if corpus["warm_store_hits"] <= 0:
        failures.append("warm rerun recorded no store.hits")
    for name in CORPUS_FIGURES:
        expected = baseline["corpus"][name]
        if corpus[name] != expected:
            failures.append(
                f"corpus {name} is {corpus[name]!r}, baseline has "
                f"{expected!r}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_8.json")
    parser.add_argument("--check", metavar="BASELINE", default=None)
    parser.add_argument("--min-startup-speedup", type=float, default=3.0)
    parser.add_argument("--min-lookup-ops", type=int, default=20000)
    parser.add_argument("--entries", type=int, default=20000)
    parser.add_argument("--shards", type=int, default=16)
    parser.add_argument("--ops", type=int, default=20000)
    parser.add_argument("--apps", type=int, default=2)
    parser.add_argument("--min-classes", type=int, default=12)
    parser.add_argument("--max-classes", type=int, default=20)
    args = parser.parse_args(argv)
    baseline = None
    if args.check is not None:
        with open(args.check) as handle:
            baseline = json.load(handle)

    with tempfile.TemporaryDirectory(prefix="bench-store-") as root:
        payload = {
            "bench": "store",
            "seed": SEED,
            "startup": bench_startup(root, args.entries, args.shards),
            "throughput": bench_throughput(root, args.ops),
            "corpus": bench_warm_and_differential(
                root, args.apps, args.min_classes, args.max_classes
            ),
        }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    startup = payload["startup"]
    corpus = payload["corpus"]
    print(
        f"startup speedup   : {startup['startup_speedup']}x "
        f"({startup['single_shard_open_seconds']}s full scan -> "
        f"{startup['sharded_open_seconds']}s, "
        f"{startup['sharded_shard_loads']} of {startup['shards']} "
        "shards faulted)"
    )
    print(
        f"throughput        : "
        f"{payload['throughput']['lookup_ops_per_sec']:,} lookups/s, "
        f"{payload['throughput']['record_ops_per_sec']:,} records/s"
    )
    print(
        f"warm corpus       : {corpus['cold_predicate_calls']} cold "
        f"probes -> {corpus['warm_predicate_calls']} warm "
        f"(store hits {corpus['warm_store_hits']:,}, "
        f"{corpus['warm_shard_loads']} shard loads)"
    )
    print(
        f"identical results : {corpus['identical_results']} "
        "(no store == sharded store)"
    )

    if baseline is not None:
        failures = check_payload(
            payload, args.min_startup_speedup, args.min_lookup_ops, baseline
        )
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("check             : ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
