"""The ``jlreduce`` command-line tool.

Subcommands:

- ``jlreduce demo`` — the paper's Section 2 running example end to end.
- ``jlreduce count FILE.fji`` — type check an FJI file and count its
  valid sub-inputs with the #SAT engine.
- ``jlreduce reduce FILE.fji --keep ITEM ...`` — reduce an FJI program
  to the smallest valid sub-program whose kept-item set contains the
  named items (a containment predicate stands in for the buggy tool;
  item syntax matches the bracket rendering, e.g. ``[A.m()!code]``).
- ``jlreduce bench [--profile small|paper|njr] [--corpus-jobs N]
  [--store P]`` — run the corpus experiment and print the Section 5
  reports.  ``--corpus-jobs N`` runs whole instances on N worker
  processes (longest-job-first, serial-order commit, the same outcomes
  as the default inline run; 0: one per CPU), with ``--worker-budget
  T`` capping corpus workers + per-worker probe pools at T live workers
  total; ``--store`` persists predicate outcomes so repeat runs skip
  fresh invocations; ``--results FILE.jsonl`` streams per-instance
  outcomes to disk.  ``--corpus-dir DIR`` runs a corpus persisted by
  ``jlreduce corpus generate`` from its manifest instead of building
  one in memory, and ``--debloat`` adds the coverage-debloating
  scenario; either prints a streaming report with one row-group per
  scenario (no O(corpus) memory in the parent).
  ``--num-benchmarks N`` overrides the profile's corpus size.
  The store is the sharded cache tier (lazily-loaded hash-selected
  shard files with compaction; a v1 single-file store is migrated in
  place) with ``--store-shards N`` / ``--store-max-entries M`` sizing
  knobs (shared with ``serve``), and ``--store-tenant NAME`` to
  namespace many tenants into one shared warm store.
  Resilience flags: ``--budget-calls`` / ``--budget-seconds`` cap each
  run and yield anytime ``"partial"`` outcomes, ``--retries`` recovers
  transient oracle failures, ``--deadline-seconds`` bounds each call,
  ``--keep-going`` records crashed instances instead of aborting, and
  ``--chaos KIND --chaos-rate P --chaos-seed N`` injects seeded faults
  (the chaos bench mode).  ``--speculate K`` (also on ``reduce``)
  evaluates up to K GBR prefix-search probes concurrently per round
  with byte-identical results; ``--probe-backend process`` (also on
  ``reduce``) runs them on spawn-safe worker processes instead of the
  GIL-bound thread pool, and ``--tool-latency-ms MS`` models the
  paper's external tool as a real per-attempt sleep the concurrent
  probes overlap.
- ``jlreduce corpus generate DIR`` — build a corpus profile and persist
  it (manifest + per-app files) for later ``bench --corpus-dir`` runs.
- ``jlreduce report FILE.jsonl`` — render the paper-style corpus table
  from a streamed ``--results`` file.
- ``jlreduce trace summarize FILE...`` — aggregate JSONL traces written
  by ``--trace`` (per-span totals/mean/p95, counter totals, probe
  ledger, and the slowest per-instance blocks).  All ``trace`` subcommands accept multiple files and globs
  and transparently merge per-worker shard files
  (``FILE.shard-w0.jsonl`` ...) in serial commit order.
- ``jlreduce trace timeline FILE...`` — the merged causal timeline
  (spans indented under parents, both clocks, probes inlined).
- ``jlreduce trace flame FILE...`` — folded-stacks output for
  flamegraph renderers (``--clock wall|virtual``).
- ``jlreduce trace diff A B`` — compare two runs on both clocks (wall
  and simulated) with per-span deltas; either side may be a trace or a
  BENCH_*.json baseline payload.
- ``jlreduce trace explain HANDLE FILE...`` — resolve one probe's full
  provenance chain (why it ran, what it cost on both clocks) by
  ``event_id`` or key prefix.
- ``jlreduce trace merge FILE... --out MERGED`` — write the merged
  event stream as one JSONL file.
- ``jlreduce metrics export FILE...`` — metric events as
  Prometheus-style text exposition.
- ``jlreduce serve`` — the reduction-as-a-service job server: an
  asyncio HTTP front-end accepting JSON reduction jobs, multi-tenant
  admission control (per-tenant queues, quotas, weighted fair
  dispatch, 429 backpressure), fan-out to the process pool, one shared
  tenant-namespaced warm store, graceful SIGTERM/SIGINT drain.
- ``jlreduce submit`` — send one job to a running server and wait.
- ``jlreduce loadgen`` — drive a server with a concurrent tenant mix
  and print the measured throughput/latency curve.

``reduce`` and ``bench`` accept ``--trace FILE.jsonl`` (record spans and
metrics for the run; ``bench --corpus-jobs N`` with N > 1 streams
per-worker shard files next to it), ``--profile-phases`` (opt-in
cProfile hotspot capture per reduce phase, recorded into the trace),
and ``--json`` (machine-readable result on stdout).

Exit status is 0 on success, 1 on user errors (bad file, unknown item),
2 on argument errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _add_store_arguments(cmd: argparse.ArgumentParser) -> None:
    """The predicate-store flags ``bench`` and ``serve`` share."""
    cmd.add_argument(
        "--store",
        metavar="PATH",
        help="persistent predicate store directory (hash-selected shard "
        "files); warm entries skip fresh predicate invocations.  A v1 "
        "single-file store at PATH is migrated into it on first open",
    )
    cmd.add_argument(
        "--store-shards",
        type=int,
        default=None,
        metavar="N",
        help="shard files for a new store (default 16; an existing "
        "store keeps its manifest's count)",
    )
    cmd.add_argument(
        "--store-max-entries",
        type=int,
        default=None,
        metavar="M",
        help="bound each store handle's in-memory index to ~M entries; "
        "least-recently-used shards are evicted and re-faulted from "
        "disk on demand (default: unbounded)",
    )


def _add_run_arguments(cmd: argparse.ArgumentParser) -> None:
    """The run flags ``reduce`` and ``bench`` share (checked once by
    :func:`_run_arguments_error`)."""
    cmd.add_argument(
        "--trace",
        metavar="FILE.jsonl",
        help="write span/metric telemetry for the run as JSONL",
    )
    cmd.add_argument(
        "--json",
        action="store_true",
        help="print the result as JSON (reduce: the solution; bench: "
        "per-instance outcomes) instead of the human-readable output",
    )
    cmd.add_argument(
        "--budget-calls",
        type=int,
        metavar="N",
        help="per-run cap on fresh predicate attempts; an exhausted run "
        "returns its best-so-far result (status: partial)",
    )
    cmd.add_argument(
        "--budget-seconds",
        type=float,
        metavar="S",
        help="per-run cap on simulated seconds (33 s per attempt); an "
        "exhausted run returns its best-so-far result (status: partial)",
    )
    cmd.add_argument(
        "--speculate",
        type=int,
        default=1,
        metavar="K",
        help="evaluate up to K GBR prefix-search probes concurrently per "
        "round; results are byte-identical to sequential runs (default 1)",
    )
    cmd.add_argument(
        "--probe-backend",
        choices=("thread", "process"),
        default="thread",
        help="where speculative probes physically run: 'thread' (GIL-"
        "bound pool) or 'process' (spawn-safe worker processes); "
        "results are byte-identical (default thread)",
    )
    cmd.add_argument(
        "--profile-phases",
        action="store_true",
        help="capture a cProfile hotspot table per reduce phase into the "
        "trace (requires --trace; adds noticeable overhead)",
    )


def _run_arguments_error(args: argparse.Namespace) -> Optional[str]:
    """Why the shared run flags are unusable, or None when they are fine."""
    from repro.resilience import Budget

    if args.speculate < 1:
        return f"--speculate must be >= 1, got {args.speculate}"
    if args.profile_phases and not args.trace:
        return ("--profile-phases needs --trace (the profile is recorded "
                "into the trace)")
    try:
        Budget(max_calls=args.budget_calls, max_seconds=args.budget_seconds)
    except ValueError as exc:
        return str(exc)
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jlreduce",
        description=(
            "Logical bytecode reduction (PLDI 2021 reproduction): "
            "dependency-aware input reduction via propositional logic "
            "and Generalized Binary Reduction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run the paper's running example")

    count = sub.add_parser(
        "count", help="count valid sub-inputs of an FJI file"
    )
    count.add_argument("file", help="path to an .fji source file")

    reduce_cmd = sub.add_parser(
        "reduce", help="reduce an FJI file around required items"
    )
    reduce_cmd.add_argument("file", help="path to an .fji source file")
    reduce_cmd.add_argument(
        "--keep",
        action="append",
        default=[],
        metavar="ITEM",
        help="item that must survive, e.g. '[A.m()!code]' (repeatable)",
    )
    _add_run_arguments(reduce_cmd)

    bench = sub.add_parser(
        "bench", help="run the corpus experiment and print the reports"
    )
    bench.add_argument(
        "--profile",
        choices=("small", "paper", "njr"),
        default="small",
        help="corpus size profile; 'njr' is the 1000-app corpus whose "
        "geo-mean classes/bytes/items/clauses match the paper's Table 1 "
        "(default: small)",
    )
    bench.add_argument(
        "--num-benchmarks",
        type=int,
        default=None,
        metavar="N",
        help="override the profile's corpus size",
    )
    bench.add_argument(
        "--corpus-jobs",
        type=int,
        default=1,
        metavar="N",
        help="run whole instances on N worker processes (longest-job-"
        "first dispatch, serial-order commit; outcomes match the inline "
        "run; 0: one per CPU; default 1: inline, no worker processes)",
    )
    bench.add_argument(
        "--worker-budget",
        type=int,
        default=None,
        metavar="T",
        help="cap total live workers (corpus workers + their probe "
        "pools) at T so --corpus-jobs x --speculate never "
        "oversubscribes (default: no cap)",
    )
    bench.add_argument(
        "--results",
        metavar="FILE.jsonl",
        help="stream per-instance outcomes to FILE as JSONL "
        "(append-ordered, one row per instance)",
    )
    bench.add_argument(
        "--corpus-dir",
        metavar="DIR",
        help="run a corpus persisted by 'jlreduce corpus generate' from "
        "its manifest (apps load lazily, one instance at a time)",
    )
    bench.add_argument(
        "--debloat",
        action="store_true",
        help="add the coverage-based debloating scenario as a second "
        "row-group (same Problem/predicate interface, observed-coverage "
        "predicate)",
    )
    _add_store_arguments(bench)
    bench.add_argument(
        "--store-tenant",
        default="",
        metavar="NAME",
        help="namespace store entries under a tenant, so many tenants "
        "can share one warm store without mixing cached outcomes",
    )
    _add_run_arguments(bench)
    bench.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retries per predicate call for transient oracle failures "
        "(timeouts and flaky errors; default 0)",
    )
    bench.add_argument(
        "--deadline-seconds",
        type=float,
        metavar="S",
        help="wall-clock deadline per predicate attempt; overruns count "
        "as transient failures",
    )
    bench.add_argument(
        "--keep-going",
        action="store_true",
        help="record a crashed instance as an error-marked outcome and "
        "finish the rest of the corpus",
    )
    bench.add_argument(
        "--chaos",
        choices=("flaky", "flip", "slow", "crash"),
        metavar="KIND",
        help="inject seeded oracle faults: flaky (transient errors), "
        "flip (wrong answers), slow (stalls), crash (unrecoverable)",
    )
    bench.add_argument(
        "--chaos-rate",
        type=float,
        default=0.2,
        metavar="P",
        help="per-call fault probability for --chaos (default 0.2)",
    )
    bench.add_argument(
        "--chaos-seed",
        type=int,
        default=2021,
        metavar="N",
        help="master seed for the fault schedule (default 2021)",
    )
    bench.add_argument(
        "--tool-latency-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="real milliseconds each fresh predicate attempt sleeps, "
        "modelling the paper's external ~33 s tool; concurrent probes "
        "overlap the sleep (default 0)",
    )

    corpus_cmd = sub.add_parser(
        "corpus", help="generate and persist benchmark corpora"
    )
    corpus_sub = corpus_cmd.add_subparsers(
        dest="corpus_command", required=True
    )
    generate_cmd = corpus_sub.add_parser(
        "generate",
        help="build a corpus profile and persist it (manifest + apps)",
    )
    generate_cmd.add_argument(
        "directory", metavar="DIR", help="output directory for the corpus"
    )
    generate_cmd.add_argument(
        "--profile",
        choices=("small", "paper", "njr"),
        default="njr",
        help="corpus size profile (default: njr)",
    )
    generate_cmd.add_argument(
        "--num-benchmarks",
        type=int,
        default=None,
        metavar="N",
        help="override the profile's corpus size",
    )
    generate_cmd.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override the profile's master seed (per-benchmark seeds "
        "derive from the benchmark id, so N only relabels the corpus)",
    )

    report_cmd = sub.add_parser(
        "report",
        help="render the paper-style corpus table from streamed results",
    )
    report_cmd.add_argument(
        "results",
        metavar="FILE.jsonl",
        help="results file written by bench --results",
    )

    trace = sub.add_parser("trace", help="inspect JSONL trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def _trace_files(cmd):
        cmd.add_argument(
            "files",
            nargs="+",
            metavar="FILE",
            help=".jsonl trace files or globs; per-worker shard files "
            "are discovered and merged automatically",
        )

    summarize_cmd = trace_sub.add_parser(
        "summarize", help="aggregate traces into per-span/counter tables"
    )
    _trace_files(summarize_cmd)
    summarize_cmd.add_argument(
        "--json",
        action="store_true",
        help="print the aggregate summary as JSON",
    )

    timeline_cmd = trace_sub.add_parser(
        "timeline", help="print the merged causal timeline"
    )
    _trace_files(timeline_cmd)
    timeline_cmd.add_argument(
        "--no-probes",
        action="store_true",
        help="omit probe ledger entries from the timeline",
    )
    timeline_cmd.add_argument(
        "--limit",
        type=int,
        metavar="N",
        help="truncate the timeline after N lines",
    )

    flame_cmd = trace_sub.add_parser(
        "flame", help="folded-stacks output for flamegraph renderers"
    )
    _trace_files(flame_cmd)
    flame_cmd.add_argument(
        "--clock",
        choices=("wall", "virtual"),
        default="wall",
        help="which clock weights the stacks (default wall)",
    )

    diff_cmd = trace_sub.add_parser(
        "diff", help="compare two runs on both clocks"
    )
    diff_cmd.add_argument(
        "a", metavar="A", help="baseline: a trace file/glob or BENCH json"
    )
    diff_cmd.add_argument(
        "b", metavar="B", help="candidate: a trace file/glob or BENCH json"
    )
    diff_cmd.add_argument(
        "--json",
        action="store_true",
        help="print the diff as JSON",
    )

    explain_cmd = trace_sub.add_parser(
        "explain", help="resolve one probe's full provenance chain"
    )
    explain_cmd.add_argument(
        "handle",
        metavar="HANDLE",
        help="probe event_id (e.g. 'w0:e12') or probe key prefix",
    )
    _trace_files(explain_cmd)

    merge_cmd = trace_sub.add_parser(
        "merge", help="merge shards into one serial-ordered JSONL file"
    )
    _trace_files(merge_cmd)
    merge_cmd.add_argument(
        "--out",
        metavar="MERGED.jsonl",
        help="write the merged stream here (default stdout)",
    )

    metrics_cmd = sub.add_parser(
        "metrics", help="export metrics from JSONL trace files"
    )
    metrics_sub = metrics_cmd.add_subparsers(
        dest="metrics_command", required=True
    )
    export_cmd = metrics_sub.add_parser(
        "export", help="Prometheus text exposition of the trace's metrics"
    )
    _trace_files(export_cmd)
    export_cmd.add_argument(
        "--prefix",
        default="jlreduce",
        help="metric name prefix (default jlreduce)",
    )

    serve_cmd = sub.add_parser(
        "serve",
        help="run the reduction-as-a-service asyncio job server",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=8437,
        help="listen port; 0 picks a free port (default 8437)",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="pool workers == max concurrently running jobs (default 2)",
    )
    serve_cmd.add_argument(
        "--backend", choices=("process", "thread"), default="process",
        help="instance pool backend (default process)",
    )
    _add_store_arguments(serve_cmd)
    serve_cmd.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="per-tenant queue bound before 429 backpressure "
        "(default 64)",
    )
    serve_cmd.add_argument(
        "--tenant-quota-jobs", type=int, default=None, metavar="N",
        help="per-tenant admission quota: max jobs per session",
    )
    serve_cmd.add_argument(
        "--tenant-quota-seconds", type=float, default=None, metavar="S",
        help="per-tenant admission quota: max simulated seconds",
    )
    serve_cmd.add_argument(
        "--tenant-weight", action="append", default=[], metavar="NAME=W",
        help="fair-dispatch weight override (repeatable, default 1.0)",
    )
    serve_cmd.add_argument(
        "--trace", metavar="FILE.jsonl",
        help="stream the service session's sharded trace here",
    )
    serve_cmd.add_argument(
        "--ready-file", metavar="PATH",
        help="write 'host port' here once listening (CI handshake)",
    )
    serve_cmd.add_argument(
        "--sample-seconds", type=float, default=0.5, metavar="S",
        help="queue-depth gauge sampling period (default 0.5)",
    )

    submit_cmd = sub.add_parser(
        "submit", help="submit one reduction job to a running server"
    )
    submit_cmd.add_argument(
        "--server", default="127.0.0.1:8437", metavar="HOST:PORT"
    )
    submit_cmd.add_argument("--tenant", required=True)
    submit_cmd.add_argument(
        "--benchmark", default="b000", metavar="ID",
        help="workload benchmark id, e.g. b003 (default b000)",
    )
    submit_cmd.add_argument(
        "--profile", default="small",
        help="corpus profile naming the workload (default small)",
    )
    submit_cmd.add_argument(
        "--decompiler", default=None,
        help="decompiler under test (default: first runnable pair "
        "of the benchmark)",
    )
    submit_cmd.add_argument(
        "--strategy", default="our-reducer",
        help="reduction strategy (default our-reducer)",
    )
    submit_cmd.add_argument(
        "--scenario", choices=("reduction", "debloat"),
        default="reduction",
    )
    submit_cmd.add_argument(
        "--app", metavar="FILE",
        help="submit this serialized application instead of a "
        "server-generated workload",
    )
    submit_cmd.add_argument(
        "--app-seed", type=int, default=0, metavar="N",
        help="app seed accompanying --app (default 0)",
    )
    submit_cmd.add_argument(
        "--no-wait", action="store_true",
        help="return after the 202, do not poll for completion",
    )
    submit_cmd.add_argument(
        "--timeout", type=float, default=300.0, metavar="S",
        help="polling timeout with --wait (default 300)",
    )
    submit_cmd.add_argument(
        "--json", action="store_true",
        help="print the final job record as JSON",
    )

    loadgen_cmd = sub.add_parser(
        "loadgen",
        help="drive a running server with a concurrent tenant mix",
    )
    loadgen_cmd.add_argument(
        "--server", default="127.0.0.1:8437", metavar="HOST:PORT"
    )
    loadgen_cmd.add_argument(
        "--jobs", type=int, default=100, metavar="N",
        help="total jobs across all tenants (default 100)",
    )
    loadgen_cmd.add_argument(
        "--concurrency", type=int, default=100, metavar="N",
        help="jobs concurrently in flight (default 100)",
    )
    loadgen_cmd.add_argument(
        "--tenants", default="acme=1,beta=1,gamma=1", metavar="SPEC",
        help="comma-separated name=share mix "
        "(default acme=1,beta=1,gamma=1)",
    )
    loadgen_cmd.add_argument(
        "--profile", default="tiny",
        help="corpus profile for the generated jobs (default tiny)",
    )
    loadgen_cmd.add_argument(
        "--benchmarks", type=int, default=4, metavar="N",
        help="cycle jobs over the profile's first N benchmarks "
        "(default 4)",
    )
    loadgen_cmd.add_argument(
        "--strategy", default="our-reducer",
        help="reduction strategy (default our-reducer)",
    )
    loadgen_cmd.add_argument(
        "--json", action="store_true",
        help="print the measured curve as JSON",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _demo()
    if args.command == "count":
        return _count(args.file)
    if args.command in ("reduce", "bench"):
        error = _run_arguments_error(args)
        if error is not None:
            print(f"jlreduce: {error}", file=sys.stderr)
            return 1
        return _reduce(args) if args.command == "reduce" else _bench(args)
    if args.command == "corpus":
        if args.corpus_command == "generate":
            return _corpus_generate(
                args.directory, args.profile, args.num_benchmarks, args.seed
            )
        raise AssertionError(
            f"unhandled corpus command {args.corpus_command!r}"
        )
    if args.command == "report":
        return _report(args.results)
    if args.command == "trace":
        if args.trace_command == "summarize":
            return _trace_summarize(args.files, args.json)
        if args.trace_command == "timeline":
            return _trace_timeline(args.files, args.no_probes, args.limit)
        if args.trace_command == "flame":
            return _trace_flame(args.files, args.clock)
        if args.trace_command == "diff":
            return _trace_diff(args.a, args.b, args.json)
        if args.trace_command == "explain":
            return _trace_explain(args.handle, args.files)
        if args.trace_command == "merge":
            return _trace_merge(args.files, args.out)
        raise AssertionError(f"unhandled trace command {args.trace_command!r}")
    if args.command == "metrics":
        if args.metrics_command == "export":
            return _metrics_export(args.files, args.prefix)
        raise AssertionError(
            f"unhandled metrics command {args.metrics_command!r}"
        )
    if args.command == "serve":
        return _serve(args)
    if args.command == "submit":
        return _submit(args)
    if args.command == "loadgen":
        return _loadgen(args)
    raise AssertionError(f"unhandled command {args.command!r}")


# ---------------------------------------------------------------------------


class _ContainmentPredicate:
    """``reduce``'s stand-in oracle: holds iff the kept set covers
    the ``--keep`` targets.

    A module-level class (not a lambda) so it pickles into
    ``--probe-backend process`` worker processes; the FJI item
    dataclasses it holds are frozen and picklable.
    """

    def __init__(self, target) -> None:
        self.target = frozenset(target)

    def __call__(self, kept) -> bool:
        return self.target <= kept

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _ContainmentPredicate)
            and self.target == other.target
        )

    def __hash__(self) -> int:
        return hash(self.target)


def _demo() -> int:
    from repro.fji.examples import (
        MAIN_CODE,
        figure1_constraints,
        figure1_problem,
        figure1_program,
    )
    from repro.fji.pretty import pretty_program
    from repro.fji.reducer import reduce_program
    from repro.logic import count_models
    from repro.reduction import generalized_binary_reduction

    program = figure1_program()
    constraints = figure1_constraints(include_main_requirement=False)
    print(pretty_program(program))
    print(f"constraints: {len(constraints)}; valid sub-inputs: "
          f"{count_models(constraints):,}")
    result = generalized_binary_reduction(
        figure1_problem(), require_true=frozenset({MAIN_CODE})
    )
    print(f"GBR: {len(result.solution)} items in "
          f"{result.predicate_calls} tool runs\n")
    print(pretty_program(reduce_program(program, result.solution)))
    return 0


def _open_trace(path: str):
    """Open a trace file for writing, failing fast (before the run)."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        print(f"jlreduce: cannot write {path}: {exc}", file=sys.stderr)
        return None


def _load_program(path: str):
    from repro.fji import ParseError, TypeError_, check_program, parse_program

    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"jlreduce: cannot read {path}: {exc}", file=sys.stderr)
        return None
    try:
        program = parse_program(source)
        constraints = check_program(program)
    except (ParseError, TypeError_) as exc:
        print(f"jlreduce: {path}: {exc}", file=sys.stderr)
        return None
    return program, constraints


def _count(path: str) -> int:
    from repro.fji.variables import variables_of
    from repro.logic import count_models

    loaded = _load_program(path)
    if loaded is None:
        return 1
    program, constraints = loaded
    variables = variables_of(program)
    print(f"variables    : {len(variables)}")
    print(f"constraints  : {len(constraints)}")
    print(f"graph clauses: {constraints.graph_clause_fraction():.1%}")
    print(f"valid inputs : {count_models(constraints):,} "
          f"of {2 ** len(variables):,}")
    return 0


def _reduce(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.fji.pretty import pretty_program
    from repro.fji.reducer import reduce_program
    from repro.fji.variables import variables_of
    from repro.harness.experiments import ExperimentConfig, probe_pool
    from repro.observability import (
        profiled_phase,
        tracing_session,
        write_trace,
    )
    from repro.parallel.procpool import ProbeTaskSpec, build_oracle_chain
    from repro.reduction import ReductionProblem, generalized_binary_reduction
    from repro.reduction.predicate import InstrumentedPredicate
    from repro.resilience import Budget

    path = args.file
    loaded = _load_program(path)
    if loaded is None:
        return 1
    program, constraints = loaded
    variables = variables_of(program)
    by_name = {str(v): v for v in variables}
    required = set()
    for name in args.keep:
        if name not in by_name:
            known = ", ".join(sorted(by_name))
            print(f"jlreduce: unknown item {name!r}; known items: {known}",
                  file=sys.stderr)
            return 1
        required.add(by_name[name])

    target = frozenset(required)
    containment = _ContainmentPredicate(target)
    # The task spec ships the raw containment oracle to process probe
    # workers; a limiting budget serializes speculation before the pool
    # sees a task, so the budget stays parent-side.
    predicate = InstrumentedPredicate(
        build_oracle_chain(
            containment,
            budget=Budget(
                max_calls=args.budget_calls,
                max_seconds=args.budget_seconds,
                seconds_per_call=33.0,  # the paper's mean tool-run cost
            ),
        ),
        task_spec=ProbeTaskSpec(kind="callable", predicate=containment),
    )
    problem = ReductionProblem(
        variables=variables,
        predicate=predicate,
        constraint=constraints,
        description=path,
    )

    probes = probe_pool(
        ExperimentConfig(
            speculate=args.speculate, probe_backend=args.probe_backend
        )
    )

    def run():
        return generalized_binary_reduction(
            problem,
            require_true=target,
            speculate=args.speculate,
            probe_executor=probes,
        )

    try:
        if args.trace:
            trace_handle = _open_trace(args.trace)
            if trace_handle is None:
                return 1
            with trace_handle:
                with tracing_session() as (tracer, metrics):
                    with (
                        profiled_phase("reduce", tracer=tracer)
                        if args.profile_phases
                        else nullcontext()
                    ):
                        result = run()
                write_trace(
                    trace_handle, tracer, metrics, label=f"reduce {path}"
                )
        else:
            result = run()
    finally:
        if probes is not None:
            probes.shutdown(wait=True)

    if args.json:
        payload = {
            "file": path,
            "keep": sorted(args.keep),
            "total_items": len(variables),
            "kept_items": len(result.solution),
            "solution": sorted(str(v) for v in result.solution),
            "predicate_calls": result.predicate_calls,
            "iterations": result.iterations,
            "elapsed_seconds": result.elapsed_seconds,
            "status": result.status,
            "metrics": result.extras.get("metrics", {}),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        suffix = " (partial: budget exhausted)" if result.is_partial else ""
        print(f"// kept {len(result.solution)} of {len(variables)} items "
              f"in {result.predicate_calls} predicate runs{suffix}")
        print(pretty_program(reduce_program(program, result.solution)))
    return 0


def _store_spec(
    path: Optional[str], shards: Optional[int], max_entries: Optional[int]
):
    """The :class:`~repro.parallel.StoreSpec` for ``--store PATH`` (None
    without one), opened and closed once so a bad path, manifest or
    sizing fails fast, before any corpus work or server start; the
    corpus engine and the server reopen the store from the spec.

    Raises:
        ValueError: the store cannot be opened (one-line message).
    """
    from repro.parallel import DEFAULT_SHARDS, StoreSpec

    if not path:
        return None
    spec = StoreSpec(
        path=path,
        shards=shards if shards is not None else DEFAULT_SHARDS,
        max_entries=max_entries,
    )
    try:
        spec.open().close()
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot open store {path}: {exc}") from exc
    return spec


def _bench(args: argparse.Namespace) -> int:
    """``bench``: the corpus through the one corpus engine.

    The report follows the run's inputs, never the job count: an
    in-memory corpus prints the Section 5 report stack; ``--corpus-dir``
    or ``--debloat`` stream outcomes into a :class:`StreamingReport`
    whose row-groups are scenarios (the parent then holds no
    per-outcome state unless ``--json`` asks for it).
    """
    import os

    from repro.harness.experiments import ExperimentConfig
    from repro.harness.report import ResultsWriter, StreamingReport
    from repro.observability import (
        ShardSet,
        metric_events,
        new_run_id,
        tracing_session,
        write_trace,
    )
    from repro.parallel import run_corpus_experiment
    from repro.reduction import ReductionError
    from repro.resilience import OracleCrash, TransientOracleError
    from repro.workloads.corpus import (
        MANIFEST_NAME,
        CorpusConfig,
        build_corpus,
    )

    if args.corpus_jobs < 0:
        print(f"jlreduce: --corpus-jobs must be >= 0, got "
              f"{args.corpus_jobs}", file=sys.stderr)
        return 1
    if args.worker_budget is not None and args.worker_budget <= 0:
        print(f"jlreduce: --worker-budget must be > 0, got "
              f"{args.worker_budget}", file=sys.stderr)
        return 1
    if args.num_benchmarks is not None and args.num_benchmarks <= 0:
        print(f"jlreduce: --num-benchmarks must be > 0, got "
              f"{args.num_benchmarks}", file=sys.stderr)
        return 1
    if args.corpus_dir is not None and not os.path.isfile(
        os.path.join(args.corpus_dir, MANIFEST_NAME)
    ):
        print(
            f"jlreduce: {args.corpus_dir}: no corpus manifest (persist one "
            "with 'jlreduce corpus generate' first)",
            file=sys.stderr,
        )
        return 1
    plan = None
    if args.chaos is not None:
        from repro.resilience import FaultPlan

        try:
            plan = FaultPlan(
                kind=args.chaos, rate=args.chaos_rate, seed=args.chaos_seed
            )
        except ValueError as exc:
            print(f"jlreduce: {exc}", file=sys.stderr)
            return 1
    if args.retries < 0:
        print(f"jlreduce: --retries must be >= 0, got {args.retries}",
              file=sys.stderr)
        return 1
    if args.tool_latency_ms < 0:
        print(f"jlreduce: --tool-latency-ms must be >= 0, got "
              f"{args.tool_latency_ms}", file=sys.stderr)
        return 1
    try:
        # Validate the deadline and the store once, up front, instead
        # of per-instance deep inside the run.
        if args.deadline_seconds is not None and args.deadline_seconds <= 0:
            raise ValueError(
                f"--deadline-seconds must be > 0, got {args.deadline_seconds}"
            )
        store_spec = _store_spec(
            args.store, args.store_shards, args.store_max_entries
        )
    except ValueError as exc:
        print(f"jlreduce: {exc}", file=sys.stderr)
        return 1
    experiment = ExperimentConfig(
        budget_calls=args.budget_calls,
        budget_seconds=args.budget_seconds,
        retries=args.retries,
        deadline_seconds=args.deadline_seconds,
        keep_going=args.keep_going,
        chaos=plan,
        speculate=args.speculate,
        probe_backend=args.probe_backend,
        tool_latency_seconds=args.tool_latency_ms / 1000.0,
        profile_phases=args.profile_phases,
        tenant=args.store_tenant,
        worker_budget=args.worker_budget,
    )
    progress = (
        None if args.json else lambda line: print(f"  {line}")
    )

    row_groups = args.corpus_dir is not None or args.debloat
    corpus = None
    if args.corpus_dir is not None:
        source = {
            "corpus_path": args.corpus_dir,
            "include_debloat": args.debloat,
        }
    else:
        config = {
            "paper": CorpusConfig.paper,
            "njr": CorpusConfig.njr,
            "small": CorpusConfig.small,
        }[args.profile]()
        if args.num_benchmarks is not None:
            from dataclasses import replace

            config = replace(config, num_benchmarks=args.num_benchmarks)
        if not args.json:
            print(f"building corpus ({args.profile} profile) ...")
        corpus = build_corpus(config)
        if args.debloat:
            from repro.workloads.debloat import add_debloat_instances

            add_debloat_instances(corpus)
        source = {"benchmarks": corpus}
    report = StreamingReport() if row_groups else None

    def run():
        if not (args.json or row_groups):
            from repro.harness import corpus_statistics, render_statistics

            print(render_statistics(corpus_statistics(corpus)))
            print("\nrunning strategies ...")
        with ExitStack() as stack:
            writer = (
                stack.enter_context(ResultsWriter(args.results))
                if args.results
                else None
            )

            def on_outcome(outcome):
                if report is not None:
                    report.add(outcome)
                if writer is not None:
                    writer.write(outcome)

            return run_corpus_experiment(
                config=experiment,
                progress=progress,
                jobs=args.corpus_jobs,
                store_spec=store_spec,
                on_outcome=on_outcome,
                collect=args.json or not row_groups,
                **source,
            )

    def session():
        if not args.trace:
            return run()
        handle = _open_trace(args.trace)
        if handle is None:
            return None
        if args.corpus_jobs == 1:
            with handle:
                with tracing_session() as (tracer, metrics):
                    result = run()
                write_trace(
                    handle, tracer, metrics, label=f"bench {args.profile}"
                )
            return result
        # Worker processes: stream per-worker shard files next to the
        # base trace (worker "main" writes the base file itself) so a
        # killed worker loses at most one torn line.  The `trace`
        # subcommands discover and merge the shard family.
        handle.close()
        run_id = new_run_id()
        with ShardSet(
            args.trace, run_id=run_id, label=f"bench {args.profile}"
        ) as shards:
            with tracing_session(
                run_id=run_id, shards=shards
            ) as (tracer, metrics):
                result = run()
                for event in metric_events(metrics, run_id=run_id):
                    shards.emit_main(event)
        return result

    try:
        outcomes = session()
    except (ReductionError, OracleCrash, TransientOracleError) as exc:
        print(f"jlreduce: instance failed: {exc}", file=sys.stderr)
        print("jlreduce: rerun with --keep-going to record failed "
              "instances and finish the corpus", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"jlreduce: {exc}", file=sys.stderr)
        return 1
    if outcomes is None:
        return 1

    if args.json:
        from dataclasses import asdict

        payload = {
            "profile": args.profile,
            "outcomes": [asdict(outcome) for outcome in outcomes],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif report is not None:
        print()
        print(report.render())
    else:
        _print_section5(outcomes)
    return 0


def _print_section5(outcomes) -> None:
    """The paper's Section 5 reports over an in-memory corpus run."""
    from repro.harness import (
        mean_reduction_over_time,
        render_cfd_table,
        render_headline,
        render_lossy_comparison,
        render_timeline,
    )
    from repro.harness.report import by_strategy

    print()
    print(render_headline(outcomes))
    print()
    print(render_lossy_comparison(outcomes))
    print()
    for metric, title in (
        ("time", "Figure 8a-1: time spent (simulated)"),
        ("classes", "Figure 8a-2: final relative size (classes)"),
        ("bytes", "Figure 8a-3: final relative size (bytes)"),
    ):
        print(render_cfd_table(outcomes, metric, title))
        print()
    series = {
        name: mean_reduction_over_time(group)
        for name, group in by_strategy(outcomes).items()
        if name in ("our-reducer", "jreduce")
    }
    print(render_timeline(series))


def _corpus_generate(
    directory: str,
    profile: str,
    num_benchmarks: Optional[int],
    seed: Optional[int],
) -> int:
    from repro.workloads.corpus import CorpusConfig, iter_corpus, save_corpus

    if num_benchmarks is not None and num_benchmarks <= 0:
        print(f"jlreduce: --num-benchmarks must be > 0, got "
              f"{num_benchmarks}", file=sys.stderr)
        return 1
    config = {
        "paper": CorpusConfig.paper,
        "njr": CorpusConfig.njr,
        "small": CorpusConfig.small,
    }[profile]()
    overrides = {}
    if num_benchmarks is not None:
        overrides["num_benchmarks"] = num_benchmarks
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    print(f"generating {config.num_benchmarks} benchmarks ({profile} "
          f"profile) -> {directory}")
    done = [0]

    def progress(benchmark):
        done[0] += 1
        if done[0] % 50 == 0:
            print(f"  {done[0]}/{config.num_benchmarks}")

    try:
        save_corpus(iter_corpus(config), directory, progress=progress)
    except OSError as exc:
        print(f"jlreduce: cannot write {directory}: {exc}", file=sys.stderr)
        return 1
    print(f"persisted {done[0]} benchmarks (manifest + apps) in {directory}")
    return 0


def _report(results_path: str) -> int:
    from repro.harness.report import report_from_results

    try:
        report = report_from_results(results_path)
    except OSError as exc:
        print(f"jlreduce: cannot read {results_path}: {exc}",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"jlreduce: {results_path}: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    return 0


def _load_merged(patterns: List[str]):
    """Load and merge trace files/globs, or print an error and None."""
    from repro.observability import load_traces

    try:
        return load_traces(patterns)
    except OSError as exc:
        print(f"jlreduce: cannot read trace: {exc}", file=sys.stderr)
        return None
    except ValueError as exc:
        print(f"jlreduce: {exc}", file=sys.stderr)
        return None


def _trace_summarize(patterns: List[str], json_output: bool = False) -> int:
    from repro.observability import render_summary, summarize

    events = _load_merged(patterns)
    if events is None:
        return 1
    summary = summarize(events)
    if json_output:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_summary(summary))
    return 0


def _trace_timeline(
    patterns: List[str], no_probes: bool = False, limit: Optional[int] = None
) -> int:
    from repro.observability import render_timeline

    events = _load_merged(patterns)
    if events is None:
        return 1
    print(render_timeline(events, with_probes=not no_probes, limit=limit))
    return 0


def _trace_flame(patterns: List[str], clock: str = "wall") -> int:
    from repro.observability import folded_stacks

    events = _load_merged(patterns)
    if events is None:
        return 1
    print(folded_stacks(events, clock=clock))
    return 0


def _load_diff_side(arg: str):
    """A diff operand: a trace (event list) or a bench baseline payload.

    A file holding one JSON object (a BENCH_*.json) yields
    ``("baseline", clocks)``; anything else is treated as trace
    files/globs and yields ``("trace", events)``.  Returns None (after
    printing) when neither works.
    """
    import os

    from repro.observability import load_traces
    from repro.observability.tooling import baseline_totals

    if os.path.isfile(arg):
        try:
            with open(arg, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            payload = None
        if isinstance(payload, dict) and payload.get("type") != "meta":
            clocks = baseline_totals(payload)
            if clocks is None:
                print(
                    f"jlreduce: {arg}: no wall_seconds/simulated_seconds "
                    "in baseline payload",
                    file=sys.stderr,
                )
                return None
            return "baseline", clocks
    try:
        return "trace", load_traces([arg])
    except (OSError, ValueError) as exc:
        print(f"jlreduce: {arg}: {exc}", file=sys.stderr)
        return None


def _trace_diff(a: str, b: str, json_output: bool = False) -> int:
    from repro.observability import clock_totals, diff_traces, render_diff

    side_a = _load_diff_side(a)
    if side_a is None:
        return 1
    side_b = _load_diff_side(b)
    if side_b is None:
        return 1

    if side_a[0] == "trace" and side_b[0] == "trace":
        diff = diff_traces(side_a[1], side_b[1], a_label=a, b_label=b)
    else:
        # At least one side is a bench baseline: clocks only, no spans.
        clocks = {}
        resolved = {
            "a": (
                side_a[1]
                if side_a[0] == "baseline"
                else clock_totals(side_a[1])
            ),
            "b": (
                side_b[1]
                if side_b[0] == "baseline"
                else clock_totals(side_b[1])
            ),
        }
        for key in ("wall", "simulated"):
            a_val = resolved["a"][key]
            b_val = resolved["b"][key]
            clocks[key] = {
                "a": a_val,
                "b": b_val,
                "speedup": (a_val / b_val) if b_val else 0.0,
            }
        diff = {"labels": [a, b], "clocks": clocks, "spans": []}
    if json_output:
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(render_diff(diff))
    return 0


def _trace_explain(handle: str, patterns: List[str]) -> int:
    from repro.observability import explain, render_explain

    events = _load_merged(patterns)
    if events is None:
        return 1
    try:
        resolution = explain(events, handle)
    except ValueError as exc:
        print(f"jlreduce: {exc}", file=sys.stderr)
        return 1
    print(render_explain(resolution))
    return 0


def _trace_merge(patterns: List[str], out: Optional[str] = None) -> int:
    from repro.observability import JsonlSink

    events = _load_merged(patterns)
    if events is None:
        return 1
    if out is None:
        for event in events:
            print(json.dumps(event, sort_keys=True, default=str))
        return 0
    try:
        with JsonlSink(out) as sink:
            sink.emit_all(events)
    except OSError as exc:
        print(f"jlreduce: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    print(f"merged {len(events)} events into {out}")
    return 0


def _metrics_export(patterns: List[str], prefix: str = "jlreduce") -> int:
    from repro.observability import prometheus_exposition

    events = _load_merged(patterns)
    if events is None:
        return 1
    sys.stdout.write(prometheus_exposition(events, prefix=prefix))
    return 0


def _parse_server(spec: str) -> tuple:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(
            f"jlreduce: --server must be HOST:PORT, got {spec!r}"
        )
    return host, int(port)


def _serve(args) -> int:
    from repro.service import ServiceConfig, TenantPolicy
    from repro.service.server import serve

    policies = {}
    for spec in args.tenant_weight:
        name, sep, weight = spec.partition("=")
        if not sep or not name:
            print(
                f"jlreduce: --tenant-weight must be NAME=WEIGHT, "
                f"got {spec!r}",
                file=sys.stderr,
            )
            return 1
        policies[name] = TenantPolicy(
            weight=float(weight),
            max_queue_depth=args.queue_depth,
            max_jobs=args.tenant_quota_jobs,
            max_seconds=args.tenant_quota_seconds,
        )
    try:
        store_spec = _store_spec(
            args.store, args.store_shards, args.store_max_entries
        )
    except ValueError as exc:
        print(f"jlreduce: {exc}", file=sys.stderr)
        return 1
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        backend=args.backend,
        store_spec=store_spec,
        default_policy=TenantPolicy(
            max_queue_depth=args.queue_depth,
            max_jobs=args.tenant_quota_jobs,
            max_seconds=args.tenant_quota_seconds,
        ),
        policies=policies,
        sample_seconds=args.sample_seconds,
    )

    def _ready(host: str, port: int) -> None:
        print(f"jlreduce serve: listening on {host}:{port}", flush=True)
        if args.ready_file:
            with open(args.ready_file, "w", encoding="utf-8") as handle:
                handle.write(f"{host} {port}\n")

    return serve(
        config,
        trace_path=args.trace,
        ready=_ready,
        log=lambda message: print(f"jlreduce serve: {message}", flush=True),
    )


def _submit(args) -> int:
    import base64

    from repro.service import ServiceClient, ServiceError

    host, port = _parse_server(args.server)
    job: dict = {
        "tenant": args.tenant,
        "benchmark_id": args.benchmark,
        "strategy": args.strategy,
        "scenario": args.scenario,
        "profile": args.profile,
    }
    if args.app:
        try:
            with open(args.app, "rb") as handle:
                job["app_b64"] = base64.b64encode(
                    handle.read()
                ).decode("ascii")
        except OSError as exc:
            print(f"jlreduce: cannot read {args.app}: {exc}",
                  file=sys.stderr)
            return 1
        job["app_seed"] = args.app_seed
        if args.decompiler:
            job["decompiler"] = args.decompiler
    elif args.decompiler:
        job["decompiler"] = args.decompiler
    else:
        # Pick a decompiler the requested benchmark actually
        # miscompiles — any other pair has no failure to preserve.
        from repro.service.jobs import workload_pairs

        index = int(args.benchmark.lstrip("b") or 0)
        pairs = [
            pair for pair in workload_pairs(args.profile, index + 1)
            if pair[0] == args.benchmark
        ]
        if not pairs:
            print(
                f"jlreduce: {args.benchmark} has no runnable "
                f"decompiler in profile {args.profile!r}",
                file=sys.stderr,
            )
            return 1
        job["decompiler"] = pairs[0][1]
    client = ServiceClient(host, port)
    try:
        accepted = client.submit(job)
        if args.no_wait:
            record = accepted
        else:
            record = client.wait(accepted["job_id"], timeout=args.timeout)
    except (ServiceError, OSError, TimeoutError) as exc:
        print(f"jlreduce: {exc}", file=sys.stderr)
        return 1
    if args.json:
        json.dump(record, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        status = record.get("status", "queued")
        line = f"job {record['job_id']}: {status}"
        if record.get("latency_seconds") is not None:
            line += f" in {record['latency_seconds']:.3f}s"
        print(line)
        if record.get("error"):
            print(f"  error: {record['error']}")
    return 0 if record.get("status") != "error" else 1


def _loadgen(args) -> int:
    from repro.service.loadgen import build_jobs, run_loadgen

    host, port = _parse_server(args.server)
    tenants = {}
    for spec in args.tenants.split(","):
        name, sep, share = spec.partition("=")
        if not name:
            print(
                f"jlreduce: bad --tenants entry {spec!r}",
                file=sys.stderr,
            )
            return 1
        tenants[name.strip()] = int(share) if sep else 1
    try:
        jobs = build_jobs(
            tenants,
            args.jobs,
            profile=args.profile,
            benchmarks=args.benchmarks,
            strategy=args.strategy,
        )
    except ValueError as exc:
        print(f"jlreduce: {exc}", file=sys.stderr)
        return 1
    curve = run_loadgen(host, port, jobs, concurrency=args.concurrency)
    if args.json:
        json.dump(curve, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0 if not curve["errors"] and not curve["gave_up"] else 1
    latency = curve["latency"]
    print(
        f"{curve['completed']}/{curve['jobs']} jobs in "
        f"{curve['wall_seconds']:.1f}s — "
        f"{curve['jobs_per_second']:.2f} jobs/s "
        f"(concurrency {curve['concurrency']})"
    )
    print(
        f"latency p50={latency['p50']:.3f}s p95={latency['p95']:.3f}s "
        f"p99={latency['p99']:.3f}s max={latency['max']:.3f}s"
    )
    for tenant in sorted(curve["per_tenant"]):
        stats = curve["per_tenant"][tenant]
        print(
            f"  {tenant:<14} n={stats['count']:<5} "
            f"p50={stats['p50']:.3f}s p95={stats['p95']:.3f}s"
        )
    if curve["retries_429"]:
        print(f"backpressure: {curve['retries_429']} retried 429s")
    if curve["errors"] or curve["gave_up"]:
        print(
            f"errors={curve['errors']} gave_up={curve['gave_up']}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
