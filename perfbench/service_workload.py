"""``service-open``: an open loop against a ``jlreduce serve`` process.

The server runs as its own process (process backend, two pool workers,
one shared sharded store, tenants weighted 3:2:1).  One asyncio load
generator sends jobs on a seeded schedule, whatever the server's state,
through at most ``nproc`` (2) connections: one submits, one polls.

Each run sends phases at fixed rates, the nominal rate first.  A phase
sends every ``small`` pair (corpus seed 2021) equally often, in a
seeded order, from tenants dealt 3:2:1, each job due at a seeded point
of its own 1/rate slot.  A (tenant, pair) seen earlier in the run is a
repeat and reads the tenant's store namespace; a new one writes it.
Latency is timed from each job's due time, so a stalled generator or a
queue charges every job behind it.  Phases run one after another, each
drained before the next.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchstats import geomean, median, peak_rss_mb, percentile, ratio
from reduce_workloads import (
    PROFILE,
    SETUP_REPEATS,
    Context,
    Report,
    corpus_config,
)

from repro.bytecode.serializer import serialize_application
from repro.harness.experiments import (
    ExperimentConfig,
    InstanceOutcome,
    outcome_signature,
)
from repro.parallel.scheduler import StoreSpec, run_instance_task
from repro.service import ServiceClient, ServiceError
from repro.service.jobs import Job, JobRequest, job_spec
from repro.workloads.corpus import build_benchmark, build_corpus

WORKERS = 2
TENANTS = {"acme": 3, "beta": 2, "gamma": 1}
#: (jobs per second, share of ``--seconds`` its arrivals span) of each
#: phase.  The first is the nominal rate, below the two workers'
#: capacity; the others bracket it (about 7 jobs/s on 2 CPUs).
PHASES = ((3.0, 0.7), (5.0, 0.15), (10.0, 0.15))
#: A rate is sustained when its p90 latency stays under this limit...
LATENCY_LIMIT_S = 2.0
#: ...and the backlog does not grow by more than this over the phase.
BACKLOG_GROWTH_JOBS = 2 * WORKERS
POLL_S = 0.1
#: Jobs still open this long after a phase's last due time count failed.
DRAIN_TIMEOUT_S = 60.0
#: Fresh jobs re-run offline per run for the signature check.
SIGNATURE_SAMPLES = 2


@dataclass
class Due:
    """One scheduled job."""

    due: float
    tenant: str
    pair: Tuple[str, str]


@dataclass
class Sent:
    """One job as the load generator saw it."""

    due: Due
    job_id: Optional[str] = None
    posted: float = 0.0
    accepted: float = 0.0
    rejected: bool = False
    status: Optional[str] = None
    server_latency: Optional[float] = None
    record: Optional[Dict[str, Any]] = None

    @property
    def late(self) -> float:
        return self.posted - self.due.due

    @property
    def latency(self) -> Optional[float]:
        """Due time to completion; the 202's return leg counts twice."""
        if self.server_latency is None:
            return None
        return self.accepted - self.due.due + self.server_latency


@dataclass
class PhaseResult:
    rate: float
    sent: List[Sent]
    wall_s: float
    backlog: List[Tuple[float, int]] = field(default_factory=list)
    stats_depth_max: int = 0

    @property
    def latencies(self) -> List[float]:
        return [s.latency for s in self.sent if s.latency is not None]

    @property
    def ok(self) -> List[Sent]:
        return [s for s in self.sent if s.status == "success"]


# ----------------------------------------------------------------------
# Schedule and the pure latency math (unit-tested)
# ----------------------------------------------------------------------


def deal_tenants(weights: Dict[str, int], count: int,
                 rng: random.Random) -> List[str]:
    """``count`` tenant names in proportion to ``weights``, shuffled."""
    total = sum(weights.values())
    names = sorted(weights)
    counts = {name: weights[name] * count // total for name in names}
    by_remainder = sorted(names, key=lambda n: -(weights[n] * count % total))
    for name in by_remainder[: count - sum(counts.values())]:
        counts[name] += 1
    dealt = [name for name in names for _ in range(counts[name])]
    rng.shuffle(dealt)
    return dealt


def schedule(pairs: Sequence[Tuple[str, str]], rate: float, seconds: float,
             start: float, rng: random.Random) -> List[Due]:
    """A phase: each pair equally often, one job per 1/rate slot.

    The job count rounds to whole rounds of ``pairs`` so every phase of
    every seed carries the same mix of work.
    """
    rounds = max(1, round(rate * seconds / len(pairs)))
    order: List[Tuple[str, str]] = []
    for _ in range(rounds):
        batch = list(pairs)
        rng.shuffle(batch)
        order.extend(batch)
    tenants = deal_tenants(TENANTS, len(order), rng)
    gap = 1.0 / rate
    return [
        Due(start + (index + rng.random()) * gap, tenant, pair)
        for index, (pair, tenant) in enumerate(zip(order, tenants))
    ]


def backlog_growing(samples: Sequence[Tuple[float, int]],
                    limit_jobs: float) -> bool:
    """Did the backlog grow by more than ``limit_jobs`` over the samples?

    The least-squares slope of (time, outstanding jobs), times the span
    the samples cover: a stable queue fluctuates around a level, an
    overloaded one climbs at (arrival rate - service rate).
    """
    if len(samples) < 2:
        return False
    times = [t for t, _ in samples]
    values = [v for _, v in samples]
    mean_t = sum(times) / len(times)
    mean_v = sum(values) / len(values)
    spread = sum((t - mean_t) ** 2 for t in times)
    if spread == 0:
        return False
    slope = sum(
        (t - mean_t) * (v - mean_v) for t, v in zip(times, values)
    ) / spread
    return slope * (times[-1] - times[0]) > limit_jobs


def sustained(phase: PhaseResult, limit_s: float, growth_jobs: float) -> bool:
    """Met the latency limit with every job done and no growing backlog."""
    if len(phase.ok) != len(phase.sent):
        return False
    last_due = max(s.due.due for s in phase.sent)
    arrivals = [(t, n) for t, n in phase.backlog if t <= last_due]
    return (
        percentile(phase.latencies, 90) <= limit_s
        and not backlog_growing(arrivals, growth_jobs)
    )


def max_rate(phases: Sequence[PhaseResult], limit_s: float,
             growth_jobs: float) -> float:
    """The highest phase rate that was sustained (0 when none was)."""
    rates = [p.rate for p in phases if sustained(p, limit_s, growth_jobs)]
    return max(rates) if rates else 0.0


# ----------------------------------------------------------------------
# The open-loop generator
# ----------------------------------------------------------------------


class LoadGenerator:
    """Sends one phase's jobs on schedule and polls for their ends."""

    def __init__(self, client: ServiceClient, payloads: Dict[Tuple[str, str], Dict[str, Any]]):
        self.client = client
        self.payloads = payloads
        # One connection submits, one polls: nproc connections at most.
        self.pool = ThreadPoolExecutor(max_workers=2)

    def close(self) -> None:
        self.pool.shutdown(wait=True)

    async def _submit_all(self, sent: List[Sent], clock) -> None:
        loop = asyncio.get_running_loop()
        for one in sent:
            delay = one.due.due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            payload = dict(self.payloads[one.due.pair], tenant=one.due.tenant)
            one.posted = clock()
            try:
                reply = await loop.run_in_executor(
                    self.pool, self.client.submit, payload
                )
            except ServiceError as exc:
                if exc.status != 429:
                    raise
                one.rejected = True
                one.status = "rejected"
            else:
                one.job_id = reply["job_id"]
            one.accepted = clock()

    async def _poll(self, sent: List[Sent], clock, submitting: asyncio.Task,
                    phase: PhaseResult) -> None:
        loop = asyncio.get_running_loop()
        deadline = max(s.due.due for s in sent) + DRAIN_TIMEOUT_S
        while True:
            await asyncio.sleep(POLL_S)
            rows = await loop.run_in_executor(self.pool, self.client.jobs)
            stats = await loop.run_in_executor(self.pool, self.client.stats)
            phase.stats_depth_max = max(
                phase.stats_depth_max,
                stats["queue_depth"] + stats["inflight"],
            )
            by_id = {row["job_id"]: row for row in rows}
            for one in sent:
                row = by_id.get(one.job_id) if one.job_id else None
                if row is not None and row["status"] in ("success", "error"):
                    one.status = row["status"]
                    one.server_latency = row["latency_seconds"]
            posted = [s for s in sent if s.posted]
            outstanding = sum(1 for s in posted if s.status is None)
            phase.backlog.append((clock(), outstanding))
            if submitting.done() and (
                outstanding == 0 or clock() > deadline
            ):
                return

    async def _phase(self, dues: List[Due], rate: float, clock) -> PhaseResult:
        sent = [Sent(due) for due in dues]
        phase = PhaseResult(rate=rate, sent=sent, wall_s=0.0)
        submitting = asyncio.ensure_future(self._submit_all(sent, clock))
        polling = asyncio.ensure_future(
            self._poll(sent, clock, submitting, phase)
        )
        try:
            await submitting
            await polling
        finally:
            for task in (submitting, polling):
                if not task.done():
                    task.cancel()
        first = min(d.due for d in dues)
        ends = [s.accepted + s.server_latency for s in sent
                if s.server_latency is not None]
        phase.wall_s = (max(ends) if ends else clock()) - first
        return phase

    def run_phase(self, pairs, rate: float, seconds: float,
                  rng: random.Random) -> PhaseResult:
        epoch = time.perf_counter()

        def clock() -> float:
            return time.perf_counter() - epoch

        dues = schedule(pairs, rate, seconds, start=0.2, rng=rng)
        phase = asyncio.run(self._phase(dues, rate, clock))
        for one in phase.sent:
            if one.job_id is not None:
                one.record = self.client.job(one.job_id)
        return phase


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except FileNotFoundError:
        return ""


class Server:
    """A ``jlreduce serve`` subprocess on a free port."""

    def __init__(self, workdir: str, name: str):
        self.workdir = os.path.join(workdir, name)
        os.makedirs(self.workdir, exist_ok=True)
        self.store = os.path.join(self.workdir, "store")
        ready = os.path.join(self.workdir, "ready")
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--workers", str(WORKERS),
            "--backend", "process", "--store", self.store,
            "--ready-file", ready,
        ]
        for tenant, weight in TENANTS.items():
            command += ["--tenant-weight", f"{tenant}={weight}"]
        self.log = open(os.path.join(self.workdir, "serve.log"), "wb")
        self.process = subprocess.Popen(
            command, stdout=self.log, stderr=subprocess.STDOUT,
            cwd=self.workdir,
        )
        deadline = time.monotonic() + 60
        while len(_read(ready).split()) != 2:
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start; see {self.log.name}")
            time.sleep(0.02)
        host, port = _read(ready).split()
        self.client = ServiceClient(host, int(port), timeout=120)
        self.client.wait_until_up()

    def stop(self) -> None:
        """Drain and exit the server; reap it whatever happens."""
        try:
            if self.process.poll() is None:
                try:
                    self.client.shutdown()
                except (AttributeError, OSError, ServiceError):
                    self.process.terminate()
                try:
                    self.process.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self.log.close()


def _warm_up(server: Server, corpus) -> None:
    """Start every pool worker on jobs outside the measured mix.

    The warm-up app is the profile's next app after the corpus, under a
    tenant of its own, so no measured job finds its work cached.
    """
    index = len(corpus)
    benchmark = build_benchmark(index, corpus_config())
    while not benchmark.instances:
        index += 1
        benchmark = build_benchmark(index, corpus_config())
    app_b64 = base64.b64encode(
        serialize_application(benchmark.app)
    ).decode("ascii")
    ids = [
        server.client.submit({
            "tenant": f"warmup-{index}",
            "benchmark_id": benchmark.benchmark_id,
            "decompiler": benchmark.instances[0].decompiler,
            "app_b64": app_b64,
            "app_seed": benchmark.seed,
        })["job_id"]
        for index in range(2 * WORKERS)
    ]
    for job_id in ids:
        record = server.client.wait(job_id, timeout=120)
        if record["status"] != "success":
            raise RuntimeError(f"warm-up job failed: {record.get('error')}")


def _payloads(corpus) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """One app_b64 job body per (benchmark, decompiler) pair."""
    payloads = {}
    for benchmark in corpus:
        app_b64 = base64.b64encode(
            serialize_application(benchmark.app)
        ).decode("ascii")
        for instance in benchmark.instances:
            payloads[(benchmark.benchmark_id, instance.decompiler)] = {
                "benchmark_id": benchmark.benchmark_id,
                "decompiler": instance.decompiler,
                "strategy": "our-reducer",
                "app_b64": app_b64,
                "app_seed": benchmark.seed,
            }
    return payloads


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------


def _signature_candidates(phases: Sequence[PhaseResult]) -> List[Sent]:
    """Jobs that were the only run of their (tenant, pair) so far.

    Their store namespace was empty and nothing else touched it while
    they ran, so an offline run on a fresh store must match them.
    """
    seen = set()
    candidates = []
    for phase in phases:
        keys = [(s.due.tenant, s.due.pair) for s in phase.sent]
        for one, key in zip(phase.sent, keys):
            if key not in seen and keys.count(key) == 1 and one.status == "success":
                candidates.append(one)
        seen.update(keys)
    return candidates


def _offline_mismatch(one: Sent, payload: Dict[str, Any], workdir: str,
                      index: int) -> Optional[str]:
    record = one.record
    request = JobRequest.from_payload(dict(payload, tenant=one.due.tenant))
    job = Job(job_id=f"offline-{index}", request=request,
              serial=record["serial"])
    spec = job_spec(
        job,
        base=ExperimentConfig(strategies=("our-reducer",)),
        store_spec=StoreSpec(path=os.path.join(workdir, f"offline-{index}")),
    )
    result = run_instance_task(spec)
    if result.error is not None or not result.strategies:
        return f"offline run failed: {result.error}"
    shipped = result.strategies[0]
    if shipped.outcome is None:
        return f"offline run failed: {shipped.error}"
    served = outcome_signature(InstanceOutcome(**record["outcome"]))
    offline = outcome_signature(shipped.outcome)
    # The service record went through JSON: compare in that form.
    if json.loads(json.dumps(served, sort_keys=True)) != json.loads(
        json.dumps(offline, sort_keys=True)
    ):
        return "service outcome differs from the offline run"
    return None


def check_phases(phases: Sequence[PhaseResult], payloads, rng: random.Random,
                 workdir: str) -> Tuple[int, int, List[str]]:
    """(attempted, failed, reasons): nominal jobs plus every error."""
    attempted = failed = 0
    reasons: List[str] = []
    for number, phase in enumerate(phases):
        for one in phase.sent:
            nominal = number == 0
            problem = None
            if one.rejected:
                problem = "rejected (429)" if nominal else None
            elif one.status is None:
                problem = f"job {one.job_id} unfinished after the drain timeout"
            elif one.status != "success":
                problem = f"job {one.job_id} ended {one.status}: " + str(
                    one.record.get("error")
                )
            elif one.record["outcome"]["status"] != "complete":
                problem = f"job {one.job_id} outcome {one.record['outcome']['status']}"
            if nominal or problem is not None:
                attempted += 1
            if problem is not None:
                failed += 1
                reasons.append(f"{one.due.tenant}/{one.due.pair}: {problem}")
    candidates = _signature_candidates(phases)
    for index, one in enumerate(
        rng.sample(candidates, min(SIGNATURE_SAMPLES, len(candidates)))
    ):
        attempted += 1
        problem = _offline_mismatch(one, payloads[one.due.pair], workdir, index)
        if problem is not None:
            failed += 1
            reasons.append(f"{one.job_id}: {problem}")
    if len(candidates) < SIGNATURE_SAMPLES:
        failed += 1
        attempted += 1
        reasons.append("too few fresh jobs to check against offline runs")
    return attempted, failed, reasons


def _outcomes(phase: PhaseResult) -> List[Dict[str, Any]]:
    return [s.record["outcome"] for s in phase.ok]


def service_metrics(phases: Sequence[PhaseResult], setup_s: List[float],
                    trace: bool, failed: int, attempted: int) -> Dict[str, float]:
    nominal = phases[0]
    latencies = nominal.latencies
    if not trace:
        return {
            "setup_s": median(setup_s),
            "wall_s": nominal.wall_s,
            "latency_p50_s": percentile(latencies, 50),
            "latency_p90_s": percentile(latencies, 90),
            "jobs_per_s": len(nominal.ok) / nominal.wall_s,
            "max_rate_jobs_per_s": max_rate(
                phases, LATENCY_LIMIT_S, BACKLOG_GROWTH_JOBS
            ),
            "bytes_rel": geomean(
                o["final_bytes"] / o["total_bytes"] for o in _outcomes(nominal)
            ),
            "peak_rss_mb": peak_rss_mb(),
        }
    records = [s.record for s in nominal.ok]
    queue = [r["queue_seconds"] for r in records]
    run = [r["latency_seconds"] - r["queue_seconds"] for r in records]
    outcomes = _outcomes(nominal)
    hits = sum(o["metrics"].get("store.hits", 0) for o in outcomes)
    lookups = sum(o["metrics"].get("store.lookups", 0) for o in outcomes)
    return {
        "predicate_calls": sum(o["predicate_calls"] for o in outcomes),
        "simulated_s": sum(o["simulated_seconds"] for o in outcomes),
        "failed_share": ratio(failed, attempted),
        "service.queue_wait_p50_s": percentile(queue, 50),
        "service.queue_wait_p90_s": percentile(queue, 90),
        "service.run_p50_s": percentile(run, 50),
        "service.submit_rtt_p50_s": percentile(
            [s.accepted - s.posted for s in nominal.sent], 50
        ),
        "service.rejected_429": sum(
            1 for p in phases for s in p.sent if s.rejected
        ),
        "service.backlog_max": max(p.stats_depth_max for p in phases),
        "service.store_hit_ratio": ratio(hits, lookups),
        "loadgen.late_max_s": max(s.late for p in phases for s in p.sent),
    }


def service_open(ctx: Context) -> Report:
    rng = random.Random(ctx.seed)
    setup_s: List[float] = []
    server = None
    phases: List[PhaseResult] = []
    try:
        for repeat in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            corpus = build_corpus(corpus_config())
            build_s = time.perf_counter() - start
            payloads = _payloads(corpus)
            server = Server(ctx.workdir, f"server-{repeat}")
            _warm_up(server, corpus)
            setup_s.append(time.perf_counter() - start)
        generator = LoadGenerator(server.client, payloads)
        try:
            pairs = sorted(payloads)
            for rate, share in PHASES:
                phases.append(generator.run_phase(
                    pairs, rate, ctx.seconds * share, rng
                ))
        finally:
            generator.close()
    finally:
        if server is not None:
            server.stop()
    attempted, failed, reasons = check_phases(phases, payloads, rng, ctx.workdir)
    metrics = service_metrics(phases, setup_s, ctx.trace, failed, attempted)
    if ctx.trace:
        metrics["workloads.corpus_build_s"] = build_s
    env = {
        "corpus_profile": PROFILE,
        "corpus_seed": corpus_config().seed,
        "pairs": len(payloads),
        "workers": WORKERS,
        "tenants": TENANTS,
        "rates_jobs_per_s": [rate for rate, _ in PHASES],
        "nominal_rate_jobs_per_s": PHASES[0][0],
        "phase_jobs": [len(p.sent) for p in phases],
        "latency_limit_s": LATENCY_LIMIT_S,
        "sustained": [
            sustained(p, LATENCY_LIMIT_S, BACKLOG_GROWTH_JOBS) for p in phases
        ],
        "p90_by_rate": [percentile(p.latencies, 90) for p in phases],
    }
    return Report(metrics, attempted, failed, reasons, env)
