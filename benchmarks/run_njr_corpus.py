"""The paper-scale flagship run: 1000 NJR-shape apps through the
corpus scheduler.

Three stages, all restart-friendly and streamed (no O(corpus) state in
the parent):

1. Generate and persist the ``CorpusConfig.njr()`` corpus (1000 apps,
   geo-means calibrated to the paper's Table 1) under
   ``benchmarks/runs/njr/corpus``.
2. Run the full corpus through ``run_corpus_experiment``
   (``--corpus-jobs 2``, manifest-planned, longest-job-first) with the
   J-Reduce baseline plus the coverage-debloating row-group, streaming
   every outcome to ``njr_results.jsonl``.
3. Run ``our-reducer`` on the first 100 benchmarks (the paper evaluates
   on ~100 NJR programs; the full-corpus pass above is what proves the
   scheduler completes at 1000), appending to the same results file.

Finally renders the paper-style table from the streamed JSONL into
``benchmarks/artifacts/njr_report.txt``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.harness.experiments import ExperimentConfig  # noqa: E402
from repro.harness.report import (  # noqa: E402
    ResultsWriter,
    report_from_results,
)
from repro.parallel.scheduler import (  # noqa: E402
    load_cost_hints,
    run_corpus_experiment,
)
from repro.workloads.corpus import (  # noqa: E402
    CorpusConfig,
    iter_corpus,
    iter_saved_corpus,
    load_manifest,
    save_corpus,
)
from repro.workloads.debloat import add_debloat_instances  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DIR = os.path.join(HERE, "runs", "njr")
CORPUS_DIR = os.path.join(RUN_DIR, "corpus")
RESULTS = os.path.join(RUN_DIR, "njr_results.jsonl")
ARTIFACTS = os.path.join(HERE, "artifacts")
REPORT = os.path.join(ARTIFACTS, "njr_report.txt")
SAMPLE = 100  # our-reducer pass size (the paper's ~100 NJR programs)
CORPUS_JOBS = 2


def log(message: str) -> None:
    stamp = time.strftime("%H:%M:%S")
    print(f"[{stamp}] {message}", flush=True)


def generate() -> None:
    if os.path.exists(os.path.join(CORPUS_DIR, "manifest.json")):
        log("corpus already persisted, skipping generation")
        return
    os.makedirs(RUN_DIR, exist_ok=True)
    config = CorpusConfig.njr()
    log(f"generating {config.num_benchmarks} benchmarks -> {CORPUS_DIR}")
    done = [0]

    def progress(benchmark):
        done[0] += 1
        if done[0] % 25 == 0:
            log(f"  generated {done[0]}/{config.num_benchmarks}")

    save_corpus(iter_corpus(config), CORPUS_DIR, progress=progress)
    log("corpus persisted")


def full_corpus_pass() -> None:
    config = ExperimentConfig(strategies=("jreduce",), keep_going=True)
    log(f"pass A: jreduce + debloat over the full corpus "
        f"(corpus-jobs {CORPUS_JOBS})")
    done = [0]

    def progress(line: str) -> None:
        done[0] += 1
        if done[0] % 50 == 0:
            log(f"  [{done[0]}] {line}")

    with ResultsWriter(RESULTS) as writer:
        count = run_corpus_experiment(
            corpus_path=CORPUS_DIR,
            config=config,
            jobs=CORPUS_JOBS,
            include_debloat=True,
            on_outcome=writer.write,
            collect=False,
            progress=progress,
        )
    log(f"pass A complete: {count} outcomes")


def sample_pass() -> None:
    config = ExperimentConfig(strategies=("our-reducer",), keep_going=True)
    log(f"pass B: our-reducer over the first {SAMPLE} benchmarks")
    benchmarks = list(
        itertools.islice(iter_saved_corpus(CORPUS_DIR), SAMPLE)
    )
    add_debloat_instances(benchmarks)
    hints = load_cost_hints(RESULTS) if os.path.exists(RESULTS) else None
    done = [0]

    def progress(line: str) -> None:
        done[0] += 1
        if done[0] % 10 == 0:
            log(f"  [{done[0]}] {line}")

    with ResultsWriter(RESULTS) as writer:
        count = run_corpus_experiment(
            benchmarks=benchmarks,
            config=config,
            jobs=CORPUS_JOBS,
            on_outcome=writer.write,
            collect=False,
            progress=progress,
            cost_hints=hints,
        )
    log(f"pass B complete: {count} outcomes")


def render() -> None:
    manifest = load_manifest(CORPUS_DIR)
    entries = manifest["benchmarks"]
    import math

    def geo(values):
        return math.exp(sum(math.log(v) for v in values) / len(values))

    stats = (
        f"corpus: {len(entries)} benchmarks | geo-means: "
        f"{geo([e['classes'] for e in entries]):.0f} classes, "
        f"{geo([e['bytes'] for e in entries]) / 1024:.1f} KB, "
        f"{geo([e['items'] for e in entries]) / 1000:.1f}k items, "
        f"{geo([e['clauses'] for e in entries]) / 1000:.1f}k clauses\n"
        "paper : geo-means: 184 classes, 285.0 KB, 2.9k items, "
        "8.7k clauses\n"
    )
    report = report_from_results(RESULTS)
    os.makedirs(ARTIFACTS, exist_ok=True)
    with open(REPORT, "w", encoding="utf-8") as fh:
        fh.write(stats + "\n" + report.render() + "\n")
    log(f"report -> {REPORT}")
    summary = {
        "benchmarks": len(entries),
        "result_rows": report.rows,
        "geo_classes": round(geo([e["classes"] for e in entries]), 1),
        "geo_kb": round(geo([e["bytes"] for e in entries]) / 1024, 1),
        "geo_items": round(geo([e["items"] for e in entries]), 1),
        "geo_clauses": round(geo([e["clauses"] for e in entries]), 1),
    }
    with open(os.path.join(ARTIFACTS, "njr_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log(f"summary: {summary}")


def main() -> int:
    started = time.time()
    generate()
    if os.path.exists(RESULTS):
        os.unlink(RESULTS)
    full_corpus_pass()
    sample_pass()
    render()
    log(f"all done in {(time.time() - started) / 3600:.2f}h")
    return 0


if __name__ == "__main__":
    sys.exit(main())
