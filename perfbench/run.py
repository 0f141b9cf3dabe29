"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reduce-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures with no wrapper installed and prints the
end-to-end metrics; ``--trace 1`` makes a separate traced run and prints
the per-layer metrics (see README.md for both lists).  Earlier stdout
lines carry the run's environment and any failed check; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero, printing no result, when the program's
sources are missing or a workload crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("reduce-cold", "reduce-warm", "reduce-latency", "service-open")

def declared_metrics(trace: bool, root: str = ROOT) -> Dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for a mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_metrics(measured: Dict[str, float], trace: bool,
                   root: str = ROOT) -> Dict[str, Dict[str, object]]:
    """Every declared metric with its unit.

    End-to-end metrics must all be measured.  A per-layer metric the
    workload does not exercise (a service queue in a corpus pass, a
    probe layer inside the server process) reads 0.
    """
    declared = declared_metrics(trace, root)
    unknown = sorted(set(measured) - set(declared))
    missing = sorted(set(declared) - set(measured))
    if unknown or (missing and not trace):
        raise RuntimeError(
            f"metrics not as declared: unknown {unknown}, missing {missing}"
        )
    return {
        name: {"value": measured.get(name, 0.0), "unit": unit}
        for name, unit in declared.items()
    }


def use_checkout_sources(root: str = ROOT) -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro

    location = os.path.realpath(repro.__file__)
    if not location.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: repro imported from {location}")
    # Spawned pool workers and the service subprocess import it too.
    paths = [src] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str):
    from reduce_workloads import (
        Context,
        reduce_cold,
        reduce_latency,
        reduce_warm,
    )

    ctx = Context(seed=seed, seconds=seconds, trace=trace, workdir=workdir)
    if name == "service-open":
        from service_workload import service_open

        return service_open(ctx)
    return {
        "reduce-cold": reduce_cold,
        "reduce-warm": reduce_warm,
        "reduce-latency": reduce_latency,
    }[name](ctx)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    use_checkout_sources()
    from benchstats import environment
    from processes import adopt_orphans, reap_children

    adopt_orphans()
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=build)
    try:
        report = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(
        ROOT, workload=args.workload, seed=args.seed,
        seconds=args.seconds, trace=args.trace, **report.env,
    )
    print(json.dumps({"env": env}, sort_keys=True))
    for reason in report.failures:
        print(json.dumps({"failed_check": reason}))
    result = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": result_metrics(report.metrics, bool(args.trace)),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
