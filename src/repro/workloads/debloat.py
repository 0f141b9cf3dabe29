"""Coverage-based debloating as a second real workload.

Soto-Valero et al. (PAPERS.md) debloat Java programs by keeping only
the parts exercised by a coverage profile.  The same Input Reduction
Problem machinery expresses it directly: the "interesting" predicate is
*"the covered entry points are still present and the program still
validates"* — no decompiler, no bug to preserve, just a coverage set
and the class-file validator standing in for the JVM's bytecode
verifier.

:class:`DebloatOracle` mirrors :class:`~repro.decompiler.oracle
.DecompilerOracle`'s surface (``item_predicate`` / ``class_predicate``
/ ``original_errors``) so every harness strategy — GBR, J-Reduce-style
binary reduction over the class graph, the lossy variants — runs
unchanged; ``build_problem()`` / ``required_classes`` are the two
scenario-specific hooks :func:`repro.harness.experiments.run_instance`
duck-types.

Coverage is seeded from the *benchmark id* (``derive_seed(0,
"debloat:<id>")``), never from batch position, so the covered set — and
therefore every probe outcome — is identical no matter which worker
process or dispatch order runs the instance.

On constraint-closed item sets the predicate reduces to "covered items
kept" (closure guarantees validity by construction — Theorem 4.4's
argument), so GBR converges on the dependency cone of the coverage set;
the validator check is what keeps the predicate honest for strategies
that probe non-closed sets (the lossy baselines).
"""

from __future__ import annotations

import random
from typing import FrozenSet, Iterable, List, Tuple

from repro.bytecode.classfile import Application
from repro.bytecode.items import (
    ClassItem,
    CodeItem,
    Item,
    MethodItem,
    items_of,
)
from repro.bytecode.constraints import generate_constraints
from repro.bytecode.reducer import MaterializationMemo
from repro.bytecode.validator import validate_application
from repro.decompiler.oracle import entry_items
from repro.logic.cnf import Clause
from repro.reduction.problem import ReductionProblem
from repro.resilience.faults import derive_seed
from repro.workloads.corpus import Benchmark, BuggyInstance

__all__ = [
    "DEBLOAT_DECOMPILER",
    "DebloatOracle",
    "add_debloat_instances",
    "build_debloat_problem",
]

#: The "decompiler" label debloat instances carry — it namespaces chaos
#: keys, store fingerprints, and report rows away from the reduction
#: scenario's alpha/beta/gamma.
DEBLOAT_DECOMPILER = "debloat"

#: Fraction of concrete methods a coverage profile marks as executed.
DEFAULT_COVERAGE_FRACTION = 0.2


class _DebloatTool:
    """Stands where ``oracle.decompiler`` does, for labels only."""

    name = DEBLOAT_DECOMPILER


class DebloatOracle:
    """The coverage predicate for one application.

    ``covered_items`` is the seeded coverage profile (always including
    the entry point); the predicates hold iff every covered item is
    kept and the materialized sub-application still validates.
    """

    def __init__(
        self,
        app: Application,
        benchmark_id: str,
        fraction: float = DEFAULT_COVERAGE_FRACTION,
    ) -> None:
        self.app = app
        self.benchmark_id = benchmark_id
        self.fraction = fraction
        self.decompiler = _DebloatTool()
        #: No compiler errors to preserve — the scenario's "bug" is the
        #: coverage contract itself.
        self.original_errors: FrozenSet[str] = frozenset()
        self._materializer = MaterializationMemo(app)
        self.covered_items: FrozenSet[Item] = frozenset(
            self._coverage_profile()
        )
        self.covered_classes: FrozenSet[str] = frozenset(
            item.class_name for item in self.covered_items
        )

    def _coverage_profile(self) -> List[Item]:
        """Seeded covered methods: entry point + a fraction of the rest.

        Keyed on the benchmark id alone so the profile is stable across
        worker processes and dispatch orders.
        """
        rng = random.Random(derive_seed(0, f"debloat:{self.benchmark_id}"))
        candidates: List[Tuple[str, str, str]] = []
        for decl in self.app.classes:
            if decl.is_interface or decl.name == self.app.entry_class:
                continue
            for method in decl.methods:
                # Constructors live in the item universe as InitItem,
                # not MethodItem — keep the profile to plain methods so
                # every covered item actually exists as a variable.
                if (
                    method.code is not None
                    and not method.is_abstract
                    and not method.is_constructor
                ):
                    candidates.append(
                        (decl.name, method.name, method.descriptor)
                    )
        count = max(1, int(round(len(candidates) * self.fraction)))
        chosen = rng.sample(candidates, min(count, len(candidates)))
        covered: List[Item] = list(entry_items(self.app))
        for class_name, method_name, descriptor in chosen:
            covered.append(ClassItem(class_name))
            covered.append(MethodItem(class_name, method_name, descriptor))
            covered.append(CodeItem(class_name, method_name, descriptor))
        return covered

    @property
    def is_buggy(self) -> bool:
        """Debloating applies to every app — there is always bloat."""
        return True

    # ------------------------------------------------------------------
    # Predicates (the DecompilerOracle surface)
    # ------------------------------------------------------------------

    def item_predicate(self, kept_items: FrozenSet[Item]) -> bool:
        """Covered items kept and the materialized program validates."""
        if not self.covered_items <= kept_items:
            return False
        reduced = self._materializer.reduce(kept_items)
        return not validate_application(reduced, raise_on_error=False)

    def class_predicate(self, kept_classes: FrozenSet[str]) -> bool:
        """Class-granularity variant (the J-Reduce baseline's view)."""
        if not self.covered_classes <= kept_classes:
            return False
        reduced = self.app.replace_classes(
            tuple(c for c in self.app.classes if c.name in kept_classes)
        )
        return not validate_application(reduced, raise_on_error=False)

    # ------------------------------------------------------------------
    # The scenario hooks run_instance duck-types
    # ------------------------------------------------------------------

    @property
    def required_classes(self) -> List[str]:
        """What binary reduction over the class graph must keep."""
        required = set(self.covered_classes)
        required.add(self.app.entry_class)
        return sorted(required)

    def build_problem(self) -> ReductionProblem:
        """The Input Reduction Problem for this coverage profile.

        Builds on a *fresh* oracle (mirroring
        :func:`~repro.decompiler.oracle.build_reduction_problem`), so
        every run starts with a cold materialization memo and its
        ``reducer.memo_*`` telemetry is deterministic regardless of run
        history.
        """
        return build_debloat_problem(
            self.app, self.benchmark_id, self.fraction
        )


def build_debloat_problem(
    app: Application,
    benchmark_id: str,
    fraction: float = DEFAULT_COVERAGE_FRACTION,
) -> ReductionProblem:
    """Assemble the debloating reduction problem for one application."""
    oracle = DebloatOracle(app, benchmark_id, fraction)
    constraint = generate_constraints(app)
    variables = items_of(app)
    # Unit clauses pin the coverage set, in stable item-universe order
    # (the debloat analogue of the paper's hand-added entry-point
    # requirement).  entry_items are part of covered_items already.
    for item in variables:
        if item in oracle.covered_items:
            constraint.add_clause(Clause.unit(item))
    return ReductionProblem(
        variables=variables,
        predicate=oracle.item_predicate,
        constraint=constraint,
        description=(
            f"debloat {benchmark_id} "
            f"({len(oracle.covered_items)} covered items)"
        ),
    )


def add_debloat_instances(
    benchmarks: Iterable[Benchmark],
    fraction: float = DEFAULT_COVERAGE_FRACTION,
) -> List[Benchmark]:
    """Append one debloat instance per benchmark (mutates, returns).

    The instance rides the same corpus plumbing as the reduction
    scenario — corpus fan-out, scheduler task specs, the predicate
    store, report row-groups — distinguished by ``scenario`` and the
    ``"debloat"`` decompiler label.
    """
    out: List[Benchmark] = []
    for benchmark in benchmarks:
        benchmark.instances.append(
            BuggyInstance(
                benchmark_id=benchmark.benchmark_id,
                decompiler=DEBLOAT_DECOMPILER,
                oracle=DebloatOracle(
                    benchmark.app, benchmark.benchmark_id, fraction
                ),
                scenario="debloat",
                known_errors=0,
            )
        )
        out.append(benchmark)
    return out
