"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``: it times each layer by wrapping the
public functions of the ``repro.*`` modules (:data:`TARGETS`) for the
length of a traced run and restoring them afterwards.  A wrapper opens
one span per call; a span's *self time* is its duration minus the time
its child spans cover, so the self times of all spans add up to the
time their root spans cover, and ``wall - sum(self)`` is the time no
wrapped layer accounts for (``harness.other_s``).

Spans nest per thread.  Only the benchmark's own process is wrapped:
work done in worker processes shows up as the parent's wait
(``procpool.batch``) plus the counters the program already returns.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Layer:
    """Totals for one layer name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Span:
    """One recorded call: its layer, interval and causing span."""

    name: str
    start: float
    end: float
    parent: Optional[int]


class Recorder:
    """Spans kept in memory, folded into per-layer totals as they close."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.layers: Dict[str, Layer] = {}
        self.counts: Dict[str, float] = {}
        self.spans: List[Span] = []
        self.root_s = 0.0
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self, name: str) -> bool:
        """Is a span of layer ``name`` open on this thread?"""
        return any(frame[0] == name for frame in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1][2] if stack else None
        index = len(self.spans)
        self.spans.append(None)  # placeholder keeps causal order
        frame = [name, 0.0, index]
        stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            layer = self.layers.get(name)
            if layer is None:
                layer = self.layers[name] = Layer()
            layer.calls += 1
            layer.total_s += duration
            layer.self_s += duration - frame[1]
            self.spans[index] = Span(name, start, end, parent)
            if stack:
                stack[-1][1] += duration
            else:
                self.root_s += duration

    def self_s(self, name: str) -> float:
        layer = self.layers.get(name)
        return layer.self_s if layer is not None else 0.0

    def total_s(self, name: str) -> float:
        layer = self.layers.get(name)
        return layer.total_s if layer is not None else 0.0

    def calls(self, name: str) -> int:
        layer = self.layers.get(name)
        return layer.calls if layer is not None else 0

    def total_self_s(self) -> float:
        """Sum of every layer's self time (equals the root spans' time)."""
        return sum(layer.self_s for layer in self.layers.values())


def _count_len(counter: str) -> Callable[[Any, Recorder], None]:
    def observe(result: Any, recorder: Recorder) -> None:
        recorder.count(counter, len(result))

    return observe


def _count_hit(result: Any, recorder: Recorder) -> None:
    if result is not None:
        recorder.count("store.hits")


@dataclass(frozen=True)
class Target:
    """One public function to wrap.

    ``everywhere`` rebinds every ``repro.*`` module attribute that holds
    the function (``from x import f`` copies the reference); otherwise
    only the defining module's name is rebound, which times exactly the
    calls made from that module.  ``only_under`` makes the wrapper
    transparent unless a span of that layer is open, so e.g. the
    decompile inside the baseline oracle build stays baseline time.
    ``count_only`` counts calls without opening a span (hot, tiny
    functions whose span overhead would dwarf their own cost).
    """

    layer: str
    module: str
    qualname: str
    everywhere: bool = True
    only_under: Optional[str] = None
    count_only: bool = False
    observe: Optional[Callable[[Any, Recorder], None]] = None


#: The layer boundaries the traced run records, named after modules.
TARGETS: Tuple[Target, ...] = (
    Target("corpus_build", "repro.workloads.corpus", "build_benchmark"),
    Target("oracle.baseline", "repro.decompiler.oracle",
           "DecompilerOracle.__init__"),
    Target("constraints.generate", "repro.bytecode.constraints",
           "generate_constraints", observe=_count_len("constraints.clauses")),
    Target("descriptors.parse", "repro.bytecode.descriptors",
           "parse_field_descriptor", count_only=True),
    Target("descriptors.parse", "repro.bytecode.descriptors",
           "parse_method_descriptor", count_only=True),
    Target("graphs.dependency_graph", "repro.bytecode.constraints",
           "class_dependency_graph"),
    Target("graphs.dependency_graph", "repro.reduction.ordering",
           "graph_of_cnf"),
    Target("graphs.dependency_graph", "repro.graphs.scc", "condensation"),
    Target("graphs.topo_order", "repro.graphs.digraph",
           "DiGraph.topological_order"),
    Target("graphs.closures", "repro.graphs.closure", "all_item_closures"),
    # The strategy entry points, as the harness calls them (lossy_reduce
    # calls binary_reduction itself; that inner call stays search time).
    Target("search", "repro.harness.experiments",
           "generalized_binary_reduction", everywhere=False),
    Target("search", "repro.harness.experiments", "binary_reduction",
           everywhere=False),
    Target("search", "repro.harness.experiments", "lossy_reduce",
           everywhere=False),
    Target("progression.build", "repro.reduction.progression",
           "ProgressionEngine.build"),
    Target("msa.compute", "repro.logic.msa", "MsaSolver.compute"),
    Target("msa.compute", "repro.logic.msa", "MsaSolver.extend"),
    Target("predicate", "repro.reduction.predicate",
           "InstrumentedPredicate.__call__"),
    Target("procpool.batch", "repro.reduction.predicate",
           "InstrumentedPredicate.evaluate_batch"),
    Target("probe", "repro.decompiler.oracle",
           "DecompilerOracle.item_predicate"),
    Target("probe", "repro.decompiler.oracle",
           "DecompilerOracle.class_predicate"),
    Target("probe.materialize", "repro.bytecode.reducer",
           "MaterializationMemo.reduce", only_under="probe"),
    Target("probe.decompile", "repro.decompiler.decompile",
           "Decompiler.decompile", only_under="probe"),
    Target("probe.javac", "repro.decompiler.javac", "check_sources",
           only_under="probe"),
    Target("serializer.size", "repro.bytecode.serializer",
           "ApplicationSerializer.size_of_items"),
    Target("serializer.size", "repro.bytecode.serializer",
           "ApplicationSerializer.size_of_classes"),
    Target("serializer.serialize", "repro.bytecode.serializer",
           "serialize_application"),
    Target("store.lookup", "repro.parallel.store",
           "ShardedPredicateStore.lookup", observe=_count_hit),
    Target("store.record", "repro.parallel.store",
           "ShardedPredicateStore.record"),
    # What the harness does after a search: rebuild and size the result.
    Target("harness.measure", "repro.harness.experiments",
           "reduce_application", everywhere=False),
    Target("harness.measure", "repro.harness.experiments",
           "application_size_bytes", everywhere=False),
)


def _wrapper(recorder: Recorder, target: Target, fn: Callable) -> Callable:
    name = target.layer
    if target.count_only:
        def counted(*args, **kwargs):
            recorder.count(name)
            return fn(*args, **kwargs)

        return counted
    only_under = target.only_under
    observe = target.observe

    def wrapped(*args, **kwargs):
        if only_under is not None and not recorder.active(only_under):
            return fn(*args, **kwargs)
        with recorder.span(name):
            result = fn(*args, **kwargs)
        if observe is not None:
            observe(result, recorder)
        return result

    return wrapped


def _resolve(target: Target) -> Tuple[Any, str, Callable]:
    """(owner, attribute, original) for a target's qualified name."""
    owner: Any = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


@contextmanager
def instrumented(
    recorder: Recorder, targets: Tuple[Target, ...] = TARGETS
) -> Iterator[Recorder]:
    """Wrap every target for the block's duration, then restore all."""
    patches: List[Tuple[Any, str, Any]] = []
    try:
        for target in targets:
            owner, attr, original = _resolve(target)
            wrapper = _wrapper(recorder, target, original)
            if isinstance(owner, type) or not target.everywhere:
                holders = [owner]
            else:
                holders = [
                    module for name, module in list(sys.modules.items())
                    if (name == "repro" or name.startswith("repro."))
                    and getattr(module, attr, None) is original
                ]
            for holder in holders:
                patches.append((holder, attr, getattr(holder, attr)))
                setattr(holder, attr, wrapper)
        yield recorder
    finally:
        for holder, attr, original in reversed(patches):
            setattr(holder, attr, original)
