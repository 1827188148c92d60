"""Spans and counts around bxmech's layer boundaries, installed from outside.

The tracer patches the library's public functions at every module that
imported them (and a few methods on their classes) for the length of a
traced pass, then puts the originals back.  Each wrapped call is one span;
a layer's self time is its spans' duration minus the time covered by the
spans nested inside them.  Spans are aggregated in memory per name and per
(parent, child) edge rather than stored one by one: a harness period makes
tens of thousands of them.

Counts are taken at the same boundaries from the arguments and results, so
they depend only on the inputs: two traced passes over the same ops give the
same counts.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Callable

# span name -> (attribute, the modules that hold it; the defining module first)
FUNCTION_SITES = {
    "cyclegraph.enumerate": (
        "enumerate_cycles",
        ("bxmech.cyclegraph", "bxmech.instances", "bxmech.mechanisms"),
    ),
    "cyclegraph.build": (
        "build_graph",
        ("bxmech.cyclegraph", "bxmech.instances", "bxmech.mechanisms"),
    ),
    "exact.mwis": (
        "max_weight_independent_set",
        ("bxmech.exact", "bxmech.mechanisms", "bxmech.verification"),
    ),
    "verification.oracle": ("oracle_max_weight_is", ("bxmech.verification",)),
    "verification.fuzz.nodes": ("fuzz_truthfulness_nodes", ("bxmech.verification",)),
    "verification.fuzz.wishlists": (
        "fuzz_truthfulness_wishlists",
        ("bxmech.verification",),
    ),
    "verification.inpa": ("test_inpa", ("bxmech.verification",)),
    "localsearch.run": (
        "run_local_search",
        ("bxmech.localsearch", "bxmech.mechanisms"),
    ),
    "instances.load": ("load_instance", ("bxmech.instances", "bxmech.cli")),
    "cli.main": ("main", ("bxmech.cli",)),
}

# span name -> (module, class, method)
METHOD_SITES = {
    "cyclegraph.remove_nodes": ("bxmech.cyclegraph", "CycleGraph", "remove_nodes"),
    "localsearch.rule": ("bxmech.localsearch", "ImprovementRule", "apply"),
    "mechanisms.solve": ("bxmech.mechanisms", "Mechanism", "solve"),
}

# both fuzzers report as one layer
SPAN_LAYER = {
    "verification.fuzz.nodes": "verification.fuzz",
    "verification.fuzz.wishlists": "verification.fuzz",
}


def rule_span(rule_name: str) -> str:
    """Span of one ImprovementRule.apply call, by rule family; restricted
    rules keep their family's name prefix ("expand[len=2]", "all-for-2[>2]")."""
    if rule_name.startswith("expand"):
        return "localsearch.rule.expand"
    if rule_name.startswith("all-for-"):
        return "localsearch.rule.all_for_q"
    return "localsearch.rule.other"


class BoundaryMissing(RuntimeError):
    """A traced boundary is gone or was not exercised."""


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list[int]] = {}  # name -> [calls, self_ns]
        self.edges: dict[tuple[str, str], list[int]] = {}  # -> [calls, total_ns]
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # open spans: [name, child_ns]
        self._graphs: set[tuple] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(
        self,
        name: str | Callable[[tuple], str],
        fn: Callable,
        observe: Callable | None = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``observe(args, kwargs,
        result, exc)`` runs after the span closes."""
        stack = self._stack

        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            frame = [span, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(frame, start)
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            self._close(frame, start)
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame: list, start: int) -> None:
        elapsed = time.perf_counter_ns() - start
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += elapsed
        name = frame[0]
        span = self.spans.setdefault(name, [0, 0])
        span[0] += 1
        span[1] += elapsed - frame[1]
        edge = self.edges.setdefault((parent[0] if parent else "-", name), [0, 0])
        edge[0] += 1
        edge[1] += elapsed

    def count_calls(self, key: str, fn: Callable) -> Callable:
        """``fn`` counting its calls under ``key`` (no span)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch every site; raises BoundaryMissing if a site is gone or holds
        another object than the defining module's."""
        exact = importlib.import_module("bxmech.exact")
        observers = {
            "cyclegraph.enumerate": self._on_enumerate,
            "exact.mwis": self._mwis_observer(exact),
            "verification.oracle": self._on_oracle,
            "verification.fuzz.nodes": self._on_fuzz,
            "verification.fuzz.wishlists": self._on_fuzz,
            "localsearch.run": self._on_local_search,
            "cyclegraph.remove_nodes": self._on_remove_nodes,
            "localsearch.rule": self._on_rule,
        }
        try:
            for span, (attr, modules) in FUNCTION_SITES.items():
                original = _attribute(modules[0], attr)
                wrapper = self.wrap(
                    SPAN_LAYER.get(span, span), original, observers.get(span)
                )
                for module_name in modules:
                    module = importlib.import_module(module_name)
                    if getattr(module, attr, None) is not original:
                        raise BoundaryMissing(
                            f"{module_name}.{attr} is not {modules[0]}.{attr}"
                        )
                    self._patch(module, attr, wrapper)
            for span, (module_name, cls_name, method) in METHOD_SITES.items():
                cls = _attribute(module_name, cls_name)
                original = _attribute(module_name, f"{cls_name}.{method}")
                name = (lambda args: rule_span(args[0].name)) if span == "localsearch.rule" else span
                self._patch(cls, method, self.wrap(name, original, observers.get(span)))
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- observers: counts taken at the boundaries ----------------------------

    def _on_enumerate(self, args, kwargs, result, exc) -> None:
        if result is not None:
            self.counts["cyclegraph.enumerate.cycles"] += len(result)

    def _on_remove_nodes(self, args, kwargs, result, exc) -> None:
        self.counts["cyclegraph.remove_nodes.nodes_in"] += args[0].num_nodes

    def _mwis_observer(self, exact) -> Callable:
        counts = self.counts

        def observe(args, kwargs, result, exc) -> None:
            graph = args[0]
            within = args[1] if len(args) > 1 else kwargs.get("within")
            allowed = graph.nodes if within is None else set(within)
            counts["exact.mwis.allowed_nodes"] += len(allowed)
            if isinstance(exc, exact.ExactSearchCapExceeded):
                counts["exact.mwis.cap_refusals"] += 1
            if graph.n > exact.DP_AGENT_CAP:
                counts["exact.mwis.bnb_calls"] += 1
                return
            counts["exact.mwis.dp_calls"] += 1
            if allowed:  # the subset table is only built for a non-empty class
                counts["exact.dp.table_entries"] += 1 << graph.n
                touched = set()
                for node in allowed:
                    touched.update(node.agents)
                counts["exact.dp.agents_touched"] += len(touched)
                counts["exact.dp.agents"] += graph.n

        return observe

    def _on_oracle(self, args, kwargs, result, exc) -> None:
        graph = args[0]
        self._graphs.add((graph.n, graph.lam.values, graph.nodes))

    def _on_fuzz(self, args, kwargs, result, exc) -> None:
        if result is not None:
            self.counts["verification.findings"] += len(result)

    def _on_local_search(self, args, kwargs, result, exc) -> None:
        if result is not None:
            self.counts["localsearch.run.steps"] += result.iterations

    def _on_rule(self, args, kwargs, result, exc) -> None:
        if result is not None:
            self.counts[rule_span(args[0].name) + ".fired"] += 1

    # -- report --------------------------------------------------------------

    def calls(self, span: str) -> int:
        return self.spans.get(span, [0, 0])[0]

    def self_ms(self, span: str) -> float:
        return self.spans.get(span, [0, 0])[1] / 1e6

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of BENCHMARK.json except the tracing ones."""
        c = self.counts
        out: dict[str, tuple[float, str]] = {}

        def timed(span: str, *extra: str) -> None:
            out[f"{span}.calls"] = (self.calls(span), "count")
            out[f"{span}.self_ms"] = (self.self_ms(span), "ms")
            for key in extra:
                out[f"{span}.{key}"] = (c[f"{span}.{key}"], "count")

        timed("cyclegraph.enumerate", "cycles")
        timed("cyclegraph.build")
        timed("cyclegraph.remove_nodes", "nodes_in")
        timed("exact.mwis", "allowed_nodes", "cap_refusals", "dp_calls", "bnb_calls")
        out["exact.dp.table_entries"] = (c["exact.dp.table_entries"], "count")
        out["exact.dp.agents_touched_frac"] = (
            _ratio(c["exact.dp.agents_touched"], c["exact.dp.agents"]),
            "ratio",
        )
        timed("verification.oracle")
        out["verification.oracle.distinct_graphs"] = (len(self._graphs), "count")
        out["verification.oracle.calls_per_graph"] = (
            _ratio(self.calls("verification.oracle"), len(self._graphs)),
            "ratio",
        )
        timed("verification.fuzz", "solver_calls")
        timed("verification.inpa", "solver_calls")
        out["verification.findings"] = (c["verification.findings"], "count")
        timed("localsearch.run", "steps")
        for rule in ("localsearch.rule.expand", "localsearch.rule.all_for_q"):
            applies, fired = self.calls(rule), c[f"{rule}.fired"]
            out[f"{rule}.applies"] = (applies, "count")
            out[f"{rule}.fired"] = (fired, "count")
            out[f"{rule}.self_ms"] = (self.self_ms(rule), "ms")
            out[f"{rule}.useful_frac"] = (_ratio(fired, applies), "ratio")
        timed("mechanisms.solve")
        timed("instances.load")
        timed("cli.main")
        return out

    def count_snapshot(self) -> dict:
        """Every count the tracer holds, for comparing two traced passes."""
        return {
            "calls": {name: span[0] for name, span in sorted(self.spans.items())},
            "edges": {f"{p} > {n}": e[0] for (p, n), e in sorted(self.edges.items())},
            "counts": dict(sorted(self.counts.items())),
            "distinct_graphs": len(self._graphs),
        }

    def span_lines(self) -> list[str]:
        lines = ["span tree (parent > child: calls, total ms):"]
        for (parent, child), (calls, total) in sorted(self.edges.items()):
            lines.append(f"  {parent} > {child}: {calls} calls, {total / 1e6:.3f} ms")
        lines.append("self time by span (calls, self ms):")
        for name, (calls, self_ns) in sorted(self.spans.items()):
            lines.append(f"  {name}: {calls} calls, {self_ns / 1e6:.3f} ms")
        return lines


def _attribute(module_name: str, dotted: str) -> object:
    obj: object = importlib.import_module(module_name)
    for part in dotted.split("."):
        try:
            obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
        except (AttributeError, KeyError):
            raise BoundaryMissing(f"{module_name}.{dotted} no longer exists") from None
    return obj


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
