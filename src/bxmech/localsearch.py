"""Improvement rules and the local-search driver.

An improvement rule maps (graph, independent set) to a strictly heavier
independent set or to None when no candidate exists.  A local-search
algorithm is an ordered rule list: starting from the empty set, it always
fires the lowest-index applicable rule and halts when every rule returns
None.  Exact rational weights make the strict-increase argument (and hence
termination) airtight.

Two rule families are provided:

* the expansion rule: add the first node (in node order) that keeps the set
  independent;
* the all-for-q rule: swap in an independent set X of new neighbors while
  evicting at most q current members, provided no currently served agent is
  dropped and the weight strictly increases.

Rules see the whole graph they are given; a search confined to some nodes
runs on the graph with the others removed.  Solvers built from rule lists,
and their concatenation, live in :mod:`bxmech.mechanisms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .cyclegraph import CycleGraph, IndependentSet


class RuleContractError(RuntimeError):
    """A rule returned a non-independent or non-improving set: a rule bug."""


@dataclass(frozen=True)
class ImprovementRule:
    name: str
    loyal: bool
    _apply_fn: Callable[[CycleGraph, IndependentSet], IndependentSet | None]

    def apply(self, graph: CycleGraph, current: IndependentSet) -> IndependentSet | None:
        return self._apply_fn(graph, current)


def _expansion_apply(graph: CycleGraph, current: IndependentSet) -> IndependentSet | None:
    cur_mask = graph.mask_of(current)
    blocked = cur_mask | graph.neighborhood_mask(cur_mask)
    candidates = ((1 << graph.num_nodes) - 1) & ~blocked
    if not candidates:
        return None
    low = candidates & -candidates
    return current | {graph.nodes[low.bit_length() - 1]}


def expansion_rule() -> ImprovementRule:
    """Add the first node that keeps the set independent."""
    return ImprovementRule(name="expand", loyal=True, _apply_fn=_expansion_apply)


def _all_for_q_apply_factory(
    q: int, require_loyalty: bool
) -> Callable[[CycleGraph, IndependentSet], IndependentSet | None]:
    def apply_fn(graph: CycleGraph, current: IndependentSet) -> IndependentSet | None:
        if not current:
            return None
        cur_mask = graph.mask_of(current)
        pool = graph.neighborhood_mask(cur_mask) & ~cur_mask
        if not pool:
            return None
        pool_ranks = []
        m = pool
        while m:
            low = m & -m
            pool_ranks.append(low.bit_length() - 1)
            m ^= low
        max_size = q * graph.k
        cur_weight = graph.weight_of_mask(cur_mask)
        cur_agents = graph.agents_of(current)
        best_key: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        best: IndependentSet | None = None

        def consider(x_mask: int, evict_mask: int) -> None:
            nonlocal best_key, best
            gain = graph.weight_of_mask(x_mask) - graph.weight_of_mask(evict_mask)
            if gain <= 0:
                return
            added = graph.set_of(x_mask)
            evicted = graph.set_of(evict_mask)
            if require_loyalty:
                added_agents = graph.agents_of(added)
                evicted_agents = graph.agents_of(evicted)
                if not evicted_agents <= added_agents:
                    return
                if not (added_agents - cur_agents):
                    return
            key = (
                tuple(graph.rank(v) for v in graph.sorted_nodes(added)),
                tuple(graph.rank(v) for v in graph.sorted_nodes(evicted)),
            )
            if best_key is None or key < best_key:
                best_key = key
                best = (current - evicted) | added

        def extend(start: int, x_mask: int, x_size: int, evict_mask: int) -> None:
            for pos in range(start, len(pool_ranks)):
                r = pool_ranks[pos]
                bit = 1 << r
                if graph.adjacency_mask(r) & x_mask:
                    continue
                new_evict = evict_mask | (graph.adjacency_mask(r) & cur_mask)
                if bin(new_evict).count("1") > q:
                    continue
                consider(x_mask | bit, new_evict)
                if x_size + 1 < max_size:
                    extend(pos + 1, x_mask | bit, x_size + 1, new_evict)

        extend(0, 0, 0, 0)
        if best is None:
            return None
        # sanity: the bookkeeping above can only produce heavier sets
        assert graph.weight(best) > cur_weight
        return best

    return apply_fn


def all_for_q_rule(q: int, require_loyalty: bool = True) -> ImprovementRule:
    """Swap up to q current nodes for a heavier independent neighbor set.

    With ``require_loyalty`` (the default) a candidate must keep every
    currently served agent served and bring in at least one new agent;
    dropping the requirement yields the plain weight-improving swap rule,
    kept around as a deliberately manipulable specimen for the fuzz harness.
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    name = f"all-for-{q}" if require_loyalty else f"swap-{q}-nonloyal"
    return ImprovementRule(
        name=name,
        loyal=require_loyalty,
        _apply_fn=_all_for_q_apply_factory(q, require_loyalty),
    )


@dataclass
class SearchStats:
    """Mutable run diagnostics: iteration count and per-rule firings."""

    iterations: int = 0
    firings: dict[str, int] = field(default_factory=dict)

    def record(self, rule_name: str) -> None:
        self.iterations += 1
        self.firings[rule_name] = self.firings.get(rule_name, 0) + 1


@dataclass(frozen=True)
class TraceStep:
    rule_index: int
    rule_name: str
    result: IndependentSet


@dataclass(frozen=True)
class LocalSearchTrace:
    steps: tuple[TraceStep, ...]
    final: IndependentSet

    @property
    def iterations(self) -> int:
        return len(self.steps)


def run_local_search(
    graph: CycleGraph,
    rules: Sequence[ImprovementRule],
    stats: SearchStats | None = None,
) -> LocalSearchTrace:
    """Drive the rule list from the empty set to a stable set.

    Every returned candidate is re-checked here: a rule that hands back a
    non-independent or non-heavier set aborts the run loudly instead of
    corrupting the search state.
    """
    if not rules:
        raise ValueError("need at least one improvement rule")
    current: IndependentSet = frozenset()
    current_weight = Fraction(0)
    steps: list[TraceStep] = []
    while True:
        fired = False
        for idx, rule in enumerate(rules):
            result = rule.apply(graph, current)
            if result is None:
                continue
            if not graph.is_independent(result):
                raise RuleContractError(
                    f"rule {rule.name} returned a dependent set"
                )
            new_weight = graph.weight(result)
            if new_weight <= current_weight:
                raise RuleContractError(
                    f"rule {rule.name} returned a non-improving set"
                )
            if rule.loyal and not graph.agents_of(current) <= graph.agents_of(result):
                raise RuleContractError(
                    f"rule {rule.name} is flagged loyal but dropped an agent"
                )
            current, current_weight = frozenset(result), new_weight
            steps.append(TraceStep(idx, rule.name, current))
            if stats is not None:
                stats.record(rule.name)
            fired = True
            break
        if not fired:
            return LocalSearchTrace(steps=tuple(steps), final=current)

