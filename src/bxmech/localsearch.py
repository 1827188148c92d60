"""Improvement rules and the local-search driver.

An improvement rule maps (graph, independent set, the set's neighbourhood)
to a strictly heavier independent set or to None when no candidate exists;
all three are node masks of the graph (bit i is node i), the neighbourhood
being N(current), the alive nodes adjacent to some member.  A local-search
algorithm is an ordered rule list: starting from the empty set, it always
fires the lowest-index applicable rule and halts when every rule returns
None.  Exact weights (the graph's scaled integers) make the strict-increase
argument (and hence termination) airtight.

Two rule families are provided:

* the expansion rule: add the first node (in node order) that keeps the set
  independent;
* the all-for-q rule: swap in an independent set X of new neighbors while
  evicting at most q current members, provided no currently served agent is
  dropped and the weight strictly increases.  It searches on bitmasks of
  nodes and agents with the graph's scaled integer weights, and stops at the
  first candidate that passes, which is the first in tie-break order.  Its
  depth-first search skips two kinds of subtree that hold no passing X:
  once X evicts q current nodes, only the pool nodes that evict inside that
  set can extend it; and under the loyalty requirement, an X that evicts an
  agent which no remaining candidate serves is not extended.  So the search
  meets the passing X's in the same order as the full walk.

The driver re-checks every result a rule returns, but only where it differs
from the current set, which already passed: the nodes added must be alive
and have no neighbour in the result, and the weight, the served agents and
the neighbourhood are updated from the nodes added and removed.  An
expansion step thus costs the one node it adds, not the whole set.

Rules see the whole graph they are given; a search confined to some nodes
runs on the graph with the others removed.  Solvers built from rule lists,
and their concatenation, live in :mod:`bxmech.mechanisms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .cyclegraph import CycleGraph, scaled_weight


class RuleContractError(RuntimeError):
    """A rule returned a non-independent or non-improving set: a rule bug."""


@dataclass(frozen=True)
class ImprovementRule:
    name: str
    loyal: bool
    _apply_fn: Callable[[CycleGraph, int, int], int | None]

    def apply(self, graph: CycleGraph, current: int, around: int) -> int | None:
        """The rule's answer for ``current``; ``around`` is N(current)."""
        return self._apply_fn(graph, current, around)


def _expansion_apply(graph: CycleGraph, current: int, around: int) -> int | None:
    candidates = graph._alive & ~(current | around)
    if not candidates:
        return None
    return current | (candidates & -candidates)


def expansion_rule() -> ImprovementRule:
    """Add the first node that keeps the set independent."""
    return ImprovementRule(name="expand", loyal=True, _apply_fn=_expansion_apply)


def _agent_bits(graph: CycleGraph, mask: int) -> int:
    """Bitmask (bit a for agent a) of the agents of the nodes in ``mask``."""
    table = graph._tables.agent_bits
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _all_for_q_apply_factory(
    q: int, require_loyalty: bool
) -> Callable[[CycleGraph, int, int], int | None]:
    def apply_fn(graph: CycleGraph, cur_mask: int, around: int) -> int | None:
        if not cur_mask:
            return None
        pool = around & ~cur_mask
        tables = graph._tables
        adj = tables.adj
        weights = tables.weights
        node_agents = tables.agent_bits
        # per usable pool node r: (the current nodes r evicts, their agents,
        # r's agents); a node that evicts more than q current nodes can be
        # in no candidate.  by_evicts indexes the usable pool nodes by the
        # exact set of current nodes they evict.
        info: dict[int, tuple[int, int, int]] = {}
        by_evicts: dict[int, int] = {}
        m = pool
        while m:
            low = m & -m
            m ^= low
            r = low.bit_length() - 1
            evicts = adj[r] & cur_mask
            if evicts.bit_count() > q:
                pool ^= low
                continue
            info[r] = (evicts, _agent_bits(graph, evicts), node_agents[r])
            by_evicts[evicts] = by_evicts.get(evicts, 0) | low
        if not pool:
            return None
        cur_agents = _agent_bits(graph, cur_mask)
        agent_mask = tables.agent_mask
        # full eviction set E -> the pool nodes that evict only inside E
        inside: dict[int, int] = {}

        def inside_of(evict: int) -> int:
            out = 0
            sub = evict
            while sub:
                out |= by_evicts.get(sub, 0)
                sub = (sub - 1) & evict
            inside[evict] = out
            return out

        def search(
            cand: int, x_mask: int, x_agents: int,
            evict: int, evict_agents: int, gain: int,
        ) -> tuple[int, int] | None:
            # gain = scaled weight of X minus that of its evicted set; the
            # first passing X in DFS order is the answer, and the two cuts
            # below drop only extensions that cannot pass (see all_for_q_rule)
            while cand:
                low = cand & -cand
                cand ^= low
                r = low.bit_length() - 1
                r_evicts, r_evict_agents, r_agents = info[r]
                new_evict = evict | r_evicts
                evicted = new_evict.bit_count()
                if evicted > q:
                    continue
                new_gain = gain + weights[r]
                fresh = r_evicts & ~evict
                while fresh:
                    f = fresh & -fresh
                    new_gain -= weights[f.bit_length() - 1]
                    fresh ^= f
                new_evict_agents = evict_agents | r_evict_agents
                new_x = x_mask | low
                new_agents = x_agents | r_agents
                if new_gain > 0 and (
                    not require_loyalty
                    or (
                        not new_evict_agents & ~new_agents
                        and new_agents & ~cur_agents
                    )
                ):
                    return new_x, new_evict
                rest = cand & ~adj[r]
                if evicted == q:
                    # cut 1: X fills the budget, so only nodes evicting
                    # inside it can extend X
                    fit = inside.get(new_evict)
                    rest &= inside_of(new_evict) if fit is None else fit
                if require_loyalty:
                    # cut 2: an evicted agent X misses must be served by
                    # some node still to come
                    missing = new_evict_agents & ~new_agents
                    while missing and rest:
                        a = missing & -missing
                        if not agent_mask.get(a.bit_length() - 1, 0) & rest:
                            rest = 0
                        missing ^= a
                if rest:
                    found = search(
                        rest, new_x, new_agents,
                        new_evict, new_evict_agents, new_gain,
                    )
                    if found is not None:
                        return found
            return None

        found = search(pool, 0, 0, 0, 0, 0)
        # search refers to itself through its closure; breaking that cycle
        # frees this call's tables now rather than at a full collection
        del search
        if found is None:
            return None
        x_mask, evict_mask = found
        # sanity: the bookkeeping above can only produce heavier sets; X
        # lies outside the current set, so w(result) - w(current) is
        # w(X) - w(evicted)
        assert scaled_weight(weights, x_mask) > scaled_weight(weights, evict_mask)
        return (cur_mask & ~evict_mask) | x_mask

    return apply_fn


def all_for_q_rule(q: int, require_loyalty: bool = True) -> ImprovementRule:
    """Swap up to q current nodes for a heavier independent neighbor set.

    With ``require_loyalty`` (the default) a candidate must keep every
    currently served agent served and bring in at least one new agent;
    dropping the requirement yields the plain weight-improving swap rule,
    kept around as a deliberately manipulable specimen for the fuzz harness.

    Among the passing candidates the rule returns the one with the smallest
    key (sorted ranks of X, sorted ranks of the evicted set).  X alone fixes
    its evicted set (its current neighbours), and the search walks the
    independent subsets X of the usable pool in increasing key order, a
    prefix before its extensions, and stops at the first X that passes.
    Independence keeps X within q*k nodes: no two share an agent, and each
    holds one of the at most q*k agents of the at most q evicted nodes.

    The search leaves out two kinds of extension, neither of which can
    contain a passing X, so it still meets the passing X's in that order
    and returns the same answer as the full walk:

    1. once X evicts q current nodes, the budget is full, and a node that
       evicts any other current node would push X past it; so X is
       extended only by the pool nodes whose evictions lie inside its
       evicted set (the pool is indexed by exact eviction set, and the
       union over the subsets of each full set is kept for the call);
    2. with ``require_loyalty``, every agent of the evicted set must end up
       in X; an agent that X does not hold yet and that no candidate left
       for the extension holds can never be covered, so X is not extended.
       The non-loyal rule may drop agents and gets only the first cut.
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
    result: int  # node mask


@dataclass(frozen=True)
class LocalSearchTrace:
    steps: tuple[TraceStep, ...]
    final: int  # node mask

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
    corrupting the search state.  The check looks only at what the rule
    changed, which is exact because the current set already passed it: the
    result is independent iff the nodes it adds are alive and none of them
    is adjacent to a node of the result.  The current set's weight, served
    agents and neighbourhood are carried along and updated from the nodes
    added and removed.
    """
    if not rules:
        raise ValueError("need at least one improvement rule")
    weights = graph._tables.weights
    alive = graph._alive
    current = current_weight = current_agents = around = 0
    steps: list[TraceStep] = []
    while True:
        fired = False
        for idx, rule in enumerate(rules):
            result = rule.apply(graph, current, around)
            if result is None:
                continue
            added = result & ~current
            # dead bits first: neighborhood_mask indexes its table by them
            if added & ~alive or (
                (added_around := graph.neighborhood_mask(added)) & result
            ):
                raise RuleContractError(
                    f"rule {rule.name} returned a dependent set"
                )
            removed = current & ~result
            new_weight = (
                current_weight
                + scaled_weight(weights, added)
                - scaled_weight(weights, removed)
            )
            if new_weight <= current_weight:
                raise RuleContractError(
                    f"rule {rule.name} returned a non-improving set"
                )
            new_agents = (
                current_agents & ~_agent_bits(graph, removed)
            ) | _agent_bits(graph, added)
            if rule.loyal and current_agents & ~new_agents:
                raise RuleContractError(
                    f"rule {rule.name} is flagged loyal but dropped an agent"
                )
            around = (
                graph.neighborhood_mask(result) if removed else around | added_around
            )
            current, current_weight, current_agents = result, new_weight, new_agents
            steps.append(TraceStep(idx, rule.name, current))
            if stats is not None:
                stats.record(rule.name)
            fired = True
            break
        if not fired:
            return LocalSearchTrace(steps=tuple(steps), final=current)
