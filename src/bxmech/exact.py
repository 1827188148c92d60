"""Exact maximum-weight independent-set solvers for cycle graphs.

Both routes return the lexicographically first optimum (compare independent
sets by their sorted rank tuples).  With at most ``DP_AGENT_CAP`` agents, a
DP over the subsets of the agents the allowed nodes touch gives the best
packing weight on each subset (independent sets of a cycle graph are exactly
agent-disjoint node packings), and one pass in node order takes each node
that some optimum holds along with the nodes taken before it, which yields
the first optimum node by node.  With more agents, a branch-and-bound scans
the nodes in node order and branches include-first, so the first optimum it
completes is the first one; it prunes on suffix weight sums, equal bounds
included, since anything found later ties at best and loses the tie-break.

Both solvers search the graph's alive nodes: to restrict a search to some
nodes, remove the others first (:meth:`CycleGraph.remove_nodes`).  They run
on the graph's scaled integer weights (node weight times the tables'
``scale``), which order sets exactly as the rational weights do, and return
the chosen set as a node mask of the graph (bit i is node i).

``max_weight_independent_set`` is memoised in the ``solved`` dict of the
graph's shared build (:class:`~bxmech.cyclegraph.GraphTables`), which every
restriction of that build reads and fills.  The key is the alive node mask.  The memo is exact
because the answer depends only on the shared tables (nodes, adjacency,
scaled weights, agent count) and on that mask: it is the lexicographically
first optimum in the built graph's node order, whichever route finds it.
The naive scan is the ground truth and is never memoised.
"""

from __future__ import annotations

from typing import Sequence

from .cyclegraph import CycleGraph, bits

DP_AGENT_CAP = 16
# default node cap of a branch-and-bound search (more than DP_AGENT_CAP agents)
EXACT_NODE_CAP = 40


class ExactSearchCapExceeded(RuntimeError):
    """The instance is too large for exhaustive search under the given caps."""


def _agent_masks(graph: CycleGraph, allowed: Sequence[int]) -> tuple[dict[int, int], int]:
    """Bitmask of each allowed node's agents, over the agents the allowed
    nodes touch: the i-th smallest such agent is bit i; and the mask of them
    all."""
    nodes = graph._tables.nodes
    touched = sorted({a for idx in allowed for a in nodes[idx].agents})
    bit = {a: 1 << i for i, a in enumerate(touched)}
    out: dict[int, int] = {}
    for idx in allowed:
        mask = 0
        for a in nodes[idx].agents:
            mask |= bit[a]
        out[idx] = mask
    return out, (1 << len(touched)) - 1


def _packing_dp(
    graph: CycleGraph, allowed: Sequence[int], node_agents: dict[int, int], all_agents: int
) -> list[int]:
    """f[S] = best scaled packing weight using allowed nodes whose agents lie
    in S, for every subset S of the touched agents (``node_agents`` bits),
    which are the low bits up to ``all_agents``."""
    weights = graph._tables.weights
    # lowest agent bit -> (agent mask, weight) of the nodes holding that agent
    by_agent: dict[int, list[tuple[int, int]]] = {}
    for idx in allowed:
        am = node_agents[idx]
        m = am
        while m:
            low = m & -m
            by_agent.setdefault(low, []).append((am, weights[idx]))
            m ^= low
    table = [0] * (all_agents + 1)
    for subset in range(1, all_agents + 1):
        low_bit = subset & -subset
        best = table[subset ^ low_bit]
        for am, w in by_agent.get(low_bit, ()):
            if am & subset == am:
                cand = w + table[subset ^ am]
                if cand > best:
                    best = cand
        table[subset] = best
    return table


def max_weight_independent_set(graph: CycleGraph, *, node_cap: int | None = None) -> int:
    """Mask of the lexicographically first maximum-weight independent set.

    ``node_cap`` (if set) rejects instances whose agent count rules out the
    subset DP and whose node count exceeds the cap, instead of attempting a
    hopeless search.  The cap is checked before the memo is read, so a
    refusal is raised on every call and is never stored.
    """
    mask = graph._alive
    if not mask:
        return 0
    if graph.n > DP_AGENT_CAP and node_cap is not None and mask.bit_count() > node_cap:
        raise ExactSearchCapExceeded(
            f"{mask.bit_count()} nodes over {graph.n} agents exceeds the "
            f"exhaustive-search cap of {node_cap} nodes"
        )
    tables = graph._tables
    solved = tables.solved.get(mask)
    if solved is not None:
        return solved

    allowed = list(bits(mask))
    weights = tables.weights
    best_mask = 0
    if graph.n <= DP_AGENT_CAP:
        node_agents, all_agents = _agent_masks(graph, allowed)
        table = _packing_dp(graph, allowed, node_agents, all_agents)
        # The taken nodes and a best packing of the free agents make an
        # optimum, so v passes iff some optimum holds the taken nodes and v.
        # By induction the taken nodes are the first optimum's nodes before
        # v; an optimum holding them and v would, if the first one lacked v,
        # differ from it first at a node it holds, and so come before it.
        free = all_agents
        for idx in allowed:
            am = node_agents[idx]
            if am & free == am and weights[idx] + table[free & ~am] == table[free]:
                best_mask |= 1 << idx
                free &= ~am
    else:
        adj = tables.adj
        # suffix[i] = total scaled weight of allowed nodes at or after position i
        suffix = [0] * (len(allowed) + 1)
        for pos in range(len(allowed) - 1, -1, -1):
            suffix[pos] = suffix[pos + 1] + weights[allowed[pos]]
        best_weight = -1  # below every weight, so the first leaf is kept

        def search(pos: int, chosen: int, blocked: int, cur: int) -> None:
            nonlocal best_weight, best_mask
            while pos < len(allowed) and (1 << allowed[pos]) & blocked:
                pos += 1
            if pos == len(allowed):
                if cur > best_weight:
                    best_weight = cur
                    best_mask = chosen
                return
            if cur + suffix[pos] <= best_weight:
                return
            idx = allowed[pos]
            bit = 1 << idx
            search(pos + 1, chosen | bit, blocked | adj[idx] | bit, cur + weights[idx])
            search(pos + 1, chosen, blocked | bit, cur)

        search(0, 0, 0, 0)
        # search refers to itself through its closure; breaking that cycle
        # frees this call's tables now rather than at a full collection
        del search
    tables.solved[mask] = best_mask
    return best_mask


def naive_max_weight_independent_set(graph: CycleGraph, hard_cap: int = 20) -> int:
    """Cross-validator: scan all 2^|V| node subsets; returns a node mask.

    Same tie-break as :func:`max_weight_independent_set` (first optimum by
    sorted rank tuples), so the two solvers must agree exactly.
    """
    allowed = list(bits(graph._alive))
    m = len(allowed)
    if m > hard_cap:
        raise ExactSearchCapExceeded(f"{m} nodes exceeds the naive cap {hard_cap}")
    tables = graph._tables
    adj = [tables.adj[idx] for idx in allowed]
    best_weight = 0
    best_key: tuple[int, ...] = ()
    best = 0
    independent = [True] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        rest = mask ^ low
        pos = low.bit_length() - 1
        local_adj = adj[pos]
        rest_global = 0
        ok = independent[rest]
        if ok:
            r = rest
            while r:
                lb = r & -r
                rest_global |= 1 << allowed[lb.bit_length() - 1]
                r ^= lb
            ok = not (local_adj & rest_global)
        independent[mask] = ok
        if not ok:
            continue
        members = [allowed[i] for i in range(m) if mask & (1 << i)]
        weight = sum(tables.weights[i] for i in members)
        key = tuple(members)
        if weight > best_weight or (weight == best_weight and key < best_key):
            best_weight = weight
            best_key = key
            best = sum(1 << i for i in members)
    return best
