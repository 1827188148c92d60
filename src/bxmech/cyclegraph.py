"""Conflict graphs over trading cycles.

The nodes of a cycle graph are trading cycles of length at most k; two nodes
are adjacent exactly when their agent sets intersect.  Independent sets of
this graph are in one-to-one correspondence with feasible exchanges, and the
weight of a node is length * lambda(length), so maximum-weight independent
sets correspond to welfare-optimal exchanges.  Weights are exact: the graph
stores each node weight as an integer multiple of ``1 / scale``, where
``scale`` is the least common multiple of the weights' denominators, so the
inner loops of the solvers add and compare plain ints; ``weight``,
``node_weight`` and ``weight_of_mask`` return ``Fraction``s.

The node set is kept in a total order (default: by length then canonical
agent sequence, injectable per instance); every "lexicographically first"
choice made by the search rules refers to this order.  Adjacency is stored
as bitmasks over node indices, which keeps the inner loops of local search
and the exact solvers cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .core import (
    Exchange,
    LengthFunction,
    TradingCycle,
    WishListVector,
    cycle_sort_key,
)

IndependentSet = frozenset[TradingCycle]


def enumerate_cycles(wishes: WishListVector, k: int) -> list[TradingCycle]:
    """All simple directed cycles of length 2..k in the agent digraph.

    Each cycle is reported once, in canonical rotation, via a DFS that only
    extends paths with agents larger than the start agent (so the start is
    always the cycle minimum).  The result is sorted by (length, sequence),
    so the DFS may visit successors in any order.
    """
    if k < 2:
        raise ValueError(f"length bound must be >= 2, got {k}")
    found: list[TradingCycle] = []
    n = wishes.n
    for start in range(1, n + 1):
        stack: list[tuple[int, tuple[int, ...]]] = [(start, (start,))]
        while stack:
            current, path = stack.pop()
            succ = wishes.of(current)
            if len(path) == k:
                # a path of full length can only close
                if start in succ:
                    found.append(TradingCycle(path))
                continue
            for nxt in succ:
                if nxt == start and len(path) >= 2:
                    found.append(TradingCycle(path))
                elif nxt > start and nxt not in path:
                    stack.append((nxt, path + (nxt,)))
    found.sort(key=cycle_sort_key)
    return found


@dataclass(frozen=True)
class CycleGraph:
    """Immutable conflict graph over trading cycles.

    Construct through :func:`build_graph`; ``nodes`` is already sorted by the
    graph's node order, so the rank of a node is its index.  ``_weights[i]``
    is the weight of node i times ``_scale``, an int.
    """

    n: int
    lam: LengthFunction
    nodes: tuple[TradingCycle, ...]
    _rank: Mapping[TradingCycle, int]
    _adj: tuple[int, ...]
    _agent_mask: Mapping[int, int]
    _weights: tuple[int, ...]
    _scale: int

    @property
    def k(self) -> int:
        return self.lam.k

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: TradingCycle) -> bool:
        return node in self._rank

    def rank(self, node: TradingCycle) -> int:
        try:
            return self._rank[node]
        except KeyError:
            raise KeyError(f"unknown node {node}") from None

    def node_weight(self, node: TradingCycle) -> Fraction:
        return Fraction(self._weights[self.rank(node)], self._scale)

    def weight(self, nodes: Iterable[TradingCycle]) -> Fraction:
        return Fraction(sum(self._weights[self.rank(v)] for v in nodes), self._scale)

    def mask_of(self, nodes: Iterable[TradingCycle]) -> int:
        mask = 0
        for v in nodes:
            mask |= 1 << self.rank(v)
        return mask

    def set_of(self, mask: int) -> IndependentSet:
        out = []
        while mask:
            low = mask & -mask
            out.append(self.nodes[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def weight_of_mask(self, mask: int) -> Fraction:
        total = 0
        while mask:
            low = mask & -mask
            total += self._weights[low.bit_length() - 1]
            mask ^= low
        return Fraction(total, self._scale)

    def neighbors(self, node: TradingCycle) -> IndependentSet:
        return self.set_of(self._adj[self.rank(node)])

    def neighborhood(self, nodes: Iterable[TradingCycle]) -> IndependentSet:
        mask = 0
        for v in nodes:
            mask |= self._adj[self.rank(v)]
        return self.set_of(mask)

    def neighborhood_mask(self, mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= self._adj[low.bit_length() - 1]
            mask ^= low
        return out

    def is_independent(self, nodes: Iterable[TradingCycle]) -> bool:
        mask = 0
        for v in nodes:
            r = self.rank(v)
            if self._adj[r] & mask:
                return False
            mask |= 1 << r
        return True

    def agents_of(self, nodes: Iterable[TradingCycle]) -> frozenset[int]:
        out: set[int] = set()
        for v in nodes:
            self.rank(v)
            out.update(v.agents)
        return frozenset(out)

    def agent_nodes(self, agent: int) -> IndependentSet:
        return self.set_of(self._agent_mask.get(agent, 0))

    def adjacency_mask(self, index: int) -> int:
        return self._adj[index]

    def sorted_nodes(self, nodes: Iterable[TradingCycle]) -> list[TradingCycle]:
        return sorted(nodes, key=self.rank)

    def remove_nodes(self, dropped: Iterable[TradingCycle]) -> "CycleGraph":
        """Induced subgraph on the remaining nodes; node order is inherited.

        Rebuilt by compressing the cached bitmasks: nodes were validated at
        construction, so no re-validation or weight arithmetic is needed.
        """
        drop_mask = self.mask_of(dropped)
        if not drop_mask:
            return self
        keep = [i for i in range(len(self.nodes)) if not (drop_mask >> i) & 1]
        position = {old: new for new, old in enumerate(keep)}
        keep_mask = 0
        for old in keep:
            keep_mask |= 1 << old

        def compress(mask: int) -> int:
            # agent masks are sparse, so per-bit remapping is cheap
            mask &= keep_mask
            out = 0
            while mask:
                low = mask & -mask
                out |= 1 << position[low.bit_length() - 1]
                mask ^= low
            return out

        nodes = tuple(self.nodes[i] for i in keep)
        agent_mask = {a: compress(m) for a, m in self._agent_mask.items()}
        adj = []
        for j, v in enumerate(nodes):
            mask = 0
            for a in v.agents:
                mask |= agent_mask[a]
            adj.append(mask & ~(1 << j))
        return CycleGraph(
            n=self.n,
            lam=self.lam,
            nodes=nodes,
            _rank={v: j for j, v in enumerate(nodes)},
            _adj=tuple(adj),
            _agent_mask=agent_mask,
            _weights=tuple(self._weights[i] for i in keep),
            _scale=self._scale,
        )

    def exchange_from(self, independent: Iterable[TradingCycle]) -> Exchange:
        nodes = frozenset(independent)
        if not self.is_independent(nodes):
            raise ValueError("node set is not independent")
        return Exchange(cycles=nodes)

    def independent_from(self, exchange: Exchange) -> IndependentSet:
        for cycle in exchange.cycles:
            self.rank(cycle)
        return frozenset(exchange.cycles)


def build_graph(
    cycles: Sequence[TradingCycle],
    n: int,
    lam: LengthFunction,
    node_order: Sequence[TradingCycle] | None = None,
) -> CycleGraph:
    """Build the conflict graph for a set of canonical, distinct cycles.

    ``node_order`` overrides the default (length, sequence) order; it must be
    a permutation of ``cycles``.
    """
    cycle_list = list(cycles)
    if len(set(cycle_list)) != len(cycle_list):
        raise ValueError("duplicate canonical cycles")
    for c in cycle_list:
        if c.length > lam.k:
            raise ValueError(f"cycle {c} longer than bound {lam.k}")
        if any(not 1 <= a <= n for a in c.agents):
            raise ValueError(f"cycle {c} mentions agents outside [1, {n}]")
    if node_order is None:
        ordered = sorted(cycle_list, key=cycle_sort_key)
    else:
        ordered = list(node_order)
        if len(ordered) != len(cycle_list) or set(ordered) != set(cycle_list):
            raise ValueError("node_order must be a permutation of the cycles")
    rank = {v: i for i, v in enumerate(ordered)}
    agent_mask: dict[int, int] = {}
    for i, v in enumerate(ordered):
        for a in v.agents:
            agent_mask[a] = agent_mask.get(a, 0) | (1 << i)
    adj = []
    for i, v in enumerate(ordered):
        mask = 0
        for a in v.agents:
            mask |= agent_mask[a]
        adj.append(mask & ~(1 << i))
    by_length = {ell: ell * lam(ell) for ell in range(2, lam.k + 1)}
    scale = lcm(*(w.denominator for w in by_length.values()))
    scaled = {ell: w.numerator * scale // w.denominator for ell, w in by_length.items()}
    weights = tuple(scaled[v.length] for v in ordered)
    return CycleGraph(
        n=n,
        lam=lam,
        nodes=tuple(ordered),
        _rank=rank,
        _adj=tuple(adj),
        _agent_mask=agent_mask,
        _weights=weights,
        _scale=scale,
    )


def build_from_wishes(
    wishes: WishListVector, lam: LengthFunction
) -> CycleGraph:
    return build_graph(enumerate_cycles(wishes, lam.k), wishes.n, lam)
