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
choice made by the search rules refers to this order.  Inside the library a
set of nodes is an int mask, bit i meaning node i of the built graph:
adjacency is stored that way, and the rules, the solvers and
:meth:`CycleGraph.remove_nodes` take and return masks.  Frozensets of
cycles appear only at the API, through ``mask_of``, ``nodes_of`` and
``set_of``.  Removing nodes does not rebuild anything: the restricted graph
shares the built graph's tables and carries a smaller mask of alive nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    Exchange,
    LengthFunction,
    TradingCycle,
    WishListVector,
    cycle_sort_key,
)

IndependentSet = frozenset[TradingCycle]


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_cycles(wishes: WishListVector, k: int) -> list[TradingCycle]:
    """All simple directed cycles of length 2..k in the agent digraph.

    Each cycle is reported once, in canonical rotation, via a DFS that only
    extends paths with agents larger than the start agent (so the start is
    always the cycle minimum).  A path one short of full length is not
    pushed: its extension by ``nxt`` can only close, so it is reported at
    once when ``nxt`` wishes for the start.  The result is sorted by
    (length, sequence), so the DFS may visit successors in any order.
    """
    if k < 2:
        raise ValueError(f"length bound must be >= 2, got {k}")
    found: list[TradingCycle] = []
    wish = wishes.wish  # wish[a - 1] is agent a's wish list
    for start in range(1, wishes.n + 1):
        stack: list[tuple[int, tuple[int, ...]]] = [(start, (start,))]
        while stack:
            current, path = stack.pop()
            last = len(path) + 1 == k
            for nxt in wish[current - 1]:
                if nxt == start and len(path) >= 2:
                    found.append(TradingCycle(path))
                elif nxt > start and nxt not in path:
                    if not last:
                        stack.append((nxt, path + (nxt,)))
                    elif start in wish[nxt - 1]:
                        found.append(TradingCycle(path + (nxt,)))
    found.sort(key=cycle_sort_key)
    return found


@dataclass(frozen=True)
class CycleGraph:
    """Immutable conflict graph over trading cycles.

    Construct through :func:`build_graph`.  The tables (``_nodes``,
    ``_rank``, ``_adj``, ``_agent_mask``, ``_length_mask``, ``_weights``) are
    those of the built graph, and bit i of every mask means node i of it;
    ``_weights[i]`` is the weight of node i times ``_scale``, an int.
    ``_alive`` marks the nodes present: :meth:`remove_nodes` returns the same
    tables with a smaller alive mask, and every query answers for the alive
    nodes only.

    ``_solved`` memoises :func:`bxmech.exact.max_weight_independent_set` on
    these tables: it maps an allowed node mask to the solver's answer mask.
    :func:`build_graph` starts it empty and :meth:`remove_nodes` passes it
    on, so every restriction of one build shares it and it lives exactly as
    long as the build.  It takes no part in equality or repr.

    The rank of a node is its index in the built graph.  On a restricted
    graph the ranks may skip numbers, but they keep the order, so ranks
    still compare exactly as the graph's node order does, and ``nodes``
    lists the alive nodes in that order.
    """

    n: int
    lam: LengthFunction
    _nodes: tuple[TradingCycle, ...]
    _rank: Mapping[TradingCycle, int]
    _adj: tuple[int, ...]
    _agent_mask: Mapping[int, int]
    _length_mask: Mapping[int, int]
    _weights: tuple[int, ...]
    _scale: int
    _alive: int
    _solved: dict[int, int] = field(default_factory=dict, compare=False, repr=False)

    @property
    def k(self) -> int:
        return self.lam.k

    @cached_property
    def nodes(self) -> tuple[TradingCycle, ...]:
        if self._alive == (1 << len(self._nodes)) - 1:
            return self._nodes
        return self.nodes_of(self._alive)

    @property
    def num_nodes(self) -> int:
        return self._alive.bit_count()

    def __contains__(self, node: TradingCycle) -> bool:
        r = self._rank.get(node)
        return r is not None and (self._alive >> r) & 1 == 1

    def rank(self, node: TradingCycle) -> int:
        r = self._rank.get(node)
        if r is None or not (self._alive >> r) & 1:
            raise KeyError(f"unknown node {node}")
        return r

    def node_weight(self, node: TradingCycle) -> Fraction:
        return Fraction(self._weights[self.rank(node)], self._scale)

    def weight(self, nodes: Iterable[TradingCycle]) -> Fraction:
        return Fraction(sum(self._weights[self.rank(v)] for v in nodes), self._scale)

    def mask_of(self, nodes: Iterable[TradingCycle]) -> int:
        rank = self._rank
        mask = 0
        try:
            for v in nodes:
                mask |= 1 << rank[v]
        except KeyError:
            raise KeyError(f"unknown node {v}") from None
        dead = mask & ~self._alive
        if dead:
            raise KeyError(f"unknown node {self._nodes[dead.bit_length() - 1]}")
        return mask

    def nodes_of(self, mask: int) -> tuple[TradingCycle, ...]:
        """The nodes of the bits of ``mask``, in node order."""
        return tuple(self._nodes[i] for i in bits(mask))

    def set_of(self, mask: int) -> IndependentSet:
        return frozenset(self.nodes_of(mask))

    def weight_of_mask(self, mask: int) -> Fraction:
        return Fraction(sum(self._weights[i] for i in bits(mask)), self._scale)

    def neighbors(self, node: TradingCycle) -> IndependentSet:
        return self.set_of(self._adj[self.rank(node)] & self._alive)

    def neighborhood_mask(self, mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= self._adj[low.bit_length() - 1]
            mask ^= low
        return out & self._alive

    def is_independent(self, nodes: Iterable[TradingCycle]) -> bool:
        return self.is_independent_mask(self.mask_of(nodes))

    def is_independent_mask(self, mask: int) -> bool:
        """Whether ``mask`` holds alive nodes only, no two of them adjacent."""
        return not (mask & ~self._alive or mask & self.neighborhood_mask(mask))

    def agents_of(self, nodes: Iterable[TradingCycle]) -> frozenset[int]:
        out: set[int] = set()
        for v in nodes:
            self.rank(v)
            out.update(v.agents)
        return frozenset(out)

    def agent_mask(self, agent: int) -> int:
        """Mask of the alive nodes the agent partakes in."""
        return self._agent_mask.get(agent, 0) & self._alive

    def length_mask(self, length: int) -> int:
        """Mask of the alive nodes of the given length."""
        return self._length_mask.get(length, 0) & self._alive

    def remove_nodes(self, drop_mask: int) -> "CycleGraph":
        """Induced subgraph without the nodes of ``drop_mask``: the same
        tables with those bits cleared from the alive mask, so node order and
        ranks are inherited.  Every bit must be an alive node."""
        dead = drop_mask & ~self._alive
        if dead:
            raise KeyError(f"node {dead.bit_length() - 1} is not alive")
        if not drop_mask:
            return self
        return CycleGraph(
            self.n,
            self.lam,
            self._nodes,
            self._rank,
            self._adj,
            self._agent_mask,
            self._length_mask,
            self._weights,
            self._scale,
            self._alive & ~drop_mask,
            self._solved,
        )

    def exchange_from(self, independent: Iterable[TradingCycle]) -> Exchange:
        nodes = frozenset(independent)
        if not self.is_independent(nodes):
            raise ValueError("node set is not independent")
        return Exchange(cycles=nodes)


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
    length_mask: dict[int, int] = {}
    for i, v in enumerate(ordered):
        for a in v.agents:
            agent_mask[a] = agent_mask.get(a, 0) | (1 << i)
        length_mask[v.length] = length_mask.get(v.length, 0) | (1 << i)
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
        _nodes=tuple(ordered),
        _rank=rank,
        _adj=tuple(adj),
        _agent_mask=agent_mask,
        _length_mask=length_mask,
        _weights=weights,
        _scale=scale,
        _alive=(1 << len(ordered)) - 1,
    )


def build_from_wishes(
    wishes: WishListVector,
    lam: LengthFunction,
    node_order: Sequence[TradingCycle] | None = None,
) -> CycleGraph:
    return build_graph(enumerate_cycles(wishes, lam.k), wishes.n, lam, node_order)
