"""Conflict graphs over trading cycles.

The nodes of a cycle graph are trading cycles of length at most k; two nodes
are adjacent exactly when their agent sets intersect.  Independent sets of
this graph are in one-to-one correspondence with feasible exchanges, and the
weight of a node is length * lambda(length), so maximum-weight independent
sets correspond to welfare-optimal exchanges.  Weights are exact: the graph
stores each node weight, and each lambda value, as an integer multiple of
``1 / scale``, where ``scale`` is the least common multiple of lambda's
denominators, so the inner loops of the solvers and the fuzzers add and
compare plain ints; ``weight`` returns a ``Fraction``.

The node set is kept in a total order (default: by length then canonical
agent sequence, injectable per instance); every "lexicographically first"
choice made by the search rules refers to this order.  A set of nodes is
an int mask, bit i meaning node i of the built graph: adjacency is stored
that way, and every :class:`CycleGraph` query, the rules, the solvers and
the mechanisms' answers take and return masks.  Cycles meet masks only
through two converters: ``mask_of`` (cycles to mask) and ``nodes_of`` (mask
to its cycles in node order).

:func:`build_graph` computes its tables once, in one :class:`GraphTables`:
the nodes, ranks, adjacency, agent, length and value-class masks, each
node's agents as a bitmask, the scaled weights and utilities, and two
tables filled as the build is used: the exact-solve memo and the solve
records of :meth:`bxmech.mechanisms.Mechanism.solve` (one per solver, from
which a solve on a restriction is answered without running).
A :class:`CycleGraph` is those shared tables plus a mask of alive nodes, so
removing nodes rebuilds nothing: the restricted graph is the same tables
with a smaller mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    LengthFunction,
    TradingCycle,
    WishListVector,
    _canonical_cycle,
    cycle_sort_key,
)


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_cycles(wishes: WishListVector, k: int) -> list[TradingCycle]:
    """All simple directed cycles of length 2..k in the agent digraph, sorted
    by (length, sequence).

    Each cycle is found once, in canonical rotation, by a walk from its
    smallest agent ``start`` that extends paths only with larger agents.
    ``back[start]`` holds the agents above ``start`` that wish for it; every
    cycle from ``start`` ends at one of them, so a start with none is
    skipped.  A path closes into a cycle of its own length when its last
    agent wishes for ``start``.  A path one agent short of k is not pushed:
    its k-cycles are its last agent's wishes among ``back[start]`` that are
    not on the path.  Paths are collected as int tuples, one list per
    length, and each list is sorted natively, so the walk may visit
    successors in any order.  The cycles are made with
    :func:`bxmech.core._canonical_cycle`, which skips ``TradingCycle``'s
    checks: the walk guarantees its precondition (the start is the smallest
    agent, and no agent repeats).
    """
    if k < 2:
        raise ValueError(f"length bound must be >= 2, got {k}")
    wish = (frozenset(),) + wishes.wish  # wish[a] is agent a's wish list
    back: list[set[int]] = [set() for _ in wish]
    for a, wanted in enumerate(wish):
        for b in wanted:
            if b < a:
                back[b].add(a)
    by_length: list[list[tuple[int, ...]]] = [[] for _ in range(k + 1)]
    closed = by_length[k]
    for start in range(1, wishes.n + 1):
        closers = back[start]
        if not closers:
            continue
        if k == 2:  # the path (start,) is already one agent short
            closed.extend((start, last) for last in wish[start] & closers)
            continue
        stack = [(start,)]
        while stack:
            path = stack.pop()
            one_short = len(path) + 2 == k  # its extensions are one agent short
            for nxt in wish[path[-1]]:
                if nxt > start and nxt not in path:
                    after = wish[nxt]
                    if start in after:
                        by_length[len(path) + 1].append(path + (nxt,))
                    if not one_short:
                        stack.append(path + (nxt,))
                        continue
                    for last in after & closers:  # each closes a k-cycle
                        if last not in path:
                            closed.append(path + (nxt, last))
    found: list[TradingCycle] = []
    for paths in by_length:
        paths.sort()
        found.extend(map(_canonical_cycle, paths))
    return found


def scaled_weight(weights: Sequence[int], mask: int) -> int:
    """Total of ``weights[i]`` over the bits i of ``mask``: the scaled
    weight of those nodes when ``weights`` is a build's weight table."""
    out = 0
    while mask:
        low = mask & -mask
        out += weights[low.bit_length() - 1]
        mask ^= low
    return out


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class GraphTables:
    """Everything one :func:`build_graph` call computes, shared by the built
    graph and every restriction of it.

    Bit i of every mask is node i of the build, in its node order, and
    ``rank`` maps each node to its i (:meth:`CycleGraph.mask_of` reads it).
    ``weights[i]`` is node i's weight times ``scale`` and ``utility[l]`` is
    lambda(l) times ``scale``, both ints: ``scale`` is the least common
    multiple of lambda's denominators, so weights and utilities share one
    denominator.  ``class_mask[l]`` holds the nodes whose length has the
    value lambda(l) (lengths 2..k).  ``agent_bits[i]`` has bit a set for
    each agent a of node i.

    ``solved`` memoises :func:`bxmech.exact.max_weight_independent_set`: it
    maps an alive node mask to the solver's answer mask.  ``recorded`` maps
    a solver to the record ``(alive, footprint, answer)`` of one of its
    runs on this build: the alive mask it ran on, and the footprint and
    answer masks the solver returned (a catalog solver's footprint is every
    node its run ever added); :meth:`bxmech.mechanisms.Mechanism.solve`
    fills and reads it.  Both start empty and live exactly as long as the
    build.
    """

    n: int
    lam: LengthFunction
    nodes: tuple[TradingCycle, ...]
    rank: Mapping[TradingCycle, int]
    adj: tuple[int, ...]
    agent_mask: Mapping[int, int]
    agent_bits: tuple[int, ...]
    length_mask: Mapping[int, int]
    class_mask: Mapping[int, int]
    weights: tuple[int, ...]
    utility: Mapping[int, int]
    scale: int
    solved: dict[int, int]
    recorded: dict[object, tuple[int, int, int]]


class CycleGraph:
    """Immutable conflict graph over trading cycles: the shared tables of one
    build (``_tables``) and the mask of the nodes present (``_alive``).

    Construct through :func:`build_graph`.  :meth:`remove_nodes` returns the
    same tables with a smaller alive mask, and every query answers for the
    alive nodes only.  Two graphs are equal when they have the same agent
    count, length function, node order and alive mask; the tables filled by
    use take no part.  Do not assign to either field: the tables are shared.

    Bit i of a mask is node i of the built graph, on every restriction
    too: a restricted graph's masks may skip bits, but they keep the node
    order, and ``nodes`` lists the alive nodes in that order.
    """

    def __init__(self, tables: GraphTables, alive: int) -> None:
        self._tables = tables
        self._alive = alive

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycleGraph):
            return NotImplemented
        a, b = self._tables, other._tables
        return self._alive == other._alive and (
            a is b or (a.n, a.lam, a.nodes) == (b.n, b.lam, b.nodes)
        )

    def __repr__(self) -> str:
        return f"CycleGraph(n={self.n}, lam={self.lam!r}, nodes={self.nodes!r})"

    @property
    def n(self) -> int:
        return self._tables.n

    @property
    def lam(self) -> LengthFunction:
        return self._tables.lam

    @property
    def k(self) -> int:
        return self._tables.lam.k

    @cached_property
    def nodes(self) -> tuple[TradingCycle, ...]:
        nodes = self._tables.nodes
        if self._alive == (1 << len(nodes)) - 1:
            return nodes
        return self.nodes_of(self._alive)

    @property
    def num_nodes(self) -> int:
        return self._alive.bit_count()

    def weight(self, mask: int) -> Fraction:
        """Total weight of the nodes of ``mask``.  Every bit must be an
        alive node."""
        t = self._tables
        dead = mask & ~self._alive
        if dead:
            raise KeyError(f"node {dead.bit_length() - 1} is not alive")
        return Fraction(scaled_weight(t.weights, mask), t.scale)

    def mask_of(self, nodes: Iterable[TradingCycle]) -> int:
        rank = self._tables.rank
        mask = 0
        try:
            for v in nodes:
                mask |= 1 << rank[v]
        except KeyError:
            raise KeyError(f"unknown node {v}") from None
        dead = mask & ~self._alive
        if dead:
            raise KeyError(f"unknown node {self._tables.nodes[dead.bit_length() - 1]}")
        return mask

    def nodes_of(self, mask: int) -> tuple[TradingCycle, ...]:
        """The nodes of the bits of ``mask``, in node order."""
        nodes = self._tables.nodes
        return tuple(nodes[i] for i in bits(mask))

    def neighborhood_mask(self, mask: int) -> int:
        adj = self._tables.adj
        out = 0
        while mask:
            low = mask & -mask
            out |= adj[low.bit_length() - 1]
            mask ^= low
        return out & self._alive

    def is_independent(self, mask: int) -> bool:
        """Whether ``mask`` holds alive nodes only, no two of them adjacent."""
        return not (mask & ~self._alive or mask & self.neighborhood_mask(mask))

    def agent_mask(self, agent: int) -> int:
        """Mask of the alive nodes the agent partakes in."""
        return self._tables.agent_mask.get(agent, 0) & self._alive

    def length_mask(self, length: int) -> int:
        """Mask of the alive nodes of the given length."""
        return self._tables.length_mask.get(length, 0) & self._alive

    def class_mask(self, length: int) -> int:
        """Mask of the alive nodes whose length has the value lambda(length)."""
        mask = self._tables.class_mask.get(length)
        if mask is None:
            raise ValueError(f"length {length} outside [2, {self.k}]")
        return mask & self._alive

    def remove_nodes(self, drop_mask: int) -> "CycleGraph":
        """Induced subgraph without the nodes of ``drop_mask``: the same
        tables with those bits cleared from the alive mask, so node order,
        bit positions and the exact-solve memo are shared.  Every bit must
        be an alive node."""
        alive = self._alive
        dead = drop_mask & ~alive
        if dead:
            raise KeyError(f"node {dead.bit_length() - 1} is not alive")
        if not drop_mask:
            return self
        return CycleGraph(self._tables, alive & ~drop_mask)


def build_graph(
    cycles: Sequence[TradingCycle],
    n: int,
    lam: LengthFunction,
    node_order: Sequence[TradingCycle] | None = None,
) -> CycleGraph:
    """Build the conflict graph for a set of canonical, distinct cycles.

    ``node_order`` overrides the default (length, sequence) order; it must be
    a permutation of ``cycles``.  A cycle's agents are positive by
    construction, so only its largest agent is tested against n.
    """
    cycle_list = list(cycles)
    if len(set(cycle_list)) != len(cycle_list):
        raise ValueError("duplicate canonical cycles")
    k = lam.k
    for c in cycle_list:
        if c.length > k:
            raise ValueError(f"cycle {c} longer than bound {k}")
        if max(c.agents) > n:
            raise ValueError(f"cycle {c} mentions agents outside [1, {n}]")
    if node_order is None:
        ordered = sorted(cycle_list, key=cycle_sort_key)
    else:
        ordered = list(node_order)
        if len(ordered) != len(cycle_list) or set(ordered) != set(cycle_list):
            raise ValueError("node_order must be a permutation of the cycles")
    rank = {v: i for i, v in enumerate(ordered)}
    agent_mask: dict[int, int] = {}
    agent_bits = []
    length_mask: dict[int, int] = {}
    get = agent_mask.get
    bit = 1  # bit i is node i: shifted once per node
    for v in ordered:
        node_agents = 0
        for a in v.agents:
            agent_mask[a] = get(a, 0) | bit
            node_agents |= 1 << a
        agent_bits.append(node_agents)
        length_mask[v.length] = length_mask.get(v.length, 0) | bit
        bit <<= 1
    adj = []
    bit = 1
    for v in ordered:
        mask = 0
        for a in v.agents:
            mask |= agent_mask[a]
        adj.append(mask ^ bit)  # the node is in each of its agents' masks
        bit <<= 1
    lengths = range(2, k + 1)
    scale = lcm(*(lam(ell).denominator for ell in lengths))
    utility = {ell: lam(ell).numerator * (scale // lam(ell).denominator) for ell in lengths}
    class_mask = dict.fromkeys(lengths, 0)
    for ell in lengths:
        for e in lengths:
            if utility[e] == utility[ell]:
                class_mask[ell] |= length_mask.get(e, 0)
    tables = GraphTables(
        n=n,
        lam=lam,
        nodes=tuple(ordered),
        rank=rank,
        adj=tuple(adj),
        agent_mask=agent_mask,
        agent_bits=tuple(agent_bits),
        length_mask=length_mask,
        class_mask=class_mask,
        weights=tuple(v.length * utility[v.length] for v in ordered),
        utility=utility,
        scale=scale,
        solved={},
        recorded={},
    )
    return CycleGraph(tables, bit - 1)


def build_from_wishes(
    wishes: WishListVector,
    lam: LengthFunction,
    node_order: Sequence[TradingCycle] | None = None,
) -> CycleGraph:
    return build_graph(enumerate_cycles(wishes, lam.k), wishes.n, lam, node_order)
