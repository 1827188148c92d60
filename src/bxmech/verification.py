"""Ground-truth oracle and adversarial testers.

Everything here distrusts the mechanisms: the oracle recomputes optima
exactly, the fuzzers search both strategy spaces an agent has (hiding node
subsets of the conflict graph, or under-reporting her wish list), and the
stability check verifies that non-served agents cannot move the output at
all.  Findings are strict utility improvements only.

The adversaries take a solve, a function from a graph to an answer node
mask such as a bound :meth:`bxmech.mechanisms.Mechanism.solve`; they
compare answers as ints and read an agent's utility from the answer's
nodes among hers.  The oracle hands out a frozenset of cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    LengthFunction,
    Utility,
    WishListVector,
    rational_str,
)
from .cyclegraph import CycleGraph, GraphTables, IndependentSet, bits, build_from_wishes
from .exact import EXACT_NODE_CAP, max_weight_independent_set

Solve = Callable[[CycleGraph], int]  # a graph -> its answer node mask

EXHAUSTIVE_NODE_LIMIT = 12  # per-agent strategy spaces up to 2**12 are enumerated


def oracle_max_weight_is(
    graph: CycleGraph, node_cap: int = EXACT_NODE_CAP
) -> IndependentSet:
    """A maximum-weight independent set, found by exhaustive search.

    Instances with few agents are solved through the agent-subset route no
    matter how many nodes they have; otherwise the node count must stay
    under ``node_cap``, or :class:`ExactSearchCapExceeded` is raised.
    """
    mask = max_weight_independent_set(graph, node_cap=node_cap)
    if not graph.is_independent_mask(mask):
        raise RuntimeError("oracle produced a dependent set; oracle bug")
    return graph.set_of(mask)


def graph_utility(graph: CycleGraph, answer: int, agent: int) -> Fraction:
    """Utility of an agent from an independent node mask: the length value
    of the unique answer node she partakes in, else 0."""
    tables = graph._tables
    return Fraction(_scaled_utility(tables, answer, agent), tables.scale)


def _scaled_utility(tables: GraphTables, answer: int, agent: int) -> int:
    """:func:`graph_utility` times the build's scale, read from its scaled
    utility table: the fuzzers compare utilities as these ints."""
    mine = answer & tables.agent_mask.get(agent, 0)
    return tables.utility[tables.nodes[mine.bit_length() - 1].length] if mine else 0


@dataclass(frozen=True)
class ManipulationFinding:
    agent: int
    kind: str  # "hide-nodes" | "wishlist-subset"
    strategy: tuple
    honest_utility: Utility
    manipulated_utility: Utility

    def __post_init__(self) -> None:
        if not self.manipulated_utility > self.honest_utility:
            raise ValueError("findings must be strict improvements")

    def to_json_dict(self) -> dict:
        if self.kind == "hide-nodes":
            strategy = [list(v.agents) for v in self.strategy]
        else:
            strategy = sorted(self.strategy)
        return {
            "agent": self.agent,
            "kind": self.kind,
            "strategy": strategy,
            "honest": rational_str(self.honest_utility),
            "manipulated": rational_str(self.manipulated_utility),
        }


@dataclass(frozen=True)
class RatioReport:
    instance: str
    mechanism: str
    mechanism_weight: Fraction
    oracle_weight: Fraction
    ratio: Fraction | None  # None encodes an infinite ratio
    bound: Fraction | None
    within_bound: bool

    def ratio_str(self) -> str:
        return "inf" if self.ratio is None else rational_str(self.ratio)


def measure_ratio(
    answer: int,
    graph: CycleGraph,
    bound: Fraction | None,
    instance: str = "",
    mechanism: str = "",
    node_cap: int = EXACT_NODE_CAP,
) -> RatioReport:
    """Compare a mechanism's answer mask with the oracle's optimum."""
    mech_weight = graph.weight(graph.nodes_of(answer))
    oracle_weight = graph.weight(oracle_max_weight_is(graph, node_cap=node_cap))
    if oracle_weight < mech_weight:
        raise RuntimeError("oracle lost to a mechanism; oracle bug")
    if mech_weight > 0:
        ratio: Fraction | None = oracle_weight / mech_weight
    elif oracle_weight == 0:
        ratio = Fraction(1)
    else:
        ratio = None
    if bound is None:
        within = True
    else:
        within = ratio is not None and ratio <= bound
    return RatioReport(
        instance=instance,
        mechanism=mechanism,
        mechanism_weight=mech_weight,
        oracle_weight=oracle_weight,
        ratio=ratio,
        bound=bound,
        within_bound=within,
    )


# ---------------------------------------------------------------------------
# strategy enumeration helpers


def _derive_seed(seed: int, agent: int, salt: int) -> int:
    return (seed * 1_000_003 + agent * 10_007 + salt) & 0x7FFFFFFF


def _node_subsets(
    own: int,
    budget: int,
    rng: random.Random,
    exhaustive_limit: int = EXHAUSTIVE_NODE_LIMIT,
) -> Iterable[int]:
    """Non-empty submasks of an agent's node mask: all of them, in increasing
    order, when the strategy space is small, otherwise a seeded sample of
    ``budget``."""
    m = own.bit_count()
    if m <= exhaustive_limit:
        sub = -own & own
        while sub:
            yield sub
            sub = (sub - own) & own
        return
    node_bits = [1 << i for i in bits(own)]
    sample: dict[int, None] = {}  # distinct draws, in draw order
    attempts = 0
    while len(sample) < budget and attempts < budget * 4:
        attempts += 1
        sample[rng.randrange(1, 1 << m)] = None
    for pick in sample:
        yield sum(node_bits[i] for i in bits(pick))


def _unsaturated(graph: CycleGraph, base: int) -> Iterator[tuple[int, int, int]]:
    """``(agent, own node mask, honest scaled utility)`` for each agent a
    fuzzer attacks.  An agent with no node, or already at her best node's
    value in ``base``, is skipped: hiding can only yield nodes of hers."""
    tables = graph._tables
    utility, length_mask = tables.utility, tables.length_mask
    for agent in range(1, graph.n + 1):
        own = graph.agent_mask(agent)
        if not own:
            continue
        honest = _scaled_utility(tables, base, agent)
        if honest < max(utility[ell] for ell, mask in length_mask.items() if own & mask):
            yield agent, own, honest


def fuzz_truthfulness_nodes(
    solve: Solve,
    graph: CycleGraph,
    budget: int = 64,
    seed: int = 0,
    exhaustive_limit: int = EXHAUSTIVE_NODE_LIMIT,
) -> list[ManipulationFinding]:
    """Search for an agent who profits from hiding some of her nodes.

    All findings are reported, not just the first.  Agents already at their
    best possible utility (the value of their shortest node) are skipped.
    """
    tables = graph._tables
    findings: list[ManipulationFinding] = []
    for agent, own, honest in _unsaturated(graph, solve(graph)):
        rng = random.Random(_derive_seed(seed, agent, 1))
        for subset in _node_subsets(own, budget, rng, exhaustive_limit):
            manipulated = _scaled_utility(tables, solve(graph.remove_nodes(subset)), agent)
            if manipulated > honest:
                findings.append(
                    ManipulationFinding(
                        agent=agent,
                        kind="hide-nodes",
                        strategy=graph.nodes_of(subset),
                        honest_utility=Fraction(honest, tables.scale),
                        manipulated_utility=Fraction(manipulated, tables.scale),
                    )
                )
    return findings


def fuzz_truthfulness_wishlists(
    solve: Solve,
    true_wishes: WishListVector,
    lam: LengthFunction,
    budget: int = 64,
    seed: int = 0,
    exhaustive_limit: int = EXHAUSTIVE_NODE_LIMIT,
    graph: CycleGraph | None = None,
) -> list[ManipulationFinding]:
    """Search for an agent who profits from under-reporting her wish list.

    Reporting a subset of a wish list removes exactly the cycles whose
    outgoing arc is concealed, so each reported subset is realized as a node
    deletion on the truthful conflict graph; distinct subsets with the same
    surviving cycle set are deduplicated by the mask of the concealed nodes
    (arcs on no cycle cannot matter).  Agents are skipped as the node
    fuzzer skips them.

    ``graph`` is the truthful conflict graph, built from ``true_wishes``
    and ``lam`` in the instance's node order (so the mechanism is attacked
    under the tie-breaks it is run with), or None to build it in the
    default order.  A graph of another length function or agent count, or
    a restriction, raises ``ValueError``.
    """
    if graph is None:
        graph = build_from_wishes(true_wishes, lam)
    elif graph.lam != lam or graph.n != true_wishes.n:
        raise ValueError("the graph's length function or agent count differs from the wish lists'")
    elif graph.num_nodes != len(graph._tables.nodes):
        raise ValueError("the wish-list fuzzer needs a whole build, not a restriction")
    tables = graph._tables
    findings: list[ManipulationFinding] = []
    for agent, own, honest in _unsaturated(graph, solve(graph)):
        full = sorted(true_wishes.of(agent))
        # kill[i]: the own nodes whose outgoing arc goes to wish full[i]; a
        # reported subset (bit i = full[i] kept) kills exactly the nodes of
        # the wishes it conceals
        m = len(full)
        position = {wish: i for i, wish in enumerate(full)}
        kill = [0] * m
        for i, v in zip(bits(own), graph.nodes_of(own)):
            kill[position[v.successor(agent)]] |= 1 << i
        everything = (1 << m) - 1
        rng = random.Random(_derive_seed(seed, agent, 2))
        if m <= exhaustive_limit:
            masks: Iterable[int] = range(everything)  # proper subsets
        else:
            masks = sorted({rng.randrange(0, everything) for _ in range(budget)})
        tried: dict[int, int] = {}
        for mask in masks:
            removed = 0
            for i in bits(everything & ~mask):
                removed |= kill[i]
            if removed in tried:
                manipulated = tried[removed]
            else:
                manipulated = tried[removed] = _scaled_utility(
                    tables, solve(graph.remove_nodes(removed)), agent
                )
            if manipulated > honest:
                findings.append(
                    ManipulationFinding(
                        agent=agent,
                        kind="wishlist-subset",
                        strategy=tuple(full[i] for i in bits(mask)),
                        honest_utility=Fraction(honest, tables.scale),
                        manipulated_utility=Fraction(manipulated, tables.scale),
                    )
                )
    return findings


def test_inpa(
    solve: Solve,
    graph: CycleGraph,
    budget: int = 64,
    seed: int = 0,
    exhaustive_limit: int = EXHAUSTIVE_NODE_LIMIT,
) -> bool:
    """True iff hiding node subsets of non-served agents never changes the
    answer (node-for-node)."""
    base = solve(graph)
    for agent in range(1, graph.n + 1):
        own = graph.agent_mask(agent)
        if not own or own & base:  # no node, or served
            continue
        rng = random.Random(_derive_seed(seed, agent, 3))
        for subset in _node_subsets(own, budget, rng, exhaustive_limit):
            if solve(graph.remove_nodes(subset)) != base:
                return False
    return True


# ---------------------------------------------------------------------------
# standalone combinatorial check on degree-capped bipartite graphs


@dataclass(frozen=True)
class CappedBipartite:
    """Connected bipartite graph with node weights in [2, k] where every
    left-side degree is capped by the node's weight."""

    k: int
    left_weights: tuple[int, ...]
    right_weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # (left index, right index)

    @property
    def left_total(self) -> int:
        return sum(self.left_weights)

    @property
    def right_total(self) -> int:
        return sum(self.right_weights)

    def left_degrees(self) -> list[int]:
        degs = [0] * len(self.left_weights)
        for a, _ in self.edges:
            degs[a] += 1
        return degs

    def has_slack(self) -> bool:
        return any(
            d < w for d, w in zip(self.left_degrees(), self.left_weights)
        )


def random_capped_bipartite(
    rng: random.Random, k: int, max_left: int = 5, max_right: int = 9
) -> CappedBipartite:
    """Generate a random connected instance; a spanning tree is grown under
    the degree caps, then extra edges are sprinkled where capacity remains."""
    while True:
        n_left = rng.randint(1, max_left)
        left_w = [rng.randint(2, k) for _ in range(n_left)]
        capacity = sum(left_w)
        n_right = rng.randint(1, min(max_right, capacity - n_left + 1))
        # grow a spanning tree, attaching each new node across the partition
        pending = [("L", a) for a in range(1, n_left)] + [
            ("R", b) for b in range(1, n_right)
        ]
        rng.shuffle(pending)
        order = [("R", 0)] + pending
        edges: set[tuple[int, int]] = set()
        degs = [0] * n_left
        in_left = {0}
        in_right: set[int] = set()
        ok = True
        for side, idx in order:
            if side == "R":
                options = sorted(a for a in in_left if degs[a] < left_w[a])
                if not options:
                    ok = False
                    break
                a = rng.choice(options)
                edges.add((a, idx))
                degs[a] += 1
                in_right.add(idx)
            else:
                if not in_right:
                    ok = False
                    break
                b = rng.choice(sorted(in_right))
                edges.add((idx, b))
                degs[idx] += 1
                in_left.add(idx)
        if not ok:
            continue
        for _ in range(rng.randint(0, 3)):
            a = rng.randrange(n_left)
            b = rng.randrange(n_right)
            if (a, b) not in edges and degs[a] < left_w[a]:
                edges.add((a, b))
                degs[a] += 1
        right_w = [rng.randint(2, k) for _ in range(n_right)]
        return CappedBipartite(
            k=k,
            left_weights=tuple(left_w),
            right_weights=tuple(right_w),
            edges=tuple(sorted(edges)),
        )


def check_bipartite_weight_bound(instance: CappedBipartite) -> bool:
    """The right side never outweighs the left by more than
    (k - 1 + 1/|A|), and by more than (k - 1) when some left degree has
    slack below its weight."""
    left = Fraction(instance.left_total)
    right = Fraction(instance.right_total)
    n_left = len(instance.left_weights)
    general = right <= left * (
        Fraction(instance.k - 1) + Fraction(1, n_left)
    )
    if not general:
        return False
    if instance.has_slack():
        return right <= left * (instance.k - 1)
    return True


def findings_to_json_lines(findings: Sequence[ManipulationFinding]) -> str:
    import json

    return "".join(
        json.dumps(f.to_json_dict(), sort_keys=True) + "\n" for f in findings
    )
