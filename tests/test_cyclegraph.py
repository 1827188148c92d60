import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bxmech.core import (
    LengthFunction,
    TradingCycle,
    WishListVector,
    cycle_sort_key,
    social_welfare,
)
from bxmech.cyclegraph import build_from_wishes, build_graph, enumerate_cycles
from bxmech.instances import gen_random

UNIFORM3 = LengthFunction.uniform(3)


def complete_digraph(n):
    return WishListVector.from_dict(
        n, {i: {j for j in range(1, n + 1) if j != i} for i in range(1, n + 1)}
    )


def test_enumerate_single_mutual_pair():
    w = WishListVector.from_dict(2, {1: {2}, 2: {1}})
    assert enumerate_cycles(w, 3) == [TradingCycle((1, 2))]


def test_enumerate_complete_4_agents():
    # C(4,2)*1! + C(4,3)*2! = 6 + 8
    assert len(enumerate_cycles(complete_digraph(4), 3)) == 14


def test_enumerate_acyclic_is_empty():
    w = WishListVector.from_dict(3, {1: {2}, 2: {3}})
    assert enumerate_cycles(w, 3) == []


def test_enumerate_rejects_small_bound():
    with pytest.raises(ValueError):
        enumerate_cycles(complete_digraph(3), 1)


def brute_force_cycles(wishes, k):
    """Reference enumeration: test every cyclic order of every small agent
    subset for respecting the wishes."""
    out = set()
    agents = range(1, wishes.n + 1)
    for size in range(2, k + 1):
        for subset in itertools.combinations(agents, size):
            first, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                seq = (first,) + perm
                if all(b in wishes.of(a) for a, b in zip(seq, seq[1:] + seq[:1])):
                    out.add(TradingCycle(seq))
    return out


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([0.2, 0.45, 0.7]),
)
def test_enumeration_matches_brute_force(n, k, seed, p):
    wishes = gen_random(n, k, p, seed).wishes
    found = enumerate_cycles(wishes, k)
    assert len(set(found)) == len(found)
    assert set(found) == brute_force_cycles(wishes, k)
    assert found == sorted(found, key=cycle_sort_key)


def test_build_rejects_duplicates():
    c = TradingCycle((1, 2))
    with pytest.raises(ValueError):
        build_graph([c, c], 2, LengthFunction.uniform(2))


def test_build_rejects_overlong_and_foreign_cycles():
    with pytest.raises(ValueError):
        build_graph([TradingCycle((1, 2, 3))], 3, LengthFunction.uniform(2))
    with pytest.raises(ValueError):
        build_graph([TradingCycle((1, 5))], 3, UNIFORM3)


def test_adjacency_by_shared_agent():
    a, b, c = TradingCycle((1, 2)), TradingCycle((3, 4)), TradingCycle((2, 3))
    g = build_graph([a, b, c], 4, UNIFORM3)
    assert g.neighbors(a) == frozenset({c})
    assert g.neighbors(b) == frozenset({c})
    assert g.neighbors(c) == frozenset({a, b})
    assert g.is_independent({a, b})
    assert not g.is_independent({a, c})


def test_weights_and_sets():
    lam = LengthFunction.of(3, "1", "9/10")
    v = TradingCycle((1, 2, 3))
    g = build_graph([v], 3, lam)
    assert g.node_weight(v) == Fraction(27, 10)
    assert g.weight([]) == 0
    assert g.is_independent(frozenset())


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(
        [("1", "2/3"), ("5/6", "3/7"), ("1", "2/3", "3/7"), ("1", "5/6", "3/4")]
    ),
    st.integers(min_value=0, max_value=10_000),
    st.data(),
)
def test_weights_are_fractions_at_the_api(values, seed, data):
    # integer weights inside, scaled by the LCM of the denominators; the API
    # still answers with the rationals sum(l * lambda(l))
    lam = LengthFunction.of(len(values) + 1, *values)
    g = gen_random(6, lam.k, 0.4, seed, lam=lam).graph()
    if not g.nodes:
        return
    picked = data.draw(st.sets(st.sampled_from(g.nodes)))
    dropped = data.draw(st.sets(st.sampled_from(g.nodes)))
    for graph in (g, g.remove_nodes(g.mask_of(dropped))):
        chosen = [v for v in picked if v in graph]
        expect = sum((v.length * lam(v.length) for v in chosen), start=Fraction(0))
        mask = graph.mask_of(chosen)
        for total in (graph.weight(chosen), graph.weight_of_mask(mask)):
            assert isinstance(total, Fraction) and total == expect
        for v in chosen:
            weight = graph.node_weight(v)
            assert isinstance(weight, Fraction) and weight == v.length * lam(v.length)


def test_remove_nodes_identity_and_empty():
    g = build_from_wishes(complete_digraph(4), UNIFORM3)
    assert g.remove_nodes(0) is g
    empty = g.remove_nodes(g.mask_of(g.nodes))
    assert empty.num_nodes == 0
    with pytest.raises(KeyError):
        g.mask_of([TradingCycle((1, 9))])
    with pytest.raises(KeyError):
        g.remove_nodes(1 << g.num_nodes)
    with pytest.raises(KeyError):
        empty.remove_nodes(1)


def test_remove_nodes_inherits_order():
    g = build_from_wishes(complete_digraph(4), UNIFORM3)
    sub = g.remove_nodes(g.mask_of([g.nodes[0], g.nodes[3]]))
    expect = [v for i, v in enumerate(g.nodes) if i not in (0, 3)]
    assert list(sub.nodes) == expect
    # adjacency survives restriction
    for v in sub.nodes:
        assert sub.neighbors(v) == frozenset(
            u for u in g.neighbors(v) if u in set(sub.nodes)
        )


def test_custom_node_order():
    a, b = TradingCycle((1, 2)), TradingCycle((3, 4))
    g = build_graph([a, b], 4, UNIFORM3, node_order=[b, a])
    assert g.nodes == (b, a)
    assert g.rank(b) == 0
    with pytest.raises(ValueError):
        build_graph([a, b], 4, UNIFORM3, node_order=[a])


def test_agent_index_is_clique():
    g = build_from_wishes(complete_digraph(5), UNIFORM3)
    for agent in range(1, 6):
        nodes = g.nodes_of(g.agent_mask(agent))
        for u, v in itertools.combinations(nodes, 2):
            assert v in g.neighbors(u)


def test_node_count_bound_and_claw_freeness():
    for n, k in [(4, 3), (5, 3), (5, 4)]:
        g = build_from_wishes(complete_digraph(n), LengthFunction.uniform(k))
        bound = sum(
            _comb(n, h) * _factorial(h - 1) for h in range(2, k + 1)
        )
        assert g.num_nodes <= bound
        # no node has k+1 pairwise non-adjacent neighbors
        for v in g.nodes:
            nbrs = sorted(g.neighbors(v), key=g.rank)
            for claw in itertools.combinations(nbrs[:12], k + 1):
                assert not g.is_independent(claw)


def _comb(n, h):
    import math

    return math.comb(n, h)


def _factorial(x):
    import math

    return math.factorial(x)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_independent_set_neighbor_bound(seed):
    bundle = gen_random(7, 3, 0.5, seed)
    g = bundle.graph()
    if g.num_nodes == 0:
        return
    # grow a greedy maximal IS, then check the per-node intersection bound
    chosen = []
    for v in g.nodes:
        if g.is_independent(chosen + [v]):
            chosen.append(v)
    iset = frozenset(chosen)
    for v in g.nodes:
        assert len(iset & g.neighbors(v)) <= v.length


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_exchange_round_trip(seed):
    bundle = gen_random(8, 3, 0.4, seed)
    g = bundle.graph()
    chosen = []
    for v in g.nodes:
        if g.is_independent(chosen + [v]):
            chosen.append(v)
    iset = frozenset(chosen)
    ex = g.exchange_from(iset)
    assert ex.cycles == iset
    assert social_welfare(ex, bundle.wishes, bundle.lam) == g.weight(iset)


def test_direct_graph_without_wishes():
    # the node universe is richer than wish-list-generated graphs
    nodes = [TradingCycle((1, 2)), TradingCycle((2, 3)), TradingCycle((1, 3))]
    g = build_graph(nodes, 3, UNIFORM3)
    assert g.num_nodes == 3
    assert not g.is_independent(nodes[:2])


def test_four_bound_instance_has_expected_optimum():
    # k = 4: two disjoint 2-cycles beat the 4-cycle through the same agents
    from bxmech.exact import naive_max_weight_independent_set

    w = WishListVector.from_dict(
        4, {1: {2, 4}, 2: {1, 3}, 3: {2, 4}, 4: {1, 3}}
    )
    g = build_from_wishes(w, LengthFunction.uniform(4))
    best = g.set_of(naive_max_weight_independent_set(g))
    assert g.weight(best) == 4
    assert {v.length for v in best} == {2}
