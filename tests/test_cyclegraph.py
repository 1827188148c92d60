import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bxmech.core import (
    Exchange,
    LengthFunction,
    TradingCycle,
    WishListVector,
    cycle_sort_key,
    social_welfare,
)
from bxmech.cyclegraph import build_from_wishes, build_graph, enumerate_cycles
from bxmech.exact import max_weight_independent_set
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
    st.integers(min_value=2, max_value=12),
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
    # the enumeration makes its cycles without TradingCycle's checks; each
    # must be the cycle the checked constructor makes
    for c in found:
        checked = TradingCycle(c.agents)
        assert (c.agents, c.length, hash(c)) == (checked.agents, checked.length, hash(checked))
        assert vars(c) == vars(checked)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_enumerate_complete_digraphs_finds_every_cycle_once(n, k):
    # C(n, l) agent sets of each length l, each with (l - 1)! cyclic orders
    found = enumerate_cycles(complete_digraph(n), k)
    expect = sum(math.comb(n, l) * math.factorial(l - 1) for l in range(2, min(n, k) + 1))
    assert len(found) == expect
    assert all(len(set(c.agents)) == c.length == len(c.agents) for c in found)


def test_enumeration_never_closes_through_an_agent_on_the_path():
    # 2 wishes for 1, so 2 closes the 4-cycles from 1; the path 1 -> 2 -> 3
    # is one short of k = 4 and 3 wishes for 2, which is on the path
    wishes = WishListVector.from_dict(3, {1: {2}, 2: {1, 3}, 3: {2}})
    assert enumerate_cycles(wishes, 4) == [TradingCycle((1, 2)), TradingCycle((2, 3))]


def tables_of(graph):
    """Every table of a build that does not fill as it is used."""
    t = graph._tables
    return (
        t.n, t.lam, t.nodes, dict(t.rank), t.adj, dict(t.agent_mask), t.agent_bits,
        dict(t.length_mask), dict(t.class_mask), t.weights, dict(t.utility), t.scale,
        graph._alive,
    )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["uniform", "flat", "steep"]),
)
def test_build_from_wishes_matches_a_build_of_brute_force_cycles(n, k, seed, kind):
    lam = {
        "uniform": LengthFunction.uniform(k),
        "flat": LengthFunction.of(k, "1", *["9/10"] * (k - 2)),
        "steep": LengthFunction.of(k, "1", *[f"1/{2 ** i}" for i in range(1, k - 1)]),
    }[kind]
    wishes = gen_random(n, k, 0.45, seed, lam=lam).wishes
    got = build_from_wishes(wishes, lam)
    # a fresh length function, so the reference computes its own lambda tables
    fresh = LengthFunction(k=k, values=lam.values)
    want = build_graph(sorted(brute_force_cycles(wishes, k), key=cycle_sort_key), n, fresh)
    assert got == want
    assert tables_of(got) == tables_of(want)


def test_build_rejects_duplicates():
    c = TradingCycle((1, 2))
    with pytest.raises(ValueError):
        build_graph([c, c], 2, LengthFunction.uniform(2))


def test_build_rejects_overlong_and_foreign_cycles():
    pair, triangle, square = (TradingCycle(c) for c in [(1, 2), (1, 2, 3), (1, 2, 3, 4)])
    foreign, far = TradingCycle((2, 5)), TradingCycle((1, 9))
    # the first bad cycle in the given order is reported, whichever test it fails
    cases = [
        ([pair, triangle], 3, LengthFunction.uniform(2), "cycle Cycle(1, 2, 3) longer than bound 2"),
        ([pair, foreign], 3, UNIFORM3, "cycle Cycle(2, 5) mentions agents outside [1, 3]"),
        ([pair, foreign, square], 4, UNIFORM3, "cycle Cycle(2, 5) mentions agents outside [1, 4]"),
        ([pair, square, foreign], 4, UNIFORM3, "cycle Cycle(1, 2, 3, 4) longer than bound 3"),
        ([triangle, pair, far, square], 4, UNIFORM3, "cycle Cycle(1, 9) mentions agents outside [1, 4]"),
    ]
    for cycles, n, lam, message in cases:
        with pytest.raises(ValueError) as caught:
            build_graph(cycles, n, lam)
        assert str(caught.value) == message
    # cycles of length exactly k over agents up to exactly n pass
    assert build_graph([pair, triangle], 3, UNIFORM3).num_nodes == 2


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
    assert g.weight([v]) == Fraction(27, 10)
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
        for total in (graph.weight(chosen), graph.weight(graph.nodes_of(mask))):
            assert isinstance(total, Fraction) and total == expect
        for v in chosen:
            weight = graph.weight([v])
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


LAMBDA_GRID = [Fraction(a, b) for b in (1, 2, 3, 4, 5, 7, 10) for a in range(1, b + 1)]


def drawn_lambda(data, k):
    values = data.draw(st.lists(st.sampled_from(LAMBDA_GRID), min_size=k - 1, max_size=k - 1))
    return LengthFunction(k=k, values=tuple(sorted(values, reverse=True)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=5), st.integers(min_value=0, max_value=10_000), st.data())
def test_lambda_tables_match_fraction_reference(k, seed, data):
    # class_mask, utility and weights are computed once per build with ints;
    # the reference compares the length function's Fractions, as opt_class
    # did on every solve, on the built graph and on a drawn restriction
    lam = drawn_lambda(data, k)
    g = gen_random(7, k, 0.4, seed, lam=lam).graph()
    drop = data.draw(st.sets(st.sampled_from(g.nodes))) if g.nodes else set()
    tables = g._tables
    for graph in (g, g.remove_nodes(g.mask_of(drop))):
        for ell in range(2, k + 1):
            expect = 0
            for length in range(2, k + 1):
                if lam(length) == lam(ell):
                    expect |= graph.length_mask(length)
            assert graph.class_mask(ell) == expect
            assert Fraction(tables.utility[ell], tables.scale) == lam(ell)
        for v in graph.nodes:
            assert Fraction(tables.weights[graph.rank(v)], tables.scale) == v.length * lam(v.length)
        for ell in (1, k + 1):
            with pytest.raises(ValueError):
                graph.class_mask(ell)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([3, 4]), st.data())
def test_agent_bits_table_matches_each_node_and_is_shared(seed, k, data):
    g = gen_random(8, k, 0.4, seed, lam=LengthFunction.uniform(k)).graph()
    g = build_graph(g.nodes, 8, g.lam, node_order=data.draw(st.permutations(g.nodes)))
    table = g._tables.agent_bits
    assert table == tuple(sum(1 << a for a in v.agents) for v in g.nodes)
    drop = data.draw(st.integers(0, (1 << g.num_nodes) - 1))
    assert g.remove_nodes(drop)._tables.agent_bits is table


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.data())
def test_restriction_is_a_view_of_the_shared_build(seed, data):
    # a restriction is the built graph's tables and a smaller alive mask:
    # it shares the tables and the memo, keeps ranks and node order, answers
    # every query as a fresh build of its nodes in that order does, and
    # rejects dead bits
    lam = LengthFunction.of(4, "1", "2/3", "2/3")
    g = gen_random(7, 4, 0.3, seed, lam=lam).graph()
    if not g.nodes:
        return
    view = g
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        alive = list(view.nodes)
        drop = data.draw(st.sets(st.sampled_from(alive))) if alive else set()
        before = view
        view = view.remove_nodes(view.mask_of(drop))
        assert view._tables is g._tables and view._tables.solved is g._tables.solved
        assert list(view.nodes) == [v for v in g.nodes if v in set(alive) - drop]
        assert all(view.rank(v) == g.rank(v) for v in view.nodes)
        assert view == g.remove_nodes(g._alive & ~view._alive)
        assert (view == before) == (not drop)
        for v in drop:
            assert v not in view
            with pytest.raises(KeyError):
                view.rank(v)
            with pytest.raises(KeyError):
                view.remove_nodes(1 << g.rank(v))
        fresh = build_graph(view.nodes, view.n, lam, node_order=view.nodes)
        assert fresh.nodes == view.nodes and fresh.num_nodes == view.num_nodes

        def translated(mask, src=view, dst=fresh):
            return dst.mask_of(src.nodes_of(mask))

        for v in view.nodes:
            assert view.neighbors(v) == fresh.neighbors(v)
            assert view.weight([v]) == fresh.weight([v])
        for a in range(1, view.n + 1):
            assert translated(view.agent_mask(a)) == fresh.agent_mask(a)
        for ell in range(2, 5):
            assert translated(view.length_mask(ell)) == fresh.length_mask(ell)
            assert translated(view.class_mask(ell)) == fresh.class_mask(ell)
        picked = data.draw(st.sets(st.sampled_from(view.nodes))) if view.nodes else set()
        assert view.is_independent(picked) == fresh.is_independent(picked)
        assert view.weight(picked) == fresh.weight(picked)
    with pytest.raises(KeyError):
        g.remove_nodes(1 << g.num_nodes)


def test_equality_ignores_the_memo():
    g = build_from_wishes(complete_digraph(4), UNIFORM3)
    twin = build_graph(g.nodes, g.n, UNIFORM3, node_order=g.nodes)
    max_weight_independent_set(g)
    assert g._tables.solved and twin._tables.solved == {}
    assert g == twin
    assert g != twin.remove_nodes(1)
    assert g != build_graph(g.nodes, g.n, UNIFORM3, node_order=g.nodes[::-1])
    with pytest.raises(TypeError):
        hash(g)


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
    assert g.is_independent(iset)
    ex = Exchange(cycles=iset)
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
