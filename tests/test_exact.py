import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bxmech.core import LengthFunction, TradingCycle
from bxmech.cyclegraph import bits, build_graph
from bxmech.exact import (
    ExactSearchCapExceeded,
    max_weight_independent_set,
    naive_max_weight_independent_set,
)
from bxmech.instances import gen_random
from bxmech.localsearch import all_for_q_rule, expansion_rule, run_local_search


def shifted_copy(graph, offset):
    """Same conflict structure with every agent id raised by ``offset``."""
    nodes = [TradingCycle(tuple(a + offset for a in v.agents)) for v in graph.nodes]
    lam = graph.lam
    return build_graph(nodes, graph.n + offset, lam, node_order=nodes)


def restrict(graph, nodes):
    """``graph`` with every node outside ``nodes`` removed."""
    return graph.remove_nodes(graph._alive & ~graph.mask_of(nodes))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(
        [
            (3, 0.3, ("1", "1")),
            (3, 0.5, ("1", "9/10")),
            (3, 0.8, ("1", "1/2")),
            (3, 0.5, ("5/6", "3/7")),
            (4, 0.3, ("1", "2/3", "3/7")),
            (4, 0.4, ("1", "5/6", "3/4")),
        ]
    ),
    st.integers(min_value=0, max_value=10_000),
    st.data(),
)
def test_solver_agrees_with_naive_scan(case, seed, data):
    # mixed denominators scale the weights to ints, the drawn order moves the
    # tie-breaks, and the shifted copy (over 16 agents) takes the suffix bound;
    # the whole graph is checked every time, and a drawn restriction (to a
    # value class or a random subset) makes the subset DP run over only the
    # agents its nodes touch
    k, p, values = case
    lam = LengthFunction.of(k, *values)
    graph = gen_random(6, k, p, seed, lam=lam).graph()
    if graph.num_nodes > 16:
        return
    order = data.draw(st.permutations(graph.nodes))
    graph = build_graph(graph.nodes, 6, lam, node_order=order)
    value = data.draw(st.sampled_from(lam.values))
    value_class = [v for v in graph.nodes if lam(v.length) == value]
    subset = data.draw(st.sets(st.sampled_from(graph.nodes))) if graph.nodes else set()
    keep = data.draw(st.sampled_from([value_class, subset]))
    shifted = shifted_copy(graph, 20)
    twin = dict(zip(graph.nodes, shifted.nodes))
    shifted_keep = [twin[v] for v in keep]
    for g, w in ((graph, keep), (shifted, shifted_keep)):
        assert max_weight_independent_set(g) == naive_max_weight_independent_set(g)
        part = restrict(g, w)
        assert max_weight_independent_set(part) == naive_max_weight_independent_set(part)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(
        [
            (3, 0.5, ("1", "9/10")),
            (3, 0.8, ("1", "1/2")),
            (4, 0.3, ("1", "2/3", "3/7")),
        ]
    ),
    st.integers(min_value=0, max_value=10_000),
    st.data(),
)
def test_memo_matches_fresh_solves_along_restrictions(case, seed, data):
    # a chain of restrictions of one build shares its memo; every answer it
    # gives (memoised or not) must equal a fresh build's with the same order
    # and the naive scan, on the DP route and (shifted past 16 agents) the
    # branch-and-bound route
    k, p, values = case
    lam = LengthFunction.of(k, *values)
    graph = gen_random(6, k, p, seed, lam=lam).graph()
    if graph.num_nodes > 16:
        return
    graph = build_graph(graph.nodes, 6, lam, node_order=data.draw(st.permutations(graph.nodes)))
    shifted = shifted_copy(graph, 20)
    assert graph.n <= 16 < shifted.n
    steps = data.draw(st.integers(min_value=1, max_value=4))
    for built in (graph, shifted):
        assert built._tables.solved == {}
        view, answers = built, []
        for _ in range(steps):
            alive = list(bits(view._alive))
            drop = data.draw(st.sets(st.sampled_from(alive))) if alive else set()
            view = view.remove_nodes(sum(1 << i for i in drop))
            assert view._tables.solved is built._tables.solved
            value = data.draw(st.sampled_from(lam.values))
            value_class = [v for v in view.nodes if lam(v.length) == value]
            subset = data.draw(st.sets(st.sampled_from(view.nodes))) if view.nodes else set()
            keep = data.draw(st.sampled_from([None, value_class, subset]))
            part = view if keep is None else restrict(view, keep)
            best = max_weight_independent_set(part)
            fresh = build_graph(view.nodes, view.n, lam, node_order=view.nodes)
            fresh_part = fresh if keep is None else restrict(fresh, keep)
            expect = max_weight_independent_set(fresh_part)
            assert view.set_of(best) == fresh.set_of(expect)
            assert best == naive_max_weight_independent_set(part)
            answers.append((part, best))
        # asked again, every answer comes from the memo, one entry per mask
        for part, best in answers:
            assert max_weight_independent_set(part) == best
        masks = {part._alive for part, _ in answers}
        assert built._tables.solved.keys() == masks - {0}
    rebuilt = build_graph(graph.nodes, 6, lam, node_order=graph.nodes)
    assert rebuilt._tables.solved == {} and rebuilt._tables.solved is not graph._tables.solved


def test_cap_refusal_is_never_memoised():
    lam = LengthFunction.uniform(3)
    graph = gen_random(18, 3, 0.6, 1, lam=lam).graph()
    assert graph.n > 16
    part = restrict(graph, graph.nodes[:10])
    # a refusal raises again on repeat and leaves no memo entry
    for _ in range(2):
        with pytest.raises(ExactSearchCapExceeded):
            max_weight_independent_set(part, node_cap=9)
    assert graph._tables.solved == {}
    # an answer stored without a cap does not let a smaller cap through
    best = max_weight_independent_set(part)
    assert graph._tables.solved == {part._alive: best}
    with pytest.raises(ExactSearchCapExceeded):
        max_weight_independent_set(part, node_cap=9)
    assert max_weight_independent_set(part, node_cap=10) == best


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_subset_dp_route_matches_suffix_route(seed):
    # shifting agent ids past the DP threshold flips the bound strategy but
    # must not change which set (up to relabeling) is returned
    lam = LengthFunction.of(3, "1", "9/10")
    graph = gen_random(6, 3, 0.5, seed, lam=lam).graph()
    if graph.num_nodes > 18:
        return
    shifted = shifted_copy(graph, 20)
    assert shifted.n > 16
    direct = graph.set_of(max_weight_independent_set(graph))
    relabeled = shifted.set_of(max_weight_independent_set(shifted))
    expect = {
        TradingCycle(tuple(a + 20 for a in v.agents)) for v in direct
    }
    assert relabeled == frozenset(expect)


def test_restriction_to_node_subset():
    lam = LengthFunction.uniform(3)
    graph = gen_random(6, 3, 0.6, 5, lam=lam).graph()
    short = [v for v in graph.nodes if v.length == 2]
    part = restrict(graph, short)
    best = max_weight_independent_set(part)
    assert graph.set_of(best) <= frozenset(short)
    assert best == naive_max_weight_independent_set(part)


def test_cap_refuses_oversized_suffix_search():
    lam = LengthFunction.uniform(3)
    graph = gen_random(18, 3, 0.6, 1, lam=lam).graph()
    assert graph.n > 16
    with pytest.raises(ExactSearchCapExceeded):
        max_weight_independent_set(graph, node_cap=15)
    with pytest.raises(ExactSearchCapExceeded):
        naive_max_weight_independent_set(graph, hard_cap=15)


def test_lexicographic_tie_break_is_first_by_rank():
    # two disjoint optima: {a, d} and {b, c} with equal weight; the solver
    # must return the one whose sorted rank tuple comes first
    a, b = TradingCycle((1, 2)), TradingCycle((1, 3))
    c, d = TradingCycle((2, 3)), TradingCycle((4, 5))
    graph = build_graph([a, b, c, d], 5, LengthFunction.uniform(3))
    best = max_weight_independent_set(graph)
    assert graph.set_of(best) == frozenset({a, d})
    assert naive_max_weight_independent_set(graph) == best


def test_solves_leave_no_reference_cycles():
    # the branch-and-bound and the all-for-q search are closures that call
    # themselves; each call drops that self-reference when it is done, so
    # its tables are freed at once and the cyclic collector finds nothing
    lam = LengthFunction.of(3, "1", "9/10")
    small = gen_random(8, 3, 0.5, 3, lam=lam).graph()
    graphs = (small, shifted_copy(small, 20))
    assert graphs[0].n <= 16 < graphs[1].n
    rules = (expansion_rule(), all_for_q_rule(2))
    gc.collect()
    gc.disable()
    try:
        for graph in graphs:
            for length in (2, 3):
                # uncached: each restriction is a new alive mask
                max_weight_independent_set(graph.remove_nodes(graph.length_mask(length)))
            assert graph._tables.solved
            assert run_local_search(graph, rules).iterations > 0
        assert gc.collect() == 0
    finally:
        gc.enable()
