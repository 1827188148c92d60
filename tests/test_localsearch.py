import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bxmech.core import LengthFunction, TradingCycle
from bxmech.cyclegraph import build_graph
from bxmech.instances import gbad_blue_set, gen_gbad, gen_random
from bxmech.localsearch import (
    ImprovementRule,
    RuleContractError,
    SearchStats,
    all_for_q_rule,
    expansion_rule,
    run_local_search,
)
from bxmech.mechanisms import concatenate, greedy_mechanism, greedy_phase

UNIFORM3 = LengthFunction.uniform(3)


def graph_of(cycles, n, lam=UNIFORM3, order=None):
    return build_graph([TradingCycle(c) for c in cycles], n, lam, node_order=[TradingCycle(c) for c in order] if order else None)


class TestExpansion:
    def test_adds_single_node(self):
        g = graph_of([(1, 2)], 2)
        rule = expansion_rule()
        assert rule.apply(g, 0) == g.mask_of({TradingCycle((1, 2))})

    def test_maximal_returns_none(self):
        g = graph_of([(1, 2), (2, 3)], 3)
        rule = expansion_rule()
        current = g.mask_of({TradingCycle((1, 2))})
        assert rule.apply(g, current) is None

    def test_picks_first_in_node_order(self):
        g = graph_of([(1, 2), (3, 4), (5, 6)], 6)
        rule = expansion_rule()
        out = rule.apply(g, 0)
        assert out == g.mask_of({TradingCycle((1, 2))})


class TestAllForQ:
    def test_empty_set_has_no_candidates(self):
        g = graph_of([(1, 2)], 2)
        assert all_for_q_rule(1).apply(g, 0) is None

    def test_one_for_two_swap(self):
        # one 3-cycle blocks two 2-cycles that together cover more agents
        v = TradingCycle((1, 2, 3))
        a, b, c = TradingCycle((1, 4)), TradingCycle((2, 5)), TradingCycle((3, 6))
        g = build_graph([v, a, b, c], 6, UNIFORM3)
        out = all_for_q_rule(1).apply(g, g.mask_of({v}))
        assert out == g.mask_of({a, b, c})

    def test_loyalty_blocks_agent_dropping_swap(self):
        # two 2-cycles outweigh the 3-cycle but strand agent 3
        v = TradingCycle((1, 2, 3))
        a, b = TradingCycle((1, 4)), TradingCycle((2, 5))
        g = build_graph([v, a, b], 5, UNIFORM3)
        assert all_for_q_rule(1).apply(g, g.mask_of({v})) is None
        broken = all_for_q_rule(1, require_loyalty=False)
        assert broken.apply(g, g.mask_of({v})) == g.mask_of({a, b})

    def test_weight_must_strictly_increase(self):
        v = TradingCycle((1, 2))
        u = TradingCycle((2, 3))
        g = build_graph([v, u], 3, UNIFORM3)
        # swapping one 2-cycle for the other gains nothing
        assert all_for_q_rule(2).apply(g, g.mask_of({v})) is None

    def test_gbad_stalls_both_rules(self):
        for q in (1, 2, 3):
            g = gen_gbad(q).graph()
            blue = g.mask_of(gbad_blue_set(q))
            assert expansion_rule().apply(g, blue) is None
            assert all_for_q_rule(q).apply(g, blue) is None

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            all_for_q_rule(0)


def neighborhood(graph, nodes):
    return frozenset(u for v in nodes for u in graph.neighbors(v))


def independent_subsets(graph, pool, max_size):
    """Every non-empty independent subset of ``pool`` with at most
    ``max_size`` nodes, each as a tuple in pool order."""

    def extend(chosen, blocked, start):
        for i in range(start, len(pool)):
            v = pool[i]
            if v in blocked:
                continue
            combo = chosen + (v,)
            yield combo
            if len(combo) < max_size:
                yield from extend(combo, blocked | graph.neighbors(v), i + 1)

    return extend((), frozenset(), 0)


def reference_all_for_q(graph, current, q, require_loyalty=True):
    """Brute-force mirror of the all-for-q rule: scan every independent
    neighbor subset of at most q*k nodes and pick the canonical-first valid
    candidate."""
    if not current:
        return None
    pool = sorted(neighborhood(graph, current) - current, key=graph.rank)
    cur_agents = graph.agents_of(current)
    cur_weight = graph.weight(current)
    best_key, best = None, None
    for combo in independent_subsets(graph, pool, q * graph.k):
        evicted = frozenset(neighborhood(graph, combo) & current)
        if len(evicted) > q:
            continue
        candidate = (current - evicted) | frozenset(combo)
        if not graph.is_independent(candidate):
            continue
        if graph.weight(candidate) <= cur_weight:
            continue
        if require_loyalty:
            cand_agents = graph.agents_of(candidate)
            if not (cur_agents < cand_agents):
                continue
        key = (
            tuple(sorted(graph.rank(v) for v in combo)),
            tuple(sorted(graph.rank(v) for v in evicted)),
        )
        if best_key is None or key < best_key:
            best_key, best = key, candidate
    return best


# non-increasing length functions; the mixed denominators give the graph a
# weight scale above 1
LAMBDAS = {
    3: [("1", "1"), ("1", "9/10"), ("1", "1/2"), ("1", "2/3"), ("5/6", "3/7")],
    4: [("1", "1", "1"), ("1", "2/3", "3/7"), ("1", "5/6", "3/4")],
}


@settings(max_examples=150, deadline=None)
@given(
    # the 8-agent shape has pools of 20-45 nodes, where budgets fill and
    # evicted agents run out of cover, so both cuts of the search fire
    st.sampled_from([(6, 3, 0.5), (5, 4, 0.4), (6, 4, 0.3), (8, 3, 0.5)]),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
    st.data(),
)
def test_all_for_q_matches_brute_force_reference(shape, seed, q, loyal, data):
    n, k, p = shape
    lam = LengthFunction.of(k, *data.draw(st.sampled_from(LAMBDAS[k])))
    g = gen_random(n, k, p, seed, lam=lam).graph()
    if g.num_nodes == 0:
        return
    g = build_graph(g.nodes, n, lam, node_order=data.draw(st.permutations(g.nodes)))
    # the rule also runs on restrictions (concatenation tails, hidden nodes)
    hidden = data.draw(st.sets(st.integers(0, g.num_nodes - 1), max_size=g.num_nodes // 3))
    g = g.remove_nodes(sum(1 << i for i in hidden))
    if g.num_nodes == 0:
        return
    # start from the greedy basin or from a random independent set
    if data.draw(st.booleans()):
        start = g.set_of(run_local_search(g, [expansion_rule()]).final)
    else:
        start = frozenset()
        for v in data.draw(st.lists(st.sampled_from(g.nodes), max_size=6)):
            if g.is_independent(start | {v}):
                start |= {v}
    rule = all_for_q_rule(q, require_loyalty=loyal)
    out = rule.apply(g, g.mask_of(start))
    out = None if out is None else g.set_of(out)
    assert out == reference_all_for_q(g, start, q, loyal)


@pytest.mark.parametrize("seed", range(6))
def test_all_for_q_matches_reference_where_both_cuts_fire(seed):
    # 8 agents at p = 0.5 give pools of 20-45 nodes: on these fixed draws
    # budgets fill (cut 1, both rules) and evicted agents lose every cover
    # (cut 2, the loyal rule), so a wrong cut changes some answer
    rng = random.Random(seed)
    lam = LengthFunction.of(3, *rng.choice(LAMBDAS[3]))
    g = gen_random(8, 3, 0.5, seed, lam=lam).graph()
    order = list(g.nodes)
    rng.shuffle(order)
    g = build_graph(g.nodes, 8, lam, node_order=order)
    g = g.remove_nodes(g.mask_of(rng.sample(g.nodes, g.num_nodes // 6)))
    starts = [g.set_of(run_local_search(g, [expansion_rule()]).final)]
    for _ in range(3):
        start = frozenset()
        for v in rng.sample(g.nodes, min(8, g.num_nodes)):
            if g.is_independent(start | {v}):
                start |= {v}
        starts.append(start)
    for start, q, loyal in itertools.product(starts, (1, 2, 3), (True, False)):
        out = all_for_q_rule(q, require_loyalty=loyal).apply(g, g.mask_of(start))
        out = None if out is None else g.set_of(out)
        assert out == reference_all_for_q(g, start, q, loyal)


class TestDriver:
    def test_empty_graph(self):
        g = graph_of([], 2)
        trace = run_local_search(g, [expansion_rule()])
        assert trace.final == 0
        assert trace.iterations == 0

    def test_single_node_single_iteration(self):
        g = graph_of([(1, 2)], 2)
        trace = run_local_search(g, [expansion_rule()])
        assert trace.iterations == 1
        assert g.set_of(trace.final) == frozenset({TradingCycle((1, 2))})

    def test_rules_fire_in_priority_order(self):
        v = TradingCycle((1, 2, 3))
        a, b, c = TradingCycle((1, 4)), TradingCycle((2, 5)), TradingCycle((3, 6))
        g = build_graph([v, a, b, c], 6, UNIFORM3, node_order=[v, a, b, c])
        trace = run_local_search(g, [expansion_rule(), all_for_q_rule(1)])
        names = [s.rule_name for s in trace.steps]
        assert names[0] == "expand"  # grabs v first under the injected order
        assert "all-for-1" in names
        assert g.set_of(trace.final) == frozenset({a, b, c})

    def test_requires_rules(self):
        with pytest.raises(ValueError):
            run_local_search(graph_of([], 2), [])

    def test_contract_violations_abort(self):
        g = graph_of([(1, 2), (2, 3)], 3)
        dependent = ImprovementRule(
            name="bad-dependent",
            loyal=False,
            _apply_fn=lambda graph, cur: graph.mask_of(graph.nodes),
        )
        with pytest.raises(RuleContractError):
            run_local_search(g, [dependent])
        lighter = ImprovementRule(
            name="bad-lighter",
            loyal=False,
            _apply_fn=lambda graph, cur: graph.mask_of([graph.nodes[0]]),
        )
        trace_rule_fires_then_stalls = ImprovementRule(
            name="stall",
            loyal=False,
            _apply_fn=lambda graph, cur: None,
        )
        with pytest.raises(RuleContractError):
            # second application returns the same single node: not heavier
            run_local_search(g, [lighter, trace_rule_fires_then_stalls])

    def test_loyal_flag_violation_aborts(self):
        # a non-loyal rule serves agents 1 and 2 first; the loyal-flagged
        # rule then swaps in a heavier cycle that drops them
        pair, triple = TradingCycle((1, 2)), TradingCycle((3, 4, 5))
        g = graph_of([(1, 2), (3, 4, 5)], 5)
        disloyal = ImprovementRule(
            name="bad-loyal",
            loyal=True,
            _apply_fn=lambda graph, cur: graph.mask_of({triple}) if cur else None,
        )
        seed = ImprovementRule(
            name="seed",
            loyal=False,
            _apply_fn=lambda graph, cur: None if cur else graph.mask_of({pair}),
        )
        with pytest.raises(RuleContractError, match="dropped an agent"):
            run_local_search(g, [disloyal, seed])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=2))
def test_trace_weights_strictly_increase_and_rules_stay_loyal(seed, q):
    g = gen_random(7, 3, 0.45, seed).graph()
    trace = run_local_search(g, [expansion_rule(), all_for_q_rule(q)])
    last = Fraction(0)
    served = frozenset()
    for step in trace.steps:
        w = g.weight(g.nodes_of(step.result))
        assert w > last
        last = w
        now = g.agents_of(g.nodes_of(step.result))
        assert served <= now
        served = now


def reference_greedy(graph, lo, hi, stats):
    """Expansion-only searches on the nodes of length lo, ..., hi in turn,
    each run on what the earlier ones' outputs and their neighbors leave."""
    out = 0
    remaining = graph
    for j in range(lo, hi + 1):
        rule = dataclasses.replace(expansion_rule(), name=f"expand[len={j}]")
        length_j = remaining.remove_nodes(
            remaining.mask_of(v for v in remaining.nodes if v.length != j)
        )
        picked = run_local_search(length_j, [rule], stats).final
        out |= picked
        remaining = remaining.remove_nodes(picked | remaining.neighborhood_mask(picked))
    return graph.set_of(out)


class TestConcatenate:
    def test_empty_remainder_keeps_first_output(self):
        g = graph_of([(1, 2), (2, 3)], 3)
        first = greedy_phase(2).solver
        second = greedy_phase(2).solver
        assert concatenate(first, second)(g) == first(g)

    def test_union_semantics(self):
        g = graph_of([(1, 2), (3, 4, 5)], 5)
        combined = concatenate(greedy_phase(2).solver, greedy_phase(3).solver)
        assert g.set_of(combined(g)) == frozenset(g.nodes)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=4, max_value=9),
        st.sampled_from([3, 4]),
        st.data(),
    )
    def test_greedy_sweep_equals_phase_concatenation(self, seed, n, k, data):
        g = gen_random(n, k, 0.5, seed, lam=LengthFunction.uniform(k)).graph()
        order = data.draw(st.permutations(g.nodes))
        g = build_graph(g.nodes, n, g.lam, node_order=order)
        expected_stats, stats = SearchStats(), SearchStats()
        expected = reference_greedy(g, 2, k, expected_stats)
        assert greedy_mechanism().run(g, stats) == expected
        assert stats == expected_stats
        for j in range(2, k + 1):
            assert greedy_phase(j).run(g) == reference_greedy(g, j, j, None)
