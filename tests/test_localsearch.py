import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bxmech.core import LengthFunction, TradingCycle
from bxmech.cyclegraph import CycleGraph, bits, build_graph
from bxmech.instances import gbad_blue_set, gen_gbad, gen_random
from bxmech.localsearch import (
    ImprovementRule,
    LocalSearchTrace,
    RuleContractError,
    SearchStats,
    TraceStep,
    all_for_q_rule,
    expansion_rule,
    run_local_search,
)
from bxmech.mechanisms import (
    concatenate,
    greedy_mechanism,
    greedy_phase,
    greedy_solver,
    lambda_profile,
)

UNIFORM3 = LengthFunction.uniform(3)


def apply_rule(rule, graph, current):
    """``rule``'s answer for ``current``, its neighbourhood computed whole."""
    return rule.apply(graph, current, graph.neighborhood_mask(current))


def graph_of(cycles, n, lam=UNIFORM3, order=None):
    return build_graph([TradingCycle(c) for c in cycles], n, lam, node_order=[TradingCycle(c) for c in order] if order else None)


class TestExpansion:
    def test_adds_single_node(self):
        g = graph_of([(1, 2)], 2)
        rule = expansion_rule()
        assert apply_rule(rule, g, 0) == g.mask_of({TradingCycle((1, 2))})

    def test_maximal_returns_none(self):
        g = graph_of([(1, 2), (2, 3)], 3)
        rule = expansion_rule()
        current = g.mask_of({TradingCycle((1, 2))})
        assert apply_rule(rule, g, current) is None

    def test_picks_first_in_node_order(self):
        g = graph_of([(1, 2), (3, 4), (5, 6)], 6)
        rule = expansion_rule()
        out = apply_rule(rule, g, 0)
        assert out == g.mask_of({TradingCycle((1, 2))})


class TestAllForQ:
    def test_empty_set_has_no_candidates(self):
        g = graph_of([(1, 2)], 2)
        assert apply_rule(all_for_q_rule(1), g, 0) is None

    def test_one_for_two_swap(self):
        # one 3-cycle blocks two 2-cycles that together cover more agents
        v = TradingCycle((1, 2, 3))
        a, b, c = TradingCycle((1, 4)), TradingCycle((2, 5)), TradingCycle((3, 6))
        g = build_graph([v, a, b, c], 6, UNIFORM3)
        out = apply_rule(all_for_q_rule(1), g, g.mask_of({v}))
        assert out == g.mask_of({a, b, c})

    def test_loyalty_blocks_agent_dropping_swap(self):
        # two 2-cycles outweigh the 3-cycle but strand agent 3
        v = TradingCycle((1, 2, 3))
        a, b = TradingCycle((1, 4)), TradingCycle((2, 5))
        g = build_graph([v, a, b], 5, UNIFORM3)
        assert apply_rule(all_for_q_rule(1), g, g.mask_of({v})) is None
        broken = all_for_q_rule(1, require_loyalty=False)
        assert apply_rule(broken, g, g.mask_of({v})) == g.mask_of({a, b})

    def test_weight_must_strictly_increase(self):
        v = TradingCycle((1, 2))
        u = TradingCycle((2, 3))
        g = build_graph([v, u], 3, UNIFORM3)
        # swapping one 2-cycle for the other gains nothing
        assert apply_rule(all_for_q_rule(2), g, g.mask_of({v})) is None

    def test_gbad_stalls_both_rules(self):
        for q in (1, 2, 3):
            g = gen_gbad(q).graph()
            blue = g.mask_of(gbad_blue_set(q))
            assert apply_rule(expansion_rule(), g, blue) is None
            assert apply_rule(all_for_q_rule(q), g, blue) is None

    def test_eviction_budget_skips_a_heavier_swap_of_q_plus_1(self):
        # each pool node evicts at most q = 2 current nodes, and x alone only
        # breaks even; {x, y}, the first X in node order that outweighs what
        # it evicts, evicts all three, so the answer is the later swap to y
        lam = LengthFunction.of(3, "1", "3/10")
        c1, c2, c3 = TradingCycle((1, 2, 3)), TradingCycle((4, 5, 6)), TradingCycle((7, 8, 9))
        x, y = TradingCycle((1, 10, 11)), TradingCycle((4, 7))
        g = build_graph([c1, c2, c3, x, y], 11, lam, node_order=[x, y, c1, c2, c3])
        current = g.mask_of({c1, c2, c3})
        expect = g.mask_of({c1, y})
        swap = all_for_q_rule(2, require_loyalty=False)
        assert apply_rule(swap, g, current) == expect
        assert reference_all_for_q(g, {c1, c2, c3}, 2, False) == {c1, y}
        wider = all_for_q_rule(3, require_loyalty=False)
        assert apply_rule(wider, g, current) == g.mask_of({x, y})

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            all_for_q_rule(0)


# The references below read nothing from the graph's tables: adjacency is
# two cycles sharing an agent, a node's weight is length * lam(length), and
# a node's rank is its position in ``graph.nodes``.


def shares_agent(u, v):
    return not set(u.agents).isdisjoint(v.agents)


def agents_in(nodes):
    return frozenset(a for v in nodes for a in v.agents)


def weight_of(lam, nodes):
    return sum((v.length * lam(v.length) for v in nodes), Fraction(0))


def disjoint(nodes):
    """Whether no two of ``nodes`` share an agent."""
    agents = [a for v in nodes for a in v.agents]
    return len(agents) == len(set(agents))


def neighborhood(graph, nodes):
    """The alive nodes that share an agent with some other node of ``nodes``."""
    return frozenset(
        u for u in graph.nodes if any(u != v and shares_agent(u, v) for v in nodes)
    )


def independent_subsets(pool, max_size):
    """Every non-empty independent subset of ``pool`` with at most
    ``max_size`` nodes, each as a tuple in pool order."""

    def extend(chosen, start):
        for i in range(start, len(pool)):
            v = pool[i]
            if any(shares_agent(u, v) for u in chosen):
                continue
            combo = chosen + (v,)
            yield combo
            if len(combo) < max_size:
                yield from extend(combo, i + 1)

    return extend((), 0)


def reference_all_for_q(graph, current, q, require_loyalty=True):
    """Brute-force mirror of the all-for-q rule: scan every independent
    neighbor subset of at most q*k nodes and pick the canonical-first valid
    candidate."""
    if not current:
        return None
    current = frozenset(current)
    rank = {v: i for i, v in enumerate(graph.nodes)}
    pool = sorted(neighborhood(graph, current) - current, key=rank.__getitem__)
    cur_agents = agents_in(current)
    cur_weight = weight_of(graph.lam, current)
    best_key, best = None, None
    for combo in independent_subsets(pool, q * graph.k):
        evicted = frozenset(neighborhood(graph, combo) & current)
        if len(evicted) > q:
            continue
        candidate = (current - evicted) | frozenset(combo)
        if not disjoint(candidate):
            continue
        if weight_of(graph.lam, candidate) <= cur_weight:
            continue
        if require_loyalty:
            cand_agents = agents_in(candidate)
            if not (cur_agents < cand_agents):
                continue
        key = (
            tuple(sorted(rank[v] for v in combo)),
            tuple(sorted(rank[v] for v in evicted)),
        )
        if best_key is None or key < best_key:
            best_key, best = key, candidate
    return best


# arc densities giving 12 agents tens to a few hundred cycles
DENSITIES = {3: [0.3, 0.45, 0.6], 4: [0.2, 0.3, 0.4]}

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
        start = frozenset(g.nodes_of(run_local_search(g, [expansion_rule()]).final))
    else:
        start = frozenset()
        for v in data.draw(st.lists(st.sampled_from(g.nodes), max_size=6)):
            if disjoint(start | {v}):
                start |= {v}
    rule = all_for_q_rule(q, require_loyalty=loyal)
    out = apply_rule(rule, g, g.mask_of(start))
    out = None if out is None else frozenset(g.nodes_of(out))
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
    starts = [frozenset(g.nodes_of(run_local_search(g, [expansion_rule()]).final))]
    for _ in range(3):
        start = frozenset()
        for v in rng.sample(g.nodes, min(8, g.num_nodes)):
            if disjoint(start | {v}):
                start |= {v}
        starts.append(start)
    for start, q, loyal in itertools.product(starts, (1, 2, 3), (True, False)):
        out = apply_rule(all_for_q_rule(q, require_loyalty=loyal), g, g.mask_of(start))
        out = None if out is None else frozenset(g.nodes_of(out))
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
        assert g.nodes_of(trace.final) == (TradingCycle((1, 2)),)

    def test_rules_fire_in_priority_order(self):
        v = TradingCycle((1, 2, 3))
        a, b, c = TradingCycle((1, 4)), TradingCycle((2, 5)), TradingCycle((3, 6))
        g = build_graph([v, a, b, c], 6, UNIFORM3, node_order=[v, a, b, c])
        trace = run_local_search(g, [expansion_rule(), all_for_q_rule(1)])
        names = [s.rule_name for s in trace.steps]
        assert names[0] == "expand"  # grabs v first under the injected order
        assert "all-for-1" in names
        assert trace.final == g.mask_of({a, b, c})

    def test_requires_rules(self):
        with pytest.raises(ValueError):
            run_local_search(graph_of([], 2), [])

    def test_contract_violations_abort(self):
        g = graph_of([(1, 2), (2, 3)], 3)
        dependent = ImprovementRule(
            name="bad-dependent",
            loyal=False,
            _apply_fn=lambda graph, cur, around: graph.mask_of(graph.nodes),
        )
        with pytest.raises(RuleContractError):
            run_local_search(g, [dependent])
        lighter = ImprovementRule(
            name="bad-lighter",
            loyal=False,
            _apply_fn=lambda graph, cur, around: graph.mask_of([graph.nodes[0]]),
        )
        trace_rule_fires_then_stalls = ImprovementRule(
            name="stall",
            loyal=False,
            _apply_fn=lambda graph, cur, around: None,
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
            _apply_fn=lambda graph, cur, around: graph.mask_of({triple}) if cur else None,
        )
        seed = ImprovementRule(
            name="seed",
            loyal=False,
            _apply_fn=lambda graph, cur, around: None if cur else graph.mask_of({pair}),
        )
        with pytest.raises(RuleContractError, match="dropped an agent"):
            run_local_search(g, [disloyal, seed])

    def test_added_node_adjacent_to_a_kept_node_aborts(self):
        # the added node is independent of the other added nodes, so only a
        # check against the kept ones catches it
        g = graph_of([(1, 2), (2, 3)], 3)
        kept, clash = g.mask_of({TradingCycle((1, 2))}), g.mask_of({TradingCycle((2, 3))})
        grow = ImprovementRule(
            name="grow-into-neighbour",
            loyal=True,
            _apply_fn=lambda graph, cur, around: kept | clash if cur else kept,
        )
        with pytest.raises(RuleContractError, match="grow-into-neighbour returned a dependent set"):
            run_local_search(g, [grow])

    def test_added_dead_node_aborts(self):
        # the dead node shares no agent with the result: only its being
        # dead makes the result invalid
        g = graph_of([(1, 2), (3, 4)], 4)
        dead = g.mask_of({TradingCycle((3, 4))})
        view = g.remove_nodes(dead)
        revive = ImprovementRule(
            name="revive",
            loyal=True,
            _apply_fn=lambda graph, cur, around: cur | dead if cur else graph._alive,
        )
        with pytest.raises(RuleContractError, match="revive returned a dependent set"):
            run_local_search(view, [revive])

    def test_lighter_swap_aborts(self):
        # swapping a 3-cycle for a disjoint 2-cycle adds weight 2 and
        # removes weight 3: a driver that forgets the removed nodes sees 5
        triple, pair = TradingCycle((1, 2, 3)), TradingCycle((4, 5))
        g = graph_of([(1, 2, 3), (4, 5)], 5)
        heavy, light = g.mask_of({triple}), g.mask_of({pair})
        shrink = ImprovementRule(
            name="shrink",
            loyal=False,
            _apply_fn=lambda graph, cur, around: {0: heavy, heavy: light}.get(cur),
        )
        with pytest.raises(RuleContractError, match="shrink returned a non-improving set"):
            run_local_search(g, [shrink])

    def test_swap_that_drops_an_agent_frees_its_other_nodes(self):
        # the non-loyal swap trades (1, 2) for (2, 3, 4) and drops agent 1,
        # so (1, 5), a neighbour of the old set only, is free to add again
        e, y, x = TradingCycle((1, 2)), TradingCycle((1, 5)), TradingCycle((2, 3, 4))
        g = build_graph([e, x, y], 5, UNIFORM3, node_order=[e, x, y])
        trace = run_local_search(g, [expansion_rule(), all_for_q_rule(1, require_loyalty=False)])
        assert [(s.rule_index, set(g.nodes_of(s.result))) for s in trace.steps] == [
            (0, {e}),
            (1, {x}),
            (0, {x, y}),
        ]


def reference_run_local_search(graph, rules):
    """The driver with whole-set checks: every result is mapped to its
    cycles (bit i is node i of the build), tested for alive, pairwise
    disjoint cycles, and summed and mapped to its agents from scratch."""
    built = graph._tables.nodes
    alive = set(graph.nodes)
    current = 0
    current_weight = Fraction(0)
    current_agents = frozenset()
    steps = []
    while True:
        for idx, rule in enumerate(rules):
            result = apply_rule(rule, graph, current)
            if result is None:
                continue
            cycles = [built[i] for i in bits(result)]
            if not (alive.issuperset(cycles) and disjoint(cycles)):
                raise RuleContractError(f"rule {rule.name} returned a dependent set")
            new_weight = weight_of(graph.lam, cycles)
            if new_weight <= current_weight:
                raise RuleContractError(f"rule {rule.name} returned a non-improving set")
            new_agents = agents_in(cycles)
            if rule.loyal and not current_agents <= new_agents:
                raise RuleContractError(
                    f"rule {rule.name} is flagged loyal but dropped an agent"
                )
            current, current_weight, current_agents = result, new_weight, new_agents
            steps.append(TraceStep(idx, rule.name, current))
            break
        else:
            return LocalSearchTrace(steps=tuple(steps), final=current)


def drawn_graph(data, n, k, seed):
    """A gen_random graph with a drawn non-increasing length function and a
    drawn restriction (up to a third of its nodes removed)."""
    lam = LengthFunction.of(k, *data.draw(st.sampled_from(LAMBDAS[k])))
    p = data.draw(st.sampled_from(DENSITIES[k]))
    g = gen_random(n, k, p, seed, lam=lam).graph()
    hidden = data.draw(st.sets(st.integers(0, g.num_nodes), max_size=g.num_nodes // 3))
    return g.remove_nodes(sum(1 << i for i in hidden if i < g.num_nodes))


def catalog_rule_lists(g, q):
    """(graph, rules) for the searches the catalog runs: ls:q, the nu:q
    tail on what the greedy head leaves, and broken-swap."""
    yield g, [expansion_rule(), all_for_q_rule(q)]
    yield g, [expansion_rule(), all_for_q_rule(q, require_loyalty=False)]
    ell_star = lambda_profile(g.lam).ell_star
    if ell_star is not None:
        first = greedy_solver(hi=ell_star)(g)[0]
        rest = g.remove_nodes(first | g.neighborhood_mask(first))
        yield rest, [
            dataclasses.replace(rule, name=f"{rule.name}[>{ell_star}]")
            for rule in (expansion_rule(), all_for_q_rule(q))
        ]


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=5, max_value=12),
    st.sampled_from([3, 4]),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_driver_matches_whole_set_checks(n, k, seed, q, data):
    g = drawn_graph(data, n, k, seed)
    for graph, rules in catalog_rule_lists(g, q):
        assert run_local_search(graph, rules) == reference_run_local_search(graph, rules)


def noise_rule(seed, universe, loyal):
    """A rule that, on half of its calls, forces in a drawn node and evicts
    its neighbours, sometimes flipping one more drawn bit; the node is
    mostly a neighbour of the set, else any node of the whole build, dead
    ones included.  Its results mix valid, dependent, lighter and disloyal
    sets."""
    rng = random.Random(seed)

    def apply_fn(graph, cur, around):
        if rng.random() < 0.5:
            return None
        near = list(bits(around & ~cur))
        x = rng.choice(near) if near and rng.random() < 0.7 else rng.randrange(universe)
        result = (cur & ~graph._tables.adj[x]) | 1 << x
        if rng.random() < 0.2:
            result ^= 1 << rng.randrange(universe)
        return result

    return ImprovementRule(name="noise", loyal=loyal, _apply_fn=apply_fn)


def outcome(driver, graph, rules):
    try:
        return driver(graph, rules)
    except RuleContractError as err:
        return str(err)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=5, max_value=12),
    st.sampled_from([3, 4]),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
    st.data(),
)
def test_driver_matches_whole_set_checks_on_arbitrary_results(n, k, seed, q, loyal, data):
    # the same trace, or the same contract error, as the whole-set checks
    g = drawn_graph(data, n, k, seed)
    universe = len(g._tables.nodes)
    if universe == 0:
        return
    noise_seed = data.draw(st.integers(0, 2**32))
    outcomes = [
        outcome(
            driver,
            g,
            [noise_rule(noise_seed, universe, loyal), expansion_rule(), all_for_q_rule(q)],
        )
        for driver in (run_local_search, reference_run_local_search)
    ]
    assert outcomes[0] == outcomes[1]


def test_driver_work_grows_with_the_change_not_the_set(monkeypatch):
    # counts work, not time: the node bits handed to neighborhood_mask
    # during one ls:q=2 search are at most the nodes each step adds plus,
    # on a step that removes nodes, the size of its result; re-checking
    # the whole set after every step costs |result| on every step
    g = gen_random(250, 3, 0.03, 0).graph()
    passed = []
    original = CycleGraph.neighborhood_mask

    def counting(self, mask):
        passed.append(mask.bit_count())
        return original(self, mask)

    monkeypatch.setattr(CycleGraph, "neighborhood_mask", counting)
    trace = run_local_search(g, [expansion_rule(), all_for_q_rule(2)])
    monkeypatch.undo()
    bound = swaps = previous = 0
    for step in trace.steps:
        bound += (step.result & ~previous).bit_count()
        if previous & ~step.result:
            swaps += 1
            bound += step.result.bit_count()
        previous = step.result
    assert swaps > 0 and len(trace.steps) > 40
    assert sum(passed) <= bound


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=2))
def test_trace_weights_strictly_increase_and_rules_stay_loyal(seed, q):
    g = gen_random(7, 3, 0.45, seed).graph()
    trace = run_local_search(g, [expansion_rule(), all_for_q_rule(q)])
    last = Fraction(0)
    served = frozenset()
    for step in trace.steps:
        w = g.weight(step.result)
        assert w > last
        last = w
        now = agents_in(g.nodes_of(step.result))
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
    return out


class TestConcatenate:
    def test_empty_remainder_keeps_first_output(self):
        g = graph_of([(1, 2), (2, 3)], 3)
        first = greedy_phase(2).solver
        second = greedy_phase(2).solver
        assert concatenate(first, second)(g)[0] == first(g)[0]

    def test_union_semantics(self):
        g = graph_of([(1, 2), (3, 4, 5)], 5)
        combined = concatenate(greedy_phase(2).solver, greedy_phase(3).solver)
        assert combined(g)[0] == g.mask_of(g.nodes)

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
