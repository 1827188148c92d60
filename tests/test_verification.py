import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bxmech.core import LengthFunction, TradingCycle, WishListVector
from bxmech.cyclegraph import bits, build_from_wishes, build_graph
from bxmech.exact import ExactSearchCapExceeded, naive_max_weight_independent_set
from bxmech.instances import (
    comb_horizontal_cycle,
    double_comb_right_cycle,
    double_comb_script,
    gen_comb,
    gen_gbad,
    gen_ladder,
    gen_random,
)
from bxmech.mechanisms import (
    broken_swap_algorithm,
    greedy_mechanism,
    greedy_phase,
    io_mechanism,
    ls_mechanism,
    nu_mechanism,
    opt_mechanism,
)
from bxmech.verification import (
    EXHAUSTIVE_NODE_LIMIT,
    CappedBipartite,
    ManipulationFinding,
    check_bipartite_weight_bound,
    findings_to_json_lines,
    fuzz_truthfulness_nodes,
    fuzz_truthfulness_wishlists,
    graph_utility,
    measure_ratio,
    oracle_max_weight_is,
    random_capped_bipartite,
    _derive_seed,
    _node_subsets,
)
from bxmech.verification import test_inpa as inpa_check

UNIFORM3 = LengthFunction.uniform(3)
FLAT3 = LengthFunction.of(3, "1", "9/10")
STEEP3 = LengthFunction.of(3, "1", "1/2")


class TestOracle:
    def test_empty_graph(self):
        g = build_graph([], 2, UNIFORM3)
        assert oracle_max_weight_is(g) == frozenset()

    def test_gbad_optimum(self):
        g = gen_gbad(1).graph()
        assert g.weight(oracle_max_weight_is(g)) == 15

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.3, 0.6]))
    def test_agrees_with_naive_scan(self, seed, p):
        bundle = gen_random(6, 3, p, seed, lam=FLAT3)
        g = bundle.graph()
        if g.num_nodes > 16:
            return
        assert oracle_max_weight_is(g) == g.set_of(naive_max_weight_independent_set(g))

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_many_agent_route_agrees_with_naive(self, q):
        # 6q+9 agents forces the node-level search; cross-check it
        g = gen_gbad(q).graph()
        assert oracle_max_weight_is(g) == g.set_of(naive_max_weight_independent_set(g))

    def test_cap_error(self):
        wishes = gen_random(18, 3, 0.7, 5).wishes
        g = build_from_wishes(wishes, UNIFORM3)
        assert g.n > 16 and g.num_nodes > 10
        with pytest.raises(ExactSearchCapExceeded):
            oracle_max_weight_is(g, node_cap=10)


def test_graph_utility_reads_serving_node():
    g = gen_comb(2, 3, 3, FLAT3).graph()
    ch = g.mask_of([comb_horizontal_cycle(2)])
    assert graph_utility(g, ch, 1) == 1
    assert graph_utility(g, ch, 3) == 0
    # the agent's own node, not the answer's first one, gives her value
    pair, triangle = TradingCycle((1, 2)), TradingCycle((3, 4, 5))
    g = build_graph([pair, triangle], 6, FLAT3)
    both = g.mask_of([pair, triangle])
    assert [graph_utility(g, both, a) for a in range(1, 7)] == [1, 1] + [Fraction(9, 10)] * 3 + [0]
    assert graph_utility(g, 0, 1) == 0


def scanned_utility(graph, answer, agent):
    """An agent's utility from an answer mask, by a scan of its nodes: the
    references below read utilities this way, not through the library."""
    for v in graph.nodes_of(answer):
        if agent in v.agents:
            return graph.lam(v.length)
    return Fraction(0)


class TestMeasureRatio:
    def test_gbad_tightness_row(self):
        g = gen_gbad(1).graph()
        mech = ls_mechanism(1)
        report = measure_ratio(
            mech.solve(g),
            g,
            bound=Fraction(5, 2),
            instance="gbad-q1",
            mechanism=mech.name,
        )
        assert report.ratio == Fraction(5, 2)
        assert report.within_bound

    def test_greedy_on_comb(self):
        g = gen_comb(2, 3, 3, FLAT3).graph()
        report = measure_ratio(greedy_mechanism().solve(g), g, bound=None)
        assert report.mechanism_weight == 2
        assert report.oracle_weight == Fraction(27, 5)
        assert report.ratio == Fraction(27, 10)

    def test_single_cycle_ratio_one(self):
        g = build_graph([TradingCycle((1, 2))], 2, UNIFORM3)
        report = measure_ratio(greedy_mechanism().solve(g), g, bound=None)
        assert report.ratio == 1

    def test_empty_answer_against_a_positive_optimum_is_infinite(self):
        g = build_graph([TradingCycle((1, 2))], 2, UNIFORM3)
        report = measure_ratio(0, g, bound=Fraction(3))
        assert (report.mechanism_weight, report.oracle_weight) == (0, 2)
        assert report.ratio is None and report.ratio_str() == "inf"
        assert not report.within_bound


def test_finding_requires_strict_improvement():
    with pytest.raises(ValueError):
        ManipulationFinding(
            agent=1,
            kind="hide-nodes",
            strategy=(),
            honest_utility=Fraction(1),
            manipulated_utility=Fraction(1),
        )


class TestNodeFuzz:
    def test_broken_swap_caught_on_ladder(self):
        g = gen_ladder(3, 1).graph()
        broken = broken_swap_algorithm(1)
        findings = fuzz_truthfulness_nodes(lambda gg: broken.run(gg), g, seed=3)
        assert findings
        best = findings[0]
        assert best.agent == 1
        assert best.manipulated_utility == 1
        lines = findings_to_json_lines(findings)
        assert lines.count("\n") == len(findings)

    def test_single_node_graph_is_clean(self):
        g = build_graph([TradingCycle((1, 2))], 2, UNIFORM3)
        mech = ls_mechanism(1)
        assert fuzz_truthfulness_nodes(lambda gg: mech.solve(gg), g) == []

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_loyal_search_clean_on_uniform(self, seed):
        g = gen_random(7, 3, 0.5, seed).graph()
        mech = ls_mechanism(1)
        assert fuzz_truthfulness_nodes(lambda gg: mech.solve(gg), g, budget=16, seed=1) == []


def deposit_subsets(own, budget, rng, exhaustive_limit):
    """The strategy enumeration the submask walk replaces: deposit every
    pick 1..2^m-1 (or a seeded sample of picks) into the bits of ``own``."""
    node_bits = [1 << i for i in bits(own)]
    m = len(node_bits)
    if m <= exhaustive_limit:
        picks = range(1, 1 << m)
    else:
        sample = {}
        attempts = 0
        while len(sample) < budget and attempts < budget * 4:
            attempts += 1
            sample[rng.randrange(1, 1 << m)] = None
        picks = sample
    return [sum(node_bits[i] for i in bits(pick)) for pick in picks]


def test_submask_walk_is_the_deposit_sequence():
    # every mask of up to 12 bits, and wider masks spread over 40 positions
    for own in range(1 << EXHAUSTIVE_NODE_LIMIT):
        walked = list(_node_subsets(own, 64, random.Random(0)))
        assert walked == deposit_subsets(own, 64, random.Random(0), EXHAUSTIVE_NODE_LIMIT)
    for seed in range(200):
        rng = random.Random(seed)
        own = sum(1 << i for i in rng.sample(range(40), rng.randint(1, 16)))
        assert list(_node_subsets(own, 32, random.Random(seed))) == deposit_subsets(
            own, 32, random.Random(seed), EXHAUSTIVE_NODE_LIMIT
        )


def reference_node_fuzz(solver, graph, budget, seed):
    """fuzz_truthfulness_nodes as it compared Fraction utilities."""
    base = solver(graph)
    findings = []
    for agent in range(1, graph.n + 1):
        own = graph.agent_mask(agent)
        if not own:
            continue
        honest = scanned_utility(graph, base, agent)
        if honest >= max(graph.lam(v.length) for v in graph.nodes_of(own)):
            continue
        rng = random.Random(_derive_seed(seed, agent, 1))
        for subset in deposit_subsets(own, budget, rng, EXHAUSTIVE_NODE_LIMIT):
            reduced = graph.remove_nodes(subset)
            manipulated = scanned_utility(reduced, solver(reduced), agent)
            if manipulated > honest:
                findings.append(
                    ManipulationFinding(
                        agent, "hide-nodes", graph.nodes_of(subset), honest, manipulated
                    )
                )
    return findings


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([("1", "1/2"), ("1", "9/10"), ("5/6", "3/7"), ("1", "2/3", "3/7")]),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=3),
)
def test_int_utilities_find_what_fraction_utilities_find(values, seed, fuzz_seed):
    # the fuzzer compares scaled int utilities and builds Fractions only for
    # a finding; ls cheats under non-uniform lambda, so the lists are not
    # empty in general
    lam = LengthFunction.of(len(values) + 1, *values)
    g = gen_random(6, lam.k, 0.5, seed, lam=lam).graph()
    for mech in (ls_mechanism(1), greedy_mechanism()):
        mine = fuzz_truthfulness_nodes(mech.solve, g, budget=8, seed=fuzz_seed)
        expect = reference_node_fuzz(mech.solve, g, 8, fuzz_seed)
        assert mine == expect
        assert findings_to_json_lines(mine) == findings_to_json_lines(expect)


def test_warm_solves_and_a_truthful_fuzz_do_no_fraction_work(monkeypatch):
    # on a warm graph (its profile, memo and shared solvers already made), the
    # exact class solves, nu and the node fuzzer run on ints only
    bundle = gen_random(7, 3, 0.4, 0 * 7919 + 3 * 13 + 4, lam=FLAT3)  # a corpus entry
    g = bundle.graph()
    mechs = [io_mechanism(), nu_mechanism(1), opt_mechanism(2)]

    def work():
        out = [m.solve(g) for m in mechs]
        return out, fuzz_truthfulness_nodes(nu_mechanism(1).solve, g, seed=5)

    warm = work()
    assert warm[1] == [] and any(warm[0])
    calls = {}
    for name in ("__hash__", "__eq__", "_richcmp"):
        original = getattr(Fraction, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(Fraction, name, counted)
    assert Fraction(1, 2) == Fraction(2, 4) and calls == {"__eq__": 1}
    calls.clear()
    assert work() == warm
    assert calls == {}


class TestWishlistFuzz:
    def test_comb_clean_for_catalog(self):
        bundle = gen_comb(2, 3, 3, FLAT3)
        for mech in (greedy_mechanism(), nu_mechanism(1), io_mechanism()):
            findings = fuzz_truthfulness_wishlists(
                lambda gg: mech.solve(gg), bundle.wishes, FLAT3, seed=2
            )
            assert findings == []

    def test_empty_wish_lists_offer_no_strategies(self):
        wishes = gen_random(4, 3, 0.0, 0).wishes
        mech = greedy_mechanism()
        assert (
            fuzz_truthfulness_wishlists(lambda gg: mech.solve(gg), wishes, UNIFORM3)
            == []
        )

    def test_attacks_under_the_instance_node_order(self):
        # the ladder injects a node order that differs from the default one;
        # the rebuilt truthful graph must carry it, as bundle.graph() does
        bundle = gen_ladder(3, 1)
        assert build_from_wishes(bundle.wishes, bundle.lam).nodes != bundle.graph().nodes
        seen = []

        def solver(graph):
            seen.append(graph.nodes)
            return 0

        fuzz_truthfulness_wishlists(solver, bundle.wishes, bundle.lam, graph=bundle.graph())
        assert seen[0] == bundle.graph().nodes

    def test_refuses_a_graph_of_other_wish_lists(self):
        bundle = gen_comb(2, 3, 3, FLAT3)
        graph = bundle.graph()
        solve = greedy_mechanism().solve
        other_lam = build_from_wishes(bundle.wishes, STEEP3)
        more_agents = build_graph(graph.nodes, graph.n + 1, FLAT3)
        restriction = graph.remove_nodes(graph._alive & -graph._alive)
        for bad in (other_lam, more_agents, restriction):
            with pytest.raises(ValueError):
                fuzz_truthfulness_wishlists(solve, bundle.wishes, FLAT3, graph=bad)
        assert fuzz_truthfulness_wishlists(solve, bundle.wishes, FLAT3, graph=graph) == []

    def test_double_comb_replay_consistency(self):
        lam = FLAT3
        h, v = 2, 3
        script = double_comb_script(h, v)
        c_r = double_comb_right_cycle(h)
        for mech in (greedy_mechanism(), nu_mechanism(1), io_mechanism()):
            prev = None
            for i, wishes in enumerate(script):
                g = build_from_wishes(wishes, lam)
                out = mech.solve(g)
                assert c_r not in g.set_of(out)
                if i >= 1:
                    deviator = h + i
                    assert graph_utility(g, out, deviator) <= graph_utility(
                        prev[0], prev[1], deviator
                    )
                prev = (g, out)


def reference_wishlist_fuzz(solver, true_wishes, lam, budget, seed, exhaustive_limit, node_order):
    """fuzz_truthfulness_wishlists as it built a frozenset of the reported
    wishes for every strategy and scanned the agent's arcs against it.  An
    agent on no cycle is skipped, as the node fuzzer skips her: every report
    of hers hides nothing."""
    graph = build_from_wishes(true_wishes, lam, node_order)
    base = solver(graph)
    findings = []
    for agent in range(1, true_wishes.n + 1):
        own = graph.agent_mask(agent)
        if not own:
            continue
        honest = scanned_utility(graph, base, agent)
        if honest >= max(lam(v.length) for v in graph.nodes_of(own)):
            continue
        full = sorted(true_wishes.of(agent))
        arcs = [(1 << i, v.successor(agent)) for i, v in zip(bits(own), graph.nodes_of(own))]
        rng = random.Random(_derive_seed(seed, agent, 2))
        m = len(full)
        if m <= exhaustive_limit:
            masks = range((1 << m) - 1)
        else:
            masks = sorted({rng.randrange(0, (1 << m) - 1) for _ in range(budget)})
        tried = {}
        for mask in masks:
            reported = frozenset(full[i] for i in range(m) if mask & (1 << i))
            removed = sum(bit for bit, nxt in arcs if nxt not in reported)
            if removed not in tried:
                tried[removed] = scanned_utility(
                    graph, solver(graph.remove_nodes(removed)), agent
                )
            if tried[removed] > honest:
                findings.append(
                    ManipulationFinding(
                        agent, "wishlist-subset", tuple(sorted(reported)), honest, tried[removed]
                    )
                )
    return findings


def parity_greedy(graph):
    """Greedy over the nodes in node order, or in reverse when their number
    is odd: hiding one node flips the order, so most draws give findings."""
    adj = graph._tables.adj
    picks = blocked = 0
    order = list(bits(graph._alive))
    for i in reversed(order) if len(order) % 2 else order:
        if not blocked >> i & 1:
            picks |= 1 << i
            blocked |= adj[i]
    return picks


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kill_masks_match_the_reported_set_scan(data):
    # the fuzzer ORs one precomputed mask per concealed wish; the reference
    # rebuilds the reported set and rescans the arcs for every strategy
    k = data.draw(st.sampled_from([3, 4]))
    lam = data.draw(
        st.sampled_from([LengthFunction.uniform(k), LengthFunction.of(k, "1", *["1/2"] * (k - 2))])
    )
    n = data.draw(st.integers(5, 8))
    p = data.draw(st.sampled_from([0.5, 0.65]))
    wishes = gen_random(n, k, p, data.draw(st.integers(0, 10_000)), lam=lam).wishes
    order = None
    if data.draw(st.booleans()):
        order = list(build_from_wishes(wishes, lam).nodes)
        random.Random(data.draw(st.integers(0, 100))).shuffle(order)
    solve = data.draw(
        st.sampled_from(
            [
                ls_mechanism(1).solve,
                broken_swap_algorithm(1).solve,
                greedy_mechanism().solve,
                parity_greedy,
            ]
        )
    )
    # a small limit sends agents with more wishes to the sampled branch
    limit = data.draw(st.sampled_from([EXHAUSTIVE_NODE_LIMIT, 0, 2]))
    budget = data.draw(st.integers(1, 6))
    seed = data.draw(st.integers(0, 3))
    calls = {"fuzzer": [], "reference": []}

    def recording(log):
        def recorded(graph):
            log.append(graph._alive)
            return solve(graph)

        return recorded

    graph = None if order is None else build_from_wishes(wishes, lam, order)
    mine = fuzz_truthfulness_wishlists(
        recording(calls["fuzzer"]), wishes, lam, budget, seed, limit, graph
    )
    expect = reference_wishlist_fuzz(
        recording(calls["reference"]), wishes, lam, budget, seed, limit, order
    )
    assert mine == expect
    assert calls["fuzzer"] == calls["reference"]


def test_wishlist_fuzz_skips_an_agent_on_no_cycle():
    # agents 1 and 2 trade on the one cycle and are at their best; agent 3
    # wishes for 1 but is on no cycle, so no report of hers can hide a node:
    # the honest solve is the only solver call
    wishes = WishListVector.from_dict(3, {1: [2], 2: [1], 3: [1]})
    seen = []

    def solver(graph):
        seen.append(graph._alive)
        return greedy_mechanism().solve(graph)

    assert fuzz_truthfulness_wishlists(solver, wishes, UNIFORM3) == []
    assert len(seen) == 1


class TestInpa:
    def test_empty_graph(self):
        g = build_graph([], 2, UNIFORM3)
        mech = greedy_mechanism()
        assert inpa_check(lambda gg: mech.solve(gg), g)

    def test_broken_swap_violates_on_ladder(self):
        g = gen_ladder(3, 1).graph()
        broken = broken_swap_algorithm(1)
        assert not inpa_check(lambda gg: broken.run(gg), g, seed=3)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_catalog_algorithms_stable(self, seed):
        bundle = gen_random(7, 3, 0.5, seed, lam=FLAT3)
        g = bundle.graph()
        solvers = [
            greedy_phase(2).run,
            greedy_phase(3).run,
            lambda gg, _=None: ls_mechanism(1).solve(gg),
            lambda gg, _=None: opt_mechanism(2).solve(gg),
            lambda gg, _=None: nu_mechanism(1).solve(gg),
        ]
        for solver in solvers:
            assert inpa_check(lambda gg: solver(gg), g, budget=8, seed=5)


class TestBipartiteProperty:
    def test_generator_respects_constraints(self):
        rng = random.Random(11)
        for _ in range(300):
            inst = random_capped_bipartite(rng, k=4)
            degs = inst.left_degrees()
            assert all(d >= 1 for d in degs)
            assert all(
                d <= w for d, w in zip(degs, inst.left_weights)
            )
            # connectivity: every node reachable from left 0
            adj: dict = {}
            for a, b in inst.edges:
                adj.setdefault(("L", a), set()).add(("R", b))
                adj.setdefault(("R", b), set()).add(("L", a))
            seen = {("L", 0)}
            queue = [("L", 0)]
            while queue:
                cur = queue.pop()
                for nxt in adj.get(cur, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            total = len(inst.left_weights) + len(inst.right_weights)
            assert len(seen) == total

    def test_bound_holds_on_sample(self):
        rng = random.Random(23)
        for _ in range(2000):
            inst = random_capped_bipartite(rng, k=rng.choice([3, 4, 5]))
            assert check_bipartite_weight_bound(inst)

    def test_bound_check_rejects_fabricated_violation(self):
        bad = CappedBipartite(
            k=3, left_weights=(2,), right_weights=(3, 3, 3), edges=((0, 0), (0, 1))
        )
        assert not check_bipartite_weight_bound(bad)


def test_ls_output_not_agent_maximal_on_gbad():
    # the stalled set leaves more than (k-1) times its weight on the table
    for q in (1, 2):
        g = gen_gbad(q).graph()
        mech = ls_mechanism(q)
        report = measure_ratio(mech.solve(g), g, bound=None)
        assert report.ratio > 2
