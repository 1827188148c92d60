import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bxmech.core import Exchange, LengthFunction, TradingCycle, WishListVector, respects
from bxmech.cyclegraph import build_from_wishes, build_graph
from bxmech.exact import ExactSearchCapExceeded, max_weight_independent_set
from bxmech.instances import (
    comb_horizontal_cycle,
    gbad_blue_set,
    gen_comb,
    gen_fan,
    gen_gbad,
    gen_random,
)
from bxmech.localsearch import SearchStats, all_for_q_rule, expansion_rule
from bxmech.mechanisms import (
    Mechanism,
    broken_swap_algorithm,
    catalog,
    concatenate,
    greedy_mechanism,
    greedy_solver,
    io_mechanism,
    lambda_profile,
    local_search,
    ls_mechanism,
    nu_mechanism,
    opt_mechanism,
    parse_mechanism,
    randomized_mechanism,
)
from bxmech.verification import oracle_max_weight_is

UNIFORM3 = LengthFunction.uniform(3)
FLAT3 = LengthFunction.of(3, "1", "9/10")
STEEP3 = LengthFunction.of(3, "1", "1/2")


class TestLambdaProfile:
    def test_uniform_has_no_threshold(self):
        p = lambda_profile(UNIFORM3)
        assert p.ell_star is None
        assert p.rho is None
        assert p.rho_parts is None
        assert p.flat_tail is None
        assert p.tumbles == (3,)
        assert p.equal_classes[3] == (2, 3)

    def test_flat_tail_profile(self):
        p = lambda_profile(FLAT3)
        assert p.ell_star == 2
        assert p.tumbles == (2, 3)
        assert p.rho_parts == (Fraction(27, 10), Fraction(47, 20))
        assert p.rho == Fraction(27, 10)
        assert p.flat_tail is True

    def test_steep_profile(self):
        p = lambda_profile(STEEP3)
        assert p.rho_parts == (Fraction(3, 2), Fraction(7, 4))
        assert p.rho == Fraction(7, 4)
        assert p.flat_tail is False

    def test_k4_classes(self):
        lam = LengthFunction.of(4, "1", "9/10", "9/10")
        p = lambda_profile(lam)
        assert p.ell_star == 2
        assert p.tumbles == (2, 4)
        assert p.equal_classes[4] == (3, 4)

    def test_profile_is_shared_and_read_only(self):
        # the profile is memoised per length-function object; equal objects
        # give equal profiles
        lam = LengthFunction.of(4, "1", "9/10", "9/10")
        p = lambda_profile(lam)
        assert lambda_profile(lam) is p
        assert lambda_profile(LengthFunction.of(4, "1", "9/10", "9/10")) == p
        with pytest.raises(TypeError):
            p.equal_classes[4] = (4,)
        assert p.equal_classes[4] == (3, 4)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=3, max_value=6),
        st.data(),
    )
    def test_rho_below_k_and_predicate(self, k, data):
        grid = [Fraction(a, b) for b in (1, 2, 3, 4, 5, 7, 10) for a in range(1, b + 1)]
        values = sorted(
            data.draw(st.lists(st.sampled_from(grid), min_size=k - 1, max_size=k - 1)),
            reverse=True,
        )
        lam = LengthFunction(k=k, values=tuple(values))
        p = lambda_profile(lam)
        if lam.is_uniform:
            assert p.rho is None
            return
        assert p.rho < k
        assert p.rho == max(p.rho_parts)
        assert (p.rho > k - 1) == p.flat_tail
        assert p.flat_tail == (lam(k) / lam(p.ell_star) > Fraction(k - 1, k))


class TestGreedy:
    def test_prefers_short_cycle(self):
        g = build_graph(
            [TradingCycle((1, 2)), TradingCycle((1, 3, 4))], 4, UNIFORM3
        )
        assert g.set_of(greedy_mechanism().solve(g)) == {TradingCycle((1, 2))}

    def test_comb_outputs_horizontal(self):
        g = gen_comb(2, 3, 3, FLAT3).graph()
        assert g.set_of(greedy_mechanism().solve(g)) == {comb_horizontal_cycle(2)}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_ratio_at_most_k(self, seed):
        bundle = gen_random(8, 3, 0.5, seed)
        g = bundle.graph()
        mine = g.weight(g.nodes_of(greedy_mechanism().solve(g)))
        best = g.weight(oracle_max_weight_is(g))
        assert best <= 3 * mine or best == 0


class TestLs:
    def test_single_node(self):
        g = build_graph([TradingCycle((1, 2))], 2, UNIFORM3)
        assert g.set_of(ls_mechanism(1).solve(g)) == {TradingCycle((1, 2))}

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_gbad_stall_weight(self, q):
        g = gen_gbad(q).graph()
        out = g.set_of(ls_mechanism(q).solve(g))
        assert out == gbad_blue_set(q)
        assert g.weight(out) == 3 * (q + 1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_uniform_ratio_bound(self, seed):
        g = gen_random(8, 3, 0.5, seed).graph()
        mine = g.weight(g.nodes_of(ls_mechanism(2).solve(g)))
        best = g.weight(oracle_max_weight_is(g))
        assert best <= Fraction(5, 2) * mine or best == 0


class TestNu:
    def test_rejects_uniform(self):
        g = build_graph([TradingCycle((1, 2))], 2, UNIFORM3)
        with pytest.raises(ValueError):
            nu_mechanism(1).solve(g)

    def test_long_only_graph_matches_ls(self):
        cycles = [TradingCycle((1, 2, 3)), TradingCycle((3, 4, 5))]
        g = build_graph(cycles, 5, FLAT3)
        assert nu_mechanism(1).solve(g) == ls_mechanism(1).solve(g)

    def test_short_only_graph_matches_greedy(self):
        cycles = [TradingCycle((1, 2)), TradingCycle((3, 4))]
        g = build_graph(cycles, 4, FLAT3)
        assert nu_mechanism(1).solve(g) == greedy_mechanism().solve(g)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=4, max_value=9),
        st.sampled_from([3, 4]),
        st.data(),
    )
    def test_greedy_head_leaves_only_longer_cycles(self, seed, n, k, data):
        # nu's tail searches what its greedy head leaves without a length
        # filter: that remainder must hold no node of length <= threshold
        g = gen_random(n, k, 0.5, seed, lam=LengthFunction.uniform(k)).graph()
        order = data.draw(st.permutations(g.nodes))
        g = build_graph(g.nodes, n, g.lam, node_order=order)
        threshold = data.draw(st.integers(min_value=2, max_value=k))
        picked = greedy_solver(hi=threshold)(g)[0]
        rest = g.remove_nodes(picked | g.neighborhood_mask(picked))
        assert all(v.length > threshold for v in rest.nodes)

    def test_shared_solvers_follow_q_and_threshold(self):
        # nu builds its solver once per (q, ell_star): alternating both on
        # one mechanism per q gives each graph the outputs and firings of
        # the greedy head concatenated with the renamed tail rules
        lams = [LengthFunction.of(4, "1", "1/2", "1/2"), LengthFunction.of(4, "1", "9/10", "1/2")]
        assert [lambda_profile(lam).ell_star for lam in lams] == [2, 3]
        mechs = {q: nu_mechanism(q) for q in (1, 2)}
        for seed in range(6):
            for lam, q in itertools.product(lams, mechs):
                g = gen_random(9, 4, 0.3, seed, lam=lam).graph()
                ell_star = lambda_profile(lam).ell_star
                tail = local_search(
                    *(
                        dataclasses.replace(rule, name=f"{rule.name}[>{ell_star}]")
                        for rule in (expansion_rule(), all_for_q_rule(q))
                    )
                )
                mine, expected = SearchStats(), SearchStats()
                out = mechs[q].solve(g, mine)
                assert out == concatenate(greedy_solver(hi=ell_star), tail)(g, expected)[0]
                assert mine == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([FLAT3, STEEP3]))
    def test_ratio_bound(self, seed, lam):
        g = gen_random(8, 3, 0.5, seed, lam=lam).graph()
        bound = max(Fraction(2) + 1, lambda_profile(lam).rho)  # q = 1
        mine = g.weight(g.nodes_of(nu_mechanism(1).solve(g)))
        best = g.weight(oracle_max_weight_is(g))
        assert best <= bound * mine or best == 0


class TestOptAndIo:
    def test_empty_class_gives_empty(self):
        g = build_graph([TradingCycle((1, 2, 3))], 3, FLAT3)
        assert opt_mechanism(2).solve(g) == 0

    def test_clique_takes_lex_first_heaviest(self):
        nodes = [TradingCycle((1, 2)), TradingCycle((1, 3)), TradingCycle((2, 3))]
        g = build_graph(nodes, 3, UNIFORM3)
        assert g.set_of(opt_mechanism(2).solve(g)) == {TradingCycle((1, 2))}

    def test_fan_class_optimum_is_all_teeth(self):
        bundle = gen_fan(3)
        g = bundle.graph()
        teeth = frozenset(g.nodes[1:])
        assert g.set_of(opt_mechanism(3).solve(g)) == teeth

    def test_uniform_io_is_globally_optimal(self):
        g = gen_random(7, 3, 0.5, 99).graph()
        assert g.weight(g.nodes_of(io_mechanism().solve(g))) == g.weight(oracle_max_weight_is(g))

    def test_io_on_comb_picks_horizontal_first(self):
        g = gen_comb(2, 3, 3, STEEP3).graph()
        out = g.set_of(io_mechanism().solve(g))
        assert comb_horizontal_cycle(2) in out
        assert out == frozenset({comb_horizontal_cycle(2)})

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([FLAT3, STEEP3]))
    def test_io_ratio_bound(self, seed, lam):
        g = gen_random(7, 3, 0.5, seed, lam=lam).graph()
        mine = g.weight(g.nodes_of(io_mechanism().solve(g)))
        best = g.weight(oracle_max_weight_is(g))
        assert best <= lambda_profile(lam).rho * mine or best == 0


class TestIndividualRationality:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_outputs_respect_reported_wishes(self, seed):
        bundle = gen_random(8, 3, 0.5, seed, lam=FLAT3)
        g = bundle.graph()
        for mech in catalog(qs=(1,)):
            if mech.truthful_for == "uniform":
                continue
            # solve re-checks that its output is independent
            ex = Exchange(cycles=g.set_of(mech.solve(g)))
            assert respects(ex, bundle.wishes)


class TestRandomizedWrapper:
    def wishes(self):
        return WishListVector.from_dict(4, {1: {2}, 2: {1}, 3: {4}, 4: {3}})

    def graph(self):
        return build_from_wishes(self.wishes(), UNIFORM3)

    def solve(self, zeta, graph, seed):
        return graph.set_of(randomized_mechanism(greedy_mechanism(), zeta, seed).solve(graph))

    def test_deterministic_given_seed(self):
        g = self.graph()
        mech = randomized_mechanism(greedy_mechanism(), Fraction(1, 10), 7)
        outs = {g.set_of(mech.solve(g)) for _ in range(5)}
        outs.add(self.solve(Fraction(1, 10), g, 7))
        assert len(outs) == 1

    def test_base_branch_returns_mechanism_output(self):
        # seed 0 draws the base branch for zeta = 1/10
        assert len(self.solve(Fraction(1, 10), self.graph(), 0)) == 2

    def test_no_cycles_gives_identity_on_lottery_branch(self):
        g = build_from_wishes(WishListVector.from_dict(3, {1: {2}, 2: {3}}), UNIFORM3)
        hit_identity = False
        for seed in range(200):
            assert self.solve(Fraction(1, 2), g, seed) == frozenset()
            hit_identity = True
        assert hit_identity

    def test_rejects_bad_zeta(self):
        # checked when the mechanism is built, before any graph is seen
        for zeta in (Fraction(0), Fraction(1)):
            with pytest.raises(ValueError):
                randomized_mechanism(greedy_mechanism(), zeta, 0)

    def test_lottery_frequency_matches_zeta(self):
        # base branch always returns both 2-cycles; the lottery branch never does
        g = self.graph()
        zeta = Fraction(1, 10)
        draws = 10_000
        lottery = sum(
            1
            for seed in range(draws)
            if len(self.solve(zeta, g, seed)) <= 1
        )
        mean = draws * zeta
        sigma = (draws * zeta * (1 - zeta)) ** Fraction(1, 2)
        assert abs(lottery - mean) <= 3 * float(sigma)

    def test_expected_welfare_dominates_discounted_base(self):
        from bxmech.core import social_welfare

        w, g = self.wishes(), self.graph()
        zeta = Fraction(1, 4)
        base_welfare = Fraction(4)  # both 2-cycles
        draws = 4000
        total = sum(
            (
                social_welfare(
                    Exchange(cycles=self.solve(zeta, g, seed)),
                    w,
                    UNIFORM3,
                )
                for seed in range(draws)
            ),
            Fraction(0),
        )
        # exact expectation: (1-zeta)*4 + zeta*((2 + 0)/2) = 3.25, safely
        # above the guaranteed (1-zeta)*base = 3; allow sampling noise
        assert total / draws >= (1 - zeta) * base_welfare - Fraction(1, 10)


class TestSpecParsing:
    @pytest.mark.parametrize(
        "spec,name",
        [
            ("greedy", "greedy"),
            ("ls:q=2", "ls:q=2"),
            ("nu:q=1", "nu:q=1"),
            ("io", "io"),
            ("opt:l=2", "opt:l=2"),
        ],
    )
    def test_round_trip(self, spec, name):
        assert parse_mechanism(spec).name == name

    def test_randomized_spec(self):
        mech = parse_mechanism("rand:zeta=1/10:base=ls:q=2", seed=3)
        assert isinstance(mech, Mechanism)
        assert mech.name == "rand:zeta=1/10:base=ls:q=2"
        assert mech.params["zeta"] == Fraction(1, 10)
        assert mech.params["base"].name == "ls:q=2"
        assert mech.claimed_bound(UNIFORM3) is None
        g = gen_random(8, 3, 0.5, 1).graph()
        assert mech.solve(g) == randomized_mechanism(
            mech.params["base"], Fraction(1, 10), 3
        ).solve(g)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "greedy2",
            "ls:p=2",
            "ls:q=*",
            "rand:base=greedy",
            "rand:zeta=1/2",
            "rand:zeta=3/2:base=greedy",
            "rand:zeta=1/2:base=rand:zeta=1/2:base=greedy",
            "opt:l=x",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_mechanism(bad)

    def test_wildcard_names_what_it_needs(self):
        # the CLI's solve, fuzz and sweep resolve q=* from the instance; a
        # bare spec has none
        with pytest.raises(ValueError, match=r"^wildcard q=\* needs an instance that records q$"):
            parse_mechanism("ls:q=*")
        with pytest.raises(ValueError, match=r"^wildcard l=\*: only q=\* can be bound"):
            parse_mechanism("opt:l=*")

    @pytest.mark.parametrize("spec", ["io", "opt:l=3", "rand:zeta=1/2:base=io"])
    def test_node_cap_reaches_exact_solves(self, spec):
        g = gen_random(20, 3, 0.25, 5).graph()  # 20 agents: no subset DP; 35 nodes
        capped = parse_mechanism(spec, node_cap=34)
        with pytest.raises(ExactSearchCapExceeded, match="cap of 34 nodes"):
            capped.params.get("base", capped).solve(g)
        mech = parse_mechanism(spec, node_cap=35)
        assert mech.params.get("base", mech).solve(g)

    def test_claimed_bounds(self):
        assert parse_mechanism("greedy").claimed_bound(UNIFORM3) == 3
        assert parse_mechanism("ls:q=2").claimed_bound(UNIFORM3) == Fraction(5, 2)
        assert parse_mechanism("nu:q=2").claimed_bound(FLAT3) == Fraction(27, 10)
        assert parse_mechanism("nu:q=2").claimed_bound(UNIFORM3) is None  # nu refuses it
        assert parse_mechanism("io").claimed_bound(STEEP3) == Fraction(7, 4)
        assert parse_mechanism("io").claimed_bound(UNIFORM3) == 1


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(
        [
            (3, 0.5, ("1", "2/3")),
            (3, 0.6, ("5/6", "3/7")),
            (4, 0.35, ("1", "2/3", "3/7")),
            (4, 0.4, ("1", "5/6", "3/4")),
        ]
    ),
    st.integers(min_value=0, max_value=10_000),
    st.data(),
)
def test_restricted_graph_matches_rebuilt_graph(case, seed, data):
    # a restricted graph shares its parent's tables and ranks; it must answer
    # and solve exactly as a graph built afresh from its nodes in its order
    k, p, values = case
    lam = LengthFunction.of(k, *values)
    graph = gen_random(7, k, p, seed, lam=lam).graph()
    order = data.draw(st.permutations(graph.nodes))
    view = full = build_graph(graph.nodes, graph.n, lam, node_order=order)
    dropped_so_far: list[TradingCycle] = []
    mechanisms = [
        parse_mechanism(spec)
        for spec in ("greedy", "ls:q=1", "ls:q=2", "nu:q=1", "nu:q=2", "io")
    ] + [opt_mechanism(ell) for ell in range(2, k + 1)]
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        if not view.nodes:
            break
        dropped = data.draw(st.sets(st.sampled_from(view.nodes), max_size=6))
        parent, view = view, view.remove_nodes(view.mask_of(dropped))
        dropped_so_far.extend(dropped)
        rebuilt = build_graph(view.nodes, graph.n, lam, node_order=view.nodes)
        assert view.nodes == tuple(v for v in parent.nodes if v not in dropped)
        assert view.num_nodes == rebuilt.num_nodes
        for v in view.nodes:
            assert view.neighbors(v) == rebuilt.neighbors(v)
            assert view.weight([v]) == rebuilt.weight([v])
        for agent in range(1, graph.n + 1):
            assert view.nodes_of(view.agent_mask(agent)) == rebuilt.nodes_of(
                rebuilt.agent_mask(agent)
            )
        some = data.draw(st.sets(st.sampled_from(view.nodes))) if view.nodes else set()
        assert view.set_of(view.neighborhood_mask(view.mask_of(some))) == rebuilt.set_of(
            rebuilt.neighborhood_mask(rebuilt.mask_of(some))
        )
        assert view.weight(view.nodes) == rebuilt.weight(rebuilt.nodes)
        shuffled = data.draw(st.permutations(view.nodes))
        assert sorted(shuffled, key=view.rank) == list(view.nodes)
        for v in dropped_so_far:
            assert v not in view
            with pytest.raises(KeyError):
                view.rank(v)
            with pytest.raises(KeyError):
                view.remove_nodes(1 << full.rank(v))
        for m in mechanisms:
            assert view.set_of(m.solve(view)) == rebuilt.set_of(m.solve(rebuilt)), m.name
        assert oracle_max_weight_is(view) == oracle_max_weight_is(rebuilt)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [
            (3, 0.5, ("1", "2/3")),
            (3, 0.6, ("5/6", "3/7")),
            (4, 0.35, ("1", "2/3", "3/7")),
            (4, 0.4, ("1", "5/6", "3/4")),
        ]
    ),
    st.integers(min_value=0, max_value=10_000),
    st.data(),
)
def test_solve_returns_the_solvers_mask_on_every_restriction(case, seed, data):
    # solve's answer is the solver's own mask, on the build and on every
    # restriction of it, whether it runs or replays; the oracle's set is
    # the exact solve's mask as a set
    k, p, values = case
    lam = LengthFunction.of(k, *values)
    graph = gen_random(7, k, p, seed, lam=lam).graph()
    order = data.draw(st.permutations(graph.nodes))
    view = build_graph(graph.nodes, graph.n, lam, node_order=order)
    mechanisms = catalog() + [broken_swap_algorithm(1), broken_swap_algorithm(2)]
    mechanisms += [opt_mechanism(ell) for ell in range(2, k + 1)]
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        for m in mechanisms:
            mask = m.solver(view)[0]
            assert m.solve(view) == mask and m.solve(view) == mask, m.name
        assert oracle_max_weight_is(view) == view.set_of(max_weight_independent_set(view))
        if not view.nodes:
            break
        dropped = data.draw(st.sets(st.sampled_from(view.nodes), min_size=1, max_size=4))
        view = view.remove_nodes(view.mask_of(dropped))


def fixed(mask, footprint=None):
    """A mechanism whose hand-written solver answers ``mask`` on every graph,
    with the footprint ``footprint`` (the alive mask if None)."""
    return Mechanism(
        name="fixed",
        params={},
        truthful_for="none",
        solver=lambda graph, stats=None: (
            mask, graph._alive if footprint is None else footprint
        ),
    )


def triangle():
    """The graph of three agents who each wish for the other two."""
    return build_from_wishes(
        WishListVector.from_dict(3, {a: {1, 2, 3} - {a} for a in (1, 2, 3)}), UNIFORM3
    )


def test_dependent_answer_raises_every_time_and_is_never_stored():
    # an empty footprint would let a record answer every restriction
    g = triangle()
    dependent = g.mask_of([TradingCycle((1, 2)), TradingCycle((1, 3))])
    view = g.remove_nodes(g._alive & ~dependent)
    m = fixed(dependent, footprint=0)
    for graph in (g, g, view, view):
        with pytest.raises(RuntimeError, match="mechanism fixed produced a dependent set"):
            m.solve(graph)
        assert g._tables.recorded == {}


def test_stored_answer_raises_once_a_node_of_it_is_removed():
    two_pairs = WishListVector.from_dict(4, {1: {2}, 2: {1}, 3: {4}, 4: {3}})
    g = build_from_wishes(two_pairs, UNIFORM3)
    both = g._alive
    assert fixed(both).solve(g) == both
    for dropped in g.nodes:
        view = g.remove_nodes(g.mask_of([dropped]))
        with pytest.raises(RuntimeError, match="dependent set"):
            fixed(both).solve(view)
        assert fixed(view._alive).solve(view) == view._alive
    assert fixed(both).solve(g) == both


def test_replayed_answer_with_a_hidden_node_raises():
    # the solver claims an empty footprint, so its record on the whole graph
    # answers every restriction, hiding a node of the answer included; the
    # answer, tested independent when it was recorded, now holds a node
    # that is not alive
    two_pairs = WishListVector.from_dict(4, {1: {2}, 2: {1}, 3: {4}, 4: {3}})
    g = build_from_wishes(two_pairs, UNIFORM3)
    m = fixed(g._alive, footprint=0)
    assert m.solve(g) == g._alive
    record = g._tables.recorded[m.solver]
    for dropped in g.nodes:
        view = g.remove_nodes(g.mask_of([dropped]))
        with pytest.raises(RuntimeError, match="mechanism fixed produced a dependent set"):
            m.solve(view)
        assert g._tables.recorded[m.solver] is record
    assert m.solve(g) == g._alive


def test_oracle_rejects_a_dependent_answer(monkeypatch):
    g = triangle()
    dependent = g.mask_of([TradingCycle((1, 2)), TradingCycle((1, 3))])
    monkeypatch.setattr(
        "bxmech.verification.max_weight_independent_set", lambda graph, node_cap: dependent
    )
    with pytest.raises(RuntimeError, match="oracle produced a dependent set"):
        oracle_max_weight_is(g)
