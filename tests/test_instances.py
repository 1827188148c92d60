import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bxmech.core import LengthFunction, TradingCycle, parse_rational
from bxmech.cyclegraph import build_from_wishes
from bxmech.instances import (
    bundle_from_json_dict,
    bundle_to_json_dict,
    bundle_to_text,
    comb_horizontal_cycle,
    comb_script,
    double_comb_right_cycle,
    double_comb_script,
    gbad_blue_set,
    gbad_red_set,
    gen_comb,
    gen_double_comb,
    gen_fan,
    gen_gbad,
    gen_ladder,
    gen_nonrealizable,
    gen_random,
    implied_wishes,
    is_wishlist_realizable,
    load_instance,
    save_instance,
)
from bxmech.exact import ExactSearchCapExceeded
from bxmech.localsearch import SearchStats
from bxmech.mechanisms import catalog, ls_mechanism
from bxmech.verification import oracle_max_weight_is

GOLDEN = Path(__file__).parent / "golden"

FLAT3 = LengthFunction.of(3, "1", "9/10")
STEEP3 = LengthFunction.of(3, "1", "1/2")


def expected_value(bundle, key):
    return parse_rational(bundle.expected[key]["value"])


class TestComb:
    def test_shape(self):
        bundle = gen_comb(2, 3, 3, FLAT3)
        assert bundle.n == 6
        g = bundle.graph()
        assert g.num_nodes == 3
        lengths = sorted(v.length for v in g.nodes)
        assert lengths == [2, 3, 3]

    def test_expected_welfares_verified(self):
        bundle = gen_comb(2, 3, 3, FLAT3)
        g = bundle.graph()
        ch = comb_horizontal_cycle(2)
        assert g.weight([ch]) == expected_value(bundle, "horizontal_welfare") == 2
        verticals = [v for v in g.nodes if v.length == 3]
        assert g.weight(verticals) == expected_value(bundle, "all_vertical_welfare")
        assert g.weight(oracle_max_weight_is(g)) == Fraction(27, 5)

    def test_script_prunes_vertical_cycles(self):
        from bxmech.cyclegraph import enumerate_cycles

        script = comb_script(3, 4)
        for i, wishes in enumerate(script):
            cycles = enumerate_cycles(wishes, 4)
            # horizontal survives; only the h-i rightmost verticals remain
            assert comb_horizontal_cycle(3) in cycles
            assert len(cycles) == 1 + (3 - i)

    @pytest.mark.parametrize(
        "h,v,k", [(2, 2, 3), (3, 2, 3), (2, 4, 3), (0, 3, 3)]
    )
    def test_rejects_bad_shape(self, h, v, k):
        with pytest.raises(ValueError):
            gen_comb(h, v, k, LengthFunction.of(k, *(["1"] + ["1/2"] * (k - 2))))

    def test_rejects_flat_lambda(self):
        with pytest.raises(ValueError):
            gen_comb(2, 3, 3, LengthFunction.uniform(3))


class TestDoubleComb:
    def test_shape(self):
        bundle = gen_double_comb(2, 3, 3, FLAT3)
        assert bundle.n == 9
        g = bundle.graph()
        assert g.num_nodes == 5  # 2 horizontal + 3 vertical

    def test_horizontal_cycles_share_one_agent(self):
        c_l, c_r = comb_horizontal_cycle(3), double_comb_right_cycle(3)
        assert set(c_l.agents) & set(c_r.agents) == {3}

    def test_benchmark_exchanges_verified(self):
        bundle = gen_double_comb(2, 3, 3, FLAT3)
        g = bundle.graph()
        verticals = [v for v in g.nodes if v.length == 3]
        assert g.weight(verticals) == expected_value(bundle, "all_vertical_welfare")
        # mixed benchmark: right horizontal + the leftmost verticals
        c_r = double_comb_right_cycle(2)
        left_verticals = [v for v in verticals if 1 in set(v.agents)]
        mixed = left_verticals + [c_r]
        assert g.is_independent(mixed)
        assert g.weight(mixed) == expected_value(bundle, "mixed_welfare")

    def test_script_conceals_right_verticals(self):
        from bxmech.cyclegraph import enumerate_cycles

        script = double_comb_script(2, 3)
        assert len(script) == 2
        full = enumerate_cycles(script[0], 3)
        pruned = enumerate_cycles(script[1], 3)
        assert len(full) == 5
        assert len(pruned) == 4
        assert double_comb_right_cycle(2) in pruned


class TestGbad:
    def test_counts_and_weights(self):
        bundle = gen_gbad(1)
        assert bundle.n == 15
        g = bundle.graph()
        assert g.num_nodes == 7
        blue, red = gbad_blue_set(1), gbad_red_set(1)
        assert g.is_independent(blue)
        assert g.is_independent(red)
        assert g.weight(blue) == 6
        assert g.weight(red) == 15

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_search_stalls_on_blue(self, q):
        bundle = gen_gbad(q)
        g = bundle.graph()
        out = g.set_of(ls_mechanism(q).solve(g))
        assert out == gbad_blue_set(q)
        assert g.weight(out) == expected_value(bundle, "stalled_weight")
        best = oracle_max_weight_is(g)
        assert g.weight(best) == expected_value(bundle, "optimum_weight")
        assert g.weight(best) / g.weight(out) == expected_value(bundle, "ls_ratio")

    def test_reds_partition_agents(self):
        bundle = gen_gbad(2)
        red_agents = [a for c in gbad_red_set(2) for a in c.agents]
        assert sorted(red_agents) == list(range(1, bundle.n + 1))

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            gen_gbad(0)


class TestFan:
    def test_shape(self):
        bundle = gen_fan(3)
        assert bundle.n == 7
        g = bundle.graph()
        assert g.num_nodes == 3
        assert all(v.length == 3 for v in g.nodes)
        assert g.nodes[0] == TradingCycle((1, 2, 3))  # pin first in the order

    def test_optimum_is_the_teeth(self):
        for k in (3, 4):
            bundle = gen_fan(k)
            g = bundle.graph()
            best = oracle_max_weight_is(g)
            assert best == frozenset(g.nodes[1:])
            assert g.weight(best) == expected_value(bundle, "optimum_weight")

    def test_lambda_oblivious(self):
        # only length-k nodes: any admissible length function gives the same graph
        lam = LengthFunction.of(3, "1", "1/3")
        assert {v.length for v in gen_fan(3, lam).graph().nodes} == {3}


class TestLadder:
    def test_agent_count_formula(self):
        assert gen_ladder(3, 2).n == 26
        assert gen_ladder(3, 1).n == 18
        assert gen_ladder(4, 1).n == (4 - 1) * (4 + 1 + 2 * 3) + 2

    def test_cycle_inventory(self):
        bundle = gen_ladder(3, 2)
        g = bundle.graph()
        assert g.num_nodes == 3 + 2 + 2 * 2 * 2
        assert all(v.length == 3 for v in g.nodes)
        assert list(g.nodes) == list(bundle.node_order)

    def test_optimum_after_hiding_pin(self):
        bundle = gen_ladder(3, 1)
        g = bundle.graph()
        pin = g.nodes[0]
        reduced = g.remove_nodes(g.mask_of([pin]))
        best = oracle_max_weight_is(reduced)
        # teeth + left anchor + the B-blocks
        teeth = set(g.nodes[1:3])
        b_cycle = g.nodes[3]
        b_blocks = set(g.nodes[6:8])
        assert best == frozenset(teeth | {b_cycle} | b_blocks)


class TestNonrealizable:
    def test_structure(self):
        bundle = gen_nonrealizable()
        g = bundle.graph()
        assert g.num_nodes == 4
        v4 = TradingCycle((4, 5, 6))
        assert g.neighbors(v4) == frozenset()
        others = [v for v in g.nodes if v != v4]
        for i, u in enumerate(others):
            for w in others[i + 1 :]:
                assert w in g.neighbors(u)

    def test_checker_rejects_it(self):
        bundle = gen_nonrealizable()
        assert not is_wishlist_realizable(bundle.direct_nodes, bundle.n, 3)
        # the implied arcs force the triangle (1,2,3)
        from bxmech.cyclegraph import enumerate_cycles

        forced = enumerate_cycles(implied_wishes(bundle.direct_nodes, 6), 3)
        assert TradingCycle((1, 2, 3)) in forced

    def test_checker_accepts_wish_generated_graphs(self):
        for seed in range(8):
            bundle = gen_random(7, 3, 0.5, seed)
            g = bundle.graph()
            assert is_wishlist_realizable(tuple(g.nodes), bundle.n, 3)


class TestRandom:
    def test_zero_density_has_no_cycles(self):
        assert gen_random(5, 3, 0.0, 1).graph().num_nodes == 0

    def test_full_density_complete(self):
        assert gen_random(4, 3, 1.0, 1).graph().num_nodes == 14

    def test_seed_determinism(self):
        a = bundle_to_text(gen_random(8, 3, 0.4, 7))
        b = bundle_to_text(gen_random(8, 3, 0.4, 7))
        assert a == b
        c = bundle_to_text(gen_random(8, 3, 0.4, 8))
        assert a != c

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gen_random(1, 3, 0.5, 0)
        with pytest.raises(ValueError):
            gen_random(4, 3, 1.5, 0)


DECREASING = {
    3: [STEEP3, FLAT3],
    4: [LengthFunction.of(4, "1", "2/3", "3/7"), LengthFunction.of(4, "1", "5/6", "3/4")],
}


@st.composite
def bundles(draw):
    """A small instance from any generator family."""
    family = draw(
        st.sampled_from(["comb", "dcomb", "gbad", "fan", "ladder", "nonrealizable", "rand"])
    )
    k = draw(st.sampled_from([3, 4]))
    lam = draw(st.sampled_from([LengthFunction.uniform(k), *DECREASING[k]]))
    if family in ("comb", "dcomb"):
        h, v = draw(st.sampled_from([(h, v) for v in range(3, k + 1) for h in range(2, v)]))
        maker = gen_comb if family == "comb" else gen_double_comb
        return maker(h, v, k, draw(st.sampled_from(DECREASING[k])))
    if family == "gbad":
        return gen_gbad(draw(st.integers(1, 2)))
    if family == "fan":
        return gen_fan(k, lam)
    if family == "ladder":
        return gen_ladder(k, draw(st.integers(1, 2)), lam)
    if family == "nonrealizable":
        return gen_nonrealizable()
    n = draw(st.integers(2, 8))
    p = draw(st.sampled_from([0.2, 0.35, 0.5]))
    return gen_random(n, k, p, draw(st.integers(0, 10_000)), lam=lam)


def outcome(mech, graph):
    """A mechanism's output and firings on a graph, or the error it raises."""
    stats = SearchStats()
    try:
        return mech.solve(graph, stats), stats
    except (ValueError, ExactSearchCapExceeded) as exc:
        return type(exc), str(exc)


class TestSerialization:
    @pytest.mark.parametrize(
        "bundle",
        [
            gen_gbad(1),
            gen_comb(2, 3, 3, FLAT3),
            gen_fan(3),
            gen_ladder(3, 1),
            gen_nonrealizable(),
            gen_random(6, 3, 0.5, 3, lam=STEEP3),
        ],
        ids=lambda b: b.name,
    )
    def test_round_trip(self, bundle, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(bundle, path)
        loaded = load_instance(path)
        assert loaded == bundle
        assert bundle_to_text(loaded) == bundle_to_text(bundle)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_round_trip_keeps_graph_and_catalog_outputs(self, tmp_path_factory, data):
        bundle = data.draw(bundles())
        if data.draw(st.booleans()):
            # an injected node order must survive the file too
            order = data.draw(st.permutations(bundle.graph().nodes))
            bundle = dataclasses.replace(bundle, node_order=tuple(order))
        path = tmp_path_factory.mktemp("bx") / "inst.json"
        save_instance(bundle, path)
        loaded = load_instance(path)
        assert loaded == bundle
        graph, again = bundle.graph(), loaded.graph()
        assert again.nodes == graph.nodes
        assert [again.weight([v]) for v in again.nodes] == [
            graph.weight([v]) for v in graph.nodes
        ]
        assert again == graph
        for mech in catalog():
            assert outcome(mech, again) == outcome(mech, graph)

    @pytest.mark.parametrize("bundle", [gen_fan(4), gen_ladder(3, 1)], ids=lambda b: b.name)
    def test_loaded_wishlist_graph_is_built_from_the_wishes(self, bundle, tmp_path):
        # a wish-list instance's graph has one builder, build_from_wishes,
        # under the node order the file records
        order = list(bundle.node_order)
        random.Random(7).shuffle(order)
        path = tmp_path / "inst.json"
        save_instance(dataclasses.replace(bundle, node_order=tuple(order)), path)
        loaded = load_instance(path)
        assert loaded.node_order == tuple(order) != bundle.node_order
        graph = loaded.graph()
        assert graph == build_from_wishes(loaded.wishes, loaded.lam, loaded.node_order)
        assert graph.nodes == tuple(order)

    def test_golden_bytes(self):
        for bundle, name in [
            (gen_gbad(1), "gbad-q1.json"),
            (gen_comb(2, 3, 3, FLAT3), "comb-h2-v3.json"),
            (
                gen_double_comb(3, 4, 4, LengthFunction.of(4, "1", "1", "3/4")),
                "dcomb-h3-v4.json",
            ),
            (gen_fan(4), "fan-k4.json"),
            (gen_ladder(3, 1), "ladder-k3-N1.json"),
        ]:
            assert bundle_to_text(bundle) == (GOLDEN / name).read_text()
        # each deviation script step rewrites one black agent's wish list
        for script, name, deviations in [
            (comb_script(2, 3), "comb-h2-v3.json", [{1: [2]}, {2: [1]}]),
            (double_comb_script(3, 4), "dcomb-h3-v4.json", [{4: [5]}, {5: [3]}]),
        ]:
            rows = json.loads((GOLDEN / name).read_text())["wishes"]
            assert len(script) == len(deviations) + 1
            for step, deviation in zip(script, [{}] + deviations):
                for agent, wish in deviation.items():
                    rows[agent - 1] = wish
                assert [sorted(step.of(i)) for i in range(1, step.n + 1)] == rows

    def test_rejects_unknown_format(self):
        doc = bundle_to_json_dict(gen_gbad(1))
        doc["format"] = "bx-v0"
        with pytest.raises(ValueError):
            bundle_from_json_dict(doc)

    def test_rejects_ambiguous_payload(self):
        doc = bundle_to_json_dict(gen_gbad(1))
        doc["wishes"] = [[] for _ in range(15)]
        with pytest.raises(ValueError):
            bundle_from_json_dict(doc)

    @pytest.mark.parametrize(
        "entry, message",
        [
            (True, "instance field 'wishes' must be a list of integer lists"),
            (1.0, "instance field 'wishes' must be a list of integer lists"),
            ("2", "instance field 'wishes' must be a list of integer lists"),
            (None, "instance field 'wishes' must be a list of integer lists"),
            (0, "agent 3 wishes for unknown agent 0"),
            (7, "agent 3 wishes for unknown agent 7"),
            (3, "agent 3 wishes for her own item"),
        ],
    )
    def test_rejects_bad_wish_entries(self, entry, message):
        # agent 3 of six gets one bad entry after its valid ones
        doc = bundle_to_json_dict(gen_random(6, 3, 0.5, 4))
        doc["wishes"][2] = doc["wishes"][2] + [entry]
        with pytest.raises(ValueError) as caught:
            bundle_from_json_dict(doc)
        assert str(caught.value) == message

    def test_rationals_serialized_as_fractions(self):
        text = bundle_to_text(gen_comb(2, 3, 3, FLAT3))
        assert '"9/10"' in text
        assert "0.9" not in text
