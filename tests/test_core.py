from dataclasses import dataclass, fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bxmech.core import (
    NEG_INF,
    Exchange,
    LengthFunction,
    TradingCycle,
    WishListVector,
    parse_rational,
    rational_str,
    respects,
    social_welfare,
    utility,
)


def test_rational_round_trip():
    assert parse_rational("9/10") == Fraction(9, 10)
    assert parse_rational("3") == Fraction(3)
    assert rational_str(Fraction(9, 10)) == "9/10"
    assert rational_str(Fraction(2)) == "2/1"


def test_neg_inf_ordering():
    assert NEG_INF < Fraction(0)
    assert NEG_INF < Fraction(-5)
    assert not NEG_INF > Fraction(0)
    assert NEG_INF == NEG_INF
    assert Fraction(0) > NEG_INF
    assert repr(NEG_INF) == "-inf"


@given(st.lists(st.integers(1, 30), min_size=2, max_size=6, unique=True), st.integers(0, 5))
def test_cycle_length_survives_rotation(agents, shift):
    shift %= len(agents)
    a = TradingCycle(tuple(agents))
    b = TradingCycle(tuple(agents[shift:] + agents[:shift]))
    assert a.length == b.length == len(a.agents) == len(agents)
    assert a == b and hash(a) == hash(b)
    # length is set once, outside the fields: eq, hash and repr see agents only
    assert [f.name for f in fields(TradingCycle)] == ["agents"]
    assert repr(a) == f"Cycle{a.agents}"


class TestLengthFunction:
    def test_uniform(self):
        lam = LengthFunction.uniform(4)
        assert lam(2) == lam(3) == lam(4) == 1
        assert lam.is_uniform

    def test_constant_below_one_counts_as_uniform(self):
        lam = LengthFunction.of(3, "1/2", "1/2")
        assert lam.is_uniform

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            LengthFunction.of(3, "1/2", "1")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LengthFunction.of(3, "1", "0")
        with pytest.raises(ValueError):
            LengthFunction.of(3, "2", "1")

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            LengthFunction.of(4, "1", "1")

    def test_length_out_of_domain(self):
        lam = LengthFunction.uniform(3)
        with pytest.raises(ValueError):
            lam(5)


@dataclass(frozen=True)
class PlainCycle:
    """A cycle's agents under the dataclass-generated hash, as a reference."""

    agents: tuple[int, ...]


class TestTradingCycle:
    def test_canonical_rotation(self):
        assert TradingCycle((3, 1, 2)).agents == (1, 2, 3)
        assert TradingCycle((2, 3, 1)).agents == (1, 2, 3)

    def test_orientation_matters(self):
        assert TradingCycle((1, 2, 3)) != TradingCycle((1, 3, 2))

    def test_two_cycle_has_single_orientation(self):
        assert TradingCycle((2, 1)) == TradingCycle((1, 2))

    def test_successor_and_arcs(self):
        c = TradingCycle((1, 2, 3))
        assert c.successor(3) == 1
        assert set(c.arcs()) == {(1, 2), (2, 3), (3, 1)}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.permutations(range(1, 7)).map(lambda p: tuple(p[:3])), max_size=12))
    def test_cached_hash_is_the_dataclass_hash(self, seqs):
        # the hash is cached as the value the dataclass computed, so sets of
        # cycles iterate in the same order as before the cache
        cycles = [TradingCycle(s) for s in seqs]
        plain = [PlainCycle(c.agents) for c in cycles]
        assert [hash(c) for c in cycles] == [hash(c) for c in plain]
        assert [c.agents for c in frozenset(cycles)] == [c.agents for c in frozenset(plain)]

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            TradingCycle((1,))
        with pytest.raises(ValueError):
            TradingCycle((1, 2, 1))


class TestExchange:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Exchange.of((1, 2), (2, 3))

    def test_pi(self):
        ex = Exchange.of((1, 2), (3, 4, 5))
        assert ex.pi(1) == 2
        assert ex.pi(5) == 3
        assert ex.pi(9) == 9
        assert ex.partakers == frozenset({1, 2, 3, 4, 5})
        assert ex.length == 3

    def test_identity(self):
        assert Exchange().partakers == frozenset()
        assert Exchange().length == 0


def test_respects_examples():
    w = WishListVector.from_dict(2, {1: {2}, 2: {1}})
    assert respects(Exchange(), w)
    assert respects(Exchange.of((1, 2)), w)
    w2 = WishListVector.from_dict(2, {1: {2}})
    assert not respects(Exchange.of((1, 2)), w2)


@pytest.mark.parametrize(
    "bad, message",
    [
        (2.5, "agent 1 wishes for unknown agent 2.5"),
        ("2", "agent 1 wishes for unknown agent 2"),
    ],
)
def test_wish_list_rejects_an_id_that_is_no_agent(bad, message):
    # caught at construction, not later in cycle enumeration
    with pytest.raises(ValueError) as err:
        WishListVector.from_dict(3, {1: [bad], 2: [1]})
    assert str(err.value) == message


@pytest.mark.parametrize(
    "wishes, message",
    [
        ({1: [2.0], 2: [1]}, "agent 1 wishes for 2.0, which is not an int agent id"),
        ({1: [2], 2: [True]}, "agent 2 wishes for True, which is not an int agent id"),
        (
            {1: [2], 2: [1], 3: [Fraction(1)]},
            "agent 3 wishes for Fraction(1, 1), which is not an int agent id",
        ),
    ],
)
def test_wish_list_rejects_an_id_equal_to_an_agent_but_no_int(wishes, message):
    # such an id passes the subset test against the agents (2.0 == 2,
    # True == 1) and would fail later, in cycle enumeration
    with pytest.raises(ValueError) as err:
        WishListVector.from_dict(3, wishes)
    assert str(err.value) == message


def test_respects_rejects_out_of_range_agents():
    w = WishListVector.from_dict(2, {1: {2}, 2: {1}})
    with pytest.raises(ValueError):
        respects(Exchange.of((1, 3)), w)


def test_utility_cases():
    lam3 = LengthFunction.of(3, "1", "9/10")
    w = WishListVector.from_dict(
        5, {1: {2}, 2: {1}, 3: {4}, 4: {5}, 5: {3}}
    )
    ex = Exchange.of((1, 2), (3, 4, 5))
    assert utility(1, Exchange(), w, lam3) == 0
    assert utility(1, ex, w, LengthFunction.uniform(3)) == 1
    assert utility(3, ex, w, lam3) == Fraction(9, 10)
    # receiving a non-wished item is the minus-infinity case
    w_bad = w.with_wish(1, set())
    w_bad = w_bad.with_wish(2, {1})
    assert utility(1, ex, w_bad, lam3) is NEG_INF


def test_utility_rejects_overlong_exchange():
    lam = LengthFunction.uniform(2)
    w = WishListVector.from_dict(3, {1: {2}, 2: {3}, 3: {1}})
    with pytest.raises(ValueError):
        utility(1, Exchange.of((1, 2, 3)), w, lam)


def test_social_welfare_examples():
    uniform = LengthFunction.uniform(3)
    w = WishListVector.from_dict(5, {1: {2}, 2: {1}, 3: {4}, 4: {5}, 5: {3}})
    ex = Exchange.of((1, 2), (3, 4, 5))
    assert social_welfare(Exchange(), w, uniform) == 0
    assert social_welfare(ex, w, uniform) == 5

    # two vertical 3-cycles at lambda = (1, 9/10) are worth 2*3*(9/10)
    lam = LengthFunction.of(3, "1", "9/10")
    wc = WishListVector.from_dict(
        6, {1: {3}, 3: {4}, 4: {1}, 2: {5}, 5: {6}, 6: {2}}
    )
    verticals = Exchange.of((1, 3, 4), (2, 5, 6))
    assert social_welfare(verticals, wc, lam) == Fraction(27, 5)


def test_social_welfare_rejects_non_respecting():
    w = WishListVector.from_dict(2, {1: {2}})
    with pytest.raises(ValueError):
        social_welfare(Exchange.of((1, 2)), w, LengthFunction.uniform(2))


@st.composite
def exchange_with_wishes(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    agents = list(range(1, n + 1))
    draw_order = draw(st.permutations(agents))
    cycles = []
    pool = list(draw_order)
    while len(pool) >= 2:
        take = draw(st.integers(min_value=0, max_value=min(3, len(pool))))
        if take < 2:
            pool = pool[1:]
            continue
        cycles.append(tuple(pool[:take]))
        pool = pool[take:]
    wishes = {i: set() for i in agents}
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            wishes[a].add(b)
    extra = draw(st.lists(st.tuples(st.sampled_from(agents), st.sampled_from(agents)), max_size=8))
    for a, b in extra:
        if a != b:
            wishes[a].add(b)
    return Exchange.of(*cycles), WishListVector.from_dict(n, wishes)


@settings(max_examples=60, deadline=None)
@given(exchange_with_wishes(), st.sampled_from(["1", "9/10", "1/2"]))
def test_welfare_is_utility_sum(pair, tail):
    ex, w = pair
    lam = LengthFunction.of(3, "1", tail)
    total = social_welfare(ex, w, lam)
    parts = [utility(i, ex, w, lam) for i in range(1, w.n + 1)]
    assert all(p is not NEG_INF for p in parts)
    assert total == sum(parts, Fraction(0))
    # under the all-ones function the welfare counts partaking agents
    assert social_welfare(ex, w, LengthFunction.uniform(3)) == len(ex.partakers)


@settings(max_examples=40, deadline=None)
@given(exchange_with_wishes(), st.integers(min_value=1, max_value=3))
def test_welfare_scales_with_lambda(pair, den):
    ex, w = pair
    scale = Fraction(1, den)
    lam = LengthFunction.of(3, "1", "9/10")
    scaled = lam.scaled(scale)
    assert social_welfare(ex, w, scaled) == scale * social_welfare(ex, w, lam)
    for i in range(1, w.n + 1):
        assert utility(i, ex, w, scaled) == scale * utility(i, ex, w, lam)
