"""A restricted solve answered from the build's record of an earlier solve.

Every solver returns its answer and its footprint.  ``Mechanism.solve``
keeps, per build and solver, the alive mask S of one run, its footprint F
and its answer; a later solve on an alive mask M inside S that hides no
node of F returns that answer without running.  A catalog block's F is
every node its run ever added; the lottery's is its base's, or the pool it
drew from; a hand-written solver may report its alive mask.  The
differential test below compares every such answer with the same solve on
a fresh build of the same cycles and node order, which has no record to
read.
"""

import gc
import random
import weakref
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bxmech.core import LengthFunction, WishListVector
from bxmech.cyclegraph import bits, build_from_wishes, build_graph
from bxmech.instances import gen_random
from bxmech.localsearch import SearchStats
from bxmech.mechanisms import (
    Mechanism,
    broken_swap_algorithm,
    greedy_mechanism,
    greedy_phase,
    io_mechanism,
    lambda_profile,
    ls_mechanism,
    nu_mechanism,
    opt_mechanism,
    parse_mechanism,
    randomized_mechanism,
)
from bxmech.verification import fuzz_truthfulness_nodes, test_inpa as inpa_check


def lam_of(kind, k):
    if kind == "uniform":
        return LengthFunction.uniform(k)
    if kind == "flat":
        return LengthFunction.of(k, *(["1"] + ["9/10"] * (k - 2)))
    return LengthFunction.of(k, *(["1"] + [f"1/{2 ** i}" for i in range(1, k - 1)]))


def mechanisms_for(lam):
    """greedy, greedy^j, ls:q=1,2, nu:q=1,2 (a non-uniform lam only), io,
    opt:l and broken-swap[q=1,2]."""
    k = lam.k
    out = [greedy_mechanism(), *(greedy_phase(j) for j in range(2, k + 1))]
    out += [ls_mechanism(q) for q in (1, 2)]
    if lambda_profile(lam).ell_star is not None:
        out += [nu_mechanism(q) for q in (1, 2)]
    out += [io_mechanism(), *(opt_mechanism(ell) for ell in range(2, k + 1))]
    out += [broken_swap_algorithm(q) for q in (1, 2)]
    return out


# (zeta, seed) of the lotteries: the first draw of each seed picks the
# branch, and these pairs take both
LOTTERY_DRAWS = [
    (Fraction(zeta), seed) for zeta in ("1/10", "1/3", "2/3") for seed in range(4)
]


def lotteries_for(lam):
    """rand: over greedy, ls:q=1 and opt:l=k, for every pair of
    LOTTERY_DRAWS; some take the draw branch and some their base."""
    branches = {
        random.Random(seed).randrange(zeta.denominator) < zeta.numerator
        for zeta, seed in LOTTERY_DRAWS
    }
    assert branches == {True, False}
    bases = [greedy_mechanism(), ls_mechanism(1), opt_mechanism(lam.k)]
    return [randomized_mechanism(b, zeta, seed) for b in bases for zeta, seed in LOTTERY_DRAWS]


def fresh_solve(m, graph, alive):
    """``m``'s answer on ``alive`` in a new build of ``graph``'s cycles, in
    its node order: a build with no record to read."""
    fresh = build_graph(graph._tables.nodes, graph.n, graph.lam, node_order=graph._tables.nodes)
    return m.solve(fresh.remove_nodes(fresh._alive & ~alive))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=4, max_value=9),
    st.sampled_from([3, 4]),
    st.sampled_from([0.25, 0.4, 0.55]),
    st.sampled_from(["uniform", "flat", "steep"]),
    st.integers(min_value=0, max_value=10_000),
    st.data(),
)
def test_restricted_solve_equals_a_fresh_build(n, k, p, kind, seed, data):
    # one shared build answers a chain of ever smaller restrictions, after
    # an optional restriction solved before the whole graph; each answer
    # must equal the fresh build's
    lam = lam_of(kind, k)
    base = gen_random(n, k, p, seed, lam=lam).graph()
    order = data.draw(st.permutations(base.nodes))
    graph = build_graph(base.nodes, n, lam, node_order=order)
    nodes = graph.nodes
    hidden = st.sets(st.sampled_from(nodes), max_size=3) if nodes else st.just(set())
    alive_masks = []
    if data.draw(st.booleans()):
        alive_masks.append(graph._alive & ~graph.mask_of(data.draw(hidden)))
    alive_masks.append(graph._alive)
    alive = graph._alive
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        alive &= ~graph.mask_of(data.draw(hidden))
        alive_masks.append(alive)
    for m in mechanisms_for(lam) + lotteries_for(lam):
        for mask in alive_masks:
            view = graph.remove_nodes(graph._alive & ~mask)
            assert m.solve(view) == fresh_solve(m, graph, mask), m.name


def test_one_node_restrictions_equal_the_solvers_own_run():
    # every restriction hiding one node of a seeded graph, answered from the
    # whole graph's record where the footprint allows, against the solver's
    # own run; hiding a node that a swap evicted often changes the answer
    rng = random.Random(5)
    for seed in range(24):
        k, kind = 3 + seed % 2, ("uniform", "flat", "steep")[seed % 3]
        lam = lam_of(kind, k)
        nodes = list(gen_random(8, k, 0.4, seed, lam=lam).graph().nodes)
        rng.shuffle(nodes)
        graph = build_graph(nodes, 8, lam, node_order=nodes)
        for m in mechanisms_for(lam):
            m.solve(graph)
            for i in range(graph.num_nodes):
                view = graph.remove_nodes(1 << i)
                assert m.solve(view) == m.solver(view)[0], m.name


def counting():
    """A hand-written solver (the first alive node, with the alive mask as
    its footprint), and its call log."""
    calls = []

    def run(graph, stats=None):
        calls.append(graph._alive)
        return graph._alive & -graph._alive, graph._alive

    return run, calls


def test_hand_written_solver_runs_as_on_a_fresh_build():
    # the answer avoids every hidden node, so only the footprint keeps the
    # whole graph's record from answering the restrictions; on the same
    # alive mask the record answers
    graph = gen_random(7, 3, 0.5, 8, lam=lam_of("flat", 3)).graph()  # 20 nodes
    shared_run, shared_calls = counting()
    fresh_run, fresh_calls = counting()
    hand = Mechanism(name="first", params={}, truthful_for="none", solver=shared_run)
    views = [graph] + [graph.remove_nodes(1 << i) for i in range(1, graph.num_nodes)]
    for view in views:
        assert hand.solve(view) == fresh_solve(replace(hand, solver=fresh_run), graph, view._alive)
    assert hand.solve(graph) == 1  # from the record
    assert shared_calls == fresh_calls == [view._alive for view in views]


def test_records_are_shared_by_restrictions_and_rebuilt_empty():
    # one table of solve records per build: a restriction reads and fills
    # the built graph's table, and a rebuild starts with its own
    graph = gen_random(7, 3, 0.5, 8, lam=lam_of("flat", 3)).graph()  # 20 nodes
    table = graph._tables.recorded
    assert table == {}
    m = greedy_mechanism()
    answer = m.solve(graph)
    record = (graph._alive, answer, answer)  # greedy's footprint is its picks
    assert table == {m.solver: record}
    for i in bits(graph._alive):
        view = graph.remove_nodes(1 << i)
        assert view._tables.recorded is table
        assert m.solve(view) == m.solver(view)[0]
        assert table == {m.solver: record}
    rebuilt = build_graph(graph.nodes, graph.n, graph.lam, node_order=graph.nodes)
    assert rebuilt._tables.recorded == {} and rebuilt._tables.recorded is not table
    assert rebuilt == graph


def test_solve_with_stats_runs_in_full():
    for kind in ("uniform", "flat"):
        lam = lam_of(kind, 4)
        graph = gen_random(8, 4, 0.4, 14, lam=lam).graph()  # 27 nodes
        for m in mechanisms_for(lam):
            m.solve(graph)
            for i in range(graph.num_nodes):
                view = graph.remove_nodes(1 << i)
                m.solve(view)
                fresh = build_graph(graph.nodes, graph.n, lam)
                mine, theirs = SearchStats(), SearchStats()
                assert m.solve(view, mine) == m.solve(fresh.remove_nodes(1 << i), theirs)
                assert mine == theirs, m.name


def test_repeated_op_keeps_the_record_count():
    # the benchmark's harness builds its mechanisms anew for every op; the
    # records are keyed on the solvers, which are built once per parameter
    # set, so repeating an op on one build adds none
    lam = lam_of("steep", 4)
    graph = gen_random(7, 4, 0.4, 8, lam=lam).graph()  # 22 nodes

    def op():
        for m in mechanisms_for(lam):
            inpa_check(m.solve, graph, budget=4, seed=1, exhaustive_limit=3)
        fuzz_truthfulness_nodes(ls_mechanism(1).solve, graph, budget=4, seed=1)

    op()
    count = len(graph._tables.recorded)
    assert count == len({m.solver for m in mechanisms_for(lam)})
    for _ in range(49):
        op()
    assert len(graph._tables.recorded) == count


def test_reparsed_lottery_shares_one_solver_and_record():
    # the lottery's solver is built once per (base solver, zeta, seed), so a
    # spec parsed anew for every solve keeps one record on the build
    graph = gen_random(8, 3, 0.4, 3, lam=lam_of("flat", 3)).graph()
    spec = "rand:zeta=1/2:base=greedy"
    first = parse_mechanism(spec)
    assert parse_mechanism(spec, seed=1).solver is not first.solver
    answers = set()
    for _ in range(50):
        m = parse_mechanism(spec)
        assert m.solver is first.solver
        answers.add(m.solve(graph))
    assert len(graph._tables.recorded) == 1
    assert answers == {fresh_solve(first, graph, graph._alive)}
    # on the base branch the base runs once; the other 49 solves replay
    for zeta, seed in LOTTERY_DRAWS:
        run, calls = counting()
        base = Mechanism(name="first", params={}, truthful_for="none", solver=run)
        for _ in range(50):
            randomized_mechanism(base, zeta, seed).solve(graph)
        drawn = random.Random(seed).randrange(zeta.denominator) < zeta.numerator
        assert calls == ([] if drawn else [graph._alive])


def test_lottery_does_not_keep_every_hand_written_base():
    # the lottery's solvers sit in a bounded cache: a base made afresh for
    # each call is freed once enough newer keys have pushed it out
    run, _ = counting()
    base = Mechanism(name="first", params={}, truthful_for="none", solver=run)
    randomized_mechanism(base, Fraction(1, 2), 0)
    gone = weakref.ref(run)
    del run, base
    for seed in range(300):
        fresh, _ = counting()
        randomized_mechanism(
            Mechanism(name="fresh", params={}, truthful_for="none", solver=fresh),
            Fraction(1, 2),
            seed,
        )
    gc.collect()
    assert gone() is None


def test_footprint_holds_the_nodes_a_swap_evicted():
    # ls:q=1 on the pair (1, 2) and the 3-cycle (1, 2, 3) under uniform
    # values: expansion takes the pair first and the swap trades it for the
    # heavier 3-cycle, which keeps agents 1 and 2 served; so the footprint
    # holds both nodes, and a restriction hiding either one is solved anew
    wishes = WishListVector.from_dict(3, {1: {2}, 2: {1, 3}, 3: {1}})
    graph = build_from_wishes(wishes, LengthFunction.uniform(3))
    m = ls_mechanism(1)
    pair, triangle = graph.nodes
    assert graph.set_of(m.solve(graph)) == {triangle}
    assert graph._tables.recorded[m.solver] == (
        graph._alive, graph._alive, graph.mask_of([triangle])
    )
    assert graph.set_of(m.solve(graph.remove_nodes(graph.mask_of([pair])))) == {triangle}
    assert graph.set_of(m.solve(graph.remove_nodes(graph.mask_of([triangle])))) == {pair}
