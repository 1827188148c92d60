"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The shared corpus is 504 seeded random instances (n in 4..10, k in {3, 4},
arc densities {0.2, 0.4, 0.6}) under three length functions per k: all-ones
("uniform"), a flat tail ("flat": 1, 9/10, ...), and a halving tail
("steep": 1, 1/2, ...).  All ratio comparisons are exact rational
arithmetic; nothing is checked against floats.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

from bxmech.cli import main as cli_main
from bxmech.core import LengthFunction
from bxmech.cyclegraph import CycleGraph, build_from_wishes, build_graph
from bxmech.instances import (
    InstanceBundle,
    comb_horizontal_cycle,
    comb_script,
    gbad_blue_set,
    gen_comb,
    gen_double_comb,
    gen_fan,
    gen_gbad,
    gen_ladder,
    gen_nonrealizable,
    gen_random,
    is_wishlist_realizable,
)
from bxmech.mechanisms import (
    broken_swap_algorithm,
    greedy_mechanism,
    greedy_phase,
    io_mechanism,
    lambda_profile,
    ls_mechanism,
    nu_mechanism,
    opt_mechanism,
)
from bxmech.verification import (
    check_bipartite_weight_bound,
    fuzz_truthfulness_nodes,
    fuzz_truthfulness_wishlists,
    oracle_max_weight_is,
    random_capped_bipartite,
)
from bxmech.verification import test_inpa as inpa_check


def report(criterion: int, label: str):
    """Print one PASS/FAIL line per criterion around the checking code."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {criterion:>2} {verdict}: {label}")
            return False

    return _Reporter()


def lam_for(kind: str, k: int) -> LengthFunction:
    if kind == "uniform":
        return LengthFunction.uniform(k)
    if kind == "flat":
        return LengthFunction.of(k, *(["1"] + ["9/10"] * (k - 2)))
    return LengthFunction.of(k, *(["1"] + [f"1/{2 ** i}" for i in range(1, k - 1)]))


@dataclass(frozen=True)
class Entry:
    kind: str
    k: int
    p: float
    bundle: InstanceBundle
    graph: CycleGraph

    @property
    def lam(self) -> LengthFunction:
        return self.bundle.lam

    @property
    def name(self) -> str:
        return f"{self.bundle.name}:{self.kind}"


@pytest.fixture(scope="session")
def corpus() -> list[Entry]:
    entries = []
    for k in (3, 4):
        for p in (0.2, 0.4, 0.6):
            for kind in ("uniform", "flat", "steep"):
                for idx in range(28):
                    n = 4 + (idx % 7)
                    lam = lam_for(kind, k)
                    seed = idx * 7919 + k * 13 + int(p * 10)
                    bundle = gen_random(n, k, p, seed, lam=lam)
                    entries.append(
                        Entry(kind=kind, k=k, p=p, bundle=bundle, graph=bundle.graph())
                    )
    assert len(entries) >= 500
    return entries


@pytest.fixture(scope="session")
def oracle_weights(corpus) -> dict[str, Fraction]:
    return {
        e.name: e.graph.weight(oracle_max_weight_is(e.graph)) for e in corpus
    }


def ratio_of(entry: Entry, mech_weight: Fraction, oracle: Fraction) -> Fraction:
    if mech_weight == 0:
        assert oracle == 0, f"{entry.name}: mechanism found nothing but oracle did"
        return Fraction(1)
    return oracle / mech_weight


def test_criterion_1_gbad_tightness():
    with report(1, "gbad family ties the q-swap search at 2 + 1/(q+1)"):
        start = time.monotonic()
        for q in (1, 2, 3, 4):
            bundle = gen_gbad(q)
            graph = bundle.graph()
            mine = ls_mechanism(q).solve(graph)
            assert mine == graph.mask_of(gbad_blue_set(q))
            weight = graph.weight(mine)
            best = graph.weight(oracle_max_weight_is(graph))
            assert weight == 3 * (q + 1)
            assert best == 3 * (2 * q + 3)
            assert best / weight == Fraction(2) + Fraction(1, q + 1)
        assert time.monotonic() - start < 5.0


def test_criterion_2_greedy_bound(corpus, oracle_weights):
    with report(2, "greedy stays within ratio k on the full corpus"):
        start = time.monotonic()
        mech = greedy_mechanism()
        for entry in corpus:
            mine = entry.graph.weight(mech.solve(entry.graph))
            assert ratio_of(entry, mine, oracle_weights[entry.name]) <= entry.k
        assert time.monotonic() - start < 120.0


def test_criterion_3_ls_bound(corpus, oracle_weights):
    with report(3, "q-swap search stays within k - 1 + 1/q on the full corpus"):
        for q in (1, 2):
            mech = ls_mechanism(q)
            for entry in corpus:
                mine = entry.graph.weight(mech.solve(entry.graph))
                bound = Fraction(entry.k - 1) + Fraction(1, q)
                assert ratio_of(entry, mine, oracle_weights[entry.name]) <= bound


def rho_reference(lam: LengthFunction) -> Fraction | None:
    """Independent evaluator for the truthfulness threshold: brute force
    over value-separated length pairs, nothing shared with the library."""
    best = None
    for lo in range(2, lam.k):
        for hi in range(lo + 1, lam.k + 1):
            if lam(lo) > lam(hi):
                single = Fraction(hi) * lam(hi) / lam(lo)
                mixed = Fraction(lo - 1, lo) * single + 1
                for cand in (single, mixed):
                    if best is None or cand > best:
                        best = cand
    return best


def test_criterion_4_nu_bound(corpus, oracle_weights):
    with report(4, "nu stays within max{2 + 1/q, rho} at k=3 for both tails"):
        flat = lam_for("flat", 3)
        steep = lam_for("steep", 3)
        assert rho_reference(flat) == Fraction(27, 10) == lambda_profile(flat).rho
        assert rho_reference(steep) == Fraction(7, 4) == lambda_profile(steep).rho
        slices = [e for e in corpus if e.k == 3 and e.kind in ("flat", "steep")]
        assert slices
        for q in (1, 2):
            mech = nu_mechanism(q)
            for entry in slices:
                rho = rho_reference(entry.lam)
                bound = max(Fraction(2) + Fraction(1, q), rho)
                mine = entry.graph.weight(mech.solve(entry.graph))
                assert ratio_of(entry, mine, oracle_weights[entry.name]) <= bound


def test_criterion_5_io_bound(corpus, oracle_weights):
    with report(5, "per-class exact concatenation stays within rho (n <= 9)"):
        mech = io_mechanism()
        slices = [
            e for e in corpus if e.kind != "uniform" and e.bundle.n <= 9
        ]
        assert slices
        for entry in slices:
            rho = lambda_profile(entry.lam).rho
            mine = entry.graph.weight(mech.solve(entry.graph))
            assert ratio_of(entry, mine, oracle_weights[entry.name]) <= rho


FUZZ_BUDGET = 32
FUZZ_SEED = 20_240_601


def _fuzz_clean(mech, entry: Entry) -> None:
    solver = lambda g: mech.solve(g)  # noqa: E731
    found = fuzz_truthfulness_nodes(
        solver, entry.graph, budget=FUZZ_BUDGET, seed=FUZZ_SEED
    )
    assert not found, f"{mech.name} on {entry.name}: {found[0].to_json_dict()}"
    found = fuzz_truthfulness_wishlists(
        solver, entry.bundle.wishes, entry.lam, budget=FUZZ_BUDGET, seed=FUZZ_SEED
    )
    assert not found, f"{mech.name} on {entry.name}: {found[0].to_json_dict()}"


def test_criterion_6_truthfulness_fuzz(corpus):
    label = (
        "both fuzzers stay silent on the catalog, each mechanism on its "
        "truthfulness domain; the non-loyal swap variant is caught"
    )
    with report(6, label):
        greedy = greedy_mechanism()
        for entry in corpus:
            _fuzz_clean(greedy, entry)
        for q in (1, 2):
            mech = ls_mechanism(q)
            for entry in corpus:
                if entry.kind == "uniform":
                    _fuzz_clean(mech, entry)
        for q in (1, 2):
            mech = nu_mechanism(q)
            for entry in corpus:
                if entry.kind != "uniform":
                    _fuzz_clean(mech, entry)
        io = io_mechanism()
        for entry in corpus:
            if entry.kind != "uniform" and entry.bundle.n <= 9:
                _fuzz_clean(io, entry)
        # the harness must detect a known-bad mechanism
        for q in (1, 2):
            broken = broken_swap_algorithm(q)
            witness = gen_ladder(3, 1).graph()
            findings = fuzz_truthfulness_nodes(
                lambda g: broken.run(g), witness, budget=FUZZ_BUDGET, seed=FUZZ_SEED
            )
            assert findings, f"broken swap q={q} evaded the fuzzer"


def _stability_checked(entry: Entry) -> list:
    """The mechanisms criterion 7 checks for stability on ``entry``."""
    checked = [greedy_phase(j) for j in range(2, entry.k + 1)]
    checked.append(ls_mechanism(1))
    checked += [opt_mechanism(ell) for ell in lambda_profile(entry.lam).tumbles]
    if entry.kind != "uniform":
        checked.append(nu_mechanism(1))
    return checked


def test_criterion_7_inpa_suite(corpus):
    """Hiding a non-served agent's nodes never changes the output.

    Every mechanism checked here runs loyal rules only (greedy phases, the
    loyal q-swap search, exact class solves, and nu built from both), so an
    agent not served at the end was served at no step of the run, and none
    of the agent's nodes is in the base solve's footprint.  ``Mechanism.solve``
    therefore answers every strategy ``test_inpa`` tries from the base
    solve's record, without running the mechanism again: the stability this
    criterion sees follows from the replay rule.  The evidence that the
    replayed answers are the mechanisms' own comes from
    ``test_criterion_7_strategies_replay_the_base_solve`` (a corpus slice
    against a fresh build) and from ``tests/test_replay.py``.
    """
    label = (
        "length-phased greedy, q-swap search, per-class exact solves, and nu "
        "are all stable against non-served agents; stability plus all-ones "
        "values implies silent node fuzzing"
    )
    with report(7, label):
        budget, limit, seed = 12, 10, 77
        for entry in corpus:
            for mech in _stability_checked(entry):
                assert inpa_check(
                    mech.solve, entry.graph, budget=budget, seed=seed, exhaustive_limit=limit
                ), f"instability on {entry.name}"
        # consistency on the all-ones slice: stable algorithms cannot be
        # profitably manipulated by hiding nodes
        for entry in corpus:
            if entry.kind != "uniform":
                continue
            mech = ls_mechanism(1)
            solver = lambda g: mech.solve(g)  # noqa: E731
            assert inpa_check(solver, entry.graph, budget=budget, seed=seed, exhaustive_limit=limit)
            assert not fuzz_truthfulness_nodes(
                solver, entry.graph, budget=budget, seed=seed, exhaustive_limit=limit
            )


def test_criterion_7_strategies_replay_the_base_solve(corpus):
    # on a seeded sixth of the corpus, criterion 7's stability check runs
    # each mechanism once, on the whole graph, and answers every strategy
    # from that run's record; each answer equals the solver's own run on a
    # fresh build of the same cycles
    budget, limit, seed = 12, 10, 77
    replayed = 0
    for entry in random.Random(7).sample(corpus, 84):
        graph, fresh = (
            build_graph(entry.graph.nodes, entry.bundle.n, entry.lam) for _ in range(2)
        )
        for mech in _stability_checked(entry):
            runs, answers = [], []

            def counted(g, stats=None, inner=mech.solver, runs=runs):
                runs.append(g._alive)
                return inner(g, stats)

            def solver(g, mech=replace(mech, solver=counted), answers=answers):
                answers.append((g._alive, mech.solve(g)))
                return answers[-1][1]

            assert inpa_check(solver, graph, budget=budget, seed=seed, exhaustive_limit=limit)
            assert runs == [graph._alive], f"{mech.name} on {entry.name}"
            for alive, answer in answers[1:]:
                view = fresh.remove_nodes(fresh._alive & ~alive)
                assert answer == mech.solver(view)[0], f"{mech.name} on {entry.name}"
            replayed += len(answers) - 1
    assert replayed > 10_000


def test_criterion_8_comb_forcing():
    with report(8, "every catalog mechanism is forced onto the horizontal cycle"):
        h, v = 2, 3
        ch = comb_horizontal_cycle(h)
        for lam in (lam_for("flat", 3), lam_for("steep", 3)):
            bundle = gen_comb(h, v, 3, lam)
            mechanisms = [
                greedy_mechanism(),
                nu_mechanism(1),
                nu_mechanism(2),
                io_mechanism(),
            ]
            for mech in mechanisms:
                graph = bundle.graph()
                assert graph.nodes_of(mech.solve(graph)) == (ch,), mech.name
                # replay the deviation script: the output never leaves the
                # horizontal cycle and no deviating agent gains a step
                script = comb_script(h, v)
                outputs = []
                for wishes in script:
                    graph = build_from_wishes(wishes, lam)
                    out = mech.solve(graph)
                    assert graph.nodes_of(out) == (ch,), (mech.name, len(outputs))
                    outputs.append((graph, out))
                for i in range(1, h + 1):
                    prev_g, prev_out = outputs[i - 1]
                    cur_g, cur_out = outputs[i]
                    from bxmech.verification import graph_utility

                    assert graph_utility(cur_g, cur_out, i) <= graph_utility(
                        prev_g, prev_out, i
                    )


def test_criterion_9_bipartite_weight_property():
    with report(9, "degree-capped bipartite graphs obey both weight bounds"):
        rng = random.Random(424242)
        slack_seen = 0
        for _ in range(10_000):
            inst = random_capped_bipartite(rng, k=rng.choice([3, 4, 5, 6]))
            assert check_bipartite_weight_bound(inst)
            if inst.has_slack():
                slack_seen += 1
        assert slack_seen > 100  # the strict-degree branch is exercised


def test_criterion_10_rho_sanity():
    with report(10, "rho < k and the flat-tail predicate over 1000 draws"):
        rng = random.Random(31337)
        grid = [Fraction(a, b) for b in (1, 2, 3, 4, 5, 6, 8, 10, 12) for a in range(1, b + 1)]
        checked = 0
        while checked < 1000:
            k = rng.choice([3, 4, 5, 6])
            values = sorted(
                (rng.choice(grid) for _ in range(k - 1)), reverse=True
            )
            lam = LengthFunction(k=k, values=tuple(values))
            if lam.is_uniform:
                continue
            checked += 1
            profile = lambda_profile(lam)
            assert profile.rho == rho_reference(lam)
            assert profile.rho < k
            assert (profile.rho > k - 1) == (
                lam(k) / lam(profile.ell_star) > Fraction(k - 1, k)
            )


def test_criterion_11_realizability(corpus):
    with report(11, "realizability checker separates direct graphs from wish lists"):
        bad = gen_nonrealizable()
        assert not is_wishlist_realizable(bad.direct_nodes, bad.n, bad.k)
        for entry in corpus:
            graph = entry.graph
            assert is_wishlist_realizable(tuple(graph.nodes), entry.bundle.n, entry.k)
        for bundle in (
            gen_comb(2, 3, 3, lam_for("flat", 3)),
            gen_double_comb(2, 3, 3, lam_for("flat", 3)),
            gen_fan(3),
            gen_ladder(3, 1),
        ):
            graph = bundle.graph()
            assert is_wishlist_realizable(tuple(graph.nodes), bundle.n, bundle.k)


def test_criterion_12_cli_determinism(tmp_path):
    with report(12, "repeated solve/sweep invocations are byte-identical"):
        instance = tmp_path / "inst.json"
        assert cli_main(["gen", "rand:n=8,p=0.5,seed=13,lambda=1,9/10", "--out", str(instance)]) == 0
        solve_outs = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            assert (
                cli_main(["solve", str(instance), "nu:q=2", "--seed", "3", "--out", str(out)])
                == 0
            )
            solve_outs.append(out.read_bytes())
        assert solve_outs[0] == solve_outs[1]
        sweep_outs = []
        for name in ("w1.csv", "w2.csv"):
            out = tmp_path / name
            assert (
                cli_main(
                    [
                        "sweep",
                        "rand:n=7,p=0.4,seed=1..8",
                        "greedy+ls:q=1+ls:q=2",
                        "--seed",
                        "3",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            sweep_outs.append(out.read_bytes())
        assert sweep_outs[0] == sweep_outs[1]
