"""The mechanism catalog and the length-function profile quantities.

A solver maps a cycle graph (and an optional :class:`SearchStats`) to an
independent set and its footprint, both as node masks of the graph (bit i
is node i); hiding nodes outside the footprint leaves the answer as it is.
The building blocks are the greedy sweep, a local search over a rule list
and the per-class exact solve; :func:`concatenate` chains two of them, the
second running on what the first output and its neighbors leave.  A
block's footprint is every node its run ever added (the greedy picks, the
union of the local search's steps, the exact solve's answer, the union of
a concatenation's parts); each block is built once per parameter set.  A
:class:`Mechanism` packages a solver with its claimed approximation bound
and the class of length functions it is truthful for, and hands out the
solver's answer mask once it has checked it (``graph.set_of`` turns a mask
into its frozenset of cycles):

* ``greedy``: fill shortest cycles first (phase per length, each phase an
  expansion-only local search); claimed ratio k, truthful for every length
  function.
* ``ls:q``: local search with the expansion and all-for-q rules; claimed
  ratio k - 1 + 1/q, truthful under uniform length functions.
* ``nu:q``: greedy on lengths up to the threshold where the length function
  flattens to its tail value, concatenated with the q-swap search on what
  the greedy pass leaves, which holds only the strictly longer cycles;
  truthful for non-uniform length functions, ratio max{k - 1 + 1/q, rho}.
* ``io``: per value-class exact solves, concatenated from short classes to
  long; truthful, exponential time, ratio rho for non-uniform functions.
* ``opt:l``: one exact solve restricted to the value class of a length.
* ``rand``: a seeded lottery over a base mechanism (see
  :func:`randomized_mechanism`); its ratio holds in expectation, so it
  claims no bound.

Every one of them, the lottery included, is a :class:`Mechanism`.  A
restricted solve runs on the graph with the other nodes removed
(:meth:`CycleGraph.remove_nodes`).  :meth:`Mechanism.solve` keeps one
record per build and solver, of its run on some alive mask S, in the
build's shared tables; a solve on an alive mask inside S that hides no node
of the record's footprint returns the recorded answer without running (the
proof, and the contract of a hand-written solver, are in its docstring).
The exact solves of ``io`` and ``opt`` take the same ``node_cap`` as the
oracle (:data:`bxmech.exact.EXACT_NODE_CAP` by default).

``rho`` is the tight truthfulness threshold computed from the length
function; see :func:`lambda_profile`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, lru_cache, reduce
from operator import or_
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .core import LengthFunction, cycle_sort_key, parse_int, parse_rational
# build_graph and enumerate_cycles are unused here, but bxbench/tracer.py
# wraps them at every module that imports them, this one included
from .cyclegraph import (  # noqa: F401
    CycleGraph,
    bits,
    build_graph,
    enumerate_cycles,
)
from .exact import EXACT_NODE_CAP, max_weight_independent_set
from .localsearch import (
    ImprovementRule,
    SearchStats,
    all_for_q_rule,
    expansion_rule,
    run_local_search,
)


@dataclass(frozen=True)
class LambdaProfile:
    """Derived quantities of a length function.

    ``ell_star`` is the largest length in [2, k-1] whose value still exceeds
    the tail value at k (None when the function is constant).  ``tumbles``
    lists the lengths just before a strict drop, plus k itself; the equal
    value class of each tumble length collects the lengths sharing its
    value.  ``rho`` is the worst ratio over value-separated length pairs of
    the two adversarial welfare comparisons; it is always below k, and it
    exceeds k - 1 exactly when the tail is sufficiently flat:
    lam(k)/lam(ell_star) > (k-1)/k.
    """

    ell_star: int | None
    tumbles: tuple[int, ...]
    equal_classes: Mapping[int, tuple[int, ...]]
    rho: Fraction | None
    rho_parts: tuple[Fraction, Fraction] | None
    flat_tail: bool | None


def lambda_profile(lam: LengthFunction) -> LambdaProfile:
    """The profile of ``lam``, computed once per length-function object
    (the result is shared, so ``equal_classes`` is read-only).

    It is kept on the instance, the way ``functools.cached_property`` keeps
    a value, so a solve that asks again for its graph's profile does no
    ``Fraction`` work.
    """
    memo = vars(lam)
    profile = memo.get("_lambda_profile")
    if profile is None:
        profile = memo["_lambda_profile"] = _profile_of(lam)
    return profile


def _profile_of(lam: LengthFunction) -> LambdaProfile:
    k = lam.k
    pairs = [
        (lo, hi)
        for lo in range(2, k)
        for hi in range(lo + 1, k + 1)
        if lam(lo) > lam(hi)
    ]
    tumbles = tuple(
        sorted({ell for ell in range(2, k) if lam(ell) > lam(ell + 1)} | {k})
    )
    classes = MappingProxyType({
        ell: tuple(e for e in range(2, ell + 1) if lam(e) == lam(ell))
        for ell in tumbles
    })
    ell_star = rho = rho_parts = flat = None
    if pairs:
        ell_star = max(ell for ell in range(2, k) if lam(ell) > lam(k))
        rho_single = max(Fraction(hi) * lam(hi) / lam(lo) for lo, hi in pairs)
        rho_mixed = max(
            Fraction(lo - 1, lo) * Fraction(hi) * lam(hi) / lam(lo) + 1
            for lo, hi in pairs
        )
        rho_parts = (rho_single, rho_mixed)
        rho = max(rho_parts)
        flat = lam(k) / lam(ell_star) > Fraction(k - 1, k)
    return LambdaProfile(
        ell_star=ell_star,
        tumbles=tumbles,
        equal_classes=classes,
        rho=rho,
        rho_parts=rho_parts,
        flat_tail=flat,
    )


# ---------------------------------------------------------------------------
# solver building blocks: (graph, stats=None) -> (answer mask, footprint mask)

Solver = Callable[..., tuple[int, int]]


def concatenate(head: Solver, tail: Solver) -> Solver:
    """Run ``head``, delete its output and that output's neighbors, run
    ``tail`` on the remainder, and return the union.  The footprint is the
    union of the two parts' footprints."""

    def run(graph: CycleGraph, stats: SearchStats | None = None) -> tuple[int, int]:
        first, first_added = head(graph, stats)
        rest = graph.remove_nodes(first | graph.neighborhood_mask(first))
        second, second_added = tail(rest, stats)
        return first | second, first_added | second_added

    return run


@cache
def greedy_solver(lo: int = 2, hi: int | None = None) -> Solver:
    """Shortest cycles first over the lengths lo..hi (hi defaults to k).

    A single pass equivalent to concatenating expansion-only searches
    restricted to lengths lo, lo + 1, ..., hi: each phase adds, in node
    order, every node of its length still independent of the picks so far.
    So every node of length lo..hi ends up picked or adjacent to a pick.
    The footprint is the picks.  Built once per (lo, hi) and shared.
    """

    def run(graph: CycleGraph, stats: SearchStats | None = None) -> tuple[int, int]:
        adj = graph._tables.adj
        blocked = 0
        picks = 0
        for j in range(lo, (graph.k if hi is None else hi) + 1):
            cand = graph.length_mask(j) & ~blocked
            while cand:
                low = cand & -cand
                picks |= low
                blocked |= low | adj[low.bit_length() - 1]
                cand &= ~blocked
                if stats is not None:
                    stats.record(f"expand[len={j}]")
        return picks, picks

    return run


def local_search(*rules: ImprovementRule) -> Solver:
    """The local search over ``rules`` from the empty set.  The footprint
    is the union of its steps' sets, so it holds the nodes a swap evicted."""

    def run(graph: CycleGraph, stats: SearchStats | None = None) -> tuple[int, int]:
        trace = run_local_search(graph, rules, stats)
        return trace.final, reduce(or_, (step.result for step in trace.steps), 0)

    return run


@cache
def _ls_solver(q: int, require_loyalty: bool) -> Solver:
    """The expansion and all-for-q search of ``ls`` and ``broken-swap``,
    built once per (q, require_loyalty) and shared."""
    return local_search(expansion_rule(), all_for_q_rule(q, require_loyalty))


@cache
def opt_class(ell: int, node_cap: int | None = EXACT_NODE_CAP) -> Solver:
    """One exact solve restricted to the value class of length ``ell``;
    its footprint is its answer.  Built once per (ell, node_cap) and shared."""

    def run(graph: CycleGraph, stats: SearchStats | None = None) -> tuple[int, int]:
        answer = max_weight_independent_set(
            graph.remove_nodes(graph._alive & ~graph.class_mask(ell)), node_cap=node_cap
        )
        return answer, answer

    return run


def _covers(record: tuple[int, int, int], alive: int) -> bool:
    """Whether a solve record ``(seen, footprint, answer)`` answers a solve
    on ``alive``: the alive mask lies inside the recorded one and hides no
    node of the footprint."""
    seen, footprint, _ = record
    return not alive & ~seen and not (seen & ~alive) & footprint


# ---------------------------------------------------------------------------
# the catalog


@dataclass(frozen=True)
class Mechanism:
    """A named solver plus its advertised guarantee.

    ``solver`` returns an answer mask and its footprint; ``solve`` (or
    ``run``) checks the answer and returns its mask.
    """

    name: str
    params: Mapping[str, object]
    truthful_for: str  # "any" | "uniform" | "non-uniform" | "none"
    solver: Solver
    claimed_bound: Callable[[LengthFunction], Fraction | None] = lambda lam: None

    def solve(self, graph: CycleGraph, stats: SearchStats | None = None) -> int:
        """The solver's answer on ``graph``, as a node mask.

        Without ``stats``, the solve may answer from the build's record of
        an earlier run of the same solver (``GraphTables.recorded``, shared
        by every restriction of the build): a run on alive mask S that
        answered A with footprint F also answers A on every alive mask M
        inside S that hides no node of F.  A catalog block's F is every node
        its run added.  Each rule and greedy phase takes the first passing
        candidate in node order, where passing depends only on the
        candidate, the current set and the shared tables, and each exact
        class solve takes the first optimum, which stays optimal on a
        subgraph holding it.  Hiding nodes outside F removes only candidates
        the run did not take, so the run on M takes the same ones, step by
        step, and a concatenation's tail runs on its graph on S less the
        same hidden nodes.  A solver keeps one record per build, replaced
        only by a run on a strict superset of its mask.  A solve handed
        ``stats`` runs in full, so its firings are recorded.

        A hand-written solver must be a function of its graph.  One that can
        name no smaller footprint returns ``graph._alive``, which replays
        only on the same alive mask.

        A run's answer must be an independent set of alive nodes, and is
        recorded only then.  Independence depends on the adjacency alone,
        which every restriction shares, so a replayed answer is tested only
        for nodes that are no longer alive.  Either failure raises
        ``RuntimeError``.
        """
        solver = self.solver
        alive = graph._alive
        recorded = graph._tables.recorded
        record = recorded.get(solver) if stats is None else None
        if record is not None and _covers(record, alive):
            answer = record[2]
            independent = not answer & ~alive
        else:
            answer, footprint = solver(graph, stats)
            independent = graph.is_independent_mask(answer)
            if independent and stats is None and (record is None or not record[0] & ~alive):
                recorded[solver] = (alive, footprint, answer)
        if not independent:
            raise RuntimeError(f"mechanism {self.name} produced a dependent set")
        return answer

    # looked up on each access, so a patched ``solve`` is seen through it
    run = property(lambda self: self.solve)


def greedy_mechanism() -> Mechanism:
    return Mechanism(
        name="greedy",
        params={},
        truthful_for="any",
        solver=greedy_solver(),
        claimed_bound=lambda lam: Fraction(lam.k),
    )


def greedy_phase(j: int) -> Mechanism:
    """Greedy restricted to the cycles of length exactly j."""
    return Mechanism(
        name=f"greedy^{j}", params={"l": j}, truthful_for="any", solver=greedy_solver(j, j)
    )


def ls_mechanism(q: int) -> Mechanism:
    return Mechanism(
        name=f"ls:q={q}",
        params={"q": q},
        truthful_for="uniform",
        solver=_ls_solver(q, True),
        claimed_bound=lambda lam: Fraction(lam.k - 1) + Fraction(1, q),
    )


def broken_swap_algorithm(q: int) -> Mechanism:
    """Local search whose swap rule may drop served agents.

    Known-bad specimen: the fuzz harness must be able to catch it cheating
    on the steering witness instances.
    """
    return Mechanism(
        name=f"broken-swap[q={q}]",
        params={"q": q},
        truthful_for="none",
        solver=_ls_solver(q, False),
    )


@cache
def _nu_concatenation(q: int, ell_star: int) -> Solver:
    """nu's solver for one threshold, built once per (q, ell_star) and
    shared: solvers hold no state between calls."""
    # the greedy head picks or blocks every node of length <= ell_star, so
    # the tail searches only the longer cycles
    tail = local_search(
        *(
            replace(rule, name=f"{rule.name}[>{ell_star}]")
            for rule in (expansion_rule(), all_for_q_rule(q))
        )
    )
    return concatenate(greedy_solver(hi=ell_star), tail)


@cache
def _nu_solver(q: int) -> Solver:
    """nu's solver, built once per q and shared: the concatenation for the
    threshold of the graph's length function."""

    def run(graph: CycleGraph, stats: SearchStats | None = None) -> tuple[int, int]:
        ell_star = lambda_profile(graph.lam).ell_star
        if ell_star is None:
            raise ValueError(
                "nu is undefined for a constant length function; use ls instead"
            )
        return _nu_concatenation(q, ell_star)(graph, stats)

    return run


def nu_mechanism(q: int) -> Mechanism:
    def bound(lam: LengthFunction) -> Fraction | None:
        profile = lambda_profile(lam)
        if profile.rho is None:
            return None
        return max(Fraction(lam.k - 1) + Fraction(1, q), profile.rho)

    return Mechanism(
        name=f"nu:q={q}",
        params={"q": q},
        truthful_for="non-uniform",
        solver=_nu_solver(q),
        claimed_bound=bound,
    )


def opt_mechanism(ell: int, node_cap: int | None = EXACT_NODE_CAP) -> Mechanism:
    return Mechanism(
        name=f"opt:l={ell}",
        params={"l": ell},
        truthful_for="any",
        solver=opt_class(ell, node_cap),
    )


@cache
def _io_concatenation(tumbles: tuple[int, ...], node_cap: int | None) -> Solver:
    """io's solver for one set of tumble lengths, built once per
    (tumbles, node_cap) and shared, as :func:`_nu_concatenation` is."""
    return reduce(concatenate, [opt_class(ell, node_cap) for ell in tumbles])


@cache
def _io_solver(node_cap: int | None) -> Solver:
    """io's solver, built once per node cap and shared: the concatenation
    for the tumble lengths of the graph's length function."""

    def run(graph: CycleGraph, stats: SearchStats | None = None) -> tuple[int, int]:
        tumbles = lambda_profile(graph.lam).tumbles
        return _io_concatenation(tumbles, node_cap)(graph, stats)

    return run


def io_mechanism(node_cap: int | None = EXACT_NODE_CAP) -> Mechanism:
    def bound(lam: LengthFunction) -> Fraction | None:
        profile = lambda_profile(lam)
        return profile.rho if profile.rho is not None else Fraction(1)

    return Mechanism(
        name="io",
        params={},
        truthful_for="any",
        solver=_io_solver(node_cap),
        claimed_bound=bound,
    )


# ---------------------------------------------------------------------------
# the lottery lifting the subset-reporting assumption


def randomized_mechanism(base: Mechanism, zeta: Fraction, seed: int) -> Mechanism:
    """With probability 1 - zeta run the base solver on the graph; otherwise
    draw a length uniformly from [2, k] and a single uniformly random node of
    that length, in (length, sequence) order (the empty set when the class
    is empty).

    The base runs on the graph it is given, with its footprint and without
    ``stats``, so a lottery solve records no firings.  The draw is exact (a
    uniform integer below zeta's denominator, not a float).  Every solve
    starts from ``seed``, so the mechanism is deterministic: the branch and
    the length depend on the graph only through k, and the drawn node only
    through the pool of alive nodes of that length, the draw's footprint.
    Its ratio holds only in expectation, so it claims no bound.  The solver
    is built once per (base solver, zeta, seed) and kept in a bounded cache,
    so a re-parsed spec shares its solve records while a base that is made
    afresh for each call is not kept for the life of the process.
    """
    if not 0 < zeta < 1:
        raise ValueError(f"zeta must lie strictly between 0 and 1, got {zeta}")
    return Mechanism(
        name=f"rand:zeta={zeta.numerator}/{zeta.denominator}:base={base.name}",
        params={"zeta": zeta, "base": base},
        truthful_for=base.truthful_for,
        solver=_lottery_solver(base.solver, zeta, seed),
    )


@lru_cache(maxsize=256)
def _lottery_solver(base: Solver, zeta: Fraction, seed: int) -> Solver:
    """The lottery of :func:`randomized_mechanism` over the solver ``base``,
    shared by the latest 256 (base, zeta, seed) keys."""

    def run(graph: CycleGraph, stats: SearchStats | None = None) -> tuple[int, int]:
        rng = random.Random(seed)
        if rng.randrange(zeta.denominator) < zeta.numerator:
            pool = graph.length_mask(rng.randrange(2, graph.k + 1))
            order = sorted(bits(pool), key=lambda i: cycle_sort_key(graph._tables.nodes[i]))
            pick = 1 << order[rng.randrange(len(order))] if order else 0
            return pick, pool
        return base(graph, None)

    return run


# ---------------------------------------------------------------------------
# mechanism spec grammar


def parse_mechanism(
    spec: str, node_cap: int | None = EXACT_NODE_CAP, seed: int = 0
) -> Mechanism:
    """Parse a mechanism spec string.

    Grammar: ``greedy`` | ``ls:q=<int>`` | ``nu:q=<int>`` | ``io`` |
    ``opt:l=<int>`` | ``rand:zeta=<p>/<q>:base=<mech>``.  ``node_cap`` is the
    node cap of the exact solves of ``io`` and ``opt`` (also as a base);
    ``seed`` is the lottery's seed.
    """
    spec = spec.strip()
    if spec == "greedy":
        return greedy_mechanism()
    if spec == "io":
        return io_mechanism(node_cap)
    if spec.startswith("ls:"):
        return ls_mechanism(_int_param(spec[3:], "q"))
    if spec.startswith("nu:"):
        return nu_mechanism(_int_param(spec[3:], "q"))
    if spec.startswith("opt:"):
        return opt_mechanism(_int_param(spec[4:], "l"), node_cap)
    if spec.startswith("rand:"):
        rest = spec[5:]
        if not rest.startswith("zeta="):
            raise ValueError(f"bad randomized spec {spec!r}: expected zeta=")
        rest = rest[5:]
        zeta_text, sep, remainder = rest.partition(":")
        if not sep or not remainder.startswith("base="):
            raise ValueError(f"bad randomized spec {spec!r}: expected :base=")
        base = parse_mechanism(remainder[5:], node_cap)
        if "zeta" in base.params:
            raise ValueError("randomized wrapper cannot wrap itself")
        return randomized_mechanism(
            base, parse_rational(zeta_text, "parameter zeta"), seed
        )
    raise ValueError(f"unknown mechanism spec {spec!r}")


def _int_param(text: str, key: str) -> int:
    prefix = f"{key}="
    if not text.startswith(prefix):
        raise ValueError(f"expected {prefix}<int>, got {text!r}")
    value = text[len(prefix):]
    if value == "*" and key == "q":
        raise ValueError("wildcard q=* needs an instance that records q")
    if value == "*":
        raise ValueError(f"wildcard {key}=*: only q=* can be bound from an instance")
    return parse_int(value, f"parameter {key}")


def catalog(qs: Sequence[int] = (1, 2)) -> list[Mechanism]:
    out: list[Mechanism] = [greedy_mechanism()]
    for q in qs:
        out.append(ls_mechanism(q))
        out.append(nu_mechanism(q))
    out.append(io_mechanism())
    return out
