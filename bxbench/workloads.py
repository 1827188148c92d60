"""The three workloads: their inputs, their ops and each op's correctness check.

Inputs come from ``--seed`` alone and are generated in set-up.  A workload
is a list of periods; every period holds the same mix of ops, and the loop in
run.py measures whole periods only, so every run, however fast the program,
measures the same mix.

The cost of an op on a random graph is heavy-tailed: a harness slice of 126
fresh random instances, one per corpus cell, took from 36 s to 115 s
depending on the seed, and renaming the agents of a fixed slice still moved
ops_per_s by 18% between seeds, because it changes which agents are served
and so which ones the fuzzers search.  So the seed varies what leaves the
amount of work alone:

* ``harness`` runs the acceptance corpus's own instances; the seed draws the
  fuzzers' and the stability check's strategy seeds for each period.
* ``solve-large`` renames the agents of fixed base instances by a seeded
  random permutation in each period.  That changes node order, every
  tie-break and the outputs, but not an instance's size.
* ``sweep`` cannot take such an instance (the CLI builds it from a ``rand:``
  spec), so it draws fresh graphs.  Its end-to-end figures moved by 11-17%
  between seeds in 20 s runs, so BENCHMARK.json does not list it; it is run
  by hand, traced, for its per-layer counts.

bxmech is imported inside the set-up functions, never at module level:
run.py re-imports it for every set-up repetition it times.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Tier-1 acceptance constants (tests/test_acceptance.py, criteria 6 and 7)
FUZZ_BUDGET = 32
FUZZ_SEED = 20_240_601
INPA_BUDGET, INPA_LIMIT = 12, 10

HARNESS_PERIODS = 16
SWEEP_PERIODS = 16
# enough periods that a 50 s run (16-25 periods on a 2-core 2.1 GHz Xeon VM)
# repeats few ops: an ls:q=2 solve costs 2-3x more under one renaming than
# under another, so the tail percentiles settle only over many renamings
SOLVE_PERIODS = 20

SWEEP_MECHANISMS = "greedy+ls:q=2+nu:q=2+io"
SWEEP_DP_P = 0.15  # DP-stratum density: sparse enough that a 16-agent op stays near a second
SOLVE_N, SOLVE_K, SOLVE_P = 250, 3, 0.03
# base instances: four flat ones (nu:q=2, about 50 ms) to each uniform one
# (ls:q=2, about 350 ms).  The median op then sits inside the nu solves and
# p90 near the median ls solve, not in a gap or a tail of the mix, and ls
# solves still take most of the time
SOLVE_BASES = 20
SOLVE_LS_EVERY = 5


@dataclass(frozen=True)
class Check:
    text: str  # canonical output, digested
    problem: str | None = None
    kind: str = "check"  # "check": wrong output; "exit": non-zero exit code


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable  # run(tracer or None) -> result; the timed part
    check: Callable  # check(result) -> Check; not timed


@dataclass(frozen=True)
class Plan:
    periods: list[list[Op]]
    final_check: Callable[[], list[str]] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, Path], Plan]
    expected_spans: tuple[str, ...]


def _bx():
    names = ("core", "cli", "instances", "mechanisms", "verification")
    return {name: importlib.import_module(f"bxmech.{name}") for name in names}


def lam_for(core, kind: str, k: int):
    """The acceptance corpus's length functions."""
    if kind == "uniform":
        return core.LengthFunction.uniform(k)
    if kind == "flat":
        return core.LengthFunction.of(k, *(["1"] + ["9/10"] * (k - 2)))
    return core.LengthFunction.of(
        k, *(["1"] + [f"1/{2 ** i}" for i in range(1, k - 1)])
    )


def relabel(instances, bundle, rng: random.Random, tag: str):
    """The bundle with its agents renamed by a random permutation, and the
    permutation: agent a is renamed new_id[a - 1]."""
    n = bundle.n
    new_id = list(range(1, n + 1))
    rng.shuffle(new_id)
    wishes = {
        new_id[a - 1]: [new_id[b - 1] for b in bundle.wishes.of(a)]
        for a in range(1, n + 1)
    }
    renamed = instances.InstanceBundle(
        name=f"{bundle.name}-{tag}",
        n=n,
        lam=bundle.lam,
        wishes=bundle.wishes.from_dict(n, wishes),
        params=bundle.params,
    )
    return renamed, new_id


def _capture_cli(bx, argv: list[str]):
    def run(tracer):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bx["cli"].main(argv)
        return code, out.getvalue(), err.getvalue()

    return run


def _exit_problem(code: int, stdout: str, stderr: str) -> Check | None:
    if code == 0:
        return None
    return Check(stdout, f"exit {code}: {stderr.strip()[:200]}", "exit")


# ---------------------------------------------------------------------------
# harness: criteria 6 and 7 of the acceptance suite, one library call per op


def _harness_base(bx) -> list:
    """One acceptance-corpus entry per (k, p, kind), n cycling over 4..10.

    The corpus seeds entry idx of a (k, p, kind) cell as
    idx * 7919 + k * 13 + int(p * 10), with n = 4 + idx % 7; the base takes
    idx = j % 7 for the j-th cell, so n runs 4, 5, ..., 10, 4, ... across the
    cells.
    """
    core, instances = bx["core"], bx["instances"]
    base = []
    cells = [
        (k, p, kind)
        for k in (3, 4)
        for p in (0.2, 0.4, 0.6)
        for kind in ("uniform", "flat", "steep")
    ]
    for j, (k, p, kind) in enumerate(cells):
        idx = j % 7
        bundle = instances.gen_random(
            4 + idx, k, p, idx * 7919 + k * 13 + int(p * 10), lam=lam_for(core, kind, k)
        )
        base.append((kind, bundle))
    return base


def _fuzz_check(bx):
    def check(findings) -> Check:
        text = bx["verification"].findings_to_json_lines(findings)
        if findings:
            return Check(text, f"{len(findings)} manipulation findings")
        return Check(text)

    return check


def _inpa_check(stable: bool) -> Check:
    return Check("true" if stable else "false", None if stable else "instability")


def _harness_ops(bx, kind: str, bundle, fuzz_seed: int, inpa_seed: int) -> list[Op]:
    mech, verification = bx["mechanisms"], bx["verification"]
    uniform = kind == "uniform"
    fuzzed = [mech.greedy_mechanism()]
    fuzzed += [mech.ls_mechanism(q) if uniform else mech.nu_mechanism(q) for q in (1, 2)]
    if not uniform and bundle.n <= 9:
        fuzzed.append(mech.io_mechanism())
    ops = []
    fuzz_check = _fuzz_check(bx)

    def fuzz_nodes(m, budget, seed, limit):
        def run(tracer):
            solver = m.solve
            if tracer is not None:
                solver = tracer.count_calls("verification.fuzz.solver_calls", solver)
            return verification.fuzz_truthfulness_nodes(
                solver, bundle.graph(), budget=budget, seed=seed, exhaustive_limit=limit
            )

        return run

    def fuzz_wishlists(m):
        def run(tracer):
            solver = m.solve
            if tracer is not None:
                solver = tracer.count_calls("verification.fuzz.solver_calls", solver)
            return verification.fuzz_truthfulness_wishlists(
                solver, bundle.wishes, bundle.lam, budget=FUZZ_BUDGET, seed=fuzz_seed
            )

        return run

    def inpa(solver_of):
        def run(tracer):
            solver = solver_of()
            if tracer is not None:
                solver = tracer.count_calls("verification.inpa.solver_calls", solver)
            return verification.test_inpa(
                solver,
                bundle.graph(),
                budget=INPA_BUDGET,
                seed=inpa_seed,
                exhaustive_limit=INPA_LIMIT,
            )

        return run

    for m in fuzzed:
        ops.append(
            Op(
                f"{bundle.name} fuzz-nodes {m.name}",
                fuzz_nodes(m, FUZZ_BUDGET, fuzz_seed, verification.EXHAUSTIVE_NODE_LIMIT),
                fuzz_check,
            )
        )
        ops.append(Op(f"{bundle.name} fuzz-wishlists {m.name}", fuzz_wishlists(m), fuzz_check))

    # solvers are looked up when the op runs, so a traced pass sees the
    # patched Mechanism.solve and run_local_search
    stable = [
        (f"greedy-phase:{j}", lambda j=j: mech.greedy_phase(j).run)
        for j in range(2, bundle.k + 1)
    ]
    ls1 = mech.ls_mechanism(1)
    stable.append((ls1.name, lambda: ls1.solve))
    for ell in mech.lambda_profile(bundle.lam).tumbles:
        opt = mech.opt_mechanism(ell)
        stable.append((opt.name, lambda opt=opt: opt.solve))
    if not uniform:
        nu1 = mech.nu_mechanism(1)
        stable.append((nu1.name, lambda: nu1.solve))
    for name, solver_of in stable:
        ops.append(Op(f"{bundle.name} inpa {name}", inpa(solver_of), _inpa_check))
    if uniform:
        # criterion 7's consistency check: stability implies silent node fuzzing
        ops.append(
            Op(
                f"{bundle.name} fuzz-nodes-small {ls1.name}",
                fuzz_nodes(ls1, INPA_BUDGET, inpa_seed, INPA_LIMIT),
                fuzz_check,
            )
        )
    return ops


def make_harness(seed: int, work_dir: Path) -> Plan:
    bx = _bx()
    rng = random.Random(f"harness:{seed}")
    base = _harness_base(bx)
    periods = []
    for _ in range(HARNESS_PERIODS):
        fuzz_seed, inpa_seed = rng.randrange(2**31), rng.randrange(2**31)
        ops: list[Op] = []
        for kind, bundle in base:
            ops.extend(_harness_ops(bx, kind, bundle, fuzz_seed, inpa_seed))
        periods.append(ops)

    def broken_swap_caught() -> list[str]:
        """Criterion 6's sanity check: the non-loyal swap specimens must be
        caught on the ladder witness."""
        witness = bx["instances"].gen_ladder(3, 1).graph()
        problems = []
        for q in (1, 2):
            broken = bx["mechanisms"].broken_swap_algorithm(q)
            found = bx["verification"].fuzz_truthfulness_nodes(
                broken.run, witness, budget=FUZZ_BUDGET, seed=FUZZ_SEED
            )
            if not found:
                problems.append(f"broken swap q={q} evaded the node fuzzer")
        return problems

    return Plan(periods, broken_swap_caught)


# ---------------------------------------------------------------------------
# sweep: one ratio-table row set per op, alternating the DP and B&B strata


def _flat_lambda(k: int) -> str:
    return ",".join(["1"] + ["9/10"] * (k - 2))


def _sweep_check(result) -> Check:
    code, stdout, stderr = result
    try:
        rows = json.loads(stdout)
    except ValueError:
        return _exit_problem(code, stdout, stderr) or Check(stdout, "output is not JSON")
    mechanisms = len(SWEEP_MECHANISMS.split("+"))
    if len(rows) != mechanisms:
        return Check(stdout, f"{len(rows)} rows, expected {mechanisms}")
    for row in rows:
        if not row["within_bound"]:
            return Check(stdout, f"{row['instance']} {row['mechanism']}: ratio {row['ratio']} over bound {row['bound']}")
        if Fraction(row["oracle"]) < Fraction(row["weight"]):
            return Check(stdout, f"{row['instance']} {row['mechanism']}: oracle below mechanism")
    return _exit_problem(code, stdout, stderr) or Check(stdout)


def make_sweep(seed: int, work_dir: Path) -> Plan:
    bx = _bx()
    rng = random.Random(f"sweep:{seed}")
    cells = [(n, k) for n in range(12, 17) for k in (3, 4)]
    periods = []
    for _ in range(SWEEP_PERIODS):
        ops = []
        for n, k in cells:
            # DP stratum: n <= 16 agents, so the oracle runs the subset DP
            specs = [
                f"rand:n={n},k={k},p={SWEEP_DP_P},seed={rng.randrange(2**31)},lambda={_flat_lambda(k)}",
                # B&B stratum: 28 agents; graphs over the oracle cap stay in
                f"rand:n=28,k=3,p=0.14,seed={rng.randrange(2**31)},lambda={_flat_lambda(3)}",
            ]
            for spec in specs:
                argv = ["sweep", spec, SWEEP_MECHANISMS, "--format", "json"]
                ops.append(Op(f"sweep {spec}", _capture_cli(bx, argv), _sweep_check))
        periods.append(ops)
    return Plan(periods)


# ---------------------------------------------------------------------------
# solve-large: one solve of a large sparse instance file per op


def _solve_check(bundle, new_id: list[int]):
    """The reported exchange must be an independent set of the instance's
    conflict graph: cycles on the agents' wish lists, at most k long, and
    pairwise agent-disjoint; its welfare must be the sum of l * lambda(l).

    The instance is ``bundle`` with agent a renamed ``new_id[a - 1]``; the
    check maps names back instead of holding every renamed bundle."""
    old_id = [0] * bundle.n
    for a, new in enumerate(new_id, start=1):
        old_id[new - 1] = a

    def check(result) -> Check:
        code, stdout, stderr = result
        problem = _exit_problem(code, stdout, stderr)
        if problem is not None:
            return problem
        report = json.loads(stdout)
        seen: set[int] = set()
        welfare = Fraction(0)
        for cycle in report["exchange"]:
            if not 2 <= len(cycle) <= bundle.k:
                return Check(stdout, f"cycle {cycle} has bad length")
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if old_id[b - 1] not in bundle.wishes.of(old_id[a - 1]):
                    return Check(stdout, f"cycle {cycle} uses arc {a}->{b} not wished")
            if seen & set(cycle):
                return Check(stdout, f"cycle {cycle} shares an agent")
            seen.update(cycle)
            welfare += len(cycle) * bundle.lam(len(cycle))
        if Fraction(report["welfare"]) != welfare:
            return Check(stdout, f"welfare {report['welfare']} != {welfare}")
        return Check(stdout)

    return check


def make_solve_large(seed: int, work_dir: Path) -> Plan:
    bx = _bx()
    core, instances = bx["core"], bx["instances"]
    rng = random.Random(f"solve-large:{seed}")
    base = []
    for b in range(SOLVE_BASES):
        kind, mech = ("uniform", "ls:q=2") if b % SOLVE_LS_EVERY == 0 else ("flat", "nu:q=2")
        lam = lam_for(core, kind, SOLVE_K)
        base.append((mech, instances.gen_random(SOLVE_N, SOLVE_K, SOLVE_P, b, lam=lam)))
    periods = []
    for period in range(SOLVE_PERIODS):
        ops = []
        for b, (mech, bundle) in enumerate(base):
            renamed, new_id = relabel(instances, bundle, rng, f"s{seed}-p{period}")
            path = work_dir / f"solve-{period}-{b}.json"
            instances.save_instance(renamed, path)
            argv = ["solve", str(path), mech]
            ops.append(
                Op(f"solve {renamed.name} {mech}", _capture_cli(bx, argv), _solve_check(bundle, new_id))
            )
        periods.append(ops)
    return Plan(periods)


_COMMON_SPANS = (
    "cyclegraph.enumerate",
    "cyclegraph.build",
    "cyclegraph.remove_nodes",
    "exact.mwis",
    "localsearch.run",
    "localsearch.rule.expand",
    "localsearch.rule.all_for_q",
    "mechanisms.solve",
)

WORKLOADS = {
    "harness": Workload(
        "harness",
        make_harness,
        _COMMON_SPANS + ("verification.fuzz", "verification.inpa"),
    ),
    "sweep": Workload(
        "sweep", make_sweep, _COMMON_SPANS + ("verification.oracle", "cli.main")
    ),
    "solve-large": Workload(
        "solve-large",
        make_solve_large,
        _COMMON_SPANS + ("verification.oracle", "instances.load", "cli.main"),
    ),
}
