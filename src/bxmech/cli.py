"""Batch command-line front-end.

Commands: gen, solve, fuzz, sweep, profile-lambda.  Outputs are canonical
(sorted keys, rationals as "p/q" with a display-only decimal column), so a
repeated invocation with the same seed produces byte-identical files.

Exit codes: 0 success, 2 bound violation or manipulation found, 1 usage or
I/O error, or an instance over an exhaustive-search cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Iterator, Sequence

from .canonical import canonical_json
from .core import (
    LengthFunction,
    cycle_sort_key,
    parse_int,
    parse_rational,
    rational_str,
)
from .exact import EXACT_NODE_CAP, ExactSearchCapExceeded
from .instances import (
    InstanceBundle,
    bundle_to_text,
    gen_comb,
    gen_double_comb,
    gen_fan,
    gen_gbad,
    gen_ladder,
    gen_nonrealizable,
    gen_random,
    load_instance,
    save_instance,
)
from .localsearch import SearchStats
from .mechanisms import Mechanism, lambda_profile, parse_mechanism
from .verification import (
    RatioReport,
    fuzz_truthfulness_nodes,
    fuzz_truthfulness_wishlists,
    measure_ratio,
)


class UsageError(ValueError):
    pass


def _parse_keyvals(text: str) -> dict[str, list[str]]:
    """Parse "h=2,v=3,lambda=1,9/10": bare tokens extend the previous key."""
    out: dict[str, list[str]] = {}
    current: str | None = None
    if not text:
        return out
    for token in text.split(","):
        if "=" in token:
            key, value = token.split("=", 1)
            if key in out:
                raise UsageError(f"repeated parameter {key}")
            out[key] = [value]
            current = key
        elif current is not None:
            out[current].append(token)
        else:
            raise UsageError(f"stray parameter {token!r}")
    return out


def _lam_from_params(params: dict[str, list[str]], k: int) -> LengthFunction:
    if "lambda" not in params:
        return LengthFunction.uniform(k)
    values = tuple(parse_rational(v, "parameter lambda") for v in params.pop("lambda"))
    return LengthFunction(k=k, values=values)


def _single(params: dict[str, list[str]], key: str) -> str:
    if key not in params:
        raise UsageError(f"missing parameter {key}")
    values = params.pop(key)
    if len(values) != 1:
        raise UsageError(f"parameter {key} takes one value, got {','.join(values)!r}")
    return values[0]


def _single_int(params: dict[str, list[str]], key: str) -> int:
    return parse_int(_single(params, key), f"parameter {key}")


def _refuse_leftovers(params: dict[str, list[str]], family: str) -> None:
    """Refuse the parameters left in ``params``: :func:`_single` and
    :func:`_lam_from_params` remove each one they read, so a leftover is
    one that ``family`` does not take."""
    if params:
        raise UsageError(f"unknown parameter {next(iter(params))} for {family}")


def build_generator_spec(spec: str) -> InstanceBundle:
    family, _, rest = spec.partition(":")
    return _build_generator(family, _parse_keyvals(rest))


def _build_generator(family: str, params: dict[str, list[str]]) -> InstanceBundle:
    """The instance of ``family`` with ``params``; every parameter must be
    one the family reads."""
    bundle = _generate(family, params)
    _refuse_leftovers(params, family)
    return bundle


def _generate(family: str, params: dict[str, list[str]]) -> InstanceBundle:
    if family == "comb" or family == "dcomb":
        h = _single_int(params, "h")
        v = _single_int(params, "v")
        k = _single_int(params, "k") if "k" in params else v
        if "lambda" not in params:
            raise UsageError(f"{family} requires an explicit lambda")
        lam = _lam_from_params(params, k)
        maker = gen_comb if family == "comb" else gen_double_comb
        return maker(h, v, k, lam)
    if family == "gbad":
        return gen_gbad(_single_int(params, "q"))
    if family == "fan":
        k = _single_int(params, "k")
        return gen_fan(k, _lam_from_params(params, k))
    if family == "ladder":
        k = _single_int(params, "k")
        return gen_ladder(k, _single_int(params, "N"), _lam_from_params(params, k))
    if family == "nonrealizable":
        return gen_nonrealizable()
    if family == "rand":
        n = _single_int(params, "n")
        k = _single_int(params, "k") if "k" in params else 3
        p_text = _single(params, "p") if "p" in params else "0.5"
        try:
            p = float(p_text)
        except ValueError:
            raise UsageError(f"parameter p must be a number, got {p_text!r}") from None
        seed = _single_int(params, "seed") if "seed" in params else 0
        return gen_random(n, k, p, seed, _lam_from_params(params, k))
    raise UsageError(f"unknown generator family {family!r}")


def expand_generator_family(spec: str) -> Iterator[InstanceBundle]:
    """The instances of a generator spec, one per combination of the values
    of its range parameters like q=1..4, each built when it is reached."""
    family, _, rest = spec.partition(":")
    expansions: list[dict[str, list[str]]] = [{}]
    for key, values in _parse_keyvals(rest).items():
        if len(values) == 1 and ".." in values[0]:
            lo_text, hi_text = values[0].split("..", 1)
            lo = parse_int(lo_text, f"parameter {key}")
            hi = parse_int(hi_text, f"parameter {key}")
            choices = [[str(x)] for x in range(lo, hi + 1)]
            if not choices:
                raise UsageError(f"empty range {key}={values[0]}")
        else:
            choices = [values]
        expansions = [
            {**base, key: choice} for base in expansions for choice in choices
        ]
    for combo in expansions:
        yield _build_generator(family, combo)


def _resolve_mechanism(
    spec: str, bundle: InstanceBundle, node_cap: int, seed: int
) -> Mechanism:
    if "q=*" in spec:
        params = bundle.params or {}
        if "q" not in params:
            raise UsageError(
                f"mechanism {spec!r} uses q=* but instance {bundle.name} has no q"
            )
        spec = spec.replace("q=*", f"q={params['q']}")
    return parse_mechanism(spec, node_cap, seed)


def _utilities_rows(graph, chosen) -> list[list[object]]:
    # chosen is independent: each agent partakes in at most one of its cycles
    served: dict[int, str] = {}
    for v in chosen:
        value = rational_str(graph.lam(v.length))
        for a in v.agents:
            served[a] = value
    zero = rational_str(Fraction(0))
    return [[agent, served.get(agent, zero)] for agent in range(1, graph.n + 1)]


def _ratio_json(report: RatioReport) -> dict:
    return {
        "instance": report.instance,
        "mechanism": report.mechanism,
        "weight": rational_str(report.mechanism_weight),
        "oracle": rational_str(report.oracle_weight),
        "ratio": report.ratio_str(),
        "ratio_decimal": None if report.ratio is None else float(report.ratio),
        "bound": None if report.bound is None else rational_str(report.bound),
        "within_bound": report.within_bound,
    }


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_gen(args: argparse.Namespace) -> int:
    bundle = build_generator_spec(args.spec)
    graph = bundle.graph()
    if args.out:
        save_instance(bundle, args.out)
        target = args.out
    else:
        sys.stdout.write(bundle_to_text(bundle))
        target = "<stdout>"
    sys.stderr.write(
        f"{bundle.name}: n={bundle.n} agents, {graph.num_nodes} cycles -> {target}\n"
    )
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    bundle = load_instance(args.instance)
    graph = bundle.graph()
    mech = _resolve_mechanism(args.mechanism, bundle, args.oracle_cap, args.seed)
    if "zeta" in mech.params and bundle.wishes is None:
        raise UsageError("randomized wrapper needs a wish-list instance")
    warnings: list[str] = []
    stats = SearchStats()
    answer = mech.solve(graph, stats)
    chosen = graph.set_of(answer)
    welfare = graph.weight(chosen)
    try:
        ratio = measure_ratio(
            answer,
            graph,
            mech.claimed_bound(bundle.lam),
            instance=bundle.name,
            mechanism=mech.name,
            node_cap=args.oracle_cap,
        )
        ratio_doc: dict | None = _ratio_json(ratio)
    except ExactSearchCapExceeded as exc:
        warnings.append(f"oracle skipped: {exc}")
        ratio_doc = None
    report = {
        "instance": bundle.name,
        "mechanism": mech.name,
        "exchange": [list(c.agents) for c in sorted(chosen, key=cycle_sort_key)],
        "welfare": rational_str(welfare),
        "welfare_decimal": float(welfare),
        "utilities": _utilities_rows(graph, chosen),
        "trace": {
            "iterations": stats.iterations,
            "firings": dict(sorted(stats.firings.items())),
        },
        "ratio_report": ratio_doc,
        "warnings": warnings,
    }
    _emit(canonical_json(report) + "\n", args.out)
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    bundle = load_instance(args.instance)
    graph = bundle.graph()
    mech = _resolve_mechanism(args.mechanism, bundle, args.oracle_cap, args.seed)
    if "zeta" in mech.params:
        raise UsageError("fuzzing targets deterministic mechanisms")
    findings = fuzz_truthfulness_nodes(
        mech.solve, graph, budget=args.budget, seed=args.seed
    )
    if bundle.wishes is not None:
        findings += fuzz_truthfulness_wishlists(
            mech.solve,
            bundle.wishes,
            bundle.lam,
            budget=args.budget,
            seed=args.seed,
            graph=graph,
        )
    lines = []
    for f in findings:
        doc = f.to_json_dict()
        doc["instance"] = bundle.name
        doc["mechanism"] = mech.name
        lines.append(json.dumps(doc, sort_keys=True))
    _emit("".join(line + "\n" for line in lines), args.out)
    return 2 if findings else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    override_bound = None if args.bound is None else parse_rational(args.bound, "--bound")
    # an oracle/mechanism ratio is at least 1, so a lower bound flags every row
    if override_bound is not None and override_bound < 1:
        raise UsageError(f"--bound must be at least 1, got {args.bound}")
    rows: list[dict] = []
    violation = False
    for bundle in expand_generator_family(args.family):
        graph = bundle.graph()
        for mech_spec in args.mechanisms.split("+"):
            mech = _resolve_mechanism(
                mech_spec.strip(), bundle, args.oracle_cap, args.seed
            )
            if "zeta" in mech.params:
                raise UsageError("sweep targets deterministic mechanisms")
            bound = (
                override_bound
                if override_bound is not None
                else mech.claimed_bound(bundle.lam)
            )
            report = measure_ratio(
                mech.solve(graph),
                graph,
                bound,
                instance=bundle.name,
                mechanism=mech.name,
                node_cap=args.oracle_cap,
            )
            if not report.within_bound:
                violation = True
            rows.append(_ratio_json(report))
    rows.sort(key=lambda r: (r["instance"], r["mechanism"]))
    if args.format == "json":
        text = canonical_json(rows) + "\n"
    else:
        header = "instance,mechanism,weight,oracle,ratio,bound,within_bound,ratio_decimal"
        lines = [header]
        for r in rows:
            lines.append(
                ",".join(
                    [
                        r["instance"],
                        r["mechanism"],
                        r["weight"],
                        r["oracle"],
                        r["ratio"],
                        "none" if r["bound"] is None else r["bound"],
                        "true" if r["within_bound"] else "false",
                        "" if r["ratio_decimal"] is None else repr(r["ratio_decimal"]),
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 2 if violation else 0


def cmd_profile_lambda(args: argparse.Namespace) -> int:
    params = _parse_keyvals(args.spec)
    k = _single_int(params, "k")
    lam = _lam_from_params(params, k)
    _refuse_leftovers(params, "profile-lambda")
    profile = lambda_profile(lam)
    doc = {
        "k": k,
        "lambda": [rational_str(v) for v in lam.values],
        "uniform": lam.is_uniform,
        "ell_star": profile.ell_star,
        "tumbles": list(profile.tumbles),
        "equal_classes": {
            str(ell): list(cls) for ell, cls in sorted(profile.equal_classes.items())
        },
        "rho": None if profile.rho is None else rational_str(profile.rho),
        "rho_decimal": None if profile.rho is None else float(profile.rho),
        "rho_parts": None
        if profile.rho_parts is None
        else [rational_str(x) for x in profile.rho_parts],
        "exceeds_k_minus_1": profile.flat_tail,
    }
    _emit(canonical_json(doc) + "\n", args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _add_global_flags(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # accepted both before and after the subcommand; the later mention wins
    suppress = argparse.SUPPRESS
    parser.add_argument("--seed", type=int, default=0 if top_level else suppress)
    parser.add_argument(
        "--oracle-cap", type=int, default=EXACT_NODE_CAP if top_level else suppress
    )
    parser.add_argument("--out", type=str, default=None if top_level else suppress)
    parser.add_argument(
        "--format",
        choices=["json", "csv"],
        default="csv" if top_level else suppress,
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it
    (parsing keeps no state in the parser)."""
    parser = _Parser(prog="bxmech", description=__doc__)
    _add_global_flags(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("spec")
    p_gen.set_defaults(run=cmd_gen)

    p_solve = sub.add_parser("solve", help="run a mechanism on an instance")
    p_solve.add_argument("instance")
    p_solve.add_argument("mechanism")
    p_solve.set_defaults(run=cmd_solve)

    p_fuzz = sub.add_parser("fuzz", help="hunt for profitable manipulations")
    p_fuzz.add_argument("instance")
    p_fuzz.add_argument("mechanism")
    p_fuzz.add_argument("--budget", type=int, default=64)
    p_fuzz.set_defaults(run=cmd_fuzz)

    p_sweep = sub.add_parser("sweep", help="ratio sweep over a generator family")
    p_sweep.add_argument("family")
    p_sweep.add_argument("mechanisms", help="mechanism specs joined with '+'")
    p_sweep.add_argument("--bound", type=str, default=None)
    p_sweep.set_defaults(run=cmd_sweep)

    p_prof = sub.add_parser("profile-lambda", help="length-function quantities")
    p_prof.add_argument("spec", help="k=<int>,lambda=<r>,<r>,...")
    p_prof.set_defaults(run=cmd_profile_lambda)

    for p in (p_gen, p_solve, p_fuzz, p_sweep, p_prof):
        _add_global_flags(p, top_level=False)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for flag in ("budget", "oracle_cap"):
            value = getattr(args, flag, 0)
            if value < 0:
                name = flag.replace("_", "-")
                raise UsageError(f"--{name} must be non-negative, got {value}")
        return args.run(args)
    except (UsageError, ValueError, OSError, ExactSearchCapExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
