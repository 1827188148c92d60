import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bxmech
import bxmech.cli
import bxmech.cyclegraph
from bxmech.cli import build_generator_spec, build_parser, expand_generator_family, main
from bxmech.instances import gen_ladder, gen_nonrealizable, gen_random, save_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(tmp_path, spec, name="inst.json"):
    path = tmp_path / name
    assert main(["gen", spec, "--out", str(path)]) == 0
    return path


class TestGen:
    def test_writes_instance_and_reports_counts(self, tmp_path, capsys):
        path = tmp_path / "comb.json"
        code, out, err = run(
            capsys, "gen", "comb:h=2,v=3,k=3,lambda=1,9/10", "--out", str(path)
        )
        assert code == 0
        assert "n=6 agents, 3 cycles" in err
        doc = json.loads(path.read_text())
        assert doc["format"] == "bx-v1"
        assert doc["n"] == 6

    def test_gbad_size(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "gbad:q=1", "--out", str(tmp_path / "g.json")
        )
        assert code == 0
        assert "n=15 agents" in err

    def test_bad_spec_exits_one(self, capsys):
        code, _, err = run(capsys, "gen", "rand:n=0")
        assert code == 1
        assert "error" in err

    def test_unknown_family_exits_one(self, capsys):
        assert run(capsys, "gen", "mystery:q=1")[0] == 1

    def test_fan_takes_uniform_lambda_by_default(self, capsys):
        code, out, err = run(capsys, "gen", "fan:k=3")
        assert code == 0
        assert json.loads(out)["lambda"] == ["1/1", "1/1"]
        assert err == "fan-k3: n=7 agents, 3 cycles -> <stdout>\n"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("gbad:q=1,2", "parameter q takes one value, got '1,2'"),
            ("rand:n=5,p=x", "parameter p must be a number, got 'x'"),
        ],
    )
    def test_bad_parameter_value_exits_one(self, capsys, spec, message):
        code, out, err = run(capsys, "gen", spec)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            # each of these used to exit 0: the misspelt seed gave seed 0,
            # gbad ignored k, and the sweep printed every row three times
            (["gen", "rand:n=5,k=3,p=0.5,sed=3"], "unknown parameter sed for rand"),
            (["gen", "gbad:q=1,k=7"], "unknown parameter k for gbad"),
            (["gen", "nonrealizable:n=4"], "unknown parameter n for nonrealizable"),
            (["profile-lambda", "k=3,lambda=1,1/2,zz=4"], "unknown parameter zz for profile-lambda"),
            (["sweep", "gbad:q=1..2,foo=1..3", "ls:q=*"], "unknown parameter foo for gbad"),
        ],
    )
    def test_unknown_parameter_exits_one(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


class TestSolve:
    def test_gbad_with_ls(self, tmp_path, capsys):
        path = gen_file(tmp_path, "gbad:q=1")
        code, out, _ = run(capsys, "solve", str(path), "ls:q=1")
        assert code == 0
        doc = json.loads(out)
        assert doc["welfare"] == "6/1"
        assert doc["ratio_report"]["ratio"] == "5/2"
        assert doc["ratio_report"]["within_bound"] is True
        assert doc["trace"]["iterations"] == 2

    def test_comb_with_greedy(self, tmp_path, capsys):
        path = gen_file(tmp_path, "comb:h=2,v=3,k=3,lambda=1,9/10")
        code, out, _ = run(capsys, "solve", str(path), "greedy")
        doc = json.loads(out)
        assert code == 0
        assert doc["exchange"] == [[1, 2]]
        assert doc["welfare"] == "2/1"

    def test_empty_instance(self, tmp_path, capsys):
        path = gen_file(tmp_path, "rand:n=4,p=0,seed=1")
        code, out, _ = run(capsys, "solve", str(path), "greedy")
        doc = json.loads(out)
        assert code == 0
        assert doc["exchange"] == []
        assert doc["welfare"] == "0/1"

    def test_oracle_cap_downgrades_with_warning(self, tmp_path, capsys):
        path = gen_file(tmp_path, "rand:n=18,p=0.6,seed=3")
        code, out, _ = run(capsys, "solve", str(path), "greedy", "--oracle-cap", "5")
        doc = json.loads(out)
        assert code == 0
        assert doc["ratio_report"] is None
        assert any("oracle" in w for w in doc["warnings"])

    def test_oracle_over_default_cap_gives_null_report(self, tmp_path, capsys):
        # 24 agents rule out the subset DP and the graph exceeds the oracle's
        # default cap: the refusal reaches the report, not a cached answer
        path = gen_file(tmp_path, "rand:n=24,k=3,p=0.5,seed=1")
        capsys.readouterr()
        code, out, _ = run(capsys, "solve", str(path), "greedy")
        doc = json.loads(out)
        assert code == 0
        assert doc["ratio_report"] is None
        assert any("oracle" in w for w in doc["warnings"])

    def test_mechanism_over_exact_cap_exits_one(self, tmp_path, capsys):
        # 24 agents rule out the subset DP, and io's class solves exceed the cap
        path = gen_file(tmp_path, "rand:n=24,k=3,p=0.5,seed=1")
        capsys.readouterr()
        code, out, err = run(capsys, "solve", str(path), "io")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "cap" in err

    def test_oracle_cap_reaches_io(self, tmp_path, capsys):
        # 18 agents rule out the subset DP; io's 50-node class fits a cap of 60
        path = gen_file(tmp_path, "rand:n=18,k=3,p=0.3,seed=5")
        capsys.readouterr()
        code, out, _ = run(capsys, "solve", str(path), "io", "--oracle-cap", "60")
        assert code == 0
        assert json.loads(out)["ratio_report"]["ratio"] == "1/1"

    def test_lower_oracle_cap_refuses_io(self, tmp_path, capsys):
        path = gen_file(tmp_path, "rand:n=20,k=3,p=0.25,seed=5")
        capsys.readouterr()
        code, out, err = run(capsys, "solve", str(path), "io", "--oracle-cap", "10")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "cap of 10 nodes" in err

    def test_nu_tail_firings(self, tmp_path, capsys):
        path = gen_file(tmp_path, "rand:n=10,k=3,p=0.35,seed=13,lambda=1,9/10")
        capsys.readouterr()
        code, out, _ = run(capsys, "solve", str(path), "nu:q=1")
        assert code == 0
        assert json.loads(out)["trace"]["firings"] == {
            "all-for-1[>2]": 1,
            "expand[>2]": 1,
            "expand[len=2]": 1,
        }

    def test_randomized_mechanism(self, tmp_path, capsys):
        path = gen_file(tmp_path, "rand:n=6,p=0.7,seed=2")
        code, out, _ = run(
            capsys, "solve", str(path), "rand:zeta=1/10:base=greedy", "--seed", "5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mechanism"].startswith("rand:zeta=1/10")

    def test_randomized_base_keeps_node_order(self, tmp_path, capsys):
        # seed 1 draws the base branch for zeta = 1/1000, so the wrapper must
        # return exactly what its base returns on the instance's node order
        bundle = gen_random(8, 3, 0.5, 7)
        order = list(bundle.graph().nodes)
        random.Random(0).shuffle(order)
        path = tmp_path / "shuffled.json"
        save_instance(dataclasses.replace(bundle, node_order=tuple(order)), path)
        docs = []
        for spec in ("ls:q=1", "rand:zeta=1/1000:base=ls:q=1"):
            code, out, _ = run(capsys, "solve", str(path), spec, "--seed", "1")
            assert code == 0
            docs.append(json.loads(out))
        plain, wrapped = docs
        assert wrapped["exchange"] == plain["exchange"]
        assert wrapped["welfare"] == plain["welfare"] == "8/1"

    def test_randomized_mechanism_needs_wish_lists(self, tmp_path, capsys):
        path = gen_file(tmp_path, "nonrealizable")
        capsys.readouterr()
        code, out, err = run(capsys, "solve", str(path), "rand:zeta=1/2:base=greedy")
        assert code == 1 and out == ""
        assert err == "error: randomized wrapper needs a wish-list instance\n"

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda doc: {k: v for k, v in doc.items() if k != "n"}, "no 'n' field"),
            (lambda doc: {**doc, "wishes": doc["wishes"][:-1]}, "expected 6 wish lists, got 5"),
            (lambda doc: [doc], "must be a JSON object, got list"),
            (lambda doc: {**doc, "n": None}, "'n' must be an integer"),
            (lambda doc: {**doc, "wishes": [1] * 6}, "list of integer lists"),
            (lambda doc: {**doc, "lambda": ["1", "1/0"]}, "zero denominator"),
            (lambda doc: {**doc, "lambda": [1, "9/10"]}, "'lambda' must be a list of rational strings"),
            (lambda doc: {**doc, "params": ["q"]}, "'params' must be an object or null"),
        ],
        ids=[
            "no-n", "short-wishes", "top-level-list", "null-n", "flat-wishes", "zero-den",
            "int-lambda", "list-params",
        ],
    )
    def test_malformed_instance_exits_one(self, tmp_path, capsys, damage, message):
        # a damaged file is an input error, reported without a traceback
        doc = json.loads(gen_file(tmp_path, "rand:n=6,p=0.5,seed=4").read_text())
        capsys.readouterr()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(damage(doc)))
        code, out, err = run(capsys, "solve", str(path), "greedy")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("nu:q=x", "parameter q must be an integer, got 'x'"),
            ("nu:q=", "parameter q must be an integer, got ''"),
            (
                "rand:zeta=x:base=greedy",
                "parameter zeta must be p/q or an integer, got 'x'",
            ),
        ],
    )
    def test_bad_parameter_value_exits_one(self, tmp_path, capsys, spec, message):
        path = gen_file(tmp_path, "rand:n=6,k=3,p=0.5,seed=1,lambda=1,9/10")
        capsys.readouterr()
        code, out, err = run(capsys, "solve", str(path), spec)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_missing_file_exits_one(self, capsys):
        assert run(capsys, "solve", "/nonexistent.json", "greedy")[0] == 1

    @pytest.mark.parametrize("q", [0, -1])
    def test_q_below_one_exits_one(self, tmp_path, capsys, q):
        # refused when the spec is parsed: before sweep computes the claimed
        # bound, which divides by q, and on every lottery draw, including
        # the draws that never run the base
        family = "rand:n=6,k=3,p=0.5,lambda=1,1/2"
        path = gen_file(tmp_path, family)
        capsys.readouterr()
        runs = [
            ("solve", str(path), f"ls:q={q}"),
            ("solve", str(path), f"nu:q={q}"),
            ("sweep", family, f"nu:q={q}"),
        ] + [
            ("--seed", str(seed), "solve", str(path), f"rand:zeta=99/100:base=nu:q={q}")
            for seed in range(6)
        ]
        for argv in runs:
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (1, "", f"error: q must be positive, got {q}\n"), argv

    def test_negative_oracle_cap_exits_one(self, tmp_path, capsys):
        path = gen_file(tmp_path, "rand:n=6,k=3,p=0.5,seed=1")
        capsys.readouterr()
        for argv in (
            ("solve", str(path), "greedy", "--oracle-cap", "-3"),
            ("--oracle-cap", "-3", "solve", str(path), "greedy"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err == "error: --oracle-cap must be non-negative, got -3\n"


class TestFuzz:
    def test_clean_mechanism_exits_zero(self, tmp_path, capsys):
        path = gen_file(tmp_path, "rand:n=7,p=0.5,seed=11")
        code, out, _ = run(capsys, "fuzz", str(path), "ls:q=2", "--budget", "16")
        assert code == 0
        assert out == ""

    def test_wishlist_fuzz_gets_the_node_order(self, tmp_path, capsys, monkeypatch):
        seen = []
        real = bxmech.cli.fuzz_truthfulness_wishlists

        def spy(*args, **kwargs):
            seen.append(kwargs["graph"].nodes)
            return real(*args, **kwargs)

        monkeypatch.setattr(bxmech.cli, "fuzz_truthfulness_wishlists", spy)
        path = gen_file(tmp_path, "ladder:k=3,N=1")
        run(capsys, "fuzz", str(path), "greedy", "--budget", "4")
        assert seen == [gen_ladder(3, 1).graph().nodes]

    def test_fuzz_builds_the_graph_once(self, tmp_path, capsys, monkeypatch):
        # both fuzzers attack the one graph the command loads
        path = gen_file(tmp_path, "rand:n=8,k=3,p=0.5,seed=5")
        builds = []
        real = bxmech.cyclegraph.build_graph

        def counted(*args, **kwargs):
            builds.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(bxmech.cyclegraph, "build_graph", counted)
        code, out, _ = run(capsys, "fuzz", str(path), "ls:q=1", "--budget", "8")
        assert code == 0 and out == ""
        assert builds == [8]

    def test_negative_budget_exits_one(self, tmp_path, capsys):
        path = gen_file(tmp_path, "rand:n=6,k=3,p=0.5,seed=1")
        capsys.readouterr()
        code, out, err = run(capsys, "fuzz", str(path), "ls:q=1", "--budget", "-1")
        assert code == 1 and out == ""
        assert err == "error: --budget must be non-negative, got -1\n"

    def test_randomized_mechanism_exits_one(self, tmp_path, capsys):
        path = gen_file(tmp_path, "rand:n=6,k=3,p=0.5,seed=1")
        capsys.readouterr()
        code, out, err = run(capsys, "fuzz", str(path), "rand:zeta=1/2:base=greedy")
        assert code == 1 and out == ""
        assert err == "error: fuzzing targets deterministic mechanisms\n"

    def test_manipulable_configuration_exits_two(self, tmp_path, capsys):
        # the q-swap search is not truthful once the length function drops
        path = gen_file(tmp_path, "comb:h=2,v=3,k=3,lambda=1,9/10")
        code, out, _ = run(capsys, "fuzz", str(path), "ls:q=1")
        assert code == 2
        findings = [json.loads(line) for line in out.splitlines()]
        assert findings
        assert all(f["mechanism"] == "ls:q=1" for f in findings)
        kinds = {f["kind"] for f in findings}
        assert "hide-nodes" in kinds and "wishlist-subset" in kinds


class TestWildcard:
    # solve and fuzz resolve q=* from the instance's params, as sweep does
    @pytest.mark.parametrize("command", ["solve", "fuzz"])
    def test_resolves_q_from_a_gbad_file(self, tmp_path, capsys, command):
        path = gen_file(tmp_path, "gbad:q=2")
        capsys.readouterr()
        wild = run(capsys, command, str(path), "ls:q=*")
        assert wild[0] == 0
        assert wild == run(capsys, command, str(path), "ls:q=2")

    @pytest.mark.parametrize("command", ["solve", "fuzz"])
    def test_rejects_a_file_without_q(self, tmp_path, capsys, command):
        path = gen_file(tmp_path, "rand:n=6,k=3,p=0.5,seed=1")
        capsys.readouterr()
        code, out, err = run(capsys, command, str(path), "ls:q=*")
        assert code == 1 and out == ""
        assert err == (
            "error: mechanism 'ls:q=*' uses q=* but instance rand-n6-k3-p0.5-s1 has no q\n"
        )

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_rejects_a_wildcard_other_than_q(self, tmp_path, capsys, command):
        # only q is read from the instance: opt:l=* must not run opt:l=2
        target = "gbad:q=2"
        if command == "solve":
            target = str(gen_file(tmp_path, target))
            capsys.readouterr()
        code, out, err = run(capsys, command, target, "opt:l=*")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "l=*" in err


class TestSweep:
    def test_tightness_family(self, tmp_path, capsys):
        code, out, _ = run(capsys, "sweep", "gbad:q=1..4", "ls:q=*")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith(
            "instance,mechanism,weight,oracle,ratio,bound,within_bound"
        )
        ratios = [line.split(",")[4] for line in lines[1:]]
        assert ratios == ["5/2", "7/3", "9/4", "11/5"]

    def test_impossible_bound_fails(self, capsys):
        code, out, _ = run(capsys, "sweep", "gbad:q=1..2", "ls:q=*", "--bound", "1")
        assert code == 2
        assert ",false," in out

    def test_bound_with_zero_denominator_exits_one(self, capsys):
        for bound, message in [
            ("1/0", "zero denominator in '1/0'"),
            # --bound is p/q like every other rational on the command line
            ("0.5", "--bound must be p/q or an integer, got '0.5'"),
        ]:
            code, out, err = run(capsys, "sweep", "rand:n=5", "greedy", "--bound", bound)
            assert code == 1 and out == ""
            assert err == f"error: {message}\n"
        code, out, _ = run(capsys, "sweep", "gbad:q=1", "ls:q=*", "--bound", "5/2")
        assert code == 0 and out.splitlines()[1].split(",")[5] == "5/2"

    def test_bound_below_one_exits_one(self, capsys):
        # a ratio is never below 1, so such a bound would flag optimal rows
        for bound in ("0", "-1", "1/2", "99/100"):
            code, out, err = run(
                capsys, "sweep", "rand:n=5,k=3,p=0.5,seed=1", "greedy", "--bound", bound
            )
            assert code == 1 and out == ""
            assert err == f"error: --bound must be at least 1, got {bound}\n"
        code, out, _ = run(
            capsys, "sweep", "rand:n=5,k=3,p=0.5,seed=1", "greedy", "--bound", "1"
        )
        assert code == 0 and out.splitlines()[1].split(",")[5:7] == ["1/1", "true"]

    def test_oracle_over_cap_exits_one(self, capsys):
        code, out, err = run(
            capsys, "sweep", "rand:n=24,k=3,p=0.3,seed=1", "greedy", "--oracle-cap", "10"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "cap" in err

    def test_reversed_range_exits_one(self, capsys):
        for fmt in ("csv", "json"):
            code, out, err = run(
                capsys, "--format", fmt, "sweep", "rand:n=6,k=3,p=0.5,seed=5..2", "greedy"
            )
            assert code == 1 and out == ""
            assert err == "error: empty range seed=5..2\n"

    def test_randomized_mechanism_exits_one(self, capsys):
        code, out, err = run(capsys, "sweep", "gbad:q=1", "greedy+rand:zeta=1/2:base=greedy")
        assert code == 1 and out == ""
        assert err == "error: sweep targets deterministic mechanisms\n"

    def test_repeated_parameter_exits_one(self, capsys):
        # a repeated key used to replace the earlier value silently, so this
        # sweep dropped the range and printed one row for seed 3
        code, out, err = run(capsys, "sweep", "rand:n=6,seed=1..2,seed=3", "greedy")
        assert code == 1 and out == ""
        assert err == "error: repeated parameter seed\n"
        code, _, err = run(capsys, "gen", "comb:h=2,v=3,h=3,lambda=1,9/10")
        assert code == 1 and err == "error: repeated parameter h\n"

    def test_multiple_mechanisms(self, capsys):
        code, out, _ = run(capsys, "sweep", "gbad:q=1", "greedy+ls:q=1")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_json_rows_are_the_csv_rows(self, capsys):
        argv = ["sweep", "gbad:q=1..2", "greedy+ls:q=*"]
        code, csv_out, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert out == json.dumps(rows, sort_keys=True, indent=2) + "\n"
        header, *lines = csv_out.splitlines()
        assert header.split(",") == [
            "instance", "mechanism", "weight", "oracle", "ratio", "bound",
            "within_bound", "ratio_decimal",
        ]
        assert len(rows) == len(lines) == 4
        for row, line in zip(rows, lines):
            assert line.split(",") == [
                row["instance"], row["mechanism"], row["weight"], row["oracle"],
                row["ratio"], row["bound"], "true" if row["within_bound"] else "false",
                repr(row["ratio_decimal"]),
            ]


class TestProfileLambda:
    def test_flat_tail(self, capsys):
        code, out, _ = run(capsys, "profile-lambda", "k=3,lambda=1,9/10")
        doc = json.loads(out)
        assert code == 0
        assert doc["rho"] == "27/10"
        assert doc["ell_star"] == 2
        assert doc["exceeds_k_minus_1"] is True

    def test_uniform(self, capsys):
        code, out, _ = run(capsys, "profile-lambda", "k=3")
        doc = json.loads(out)
        assert doc["rho"] is None
        assert doc["tumbles"] == [3]


class TestDeterminism:
    def test_solve_outputs_identical_bytes(self, tmp_path):
        path = gen_file(tmp_path, "rand:n=8,p=0.5,seed=4,lambda=1,9/10")
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for target in (out_a, out_b):
            assert (
                main(["solve", str(path), "nu:q=1", "--seed", "9", "--out", str(target)])
                == 0
            )
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_nu_rejects_uniform_instance(self, tmp_path, capsys):
        path = gen_file(tmp_path, "rand:n=8,p=0.5,seed=4")
        code, _, err = run(capsys, "solve", str(path), "nu:q=1")
        assert code == 1
        assert "constant length function" in err

    def test_sweep_outputs_identical_bytes(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for target in (out_a, out_b):
            assert (
                main(
                    [
                        "sweep",
                        "rand:n=7,p=0.4,seed=1..6",
                        "greedy+ls:q=2",
                        "--out",
                        str(target),
                    ]
                )
                == 0
            )
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_randomized_solve_deterministic_per_seed(self, tmp_path):
        path = gen_file(tmp_path, "rand:n=7,p=0.6,seed=12")
        outs = []
        for name in ("r1.json", "r2.json"):
            target = tmp_path / name
            assert (
                main(
                    [
                        "solve",
                        str(path),
                        "rand:zeta=1/3:base=greedy",
                        "--seed",
                        "21",
                        "--out",
                        str(target),
                    ]
                )
                == 0
            )
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]


def fresh_process_stdout(*argv):
    src = Path(bxmech.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "bxmech", *argv],
        capture_output=True,
        env=env,
        check=True,
    )
    return done.stdout


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("spec", ["nu:q=1", "rand:zeta=1/3:base=greedy"])
    def test_second_call_reads_no_flag_of_the_first(self, tmp_path, capsys, spec):
        path = gen_file(tmp_path, "rand:n=8,p=0.5,seed=4,lambda=1,9/10")
        first = tmp_path / "a.json"
        assert main(["solve", str(path), spec, "--seed", "8", "--out", str(first)]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, "solve", str(path), spec)
        # no --out and no --seed: stdout, at the default seed 0
        assert code == 0 and err == ""
        fresh = fresh_process_stdout("solve", str(path), spec)
        assert out.encode() == fresh
        if spec.startswith("rand:"):
            assert first.read_bytes() != fresh  # the seed shows in this output


# malformed input: every part drawn from texts that are wrong, or right but
# small, so that no drawn instance is large
TEXTS = ["", "x", "-1", "0", "1", "2", "3", "1/2", "1/0", "x/2", "1..2", "2..1",
         "*", "1.5", "nan", " ", "="]
MECH_SPECS = st.builds(
    lambda head, value, tail: head + value + tail,
    st.sampled_from(["", "greedy", "io", "ls:", "nu:", "opt:", "ls:q=", "nu:q=",
                     "opt:l=", "rand:", "rand:zeta=", "bogus:q="]),
    st.sampled_from(TEXTS),
    st.sampled_from(["", ":base=greedy", ":base=", ":base=nu:q=x",
                     ":base=rand:zeta=1/2:base=greedy", "=*", ":"]),
)
GEN_SPECS = st.builds(
    lambda family, sep, tokens: family + sep + ",".join(tokens),
    st.sampled_from(["comb", "dcomb", "gbad", "fan", "ladder", "nonrealizable",
                     "rand", "mystery", ""]),
    st.sampled_from([":", ""]),
    st.lists(
        st.one_of(
            st.builds(
                lambda key, value: f"{key}={value}",
                st.sampled_from(["h", "v", "k", "q", "N", "n", "p", "seed",
                                 "lambda", ""]),
                st.sampled_from(TEXTS),
            ),
            st.sampled_from(TEXTS),
        ),
        max_size=4,
    ),
)
FLAGS = st.lists(
    st.tuples(st.sampled_from(["--seed", "--oracle-cap", "--budget"]),
              st.sampled_from(TEXTS)),
    max_size=2,
).map(lambda pairs: [part for pair in pairs for part in pair])


@pytest.fixture(scope="module")
def six_agent_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("bx") / "six.json"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["gen", "rand:n=6,k=3,p=0.4,seed=2", "--out", str(path)]) == 0
    return str(path)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_malformed_input_gets_a_clean_error(six_agent_file, data):
    command = data.draw(
        st.sampled_from(["solve", "fuzz", "gen", "sweep", "profile-lambda"])
    )
    if command in ("solve", "fuzz"):
        argv = [command, six_agent_file, data.draw(MECH_SPECS)]
    elif command == "gen":
        argv = [command, data.draw(GEN_SPECS)]
    elif command == "sweep":
        argv = [command, data.draw(GEN_SPECS), data.draw(MECH_SPECS)]
    else:
        argv = [command, data.draw(GEN_SPECS).partition(":")[2]]
    argv += data.draw(FLAGS)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: "), argv
        assert "invalid literal" not in err.getvalue(), argv


class TestSpecHelpers:
    def test_expand_ranges(self):
        bundles = list(expand_generator_family("gbad:q=2..4"))
        assert bundles == [build_generator_spec(f"gbad:q={q}") for q in (2, 3, 4)]
        assert [b.name for b in bundles] == ["gbad-q2", "gbad-q3", "gbad-q4"]
        assert list(expand_generator_family("nonrealizable")) == [gen_nonrealizable()]
        bundles = list(expand_generator_family("rand:n=5..6,seed=1,lambda=1,1/2"))
        assert bundles == [
            build_generator_spec(f"rand:n={n},seed=1,lambda=1,1/2") for n in (5, 6)
        ]

    def test_lambda_passthrough(self):
        bundle = build_generator_spec("rand:n=5,p=0.5,seed=1,k=3,lambda=1,1/2")
        assert bundle.lam.values == (1, __import__("fractions").Fraction(1, 2))
