import argparse
import json

import pytest

from majorchain import (
    NO_SOLUTION,
    Factor,
    GeneratorConfig,
    InstanceGenerator,
    Partition,
    PolyChain,
    SolveReport,
    search_trace_hash,
    theorem_to_lemma,
)
from majorchain import cli, jsonio
from majorchain.cli import cli_dispatch


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(jsonio.dumps(obj), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = cli_dispatch(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def running_files(tmp_path):
    x = Factor("x")
    alpha = PolyChain(1, {x: (1,)})
    gamma = PolyChain(3, {x: (0, 1, 2)})
    from majorchain import TheoremInstance

    inst = TheoremInstance(alpha, gamma, Partition([0]), Partition([0]), m=1, p=1)
    instance = write(tmp_path, "instance.json", jsonio.theorem_instance_to_obj(inst))
    good = write(
        tmp_path,
        "good.json",
        {"beta": jsonio.chain_to_obj(PolyChain(2, {x: (0, 2)}))},
    )
    bad = write(
        tmp_path,
        "bad.json",
        {"beta": jsonio.chain_to_obj(PolyChain(2, {x: (0, 1)}))},
    )
    return instance, good, bad


class TestCheck:
    def test_premises_verified(self, capsys, running_files):
        instance, _, _ = running_files
        code, payload = run(capsys, ["check", "--mode", "theorem", "--instance", instance])
        assert code == 0
        assert payload["verified"] is True
        assert [c["name"] for c in payload["checks"]] == [
            "alpha-gamma-interlace",
            "indices-vs-sigma(alpha,gamma)",
        ]

    def test_certificate_verified(self, capsys, running_files):
        instance, good, _ = running_files
        code, payload = run(
            capsys,
            ["check", "--mode", "theorem", "--instance", instance, "--certificate", good],
        )
        assert code == 0 and payload["verified"] is True

    def test_failing_certificate_exits_1_with_the_failed_condition(
        self, capsys, running_files
    ):
        instance, _, bad = running_files
        code, payload = run(
            capsys,
            ["check", "--mode", "theorem", "--instance", instance, "--certificate", bad],
        )
        assert code == 1
        failed = [c["name"] for c in payload["checks"] if c["holds"] is False]
        assert failed == [
            "column-indices-vs-sigma(alpha,beta)",
            "row-indices-vs-sigma(beta,gamma)",
        ]

    def test_lemma_premise_and_certificate(self, capsys, tmp_path):
        instance = write(
            tmp_path,
            "lemma.json",
            {"pairs": [{"d": [2, 1], "t": [1]}], "A": [1], "B": [1]},
        )
        code, payload = run(capsys, ["check", "--mode", "lemma", "--instance", instance])
        assert code == 0 and payload["verified"] is True
        certificate = write(tmp_path, "fs.json", {"fs": [[1, 1]]})
        code, payload = run(
            capsys,
            ["check", "--mode", "lemma", "--instance", instance, "--certificate", certificate],
        )
        assert code == 0 and payload["verified"] is True


class TestSolve:
    def test_lemma_found(self, capsys, tmp_path):
        instance = write(
            tmp_path,
            "lemma.json",
            {"pairs": [{"d": [2, 1], "t": [1]}], "A": [1], "B": [1]},
        )
        code, payload = run(capsys, ["solve", "--mode", "lemma", "--instance", instance])
        assert code == 0
        assert payload["outcome"] == "found"
        assert payload["certificate"] == {"fs": [[1, 1]]}

    def test_empty_lemma_instance_found_trivially(self, capsys, tmp_path):
        instance = write(tmp_path, "empty.json", {"pairs": [], "A": [], "B": []})
        code, payload = run(capsys, ["solve", "--mode", "lemma", "--instance", instance])
        assert code == 0 and payload["outcome"] == "found"

    def test_unsolvable_without_premise_exits_1(self, capsys, tmp_path):
        instance = write(
            tmp_path,
            "bad.json",
            {"pairs": [{"d": [1, 1], "t": []}], "A": [1, 1], "B": [1, 1]},
        )
        code, payload = run(capsys, ["solve", "--mode", "lemma", "--instance", instance])
        assert code == 1 and payload["outcome"] == "none"

    def test_unequal_gap_totals_exit_1_for_no_nodes(self, capsys, tmp_path):
        # 90 pairs d = (2): the gaps total 180 where |A| + |B| = 150, so the root totals test
        # decides the search, which would otherwise pass the default budget.
        instance = write(
            tmp_path,
            "wide.json",
            {"pairs": [{"d": [2], "t": []}] * 90, "A": [2] * 30 + [1] * 29, "B": [2] * 30 + [1]},
        )
        code, payload = run(capsys, ["solve", "--mode", "lemma", "--instance", instance])
        assert code == 1 and payload["outcome"] == "none" and payload["nodes"] == 0

    def test_a_search_its_memo_cuts_short_exits_0(self, capsys, tmp_path):
        # 60 pairs d = (2), premise true: the search tries 1,771 values, where the search
        # without its memo would try about 4.1e12.
        instance = write(
            tmp_path,
            "sixty.json",
            {"pairs": [{"d": [2], "t": []}] * 60, "A": [1] * 59, "B": [2] * 30 + [1]},
        )
        code, payload = run(capsys, ["solve", "--mode", "lemma", "--instance", instance])
        assert code == 0 and payload["outcome"] == "found" and payload["nodes"] == 1771

    def test_budget_exceeded_exits_3(self, capsys, tmp_path):
        instance = write(
            tmp_path,
            "big.json",
            {
                "pairs": [
                    {"d": [3, 2, 1], "t": []},
                    {"d": [3, 2, 1], "t": []},
                ],
                "A": [3, 3],
                "B": [3, 3],
            },
        )
        code, payload = run(
            capsys,
            ["solve", "--mode", "lemma", "--instance", instance, "--budget", "2"],
        )
        assert code == 3 and payload["outcome"] == "aborted" and payload["nodes"] == 2

    def test_theorem_found(self, capsys, running_files):
        instance, _, _ = running_files
        code, payload = run(capsys, ["solve", "--mode", "theorem", "--instance", instance])
        assert code == 0 and payload["outcome"] == "found"
        assert payload["certificate"]["beta"]["length"] == 2

    def test_theorem_premise_failure_exits_1(self, capsys, tmp_path):
        x = Factor("x")
        from majorchain import TheoremInstance

        inst = TheoremInstance(
            PolyChain(1, {x: (1,)}),
            PolyChain(3, {x: (0, 1, 2)}),
            Partition([1]),
            Partition([0]),
            m=1,
            p=1,
        )
        instance = write(tmp_path, "nope.json", jsonio.theorem_instance_to_obj(inst))
        code, payload = run(capsys, ["solve", "--mode", "theorem", "--instance", instance])
        assert code == 1 and "error" in payload

    def test_weighted_solver_runs_the_falsified_variant(self, capsys, tmp_path):
        instance = write(
            tmp_path,
            "scaled.json",
            {"pairs": [{"d": [1, 1], "t": []}], "A": [1, 1], "B": [1, 1]},
        )
        code, payload = run(
            capsys,
            ["solve", "--mode", "lemma", "--instance", instance, "--weight", "2"],
        )
        assert code == 1 and payload["outcome"] == "none"

    def test_weighted_solver_requires_a_single_pair(self, capsys, tmp_path):
        instance = write(
            tmp_path,
            "two.json",
            {"pairs": [{"d": [1], "t": []}, {"d": [1], "t": []}], "A": [1], "B": [1]},
        )
        code, _ = run(
            capsys,
            ["solve", "--mode", "lemma", "--instance", instance, "--weight", "2"],
        )
        assert code == 2

    @pytest.mark.parametrize("weight", ["2", "0"])
    def test_weight_is_rejected_in_theorem_mode(self, capsys, running_files, weight):
        instance, _, _ = running_files
        code = cli_dispatch(
            ["solve", "--mode", "theorem", "--instance", instance, "--weight", weight]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


class TestContradictionTripwire:
    """A premise-true instance reported ``none`` exits 4 with one bug-report artifact.

    The existence theorem rules that verdict out, so the solvers are replaced
    by ones that turn their real report into ``none``.
    """

    @staticmethod
    def report_none(monkeypatch, name):
        real = getattr(cli, name)

        def none_report(inst, **kwargs):
            r = real(inst, **kwargs)
            return SolveReport(NO_SOLUTION, None, r.nodes, r.budget, r.space_size)

        monkeypatch.setattr(cli, name, none_report)

    @staticmethod
    def tripwire(capsys, tmp_path, argv, splitting):
        report_dir = tmp_path / "reports"
        report_dir.mkdir()
        code = cli_dispatch([*argv, "--report-dir", str(report_dir)])
        captured = capsys.readouterr()
        assert code == 4
        [artifact] = report_dir.iterdir()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.err.endswith("\n")
        assert str(artifact) in lines[0]
        emitted = json.loads(captured.out)
        assert emitted["outcome"] == "none"
        assert json.loads(artifact.read_text(encoding="utf-8")) == {
            "instance": json.loads(jsonio.dumps(jsonio.lemma_instance_to_obj(splitting))),
            "report": emitted,
            "trace_sha256": search_trace_hash(splitting, budget=emitted["budget"]),
        }

    def test_lemma_mode(self, capsys, tmp_path, monkeypatch):
        obj = {"pairs": [{"d": [2, 1], "t": [1]}], "A": [1], "B": [1]}
        inst = jsonio.parse_lemma_instance(obj)
        assert inst.premise_holds
        self.report_none(monkeypatch, "solve_lemma")
        instance = write(tmp_path, "lemma.json", obj)
        argv = ["solve", "--mode", "lemma", "--instance", instance, "--budget", "50"]
        self.tripwire(capsys, tmp_path, argv, inst)

    def test_theorem_mode_records_the_translated_instance(
        self, capsys, tmp_path, monkeypatch, running_files
    ):
        instance, _, _ = running_files
        with open(instance, encoding="utf-8") as handle:
            inst = jsonio.parse_theorem_instance(json.load(handle))
        assert inst.premise_holds
        self.report_none(monkeypatch, "solve_theorem")
        argv = ["solve", "--mode", "theorem", "--instance", instance]
        self.tripwire(capsys, tmp_path, argv, theorem_to_lemma(inst))

    def test_unwritable_report_dir_still_exits_4_with_the_report(
        self, capsys, tmp_path, monkeypatch
    ):
        obj = {"pairs": [{"d": [2, 1], "t": [1]}], "A": [1], "B": [1]}
        self.report_none(monkeypatch, "solve_lemma")
        instance = write(tmp_path, "lemma.json", obj)
        missing = tmp_path / "no-such-dir"
        argv = ["solve", "--mode", "lemma", "--instance", instance, "--budget", "50",
                "--report-dir", str(missing)]
        code = cli_dispatch(argv)
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.out)["outcome"] == "none"
        assert captured.err == (
            "contradiction: the premise holds but no splitting exists; report could not be "
            f"written to {missing}: No such file or directory\n"
        )
        assert not missing.exists()

    def test_premise_false_lemma_none_exits_1_without_an_artifact(self, capsys, tmp_path):
        instance = write(
            tmp_path,
            "bad.json",
            {"pairs": [{"d": [1, 1], "t": []}], "A": [1, 1], "B": [1, 1]},
        )
        report_dir = tmp_path / "reports"
        report_dir.mkdir()
        argv = ["solve", "--mode", "lemma", "--instance", instance, "--report-dir", str(report_dir)]
        code = cli_dispatch(argv)
        captured = capsys.readouterr()
        assert code == 1 and json.loads(captured.out)["outcome"] == "none"
        assert captured.err == ""
        assert list(report_dir.iterdir()) == []

    def test_weighted_none_on_a_premise_true_instance_exits_1_without_an_artifact(
        self, capsys, tmp_path
    ):
        # The unweighted premise holds, (2) against A+B = (2), but no f scales under A = (1).
        obj = {"pairs": [{"d": [2], "t": []}], "A": [1], "B": [1]}
        assert jsonio.parse_lemma_instance(obj).premise_holds
        instance = write(tmp_path, "scaled.json", obj)
        report_dir = tmp_path / "reports"
        report_dir.mkdir()
        argv = ["solve", "--mode", "lemma", "--instance", instance, "--weight", "2",
                "--report-dir", str(report_dir)]
        code = cli_dispatch(argv)
        captured = capsys.readouterr()
        assert code == 1 and json.loads(captured.out)["outcome"] == "none"
        assert captured.err == ""
        assert list(report_dir.iterdir()) == []


class TestTranslate:
    def test_theorem_to_lemma(self, capsys, running_files):
        instance, _, _ = running_files
        code, payload = run(
            capsys, ["translate", "--mode", "theorem", "--instance", instance]
        )
        assert code == 0
        assert payload == {
            "pairs": [{"d": [2, 1], "t": [1]}],
            "A": [1],
            "B": [1],
        }

    def test_lemma_to_theorem(self, capsys, tmp_path):
        instance = write(
            tmp_path,
            "lemma.json",
            {"pairs": [{"d": [2, 1], "t": [1]}], "A": [1], "B": [1]},
        )
        code, payload = run(capsys, ["translate", "--mode", "lemma", "--instance", instance])
        assert code == 0
        assert payload["n"] == 1 and payload["m"] == 1 and payload["p"] == 1
        assert payload["alpha"]["factors"][0]["exponents"] == [1]
        assert payload["gamma"]["factors"][0]["exponents"] == [0, 1, 2]

    def test_premise_violation_exits_1(self, capsys, tmp_path):
        instance = write(
            tmp_path,
            "bad.json",
            {"pairs": [{"d": [3], "t": []}], "A": [1], "B": [1]},
        )
        code, _ = run(capsys, ["translate", "--mode", "lemma", "--instance", instance])
        assert code == 1


class TestDegreeTwoFactor:
    """Only degree-1 factors translate, so a premise-true degree-2 instance exits 2."""

    @pytest.mark.parametrize("command", ["solve", "translate"])
    def test_exits_2_with_one_stderr_line(self, capsys, tmp_path, command):
        from majorchain import TheoremInstance

        x = Factor("x", 2)
        inst = TheoremInstance(
            PolyChain(1, {x: (1,)}), PolyChain(3, {x: (0, 1, 2)}), Partition([1]), Partition([1]),
            m=1, p=1,
        )
        assert inst.premise_holds
        instance = write(tmp_path, "degree2.json", jsonio.theorem_instance_to_obj(inst))
        code = cli_dispatch([command, "--mode", "theorem", "--instance", instance])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: factor 'x' has degree 2; the translation requires degree-1 factors\n"
        )


class TestIdentity:
    def test_matching_pair(self, capsys, tmp_path):
        x = Factor("x")
        instance = write(
            tmp_path,
            "pair.json",
            {
                "delta": jsonio.chain_to_obj(PolyChain(1, {x: (1,)})),
                "epsilon": jsonio.chain_to_obj(PolyChain(3, {x: (0, 1, 2)})),
            },
        )
        code, payload = run(capsys, ["identity", "--instance", instance])
        assert code == 0
        assert payload == {
            "degree_sequence": [2],
            "factor_local_form": [2],
            "match": True,
        }

    def test_a_pair_that_is_not_sandwiched_exits_2(self, capsys, tmp_path):
        # delta's x^2 does not divide epsilon's x^1 one step further along, so the pair is not
        # sandwiched and its degree sequence is undefined.
        x = Factor("x")
        instance = write(
            tmp_path,
            "unsandwiched.json",
            {
                "delta": jsonio.chain_to_obj(PolyChain(1, {x: (2,)})),
                "epsilon": jsonio.chain_to_obj(PolyChain(2, {x: (0, 1)})),
            },
        )
        code = cli_dispatch(["identity", "--instance", instance])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "error: the divisibility sandwich does not hold; the degree sequence is undefined "
            "for this pair\n"
        )


class TestGen:
    def test_deterministic_output(self, capsys):
        code_a, payload_a = run(capsys, ["gen", "--seed", "42"])
        code_b, payload_b = run(capsys, ["gen", "--seed", "42"])
        assert code_a == code_b == 0 and payload_a == payload_b

    def test_generated_instances_are_loadable_and_premise_satisfying(
        self, capsys, tmp_path
    ):
        code, payload = run(capsys, ["gen", "--seed", "9", "--mode", "theorem"])
        assert code == 0
        inst = jsonio.parse_theorem_instance(payload)
        from majorchain import verify_theorem_premises

        assert verify_theorem_premises(inst)

    def test_matches_the_library_generator(self, capsys):
        code, payload = run(
            capsys, ["gen", "--seed", "7", "--k", "1", "--s", "2", "--max-part", "2"]
        )
        assert code == 0
        expected = InstanceGenerator(
            GeneratorConfig(seed=7, k=1, s=2, max_part=2)
        ).lemma_instance()
        assert jsonio.parse_lemma_instance(payload) == expected


class TestReproCounterexample:
    def test_reproduces_the_no_solution_verdict(self, capsys):
        code, payload = run(capsys, ["repro-counterexample"])
        assert code == 0
        assert payload["outcome"] == "none"


class TestErrorPaths:
    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"pairs": [,]}', encoding="utf-8")
        code, _ = run(capsys, ["solve", "--mode", "lemma", "--instance", str(path)])
        assert code == 2

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _ = run(
            capsys,
            ["solve", "--mode", "lemma", "--instance", str(tmp_path / "absent.json")],
        )
        assert code == 2

    @pytest.mark.parametrize("field", ["instance", "certificate"])
    def test_non_utf8_file_is_an_input_error(self, capsys, tmp_path, field):
        files = {
            "instance": write(tmp_path, "lemma.json", {"pairs": [], "A": [], "B": []}),
            "certificate": write(tmp_path, "cert.json", {"fs": []}),
        }
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe{")
        files[field] = str(path)
        code = cli_dispatch(
            ["check", "--mode", "lemma", "--instance", files["instance"],
             "--certificate", files["certificate"]]
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"input error: cannot read {path}: not UTF-8 text (byte 0: invalid start byte)\n"
        )

    def test_schema_violation_exits_2(self, capsys, tmp_path):
        instance = write(tmp_path, "bad.json", {"pairs": [{"d": [1, 2], "t": []}], "A": [], "B": []})
        code, _ = run(capsys, ["check", "--mode", "lemma", "--instance", instance])
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_splitting_of_the_wrong_length_is_an_input_error_at_its_path(self, capsys, tmp_path):
        instance = write(tmp_path, "lemma.json", {"pairs": [{"d": [2, 1], "t": [1]}], "A": [1], "B": [1]})
        certificate = write(tmp_path, "fs.json", {"fs": [[1, 1], [1]]})
        code = cli_dispatch(
            ["check", "--mode", "lemma", "--instance", instance, "--certificate", certificate]
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "input error: $.fs: 2 candidate partitions for 1 pairs\n"

    def test_middle_chain_of_the_wrong_length_is_an_input_error_at_its_path(
        self, capsys, running_files, tmp_path
    ):
        instance, _, _ = running_files
        short = write(
            tmp_path, "short.json", {"beta": jsonio.chain_to_obj(PolyChain(1, {Factor("x"): (1,)}))}
        )
        code = cli_dispatch(
            ["check", "--mode", "theorem", "--instance", instance, "--certificate", short]
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "input error: $.beta.length: middle chain length 1 != 1 + 1\n"


class TestWorkersFlag:
    def test_worker_count_does_not_change_the_report(self, capsys, tmp_path):
        instance = write(
            tmp_path,
            "lemma.json",
            {"pairs": [{"d": [3, 2], "t": [1]}, {"d": [2, 2], "t": []}], "A": [3, 1], "B": [2, 2]},
        )
        code_seq, payload_seq = run(capsys, ["solve", "--mode", "lemma", "--instance", instance])
        code_par, payload_par = run(
            capsys,
            ["solve", "--mode", "lemma", "--instance", instance, "--workers", "4"],
        )
        assert code_seq == code_par == 0
        assert payload_seq == payload_par and payload_seq["outcome"] == "found"


class TestInputsBeyondTheInterpreter:
    def test_search_deeper_than_the_recursion_limit_exits_0(self, capsys, tmp_path):
        # Valid and premise-true; the search commits 1500 positions, one frame each.
        instance = write(
            tmp_path,
            "long.json",
            {"pairs": [{"d": [1] * 1500, "t": []}], "A": [1] * 1500, "B": []},
        )
        code = cli_dispatch(["check", "--mode", "lemma", "--instance", instance])
        assert code == 0 and json.loads(capsys.readouterr().out)["verified"]
        code, out = run(capsys, ["solve", "--mode", "lemma", "--instance", instance])
        assert code == 0
        assert out["outcome"] == "found" and out["nodes"] == 1500

    def test_a_wide_pair_exits_0(self, capsys, tmp_path):
        # Premise true; trying every value below the splitting's 50000 would spend the budget.
        instance = write(
            tmp_path,
            "wide-pair.json",
            {"pairs": [{"d": [100000] * 30, "t": []}], "A": [100000] * 15, "B": [100000] * 15},
        )
        code, out = run(capsys, ["solve", "--mode", "lemma", "--instance", instance])
        assert code == 0
        assert (out["outcome"], out["nodes"]) == ("found", 30)

    def test_a_space_size_past_4300_digits_is_reported_in_hex(self, capsys, tmp_path):
        # 10 KB, premise true; the search box has (2**62 + 1)**240 points, 4,480 decimal digits,
        # past CPython's default limit for turning an int into decimal text.
        big = 2**62
        instance = write(
            tmp_path,
            "wide.json",
            {"pairs": [{"d": [big] * 240, "t": []}], "A": [big] * 120, "B": [big] * 120},
        )
        code = cli_dispatch(["solve", "--mode", "lemma", "--budget", "1", "--instance", instance])
        captured = capsys.readouterr()
        assert code == 3 and captured.err == ""
        out = json.loads(captured.out)
        assert (out["outcome"], out["nodes"], out["budget"]) == ("aborted", 1, 1)
        assert out["space_size"] == hex((big + 1) ** 240)
        assert jsonio.parse_solve_report(out).space_size == (big + 1) ** 240

    def test_a_factor_degree_past_the_part_cap_exits_2(self, capsys, tmp_path):
        # A degree of 4,300 digits still parses as JSON, but printing the degree sequence it
        # leads to would pass CPython's limit, so the parser caps degrees as it caps exponents.
        degree = 10**4299
        instance = write(
            tmp_path,
            "degree.json",
            {
                "delta": {
                    "length": 1,
                    "factors": [{"label": "x", "degree": degree, "exponents": [3]}],
                },
                "epsilon": {
                    "length": 2,
                    "factors": [{"label": "x", "degree": degree, "exponents": [0, 30]}],
                },
            },
        )
        code = cli_dispatch(["identity", "--instance", instance])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error: $.delta.factors[0].degree: 1000")
        assert captured.err.endswith(f" exceeds the maximum {jsonio.MAX_PART}\n")
        assert captured.err.count("\n") == 1

    def test_exponents_too_large_to_expand_exit_2(self, capsys, tmp_path):
        # About 200 bytes of valid input: the factor-local route expands delta's factor
        # partition, 2**62 parts, which cannot be allocated.
        big = 2**62
        instance = write(
            tmp_path,
            "huge-exponents.json",
            {
                "delta": {
                    "length": 1,
                    "factors": [{"label": "x", "degree": 1, "exponents": [big]}],
                },
                "epsilon": {
                    "length": 2,
                    "factors": [{"label": "x", "degree": 1, "exponents": [0, big]}],
                },
            },
        )
        code = cli_dispatch(["identity", "--instance", instance])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_an_integer_past_the_digit_limit_exits_2(self, capsys, tmp_path):
        # json.dumps cannot write the literal under the same limit, so the text is written as is.
        path = tmp_path / "digits.json"
        path.write_text('{"pairs": [], "A": [' + "9" * 5000 + '], "B": []}', encoding="utf-8")
        code = cli_dispatch(["check", "--mode", "lemma", "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("input error: an integer literal has more than 4300 digits")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--mode", "lemma"],
            ["solve", "--mode", "lemma"],
            ["translate", "--mode", "theorem"],
            ["identity"],
        ],
    )
    def test_deeply_nested_json_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code = cli_dispatch(argv + ["--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


class TestParserReuse:
    """The parser is built once per process; no state carries over between calls."""

    def sequence(self, tmp_path):
        deep = write(
            tmp_path,
            "big.json",
            {"pairs": [{"d": [3, 2, 1], "t": []}] * 2, "A": [3, 3], "B": [3, 3]},
        )
        single = write(
            tmp_path, "single.json", {"pairs": [{"d": [2, 1], "t": [1]}], "A": [1], "B": [1]}
        )
        solve = ["solve", "--mode", "lemma", "--report-dir", str(tmp_path), "--instance"]
        return [
            solve + [deep, "--budget", "2"],
            solve + [deep],
            ["gen", "--seed", "1", "--k", "3"],
            ["gen", "--seed", "1"],
            solve + [single, "--weight", "2"],
            solve + [single],
            ["frobnicate"],
            ["gen", "--seed", "1"],
            ["solve", "--instance", single],
            solve + [single],
            ["--help"],
            ["solve", "--help"],
        ]

    def outputs(self, capsys, sequence):
        results = []
        for argv in sequence:
            code = cli_dispatch(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_each_call_matches_a_freshly_built_parser(self, capsys, tmp_path, monkeypatch):
        sequence = self.sequence(tmp_path)
        reused = self.outputs(capsys, sequence)
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = self.outputs(capsys, sequence)
        assert reused == fresh
        codes = [code for code, _, _ in reused]
        assert codes == [3, 0, 0, 0, 1, 0, 2, 0, 2, 0, 0, 0]
        assert json.loads(reused[0][1])["budget"] == 2
        assert json.loads(reused[1][1])["budget"] == 1000000
        assert reused[2][1] != reused[3][1]
        assert json.loads(reused[5][1])["certificate"] == {"fs": [[1, 1]]}
        assert reused[10][1] != reused[11][1]

    def test_dispatches_share_one_parser(self, capsys, monkeypatch):
        # parse_args runs through parse_known_args, so this records every parser that parses.
        parsers = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def recording(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
        for argv in (["gen", "--seed", "1"], ["frobnicate"], ["repro-counterexample"]) * 2:
            cli_dispatch(argv)
        capsys.readouterr()
        parser, commands = cli._build_parser()
        expected = [commands["gen"], parser, commands["repro-counterexample"]] * 2
        assert len(parsers) == len(expected)
        assert all(used is built for used, built in zip(parsers, expected))

    def test_unknown_arguments_get_the_top_level_usage(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")
        instance = write(tmp_path, "lemma.json", {"pairs": [], "A": [], "B": []})
        code = cli_dispatch(["check", "--mode", "lemma", "--instance", instance, "--extra"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "usage: majorchain [-h]\n"
            "                  {check,solve,translate,identity,gen,repro-counterexample}\n"
            "                  ...\n"
            "majorchain: error: unrecognized arguments: --extra\n"
        )
