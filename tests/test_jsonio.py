import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from majorchain import (
    BetaCertificate,
    FCertificate,
    Factor,
    GeneratorConfig,
    InputError,
    InstanceGenerator,
    LemmaInstance,
    Partition,
    PolyChain,
    SolveReport,
    search_trace_hash,
    solve_lemma,
    solve_theorem,
)
from majorchain import jsonio


class TestPartitionFormat:
    def test_round_trip(self):
        for parts in ([], [3, 1], [5, 5, 5], [2, 1, 1, 0]):
            p = Partition(parts)
            assert jsonio.parse_partition(jsonio.partition_to_obj(p)) == p

    def test_rejects_increasing_pair_with_position(self):
        with pytest.raises(InputError) as err:
            jsonio.parse_partition([1, 2], "$.A")
        assert "$.A[1]" in str(err.value)

    def test_rejects_negative_with_position(self):
        with pytest.raises(InputError) as err:
            jsonio.parse_partition([3, -1])
        assert "$[1]" in str(err.value)

    @pytest.mark.parametrize("bad", [[1.5], [True], ["2"], "nope", {"a": 1}])
    def test_rejects_non_integer_entries(self, bad):
        with pytest.raises(InputError):
            jsonio.parse_partition(bad)

    def test_word_size_cap(self):
        assert jsonio.parse_partition([2**63 - 1]) == Partition([2**63 - 1])
        with pytest.raises(InputError) as err:
            jsonio.parse_partition([2**63])
        assert "maximum" in str(err.value)


class TestChainFormat:
    def test_round_trip(self):
        chain = PolyChain(3, {Factor("x"): (0, 1, 2), Factor("y", 2): (1, 1, 1)})
        assert jsonio.parse_chain(jsonio.chain_to_obj(chain)) == chain

    def test_rejects_wrong_exponent_count(self):
        obj = {"length": 2, "factors": [{"label": "x", "degree": 1, "exponents": [1]}]}
        with pytest.raises(InputError) as err:
            jsonio.parse_chain(obj)
        assert "exponents" in str(err.value)

    def test_rejects_non_monotone_exponents_with_position(self):
        obj = {"length": 2, "factors": [{"label": "x", "degree": 1, "exponents": [1, 0]}]}
        with pytest.raises(InputError) as err:
            jsonio.parse_chain(obj)
        assert ".exponents[1]" in str(err.value)

    def test_rejects_duplicate_labels(self):
        obj = {
            "length": 1,
            "factors": [
                {"label": "x", "degree": 1, "exponents": [1]},
                {"label": "x", "degree": 2, "exponents": [1]},
            ],
        }
        with pytest.raises(InputError):
            jsonio.parse_chain(obj)


class TestInstanceFormats:
    def test_lemma_round_trip(self):
        for seed in range(25):
            inst = InstanceGenerator(GeneratorConfig(seed=seed)).lemma_instance()
            again = jsonio.parse_lemma_instance(jsonio.lemma_instance_to_obj(inst))
            assert again == inst

    def test_theorem_round_trip(self):
        for seed in range(25):
            inst = InstanceGenerator(
                GeneratorConfig(seed=seed, mode="theorem")
            ).theorem_instance()
            again = jsonio.parse_theorem_instance(jsonio.theorem_instance_to_obj(inst))
            assert again == inst

    def test_lemma_pair_violation_is_an_input_error(self):
        obj = {"pairs": [{"d": [1], "t": [2]}], "A": [], "B": []}
        with pytest.raises(InputError):
            jsonio.parse_lemma_instance(obj)

    def test_theorem_inconsistent_n_rejected(self):
        inst = InstanceGenerator(GeneratorConfig(seed=1, mode="theorem")).theorem_instance()
        obj = jsonio.theorem_instance_to_obj(inst)
        obj["n"] = obj["n"] + 1
        with pytest.raises(InputError) as err:
            jsonio.parse_theorem_instance(obj)
        assert "$.n" in str(err.value)

    def test_missing_key_named(self):
        with pytest.raises(InputError) as err:
            jsonio.parse_lemma_instance({"pairs": [], "A": []})
        assert "'B'" in str(err.value)


class TestCertificateAndReportFormats:
    def test_f_certificate_round_trip(self):
        cert = FCertificate((Partition([2, 1]), Partition()))
        assert jsonio.parse_certificate(jsonio.certificate_to_obj(cert)) == cert

    def test_beta_certificate_round_trip(self):
        cert = BetaCertificate(PolyChain(2, {Factor("x"): (0, 2)}))
        assert jsonio.parse_certificate(jsonio.certificate_to_obj(cert)) == cert

    def test_none_certificate(self):
        assert jsonio.certificate_to_obj(None) is None
        assert jsonio.parse_certificate(None) is None

    def test_report_round_trips_for_both_solvers(self):
        inst = InstanceGenerator(GeneratorConfig(seed=2)).lemma_instance()
        report = solve_lemma(inst)
        assert jsonio.parse_solve_report(jsonio.solve_report_to_obj(report)) == report
        theorem = InstanceGenerator(
            GeneratorConfig(seed=2, mode="theorem")
        ).theorem_instance()
        report = solve_theorem(theorem)
        assert jsonio.parse_solve_report(jsonio.solve_report_to_obj(report)) == report

    def test_report_outcome_validated(self):
        obj = {"outcome": "maybe", "certificate": None, "nodes": 0, "budget": 0, "space_size": 1}
        with pytest.raises(InputError):
            jsonio.parse_solve_report(obj)

    REPORT = {"outcome": "none", "certificate": None, "nodes": 2, "budget": 5, "space_size": 4}
    FS = {"fs": [[1]]}

    @staticmethod
    def rejection(obj):
        with pytest.raises(InputError) as err:
            jsonio.parse_solve_report(obj)
        return err.value

    def test_aborted_report_below_its_budget_rejected(self):
        # Both searches abort only once their nodes reach the budget.
        obj = {**self.REPORT, "outcome": "aborted", "nodes": 3, "budget": 10}
        assert self.rejection(obj).path == "$.nodes"
        obj = {**obj, "nodes": 10}
        assert jsonio.parse_solve_report(obj).nodes == 10

    def test_found_report_without_certificate_rejected(self):
        assert self.rejection({**self.REPORT, "outcome": "found"}).path == "$.certificate"

    @pytest.mark.parametrize("outcome", ["none", "aborted"])
    def test_certificate_on_a_report_not_found_rejected(self, outcome):
        obj = {**self.REPORT, "outcome": outcome, "certificate": self.FS}
        assert self.rejection(obj).path == "$.certificate"

    def test_nodes_above_budget_rejected(self):
        assert self.rejection({**self.REPORT, "nodes": 6}).path == "$.nodes"

    def test_report_without_space_size_rejected(self):
        obj = dict(self.REPORT)
        del obj["space_size"]
        error = self.rejection(obj)
        assert error.path == "$" and "'space_size'" in str(error)


class TestSpaceSizeForm:
    """A space_size past 4,300 decimal digits is written, and read, as a '0x' hex string."""

    REPORT = {"outcome": "aborted", "certificate": None, "nodes": 0, "budget": 0}

    def report(self, space_size):
        return SolveReport("aborted", None, 0, 0, space_size)

    @pytest.mark.parametrize("space_size", [1, 10**4300 - 1], ids=["1", "10**4300-1"])
    def test_values_that_fit_stay_integers(self, space_size):
        obj = jsonio.solve_report_to_obj(self.report(space_size))
        assert obj["space_size"] == space_size
        assert jsonio.parse_solve_report(obj).space_size == space_size

    @pytest.mark.parametrize("space_size", [10**4300, 3**20000], ids=["10**4300", "3**20000"])
    def test_larger_values_round_trip_through_text_in_hex(self, space_size):
        text = jsonio.dumps(jsonio.solve_report_to_obj(self.report(space_size)))
        obj = jsonio.load_json(text)
        assert obj["space_size"] == hex(space_size)
        assert jsonio.parse_solve_report(obj) == self.report(space_size)

    @pytest.mark.parametrize(
        "value",
        [
            "0x10",  # fits in 4,300 digits, so it must be an integer
            "0X" + "f" * 4000,
            "f" * 4000,
            "0x" + "F" * 4000,
            "0x0" + "f" * 4000,
            "0x",
            "",
            "0x-1",
        ],
        ids=[
            "small",
            "upper-prefix",
            "no-prefix",
            "upper-digits",
            "leading-zero",
            "no-digits",
            "empty",
            "sign",
        ],
    )
    def test_other_strings_are_rejected(self, value):
        with pytest.raises(InputError) as err:
            jsonio.parse_solve_report({**self.REPORT, "space_size": value})
        assert err.value.path == "$.space_size"


class TestMalformedJson:
    def test_line_and_column_reported(self):
        with pytest.raises(InputError) as err:
            jsonio.load_json('{\n  "pairs": [,]\n}')
        message = str(err.value)
        assert "line 2" in message and "column" in message


class TestContradictionArtifact:
    def test_helper_writes_instance_report_and_trace(self, tmp_path):
        inst = InstanceGenerator(GeneratorConfig(seed=6)).lemma_instance()
        report = solve_lemma(inst)
        path = jsonio.write_contradiction_report(inst, report, tmp_path)
        assert path.exists() and path.name.startswith("contradiction-")
        payload = jsonio.load_json(path.read_text())
        assert jsonio.parse_lemma_instance(payload["instance"]) == inst
        assert jsonio.parse_solve_report(payload["report"]) == report
        assert len(payload["trace_sha256"]) == 64

    def test_the_trace_costs_what_the_solve_cost(self):
        # 60 single-part pairs, premise true: the solve finds a splitting in 1,771 values, since
        # its memo skips most of the search without it, which tries about 4.1e12 values first.
        # The trace runs the same search, memo included, so it costs what the solve cost.
        inst = LemmaInstance(
            tuple((Partition([2]), Partition([])) for _ in range(60)),
            Partition([1] * 59),
            Partition([2] * 30 + [1]),
        )
        start = time.process_time()
        search_trace_hash(inst, budget=10**6)
        assert time.process_time() - start < 1
        assert solve_lemma(inst, budget=10**13).found
        assert len(search_trace_hash(inst, budget=10**13)) == 64


# Each fault with the message the per-element checks give, recorded from the parser as it was
# before the one-pass array check; that check must leave every message and path unchanged.
ELEMENT_FAULTS = [
    (True, "expected an integer, got True"),
    (2.5, "expected an integer, got 2.5"),
    ("3", "expected an integer, got '3'"),
    (None, "expected an integer, got None"),
    ([1], "expected an integer, got [1]"),
    (-1, "-1 is below the minimum 0"),
    (2**63, "9223372036854775808 exceeds the maximum 9223372036854775807"),
]
# First, a middle and the last position of a five-item array.
POSITIONS = (0, 2, 4)


def exponent_error(exponents):
    """The error for a chain whose second factor has ``exponents``."""
    chain = {
        "length": 5,
        "factors": [
            {"label": "x", "degree": 1, "exponents": [0] * 5},
            {"label": "y", "degree": 1, "exponents": exponents},
        ],
    }
    with pytest.raises(InputError) as err:
        jsonio.parse_chain(chain, "$.alpha")
    return str(err.value)


class TestParseErrorParity:
    @pytest.mark.parametrize("pos", POSITIONS)
    @pytest.mark.parametrize("value, message", ELEMENT_FAULTS)
    def test_partition_element_fault(self, value, message, pos):
        parts = [5, 4, 3, 2, 1]
        parts[pos] = value
        with pytest.raises(InputError) as err:
            jsonio.parse_partition(parts, "$.A")
        assert str(err.value) == f"$.A[{pos}]: {message}"

    @pytest.mark.parametrize(
        "parts, expected",
        [
            ([5, 6, 3, 2, 1], "$.A[1]: 6 exceeds the previous part 5"),
            ([5, 4, 5, 2, 1], "$.A[2]: 5 exceeds the previous part 4"),
            ([5, 4, 3, 2, 3], "$.A[4]: 3 exceeds the previous part 2"),
        ],
    )
    def test_partition_order_break(self, parts, expected):
        with pytest.raises(InputError) as err:
            jsonio.parse_partition(parts, "$.A")
        assert str(err.value) == expected

    @pytest.mark.parametrize("pos", POSITIONS)
    @pytest.mark.parametrize("value, message", ELEMENT_FAULTS)
    def test_exponent_element_fault(self, value, message, pos):
        exponents = [1, 2, 3, 4, 5]
        exponents[pos] = value
        assert exponent_error(exponents) == f"$.alpha.factors[1].exponents[{pos}]: {message}"

    @pytest.mark.parametrize(
        "exponents, pos, value, previous",
        [
            ([1, 0, 3, 4, 5], 1, 0, 1),
            ([1, 2, 1, 4, 5], 2, 1, 2),
            ([1, 2, 3, 4, 3], 4, 3, 4),
        ],
    )
    def test_exponent_order_break(self, exponents, pos, value, previous):
        assert exponent_error(exponents) == (
            f"$.alpha.factors[1].exponents[{pos}]: {value} is below the previous exponent "
            f"{previous}; chain entries must divide their successors"
        )


ODD_TEXT = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7f \u00e9\u2028\U0001f600') | st.characters())
WIRE_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**4299, -(10**4300 - 1)])
    | ODD_TEXT
)
WIRE_TREES = st.recursive(
    WIRE_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.lists(st.integers(), max_size=4)
    | st.dictionaries(ODD_TEXT, children, max_size=4),
    max_leaves=20,
)


class TestWriter:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(WIRE_TREES)
    @example([])
    @example({"a": [[], {}, ()], "": {"b": [{}]}})
    @example([True, 1, False, 0])
    @example({"\u00e9\"\n": [10**4299, -1]})
    def test_matches_json_indented(self, tree):
        assert jsonio.dumps(tree) == json.dumps(tree, indent=2) + "\n"

    @pytest.mark.parametrize("value", [1.5, {1, 2}, {1: "a"}, [{"a": 0.5}]])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            jsonio.dumps(value)
