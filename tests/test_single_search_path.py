"""One sequential search per solve, and one premise verdict per theorem instance."""

import hashlib
import threading

import pytest

import majorchain.cli
import majorchain.instances
from majorchain import (
    Factor,
    LemmaInstance,
    Partition,
    PolyChain,
    TheoremInstance,
    jsonio,
    search_trace_hash,
    solve_lemma,
    solve_theorem,
    solve_theorem_direct,
    verify_theorem_premises,
)
from majorchain.cli import cli_dispatch


def running_instance():
    x = Factor("x")
    alpha = PolyChain(1, {x: (1,)})
    gamma = PolyChain(3, {x: (0, 1, 2)})
    return TheoremInstance(alpha, gamma, Partition([0]), Partition([0]), m=1, p=1)


def raised_root_instance():
    # The first position's window is 4..5, but an upper gap of 2 would exceed
    # B's largest part, so the upper-prefix bound raises it to 5, where the
    # search finds its certificate.
    return LemmaInstance(
        (
            (Partition([6, 4]), Partition([3, 3])),
            (Partition([3, 3, 1]), Partition([3, 3, 1])),
        ),
        Partition([2]),
        Partition([1, 1]),
    )


@pytest.fixture
def premise_evaluations(monkeypatch):
    """Count calls of check_theorem_premises, under both names it is bound to."""
    calls = []
    original = majorchain.instances.check_theorem_premises

    def counting(inst):
        calls.append(inst)
        return original(inst)

    monkeypatch.setattr(majorchain.instances, "check_theorem_premises", counting)
    monkeypatch.setattr(majorchain.cli, "check_theorem_premises", counting)
    return calls


class TestOnePremiseVerdict:
    def test_library_entry_points_share_one_evaluation(self, premise_evaluations):
        inst = running_instance()
        assert solve_theorem(inst).found
        assert solve_theorem_direct(inst).found
        assert verify_theorem_premises(inst)
        assert len(premise_evaluations) == 1

    def test_cli_theorem_solve_evaluates_once(
        self, premise_evaluations, capsys, tmp_path
    ):
        path = tmp_path / "instance.json"
        path.write_text(
            jsonio.dumps(jsonio.theorem_instance_to_obj(running_instance())),
            encoding="utf-8",
        )
        code = cli_dispatch(["solve", "--mode", "theorem", "--instance", str(path)])
        capsys.readouterr()
        assert code == 0
        assert len(premise_evaluations) == 1


class TestWorkersArgument:
    @pytest.mark.parametrize("workers", [0, -1, True, 1.0])
    def test_invalid_workers_raise(self, workers):
        with pytest.raises(ValueError, match="workers"):
            solve_lemma(raised_root_instance(), workers=workers)

    def test_cli_rejects_zero_workers(self, capsys, tmp_path):
        path = tmp_path / "lemma.json"
        path.write_text(
            jsonio.dumps(jsonio.lemma_instance_to_obj(raised_root_instance())),
            encoding="utf-8",
        )
        code = cli_dispatch(
            ["solve", "--mode", "lemma", "--instance", str(path), "--workers", "0"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "workers" in captured.err
        assert "Traceback" not in captured.err

    def test_workers_start_no_threads(self, monkeypatch):
        inst = raised_root_instance()
        sequential = solve_lemma(inst, workers=1)

        def refuse(self):
            raise AssertionError("the search started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert solve_lemma(inst, workers=4) == sequential
        assert sequential.found and sequential.nodes == 5


def upper_mass_cut_instance():
    # B needs 2 but the only gap is 1: the gaps total 1 where |A| + |B| = 3,
    # so the root totals test decides the search and no value is tried.
    return LemmaInstance(((Partition([1]), Partition()),), Partition([1]), Partition([2]))


def lower_prefix_cut_instance():
    # The root window is 2..3, and a first lower gap of 2 already exceeds A's
    # largest part, so the lower-prefix bound caps the window's top at 1.
    return LemmaInstance(
        ((Partition([3, 1]), Partition()),), Partition([1, 1, 1]), Partition([1])
    )


def memo_hit_instance():
    # A 19-node instance that ends with a memo hit.
    return LemmaInstance(
        (
            (Partition([3, 1]), Partition([1])),
            (Partition([2]), Partition([])),
            (Partition([3, 2]), Partition([])),
            (Partition([1]), Partition([1])),
        ),
        Partition([2]),
        Partition([3, 1, 1, 1, 1, 1]),
    )


class TestOneDescent:
    """Node counts, traces and zero-position solves that the single descent keeps."""

    @pytest.mark.parametrize(
        "inst, nodes, trace",
        [
            (upper_mass_cut_instance(), 0, b""),
            (lower_prefix_cut_instance(), 0, b""),
        ],
        ids=["upper-mass", "lower-prefix"],
    )
    def test_a_root_cut_ends_the_window(self, inst, nodes, trace):
        # The totals test decides the first before any value is tried; the
        # lower-prefix bound empties the second's root window.
        report = solve_lemma(inst)
        assert report.outcome == "none" and report.nodes == nodes
        assert search_trace_hash(inst) == hashlib.sha256(trace).hexdigest()

    @pytest.mark.parametrize(
        "budget, trace",
        [
            (
                10**6,
                b"0:1;1:0;2:0;3:2;2:1;3:1;2:2;1:1;2:0;2:1;"
                b"0:2;1:0;2:0;2:1;3:0;1:1;2:0;"
                b"0:3;1:0;",
            ),
            (
                18,
                b"0:1;1:0;2:0;3:2;2:1;3:1;2:2;1:1;2:0;2:1;"
                b"0:2;1:0;2:0;2:1;3:0;1:1;2:0;"
                b"0:3;",
            ),
        ],
        ids=["whole", "aborted"],
    )
    def test_a_memo_hit_costs_no_node_and_no_trace_entry(self, budget, trace):
        # Positions 2 and 3 open the second and third pairs.  A state with the totals and
        # residual bounds of one whose sub-search was exhausted is a memo hit: the search
        # backs up at once, for no node and no trace entry, also where that sub-search's window
        # was empty and it tried no value.  Some hits meet different committed gaps, as the
        # first does, after 0:1;1:1;2:1: the lower gaps are {1, 1}, where after 0:1;1:0;2:2,
        # whose sub-search it skips, they were {2}.
        report = solve_lemma(memo_hit_instance(), budget=budget)
        assert report.nodes == len(trace.split(b";")) - 1
        assert report.outcome == ("aborted" if budget == 18 else "none")
        assert search_trace_hash(memo_hit_instance(), budget) == hashlib.sha256(trace).hexdigest()

    @pytest.mark.parametrize("budget", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "inst",
        [upper_mass_cut_instance(), lower_prefix_cut_instance()],
        ids=["upper-mass", "lower-prefix"],
    )
    def test_an_empty_root_window_spends_no_budget(self, inst, budget):
        report = solve_lemma(inst, budget=budget)
        assert (report.outcome, report.nodes) == ("none", 0)

    @pytest.mark.parametrize(
        "chain", [PolyChain(0, {Factor("x"): ()}), PolyChain(1, {})]
    )
    def test_direct_search_with_no_positions(self, chain):
        inst = TheoremInstance(chain, chain, Partition(), Partition(), m=0, p=0)
        report = solve_theorem_direct(inst)
        assert report.outcome == "found" and report.nodes == 0
