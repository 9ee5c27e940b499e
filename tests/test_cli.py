"""Command-line behavior: goldens, exit codes, and output stability."""

import argparse
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ringlab.cli
import ringlab.matrices
import ringlab.modules
from ringlab import (
    BudgetExceeded,
    IntegerRing,
    ModularRing,
    PolynomialRing,
    RingMatrix,
    TrivialExtensionRing,
    bounded_principality_check,
    cancellation_and_reduction_verify,
    jacobson_lift_verify,
    local_global_verify,
    partition_of_unity_verify,
    trivial_extension_hermite_search,
)
from ringlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# reduction commands


def test_snf_golden(tmp_path, capsys):
    doc = {"ring": "integers", "rows": 2, "cols": 2, "entries": [2, 4, 4, 6]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "snf", "--input", str(path))
    assert code == 0
    result = json.loads(out)
    assert result["diagonal"] == [2, 2]
    assert result["verified"] is True
    assert result["divisibility_chain"] is True
    assert "witness" not in result


def test_snf_reads_stdin(capsys, monkeypatch):
    doc = {"ring": "integers", "rows": 2, "cols": 2, "entries": [[2, 0], [0, 3]]}
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(json.dumps(doc)))
    code, out = run(capsys, "snf")
    assert code == 0
    assert json.loads(out)["diagonal"] == [1, 6]


def test_reduce_emits_witness(tmp_path, capsys):
    doc = {"ring": "modular(6)", "rows": 2, "cols": 2, "entries": [[3, 0], [0, 2]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "reduce", "--input", str(path), "--emit-witness")
    assert code == 0
    result = json.loads(out)
    assert result["diagonal"] == [1, 0]
    assert set(result["witness"]) == {"P", "P_inv", "Q", "Q_inv"}


def test_snf_rejects_bad_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO("not json"))
    code, out = run(capsys, "snf")
    assert code == 3
    assert "input error" in out


def test_snf_rejects_bad_ring(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"ring": "what", "rows": 1, "cols": 1, "entries": [1]}))
    code, out = run(capsys, "snf", "--input", str(path))
    assert code == 3


def test_snf_rejects_a_boolean_shape(capsys, monkeypatch):
    text = '{"ring": "integers", "rows": true, "cols": true, "entries": [5]}'
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(text))
    code, out = run(capsys, "snf")
    assert code == 3
    assert out == "input error: rows and cols must be integers\n"


@pytest.mark.parametrize("command", ["snf", "reduce"])
@pytest.mark.parametrize("ring", [5, None])
def test_reduction_commands_reject_a_ring_that_is_not_a_string(capsys, monkeypatch, command, ring):
    text = json.dumps({"ring": ring, "rows": 1, "cols": 1, "entries": [1]})
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out = run(capsys, command)
    assert code == 3
    assert out == "input error: ring must be a descriptor string\n"


def test_snf_rejects_missing_file(tmp_path, capsys):
    code, out = run(capsys, "snf", "--input", str(tmp_path / "absent.json"))
    assert code == 3
    assert "input error" in out


def _digits_unlimited(fn):
    """Run fn with the int <-> str digit cap lifted (it exists from 3.11)."""
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None:
        return fn()
    previous = sys.get_int_max_str_digits()
    setter(0)
    try:
        return fn()
    finally:
        setter(previous)


def test_snf_round_trips_entries_past_the_int_str_limit(capsys, monkeypatch):
    digits = "7" * 5000
    text = '{"ring": "integers", "rows": 1, "cols": 1, "entries": [%s]}' % digits
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(text))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out = run(capsys, "snf", "--emit-witness")
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    result = _digits_unlimited(lambda: json.loads(out))
    assert _digits_unlimited(lambda: str(result["diagonal"][0])) == digits
    assert result["verified"] is True
    assert result["witness"]["P"]["entries"] == [1]


RECORDED_SNF_WITNESSES = json.loads(
    (Path(__file__).resolve().parent / "recorded_snf_witnesses.json").read_text()
)


@pytest.mark.parametrize("name", list(RECORDED_SNF_WITNESSES))
def test_snf_witness_matches_recorded_output(capsys, monkeypatch, name):
    recorded = RECORDED_SNF_WITNESSES[name]
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(json.dumps(recorded["input"])))
    code, out = run(capsys, "snf", "--emit-witness")
    assert code == 0
    assert out == recorded["stdout"]


@pytest.mark.parametrize("name", list(RECORDED_SNF_WITNESSES))
def test_snf_fields_besides_the_witness_match_recorded_output(capsys, monkeypatch, name):
    # D, its literals, the chain flag and the verify are canonical: a change of
    # elimination strategy may move the witness, never these
    recorded = RECORDED_SNF_WITNESSES[name]
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(json.dumps(recorded["input"])))
    code, out = run(capsys, "snf", "--emit-witness")
    assert code == 0
    got, want = json.loads(out), json.loads(recorded["stdout"])
    assert "witness" in got and "witness" in want
    del got["witness"], want["witness"]
    assert got == want


@pytest.mark.parametrize(
    "command, doc",
    [
        ("snf", {"ring": "integers", "rows": 2, "cols": 3, "entries": [2, 4, 6, 4, 6, 9]}),
        ("reduce", {"ring": "modular(12)", "rows": 2, "cols": 2, "entries": [4, 6, 8, 9]}),
    ],
)
def test_reduction_commands_verify_each_witness_once(capsys, monkeypatch, command, doc):
    # every verify, the kernel's and verify_reduction's, is one payload check
    original = ringlab.matrices._reduction_holds
    count = 0

    def counted(*args):
        nonlocal count
        count += 1
        return original(*args)

    monkeypatch.setattr("ringlab.matrices._reduction_holds", counted)
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(json.dumps(doc)))
    code, out = run(capsys, command, "--emit-witness")
    assert code == 0
    assert json.loads(out)["verified"] is True
    assert count == 1


@pytest.mark.parametrize("modulus", [100_000, 1_000_003])
def test_reduce_over_a_large_modulus(capsys, monkeypatch, modulus):
    # deciding the divisibility chain must not enumerate Z/n
    doc = {"ring": f"modular({modulus})", "rows": 2, "cols": 2, "entries": [2, 4, 6, 9]}
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(json.dumps(doc)))
    code, out = run(capsys, "reduce")
    assert code == 0
    result = json.loads(out)
    assert result["divisibility_chain"] is True
    assert result["verified"] is True


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("ringlab.matrices._reduction_holds", lambda *args: False)
    doc = {"ring": "integers", "rows": 2, "cols": 2, "entries": [2, 0, 0, 3]}
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(json.dumps(doc)))
    code, out = run(capsys, "snf")
    assert code == 4
    assert out.startswith("internal error: reduction verification failed")
    assert 'argv: ["snf"]' in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--ring", "modular(6)", "--bound", "1"),
        # an input error's message meets the closed stdout too
        ("bezout", "--ring", "bogus(1)", "1", "2"),
    ],
    ids=["pass", "input-error"],
)
def test_a_closed_stdout_exits_141_and_prints_nothing_more(argv):
    # the pipe's read end is closed before the command starts, so its first
    # flush meets a broken pipe: that is neither bad input nor a bug
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ringlab.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_failed_kernel_check_in_verify_is_an_internal_error(capsys, monkeypatch):
    # a reduction that fails its own check is a bug (exit 4), not a violation
    monkeypatch.setattr("ringlab.matrices._reduction_holds", lambda *args: False)
    code, out = run(capsys, "verify", "--ring", "modular(4)", "--bound", "1")
    assert code == 4
    assert out.startswith("internal error: reduction verification failed")


def test_kernel_check_survives_python_O():
    """The reduction kernel's check is a raise, not an assert, so a failed
    check still stops ``ringlab verify`` when Python strips assert statements."""
    script = """
import ringlab.cli, ringlab.matrices
try:
    assert False
except AssertionError:
    raise SystemExit("assert statements are live; not running under -O")
ringlab.matrices._reduction_holds = lambda *args: False
print("exit", ringlab.cli.main(["verify", "--ring", "modular(4)", "--bound", "1"]))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "internal error: reduction verification failed; this is a bug"
    assert lines[-1] == "exit 4"


def test_no_progress_in_the_elimination_is_an_internal_error(capsys, monkeypatch):
    # a division that returns a zero quotient never lowers the smallest entry;
    # diag(2, 3) reaches the Euclidean rounds only through the divisibility
    # repair.  EuclideanOps binds the function per instance, so patch the module.
    monkeypatch.setattr("ringlab.rings._nearest_divmod", lambda x, y: (0, x))
    doc = {"ring": "integers", "rows": 2, "cols": 2, "entries": [2, 0, 0, 3]}
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(json.dumps(doc)))
    code, out = run(capsys, "snf")
    assert code == 4
    assert out.splitlines()[0] == "internal error: no progress while clearing a pivot"


def test_bezout_verified_identity(capsys):
    code, out = run(capsys, "bezout", "12", "18")
    assert code == 0
    assert "d=6" in out
    assert "verified=True" in out
    code, out = run(capsys, "bezout", "--ring", "poly(gf(5))", "[2, 1]", "[1, 0, 1]")
    assert code == 0
    assert "verified=True" in out


def test_bezout_reads_and_prints_operands_past_the_int_str_limit(capsys):
    digits = "7" * 5000
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out = run(capsys, "bezout", digits, "3")
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    lines = out.splitlines()
    assert lines[1] == f"a={digits} b=3"
    assert lines[2].startswith("d=1 s=")
    assert lines[3] == "identity: s*a + t*b = d verified=True"


RECORDED_BEZOUT = json.loads(
    (Path(__file__).resolve().parent / "recorded_bezout.json").read_text()
)


@pytest.mark.parametrize("name", list(RECORDED_BEZOUT))
def test_bezout_matches_recorded_output(capsys, name):
    recorded = RECORDED_BEZOUT[name]
    code, out = run(capsys, *recorded["argv"])
    assert code == 0
    assert out == recorded["stdout"]


# ---------------------------------------------------------------------------
# monoid commands


def test_refine_golden(capsys):
    code, out = run(capsys, "refine", "--generators", "1", "0", "5", "5", "0")
    assert code == 0
    assert "z11=0" in out and "z21=5" in out
    assert "verified=True" in out


def test_refine_bound_exhaustion(capsys):
    code, out = run(
        capsys, "refine", "--generators", "1", "--bound", "2", "5", "5", "5", "5"
    )
    assert code == 2
    assert "exhausted" in out


def test_refine_over_a_presented_monoid_counts_its_tests_against_the_budget(
    capsys, monkeypatch
):
    # no refinement exists, so unbounded the box search at --bound 4 makes
    # about 390,000 word-problem tests; the budget stops it at the 1,001st
    monkeypatch.setenv("RINGLAB_SEARCH_BUDGET", "1000")
    doc = json.dumps({"generators": 4, "relations": [[[1, 1, 0, 0], [0, 0, 1, 1]]]})
    code, out = run(
        capsys, "refine", "--monoid", doc, "1,0,0,0", "0,1,0,0", "0,0,1,0", "0,0,0,1",
        "--bound", "4",
    )
    assert code == 2
    assert out == "exhausted: 1001 word-problem tests exceed the search budget 1000\n"


def test_refine_sum_mismatch(capsys):
    code, out = run(capsys, "refine", "--generators", "1", "1", "0", "0", "0")
    assert code == 3
    assert "input error" in out


def test_refine_presented_monoid(capsys):
    doc = json.dumps({"generators": 2, "relations": [[[2, 0], [0, 1]]]})
    code, out = run(capsys, "refine", "--monoid", doc, "2,0", "0,1", "0,1", "2,0")
    assert code == 0
    assert "verified=True" in out


def test_check_cancellation(capsys):
    code, out = run(
        capsys, "check-cancellation", "--generators", "2", "--unit", "1,1",
        "--max-entry", "3",
    )
    assert code == 0
    assert "pairs_checked=256" in out
    assert "holds" in out


# 4^4 = 256 and 3^4 = 81 ordered pairs: a budget of exactly that many runs
@pytest.mark.parametrize(
    "argv, out",
    [
        (
            ("--generators", "2", "--unit", "1,1", "--max-entry", "3"),
            "monoid=free(2)\nunit=1,1\npairs_checked=256\n"
            "cancellation=holds over 256 pairs\n",
        ),
        (
            (
                "--monoid", '{"generators": 2, "relations": [[[2, 0], [0, 1]]]}',
                "--unit", "1,0", "--max-entry", "2",
            ),
            'monoid={"generators":2,"relations":[[[2,0],[0,1]]]}\nunit=1,0\n'
            "pairs_checked=81\ncancellation=holds over 81 pairs\n",
        ),
    ],
)
def test_check_cancellation_keeps_its_output_within_the_budget(capsys, monkeypatch, argv, out):
    pairs = re.search(r"pairs_checked=(\d+)", out).group(1)
    monkeypatch.setenv("RINGLAB_SEARCH_BUDGET", pairs)
    assert run(capsys, "check-cancellation", *argv) == (0, out)


def test_check_cancellation_budget_is_checked_before_enumerating(capsys, monkeypatch):
    # 6^3 candidates give 6^6 = 46,656 ordered pairs
    monkeypatch.setenv("RINGLAB_SEARCH_BUDGET", "1000")
    monkeypatch.setattr(
        ringlab.cli, "cancellation_law_check", lambda *args: pytest.fail("enumerated")
    )
    assert run(
        capsys, "check-cancellation", "--generators", "3", "--unit", "1,1,1",
        "--max-entry", "5",
    ) == (2, "exhausted: 46656 candidate pairs exceed the search budget 1000\n")


Z30 = ModularRing(30)


# Each verify section counts its whole box against the search budget before
# it builds anything.  Over Z/30 (three maximal ideals) bound 6 gives 7^6
# pairs; its local-global section counts them as module pairs before the
# cancellation section counts them as candidate pairs, so that is what verify
# reports.  Z/8 sweeps 8 + 2*8^2 + 8^4 small matrices, Z/30 has 30^5 unit
# combinations for five generators.
@pytest.mark.parametrize(
    "budget, call, message, argv, verify_message",
    [
        (
            "100000",
            lambda: local_global_verify(Z30, 6),
            "117649 module pairs exceed the search budget 100000",
            ("--ring", "modular(30)", "--bound", "6"),
            None,
        ),
        (
            "100000",
            lambda: cancellation_and_reduction_verify(Z30, 6),
            "117649 candidate pairs exceed the search budget 100000",
            ("--ring", "modular(30)", "--bound", "6"),
            "117649 module pairs exceed the search budget 100000",
        ),
        (
            None,
            lambda: partition_of_unity_verify(Z30, map(Z30.make, (2, 4, 6, 8, 10)), 1),
            "24300000 unit combinations exceed the search budget 1000000",
            ("--ring", "modular(30)", "--bound", "1", "--generators", "2,4,6,8,10"),
            None,
        ),
        (
            "1000",
            lambda: jacobson_lift_verify(ModularRing(8)),
            "4232 small matrices exceed the search budget 1000",
            ("--ring", "modular(8)", "--bound", "1"),
            None,
        ),
    ],
    ids=["local-global", "cancellation", "partition-of-unity", "small-shape-sweep"],
)
def test_verify_searches_are_counted_against_the_search_budget(
    capsys, monkeypatch, budget, call, message, argv, verify_message
):
    if budget is None:
        monkeypatch.delenv("RINGLAB_SEARCH_BUDGET", raising=False)
    else:
        monkeypatch.setenv("RINGLAB_SEARCH_BUDGET", budget)
    with pytest.raises(BudgetExceeded) as info:
        call()
    assert str(info.value) == message
    assert run(capsys, "verify", *argv) == (
        2, f"exhausted: {verify_message or message}\n"
    )


def test_check_cancellation_needs_monoid(capsys):
    code, out = run(capsys, "check-cancellation", "--unit", "1")
    assert code == 3


def test_check_cancellation_rejects_a_negative_max_entry(capsys):
    code, out = run(
        capsys, "check-cancellation", "--generators", "2", "--unit", "1,1",
        "--max-entry", "-1",
    )
    assert code == 3
    assert out == "input error: --max-entry must be nonnegative\n"
    code, out = run(
        capsys, "check-cancellation", "--generators", "2", "--unit", "1,1",
        "--max-entry", "0",
    )
    assert code == 0
    assert "pairs_checked=1\n" in out


def test_check_cancellation_rejects_a_negative_bound_over_a_free_monoid(capsys):
    code, out = run(
        capsys, "check-cancellation", "--generators", "2", "--unit", "1,1",
        "--bound", "-3",
    )
    assert code == 3
    assert out == "input error: search_bound must be nonnegative\n"


# ---------------------------------------------------------------------------
# module commands


def test_localize_at_maximal(capsys):
    code, out = run(
        capsys, "localize", "--ring", "modular(6)", "--module", "2,1",
        "--at-maximal", "0",
    )
    assert code == 0
    assert "free_rank=2" in out
    assert "multiplicative_set_inverts=True" in out


def test_localize_at_element(capsys):
    code, out = run(
        capsys, "localize", "--ring", "modular(6)", "--module", "2,1",
        "--at-element", "4",
    )
    assert code == 0
    assert "corner(modular(6), 4)" in out


def test_localize_at_a_swapped_maximal_ideal_is_an_internal_error(capsys, monkeypatch):
    # an element outside the wrong ideal fails to invert in the corner: exit 4,
    # never the violation code
    real = ringlab.modules.maximal_ideals
    monkeypatch.setattr(ringlab.modules, "maximal_ideals", lambda ring: real(ring)[::-1])
    code, out = run(
        capsys, "localize", "--ring", "modular(6)", "--module", "2,1",
        "--at-maximal", "0",
    )
    assert code == 4
    assert out.startswith("internal error: ")
    assert "does not invert in corner(modular(6), 3)" in out


def test_localization_invertibility_check_survives_python_O():
    script = """
import pytest, ringlab.cli, ringlab.modules
try:
    assert False
except AssertionError:
    raise SystemExit("assert statements are live; not running under -O")
real = ringlab.modules.maximal_ideals
ringlab.modules.maximal_ideals = lambda ring: real(ring)[::-1]
with pytest.raises(AssertionError, match="does not invert"):
    ringlab.modules.localize_at_maximal(ringlab.modules.ring_module(ringlab.ModularRing(6)), 0)
argv = ["localize", "--ring", "modular(6)", "--module", "2,1", "--at-maximal", "0"]
print("exit", ringlab.cli.main(argv))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("internal error: ")
    assert lines[-1] == "exit 4"


def test_localize_needs_exactly_one_site(capsys):
    code, _ = run(capsys, "localize", "--ring", "modular(6)", "--module", "1,1")
    assert code == 3
    code, _ = run(
        capsys, "localize", "--ring", "modular(6)", "--module", "1,1",
        "--at-element", "3", "--at-maximal", "0",
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        (
            "refine", "--generators", "2", "--monoid", '{"generators": 2}',
            "1,0", "0,1", "1,0", "0,1",
        ),
        (
            "check-cancellation", "--generators", "2", "--monoid", '{"generators": 1}',
            "--unit", "1",
        ),
    ],
)
def test_monoid_commands_refuse_both_presentations(capsys, argv):
    assert run(capsys, *argv) == (3, "")


def test_iso_answers_both_ways(capsys):
    code, out = run(
        capsys, "iso", "--ring", "modular(6)", "--left", "1,2", "--right", "1,2"
    )
    assert code == 0
    assert "iso=True" in out
    code, out = run(
        capsys, "iso", "--ring", "modular(6)", "--left", "1,2", "--right", "2,1"
    )
    assert code == 1
    assert "iso=False" in out


# ---------------------------------------------------------------------------
# the verify suite


def test_verify_suite_passes(capsys):
    code, out = run(capsys, "verify", "--ring", "modular(6)", "--bound", "2")
    assert code == 0
    assert out.endswith("result=pass\n")
    for name in (
        "check=refinement",
        "check=local-global",
        "check=partition-of-unity",
        "check=cancellation-and-reduction",
        "check=jacobson-lift",
        "check=decomposition",
    ):
        assert name in out
    assert "violated" not in out


GOLDENS = {
    entry["name"]: entry
    for entry in json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json").read_text()
    )
}


@pytest.mark.parametrize("name", ["verify_modular12", "verify_modular30"])
def test_verify_matches_recorded_golden(capsys, name):
    golden = GOLDENS[name]
    code, out = run(capsys, *golden["argv"])
    assert code == golden["exit"]
    assert out == golden["stdout"]


@pytest.mark.parametrize("name", ["ex31", "ex33", "ex34"])
def test_counterexample_matches_recorded_golden(capsys, name):
    golden = GOLDENS[name]
    code, out = run(capsys, *golden["argv"])
    assert code == golden["exit"]
    assert out == golden["stdout"]


def test_verify_output_is_stable(capsys):
    _, first = run(capsys, "verify", "--ring", "modular(4)", "--bound", "2")
    _, second = run(capsys, "verify", "--ring", "modular(4)", "--bound", "2")
    assert first == second


def test_verify_accepts_explicit_generators(capsys):
    code, out = run(
        capsys, "verify", "--ring", "modular(6)", "--bound", "1",
        "--generators", "3,4",
    )
    assert code == 0
    assert "generators=[3, 4]" in out


def test_verify_rejects_a_negative_bound(capsys):
    code, out = run(capsys, "verify", "--ring", "modular(6)", "--bound", "-1")
    assert code == 3
    assert out == "input error: bound must be nonnegative\n"


def test_verify_reports_a_failed_decomposition(capsys, monkeypatch):
    original = ringlab.modules._index_splits

    def fail_at_three(d, unit_module):
        sizes, ok_kernel, ok_cokernel = original(d, unit_module)
        return sizes, ok_kernel and d.literal() != 3, ok_cokernel

    monkeypatch.setattr("ringlab.modules._index_splits", fail_at_three)
    code, out = run(capsys, "verify", "--ring", "modular(6)", "--bound", "1")
    assert code == 1
    assert out.endswith(
        "check=decomposition instance=modular(6) regular 1x1 verdict=violated checked=6\n"
        "  counterexample: diagonal refinement fails for [a] with a in [3]\n"
        "result=violation\n"
    )


def _fail_index_at_three(monkeypatch):
    original = ringlab.modules.module_iso
    monkeypatch.setattr(
        "ringlab.modules.module_iso",
        lambda left, right: getattr(left, "label", None) != "ann(3)(+)3R"
        and original(left, right),
    )


# faults below the refinement check itself, not a stub of it: each must come
# back as a violation (exit 1) naming the element, never as an internal error
@pytest.mark.parametrize("inject", [_fail_index_at_three])
def test_verify_reports_a_fault_inside_the_refinement_check(capsys, monkeypatch, inject):
    inject(monkeypatch)
    code, out = run(capsys, "verify", "--ring", "modular(6)", "--bound", "1")
    assert code == 1
    assert out.endswith(
        "check=decomposition instance=modular(6) regular 1x1 verdict=violated checked=6\n"
        "  counterexample: diagonal refinement fails for [a] with a in [3]\n"
        "result=violation\n"
    )


@pytest.mark.parametrize("ring", ["modular(12)", "modular(30)"])
def test_verify_builds_no_ring_matrix(capsys, monkeypatch, ring):
    # the sweep reduces payload tuples, and the decomposition section checks
    # each regular element's splittings directly
    built = []
    real = RingMatrix.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(RingMatrix, "__post_init__", counted)
    code, _ = run(capsys, "verify", "--ring", ring, "--bound", "2")
    assert code == 0
    assert built == []
    RingMatrix.from_rows(ModularRing(12), [[3]])
    assert len(built) == 1


_WRONG_RADICAL = """
import ringlab.rings

real_radical = ringlab.rings._radical_int

def wrong_radical(n):
    # rad(12) is 6; 12 makes the quotient Z/12 itself, whose projection has
    # kernel {0} where the radical is {0, 6}
    return n if n == 12 else real_radical(n)
"""


def test_a_wrong_quotient_is_an_internal_error(capsys, monkeypatch):
    # the projection to R/J(R) is verified where it is built, so a wrong
    # quotient stops verify as a bug (exit 4), never as a violation
    namespace = {}
    exec(_WRONG_RADICAL, namespace)
    monkeypatch.setattr("ringlab.rings._radical_int", namespace["wrong_radical"])
    code, out = run(capsys, "verify", "--ring", "modular(12)", "--bound", "2")
    assert code == 4
    assert out.splitlines()[0] == "internal error: projection kernel differs from the radical"


def test_a_wrong_quotient_is_an_internal_error_under_python_O():
    script = _WRONG_RADICAL + """
ringlab.rings._radical_int = wrong_radical
import ringlab.cli
try:
    assert False
except AssertionError:
    raise SystemExit("assert statements are live; not running under -O")
print("exit", ringlab.cli.main(["verify", "--ring", "modular(12)", "--bound", "2"]))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "internal error: projection kernel differs from the radical"
    assert lines[-1] == "exit 4"


@pytest.mark.parametrize(
    "ring, eliminations, checks",
    [
        # J = 0: one sweep of 30 + 900 + 900 matrices (2x2 is over the
        # element budget) also serves as the quotient sweep.  It eliminates
        # over Z/2, Z/3 and Z/5 once per factor matrix, 10 + 38 + 38, and
        # checks each joined witness over Z/30
        pytest.param("modular(30)", 86, 1_830, id="modular(30)-1830"),
        # J != 0: Z/12 = Z/4 x Z/3 (7 + 25 + 25 factor matrices for 300
        # matrices over Z/12), and its quotient Z/6 = Z/2 x Z/3 with 2x2
        # included (5 + 13 + 13 + 97 for 1,374)
        pytest.param("modular(12)", 57 + 128, 300 + 1_374, id="modular(12)-1674"),
    ],
)
def test_verify_reduces_each_small_matrix_once(
    capsys, monkeypatch, ring, eliminations, checks
):
    # the sweep eliminates each factor matrix once and checks each matrix
    # over R once; no other section of verify reduces a matrix (the
    # decomposition section checks each regular element without one)
    counts = {"_eliminate_payloads": 0, "_check_reduction": 0}
    for name in counts:
        original = getattr(ringlab.matrices, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(f"ringlab.matrices.{name}", counted)
        monkeypatch.setattr(f"ringlab.modules.{name}", counted)
    code, _ = run(capsys, "verify", "--ring", ring, "--bound", "2")
    assert code == 0
    assert counts == {"_eliminate_payloads": eliminations, "_check_reduction": checks}


_TAMPERED_FACTOR = """
import ringlab.matrices, ringlab.modules

def tampered(ring, a, m, n):
    # one wrong P entry for the matrix [[1]] over the factor Z/3 of Z/6
    P, Pi, Q, Qi, D = ringlab.matrices._eliminate_payloads(ring, a, m, n)
    if ring.modulus == 3 and tuple(a) == (1,):
        P = ((P[0] + 1) % 3,)
    return P, Pi, Q, Qi, D
"""


def test_a_wrong_factor_witness_fails_the_joined_check(capsys, monkeypatch):
    # Z/6 = Z/2 x Z/3: the wrong Z/3 component makes the joined P over Z/6
    # fail its check over R, which is a bug (exit 4), not a violation
    namespace = {}
    exec(_TAMPERED_FACTOR, namespace)
    monkeypatch.setattr("ringlab.modules._eliminate_payloads", namespace["tampered"])
    code, out = run(capsys, "verify", "--ring", "modular(6)", "--bound", "1")
    assert code == 4
    assert out.splitlines()[0] == "internal error: reduction verification failed; this is a bug"


def test_joined_check_survives_python_O():
    script = _TAMPERED_FACTOR + """
ringlab.modules._eliminate_payloads = tampered
import ringlab.cli
try:
    assert False
except AssertionError:
    raise SystemExit("assert statements are live; not running under -O")
print("exit", ringlab.cli.main(["verify", "--ring", "modular(6)", "--bound", "1"]))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "internal error: reduction verification failed; this is a bug"
    assert lines[-1] == "exit 4"


_TAMPERED_INVERSE = """
import ringlab.matrices, ringlab.modules

def tampered(ring, a, m, n):
    # one wrong P_inv entry (P itself is right) for the matrix [[1]] over
    # the factor Z/3 of Z/6
    P, Pi, Q, Qi, D = ringlab.matrices._eliminate_payloads(ring, a, m, n)
    if ring.modulus == 3 and tuple(a) == (1,):
        Pi = ((Pi[0] + 1) % 3,)
    return P, Pi, Q, Qi, D
"""


def test_a_wrong_factor_inverse_fails_the_joined_check(capsys, monkeypatch):
    # a transform pair is known by P and P_inv together, so the pair with
    # the wrong P_inv is a new pair over Z/6 and is multiplied out
    namespace = {}
    exec(_TAMPERED_INVERSE, namespace)
    monkeypatch.setattr("ringlab.modules._eliminate_payloads", namespace["tampered"])
    code, out = run(capsys, "verify", "--ring", "modular(6)", "--bound", "1")
    assert code == 4
    assert out.splitlines()[0] == "internal error: reduction verification failed; this is a bug"


def test_joined_inverse_check_survives_python_O():
    script = _TAMPERED_INVERSE + """
ringlab.modules._eliminate_payloads = tampered
import ringlab.cli
try:
    assert False
except AssertionError:
    raise SystemExit("assert statements are live; not running under -O")
print("exit", ringlab.cli.main(["verify", "--ring", "modular(6)", "--bound", "1"]))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "internal error: reduction verification failed; this is a bug"
    assert lines[-1] == "exit 4"


@pytest.mark.parametrize(
    "ring, products",
    [
        # 34 distinct pairs among the 1,374 matrices over Z/6
        pytest.param("modular(6)", (34, 0), id="modular(6)"),
        # 79 pairs over Z/12 and 34 in the quotient sweep over Z/6
        pytest.param("modular(12)", (79 + 34, 0), id="modular(12)"),
        # 361 pairs among the 1,830 matrices over Z/30
        pytest.param("modular(30)", (361, 0), id="modular(30)"),
    ],
)
def test_verify_multiplies_out_each_distinct_transform_pair_once(
    capsys, monkeypatch, ring, products
):
    # each sweep call keeps one set of verified pairs; a check without a set
    # would multiply out both of its pairs, and every check in verify is a
    # sweep check
    count = full = 0
    met = {}
    real_pair = ringlab.matrices._inverse_pair
    real_holds = ringlab.matrices._reduction_holds

    def counted_pair(*args):
        nonlocal count
        count += 1
        return real_pair(*args)

    def recorded_holds(ring, a, m, n, P, Pi, Q, Qi, D, verified=None):
        nonlocal full
        if verified is None:
            full += 1
        else:
            # holding each set keeps its id apart from later sets'
            met.setdefault(id(verified), (verified, set()))[1].update([(P, Pi), (Q, Qi)])
        return real_holds(ring, a, m, n, P, Pi, Q, Qi, D, verified)

    monkeypatch.setattr("ringlab.matrices._inverse_pair", counted_pair)
    monkeypatch.setattr("ringlab.matrices._reduction_holds", recorded_holds)
    code, _ = run(capsys, "verify", "--ring", ring, "--bound", "2")
    assert code == 0
    assert count == sum(len(pairs) for _, pairs in met.values()) + 2 * full
    assert (count, full) == products


def test_only_the_jacobson_section_computes_the_radical(capsys, monkeypatch):
    # the sweep only reduces and counts: verify over Z/12 computes J(R) once,
    # for Z/12, and sweeps the quotient Z/6 without computing its radical
    calls = []
    real = ringlab.modules.jacobson_radical_and_quotient

    def recorded(ring):
        calls.append(ring.descriptor())
        return real(ring)

    monkeypatch.setattr("ringlab.modules.jacobson_radical_and_quotient", recorded)
    code, _ = run(capsys, "verify", "--ring", "modular(12)", "--bound", "2")
    assert code == 0
    assert calls == ["modular(12)"]
    calls.clear()
    assert cancellation_and_reduction_verify(ModularRing(12), 2).holds
    assert calls == []


def test_verify_rejects_non_modular(capsys):
    # the ring gate runs before the default generators are computed, and
    # integers has no idempotent basis to compute them from
    code, out = run(capsys, "verify", "--ring", "integers", "--bound", "2")
    assert code == 3
    assert out == "input error: the verify suite runs over modular rings, got integers\n"


@pytest.mark.parametrize("extra", [("--bound", "1"), ("--bound", "-1", "--generators", "zz")])
def test_verify_gates_the_ring_before_parsing_anything(capsys, extra):
    code, out = run(capsys, "verify", "--ring", "trivial(modular(2))", *extra)
    assert code == 3
    assert out == (
        "input error: the verify suite runs over modular rings, got trivial(modular(2))\n"
    )


def test_verify_reports_a_monoid_cancellation_failure(capsys, monkeypatch):
    # a pair reported by the monoid check is a violation (exit 1), never exit 4
    real = ringlab.modules.cancellation_law_check

    def report_a_pair(unit, candidates, *args):
        pair = tuple(unit.presentation.element(v) for v in ((0, 1), (0, 2)))
        report = real(unit, candidates, *args)
        return dataclasses.replace(report, holds=False, counterexample=pair)

    monkeypatch.setattr(ringlab.modules, "cancellation_law_check", report_a_pair)
    code, out = run(capsys, "verify", "--ring", "modular(6)", "--bound", "2")
    assert code == 1
    assert "  counterexample: monoid pair A=(0, 1) B=(0, 2)\ncheck=jacobson-lift" in out
    assert out.endswith("result=violation\n")


def test_monoid_cancellation_failure_survives_python_O():
    script = """
import dataclasses, ringlab.cli, ringlab.modules
try:
    assert False
except AssertionError:
    raise SystemExit("assert statements are live; not running under -O")
real = ringlab.modules.cancellation_law_check
def check(unit, candidates, *args):
    pair = tuple(unit.presentation.element(v) for v in ((0, 1), (0, 2)))
    return dataclasses.replace(real(unit, candidates, *args), holds=False, counterexample=pair)
ringlab.modules.cancellation_law_check = check
print("exit", ringlab.cli.main(["verify", "--ring", "modular(6)", "--bound", "2"]))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "  counterexample: monoid pair A=(0, 1) B=(0, 2)" in lines
    assert lines[-2:] == ["result=violation", "exit 1"]


# ---------------------------------------------------------------------------
# counterexample searches


def test_counterexample_ex31(capsys):
    code, out = run(capsys, "counterexample", "ex31", "--degree", "2")
    assert code == 0
    assert "verdict=not-principal-up-to bound=2" in out
    assert "bounded evidence" in out


def _ex31_output(degree, examined):
    return (
        f"instance=poly(modular(4), bound={degree}) ideal=(2, X) degree<={degree}\n"
        f"verdict=not-principal-up-to bound={degree}\n"
        f"candidates_examined={examined}\n"
        f"note: no single generator of degree <= {degree}"
        f" ({examined} candidates examined; bounded evidence, not a proof)\n"
    )


# the members of (2, X) of degree <= d, minus zero: 2 * 4^d - 1; degree 4
# has 512^2 cofactor combinations, past the default budget
@pytest.mark.parametrize("degree, examined", [(1, 7), (2, 31), (3, 127), (4, 511)])
def test_counterexample_ex31_output_at_each_degree(capsys, monkeypatch, degree, examined):
    monkeypatch.setenv("RINGLAB_SEARCH_BUDGET", "2000000")
    assert run(capsys, "counterexample", "ex31", "--degree", str(degree)) == (
        0, _ex31_output(degree, examined)
    )


def test_counterexample_ex31_default_degree(capsys):
    code, out = run(capsys, "counterexample", "ex31")
    assert code == 0
    assert "bound=3" in out
    assert "candidates_examined=127" in out


def test_counterexample_ex33(capsys):
    code, out = run(capsys, "counterexample", "ex33")
    assert code == 0
    assert "poly2(gf(2), bound=2)" in out
    assert "verdict=not-principal-up-to bound=2" in out


def test_counterexample_ex33_other_prime(capsys):
    code, out = run(capsys, "counterexample", "ex33", "--p", "3", "--degree", "1")
    assert code == 0
    assert "poly2(gf(3), bound=1)" in out


def test_counterexample_ex34(capsys):
    code, out = run(capsys, "counterexample", "ex34", "--height", "1")
    assert code == 0
    assert "verdict=no-reduction-within-bounds" in out
    assert "column_pairs_examined=6561" in out


# A search that finds what it looks for refutes the claimed counterexample.
# The finds below are real, verified witnesses for other instances, put in
# place of the searches.


def test_counterexample_prints_a_principal_witness(capsys, monkeypatch):
    ring = PolynomialRing(ModularRing(4))
    x = ring.gen()
    witness = bounded_principality_check([x, x * x], 2)  # (X, X^2) = (X)
    monkeypatch.setattr(
        "ringlab.cli.bounded_principality_check", lambda generators, bound: witness
    )
    assert run(capsys, "counterexample", "ex31") == (
        1,
        "instance=poly(modular(4), bound=3) ideal=(2, X) degree<=3\n"
        "verdict=principal\n"
        "generator=[0, 1]\n"
        "cofactor[0]=[1]\n"
        "cofactor[1]=[0, 1]\n"
        "combination[0]=[1]\n"
        "combination[1]=[]\n"
        "note: the claimed counterexample is refuted by this witness\n",
    )


def test_counterexample_prints_a_found_reduction(capsys, monkeypatch):
    ring = TrivialExtensionRing(IntegerRing())
    row = RingMatrix.from_rows(ring, [[(1, 0), (0, 1)]])  # (1, e) reduces
    report = trivial_extension_hermite_search(row, 1)
    monkeypatch.setattr(
        "ringlab.cli.trivial_extension_hermite_search", lambda height: report
    )
    assert run(capsys, "counterexample", "ex34") == (
        1,
        "instance=trivial(integers) row=(2, e) height<=1\n"
        "column_pairs_examined=2674\n"
        "verdict=reduction-found\n"
        "reduction found: d = [-1, -2], Q = [[-1, -1], [0, -1], [-1, -1], [1, -1]]\n"
        "note: the claimed counterexample is refuted by this transform\n",
    )


def test_counterexample_ex34_budget(capsys):
    code, out = run(capsys, "counterexample", "ex34", "--height", "5")
    assert code == 2
    assert "exhausted" in out


# instances with every option set; the recorded goldens above pin ex31
# --degree 3, ex33 and ex34 with their defaults
COUNTEREXAMPLE_OUTPUTS = {
    ("ex33", "--p", "3", "--degree", "2"): (
        "instance=poly2(gf(3), bound=2) ideal=(X, Y) total degree<=2\n"
        "verdict=not-principal-up-to bound=2\n"
        "candidates_examined=242\n"
        "note: no single generator of degree <= 2"
        " (242 candidates examined; bounded evidence, not a proof)\n"
    ),
    ("ex34", "--height", "1"): (
        "instance=trivial(integers) row=(2, e) height<=1\n"
        "column_pairs_examined=6561\n"
        "verdict=no-reduction-within-bounds\n"
        "note: no reduction found within bounds"
        " (entry height <= 1, 6561 column pairs examined; bounded evidence)\n"
    ),
}


@pytest.mark.parametrize("argv", list(COUNTEREXAMPLE_OUTPUTS))
def test_counterexample_instance_options_keep_their_output(capsys, argv):
    assert run(capsys, "counterexample", *argv) == (0, COUNTEREXAMPLE_OUTPUTS[argv])


@pytest.mark.parametrize(
    "argv",
    [
        ("ex34", "--degree", "5"),
        ("ex34", "--p", "3"),
        ("ex31", "--p", "3"),
        ("ex31", "--height", "1"),
        ("ex33", "--height", "1"),
    ],
)
def test_counterexample_refuses_options_its_instance_does_not_read(capsys, argv):
    assert run(capsys, "counterexample", *argv) == (3, "")


@pytest.mark.parametrize(
    "value, code, out",
    [
        ("1000", 2, "exhausted: 390625 column pairs exceed the search budget 1000"),
        ("abc", 3, "input error: RINGLAB_SEARCH_BUDGET must be an integer, got 'abc'"),
        ("0", 3, "input error: RINGLAB_SEARCH_BUDGET must be positive, got 0"),
    ],
)
def test_search_budget_is_read_from_the_environment(capsys, monkeypatch, value, code, out):
    monkeypatch.setenv("RINGLAB_SEARCH_BUDGET", value)
    assert run(capsys, "counterexample", "ex34") == (code, f"{out}\n")


# ---------------------------------------------------------------------------
# argument handling


def test_unknown_subcommand_is_input_error(capsys):
    assert main(["nonsense"]) == 3


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0


# ---------------------------------------------------------------------------
# malformed and over-nested input is an input error


NESTED_LIST = "[" * 20000 + "]" * 20000


def test_an_over_nested_ring_descriptor_is_an_input_error(capsys):
    descriptor = "poly(" * 3000 + "integers" + ")" * 3000
    code, out = run(capsys, "bezout", "--ring", descriptor, "1", "2")
    assert code == 3
    assert out.startswith("input error: bad ring descriptor at position ")
    assert out.endswith(": rings nest deeper than 32 constructors\n")


def test_an_over_nested_matrix_input_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out = run(capsys, "snf", "--input", str(path))
    assert code == 3
    assert out.startswith("input error: matrix input is not valid JSON: ")


def test_an_over_nested_monoid_is_an_input_error(capsys):
    code, out = run(capsys, "refine", "--monoid", NESTED_LIST, "1", "1", "1", "1")
    assert code == 3
    assert out.startswith("input error: --monoid is not valid JSON: ")


def test_an_over_nested_element_literal_is_an_input_error(capsys):
    code, out = run(capsys, "bezout", "--ring", "poly(gf(7))", NESTED_LIST, "1")
    assert code == 3
    assert out.startswith("input error: element literal is not valid JSON: ")


@pytest.mark.parametrize(
    "monoid, message",
    [
        ('{"generators": 1, "relations": [[[[1]], [2]]]}', "expected an integer literal, got [1]"),
        ('{"generators": 1, "relations": [[1, 2]]}', "expected a relation side of 1 exponents, got 1"),
        ('{"generators": true}', "generator_count must be a positive integer"),
        ('{"generators": 1, "relations": [[[2.9], [1]]]}', "expected an integer literal, got 2.9"),
    ],
)
@pytest.mark.parametrize(
    "command",
    [
        ("refine", "1", "1", "1", "1"),
        ("check-cancellation", "--unit", "1", "--max-entry", "2"),
    ],
)
def test_a_malformed_monoid_is_refused(capsys, command, monoid, message):
    code, out = run(capsys, command[0], "--monoid", monoid, *command[1:])
    assert (code, out) == (3, f"input error: {message}\n")


def test_a_large_ring_exhausts_the_radical_pair_budget(capsys):
    # 2048^2 element pairs: refused before the radical's pair loops run
    code, out = run(
        capsys, "localize", "--ring", "modular(2048)", "--module", "1", "--at-maximal", "0"
    )
    assert (code, out) == (
        2,
        "exhausted: 4194304 element pairs exceed the search budget 1000000\n",
    )


def test_a_huge_prime_field_exhausts_the_trial_division_budget(capsys):
    code, out = run(capsys, "bezout", "--ring", "gf(1000000000000000003)", "1", "2")
    assert (code, out) == (
        2,
        "exhausted: 499999999 trial divisors exceed the search budget 1000000\n",
    )


@pytest.mark.parametrize(
    "argv, line",
    [
        (("ex31", "--degree", "10000000"), "4^20000002"),
        (("ex33", "--degree", "100000"), "2^10000300002"),
    ],
)
def test_an_oversized_principality_box_is_refused_in_one_short_line(capsys, argv, line):
    code, out = run(capsys, "counterexample", *argv)
    assert (code, out) == (
        2,
        f"exhausted: {line} cofactor combinations exceed the search budget 1000000\n",
    )


# ---------------------------------------------------------------------------
# one parser per process


CLI_SUITE = ("verify_modular12", "verify_modular30", "ex31", "ex33", "ex34")


def test_a_usage_error_leaves_the_parser_as_it_was(capsys):
    def suite():
        return [run(capsys, *GOLDENS[name]["argv"]) for name in CLI_SUITE]

    first = suite()
    assert run(capsys, "counterexample", "ex34", "--degree", "5") == (3, "")
    assert suite() == first
    assert first == [(GOLDENS[name]["exit"], GOLDENS[name]["stdout"]) for name in CLI_SUITE]


def test_main_builds_at_most_one_parser_tree(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert ringlab.cli.build_parser() is not ringlab.cli.build_parser()
    tree = len(built) // 2
    built.clear()
    assert run(capsys, "counterexample", "ex31", "--degree", "1")[0] == 0
    assert run(capsys, "counterexample", "ex34", "--degree", "5")[0] == 3
    assert run(capsys, "bezout", "4", "6")[0] == 0
    assert tree > 1
    assert len(built) <= tree


def test_snf_looks_its_reducer_up_at_call_time(capsys, monkeypatch):
    doc = json.dumps({"ring": "integers", "rows": 1, "cols": 1, "entries": [6]})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert run(capsys, "snf")[0] == 0
    original = ringlab.cli.smith_normal_form
    seen = []

    def patched(matrix):
        seen.append(matrix)
        return original(matrix)

    monkeypatch.setattr("ringlab.cli.smith_normal_form", patched)
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out = run(capsys, "snf")
    assert code == 0
    assert json.loads(out)["diagonal"] == [6]
    assert len(seen) == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ringlab.cli", "bezout", "4", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "d=2" in proc.stdout
