"""Self-tests of the benchmark: oracles, tamper detection, witness size,
trace determinism and the metric names in BENCHMARK.json.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import spans

sys.path.insert(0, str(run.SRC))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tampered(workload, change):
    """Make workload.run return change(output) instead of its output."""
    original = workload.run
    workload.run = lambda item: change(original(item))
    return workload


# ---------------------------------------------------------------------------
# oracles


def test_witness_size_of_hand_built_reductions():
    ringlab, _ = run.import_ringlab()
    big = 2**70
    for ring, shear, bits, degree in (
        (ringlab.IntegerRing(), big, 71, 0),
        (ringlab.PolynomialRing(ringlab.PrimeField(7)), [0, 0, 0, 0, 0, 3], 0, 5),
    ):
        neg = ring.neg(ring.make(shear))
        P = ringlab.RingMatrix.from_rows(ring, [[1, shear], [0, 1]])
        P_inv = ringlab.RingMatrix.from_rows(ring, [[1, neg], [0, 1]])
        eye = ringlab.RingMatrix.identity(ring, 2)
        red = ringlab.DiagonalReduction(P=P, P_inv=P_inv, Q=eye, Q_inv=eye, D=eye)
        doc = ringlab.reduction_to_document(P_inv, red, True)
        assert oracle.witness_size(doc) == (bits, degree)
        arith = oracle.IntArith() if degree == 0 else oracle.GFPolyArith(7)
        A = oracle.grid([arith.norm(e) for e in ringlab.matrix_to_document(P_inv)["entries"]], 2, 2)
        assert oracle.snf_document_failure(arith, random.Random(0), A, doc) is None


def test_witness_over_default_str_limit_is_emitted_checked_and_counted():
    workload, _ = run.set_up("snf-euclid", 3)
    ringlab = workload.rl
    ring = ringlab.IntegerRing()
    shear = 10**5000
    P = ringlab.RingMatrix.from_rows(ring, [[1, shear], [0, 1]])
    P_inv = ringlab.RingMatrix.from_rows(ring, [[1, -shear], [0, 1]])
    doc = ringlab.matrix_to_document(P_inv)
    item = ("int", {"ring": doc["ring"], "rows": 2, "cols": 2, "entries": doc["entries"]})
    eye = ringlab.RingMatrix.identity(ring, 2)
    red = ringlab.DiagonalReduction(P=P, P_inv=P_inv, Q=eye, Q_inv=eye, D=eye)
    out = json.dumps(ringlab.reduction_to_document(P_inv, red, True))
    assert workload.check(item, out) is None
    assert workload.stats["over_str_limit"] == 1
    _, failures = run.run_items(workload, [item])
    assert failures == []


def test_poly_matmul_matches_schoolbook():
    arith = oracle.GFPolyArith(7)
    a = [[[1, 2, 3], [6]], [[], [0, 5, 6, 1]]]
    b = [[[4, 4], [1]], [[0, 0, 6], [2, 3]]]

    def dot(i, j):
        out = [0] * 8
        for k in range(2):
            for s, c in enumerate(a[i][k]):
                for t, d in enumerate(b[k][j]):
                    out[s + t] += c * d
        return arith.norm(out)

    assert arith.matmul(a, b) == [[dot(i, j) for j in range(2)] for i in range(2)]


def test_sympy_invariant_factors_are_normalised():
    assert oracle.invariant_factors("int", [[2, 4, 0], [4, 8, 0]]) == [2, 0]
    assert oracle.invariant_factors("int", [[-3, 0], [0, 6]]) == [3, 6]
    # diag(3x, x^2 + x) over GF(7): factors x and x^2 + x, both monic
    assert oracle.invariant_factors("poly", [[[0, 3], []], [[], [0, 1, 1]]]) == [
        [0, 1],
        [0, 1, 1],
    ]


# ---------------------------------------------------------------------------
# tamper cases are counted as failed operations


def _small_int_items(workload, count):
    items = workload.trace_items()
    return [item for item in items if item[0] == "int" and item[1]["rows"] <= 5][:count]


def test_tampered_snf_witness_entry_fails():
    workload, _ = run.set_up("snf-euclid", 3)
    items = _small_int_items(workload, 3)

    def change(out):
        doc = json.loads(out)
        doc["witness"]["P"]["entries"][0] += 1
        return json.dumps(doc)

    _, failures = run.run_items(tampered(workload, change), items)
    assert len(failures) == len(items)


def test_tampered_snf_diagonal_entry_fails():
    workload, _ = run.set_up("snf-euclid", 3)
    items = _small_int_items(workload, 3)

    def change(out):
        doc = json.loads(out)
        doc["entries"][0] += 1
        doc["diagonal"][0] += 1
        return json.dumps(doc)

    _, failures = run.run_items(tampered(workload, change), items)
    assert len(failures) == len(items)


def test_snf_diagonal_that_disagrees_with_sympy_fails():
    workload, _ = run.set_up("snf-euclid", 3)
    items = _small_int_items(workload, 2)
    _, failures = run.run_items(workload, items)
    assert failures == []
    kind, A, diagonal = json.loads(workload.pending[0])
    workload.pending[0] = json.dumps((kind, A, [diagonal[0] + 1] + diagonal[1:]))
    assert len(workload.finish()) == 1


def test_changed_golden_line_fails():
    workload, _ = run.set_up("cli-suite", 0)
    items = [item for item in workload.COMMANDS if item[0] in ("ex33", "ex34")]
    _, failures = run.run_items(workload, items)
    assert failures == []
    golden = workload.goldens["ex34"]
    lines = golden["stdout"].splitlines(keepends=True)
    lines[0] = lines[0].replace("height<=2", "height<=3")
    golden["stdout"] = "".join(lines)
    _, failures = run.run_items(workload, items)
    assert failures == ["stdout differs from the golden"]


def test_raising_operation_counts_as_failed():
    workload, _ = run.set_up("snf-euclid", 3)

    def boom(out):
        raise ValueError("boom")

    _, failures = run.run_items(tampered(workload, boom), _small_int_items(workload, 3))
    assert len(failures) == 3


# ---------------------------------------------------------------------------
# traced run


def _traced_calls(name, seed, items=None):
    workload, _ = run.set_up(name, seed)
    if items is not None:
        workload.trace_items = lambda: [i for i in workload.COMMANDS if i[0] in items]
    metrics, _, failed = run.per_layer(workload)
    calls = {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}
    return calls, failed


def test_calls_counts_repeat_exactly():
    for name, items in (
        ("snf-euclid", None),
        ("cli-suite", ("ex31", "ex33", "ex34")),
    ):
        first = _traced_calls(name, 5, items)
        assert first == _traced_calls(name, 5, items), name
        assert sum(first[0].values()) > 0


def test_traced_witness_metrics_cover_the_pass():
    # seed 1 starts at the second matrix of the 16x16 pool, whose witness
    # has a 5,050-digit entry
    workload, _ = run.set_up("snf-euclid", 1)
    metrics, _, failed = run.per_layer(workload)
    assert failed == 0
    assert metrics["matrices.witness_over_str_limit"]["value"] >= 1
    assert metrics["matrices.witness_bits_max"]["value"] > 14284
    assert metrics["matrices.witness_degree_max"]["value"] > 0


def test_tracer_restores_the_originals():
    ringlab, cli = run.import_ringlab()
    before = (cli.main, ringlab.modules.module_iso, ringlab.rings.Ring.add)
    tracer = spans.Tracer()
    tracer.install()
    assert cli.main is not before[0]
    tracer.uninstall()
    assert (cli.main, ringlab.modules.module_iso, ringlab.rings.Ring.add) == before


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ["matrices.smith_normal_form", 0.0, 10.0, -1, 0],
        ["matrices.verify_reduction", 2.0, 5.0, 0, 0],
        ["matrices.verify_reduction", 6.0, 7.0, 0, 0],
    ]
    metrics = tracer.metrics(ops=1)
    assert metrics["matrices.smith_normal_form.self_s"] == 6.0
    assert metrics["matrices.verify_reduction.self_s"] == 4.0
    assert metrics["matrices.verify_per_reduction"] == 2.0


# ---------------------------------------------------------------------------
# contract


def test_metric_names_match_benchmark_json():
    workload, _ = run.set_up("cli-suite", 0)
    workload.trace_items = lambda: [workload.COMMANDS[-1]]
    metrics, _, _ = run.per_layer(workload)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS


def test_exits_nonzero_without_sources(tmp_path: Path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_are_scaled_by_the_reference_around_them(monkeypatch):
    workload, _ = run.set_up("cli-suite", 0)
    workload.PASS = [item for item in workload.COMMANDS if item[0] in ("ex33", "ex34")]
    monkeypatch.setattr(run, "reference", lambda: 2 * run.REFERENCE_S)
    setups = []
    raw, scaled, failures, _, _ = run.measure(workload, 0.3, setups)
    assert failures == [] and len(setups) == run.SETUP_REPEATS
    assert scaled == pytest.approx([r / 2 for r in raw])
    assert [s for _, s in setups] == pytest.approx([r / 2 for r, _ in setups])


def test_long_operations_are_scaled_by_a_wider_window():
    R = run.REFERENCE_S
    # references at operation time 0, 1, ..., 10, slow (2R) at 0 to 4
    references = [(float(t), (2 if t < 5 else 1) * R) for t in range(11)]
    scaled = run.scale_operations([5.0, 1.0, 1.0, 3.0], references)
    # 0 to 5 sees all 11; 5 to 6 sees 4 to 7; 6 to 7 sees 5 to 8; 7 to 10
    # sees 4 to 10
    assert scaled == pytest.approx([5 / (16 / 11), 1 / (5 / 4), 1.0, 3 / (8 / 7)])


def test_tail_needs_ten_samples_beyond_and_a_real_tail():
    samples = [float(i) for i in range(1, 201)]
    assert run.tail(samples)[0] == 190.0
    assert run.tail(samples[:15])[0] == 15.0
