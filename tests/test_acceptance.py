"""End-to-end acceptance gates with stated time budgets.

Each test covers one numbered criterion, re-derives its expected answers from
independent oracles where one exists, and prints a single pass/fail line
(visible under ``pytest -s``).  The time limits are asserted, not advisory.
"""

import itertools
import math
import random
import time

from ringlab import (
    IntegerRing,
    ModularRing,
    MonoidPresentation,
    PrimeField,
    RingMatrix,
    TrivialExtensionRing,
    annihilator_submodule,
    cancellation_law_check,
    conical_check,
    constant_rank_free_check,
    cyclic_submodule,
    diagonal_reduction,
    direct_sum,
    elementary_divisor_chain_check,
    find_module_isomorphism,
    is_regular_element,
    is_regular_matrix,
    is_unit,
    jacobson_lift_verify,
    jacobson_radical_and_quotient,
    local_global_verify,
    partition_of_unity_verify,
    projective_module,
    projective_monoid,
    quotient_by_cyclic,
    reduce_matrix,
    refine,
    ring_module,
    smith_normal_form,
    stably_free_check,
    verify_reduction,
)
from ringlab.cli import main
from ringlab.matrices import _brute_regularity

Z = IntegerRing()


def _stamp(number, label, limit, started, failures):
    elapsed = time.perf_counter() - started
    verdict = "pass" if not failures else "fail"
    print(f"criterion {number}: {label}: {verdict} ({elapsed:.2f}s / {limit}s)")
    assert not failures, failures[:3]
    assert elapsed < limit, f"criterion {number} overran: {elapsed:.2f}s"


def _int_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * head * _int_det(minor)
    return total


def _minor_gcd_diagonal(rows):
    m, n = len(rows), len(rows[0])
    out = []
    previous = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, _int_det(sub))
        if g == 0:
            out.extend([0] * (min(m, n) - len(out)))
            break
        out.append(g // previous)
        previous = g
    return out


def test_criterion_1_integer_snf_against_minor_oracle():
    started = time.perf_counter()
    rng = random.Random(1)
    failures = []
    for rows_n, cols_n in ((3, 3), (2, 4)):
        for _ in range(1000):
            rows = [
                [rng.randint(-20, 20) for _ in range(cols_n)]
                for _ in range(rows_n)
            ]
            a = RingMatrix.from_rows(Z, rows)
            red = smith_normal_form(a)
            got = [e.literal() for e in red.diagonal()]
            want = _minor_gcd_diagonal(rows)
            if not verify_reduction(a, red):
                failures.append(("witness", rows))
            elif not elementary_divisor_chain_check(red):
                failures.append(("chain", rows))
            elif got != want:
                failures.append(("oracle", rows, got, want))
    _stamp(1, "integer SNF vs minor oracle", 5.0, started, failures)


def test_criterion_2_exhaustive_modular_two_by_two():
    started = time.perf_counter()
    failures = []
    checked = 0
    for n in (4, 6):
        ring = ModularRing(n)
        for entries in itertools.product(range(n), repeat=4):
            a = RingMatrix.from_rows(
                ring, [list(entries[:2]), list(entries[2:])]
            )
            red = reduce_matrix(a)
            checked += 1
            if not verify_reduction(a, red):
                failures.append((n, entries))
    assert checked == 256 + 1296
    _stamp(2, "exhaustive 2x2 over Z/4 and Z/6", 5.0, started, failures)


def test_criterion_3_projective_monoid_is_refinement():
    started = time.perf_counter()
    rng = random.Random(3)
    failures = []
    rings = [
        ModularRing(4),
        ModularRing(6),
        ModularRing(12),
        ModularRing(30),
        PrimeField(5),
        TrivialExtensionRing(ModularRing(4)),
    ]
    for ring in rings:
        pres, basis = projective_monoid(ring)
        if not pres.is_free:
            failures.append((ring.descriptor(), "not free"))
            continue
        k = pres.generator_count
        units = [
            pres.element(tuple(int(i == j) for i in range(k))) for j in range(k)
        ]
        if not conical_check(units):
            failures.append((ring.descriptor(), "not conical"))
        for _ in range(500):
            x1 = pres.element(tuple(rng.randint(0, 10) for _ in range(k)))
            x2 = pres.element(tuple(rng.randint(0, 10) for _ in range(k)))
            total = x1 + x2
            y1 = pres.element(tuple(rng.randint(0, t) for t in total.exponents))
            y2 = pres.element(
                tuple(t - s for t, s in zip(total.exponents, y1.exponents))
            )
            # grid entries can reach the largest total, so bound by it
            witness = refine(x1, x2, y1, y2, 20)
            if witness is None:
                failures.append((ring.descriptor(), x1, x2, y1, y2))
            elif witness.row_sums() != (x1, x2):
                failures.append((ring.descriptor(), "bad rows", x1, x2))
            elif witness.column_sums() != (y1, y2):
                failures.append((ring.descriptor(), "bad columns", y1, y2))
    _stamp(3, "V(R) free, conical, 500 splittings each", 5.0, started, failures)


def test_criterion_4_local_global_detection():
    started = time.perf_counter()
    failures = []
    for n in (6, 12):
        report = local_global_verify(ModularRing(n), 3)
        if not report.holds or report.counterexample is not None:
            failures.append((n, report.counterexample))
        if report.checked != 16 * 16:
            failures.append((n, "checked", report.checked))
    _stamp(4, "iso iff all maximal localizations agree", 10.0, started, failures)


def test_criterion_5_partition_of_unity():
    started = time.perf_counter()
    failures = []
    cases = [(6, (3, 4)), (12, (4, 9))]
    for n, gens in cases:
        ring = ModularRing(n)
        report = partition_of_unity_verify(
            ring, [ring.make(g) for g in gens], 2
        )
        if not report.holds or report.counterexample is not None:
            failures.append((n, gens, report.counterexample))
    _stamp(5, "localizations at unit-ideal generators", 10.0, started, failures)


def test_criterion_6_constant_rank_and_stably_free():
    started = time.perf_counter()
    failures = []
    ring = ModularRing(6)
    for rank in range(4):
        verdict = constant_rank_free_check(projective_module(ring, (rank, rank)))
        if not verdict.free or verdict.rank != rank:
            failures.append(("constant", rank, verdict))
    for a in range(4):
        for b in range(a, 4):
            module = projective_module(ring, (b - a, b - a))
            verdict = stably_free_check(module, a, b)
            if not verdict.free or verdict.rank != b - a:
                failures.append(("stably-free", a, b, verdict))
    _stamp(6, "constant rank and stably free force free", 1.0, started, failures)


def test_criterion_7_cancellation_and_small_reductions():
    started = time.perf_counter()
    failures = []
    for k in (1, 2, 3):
        pres = MonoidPresentation(generator_count=k, relations=())
        unit = pres.element((1,) * k)
        candidates = [
            pres.element(v) for v in itertools.product(range(6), repeat=k)
        ]
        report = cancellation_law_check(unit, candidates)
        if not report.holds:
            failures.append(("cancellation", k, report.describe()))
        if report.pairs_checked != len(candidates) ** 2:
            failures.append(("pairs", k, report.pairs_checked))
    for n in (6, 4):
        ring = ModularRing(n)
        for shape in ((1, 1), (1, 2), (2, 1)):
            size = shape[0] * shape[1]
            for entries in itertools.product(range(n), repeat=size):
                grid = [
                    list(entries[i * shape[1] : (i + 1) * shape[1]])
                    for i in range(shape[0])
                ]
                a = RingMatrix.from_rows(ring, grid)
                if not is_regular_matrix(a)[0]:
                    continue
                red = diagonal_reduction(a)
                if not verify_reduction(a, red):
                    failures.append((n, shape, entries))
    _stamp(7, "cancellation law and regular 1x2/2x1 reduce", 10.0, started, failures)


def test_criterion_8_decomposition_of_regular_elements():
    started = time.perf_counter()
    failures = []
    for n in (4, 6, 8, 9, 12):
        ring = ModularRing(n)
        target = ring_module(ring)
        for d in ring.elements():
            if not is_regular_element(d)[0]:
                continue
            image = cyclic_submodule(d)
            first = direct_sum(annihilator_submodule(d), image)
            if find_module_isomorphism(first, target) is None:
                failures.append((n, d.literal(), "ann + dR"))
            second = direct_sum(quotient_by_cyclic(d), image)
            if find_module_isomorphism(second, target) is None:
                failures.append((n, d.literal(), "R/dR + dR"))
    _stamp(8, "ann(d) + dR = R and R/dR + dR = R", 10.0, started, failures)


def test_criterion_9_jacobson_radical_and_lift(monkeypatch):
    started = time.perf_counter()
    failures = []
    # the element cap is raised to n^4, so every ring also sweeps its 2x2
    # matrices (Z/9 alone checks 273 matrices at the default cap)
    for n, checked in ((4, 318), (8, 4258), (9, 6834)):
        monkeypatch.setattr("ringlab.errors.DEFAULT_ELEMENT_BUDGET", n**4)
        ring = ModularRing(n)
        radical, quotient, _ = jacobson_radical_and_quotient(ring)
        one = ring.one()
        oracle = {
            a.payload
            for a in ring.elements()
            if all(is_unit(one - r * a) for r in ring.elements())
        }
        if {a.payload for a in radical} != oracle:
            failures.append((n, "radical", sorted(oracle)))
        report = jacobson_lift_verify(ring)
        if not report.holds or report.checked != checked:
            failures.append((n, "lift", report.checked, report.counterexample))
        if quotient.descriptor() not in " ".join(report.details):
            failures.append((n, "quotient", quotient.descriptor()))
    _stamp(9, "J(R) matches unit criterion, reductions lift", 10.0, started, failures)


def test_criterion_10_bounded_refutations(capsys):
    started = time.perf_counter()
    failures = []
    rc = main(["counterexample", "ex31", "--degree", "3"])
    out = capsys.readouterr().out
    if rc != 0:
        failures.append(("ex31 exit", rc))
    if "verdict=not-principal-up-to bound=3" not in out:
        failures.append(("ex31 verdict", out))
    if "candidates_examined=127" not in out:
        failures.append(("ex31 count", out))
    if "bounded evidence, not a proof" not in out:
        failures.append(("ex31 note", out))
    rc = main(["counterexample", "ex33"])
    out = capsys.readouterr().out
    if rc != 0:
        failures.append(("ex33 exit", rc))
    if "verdict=not-principal-up-to bound=2" not in out:
        failures.append(("ex33 verdict", out))
    if "candidates_examined=31" not in out:
        failures.append(("ex33 count", out))
    with capsys.disabled():
        _stamp(10, "ex31/ex33 refuted up to the bound", 30.0, started, failures)


def test_criterion_11_regularity_oracle_agreement():
    started = time.perf_counter()
    failures = []
    ring = ModularRing(12)
    for d in ring.elements():
        structural = is_regular_element(d)[0]
        brute = any((d * g * d) == d for g in ring.elements())
        if structural != brute:
            failures.append(("element", d.literal(), structural, brute))
    ring = ModularRing(4)
    for entries in itertools.product(range(4), repeat=4):
        a = RingMatrix.from_rows(ring, [list(entries[:2]), list(entries[2:])])
        fast, witness = is_regular_matrix(a)
        slow = _brute_regularity(a) is not None
        if fast != slow:
            failures.append(("matrix", entries, fast, slow))
        elif fast and (a @ witness @ a) != a:
            failures.append(("witness", entries))
    _stamp(11, "structural regularity equals brute force", 10.0, started, failures)
