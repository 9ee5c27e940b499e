"""Bounded refutation searches: non-principal ideals and a non-Hermite row."""

import itertools
import tracemalloc

import pytest

from ringlab import (
    BivariatePolynomialRing,
    BudgetExceeded,
    HermiteSearchReport,
    IntegerRing,
    ModularRing,
    NotPrincipalUpTo,
    PolynomialRing,
    PrimeField,
    PrincipalWitness,
    RingMatrix,
    TrivialExtensionRing,
    UnsupportedRing,
    bounded_principality_check,
    default_hermite_vector,
    trivial_extension_hermite_search,
)

Z4X = PolynomialRing(ModularRing(4), bound=3)
F2XY = BivariatePolynomialRing(PrimeField(2), bound=2)


# ---------------------------------------------------------------------------
# principality over Z/4[X]


def test_ideal_2_x_is_not_principal_up_to_degree_3():
    verdict = bounded_principality_check([Z4X.make(2), Z4X.gen()], 3)
    assert isinstance(verdict, NotPrincipalUpTo)
    assert verdict.bound == 3
    # members of (2, X) up to degree 3 are the 2*4^3 polynomials with an even
    # constant term; minus zero that is 127 candidates
    assert verdict.candidates_examined == 127
    assert "bounded evidence, not a proof" in verdict.describe()


def test_singleton_generator_is_trivially_principal():
    verdict = bounded_principality_check([Z4X.make(2)], 1)
    assert isinstance(verdict, PrincipalWitness)
    assert verdict.generator == Z4X.make(2)
    assert verdict.cofactors == (Z4X.one(),)
    assert verdict.combination == (Z4X.one(),)
    assert "generated by" in verdict.describe()


def test_two_generator_principal_ideal_finds_common_factor():
    two, two_x = Z4X.make(2), Z4X.make([0, 2])
    verdict = bounded_principality_check([two, two_x], 3)
    assert isinstance(verdict, PrincipalWitness)
    assert verdict.generator == two
    # the witness re-multiplies: f_i = g * c_i and g = sum f_i * h_i
    for f, c in zip((two, two_x), verdict.cofactors):
        assert verdict.generator * c == f
    total = Z4X.zero()
    for f, h in zip((two, two_x), verdict.combination):
        total = total + f * h
    assert total == verdict.generator


def test_principal_witness_of_2_2x_is_recorded():
    # 2 = 2*1 + 2X*0 and 2X = 2*X: the whole witness, not only its checks
    two, two_x = Z4X.make(2), Z4X.make([0, 2])
    for bound in (1, 2, 3):
        verdict = bounded_principality_check([two, two_x], bound)
        assert verdict == PrincipalWitness(
            Z4X.make(2), (Z4X.make(1), Z4X.gen()), (Z4X.make(1), Z4X.zero())
        )


def test_principality_validates_inputs():
    with pytest.raises(ValueError):
        bounded_principality_check([], 2)
    with pytest.raises(ValueError):
        bounded_principality_check([Z4X.make([0, 0, 0, 0, 1])], 3)
    with pytest.raises(UnsupportedRing):
        bounded_principality_check([ModularRing(4).make(2)], 2)
    # a negative bound would certify an empty box
    with pytest.raises(ValueError, match="bound must be nonnegative"):
        bounded_principality_check([Z4X.zero()], -1)


def _count_calls(monkeypatch, cls, name):
    calls = [0]
    original = getattr(cls, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_ideal_2_x_search_multiplies_few_payloads(monkeypatch):
    # Payload products of the degree-3 search over Z/4[X]: 33,026 when every
    # member g scanned the whole cofactor box; 4,576 with the box split into
    # 16 cosets of the degree <= 1 box (512 for the member table, 32 per
    # member).
    calls = _count_calls(monkeypatch, PolynomialRing, "_mul")
    verdict = bounded_principality_check([Z4X.make(2), Z4X.gen()], 3)
    assert verdict == NotPrincipalUpTo(3, 127)
    assert calls[0] <= 6_000


def test_member_tables_add_few_payloads(monkeypatch):
    # Payload sums of the degree-3 search over Z/4[X] and the degree-2
    # search over F_2[X, Y]: 6,386 and 4,413 when the member table summed
    # every combination (4,096 each); closed over cosets it sums once per
    # member of the second partial table (512 each), giving 2,802 and 829.
    poly_adds = _count_calls(monkeypatch, PolynomialRing, "_add")
    verdict = bounded_principality_check([Z4X.make(2), Z4X.gen()], 3)
    assert verdict == NotPrincipalUpTo(3, 127)
    assert poly_adds[0] <= 3_000
    bivariate_adds = _count_calls(monkeypatch, BivariatePolynomialRing, "_add")
    verdict = bounded_principality_check(list(F2XY.gens()), 2)
    assert verdict == NotPrincipalUpTo(2, 31)
    assert bivariate_adds[0] <= 1_000


def test_search_payload_operations_are_pinned(monkeypatch):
    # Over Z/4[X] every product and every member-table sum is packed, so the
    # only payload sums left are the 16 * 16 of the cofactor box's coset
    # split, and there is no payload product at all.  Over F_2[X, Y] the
    # base-loop scaler makes one sum per member-table sum (512, translates
    # with no product), 8 * 8 for the coset split and 8 per shifted set
    # f + g*L (256).
    poly_adds = _count_calls(monkeypatch, PolynomialRing, "_add")
    poly_muls = _count_calls(monkeypatch, PolynomialRing, "_mul")
    assert bounded_principality_check([Z4X.make(2), Z4X.gen()], 3) == NotPrincipalUpTo(3, 127)
    assert (poly_adds[0], poly_muls[0]) == (256, 0)
    bivariate_adds = _count_calls(monkeypatch, BivariatePolynomialRing, "_add")
    assert bounded_principality_check(list(F2XY.gens()), 2) == NotPrincipalUpTo(2, 31)
    assert bivariate_adds[0] == 832


def test_member_table_checks_its_cosets(monkeypatch):
    # without the cofactor 2X the row X*B misses 2X^2, so it is no subgroup:
    # the partial sum 2X^2 of the row 2*B then opens a coset that overlaps
    # the sums already reached, and the check must fire under python -O too
    enumerate_up_to = PolynomialRing.elements_up_to_degree

    def without_2x(self, max_degree):
        return (
            h
            for h in enumerate_up_to(self, max_degree)
            if max_degree != 3 or h.payload != (0, 2)
        )

    monkeypatch.setattr(PolynomialRing, "elements_up_to_degree", without_2x)
    with pytest.raises(AssertionError, match="member table is not closed"):
        bounded_principality_check([Z4X.make(2), Z4X.gen()], 3)


def test_cofactor_split_checks_its_cosets(monkeypatch):
    # a smaller box without zero is no subgroup: its 15 translates cannot
    # tile the 256 cofactors, and the check must fire under python -O too
    enumerate_up_to = PolynomialRing.elements_up_to_degree

    def without_zero(self, max_degree):
        elements = enumerate_up_to(self, max_degree)
        return elements if max_degree == 3 else list(elements)[1:]

    monkeypatch.setattr(PolynomialRing, "elements_up_to_degree", without_zero)
    with pytest.raises(AssertionError, match="does not split into cosets"):
        bounded_principality_check([Z4X.make(2), Z4X.gen()], 3)


def test_principality_budget_is_enforced():
    with pytest.raises(BudgetExceeded):
        bounded_principality_check([Z4X.make(2), Z4X.gen()], 4)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_over_budget_principality_search_enumerates_nothing():
    # 4^8 cofactors of degree <= 7 per generator; listing them alone would
    # build 65,536 polynomials
    def search():
        with pytest.raises(BudgetExceeded) as info:
            bounded_principality_check([Z4X.make(2), Z4X.gen()], 7)
        assert str(info.value) == (
            "4294967296 cofactor combinations exceed the search budget 1000000"
        )

    assert _peak_bytes(search) < 1 << 20


@pytest.mark.parametrize(
    "ring, generators, bound, count",
    [
        (PolynomialRing(ModularRing(4)), lambda r: [r.make(2), r.gen()], 100000, "4^200002"),
        (PolynomialRing(ModularRing(4)), lambda r: [r.make(2), r.gen()], 10, "4^22"),
        (PolynomialRing(ModularRing(4)), lambda r: [r.make(2), r.gen()], 9, "1099511627776"),
        (BivariatePolynomialRing(PrimeField(2), bound=2), lambda r: list(r.gens()), 1000, "2^1003002"),
    ],
)
def test_an_oversized_box_is_refused_without_building_its_count(ring, generators, bound, count):
    # the count is written out while it has at most four times the cap's
    # 20 bits (4^20 = 2^40 here), and as the power past that
    with pytest.raises(BudgetExceeded) as info:
        bounded_principality_check(generators(ring), bound)
    assert str(info.value) == (
        f"{count} cofactor combinations exceed the search budget 1000000"
    )


def test_generator_degree_is_checked_before_the_budget():
    with pytest.raises(ValueError, match="exceeds the degree bound 7"):
        bounded_principality_check([Z4X.make([0] * 8 + [1]), Z4X.gen()], 7)


# ---------------------------------------------------------------------------
# principality over F_2[X, Y]


def test_ideal_x_y_is_not_principal_up_to_degree_2():
    gx, gy = F2XY.gens()
    verdict = bounded_principality_check([gx, gy], 2)
    assert isinstance(verdict, NotPrincipalUpTo)
    # members are spanned by the five monomials X, Y, X^2, XY, Y^2: 31 nonzero
    assert verdict.candidates_examined == 31


def test_single_variable_ideal_is_principal():
    gx, _ = F2XY.gens()
    verdict = bounded_principality_check([gx, gx * gx], 2)
    assert isinstance(verdict, PrincipalWitness)
    assert verdict.generator == gx


# ---------------------------------------------------------------------------
# the non-Hermite row over T(Z, Z)


def test_default_vector_is_2_epsilon():
    v = default_hermite_vector()
    assert [e.literal() for e in v.entries] == [[2, 0], [0, 1]]


def test_no_bounded_reduction_for_2_epsilon():
    report = trivial_extension_hermite_search(height=2)
    assert not report.found
    assert report.checked == 625 * 625
    assert report.transform is None
    assert "bounded evidence" in report.describe()


def test_kill_columns_exist_but_determinants_are_even():
    # independent arithmetic: (a,m)(b,n) = (ab, an+bm); the second column of
    # any candidate transform must kill (2, e), and every such column forces
    # an even determinant, so the search fails for a structural reason rather
    # than for lack of candidates
    mul = lambda p, q: (p[0] * q[0], p[0] * q[1] + p[1] * q[0])
    add = lambda p, q: (p[0] + q[0], p[1] + q[1])
    span = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    v1, v2 = (2, 0), (0, 1)
    kills = [
        (x, y)
        for x in span
        for y in span
        if add(mul(v1, x), mul(v2, y)) == (0, 0)
    ]
    assert len(kills) == 15
    for x, y in kills:
        for a in span:
            for b in span:
                det = mul(a, y)[0] - mul(b, x)[0]
                assert det % 2 == 0


def test_reducible_row_is_found():
    ring = TrivialExtensionRing(IntegerRing())
    v = RingMatrix.from_rows(ring, [[(1, 0), (0, 0)]])
    report = trivial_extension_hermite_search(v, height=1)
    assert report.found
    product = v @ report.transform
    assert product.entries == (report.diagonal, ring.zero())
    assert ring.try_inverse(report.diagonal) is not None


def test_hermite_search_validation():
    ring = TrivialExtensionRing(IntegerRing())
    with pytest.raises(ValueError):
        trivial_extension_hermite_search(RingMatrix.identity(ring, 2))
    with pytest.raises(ValueError):
        trivial_extension_hermite_search(height=0)
    with pytest.raises(UnsupportedRing):
        trivial_extension_hermite_search(
            RingMatrix.from_rows(
                TrivialExtensionRing(ModularRing(4)), [[(1, 0), (2, 0)]]
            )
        )


def test_hermite_search_budget():
    with pytest.raises(BudgetExceeded):
        trivial_extension_hermite_search(height=5)


def test_over_budget_hermite_search_builds_no_columns():
    # 25^4 = 390,625 columns at height 12; listing them would build them all
    def search():
        with pytest.raises(BudgetExceeded) as info:
            trivial_extension_hermite_search(height=12)
        assert str(info.value) == (
            "152587890625 column pairs exceed the search budget 1000000"
        )

    assert _peak_bytes(search) < 1 << 20


def _reference_hermite_search(vector, height):
    """The scan before the determinant pruning: every first column of every
    killing second column is tested with ``try_inverse``."""
    ring = vector.ring
    span = range(-height, height + 1)
    entries = [(a, b) for a in span for b in span]
    columns = list(itertools.product(entries, repeat=2))
    v1, v2 = vector.entries
    checked = 0
    for x, y in columns:
        x, y = ring.make(x), ring.make(y)
        if v1 * x + v2 * y != ring.zero():
            checked += len(columns)
            continue
        for a, b in columns:
            checked += 1
            a, b = ring.make(a), ring.make(b)
            if ring.try_inverse(a * y - b * x) is None:
                continue
            q = RingMatrix(ring, 2, 2, (a.payload, x.payload, b.payload, y.payload))
            d = v1 * a + v2 * b
            return HermiteSearchReport(vector, height, True, q, d, checked)
    return HermiteSearchReport(vector, height, False, None, None, checked)


HERMITE_ROWS = {
    "(2, e)": [(2, 0), (0, 1)],
    "(1, e)": [(1, 0), (0, 1)],
    "(3+e, 1+e)": [(3, 1), (1, 1)],
    "(e, 2)": [(0, 1), (2, 0)],
    "(1, 2)": [(1, 0), (2, 0)],
    "(1, 0)": [(1, 0), (0, 0)],
}


@pytest.mark.parametrize("height", [1, 2])
@pytest.mark.parametrize("row", list(HERMITE_ROWS.values()), ids=list(HERMITE_ROWS))
def test_hermite_search_matches_the_unpruned_scan(row, height):
    ring = TrivialExtensionRing(IntegerRing())
    vector = RingMatrix.from_rows(ring, [row])
    report = trivial_extension_hermite_search(vector, height)
    assert report == _reference_hermite_search(vector, height)


def test_unpruned_comparison_includes_finds_after_pruned_columns(monkeypatch):
    # over (1, e) the killing columns have x0 = 0 and y0 = -x1; the five
    # with y0 = 2 come first and are pruned, and the next one is scanned to
    # the find after 126 inversions, so the comparison above pins Q, d and
    # the count at a find that follows pruned columns
    calls = _count_calls(monkeypatch, TrivialExtensionRing, "try_inverse")
    ring = TrivialExtensionRing(IntegerRing())
    vector = RingMatrix.from_rows(ring, [HERMITE_ROWS["(1, e)"]])
    report = trivial_extension_hermite_search(vector, 2)
    assert report.found
    assert calls[0] == 126


def test_default_hermite_search_inverts_nothing(monkeypatch):
    # every killing column of (2, e) has x0 = 0 and y0 even, so no base
    # determinant a0*y0 - b0*x0 is a unit: 9,375 try_inverse calls before
    # the pruning, none after
    calls = _count_calls(monkeypatch, TrivialExtensionRing, "try_inverse")
    report = trivial_extension_hermite_search(height=2)
    assert (report.found, report.checked) == (False, 625 * 625)
    assert calls[0] == 0


def test_searches_are_deterministic():
    a = trivial_extension_hermite_search(height=1)
    b = trivial_extension_hermite_search(height=1)
    assert a == b
    x = bounded_principality_check([Z4X.make(2), Z4X.gen()], 2)
    y = bounded_principality_check([Z4X.make(2), Z4X.gen()], 2)
    assert x == y


# ---------------------------------------------------------------------------
# the search against the wrapper-level algorithm it replaced


def _reference_principality_check(generators, bound):
    """The element-level search the library used before it moved to
    payloads: every cofactor combination is summed on RingElement wrappers,
    and each cofactor is found with ``g * c == f``."""
    ring = generators[0].ring
    if isinstance(ring, PolynomialRing):
        degree_of, enumerate_up_to = ring.degree, ring.elements_up_to_degree
    else:
        degree_of = ring.total_degree
        enumerate_up_to = ring.elements_up_to_total_degree
    for f in generators:
        if not f.is_zero() and degree_of(f) > bound:
            raise ValueError(
                f"generator {f.literal()} exceeds the degree bound {bound}"
            )
    candidates = list(enumerate_up_to(bound))
    products = [[f * h for h in candidates] for f in generators]
    members = {}
    for combo in itertools.product(range(len(candidates)), repeat=len(generators)):
        total = ring.zero()
        for row, idx in zip(products, combo):
            total = total + row[idx]
        if total.payload not in members:
            members[total.payload] = combo
    examined = 0
    for g in candidates:
        if g.is_zero() or g.payload not in members:
            continue
        examined += 1
        cofactors = []
        for f in generators:
            match = next((c for c in candidates if g * c == f), None)
            if match is None:
                break
            cofactors.append(match)
        if len(cofactors) != len(generators):
            continue
        combination = tuple(candidates[i] for i in members[g.payload])
        return PrincipalWitness(g, tuple(cofactors), combination)
    return NotPrincipalUpTo(bound, examined)


def _outcome(search, generators, bound):
    try:
        return search(generators, bound)
    except ValueError as exc:
        return (type(exc), str(exc))


Z4X_DIFF = PolynomialRing(ModularRing(4))
Z6X_DIFF = PolynomialRing(ModularRing(6))
Z8X_DIFF = PolynomialRing(ModularRing(8))
Z9X_DIFF = PolynomialRing(ModularRing(9))
Z16X_DIFF = PolynomialRing(ModularRing(16))
Z17X_DIFF = PolynomialRing(ModularRing(17))
F3XY = BivariatePolynomialRing(PrimeField(3), bound=1)


def _differential_cases():
    X = Z4X_DIFF.gen()
    two = Z4X_DIFF.make(2)
    gx2, gy2 = F2XY.gens()
    gx3, gy3 = F3XY.gens()
    X8, X9 = Z8X_DIFF.gen(), Z9X_DIFF.gen()
    cases = [("Z4[X] (2, X)", [two, X], d) for d in (1, 2, 3)]
    for label, gens in (
        ("Z4[X] (2, 2X)", [two, Z4X_DIFF.make([0, 2])]),
        ("Z4[X] (2)", [two]),
        ("Z4[X] (X, X^2)", [X, X * X]),
        ("Z4[X] (2, X+2)", [two, X + two]),
    ):
        cases += [(label, gens, d) for d in (1, 2)]
    cases += [
        ("Z6[X] (2, 3)", [Z6X_DIFF.make(2), Z6X_DIFF.make(3)], 2),
        # the unit ideal at degree 0, where the cofactor box is not split
        ("Z6[X] (2, 3)", [Z6X_DIFF.make(2), Z6X_DIFF.make(3)], 0),
        ("F2[X,Y] (X, Y)", [gx2, gy2], 2),
        ("F2[X,Y] (X, X^2)", [gx2, gx2 * gx2], 2),
        ("F3[X,Y] (X, Y)", [gx3, gy3], 1),
        # principal, generated by 3
        ("Z9[X] (3, 3X)", [Z9X_DIFF.make(3), Z9X_DIFF.make(3) * X9], 1),
        ("Z8[X] (2X, 4)", [Z8X_DIFF.make(2) * X8, Z8X_DIFF.make(4)], 1),
        ("Z4[X] (X^2+2)", [X * X + two], 3),
        # principal, generated by X+Y
        ("F2[X,Y] (X+Y, X^2+XY)", [gx2 + gy2, gx2 * gx2 + gx2 * gy2], 2),
        # three rows, so the table is closed past two: the unit ideal, with
        # a nonzero cofactor on every generator, and two non-principal ideals
        ("Z6[X] (2, 3, X)", [Z6X_DIFF.make(2), Z6X_DIFF.make(3), Z6X_DIFF.gen()], 1),
        ("Z4[X] (2, X, 2X+2)", [two, X, two * X + two], 1),
        ("F3[X,Y] (X, Y, X+Y)", [gx3, gy3, gx3 + gy3], 1),
        # Z/16 packs constants but not two length-2 operands (2 * 225 + 15 >
        # 255), so one search meets both branches of the scaler and must get
        # one key type from both; both ideals are principal
        ("Z16[X] (X+1, 2X+2)", [Z16X_DIFF.make([1, 1]), Z16X_DIFF.make([2, 2])], 1),
        ("Z16[X] (X+2, 4X+8)", [Z16X_DIFF.make([2, 1]), Z16X_DIFF.make([8, 4])], 1),
        # Z/17 never packs: its keys stay payload tuples
        ("Z17[X] (X, X+1)", [Z17X_DIFF.gen(), Z17X_DIFF.make([1, 1])], 1),
    ]
    return cases


DIFFERENTIAL_CASES = _differential_cases()


@pytest.mark.parametrize(
    "generators,bound",
    [case[1:] for case in DIFFERENTIAL_CASES],
    ids=[f"{case[0]} deg<={case[2]}" for case in DIFFERENTIAL_CASES],
)
def test_search_matches_the_wrapper_level_reference(generators, bound):
    assert _outcome(bounded_principality_check, generators, bound) == _outcome(
        _reference_principality_check, generators, bound
    )


def test_differential_cases_include_nontrivial_witnesses():
    # (2, 3) is the unit ideal of Z/6[X]: the witness 1 = 2*2 + 3*1 has a
    # nonzero cofactor on every generator, so the first-combination
    # bookkeeping is exercised, not just the trivial (1, 0) combination
    verdict = bounded_principality_check([Z6X_DIFF.make(2), Z6X_DIFF.make(3)], 2)
    assert verdict.generator == Z6X_DIFF.one()
    assert [c.literal() for c in verdict.cofactors] == [[2], [3]]
    assert [h.literal() for h in verdict.combination] == [[2], [1]]
    # with X as a third generator the cofactors are (2, 3, X), all nonzero
    three = [Z6X_DIFF.make(2), Z6X_DIFF.make(3), Z6X_DIFF.gen()]
    verdict = bounded_principality_check(three, 1)
    assert verdict.generator == Z6X_DIFF.one()
    assert [c.literal() for c in verdict.cofactors] == [[2], [3], [0, 1]]
    assert [h.literal() for h in verdict.combination] == [[2], [1], []]


# ---------------------------------------------------------------------------
# the budget counts nominal cofactor combinations


def test_budget_one_below_the_combination_count_raises(monkeypatch):
    # 256 candidates of degree <= 3 over Z/4, two generators: 256**2 = 65536
    monkeypatch.setenv("RINGLAB_SEARCH_BUDGET", "65535")
    with pytest.raises(BudgetExceeded) as info:
        bounded_principality_check([Z4X.make(2), Z4X.gen()], 3)
    assert str(info.value) == (
        "65536 cofactor combinations exceed the search budget 65535"
    )


def test_budget_equal_to_the_combination_count_runs(monkeypatch):
    generators = [Z4X.make(2), Z4X.gen()]
    with monkeypatch.context() as patch:
        patch.setenv("RINGLAB_SEARCH_BUDGET", "65536")
        verdict = bounded_principality_check(generators, 3)
    assert verdict == bounded_principality_check(generators, 3)
    assert verdict == NotPrincipalUpTo(3, 127)
