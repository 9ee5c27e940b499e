"""Presented commutative monoids: word problem, refinement, cancellation."""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from ringlab import (
    BudgetExceeded,
    MonoidPresentation,
    cancellation_law_check,
    conical_check,
    refine,
)
from ringlab.monoids import EqResult, normalize_and_eq

FREE1 = MonoidPresentation(1)
FREE2 = MonoidPresentation(2)
# one generator a with a = 2a: classes are {0} and {1, 2, 3, ...}
ABSORBING = MonoidPresentation(1, (((1,), (2,)),))
# generators a, b with 2a = b: normal form pushes a-pairs into b
PAIR_UP = MonoidPresentation(2, (((2, 0), (0, 1)),))
# one generator with 2a = 0: odd and even classes, both infinite
ORDER_TWO = MonoidPresentation(1, (((2,), (0,)),))


# ---------------------------------------------------------------------------
# presentations and elements


def test_element_validation():
    with pytest.raises(ValueError):
        FREE2.element((1,))
    with pytest.raises(ValueError):
        FREE2.element((1, -1))
    with pytest.raises(ValueError):
        MonoidPresentation(0)


@pytest.mark.parametrize(
    "doc",
    [
        {"generators": 1, "relations": [[[[1]], [2]]]},
        {"generators": 1, "relations": [[1, 2]]},
        {"generators": True},
        {"generators": 1, "relations": [[[2.9], [1]]]},
        {"generators": 2, "relations": [[[1], [0, 1]]]},
        {"generators": 1, "relations": [[[False], [1]]]},
        {"generators": 1.0},
    ],
)
def test_a_malformed_presentation_is_refused(doc):
    with pytest.raises(ValueError):
        MonoidPresentation.from_json(doc)


def test_a_presentation_keeps_its_relations_exactly():
    doc = {"generators": 2, "relations": [[[2, 0], [0, 1]]]}
    pres = MonoidPresentation.from_json(doc)
    assert pres == PAIR_UP
    assert pres.to_json() == doc


def test_addition_and_scaling():
    a = FREE2.element((1, 2))
    b = FREE2.element((3, 0))
    assert (a + b).exponents == (4, 2)
    assert a.scaled(3).exponents == (3, 6)
    with pytest.raises(ValueError):
        a.scaled(-1)
    with pytest.raises(ValueError):
        a + FREE1.element((1,))


def test_presentation_json_round_trip():
    doc = PAIR_UP.to_json()
    assert MonoidPresentation.from_json(doc) == PAIR_UP
    assert MonoidPresentation.from_json({"generators": 2}) == FREE2
    with pytest.raises(ValueError):
        MonoidPresentation.from_json({"relations": []})


def test_describe():
    assert FREE2.describe() == "free(2)"
    assert "relations" in ORDER_TWO.describe()


# ---------------------------------------------------------------------------
# word problem


def test_free_equality_is_vector_equality():
    assert normalize_and_eq(FREE2.element((1, 2)), FREE2.element((1, 2))) == EqResult.EQUAL
    assert normalize_and_eq(FREE2.element((1, 2)), FREE2.element((2, 1))) == EqResult.UNEQUAL


def test_free_equality_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="search_bound must be nonnegative"):
        normalize_and_eq(FREE2.element((1, 2)), FREE2.element((1, 2)), -1)


def test_absorbing_monoid_classes():
    # a = 2a chains upward, so all positive exponents collapse
    e = ABSORBING.element
    assert normalize_and_eq(e((1,)), e((5,))) == EqResult.EQUAL
    # the class of zero is {0} and is enumerated completely: exact answer
    assert normalize_and_eq(e((0,)), e((1,))) == EqResult.UNEQUAL


def test_pair_up_normal_forms():
    e = PAIR_UP.element
    # (1,1) -> (... a + b) and (0,3) are distinct: weights 1+1/2 vs 3... both
    # sides complete quickly, so the verdict is exact
    assert normalize_and_eq(e((2, 0)), e((0, 1))) == EqResult.EQUAL
    assert normalize_and_eq(e((1, 1)), e((3, 0))) == EqResult.EQUAL
    assert normalize_and_eq(e((1, 0)), e((0, 1))) == EqResult.UNEQUAL


def test_infinite_classes_stay_inconclusive():
    e = ORDER_TWO.element
    assert normalize_and_eq(e((1,)), e((3,))) == EqResult.EQUAL
    # odd vs even: both classes are infinite and never meet; the bounded
    # search cannot certify either answer
    assert normalize_and_eq(e((1,)), e((0,)), 6) == EqResult.INCONCLUSIVE


# ---------------------------------------------------------------------------
# refinement


def test_refine_zero_row_forces_zero_entries():
    e = FREE1.element
    w = refine(e((0,)), e((5,)), e((5,)), e((0,)), bound=8)
    assert [z.exponents for row in w.grid() for z in row] == [
        (0,), (0,), (5,), (0,)
    ]


def test_refine_free_picks_componentwise_min():
    e = FREE2.element
    w = refine(e((1, 2)), e((3, 0)), e((2, 1)), e((2, 1)), bound=8)
    assert w.z11.exponents == (1, 1)
    assert w.z12.exponents == (0, 1)
    assert w.z21.exponents == (1, 0)
    assert w.z22.exponents == (2, 0)


def test_refine_checks_sums():
    e = FREE1.element
    with pytest.raises(ValueError):
        refine(e((1,)), e((0,)), e((0,)), e((0,)), bound=4)


def test_refine_exhausted_at_small_bound():
    e = FREE1.element
    assert refine(e((5,)), e((5,)), e((5,)), e((5,)), bound=2) is None
    assert refine(e((5,)), e((5,)), e((5,)), e((5,)), bound=5) is not None


def test_refine_presented_monoid():
    e = PAIR_UP.element
    # all four inputs are congruent to b; the grid must respect the relation
    w = refine(e((2, 0)), e((0, 1)), e((0, 1)), e((2, 0)), bound=3)
    assert w is not None
    for got, want in zip(w.row_sums(), (e((2, 0)), e((0, 1)))):
        assert normalize_and_eq(got, want) == EqResult.EQUAL
    for got, want in zip(w.column_sums(), (e((0, 1)), e((2, 0)))):
        assert normalize_and_eq(got, want) == EqResult.EQUAL


def test_refine_counts_presented_word_tests_against_the_search_budget(monkeypatch):
    monkeypatch.setenv("RINGLAB_SEARCH_BUDGET", "10")
    e = PAIR_UP.element
    with pytest.raises(BudgetExceeded, match="11 word-problem tests exceed the search budget 10"):
        refine(e((2, 0)), e((0, 1)), e((0, 1)), e((2, 0)), bound=3)
    # the free path makes no word-problem test, so the budget does not touch it
    e = FREE1.element
    assert refine(e((5,)), e((5,)), e((5,)), e((5,)), bound=5) is not None


def test_refine_walks_its_box_lazily(monkeypatch):
    # 101^3 candidates per loop: building the box as a list would take
    # about 100 MB before the budget stops the search at its 11th test
    monkeypatch.setenv("RINGLAB_SEARCH_BUDGET", "10")
    pres = MonoidPresentation(3, (((1, 0, 0), (0, 1, 0)),))
    x, y = pres.element((1, 0, 0)), pres.element((0, 0, 1))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as info:
            refine(x, y, y, x, bound=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "11 word-problem tests exceed the search budget 10"
    assert peak < 1_000_000


def test_refine_uncertifiable_sum_is_budget_error():
    e = ORDER_TWO.element
    with pytest.raises(BudgetExceeded):
        refine(e((1,)), e((0,)), e((0,)), e((0,)), bound=2)


@given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=4, max_size=4))
def test_refine_always_succeeds_on_free_splittings(grid):
    # build the instance from a known grid, then ask refine to find any grid
    z11, z12, z21, z22 = (FREE2.element(g) for g in grid)
    x1, x2 = z11 + z12, z21 + z22
    y1, y2 = z11 + z21, z12 + z22
    w = refine(x1, x2, y1, y2, bound=20)
    assert w is not None
    assert w.row_sums() == (x1, x2)
    assert w.column_sums() == (y1, y2)


# ---------------------------------------------------------------------------
# conical and cancellation


def test_free_monoids_are_conical():
    assert conical_check([FREE2.element((1, 0)), FREE2.element((0, 1))])
    assert conical_check([])


def test_self_inverse_element_breaks_conicality():
    # a + a = 0 while a itself cannot be certified zero
    assert not conical_check([ORDER_TWO.element((1,))])


def test_cancellation_holds_on_free_monoid():
    e = FREE2.element
    candidates = [e((i, j)) for i in range(4) for j in range(4)]
    report = cancellation_law_check(e((1, 1)), candidates)
    assert report.holds
    assert report.pairs_checked == 256
    assert "holds" in report.describe()


def test_cancellation_counterexample_is_found():
    # generators u, a, b with 2u + a = u + b but u + a distinct from b
    pres = MonoidPresentation(3, (((2, 1, 0), (1, 0, 1)),))
    u = pres.element((1, 0, 0))
    a = pres.element((0, 1, 0))
    b = pres.element((0, 0, 1))
    report = cancellation_law_check(u, [a, b])
    assert not report.holds
    assert report.counterexample == (a, b)
    assert "counterexample" in report.describe()


def test_cancellation_inconclusive_raises():
    e = ORDER_TWO.element
    with pytest.raises(BudgetExceeded):
        cancellation_law_check(e((1,)), [e((0,)), e((1,))], search_bound=4)
