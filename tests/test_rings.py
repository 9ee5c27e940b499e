"""Ring arithmetic, descriptors, and element-level structure queries."""

import itertools
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

from ringlab import (
    BivariatePolynomialRing,
    BudgetExceeded,
    CornerRing,
    IntegerRing,
    ModularRing,
    PolynomialRing,
    PrimeField,
    ProductRing,
    QuotientRing,
    RingElement,
    TrivialExtensionRing,
    UnsupportedRing,
    bezout_gcd,
    idempotent_power,
    idempotents,
    is_regular_element,
    is_unit,
    jacobson_radical_and_quotient,
    maximal_ideals,
    parse_ring,
    primitive_idempotent_decomposition,
    try_inverse,
)
from ringlab.cli import main
from ringlab.rings import (
    Ring,
    RingElement,
    _is_nilpotent,
    _verify_maximal_ideal,
    _verify_projection,
)

Z = IntegerRing()
Z4 = ModularRing(4)
Z6 = ModularRing(6)
Z12 = ModularRing(12)
F5 = PrimeField(5)


# ---------------------------------------------------------------------------
# construction and canonical forms


def test_modular_canonicalizes_into_range():
    assert Z6.make(-1).literal() == 5
    assert Z6.make(17).literal() == 5
    assert Z6.make(6).is_zero()


def test_modular_rejects_bad_modulus():
    with pytest.raises(ValueError):
        ModularRing(1)
    with pytest.raises(ValueError):
        ModularRing(0)


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(4)
    assert F5.is_field
    assert not Z6.is_field


def test_radical_counts_its_element_pairs_against_the_search_budget(monkeypatch):
    monkeypatch.setenv("RINGLAB_SEARCH_BUDGET", "35")
    with pytest.raises(BudgetExceeded) as info:
        jacobson_radical_and_quotient(Z6)
    assert str(info.value) == "36 element pairs exceed the search budget 35"
    monkeypatch.setenv("RINGLAB_SEARCH_BUDGET", "36")
    radical, quotient, _ = jacobson_radical_and_quotient(Z6)
    assert [a.literal() for a in radical] == [0]
    assert quotient.descriptor() == "modular(6)"


@pytest.mark.parametrize("cached", [jacobson_radical_and_quotient, maximal_ideals])
def test_a_cached_radical_still_counts_its_element_pairs(monkeypatch, cached):
    # the count runs in front of the cache: a refusal does not depend on
    # what the process computed before
    cached(Z6)
    monkeypatch.setenv("RINGLAB_SEARCH_BUDGET", "35")
    with pytest.raises(BudgetExceeded) as info:
        cached(Z6)
    assert str(info.value) == "36 element pairs exceed the search budget 35"


def test_prime_field_counts_its_trial_divisors_against_the_search_budget(monkeypatch):
    with pytest.raises(BudgetExceeded) as info:
        PrimeField(1000000000000000003)
    assert str(info.value) == (
        "499999999 trial divisors exceed the search budget 1000000"
    )
    # 97 and 101 need the 4 odd divisors 3..9, 127 needs 5
    monkeypatch.setenv("RINGLAB_SEARCH_BUDGET", "4")
    assert PrimeField(97).modulus == 97 and PrimeField(101).modulus == 101
    with pytest.raises(BudgetExceeded, match="^5 trial divisors exceed"):
        PrimeField(127)


def test_polynomial_trims_trailing_zeros():
    r = PolynomialRing(F5)
    assert r.make([1, 2, 0, 0]).literal() == [1, 2]
    assert r.make([0]).is_zero()
    assert r.degree(r.make([1, 2])) == 1
    assert r.degree(r.zero()) == -1


@pytest.mark.parametrize("base", [Z4, PrimeField(3)])
@pytest.mark.parametrize("max_degree", [0, 1, 2])
def test_elements_up_to_degree_order(base, max_degree):
    # zero, then by degree, then coefficient tuples (constant term first)
    # lexicographically in base enumeration order
    ring = PolynomialRing(base)
    order = {e.payload: i for i, e in enumerate(base.elements())}
    every = {
        ring.make(list(coeffs)).payload
        for coeffs in itertools.product(order, repeat=max_degree + 1)
    }
    expected = sorted(every, key=lambda p: (len(p), [order[c] for c in p]))
    got = [e.payload for e in ring.elements_up_to_degree(max_degree)]
    assert got == expected


def test_polynomial_gen_and_arithmetic():
    r = PolynomialRing(F5)
    x = r.gen()
    # (X + 2)(X + 3) = X^2 + 1 over gf(5)
    assert (x + r.make(2)) * (x + r.make(3)) == r.make([1, 0, 1])


def test_bivariate_freshman_dream():
    r = BivariatePolynomialRing(PrimeField(2), bound=4)
    x, y = r.gens()
    assert (x + y) * (x + y) == x * x + y * y
    assert r.total_degree(x * y + x) == 2


def test_trivial_extension_multiplication_kills_square():
    t = TrivialExtensionRing(Z)
    eps = t.make([0, 1])
    assert (eps * eps).is_zero()
    a = t.make([2, 3])
    b = t.make([5, 7])
    # (a, m)(b, n) = (ab, an + bm)
    assert a * b == t.make([10, 2 * 7 + 5 * 3])


def test_product_ring_componentwise():
    r = ProductRing([ModularRing(2), ModularRing(3)])
    a = r.make([1, 2])
    b = r.make([1, 1])
    assert a * b == r.make([1, 2])
    assert r.cardinality() == 6


def test_element_equality_is_ring_aware():
    assert Z4.make(2) != Z6.make(2)
    assert Z6.make(8) == Z6.make(2)


# ---------------------------------------------------------------------------
# descriptor grammar


@pytest.mark.parametrize(
    "text",
    [
        "integers",
        "modular(12)",
        "gf(5)",
        "poly(gf(5))",
        "poly(modular(4), bound=3)",
        "poly2(gf(2), bound=2)",
        "product(modular(2), modular(3))",
        "trivial(integers)",
        "trivial(modular(4))",
    ],
)
def test_descriptor_round_trips(text):
    ring = parse_ring(text)
    assert ring.descriptor() == text
    assert parse_ring(ring.descriptor()) == ring


def test_descriptor_rejects_garbage():
    for bad in ("", "modular", "modular(x)", "gf(6)", "poly2(modular(4), bound=1)",
                "modular(5) extra"):
        with pytest.raises(ValueError):
            parse_ring(bad)


def test_descriptor_nesting_is_capped():
    ring = parse_ring("poly(" * 32 + "integers" + ")" * 32)
    assert ring.descriptor().count("poly(") == 32
    with pytest.raises(ValueError, match="rings nest deeper than 32 constructors"):
        parse_ring("poly(" * 33 + "integers" + ")" * 33)
    with pytest.raises(ValueError, match="rings nest deeper than 32 constructors"):
        parse_ring("trivial(" * 3000 + "integers" + ")" * 3000)


# ---------------------------------------------------------------------------
# units and inverses, against exhaustive search


@pytest.mark.parametrize("ring", [Z4, Z6, Z12, F5, TrivialExtensionRing(Z4)])
def test_try_inverse_matches_exhaustive_search(ring):
    one = ring.one()
    for a in ring.elements():
        inv = try_inverse(a)
        brute = [b for b in ring.elements() if a * b == one]
        if inv is None:
            assert brute == []
        else:
            assert a * inv == one
            assert inv in brute


@pytest.mark.parametrize(
    "descriptor, unit, inverse",
    [("poly(modular(4))", [1, 2], [1, 2]), ("poly(modular(9))", [1, 3], [1, 6])],
)
def test_polynomial_inverse_matches_exhaustive_search(descriptor, unit, inverse):
    # over Z/p^2 a unit c0 + h has h^2 = 0, so its inverse c0^-1 (1 - h/c0)
    # keeps its degree and the degree <= 2 box is closed under inverses
    ring = parse_ring(descriptor)
    box = [a.payload for a in ring.elements_up_to_degree(2)]
    one = ring._one()
    units = 0
    for a in box:
        brute = [b for b in box if ring._mul(a, b) == one]
        inv = try_inverse(RingElement(ring, a))
        if inv is None:
            assert brute == [], a
        else:
            assert brute == [inv.payload], a
            units += 1
    # a unit constant and two nilpotent coefficients
    p = ring.base.modulus
    assert units == (p - math.isqrt(p)) * math.isqrt(p) ** 2
    assert try_inverse(ring.make(unit)) == ring.make(inverse)


@pytest.mark.parametrize("ring", [Z4, ModularRing(8), ModularRing(9), Z12, F5])
def test_nilpotency_matches_the_powers(ring):
    n = ring.cardinality()
    for a in ring.elements():
        assert _is_nilpotent(a) == any((a**k).is_zero() for k in range(1, n + 1)), a


def test_nilpotency_off_finite_rings():
    assert _is_nilpotent(Z.make(0))
    assert not _is_nilpotent(Z.make(2))
    with pytest.raises(UnsupportedRing, match="nilpotency test unsupported over poly"):
        _is_nilpotent(parse_ring("poly(integers)").gen())


@pytest.mark.parametrize("p", [2, 3])
def test_bivariate_units_are_the_nonzero_constants(p):
    ring = BivariatePolynomialRing(PrimeField(p), bound=2)
    one = ring.one()
    for a in ring.elements_up_to_total_degree(2):
        inv = try_inverse(a)
        if a.is_zero() or ring.total_degree(a) > 0:
            assert inv is None, a
        else:
            assert a * inv == one
            assert ring.total_degree(inv) == 0


def test_integer_units_are_signs():
    assert try_inverse(Z.make(1)).literal() == 1
    assert try_inverse(Z.make(-1)).literal() == -1
    assert try_inverse(Z.make(2)) is None


def test_trivial_extension_unit_inverse():
    t = TrivialExtensionRing(Z)
    a = t.make([1, 5])
    assert try_inverse(a) == t.make([1, -5])
    assert try_inverse(t.make([2, 1])) is None
    assert is_unit(t.make([-1, 3]))


# ---------------------------------------------------------------------------
# bezout gcds


def test_bezout_gcd_integers():
    d, s, t = bezout_gcd(Z.make(12), Z.make(18))
    assert d == Z.make(6)
    assert s * Z.make(12) + t * Z.make(18) == d


def test_bezout_gcd_is_canonical():
    d, _, _ = bezout_gcd(Z.make(-4), Z.make(-6))
    assert d.literal() == 2
    r = PolynomialRing(F5)
    # gcd of 2X+4 and itself is the monic X+2
    d, s, t = bezout_gcd(r.make([4, 2]), r.make([4, 2]))
    assert d == r.make([2, 1])
    assert s * r.make([4, 2]) + t * r.make([4, 2]) == d


def test_bezout_check_survives_python_O():
    """The Bezout identity check is a raise, not an assert, so it still runs
    when Python strips assert statements."""
    import ringlab

    script = """
import ringlab.rings as rings
try:
    assert False
except AssertionError:
    raise SystemExit("assert statements are live; not running under -O")
rings.EuclideanOps.egcd = lambda self, a, b: (1, 0, 0)
try:
    rings.bezout_gcd(rings.IntegerRing().make(4), rings.IntegerRing().make(6))
except AssertionError as exc:
    print("raised:", exc)
"""
    src = os.path.dirname(os.path.dirname(ringlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised: internal Bezout identity check failed"


def test_bezout_gcd_of_zeros():
    d, s, t = bezout_gcd(Z.make(0), Z.make(0))
    assert d.is_zero() and s.is_zero() and t.is_zero()


@given(st.integers(-200, 200), st.integers(-200, 200))
def test_bezout_identity_holds(a, b):
    import math

    d, s, t = bezout_gcd(Z.make(a), Z.make(b))
    assert d.literal() == math.gcd(a, b)
    assert s * Z.make(a) + t * Z.make(b) == d


# Reference extended gcds, kept verbatim from the two loops that bezout_gcd
# used before a single Euclidean loop served both rings.  They pin the exact
# cofactors, not only the identity.


def _reference_int_egcd(a, b):
    if a == 0 and b == 0:
        return (0, 0, 0)
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _reference_poly_divmod(ring, x, y):
    p = ring.base.modulus
    rem = list(x)
    lead_inv = pow(y[-1], -1, p)
    dy = len(y) - 1
    quot = [0] * max(len(x) - dy, 0)
    while len(rem) - 1 >= dy and rem:
        shift = len(rem) - 1 - dy
        factor = (rem[-1] * lead_inv) % p
        quot[shift] = factor
        for i, c in enumerate(y):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return ring._trim(quot), tuple(rem)


def _reference_poly_egcd(ring, x, y):
    def sub(u, v):
        return ring._add(u, ring._neg(v))

    zero, one, mul = ring._zero(), ring._one(), ring._mul
    if x == zero and y == zero:
        return zero, zero, zero
    old_r, r = x, y
    old_s, s = one, zero
    old_t, t = zero, one
    while r != zero:
        q, rem = _reference_poly_divmod(ring, old_r, r)
        old_r, r = r, rem
        old_s, s = s, sub(old_s, mul(q, s))
        old_t, t = t, sub(old_t, mul(q, t))
    u = (pow(old_r[-1], -1, ring.base.modulus),)
    return mul(u, old_r), mul(u, old_s), mul(u, old_t)


def _payloads(triple):
    return tuple(x.payload for x in triple)


@given(st.integers(), st.integers())
@example(0, 0)
@example(0, 7)
@example(-7, 0)
@example(-4, -6)
@example(5, 5)
@example(2**70 + 1, -(2**64))
def test_bezout_matches_the_reference_loop_over_the_integers(a, b):
    expected = _reference_int_egcd(a, b)
    assert _payloads(bezout_gcd(Z.make(a), Z.make(b))) == expected


@pytest.mark.parametrize("n", [12, 30])
def test_bezout_over_modular_rings_is_the_integer_loop_mod_n(n):
    # the integer loop's triple mod n, scaled by the least unit u of Z/n
    # with u * d = gcd(d, n)
    ring = ModularRing(n)
    for a in range(n):
        for b in range(n):
            d, s, t = (v % n for v in _reference_int_egcd(a, b))
            u = next(
                u for u in range(1, n)
                if math.gcd(u, n) == 1 and u * d % n == math.gcd(d, n) % n
            )
            got = _payloads(bezout_gcd(ring.make(a), ring.make(b)))
            assert got == (u * d % n, u * s % n, u * t % n), (a, b)


def test_bezout_over_modular_rings_is_canonical():
    # d is gcd(a, b, n) mod n, the canonical generator of the ideal (a, b)
    for n in range(2, 31):
        ring = ModularRing(n)
        for a in range(n):
            for b in range(n):
                d, s, t = bezout_gcd(ring.make(a), ring.make(b))
                assert d.payload == math.gcd(a, b, n) % n, (n, a, b)
                assert s * ring.make(a) + t * ring.make(b) == d, (n, a, b)
    assert _payloads(bezout_gcd(F5.make(3), F5.make(0))) == (1, 2, 0)
    assert _payloads(bezout_gcd(Z6.make(4), Z6.make(0))) == (2, 5, 0)


_coefficients = st.lists(st.integers(0, 6), max_size=7)


@pytest.mark.parametrize("p", [5, 7])
@given(_coefficients, _coefficients)
@example([], [])
@example([], [0, 3])
@example([2], [])
@example([3], [0, 0, 1])
@example([1, 2, 3, 4], [0, 1, 1])
def test_bezout_matches_the_reference_loop_over_gf_p_x(p, a, b):
    ring = PolynomialRing(PrimeField(p))
    x, y = ring.make(a), ring.make(b)
    expected = _reference_poly_egcd(ring, x.payload, y.payload)
    assert _payloads(bezout_gcd(x, y)) == expected


# ---------------------------------------------------------------------------
# regularity, against brute force


@pytest.mark.parametrize("ring", [Z4, Z6, Z12, ModularRing(8), F5])
def test_regular_elements_match_brute_force(ring):
    for a in ring.elements():
        regular, g = is_regular_element(a)
        brute = any(a * h * a == a for h in ring.elements())
        assert regular == brute
        if regular:
            assert a * g * a == a


def test_modular_regularity_matches_the_gcd_criterion():
    # a is regular in Z/n exactly when g = gcd(a, n) is coprime to n/g
    for n in range(2, 37):
        for a in ModularRing(n).elements():
            g = math.gcd(a.literal(), n)
            regular, w = is_regular_element(a)
            assert regular == (math.gcd(g, n // g) == 1), (n, a.literal())
            if regular:
                assert a * w * a == a


def test_integer_regularity():
    assert is_regular_element(Z.make(1)) == (True, Z.make(1))
    assert is_regular_element(Z.make(0))[0]
    assert not is_regular_element(Z.make(2))[0]


# ---------------------------------------------------------------------------
# idempotent structure


def test_idempotents_of_z6():
    assert sorted(e.literal() for e in idempotents(Z6)) == [0, 1, 3, 4]


def test_primitive_decomposition_z6():
    basis = primitive_idempotent_decomposition(Z6)
    assert [e.literal() for e in basis.elements] == [3, 4]


def test_primitive_decomposition_z12():
    basis = primitive_idempotent_decomposition(Z12)
    assert [e.literal() for e in basis.elements] == [4, 9]


def test_primitive_decomposition_local_ring_is_one():
    basis = primitive_idempotent_decomposition(Z4)
    assert [e.literal() for e in basis.elements] == [1]


def test_primitive_decomposition_z30_has_three_factors():
    basis = primitive_idempotent_decomposition(ModularRing(30))
    assert len(basis) == 3
    total = ModularRing(30).zero()
    for e in basis.elements:
        assert e * e == e
        total = total + e
    assert total.literal() == 1


def test_idempotent_power():
    assert idempotent_power(Z12.make(2)).literal() == 4
    assert idempotent_power(Z12.make(3)).literal() == 9
    assert idempotent_power(Z12.make(6)).literal() == 0
    assert idempotent_power(Z6.make(5)).literal() == 1


# ---------------------------------------------------------------------------
# radical and maximal ideals


def test_jacobson_radical_z4():
    radical, quotient, project = jacobson_radical_and_quotient(Z4)
    assert sorted(a.literal() for a in radical) == [0, 2]
    assert quotient.descriptor() == "gf(2)"
    assert project(Z4.make(3)).literal() == 1


def test_jacobson_radical_z12():
    radical, quotient, project = jacobson_radical_and_quotient(Z12)
    assert sorted(a.literal() for a in radical) == [0, 6]
    assert quotient.descriptor() == "modular(6)"
    assert project(Z12.make(11)).literal() == 5


def test_jacobson_radical_semisimple_is_zero():
    radical, quotient, _ = jacobson_radical_and_quotient(Z6)
    assert [a.literal() for a in radical] == [0]
    assert quotient.descriptor() == "modular(6)"


def test_radical_elements_are_quasi_regular():
    for n in (4, 8, 9, 12):
        ring = ModularRing(n)
        radical, _, _ = jacobson_radical_and_quotient(ring)
        for a in radical:
            # 1 - ra must be a unit for every r
            for r in ring.elements():
                assert is_unit(ring.one() - r * a)


def _projection_case(ring, quotient, image, radical):
    return ring, quotient, lambda a: RingElement(quotient, image(a.payload)), radical


@pytest.mark.parametrize(
    "ring, quotient, project, radical, message",
    [
        # 1 + 2 = 3 goes to 0, where 1 + 0 = 1
        (*_projection_case(Z4, PrimeField(2), lambda x: int(x == 1), (0, 2)), "addition"),
        # x -> -x is additive, but 1 * 1 = 1 goes to 5 and 5 * 5 = 1
        (*_projection_case(Z6, Z6, lambda x: -x % 6, (0,)), "multiplication"),
        (*_projection_case(Z4, PrimeField(2), lambda x: 0, (0, 2)), "1 to 1"),
        (*_projection_case(Z4, PrimeField(2), lambda x: x % 2, (0,)), "kernel"),
    ],
    ids=["addition", "multiplication", "one", "kernel"],
)
def test_projection_check_names_the_law_that_fails(ring, quotient, project, radical, message):
    radical = tuple(ring.make(a) for a in radical)
    with pytest.raises(AssertionError, match=message):
        _verify_projection(ring, quotient, project, radical)


def test_maximal_ideals_z6():
    ideals = maximal_ideals(Z6)
    assert [sorted(a.literal() for a in p) for p in ideals] == [[0, 2, 4], [0, 3]]


def test_maximal_ideals_align_with_corners():
    basis = primitive_idempotent_decomposition(Z6)
    ideals = maximal_ideals(Z6)
    for e, p in zip(basis.elements, ideals):
        # the corner eR misses P: e acts invertibly outside its own ideal
        assert e not in p


# tampered ideals, one per refusal of the maximal-ideal check: the whole
# ring; {0, 2} in Z/6 (2 + 2 = 4); {(0,0), (1,2)} in Z/2 x Z/4, closed and
# without 1 = (1,1), but (1,2)*(0,1) = (0,2) is outside (every additive
# subgroup of Z/n is an ideal, and in Z/2 x Z/2 the one such set holds 1);
# and {0, 4, 8} in Z/12, an ideal under (2)
TAMPERED_IDEALS = [
    ("modular(6)", list(range(6)), "ideal is not proper"),
    ("modular(6)", [0, 2], "ideal is not closed under addition"),
    ("product(modular(2), modular(4))", [[0, 0], [1, 2]], "ideal does not absorb multiplication"),
    ("modular(12)", [0, 4, 8], "ideal is not maximal"),
]


@pytest.mark.parametrize("name, members, message", TAMPERED_IDEALS)
def test_maximal_ideal_check_refuses_a_tampered_ideal(name, members, message):
    ring = parse_ring(name)
    ideal = frozenset(ring.make(m) for m in members)
    with pytest.raises(AssertionError, match=f"^{message}$"):
        _verify_maximal_ideal(ring, ideal)


def test_maximal_ideal_check_refuses_under_python_O():
    import ringlab

    script = f"""
import ringlab.rings as rings
try:
    assert False
except AssertionError:
    raise SystemExit("assert statements are live; not running under -O")
for name, members, _ in {TAMPERED_IDEALS!r}:
    ring = rings.parse_ring(name)
    try:
        rings._verify_maximal_ideal(ring, frozenset(ring.make(m) for m in members))
    except AssertionError as exc:
        print(exc)
"""
    src = os.path.dirname(os.path.dirname(ringlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [message for _, _, message in TAMPERED_IDEALS]


# wrapped Ring.mul / Ring.add calls per command.  Units, idempotents and
# their powers, nilpotency, the radical, the maximal ideals and the corner
# rings all multiply payloads, so none is left
WRAPPED_OP_COUNTS = [
    (["verify", "--ring", "modular(12)", "--bound", "2"], 0, 0),
    (["verify", "--ring", "modular(30)", "--bound", "2"], 0, 0),
    (["localize", "--ring", "modular(512)", "--module", "1", "--at-maximal", "0"], 0, 0),
    (["localize", "--ring", "modular(12)", "--module", "2,1", "--at-element", "2"], 0, 0),
]


@pytest.mark.parametrize(
    "argv, muls, adds",
    WRAPPED_OP_COUNTS,
    ids=["verify-12", "verify-30", "localize-512", "localize-12"],
)
def test_structure_checks_multiply_payloads(monkeypatch, capsys, argv, muls, adds):
    counts = {"mul": 0, "add": 0}
    for name in counts:
        real = getattr(Ring, name)

        def counted(self, a, b, _real=real, _name=name):
            counts[_name] += 1
            return _real(self, a, b)

        monkeypatch.setattr(Ring, name, counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert (counts["mul"], counts["add"]) == (muls, adds)


# ---------------------------------------------------------------------------
# corner and quotient rings


def test_corner_ring_of_z6_at_3():
    corner = CornerRing(Z6, Z6.make(3))
    assert corner.cardinality() == 2
    assert corner.one() == corner.make(3)
    back = corner.to_ambient(corner.one())
    assert back == Z6.make(3)
    assert corner.from_ambient(Z6.make(5)) == corner.make(3 * 5)


def test_corner_ring_at_zero_is_zero_ring():
    corner = CornerRing(Z6, Z6.zero())
    assert corner.cardinality() == 1
    assert corner.one().is_zero()


def test_quotient_ring_by_radical():
    q = QuotientRing(Z4, frozenset({0, 2}))
    assert q.cardinality() == 2
    assert q.project(Z4.make(3)) == q.one()
    assert q.project(Z4.make(2)).is_zero()
    with pytest.raises(ValueError):
        QuotientRing(Z4, frozenset({0, 1}))


# ---------------------------------------------------------------------------
# algebraic laws, property-based


finite_rings = st.sampled_from(
    [Z4, Z6, Z12, F5, ProductRing([ModularRing(2), ModularRing(3)]),
     TrivialExtensionRing(Z4)]
)


@st.composite
def ring_with_elements(draw, count):
    ring = draw(finite_rings)
    elems = ring.elements()
    picks = [draw(st.integers(0, len(elems) - 1)) for _ in range(count)]
    return ring, [elems[i] for i in picks]


@given(ring_with_elements(3))
def test_addition_laws(data):
    ring, (a, b, c) = data
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + ring.zero() == a
    assert (a + (-a)).is_zero()


@given(ring_with_elements(3))
def test_multiplication_laws(data):
    ring, (a, b, c) = data
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * ring.one() == a
    assert a * (b + c) == a * b + a * c


@given(ring_with_elements(1))
def test_literal_round_trip(data):
    ring, (a,) = data
    assert ring.make(a.literal()) == a


@given(st.integers(-50, 50), st.integers(0, 6))
def test_integer_powers(base, exp):
    assert Z.make(base) ** exp == Z.make(base**exp)


# ---------------------------------------------------------------------------
# the polynomial payload kernel against plain coefficient arithmetic


def _mod(n):
    return list(range(n)), 0, lambda a, b: (a + b) % n, lambda a, b: (a * b) % n


def _dual_numbers_mod_3():
    coeffs = [(r, m) for r in range(3) for m in range(3)]
    add = lambda a, b: ((a[0] + b[0]) % 3, (a[1] + b[1]) % 3)
    mul = lambda a, b: ((a[0] * b[0]) % 3, (a[0] * b[1] + a[1] * b[0]) % 3)
    return coeffs, (0, 0), add, mul


# base ring -> (coefficient payloads, zero, plain add, plain multiply)
KERNEL_BASES = {
    "modular(4)": (ModularRing(4), _mod(4)),
    "modular(6)": (Z6, _mod(6)),
    "gf(7)": (PrimeField(7), _mod(7)),
    "trivial(modular(3))": (TrivialExtensionRing(ModularRing(3)), _dual_numbers_mod_3()),
}


def _trimmed(coeffs, zero):
    while coeffs and coeffs[-1] == zero:
        coeffs.pop()
    return tuple(coeffs)


@st.composite
def polynomial_pairs(draw):
    name = draw(st.sampled_from(sorted(KERNEL_BASES)))
    _, (coeffs, zero, _, _) = KERNEL_BASES[name]
    nonzero = [c for c in coeffs if c != zero]

    def poly():
        # degree -1 is the zero polynomial (the empty tuple); otherwise the
        # leading coefficient is any nonzero one, zero divisors included
        degree = draw(st.integers(-1, 4))
        if degree < 0:
            return ()
        body = draw(st.lists(st.sampled_from(coeffs), min_size=degree, max_size=degree))
        return tuple(body) + (draw(st.sampled_from(nonzero)),)

    return name, poly(), poly()


def _reference_add(x, y, zero, add):
    n = max(len(x), len(y))
    x = list(x) + [zero] * (n - len(x))
    y = list(y) + [zero] * (n - len(y))
    return _trimmed([add(a, b) for a, b in zip(x, y)], zero)


def _reference_mul(x, y, zero, add, mul):
    if not x or not y:
        return ()
    out = [zero] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] = add(out[i + j], mul(a, b))
    return _trimmed(out, zero)


@given(polynomial_pairs())
@example(("modular(4)", (2,), (2,)))  # 2 * 2 = 0: the product trims to zero
@example(("modular(4)", (1, 2), (3, 2)))  # the leading 2 * 2 vanishes
@example(("modular(6)", (0, 3), (1, 2)))
@example(("modular(6)", (1, 3), (5, 3)))  # the sum trims two coefficients
@example(("gf(7)", (), (3, 1)))
@example(("trivial(modular(3))", ((0, 1),), ((0, 2), (0, 1))))  # e * e = 0
@example(("trivial(modular(3))", ((1, 0), (0, 1)), ((2, 0), (0, 2))))
def test_polynomial_kernel_matches_coefficient_convolution(data):
    name, x, y = data
    base, (_, zero, add, mul) = KERNEL_BASES[name]
    ring = PolynomialRing(base)
    assert ring._add(x, y) == _reference_add(x, y, zero, add)
    assert ring._mul(x, y) == _reference_mul(x, y, zero, add, mul)


# ---------------------------------------------------------------------------
# the payload dot product against the sum of plain products


def _plain_polynomial_dot(name):
    _, (_, zero, add, mul) = KERNEL_BASES[name]

    def dot(xs, ys):
        acc = ()
        for x, y in zip(xs, ys):
            acc = _reference_add(acc, _reference_mul(x, y, zero, add, mul), zero, add)
        return acc

    return dot


def _polynomial_payloads(name):
    _, (coeffs, zero, _, _) = KERNEL_BASES[name]
    nonzero = [c for c in coeffs if c != zero]
    # the zero polynomial, or a body and any nonzero (even zero-divisor) lead
    nonzero_polynomials = st.tuples(
        st.lists(st.sampled_from(coeffs), max_size=5), st.sampled_from(nonzero)
    ).map(lambda t: tuple(t[0]) + (t[1],))
    return st.one_of(st.just(()), nonzero_polynomials)


# ring -> (payload strategy, the dot product on plain payloads); the last
# ring's base is not Z/n, so it takes the generic add-and-multiply loop
def _plain_int_dot(xs, ys):
    return sum(x * y for x, y in zip(xs, ys))


DOT_RINGS = {
    "integers": (st.integers(-(2**70), 2**70), _plain_int_dot),
    "modular(12)": (st.integers(0, 11), lambda xs, ys: _plain_int_dot(xs, ys) % 12),
    **{
        f"poly({name})": (_polynomial_payloads(name), _plain_polynomial_dot(name))
        for name in ("gf(7)", "modular(4)", "trivial(modular(3))")
    },
}


@st.composite
def dot_operands(draw):
    name = draw(st.sampled_from(sorted(DOT_RINGS)))
    payloads, _ = DOT_RINGS[name]
    length = draw(st.integers(0, 6))
    xs = draw(st.lists(payloads, min_size=length, max_size=length))
    ys = draw(st.lists(payloads, min_size=length, max_size=length))
    return name, xs, ys


@given(dot_operands())
@example(("poly(modular(4))", [(0, 2), (0, 2)], [(0, 2), (0, 2)]))  # 2X * 2X = 0
@example(("poly(modular(4))", [(1, 2), (3,)], [(3, 2), ()]))  # the leading 2 * 2 vanishes
@example(("poly(gf(7))", [], []))
@example(("integers", [], []))
def test_dot_matches_the_sum_of_plain_products(data):
    name, xs, ys = data
    ring = parse_ring(name)
    _, plain_dot = DOT_RINGS[name]
    assert ring._dot(xs, ys) == plain_dot(xs, ys)
    # a single product is the one-pair case
    if xs:
        assert ring._mul(xs[0], ys[0]) == plain_dot(xs[:1], ys[:1])


# ---------------------------------------------------------------------------
# the payload batch product against per-element products, compared through
# the ring's keys


def _per_element_scale(ring, x, ys, z):
    """The keys of ``[z + x*y for y in ys]``, or of the translate
    ``[z + y for y in ys]`` when x is None."""
    return [ring._key(ring._add(z, y if x is None else ring._mul(x, y))) for y in ys]


@st.composite
def modular_scale_operands(draw):
    n = draw(st.integers(2, 17))
    coeffs = st.integers(0, n - 1)

    def poly(max_size):
        # the zero polynomial, or a body and any nonzero (even zero-divisor) lead
        return draw(
            st.one_of(
                st.just(()),
                st.tuples(
                    st.lists(coeffs, max_size=max_size), st.integers(1, n - 1)
                ).map(lambda t: tuple(t[0]) + (t[1],)),
            )
        )

    x = poly(8)
    ys = [poly(8) for _ in range(draw(st.integers(0, 6)))]
    z = poly(20)
    return n, x, ys, z


def _full(n, length):
    return (n - 1,) * length


@given(modular_scale_operands())
@example((4, (), [(1, 2), ()], (3,)))  # an empty x
@example((5, (1, 2), [], (1,)))  # no ys
@example((4, (2,), [(2,), (0, 2), ()], ()))  # 2 * 2 = 0: products trim to zero
@example((3, (0, 1), [(0, 0, 2)], (1, 0, 0, 0, 0, 0, 0, 2)))  # z longer than the products
@example((4, (1, 2), [(3, 2)], (0, 0, 1)))  # z's sum trims the product's lead
@example((16, (15,), [(15, 15), (15,)], (15,)))  # 225 + 15 = 240 fits a byte
@example((16, (15, 15), [(15, 15)], (15,)))  # 2 * 225 + 15 does not
@example((17, (16,), [(16,)], (16,)))  # 256 + 16 never fits
@example((4, _full(4, 28), [_full(4, 28)], _full(4, 55)))  # 28 * 9 + 3 = 255
@example((4, _full(4, 29), [_full(4, 29)], _full(4, 57)))  # 29 * 9 + 3 = 264
@example((2, _full(2, 254), [_full(2, 254)], _full(2, 507)))  # 254 + 1 = 255
@example((2, _full(2, 255), [_full(2, 255)], _full(2, 509)))  # 255 + 1 = 256
@example((6, _full(6, 10), [_full(6, 10), (), (5,)], _full(6, 19)))  # 10 * 25 + 5 = 255
# translates y + z: 15 + 15 = 30 always fits a byte, and Z/17 loops
@example((16, (15, 15), [_full(16, 40), (), (0, 3)], _full(16, 50)))
@example((17, (16,), [(16, 16), (), (0, 3)], (16, 1)))
def test_modular_scale_matches_per_element_products(data):
    n, x, ys, z = data
    ring = PolynomialRing(ModularRing(n))
    scale = ring._scaler(ys)
    assert scale(x, z) == _per_element_scale(ring, x, ys, z)
    assert scale(x) == _per_element_scale(ring, x, ys, ())
    assert scale(z=z) == _per_element_scale(ring, None, ys, z)


@pytest.mark.parametrize(
    "n, length, packed",
    [(4, 28, True), (4, 29, False), (2, 254, True), (2, 255, False), (17, 1, False)],
)
def test_modular_scale_packs_exactly_when_no_slot_passes_255(monkeypatch, n, length, packed):
    ring = PolynomialRing(ModularRing(n))
    calls = _count_base_loop_calls(monkeypatch)
    full = _full(n, length)
    scale = ring._scaler([full])
    # a translate packs whenever the ring packs at all, here for n <= 16
    assert scale(None, full) == _per_element_scale(ring, None, [full], full)
    assert (not calls) == (n <= 16)
    assert scale(full, (n - 1,)) == _per_element_scale(ring, full, [full], (n - 1,))
    assert (not calls) == packed


def _count_base_loop_calls(monkeypatch) -> list:
    """Patch the base-class scaler so that every call of a loop it returns
    is recorded in the returned list."""
    calls = []
    loop = Ring._scaler

    def counted(self, ys):
        scale = loop(self, ys)

        def recorded(*args):
            calls.append(args)
            return scale(*args)

        return recorded

    monkeypatch.setattr(Ring, "_scaler", counted)
    return calls


# one scaler, x of several lengths: (length of x, length of z, packed?) over
# Z/4 with ys up to 29 coefficients long, where a slot holds
# min(len(x), 29) * 9 + 3 <= 255 exactly when len(x) <= 28
_SCALER_CALLS = (
    (1, 0, True),  # runs of 29 bytes
    (3, 0, True),  # runs of 31: a second packing
    (28, 1, True),  # runs of 56, at the 255 boundary
    (29, 1, False),  # 29 * 9 + 3 = 264: the base loop
    (3, 40, True),  # z sets the run size, 40
    (3, 0, True),  # runs of 31 again, packed before
    (40, 2, False),
    (1, 0, True),
)


def test_one_modular_scaler_serves_x_of_every_length(monkeypatch):
    ring = PolynomialRing(ModularRing(4))
    ys = [_full(4, 29), (), (2,), (1, 0, 3), (0,) * 20 + (2,), _full(4, 7)]
    reference = Ring._scaler(ring, ys)
    calls = _count_base_loop_calls(monkeypatch)
    scale = ring._scaler(ys)
    for i, (length, tail, packed) in enumerate(_SCALER_CALLS):
        x = tuple((i + j) % 4 for j in range(length - 1)) + (3,)
        z = _full(4, tail)
        before = len(calls)
        # the translate by z packs at every length
        assert scale(None, z) == [ring._key(p) for p in reference(None, z)]
        assert len(calls) == before
        assert scale(x, z) == [ring._key(p) for p in reference(x, z)]
        assert scale(x) == [ring._key(p) for p in reference(x)]
        assert (len(calls) == before) == packed


def _raw_payloads(ring, raw):
    return raw.map(lambda value: ring.make(value).payload)


_small = st.integers(-30, 30)
# rings whose _scaler is the base loop: the payloads are drawn as literals and
# canonicalized by the ring
BASE_SCALE_RINGS = {
    "integers": st.integers(-(2**70), 2**70),
    "modular(12)": _small,
    "poly2(gf(3), bound=2)": st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), _small), max_size=5
    ),
    "poly(integers)": st.lists(_small, max_size=5),
    "poly(trivial(modular(3)))": st.lists(st.tuples(_small, _small), max_size=4),
}


@st.composite
def base_scale_operands(draw):
    name = draw(st.sampled_from(sorted(BASE_SCALE_RINGS)))
    ring = parse_ring(name)
    payloads = _raw_payloads(ring, BASE_SCALE_RINGS[name])
    return name, draw(payloads), draw(st.lists(payloads, max_size=5)), draw(payloads)


@given(base_scale_operands())
@example(("integers", 0, [], 5))
@example(("poly(integers)", (), [(1, 2)], (3,)))
@example(("poly2(gf(3), bound=2)", (((1, 0), 1),), [(((0, 1), 2),), ()], ()))
@example(("poly2(gf(3), bound=2)", (), [(((0, 1), 2),), ()], (((0, 1), 1),)))  # y + z cancels
def test_base_scale_matches_per_element_products(data):
    name, x, ys, z = data
    ring = parse_ring(name)
    scale = ring._scaler(ys)
    assert scale(x, z) == _per_element_scale(ring, x, ys, z)
    assert scale(x) == _per_element_scale(ring, x, ys, ring._zero())
    assert scale(z=z) == _per_element_scale(ring, None, ys, z)
