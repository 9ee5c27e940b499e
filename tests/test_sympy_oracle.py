"""Smith normal form against sympy's invariant factors.

sympy is a test-only oracle: it is imported here and nowhere in the library.
Its invariant factors are normalised to ringlab's canonical associates
(nonnegative integers, monic polynomials) before comparison.
"""

import random

import pytest

pytest.importorskip("sympy")

from sympy import GF, ZZ, Poly, div, gcd, symbols  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.matrices.normalforms import invariant_factors  # noqa: E402

from ringlab import (  # noqa: E402
    EuclideanOps,
    IntegerRing,
    PolynomialRing,
    PrimeField,
    RingMatrix,
    smith_normal_form,
    verify_reduction,
)

Z = IntegerRing()
P = 7
GF7X = PolynomialRing(PrimeField(P))


def sympy_integer_factors(grid):
    dm = DomainMatrix([[ZZ(x) for x in row] for row in grid], (len(grid), len(grid[0])), ZZ)
    return [abs(int(f)) for f in invariant_factors(dm)]


def sympy_polynomial_factors(grid):
    """``grid`` holds coefficient lists, constant term first."""
    domain = GF(P)[symbols("x")]
    ring = domain.ring
    dm = DomainMatrix(
        [[ring.from_list(list(reversed(c))) for c in row] for row in grid],
        (len(grid), len(grid[0])),
        domain,
    )
    out = []
    for f in invariant_factors(dm):
        coeffs = [int(c) % P for c in f.monic().to_dense()] if f else []
        out.append(list(reversed(coeffs)))
    return out


def with_dependent_rows(rng, grid, combine):
    """Overwrite some rows with combinations of others, so that rank
    deficiency and zero invariant factors are exercised too."""
    if len(grid) > 1 and rng.random() < 0.4:
        i, j = rng.sample(range(len(grid)), 2)
        grid[i] = [combine(x) for x in grid[j]]
    return grid


def integer_cases():
    rng = random.Random(0x5E7)
    cases = []
    for rows in range(1, 9):
        for cols in range(1, 9):
            height = rng.choice([3, 20, 100])
            grid = [[rng.randint(-height, height) for _ in range(cols)] for _ in range(rows)]
            cases.append(with_dependent_rows(rng, grid, lambda x: 3 * x))
    return cases


def polynomial_cases():
    rng = random.Random(0x6F7)
    cases = []
    for rows in range(1, 5):
        for cols in range(1, 5):
            for _ in range(2):
                grid = [
                    [[rng.randrange(P) for _ in range(rng.randint(0, 3))] for _ in range(cols)]
                    for _ in range(rows)
                ]
                cases.append(with_dependent_rows(rng, grid, lambda c: [(2 * x) % P for x in c]))
    return cases


def test_integer_snf_matches_sympy():
    for grid in integer_cases():
        a = RingMatrix.from_rows(Z, grid)
        red = smith_normal_form(a)
        assert verify_reduction(a, red)
        assert [d.literal() for d in red.diagonal()] == sympy_integer_factors(grid), grid


def test_polynomial_snf_matches_sympy():
    for grid in polynomial_cases():
        a = RingMatrix.from_rows(GF7X, grid)
        red = smith_normal_form(a)
        assert verify_reduction(a, red)
        assert [d.literal() for d in red.diagonal()] == sympy_polynomial_factors(grid), grid


# ---------------------------------------------------------------------------
# the Euclidean interface: division with remainder and the gcd over GF(p)[x]


def sympy_poly(coeffs, p):
    """``coeffs`` is a payload tuple, constant term first."""
    return Poly(list(reversed(coeffs)) or [0], symbols("x"), modulus=p)


def payload_of(poly, p):
    coeffs = [int(c) % p for c in reversed(poly.all_coeffs())]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def polynomial_pairs(p, seed):
    rng = random.Random(seed)
    ring = PolynomialRing(PrimeField(p))
    pairs = []
    for _ in range(60):
        x, y = (
            ring.make([rng.randrange(p) for _ in range(rng.randint(0, 7))]).payload
            for _ in range(2)
        )
        if rng.random() < 0.3 and y:
            # a shared factor, so that the gcd is not always one
            x = ring._mul(x, y)
        pairs.append((x, y))
    return ring, pairs


@pytest.mark.parametrize("p", [2, 5, 7])
def test_polynomial_divmod_matches_sympy(p):
    ring, pairs = polynomial_pairs(p, 0xD1 + p)
    ops = EuclideanOps(ring)
    for x, y in pairs:
        if not y:
            continue
        q, r = ops.divmod(x, y)
        sq, sr = div(sympy_poly(x, p), sympy_poly(y, p))
        assert (q, r) == (payload_of(sq, p), payload_of(sr, p)), (x, y)


@pytest.mark.parametrize("p", [2, 5, 7])
def test_polynomial_egcd_matches_sympy_monic_gcd(p):
    ring, pairs = polynomial_pairs(p, 0xE2 + p)
    ops = EuclideanOps(ring)
    for x, y in pairs + [((), ()), ((), (1, 1))]:
        d, s, t = ops.egcd(x, y)
        expected = gcd(sympy_poly(x, p), sympy_poly(y, p))
        assert d == payload_of(expected.monic() if expected else expected, p), (x, y)
        assert ring._add(ring._mul(s, x), ring._mul(t, y)) == d

