"""Witnessed reduction against independent oracles.

The integer oracle is the determinant-divisor formula: the k-th invariant
factor is gcd(k-minors) / gcd((k-1)-minors).  The modular oracle reduces the
matrix over each prime factor separately and recombines by CRT.  Both are
implemented here from scratch so they share no code with the library.
"""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ringlab import (
    CornerRing,
    DiagonalReduction,
    IntegerRing,
    MismatchedRings,
    ModularRing,
    PolynomialRing,
    PrimeField,
    ProductRing,
    QuotientRing,
    RingMatrix,
    TrivialExtensionRing,
    UnsupportedRing,
    diagonal_reduction,
    elementary_divisor_chain_check,
    is_regular_matrix,
    is_total_divisor,
    matrix_from_document,
    matrix_to_document,
    parse_ring,
    reduce_matrix,
    reduction_to_document,
    smith_normal_form,
    verify_reduction,
)
from ringlab.matrices import _brute_regularity, _reduction_holds
from ringlab.rings import _principal_ideal

Z = IntegerRing()
Z4 = ModularRing(4)
Z6 = ModularRing(6)
F2X = PolynomialRing(PrimeField(2))


# ---------------------------------------------------------------------------
# oracles


def int_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * head * int_det(minor)
    return total


def invariant_factors_oracle(rows):
    """Diagonal of the Smith form via gcds of k x k minors."""
    m, n = len(rows), len(rows[0])
    out = []
    previous = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, int_det(sub))
        if g == 0:
            out.extend([0] * (min(m, n) - len(out)))
            break
        out.append(g // previous)
        previous = g
    return out


def rank_mod_p(rows, p):
    grid = [[x % p for x in row] for row in rows]
    rank = 0
    col = 0
    m, n = len(grid), len(grid[0])
    while rank < m and col < n:
        pivot = next((r for r in range(rank, m) if grid[r][col] % p), None)
        if pivot is None:
            col += 1
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        inv = pow(grid[rank][col], -1, p)
        grid[rank] = [(x * inv) % p for x in grid[rank]]
        for r in range(m):
            if r != rank and grid[r][col]:
                c = grid[r][col]
                grid[r] = [(a - c * b) % p for a, b in zip(grid[r], grid[rank])]
        rank += 1
        col += 1
    return rank


def crt_diagonal_oracle(rows, primes):
    """Diagonal over Z/(prod primes), each entry up to a unit: over each F_p
    the first rank_p invariant factors are 1 and the rest 0; recombine."""
    n = math.prod(primes)
    m, k = len(rows), len(rows[0])
    ranks = {p: rank_mod_p(rows, p) for p in primes}
    diag = []
    for i in range(min(m, k)):
        residues = {p: 1 if i < ranks[p] else 0 for p in primes}
        value = next(
            x for x in range(n) if all(x % p == residues[p] for p in primes)
        )
        diag.append(value)
    return diag


def same_ideal(ring, a, b):
    """Associate test over a finite ring: equal principal ideals."""
    ideal = lambda d: {(d * r).literal() for r in ring.elements()}
    return ideal(a) == ideal(b)


def random_unimodular(rng, size):
    grid = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(8):
        i, j = rng.sample(range(size), 2)
        c = rng.randint(-3, 3)
        grid[i] = [a + c * b for a, b in zip(grid[i], grid[j])]
        if rng.random() < 0.3:
            grid[i], grid[j] = grid[j], grid[i]
    return grid


# ---------------------------------------------------------------------------
# matrix plumbing


def test_construction_and_access():
    a = RingMatrix.from_rows(Z, [[1, 2], [3, 4]])
    assert a.entry(1, 0).literal() == 3
    assert a.transpose().entry(0, 1).literal() == 3
    assert RingMatrix.identity(Z, 2).is_diagonal()
    assert RingMatrix.zeros(Z, 2, 3).entries == RingMatrix.zeros(Z, 2, 3).entries
    d = RingMatrix.diagonal(Z, [Z.make(2), Z.make(5)])
    assert [e.literal() for e in d.diagonal_entries()] == [2, 5]


def test_construction_rejects_ragged_rows():
    with pytest.raises(ValueError):
        RingMatrix.from_rows(Z, [[1, 2], [3]])


def test_element_entry_points_reject_another_ring():
    foreign = Z6.make(1)
    with pytest.raises(MismatchedRings):
        RingMatrix.from_rows(Z4, [[1, foreign]])
    with pytest.raises(MismatchedRings):
        RingMatrix.diagonal(Z4, [Z4.make(1), foreign])
    a = RingMatrix.from_rows(Z4, [[1, 2], [3, 0]])
    with pytest.raises(MismatchedRings):
        a.map_entries(Z4, lambda e: foreign)
    assert a.map_entries(Z6, lambda e: Z6.make(e.payload)).payloads == (1, 2, 3, 0)


@pytest.mark.parametrize(
    "rows, cols, payloads",
    [(0, 1, ()), (1, 0, ()), (-1, -1, (1,)), (2, 2, (1, 2, 3)), (1, 2, (1, 2, 3))],
)
def test_constructor_checks_the_shape(rows, cols, payloads):
    with pytest.raises(ValueError):
        RingMatrix(Z4, rows, cols, payloads)


@pytest.mark.parametrize(
    "grid",
    [
        [[1, 0, 0], [0, 3, 0]],
        [[1, 2, 0], [0, 3, 0]],
        [[2], [0], [0]],
        [[2], [0], [1]],
    ],
    ids=["2x3-diagonal", "2x3-full", "3x1-diagonal", "3x1-full"],
)
def test_access_matches_the_elementwise_definition(grid):
    a = RingMatrix.from_rows(Z4, grid)
    rows, cols = len(grid), len(grid[0])
    elements = [[Z4.make(v) for v in row] for row in grid]
    assert a.row_list() == elements
    assert all(a.entry(i, j) == elements[i][j] for i in range(rows) for j in range(cols))
    transposed = a.transpose()
    assert (transposed.rows, transposed.cols) == (cols, rows)
    assert transposed.row_list() == [[elements[i][j] for i in range(rows)] for j in range(cols)]
    assert a.is_diagonal() == all(
        elements[i][j].is_zero() for i in range(rows) for j in range(cols) if i != j
    )
    assert a.diagonal_entries() == tuple(elements[i][i] for i in range(min(rows, cols)))


def test_matmul_golden():
    a = RingMatrix.from_rows(Z, [[1, 2], [3, 4]])
    b = RingMatrix.from_rows(Z, [[0, 1], [1, 0]])
    assert (a @ b).row_list()[0][0].literal() == 2
    with pytest.raises(ValueError):
        a @ RingMatrix.zeros(Z, 3, 2)


def test_apply_is_matrix_vector_product():
    a = RingMatrix.from_rows(Z, [[1, 2], [3, 4]])
    out = a.apply((Z.make(1), Z.make(1)))
    assert [x.literal() for x in out] == [3, 7]


# ---------------------------------------------------------------------------
# integer smith form


def test_snf_identity_is_fixed():
    red = smith_normal_form(RingMatrix.identity(Z, 2))
    assert red.P == RingMatrix.identity(Z, 2)
    assert red.Q == RingMatrix.identity(Z, 2)
    assert [d.literal() for d in red.diagonal()] == [1, 1]


def test_snf_golden_2x2():
    a = RingMatrix.from_rows(Z, [[2, 4], [4, 6]])
    red = smith_normal_form(a)
    assert [d.literal() for d in red.diagonal()] == [2, 2]
    assert verify_reduction(a, red)


def test_snf_golden_coprime_diagonal():
    a = RingMatrix.from_rows(Z, [[2, 0], [0, 3]])
    red = smith_normal_form(a)
    assert [d.literal() for d in red.diagonal()] == [1, 6]


def test_snf_zero_matrix():
    a = RingMatrix.zeros(Z, 2, 3)
    red = smith_normal_form(a)
    assert all(d.is_zero() for d in red.diagonal())
    assert verify_reduction(a, red)


def test_snf_diagonal_is_canonical_nonnegative():
    a = RingMatrix.from_rows(Z, [[-2, 0], [0, -3]])
    red = smith_normal_form(a)
    assert [d.literal() for d in red.diagonal()] == [1, 6]


@pytest.mark.parametrize("shape", [(3, 3), (2, 4)])
def test_snf_matches_minor_gcd_oracle(shape):
    rng = random.Random(0xA11CE)
    rows, cols = shape
    for _ in range(60):
        grid = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        a = RingMatrix.from_rows(Z, grid)
        red = smith_normal_form(a)
        assert verify_reduction(a, red)
        assert elementary_divisor_chain_check(red)
        assert [d.literal() for d in red.diagonal()] == invariant_factors_oracle(grid)
        assert int_det([[e.literal() for e in r] for r in red.P.row_list()]) in (-1, 1)
        assert int_det([[e.literal() for e in r] for r in red.Q.row_list()]) in (-1, 1)


def test_snf_invariant_under_unimodular_equivalence():
    rng = random.Random(0xB0B)
    for _ in range(30):
        grid = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        a = RingMatrix.from_rows(Z, grid)
        u = RingMatrix.from_rows(Z, random_unimodular(rng, 3))
        v = RingMatrix.from_rows(Z, random_unimodular(rng, 3))
        assert smith_normal_form(u @ a @ v).diagonal() == smith_normal_form(a).diagonal()


def test_snf_rejects_non_euclidean_rings():
    from ringlab import UnsupportedRing

    a = RingMatrix.from_rows(TrivialExtensionRing(Z), [[[1, 0]]])
    with pytest.raises(UnsupportedRing):
        smith_normal_form(a)


# ---------------------------------------------------------------------------
# polynomial smith form


def test_snf_over_gf2_polynomials():
    x = F2X.gen()
    a = RingMatrix.from_rows(F2X, [[x + F2X.one(), F2X.one()], [F2X.zero(), x]])
    red = smith_normal_form(a)
    assert verify_reduction(a, red)
    # det = X^2 + X and the entry gcd is the unit 1
    assert [d.literal() for d in red.diagonal()] == [[1], [0, 1, 1]]


def test_snf_polynomial_diagonal_is_monic():
    r = PolynomialRing(PrimeField(5))
    a = RingMatrix.from_rows(r, [[[0, 2]]])  # 2X
    red = smith_normal_form(a)
    assert [d.literal() for d in red.diagonal()] == [[0, 1]]


# ---------------------------------------------------------------------------
# witness size


def test_witness_entries_stay_bounded():
    # one Bezout step per entry against the pivot row takes these inputs to
    # 9,608 bits (and one 16x16 draw in eight past 14,000 bits, over the
    # 4,300-digit int-to-str limit); Euclidean rounds against the smallest
    # entry give at most 920 bits and degree 34 here
    rng = random.Random(0x5117)
    gf7x = PolynomialRing(PrimeField(7))
    inputs = [
        RingMatrix.from_rows(Z, [[rng.randint(-1000, 1000) for _ in range(16)] for _ in range(16)])
        for _ in range(16)
    ] + [
        RingMatrix.from_rows(
            gf7x, [[[rng.randrange(7) for _ in range(3)] for _ in range(6)] for _ in range(6)]
        )
        for _ in range(16)
    ]
    for a in inputs:
        red = smith_normal_form(a)
        for transform in (red.P, red.P_inv, red.Q, red.Q_inv):
            for x in transform.payloads:
                if a.ring == Z:
                    assert abs(x).bit_length() <= 1536
                else:
                    assert len(x) - 1 <= 48


# ---------------------------------------------------------------------------
# modular diagonal reduction


def test_modular_1x1_already_diagonal():
    a = RingMatrix.from_rows(Z4, [[2]])
    red = diagonal_reduction(a)
    assert [d.literal() for d in red.diagonal()] == [2]
    assert red.P == RingMatrix.identity(Z4, 1)


def test_modular_1x2_bezout():
    a = RingMatrix.from_rows(Z4, [[2, 3]])
    red = diagonal_reduction(a)
    assert [d.literal() for d in red.diagonal()] == [1]
    assert verify_reduction(a, red)


def test_modular_lifted_snf_golden():
    a = RingMatrix.from_rows(Z6, [[3, 0], [0, 2]])
    red = diagonal_reduction(a)
    assert [d.literal() for d in red.diagonal()] == [1, 0]
    assert verify_reduction(a, red)


def test_modular_exhaustive_2x2_over_z4():
    for entries in itertools.product(range(4), repeat=4):
        a = RingMatrix.from_rows(Z4, [entries[:2], entries[2:]])
        red = diagonal_reduction(a)
        assert verify_reduction(a, red)


def test_modular_matches_crt_oracle_over_z6():
    rng = random.Random(0xC47)
    for _ in range(200):
        grid = [[rng.randrange(6) for _ in range(2)] for _ in range(2)]
        a = RingMatrix.from_rows(Z6, grid)
        red = diagonal_reduction(a)
        assert verify_reduction(a, red)
        want = crt_diagonal_oracle(grid, (2, 3))
        got = red.diagonal()
        assert len(got) == len(want)
        for d, w in zip(got, want):
            assert same_ideal(Z6, d, Z6.make(w))


def test_reduce_matrix_dispatches_by_ring():
    red = reduce_matrix(RingMatrix.from_rows(Z, [[4, 6]]))
    assert [d.literal() for d in red.diagonal()] == [2]
    red = reduce_matrix(RingMatrix.from_rows(Z6, [[4, 6]]))
    assert verify_reduction(RingMatrix.from_rows(Z6, [[4, 6]]), red)


@pytest.mark.parametrize(
    "ring, rows, diagonal",
    [
        (Z, [[4, 6]], [2]),
        (Z, [[0, 0]], [0]),
        (F2X, [[[0, 1]], [[0, 0, 1]]], [[0, 1]]),
        (Z4, [[2, 3]], [1]),
        # the divisibility repair: two sweeps over Z, one over F2[x]
        (Z, [[6, 0, 0], [0, 10, 0], [0, 0, 15]], [1, 30, 30]),
        (F2X, [[[0, 1], [0]], [[0], [1, 1]]], [[1], [0, 1, 1]]),
    ],
    ids=["z-row", "z-zero-row", "f2x-column", "z4-row", "z-diag-6-10-15", "f2x-diag-x-x1"],
)
def test_reduce_matrix_on_rows_and_columns(ring, rows, diagonal):
    a = RingMatrix.from_rows(ring, rows)
    red = reduce_matrix(a)
    assert [d.literal() for d in red.diagonal()] == diagonal
    assert verify_reduction(a, red)


# ---------------------------------------------------------------------------
# divisor chains


def test_total_divisor_cases():
    assert is_total_divisor(Z6.make(2), Z6.make(4))
    assert not is_total_divisor(Z.make(2), Z.make(3))
    assert is_total_divisor(Z.make(1), Z.make(17))
    assert is_total_divisor(Z4.make(2), Z4.make(2))
    assert not is_total_divisor(Z4.make(2), Z4.make(1))


@pytest.mark.parametrize("n", range(2, 31))
def test_modular_total_divisor_matches_enumeration(n):
    ring = ModularRing(n)
    for a in range(n):
        multiples = {(a * r) % n for r in range(n)}
        for b in range(n):
            assert is_total_divisor(ring.make(a), ring.make(b)) == (b in multiples), (a, b)


@pytest.mark.parametrize(
    "descriptor", ["product(modular(2), modular(3))", "trivial(modular(2))"]
)
def test_total_divisor_off_euclidean_rings_matches_the_principal_ideal(descriptor):
    ring = parse_ring(descriptor)
    for a in ring.elements():
        ideal = set(_principal_ideal(a))
        for b in ring.elements():
            assert is_total_divisor(a, b) == (b.payload in ideal), (a, b)


def test_total_divisor_over_an_infinite_non_euclidean_ring_is_refused():
    ring = parse_ring("poly(integers)")
    with pytest.raises(UnsupportedRing) as info:
        is_total_divisor(ring.gen(), ring.one())
    assert str(info.value) == "divisibility is undecidable here over poly(integers)"


def _diag_reduction(ring, diag):
    size = len(diag)
    return DiagonalReduction(
        P=RingMatrix.identity(ring, size),
        P_inv=RingMatrix.identity(ring, size),
        Q=RingMatrix.identity(ring, size),
        Q_inv=RingMatrix.identity(ring, size),
        D=RingMatrix.diagonal(ring, [ring.make(d) for d in diag]),
    )


def test_chain_check_goldens():
    assert elementary_divisor_chain_check(_diag_reduction(Z, [1, 6]))
    assert not elementary_divisor_chain_check(_diag_reduction(Z, [2, 3]))
    assert elementary_divisor_chain_check(_diag_reduction(Z, [2, 2]))


# ---------------------------------------------------------------------------
# verification is falsifiable


def test_verify_detects_tampering():
    a = RingMatrix.from_rows(Z, [[2, 4], [4, 6]])
    red = smith_normal_form(a)
    bad_d = RingMatrix.from_rows(Z, [[2, 0], [0, 3]])
    assert not verify_reduction(a, DiagonalReduction(red.P, red.P_inv, red.Q, red.Q_inv, bad_d))
    limp = RingMatrix.from_rows(Z, [[2, 0], [0, 1]])
    assert not verify_reduction(a, DiagonalReduction(limp, limp, red.Q, red.Q_inv, red.D))


def test_verify_rejects_shape_mismatch():
    a = RingMatrix.from_rows(Z, [[2, 4], [4, 6]])
    red = smith_normal_form(a)
    with pytest.raises(ValueError):
        verify_reduction(RingMatrix.zeros(Z, 2, 3), red)


# ---------------------------------------------------------------------------
# matrix regularity


def test_regular_matrix_goldens():
    ok, _ = is_regular_matrix(RingMatrix.from_rows(Z4, [[2]]))
    assert not ok
    f = RingMatrix.diagonal(Z6, [Z6.make(3), Z6.make(4)])
    ok, g = is_regular_matrix(f)
    assert ok
    assert f @ g @ f == f
    zero = RingMatrix.zeros(Z6, 2, 2)
    ok, g = is_regular_matrix(zero)
    assert ok
    assert all(e.is_zero() for e in g.entries)


def test_regular_matrix_methods_agree_on_z4():
    for entries in itertools.product(range(4), repeat=4):
        f = RingMatrix.from_rows(Z4, [entries[:2], entries[2:]])
        structural, gs = is_regular_matrix(f)
        gb = _brute_regularity(f)
        brute = gb is not None
        assert structural == brute
        if structural:
            assert f @ gs @ f == f
            assert f @ gb @ f == f


def test_regular_matrix_non_square():
    f = RingMatrix.from_rows(Z6, [[3, 0, 1]])
    ok, g = is_regular_matrix(f)
    assert ok
    assert g.rows == 3 and g.cols == 1
    assert f @ g @ f == f


# ---------------------------------------------------------------------------
# interchange documents


def test_document_round_trip():
    a = RingMatrix.from_rows(Z6, [[1, 2], [3, 4]])
    assert matrix_from_document(matrix_to_document(a)) == a
    p = RingMatrix.from_rows(F2X, [[[1, 1]], [[0, 1]]])
    assert matrix_from_document(matrix_to_document(p)) == p


def test_document_accepts_nested_rows():
    doc = {"ring": "integers", "rows": 2, "cols": 2, "entries": [[1, 2], [3, 4]]}
    assert matrix_from_document(doc) == RingMatrix.from_rows(Z, [[1, 2], [3, 4]])
    column = {"ring": "integers", "rows": 2, "cols": 1, "entries": [[1], [2]]}
    assert matrix_from_document(column) == RingMatrix.from_rows(Z, [[1], [2]])


def test_document_validation_errors():
    with pytest.raises(ValueError):
        matrix_from_document({"ring": "integers", "rows": 2, "cols": 2, "entries": [1]})
    with pytest.raises(ValueError):
        matrix_from_document({"rows": 1, "cols": 1, "entries": [1]})
    with pytest.raises(ValueError):
        matrix_from_document([1, 2])


@pytest.mark.parametrize(
    "rows, cols", [(True, True), (True, 1), (1, False)], ids=["both", "rows", "cols"]
)
def test_document_rejects_boolean_shape(rows, cols):
    doc = {"ring": "integers", "rows": rows, "cols": cols, "entries": [5]}
    with pytest.raises(ValueError, match="rows and cols must be integers"):
        matrix_from_document(doc)


def test_reduction_document_fields():
    a = RingMatrix.from_rows(Z, [[2, 4], [4, 6]])
    red = smith_normal_form(a)
    doc = reduction_to_document(a, red, include_witness=True)
    assert doc["diagonal"] == [2, 2]
    assert doc["divisibility_chain"] is True
    assert doc["verified"] is True
    assert matrix_from_document(doc["witness"]["P"]) == red.P
    slim = reduction_to_document(a, red, include_witness=False)
    assert "witness" not in slim


def test_reduction_document_verifies_the_pair_it_is_given():
    a = RingMatrix.from_rows(Z, [[2, 4], [4, 6]])
    red = smith_normal_form(a)
    # the reduction of a is not a reduction of another matrix b
    b = RingMatrix.from_rows(Z, [[2, 4], [4, 7]])
    assert reduction_to_document(b, red, include_witness=False)["verified"] is False
    # a reduction built by hand, not by the library, is verified on its own
    hand = DiagonalReduction(
        P=RingMatrix.from_rows(Z, [[1, 0], [-2, 1]]),
        P_inv=RingMatrix.from_rows(Z, [[1, 0], [2, 1]]),
        Q=RingMatrix.from_rows(Z, [[1, -2], [0, 1]]),
        Q_inv=RingMatrix.from_rows(Z, [[1, 2], [0, 1]]),
        D=RingMatrix.diagonal(Z, [2, -2]),
    )
    assert reduction_to_document(a, hand, include_witness=True)["verified"] is True
    tampered = DiagonalReduction(
        hand.P, hand.P_inv, hand.Q, hand.Q_inv, RingMatrix.diagonal(Z, [2, 2])
    )
    assert reduction_to_document(a, tampered, include_witness=True)["verified"] is False


# ---------------------------------------------------------------------------
# witness pin: every reduction of the small-shape sweep, byte for byte

_SWEEP_SHAPES = [(1, 1), (1, 2), (2, 1)]
_WITNESS = ("P", "P_inv", "Q", "Q_inv", "D")


def _sweep_witness_digest(n, shapes, parts):
    """sha256 over the payload tuples named by ``parts`` of every reduction
    of the given shapes over Z/n, matrices in the sweep's enumeration order."""
    ring = ModularRing(n)
    payloads = [e.payload for e in ring.elements()]
    digest = hashlib.sha256()
    for rows, cols in shapes:
        for combo in itertools.product(payloads, repeat=rows * cols):
            red = diagonal_reduction(RingMatrix(ring, rows, cols, combo))
            for part in parts:
                digest.update(repr(getattr(red, part).payloads).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "n, shapes, parts, recorded",
    [
        (
            4,
            _SWEEP_SHAPES,
            _WITNESS,
            "2b78908129c4974e4b36f8bb9413f66d6503e0c5bc3314dbb039992922c61ed6",
        ),
        (
            12,
            _SWEEP_SHAPES,
            _WITNESS,
            "729a977404830758f9ad47d7f6202ba4e2f5a072c2daffd1dbc26a972e6627d8",
        ),
        (
            30,
            _SWEEP_SHAPES,
            _WITNESS,
            "3428ae0cd0014f9bd89daf68b6179ade6babdde77f1a51c32cb1c70fc8b2cd3c",
        ),
        (
            6,
            _SWEEP_SHAPES + [(2, 2)],
            _WITNESS,
            "0234cb1edddd32b4c557a6357ee37ce379dac772ef4443c0277d8e8e069823b1",
        ),
        (
            6,
            _SWEEP_SHAPES + [(2, 2)],
            ("D",),
            "8bae35cae5fb0107446123b42a770a9c02609fa2b8a22ca37267da0514f8733b",
        ),
    ],
    ids=["z4", "z12", "z30", "z6-with-2x2", "z6-with-2x2-diagonal"],
)
def test_sweep_witnesses_match_the_recorded_digests(n, shapes, parts, recorded):
    # a change of the reduction code that keeps the elimination keeps every
    # witness: P, P_inv, Q, Q_inv and D of each matrix stay the same; one
    # that changes only the elimination path keeps the diagonal-only digest
    assert _sweep_witness_digest(n, shapes, parts) == recorded


# ---------------------------------------------------------------------------
# property-based coverage


@settings(deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-30, 30), min_size=2, max_size=2),
        min_size=2,
        max_size=3,
    )
)
def test_snf_properties_hold_for_arbitrary_int_matrices(grid):
    a = RingMatrix.from_rows(Z, grid)
    red = smith_normal_form(a)
    assert verify_reduction(a, red)
    assert elementary_divisor_chain_check(red)
    assert [d.literal() for d in red.diagonal()] == invariant_factors_oracle(grid)


@settings(deadline=None)
@given(st.integers(2, 30), st.lists(st.integers(0, 29), min_size=4, max_size=4))
def test_modular_reduction_verifies_for_arbitrary_n(n, entries):
    ring = ModularRing(n)
    a = RingMatrix.from_rows(ring, [entries[:2], entries[2:]])
    red = diagonal_reduction(a)
    assert verify_reduction(a, red)
    assert is_total_divisor(red.diagonal()[0], red.diagonal()[1])


# ---------------------------------------------------------------------------
# matrix products against the element-by-element definition


def _product_by_definition(a, b):
    ring = a.ring
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = ring.zero()
            for k in range(a.cols):
                acc = acc + a.entry(i, k) * b.entry(k, j)
            out.append(acc)
    return out


def _random_matrix(ring, rng, rows, cols, sample):
    return RingMatrix(ring, rows, cols, tuple(sample(rng).payload for _ in range(rows * cols)))


def _finite_sampler(ring):
    elements = ring.elements()
    return lambda rng: rng.choice(elements)


def _polynomial_sampler(ring, max_length=4):
    n = ring.base.modulus
    return lambda rng: ring.make([rng.randrange(n) for _ in range(rng.randint(0, max_length))])


def _product_rings():
    z12 = ModularRing(12)
    finite = [
        z12,
        ProductRing([Z4, ModularRing(3)]),
        TrivialExtensionRing(Z4),
        CornerRing(z12, z12.make(4)),
        QuotientRing(z12, frozenset({0, 6})),
    ]
    # polynomials over Z/n, zero divisors and a modulus past 64 bits included
    polynomial = [
        PolynomialRing(base)
        for base in (PrimeField(7), Z4, Z6, ModularRing(2), ModularRing(2**64 + 13))
    ]
    return (
        [(Z, lambda rng: Z.make(rng.randint(-50, 50)))]
        + [(ring, _polynomial_sampler(ring)) for ring in polynomial]
        + [(ring, _finite_sampler(ring)) for ring in finite]
    )


@pytest.mark.parametrize(
    "ring, sample",
    _product_rings(),
    ids=lambda v: v.descriptor() if hasattr(v, "descriptor") else None,
)
def test_matmul_and_apply_match_definition(ring, sample):
    rng = random.Random(0x3A7)
    for rows, inner, cols in [(1, 1, 1), (2, 3, 1), (3, 2, 4), (4, 4, 4), (2, 16, 3)]:
        a = _random_matrix(ring, rng, rows, inner, sample)
        b = _random_matrix(ring, rng, inner, cols, sample)
        product = a @ b
        assert (product.ring, product.rows, product.cols) == (ring, rows, cols)
        assert list(product.entries) == _product_by_definition(a, b)
        vector = tuple(sample(rng) for _ in range(inner))
        column = RingMatrix(ring, inner, 1, tuple(v.payload for v in vector))
        assert list(a.apply(vector)) == _product_by_definition(a, column)


@pytest.mark.parametrize(
    "modulus, row, column, square",
    [
        # over Z/4, 2X * 2X = 0, so every product trims to the zero polynomial
        (4, [2, 2], [2, 2], ()),
        # over Z/6, 2X * 3X = 0 and 2X * 2X + 3X * 3X = X^2
        (6, [2, 3], [3, 2], (0, 0, 1)),
    ],
)
def test_matmul_trims_vanishing_leading_products(modulus, row, column, square):
    ring = PolynomialRing(ModularRing(modulus))
    a = RingMatrix.from_rows(ring, [[[0, c] for c in row]])
    b = RingMatrix.from_rows(ring, [[[0, c]] for c in column])
    assert list((a @ b).payloads) == [()]
    assert list((a @ a.transpose()).payloads) == [square]
    assert list((a @ b).entries) == _product_by_definition(a, b)


def test_matmul_and_apply_reject_mixed_rings():
    a = RingMatrix.from_rows(Z4, [[1, 2], [3, 0]])
    with pytest.raises(MismatchedRings):
        a @ RingMatrix.identity(Z6, 2)
    with pytest.raises(MismatchedRings):
        a.apply((Z4.make(1), Z6.make(1)))
    with pytest.raises(ValueError):
        a.apply((Z4.make(1),))


# ---------------------------------------------------------------------------
# verification: tampering, shapes, mixed rings


def _tamper(matrix, i, j, value=None):
    entries = list(matrix.entries)
    k = i * matrix.cols + j
    entries[k] = value if value is not None else entries[k] + matrix.ring.one()
    return RingMatrix(matrix.ring, matrix.rows, matrix.cols, tuple(e.payload for e in entries))


def _replace(red, **changes):
    fields = dict(P=red.P, P_inv=red.P_inv, Q=red.Q, Q_inv=red.Q_inv, D=red.D)
    fields.update(changes)
    return DiagonalReduction(**fields)


def _tamper_cases():
    gf7x = PolynomialRing(PrimeField(7))
    x = gf7x.gen()
    return [
        RingMatrix.from_rows(Z, [[2, 4, 3], [4, 6, 1], [8, 5, 7]]),
        RingMatrix.from_rows(Z, [[6, 4, 0], [2, 8, 10]]),
        RingMatrix.from_rows(ModularRing(12), [[3, 4], [6, 9], [2, 5]]),
        RingMatrix.from_rows(Z6, [[2, 3], [4, 1]]),
        RingMatrix.from_rows(gf7x, [[x * x + gf7x.one(), x], [x, gf7x.make(3)]]),
    ]


def _rejected(a, red):
    """Whether verify_reduction and the payload check both reject red."""
    witness = (red.P, red.P_inv, red.Q, red.Q_inv, red.D)
    holds = _reduction_holds(a.ring, a.payloads, a.rows, a.cols, *(x.payloads for x in witness))
    return not verify_reduction(a, red) and not holds


@pytest.mark.parametrize(
    "a", _tamper_cases(), ids=["z3x3", "z2x3", "z12-3x2", "z6-2x2", "gf7x"]
)
def test_verify_detects_each_tampered_witness(a):
    red = reduce_matrix(a)
    assert verify_reduction(a, red)
    for name in ("P", "P_inv", "Q", "Q_inv"):
        matrix = getattr(red, name)
        for i, j in [(0, 0), (matrix.rows - 1, 0), (0, matrix.cols - 1)]:
            assert _rejected(a, _replace(red, **{name: _tamper(matrix, i, j)})), (name, i, j)
    off = _tamper(red.D, 0, 1, a.ring.one())
    assert _rejected(a, _replace(red, D=off))
    wrong_entry = _tamper(red.D, 0, 0)
    assert _rejected(a, _replace(red, D=wrong_entry))


@pytest.mark.parametrize("ring, m, n", [(Z6, 2, 2), (Z, 2, 3)], ids=["z6", "z"])
def test_each_part_of_the_payload_check_decides_alone(ring, m, n):
    # with A = D = 0, P A Q = D holds for any transforms, so only the pair
    # checks can reject a tampered P_inv or Q; a non-diagonal A with identity
    # transforms and D = A fails only the diagonality check
    eye_m = RingMatrix.identity(ring, m)
    eye_n = RingMatrix.identity(ring, n)
    zero = RingMatrix.zeros(ring, m, n)
    off = _tamper(zero, 0, 1)
    cases = [
        (zero, DiagonalReduction(eye_m, eye_m, eye_n, eye_n, zero), True),
        (zero, DiagonalReduction(eye_m, _tamper(eye_m, 0, 0), eye_n, eye_n, zero), False),
        (zero, DiagonalReduction(eye_m, eye_m, _tamper(eye_n, 1, 0), eye_n, zero), False),
        (off, DiagonalReduction(eye_m, eye_m, eye_n, eye_n, off), False),
    ]
    for a, red, holds in cases:
        witness = (red.P, red.P_inv, red.Q, red.Q_inv, red.D)
        assert _reduction_holds(ring, a.payloads, m, n, *(x.payloads for x in witness)) is holds
        assert verify_reduction(a, red) is holds


def test_verify_shape_mismatches_raise():
    a = RingMatrix.from_rows(Z, [[2, 4, 1], [4, 6, 5]])
    red = smith_normal_form(a)
    with pytest.raises(ValueError):
        verify_reduction(RingMatrix.zeros(Z, 3, 2), red)
    with pytest.raises(ValueError):
        verify_reduction(a, _replace(red, P=RingMatrix.identity(Z, 3)))
    with pytest.raises(ValueError):
        verify_reduction(a, _replace(red, Q=RingMatrix.identity(Z, 2)))
    with pytest.raises(ValueError):
        verify_reduction(a, _replace(red, D=RingMatrix.zeros(Z, 3, 3)))
    # an inverse whose rows do not match cannot be multiplied at all
    with pytest.raises(ValueError):
        verify_reduction(a, _replace(red, P_inv=RingMatrix.identity(Z, 3)))
    # one whose columns do not match multiplies to a non-identity shape
    assert not verify_reduction(a, _replace(red, Q_inv=RingMatrix.zeros(Z, 3, 2)))


def test_verify_mixed_rings():
    z12 = ModularRing(12)
    a = RingMatrix.from_rows(z12, [[3, 4], [6, 9]])
    red = diagonal_reduction(a)
    lifted = smith_normal_form(a.map_entries(Z, lambda e: Z.make(e.payload)))
    # a whole witness family over another ring is not a reduction of a
    assert not verify_reduction(a, lifted)
    assert not verify_reduction(a, _replace(red, P=lifted.P, P_inv=lifted.P_inv))
    assert not verify_reduction(a, _replace(red, Q=lifted.Q, Q_inv=lifted.Q_inv))
    assert not verify_reduction(a, _replace(red, D=lifted.D))
    # a transform and its inverse over different rings cannot be multiplied
    with pytest.raises(MismatchedRings):
        verify_reduction(a, _replace(red, P_inv=lifted.P_inv))
    with pytest.raises(MismatchedRings):
        verify_reduction(a, _replace(red, Q=lifted.Q))
    # the P pair is checked first: a foreign P pair already decides
    assert not verify_reduction(
        a, _replace(red, P=lifted.P, P_inv=lifted.P_inv, Q=lifted.Q)
    )
