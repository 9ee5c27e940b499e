"""Witnessed diagonal reduction of matrices over exact rings.

``smith_normal_form`` works over the Euclidean rings of the family (the
integers and polynomials over a prime field) and returns the diagonal form
together with explicit invertible transforms and their inverses, so every
reduction can be re-verified by plain matrix multiplication.
``diagonal_reduction`` handles modular rings by lifting to the integers,
reducing there, and mapping everything back; determinant-one transforms
stay invertible under the projection.  ``reduce_matrix`` dispatches between
the two by ring kind and serves every shape, 1x2 rows and 2x1 columns
included.

Diagonal entries are canonical associates (nonnegative integers, monic
polynomials, or the mod-n image of the lifted form), zeros sit at the end,
and each entry divides the next.

The elimination moves the smallest entry of the trailing block to the pivot
and clears its column by row operations, then its row by column operations,
in Euclidean rounds: each round reduces every other nonzero entry of the
line by its nearest multiple of the smallest one (least absolute remainder
over the integers, polynomial division over GF(p)), until one entry is left,
which is swapped to the pivot.  Reducing the whole line against its smallest
entry keeps the transforms near the size of D (about 1,000 bits for 16x16
integer inputs with entries up to 1000), where one Bezout step per entry
against the pivot row multiplies that row by the cofactors each time and
takes the same inputs past 16,000 bits.  The same rounds repair the
divisibility chain afterwards: where d_i does not divide d_{i+1}, column i+1
is added to column i and position i cleared again, which leaves
gcd(d_i, d_{i+1}) at (i, i).  Division with remainder is the one primitive.

A ``RingMatrix`` stores the canonical payloads of its entries, which its
constructor trusts as ``RingElement(ring, payload)`` does; literals and
elements go through ``from_rows``, ``diagonal`` or ``map_entries``.

One payload-level kernel, ``_reduce_payloads(ring, a, m, n)``, runs every
reduction: it eliminates over the ring (or over the integer lift of Z/n,
projecting mod n) and returns the row-major payload tuples of P, P_inv, Q,
Q_inv and D, verified once by ``_reduction_holds``, the one payload check
(D diagonal, both transform pairs multiply to the identity, P A Q = D).
``smith_normal_form`` and ``diagonal_reduction`` only wrap those tuples,
``verify_reduction`` is its shape and ring checks plus the same payload
check, and the small-shape sweep of ``ringlab verify`` calls the kernel on
bare payload tuples.  A wrapped reduction carries the matrix it was verified
against; ``reduction_to_document`` (the output of ``ringlab snf``/``reduce``)
reports that verify instead of repeating it, and verifies any other pair
itself.  Every matrix product runs through ``_matmul_payloads``, one ring
payload dot product (``Ring._dot``) per entry.

One helper, ``_regularity``, picks the route to regularity (some g with
f g f = f) by ring kind, for ``is_regular_matrix`` and the refinement check
of ``modules``: Z/n reduces f and builds g from the transforms, other finite
rings scan every candidate matrix (``_brute_regularity``).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import MismatchedRings, UnsupportedRing, check_search_budget
from .rings import (
    EuclideanOps,
    IntegerRing,
    ModularRing,
    Ring,
    RingElement,
    is_regular_element,
    parse_ring,
)


def _matmul_payloads(
    ring: Ring, a: Sequence[Any], b: Sequence[Any], m: int, k: int, n: int
) -> tuple[Any, ...]:
    """Row-major payload product of an m x k and a k x n matrix over ``ring``.

    Every matrix product in the package runs through this loop; each entry
    is one call of the ring's payload dot product, so no ``RingElement`` is
    built per step."""
    dot = ring._dot
    columns = [b[j::n] for j in range(n)]
    rows = [a[start : start + k] for start in range(0, m * k, k)]
    return tuple([dot(row, column) for row in rows for column in columns])


def _identity(zero: Any, one: Any, size: int) -> tuple[Any, ...]:
    """Row-major payloads of the size x size identity matrix."""
    return tuple([one if i == j else zero for i in range(size) for j in range(size)])


def _rows(flat: Sequence[Any], cols: int) -> list[list[Any]]:
    """Row-major payloads split into mutable rows of ``cols`` entries."""
    return [list(flat[i : i + cols]) for i in range(0, len(flat), cols)]


def _reduction_holds(
    ring: Ring,
    a: Sequence[Any],
    m: int,
    n: int,
    P: Sequence[Any],
    Pi: Sequence[Any],
    Q: Sequence[Any],
    Qi: Sequence[Any],
    D: Sequence[Any],
) -> bool:
    """The one payload check of a reduction of the m x n matrix ``a`` over
    ``ring``, all arguments row-major payload tuples of matching shapes: D is
    diagonal, P @ Pi and Q @ Qi are the identity, and P @ a @ Q == D."""
    zero, one = ring._zero(), ring._one()
    if any(D[k] != zero for k in range(m * n) if k // n != k % n):
        return False
    return (
        _matmul_payloads(ring, P, Pi, m, m, m) == _identity(zero, one, m)
        and _matmul_payloads(ring, Q, Qi, n, n, n) == _identity(zero, one, n)
        and _matmul_payloads(ring, _matmul_payloads(ring, P, a, m, m, n), Q, m, n, n)
        == D
    )


def _check_product(a: "RingMatrix", b: "RingMatrix") -> None:
    if a.ring != b.ring:
        raise MismatchedRings("matrix product across different rings")
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")


@dataclass(frozen=True)
class RingMatrix:
    """An immutable matrix over one ring: the canonical payloads of its
    entries, row-major.  Like ``RingElement(ring, payload)``, the constructor
    trusts them; literals and elements enter through ``from_rows``,
    ``diagonal`` or ``map_entries``, which reject an element of another ring.
    ``entries``, ``entry``, ``row_list`` and ``diagonal_entries`` wrap on demand."""

    ring: Ring
    rows: int
    cols: int
    payloads: tuple[Any, ...]

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.payloads) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.payloads)}"
            )

    @classmethod
    def from_rows(cls, ring: Ring, rows: Iterable[Iterable[Any]]) -> "RingMatrix":
        grid = [[ring.make(v).payload for v in row] for row in rows]
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("rows have inconsistent lengths")
        return cls(ring, len(grid), width, tuple(v for row in grid for v in row))

    @classmethod
    def identity(cls, ring: Ring, size: int) -> "RingMatrix":
        return cls(ring, size, size, _identity(ring._zero(), ring._one(), size))

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "RingMatrix":
        return cls(ring, rows, cols, (ring._zero(),) * (rows * cols))

    @classmethod
    def diagonal(
        cls, ring: Ring, diag: Iterable[Any], rows: int | None = None, cols: int | None = None
    ) -> "RingMatrix":
        diag = [ring.make(v).payload for v in diag]
        m = rows if rows is not None else len(diag)
        n = cols if cols is not None else len(diag)
        if len(diag) > min(m, n):
            raise ValueError("too many diagonal entries for the requested shape")
        zero = ring._zero()
        return cls(
            ring,
            m,
            n,
            tuple(
                diag[i] if i == j and i < len(diag) else zero
                for i in range(m)
                for j in range(n)
            ),
        )

    @property
    def entries(self) -> tuple[RingElement, ...]:
        """Row-major entries, wrapped as ring elements."""
        ring = self.ring
        return tuple(RingElement(ring, p) for p in self.payloads)

    def entry(self, i: int, j: int) -> RingElement:
        return RingElement(self.ring, self.payloads[i * self.cols + j])

    def row_list(self) -> list[list[RingElement]]:
        entries = self.entries
        return [list(entries[i : i + self.cols]) for i in range(0, len(entries), self.cols)]

    def transpose(self) -> "RingMatrix":
        payloads, rows, cols = self.payloads, self.rows, self.cols
        return RingMatrix(
            self.ring,
            cols,
            rows,
            tuple(payloads[i * cols + j] for j in range(cols) for i in range(rows)),
        )

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        _check_product(self, other)
        out = _matmul_payloads(
            self.ring, self.payloads, other.payloads, self.rows, self.cols, other.cols
        )
        return RingMatrix(self.ring, self.rows, other.cols, out)

    def map_entries(self, target: Ring, fn: Callable[[RingElement], RingElement]) -> "RingMatrix":
        payloads = tuple(target.make(fn(e)).payload for e in self.entries)
        return RingMatrix(target, self.rows, self.cols, payloads)

    def is_diagonal(self) -> bool:
        zero, cols = self.ring._zero(), self.cols
        return all(
            p == zero for k, p in enumerate(self.payloads) if k // cols != k % cols
        )

    def diagonal_entries(self) -> tuple[RingElement, ...]:
        return tuple(self.entry(i, i) for i in range(min(self.rows, self.cols)))

    def apply(self, vector: tuple[RingElement, ...]) -> tuple[RingElement, ...]:
        """Multiply this matrix by a column vector of ring elements."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        ring = self.ring
        for v in vector:
            ring._own(v)
        out = _matmul_payloads(
            ring, self.payloads, [v.payload for v in vector], self.rows, self.cols, 1
        )
        return tuple(RingElement(ring, p) for p in out)


@dataclass(frozen=True)
class DiagonalReduction:
    """Witnessed equivalence P @ A @ Q = D with stored inverses.

    A reduction the library built and verified carries the matrix A it was
    verified against (``_verified_for``, not part of equality or repr), so
    the verify is reported where the witness leaves the library instead of
    being repeated."""

    P: RingMatrix
    P_inv: RingMatrix
    Q: RingMatrix
    Q_inv: RingMatrix
    D: RingMatrix
    _verified_for: Optional[RingMatrix] = field(
        default=None, init=False, compare=False, repr=False
    )

    def diagonal(self) -> tuple[RingElement, ...]:
        return self.D.diagonal_entries()


def verify_reduction(A: RingMatrix, red: DiagonalReduction) -> bool:
    """Exact check: D diagonal, P @ A @ Q == D, and both transform pairs
    multiply to the identity.  Raises on shape mismatch, and on a transform
    whose stored inverse lies over a different ring; a witness over another
    ring than A's is not a reduction of A."""
    m, n = A.rows, A.cols
    if red.P.rows != m or red.P.cols != m or red.Q.rows != n or red.Q.cols != n:
        raise ValueError("transform shapes do not match the matrix")
    if red.D.rows != m or red.D.cols != n:
        raise ValueError("diagonal matrix shape does not match the input")
    ring = A.ring
    # the P pair decides before the Q pair is multiplied
    for x, y in ((red.P, red.P_inv), (red.Q, red.Q_inv)):
        _check_product(x, y)
        if x.ring != ring or y.cols != x.rows:
            return False
    if red.D.ring != ring:
        return False
    witness = (red.P, red.P_inv, red.Q, red.Q_inv, red.D)
    return _reduction_holds(ring, A.payloads, m, n, *(x.payloads for x in witness))


# ---------------------------------------------------------------------------
# the payload-level reduction engine


class _ReductionState:
    """Mutable matrix plus transform accumulators, all on raw payloads; the
    ring's payload functions, zero and one are bound once per reduction.
    ``row_addmul`` and ``col_addmul``, the elimination's hot operations,
    update their lines in place: on the short lines of small inputs that is
    about twice as fast as building new lists."""

    def __init__(self, ops: EuclideanOps, a: Sequence[Any], m: int, n: int) -> None:
        ring = ops.ring
        self.ops = ops
        self.add, self.mul, self.neg = ring._add, ring._mul, ring._neg
        zero, one = ring._zero(), ring._one()
        self.zero, self.one = zero, one
        self.M = _rows(a, n)
        self.m, self.n = m, n
        eye_m, eye_n = _identity(zero, one, m), _identity(zero, one, n)
        self.P, self.Pi = _rows(eye_m, m), _rows(eye_m, m)
        self.Q, self.Qi = _rows(eye_n, n), _rows(eye_n, n)

    # row operations: M <- L @ M, P <- L @ P, Pi <- Pi @ L^-1

    def row_swap(self, i: int, j: int) -> None:
        if i == j:
            return
        self.M[i], self.M[j] = self.M[j], self.M[i]
        self.P[i], self.P[j] = self.P[j], self.P[i]
        for row in self.Pi:
            row[i], row[j] = row[j], row[i]

    def row_addmul(self, i: int, j: int, c: Any) -> None:
        """row_i += c * row_j; inverse is subtraction on Pi columns."""
        if c == self.zero:
            return
        add, mul, minus_c = self.add, self.mul, self.neg(c)
        mi, mj = self.M[i], self.M[j]
        for t in range(self.n):
            mi[t] = add(mi[t], mul(c, mj[t]))
        pi, pj = self.P[i], self.P[j]
        for t in range(self.m):
            pi[t] = add(pi[t], mul(c, pj[t]))
        for row in self.Pi:
            row[j] = add(row[j], mul(minus_c, row[i]))

    def row_scale(self, i: int, u: Any, u_inv: Any) -> None:
        mul = self.mul
        self.M[i] = [mul(u, a) for a in self.M[i]]
        self.P[i] = [mul(u, a) for a in self.P[i]]
        for row in self.Pi:
            row[i] = mul(row[i], u_inv)

    # column operations: M <- M @ C, Q <- Q @ C, Qi <- C^-1 @ Qi

    def col_swap(self, i: int, j: int) -> None:
        if i == j:
            return
        for row in self.M:
            row[i], row[j] = row[j], row[i]
        for row in self.Q:
            row[i], row[j] = row[j], row[i]
        self.Qi[i], self.Qi[j] = self.Qi[j], self.Qi[i]

    def col_addmul(self, j: int, i: int, c: Any) -> None:
        """col_j += c * col_i; inverse subtracts on Qi rows."""
        if c == self.zero:
            return
        add, mul, minus_c = self.add, self.mul, self.neg(c)
        for row in self.M:
            row[j] = add(row[j], mul(c, row[i]))
        for row in self.Q:
            row[j] = add(row[j], mul(c, row[i]))
        qi, qj = self.Qi[i], self.Qi[j]
        for t in range(self.n):
            qi[t] = add(qi[t], mul(minus_c, qj[t]))


def _find_pivot(state: _ReductionState, k: int) -> Optional[tuple[int, int]]:
    """Smallest nonzero entry by Euclidean size in the trailing submatrix,
    ties broken row-major."""
    ops, zero = state.ops, state.zero
    best = None
    best_size = None
    for i in range(k, state.m):
        for j in range(k, state.n):
            x = state.M[i][j]
            if x == zero:
                continue
            size = ops.size(x)
            if best_size is None or size < best_size:
                best, best_size = (i, j), size
    return best


def _euclid_rounds(
    state: _ReductionState,
    k: int,
    line: Callable[[], list[Any]],
    addmul: Callable[[int, int, Any], None],
    swap: Callable[[int, int], None],
) -> None:
    """Euclidean rounds on one line through (k, k), whose entries k, k+1, ...
    ``line()`` lists, by ``addmul(target, source, c)`` and ``swap`` of the
    lines across it.  Each round reduces every other nonzero entry by its
    nearest multiple of the smallest one (lowest index on ties), so the
    smallest size falls strictly from round to round; the last nonzero entry
    is swapped to index k."""
    ops, zero, neg = state.ops, state.zero, state.neg
    size, nearest_divmod = ops.size, ops.nearest_divmod
    values = line()
    live = [(size(x), i) for i, x in enumerate(values) if x != zero]
    bound = math.inf
    while len(live) > 1:
        smallest, p = min(live)
        if smallest >= bound:
            raise AssertionError("no progress while clearing a pivot")
        bound, pivot = smallest, values[p]
        for _, i in live:
            if i != p:
                addmul(k + i, k + p, neg(nearest_divmod(values[i], pivot)[0]))
        values = line()
        live = [(size(x), i) for i, x in enumerate(values) if x != zero]
    swap(k, k + live[0][1])


def _clear_position(state: _ReductionState, k: int) -> None:
    """Make row k and column k zero outside the nonzero pivot at (k, k).

    Euclidean rounds clear column k by row operations, then row k by column
    operations; the second phase disturbs column k only when it moves a
    strictly smaller entry to the pivot, so the repeats end."""
    M, zero, at_k = state.M, state.zero, operator.itemgetter(k)

    def column() -> list[Any]:
        return list(map(at_k, M[k:]))

    def row() -> list[Any]:
        return M[k][k:]

    # each line starts at the nonzero pivot: clear when that is all it holds
    while column().count(zero) < state.m - k - 1 or row().count(zero) < state.n - k - 1:
        _euclid_rounds(state, k, column, state.row_addmul, state.row_swap)
        _euclid_rounds(state, k, row, state.col_addmul, state.col_swap)


def _enforce_divisibility(state: _ReductionState) -> None:
    """Repair the chain d_i | d_{i+1} between adjacent diagonal entries: fold
    column i+1 into column i and clear position i again by Euclidean rounds,
    which leaves gcd(d_i, d_{i+1}) at (i, i).  Both entries are nonzero and
    the moves are unimodular over a domain, so neither new entry is zero and
    the zeros that the pivot loop left at the end stay there."""
    ops, zero = state.ops, state.zero
    r = min(state.m, state.n)
    for _ in range(r * r + 1):
        changed = False
        for i in range(r - 1):
            a, b = state.M[i][i], state.M[i + 1][i + 1]
            if b == zero or ops.quotient(b, a) is not None:
                continue
            state.col_addmul(i, i + 1, state.one)
            _clear_position(state, i)
            changed = True
        if not changed:
            return
    raise AssertionError("divisibility chain failed to stabilize")


def _canonicalize_diagonal(state: _ReductionState) -> None:
    ops = state.ops
    for i in range(min(state.m, state.n)):
        x = state.M[i][i]
        if x == state.zero:
            continue
        u, u_inv = ops.canonical_unit(x)
        if u != state.one:
            state.row_scale(i, u, u_inv)


def _smith_core(ring: Ring, a: Sequence[Any], m: int, n: int) -> _ReductionState:
    """The elimination over the Euclidean ``ring`` on the row-major payloads
    of an m x n matrix.  Nothing here is verified: the kernel verifies the
    one reduction it returns."""
    state = _ReductionState(EuclideanOps(ring), a, m, n)
    for k in range(min(state.m, state.n)):
        pivot = _find_pivot(state, k)
        if pivot is None:
            break
        state.row_swap(k, pivot[0])
        state.col_swap(k, pivot[1])
        _clear_position(state, k)
    _enforce_divisibility(state)
    _canonicalize_diagonal(state)
    return state


def _reduce_payloads(
    ring: Ring, a: Sequence[Any], m: int, n: int
) -> tuple[tuple[Any, ...], ...]:
    """The reduction kernel: the row-major payload tuples (P, P_inv, Q, Q_inv,
    D) of a reduction of the m x n matrix with payloads ``a`` over ``ring``,
    verified once.  A modular ring is reduced over the integer lift of its
    payloads and the whole witness family projected mod n (determinant-one
    transforms stay invertible); any other ring must be Euclidean.  The
    check raises explicitly, so it also runs under ``python -O``."""
    if isinstance(ring, ModularRing):
        modulus = ring.modulus
        state = _smith_core(IntegerRing(), a, m, n)
        flat = lambda grid: tuple([x % modulus for row in grid for x in row])
    else:
        state = _smith_core(ring, a, m, n)
        flat = lambda grid: tuple(itertools.chain.from_iterable(grid))
    P, Pi, Q, Qi, D = map(flat, (state.P, state.Pi, state.Q, state.Qi, state.M))
    if not _reduction_holds(ring, a, m, n, P, Pi, Q, Qi, D):
        raise AssertionError("reduction verification failed; this is a bug")
    return P, Pi, Q, Qi, D


def _wrapped_reduction(A: RingMatrix) -> DiagonalReduction:
    """The kernel's reduction of A as matrices, marked as verified for A."""
    ring, m, n = A.ring, A.rows, A.cols
    P, Pi, Q, Qi, D = _reduce_payloads(ring, A.payloads, m, n)
    red = DiagonalReduction(
        P=RingMatrix(ring, m, m, P),
        P_inv=RingMatrix(ring, m, m, Pi),
        Q=RingMatrix(ring, n, n, Q),
        Q_inv=RingMatrix(ring, n, n, Qi),
        D=RingMatrix(ring, m, n, D),
    )
    object.__setattr__(red, "_verified_for", A)
    return red


def smith_normal_form(A: RingMatrix) -> DiagonalReduction:
    """Witnessed diagonal form over the integers or polynomials over a prime
    field: canonical diagonal entries, zeros last, each entry dividing the
    next.  The returned witnesses are verified before returning."""
    if isinstance(A.ring, ModularRing):
        EuclideanOps(A.ring)  # raises UnsupportedRing: Z/n is not Euclidean here
    return _wrapped_reduction(A)


def diagonal_reduction(A: RingMatrix) -> DiagonalReduction:
    """Witnessed diagonal form over a modular ring (prime fields included),
    computed by lifting the canonical representatives to the integers, reducing
    there, and projecting the whole witness family mod n."""
    ring = A.ring
    if not isinstance(ring, ModularRing):
        raise UnsupportedRing(
            f"diagonal_reduction expects a modular ring, got {ring.descriptor()}"
        )
    return _wrapped_reduction(A)


def reduce_matrix(A: RingMatrix) -> DiagonalReduction:
    """Dispatch to the Euclidean or modular reduction by ring kind."""
    if isinstance(A.ring, ModularRing):
        return diagonal_reduction(A)
    return smith_normal_form(A)


def is_total_divisor(a: RingElement, b: RingElement) -> bool:
    """Whether b lies in the ideal generated by a (in a commutative ring).

    Decided by ``b % gcd(a, n) == 0`` over Z/n, by exact division over the
    Euclidean rings, and by exhaustive search over other finite rings."""
    ring = a.ring
    ring._own(b)
    if isinstance(ring, ModularRing):
        return b.payload % math.gcd(a.payload, ring.modulus) == 0
    try:
        ops = EuclideanOps(ring)
    except UnsupportedRing:
        if ring.is_finite():
            return any(a * r == b for r in ring.elements())
        raise UnsupportedRing(
            f"divisibility is undecidable here over {ring.descriptor()}"
        ) from None
    return ops.quotient(b.payload, a.payload) is not None


def elementary_divisor_chain_check(red: DiagonalReduction) -> bool:
    """Whether successive diagonal entries divide each other."""
    diag = red.diagonal()
    return all(is_total_divisor(diag[i], diag[i + 1]) for i in range(len(diag) - 1))


def _brute_regularity(f: RingMatrix) -> Optional[RingMatrix]:
    """The first g in enumeration order with f @ g @ f == f over a finite
    ring, or None: a scan of all |R|^(mn) candidate matrices."""
    ring = f.ring
    if not ring.is_finite():
        raise UnsupportedRing("brute-force regularity needs a finite ring")
    elements = ring.elements()
    slots = f.rows * f.cols
    check_search_budget(len(elements) ** slots, "candidate matrices")
    m, n = f.rows, f.cols
    fp = f.payloads
    for combo in itertools.product([e.payload for e in elements], repeat=slots):
        fg = _matmul_payloads(ring, fp, combo, m, n, m)
        if _matmul_payloads(ring, fg, fp, m, m, n) == fp:
            return RingMatrix(ring, n, m, combo)
    return None


def _regularity(
    f: RingMatrix,
) -> tuple[Optional[RingMatrix], Optional[tuple[RingElement, ...]]]:
    """A g with f @ g @ f == f (None when f is not regular) and a diagonal
    form of f (None when none is known: off Z/n, f's own if it is diagonal),
    by the route that the ring's kind picks."""
    if not isinstance(f.ring, ModularRing):
        return _brute_regularity(f), f.diagonal_entries() if f.is_diagonal() else None
    red = diagonal_reduction(f)
    diag = red.diagonal()
    witnesses = []
    for d in diag:
        ok, w = is_regular_element(d)
        if not ok:
            return None, diag
        witnesses.append(w)
    # G is the transposed-shape diagonal of the entry witnesses
    G = RingMatrix.diagonal(f.ring, witnesses, rows=f.cols, cols=f.rows)
    g = red.Q @ G @ red.P
    if f @ g @ f != f:
        raise AssertionError("structural regularity witness failed; this is a bug")
    return g, diag


def is_regular_matrix(f: RingMatrix) -> tuple[bool, Optional[RingMatrix]]:
    """Whether some g satisfies f @ g @ f == f, with a verified witness.

    One helper picks the route by ring kind: over Z/n, f is reduced and each
    diagonal entry tested for regularity, the witness assembled from the
    transforms; other finite rings are scanned in enumeration order."""
    g, _ = _regularity(f)
    return g is not None, g


# ---------------------------------------------------------------------------
# interchange format


def matrix_to_document(A: RingMatrix) -> dict:
    """JSON-ready document: ring descriptor, shape, row-major entry literals."""
    return {
        "ring": A.ring.descriptor(),
        "rows": A.rows,
        "cols": A.cols,
        "entries": [A.ring._payload_literal(p) for p in A.payloads],
    }


def matrix_from_document(doc: dict) -> RingMatrix:
    """Parse the interchange format produced by :func:`matrix_to_document`.

    ``entries`` may be the flat row-major list the writer emits or a list of
    ``rows`` rows with ``cols`` literals each.
    """
    if not isinstance(doc, dict):
        raise ValueError("matrix document must be a JSON object")
    for key in ("ring", "rows", "cols", "entries"):
        if key not in doc:
            raise ValueError(f"matrix document is missing {key!r}")
    if not isinstance(doc["ring"], str):
        raise ValueError("ring must be a descriptor string")
    ring = parse_ring(doc["ring"])
    rows, cols = doc["rows"], doc["cols"]
    if any(not isinstance(v, int) or isinstance(v, bool) for v in (rows, cols)):
        raise ValueError("rows and cols must be integers")
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise ValueError("entries must be a list")
    nested = len(entries) == rows and all(
        isinstance(r, list) and len(r) == cols for r in entries
    )
    if nested and len(entries) != rows * cols:
        entries = [e for row in entries for e in row]
    elif nested:
        # one-column shapes fit both layouts; prefer flat, fall back
        try:
            return RingMatrix(ring, rows, cols, tuple(ring.make(e).payload for e in entries))
        except (ValueError, TypeError):
            entries = [e for row in entries for e in row]
    if len(entries) != rows * cols:
        raise ValueError("entry list does not match the declared shape")
    return RingMatrix(ring, rows, cols, tuple(ring.make(e).payload for e in entries))


def reduction_to_document(
    A: RingMatrix, red: DiagonalReduction, include_witness: bool
) -> dict:
    """JSON-ready document of a reduction of A.  ``verified`` reports the
    verify the library made when it built ``red`` from this same A, and
    checks any other pair afresh."""
    doc = matrix_to_document(red.D)
    doc["diagonal"] = [e.literal() for e in red.diagonal()]
    doc["divisibility_chain"] = elementary_divisor_chain_check(red)
    if include_witness:
        doc["witness"] = {
            "P": matrix_to_document(red.P),
            "P_inv": matrix_to_document(red.P_inv),
            "Q": matrix_to_document(red.Q),
            "Q_inv": matrix_to_document(red.Q_inv),
        }
    doc["verified"] = red._verified_for is A or verify_reduction(A, red)
    return doc
