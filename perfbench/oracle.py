"""Independent checks of ringlab's outputs.

Nothing here imports ringlab.  Matrices are lists of rows; integer entries
are Python ints, and polynomials over GF(p) are coefficient lists, constant
term first, with no trailing zeros (the zero polynomial is ``[]``).  Each
check returns ``None`` when the output is right and a one-line reason when
it is wrong.
"""

from __future__ import annotations

import random
from typing import Optional

POLY_PRIME = 7


class IntArith:
    """Arithmetic of the integers."""

    zero = 0

    def norm(self, x: int) -> int:
        return x

    def sample(self, rng: random.Random) -> int:
        return rng.getrandbits(64)

    def matmul(self, a: list[list], b: list[list]) -> list[list]:
        cols = list(zip(*b))
        return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


class GFPolyArith:
    """Arithmetic of GF(p)[x] on coefficient lists."""

    zero: list = []

    def __init__(self, p: int) -> None:
        self.p = p

    def norm(self, x: list) -> list:
        out = [c % self.p for c in x]
        while out and out[-1] == 0:
            out.pop()
        return out

    def sample(self, rng: random.Random) -> list:
        return self.norm([rng.randrange(self.p) for _ in range(24)])

    def matmul(self, a: list[list], b: list[list]) -> list[list]:
        """Product by Kronecker substitution: each polynomial becomes one
        integer with ``width`` bits per coefficient, wide enough that no
        coefficient of a sum of products overflows into the next."""
        longest = max(len(x) for m in (a, b) for row in m for x in row) or 1
        width = (len(b) * longest * (self.p - 1) ** 2).bit_length() + 1
        mask = (1 << width) - 1

        def pack(x: list) -> int:
            return sum(c << (width * i) for i, c in enumerate(x))

        def unpack(v: int) -> list:
            out = []
            while v:
                out.append(v & mask)
                v >>= width
            return self.norm(out)

        cols = [[pack(x) for x in col] for col in zip(*b)]
        return [
            [unpack(sum(x * y for x, y in zip(packed, col))) for col in cols]
            for packed in ([pack(x) for x in row] for row in a)
        ]


def grid(entries: list, rows: int, cols: int) -> list[list]:
    """Row-major flat entries to a list of rows."""
    return [list(entries[i * cols : (i + 1) * cols]) for i in range(rows)]


def equivalence_failure(arith, rng: random.Random, A, P, P_inv, Q, Q_inv, D) -> Optional[str]:
    """Check that D is diagonal, and P A Q = D, P P_inv = I and Q Q_inv = I
    by Freivalds' test: both sides times random columns, twice.  A wrong
    product passes one column with probability at most 1/|sample space|,
    which is 2**-64 for integers and 7**-24 for GF(7)[x]."""
    m, n = len(A), len(A[0])
    if any(D[i][j] != arith.zero for i in range(m) for j in range(n) if i != j):
        return "D is not diagonal"
    mul = arith.matmul
    for _ in range(2):
        r = [[arith.sample(rng)] for _ in range(n)]
        s = [[arith.sample(rng)] for _ in range(m)]
        if mul(P, mul(P_inv, s)) != s:
            return "P @ P_inv != I"
        if mul(Q, mul(Q_inv, r)) != r:
            return "Q @ Q_inv != I"
        if mul(P, mul(A, mul(Q, r))) != mul(D, r):
            return "P @ A @ Q != D"
    return None


# ---------------------------------------------------------------------------
# snf-euclid: the witness document of `ringlab snf --emit-witness`


def snf_document_failure(arith, rng: random.Random, A: list[list], doc: dict) -> Optional[str]:
    """Check a reduction document against the input matrix A."""
    if doc.get("verified") is not True or doc.get("divisibility_chain") is not True:
        return "document does not claim a verified, chained reduction"
    m, n = len(A), len(A[0])
    if (doc["rows"], doc["cols"]) != (m, n):
        return "D has the wrong shape"
    D = grid([arith.norm(e) for e in doc["entries"]], m, n)
    diagonal = [arith.norm(e) for e in doc["diagonal"]]
    if diagonal != [D[i][i] for i in range(min(m, n))]:
        return "diagonal list differs from the diagonal of D"
    w = doc["witness"]
    P, P_inv, Q, Q_inv = (
        grid([arith.norm(e) for e in w[k]["entries"]], w[k]["rows"], w[k]["cols"])
        for k in ("P", "P_inv", "Q", "Q_inv")
    )
    if (len(P), len(P[0]), len(Q), len(Q[0])) != (m, m, n, n):
        return "transforms have the wrong shape"
    return equivalence_failure(arith, rng, A, P, P_inv, Q, Q_inv, D)


def witness_size(doc: dict) -> tuple[int, int]:
    """(largest bit length, largest degree) over the entries of P, P_inv, Q
    and Q_inv.  Integer entries give bits and degree 0; polynomial entries
    give degree and bits 0."""
    bits = degree = 0
    for key in ("P", "P_inv", "Q", "Q_inv"):
        for e in doc["witness"][key]["entries"]:
            if isinstance(e, list):
                degree = max(degree, len(e) - 1)
            else:
                bits = max(bits, abs(e).bit_length())
    return bits, degree


def longest_integer_digits(doc: dict) -> int:
    """Decimal digits of the largest integer entry of D and of the witness
    in a reduction document (0 when every entry is a polynomial)."""
    entries = list(doc["entries"])
    for key in ("P", "P_inv", "Q", "Q_inv"):
        entries += doc["witness"][key]["entries"]
    largest = max((abs(e) for e in entries if not isinstance(e, list)), default=0)
    return len(str(largest))


def invariant_factors(kind: str, A: list[list]) -> list:
    """Invariant factors of A from sympy, normalised to ringlab's canonical
    associates: nonnegative integers, monic polynomials over GF(7)."""
    from sympy import GF, ZZ, symbols
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors as sympy_if

    m, n = len(A), len(A[0])
    if kind == "int":
        dm = DomainMatrix([[ZZ(x) for x in row] for row in A], (m, n), ZZ)
        return [abs(int(f)) for f in sympy_if(dm)]
    domain = GF(POLY_PRIME)[symbols("x")]
    ring = domain.ring
    dm = DomainMatrix(
        [[ring.from_list(list(reversed(x))) for x in row] for row in A], (m, n), domain
    )
    out = []
    for f in sympy_if(dm):
        if not f:
            out.append([])
            continue
        coeffs = [int(c) % POLY_PRIME for c in f.monic().to_dense()]
        out.append(list(reversed(coeffs)))
    return out


# ---------------------------------------------------------------------------
# cli-suite


def cli_failure(golden: dict, exit_code: int, stdout: str) -> Optional[str]:
    if exit_code != golden["exit"]:
        return f"exit code {exit_code} != golden {golden['exit']}"
    if stdout.encode() != golden["stdout"].encode():
        return "stdout differs from the golden"
    return None

