"""Computable commutative rings with canonical element payloads.

Every ring canonicalizes element payloads on construction, so two elements
are equal exactly when their payloads are identical.  Payload conventions:

* integers: a Python int
* modular integers and prime fields: an int in ``[0, n)``
* univariate polynomials: a tuple of base payloads with no trailing zeros
  (the zero polynomial is the empty tuple)
* bivariate polynomials: a sorted tuple of ``((i, j), coeff)`` pairs with
  nonzero coefficients
* products: a tuple of component payloads
* trivial extensions: a pair ``(r, m)`` of base payloads, multiplying as
  ``(r1*r2, r1*m2 + m1*r2)``

Each ring also has a payload dot product, ``_dot(xs, ys)``: the sum of
``x*y`` over the pairs, which every matrix product in the package runs
through.  The base class adds the payload products one by one; the integers
and Z/n sum plain int products (reducing once); polynomials over Z/n (prime
fields included) use Kronecker substitution.  Each coefficient tuple becomes
one int with a slot of ``(count * (n - 1)**2).bit_length()`` bits per
coefficient, where ``count`` bounds the products that meet in one
coefficient, so no slot overflows into the next; the packed products are
summed, and the sum is unpacked once, each coefficient reduced mod n and the
result trimmed.  ``_mul`` is the one-pair case, with the same packing.

The batch kernel ``_scaler(ys)`` returns ``f(x=None, z=None)``, which gives
``[z + x*y for y in ys]`` (with x left out, the translate ``[z + y for y in
ys]``) as keys, for the searches that multiply many payloads by the same ys
and only hash and compare the results.  ``_key(payload)`` gives a payload's
key, one key type per ring.  The base class loops over the pairs and keys
by payload.  Polynomials over Z/n with n <= 16 key by the ``bytes`` of the
coefficients (also accepted as operands) and pack the ys once per run size:
every y gets its own run of one-byte slots in one int, so one big-int
product by x (plus z packed into every run) gives all the results,
``bytes.translate`` reduces every slot mod n, and the runs are cut apart
and trimmed with ``rstrip``.  That holds while no coefficient of ``x*y +
z`` can pass 255, that is while ``min(len(x), longest y) * (n-1)**2 +
(n-1) <= 255`` (always for a translate, the product by one); past it f
falls back to the loop, turning its results into the same keys.

``EuclideanOps`` is the one Euclidean interface, for the integers and
polynomials over a prime field.  It binds four ring-specific payload
functions once: ``size`` (``abs`` or ``len``), ``divmod`` (the builtin, or
long division over GF(p), ``PolynomialRing._divmod``), ``nearest_divmod``
(the same with the smallest remainder) and ``canonical_unit`` (the unit
making an element nonnegative or monic, with its inverse).  One
extended-gcd loop, ``egcd``, serves ``bezout_gcd`` over both rings, and over
Z/n through the integer lifts, scaled by a unit so that d = gcd(a, b, n).

Finite rings expose a fixed enumeration order; every exhaustive search in
the package walks that order, which is what makes witnesses deterministic.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    MismatchedRings,
    UnsupportedRing,
    check_element_budget,
    check_search_budget,
)


# ---------------------------------------------------------------------------
# elements and the ring base class


@dataclass(frozen=True)
class RingElement:
    """An element of a concrete ring; the payload is canonical and hashable."""

    ring: "Ring"
    payload: Any

    def __add__(self, other: "RingElement") -> "RingElement":
        return self.ring.add(self, other)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self.ring.sub(self, other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        return self.ring.mul(self, other)

    def __neg__(self) -> "RingElement":
        return self.ring.neg(self)

    def __pow__(self, exponent: int) -> "RingElement":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = self.ring.one()
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_zero(self) -> bool:
        return self.payload == self.ring._zero()

    def literal(self) -> Any:
        """JSON-ready literal form of this element."""
        return self.ring._payload_literal(self.payload)

    def __repr__(self) -> str:
        return f"<{json.dumps(self.literal())} in {self.ring.descriptor()}>"


class Ring:
    """Base class: commutative ring with canonical payload arithmetic."""

    _descriptor: str

    # -- payload layer, provided by subclasses ------------------------------

    def _canon(self, raw: Any) -> Any:
        raise NotImplementedError

    def _add(self, x: Any, y: Any) -> Any:
        raise NotImplementedError

    def _neg(self, x: Any) -> Any:
        raise NotImplementedError

    def _mul(self, x: Any, y: Any) -> Any:
        raise NotImplementedError

    def _zero(self) -> Any:
        raise NotImplementedError

    def _one(self) -> Any:
        raise NotImplementedError

    def _dot(self, xs: Iterable[Any], ys: Iterable[Any]) -> Any:
        """Sum of x*y over the payload pairs of xs and ys (zero when empty)."""
        add, mul = self._add, self._mul
        acc = self._zero()
        for x, y in zip(xs, ys):
            acc = add(acc, mul(x, y))
        return acc

    def _key(self, x: Any) -> Any:
        """The hashable key ``_scaler`` gives for the payload ``x``."""
        return x

    def _scaler(self, ys: Sequence[Any]) -> Callable[..., list]:
        """``f(x=None, z=None) -> [z + x*y for y in ys]`` as keys (z zero when
        None; x None for the translate ``[z + y for y in ys]``), for many x
        or z against the same ys."""
        add, mul = self._add, self._mul

        def scale(x: Any = None, z: Any = None) -> list:
            if x is None:
                return [add(z, y) for y in ys]
            if z is None:
                return [mul(x, y) for y in ys]
            return [add(z, mul(x, y)) for y in ys]

        return scale

    def _payload_literal(self, x: Any) -> Any:
        return x

    def _payloads(self) -> Iterator[Any]:
        raise UnsupportedRing(f"{self.descriptor()} is not enumerable")

    # -- identity ------------------------------------------------------------

    def descriptor(self) -> str:
        return self._descriptor

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ring) and self._descriptor == other._descriptor

    def __hash__(self) -> int:
        return hash(self._descriptor)

    def __repr__(self) -> str:
        return self._descriptor

    # -- element layer -------------------------------------------------------

    def make(self, raw: Any) -> RingElement:
        if isinstance(raw, RingElement):
            if raw.ring != self:
                raise MismatchedRings(f"{raw!r} does not belong to {self.descriptor()}")
            return raw
        return RingElement(self, self._canon(raw))

    def zero(self) -> RingElement:
        return RingElement(self, self._zero())

    def one(self) -> RingElement:
        return RingElement(self, self._one())

    def _own(self, a: RingElement) -> None:
        if a.ring is not self and a.ring != self:
            raise MismatchedRings(
                f"element of {a.ring.descriptor()} used in {self.descriptor()}"
            )

    def add(self, a: RingElement, b: RingElement) -> RingElement:
        self._own(a)
        self._own(b)
        return RingElement(self, self._add(a.payload, b.payload))

    def sub(self, a: RingElement, b: RingElement) -> RingElement:
        self._own(a)
        self._own(b)
        return RingElement(self, self._add(a.payload, self._neg(b.payload)))

    def neg(self, a: RingElement) -> RingElement:
        self._own(a)
        return RingElement(self, self._neg(a.payload))

    def mul(self, a: RingElement, b: RingElement) -> RingElement:
        self._own(a)
        self._own(b)
        return RingElement(self, self._mul(a.payload, b.payload))

    # -- finiteness ----------------------------------------------------------

    @property
    def is_field(self) -> bool:
        return False

    def is_finite(self) -> bool:
        return False

    def cardinality(self) -> int:
        raise UnsupportedRing(f"{self.descriptor()} is not finite")

    def elements(self) -> tuple[RingElement, ...]:
        """All elements in the ring's fixed enumeration order."""
        if not self.is_finite():
            raise UnsupportedRing(f"{self.descriptor()} is not finite")
        cached = getattr(self, "_elements_cache", None)
        if cached is None:
            check_element_budget(self.cardinality(), f"elements of {self.descriptor()}")
            cached = tuple(RingElement(self, p) for p in self._payloads())
            self._elements_cache = cached
        return cached

    # -- units ----------------------------------------------------------------

    def try_inverse(self, a: RingElement) -> Optional[RingElement]:
        """Multiplicative inverse of ``a``, or None when ``a`` is not a unit."""
        self._own(a)
        if self.is_finite():
            x, mul, one = a.payload, self._mul, self._one()
            return next((b for b in self.elements() if mul(x, b.payload) == one), None)
        raise UnsupportedRing(f"unit testing is not supported over {self.descriptor()}")


# ---------------------------------------------------------------------------
# concrete rings


def _check_int(raw: Any) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValueError(f"expected an integer literal, got {raw!r}")
    return raw


class IntegerRing(Ring):
    """The ring of integers."""

    def __init__(self) -> None:
        self._descriptor = "integers"

    def _canon(self, raw: Any) -> int:
        return _check_int(raw)

    # the builtins themselves: no Python frame per payload operation
    _add = staticmethod(operator.add)
    _neg = staticmethod(operator.neg)
    _mul = staticmethod(operator.mul)

    def _dot(self, xs: Iterable[int], ys: Iterable[int]) -> int:
        return sum(map(operator.mul, xs, ys))

    def _zero(self) -> int:
        return 0

    def _one(self) -> int:
        return 1

    def try_inverse(self, a: RingElement) -> Optional[RingElement]:
        self._own(a)
        if a.payload in (1, -1):
            return a
        return None


class ModularRing(Ring):
    """Integers modulo n, with payloads in ``[0, n)``."""

    def __init__(self, modulus: int) -> None:
        modulus = _check_int(modulus)
        if modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {modulus}")
        self.modulus = modulus
        self._descriptor = f"modular({modulus})"

    def _canon(self, raw: Any) -> int:
        return _check_int(raw) % self.modulus

    def _add(self, x: int, y: int) -> int:
        return (x + y) % self.modulus

    def _neg(self, x: int) -> int:
        return (-x) % self.modulus

    def _mul(self, x: int, y: int) -> int:
        return (x * y) % self.modulus

    def _dot(self, xs: Iterable[int], ys: Iterable[int]) -> int:
        return sum(map(operator.mul, xs, ys)) % self.modulus

    def _zero(self) -> int:
        return 0

    def _one(self) -> int:
        return 1 % self.modulus

    def is_finite(self) -> bool:
        return True

    def cardinality(self) -> int:
        return self.modulus

    def _payloads(self) -> Iterator[int]:
        return iter(range(self.modulus))

    def try_inverse(self, a: RingElement) -> Optional[RingElement]:
        self._own(a)
        try:
            return RingElement(self, pow(a.payload, -1, self.modulus))
        except ValueError:
            return None


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    check_search_budget((math.isqrt(n) - 1) // 2, "trial divisors")
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField(ModularRing):
    """The field with p elements, p prime (checked)."""

    def __init__(self, p: int) -> None:
        super().__init__(p)
        if not _is_prime(p):
            raise ValueError(f"gf({p}) requires a prime, got {p}")
        self._descriptor = f"gf({p})"

    @property
    def is_field(self) -> bool:
        return True


class PolynomialRing(Ring):
    """Univariate polynomials over a base ring.

    Payloads are coefficient tuples, constant term first, with no trailing
    zeros.  The optional degree bound is carried for bounded searches only;
    arithmetic itself is unbounded.
    """

    def __init__(self, base: Ring, bound: int | None = None) -> None:
        if bound is not None:
            bound = _check_int(bound)
            if bound <= 0:
                raise ValueError(f"degree bound must be positive, got {bound}")
        self.base = base
        self.bound = bound
        # coefficients are plain ints mod n here, so products pack (see _dot)
        self._modulus = base.modulus if isinstance(base, ModularRing) else None
        # every coefficient fits a byte, and x*y + z can pack (see _scaler)
        self._packs = self._modulus is not None and self._modulus <= 16
        if bound is None:
            self._descriptor = f"poly({base.descriptor()})"
        else:
            self._descriptor = f"poly({base.descriptor()}, bound={bound})"

    def _trim(self, coeffs: list[Any]) -> tuple[Any, ...]:
        zero = self.base._zero()
        while coeffs and coeffs[-1] == zero:
            coeffs.pop()
        return tuple(coeffs)

    def _canon(self, raw: Any) -> tuple[Any, ...]:
        if isinstance(raw, (list, tuple)):
            items = list(raw)
        else:
            items = [raw]
        return self._trim([self.base._canon(c) for c in items])

    def _add(self, x: tuple, y: tuple) -> tuple:
        if len(x) < len(y):
            x, y = y, x
        add = self.base._add
        merged = list(x)
        for i, c in enumerate(y):
            merged[i] = add(merged[i], c)
        return self._trim(merged)

    def _neg(self, x: tuple) -> tuple:
        return tuple(self.base._neg(c) for c in x)

    def _mul(self, x: tuple, y: tuple) -> tuple:
        if not x or not y:
            return ()
        n = self._modulus
        if n is not None:
            # the one-pair case of _dot
            width = (min(len(x), len(y)) * (n - 1) ** 2).bit_length()
            return _unpack(_pack(x, width) * _pack(y, width), width, n)
        base = self.base
        add, mul, zero = base._add, base._mul, base._zero()
        out = [zero] * (len(x) + len(y) - 1)
        for i, a in enumerate(x):
            if a == zero:
                continue
            for j, b in enumerate(y, i):
                out[j] = add(out[j], mul(a, b))
        return self._trim(out)

    def _dot(self, xs: Iterable[tuple], ys: Iterable[tuple]) -> tuple:
        n = self._modulus
        if n is None:
            return super()._dot(xs, ys)
        pairs = [(x, y) for x, y in zip(xs, ys) if x and y]
        # no coefficient of the sum adds up more than `count` products
        count = sum(min(len(x), len(y)) for x, y in pairs)
        width = (count * (n - 1) ** 2).bit_length()
        return _unpack(sum(_pack(x, width) * _pack(y, width) for x, y in pairs), width, n)

    def _key(self, x: tuple) -> Any:
        # a packing ring's keys are the coefficient bytes (see _scaler)
        return bytes(x) if self._packs else x

    def _scaler(self, ys: Sequence[tuple]) -> Callable[..., list]:
        n = self._modulus
        loop = super()._scaler(ys)
        if not self._packs:
            return loop
        longest = max(map(len, ys), default=0)
        packed: dict = {}  # run size -> the ys packed in runs of that size
        square, table = (n - 1) ** 2, _residue_table(n)

        def scale(x: tuple | None = None, z: tuple | None = None) -> list:
            if x is None:
                x = b"\1"  # a translate is the product by one: it always packs
            elif min(len(x), longest) * square + n - 1 > 255:
                return [bytes(p) for p in loop(x, z)]
            # one byte per coefficient, a run of `size` bytes per y: no slot
            # of x*y + z passes 255, so the runs come apart without carries
            tail = bytes(z or ())
            size = max(len(x) + longest - 1, len(tail), 1)
            if size not in packed:
                runs = b"".join([bytes(y).ljust(size, b"\0") for y in ys])
                packed[size] = int.from_bytes(runs, "little")
            shift = int.from_bytes(tail.ljust(size, b"\0") * len(ys), "little")
            total = packed[size] * int.from_bytes(bytes(x), "little") + shift
            out = total.to_bytes(size * len(ys), "little").translate(table)
            return [out[i:i + size].rstrip(b"\0") for i in range(0, len(out), size)]

        return scale

    def _zero(self) -> tuple:
        return ()

    def _one(self) -> tuple:
        one = self.base._one()
        if one == self.base._zero():
            return ()
        return (one,)

    # division over a prime-field base only (see EuclideanOps)

    def _divmod(self, x: tuple, y: tuple) -> tuple[tuple, tuple]:
        """Long division: (q, r) with x == q*y + r and r shorter than y."""
        if not y:
            raise ZeroDivisionError("division by zero")
        p = self._modulus
        rem = list(x)
        lead_inv = pow(y[-1], -1, p)
        dy = len(y) - 1
        quot = [0] * max(len(x) - dy, 0)
        while len(rem) > dy:
            shift = len(rem) - 1 - dy
            factor = (rem[-1] * lead_inv) % p
            quot[shift] = factor
            for i, c in enumerate(y):
                rem[shift + i] = (rem[shift + i] - factor * c) % p
            while rem and rem[-1] == 0:
                rem.pop()
        return self._trim(quot), tuple(rem)

    def _monic_unit(self, x: tuple) -> tuple[tuple, tuple]:
        """The unit u with u*x monic, and its inverse; (1, 1) for zero."""
        if not x:
            return self._one(), self._one()
        return (pow(x[-1], -1, self._modulus),), (x[-1],)

    def _payload_literal(self, x: tuple) -> list:
        return [self.base._payload_literal(c) for c in x]

    def degree(self, a: RingElement) -> int:
        """Degree of ``a``; the zero polynomial has degree -1."""
        self._own(a)
        return len(a.payload) - 1

    def gen(self) -> RingElement:
        """The indeterminate X."""
        return RingElement(self, (self.base._zero(), self.base._one()))

    def elements_up_to_degree(self, max_degree: int) -> Iterator[RingElement]:
        """Enumerate polynomials of degree <= max_degree, ascending by degree.

        Requires a finite base.  Within each degree, coefficient tuples run in
        base enumeration order with the last coefficient varying fastest.
        """
        if not self.base.is_finite():
            raise UnsupportedRing("degree-bounded enumeration needs a finite base")
        payloads = [e.payload for e in self.base.elements()]
        nonzero = [p for p in payloads if p != self.base._zero()]
        yield self.zero()
        for deg in range(max_degree + 1):
            for body in itertools.product(payloads, repeat=deg):
                for lead in nonzero:
                    yield RingElement(self, body + (lead,))

    def try_inverse(self, a: RingElement) -> Optional[RingElement]:
        self._own(a)
        coeffs = a.payload
        if not coeffs:
            return None
        base = self.base
        const = RingElement(base, coeffs[0])
        const_inv = base.try_inverse(const)
        if const_inv is None:
            return None
        if len(coeffs) == 1:
            return RingElement(self, (const_inv.payload,))
        if not base.is_finite():
            return None
        # a = c0 + h is a unit iff c0 is a unit and every coefficient of h is
        # nilpotent; the inverse is a finite geometric series.
        for c in coeffs[1:]:
            if not _is_nilpotent(RingElement(base, c)):
                return None
        u = RingElement(self, (const_inv.payload,))
        g = self.one() - a * u  # nilpotent
        total = self.one()
        term = g
        steps = 0
        while not term.is_zero():
            total = total + term
            term = term * g
            steps += 1
            if steps > 4 * base.cardinality():
                raise AssertionError("nilpotent series failed to terminate")
        inv = u * total
        if a * inv != self.one():
            raise AssertionError("nilpotent-series inverse check failed")
        return inv


def _pack(coeffs: tuple, width: int) -> int:
    """Kronecker substitution: coefficient i (a nonnegative int narrower
    than ``width`` bits) goes to bits ``[i*width, (i+1)*width)``."""
    packed = 0
    for c in reversed(coeffs):
        packed = (packed << width) | c
    return packed


def _unpack(packed: int, width: int, n: int) -> tuple:
    """The coefficient payload over Z/n of a packed (sum of) product(s):
    each ``width``-bit slot reduced mod n, trailing zeros trimmed."""
    mask = (1 << width) - 1
    out = []
    while packed:
        out.append((packed & mask) % n)
        packed >>= width
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@lru_cache(maxsize=None)
def _residue_table(n: int) -> bytes:
    """The ``bytes.translate`` table taking each byte to its residue mod n,
    for the moduli of ``_scaler``'s packed path: up to 16."""
    return bytes(i % n for i in range(256))


class BivariatePolynomialRing(Ring):
    """Polynomials in two variables over a prime field, with a total-degree
    bound used by bounded searches (arithmetic is unbounded).

    Payloads are sorted tuples of ``((i, j), coeff)`` with nonzero coeff,
    where ``(i, j)`` are the exponents of X and Y.
    """

    def __init__(self, base: PrimeField, bound: int) -> None:
        if not isinstance(base, PrimeField):
            raise UnsupportedRing("bivariate polynomials require a prime field base")
        bound = _check_int(bound)
        if bound <= 0:
            raise ValueError(f"total degree bound must be positive, got {bound}")
        self.base = base
        self.bound = bound
        self._descriptor = f"poly2({base.descriptor()}, bound={bound})"

    def _from_dict(self, terms: dict) -> tuple:
        zero = self.base._zero()
        return tuple(
            (monomial, coeff)
            for monomial, coeff in sorted(terms.items())
            if coeff != zero
        )

    def _canon(self, raw: Any) -> tuple:
        if not isinstance(raw, (list, tuple)):
            raise ValueError(f"expected a list of [i, j, coeff] terms, got {raw!r}")
        terms: dict = {}
        for item in raw:
            if not isinstance(item, (list, tuple)) or len(item) != 3:
                raise ValueError(f"expected an [i, j, coeff] term, got {item!r}")
            i, j, c = item
            i = _check_int(i)
            j = _check_int(j)
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            key = (i, j)
            coeff = self.base._canon(c)
            if key in terms:
                coeff = self.base._add(terms[key], coeff)
            terms[key] = coeff
        return self._from_dict(terms)

    def _add(self, x: tuple, y: tuple) -> tuple:
        terms = dict(x)
        for key, coeff in y:
            if key in terms:
                terms[key] = self.base._add(terms[key], coeff)
            else:
                terms[key] = coeff
        return self._from_dict(terms)

    def _neg(self, x: tuple) -> tuple:
        return tuple((key, self.base._neg(c)) for key, c in x)

    def _mul(self, x: tuple, y: tuple) -> tuple:
        terms: dict = {}
        for (i1, j1), c1 in x:
            for (i2, j2), c2 in y:
                key = (i1 + i2, j1 + j2)
                prod = self.base._mul(c1, c2)
                if key in terms:
                    terms[key] = self.base._add(terms[key], prod)
                else:
                    terms[key] = prod
        return self._from_dict(terms)

    def _zero(self) -> tuple:
        return ()

    def _one(self) -> tuple:
        return (((0, 0), self.base._one()),)

    def _payload_literal(self, x: tuple) -> list:
        return [[i, j, c] for (i, j), c in x]

    def total_degree(self, a: RingElement) -> int:
        self._own(a)
        if not a.payload:
            return -1
        return max(i + j for (i, j), _ in a.payload)

    def gens(self) -> tuple[RingElement, RingElement]:
        one = self.base._one()
        return (
            RingElement(self, (((1, 0), one),)),
            RingElement(self, (((0, 1), one),)),
        )

    def elements_up_to_total_degree(self, max_degree: int) -> Iterator[RingElement]:
        """Enumerate all polynomials of total degree <= max_degree."""
        monomials = sorted(
            (i, j)
            for i in range(max_degree + 1)
            for j in range(max_degree + 1 - i)
        )
        payloads = [e.payload for e in self.base.elements()]
        zero = self.base._zero()
        for assignment in itertools.product(payloads, repeat=len(monomials)):
            terms = tuple(
                (monomial, coeff)
                for monomial, coeff in zip(monomials, assignment)
                if coeff != zero
            )
            yield RingElement(self, terms)

    def try_inverse(self, a: RingElement) -> Optional[RingElement]:
        self._own(a)
        if len(a.payload) == 1 and a.payload[0][0] == (0, 0):
            inv = self.base.try_inverse(RingElement(self.base, a.payload[0][1]))
            if inv is not None:
                return RingElement(self, (((0, 0), inv.payload),))
        return None


class ProductRing(Ring):
    """A finite direct product of rings, with componentwise operations."""

    def __init__(self, factors: tuple[Ring, ...] | list[Ring]) -> None:
        factors = tuple(factors)
        if len(factors) < 2:
            raise ValueError("a product ring needs at least two factors")
        self.factors = factors
        inner = ", ".join(f.descriptor() for f in factors)
        self._descriptor = f"product({inner})"

    def _canon(self, raw: Any) -> tuple:
        if not isinstance(raw, (list, tuple)) or len(raw) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} components, got {raw!r}"
            )
        return tuple(f._canon(c) for f, c in zip(self.factors, raw))

    def _add(self, x: tuple, y: tuple) -> tuple:
        return tuple(f._add(a, b) for f, a, b in zip(self.factors, x, y))

    def _neg(self, x: tuple) -> tuple:
        return tuple(f._neg(a) for f, a in zip(self.factors, x))

    def _mul(self, x: tuple, y: tuple) -> tuple:
        return tuple(f._mul(a, b) for f, a, b in zip(self.factors, x, y))

    def _zero(self) -> tuple:
        return tuple(f._zero() for f in self.factors)

    def _one(self) -> tuple:
        return tuple(f._one() for f in self.factors)

    def _payload_literal(self, x: tuple) -> list:
        return [f._payload_literal(c) for f, c in zip(self.factors, x)]

    def is_finite(self) -> bool:
        return all(f.is_finite() for f in self.factors)

    def cardinality(self) -> int:
        total = 1
        for f in self.factors:
            total *= f.cardinality()
        return total

    def _payloads(self) -> Iterator[tuple]:
        return itertools.product(*(f._payloads() for f in self.factors))

    def try_inverse(self, a: RingElement) -> Optional[RingElement]:
        self._own(a)
        parts = []
        for f, c in zip(self.factors, a.payload):
            inv = f.try_inverse(RingElement(f, c))
            if inv is None:
                return None
            parts.append(inv.payload)
        return RingElement(self, tuple(parts))


class TrivialExtensionRing(Ring):
    """The trivial extension of a ring by itself.

    Elements are pairs ``(r, m)`` with componentwise addition and
    multiplication ``(r1, m1)(r2, m2) = (r1*r2, r1*m2 + m1*r2)``; the second
    coordinate is a square-zero ideal.
    """

    def __init__(self, base: Ring) -> None:
        self.base = base
        self._descriptor = f"trivial({base.descriptor()})"

    def _canon(self, raw: Any) -> tuple:
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise ValueError(f"expected an [r, m] pair, got {raw!r}")
        return (self.base._canon(raw[0]), self.base._canon(raw[1]))

    def _add(self, x: tuple, y: tuple) -> tuple:
        return (self.base._add(x[0], y[0]), self.base._add(x[1], y[1]))

    def _neg(self, x: tuple) -> tuple:
        return (self.base._neg(x[0]), self.base._neg(x[1]))

    def _mul(self, x: tuple, y: tuple) -> tuple:
        r1, m1 = x
        r2, m2 = y
        return (
            self.base._mul(r1, r2),
            self.base._add(self.base._mul(r1, m2), self.base._mul(m1, r2)),
        )

    def _zero(self) -> tuple:
        return (self.base._zero(), self.base._zero())

    def _one(self) -> tuple:
        return (self.base._one(), self.base._zero())

    def _payload_literal(self, x: tuple) -> list:
        return [self.base._payload_literal(x[0]), self.base._payload_literal(x[1])]

    def is_finite(self) -> bool:
        return self.base.is_finite()

    def cardinality(self) -> int:
        return self.base.cardinality() ** 2

    def _payloads(self) -> Iterator[tuple]:
        return itertools.product(self.base._payloads(), self.base._payloads())

    def try_inverse(self, a: RingElement) -> Optional[RingElement]:
        # (r, m) is a unit iff r is, with inverse (r^-1, -m * r^-2).
        self._own(a)
        r, m = a.payload
        rinv = self.base.try_inverse(RingElement(self.base, r))
        if rinv is None:
            return None
        ri = rinv.payload
        mm = self.base._neg(self.base._mul(m, self.base._mul(ri, ri)))
        inv = RingElement(self, (ri, mm))
        if a * inv != self.one():
            raise AssertionError("trivial-extension inverse check failed")
        return inv


def _principal_ideal(e: RingElement) -> list[Any]:
    """The payloads of ``e*R`` in first-seen order over the ring's
    enumeration."""
    ring, ep = e.ring, e.payload
    return list(dict.fromkeys(ring._mul(ep, r.payload) for r in ring.elements()))


def _coset_representatives(
    points: Iterable[Any], ideal: Iterable[Any], add: Callable[[Any, Any], Any]
) -> tuple[dict[Any, Any], list[Any]]:
    """First-in-order coset representatives of ``points`` modulo ``ideal``:
    the map from each point to its coset's representative, and the
    representatives in order.  ``ideal`` must be re-iterable."""
    rep_of: dict[Any, Any] = {}
    reps = []
    for p in points:
        if p in rep_of:
            continue
        reps.append(p)
        for i in ideal:
            rep_of[add(p, i)] = p
    return rep_of, reps


class CornerRing(Ring):
    """The unital subring ``e*R`` of a finite ring, with identity ``e``.

    ``e`` must be idempotent.  When ``e`` is zero this is the zero ring, in
    which 0 = 1 and the single element is a unit.
    """

    def __init__(self, ambient: Ring, e: RingElement) -> None:
        if not ambient.is_finite():
            raise UnsupportedRing("corner rings are defined for finite rings only")
        ambient._own(e)
        if e * e != e:
            raise ValueError(f"{e!r} is not idempotent")
        self.ambient = ambient
        self.unit_element = e
        self._members = tuple(_principal_ideal(e))
        self._member_set = frozenset(self._members)
        literal = json.dumps(ambient._payload_literal(e.payload))
        self._descriptor = f"corner({ambient.descriptor()}, {literal})"

    def _canon(self, raw: Any) -> Any:
        p = self.ambient._canon(raw)
        if p not in self._member_set:
            raise ValueError(f"{raw!r} is not in the corner {self.descriptor()}")
        return p

    def from_ambient(self, a: RingElement) -> RingElement:
        """Project an ambient element into the corner (multiply by e)."""
        self.ambient._own(a)
        return RingElement(self, (self.unit_element * a).payload)

    def to_ambient(self, a: RingElement) -> RingElement:
        self._own(a)
        return RingElement(self.ambient, a.payload)

    def _add(self, x: Any, y: Any) -> Any:
        return self.ambient._add(x, y)

    def _neg(self, x: Any) -> Any:
        return self.ambient._neg(x)

    def _mul(self, x: Any, y: Any) -> Any:
        return self.ambient._mul(x, y)

    def _zero(self) -> Any:
        return self.ambient._zero()

    def _one(self) -> Any:
        return self.unit_element.payload

    def _payload_literal(self, x: Any) -> Any:
        return self.ambient._payload_literal(x)

    def is_finite(self) -> bool:
        return True

    def cardinality(self) -> int:
        return len(self._members)

    def _payloads(self) -> Iterator[Any]:
        return iter(self._members)


class QuotientRing(Ring):
    """A finite ring modulo an ideal, with first-in-order coset representatives.

    The ideal is validated to be closed under addition and absorption; each
    element's payload is the payload of the canonical representative of its
    coset, so payload equality remains element equality.
    """

    def __init__(self, base: Ring, ideal: frozenset) -> None:
        if not base.is_finite():
            raise UnsupportedRing("quotients are implemented for finite rings only")
        self.base = base
        self.ideal = frozenset(ideal)
        if base._zero() not in self.ideal:
            raise ValueError("ideal must contain zero")
        payloads = [e.payload for e in base.elements()]
        for a in self.ideal:
            for b in self.ideal:
                if base._add(a, b) not in self.ideal:
                    raise ValueError("ideal is not closed under addition")
            for r in payloads:
                if base._mul(a, r) not in self.ideal:
                    raise ValueError("ideal does not absorb ring multiplication")
        rep, order = _coset_representatives(payloads, self.ideal, base._add)
        self._rep = rep
        self._reps = tuple(order)
        ideal_literals = sorted(
            json.dumps(base._payload_literal(p)) for p in self.ideal
        )
        self._descriptor = f"quotient({base.descriptor()}, [{', '.join(ideal_literals)}])"

    def project(self, a: RingElement) -> RingElement:
        """The image of a base-ring element in the quotient."""
        self.base._own(a)
        return RingElement(self, self._rep[a.payload])

    def _canon(self, raw: Any) -> Any:
        return self._rep[self.base._canon(raw)]

    def _add(self, x: Any, y: Any) -> Any:
        return self._rep[self.base._add(x, y)]

    def _neg(self, x: Any) -> Any:
        return self._rep[self.base._neg(x)]

    def _mul(self, x: Any, y: Any) -> Any:
        return self._rep[self.base._mul(x, y)]

    def _zero(self) -> Any:
        return self._rep[self.base._zero()]

    def _one(self) -> Any:
        return self._rep[self.base._one()]

    def _payload_literal(self, x: Any) -> Any:
        return self.base._payload_literal(x)

    def is_finite(self) -> bool:
        return True

    def cardinality(self) -> int:
        return len(self._reps)

    def _payloads(self) -> Iterator[Any]:
        return iter(self._reps)


# ---------------------------------------------------------------------------
# descriptor grammar


def parse_ring(text: str) -> Ring:
    """Parse a ring descriptor such as ``modular(12)``, ``gf(5)``,
    ``poly(modular(4), bound=3)``, ``poly2(gf(2), bound=2)``,
    ``product(modular(2), modular(3))``, ``trivial(integers)``."""
    parser = _DescriptorParser(text)
    ring = parser.parse_ring()
    parser.expect_end()
    return ring


class _DescriptorParser:
    # far deeper than any ring the package computes in, and shallow enough
    # that parsing never nears the interpreter's recursion limit
    MAX_DEPTH = 32

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _fail(self, message: str) -> None:
        raise ValueError(f"bad ring descriptor at position {self.pos}: {message}")

    def _word(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if start == self.pos:
            self._fail("expected a name")
        return self.text[start : self.pos]

    def _expect(self, token: str) -> None:
        self._skip_ws()
        if not self.text.startswith(token, self.pos):
            self._fail(f"expected {token!r}")
        self.pos += len(token)

    def _peek(self, token: str) -> bool:
        self._skip_ws()
        return self.text.startswith(token, self.pos)

    def _int(self) -> int:
        self._skip_ws()
        start = self.pos
        if self._peek("-"):
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self._fail("expected an integer")
        return int(self.text[start : self.pos])

    def _bound(self) -> int:
        self._expect(",")
        self._expect("bound")
        self._expect("=")
        return self._int()

    def _inner_ring(self) -> Ring:
        """The ring argument of a constructor, one level deeper."""
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            self._fail(f"rings nest deeper than {self.MAX_DEPTH} constructors")
        ring = self.parse_ring()
        self.depth -= 1
        return ring

    def parse_ring(self) -> Ring:
        name = self._word()
        if name == "integers":
            return IntegerRing()
        if name == "modular":
            self._expect("(")
            n = self._int()
            self._expect(")")
            return ModularRing(n)
        if name == "gf":
            self._expect("(")
            p = self._int()
            self._expect(")")
            return PrimeField(p)
        if name == "poly":
            self._expect("(")
            base = self._inner_ring()
            bound = self._bound() if self._peek(",") else None
            self._expect(")")
            return PolynomialRing(base, bound)
        if name == "poly2":
            self._expect("(")
            base = self._inner_ring()
            if not isinstance(base, PrimeField):
                self._fail("poly2 requires a gf(p) base")
            bound = self._bound()
            self._expect(")")
            return BivariatePolynomialRing(base, bound)
        if name == "product":
            self._expect("(")
            factors = [self._inner_ring()]
            while self._peek(","):
                self._expect(",")
                factors.append(self._inner_ring())
            self._expect(")")
            return ProductRing(factors)
        if name == "trivial":
            self._expect("(")
            base = self._inner_ring()
            self._expect(")")
            return TrivialExtensionRing(base)
        self._fail(f"unknown ring constructor {name!r}")
        raise AssertionError("unreachable")

    def expect_end(self) -> None:
        self._skip_ws()
        if self.pos != len(self.text):
            self._fail("trailing input")


# ---------------------------------------------------------------------------
# Euclidean payload helpers (integers and polynomials over a prime field)


def _sign_unit(x: int) -> tuple[int, int]:
    u = -1 if x < 0 else 1
    return u, u


def _nearest_divmod(x: int, y: int) -> tuple[int, int]:
    """(q, r) with x == q*y + r and 2*|r| <= |y|: the remainder of least
    absolute value."""
    q, r = divmod(x, y)
    if 2 * abs(r) > abs(y):
        q, r = q + 1, r - y
    return q, r


class EuclideanOps:
    """Payload-level division over the Euclidean rings of the family: the
    integers and univariate polynomials over a prime field.

    ``__init__`` is the one place that decides which rings qualify, and it
    binds four ring-specific payload functions once:

    * ``size(x)``, the Euclidean size, 0 exactly for zero: ``abs`` or ``len``;
    * ``divmod(x, y)``, quotient and remainder: the builtin, or long division
      over GF(p) (``PolynomialRing._divmod``);
    * ``nearest_divmod(x, y)``, the same with the smallest remainder: over the
      integers the one of least absolute value, over GF(p)[x] ``divmod``;
    * ``canonical_unit(x)``, the unit u with its inverse, where u*x is the
      canonical associate (nonnegative, or monic).

    ``quotient`` and ``egcd`` are written once over these; ``egcd`` serves
    ``bezout_gcd``."""

    def __init__(self, ring: Ring) -> None:
        if isinstance(ring, IntegerRing):
            self.size, self.divmod, self.canonical_unit = abs, divmod, _sign_unit
            self.nearest_divmod = _nearest_divmod
        elif isinstance(ring, PolynomialRing) and isinstance(ring.base, PrimeField):
            self.size, self.divmod, self.canonical_unit = len, ring._divmod, ring._monic_unit
            self.nearest_divmod = ring._divmod
        else:
            raise UnsupportedRing(
                f"{ring.descriptor()} is not Euclidean here; supported: "
                "integers, poly(gf(p))"
            )
        self.ring = ring

    # egcd uses sub and mul; the elimination calls none of the three, but
    # perfbench/spans.py counts them by name, so deleting one breaks --trace 1
    def add(self, x, y):
        return self.ring._add(x, y)

    def sub(self, x, y):
        return self.ring._add(x, self.ring._neg(y))

    def mul(self, x, y):
        return self.ring._mul(x, y)

    def quotient(self, x, y):
        """x / y when y divides x, else None; zero divides only zero."""
        zero = self.ring._zero()
        if y == zero:
            return zero if x == zero else None
        q, r = self.divmod(x, y)
        return q if r == zero else None

    def egcd(self, x, y):
        """(d, s, t) with s*x + t*y = d, d canonical (nonnegative or monic);
        (0, 0) maps to (0, 0, 0)."""
        zero, one = self.ring._zero(), self.ring._one()
        if x == zero and y == zero:
            return zero, zero, zero
        old_r, r = x, y
        old_s, s = one, zero
        old_t, t = zero, one
        while r != zero:
            q, rem = self.divmod(old_r, r)
            old_r, r = r, rem
            old_s, s = s, self.sub(old_s, self.mul(q, s))
            old_t, t = t, self.sub(old_t, self.mul(q, t))
        u, _ = self.canonical_unit(old_r)
        return self.mul(u, old_r), self.mul(u, old_s), self.mul(u, old_t)


# ---------------------------------------------------------------------------
# ring operations


def is_unit(a: RingElement) -> bool:
    return a.ring.try_inverse(a) is not None


def try_inverse(a: RingElement) -> Optional[RingElement]:
    return a.ring.try_inverse(a)


def _is_nilpotent(a: RingElement) -> bool:
    ring = a.ring
    if isinstance(ring, IntegerRing):
        return a.payload == 0
    if not ring.is_finite():
        raise UnsupportedRing(f"nilpotency test unsupported over {ring.descriptor()}")
    power = a
    for _ in range(ring.cardinality()):
        if power.is_zero():
            return True
        power = power * a
    return power.is_zero()


def _canonical_unit_mod(d: int, n: int) -> int:
    """The least unit u of Z/n with u*d = gcd(d, n) mod n.

    With g = gcd(d, n), u must invert d/g mod n/g; the lifts of that inverse
    to [0, n) include a unit of Z/n, and the first one is taken."""
    g = math.gcd(d, n)
    m = n // g
    u = pow(d // g, -1, m)
    while math.gcd(u, n) != 1:
        u += m
    return u


def bezout_gcd(a: RingElement, b: RingElement) -> tuple[RingElement, RingElement, RingElement]:
    """(d, s, t) with s*a + t*b = d and d dividing both a and b, d canonical:
    nonnegative over the integers, monic over GF(p)[x], and gcd(a, b, n)
    over Z/n.

    Supported over the integers, polynomials over a prime field, and modular
    rings (prime fields included), computed on integer lifts there and then
    scaled by the least unit u with u*d = gcd(d, n).  Both inputs zero
    yields (0, 0, 0).  The identity is re-verified before returning.
    """
    ring = a.ring
    ring._own(b)
    modular = isinstance(ring, ModularRing)
    ops = EuclideanOps(IntegerRing() if modular else ring)
    d, s, t = ops.egcd(a.payload, b.payload)
    if modular:
        u = _canonical_unit_mod(d, ring.modulus)
        d, s, t = u * d, u * s, u * t
    dd, ss, tt = out = (ring.make(d), ring.make(s), ring.make(t))
    if ss * a + tt * b != dd:
        raise AssertionError("internal Bezout identity check failed")
    return out


def is_regular_element(a: RingElement) -> tuple[bool, Optional[RingElement]]:
    """Whether some g satisfies a*g*a == a, with the first such witness.

    Exhaustive over finite rings, multiplying payloads; over the integers
    only 0, 1, -1 qualify.
    """
    ring = a.ring
    if isinstance(ring, IntegerRing):
        if a.payload == 0:
            return True, ring.zero()
        if a.payload in (1, -1):
            return True, a
        return False, None
    if ring.is_finite():
        x, mul = a.payload, ring._mul
        for g in ring.elements():
            if mul(mul(x, g.payload), x) == x:
                return True, g
        return False, None
    raise UnsupportedRing(f"regularity is undecidable here over {ring.descriptor()}")


def idempotents(ring: Ring) -> tuple[RingElement, ...]:
    """All solutions of e*e == e, in enumeration order, tested on payloads."""
    mul = ring._mul
    return tuple(e for e in ring.elements() if mul(e.payload, e.payload) == e.payload)


@dataclass(frozen=True)
class IdempotentBasis:
    """A complete orthogonal family of primitive idempotents, in enumeration
    order.  Validated on construction, on payloads."""

    ring: Ring
    elements: tuple[RingElement, ...]

    def __post_init__(self) -> None:
        ring = self.ring
        for e in self.elements:
            ring._own(e)
        add, mul, zero = ring._add, ring._mul, ring._zero()
        total = zero
        all_idempotents = idempotents(ring)
        for i, e in enumerate(self.elements):
            x = e.payload
            if mul(x, x) != x:
                raise ValueError(f"{e!r} is not idempotent")
            if x == zero:
                raise ValueError("zero cannot be a basis idempotent")
            for f in self.elements[i + 1 :]:
                if mul(x, f.payload) != zero:
                    raise ValueError(f"{e!r} and {f!r} are not orthogonal")
            for f in all_idempotents:
                if f.payload not in (zero, x) and mul(f.payload, x) == f.payload:
                    raise ValueError(f"{e!r} is not primitive ({f!r} lies under it)")
            total = add(total, x)
        if total != ring._one():
            raise ValueError("idempotents do not sum to 1")

    def __len__(self) -> int:
        return len(self.elements)


def primitive_idempotent_decomposition(ring: Ring) -> IdempotentBasis:
    """The primitive (minimal nonzero) idempotents of a finite ring."""
    mul, zero = ring._mul, ring._zero()
    nonzero = {e.payload: e for e in idempotents(ring) if e.payload != zero}
    primitive = tuple(
        e for x, e in nonzero.items() if not any(f != x and mul(f, x) == f for f in nonzero)
    )
    return IdempotentBasis(ring, primitive)


def _radical_int(n: int) -> int:
    rad = 1
    rest = n
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            rad *= d
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        rad *= rest
    return rad


def _verify_projection(ring: Ring, quotient: Ring, project, radical) -> None:
    """Check that ``project`` is a surjective ring map onto ``quotient``
    whose kernel is the radical.  Each element is projected once; every pair
    is then added and multiplied on payloads on both sides."""
    image = {a.payload: project(a).payload for a in ring.elements()}
    add, mul, q_add, q_mul = ring._add, ring._mul, quotient._add, quotient._mul
    for a, pa in image.items():
        for b, pb in image.items():
            if image[add(a, b)] != q_add(pa, pb):
                raise AssertionError("projection does not respect addition")
            if image[mul(a, b)] != q_mul(pa, pb):
                raise AssertionError("projection does not respect multiplication")
    if project(ring.one()) != quotient.one():
        raise AssertionError("projection does not send 1 to 1")
    if len(set(image.values())) != quotient.cardinality():
        raise AssertionError("projection is not surjective")
    zero = quotient._zero()
    kernel = {a for a, pa in image.items() if pa == zero}
    if kernel != {a.payload for a in radical}:
        raise AssertionError("projection kernel differs from the radical")


def _count_element_pairs(ring: Ring) -> None:
    """The radical's unit test, its projection check and the maximality
    check walk the pairs of elements: count them against the search budget.
    Nothing is kept between calls, so every call counts and every call
    computes."""
    if not ring.is_finite():
        raise UnsupportedRing("the radical is computed for finite rings only")
    check_search_budget(len(ring.elements()) ** 2, "element pairs")


def _radical_payloads(ring: Ring) -> set[Any]:
    """The payloads of {a : 1 - r*a is a unit for all r}, tested on payloads
    against the unit set built once."""
    units = {a.payload for a in ring.elements() if is_unit(a)}
    payloads = [a.payload for a in ring.elements()]
    add, neg, mul, one = ring._add, ring._neg, ring._mul, ring._one()
    return {a for a in payloads if all(add(one, neg(mul(r, a))) in units for r in payloads)}


def jacobson_radical_and_quotient(
    ring: Ring,
) -> tuple[tuple[RingElement, ...], Ring, Callable[[RingElement], RingElement]]:
    """The radical {a : 1 - r*a is a unit for all r}, the quotient ring, and
    the verified projection map.

    For modular rings the quotient is again a modular ring (modulo the
    squarefree part of n); otherwise it is a generic coset-representative
    quotient.  The element pairs are counted and the radical is computed on
    every call; a caller that needs it twice passes the result on.
    """
    _count_element_pairs(ring)
    members = _radical_payloads(ring)
    radical = tuple(a for a in ring.elements() if a.payload in members)
    if isinstance(ring, ModularRing):
        m = _radical_int(ring.modulus)
        quotient: Ring = PrimeField(m) if _is_prime(m) else ModularRing(m)

        def project(a: RingElement, _ring=ring, _quotient=quotient, _m=m) -> RingElement:
            _ring._own(a)
            return RingElement(_quotient, a.payload % _m)

    else:
        quotient = QuotientRing(ring, frozenset(members))
        project = quotient.project
    _verify_projection(ring, quotient, project, radical)
    return radical, quotient, project


def _verify_maximal_ideal(ring: Ring, ideal: frozenset) -> None:
    """Check on payloads that ``ideal`` is proper, closed under addition,
    absorbing and maximal.  I + aR = R exactly when 1 lies in I + aR, so a
    non-member a passes when 1 - a*r is in I for some r: every loop stays
    inside the |R|^2 element pairs that ``maximal_ideals`` counts."""
    members = {a.payload for a in ideal}
    payloads = [a.payload for a in ring.elements()]
    add, mul, neg, one = ring._add, ring._mul, ring._neg, ring._one()
    if one in members:
        raise AssertionError("ideal is not proper")
    for a in members:
        for b in members:
            if add(a, b) not in members:
                raise AssertionError("ideal is not closed under addition")
        for r in payloads:
            if mul(a, r) not in members:
                raise AssertionError("ideal does not absorb multiplication")
    for a in payloads:
        if a in members:
            continue
        if not any(add(one, neg(mul(a, r))) in members for r in payloads):
            raise AssertionError("ideal is not maximal")


def maximal_ideals(ring: Ring) -> tuple[frozenset, ...]:
    """One maximal ideal per primitive idempotent e: the elements a whose
    component a*e falls in the radical.  Each ideal is verified to be
    proper, closed, absorbing, and maximal.  Like the radical's, the element
    pairs are counted and the ideals computed on every call; a caller that
    needs them twice passes them on."""
    _count_element_pairs(ring)
    radical = _radical_payloads(ring)
    mul = ring._mul
    ideals = []
    for e in primitive_idempotent_decomposition(ring).elements:
        ideal = frozenset(
            a for a in ring.elements() if mul(a.payload, e.payload) in radical
        )
        _verify_maximal_ideal(ring, ideal)
        ideals.append(ideal)
    return tuple(ideals)


def idempotent_power(f: RingElement) -> RingElement:
    """The unique idempotent among the powers f, f^2, ... in a finite ring."""
    ring = f.ring
    if not ring.is_finite():
        raise UnsupportedRing("idempotent powers exist in finite rings only")
    power = f
    for _ in range(2 * ring.cardinality() + 1):
        if power * power == power:
            return power
        power = power * f
    raise AssertionError("no idempotent power found; ring arithmetic is broken")
