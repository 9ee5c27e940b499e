"""Bounded refutation searches for two non-principality claims and one
non-reducibility claim.

``bounded_principality_check`` asks whether a finitely generated polynomial
ideal can be generated by a single element, exhaustively over candidate
generators and cofactors of bounded degree.  A negative answer is bounded
evidence only and is labeled that way; a positive answer carries verified
witnesses.

``trivial_extension_hermite_search`` scans for an invertible change of
columns reducing a 1x2 row over T(Z,Z) to (d 0), with the entry heights
boxed.  The interesting rows are the ones where nothing is found.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import UnsupportedRing, check_search_budget
from .matrices import RingMatrix
from .rings import (
    BivariatePolynomialRing,
    IntegerRing,
    PolynomialRing,
    Ring,
    RingElement,
    TrivialExtensionRing,
    _coset_representatives,
)


@dataclass(frozen=True)
class PrincipalWitness:
    """A verified single generator: each ideal generator equals
    ``generator * cofactor``, and ``generator`` is the recorded combination
    of the ideal generators."""

    generator: RingElement
    cofactors: tuple[RingElement, ...]
    combination: tuple[RingElement, ...]

    def describe(self) -> str:
        return f"principal: generated by {self.generator.literal()}"


@dataclass(frozen=True)
class NotPrincipalUpTo:
    """No single generator exists within the degree bound.  This is bounded
    evidence about the searched box, not a proof for the full ring."""

    bound: int
    candidates_examined: int

    def describe(self) -> str:
        return (
            f"no single generator of degree <= {self.bound}"
            f" ({self.candidates_examined} candidates examined;"
            " bounded evidence, not a proof)"
        )


def _degree_tools(ring: Ring):
    """The degree function of ``ring``, the enumerator of its box of elements
    of degree <= d, and the size of that box, computed without enumerating."""
    if isinstance(ring, PolynomialRing):
        if not ring.base.is_finite():
            raise UnsupportedRing("principality search needs finite coefficients")
        q = ring.base.cardinality()
        return ring.degree, ring.elements_up_to_degree, lambda d: q ** (d + 1)
    if isinstance(ring, BivariatePolynomialRing):
        q = ring.base.cardinality()
        return (
            ring.total_degree,
            ring.elements_up_to_total_degree,
            lambda d: q ** ((d + 1) * (d + 2) // 2),
        )
    raise UnsupportedRing(
        f"principality search works over polynomial rings, got {ring.descriptor()}"
    )


def bounded_principality_check(
    generators: Sequence[RingElement], bound: int, budget: int | None = None
):
    """Search for one element generating the same ideal as ``generators``,
    all degrees capped at ``bound``.

    Membership of a candidate g in the ideal is decided against the set of
    combinations sum(f_i * h_i) with cofactor degrees <= bound, each member
    kept with its lexicographically first cofactor combination.  The row
    H_i of f_i's distinct products is an additive subgroup, so the table is
    closed over one row at a time: each new coset s + H_i of a partial sum s
    is added once, and a partial sum already reached is skipped with its
    whole coset.  This costs one sum per member of each partial table
    instead of one per combination, and gives the same witnesses as
    enumerating every combination.  The budget still counts every
    combination, from the box size alone, before anything is enumerated.

    The reverse inclusion demands each f_i = g * c_i with c_i in the box B
    of degree <= bound.  B is an additive group and c -> g * c is additive,
    so B is split once per call (meet in the middle, as in Horowitz & Sahni,
    JACM 21, 1974): L is the box of the largest smaller degree d with
    |L|^2 <= |B| ({0} when there is none), a subgroup of B, and T holds one
    representative of each coset of L.  Then f is in g * B exactly when
    f - g * l lies in {g * t : t in T} for some l in L, which costs
    |L| + |T| products per g instead of up to |B|.  The first g that passes
    is the one the full scan would accept, and only it scans B in candidate
    order for its cofactors, so the witnesses are still the first ones.

    Every product runs through the batch kernel ``Ring._scaler``, built once
    per call for each fixed operand list (the candidates, T and L): one call
    per row of the member table, and per member g one for the images g * T
    and one per f for the shifted set f + g * L, which must meet the images
    (``set.isdisjoint``).  Over Z/n[X] each scaler packs its list once and
    each call is one big-int product, so a member costs at most
    1 + len(generators) products, no packing of T or L and no polynomial
    sum.  Returns a verified PrincipalWitness or NotPrincipalUpTo."""
    if not generators:
        raise ValueError("need at least one ideal generator")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    ring = generators[0].ring
    for f in generators:
        ring._own(f)
    degree_of, enumerate_up_to, box_size = _degree_tools(ring)
    for f in generators:
        if not f.is_zero() and degree_of(f) > bound:
            raise ValueError(
                f"generator {f.literal()} exceeds the degree bound {bound}"
            )
    size = box_size(bound)
    check_search_budget(size ** len(generators), "cofactor combinations", budget)
    candidates = [h.payload for h in enumerate_up_to(bound)]
    add, mul, zero = ring._add, ring._mul, ring._zero()
    targets = [f.payload for f in generators]
    # Row i maps each distinct product f_i * h to the index of its first h.
    # A lexicographically first combination for a sum uses first indices
    # only, and its prefixes are first combinations too.
    rows = []
    by_candidates = ring._scaler(candidates)
    for f in targets:
        first: dict = {}
        for i, product in enumerate(by_candidates(f)):
            first.setdefault(product, i)
        rows.append(first.items())
    # Close the table over one row H at a time, walking the partial sums s
    # in the order of their first combinations.  H is a subgroup, so an s
    # already reached lies in a coset s + H that is wholly covered, and the
    # coset of any other s is disjoint from the sums reached so far.
    members = {product: (i,) for product, i in rows[0]}
    for row in rows[1:]:
        grown: dict = {}
        for s, combo in members.items():
            if s in grown:
                continue
            for product, i in row:
                total = add(s, product)
                if total in grown:
                    raise AssertionError(
                        "a row of the member table is not closed under"
                        " addition; this is a bug"
                    )
                grown[total] = combo + (i,)
        members = grown
    # low is the subgroup L of the docstring, reps the coset representatives T
    fits = [d for d in range(bound) if box_size(d) ** 2 <= size]
    low = [h.payload for h in enumerate_up_to(fits[-1])] if fits else [zero]
    _, reps = _coset_representatives(candidates, low, add)
    if len(reps) * len(low) != len(candidates):
        raise AssertionError(
            "the cofactor box does not split into cosets; this is a bug"
        )
    by_reps, by_low = ring._scaler(reps), ring._scaler(low)
    examined = 0
    for g in candidates:
        if g == zero or g not in members:
            continue
        examined += 1
        # L = -L, so f - g*l over l in L is f + g*l over l in L
        images = set(by_reps(g))
        if any(images.isdisjoint(by_low(g, f)) for f in targets):
            continue
        generator = RingElement(ring, g)
        # a cofactor the scan misses (a bug) falls back to zero, which the
        # re-check below rejects
        cofactors = tuple(
            RingElement(ring, next((c for c in candidates if mul(g, c) == f), zero))
            for f in targets
        )
        combination = tuple(RingElement(ring, candidates[i]) for i in members[g])
        recombined = ring.zero()
        for f, h in zip(generators, combination):
            recombined = recombined + f * h
        if recombined != generator:
            raise AssertionError("combination witness failed; this is a bug")
        for f, c in zip(generators, cofactors):
            if generator * c != f:
                raise AssertionError("cofactor witness failed; this is a bug")
        return PrincipalWitness(generator, cofactors, combination)
    return NotPrincipalUpTo(bound, examined)


@dataclass(frozen=True)
class HermiteSearchReport:
    """Result of the boxed search for a column transform v @ Q = (d 0)."""

    vector: RingMatrix
    height: int
    found: bool
    transform: Optional[RingMatrix]
    diagonal: Optional[RingElement]
    checked: int

    def describe(self) -> str:
        if self.found:
            return (
                f"reduction found: d = {self.diagonal.literal()},"
                f" Q = {[e.literal() for e in self.transform.entries]}"
            )
        return (
            f"no reduction found within bounds (entry height <= {self.height},"
            f" {self.checked} column pairs examined; bounded evidence)"
        )


def default_hermite_vector() -> RingMatrix:
    """The 1x2 row (2, e) over T(Z,Z), e the square-zero generator: the zero
    column of any reduction forces an even determinant, so no bounded search
    can find an invertible transform."""
    ring = TrivialExtensionRing(IntegerRing())
    return RingMatrix.from_rows(ring, [[(2, 0), (0, 1)]])


def trivial_extension_hermite_search(
    vector: RingMatrix | None = None, height: int = 2
) -> HermiteSearchReport:
    """Exhaust all 2x2 column transforms over T(Z,Z) with entries of height
    at most ``height``: Q must be invertible (unit determinant) and kill the
    second coordinate of the row.  Reports the first find or the exhaustion.

    det(Q) = a*y - b*x is a unit of T(Z,Z) exactly when its base coordinate
    a0*y0 - b0*x0 is a unit of Z, so a second column (x, y) for which no
    (a0, b0) of the box gives +-1 is decided without scanning the first
    columns, like a column that does not kill the row.  ``checked`` counts
    the pairs decided either way, so it is the count of the full scan.  The
    budget counts the (2*height+1)^8 pairs before any column is built."""
    if vector is None:
        vector = default_hermite_vector()
    ring = vector.ring
    if not isinstance(ring, TrivialExtensionRing) or not isinstance(
        ring.base, IntegerRing
    ):
        raise UnsupportedRing("the search is implemented over trivial(integers)")
    if (vector.rows, vector.cols) != (1, 2):
        raise ValueError("the search expects a 1x2 row")
    if height < 1:
        raise ValueError("height must be positive")
    check_search_budget((2 * height + 1) ** 8, "column pairs")
    span = range(-height, height + 1)
    entries = [(a, b) for a in span for b in span]
    columns = list(itertools.product(entries, repeat=2))
    v1, v2 = vector.payloads
    mul, add, neg = ring._mul, ring._add, ring._neg
    zero = ring._zero()
    checked = 0
    for col2 in columns:
        x, y = col2
        # a column that does not kill the row, or whose base coordinates
        # x0, y0 give no unit a0*y0 - b0*x0 over the box, decides all its
        # pairs at once
        if add(mul(v1, x), mul(v2, y)) != zero or not any(
            a0 * y[0] - b0 * x[0] in (1, -1) for a0 in span for b0 in span
        ):
            checked += len(columns)
            continue
        for col1 in columns:
            checked += 1
            a, b = col1
            det = add(mul(a, y), neg(mul(b, x)))
            if ring.try_inverse(RingElement(ring, det)) is None:
                continue
            q = RingMatrix(ring, 2, 2, (a, x, b, y))
            d = add(mul(v1, a), mul(v2, b))
            if (vector @ q).payloads != (d, zero):
                raise AssertionError("transform failed re-verification; a bug")
            return HermiteSearchReport(vector, height, True, q, RingElement(ring, d), checked)
    return HermiteSearchReport(vector, height, False, None, None, checked)
