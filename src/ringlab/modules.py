"""Finitely generated modules over finite commutative rings.

Two representations coexist.  A ``ProjectiveModule`` is a multiplicity vector
over the ring's primitive idempotents (the module is the direct sum of that
many copies of each corner ``e_i R``), which makes isomorphism testing exact.
A ``FiniteModule`` carries its points explicitly, so kernels, images and
cokernels run by enumeration; a matrix's kernel, image and cokernel take the
images of every domain point from one payload product.  Two finite modules
over Z/n are compared by the sizes |M| and |q*M| over the prime powers
q | n, a complete invariant; over other rings by a brute-force search for
an isomorphism.

Localizing at a maximal ideal and at an element are one construction over a
finite ring: the corner cut by an idempotent (the primitive idempotent
outside the ideal, or the idempotent power of the element).  A projective
module's cut reads its multiplicities at the matching slots; a finite
module's cut e*M is built as a checked ``FiniteModule`` over the corner.
Each kind of target has one builder, used by the public calls and verifiers.

The verifiers at the bottom each check one structural statement about these
modules (refinement in the projective-class monoid, local-global detection of
isomorphism, partitions of unity, constant rank implying free, cancellation
plus diagonal reduction, lifting reductions through the radical, the
decomposition behind each regular 1x1 matrix) and return a ``VerifierReport``
with counts and, on failure, a counterexample payload.  Every section of
``ringlab verify`` is one of these reports; ``verify_suite`` builds all six,
sweeping the small shapes once for the cancellation and Jacobson reports,
and owns the one modular-ring gate, which its two matrix sections share.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd, prod
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Union

from .errors import (
    BudgetExceeded,
    MismatchedRings,
    UnsupportedRing,
    check_element_budget,
    check_search_budget,
    element_budget,
)
from .matrices import (
    RingMatrix,
    _check_reduction,
    _eliminate_payloads,
    _matmul_payloads,
    _reduction_holds,
    _regularity,
)
from .monoids import (
    MonoidPresentation,
    cancellation_candidates,
    cancellation_law_check,
    conical_check,
    refine,
)
from .rings import (
    CornerRing,
    IdempotentBasis,
    ModularRing,
    Ring,
    RingElement,
    _coset_representatives,
    _principal_ideal,
    idempotent_power,
    is_regular_element,
    jacobson_radical_and_quotient,
    maximal_ideals,
    primitive_idempotent_decomposition,
)

_AXIOM_CHECK_LIMIT = 512
_EXHAUSTIVE_PAIR_LIMIT = 64
_AXIOM_SAMPLES = 256


class FiniteModule:
    """An explicitly enumerated module over a finite commutative ring.

    Points are hashable payloads; ``add`` and ``scale`` are payload-level
    rules (scale takes a ring payload first).  Every construction checks
    that the ring is finite and the carrier has zero and no duplicates.  The
    module axioms are verified where the carrier or rules come from a caller
    (``FiniteModule(...)``, ``submodule_of_ring``, the module results of
    ``localize_at_maximal`` and ``localize_at_element``): exhaustively where
    the carrier is small, on a seeded sample otherwise, not at all above 512
    points.  Modules the library derives from ring operations are
    ``_LibraryModule``s and skip it; the tests check their axioms.
    """

    _checks_axioms = True

    def __init__(
        self,
        ring: Ring,
        points: Iterable[Any],
        zero: Any,
        add: Callable[[Any, Any], Any],
        scale: Callable[[Any, Any], Any],
        label: str = "M",
    ) -> None:
        if not ring.is_finite():
            raise UnsupportedRing("finite modules need a finite base ring")
        self.ring = ring
        self.points = tuple(points)
        self.point_set = frozenset(self.points)
        if len(self.points) != len(self.point_set):
            raise ValueError("carrier contains duplicate points")
        self.zero = zero
        self.add = add
        self.scale = scale
        self.label = label
        self._annihilators: dict[Any, frozenset] = {}
        self._generators: Optional[tuple[Any, ...]] = None
        self._summands: Optional[tuple[FiniteModule, FiniteModule]] = None
        self._ulm_sizes: Optional[tuple[int, ...]] = None
        if zero not in self.point_set:
            raise ValueError("carrier does not contain the zero point")
        if self._checks_axioms and len(self.points) <= _AXIOM_CHECK_LIMIT:
            self._verify_axioms()

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"<module {self.label} over {self.ring.descriptor()}, {len(self)} points>"

    def describe(self) -> str:
        return f"{self.label} over {self.ring.descriptor()} ({len(self)} points)"

    def _verify_axioms(self) -> None:
        pts = self.points
        n = len(pts)
        scalars = [e.payload for e in self.ring.elements()]
        one = self.ring.one().payload
        neg_one = self.ring.neg(self.ring.one()).payload
        rng = random.Random(0x5EED)
        if n <= _EXHAUSTIVE_PAIR_LIMIT:
            pairs = [(x, y) for x in pts for y in pts]
        else:
            pairs = [
                (rng.choice(pts), rng.choice(pts)) for _ in range(_AXIOM_SAMPLES)
            ]
        for x, y in pairs:
            s = self.add(x, y)
            if s not in self.point_set:
                raise ValueError(f"carrier not closed under addition: {x!r}+{y!r}")
            if s != self.add(y, x):
                raise ValueError("addition is not commutative")
        if n ** 3 <= 4096:
            triples = [(x, y, z) for x in pts for y in pts for z in pts]
        else:
            triples = [
                (rng.choice(pts), rng.choice(pts), rng.choice(pts))
                for _ in range(_AXIOM_SAMPLES)
            ]
        for x, y, z in triples:
            if self.add(self.add(x, y), z) != self.add(x, self.add(y, z)):
                raise ValueError("addition is not associative")
        for x in pts:
            if self.add(x, self.zero) != x:
                raise ValueError("zero is not an additive identity")
            if self.add(x, self.scale(neg_one, x)) != self.zero:
                raise ValueError("additive inverse (-1)*x fails")
            if self.scale(one, x) != x:
                raise ValueError("1 does not act as identity")
        sample_pts = pts if n <= 16 else [rng.choice(pts) for _ in range(16)]
        for r in scalars:
            for x in sample_pts:
                rx = self.scale(r, x)
                if rx not in self.point_set:
                    raise ValueError("carrier not closed under the scalar action")
                for s in scalars:
                    if self.scale(s, rx) != self.scale(self.ring._mul(s, r), x):
                        raise ValueError("scalar action is not associative")
                    if self.add(self.scale(r, x), self.scale(s, x)) != self.scale(
                        self.ring._add(r, s), x
                    ):
                        raise ValueError("scalar action fails (r+s)x = rx+sx")
                for y in sample_pts:
                    if self.scale(r, self.add(x, y)) != self.add(
                        self.scale(r, x), self.scale(r, y)
                    ):
                        raise ValueError("scalar action fails r(x+y) = rx+ry")

    def annihilator(self) -> frozenset:
        """Ring payloads killing every point: the intersection of the
        annihilators of the generators, since over a commutative ring r
        kills every combination of points it kills.  The zero module has no
        generators, and the whole ring kills it."""
        out = frozenset(e.payload for e in self.ring.elements())
        for g in self.generators():
            out &= self.element_annihilator(g)
        return out

    def element_annihilator(self, x: Any) -> frozenset:
        cached = self._annihilators.get(x)
        if cached is None:
            cached = frozenset(
                e.payload
                for e in self.ring.elements()
                if self.scale(e.payload, x) == self.zero
            )
            self._annihilators[x] = cached
        return cached

    def _multiples(self, g: Any) -> list[Any]:
        """r*g for every ring payload r, in the ring's order."""
        return [self.scale(e.payload, g) for e in self.ring.elements()]

    def _grow(self, reached: Iterable[Any], g: Any) -> set:
        """The points x + r*g for x in ``reached``, over the distinct
        multiples r*g."""
        multiples = set(self._multiples(g))
        return {self.add(x, m) for x in reached for m in multiples}

    def generators(self) -> tuple[Any, ...]:
        """A greedy generating sequence: walk the carrier in order, keeping
        each point not yet in the span of the ones kept so far.  Computed
        once per module."""
        if self._generators is None:
            gens: list[Any] = []
            reached = {self.zero}
            for x in self.points:
                if x in reached:
                    continue
                gens.append(x)
                reached = self._grow(reached, x)
                if len(reached) == len(self.points):
                    break
            self._generators = tuple(gens)
        return self._generators


class _LibraryModule(FiniteModule):
    """A module whose rules the library derived from ring operations: the
    carrier checks run on construction, the axiom check does not."""

    _checks_axioms = False


def _ideal_module(ring: Ring, points: Iterable[Any], label: str) -> FiniteModule:
    """An ideal of the ring, acted on by the ring's own operations."""
    return _LibraryModule(ring, points, ring._zero(), ring._add, ring._mul, label)


def ring_module(ring: Ring, label: str = "R") -> FiniteModule:
    """The ring as a module over itself."""
    return _ideal_module(ring, [e.payload for e in ring.elements()], label)


def _tuple_rules(ring: Ring) -> tuple[Callable, Callable]:
    """Componentwise add and scale on payload tuples, the rules of R^n and
    of every tuple module the library builds inside it."""
    add = lambda x, y: tuple(ring._add(a, b) for a, b in zip(x, y))
    scale = lambda r, x: tuple(ring._mul(r, a) for a in x)
    return add, scale


def free_module(ring: Ring, rank: int) -> FiniteModule:
    """R^rank with points stored as payload tuples."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    payloads = [e.payload for e in ring.elements()]
    check_element_budget(len(payloads) ** rank, "carrier points")
    points = list(itertools.product(payloads, repeat=rank))
    zero = (ring._zero(),) * rank
    return _LibraryModule(ring, points, zero, *_tuple_rules(ring), f"R^{rank}")


def submodule_of_ring(ring: Ring, points: Iterable[Any], label: str) -> FiniteModule:
    """A caller's subset of the ring, verified closed under addition and the
    ring action (the module axioms are checked)."""
    return FiniteModule(ring, points, ring._zero(), ring._add, ring._mul, label)


def cyclic_submodule(d: RingElement) -> FiniteModule:
    """The principal ideal d*R as a module."""
    return _ideal_module(d.ring, _principal_ideal(d), f"{d.literal()}R")


def annihilator_submodule(d: RingElement) -> FiniteModule:
    """ann(d) = everything d kills."""
    ring = d.ring
    mul, zero = ring._mul, ring._zero()
    points = [e.payload for e in ring.elements() if mul(d.payload, e.payload) == zero]
    return _ideal_module(ring, points, f"ann({d.literal()})")


def _quotient_module(
    base: FiniteModule, submodule: Iterable[Any], label: str
) -> FiniteModule:
    """base/submodule on first-in-order coset representatives: base's rules
    followed by the map to the representative."""
    rep_of, reps = _coset_representatives(base.points, submodule, base.add)
    add, scale = base.add, base.scale
    return _LibraryModule(
        base.ring,
        reps,
        rep_of[base.zero],
        lambda x, y: rep_of[add(x, y)],
        lambda r, x: rep_of[scale(r, x)],
        label,
    )


def quotient_by_cyclic(d: RingElement) -> FiniteModule:
    """R/dR with first-in-order coset representatives."""
    return _quotient_module(
        ring_module(d.ring), _principal_ideal(d), f"R/{d.literal()}R"
    )


def direct_sum(left: FiniteModule, right: FiniteModule) -> FiniteModule:
    """The external direct sum; both summands were checked where they were
    built, so the sum is built without repeating the axiom check.  The sum
    keeps its summands, from which :func:`module_iso` takes its sizes."""
    if left.ring != right.ring:
        raise MismatchedRings("direct sum needs a common base ring")
    points = [(a, b) for a in left.points for b in right.points]
    zero = (left.zero, right.zero)
    add = lambda x, y: (left.add(x[0], y[0]), right.add(x[1], y[1]))
    scale = lambda r, x: (left.scale(r, x[0]), right.scale(r, x[1]))
    total = _LibraryModule(
        left.ring, points, zero, add, scale, f"{left.label}(+){right.label}"
    )
    total._summands = (left, right)
    return total


# ---------------------------------------------------------------------------
# projective modules as idempotent multiplicities


@dataclass(frozen=True)
class ProjectiveModule:
    """A direct sum of corners: multiplicities[i] copies of e_i R, where the
    e_i are the ring's primitive idempotents in enumeration order."""

    ring: Ring
    basis: IdempotentBasis
    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.basis.ring != self.ring:
            raise MismatchedRings("idempotent basis belongs to a different ring")
        if len(self.multiplicities) != len(self.basis):
            raise ValueError(
                f"expected {len(self.basis)} multiplicities, got"
                f" {len(self.multiplicities)}"
            )
        if any(not isinstance(t, int) or t < 0 for t in self.multiplicities):
            raise ValueError("multiplicities must be nonnegative integers")

    def is_zero(self) -> bool:
        return all(t == 0 for t in self.multiplicities)

    def component_sizes(self) -> tuple[int, ...]:
        return tuple(len(_principal_ideal(e)) for e in self.basis.elements)

    def carrier_cardinality(self) -> int:
        return prod(
            size ** t for size, t in zip(self.component_sizes(), self.multiplicities)
        )

    def describe(self) -> str:
        parts = [
            f"{t}({e.literal()}R)"
            for t, e in zip(self.multiplicities, self.basis.elements)
        ]
        return " + ".join(parts) if parts else "0"


def projective_module(ring: Ring, multiplicities: Iterable[int]) -> ProjectiveModule:
    basis = primitive_idempotent_decomposition(ring)
    return ProjectiveModule(ring, basis, tuple(multiplicities))


def free_projective(ring: Ring, rank: int) -> ProjectiveModule:
    """R^rank in multiplicity form: rank copies of every corner."""
    basis = primitive_idempotent_decomposition(ring)
    return ProjectiveModule(ring, basis, (rank,) * len(basis))


def to_finite_module(module: ProjectiveModule) -> FiniteModule:
    """Expand the multiplicity form into an explicit carrier of slot tuples."""
    ring = module.ring
    check_element_budget(module.carrier_cardinality(), "carrier points")
    slot_domains: list[list[Any]] = []
    for e, t in zip(module.basis.elements, module.multiplicities):
        slot_domains.extend([_principal_ideal(e)] * t)
    points = list(itertools.product(*slot_domains)) if slot_domains else [()]
    zero = (ring._zero(),) * len(slot_domains)
    return _LibraryModule(ring, points, zero, *_tuple_rules(ring), module.describe())


def projective_monoid(ring: Ring) -> tuple[MonoidPresentation, IdempotentBasis]:
    """The monoid of projective-module classes: free on the primitive
    idempotent classes, with the basis returned alongside."""
    if not ring.is_finite():
        raise UnsupportedRing("the projective monoid is computed for finite rings")
    basis = primitive_idempotent_decomposition(ring)
    presentation = MonoidPresentation(generator_count=len(basis), relations=())
    return presentation, basis


# ---------------------------------------------------------------------------
# isomorphism testing


def find_module_isomorphism(left: FiniteModule, right: FiniteModule) -> Optional[dict]:
    """An explicit isomorphism as a point map, or None.

    The modules must have equal size and equal annihilators (each
    :meth:`FiniteModule.annihilator` is taken over the module's
    generators).  The search then tries images for the generators in turn;
    each candidate image must annihilate at least what its generator
    annihilates.  Extending the map by a generator g with image y pairs
    each multiple r*g with r*y once, rejecting y when one multiple gets two
    images, and adds each such multiple to each point already mapped.  That
    closure visits every representation of every point, so a completed map
    is automatically well defined, additive and scalar-compatible;
    bijectivity is then a cardinality check on the image.

    Mapped points are never remapped, so a map that gives two points one
    image can only fail that check: an extension stops as soon as a new
    point takes an image already taken.  The pruned branches hold no
    isomorphism, so the first map found is the one the unpruned search
    finds.
    """
    if left.ring != right.ring:
        raise MismatchedRings("isomorphism testing needs a common base ring")
    if len(left) != len(right):
        return None
    if left.annihilator() != right.annihilator():
        return None
    gens = left.generators()
    if not gens:
        return {left.zero: right.zero}
    candidates: list[list[Any]] = []
    total = 1
    for g in gens:
        needed = left.element_annihilator(g)
        options = [
            y for y in right.points if needed <= right.element_annihilator(y)
        ]
        if not options:
            return None
        candidates.append(options)
        total *= len(options)
    check_search_budget(total, "candidate generator images")

    def extend(
        mapping: dict, taken: set, g: Any, image: Any
    ) -> Optional[tuple[dict, set]]:
        multiples: dict[Any, Any] = {}
        for m, q in zip(left._multiples(g), right._multiples(image)):
            if multiples.setdefault(m, q) != q:
                return None
        new, taken = dict(mapping), set(taken)
        for x, fx in mapping.items():
            for m, fm in multiples.items():
                p = left.add(x, m)
                q = right.add(fx, fm)
                seen = new.get(p)
                if seen is None:
                    if q in taken:
                        return None
                    new[p] = q
                    taken.add(q)
                elif seen != q:
                    return None
        return new, taken

    def search(index: int, mapping: dict, taken: set) -> Optional[dict]:
        if index == len(gens):
            if len(set(mapping.values())) == len(right):
                return mapping
            return None
        for image in candidates[index]:
            grown = extend(mapping, taken, gens[index], image)
            if grown is not None:
                found = search(index + 1, *grown)
                if found is not None:
                    return found
        return None

    return search(0, {left.zero: right.zero}, {right.zero})


def _prime_powers(n: int) -> list[int]:
    """Every prime power q > 1 dividing n, each prime's in increasing order."""
    out, rest, p = [], n, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        q = 1
        while rest % p == 0:
            rest //= p
            q *= p
            out.append(q)
        p += 1
    return out


def _ulm_sizes(module: FiniteModule) -> tuple[int, ...]:
    """|M| and |q*M| for each prime power q dividing n, for a module over
    Z/n, each q*M taken with the module's own ``scale``.  Kept on the
    module; a direct sum's sizes are the products of its summands', since
    q*(A (+) B) = qA (+) qB."""
    if module._ulm_sizes is None:
        if module._summands is not None:
            left, right = module._summands
            module._ulm_sizes = tuple(
                a * b for a, b in zip(_ulm_sizes(left), _ulm_sizes(right))
            )
        else:
            n, scale = module.ring.modulus, module.scale
            module._ulm_sizes = (
                len(module),
                *(len({scale(q % n, x) for x in module.points}) for q in _prime_powers(n)),
            )
    return module._ulm_sizes


def module_iso(
    left: Union[ProjectiveModule, FiniteModule],
    right: Union[ProjectiveModule, FiniteModule],
) -> bool:
    """Isomorphism test: exact multiplicity comparison for projectives,
    expansion for a mix, and for two explicit carriers the sizes |M| and
    |q*M| over the prime powers q | n when the ring is Z/n (gf(p) included),
    the generator-seeded search otherwise.

    A Z/n-module is an abelian group killed by n, and every additive map
    between two of them is Z/n-linear.  For a finite abelian p-group G,
    log_p |p^k G| - log_p |p^(k+1) G| counts its cyclic summands of order
    above p^k (the Ulm invariants of a finite group; Kaplansky, *Infinite
    Abelian Groups*, section 11), so these sizes fix the module up to
    isomorphism."""
    if left.ring != right.ring:
        raise MismatchedRings("isomorphism testing needs a common base ring")
    if isinstance(left, ProjectiveModule) and isinstance(right, ProjectiveModule):
        if left.basis != right.basis:
            raise ValueError("modules use different idempotent bases")
        return left.multiplicities == right.multiplicities
    if isinstance(left, ProjectiveModule):
        left = to_finite_module(left)
    if isinstance(right, ProjectiveModule):
        right = to_finite_module(right)
    if isinstance(left.ring, ModularRing):
        return _ulm_sizes(left) == _ulm_sizes(right)
    return find_module_isomorphism(left, right) is not None


# ---------------------------------------------------------------------------
# localization


@dataclass(frozen=True)
class LocalizedView:
    """A module after inverting a multiplicative set: at a maximal ideal
    (target is the ideal's index) or at the powers of one element (target is
    that element).  The factor ring is the corner realizing the localization;
    every generator of the multiplicative set was checked to become a unit."""

    source: Union[ProjectiveModule, FiniteModule]
    kind: str
    target: Union[int, RingElement]
    factor: Ring
    result: Union[ProjectiveModule, FiniteModule]
    free_rank: Optional[int] = None

    def describe(self) -> str:
        if self.kind == "maximal":
            where = f"maximal ideal #{self.target}"
        else:
            where = f"element {self.target.literal()}"
        return f"localization at {where}: factor {self.factor.descriptor()}"


if TYPE_CHECKING:  # subscripted at import, this alias raised peak RSS by about 1 MB
    _Localizer = Callable[[Union[ProjectiveModule, FiniteModule]], LocalizedView]


def _corner_localizer(
    basis: IdempotentBasis,
    e: RingElement,
    inverted: list[RingElement],
    kind: str,
    target: Union[int, RingElement],
) -> _Localizer:
    """Localization as the corner cut by the idempotent ``e``, for modules
    over ``basis``'s ring.  The corner eR is built once; each element of
    ``inverted`` (generators of the multiplicative set; units are closed
    under products) is verified to become a unit of it; and each primitive
    idempotent of the corner is matched to exactly one ambient slot, which
    also fails for a corner that should be local and is not.

    A projective module's view reads its multiplicities at those slots (its
    free rank too, at a maximal ideal).  A finite module is cut down to e*M,
    each element of ``inverted`` must act bijectively there, and the cut is
    built as a public ``FiniteModule`` over the corner, so its axioms are
    checked."""
    factor = CornerRing(basis.ring, e)
    for s in inverted:
        if factor.try_inverse(factor.from_ambient(s)) is None:
            raise AssertionError(f"{s!r} does not invert in {factor.descriptor()}")
    factor_basis = primitive_idempotent_decomposition(factor)
    slots = []
    for c in factor_basis.elements:
        matches = [
            i for i, ei in enumerate(basis.elements) if (e * ei).payload == c.payload
        ]
        if len(matches) != 1:
            raise AssertionError(
                "corner idempotent does not match exactly one ambient idempotent"
            )
        slots.append(matches[0])
    where = target.literal() if kind == "element" else f"m{target}"

    def view(module: Union[ProjectiveModule, FiniteModule]) -> LocalizedView:
        if isinstance(module, ProjectiveModule):
            mults = tuple(module.multiplicities[i] for i in slots)
            result = ProjectiveModule(factor, factor_basis, mults)
            rank = mults[0] if kind == "maximal" else None
            return LocalizedView(module, kind, target, factor, result, rank)
        points = list(dict.fromkeys(module.scale(e.payload, x) for x in module.points))
        for s in inverted:
            if {module.scale(s.payload, x) for x in points} != set(points):
                raise AssertionError(
                    f"{s.literal()} does not act bijectively on the localization"
                )
        result = FiniteModule(
            factor,
            points,
            module.zero,
            module.add,
            module.scale,
            f"({module.label})_({where})",
        )
        return LocalizedView(module, kind, target, factor, result, None)

    return view


def _maximal_localizer(basis: IdempotentBasis, index: int, ideal: frozenset) -> _Localizer:
    """Localization at ``ideal``, maximal ideal #index: the corner of the
    ideal's idempotent, with every element outside the ideal inverted."""
    outside = [s for s in basis.ring.elements() if s not in ideal]
    return _corner_localizer(basis, basis.elements[index], outside, "maximal", index)


def _element_localizer(basis: IdempotentBasis, f: RingElement) -> _Localizer:
    """Localization at f: the corner of f's idempotent power, f inverted."""
    return _corner_localizer(basis, idempotent_power(f), [f], "element", f)


def _idempotent_basis(module: Union[ProjectiveModule, FiniteModule]) -> IdempotentBasis:
    if isinstance(module, ProjectiveModule):
        return module.basis
    return primitive_idempotent_decomposition(module.ring)


def localize_at_maximal(
    module: Union[ProjectiveModule, FiniteModule], ideal: Union[int, frozenset]
) -> LocalizedView:
    """Localize at a maximal ideal: the corner cut by the primitive
    idempotent outside it.

    A projective result is free over the local factor with rank equal to
    the matching multiplicity; a finite module's result is its cut, checked
    as a module over the factor.  Every element outside the ideal is
    verified to become a unit of the factor."""
    ideals = maximal_ideals(module.ring)
    if isinstance(ideal, int):
        index = ideal
        if not 0 <= index < len(ideals):
            raise ValueError(f"no maximal ideal with index {index}")
    else:
        try:
            index = ideals.index(frozenset(ideal))
        except ValueError:
            raise ValueError("the given set is not one of the maximal ideals") from None
    return _maximal_localizer(_idempotent_basis(module), index, ideals[index])(module)


def localize_at_element(
    module: Union[ProjectiveModule, FiniteModule], f: RingElement
) -> LocalizedView:
    """Invert the powers of f.

    In a finite commutative ring some power e of f is idempotent, and
    inverting f amounts to the same corner cut, by eR (f acts invertibly
    there).  A nilpotent f gives the zero localization."""
    module.ring._own(f)
    return _element_localizer(_idempotent_basis(module), f)(module)


# ---------------------------------------------------------------------------
# kernels, images, cokernels


def kernel_image_cokernel(f: RingMatrix) -> tuple[FiniteModule, FiniteModule, FiniteModule]:
    """Explicit ker, im, coker of the action x -> f x on column tuples, with
    the cardinality identity |ker| * |im| = |R|^cols asserted.  The images
    come from one product f @ X, the columns of X the domain points in
    enumeration order."""
    ring = f.ring
    if not ring.is_finite():
        raise UnsupportedRing("kernel enumeration needs a finite ring")
    payloads = [e.payload for e in ring.elements()]
    size = len(payloads)
    check_element_budget(size ** max(f.cols, f.rows), "carrier points")
    zero_domain = (ring._zero(),) * f.cols
    zero_codomain = (ring._zero(),) * f.rows
    add, scale = _tuple_rules(ring)
    domain = list(itertools.product(payloads, repeat=f.cols))
    count = len(domain)
    X = [x[i] for i in range(f.cols) for x in domain]
    Y = _matmul_payloads(ring, f.payloads, X, f.rows, f.cols, count)
    images = [Y[j::count] for j in range(count)]
    kernel_points = [x for x, y in zip(domain, images) if y == zero_codomain]
    image_points = list(dict.fromkeys(images))
    kernel = _LibraryModule(ring, kernel_points, zero_domain, add, scale, "ker(f)")
    image = _LibraryModule(ring, image_points, zero_codomain, add, scale, "im(f)")
    if len(kernel) * len(image) != size ** f.cols:
        raise AssertionError("|ker|*|im| != |R|^n; enumeration is broken")
    coker = _quotient_module(free_module(ring, f.rows), image_points, "coker(f)")
    return kernel, image, coker


# ---------------------------------------------------------------------------
# verifier reports


@dataclass(frozen=True)
class VerifierReport:
    """Outcome of one structural check: what ran, on what, how many instances,
    and the counterexample payload when the property failed."""

    name: str
    instance: str
    holds: bool
    checked: int
    details: tuple[str, ...] = ()
    counterexample: Optional[str] = None

    def verdict(self) -> str:
        return "holds" if self.holds else "violated"

    def lines(self) -> list[str]:
        out = [
            f"check={self.name} instance={self.instance} "
            f"verdict={self.verdict()} checked={self.checked}"
        ]
        out.extend(f"  {d}" for d in self.details)
        if self.counterexample is not None:
            out.append(f"  counterexample: {self.counterexample}")
        return out


@dataclass(frozen=True)
class RankVerdict:
    """Outcome of a constant-rank or stably-free check, with the
    disagreement when the free module the check predicts is not isomorphic
    to the module."""

    free: bool
    rank: Optional[int]
    localized_ranks: tuple[int, ...]
    counterexample: Optional[str] = None

    def describe(self) -> str:
        if self.counterexample is not None:
            return f"violated: {self.counterexample}"
        if self.free:
            return f"free of rank {self.rank}"
        return f"non-constant rank {self.localized_ranks}"


def refinement_verify(ring: Ring, splittings: int, bound: int) -> VerifierReport:
    """Refinement in the projective-class monoid: the generators are conical,
    and for each of ``splittings`` seeded random grids z11..z22, :func:`refine`
    finds a grid with the same row sums x1, x2 and column sums y1, y2."""
    presentation, _ = projective_monoid(ring)
    k = presentation.generator_count
    conical = conical_check(
        [presentation.element(tuple(int(j == i) for j in range(k))) for i in range(k)]
    )
    rng = random.Random(0)
    failures = 0
    for _ in range(splittings):
        z11, z12, z21, z22 = [
            presentation.element(tuple(rng.randint(0, 10) for _ in range(k)))
            for _ in range(4)
        ]
        x1, x2 = z11 + z12, z21 + z22
        y1, y2 = z11 + z21, z12 + z22
        witness = refine(x1, x2, y1, y2, bound=max(20, bound))
        if (
            witness is None
            or witness.row_sums() != (x1, x2)
            or witness.column_sums() != (y1, y2)
        ):
            failures += 1
    holds = conical and failures == 0
    return VerifierReport(
        name="refinement",
        instance=f"{ring.descriptor()} monoid={presentation.describe()}",
        holds=holds,
        checked=splittings,
        details=(
            f"free={presentation.is_free} conical={conical}",
            f"splittings refined: {splittings - failures}/{splittings}",
        ),
        counterexample=None if holds else "a splitting failed",
    )


def _compare_global_and_local(
    basis: IdempotentBasis, bound: int, localizers: list[_Localizer]
) -> tuple[int, int, Optional[str]]:
    """For every pair of projectives over ``basis`` with multiplicities up
    to the bound, compare global isomorphism with isomorphism of all the
    localizations.  ``localizers`` holds one view function per localization
    target, each built once and applied to every module.
    Returns (module count, pairs checked, first disagreement or None)."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    check_search_budget((bound + 1) ** (2 * len(basis)), "module pairs")
    vectors = list(itertools.product(range(bound + 1), repeat=len(basis)))
    modules = {t: ProjectiveModule(basis.ring, basis, t) for t in vectors}
    views = {t: [view(modules[t]) for view in localizers] for t in vectors}
    checked = 0
    for s in vectors:
        for t in vectors:
            checked += 1
            global_iso = module_iso(modules[s], modules[t])
            local_iso = all(
                module_iso(a.result, b.result)
                for a, b in zip(views[s], views[t])
            )
            if global_iso != local_iso:
                return len(vectors), checked, (
                    f"multiplicities {s} vs {t}:"
                    f" global={global_iso} local={local_iso}"
                )
    return len(vectors), checked, None


def local_global_verify(ring: Ring, bound: int) -> VerifierReport:
    """Isomorphism is detected by all maximal localizations together:
    exhaustively over multiplicity vectors with entries up to the bound,
    M iso N must agree with rank equality at every maximal ideal.  The
    maximal ideals are computed once; the corner of each is built and
    checked once, by the builder :func:`localize_at_maximal` uses, and
    shared by every module's view."""
    basis = primitive_idempotent_decomposition(ring)
    ideals = maximal_ideals(ring)
    localizers = [_maximal_localizer(basis, i, m) for i, m in enumerate(ideals)]
    count, checked, counterexample = _compare_global_and_local(basis, bound, localizers)
    holds = counterexample is None
    summary = f"{count} modules, {len(basis)} maximal ideals"
    return VerifierReport(
        name="local-global",
        instance=f"{ring.descriptor()} bound={bound}",
        holds=holds,
        checked=checked,
        details=(summary,) if holds else (),
        counterexample=counterexample,
    )


def partition_of_unity_verify(
    ring: Ring, generators: Iterable[RingElement], bound: int
) -> VerifierReport:
    """Like the local-global check, but localizing at finitely many elements
    that generate the unit ideal (verified by exhaustive combination search,
    one payload dot product per combination).  The corner of each generator
    is built and checked once, by the builder :func:`localize_at_element`
    uses, and shared by every module's view."""
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        ring._own(g)
    check_search_budget(ring.cardinality() ** len(gens), "unit combinations")
    payloads = [e.payload for e in ring.elements()]
    gen_payloads = [g.payload for g in gens]
    one = ring._one()
    combos = itertools.product(payloads, repeat=len(gens))
    witness = next((c for c in combos if ring._dot(gen_payloads, c) == one), None)
    if witness is None:
        raise ValueError(
            f"{[g.literal() for g in gens]} do not generate {ring.descriptor()}"
        )
    basis = primitive_idempotent_decomposition(ring)
    localizers = [_element_localizer(basis, g) for g in gens]
    _, checked, counterexample = _compare_global_and_local(basis, bound, localizers)
    holds = counterexample is None
    combination = " + ".join(
        f"{g.literal()}*{RingElement(ring, r).literal()}"
        for g, r in zip(gens, witness)
    )
    return VerifierReport(
        name="partition-of-unity",
        instance=(
            f"{ring.descriptor()} generators={[g.literal() for g in gens]}"
            f" bound={bound}"
        ),
        holds=holds,
        checked=checked,
        details=(f"unit combination: {combination} = 1",) if holds else (),
        counterexample=counterexample,
    )


def constant_rank_free_check(module: ProjectiveModule) -> RankVerdict:
    """Constant localized rank forces freeness; otherwise report the ranks.
    A constant-rank module that does not match R^r is reported as the
    counterexample."""
    k = len(module.basis)
    ranks = tuple(
        localize_at_maximal(module, i).free_rank for i in range(k)
    )
    first = ranks[0] if ranks else 0
    if all(r == first for r in ranks):
        free = free_projective(module.ring, first)
        if not module_iso(module, free):
            return RankVerdict(
                False,
                None,
                ranks,
                f"{module.describe()} has constant rank {first}"
                f" but is not isomorphic to R^{first}",
            )
        return RankVerdict(True, first, ranks)
    return RankVerdict(False, None, ranks)


def stably_free_check(module: ProjectiveModule, a: int, b: int) -> RankVerdict:
    """Given the claim M + R^a = R^b, conclude M = R^(b-a), verified; a
    module that does not match R^(b-a) is reported as the counterexample."""
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    for i, t in enumerate(module.multiplicities):
        if t + a != b:
            raise ValueError(
                f"claim M (+) R^{a} = R^{b} fails at slot {i}: {t} + {a} != {b}"
            )
    rank = b - a
    free = free_projective(module.ring, rank)
    if not module_iso(module, free):
        return RankVerdict(
            False,
            None,
            module.multiplicities,
            f"{module.describe()} (+) R^{a} = R^{b}"
            f" but {module.describe()} is not isomorphic to R^{rank}",
        )
    return RankVerdict(True, rank, module.multiplicities)


def diagonal_refinement_check(f: RingMatrix) -> VerifierReport:
    """For a regular matrix with diagonal form diag(d_1..d_r): each index must
    satisfy ann(d_j) (+) d_j R = R and R/d_j R (+) d_j R = R, checked by
    :func:`module_iso`: by the sizes |q*M| over Z/n, by explicit isomorphism
    search over other rings.  Cardinalities of the full kernel, image, and
    cokernel are cross-checked against the per-index factors when enumerable."""
    if not f.ring.is_finite():
        raise UnsupportedRing("the refinement check enumerates modules; finite only")
    return _diagonal_refinement(f, ring_module(f.ring))


def _diagonal_refinement(f: RingMatrix, unit_module: FiniteModule) -> VerifierReport:
    """:func:`diagonal_refinement_check` of f over a finite ring, against the
    given ``ring_module(f.ring)``: callers that check many matrices over one
    ring share it, and with it what :func:`module_iso` keeps on it (its
    sizes |q*R| over Z/n, its points' annihilators for the search)."""
    ring = f.ring
    g, diag = _regularity(f)
    if g is None:
        raise ValueError("the matrix is not regular; the criterion does not apply")
    if diag is None:
        raise UnsupportedRing(
            f"no reduction available over {ring.descriptor()}; pass a diagonal matrix"
        )
    r = len(diag)
    details = []
    checked = 0
    factor_sizes = []

    def report(count: int, failure: Optional[str] = None) -> VerifierReport:
        instance = f"{ring.descriptor()} {f.rows}x{f.cols}"
        holds = failure is None
        return VerifierReport(
            "diagonal-refinement", instance, holds, count, tuple(details), failure
        )

    for j, d in enumerate(diag):
        K = annihilator_submodule(d)
        I = cyclic_submodule(d)
        C = quotient_by_cyclic(d)
        factor_sizes.append((len(K), len(I), len(C)))
        ok_kernel = module_iso(direct_sum(K, I), unit_module)
        ok_cokernel = module_iso(direct_sum(C, I), unit_module)
        checked += 2
        details.append(
            f"j={j + 1} d={d.literal()}"
            f" ann(+)dR={'ok' if ok_kernel else 'FAIL'}"
            f" quot(+)dR={'ok' if ok_cokernel else 'FAIL'}"
        )
        if not (ok_kernel and ok_cokernel):
            return report(checked, f"index {j + 1}, entry {d.literal()}")
    if f.rows != f.cols:
        extra = abs(f.rows - f.cols)
        side = "cokernel" if f.rows > f.cols else "kernel"
        details.append(
            f"{extra} trailing {side} summand(s) free of rank 1 (no paired index)"
        )
    try:
        kernel, image, coker = kernel_image_cokernel(f)
    except BudgetExceeded:
        details.append("cardinality cross-check skipped (carrier over budget)")
    else:
        size = ring.cardinality()
        expect_ker = prod(k for k, _, _ in factor_sizes) * size ** (f.cols - r)
        expect_im = prod(i for _, i, _ in factor_sizes)
        expect_coker = prod(c for _, _, c in factor_sizes) * size ** (f.rows - r)
        if (len(kernel), len(image), len(coker)) != (
            expect_ker,
            expect_im,
            expect_coker,
        ):
            return report(
                checked + 1,
                f"cardinalities ker/im/coker = {len(kernel)}/{len(image)}/"
                f"{len(coker)}, expected {expect_ker}/{expect_im}/{expect_coker}",
            )
        checked += 1
        details.append("kernel/image/cokernel cardinalities match the factors")
    return report(checked)


def decomposition_verify(ring: Ring) -> VerifierReport:
    """:func:`diagonal_refinement_check` on the 1x1 matrix [a] for every
    regular element a of the ring, all against one ``ring_module(ring)``."""
    regular = [a for a in ring.elements() if is_regular_element(a)[0]]
    unit_module = ring_module(ring)
    failing = [
        a.literal()
        for a in regular
        if not _diagonal_refinement(RingMatrix.from_rows(ring, [[a]]), unit_module).holds
    ]
    return VerifierReport(
        name="decomposition",
        instance=f"{ring.descriptor()} regular 1x1",
        holds=not failing,
        checked=len(regular),
        counterexample=(
            f"diagonal refinement fails for [a] with a in {failing}" if failing else None
        ),
    )


@dataclass(frozen=True)
class _SmallShapeSweep:
    """One sweep of the small shapes over a ring: the radical and quotient,
    the matrix and regular counts with one note per shape, and the first
    regular matrix whose projected reduction failed over the quotient."""

    radical: tuple[RingElement, ...]
    quotient: Ring
    seen: int
    regular: int
    notes: tuple[str, ...]
    bad: Optional[RingMatrix]


def _small_shape_sweep(ring: Ring) -> _SmallShapeSweep:
    """Reduce each matrix of the shapes 1x1, 1x2, 2x1 (2x2 when |R|^4 fits
    the element budget) on bare payload tuples, and count the regular ones
    (all diagonal payloads of D regular).

    Z/n is the product of its local factors e_i Z/n = Z/q_i, one per
    primitive idempotent e_i, with q_i = n / gcd(e_i, n) and components
    x -> x mod q_i (CRT).  For each shape the elimination runs once on every
    matrix over each factor, and each factor's distinct (P, P_inv) and
    (Q, Q_inv) pairs get an id.  Each matrix over R, in payload order, gets
    its transform pairs joined entry by entry as sum(e_i * x_i) mod n, once
    per sweep call for each tuple of factor ids, and its D joined from its
    components' D.  That witness is checked over R by ``_check_reduction``,
    regular or not, with one set of verified pairs for the whole call: each
    distinct pair is multiplied out once, and D and P a Q == D are checked
    for every matrix.  A local ring is one factor with e = 1, so its join is
    the identity.  Each regular reduction is mapped through the radical,
    entry by entry, and checked over R/J(R) by the same payload check, with
    a set of its own, until one fails; when J(R) = 0 the projection is the
    identity and would repeat the check just made.  Only a failing matrix is
    wrapped as a ``RingMatrix``."""
    size = ring.cardinality()
    shapes = [(1, 1), (1, 2), (2, 1)]
    if size ** 4 <= element_budget():
        shapes.append((2, 2))
    check_search_budget(sum(size ** (r * c) for r, c in shapes), "small matrices")
    radical, quotient, project = jacobson_radical_and_quotient(ring)
    elements = ring.elements()
    regular_payloads = {a.payload for a in elements if is_regular_element(a)[0]}
    image = {a.payload: project(a).payload for a in elements}
    n = ring.modulus
    basis = primitive_idempotent_decomposition(ring)
    factors = [(e.payload, ModularRing(n // gcd(e.payload, n))) for e in basis.elements]
    components = {x: tuple([x % f.modulus for _, f in factors]) for x in image}
    # per factor: each transform pair, flattened and scaled by the
    # idempotent, mapped to its id (dicts keep ids in insertion order)
    pair_ids = [{} for _ in factors]
    # each tuple of factor ids, one per factor, to its pair joined over R
    joined = {}
    # the pairs already multiplied out over R, and over R/J(R)
    verified, projected = set(), set()
    seen = regular_count = 0
    notes = []
    bad = None
    for rows, cols in shapes:
        slots = rows * cols
        # each factor matrix's (P pair id, Q pair id, D scaled by e)
        tables = []
        for (e, f), ids in zip(factors, pair_ids):
            table = {}
            for combo in itertools.product(range(f.modulus), repeat=slots):
                P, Pi, Q, Qi, D = _eliminate_payloads(f, combo, rows, cols)
                p_pair = tuple([e * x for x in P + Pi])
                q_pair = tuple([e * x for x in Q + Qi])
                table[combo] = (
                    ids.setdefault(p_pair, len(ids)),
                    ids.setdefault(q_pair, len(ids)),
                    tuple([e * x for x in D]),
                )
            tables.append(table)
        pairs = [list(ids) for ids in pair_ids]
        shape_regular = 0
        # the keys of ``image`` are the ring's payloads in enumeration order
        for combo in itertools.product(image, repeat=slots):
            # one tuple of combo's components per factor, in factor order
            parts = zip(*[components[x] for x in combo])
            p_key, q_key, scaled_D = zip(*map(dict.__getitem__, tables, parts))
            for key in (p_key, q_key):
                if key not in joined:
                    flat = [sum(column) % n for column in zip(*map(list.__getitem__, pairs, key))]
                    half = len(flat) // 2
                    joined[key] = (tuple(flat[:half]), tuple(flat[half:]))
            D = tuple([sum(column) % n for column in zip(*scaled_D)])
            witness = (*joined[p_key], *joined[q_key], D)
            _check_reduction(ring, combo, rows, cols, witness, verified)
            if any(D[i * cols + i] not in regular_payloads for i in range(min(rows, cols))):
                continue
            shape_regular += 1
            if len(radical) > 1 and bad is None:
                mapped = [tuple([image[p] for p in t]) for t in (combo, *witness)]
                if not _reduction_holds(quotient, mapped[0], rows, cols, *mapped[1:], projected):
                    bad = RingMatrix(ring, rows, cols, combo)
        shape_total = size ** slots
        seen += shape_total
        regular_count += shape_regular
        notes.append(f"shape {rows}x{cols}: {shape_regular}/{shape_total} regular")
    return _SmallShapeSweep(radical, quotient, seen, regular_count, tuple(notes), bad)


def _cancellation_report(
    ring: Ring, bound: int, sweep: _SmallShapeSweep
) -> VerifierReport:
    presentation, basis = projective_monoid(ring)
    unit = presentation.element((1,) * len(basis))
    candidates = cancellation_candidates(presentation, bound)
    cancel = cancellation_law_check(unit, candidates)
    return VerifierReport(
        name="cancellation-and-reduction",
        instance=f"{ring.descriptor()} bound={bound}",
        holds=cancel.holds,
        checked=cancel.pairs_checked + sweep.seen,
        details=(
            f"cancellation pairs checked: {cancel.pairs_checked}",
            f"matrices examined: {sweep.seen}, regular and reduced: {sweep.regular}",
            *sweep.notes,
        ),
        counterexample=(
            None
            if cancel.holds
            else f"monoid pair A={cancel.counterexample[0].exponents}"
            f" B={cancel.counterexample[1].exponents}"
        ),
    )


def _require_verify_ring(ring: Ring) -> None:
    """The one ring gate of the verify suite and its matrix sections."""
    if not isinstance(ring, ModularRing):
        raise UnsupportedRing(
            f"the verify suite runs over modular rings, got {ring.descriptor()}"
        )


def cancellation_and_reduction_verify(ring: Ring, bound: int) -> VerifierReport:
    """The two faces of diagonal reducibility, both checked at desk scale:
    the cancellation law 2u+A = u+B implies u+A = B in the projective-class
    monoid, and witnessed reduction of every small regular matrix."""
    _require_verify_ring(ring)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    return _cancellation_report(ring, bound, _small_shape_sweep(ring))


def _jacobson_report(ring: Ring, sweep: _SmallShapeSweep) -> VerifierReport:
    quotient, bad = sweep.quotient, sweep.bad
    # with J(R) = 0 the quotient has the ring's payloads and operations
    over_q = sweep if len(sweep.radical) == 1 else _small_shape_sweep(quotient)
    outcome = (
        "all reduced and projected"
        if bad is None
        else "all reduced, projections stopped at a failure"
    )
    return VerifierReport(
        name="jacobson-lift",
        instance=ring.descriptor(),
        holds=bad is None,
        checked=over_q.seen + sweep.seen,
        details=(
            f"radical: {{{', '.join(str(a.literal()) for a in sweep.radical)}}}",
            f"quotient: {quotient.descriptor()}",
            f"over quotient: {over_q.regular}/{over_q.seen} regular, all reduced",
            f"over ring: {sweep.regular}/{sweep.seen} regular, {outcome}",
            *(f"quotient {n}" for n in over_q.notes),
            *(f"ring {n}" for n in sweep.notes),
        ),
        counterexample=(
            None
            if bad is None
            else f"{bad.rows}x{bad.cols} matrix"
            f" {[[e.literal() for e in row] for row in bad.row_list()]}:"
            f" its projected reduction is not a reduction over"
            f" {quotient.descriptor()}"
        ),
    )


def jacobson_lift_verify(ring: Ring) -> VerifierReport:
    """Reduction lifts through the radical: every small regular matrix over
    R/J(R) reduces, every one over R reduces, and each reduction over R
    projects to a reduction over R/J(R)."""
    _require_verify_ring(ring)
    return _jacobson_report(ring, _small_shape_sweep(ring))


def verify_suite(
    ring: Ring, bound: int, generators: Iterable[RingElement]
) -> list[VerifierReport]:
    """The six sections of ``ringlab verify`` over a modular ring, in order;
    one small-shape sweep feeds the cancellation and the Jacobson reports.
    The ring gate runs first; lazy ``generators`` are read after it and
    before the bound check, the order in which the CLI reports bad input."""
    _require_verify_ring(ring)
    gens = tuple(generators)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    sweep = _small_shape_sweep(ring)
    return [
        refinement_verify(ring, 100, bound),
        local_global_verify(ring, bound),
        partition_of_unity_verify(ring, gens, min(bound, 2)),
        _cancellation_report(ring, bound, sweep),
        _jacobson_report(ring, sweep),
        decomposition_verify(ring),
    ]
