"""Finitely generated modules over finite commutative rings.

Two representations coexist.  A ``ProjectiveModule`` is a multiplicity vector
over the ring's primitive idempotents (the module is the direct sum of that
many copies of each corner ``e_i R``), which makes isomorphism testing exact
and localization a coordinate projection.  A ``FiniteModule`` carries its
points explicitly, so kernels, images, cokernels, and brute-force isomorphism
searches all run by enumeration.

The verifiers at the bottom each check one structural statement about these
modules (local-global detection of isomorphism, partitions of unity, constant
rank implying free, cancellation plus diagonal reduction, lifting reductions
through the radical) and return a ``VerifierReport`` with counts and, on
failure, a counterexample payload.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import prod
from typing import Any, Callable, Iterable, Optional, Union

from .errors import (
    BudgetExceeded,
    MismatchedRings,
    UnsupportedRing,
    element_budget,
    search_budget,
)
from .matrices import (
    DiagonalReduction,
    RingMatrix,
    _matmul_payloads,
    diagonal_reduction,
    is_regular_matrix,
    verify_reduction,
)
from .monoids import MonoidPresentation, cancellation_law_check
from .rings import (
    CornerRing,
    IdempotentBasis,
    ModularRing,
    Ring,
    RingElement,
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
    rules (scale takes a ring payload first).  Module axioms are verified on
    construction, exhaustively where the carrier is small and on a seeded
    sample otherwise; carriers above 512 points skip the check.
    """

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
        if zero not in self.point_set:
            raise ValueError("carrier does not contain the zero point")
        if len(self.points) <= _AXIOM_CHECK_LIMIT:
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

    def scale_element(self, r: RingElement, x: Any) -> Any:
        self.ring._own(r)
        return self.scale(r.payload, x)

    def annihilator(self) -> frozenset:
        """Ring payloads killing every point."""
        out = None
        for x in self.points:
            a = self.element_annihilator(x)
            out = a if out is None else out & a
        return out if out is not None else frozenset()

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

    def span(self, generators: Iterable[Any]) -> frozenset:
        scalars = [e.payload for e in self.ring.elements()]
        current = {self.zero}
        for g in generators:
            current = {
                self.add(x, self.scale(r, g)) for x in current for r in scalars
            }
        return frozenset(current)

    def generators(self) -> tuple[Any, ...]:
        """A greedy generating sequence: walk the carrier in order, keeping
        each point not yet in the span of the ones kept so far."""
        scalars = [e.payload for e in self.ring.elements()]
        gens: list[Any] = []
        reached = {self.zero}
        for x in self.points:
            if x in reached:
                continue
            gens.append(x)
            reached = {
                self.add(y, self.scale(r, x)) for y in reached for r in scalars
            }
            if len(reached) == len(self.points):
                break
        return tuple(gens)


def ring_module(ring: Ring, label: str = "R") -> FiniteModule:
    """The ring as a module over itself."""
    points = [e.payload for e in ring.elements()]
    return FiniteModule(ring, points, ring._zero(), ring._add, ring._mul, label)


def free_module(ring: Ring, rank: int, budget: int | None = None) -> FiniteModule:
    """R^rank with points stored as payload tuples."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    payloads = [e.payload for e in ring.elements()]
    count = len(payloads) ** rank
    if count > element_budget(budget):
        raise BudgetExceeded(f"free module carrier of size {count} exceeds the budget")
    points = list(itertools.product(payloads, repeat=rank))
    zero = (ring._zero(),) * rank
    add = lambda x, y: tuple(ring._add(a, b) for a, b in zip(x, y))
    scale = lambda r, x: tuple(ring._mul(r, a) for a in x)
    return FiniteModule(ring, points, zero, add, scale, f"R^{rank}")


def submodule_of_ring(ring: Ring, points: Iterable[Any], label: str) -> FiniteModule:
    """A subset of the ring closed under addition and the ring action."""
    return FiniteModule(ring, points, ring._zero(), ring._add, ring._mul, label)


def cyclic_submodule(d: RingElement) -> FiniteModule:
    """The principal ideal d*R as a module."""
    ring = d.ring
    seen = set()
    points = []
    for r in ring.elements():
        p = (d * r).payload
        if p not in seen:
            seen.add(p)
            points.append(p)
    return submodule_of_ring(ring, points, f"{d.literal()}R")


def annihilator_submodule(d: RingElement) -> FiniteModule:
    """ann(d) = everything d kills."""
    ring = d.ring
    points = [e.payload for e in ring.elements() if (d * e).is_zero()]
    return submodule_of_ring(ring, points, f"ann({d.literal()})")


def quotient_by_cyclic(d: RingElement) -> FiniteModule:
    """R/dR with first-in-order coset representatives."""
    ring = d.ring
    ideal = {(d * r).payload for r in ring.elements()}
    rep_of: dict[Any, Any] = {}
    reps = []
    for e in ring.elements():
        p = e.payload
        if p in rep_of:
            continue
        reps.append(p)
        for i in ideal:
            rep_of[ring._add(p, i)] = p
    add = lambda x, y: rep_of[ring._add(x, y)]
    scale = lambda r, x: rep_of[ring._mul(r, x)]
    return FiniteModule(
        ring, reps, rep_of[ring._zero()], add, scale, f"R/{d.literal()}R"
    )


def direct_sum(left: FiniteModule, right: FiniteModule) -> FiniteModule:
    if left.ring != right.ring:
        raise MismatchedRings("direct sum needs a common base ring")
    points = [(a, b) for a in left.points for b in right.points]
    zero = (left.zero, right.zero)
    add = lambda x, y: (left.add(x[0], y[0]), right.add(x[1], y[1]))
    scale = lambda r, x: (left.scale(r, x[0]), right.scale(r, x[1]))
    return FiniteModule(
        left.ring, points, zero, add, scale, f"{left.label}(+){right.label}"
    )


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
        sizes = []
        for e in self.basis.elements:
            sizes.append(len({(e * r).payload for r in self.ring.elements()}))
        return tuple(sizes)

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


def to_finite_module(
    module: ProjectiveModule, budget: int | None = None
) -> FiniteModule:
    """Expand the multiplicity form into an explicit carrier of slot tuples."""
    ring = module.ring
    if module.carrier_cardinality() > element_budget(budget):
        raise BudgetExceeded(
            f"carrier of size {module.carrier_cardinality()} exceeds the budget"
        )
    slot_domains: list[list[Any]] = []
    for e, t in zip(module.basis.elements, module.multiplicities):
        members = []
        seen = set()
        for r in ring.elements():
            p = (e * r).payload
            if p not in seen:
                seen.add(p)
                members.append(p)
        slot_domains.extend([members] * t)
    points = list(itertools.product(*slot_domains)) if slot_domains else [()]
    zero = (ring._zero(),) * len(slot_domains)
    add = lambda x, y: tuple(ring._add(a, b) for a, b in zip(x, y))
    scale = lambda r, x: tuple(ring._mul(r, a) for a in x)
    return FiniteModule(ring, points, zero, add, scale, module.describe())


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


def find_module_isomorphism(
    left: FiniteModule, right: FiniteModule, budget: int | None = None
) -> Optional[dict]:
    """An explicit isomorphism as a point map, or None.

    Searches homomorphisms seeded by generator images; each candidate image
    must annihilate at least what the generator annihilates.  The incremental
    span closure visits every representation of every point, so a completed
    map is automatically well defined, additive, and scalar-compatible;
    bijectivity is then a cardinality check on the image.
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
    scalars = [e.payload for e in left.ring.elements()]
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
    cap = search_budget(budget)
    if total > cap:
        raise BudgetExceeded(
            f"{total} candidate generator images exceed the search budget {cap}"
        )

    def extend(mapping: dict, g: Any, image: Any) -> Optional[dict]:
        new = dict(mapping)
        for x, fx in mapping.items():
            for r in scalars:
                p = left.add(x, left.scale(r, g))
                q = right.add(fx, right.scale(r, image))
                seen = new.get(p)
                if seen is None:
                    new[p] = q
                elif seen != q:
                    return None
        return new

    def search(index: int, mapping: dict) -> Optional[dict]:
        if index == len(gens):
            if len(set(mapping.values())) == len(right):
                return mapping
            return None
        for image in candidates[index]:
            grown = extend(mapping, gens[index], image)
            if grown is not None:
                found = search(index + 1, grown)
                if found is not None:
                    return found
        return None

    return search(0, {left.zero: right.zero})


def module_iso(
    left: Union[ProjectiveModule, FiniteModule],
    right: Union[ProjectiveModule, FiniteModule],
    budget: int | None = None,
) -> bool:
    """Isomorphism test: exact multiplicity comparison for projectives,
    generator-seeded search for explicit carriers, expansion for a mix."""
    if isinstance(left, ProjectiveModule) and isinstance(right, ProjectiveModule):
        if left.ring != right.ring:
            raise MismatchedRings("isomorphism testing needs a common base ring")
        if left.basis != right.basis:
            raise ValueError("modules use different idempotent bases")
        return left.multiplicities == right.multiplicities
    if isinstance(left, ProjectiveModule):
        left = to_finite_module(left, budget)
    if isinstance(right, ProjectiveModule):
        right = to_finite_module(right, budget)
    return find_module_isomorphism(left, right, budget) is not None


# ---------------------------------------------------------------------------
# localization


@dataclass(frozen=True)
class LocalizedView:
    """A module after inverting a multiplicative set: at a maximal ideal
    (target is the ideal's index) or at the powers of one element (target is
    that element).  The factor ring is the corner realizing the localization;
    every member of the multiplicative set was checked to become a unit."""

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


def localize_at_maximal(
    module: ProjectiveModule, ideal: Union[int, frozenset]
) -> LocalizedView:
    """Restrict to the corner complementary to a maximal ideal.

    The result is free over the local factor with rank equal to the matching
    multiplicity.  Every element outside the ideal is verified to become a
    unit of the factor."""
    ring = module.ring
    ideals = maximal_ideals(ring)
    if isinstance(ideal, int):
        index = ideal
        if not 0 <= index < len(ideals):
            raise ValueError(f"no maximal ideal with index {index}")
    else:
        try:
            index = ideals.index(frozenset(ideal))
        except ValueError:
            raise ValueError("the given set is not one of the maximal ideals") from None
    e = module.basis.elements[index]
    factor = CornerRing(ring, e)
    ideal_set = ideals[index]
    for s in ring.elements():
        if s in ideal_set:
            continue
        if factor.try_inverse(factor.from_ambient(s)) is None:
            raise AssertionError(
                f"{s!r} lies outside the ideal but does not invert in the factor"
            )
    factor_basis = primitive_idempotent_decomposition(factor)
    if len(factor_basis) != 1:
        raise AssertionError("corner of a primitive idempotent is not local")
    rank = module.multiplicities[index]
    result = ProjectiveModule(factor, factor_basis, (rank,))
    return LocalizedView(module, "maximal", index, factor, result, rank)


def localize_at_element(
    module: Union[ProjectiveModule, FiniteModule], f: RingElement
) -> LocalizedView:
    """Invert the powers of f.

    In a finite commutative ring some power e of f is idempotent, and
    inverting f amounts to cutting down to the corner eR (f acts invertibly
    there).  A nilpotent f gives the zero localization."""
    ring = module.ring if isinstance(module, ProjectiveModule) else module.ring
    ring._own(f)
    e = idempotent_power(f)
    factor = CornerRing(ring, e)
    power = ring.one()
    seen = set()
    while power.payload not in seen:
        seen.add(power.payload)
        image = factor.from_ambient(power)
        if factor.try_inverse(image) is None:
            raise AssertionError(
                f"power {power!r} of {f!r} does not invert in the factor"
            )
        power = power * f
    if isinstance(module, ProjectiveModule):
        factor_basis = primitive_idempotent_decomposition(factor)
        mults = []
        for c in factor_basis.elements:
            matches = [
                i
                for i, ei in enumerate(module.basis.elements)
                if (e * ei).payload == c.payload
            ]
            if len(matches) != 1:
                raise AssertionError(
                    "corner idempotent does not match exactly one ambient idempotent"
                )
            mults.append(module.multiplicities[matches[0]])
        result: Union[ProjectiveModule, FiniteModule] = ProjectiveModule(
            factor, factor_basis, tuple(mults)
        )
    else:
        ep = e.payload
        seen_pts = set()
        points = []
        for x in module.points:
            y = module.scale(ep, x)
            if y not in seen_pts:
                seen_pts.add(y)
                points.append(y)
        fp = f.payload
        images = {module.scale(fp, x) for x in points}
        if images != set(points):
            raise AssertionError("f does not act bijectively on the localization")
        result = FiniteModule(
            factor,
            points,
            module.zero,
            module.add,
            module.scale,
            f"({module.label})_({f.literal()})",
        )
    return LocalizedView(module, "element", f, factor, result, None)


# ---------------------------------------------------------------------------
# kernels, images, cokernels


def _matrix_action(f: RingMatrix) -> Callable[[tuple], tuple]:
    ring, rows, cols = f.ring, f.rows, f.cols
    flat = f.payloads()
    return lambda x: tuple(_matmul_payloads(ring, flat, x, rows, cols, 1))


def kernel_image_cokernel(
    f: RingMatrix, budget: int | None = None
) -> tuple[FiniteModule, FiniteModule, FiniteModule]:
    """Explicit ker, im, coker of the action x -> f x on column tuples, with
    the cardinality identity |ker| * |im| = |R|^cols asserted."""
    ring = f.ring
    if not ring.is_finite():
        raise UnsupportedRing("kernel enumeration needs a finite ring")
    payloads = [e.payload for e in ring.elements()]
    size = len(payloads)
    cap = element_budget(budget)
    if size ** f.cols > cap or size ** f.rows > cap:
        raise BudgetExceeded(
            f"carrier {size}^{max(f.cols, f.rows)} exceeds the element budget {cap}"
        )
    act = _matrix_action(f)
    zero_domain = (ring._zero(),) * f.cols
    zero_codomain = (ring._zero(),) * f.rows
    add_domain = lambda x, y: tuple(ring._add(a, b) for a, b in zip(x, y))
    add_codomain = add_domain
    scale_tuple = lambda r, x: tuple(ring._mul(r, a) for a in x)
    kernel_points = []
    image_points = []
    image_seen = set()
    for x in itertools.product(payloads, repeat=f.cols):
        y = act(x)
        if y == zero_codomain:
            kernel_points.append(x)
        if y not in image_seen:
            image_seen.add(y)
            image_points.append(y)
    kernel = FiniteModule(
        ring, kernel_points, zero_domain, add_domain, scale_tuple, "ker(f)"
    )
    image = FiniteModule(
        ring, image_points, zero_codomain, add_codomain, scale_tuple, "im(f)"
    )
    if len(kernel) * len(image) != size ** f.cols:
        raise AssertionError("|ker|*|im| != |R|^n; enumeration is broken")
    rep_of: dict[tuple, tuple] = {}
    reps = []
    for y in itertools.product(payloads, repeat=f.rows):
        if y in rep_of:
            continue
        reps.append(y)
        for w in image_points:
            rep_of[add_codomain(y, w)] = y
    coker = FiniteModule(
        ring,
        reps,
        rep_of[zero_codomain],
        lambda x, y: rep_of[add_codomain(x, y)],
        lambda r, x: rep_of[scale_tuple(r, x)],
        "coker(f)",
    )
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
    """Outcome of a constant-rank or stably-free check."""

    free: bool
    rank: Optional[int]
    localized_ranks: tuple[int, ...]

    def describe(self) -> str:
        if self.free:
            return f"free of rank {self.rank}"
        return f"non-constant rank {self.localized_ranks}"


def local_global_verify(
    ring: Ring, bound: int, budget: int | None = None
) -> VerifierReport:
    """Isomorphism is detected by all maximal localizations together:
    exhaustively over multiplicity vectors with entries up to the bound,
    M iso N must agree with rank equality at every maximal ideal."""
    basis = primitive_idempotent_decomposition(ring)
    k = len(basis)
    vectors = list(itertools.product(range(bound + 1), repeat=k))
    views = {}
    for t in vectors:
        module = ProjectiveModule(ring, basis, t)
        views[t] = tuple(localize_at_maximal(module, i) for i in range(k))
    checked = 0
    for s in vectors:
        for t in vectors:
            checked += 1
            global_iso = module_iso(
                ProjectiveModule(ring, basis, s), ProjectiveModule(ring, basis, t)
            )
            local_iso = all(
                module_iso(a.result, b.result)
                for a, b in zip(views[s], views[t])
            )
            if global_iso != local_iso:
                return VerifierReport(
                    name="local-global",
                    instance=f"{ring.descriptor()} bound={bound}",
                    holds=False,
                    checked=checked,
                    counterexample=(
                        f"multiplicities {s} vs {t}:"
                        f" global={global_iso} local={local_iso}"
                    ),
                )
    return VerifierReport(
        name="local-global",
        instance=f"{ring.descriptor()} bound={bound}",
        holds=True,
        checked=checked,
        details=(
            f"{len(vectors)} modules, {len(maximal_ideals(ring))} maximal ideals",
        ),
    )


def partition_of_unity_verify(
    ring: Ring,
    generators: Iterable[RingElement],
    bound: int,
    budget: int | None = None,
) -> VerifierReport:
    """Like the local-global check, but localizing at finitely many elements
    that generate the unit ideal (verified by exhaustive combination search)."""
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        ring._own(g)
    elements = ring.elements()
    one = ring.one()
    witness = None
    for combo in itertools.product(elements, repeat=len(gens)):
        total = ring.zero()
        for g, r in zip(gens, combo):
            total = total + g * r
        if total == one:
            witness = combo
            break
    if witness is None:
        raise ValueError(
            f"{[g.literal() for g in gens]} do not generate {ring.descriptor()}"
        )
    basis = primitive_idempotent_decomposition(ring)
    k = len(basis)
    vectors = list(itertools.product(range(bound + 1), repeat=k))
    views = {}
    for t in vectors:
        module = ProjectiveModule(ring, basis, t)
        views[t] = tuple(localize_at_element(module, g) for g in gens)
    checked = 0
    for s in vectors:
        for t in vectors:
            checked += 1
            global_iso = module_iso(
                ProjectiveModule(ring, basis, s), ProjectiveModule(ring, basis, t)
            )
            local_iso = all(
                module_iso(a.result, b.result)
                for a, b in zip(views[s], views[t])
            )
            if global_iso != local_iso:
                return VerifierReport(
                    name="partition-of-unity",
                    instance=(
                        f"{ring.descriptor()} generators="
                        f"{[g.literal() for g in gens]} bound={bound}"
                    ),
                    holds=False,
                    checked=checked,
                    counterexample=(
                        f"multiplicities {s} vs {t}:"
                        f" global={global_iso} local={local_iso}"
                    ),
                )
    combination = " + ".join(
        f"{g.literal()}*{r.literal()}" for g, r in zip(gens, witness)
    )
    return VerifierReport(
        name="partition-of-unity",
        instance=(
            f"{ring.descriptor()} generators={[g.literal() for g in gens]}"
            f" bound={bound}"
        ),
        holds=True,
        checked=checked,
        details=(f"unit combination: {combination} = 1",),
    )


def constant_rank_free_check(module: ProjectiveModule) -> RankVerdict:
    """Constant localized rank forces freeness; otherwise report the ranks."""
    k = len(module.basis)
    ranks = tuple(
        localize_at_maximal(module, i).free_rank for i in range(k)
    )
    first = ranks[0] if ranks else 0
    if all(r == first for r in ranks):
        free = free_projective(module.ring, first)
        if not module_iso(module, free):
            raise AssertionError("constant-rank module failed to match R^r")
        return RankVerdict(True, first, ranks)
    return RankVerdict(False, None, ranks)


def stably_free_check(module: ProjectiveModule, a: int, b: int) -> RankVerdict:
    """Given the claim M + R^a = R^b, conclude M = R^(b-a), verified."""
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
        raise AssertionError("stably free module failed to match R^(b-a)")
    return RankVerdict(True, rank, module.multiplicities)


def diagonal_refinement_check(
    f: RingMatrix, budget: int | None = None
) -> VerifierReport:
    """For a regular matrix with diagonal form diag(d_1..d_r): each index must
    satisfy ann(d_j) (+) d_j R = R and R/d_j R (+) d_j R = R, checked by
    explicit isomorphism search.  Cardinalities of the full kernel, image, and
    cokernel are cross-checked against the per-index factors when enumerable."""
    ring = f.ring
    if not ring.is_finite():
        raise UnsupportedRing("the refinement check enumerates modules; finite only")
    regular, _ = is_regular_matrix(f, budget=budget)
    if not regular:
        raise ValueError("the matrix is not regular; the criterion does not apply")
    if isinstance(ring, ModularRing):
        red = diagonal_reduction(f)
        diag = red.diagonal()
    elif f.is_diagonal():
        diag = f.diagonal_entries()
    else:
        raise UnsupportedRing(
            f"no reduction available over {ring.descriptor()}; pass a diagonal matrix"
        )
    r = len(diag)
    unit_module = ring_module(ring)
    details = []
    checked = 0
    for j, d in enumerate(diag):
        K = annihilator_submodule(d)
        I = cyclic_submodule(d)
        C = quotient_by_cyclic(d)
        ok_kernel = module_iso(direct_sum(K, I), unit_module, budget)
        ok_cokernel = module_iso(direct_sum(C, I), unit_module, budget)
        checked += 2
        details.append(
            f"j={j + 1} d={d.literal()}"
            f" ann(+)dR={'ok' if ok_kernel else 'FAIL'}"
            f" quot(+)dR={'ok' if ok_cokernel else 'FAIL'}"
        )
        if not (ok_kernel and ok_cokernel):
            return VerifierReport(
                name="diagonal-refinement",
                instance=f"{ring.descriptor()} {f.rows}x{f.cols}",
                holds=False,
                checked=checked,
                details=tuple(details),
                counterexample=f"index {j + 1}, entry {d.literal()}",
            )
    if f.rows != f.cols:
        extra = abs(f.rows - f.cols)
        side = "cokernel" if f.rows > f.cols else "kernel"
        details.append(
            f"{extra} trailing {side} summand(s) free of rank 1 (no paired index)"
        )
    try:
        kernel, image, coker = kernel_image_cokernel(f, budget)
    except BudgetExceeded:
        details.append("cardinality cross-check skipped (carrier over budget)")
    else:
        size = ring.cardinality()
        expect_ker = prod(
            len(annihilator_submodule(d)) for d in diag
        ) * size ** (f.cols - r)
        expect_im = prod(len(cyclic_submodule(d)) for d in diag)
        expect_coker = prod(
            len(quotient_by_cyclic(d)) for d in diag
        ) * size ** (f.rows - r)
        if (len(kernel), len(image), len(coker)) != (
            expect_ker,
            expect_im,
            expect_coker,
        ):
            return VerifierReport(
                name="diagonal-refinement",
                instance=f"{ring.descriptor()} {f.rows}x{f.cols}",
                holds=False,
                checked=checked + 1,
                details=tuple(details),
                counterexample=(
                    f"cardinalities ker/im/coker = {len(kernel)}/{len(image)}/"
                    f"{len(coker)}, expected {expect_ker}/{expect_im}/{expect_coker}"
                ),
            )
        checked += 1
        details.append("kernel/image/cokernel cardinalities match the factors")
    return VerifierReport(
        name="diagonal-refinement",
        instance=f"{ring.descriptor()} {f.rows}x{f.cols}",
        holds=True,
        checked=checked,
        details=tuple(details),
    )


def _all_matrices(ring: Ring, rows: int, cols: int) -> Iterable[RingMatrix]:
    elements = ring.elements()
    for combo in itertools.product(elements, repeat=rows * cols):
        yield RingMatrix(ring, rows, cols, combo)


def _verify_small_shapes(
    ring: Ring, budget: int | None, project=None, quotient: Ring | None = None
) -> tuple[int, int, list[str]]:
    """Reduce every matrix of the small shapes over the ring (each witness is
    verified by ``diagonal_reduction``) and count the regular ones (all
    diagonal entries regular); optionally verify that projecting each regular
    matrix's reduction through the radical yields a reduction over the
    quotient.  Returns (matrices seen, regular count, per-shape notes)."""
    shapes = [(1, 1), (1, 2), (2, 1)]
    if ring.cardinality() ** 4 <= element_budget(budget):
        shapes.append((2, 2))
    regular_memo: dict[Any, bool] = {}

    def entry_regular(d: RingElement) -> bool:
        if d.payload not in regular_memo:
            regular_memo[d.payload] = is_regular_element(d)[0]
        return regular_memo[d.payload]

    seen = 0
    regular_count = 0
    notes = []
    for rows, cols in shapes:
        shape_regular = 0
        shape_total = 0
        for mat in _all_matrices(ring, rows, cols):
            shape_total += 1
            red = diagonal_reduction(mat)
            if not all(entry_regular(d) for d in red.diagonal()):
                continue
            shape_regular += 1
            if project is not None:
                mapped = DiagonalReduction(
                    P=red.P.map_entries(quotient, project),
                    P_inv=red.P_inv.map_entries(quotient, project),
                    Q=red.Q.map_entries(quotient, project),
                    Q_inv=red.Q_inv.map_entries(quotient, project),
                    D=red.D.map_entries(quotient, project),
                )
                if not verify_reduction(mat.map_entries(quotient, project), mapped):
                    raise AssertionError(
                        "projected reduction is not a reduction over the quotient"
                    )
        seen += shape_total
        regular_count += shape_regular
        notes.append(f"shape {rows}x{cols}: {shape_regular}/{shape_total} regular")
    return seen, regular_count, notes


def cancellation_and_reduction_verify(
    ring: Ring, bound: int, budget: int | None = None
) -> VerifierReport:
    """The two faces of diagonal reducibility, both checked at desk scale:
    the cancellation law 2u+A = u+B implies u+A = B in the projective-class
    monoid, and witnessed reduction of every small regular matrix."""
    if not isinstance(ring, ModularRing):
        raise UnsupportedRing(
            f"matrix-side verification needs a modular ring, got {ring.descriptor()}"
        )
    presentation, basis = projective_monoid(ring)
    k = len(basis)
    unit = presentation.element((1,) * k)
    candidates = [
        presentation.element(v)
        for v in itertools.product(range(bound + 1), repeat=k)
    ]
    cancel = cancellation_law_check(unit, candidates)
    seen, regular_count, notes = _verify_small_shapes(ring, budget)
    holds = cancel.holds
    details = [
        f"cancellation pairs checked: {cancel.pairs_checked}",
        f"matrices examined: {seen}, regular and reduced: {regular_count}",
    ]
    details.extend(notes)
    return VerifierReport(
        name="cancellation-and-reduction",
        instance=f"{ring.descriptor()} bound={bound}",
        holds=holds,
        checked=cancel.pairs_checked + seen,
        details=tuple(details),
        counterexample=(
            None
            if cancel.holds
            else f"monoid pair A={cancel.counterexample[0].exponents}"
            f" B={cancel.counterexample[1].exponents}"
        ),
    )


def jacobson_lift_verify(ring: Ring, budget: int | None = None) -> VerifierReport:
    """Reduction lifts through the radical: every small regular matrix over
    R/J(R) reduces, every one over R reduces, and each reduction over R
    projects to a reduction over R/J(R)."""
    if not isinstance(ring, ModularRing):
        raise UnsupportedRing(
            f"reduction verification needs a modular ring, got {ring.descriptor()}"
        )
    radical, quotient, project = jacobson_radical_and_quotient(ring)
    seen_q, regular_q, notes_q = _verify_small_shapes(quotient, budget)
    seen_r, regular_r, notes_r = _verify_small_shapes(
        ring, budget, project=project, quotient=quotient
    )
    details = [
        f"radical: {{{', '.join(str(a.literal()) for a in radical)}}}",
        f"quotient: {quotient.descriptor()}",
        f"over quotient: {regular_q}/{seen_q} regular, all reduced",
        f"over ring: {regular_r}/{seen_r} regular, all reduced and projected",
    ]
    details.extend(f"quotient {n}" for n in notes_q)
    details.extend(f"ring {n}" for n in notes_r)
    return VerifierReport(
        name="jacobson-lift",
        instance=ring.descriptor(),
        holds=True,
        checked=seen_q + seen_r,
        details=tuple(details),
    )
