"""Finite modules, projective multiplicity classes, and theorem verifiers."""

import gc
import itertools
import json
import random
import re
import weakref
from math import prod
from pathlib import Path

import pytest

import ringlab.modules
from ringlab import (
    BudgetExceeded,
    FiniteModule,
    IdempotentBasis,
    IntegerRing,
    MismatchedRings,
    ModularRing,
    ProjectiveModule,
    RingElement,
    RingMatrix,
    TrivialExtensionRing,
    UnsupportedRing,
    VerifierReport,
    annihilator_submodule,
    cancellation_and_reduction_verify,
    constant_rank_free_check,
    cyclic_submodule,
    decomposition_verify,
    diagonal_refinement_check,
    direct_sum,
    find_module_isomorphism,
    free_module,
    free_projective,
    jacobson_lift_verify,
    jacobson_radical_and_quotient,
    kernel_image_cokernel,
    local_global_verify,
    localize_at_element,
    localize_at_maximal,
    maximal_ideals,
    module_iso,
    parse_ring,
    partition_of_unity_verify,
    primitive_idempotent_decomposition,
    projective_module,
    projective_monoid,
    quotient_by_cyclic,
    refinement_verify,
    ring_module,
    stably_free_check,
    to_finite_module,
    verify_suite,
)
from ringlab.cli import _default_partition_generators
from ringlab.errors import element_budget
from ringlab.matrices import _reduce_payloads, _reduction_holds
from ringlab.modules import _small_shape_sweep
from ringlab.rings import is_regular_element

Z4 = ModularRing(4)
Z6 = ModularRing(6)
Z8 = ModularRing(8)
Z12 = ModularRing(12)


# ---------------------------------------------------------------------------
# explicit carriers


def test_axioms_reject_broken_addition():
    ring = ModularRing(2)
    bad_add = lambda x, y: x  # not commutative: 0+1=0 but 1+0=1
    with pytest.raises(ValueError):
        FiniteModule(ring, [0, 1], 0, bad_add, lambda r, x: (r * x) % 2)


def test_carrier_validation():
    ring = ModularRing(2)
    add = lambda x, y: (x + y) % 2
    scale = lambda r, x: (r * x) % 2
    with pytest.raises(ValueError):
        FiniteModule(ring, [0, 1, 1], 0, add, scale)
    with pytest.raises(ValueError):
        FiniteModule(ring, [1], 0, add, scale)
    with pytest.raises(UnsupportedRing):
        FiniteModule(IntegerRing(), [0], 0, add, scale)


def test_standard_carriers_over_z6():
    assert len(ring_module(Z6)) == 6
    assert len(free_module(Z6, 2)) == 36
    assert sorted(cyclic_submodule(Z6.make(3)).points) == [0, 3]
    assert sorted(annihilator_submodule(Z6.make(3)).points) == [0, 2, 4]
    assert len(quotient_by_cyclic(Z6.make(3))) == 3


def test_ideal_and_annihilator_sizes_multiply_to_ring_order():
    for ring in (Z4, Z6, Z8, Z12):
        for d in ring.elements():
            assert len(cyclic_submodule(d)) * len(annihilator_submodule(d)) == ring.cardinality()


def test_free_module_budget():
    with pytest.raises(BudgetExceeded):
        free_module(Z12, 4)


def test_generators_are_greedy_and_minimal():
    assert ring_module(Z6).generators() == (1,)
    assert cyclic_submodule(Z6.make(3)).generators() == (3,)
    pair = free_module(ModularRing(2), 2)
    assert len(pair.generators()) == 2


def test_direct_sum_shape():
    m = direct_sum(cyclic_submodule(Z6.make(3)), cyclic_submodule(Z6.make(4)))
    assert len(m) == 6
    assert m.label == "3R(+)4R"
    with pytest.raises(MismatchedRings):
        direct_sum(ring_module(Z4), ring_module(Z6))


def test_annihilators():
    m = ring_module(Z6)
    assert m.element_annihilator(3) == frozenset({0, 2, 4})
    assert m.annihilator() == frozenset({0})
    assert annihilator_submodule(Z6.make(3)).annihilator() == frozenset({0, 3})


# ---------------------------------------------------------------------------
# isomorphism search


def test_ring_decomposes_into_corner_sum():
    total = direct_sum(cyclic_submodule(Z6.make(3)), cyclic_submodule(Z6.make(4)))
    phi = find_module_isomorphism(total, ring_module(Z6))
    assert phi is not None
    # the found map must be additive, scalar-compatible, and bijective
    assert sorted(phi.values()) == [0, 1, 2, 3, 4, 5]
    for x in total.points:
        for y in total.points:
            assert phi[total.add(x, y)] == (phi[x] + phi[y]) % 6
        for r in range(6):
            assert phi[total.scale(r, x)] == (r * phi[x]) % 6


def test_quotient_matches_annihilator_over_z4():
    # over Z/4 the quotient R/2R and the ideal ann(2) = 2R are both F_2
    assert module_iso(quotient_by_cyclic(Z4.make(2)), annihilator_submodule(Z4.make(2)))


def test_cardinality_mismatch_is_cheap_no():
    assert find_module_isomorphism(
        cyclic_submodule(Z6.make(3)), cyclic_submodule(Z6.make(4))
    ) is None


def test_annihilator_mismatch_is_cheap_no():
    left = ring_module(Z4)
    right = direct_sum(cyclic_submodule(Z4.make(2)), cyclic_submodule(Z4.make(2)))
    assert len(left) == len(right)
    assert find_module_isomorphism(left, right) is None


def test_non_isomorphic_same_size_same_annihilator():
    # Z/4 x Z/4 against Z/4 x Z/2 x Z/2: equal card, equal annihilator
    left = direct_sum(ring_module(Z4), ring_module(Z4))
    two = cyclic_submodule(Z4.make(2))
    right = direct_sum(ring_module(Z4), direct_sum(two, two))
    assert len(left) == len(right) == 16
    assert left.annihilator() == right.annihilator()
    assert find_module_isomorphism(left, right) is None


def test_isomorphism_search_budget(monkeypatch):
    left = direct_sum(ring_module(Z4), ring_module(Z4))
    monkeypatch.setenv("RINGLAB_SEARCH_BUDGET", "1")
    with pytest.raises(BudgetExceeded) as info:
        find_module_isomorphism(left, left)
    assert str(info.value) == "256 candidate generator images exceed the search budget 1"


def test_isomorphism_needs_common_ring():
    with pytest.raises(MismatchedRings):
        find_module_isomorphism(ring_module(Z4), ring_module(Z6))


def _reference_isomorphism(left, right):
    """The unpruned search as it stood before the injectivity pruning: the
    annihilator of every point, the greedy generators by closure over every
    scalar, and each extension closed over mapping x all scalars."""
    scalars = [e.payload for e in left.ring.elements()]

    def annihilator(m):
        out = None
        for x in m.points:
            a = m.element_annihilator(x)
            out = a if out is None else out & a
        return out

    def generators(m):
        gens, reached = [], {m.zero}
        for x in m.points:
            if x in reached:
                continue
            gens.append(x)
            reached = {m.add(y, m.scale(r, x)) for y in reached for r in scalars}
            if len(reached) == len(m.points):
                break
        return gens

    if len(left) != len(right) or annihilator(left) != annihilator(right):
        return None
    gens = generators(left)
    if not gens:
        return {left.zero: right.zero}
    candidates = []
    for g in gens:
        needed = left.element_annihilator(g)
        options = [y for y in right.points if needed <= right.element_annihilator(y)]
        if not options:
            return None
        candidates.append(options)

    def extend(mapping, g, image):
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

    def search(index, mapping):
        if index == len(gens):
            return mapping if len(set(mapping.values())) == len(right) else None
        for image in candidates[index]:
            grown = extend(mapping, gens[index], image)
            if grown is not None:
                found = search(index + 1, grown)
                if found is not None:
                    return found
        return None

    return search(0, {left.zero: right.zero})


def _small_modules(ring):
    """R, every dR, ann(d) and R/dR, and the direct sums of two of them (in
    one order) with at most 64 points.  Modules with the same kind of rules
    and the same points in the same order are one module, kept once."""
    base = {("ideal", ring_module(ring).points): ring_module(ring)}
    for d in ring.elements():
        for m in (cyclic_submodule(d), annihilator_submodule(d)):
            base.setdefault(("ideal", m.points), m)
        m = quotient_by_cyclic(d)
        base.setdefault(("quotient", m.points), m)
    summands = list(base.values())
    sums = [
        direct_sum(a, b)
        for i, a in enumerate(summands)
        for b in summands[i:]
        if len(a) * len(b) <= 64
    ]
    return summands + sums


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_isomorphism_search_matches_the_unpruned_search(n):
    ring = ModularRing(n)
    scalars = [e.payload for e in ring.elements()]
    modules = _small_modules(ring)
    found = 0
    for left in modules:
        for right in modules:
            if len(left) != len(right):
                continue
            expected = _reference_isomorphism(left, right)
            phi = find_module_isomorphism(left, right)
            assert (phi is None) == (expected is None), (left, right)
            if phi is None:
                continue
            found += 1
            assert phi == expected, (left, right)
            assert set(phi) == left.point_set
            assert set(phi.values()) == right.point_set
            for x in left.points:
                for y in left.points:
                    assert phi[left.add(x, y)] == right.add(phi[x], phi[y])
                for r in scalars:
                    assert phi[left.scale(r, x)] == right.scale(r, phi[x])
    assert found


def test_decomposition_searches_over_z30_scale_few_times(monkeypatch):
    # Calls to `scale` of every module built, nested calls included: 558,600
    # for the unpruned search, whose closure ran over every scalar for every
    # mapped point and whose annihilators covered every point; 76,860 with a
    # fresh ring module per checked element; 49,890 with the 60 searches
    # sharing one.  Now no search runs: 2,628 calls take |q*M| for q = 2, 3
    # and 5 once on R and on each summand, and each direct sum multiplies
    # its summands' sizes without scaling its own points.
    calls = []
    init = FiniteModule.__init__

    def counting_init(self, ring, points, zero, add, scale, label="M"):
        def counted(r, x):
            calls.append(None)
            return scale(r, x)

        init(self, ring, points, zero, add, counted, label)

    def no_search(left, right):
        raise AssertionError("module_iso searched over Z/n")

    monkeypatch.setattr(FiniteModule, "__init__", counting_init)
    monkeypatch.setattr("ringlab.modules.find_module_isomorphism", no_search)
    report = decomposition_verify(ModularRing(30))
    assert report.holds and report.checked == 30
    assert len(calls) < 2_700


def _matrix_modules(ring):
    """The kernel, image and cokernel of every 1x1, 1x2 and 2x1 matrix, each
    distinct module once (a cokernel is fixed by its image)."""
    payloads = [e.payload for e in ring.elements()]
    out = {}
    for rows, cols in [(1, 1), (1, 2), (2, 1)]:
        for combo in itertools.product(payloads, repeat=rows * cols):
            kernel, image, coker = kernel_image_cokernel(
                RingMatrix(ring, rows, cols, combo)
            )
            out.setdefault(("kernel", kernel.points), kernel)
            out.setdefault(("image", image.points), image)
            out.setdefault(("cokernel", rows, image.point_set), coker)
    return list(out.values())


def _size_test_disagreements(ring, per_class=4):
    """Same-size pairs on which ``module_iso`` and the search disagree.

    The modules of ``_small_modules`` and ``_matrix_modules`` are sorted
    into isomorphism classes by the search (each against the first module
    of each class of its size, up to the first match), keeping at most
    ``per_class`` of each; then every same-size pair of the kept modules is
    compared, in both orders, so both isomorphic and non-isomorphic pairs
    are covered."""
    disagreements = []

    def compare(left, right):
        found = find_module_isomorphism(left, right) is not None
        if module_iso(left, right) != found:
            disagreements.append((left, right))
        return found

    classes, kept = {}, []
    for m in _small_modules(ring) + _matrix_modules(ring):
        groups = classes.setdefault(len(m), [])
        group = next((g for g in groups if compare(m, g[0])), None)
        if group is None:
            groups.append([m])
        elif len(group) < per_class:
            group.append(m)
        else:
            continue
        kept.append(m)
    for left in kept:
        for right in kept:
            if len(left) == len(right):
                compare(left, right)
    return disagreements


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12, 30])
def test_module_sizes_decide_isomorphism_like_the_search(n):
    assert _size_test_disagreements(ModularRing(n)) == []


def test_module_sizes_without_q4_confuse_modules_over_z8(monkeypatch):
    # |M| and |2M| alone do not tell Z/4 (+) Z/4 from Z/8 (+) Z/2; |4M| does
    prime_powers = ringlab.modules._prime_powers
    monkeypatch.setattr(
        "ringlab.modules._prime_powers",
        lambda n: [q for q in prime_powers(n) if q != 4],
    )
    disagreements = _size_test_disagreements(Z8)
    assert disagreements
    assert any(
        len(left) == len(right) == 16
        and {len({m.scale(4, x) for x in m.points}) for m in (left, right)} == {1, 2}
        for left, right in disagreements
    )


def test_module_iso_searches_over_other_rings(monkeypatch):
    ring = parse_ring("trivial(modular(2))")
    calls = []
    search = ringlab.modules.find_module_isomorphism

    def counted(left, right):
        calls.append((left, right))
        return search(left, right)

    monkeypatch.setattr("ringlab.modules.find_module_isomorphism", counted)
    assert module_iso(ring_module(ring), ring_module(ring))
    assert len(calls) == 1


def test_module_iso_needs_common_ring():
    with pytest.raises(MismatchedRings):
        module_iso(ring_module(Z4), ring_module(Z6))
    with pytest.raises(MismatchedRings):
        module_iso(ring_module(Z4), ring_module(parse_ring("gf(2)")))


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_module_annihilator_is_the_intersection_over_every_point(n):
    ring = ModularRing(n)
    modules = _small_modules(ring)
    zero = cyclic_submodule(ring.zero())
    assert zero.annihilator() == frozenset(e.payload for e in ring.elements())
    for m in [zero, *modules]:
        expected = frozenset(e.payload for e in ring.elements())
        for x in m.points:
            expected &= m.element_annihilator(x)
        assert m.annihilator() == expected, m


# ---------------------------------------------------------------------------
# projective modules


def test_projective_construction_and_size():
    m = projective_module(Z6, (2, 1))
    assert m.describe() == "2(3R) + 1(4R)"
    assert m.component_sizes() == (2, 3)
    assert m.carrier_cardinality() == 12
    assert not m.is_zero()
    assert projective_module(Z6, (0, 0)).is_zero()


def test_projective_validation():
    with pytest.raises(ValueError):
        projective_module(Z6, (1,))
    with pytest.raises(ValueError):
        projective_module(Z6, (1, -1))


def test_projective_iso_is_multiplicity_equality():
    assert module_iso(projective_module(Z6, (1, 2)), projective_module(Z6, (1, 2)))
    assert not module_iso(projective_module(Z6, (1, 2)), projective_module(Z6, (2, 1)))
    with pytest.raises(MismatchedRings):
        module_iso(projective_module(Z6, (1, 1)), projective_module(Z4, (1,)))


def test_projective_iso_rejects_reordered_basis():
    basis = IdempotentBasis(Z6, (Z6.make(4), Z6.make(3)))
    reordered = ProjectiveModule(Z6, basis, (1, 2))
    with pytest.raises(ValueError):
        module_iso(projective_module(Z6, (2, 1)), reordered)


def test_projective_expands_to_explicit_carrier(monkeypatch):
    m = to_finite_module(projective_module(Z6, (2, 1)))
    assert len(m) == 12
    module = free_projective(Z6, 2)
    monkeypatch.setattr("ringlab.errors.DEFAULT_ELEMENT_BUDGET", 10)
    with pytest.raises(BudgetExceeded) as info:
        to_finite_module(module)
    assert str(info.value) == "36 carrier points exceed the element budget 10"


def test_mixed_iso_crosses_representations():
    assert module_iso(projective_module(Z6, (1, 1)), ring_module(Z6))
    assert module_iso(projective_module(Z6, (1, 0)), cyclic_submodule(Z6.make(3)))
    assert not module_iso(projective_module(Z6, (1, 0)), cyclic_submodule(Z6.make(4)))


def test_projective_monoid_is_free_on_corners():
    presentation, basis = projective_monoid(Z6)
    assert presentation.is_free
    assert presentation.generator_count == len(basis) == 2
    presentation, _ = projective_monoid(Z4)
    assert presentation.generator_count == 1


# ---------------------------------------------------------------------------
# localization


def test_localize_at_maximal_gives_free_rank():
    m = projective_module(Z6, (2, 1))
    view = localize_at_maximal(m, 0)
    assert view.free_rank == 2
    assert view.factor.cardinality() == 2
    view = localize_at_maximal(m, 1)
    assert view.free_rank == 1
    assert view.factor.cardinality() == 3
    assert "maximal ideal #1" in view.describe()


def test_localize_at_maximal_accepts_the_ideal_itself():
    m = projective_module(Z6, (2, 1))
    ideal = maximal_ideals(Z6)[0]
    assert localize_at_maximal(m, ideal).free_rank == 2
    with pytest.raises(ValueError):
        localize_at_maximal(m, 5)
    with pytest.raises(ValueError):
        localize_at_maximal(m, frozenset({Z6.make(0)}))


def test_localize_at_element_projective():
    m = projective_module(Z6, (2, 1))
    view = localize_at_element(m, Z6.make(3))
    assert view.result.multiplicities == (2,)
    view = localize_at_element(m, Z6.make(4))
    assert view.result.multiplicities == (1,)
    # a unit inverts everything: nothing is cut away
    view = localize_at_element(m, Z6.make(5))
    assert view.result.multiplicities == (2, 1)


def test_localize_at_nilpotent_is_zero():
    m = projective_module(Z4, (2,))
    view = localize_at_element(m, Z4.make(2))
    assert view.result.is_zero()
    assert view.factor.cardinality() == 1


def test_localize_finite_module_at_element():
    view = localize_at_element(ring_module(Z6), Z6.make(3))
    assert len(view.result) == 2
    assert sorted(view.result.points) == [0, 3]


LOCALIZATION_RINGS = (
    "modular(4)",
    "modular(6)",
    "modular(12)",
    "modular(30)",
    "product(modular(2), modular(4))",
    "trivial(modular(3))",
)


@pytest.mark.parametrize("descriptor", LOCALIZATION_RINGS)
def test_maximal_and_element_localizations_cut_the_same_corner(descriptor):
    # the maximal ideal #i is the one outside the primitive idempotent e_i,
    # so localizing at it and at e_i are the same corner cut
    ring = parse_ring(descriptor)
    basis = primitive_idempotent_decomposition(ring)
    for t in itertools.product(range(3), repeat=len(basis)):
        m = projective_module(ring, t)
        for i, e in enumerate(basis.elements):
            at_ideal = localize_at_maximal(m, i)
            at_element = localize_at_element(m, e)
            assert at_ideal.factor == at_element.factor
            assert at_ideal.result.multiplicities == (t[i],)
            assert at_element.result.multiplicities == (t[i],)
            assert at_ideal.free_rank == t[i]


@pytest.mark.parametrize("descriptor", LOCALIZATION_RINGS)
def test_a_cokernel_is_the_product_of_its_maximal_localizations(descriptor):
    # C = (+)_i e_i C, so |C| is the product of the |C_m|.  The cokernel of
    # [a] or [a b] depends only on the ideals aR and bR, so one matrix per
    # tuple of principal ideals stands for all of them.
    ring = parse_ring(descriptor)
    basis = primitive_idempotent_decomposition(ring)
    ideal_of = {a: frozenset(cyclic_submodule(a).points) for a in ring.elements()}
    rows = {}
    for row in itertools.chain(
        ((a,) for a in ring.elements()), itertools.product(ring.elements(), repeat=2)
    ):
        rows.setdefault(tuple(ideal_of[a] for a in row), row)
    for row in rows.values():
        coker = kernel_image_cokernel(RingMatrix.from_rows(ring, [list(row)]))[2]
        sizes = []
        for i, e in enumerate(basis.elements):
            view = localize_at_maximal(coker, i)
            assert view.result.ring == view.factor
            assert view.result.point_set == localize_at_element(coker, e).result.point_set
            sizes.append(len(view.result))
        assert prod(sizes) == len(coker), (row, sizes)


def test_localize_a_finite_module_at_a_maximal_ideal():
    view = localize_at_maximal(ring_module(Z6), 0)
    assert sorted(view.result.points) == [0, 3]
    assert view.result.label == "(R)_(m0)"
    assert view.free_rank is None


def test_swapped_maximal_ideals_fail_the_invertibility_check(monkeypatch):
    # index 0 then names the ideal of the other corner: some element outside
    # it is a zero divisor of corner 0, and that is a bug, not a violation
    real = ringlab.modules.maximal_ideals
    monkeypatch.setattr(ringlab.modules, "maximal_ideals", lambda ring: real(ring)[::-1])
    for module in (projective_module(Z6, (2, 1)), ring_module(Z6)):
        with pytest.raises(AssertionError, match="does not invert"):
            localize_at_maximal(module, 0)


# ---------------------------------------------------------------------------
# kernels, images, cokernels


def test_kernel_image_cokernel_of_scalar():
    f = RingMatrix.from_rows(Z6, [[2]])
    ker, im, coker = kernel_image_cokernel(f)
    assert sorted(ker.points) == [(0,), (3,)]
    assert sorted(im.points) == [(0,), (2,), (4,)]
    assert len(coker) == 2


def test_kernel_image_cokernel_of_diagonal():
    f = RingMatrix.diagonal(Z6, [Z6.make(2), Z6.make(3)])
    ker, im, coker = kernel_image_cokernel(f)
    assert len(ker) == 6
    assert len(im) == 6
    assert len(coker) == 6


def test_kernel_budget(monkeypatch):
    f = RingMatrix.from_rows(Z6, [[1, 0], [0, 1]])
    monkeypatch.setattr("ringlab.errors.DEFAULT_ELEMENT_BUDGET", 10)
    with pytest.raises(BudgetExceeded) as info:
        kernel_image_cokernel(f)
    assert str(info.value) == "36 carrier points exceed the element budget 10"


def _reference_kernel_image_cokernel(f):
    """ker, im and coker of f by applying ``RingMatrix.apply`` to one domain
    point at a time: the kernel in domain order, the image in first-seen
    order, and the cokernel's first-in-order representatives of R^rows,
    each found by subtracting the earlier representatives."""
    ring = f.ring
    elements = ring.elements()
    kernel, image = [], {}
    for x in itertools.product(elements, repeat=f.cols):
        y = f.apply(x)
        if all(v.is_zero() for v in y):
            kernel.append(tuple(v.payload for v in x))
        image.setdefault(tuple(v.payload for v in y), None)
    reps = []
    for p in itertools.product(elements, repeat=f.rows):
        if not any(
            tuple((a - b).payload for a, b in zip(p, r)) in image for r in reps
        ):
            reps.append(p)
    return tuple(kernel), tuple(image), tuple(tuple(v.payload for v in r) for r in reps)


def _matrices(ring, rows, cols):
    payloads = [e.payload for e in ring.elements()]
    for entries in itertools.product(payloads, repeat=rows * cols):
        yield RingMatrix(ring, rows, cols, entries)


def _kernel_cases():
    for n in (4, 6, 9):
        for shape in ((1, 1), (1, 2), (2, 1)):
            yield f"modular({n})", shape, None
    yield "modular(4)", (2, 2), None
    for descriptor in ("product(modular(2), modular(3))", "trivial(modular(2))"):
        for shape in ((1, 1), (1, 2), (2, 1), (2, 2)):
            yield descriptor, shape, 40


@pytest.mark.parametrize("descriptor, shape, sample", list(_kernel_cases()))
def test_kernel_image_cokernel_matches_a_per_point_reference(descriptor, shape, sample):
    ring = parse_ring(descriptor)
    matrices = list(_matrices(ring, *shape))
    if sample is not None and len(matrices) > sample:
        matrices = random.Random(f"{descriptor}{shape}").sample(matrices, sample)
    for f in matrices:
        ker, im, coker = kernel_image_cokernel(f)
        kernel, image, reps = _reference_kernel_image_cokernel(f)
        assert ker.points == kernel, f
        assert im.points == image, f
        assert coker.points == reps, f
        assert (ker.label, im.label, coker.label) == ("ker(f)", "im(f)", "coker(f)")
        assert ker.zero == (ring._zero(),) * f.cols
        assert im.zero == coker.zero == (ring._zero(),) * f.rows


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_kernel_image_cokernel_takes_every_image_from_one_product(monkeypatch, shape):
    calls = []
    product = ringlab.modules._matmul_payloads

    def counted(*args):
        calls.append(args[3:])
        return product(*args)

    monkeypatch.setattr(ringlab.modules, "_matmul_payloads", counted)
    f = RingMatrix(Z6, *shape, tuple(range(1, shape[0] * shape[1] + 1)))
    kernel_image_cokernel(f)
    assert calls == [(shape[0], shape[1], 6 ** shape[1])]


# ---------------------------------------------------------------------------
# rank verdicts


def test_constant_rank_free():
    verdict = constant_rank_free_check(projective_module(Z6, (2, 2)))
    assert verdict.free and verdict.rank == 2
    assert verdict.localized_ranks == (2, 2)
    assert "free of rank 2" in verdict.describe()


def test_non_constant_rank_is_not_free():
    verdict = constant_rank_free_check(projective_module(Z6, (2, 1)))
    assert not verdict.free
    assert verdict.localized_ranks == (2, 1)


def test_stably_free_is_free():
    verdict = stably_free_check(projective_module(Z6, (1, 1)), 1, 2)
    assert verdict.free and verdict.rank == 1
    with pytest.raises(ValueError):
        stably_free_check(projective_module(Z6, (2, 1)), 1, 3)


def test_constant_rank_reports_a_rejected_free_module(monkeypatch):
    monkeypatch.setattr("ringlab.modules.module_iso", lambda left, right: False)
    verdict = constant_rank_free_check(projective_module(Z6, (2, 2)))
    assert not verdict.free and verdict.rank is None
    assert verdict.localized_ranks == (2, 2)
    assert verdict.counterexample == (
        "2(3R) + 2(4R) has constant rank 2 but is not isomorphic to R^2"
    )
    assert verdict.describe() == f"violated: {verdict.counterexample}"


def test_stably_free_reports_a_rejected_free_module(monkeypatch):
    monkeypatch.setattr("ringlab.modules.module_iso", lambda left, right: False)
    verdict = stably_free_check(projective_module(Z6, (1, 1)), 1, 2)
    assert not verdict.free and verdict.rank is None
    assert verdict.counterexample == (
        "1(3R) + 1(4R) (+) R^1 = R^2 but 1(3R) + 1(4R) is not isomorphic to R^1"
    )
    assert verdict.describe() == f"violated: {verdict.counterexample}"


# ---------------------------------------------------------------------------
# theorem verifiers


def test_local_global_verify_holds():
    report = local_global_verify(Z6, 2)
    assert report.holds
    assert report.checked == 81
    assert report.name == "local-global"
    assert any("2 maximal ideals" in d for d in report.details)
    lines = report.lines()
    assert lines[0].startswith("check=local-global instance=modular(6)")
    assert "verdict=holds" in lines[0]


def test_local_global_verify_computes_the_maximal_ideals_once(monkeypatch):
    # one check per maximal ideal on every call: nothing is cached, and the
    # ideals are handed to the localizers rather than looked up again
    checked = []
    real = ringlab.rings._verify_maximal_ideal

    def counted(ring, ideal):
        checked.append(ideal)
        real(ring, ideal)

    monkeypatch.setattr(ringlab.rings, "_verify_maximal_ideal", counted)
    for _ in range(2):
        checked.clear()
        assert local_global_verify(ModularRing(30), 2).holds
        assert len(checked) == 3


def test_a_call_keeps_nothing_alive():
    # the idempotents, radical and maximal ideals live only as long as the
    # call that computes them: a dropped ring is collected
    ring = ModularRing(30)
    ref = weakref.ref(ring)
    verify_suite(ring, 2, _default_partition_generators(ring))
    localize_at_maximal(projective_module(ring, (1, 1, 1)), 0)
    del ring
    gc.collect()
    assert ref() is None


def test_partition_of_unity_verify_holds():
    report = partition_of_unity_verify(Z6, [Z6.make(3), Z6.make(4)], 2)
    assert report.holds
    assert report.checked == 81
    report = partition_of_unity_verify(Z12, [Z12.make(4), Z12.make(9)], 1)
    assert report.holds


def test_partition_of_unity_needs_generating_set():
    with pytest.raises(ValueError):
        partition_of_unity_verify(Z6, [Z6.make(2)], 2)


def _reference_unit_combination(ring, gens):
    """The first combination sum(g_i * r_i) = 1 in element order, summed on
    ``RingElement`` wrappers, or None."""
    for combo in itertools.product(ring.elements(), repeat=len(gens)):
        total = ring.zero()
        for g, r in zip(gens, combo):
            total = total + g * r
        if total == ring.one():
            return combo
    return None


@pytest.mark.parametrize(
    "descriptor, generators",
    [
        ("modular(6)", [3, 4]),
        ("modular(12)", [4, 9]),
        ("modular(30)", [6, 25]),
        ("gf(5)", [2]),
        ("modular(6)", [2]),
        ("modular(12)", [4, 6]),
        ("modular(30)", [6, 10, 15]),
        ("gf(5)", [0]),
    ],
)
def test_partition_of_unity_witness_matches_an_element_search(descriptor, generators):
    ring = parse_ring(descriptor)
    gens = [ring.make(g) for g in generators]
    witness = _reference_unit_combination(ring, gens)
    if witness is None:
        with pytest.raises(ValueError) as info:
            partition_of_unity_verify(ring, gens, 1)
        assert str(info.value) == f"{generators} do not generate {descriptor}"
        return
    report = partition_of_unity_verify(ring, gens, 1)
    combination = " + ".join(
        f"{g.literal()}*{r.literal()}" for g, r in zip(gens, witness)
    )
    assert report.details == (f"unit combination: {combination} = 1",)


def test_diagonal_refinement_on_regular_diagonal():
    f = RingMatrix.diagonal(Z6, [Z6.make(3), Z6.make(4)])
    report = diagonal_refinement_check(f)
    assert report.holds
    assert report.name == "diagonal-refinement"


def test_diagonal_refinement_non_square_notes_free_summand():
    f = RingMatrix.from_rows(Z6, [[2, 0]])
    report = diagonal_refinement_check(f)
    assert report.holds
    assert any("trailing kernel summand" in d for d in report.details)


def test_diagonal_refinement_requires_regular_input():
    with pytest.raises(ValueError):
        diagonal_refinement_check(RingMatrix.from_rows(Z4, [[2]]))
    ring = parse_ring("trivial(modular(2))")
    with pytest.raises(ValueError, match="the matrix is not regular"):
        diagonal_refinement_check(RingMatrix.from_rows(ring, [[(0, 1)]]))


def test_diagonal_refinement_over_a_product_of_fields():
    ring = parse_ring("product(gf(2), gf(3))")
    report = diagonal_refinement_check(RingMatrix.diagonal(ring, [(1, 2), (0, 1)]))
    assert report.holds
    assert report.checked == 5
    assert report.lines()[1:] == [
        "  j=1 d=[1, 2] ann(+)dR=ok quot(+)dR=ok",
        "  j=2 d=[0, 1] ann(+)dR=ok quot(+)dR=ok",
        "  kernel/image/cokernel cardinalities match the factors",
    ]


def test_diagonal_refinement_off_z_n_needs_a_diagonal_matrix():
    ring = parse_ring("product(gf(2), gf(3))")
    message = re.escape(
        "no reduction available over product(gf(2), gf(3)); pass a diagonal matrix"
    )
    with pytest.raises(UnsupportedRing, match=message):
        diagonal_refinement_check(RingMatrix.from_rows(ring, [[(1, 2), (0, 1)]]))


def test_diagonal_refinement_requires_finite_ring():
    f = RingMatrix.identity(IntegerRing(), 1)
    with pytest.raises(UnsupportedRing):
        diagonal_refinement_check(f)


# Faults injected below the refinement check: its own report paths must
# name the failing instance, and decomposition_verify must name the element.


def test_diagonal_refinement_reports_a_failed_index(monkeypatch):
    original = ringlab.modules.module_iso
    monkeypatch.setattr(
        "ringlab.modules.module_iso",
        lambda left, right: getattr(left, "label", None) != "ann(3)(+)3R"
        and original(left, right),
    )
    report = diagonal_refinement_check(RingMatrix.from_rows(Z6, [[3]]))
    assert not report.holds
    assert report.lines() == [
        "check=diagonal-refinement instance=modular(6) 1x1 verdict=violated checked=2",
        "  j=1 d=3 ann(+)dR=FAIL quot(+)dR=ok",
        "  counterexample: index 1, entry 3",
    ]
    report = decomposition_verify(Z6)
    assert not report.holds
    assert report.counterexample == "diagonal refinement fails for [a] with a in [3]"


def test_diagonal_refinement_reports_a_cardinality_mismatch(monkeypatch):
    original = ringlab.modules.kernel_image_cokernel

    def swapped_at_three(f):
        kernel, image, coker = original(f)
        if f.entry(0, 0).literal() == 3:
            return image, kernel, coker
        return kernel, image, coker

    monkeypatch.setattr("ringlab.modules.kernel_image_cokernel", swapped_at_three)
    report = diagonal_refinement_check(RingMatrix.from_rows(Z6, [[3]]))
    assert not report.holds
    assert report.lines() == [
        "check=diagonal-refinement instance=modular(6) 1x1 verdict=violated checked=3",
        "  j=1 d=3 ann(+)dR=ok quot(+)dR=ok",
        "  counterexample: cardinalities ker/im/coker = 2/3/3, expected 3/2/3",
    ]
    report = decomposition_verify(Z6)
    assert not report.holds
    assert report.counterexample == "diagonal refinement fails for [a] with a in [3]"


def test_diagonal_refinement_skips_the_cross_check_past_the_element_budget(
    monkeypatch,
):
    # 6^2 carrier points pass a cap of 10; the per-index checks still run
    monkeypatch.setattr("ringlab.errors.DEFAULT_ELEMENT_BUDGET", 10)
    report = diagonal_refinement_check(RingMatrix.diagonal(Z6, [Z6.make(3), Z6.make(4)]))
    assert report.holds
    assert report.lines() == [
        "check=diagonal-refinement instance=modular(6) 2x2 verdict=holds checked=4",
        "  j=1 d=1 ann(+)dR=ok quot(+)dR=ok",
        "  j=2 d=0 ann(+)dR=ok quot(+)dR=ok",
        "  cardinality cross-check skipped (carrier over budget)",
    ]


def test_cancellation_and_reduction_verify_z4():
    report = cancellation_and_reduction_verify(Z4, 2)
    assert report.holds
    assert any("169/256" in d for d in report.details)


def test_cancellation_and_reduction_rejects_other_rings():
    with pytest.raises(UnsupportedRing):
        cancellation_and_reduction_verify(TrivialExtensionRing(Z4), 2)


def test_jacobson_lift_verify():
    report = jacobson_lift_verify(Z4)
    assert report.holds
    assert any("{0, 2}" in d for d in report.details)
    assert any("gf(2)" in d for d in report.details)
    report = jacobson_lift_verify(Z6)
    assert report.holds
    assert any("{0}" in d for d in report.details)


def test_jacobson_lift_reports_a_wrong_projection(monkeypatch):
    radical, quotient, _ = jacobson_radical_and_quotient(Z4)
    wrong = lambda a: quotient.zero()  # sends every unit to 0
    monkeypatch.setattr(
        "ringlab.modules.jacobson_radical_and_quotient",
        lambda ring: (radical, quotient, wrong),
    )
    report = jacobson_lift_verify(Z4)
    assert not report.holds
    assert report.counterexample == (
        "1x1 matrix [[0]]: its projected reduction is not a reduction over gf(2)"
    )
    assert "stopped at a failure" in report.details[3]


# The lines of both small-shape sections as recorded before the sweep was
# shared: J != 0 (modular(4), modular(9)), J = 0 over a composite modulus
# (modular(6), modular(10)), and J = 0 over a prime, where the quotient of
# modular(5) is gf(5) and the quotient of gf(5) is gf(5) again.
RECORDED_SWEEP_SECTIONS = json.loads(
    (Path(__file__).resolve().parent / "recorded_verify_sections.json").read_text()
)


@pytest.mark.parametrize("descriptor", list(RECORDED_SWEEP_SECTIONS))
def test_sweep_sections_match_recorded_output(descriptor):
    ring = parse_ring(descriptor)
    recorded = RECORDED_SWEEP_SECTIONS[descriptor]
    assert (
        cancellation_and_reduction_verify(ring, 2).lines()
        == recorded["cancellation-and-reduction"]
    )
    assert jacobson_lift_verify(ring).lines() == recorded["jacobson-lift"]


def test_sweep_builds_fewer_elements_than_matrices(monkeypatch):
    # Z/4 has J(R) = {0, 2}, so every regular reduction is also projected
    ring = ModularRing(4)
    _small_shape_sweep(ring)  # build the ring's element tuple, its one memo
    built = []
    init = RingElement.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RingElement, "__init__", counting_init)
    sweep = _small_shape_sweep(ring)
    assert sweep.seen == 292
    assert len(built) < sweep.seen


def _direct_sweep(ring):
    """The small-shape sweep's counts, notes and first failed projection
    from one direct ``_reduce_payloads`` per matrix over R: the oracle of
    the sweep that eliminates over each CRT factor and joins the witnesses."""
    shapes = [(1, 1), (1, 2), (2, 1)]
    if ring.cardinality() ** 4 <= element_budget():
        shapes.append((2, 2))
    radical, quotient, project = ringlab.modules.jacobson_radical_and_quotient(ring)
    payloads = [a.payload for a in ring.elements()]
    regular = {a.payload for a in ring.elements() if is_regular_element(a)[0]}
    image = {a.payload: project(a).payload for a in ring.elements()}
    seen = regular_count = 0
    notes = []
    bad = None
    for rows, cols in shapes:
        shape_regular = 0
        for combo in itertools.product(payloads, repeat=rows * cols):
            witness = _reduce_payloads(ring, combo, rows, cols)
            if any(witness[4][i * cols + i] not in regular for i in range(min(rows, cols))):
                continue
            shape_regular += 1
            if len(radical) > 1 and bad is None:
                mapped = [tuple(image[p] for p in t) for t in (combo, *witness)]
                if not _reduction_holds(quotient, mapped[0], rows, cols, *mapped[1:]):
                    bad = RingMatrix(ring, rows, cols, combo)
        total = len(payloads) ** (rows * cols)
        seen += total
        regular_count += shape_regular
        notes.append(f"shape {rows}x{cols}: {shape_regular}/{total} regular")
    return seen, regular_count, tuple(notes), bad


def _sweep_with_recorded_checks(monkeypatch, ring):
    """The sweep, and the arguments of every payload check it makes over R."""
    checks = []
    with monkeypatch.context() as patch:
        patch.setattr(
            "ringlab.matrices._reduction_holds", lambda *args: checks.append(args) or True
        )
        sweep = _small_shape_sweep(ring)
    return sweep, checks


@pytest.mark.parametrize(
    "descriptor, element_cap",
    [(f"modular({n})", None) for n in (4, 6, 8, 9, 10, 12, 30, 36, 60)]
    + [("gf(5)", None)]
    + [(f"modular({n})", n**4) for n in (4, 8, 9)],
)
def test_split_sweep_matches_a_direct_reduction_per_matrix(
    monkeypatch, descriptor, element_cap
):
    ring = parse_ring(descriptor)
    if element_cap is not None:
        # n^4 raises the cap over Z/9 and lowers it to |R|^4 over Z/4: both
        # sides of the 2x2 rule at its edge
        monkeypatch.setattr("ringlab.errors.DEFAULT_ELEMENT_BUDGET", element_cap)
    sweep, checks = _sweep_with_recorded_checks(monkeypatch, ring)
    assert (sweep.seen, sweep.regular, sweep.notes, sweep.bad) == _direct_sweep(ring)
    # every matrix over R is checked exactly once, in payload order, and
    # every joined witness is a reduction over R
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2)][: len(sweep.notes)]
    payloads = [a.payload for a in ring.elements()]
    assert [(c[0], c[2], c[3], tuple(c[1])) for c in checks] == [
        (ring, rows, cols, combo)
        for rows, cols in shapes
        for combo in itertools.product(payloads, repeat=rows * cols)
    ]
    # the oracle re-checks each witness in full, without the sweep's set of
    # verified transform pairs
    assert all(_reduction_holds(*args[:9]) for args in checks)


def test_split_sweep_reports_the_first_failed_projection(monkeypatch):
    # Z/12 = Z/4 x Z/3 with J = {0, 6}: a projection that sends everything
    # to 0 breaks the first regular matrix, [[0]], on both routes
    radical, quotient, _ = jacobson_radical_and_quotient(Z12)
    monkeypatch.setattr(
        "ringlab.modules.jacobson_radical_and_quotient",
        lambda ring: (radical, quotient, lambda a: quotient.zero()),
    )
    sweep = _small_shape_sweep(Z12)
    assert sweep.bad == RingMatrix.from_rows(Z12, [[0]])
    assert _direct_sweep(Z12)[3] == sweep.bad


@pytest.mark.parametrize(
    "check",
    [
        lambda: local_global_verify(Z6, -1),
        lambda: partition_of_unity_verify(Z6, [Z6.make(3), Z6.make(4)], -1),
        lambda: cancellation_and_reduction_verify(Z6, -1),
    ],
    ids=["local-global", "partition-of-unity", "cancellation-and-reduction"],
)
def test_verifiers_reject_a_negative_bound(check):
    with pytest.raises(ValueError, match="bound must be nonnegative"):
        check()


def test_verifiers_accept_bound_zero():
    report = local_global_verify(Z6, 0)
    assert report.holds and report.checked == 1
    report = partition_of_unity_verify(Z6, [Z6.make(3), Z6.make(4)], 0)
    assert report.holds and report.checked == 1
    report = cancellation_and_reduction_verify(Z4, 0)
    assert report.holds
    assert report.details[0] == "cancellation pairs checked: 1"


@pytest.mark.parametrize(
    "descriptor", ["trivial(modular(2))", "product(modular(2), modular(3))", "integers"]
)
def test_verify_suite_gates_the_ring_before_any_section(monkeypatch, descriptor):
    def section(*args, **kwargs):
        raise AssertionError("a section ran before the ring gate")

    for name in (
        "refinement_verify",
        "local_global_verify",
        "partition_of_unity_verify",
        "decomposition_verify",
        "_small_shape_sweep",
    ):
        monkeypatch.setattr(ringlab.modules, name, section)

    def unread_generators():
        raise AssertionError("the generators were read before the ring gate")
        yield

    ring = parse_ring(descriptor)
    message = re.escape(f"the verify suite runs over modular rings, got {descriptor}")
    with pytest.raises(UnsupportedRing, match=message):
        verify_suite(ring, 2, unread_generators())
    # the suite's two matrix sections share the gate
    with pytest.raises(UnsupportedRing, match=message):
        cancellation_and_reduction_verify(ring, 2)
    with pytest.raises(UnsupportedRing, match=message):
        jacobson_lift_verify(ring)


def test_verify_suite_lines_match_the_cli_golden():
    goldens = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json").read_text()
    )
    stdout = next(g for g in goldens if g["name"] == "verify_modular12")["stdout"]
    assert stdout.endswith("\nresult=pass\n")
    reports = verify_suite(Z12, 2, _default_partition_generators(Z12))
    lines = [line for report in reports for line in report.lines()]
    assert "".join(f"{line}\n" for line in lines) == stdout[: -len("result=pass\n")]


# ---------------------------------------------------------------------------
# the verify sections outside the module verifiers above


def _recorded_verify_section(name, check):
    """The lines of one section of the recorded `verify` output."""
    goldens = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json").read_text()
    )
    stdout = next(g["stdout"] for g in goldens if g["name"] == name)
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"check={check} "))
    end = start + 1
    while lines[end].startswith("  "):
        end += 1
    return lines[start:end]


def test_refinement_verify_matches_recorded_output():
    assert refinement_verify(Z6, 100, 2).lines() == [
        "check=refinement instance=modular(6) monoid=free(2) verdict=holds checked=100",
        "  free=True conical=True",
        "  splittings refined: 100/100",
    ]
    assert refinement_verify(Z12, 100, 2).lines() == _recorded_verify_section(
        "verify_modular12", "refinement"
    )


def test_decomposition_verify_matches_recorded_output():
    report = decomposition_verify(Z12)
    assert report.holds and report.checked == 9
    assert report.lines() == _recorded_verify_section("verify_modular12", "decomposition")


def test_refinement_verify_reports_a_failed_splitting(monkeypatch):
    monkeypatch.setattr("ringlab.modules.refine", lambda *args, **kwargs: None)
    report = refinement_verify(Z6, 5, 2)
    assert not report.holds
    assert report.checked == 5
    assert report.details[1] == "splittings refined: 0/5"
    assert report.counterexample == "a splitting failed"
    assert report.lines()[-1] == "  counterexample: a splitting failed"


def test_decomposition_verify_names_the_failing_element(monkeypatch):
    original = ringlab.modules._diagonal_refinement

    def fail_at_three(f, unit_module):
        report = original(f, unit_module)
        if f.entry(0, 0).literal() != 3:
            return report
        return VerifierReport(report.name, report.instance, False, report.checked)

    monkeypatch.setattr("ringlab.modules._diagonal_refinement", fail_at_three)
    report = decomposition_verify(Z6)
    assert not report.holds
    assert report.checked == 6
    assert report.counterexample == "diagonal refinement fails for [a] with a in [3]"
    assert "verdict=violated" in report.lines()[0]
