"""Module axioms of every library-built module.

The library's own constructors (ring, free, cyclic, annihilator and quotient
modules, direct sums, expanded projectives, kernels, images and cokernels)
derive their rules from ring operations and skip the axiom check at run
time.  These tests run that same check, ``FiniteModule._verify_axioms``, on
each constructor's output instead; it raises ``ValueError`` on a violation.
"""

import pytest

from ringlab import (
    ModularRing,
    RingMatrix,
    annihilator_submodule,
    cyclic_submodule,
    direct_sum,
    free_module,
    free_projective,
    kernel_image_cokernel,
    localize_at_element,
    parse_ring,
    projective_module,
    quotient_by_cyclic,
    ring_module,
    to_finite_module,
)
from ringlab.modules import _LibraryModule, submodule_of_ring

SMALL_RINGS = [
    parse_ring("product(modular(2), modular(4))"),
    parse_ring("trivial(modular(3))"),
]


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def assert_axioms(*modules):
    for module in modules:
        assert isinstance(module, _LibraryModule)
        module._verify_axioms()


@pytest.mark.parametrize("n", range(2, 31))
def test_ideal_and_quotient_modules_over_zn(n):
    ring = ModularRing(n)
    assert_axioms(ring_module(ring))
    for d in divisors(n):
        a = ring.make(d)
        assert_axioms(cyclic_submodule(a), annihilator_submodule(a), quotient_by_cyclic(a))


@pytest.mark.parametrize("n", [*range(2, 13), 30])
def test_direct_sums_over_zn(n):
    ring = ModularRing(n)
    for d in divisors(n):
        a = ring.make(d)
        ideal = cyclic_submodule(a)
        assert_axioms(
            direct_sum(annihilator_submodule(a), ideal),
            direct_sum(quotient_by_cyclic(a), ideal),
        )


@pytest.mark.parametrize("n", range(2, 7))
def test_free_modules_over_zn(n):
    assert_axioms(free_module(ModularRing(n), 2))


@pytest.mark.parametrize(
    "n, multiplicities", [(6, (2, 1)), (12, (1, 1)), (12, (0, 2))]
)
def test_expanded_projectives(n, multiplicities):
    assert_axioms(to_finite_module(projective_module(ModularRing(n), multiplicities)))


@pytest.mark.parametrize("n", range(2, 13))
def test_kernel_image_cokernel_of_every_scalar_over_zn(n):
    ring = ModularRing(n)
    for a in ring.elements():
        assert_axioms(*kernel_image_cokernel(RingMatrix.from_rows(ring, [[a]])))


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.descriptor())
def test_every_builder_over_non_modular_rings(ring):
    assert_axioms(ring_module(ring), free_module(ring, 2))
    assert_axioms(to_finite_module(free_projective(ring, 1)))
    for a in ring.elements():
        assert_axioms(*kernel_image_cokernel(RingMatrix.from_rows(ring, [[a]])))
    # ann(a), aR and R/aR depend only on the ideal aR: one generator each
    generators = {}
    for a in ring.elements():
        generators.setdefault(frozenset(cyclic_submodule(a).points), a)
    for a in generators.values():
        ideal = cyclic_submodule(a)
        kernel, quotient = annihilator_submodule(a), quotient_by_cyclic(a)
        assert_axioms(ideal, kernel, quotient)
        assert_axioms(direct_sum(kernel, ideal), direct_sum(quotient, ideal))


def test_the_check_catches_broken_library_rules():
    ring = ModularRing(6)
    broken = _LibraryModule(ring, range(6), 0, lambda x, y: x, ring._mul, "broken")
    with pytest.raises(ValueError):
        broken._verify_axioms()


def test_caller_supplied_subsets_of_the_ring_are_still_checked():
    with pytest.raises(ValueError):
        submodule_of_ring(ModularRing(6), [0, 1], "bad")


def test_localized_module_is_checked():
    ring = ModularRing(6)
    unchecked = _LibraryModule(ring, range(6), 0, lambda x, y: x, ring._mul, "broken")
    with pytest.raises(ValueError, match="not commutative"):
        localize_at_element(unchecked, ring.one())
