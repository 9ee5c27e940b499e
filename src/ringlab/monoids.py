"""Finitely presented commutative monoids and 2x2 refinement witnesses.

Elements are exponent vectors over the generators.  Equality in a presented
monoid is decided by a bounded bidirectional rewriting search: relations are
applied in both directions from both sides, and the answer is a tri-state.
``UNEQUAL`` is only reported when one side's congruence class was exhausted,
so it is exact; ``INCONCLUSIVE`` means the bound ran out.  Free presentations
are decided exactly by vector comparison.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceeded, check_search_budget

_STATE_BUDGET = 20_000


class EqResult(enum.Enum):
    EQUAL = "equal"
    UNEQUAL = "unequal"
    INCONCLUSIVE = "inconclusive"


def _vector(values: Iterable[int], length: int | None = None) -> tuple[int, ...]:
    vec = tuple(int(v) for v in values)
    if any(v < 0 for v in vec):
        raise ValueError(f"exponents must be nonnegative, got {vec}")
    if length is not None and len(vec) != length:
        raise ValueError(f"expected {length} exponents, got {len(vec)}")
    return vec


@dataclass(frozen=True)
class MonoidPresentation:
    """A commutative monoid given by a generator count and relation pairs.

    Each relation is a pair of exponent vectors identified with each other.
    No relations means the free commutative monoid.
    """

    generator_count: int
    relations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.generator_count, int) or self.generator_count < 1:
            raise ValueError("generator_count must be a positive integer")
        canon = tuple(
            (_vector(lhs, self.generator_count), _vector(rhs, self.generator_count))
            for lhs, rhs in self.relations
        )
        object.__setattr__(self, "relations", canon)

    @property
    def is_free(self) -> bool:
        return not self.relations

    def element(self, exponents: Iterable[int]) -> "MonoidElement":
        return MonoidElement(self, _vector(exponents, self.generator_count))

    def zero(self) -> "MonoidElement":
        return MonoidElement(self, (0,) * self.generator_count)

    def to_json(self) -> dict:
        return {
            "generators": self.generator_count,
            "relations": [[list(lhs), list(rhs)] for lhs, rhs in self.relations],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "MonoidPresentation":
        if not isinstance(doc, dict) or "generators" not in doc:
            raise ValueError("presentation document needs a 'generators' key")
        relations = doc.get("relations", [])
        if not isinstance(relations, list):
            raise ValueError("'relations' must be a list of [lhs, rhs] pairs")
        pairs = []
        for item in relations:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ValueError(f"expected a [lhs, rhs] pair, got {item!r}")
            pairs.append((tuple(item[0]), tuple(item[1])))
        return cls(doc["generators"], tuple(pairs))

    def describe(self) -> str:
        if self.is_free:
            return f"free({self.generator_count})"
        return json.dumps(self.to_json(), separators=(",", ":"))


@dataclass(frozen=True)
class MonoidElement:
    presentation: MonoidPresentation
    exponents: tuple[int, ...]

    def __add__(self, other: "MonoidElement") -> "MonoidElement":
        if self.presentation != other.presentation:
            raise ValueError("elements belong to different presentations")
        return MonoidElement(
            self.presentation,
            tuple(a + b for a, b in zip(self.exponents, other.exponents)),
        )

    def scaled(self, k: int) -> "MonoidElement":
        if k < 0:
            raise ValueError("monoid elements scale by nonnegative integers")
        return MonoidElement(self.presentation, tuple(k * e for e in self.exponents))

    def __repr__(self) -> str:
        return f"<{','.join(map(str, self.exponents))}>"


def _neighbors(vec: tuple[int, ...], moves) -> Iterable[tuple[int, ...]]:
    for lhs, rhs in moves:
        if all(v >= l for v, l in zip(vec, lhs)):
            yield tuple(v - l + r for v, l, r in zip(vec, lhs, rhs))


def normalize_and_eq(
    a: MonoidElement, b: MonoidElement, search_bound: int = 8
) -> EqResult:
    """Tri-state equality under the congruence generated by the relations.

    Runs a breadth-first rewriting search of depth ``search_bound`` from both
    sides.  EQUAL when the explored classes meet; UNEQUAL when one side's
    entire class was enumerated without meeting the other (exact); otherwise
    INCONCLUSIVE.
    """
    if a.presentation != b.presentation:
        raise ValueError("elements belong to different presentations")
    if search_bound < 0:
        raise ValueError("search_bound must be nonnegative")
    pres = a.presentation
    if pres.is_free:
        return EqResult.EQUAL if a.exponents == b.exponents else EqResult.UNEQUAL
    if a.exponents == b.exponents:
        return EqResult.EQUAL
    moves = []
    for lhs, rhs in pres.relations:
        moves.append((lhs, rhs))
        moves.append((rhs, lhs))
    # side 0 is a, side 1 is b; each round expands a's frontier, then b's
    seen = ({a.exponents}, {b.exponents})
    frontiers = [[a.exponents], [b.exponents]]
    truncated = [False, False]
    for _ in range(search_bound):
        if not any(frontiers):
            break
        for side, mine in enumerate(seen):
            other = seen[1 - side]
            grown: list[tuple[int, ...]] = []
            for vec in frontiers[side]:
                for nxt in _neighbors(vec, moves):
                    if nxt not in mine:
                        if len(mine) >= _STATE_BUDGET:
                            truncated[side] = True
                            continue
                        mine.add(nxt)
                        grown.append(nxt)
                        if nxt in other:
                            return EqResult.EQUAL
            frontiers[side] = grown
    if any(not f and not t for f, t in zip(frontiers, truncated)):
        # one side's class is fully known and the other start never appeared
        return EqResult.UNEQUAL
    return EqResult.INCONCLUSIVE


@dataclass(frozen=True)
class RefinementWitness:
    """A 2x2 grid z with row sums x1, x2 and column sums y1, y2."""

    z11: MonoidElement
    z12: MonoidElement
    z21: MonoidElement
    z22: MonoidElement

    def grid(self) -> tuple[tuple[MonoidElement, MonoidElement], ...]:
        return ((self.z11, self.z12), (self.z21, self.z22))

    def row_sums(self) -> tuple[MonoidElement, MonoidElement]:
        return (self.z11 + self.z12, self.z21 + self.z22)

    def column_sums(self) -> tuple[MonoidElement, MonoidElement]:
        return (self.z11 + self.z21, self.z12 + self.z22)


def _check_same_presentation(*elements: MonoidElement) -> MonoidPresentation:
    pres = elements[0].presentation
    for e in elements[1:]:
        if e.presentation != pres:
            raise ValueError("elements belong to different presentations")
    return pres


def refine(
    x1: MonoidElement,
    x2: MonoidElement,
    y1: MonoidElement,
    y2: MonoidElement,
    bound: int,
) -> Optional[RefinementWitness]:
    """Search for a 2x2 refinement grid with entries bounded by ``bound``.

    Requires x1 + x2 = y1 + y2: a provable mismatch raises ValueError, and a
    sum equality the word problem cannot certify at this bound raises
    BudgetExceeded.  Candidates for z11 are scanned in descending
    lexicographic order and the first witness is returned, which for free
    monoids is the componentwise-min grid.  Returns None when the bounded
    search is exhausted; for free commutative monoids that cannot happen once
    ``bound`` reaches the largest input exponent.
    """
    pres = _check_same_presentation(x1, x2, y1, y2)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    total_eq = normalize_and_eq(x1 + x2, y1 + y2, max(bound, 8))
    if total_eq == EqResult.UNEQUAL:
        raise ValueError("x1 + x2 and y1 + y2 differ; nothing to refine")
    if total_eq == EqResult.INCONCLUSIVE:
        raise BudgetExceeded(
            "could not certify x1 + x2 = y1 + y2 within the search bound"
        )
    k = pres.generator_count
    if pres.is_free:
        lo = []
        hi = []
        for i in range(k):
            lo.append(
                max(
                    0,
                    x1.exponents[i] - y2.exponents[i],
                    x1.exponents[i] - bound,
                    y1.exponents[i] - bound,
                )
            )
            hi.append(min(x1.exponents[i], y1.exponents[i], bound))
        if any(l > h for l, h in zip(lo, hi)):
            return None
        z11 = tuple(hi)
        z12 = tuple(a - b for a, b in zip(x1.exponents, z11))
        z21 = tuple(a - b for a, b in zip(y1.exponents, z11))
        z22 = tuple(a - b for a, b in zip(x2.exponents, z21))
        return RefinementWitness(
            pres.element(z11), pres.element(z12), pres.element(z21), pres.element(z22)
        )
    box = [tuple(reversed(range(bound + 1)))] * k  # descending per coordinate
    candidates = list(itertools.product(*box))
    ascending = list(itertools.product(*([tuple(range(bound + 1))] * k)))
    for z11 in candidates:
        e11 = pres.element(z11)
        for z12 in ascending:
            e12 = pres.element(z12)
            if normalize_and_eq(e11 + e12, x1, bound) != EqResult.EQUAL:
                continue
            for z21 in ascending:
                e21 = pres.element(z21)
                if normalize_and_eq(e11 + e21, y1, bound) != EqResult.EQUAL:
                    continue
                for z22 in ascending:
                    e22 = pres.element(z22)
                    if (
                        normalize_and_eq(e21 + e22, x2, bound) == EqResult.EQUAL
                        and normalize_and_eq(e12 + e22, y2, bound) == EqResult.EQUAL
                    ):
                        return RefinementWitness(e11, e12, e21, e22)
    return None


def conical_check(
    elements: Sequence[MonoidElement], search_bound: int = 4
) -> bool:
    """True iff no two elements of the set that are not provably zero sum to
    zero.  Exact for free presentations; for presented monoids an element
    counts as nonzero unless the bounded search certifies it equal to zero.
    """
    if not elements:
        return True
    pres = _check_same_presentation(*elements)
    zero = pres.zero()
    if pres.is_free:
        # x + y = 0 forces x = y = 0 componentwise
        return True
    nonzero = [
        e
        for e in elements
        if normalize_and_eq(e, zero, search_bound) != EqResult.EQUAL
    ]
    for x in nonzero:
        for y in nonzero:
            if normalize_and_eq(x + y, zero, search_bound) == EqResult.EQUAL:
                return False
    return True


@dataclass(frozen=True)
class CancellationReport:
    """Outcome of checking 2u + A = u + B implies u + A = B over candidates."""

    holds: bool
    counterexample: Optional[tuple[MonoidElement, MonoidElement]]
    pairs_checked: int

    def describe(self) -> str:
        if self.holds:
            return f"holds over {self.pairs_checked} pairs"
        a, b = self.counterexample
        return (
            f"counterexample A={','.join(map(str, a.exponents))} "
            f"B={','.join(map(str, b.exponents))}"
        )


def cancellation_candidates(
    presentation: MonoidPresentation, max_entry: int
) -> list[MonoidElement]:
    """Every element with exponents up to ``max_entry``, in lexicographic
    order, once the (max_entry + 1)^(2k) ordered pairs that
    :func:`cancellation_law_check` examines over them fit the search budget."""
    k = presentation.generator_count
    check_search_budget((max_entry + 1) ** (2 * k), "candidate pairs")
    box = itertools.product(range(max_entry + 1), repeat=k)
    return [presentation.element(v) for v in box]


def cancellation_law_check(
    unit: MonoidElement,
    candidates: Sequence[MonoidElement],
    search_bound: int = 8,
) -> CancellationReport:
    """Check the cancellation implication over all ordered candidate pairs.

    A pair (A, B) is a counterexample when 2*unit + A = unit + B holds but
    unit + A = B fails.  Pairs whose premise or conclusion stays inconclusive
    at the bound make the whole check inconclusive (BudgetExceeded) unless a
    definite counterexample was found first.
    """
    if candidates:
        _check_same_presentation(unit, *candidates)
    two_u = unit + unit
    undecided = 0
    checked = 0
    for a in candidates:
        for b in candidates:
            checked += 1
            premise = normalize_and_eq(two_u + a, unit + b, search_bound)
            if premise == EqResult.UNEQUAL:
                continue
            if premise == EqResult.INCONCLUSIVE:
                undecided += 1
                continue
            conclusion = normalize_and_eq(unit + a, b, search_bound)
            if conclusion == EqResult.UNEQUAL:
                return CancellationReport(False, (a, b), checked)
            if conclusion == EqResult.INCONCLUSIVE:
                undecided += 1
    if undecided:
        raise BudgetExceeded(
            f"{undecided} candidate pairs stayed inconclusive at bound {search_bound}"
        )
    return CancellationReport(True, None, checked)
