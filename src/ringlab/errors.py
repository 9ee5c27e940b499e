"""Shared exception types and the two budgets that bound every search.

Exhaustive searches in this package are always bounded, and every refusal
goes through :func:`check_element_budget` or :func:`check_search_budget`
(:func:`check_search_power` for a count given as a power, which it names
as that power once the count is far past the cap).  A search counts its
whole box before it enumerates or builds anything; the helper raises
:class:`BudgetExceeded` ("{count} {what} exceed the search budget {cap}")
when the count passes the cap, an inconclusive outcome, never a negative
one.  The element budget counts ring elements (``Ring.elements``) and the
carrier points of ``free_module``, ``to_finite_module`` and
``kernel_image_cokernel``.  The search budget, which
``RINGLAB_SEARCH_BUDGET`` sets for the process, counts cofactor
combinations and column pairs (the counterexample searches), candidate
matrices (brute-force regularity), candidate generator images
(``find_module_isomorphism``), the trial divisors of the primality test
behind ``gf(p)``, the element pairs of the Jacobson radical and of the
regularity scan of ``decomposition_verify``, and the module pairs, candidate
pairs, unit combinations and small matrices of ``verify`` and
``check-cancellation``.  Neither cap is set per call: the element cap
is ``DEFAULT_ELEMENT_BUDGET`` and the search cap is
``RINGLAB_SEARCH_BUDGET`` or ``DEFAULT_SEARCH_BUDGET``.
"""

from __future__ import annotations

import os

DEFAULT_ELEMENT_BUDGET = 4096
DEFAULT_SEARCH_BUDGET = 1_000_000
BUDGET_ENV_VAR = "RINGLAB_SEARCH_BUDGET"


class RinglabError(Exception):
    """Base class for errors raised by this package."""


class MismatchedRings(RinglabError, ValueError):
    """Operands belong to different rings."""


class UnsupportedRing(RinglabError, ValueError):
    """The requested operation is not defined for this ring descriptor."""


class BudgetExceeded(RinglabError):
    """A bounded search ran out of budget before reaching an answer.

    This is an inconclusive outcome, never a negative one.
    """


def element_budget() -> int:
    """Cap on the cardinality of rings that exhaustive operations enumerate."""
    return DEFAULT_ELEMENT_BUDGET


def search_budget() -> int:
    """Cap on candidate searches, overridable via RINGLAB_SEARCH_BUDGET."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
        if value <= 0:
            raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_SEARCH_BUDGET


def check_element_budget(count: int, what: str) -> None:
    """Refuse to enumerate ``count`` ``what`` past the element budget."""
    cap = element_budget()
    if count > cap:
        raise BudgetExceeded(f"{count} {what} exceed the element budget {cap}")


def check_search_budget(count: int, what: str) -> None:
    """Refuse a search over ``count`` ``what`` past the search budget."""
    cap = search_budget()
    if count > cap:
        raise BudgetExceeded(f"{count} {what} exceed the search budget {cap}")


def check_search_power(base: int, exponent: int, what: str) -> None:
    """:func:`check_search_budget` for a search over ``base ** exponent``
    ``what``.  The count is built only when it has at most four times the
    cap's bits; a larger one is refused as the power itself, so neither the
    decision nor the message grows with the exponent."""
    cap = search_budget()
    if exponent * (base.bit_length() - 1) > 2 * cap.bit_length():
        raise BudgetExceeded(f"{base}^{exponent} {what} exceed the search budget {cap}")
    check_search_budget(base ** exponent, what)
