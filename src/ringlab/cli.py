"""Command-line front end.

Subcommands cover witnessed reduction (``snf``, ``reduce``, ``bezout``),
monoid refinement and cancellation (``refine``, ``check-cancellation``),
module queries (``localize``, ``iso``), the theorem suite over one ring
(``verify``), and the bounded counterexample searches (``counterexample``).

Exit codes: 0 when every check passed, 1 when a property was violated (the
counterexample payload is printed), 2 when a bound or budget ran out before
an answer was reached, 3 for input errors, 4 when an internal consistency
check failed (a bug in ringlab; the message and the arguments are printed).
Output is line oriented with a stable field order and is byte-identical
across runs of the same request.

``main`` parses with one parser per process, built on first use.  Handlers
and reducers are stored in it by name and looked up in this module when a
command runs, so rebinding a module global here still takes effect.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import Iterator, Optional, Sequence

from .counterexamples import (
    PrincipalWitness,
    bounded_principality_check,
    trivial_extension_hermite_search,
)
from .errors import BudgetExceeded
from .matrices import (
    RingMatrix,
    matrix_from_document,
    reduce_matrix,
    reduction_to_document,
    smith_normal_form,
)
from .monoids import (
    EqResult,
    MonoidPresentation,
    cancellation_candidates,
    cancellation_law_check,
    normalize_and_eq,
    refine,
)
from .modules import (
    localize_at_element,
    localize_at_maximal,
    module_iso,
    projective_module,
    verify_suite,
)
from .rings import (
    BivariatePolynomialRing,
    ModularRing,
    PolynomialRing,
    PrimeField,
    Ring,
    RingElement,
    parse_ring,
    primitive_idempotent_decomposition,
)

PASS, VIOLATION, EXHAUSTED, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3, 4


@contextlib.contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    """Lift the interpreter's cap on int <-> str conversion (Python 3.11+)
    for the duration of the block, so operands, matrices and witnesses of
    any size can be read and printed."""
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None:
        yield
        return
    previous = sys.get_int_max_str_digits()
    setter(0)
    try:
        yield
    finally:
        setter(previous)


def _read_matrix(path: str) -> RingMatrix:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"matrix input is not valid JSON: {exc}") from exc
    return matrix_from_document(doc)


def _parse_exponents(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_element(ring: Ring, text: str):
    try:
        literal = json.loads(text)
    except json.JSONDecodeError:
        literal = text
    return ring.make(literal)


def _presentation_from_args(args: argparse.Namespace) -> MonoidPresentation:
    if args.monoid is None:
        return MonoidPresentation(generator_count=args.generators, relations=())
    try:
        doc = json.loads(args.monoid)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--monoid is not valid JSON: {exc}") from exc
    return MonoidPresentation.from_json(doc)


def _cmd_reduction(args: argparse.Namespace) -> int:
    matrix = _read_matrix(args.input)
    reduction = globals()[args.reducer](matrix)
    doc = reduction_to_document(matrix, reduction, args.emit_witness)
    print(json.dumps(doc, indent=2))
    return PASS if doc["verified"] else VIOLATION


def _cmd_bezout(args: argparse.Namespace) -> int:
    from .rings import bezout_gcd

    ring = parse_ring(args.ring)
    a = _parse_element(ring, args.a)
    b = _parse_element(ring, args.b)
    d, s, t = bezout_gcd(a, b)
    print(f"ring={ring.descriptor()}")
    print(f"a={json.dumps(a.literal())} b={json.dumps(b.literal())}")
    print(
        f"d={json.dumps(d.literal())} s={json.dumps(s.literal())}"
        f" t={json.dumps(t.literal())}"
    )
    print(f"identity: s*a + t*b = d verified={s * a + t * b == d}")
    return PASS


def _cmd_refine(args: argparse.Namespace) -> int:
    pres = _presentation_from_args(args)
    x1, x2, y1, y2 = (
        pres.element(_parse_exponents(v)) for v in (args.x1, args.x2, args.y1, args.y2)
    )
    witness = refine(x1, x2, y1, y2, args.bound)
    print(f"monoid={pres.describe()}")
    if witness is None:
        print(f"refine=exhausted bound={args.bound}")
        return EXHAUSTED
    grid = witness.grid()
    for label, row in zip(("z11 z12", "z21 z22"), grid):
        names = label.split()
        for name, entry in zip(names, row):
            print(f"{name}={','.join(map(str, entry.exponents))}")
    # sums need only agree up to the congruence, not exponent by exponent
    sums = witness.row_sums() + witness.column_sums()
    verified = all(
        normalize_and_eq(got, want, max(args.bound, 8)) == EqResult.EQUAL
        for got, want in zip(sums, (x1, x2, y1, y2))
    )
    print(f"verified={verified}")
    return PASS


def _cmd_check_cancellation(args: argparse.Namespace) -> int:
    if args.max_entry < 0:
        raise ValueError("--max-entry must be nonnegative")
    pres = _presentation_from_args(args)
    unit = pres.element(_parse_exponents(args.unit))
    candidates = cancellation_candidates(pres, args.max_entry)
    report = cancellation_law_check(unit, candidates, args.bound)
    print(f"monoid={pres.describe()}")
    print(f"unit={','.join(map(str, unit.exponents))}")
    print(f"pairs_checked={report.pairs_checked}")
    print(f"cancellation={report.describe()}")
    return PASS if report.holds else VIOLATION


def _cmd_localize(args: argparse.Namespace) -> int:
    ring = parse_ring(args.ring)
    module = projective_module(ring, _parse_exponents(args.module))
    if args.at_element is not None:
        f = _parse_element(ring, args.at_element)
        view = localize_at_element(module, f)
    else:
        view = localize_at_maximal(module, args.at_maximal)
    print(f"ring={ring.descriptor()}")
    print(f"module={module.describe()}")
    print(view.describe())
    print(f"result={view.result.describe()} over {view.factor.descriptor()}")
    if view.free_rank is not None:
        print(f"free_rank={view.free_rank}")
    print("multiplicative_set_inverts=True")
    return PASS


def _cmd_iso(args: argparse.Namespace) -> int:
    ring = parse_ring(args.ring)
    left = projective_module(ring, _parse_exponents(args.left))
    right = projective_module(ring, _parse_exponents(args.right))
    answer = module_iso(left, right)
    print(f"ring={ring.descriptor()}")
    print(f"left={left.describe()}")
    print(f"right={right.describe()}")
    print(f"iso={answer}")
    return PASS if answer else VIOLATION


def _default_partition_generators(ring: Ring) -> Iterator[RingElement]:
    """e and 1 - e for a primitive idempotent e (1 over a local ring), yielded
    lazily like ``--generators``, so ``verify_suite``'s ring gate runs first."""
    basis = primitive_idempotent_decomposition(ring)
    if len(basis) == 1:
        yield ring.one()
    else:
        e = basis.elements[0]
        yield from (e, ring.one() - e)


def _cmd_verify(args: argparse.Namespace) -> int:
    ring = parse_ring(args.ring)
    if args.generators is not None:
        gens = (_parse_element(ring, part) for part in args.generators.split(","))
    else:
        gens = _default_partition_generators(ring)
    reports = verify_suite(ring, args.bound, gens)
    for report in reports:
        for line in report.lines():
            print(line)
    failures = sum(not report.holds for report in reports)
    print(f"result={'pass' if failures == 0 else 'violation'}")
    return PASS if failures == 0 else VIOLATION


def _print_principality(verdict, instance: str) -> int:
    print(f"instance={instance}")
    if isinstance(verdict, PrincipalWitness):
        print("verdict=principal")
        print(f"generator={json.dumps(verdict.generator.literal())}")
        for i, c in enumerate(verdict.cofactors):
            print(f"cofactor[{i}]={json.dumps(c.literal())}")
        for i, h in enumerate(verdict.combination):
            print(f"combination[{i}]={json.dumps(h.literal())}")
        print("note: the claimed counterexample is refuted by this witness")
        return VIOLATION
    print(f"verdict=not-principal-up-to bound={verdict.bound}")
    print(f"candidates_examined={verdict.candidates_examined}")
    print(f"note: {verdict.describe()}")
    return PASS


def _cmd_ex31(args: argparse.Namespace) -> int:
    ring = PolynomialRing(ModularRing(4), bound=args.degree)
    generators = [ring.make((2,)), ring.gen()]
    verdict = bounded_principality_check(generators, args.degree)
    return _print_principality(
        verdict,
        f"{ring.descriptor()} ideal=(2, X) degree<={args.degree}",
    )


def _cmd_ex33(args: argparse.Namespace) -> int:
    ring = BivariatePolynomialRing(PrimeField(args.p), args.degree)
    gx, gy = ring.gens()
    verdict = bounded_principality_check([gx, gy], args.degree)
    return _print_principality(
        verdict,
        f"{ring.descriptor()} ideal=(X, Y) total degree<={args.degree}",
    )


def _cmd_ex34(args: argparse.Namespace) -> int:
    report = trivial_extension_hermite_search(height=args.height)
    print(f"instance={report.vector.ring.descriptor()} row=(2, e) height<={report.height}")
    print(f"column_pairs_examined={report.checked}")
    if report.found:
        print("verdict=reduction-found")
        print(report.describe())
        print("note: the claimed counterexample is refuted by this transform")
        return VIOLATION
    print("verdict=no-reduction-within-bounds")
    print(f"note: {report.describe()}")
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description=(
            "Witnessed diagonal reduction over exact rings, refinement-monoid"
            " checks, and bounded counterexample searches."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # handlers and reducers by name, so that a later rebinding is seen
    for name, reducer, text in (
        ("snf", "smith_normal_form", "Smith normal form over integers or gf(p)[X]"),
        ("reduce", "reduce_matrix", "diagonal reduction (modular rings included)"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--input", default="-", help="matrix JSON file, - for stdin")
        p.add_argument("--emit-witness", action="store_true")
        p.set_defaults(func="_cmd_reduction", reducer=reducer)

    p = sub.add_parser("bezout", help="extended gcd with verified identity")
    p.add_argument("--ring", default="integers")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func="_cmd_bezout")

    p = sub.add_parser("refine", help="2x2 refinement grid for x1+x2 = y1+y2")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--generators", type=int, help="rank of a free monoid")
    group.add_argument("--monoid", help='presentation JSON {"generators":..,"relations":..}')
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("x1")
    p.add_argument("x2")
    p.add_argument("y1")
    p.add_argument("y2")
    p.set_defaults(func="_cmd_refine")

    p = sub.add_parser("check-cancellation", help="2u+A = u+B implies u+A = B")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--generators", type=int, help="rank of a free monoid")
    group.add_argument("--monoid", help='presentation JSON {"generators":..,"relations":..}')
    p.add_argument("--unit", required=True, help="exponents of u, comma separated")
    p.add_argument("--max-entry", type=int, default=3)
    p.add_argument("--bound", type=int, default=8)
    p.set_defaults(func="_cmd_check_cancellation")

    p = sub.add_parser("localize", help="localize a projective module")
    p.add_argument("--ring", required=True)
    p.add_argument("--module", required=True, help="multiplicities, comma separated")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--at-element", help="ring element literal")
    group.add_argument("--at-maximal", type=int, help="maximal ideal index")
    p.set_defaults(func="_cmd_localize")

    p = sub.add_parser("iso", help="projective module isomorphism")
    p.add_argument("--ring", required=True)
    p.add_argument("--left", required=True, help="multiplicities, comma separated")
    p.add_argument("--right", required=True, help="multiplicities, comma separated")
    p.set_defaults(func="_cmd_iso")

    p = sub.add_parser("verify", help="theorem suite over one modular ring")
    p.add_argument("--ring", required=True)
    p.add_argument("--bound", type=int, default=3)
    p.add_argument(
        "--generators",
        help="comma-separated elements for the partition-of-unity check",
    )
    p.set_defaults(func="_cmd_verify")

    p = sub.add_parser("counterexample", help="bounded refutation searches")
    instances = p.add_subparsers(dest="instance", required=True)
    p = instances.add_parser("ex31", help="(2, X) in Z/4[X]")
    p.add_argument("--degree", type=int, default=3)
    p.set_defaults(func="_cmd_ex31")
    p = instances.add_parser("ex33", help="(X, Y) in gf(p)[X, Y]")
    p.add_argument("--p", type=int, default=2, help="prime of the coefficients")
    p.add_argument("--degree", type=int, default=2)
    p.set_defaults(func="_cmd_ex33")
    p = instances.add_parser("ex34", help="the row (2, e) over a trivial extension")
    p.add_argument("--height", type=int, default=2, help="entry height")
    p.set_defaults(func="_cmd_ex34")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves no state
    in it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; that slot means "bound exhausted" here
        return PASS if exc.code in (0, None) else INPUT_ERROR
    try:
        with _unlimited_int_digits():
            return globals()[args.func](args)
    except BudgetExceeded as exc:
        print(f"exhausted: {exc}")
        return EXHAUSTED
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}")
        return INPUT_ERROR
    except AssertionError as exc:
        print(f"internal error: {exc}")
        print(f"argv: {json.dumps(list(sys.argv[1:] if argv is None else argv))}")
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
