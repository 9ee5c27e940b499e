"""The benchmark workloads.

Each workload is built from the imported ``ringlab`` package, its ``cli``
module and a seed.  It hands out a few untimed warm-up operations
(``warm_up_items``), the timed operations in passes (``passes``) and a fixed
set for the traced run (``trace_items``).  It runs one operation (``run``)
and checks its output against the independent oracle (``check``, outside
the timed span).  Checks that need sympy run once, after the timed phase
(``finish``), so that sympy is not loaded while memory is measured.  Every ringlab function is looked up
on its module at call time, so the traced run's rebinding is seen.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
import sys
from pathlib import Path
from typing import Any, Iterator, Optional

import oracle

GOLDENS = Path(__file__).resolve().parent / "goldens.json"
INTEGERS = oracle.IntArith()
GFPoly = oracle.GFPolyArith(oracle.POLY_PRIME)


class SnfEuclid:
    """`ringlab snf --emit-witness` in process, over Z and GF(7)[x].

    One pass is a block of inputs with a fixed mix: 40 small integer
    matrices (3 to 5 rows and columns, |a| <= 100), four 10x10 and two
    16x16 (|a| <= 1000), and eight 6x6 GF(7)[x] matrices of degree <= 2.
    All but the 16x16 ones are fresh in every pass.  The 16x16 ones come in
    turn from a pool of 16, the same for every seed, starting at a place the
    seed sets: their witness size is heavy-tailed, and a run's peak memory
    and slowest operations follow its largest witness, so fresh draws made
    those metrics a lottery over seeds.

    About one random 16x16 input in eight, and two of the pool, get a witness
    entry over Python's default limit of 4300 decimal digits for int-to-str
    conversion, where the CLI's ``json.dumps`` raises.  The workload lifts
    that limit for its process, so every witness is emitted and checked, and
    counts the outputs that would have hit it (``over_str_limit``).
    """

    name = "snf-euclid"
    # (kind, rows, cols, entry bound or degree, count per pass)
    MIX = (
        ("int", None, None, 100, 40),
        ("int", 10, 10, 1000, 4),
        ("poly", 6, 6, 2, 8),
    )
    # (kind, rows, cols, entry bound) of the pooled inputs
    LARGE = ("int", 16, 16, 1000)
    LARGE_POOL, LARGE_PER_PASS = 16, 2

    def __init__(self, ringlab, cli, seed: int) -> None:
        self.rl = ringlab
        self.seed = seed
        self.stats = {"witness_bits_max": 0, "witness_degree_max": 0, "over_str_limit": 0}
        sys.set_int_max_str_digits(0)
        # (kind, A, diagonal) of each checked output, as compact JSON text so
        # that the benchmark's own memory does not grow with the run
        self.pending: list[str] = []
        self.oracle_rng = random.Random(f"{self.name}:{seed}:oracle")
        rng = random.Random(f"{self.name}:large")
        self.large = [self._matrix(rng, *self.LARGE) for _ in range(self.LARGE_POOL)]

    def _matrix(self, rng: random.Random, kind, rows, cols, bound) -> dict:
        rows = rows or rng.randint(3, 5)
        cols = cols or rng.randint(3, 5)
        if kind == "int":
            entries = [rng.randint(-bound, bound) for _ in range(rows * cols)]
            ring = "integers"
        else:
            entries = []
            for _ in range(rows * cols):
                coeffs = [rng.randrange(oracle.POLY_PRIME) for _ in range(bound + 1)]
                entries.append(GFPoly.norm(coeffs))
            ring = f"poly(gf({oracle.POLY_PRIME}))"
        return {"ring": ring, "rows": rows, "cols": cols, "entries": entries}

    def _block(self, tag: str, large: list[dict], copies: int | None = None) -> list:
        rng = random.Random(f"{self.name}:{tag}")
        items = [
            (kind, self._matrix(rng, kind, rows, cols, bound))
            for kind, rows, cols, bound, count in self.MIX
            for _ in range(count if copies is None else copies)
        ]
        items += [(self.LARGE[0], doc) for doc in large]
        rng.shuffle(items)
        return items

    def _pass(self, index: int) -> list:
        first = self.seed + self.LARGE_PER_PASS * index
        large = [self.large[(first + j) % self.LARGE_POOL] for j in range(self.LARGE_PER_PASS)]
        return self._block(f"{self.seed}:{index}", large)

    def warm_up_items(self) -> list:
        # the same for every seed, so that set-up time does not depend on it;
        # its 16x16 input is not one of the pool
        large = self._matrix(random.Random(f"{self.name}:warm-up:large"), *self.LARGE)
        return self._block("warm-up", [large], copies=1)

    def passes(self) -> Iterator[list]:
        for index in itertools.count():
            yield self._pass(index)

    def trace_items(self) -> list:
        return self._pass(0)

    def run(self, item) -> str:
        rl = self.rl
        A = rl.matrix_from_document(item[1])
        red = rl.smith_normal_form(A)
        return json.dumps(rl.reduction_to_document(A, red, True), indent=2)

    def check(self, item, out: str) -> Optional[str]:
        kind, doc = item
        arith = INTEGERS if kind == "int" else GFPoly
        A = oracle.grid([arith.norm(e) for e in doc["entries"]], doc["rows"], doc["cols"])
        result = json.loads(out)
        bad = oracle.snf_document_failure(arith, self.oracle_rng, A, result)
        if bad:
            return bad
        bits, degree = oracle.witness_size(result)
        if oracle.longest_integer_digits(result) > sys.int_info.default_max_str_digits:
            self.stats["over_str_limit"] += 1
        self.stats["witness_bits_max"] = max(self.stats["witness_bits_max"], bits)
        self.stats["witness_degree_max"] = max(self.stats["witness_degree_max"], degree)
        self.pending.append(json.dumps((kind, A, [arith.norm(e) for e in result["diagonal"]])))
        return None

    def finish(self) -> list[str]:
        """Compare every checked diagonal with sympy's invariant factors."""
        failures = []
        for kind, A, diagonal in map(json.loads, self.pending):
            want = oracle.invariant_factors(kind, A)
            if diagonal != want:
                failures.append(f"diagonal {diagonal} != sympy {want}")
        self.pending.clear()
        return failures


class CliSuite:
    """Five in-process `ringlab` commands, stdout captured and compared byte
    for byte with goldens recorded at the seed commit.  One pass runs ex31
    five times and every other command once; the traced run takes each
    command once.  The goldens fix the inputs, so the seed changes nothing."""

    name = "cli-suite"
    COMMANDS = (
        ("verify_modular12", ("verify", "--ring", "modular(12)", "--bound", "2")),
        ("verify_modular30", ("verify", "--ring", "modular(30)", "--bound", "2")),
        ("ex31", ("counterexample", "ex31", "--degree", "3")),
        ("ex33", ("counterexample", "ex33")),
        ("ex34", ("counterexample", "ex34")),
    )
    # ex31 sits between the two fast and the two verify commands, so the
    # median latency is an ex31 call; five a pass make it the median of ten
    # calls in a 30 s run of two passes, not of two
    PASS = COMMANDS[:2] + COMMANDS[2:3] * 5 + COMMANDS[3:]
    # the verify commands take most of a pass, so set-up only warms the rest
    WARM_UP = ("ex31", "ex33", "ex34")

    def __init__(self, ringlab, cli, seed: int) -> None:
        self.cli = cli
        self.seed = seed
        with open(GOLDENS, encoding="utf-8") as fh:
            self.goldens = {g["name"]: g for g in json.load(fh)}
        self.stats = {"candidates_examined": 0}

    def warm_up_items(self) -> list:
        return [item for item in self.COMMANDS if item[0] in self.WARM_UP]

    def passes(self) -> Iterator[list]:
        while True:
            yield list(self.PASS)

    def trace_items(self) -> list:
        return list(self.COMMANDS)

    def run(self, item) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(list(item[1]))
        return code, buf.getvalue()

    def check(self, item, out) -> Optional[str]:
        for count in re.findall(r"^candidates_examined=(\d+)$", out[1], re.M):
            self.stats["candidates_examined"] += int(count)
        return oracle.cli_failure(self.goldens[item[0]], *out)

    def finish(self) -> list[str]:
        return []


WORKLOADS: dict[str, Any] = {w.name: w for w in (SnfEuclid, CliSuite)}
