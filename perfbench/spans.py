"""Spans and call counts for the traced run, installed from outside ringlab.

``Tracer.install`` rebinds each timed function wherever ringlab's modules
look it up (every module global bound to the original function, the
``ringlab`` package included) and patches the timed and counted methods on
their classes.  ``uninstall`` puts the originals back.  Spans stay in memory
as ``[name, start, end, parent index, operation id]``; self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (defining module, function) timed by a span; the metric prefix is
# "<module>.<function>".
TIMED_FUNCTIONS = (
    ("rings", "is_regular_element"),
    ("matrices", "smith_normal_form"),
    ("matrices", "diagonal_reduction"),
    ("matrices", "verify_reduction"),
    ("matrices", "is_regular_matrix"),
    ("matrices", "reduction_to_document"),
    ("matrices", "matrix_from_document"),
    ("modules", "module_iso"),
    ("modules", "find_module_isomorphism"),
    ("modules", "direct_sum"),
    ("modules", "cyclic_submodule"),
    ("modules", "annihilator_submodule"),
    ("modules", "quotient_by_cyclic"),
    ("modules", "kernel_image_cokernel"),
    ("modules", "diagonal_refinement_check"),
    ("modules", "jacobson_lift_verify"),
    ("modules", "cancellation_and_reduction_verify"),
    ("modules", "local_global_verify"),
    ("modules", "partition_of_unity_verify"),
    ("monoids", "refine"),
    ("monoids", "conical_check"),
    ("monoids", "cancellation_law_check"),
    ("counterexamples", "bounded_principality_check"),
    ("counterexamples", "trivial_extension_hermite_search"),
    ("cli", "main"),
)
# (module, class, method, metric prefix) timed by a span
TIMED_METHODS = (
    ("matrices", "RingMatrix", "__matmul__", "matrices.RingMatrix.matmul"),
    ("modules", "FiniteModule", "__init__", "modules.FiniteModule.init"),
)
# (module, class, method) only counted: too hot to time
COUNTED_METHODS = tuple(
    ("rings", "Ring", m) for m in ("add", "sub", "mul", "neg", "make")
) + tuple(("rings", "EuclideanOps", m) for m in ("add", "sub", "mul"))

REDUCTIONS = ("matrices.smith_normal_form", "matrices.diagonal_reduction")
SUBMODULE_BUILDERS = (
    "modules.cyclic_submodule",
    "modules.annihilator_submodule",
    "modules.quotient_by_cyclic",
)


def span_names() -> list[str]:
    return [f"{m}.{f}" for m, f in TIMED_FUNCTIONS] + [p for *_, p in TIMED_METHODS]


def counted_names() -> list[str]:
    return [f"{m}.{c}.{f}" for m, c, f in COUNTED_METHODS]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.submodule_builds: set = set()
        self._undo: list[tuple[object, str, object]] = []

    def _timed(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        builds = self.submodule_builds if name in SUBMODULE_BUILDERS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if builds is not None:
                d = args[0]
                builds.add((name, d.ring.descriptor(), d.payload))
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        loaded = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "ringlab" or name.startswith("ringlab.")
        ]
        for module, func in TIMED_FUNCTIONS:
            original = getattr(sys.modules[f"ringlab.{module}"], func)
            wrapper = self._timed(f"{module}.{func}", original)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        for module, cls, method, name in TIMED_METHODS:
            owner = getattr(sys.modules[f"ringlab.{module}"], cls)
            self._set(owner, method, self._timed(name, owner.__dict__[method]))
        for module, cls, method in COUNTED_METHODS:
            owner = getattr(sys.modules[f"ringlab.{module}"], cls)
            name = f"{module}.{cls}.{method}"
            self._set(owner, method, self._counted(name, owner.__dict__[method]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self, ops: int) -> dict[str, float]:
        """Calls and self time per span name, counts per counted method, and
        the waste ratios, for a traced phase of ``ops`` operations."""
        names = span_names()
        calls = Counter()
        self_s = dict.fromkeys(names, 0.0)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        in_reduction = [False] * len(self.spans)
        outer_reductions = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            if parent >= 0:
                in_reduction[i] = in_reduction[parent] or self.spans[parent][0] in REDUCTIONS
            if name in REDUCTIONS and not in_reduction[i]:
                outer_reductions += 1
        out: dict[str, float] = {}
        for name in counted_names():
            out[f"{name}.calls"] = self.counts[name]
        for name in names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        verifies = calls["matrices.verify_reduction"]
        out["matrices.verify_per_reduction"] = (
            verifies / outer_reductions if outer_reductions else 0.0
        )
        out["matrices.reductions_per_op"] = outer_reductions / ops if ops else 0.0
        builds = sum(calls[n] for n in SUBMODULE_BUILDERS)
        distinct = len(self.submodule_builds)
        out["modules.submodule_builds_per_distinct"] = builds / distinct if distinct else 0.0
        return out
