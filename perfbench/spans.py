"""Span tracing of qgcutoff's layers from outside the package.

``install`` replaces each traced function, by object identity, in every
loaded ``qgcutoff.*`` module namespace: callers bind names with
``from .x import y``, so ``bounds.u_seq``, ``verify.porod_nodes`` and
``structures.porod_nodes`` must all be replaced.  A span records
[name, start, end, parent index, invocation id, paused seconds]; spans stay
in memory until the pass ends.  A span's self time is its duration minus the
durations of its direct children (calls are nested on one thread, so
children never overlap) minus the time it was paused for a speed probe.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable

# span name -> (module, attribute) of every public function it covers
TRACED: dict[str, tuple[tuple[str, str], ...]] = {
    "numerics.u_seq": (("numerics", "u_seq"),),
    "structures.porod_nodes": (("structures", "porod_nodes"),),
    "structures.moment": (("structures", "moment"),),
    "structures.group_setup": (("structures", "FiniteGroup.from_table"), ("structures", "GroupState.from_values")),
    "words.count": (("words", "count_unitary"), ("words", "count_wreath")),
    "bounds.A_k": (("bounds", "A_k_unitary"), ("bounds", "A_k_mixture"), ("bounds", "A_k_wreath")),
    "bounds.tv_upper": (("bounds", "tv_upper_from_A"),),
    "bounds.tv_lower": (("bounds", "tv_lower"),),
    "bounds.cutoff_profile": (("bounds", "cutoff_profile"),),
    "verify.run_all": (("verify", "run_all"),),
    "verify.negative_controls": (("verify", "negative_controls"),),
    "cli.main": (("cli", "main"),),
}


class Tracer:
    """In-memory span log plus the counters measured at span boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.current = -1
        self.invocation = -1
        self.words = 0
        self.porod_built: set[tuple] = set()
        self.porod_repeats = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, self.current, self.invocation, 0.0]
            self.current = len(spans)
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                self.current = rec[3]
            self._count(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def pause(self, seconds: float) -> None:
        """Charge time spent outside the traced code to the innermost open span."""
        if self.current >= 0:
            self.spans[self.current][5] += seconds

    def _count(self, name: str, args: tuple, kwargs: dict, result: object) -> None:
        if name == "bounds.A_k":
            self.words += result.terms_used
        elif name == "structures.porod_nodes":
            key = args + tuple(sorted(kwargs.items()))
            if key in self.porod_built:
                self.porod_repeats += 1
            self.porod_built.add(key)

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {"calls", "self_s"} over every recorded span."""
        self_s = [rec[2] - rec[1] - rec[5] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                self_s[rec[3]] -= rec[2] - rec[1]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for rec, s in zip(self.spans, self_s):
            out[rec[0]]["calls"] += 1
            out[rec[0]]["self_s"] += s
        return {name: dict(out[name]) for name in TRACED}


def install() -> Tracer:
    """Replace every traced function in the loaded qgcutoff modules."""
    tracer = Tracer()
    modules = {name: mod for name, mod in sys.modules.items()
               if mod is not None and (name == "qgcutoff" or name.startswith("qgcutoff."))}
    for span, targets in TRACED.items():
        for module, attr in targets:
            owner = modules[f"qgcutoff.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                func = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(tracer.wrap(span, func)))
                continue
            original = getattr(owner, attr)
            wrapped = tracer.wrap(span, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
    return tracer
