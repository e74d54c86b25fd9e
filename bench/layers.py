"""Per-layer measurement: spans, a profiler pass and microbenchmarks.

Spans are recorded by the benchmark around its calls into each layer (and
around RatAZ.expand, which extract_mirror and j_function call); none are
placed inside the program.  A layer's self time is its spans' duration minus
the time covered by their child spans.
"""

from __future__ import annotations

import cProfile
import contextlib
import pstats
import random
import statistics
import time
from pathlib import Path

from crepant import RatAZ

# span name -> per-layer metric that sums its self time
SPAN_METRICS = {
    "build_ifunction": "ifunction.build_s",
    "RatAZ.expand": "ifunction.expand_s",
    "extract_mirror": "mirror.extract_s",
    "invert_mirror": "mirror.invert_s",
    "j_function": "mirror.j_s",
    "one_point_invariants": "mirror.table_s",
    "slice_invariants_ex2": "mirror.table_s",
    "continued_ifunction": "continuation.continue_s",
    "xside_terms": "continuation.xside_s",
    "solve_connection": "continuation.solve_s",
    "mellin_barnes_integral": "continuation.mb_s",
}

# source modules whose profiled self time and call counts are reported
PROFILED_MODULES = ("lambda_rat", "fractions", "algebra", "ifunction",
                    "mirror", "continuation", "mpmath")


class _NoTrace:
    """Tracer stand-in for untraced passes: spans and counts cost nothing."""

    enabled = False
    _span = contextlib.nullcontext()

    def span(self, name: str):
        return self._span

    def count(self, name: str, value) -> None:
        pass


NO_TRACE = _NoTrace()


class Tracer:
    """In-memory spans (name, start, end, parent) and counters."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> dict:
        """Self time per span name."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out = {}
        for i, rec in enumerate(self.spans):
            own = rec["end"] - rec["start"] - child[i]
            out[rec["name"]] = out.get(rec["name"], 0.0) + own
        return out


@contextlib.contextmanager
def traced_expand(tracer: Tracer):
    """Wrap RatAZ.expand in a span for the duration of the block."""
    original = RatAZ.expand

    def expand(self, zmin):
        with tracer.span("RatAZ.expand"):
            return original(self, zmin)

    RatAZ.expand = expand
    try:
        yield
    finally:
        RatAZ.expand = original


def _module_of(filename: str) -> str:
    path = Path(filename)
    if path.parent.name == "crepant":
        return path.stem
    if "mpmath" in path.parts[:-1]:
        return "mpmath"
    return "fractions" if path.stem == "fractions" else "other"


def module_stats(prof: cProfile.Profile) -> dict:
    """Profiled self seconds and call counts per source module.

    "calls" counts every call made to a function defined in the module.
    """
    per_module = {}
    for (filename, _, _), (_, ncalls, tottime, _, _) in \
            pstats.Stats(prof).stats.items():
        slot = per_module.setdefault(_module_of(filename),
                                     {"self_s": 0.0, "calls": 0})
        slot["self_s"] += tottime
        slot["calls"] += ncalls
    return per_module


def _per_call_us(fn, items, repeats: int) -> float:
    """Median over repeats of the mean time of fn over items, in us."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for item in items:
            fn(item)
        times.append((time.perf_counter() - start) / len(items) * 1e6)
    return statistics.median(times)


def microbenchmarks(ifunctions: list, seed: int) -> dict:
    """Time the scalar and product layers on operands from real coefficients.

    The seed picks LambdaRat pairs, Element pairs (within one algebra) and
    RatAZ coefficients from the given I-functions.
    """
    rng = random.Random(seed)
    scalars = []
    elements = []
    coeffs = []
    for ifn in ifunctions:
        group = []
        for co in ifn.coeffs.values():
            coeffs.append(co)
            for elem in co.num.layers.values():
                group.append(elem)
                scalars.extend(c for c in elem.coeffs if not c.is_zero)
            for d, _ in co.den:
                scalars.extend(c for c in d.coeffs if not c.is_zero)
        if len(group) > 1:
            elements.append(group)
    rat_pairs = [(rng.choice(scalars), rng.choice(scalars))
                 for _ in range(400)]
    elem_pairs = []
    for _ in range(80):
        group = rng.choice(elements)
        elem_pairs.append((rng.choice(group), rng.choice(group)))
    expand_items = rng.sample(coeffs, min(6, len(coeffs)))
    return {
        "lambda_rat.mul_us": _per_call_us(lambda p: p[0] * p[1],
                                          rat_pairs, 5),
        "lambda_rat.add_us": _per_call_us(lambda p: p[0] + p[1],
                                          rat_pairs, 5),
        "algebra.elem_mul_us": _per_call_us(lambda p: p[0] * p[1],
                                            elem_pairs, 5),
        # the depth extract_mirror expands every coefficient to
        "ifunction.expand_us": _per_call_us(lambda c: c.expand(-1),
                                            expand_items, 3),
    }
