"""In-memory span recorder and the wrappers that feed it.

The traced run replaces public rsmcanon functions with wrappers that
record one span per call: name, start, end, parent span and op id.
A wrapper is installed at every module attribute that holds the
original function object, so a call made through a name another
module imported (``fitting.jacobi_eigen``, ``report.canonicalize``)
is recorded exactly like a direct call. Nothing under ``src/`` is
edited, and ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter

# Span name -> (defining module, attribute path). Several attributes
# may share one span name when they are one layer operation.
TRACED = {
    "modelio.load_emissions": ("rsmcanon.modelio", "load_emissions"),
    "modelio.load_model": ("rsmcanon.modelio", "load_model"),
    "modelio.save_model": ("rsmcanon.modelio", "save_model"),
    "modelio.emit_plot_csv": ("rsmcanon.modelio", "emit_plot_csv"),
    "model.predict_response": ("rsmcanon.model", "predict_response"),
    "linalg.jacobi_eigen": ("rsmcanon.linalg", "jacobi_eigen"),
    "linalg.solve": ("rsmcanon.linalg", "solve"),
    "canonical.canonicalize": ("rsmcanon.canonical", "canonicalize"),
    "canonical.to_canonical": ("rsmcanon.canonical", "to_canonical"),
    "regions.region": ("rsmcanon.regions", "ellipse_region", "hyperbola_region"),
    "regions.contains": ("rsmcanon.regions", "contains"),
    "regions.boundary_points": ("rsmcanon.regions", "boundary_points"),
    "tradeoff.conversion_rates": ("rsmcanon.tradeoff", "conversion_rates"),
    "tradeoff.iso_slopes": ("rsmcanon.tradeoff", "iso_slopes"),
    "fitting.ols_fit": ("rsmcanon.fitting", "ols_fit"),
    "fitting.f_rank": ("rsmcanon.fitting", "f_rank"),
    "report.run_analysis": ("rsmcanon.report", "run_analysis"),
    "report.to_json": ("rsmcanon.report", "AnalysisReport.to_json"),
    "report.to_text": ("rsmcanon.report", "AnalysisReport.to_text"),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the recorder's span list
    op: int


class SpanRecorder:
    """Collects spans in call order; nothing is written until the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op as a root span named ``op``."""
        self.op = op_id
        return self.wrap("op", fn)(*args)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: SpanRecorder, traced=TRACED):
    """Wrap every traced function at each attribute that refers to it.

    Returns a ``restore`` callable. Names missing from the package are
    skipped, so a renamed function shows up as a zero count rather than
    a crash.
    """
    package = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "rsmcanon" or name.startswith("rsmcanon."))]
    patched: list[tuple[object, str, object]] = []
    for span_name, (module_name, *paths) in traced.items():
        module = sys.modules[module_name]
        for path in paths:
            try:
                owner, attr = _resolve(module, path)
            except AttributeError:
                continue
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            wrapper = recorder.wrap(span_name, original)
            patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if owner is not module:
                continue  # a method: callers reach it through the class
            for other in package:
                for key, value in list(vars(other).items()):
                    if value is original:
                        patched.append((other, key, original))
                        setattr(other, key, wrapper)

    def restore() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return restore
