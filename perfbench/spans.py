"""Span recording around calls into the cuspzeta modules, from outside the package.

``Tracer.install()`` rebinds each public function listed in ``TARGETS`` in
every loaded ``cuspzeta`` namespace that holds it (the defining module and
every module that imported it by name) to a wrapper that records a span:
name, start, end, parent span and a few sizes taken from the returned
object.  ``Tracer.restore()`` puts the original objects back.  Spans stay in
memory; ``per_layer`` turns the spans of one pass into per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

MARK = "__perfbench_span__"


def _matrix_sizes(result) -> dict:
    matrix = result.entries
    return {"dim": matrix.n, "nnz": sum(1 for row in matrix.rows for p in row if not p.is_zero())}


def _det_sizes(result) -> dict:
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in result.coeffs), default=0)
    return {"degree": result.degree, "coeff_bits": bits}


# module -> function -> sizer taking the return value (or None for no sizes)
TARGETS = {
    "cli": {name: None for name in
            ("cmd_zeta", "cmd_count", "cmd_poles", "cmd_sweep", "cmd_verify")},
    "graphs": {"validate": None, "truncate": None, "relabel": None},
    "zeta": {
        "build_effective": _matrix_sizes,
        "bass_ihara_zeta": None,
        "counting_series": None,
    },
    "exact": {
        "poly_det": _det_sizes,
        "poly_gcd": None,
        "ratfunc_reduce": None,
        "series_expand": None,
        "log_derivative_series": None,
    },
    "spectra": {
        "square_free_parts": None,
        "complex_roots": None,
        "pole_report": lambda r: {"poles": len(r.poles)},
        "ramanujan_check": None,
    },
    "oracle": {
        "trace_powers": None,
        "enumerate_primitive_cycles": lambda r: {"classes": len(r)},
        "euler_product_series": None,
    },
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    sizes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread; install() and restore() pair up."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._bound: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, sizer=None, **kwargs):
        """Run ``fn`` inside a span named ``name``; the span closes even if it raises."""
        span = Span(len(self.spans), self._stack[-1].id if self._stack else None,
                    name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if sizer is not None:
            span.sizes = sizer(result)
        return result

    def _wrapper(self, name: str, fn, sizer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, sizer=sizer, **kwargs)

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> None:
        if self._bound:
            raise RuntimeError("tracer wrappers are already installed")
        modules = cuspzeta_modules()
        for module_name, functions in TARGETS.items():
            home = sys.modules.get(f"cuspzeta.{module_name}")
            for fname, sizer in functions.items():
                original = getattr(home, fname, None)
                if original is None:  # a later version may drop a layer function
                    continue
                wrapper = self._wrapper(f"{module_name}.{fname}", original, sizer)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._bound.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()


def cuspzeta_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cuspzeta" or name.startswith("cuspzeta."))]


def bound_wrappers() -> list[str]:
    """Names in cuspzeta namespaces that are still span wrappers (should be none)."""
    return [f"{m.__name__}.{attr}" for m in cuspzeta_modules()
            for attr, value in vars(m).items() if hasattr(value, MARK)]


# Per-layer metrics: name -> unit.  Times are summed over one pass.
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.cmd_zeta_s": "s",
    "cli.cmd_poles_s": "s",
    "cli.cmd_sweep_s": "s",
    "cli.cmd_count_s": "s",
    "cli.cmd_verify_s": "s",
    "graphs.validate_s": "s",
    "graphs.truncate_s": "s",
    "graphs.relabel_s": "s",
    "zeta.build_effective_s": "s",
    "zeta.bass_ihara_zeta.calls": "count",
    "zeta.counting_series.calls": "count",
    "zeta.matrix_dim.max": "rows",
    "zeta.matrix_nnz.max": "entries",
    "exact.poly_det_s": "s",
    "exact.poly_det.calls": "count",
    "exact.det_degree.max": "degree",
    "exact.det_coeff_bits.max": "bits",
    "exact.poly_gcd_s": "s",
    "exact.poly_gcd.calls": "count",
    "exact.ratfunc_reduce_s": "s",
    "exact.series_s": "s",
    "spectra.square_free_parts_s": "s",
    "spectra.square_free_parts.calls": "count",
    "spectra.roots_self_s": "s",
    "spectra.pole_report.calls": "count",
    "spectra.ramanujan_check_s": "s",
    "spectra.poles.count": "count",
    "oracle.trace_powers_s": "s",
    "oracle.enumerate_primitive_cycles_s": "s",
    "oracle.cycle_classes.count": "count",
    "oracle.euler_product_series_s": "s",
    "trace.overhead_frac": "ratio",
}


def _inclusive(spans: list[Span], names: set[str]) -> float:
    """Summed duration of spans named in ``names`` that do not nest in one of them."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent)
        if parent is None:
            total += s.duration
    return total


def _self_time(spans: list[Span], name: str) -> float:
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return sum(s.duration - child_time.get(s.id, 0.0) for s in spans if s.name == name)


def per_layer(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Times (seconds) and exact counts of one traced pass."""
    calls: dict[str, int] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1

    def size_max(name: str, key: str) -> int:
        return max((s.sizes.get(key, 0) for s in spans if s.name == name), default=0)

    def size_sum(name: str, key: str) -> int:
        return sum(s.sizes.get(key, 0) for s in spans if s.name == name)

    times = {"cli.self_s": _self_time(spans, "cli.main"),
             "spectra.roots_self_s": _self_time(spans, "spectra.complex_roots"),
             "exact.series_s": _inclusive(spans, {"exact.log_derivative_series",
                                                  "exact.series_expand"})}
    for metric, unit in PER_LAYER_UNITS.items():
        if unit == "s" and metric not in times:
            times[metric] = _inclusive(spans, {metric[: -len("_s")]})
    counts = {
        "zeta.bass_ihara_zeta.calls": calls.get("zeta.bass_ihara_zeta", 0),
        "zeta.counting_series.calls": calls.get("zeta.counting_series", 0),
        "zeta.matrix_dim.max": size_max("zeta.build_effective", "dim"),
        "zeta.matrix_nnz.max": size_max("zeta.build_effective", "nnz"),
        "exact.poly_det.calls": calls.get("exact.poly_det", 0),
        "exact.det_degree.max": size_max("exact.poly_det", "degree"),
        "exact.det_coeff_bits.max": size_max("exact.poly_det", "coeff_bits"),
        "exact.poly_gcd.calls": calls.get("exact.poly_gcd", 0),
        "spectra.square_free_parts.calls": calls.get("spectra.square_free_parts", 0),
        "spectra.pole_report.calls": calls.get("spectra.pole_report", 0),
        "spectra.poles.count": size_sum("spectra.pole_report", "poles"),
        "oracle.cycle_classes.count": size_sum("oracle.enumerate_primitive_cycles", "classes"),
    }
    return times, counts
