"""Per-layer tracing from outside the program.

The tracer replaces modinv's public functions, at every module attribute
that holds them (so `modinv.cli.validate` and `modinv.ringfile.validate`
are both caught), with wrappers that time or count the call. Spans are
aggregated per name as they close instead of being kept one by one: the
degenerate Z_5 workload makes millions of `factorize_type_one` calls.
A span's self time is its duration minus the time of the wrapped spans it
encloses.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional

import modinv.cli  # imports every modinv module, so all aliases exist
from modinv.cyclo import Cyclotomic

# Span name -> (module, function name) of the definition.
SPANS = {
    "ringfile.load_ring": ("modinv.ringfile", "load_ring"),
    "fusion.validate": ("modinv.fusion", "validate"),
    "modular.compute_modular_data": ("modinv.modular", "compute_modular_data"),
    "modular.verify_statistics_axioms": ("modinv.modular", "verify_statistics_axioms"),
    "modular.verlinde_check": ("modinv.modular", "verlinde_check"),
    "commutant.commutant_basis": ("modinv.commutant", "commutant_basis"),
    "commutant.enumerate_invariants": ("modinv.commutant", "enumerate_invariants"),
    "commutant.verify_invariant": ("modinv.commutant", "verify_invariant"),
    "classify.classify_all": ("modinv.classify", "classify_all"),
    "classify.factorize_type_one": ("modinv.classify", "factorize_type_one"),
    "classify.find_parents": ("modinv.classify", "find_parents"),
    "classify.find_block_bijection": ("modinv.classify", "find_block_bijection"),
    "classify.global_indices": ("modinv.classify", "global_indices"),
    "classify.extended_modular_data": ("modinv.classify", "extended_modular_data"),
    "classify.in_rational_span": ("modinv.classify", "in_rational_span"),
    "classify.rational_span_dimension": ("modinv.classify", "rational_span_dimension"),
    "classify.span_relations": ("modinv.classify", "span_relations"),
    "report.span_summary": ("modinv.report", "span_summary"),
    "report.build_report": ("modinv.report", "build_report"),
    "report.render_json": ("modinv.report", "render_json"),
    "cyclo.divide": ("modinv.cyclo", "divide"),
}

# Counter name -> Cyclotomic attributes. `__radd__ = __add__` binds the same
# function under a second class attribute, so both names are wrapped.
COUNTERS = {
    "cyclo.mul": ("__mul__", "__rmul__"),
    "cyclo.add": ("__add__", "__radd__"),
    "cyclo.conjugate": ("conjugate",),
}

# Per-layer metrics derived from the trace, in report order.
PER_LAYER = [
    ("cli.check_s", "s"),
    ("cli.classify_s", "s"),
    ("ringfile.load_ring_self_s", "s"),
    ("fusion.validate_s", "s"),
    ("fusion.validate_calls", "count"),
    ("modular.compute_modular_data_s", "s"),
    ("modular.verify_statistics_axioms_s", "s"),
    ("modular.verlinde_check_s", "s"),
    ("commutant.commutant_basis_s", "s"),
    ("commutant.kernel_dim", "count"),
    ("commutant.enumerate_invariants_self_s", "s"),
    ("commutant.verify_invariant_s", "s"),
    ("commutant.verify_invariant_calls", "count"),
    ("commutant.invariants_found", "count"),
    ("classify.classify_all_self_s", "s"),
    ("classify.factorize_type_one_s", "s"),
    ("classify.factorize_type_one_calls", "count"),
    ("classify.factorize_unique_ratio", "ratio"),
    ("classify.find_parents_s", "s"),
    ("classify.find_block_bijection_s", "s"),
    ("classify.find_block_bijection_calls", "count"),
    ("classify.global_indices_s", "s"),
    ("classify.global_indices_calls", "count"),
    ("classify.extended_modular_data_s", "s"),
    ("classify.extended_modular_data_calls", "count"),
    ("classify.in_rational_span_s", "s"),
    ("classify.in_rational_span_calls", "count"),
    ("classify.rational_span_dimension_calls", "count"),
    ("classify.span_relations_s", "s"),
    ("report.span_summary_s", "s"),
    ("report.build_report_self_s", "s"),
    ("report.render_json_s", "s"),
    ("report.json_bytes", "bytes"),
    ("cyclo.mul_calls", "count"),
    ("cyclo.add_calls", "count"),
    ("cyclo.conjugate_calls", "count"),
    ("cyclo.divide_calls", "count"),
    ("cyclo.divide_s", "s"),
    ("cyclo.mul_us", "us"),
    ("cyclo.add_us", "us"),
    ("cyclo.conjugate_us", "us"),
    ("cyclo.divide_us", "us"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.wall_solve_s", "s"),
    ("bench.relative_speed", "ratio"),
]


class Tracer:
    """Aggregated spans (total, self, calls) and call counters."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.values: dict[str, int] = defaultdict(int)
        self._children: list[float] = []  # enclosed span time, one per open span

    def _close(self, name: str, t0: float) -> None:
        dt = perf_counter() - t0
        enclosed = self._children.pop()
        self.total[name] += dt
        self.self_time[name] += dt - enclosed
        self.calls[name] += 1
        if self._children:
            self._children[-1] += dt

    @contextmanager
    def span(self, name: str):
        self._children.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(name, t0)

    def timed(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        # Same bookkeeping as span() without a generator per call: some
        # functions are called millions of times.
        children, close = self._children, self._close

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, t0)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, key: str, amount: int) -> None:
        self.values[key] += amount

    @contextmanager
    def installed(self):
        """Patch every alias of the traced functions; restore on exit."""
        hooks = {
            "commutant.commutant_basis": lambda b: self._add("kernel_dim", b.dimension),
            "commutant.enumerate_invariants": lambda p: self._add("invariants_found", len(p)),
            "report.render_json": lambda s: self._add("json_bytes", len(s.encode())),
        }
        saved: list[tuple[object, str, object]] = []
        modules = [m for k, m in sys.modules.items() if k == "modinv" or k.startswith("modinv.")]
        try:
            for name, (modname, attr) in SPANS.items():
                original = getattr(sys.modules[modname], attr)
                wrapper = self.timed(name, original, hooks.get(name))
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, alias, value))
                            setattr(mod, alias, wrapper)
            for name, attrs in COUNTERS.items():
                for attr in attrs:
                    original = Cyclotomic.__dict__[attr]
                    saved.append((Cyclotomic, attr, original))
                    setattr(Cyclotomic, attr, self.counted(name, original))
            yield self
        finally:
            for obj, attr, value in reversed(saved):
                setattr(obj, attr, value)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values measured by the trace (micro-benchmarks and the
        overhead ratio are added by the caller)."""
        t, s, c = self.total, self.self_time, self.calls
        found = self.values["invariants_found"]
        factorizations = c["classify.factorize_type_one"]
        out = {
            "cli.check_s": t["cli.check"],
            "cli.classify_s": t["cli.classify"],
            "ringfile.load_ring_self_s": s["ringfile.load_ring"],
            "commutant.kernel_dim": self.values["kernel_dim"],
            "commutant.enumerate_invariants_self_s": s["commutant.enumerate_invariants"],
            "commutant.invariants_found": found,
            "classify.classify_all_self_s": s["classify.classify_all"],
            "classify.factorize_unique_ratio": found / factorizations if factorizations else 0.0,
            "report.build_report_self_s": s["report.build_report"],
            "report.json_bytes": self.values["json_bytes"],
        }
        for name, _unit in PER_LAYER:
            if name in out:
                continue
            base, _, suffix = name.rpartition("_")
            if suffix == "s" and base in SPANS:
                out[name] = t[base]
            elif suffix == "calls" and (base in SPANS or base in COUNTERS):
                out[name] = c[base]
        return out
