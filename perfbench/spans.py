"""Outside-in tracing of spinstat: wrap public functions where callers look
them up, and record one span per call.

A span is (name, start, end, parent, op).  ``parent`` is the index of the
enclosing span, or -1; ``op`` is the benchmark operation the span belongs
to.  Spans stay in memory and are written out once, after the run.  Self
time is a span's duration minus the time its child spans cover; calls are
synchronous, so child spans never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (defining module, function) pairs wrapped in a traced run.
TARGETS = (
    ("cli", "main"),
    ("reduction", "verify_dkp_algebra"),
    ("reduction", "dkp_minimal_polynomial_check"),
    ("model", "parse_theory"),
    ("model", "build_kinematic"),
    ("model", "theory_generators"),
    ("su2", "hermitian_basis"),
    ("invariance", "check_su2_invariance"),
    ("invariance", "constraint_split"),
    ("schwinger", "spin_statistics_verdict"),
    ("schwinger", "surface_variation_consistency"),
    ("flavor", "flavor_diagnosis"),
    ("report", "analyze_theory"),
    ("report", "render_text"),
    ("report", "report_to_json"),
    ("fock", "parse_relation_table"),
    ("fock", "vacuum_expectation"),
    ("fock", "gram_matrix"),
    ("algebra", "hermitian_signature"),
)

# Counters filled from arguments and results, outside the timed span.
COUNTERS = {
    "invariance.constraint_split.dim_max": "rows",
    "model.k0_dim": "rows",
    "model.k0_nnz": "count",
    "model.k0_density": "ratio",
    "su2.hermitian_basis.calls": "calls/op",
    "flavor.flavor_diagnosis.calls": "calls/op",
    "flavor.negative_norm.count": "count/op",
    "fock.vacuum_expectation.calls": "calls/op",
    "algebra.hermitian_signature.n_max": "rows",
}


def _nnz(matrix) -> int:
    return sum(1 for i in range(matrix.rows) for x in matrix.row(i)
               if not x.is_zero)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self.absent: set[str] = set()
        self.k0: list[tuple[int, int]] = []
        self.dim_max: dict[str, int] = {}
        self.negative_norms = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------

    def _observe(self, name, args, result) -> None:
        if name == "model.build_kinematic" and result.kinematic is not None:
            m = result.kinematic.matrix
            self.k0.append((m.rows, _nnz(m)))
        elif name == "invariance.constraint_split":
            self._note_max(name, args[0].rows)
        elif name == "algebra.hermitian_signature":
            self._note_max(name, args[0].rows)
        elif name == "flavor.flavor_diagnosis":
            self.negative_norms += bool(result.negative_norm)

    def _note_max(self, name, value) -> None:
        self.dim_max[name] = max(self.dim_max.get(name, 0), value)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.op]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            try:
                self._observe(name, args, result)
            except (AttributeError, IndexError, TypeError):
                # a refactor changed the shape; the counter reads as absent
                self.absent.add(f"{name} (counter)")
            return result
        return traced

    def add_span(self, name, start, end) -> None:
        self.spans.append([name, start, end, -1, self.op])

    def merge(self, dumped: dict) -> None:
        """Add what a child process recorded, its spans under the current op."""
        offset = len(self.spans)
        for name, start, end, parent, _ in dumped["spans"]:
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else -1,
                               self.op])
        self.absent.update(dumped["absent"])
        self.k0.extend(tuple(x) for x in dumped["k0"])
        for name, value in dumped["dim_max"].items():
            self._note_max(name, value)
        self.negative_norms += dumped["negative_norms"]

    # -- installing --------------------------------------------------

    def install(self, package: str = "spinstat") -> None:
        """Wrap every target in each package module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package
                                         or n.startswith(package + "."))]
        for module_name, func in TARGETS:
            name = f"{module_name}.{func}"
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, func, None)
            if original is None:
                self.absent.add(name)
                continue
            wrapper = self.wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": sorted(self.absent), "spans": self.spans,
                       "k0": self.k0, "dim_max": self.dim_max,
                       "negative_norms": self.negative_norms}, fh)

    # -- summarising -------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation time and counts of every target and counter."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[index]

        out: dict[str, tuple[float, str]] = {}
        for module_name, func in TARGETS:
            name = f"{module_name}.{func}"
            out[f"{name}.ms"] = (1000 * total[name] / ops, "ms")
            out[f"{name}.self_ms"] = (1000 * self_time[name] / ops, "ms")
        dims = sum(d for d, _ in self.k0)
        nnz = sum(z for _, z in self.k0)
        area = sum(d * d for d, _ in self.k0)
        built = max(len(self.k0), 1)
        counts = {
            "invariance.constraint_split.dim_max":
                self.dim_max.get("invariance.constraint_split", 0),
            "model.k0_dim": dims / built,
            "model.k0_nnz": nnz / built,
            "model.k0_density": nnz / area if area else 0.0,
            "su2.hermitian_basis.calls": calls["su2.hermitian_basis"] / ops,
            "flavor.flavor_diagnosis.calls":
                calls["flavor.flavor_diagnosis"] / ops,
            "flavor.negative_norm.count": self.negative_norms / ops,
            "fock.vacuum_expectation.calls":
                calls["fock.vacuum_expectation"] / ops,
            "algebra.hermitian_signature.n_max":
                self.dim_max.get("algebra.hermitian_signature", 0),
        }
        for name, unit in COUNTERS.items():
            out[name] = (counts[name], unit)
        return out
