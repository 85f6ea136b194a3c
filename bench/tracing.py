"""Span tracing for the traced benchmark run, from outside the package.

Public functions are wrapped at the module attribute their callers look
up.  A function imported with ``from .integerkit import factorize`` is a
separate binding in the importing module, so each such binding is
wrapped on its own; that is also how calls are split by caller
(``integerkit.factorize.from_primegen`` is the binding inside
``cmgenus2.primegen``).

Spans live in memory as ``[name, start, end, parent, op, status]`` and
are written out once the run ends.  Hot leaf functions (Cantor
composition) are only counted, which keeps the trace small.  A binding
that does not exist, because a later version of the package removed it,
is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name, mode); mode "span" records a span,
# "count" only counts calls.
WRAPS: tuple[tuple[str, str, str, str], ...] = (
    ("primegen", "factorize", "integerkit.factorize.from_primegen", "span"),
    ("cli", "factorize", "integerkit.factorize.from_cli", "span"),
    ("cantor", "factorize", "integerkit.factorize.from_cantor", "span"),
    ("primegen", "is_probable_prime", "integerkit.is_probable_prime.from_primegen", "span"),
    ("cli", "is_probable_prime", "integerkit.is_probable_prime.from_cli", "span"),
    ("cantor", "is_probable_prime", "integerkit.is_probable_prime.from_cantor", "span"),
    ("cli", "search_prime", "primegen.search_prime", "span"),
    ("primegen", "search_prime", "primegen.search_prime", "span"),
    ("primegen", "solve_divisor_equation_23", "primegen.solve", "span"),
    ("primegen", "solve_divisor_equation_1", "primegen.solve", "span"),
    ("cli", "make_certificate", "primegen.make_certificate", "span"),
    ("primegen", "make_certificate", "primegen.make_certificate", "span"),
    ("primegen", "norm_residual", "quartic.norm_residual", "span"),
    ("quartic", "norm_residual", "quartic.norm_residual", "span"),
    ("frobenius", "char_poly_oracle", "quartic.char_poly_oracle", "span"),
    ("quartic", "char_poly_oracle", "quartic.char_poly_oracle", "span"),
    ("frobenius", "char_poly", "frobenius.char_poly", "span"),
    ("structure", "admissible_ell", "structure.admissible_ell", "span"),
    ("structure", "enumerate_structures", "structure.enumerate_structures", "span"),
    ("cantor", "enumerate_jacobian", "cantor.enumerate_jacobian", "span"),
    ("cantor", "all_divisors", "cantor.all_divisors", "span"),
    ("cantor", "compose", "cantor.compose", "count"),
    ("cantor", "scalar_mul", "cantor.scalar_mul", "count"),
)

MODULES = ("cli", "integerkit", "primegen", "quartic", "frobenius", "structure", "cantor")
ROOT_SPAN = "cli.main"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names: list[tuple[str, str]] = []
    for caller in ("primegen", "cli", "cantor"):
        base = f"integerkit.factorize.from_{caller}"
        names += [(f"{base}.calls", "count"), (f"{base}.s", "s"), (f"{base}.partial_ratio", "ratio")]
    for caller in ("primegen", "cli", "cantor"):
        base = f"integerkit.is_probable_prime.from_{caller}"
        names += [(f"{base}.calls", "count"), (f"{base}.s", "s")]
    names += [
        ("primegen.search_prime.s", "s"),
        ("primegen.solve.calls", "count"),
        ("primegen.solve.s", "s"),
        ("primegen.solve.ok_ratio", "ratio"),
        ("primegen.candidates_tested", "count"),
        ("primegen.make_certificate.calls", "count"),
        ("primegen.make_certificate.s", "s"),
        ("quartic.norm_residual.calls", "count"),
        ("quartic.norm_residual.s", "s"),
        ("quartic.char_poly_oracle.s", "s"),
        ("frobenius.char_poly.s", "s"),
        ("structure.admissible_ell.s", "s"),
        ("structure.enumerate_structures.s", "s"),
        ("structure.candidates", "count"),
        ("cantor.enumerate_jacobian.s", "s"),
        ("cantor.all_divisors.s", "s"),
        ("cantor.compose.calls", "count"),
        ("cantor.scalar_mul.calls", "count"),
    ]
    names += [(f"{m}.self_s", "s") for m in MODULES]
    names += [
        ("trace.untraced_wall_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.absent_wraps", "count"),
    ]
    return names


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.op = -1
        self.counts: Counter[str] = Counter()
        self.candidates = 0
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Replace every listed binding by a recording wrapper."""
        self.absent = []
        for mod_name, attr, name, mode in WRAPS:
            module = importlib.import_module(f"cmgenus2.{mod_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._counter(fn, name) if mode == "count" else self._span(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def call_op(self, op_id: int, fn, *args):
        """Run one benchmark operation under a root span."""
        self.op = op_id
        return self._span(fn, ROOT_SPAN)(*args)

    def _counter(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, fn, name: str):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1], self.op, "ok"]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = "raised"
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if getattr(result, "is_complete", True) is False:
                span[5] = "partial"
            if name == "structure.enumerate_structures":
                self.candidates += len(getattr(result, "candidates", ()))
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op, status in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9),
                                     parent, op, status]) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics derived from the spans and counters."""
        calls: Counter[str] = Counter()
        busy: defaultdict[str, float] = defaultdict(float)
        status: Counter[tuple[str, str]] = Counter()
        child: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent, _, st in self.spans:
            calls[name] += 1
            busy[name] += end - start
            status[name, st] += 1
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        tested = 0
        for idx, (name, start, end, parent, _, _) in enumerate(self.spans):
            self_s[name.split(".", 1)[0]] += end - start - child[idx]
            if (name == "integerkit.is_probable_prime.from_primegen" and parent >= 0
                    and self.spans[parent][0] == "primegen.search_prime"):
                tested += 1

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for caller in ("primegen", "cli", "cantor"):
            name = f"integerkit.factorize.from_{caller}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = busy[name]
            out[f"{name}.partial_ratio"] = ratio(status[name, "partial"], calls[name])
        for caller in ("primegen", "cli", "cantor"):
            name = f"integerkit.is_probable_prime.from_{caller}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = busy[name]
        out["primegen.search_prime.s"] = busy["primegen.search_prime"]
        out["primegen.solve.calls"] = calls["primegen.solve"]
        out["primegen.solve.s"] = busy["primegen.solve"]
        out["primegen.solve.ok_ratio"] = ratio(status["primegen.solve", "ok"], calls["primegen.solve"])
        out["primegen.candidates_tested"] = tested
        for name in ("primegen.make_certificate", "quartic.norm_residual"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = busy[name]
        for name in ("quartic.char_poly_oracle", "frobenius.char_poly", "structure.admissible_ell",
                     "structure.enumerate_structures", "cantor.enumerate_jacobian",
                     "cantor.all_divisors"):
            out[f"{name}.s"] = busy[name]
        out["structure.candidates"] = self.candidates
        out["cantor.compose.calls"] = self.counts["cantor.compose"]
        out["cantor.scalar_mul.calls"] = self.counts["cantor.scalar_mul"]
        for module in MODULES:
            out[f"{module}.self_s"] = self_s[module]
        out["trace.absent_wraps"] = len(self.absent)
        return out
