"""Per-layer spans recorded from outside etalg.

The tracer replaces each public function below at every etalg module
attribute that holds it (``buchberger`` is bound in groebner, kaehler,
pipeline and cli), and wraps the two ``FiniteAlgebra`` methods and
``ClassificationReport.to_json`` on their classes.  Hot arithmetic
(``MultiPoly.__mul__``, ``FiniteAlgebra.mul``) and recursive helpers
(``det_poly_matrix``) are left alone.  A target that no longer exists is
reported as absent; its metrics read 0.

Each call records one span: op id, span id, parent span id, target, start,
end, and one target-specific number (see ``_extra``).  Spans stay in memory;
``summary`` derives self times and counts from them after the run, and
``write`` saves them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

_MISSING = object()

# (layer name, module, attribute path)
TARGETS = (
    ("cli.main", "etalg.cli", "main"),
    ("parsing.parse_input", "etalg.parsing", "parse_input"),
    ("groebner.buchberger", "etalg.groebner", "buchberger"),
    ("groebner.normal_form", "etalg.groebner", "normal_form"),
    ("groebner.quotient_algebra", "etalg.groebner", "quotient_algebra"),
    ("groebner.noether_dimension", "etalg.groebner", "noether_dimension"),
    ("groebner.is_invertible_mod", "etalg.groebner", "is_invertible_mod"),
    ("groebner.inverse_mod", "etalg.groebner", "inverse_mod"),
    ("kaehler.nette_decision", "etalg.kaehler", "nette_decision"),
    ("kaehler.standard_smooth_decision", "etalg.kaehler", "standard_smooth_decision"),
    ("kaehler.elementary_smooth_decision", "etalg.kaehler", "elementary_smooth_decision"),
    ("kaehler.standard_etale_decision", "etalg.kaehler", "standard_etale_decision"),
    ("kaehler.minors", "etalg.kaehler", "minors"),
    ("finalg.discriminant", "etalg.finalg", "FiniteAlgebra.discriminant"),
    ("finalg.minimal_polynomial", "etalg.finalg", "FiniteAlgebra.minimal_polynomial"),
    ("finalg.split_by_idempotent", "etalg.finalg", "split_by_idempotent"),
    ("linalg.solve", "etalg.linalg", "solve"),
    ("linalg.det", "etalg.linalg", "det"),
    ("pipeline.decompose_etale", "etalg.pipeline", "decompose_etale"),
    ("pipeline.find_nilpotent", "etalg.pipeline", "find_nilpotent"),
    ("pipeline.frobenius_split", "etalg.pipeline", "frobenius_split"),
    ("pipeline.primitive_element", "etalg.pipeline", "primitive_element"),
    ("pipeline.render_report", "etalg.pipeline", "render_report"),
    ("pipeline.to_json", "etalg.pipeline", "ClassificationReport.to_json"),
)
DECISIONS = tuple(name for name, _, _ in TARGETS if name.endswith("_decision"))
RENDER = ("pipeline.render_report", "pipeline.to_json")


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if metric.endswith("_ms"):
        return "ms"
    return "ratio" if metric.endswith("_ratio") else "count"


def _resolve(module_name, path):
    """(owner, attribute, original) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if inspect.isclass(owner):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class Tracer:
    """Installs the wrappers, records spans per op, and summarises them."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.spans = []          # (op, span, parent, target index, start, end, extra)
        self.absent = []
        self._patches = []       # (owner, attribute, original, wrapper)
        self._stack = []
        self._op = None
        self._next_span = 0
        self._seen = set()       # per-op keys for repeat detection
        self._keep = []          # objects whose id() is in _seen, kept alive for the op

    # -- installation --------------------------------------------------
    def install(self):
        """Find every binding of every target; call ``enable`` to patch them in."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "etalg" or k.startswith("etalg.")]
        for index, (name, module_name, path) in enumerate(TARGETS):
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(index, original)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original, wrapper))
                continue
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, key, original, wrapper))

    def enable(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, index, original):
        name = self.names[index]
        extra = _extra(name, original, self)

        def wrapper(*args, **kwargs):
            span = self._next_span
            self._next_span += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span)
            result = _MISSING
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                value = None if extra is None or result is _MISSING else extra(args, kwargs, result)
                self.spans.append((self._op, span, parent, index, start, end, value))

        return wrapper

    # -- ops -----------------------------------------------------------
    def begin_op(self, op_id):
        """Patch the wrappers in and attribute their spans to ``op_id``."""
        self._op = op_id
        self._stack.clear()
        self.enable()

    def end_op(self):
        self.disable()
        self._op = None
        self._seen.clear()
        self._keep.clear()

    def first_time(self, key, keep=None) -> bool:
        """True the first time ``key`` is seen in the current op."""
        if key in self._seen:
            return False
        self._seen.add(key)
        if keep is not None:
            self._keep.append(keep)
        return True

    # -- results -------------------------------------------------------
    def summary(self, ops: int) -> dict:
        """Per-layer metrics as means per traced op (without trace_overhead_ratio)."""
        index = {name: k for k, name in enumerate(self.names)}
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        total_s = [0.0] * n
        extra_sum = [0] * n
        repeats = [0] * n
        child_s = {}
        for _, span, parent, k, start, end, value in self.spans:
            duration = end - start
            calls[k] += 1
            total_s[k] += duration
            self_s[k] += duration - child_s.pop(span, 0.0)
            if parent >= 0:
                child_s[parent] = child_s.get(parent, 0.0) + duration
            if isinstance(value, tuple):
                extra_sum[k] += value[0]
                repeats[k] += value[1]
            elif value is not None:
                extra_sum[k] += value
        candidates = self.count_within("finalg.minimal_polynomial", "pipeline.primitive_element")

        per_op = lambda x: x / ops if ops else 0.0
        ms = lambda name: per_op(self_s[index[name]]) * 1e3
        count = lambda name: per_op(calls[index[name]])
        return {
            "cli.main.total_ms": per_op(total_s[index["cli.main"]]) * 1e3,
            "cli.main.self_ms": ms("cli.main"),
            "parsing.parse_input.self_ms": ms("parsing.parse_input"),
            "groebner.buchberger.calls": count("groebner.buchberger"),
            "groebner.buchberger.self_ms": ms("groebner.buchberger"),
            "groebner.buchberger.repeat_calls": per_op(repeats[index["groebner.buchberger"]]),
            "groebner.buchberger.tracked_calls": per_op(extra_sum[index["groebner.buchberger"]]),
            "groebner.normal_form.calls": count("groebner.normal_form"),
            "groebner.normal_form.self_ms": ms("groebner.normal_form"),
            "groebner.quotient_algebra.self_ms": ms("groebner.quotient_algebra"),
            "groebner.quotient_algebra.dim": per_op(extra_sum[index["groebner.quotient_algebra"]]),
            "groebner.noether_dimension.self_ms": ms("groebner.noether_dimension"),
            "groebner.is_invertible_mod.calls": count("groebner.is_invertible_mod"),
            "groebner.inverse_mod.calls": count("groebner.inverse_mod"),
            "kaehler.decisions.total_ms": per_op(sum(total_s[index[d]] for d in DECISIONS)) * 1e3,
            "kaehler.minors.count": per_op(extra_sum[index["kaehler.minors"]]),
            "kaehler.minors.self_ms": ms("kaehler.minors"),
            "finalg.discriminant.calls": count("finalg.discriminant"),
            "finalg.discriminant.repeat_calls": per_op(repeats[index["finalg.discriminant"]]),
            "finalg.discriminant.self_ms": ms("finalg.discriminant"),
            "finalg.minimal_polynomial.calls": count("finalg.minimal_polynomial"),
            "finalg.minimal_polynomial.self_ms": ms("finalg.minimal_polynomial"),
            "finalg.split_by_idempotent.calls": count("finalg.split_by_idempotent"),
            "finalg.split_by_idempotent.self_ms": ms("finalg.split_by_idempotent"),
            "linalg.solve.calls": count("linalg.solve"),
            "linalg.solve.self_ms": ms("linalg.solve"),
            "linalg.det.self_ms": ms("linalg.det"),
            "pipeline.decompose_etale.self_ms": ms("pipeline.decompose_etale"),
            "pipeline.find_nilpotent.self_ms": ms("pipeline.find_nilpotent"),
            "pipeline.frobenius_split.calls": count("pipeline.frobenius_split"),
            "pipeline.primitive_element.candidates": per_op(candidates),
            "pipeline.render.self_ms": sum(ms(name) for name in RENDER),
        }

    def count_within(self, inner, outer) -> int:
        """Spans of layer ``inner`` that run inside a span of layer ``outer``."""
        layer = {span: self.names[k] for _, span, _, k, _, _, _ in self.spans}  # span ids are unique per run
        parent_of = {span: parent for _, span, parent, _, _, _, _ in self.spans}
        count = 0
        for span, name in layer.items():
            if name != inner:
                continue
            up = parent_of[span]
            while up >= 0 and layer[up] != outer:
                up = parent_of[up]
            count += up >= 0
        return count

    def write(self, path):
        """Save every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tspan\tparent\tlayer\tstart_s\tend_s\textra\n")
            for op, span, parent, k, start, end, value in self.spans:
                extra = "" if value is None else ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
                handle.write(f"{op}\t{span}\t{parent}\t{self.names[k]}\t{start:.9f}\t{end:.9f}\t{extra}\n")


def _bound_arguments(original, args, kwargs):
    try:
        bound = inspect.signature(original).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return {}
    bound.apply_defaults()
    return bound.arguments


def _extra(name, original, tracer):
    """The per-span number a target records, as a function of its call, or None.

    buchberger:        (tracked, repeat) flags; a repeat has the same
                       generators, order and ``track`` as an earlier call in
                       the same op
    discriminant:      (0, repeat) flag; a repeat is on the same algebra object
    minors:            the number of minors returned
    quotient_algebra:  the dimension of the returned algebra
    """
    if name == "groebner.buchberger":
        def buchberger_extra(args, kwargs, result):
            arguments = _bound_arguments(original, args, kwargs)
            track = bool(arguments.get("track", False))
            try:
                key = ("gb", tuple(arguments.get("gens", ())), arguments.get("order"), track)
                repeat = not tracer.first_time(key)
            except TypeError:   # unhashable generators: repeats are not counted
                repeat = False
            return (int(track), int(repeat))
        return buchberger_extra
    if name == "finalg.discriminant":
        return lambda args, kwargs, result: (0, int(not tracer.first_time(("disc", id(args[0])), args[0])))
    if name == "kaehler.minors":
        return lambda args, kwargs, result: len(result)
    if name == "groebner.quotient_algebra":
        return lambda args, kwargs, result: result.dimension
    return None
