"""Per-layer tracing of the sturmdual library from outside it.

``Tracer.install`` replaces the public functions named in ``LAYERS`` by
timing wrappers: in the defining module, in every package module that
imported the name, and for the ``Quad`` operators on the class.  A
wrapped call opens a frame; its self time is its duration minus the
time of the wrapped calls it covers.  Most calls are kept as spans
(name, start, end, parent, operation id).  The hot, fine-grained calls
(``Quad`` operators, ``words.reduce_concat``, the steps of
``invert.generator_products``) are kept as a count and a summed self
time per operation.  Everything stays in memory until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# module -> public functions traced as spans
LAYERS = {
    "quadfield": ("spectral", "cf_expand", "cf_dual_transform"),
    "subst": ("factor_language", "fixed_point_prefix"),
    "invert": ("decompose", "inverse", "reciprocal", "find_conjugator"),
    "dualmap": ("dual_substitution", "e1_star_apply", "s_alpha_segments"),
    "geom": (
        "rauzy_decomposition",
        "solve_interval_ifs",
        "cut_project_points",
        "iterate_patch",
        "star_dual",
    ),
    "cli": ("build_report", "verify_cut_project_covering"),
}
# functions traced as a count and a summed time per operation
AGGREGATED = {"words": ("reduce_concat",), "invert": ("generator_products",)}
QUAD_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__eq__", "__lt__", "__le__",
    "__gt__", "__ge__", "sign", "floor", "ceil", "star",
)  # fmt: skip
QUAD_OPS = "quadfield.quad_ops"

# counts taken from a traced call's arguments and result
COUNTERS = {
    "subst.factor_language": ("subst.factors_returned", lambda args, result: len(result)),
    "words.reduce_concat": ("words.reduce_concat_letters", lambda args, result: len(args[0]) + len(args[1])),
    "geom.cut_project_points": ("geom.model_points", lambda args, result: len(result)),
    "geom.iterate_patch": ("geom.patch_tiles", lambda args, result: len(result)),
}
CALL_COUNTS = {
    "subst.factor_language": "subst.factor_language_calls",
    "words.reduce_concat": "words.reduce_concat_calls",
    "dualmap.e1_star_apply": "dualmap.e1_star_apply_calls",
}
# spans the benchmark opens itself around library calls
BENCH_SPANS = ("cli.report_json",)


def per_layer_names() -> list[str]:
    """Every per-layer metric, in a fixed order."""
    names = [QUAD_OPS, QUAD_OPS + "_s"]
    for module, functions in list(LAYERS.items()) + list(AGGREGATED.items()):
        names += [f"{module}.{fn}_s" for fn in functions]
    names += [name + "_s" for name in BENCH_SPANS]
    names += list(CALL_COUNTS.values()) + [counter for counter, _ in COUNTERS.values()]
    return sorted(names)


class Tracer:
    def __init__(self):
        self.op_id = 0  # 0 is set-up; operations count from 1
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1, op id, self seconds)
        self.aggregates: dict[tuple[str, int], list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # frames: [child seconds, span index, or -1 when aggregated]
        self._replaced: list[tuple] = []  # (owner, attribute, original) for uninstall

    # -- recording -------------------------------------------------------

    def _enter(self, aggregated: bool) -> list:
        index = -1
        if not aggregated:  # reserve the span's place now, so that its children can name it as parent
            index = len(self.spans)
            self.spans.append(None)
        frame = [0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        self_time = duration - frame[0]
        if frame[1] < 0:
            entry = self.aggregates[(name, self.op_id)]
            entry[0] += 1
            entry[1] += self_time
        else:
            parent = next((f[1] for f in reversed(self._stack) if f[1] >= 0), -1)
            self.spans[frame[1]] = (name, start, end, parent, self.op_id, self_time)

    def call(self, name: str, fn, args, kwargs, aggregated: bool = False):
        frame = self._enter(aggregated)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, name, start, perf_counter())

    def span(self, name: str, fn, *args, **kwargs):
        """Time a call the benchmark makes itself as a span called ``name``."""
        return self.call(name, fn, args, kwargs)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn, aggregated: bool):
        counted = CALL_COUNTS.get(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs, aggregated)
            if counted:
                self.counters[counted] += 1
            if counter:
                self.counters[counter[0]] += counter[1](args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, (gen,), {}, aggregated=True)
                except StopIteration:
                    return
                yield item

        return wrapper

    def install(self, package) -> None:
        """Wrap the traced functions of an imported ``sturmdual`` package."""
        modules = [m for key, m in sys.modules.items() if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for module_name, functions, aggregated in [(m, f, False) for m, f in LAYERS.items()] + [
            (m, f, True) for m, f in AGGREGATED.items()
        ]:
            module = sys.modules[f"{package.__name__}.{module_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                name = f"{module_name}.{fn_name}"
                if inspect.isgeneratorfunction(original):
                    wrapped = self._wrap_generator(name, original)
                else:
                    wrapped = self._wrap(name, original, aggregated)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, attr, wrapped)
        quad = sys.modules[f"{package.__name__}.quadfield"].Quad
        for op in QUAD_OPERATORS:
            self._replace(quad, op, self._wrap(QUAD_OPS, getattr(quad, op), aggregated=True))

    def _replace(self, owner, attr: str, wrapped) -> None:
        self._replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put the original functions back, so that later calls are not traced."""
        for owner, attr, original in reversed(self._replaced):
            setattr(owner, attr, original)
        self._replaced.clear()

    # -- results ---------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Summed self time of every traced name, call counts and work counts."""
        totals: dict[str, float] = defaultdict(float)
        for name, _, _, _, _, self_time in self.spans:
            totals[name + "_s"] += self_time
        for (name, _), (count, self_time) in self.aggregates.items():
            totals[name + "_s"] += self_time
            if name == QUAD_OPS:
                totals[QUAD_OPS] += count
        totals.update(self.counters)
        return dict(totals)

    def write(self, path) -> None:
        payload = {
            "spans": [list(s) for s in self.spans],
            "aggregates": [[name, op, count, t] for (name, op), (count, t) in self.aggregates.items()],
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
