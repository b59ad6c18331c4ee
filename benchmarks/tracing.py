"""Spans around the calls chopshop's modules make into one another.

``Tracer.install`` replaces, for the life of the traced rounds, the names
each module calls in its neighbours (and the few same-module names whose
time the per-layer metrics need) with wrappers that record a span: name,
start, end, parent span, op id and, for a few names, the matrix shape or
draw count.  ``uninstall`` puts the original functions back.  Spans stay
in memory until the run ends.  ``layer_metrics`` turns the spans of one
round into the per-layer metrics.

Leaf helpers that run thousands of times per op and cost less than a span
(``hs``, ``monomials``, ``mono_index``) are not wrapped; their time counts
in their caller's self time.
"""

from __future__ import annotations

import time
from collections import defaultdict

MODULES = ("grading", "formulas", "modlinalg", "pointideals", "verify", "waring", "cli")

# (module whose namespace is patched, name looked up there)
TARGETS = (
    ("cli", "verify_case"),
    ("cli", "verify_grid"),
    ("cli", "search_monomial_ideals"),
    ("cli", "decompose"),
    ("cli", "form_from_dict"),
    ("cli", "predicted_gap"),
    ("verify", "verify_case"),
    ("verify", "sample_points"),
    ("verify", "chopped_profile"),
    ("verify", "ideal_component"),
    ("verify", "macaulay_matrix"),
    ("verify", "rank"),
    ("verify", "in_span"),
    ("verify", "predicted_gap"),
    ("verify", "expected_chopped_hf"),
    ("verify", "product_index_map"),
    ("pointideals", "ideal_component"),
    ("pointideals", "macaulay_matrix"),
    ("pointideals", "rank"),
    ("pointideals", "kernel_basis"),
    ("pointideals", "predicted_gap"),
    ("pointideals", "gap_upper_bound"),
    ("pointideals", "product_index_map"),
    ("waring", "catalecticant"),
    ("waring", "numerical_kernel"),
    ("waring", "product_index_map"),
)


def _arg_shape(args, result):
    return args[0].shape


def _result_shape(args, result):
    return result.shape


def _draws(args, result):
    return result.retries + 1


# extra datum recorded with the span of these names
HOOKS = {
    "modlinalg.rank": _arg_shape,
    "pointideals.macaulay_matrix": _result_shape,
    "pointideals.sample_points": _draws,
}


class Tracer:
    """In-memory span recorder.  A span is the list
    [name, start, end, parent index, op id, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.op_id = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook is not None:
                span[5] = hook(args, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        originals = [(modules[m], attr, getattr(modules[m], attr)) for m, attr in TARGETS]
        for module, attr, fn in originals:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            setattr(module, attr, self.wrap(name, fn))
        self._undo = originals

    def uninstall(self) -> None:
        for module, attr, fn in self._undo:
            setattr(module, attr, fn)
        self._undo = []


def _duration(span) -> float:
    return span[2] - span[1]


def layer_metrics(spans: list[list], first: int, last: int) -> dict[str, float]:
    """Per-layer metrics of the spans with index in [first, last), which
    must hold whole ops (their parents lie in the same range)."""
    window = spans[first:last]
    child_time = defaultdict(float)
    for span in window:
        if span[3] >= 0:
            child_time[span[3]] += _duration(span)
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    module_self = defaultdict(float)
    module_calls = defaultdict(int)
    m = dict.fromkeys((
        "modlinalg.rank.genericity_s", "modlinalg.rank.genericity_calls",
        "modlinalg.rank.macaulay_s", "modlinalg.rank.macaulay_calls",
        "pointideals.sample_points.draws",
        "waring.numerical_kernel.catalecticant_s", "waring.numerical_kernel.cokernel_s",
    ), 0.0)
    macaulay_cells = 0
    largest = 0
    kernel_seen: dict[int, int] = defaultdict(int)
    for offset, span in enumerate(window):
        name, parent = span[0], span[3]
        duration = _duration(span)
        own = duration - child_time[first + offset]
        total[name] += duration
        self_time[name] += own
        calls[name] += 1
        module = name.split(".", 1)[0]
        module_self[module] += own
        module_calls[module] += 1
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "modlinalg.rank":
            if parent_name == "pointideals.sample_points":
                m["modlinalg.rank.genericity_s"] += duration
                m["modlinalg.rank.genericity_calls"] += 1
            elif parent_name == "pointideals.chopped_profile":
                rows, cols = span[5]
                m["modlinalg.rank.macaulay_s"] += duration
                m["modlinalg.rank.macaulay_calls"] += 1
                macaulay_cells += rows * cols
        elif name == "pointideals.macaulay_matrix":
            rows, cols = span[5]
            largest = max(largest, rows * cols)
        elif name == "pointideals.sample_points":
            m["pointideals.sample_points.draws"] += span[5]
        elif name == "waring.numerical_kernel" and parent_name == "waring.decompose":
            # the first kernel of a decompose is the catalecticant's, the
            # second the Macaulay cokernel
            kind = "catalecticant" if kernel_seen[parent] == 0 else "cokernel"
            kernel_seen[parent] += 1
            m[f"waring.numerical_kernel.{kind}_s"] += duration

    m["modlinalg.rank.macaulay_cells"] = float(macaulay_cells)
    m["modlinalg.rank.macaulay_mcells_per_s"] = (
        macaulay_cells / m["modlinalg.rank.macaulay_s"] / 1e6
        if m["modlinalg.rank.macaulay_s"] else 0.0
    )
    m["pointideals.macaulay_matrix.max_mb"] = largest * 8 / 1e6
    for metric, name in (
        ("grading.product_index_map_s", "grading.product_index_map"),
        ("formulas.predicted_gap_s", "formulas.predicted_gap"),
        ("modlinalg.kernel_basis_s", "modlinalg.kernel_basis"),
        ("pointideals.sample_points_s", "pointideals.sample_points"),
        ("pointideals.ideal_component_s", "pointideals.ideal_component"),
        ("pointideals.macaulay_matrix_s", "pointideals.macaulay_matrix"),
        ("verify.search_monomial_ideals_s", "verify.search_monomial_ideals"),
        ("waring.form_from_dict_s", "waring.form_from_dict"),
        ("waring.catalecticant_s", "waring.catalecticant"),
    ):
        m[metric] = total[name]
    for metric, name in (
        ("pointideals.sample_points.self_s", "pointideals.sample_points"),
        ("pointideals.chopped_profile.self_s", "pointideals.chopped_profile"),
        ("verify.verify_grid.self_s", "verify.verify_grid"),
        ("verify.verify_case.self_s", "verify.verify_case"),
        ("waring.decompose.self_s", "waring.decompose"),
        ("cli.run.self_s", "cli.run"),
    ):
        m[metric] = self_time[name]
    m["pointideals.macaulay_matrix_calls"] = float(calls["pointideals.macaulay_matrix"])
    m["cli.run.calls"] = float(calls["cli.run"])
    for module in MODULES:
        if module != "cli":
            m[f"{module}.self_s"] = module_self[module]
            m[f"{module}.calls"] = float(module_calls[module])
    m["trace.spans"] = float(len(window))
    return m
