"""Per-layer metrics from the spans of one traced workload run.

``calls`` counts spans; ``s`` is cumulative time (spans not nested in a
span of the same name, so recursion is not counted twice); ``self_s`` is
span time minus the time of its direct child spans.  A ratio whose base
is zero on a workload (no ``g_functional`` call on the table workload,
say) reads 0.  Units: count, s, ms, ns, B, ratio.
"""

from __future__ import annotations

import numpy as np

KERNELS = ("i0", "k0reg", "k0")
COMMANDS = ("spectrum", "eigen", "limits", "branch", "verify")

# (name, unit, better), in the order they are reported
PER_LAYER = (
    *(
        metric
        for kernel in KERNELS
        for metric in (
            (f"kernel.{kernel}.calls", "count", "lower"),
            (f"kernel.{kernel}.elements", "count", "lower"),
            (f"kernel.{kernel}.s", "s", "lower"),
            (f"kernel.{kernel}.self_s", "s", "lower"),
        )
    ),
    ("kernel.k0.large_z_elements", "count", "lower"),
    ("kernel.ns_per_element", "ns", "lower"),
    ("contour.g_functional.calls", "count", "lower"),
    ("contour.g_functional.ms_per_call", "ms", "lower"),
    ("contour.g_functional.self_s", "s", "lower"),
    ("contour.s_integral.calls", "count", "lower"),
    ("contour.s_integral.s", "s", "lower"),
    ("contour.s_integral.self_s", "s", "lower"),
    ("contour.conformal_eval.calls", "count", "lower"),
    ("contour.conformal_eval.per_g", "count", "lower"),
    ("contour.conformal_eval.self_s", "s", "lower"),
    ("contour.linearization_check.calls", "count", "lower"),
    ("contour.linearization_check.s", "s", "lower"),
    ("continuation.jacobian.builds", "count", "lower"),
    ("continuation.jacobian.s", "s", "lower"),
    ("continuation.jacobian.eval_share", "ratio", "lower"),
    ("continuation.residual.calls", "count", "lower"),
    ("continuation.residual.s", "s", "lower"),
    ("continuation.newton_solve.calls", "count", "lower"),
    ("continuation.newton_solve.s", "s", "lower"),
    ("continuation.linesearch.trials", "count", "lower"),
    ("continuation.linesearch.accept_ratio", "ratio", "higher"),
    ("continuation.trace_branch.calls", "count", "lower"),
    ("continuation.trace_branch.s", "s", "lower"),
    ("continuation.points", "count", "higher"),
    ("continuation.evals_per_point", "count", "lower"),
    ("continuation.newton_iters_per_point", "count", "lower"),
    ("continuation.point_s.median", "s", "lower"),
    ("continuation.point_s.max", "s", "lower"),
    ("spectrum.eigenvalues.calls", "count", "lower"),
    ("spectrum.discriminant.calls", "count", "lower"),
    ("spectrum.lambda_coupling.calls", "count", "lower"),
    ("spectrum.kernel_vector.calls", "count", "lower"),
    ("spectrum.find_threshold.calls", "count", "lower"),
    ("spectrum.find_threshold.s", "s", "lower"),
    ("spectrum.self_s", "s", "lower"),
    ("bessel.product_ik.calls", "count", "lower"),
    ("bessel.calls", "count", "lower"),
    ("bessel.self_s", "s", "lower"),
    *((f"cli.{command}.s", "s", "lower") for command in COMMANDS),
    ("cli.write_table.calls", "count", "lower"),
    ("cli.write_table.s", "s", "lower"),
    ("cli.write_table.bytes", "B", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.plain_wall_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(num, den):
    return num / den if den else 0.0


class _Spans:
    """Per-name totals over a tracer's spans."""

    def __init__(self, tracer):
        self.tracer = tracer
        cols = tracer.arrays()
        self.cols = cols
        size = len(tracer.names)
        self._calls = np.bincount(cols["name"], minlength=size)
        self._cum = np.bincount(cols["name"], weights=cols["duration"] * cols["outer"], minlength=size)
        self._self = np.bincount(cols["name"], weights=cols["self"], minlength=size)

    def _id(self, name):
        return self.tracer.name_id(name)

    def calls(self, name):
        nid = self._id(name)
        return int(self._calls[nid]) if nid >= 0 else 0

    def cum(self, name):
        nid = self._id(name)
        return float(self._cum[nid]) if nid >= 0 else 0.0

    def self_time(self, name):
        nid = self._id(name)
        return float(self._self[nid]) if nid >= 0 else 0.0

    def prefix_self(self, prefix):
        return sum(self.self_time(n) for n in self.tracer.names if n.startswith(prefix))

    def prefix_calls(self, prefix):
        return sum(self.calls(n) for n in self.tracer.names if n.startswith(prefix))

    def indices(self, name):
        return np.flatnonzero(self.cols["name"] == self._id(name))

    def has_ancestor(self, idx, name):
        target, parent, names = self._id(name), self.cols["parent"], self.cols["name"]
        idx = parent[idx]
        while idx >= 0:
            if names[idx] == target:
                return True
            idx = parent[idx]
        return False


def exact_counters(tracer):
    """Counters that must repeat exactly between runs of one seed."""
    spans = _Spans(tracer)
    points = tracer.counters["continuation.trace_branch.points"]
    out = {
        "continuation.points": points,
        "continuation.evals_per_point": _ratio(spans.calls("contour.g_functional"), points),
        "continuation.newton_iters_per_point": _ratio(spans.calls("continuation.jacobian"), points),
        "kernel.k0.large_z_elements": tracer.counters["kernel.k0.large_z_elements"],
    }
    for kernel in KERNELS:
        out[f"kernel.{kernel}.elements"] = tracer.counters[f"kernel.{kernel}.elements"]
    return out


def _solver(spans):
    """Line-search and Jacobian ratios from the parent links of the spans."""
    parent, names, raised = spans.cols["parent"], spans.cols["name"], spans.cols["raised"]
    solve_id = spans._id("continuation.newton_solve")
    jac_children = np.zeros(len(names), dtype=np.int64)
    res_children = np.zeros(len(names), dtype=np.int64)
    for name, into in (("continuation.jacobian", jac_children), ("continuation.residual", res_children)):
        idx = spans.indices(name)
        np.add.at(into, parent[idx][parent[idx] >= 0], 1)
    solves = np.flatnonzero((names == solve_id) & ~raised) if solve_id >= 0 else np.zeros(0, int)
    # every converged solve spends one residual on its starting point; each
    # Newton step (one Jacobian build) ends in exactly one accepted trial
    trials = int(np.sum(np.maximum(res_children[solves] - 1, 0)))
    accepted = int(np.sum(jac_children[solves]))
    g_total = spans.calls("contour.g_functional")
    in_jac = sum(spans.has_ancestor(i, "continuation.jacobian") for i in spans.indices("contour.g_functional"))
    point_times = spans.cols["duration"][
        [i for i in spans.indices("continuation.newton_solve") if spans.cols["outer"][i]]
    ]
    return {
        "continuation.jacobian.eval_share": _ratio(in_jac, g_total),
        "continuation.linesearch.trials": trials,
        "continuation.linesearch.accept_ratio": _ratio(accepted, trials),
        "continuation.point_s.median": float(np.median(point_times)) if point_times.size else 0.0,
        "continuation.point_s.max": float(np.max(point_times)) if point_times.size else 0.0,
    }


def layer_metrics(tracer, plain_wall, traced_wall):
    """Every PER_LAYER metric as {name: value} for one traced run."""
    spans = _Spans(tracer)
    counters = tracer.counters
    out = {}
    kernel_self = kernel_elements = 0.0
    for kernel in KERNELS:
        name = f"kernel.{kernel}"
        out[f"{name}.calls"] = spans.calls(name)
        out[f"{name}.elements"] = counters[f"{name}.elements"]
        out[f"{name}.s"] = spans.cum(name)
        out[f"{name}.self_s"] = spans.self_time(name)
        kernel_self += out[f"{name}.self_s"]
        kernel_elements += out[f"{name}.elements"]
    out["kernel.k0.large_z_elements"] = counters["kernel.k0.large_z_elements"]
    out["kernel.ns_per_element"] = _ratio(kernel_self * 1e9, kernel_elements)

    g_calls = spans.calls("contour.g_functional")
    out["contour.g_functional.calls"] = g_calls
    out["contour.g_functional.ms_per_call"] = _ratio(spans.cum("contour.g_functional") * 1e3, g_calls)
    out["contour.g_functional.self_s"] = spans.self_time("contour.g_functional")
    out["contour.s_integral.calls"] = spans.calls("contour.s_integral")
    out["contour.s_integral.s"] = spans.cum("contour.s_integral")
    out["contour.s_integral.self_s"] = spans.self_time("contour.s_integral")
    out["contour.conformal_eval.calls"] = spans.calls("contour.conformal_eval")
    out["contour.conformal_eval.per_g"] = _ratio(out["contour.conformal_eval.calls"], g_calls)
    out["contour.conformal_eval.self_s"] = spans.self_time("contour.conformal_eval")
    out["contour.linearization_check.calls"] = spans.calls("contour.linearization_check")
    out["contour.linearization_check.s"] = spans.cum("contour.linearization_check")

    out["continuation.jacobian.builds"] = spans.calls("continuation.jacobian")
    out["continuation.jacobian.s"] = spans.cum("continuation.jacobian")
    for name in ("residual", "newton_solve", "trace_branch"):
        out[f"continuation.{name}.calls"] = spans.calls(f"continuation.{name}")
        out[f"continuation.{name}.s"] = spans.cum(f"continuation.{name}")
    out.update(_solver(spans))
    out.update(exact_counters(tracer))

    for name in ("eigenvalues", "discriminant", "lambda_coupling", "kernel_vector", "find_threshold"):
        out[f"spectrum.{name}.calls"] = spans.calls(f"spectrum.{name}")
    out["spectrum.find_threshold.s"] = spans.cum("spectrum.find_threshold")
    out["spectrum.self_s"] = spans.prefix_self("spectrum.")
    out["bessel.product_ik.calls"] = spans.calls("bessel.product_ik")
    out["bessel.calls"] = spans.prefix_calls("bessel.")
    out["bessel.self_s"] = spans.prefix_self("bessel.")

    for command in COMMANDS:
        out[f"cli.{command}.s"] = spans.cum(f"cli.{command}")
    out["cli.write_table.calls"] = spans.calls("cli.write_table")
    out["cli.write_table.s"] = spans.cum("cli.write_table")
    out["cli.write_table.bytes"] = counters["cli.write_table.bytes"]

    out["trace.spans"] = len(tracer.name_of)
    out["trace.plain_wall_s"] = plain_wall
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - plain_wall
    return {name: out[name] for name, _, _ in PER_LAYER}
