"""Span tracer that wraps qgsw_vstates functions from outside the package.

A target names a function by module and attribute (``"contour",
"g_functional"``) or a method by class path (``"continuation",
"_ProjectedSystem.jacobian"``).  Installing it replaces *every* binding of
that function object in the package: the defining module, modules that did
``from .x import f``, module-level dicts (the CLI dispatch table) and class
bodies.  Each call then records one span: name, parent span, start, end,
and whether it raised.  Spans stay in flat arrays until the run ends.

The tracer assumes one thread (the benchmark drives the CLI with
``--jobs 1``): the parent of a span is whatever span is open on the one
stack.
"""

from __future__ import annotations

import gzip
import importlib
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "qgsw_vstates"


def _elements(result, z, *args, **kwargs):
    return {"elements": int(np.size(z))}


def _k0_elements(result, z, *args, **kwargs):
    z = np.asarray(z)
    # _k0_array switches from the series to its quadrature branch above 4
    return {"elements": int(z.size), "large_z_elements": int(np.count_nonzero(z > 4.0))}


def _bytes_written(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _points(result, *args, **kwargs):
    return {"points": len(result.points)}


# (module, attribute, span name, count hook run after the call returns)
EXACT_TARGETS = (
    ("bessel", "_i0_array", "kernel.i0", _elements),
    ("bessel", "_k0reg_array", "kernel.k0reg", _elements),
    ("bessel", "_k0_array", "kernel.k0", _k0_elements),
    ("contour", "g_functional", "contour.g_functional", None),
    ("continuation", "_ProjectedSystem.jacobian", "continuation.jacobian", None),
    ("continuation", "newton_solve", "continuation.newton_solve", None),
    ("continuation", "trace_branch", "continuation.trace_branch", _points),
)
"""Targets behind the exact counters; cheap enough to leave on in a timed run."""

FULL_TARGETS = EXACT_TARGETS + (
    ("contour", "conformal_eval", "contour.conformal_eval", None),
    ("contour", "s_integral", "contour.s_integral", None),
    ("contour", "linearization_check", "contour.linearization_check", None),
    ("continuation", "_ProjectedSystem.residual", "continuation.residual", None),
    ("spectrum", "eigenvalues", "spectrum.eigenvalues", None),
    ("spectrum", "discriminant", "spectrum.discriminant", None),
    ("spectrum", "lambda_coupling", "spectrum.lambda_coupling", None),
    ("spectrum", "kernel_vector", "spectrum.kernel_vector", None),
    ("spectrum", "find_threshold", "spectrum.find_threshold", None),
    ("bessel", "product_ik", "bessel.product_ik", None),
    ("bessel", "log_bessel_i", "bessel.log_bessel_i", None),
    ("bessel", "log_bessel_k", "bessel.log_bessel_k", None),
    ("bessel", "bessel_i", "bessel.bessel_i", None),
    ("bessel", "bessel_k", "bessel.bessel_k", None),
    ("bessel", "bessel_derivative", "bessel.bessel_derivative", None),
    ("bessel", "beltrami_k0", "bessel.beltrami_k0", None),
    ("cli", "_cmd_spectrum", "cli.spectrum", None),
    ("cli", "_cmd_eigen", "cli.eigen", None),
    ("cli", "_cmd_limits", "cli.limits", None),
    ("cli", "_cmd_branch", "cli.branch", None),
    ("cli", "_cmd_verify", "cli.verify", None),
    ("cli", "_write_table", "cli.write_table", _bytes_written),
)


def _resolve(module_name, attribute):
    """The function object a target names, or None if the program lacks it."""
    try:
        obj = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    for part in attribute.split("."):
        # class attributes are read from __dict__ so a method is the plain
        # function stored in the class body, the object the class holds
        obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
        if obj is None:
            return None
    return obj if callable(obj) else None


def _bindings(function):
    """Every (container, key) in the package that holds ``function``."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for key, value in vars(module).items():
            if key.startswith("__"):
                continue
            if value is function:
                found.append((module, key))
            elif isinstance(value, dict):
                found.extend((value, k) for k, v in value.items() if v is function)
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found.extend((value, k) for k, v in vars(value).items() if v is function)
    return found


def _assign(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Context manager that records spans for the given targets."""

    def __init__(self, targets):
        self.targets = targets
        self.names = []
        self.counters = Counter()
        self.name_of = array("i")
        self.parent = array("i")
        self.outer = array("b")  # no enclosing span of the same name
        self.raised = array("b")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self._active = []
        self._undo = []

    def __enter__(self):
        for module_name, attribute, span_name, count in self.targets:
            function = _resolve(module_name, attribute)
            if function is None:
                continue
            wrapper = self._wrap(span_name, function, count)
            for container, key in _bindings(function):
                self._undo.append((container, key, function))
                _assign(container, key, wrapper)
        return self

    def __exit__(self, *exc):
        for container, key, function in reversed(self._undo):
            _assign(container, key, function)
        self._undo.clear()
        return False

    def _wrap(self, span_name, function, count):
        nid = len(self.names)
        self.names.append(span_name)
        self._active.append(0)
        name_of, parent, outer = self.name_of, self.parent, self.outer
        raised, start, end = self.raised, self.start, self.end
        stack, active, counters = self._stack, self._active, self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(active[nid] == 0)
            raised.append(0)
            end.append(0)
            active[nid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                result = function(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                active[nid] -= 1
            if count is not None:
                for key, value in count(result, *args, **kwargs).items():
                    counters[f"{span_name}.{key}"] += value
            return result

        traced.__wrapped__ = function
        return traced

    # ------------------------------------------------------------------
    # reading the spans back

    def arrays(self):
        """Span columns as numpy arrays; durations in seconds."""
        name_of = np.array(self.name_of, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        duration = (end - start) * 1e-9
        child = np.bincount(
            parent[parent >= 0], weights=duration[parent >= 0], minlength=len(duration)
        )
        return {
            "name": name_of,
            "parent": parent,
            "outer": np.array(self.outer, dtype=bool),
            "raised": np.array(self.raised, dtype=bool),
            "duration": duration,
            "self": duration - child,
        }

    def name_id(self, span_name):
        try:
            return self.names.index(span_name)
        except ValueError:
            return -1

    def write(self, path):
        """Spans as gzip CSV: id, name, parent, start_ns, end_ns, raised."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("id,name,parent,start_ns,end_ns,raised\n")
            for idx in range(len(self.name_of)):
                handle.write(
                    f"{idx},{self.names[self.name_of[idx]]},{self.parent[idx]},"
                    f"{self.start[idx]},{self.end[idx]},{self.raised[idx]}\n"
                )
