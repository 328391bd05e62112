"""In-memory span tracing of lagfsi layers, installed from outside the package.

Each traced function is replaced, at the module or class attribute its callers
look up, by a wrapper that records a span (name, start, end, parent span,
run id).  ``patched`` restores the originals when its context exits, so
a traced and an untraced trajectory can share one process.  Spans stay in
memory until the benchmark writes them out.
"""

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

KERNELS = ("inv_det", "pk1", "elem_residual", "elem_tangent", "visc_elements", "div_elements")


def computed_bytes(args, result):
    """Bytes of the array arguments plus the array results, from their shapes
    and dtypes (a computed figure: cache traffic is not measured)."""
    results = result if isinstance(result, tuple) else (result,)
    return sum(x.size * x.itemsize for x in (*args, *results) if isinstance(x, np.ndarray))


def layer_totals(spans):
    """Per span name: calls, inclusive busy seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children.  Spans come from single-threaded, properly nested calls, so the
    children of one span never overlap.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls, busy, self_s = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (calls + 1, busy + (end - start), self_s + (end - start) - child_time[i])
    return totals


class Tracer:
    """Span recorder plus the counters taken at the same boundaries."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.kernel_bytes = defaultdict(int)
        self.newton_calls = 0
        self.newton_iterations = 0
        self.tangent_shape = None  # (unknowns, nnz) of the last tangent
        self._stack = []

    def wrap(self, name, fn, count_bytes=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id])
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
            if count_bytes:
                self.kernel_bytes[name] += computed_bytes(args, out)
            return out

        return traced

    def _newton_solve(self, fn):
        """solid.newton_solve with the residual and tangent callbacks that
        coupled_step hands it wrapped as coupling.residual / coupling.tangent."""
        residual_span = functools.partial(self.wrap, "coupling.residual")
        tangent_span = functools.partial(self.wrap, "coupling.tangent")

        def newton_solve(residual, tangent, u0, *args, **kwargs):
            def shaped_tangent(u):
                J = tangent(u)
                self.tangent_shape = (J.shape[0], J.nnz)
                return J

            u, info = fn(residual_span(residual), tangent_span(shaped_tangent), u0, *args, **kwargs)
            self.newton_calls += 1
            self.newton_iterations += info["iterations"]
            return u, info

        return self.wrap("solid.newton_solve", functools.wraps(fn)(newton_solve))

    def targets(self):
        """(owner, attribute, wrapper) for every traced layer boundary."""
        from lagfsi import coupling, diagnostics, fluid, kernels, kinematics, mesh, solid, spaces

        def at(owner, attr, name, count_bytes=False):
            return owner, attr, self.wrap(name, getattr(owner, attr), count_bytes)

        out = [
            at(mesh, "build_annular_mesh", "mesh.build_annular_mesh"),
            at(coupling.CoupledProblem, "__init__", "coupling.CoupledProblem"),
            at(coupling, "initial_state", "coupling.initial_state"),
            at(fluid, "solve_initial_pressure", "fluid.solve_initial_pressure"),
            at(coupling, "coupled_step", "coupling.coupled_step"),
            at(fluid, "assemble_fluid_operator", "fluid.assemble_fluid_operator"),
            (solid, "newton_solve", self._newton_solve(solid.newton_solve)),
            at(solid, "internal_force", "solid.internal_force"),
            at(solid, "stiffness_matrix", "solid.stiffness_matrix"),
            at(spaces.FieldSpace, "scatter_matrix", "spaces.scatter_matrix"),
            at(coupling, "advance_flow_map", "kinematics.advance_flow_map"),
            at(kinematics, "kinematic_bounds_report", "kinematics.kinematic_bounds_report"),
            at(diagnostics.TrajectoryRecorder, "add", "diagnostics.TrajectoryRecorder.add"),
            at(diagnostics, "compute_report", "diagnostics.compute_report"),
            at(diagnostics, "energy_identity_residual", "diagnostics.energy_identity_residual"),
            at(diagnostics, "write_csv", "diagnostics.write_csv"),
        ]
        out += [at(kernels, k, f"kernels.{k}", count_bytes=True) for k in KERNELS]
        return out


@contextlib.contextmanager
def patched(targets):
    """Set each owner.attr to its replacement; restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
