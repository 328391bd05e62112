"""Coupled-step benchmark of lagfsi: workloads, measurement and metrics.

A run drives one workload through the public driver (``RunConfig``
factories, then ``coupling.run_simulation``) on inputs drawn from the seed,
checks the outputs, prints every metric with its unit and, as its last line,
one JSON object.  ``run.py`` is the command; it pins every BLAS/OpenMP pool to
one thread before numpy is imported.

With ``--trace 0`` only step boundaries are time-stamped (a thin wrapper on
``TrajectoryRecorder.add``) and the end-to-end metrics are reported.  With
``--trace 1`` the run makes one untraced and one traced trajectory of the same
inputs, reports the per-layer metrics of the traced one and writes its spans
to ``.perfbench/trace-<workload>-seed<seed>.json``.
"""

import argparse
import contextlib
import json
import logging
import os
import platform
import resource
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import checks
import tracer

OUT_DIR = ".perfbench"


# BENCHMARK.json names the workloads and the metrics with their units; this
# file holds only the parameters of each workload.
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Workload:
    name: str
    dimension: int
    resolution: int
    dt: float
    gamma: float
    steps: int  # steps of each trajectory
    trajectories: int  # most trajectories of an untraced run; run_s is their median
    block: int  # consecutive steps averaged into one step_ms.p50 sample
    setups: int  # set-up-only runs before the trajectories (at least as many follow them)


# fsi3d-r4 steps take 5.5-17 s as the host's speed changes, long2d-r5-g0
# steps 75-170 ms; its 300 steps fit --seconds up to about 170 ms a step.
# fsi3d-r4 runs short trajectories, as many as end before the deadline (3 at
# 7 s a step), rather than one long one: the host's speed drifts by tens of
# percent over tens of seconds, so a run should sample as much of its time as
# it can, and the median drops a trajectory that a slow stretch hit.
# long2d-r5-g0 averages blocks of 25 steps (about 2-3 s) because the host
# switches between two speeds, 1.6x apart, over about a second: the median of
# single steps lands in whichever speed held for more than half of the run.
WORKLOADS = {
    w.name: w for w in (
        Workload("fsi3d-r4", 3, 4, 1e-2, 1.0, steps=2, trajectories=5, block=1, setups=1),
        Workload("long2d-r5-g0", 2, 5, 5e-3, 0.0, steps=300, trajectories=1, block=25, setups=20),
    )
}
assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])

# Initial-mode amplitudes are drawn from these ranges, far below the epsilon0
# smallness screen and narrow enough that the Newton iteration counts, and so
# the cost of a step, do not depend on the seed.  The swirl mode decays within
# a few steps at these dt, faster than implicit Euler resolves: on swirl-only
# data the final res_j0 is about half of V0(0).  Its amplitude is kept a tenth
# of the radial one so that res_j0 still measures the coupled balance.
RADIAL_AMPLITUDE = (0.8e-3, 1.2e-3)
SWIRL_AMPLITUDE = (0.8e-4, 1.2e-4)

SPANS = (
    "mesh.build_annular_mesh", "coupling.CoupledProblem", "coupling.initial_state",
    "fluid.solve_initial_pressure", "coupling.coupled_step", "coupling.residual",
    "coupling.tangent", "fluid.assemble_fluid_operator", "solid.newton_solve",
    "solid.internal_force", "solid.stiffness_matrix", "spaces.scatter_matrix",
    "kinematics.advance_flow_map", "kinematics.kinematic_bounds_report",
    *(f"kernels.{k}" for k in tracer.KERNELS),
    "diagnostics.TrajectoryRecorder.add", "diagnostics.compute_report",
    "diagnostics.energy_identity_residual", "diagnostics.write_csv",
)

# name -> unit of the metrics a run reports, by --trace value
METRICS = {
    trace: {m["name"]: m["unit"] for m in BENCHMARK[key]}
    for trace, key in ((0, "end_to_end"), (1, "per_layer"))
}


# -- inputs ---------------------------------------------------------------------


def draw_amplitudes(seed):
    """(radial, swirl) initial-mode amplitudes for a seed."""
    rng = np.random.default_rng(seed)
    return float(rng.uniform(*RADIAL_AMPLITUDE)), float(rng.uniform(*SWIRL_AMPLITUDE))


def run_config(w, csv_path, steps, newton_tol=None):
    from lagfsi import RunConfig

    cfg = RunConfig(
        dimension=w.dimension, resolution=w.resolution, dt=w.dt, gamma=w.gamma,
        t_end=steps * w.dt, output_csv=str(csv_path),
    )
    if newton_tol is not None:
        cfg.newton_tol = newton_tol
    return cfg


def make_inputs(w, seed):
    """(v0, w0, w1) dof arrays: a radial displacement bump plus a swirl
    velocity, with seed-drawn amplitudes.  The run receives only the arrays."""
    from lagfsi.coupling import CoupledProblem
    from lagfsi.initial_data import InitialData

    cfg = run_config(w, "", 0)
    problem = CoupledProblem(cfg.make_mesh(), cfg.make_material())
    radial, swirl = draw_amplitudes(seed)
    _, w0, w1 = InitialData("radial", radial, cfg.inner_radius, cfg.outer_radius).build(problem)
    v0, _, _ = InitialData("swirl", swirl, cfg.inner_radius, cfg.outer_radius).build(problem)
    return v0, w0, w1


# -- one trajectory -------------------------------------------------------------


class LogCounter(logging.Handler):
    """Counts WARNING records and collects the steps the driver retried."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.warnings = 0
        self.retried = []

    def emit(self, record):
        self.warnings += 1
        if record.name == "lagfsi.coupling" and record.msg.startswith("step %d failed"):
            self.retried.append(record.args[0])


@contextlib.contextmanager
def counting_logs():
    logger = logging.getLogger("lagfsi")
    handler = LogCounter()
    logger.addHandler(handler)
    try:
        yield handler
    finally:
        logger.removeHandler(handler)


@dataclass
class Trajectory:
    setup_s: float
    run_s: float
    step_s: np.ndarray
    reports: list
    state: object
    retried: list
    warnings: int
    csv_bytes: int


def trajectory(w, inputs, tmpdir, steps, newton_tol=None):
    """Set up and run one trajectory through the public driver.

    setup_s runs from the mesh build to the end of the t = 0 report; run_s
    from there to the CSV written; step_s holds the time from each recorder
    report to the next.
    """
    from lagfsi import coupling, diagnostics

    csv_path = Path(tmpdir) / "run.csv"
    cfg = run_config(w, csv_path, steps, newton_tol)
    stamps = []
    add = diagnostics.TrajectoryRecorder.add

    def stamped_add(self, state):
        rep = add(self, state)
        stamps.append(time.perf_counter())
        return rep

    with tracer.patched([(diagnostics.TrajectoryRecorder, "add", stamped_add)]), \
            counting_logs() as logs:
        start = time.perf_counter()
        mesh = cfg.make_mesh()
        reports, state = coupling.run_simulation(cfg.coupling_config(), inputs, cfg.make_material(), mesh)
        end = time.perf_counter()
    return Trajectory(
        setup_s=stamps[0] - start, run_s=end - stamps[0], step_s=np.diff(stamps),
        reports=reports, state=state, retried=logs.retried, warnings=logs.warnings,
        csv_bytes=csv_path.stat().st_size,
    )


def reachable_states(state):
    """CoupledState objects reachable from `state` through `history`."""
    seen, todo = {id(state)}, [state]
    while todo:
        for prev in todo.pop().history:
            if id(prev) not in seen:
                seen.add(id(prev))
                todo.append(prev)
    return len(seen)


# -- measurement ----------------------------------------------------------------


@dataclass
class Outcome:
    metrics: dict  # name -> (value, unit)
    attempted: int
    failed: dict  # (trajectory, step) -> reasons
    notes: list  # human-readable lines


def check(w, seed, trajectories):
    """(steps attempted, {(trajectory, step): reasons} of the failed ones)."""
    reference = checks.REFERENCE.get(w.name) if seed == checks.DEFAULT_SEED else None
    attempted, failed = 0, {}
    for i, tr in enumerate(trajectories):
        attempted += len(tr.reports) - 1
        for step, reasons in checks.check_trajectory(tr.reports, tr.retried, reference).items():
            failed[(i, step)] = reasons
    return attempted, failed


def measure(w, seed, deadline, trace, out_dir, newton_tol=None):
    """Run workload `w` and return its Outcome; temporary CSVs and the trace
    go under `out_dir`.  An untraced run spends the time left before
    `deadline` (a perf_counter value) after its trajectories on more set-up
    samples."""
    inputs = make_inputs(w, seed)  # untimed; also warms up imports and caches
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        if trace:
            values, attempted, failed, notes = _measure_traced(w, seed, inputs, tmp, newton_tol, out_dir)
        else:
            values, attempted, failed, notes = _measure_plain(w, seed, inputs, tmp, deadline, newton_tol)
    units = METRICS[trace]
    assert list(values) == list(units), "metrics differ from BENCHMARK.json"
    return Outcome({n: (v, units[n]) for n, v in values.items()}, attempted, failed, notes)


def _measure_plain(w, seed, inputs, tmp, deadline, newton_tol):
    def setup_s():
        return trajectory(w, inputs, tmp, 0, newton_tol).setup_s

    # Set-up samples come before and after the trajectories, so that their
    # median does not hang on one moment of the host's speed.
    setups = [setup_s() for _ in range(w.setups)]
    runs = []
    while len(runs) < w.trajectories:
        run = trajectory(w, inputs, tmp, w.steps, newton_tol)
        run.state = None  # free the history chain before the runs that follow
        runs.append(run)
        setups.append(run.setup_s)
        if time.perf_counter() + run.setup_s + run.run_s > deadline:
            break  # the next one would end after the deadline
    while len(setups) < 2 * w.setups + len(runs) or time.perf_counter() + setups[-1] < deadline:
        setups.append(setup_s())
    step_ms = 1e3 * np.concatenate([run.step_s for run in runs])
    # blocks of consecutive steps, never spanning two trajectories
    blocks_ms = np.concatenate([
        1e3 * run.step_s[:len(run.step_s) // w.block * w.block].reshape(-1, w.block).mean(axis=1)
        for run in runs
    ])
    values = {
        "setup_s": float(np.median(setups)),
        "run_s": float(np.median([run.run_s for run in runs])),
        "step_ms.p50": float(np.median(blocks_ms)),
        "step_ms.p90": float(np.percentile(step_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted, failed = check(w, seed, runs)
    beyond = int(np.sum(step_ms > values["step_ms.p90"]))
    notes = [
        f"samples: setup_s n={len(setups)}, run_s n={len(runs)} trajectories of {w.steps} steps, "
        f"step_ms.p50 n={len(blocks_ms)} blocks of {w.block} steps, "
        f"step_ms.p90 n={len(step_ms)} steps ({beyond} beyond)",
        f"fail_frac = {len(failed) / attempted:.6g} ({len(failed)} of {attempted} steps)",
    ]
    return values, attempted, failed, notes


def _measure_traced(w, seed, inputs, tmp, newton_tol, out_dir):
    plain = trajectory(w, inputs, tmp, w.steps, newton_tol)
    tr = tracer.Tracer(run_id=f"{w.name}-seed{seed}")
    with tracer.patched(tr.targets()):
        traced = trajectory(w, inputs, tmp, w.steps, newton_tol)
    values = {}
    totals = tracer.layer_totals(tr.spans)
    for name in SPANS:
        calls, busy, self_s = totals.get(name, (0, 0.0, 0.0))
        values.update({f"{name}.calls": calls, f"{name}.busy_s": busy, f"{name}.self_s": self_s})
    for k in tracer.KERNELS:
        values[f"kernels.{k}.mb"] = tr.kernel_bytes[f"kernels.{k}"] / 1e6
    unknowns, nnz = tr.tangent_shape
    values.update({
        "solid.newton_its": tr.newton_iterations / tr.newton_calls,
        "linsolve.unknowns": unknowns,
        "linsolve.nnz": nnz,
        "coupling.reachable_states": reachable_states(traced.state),
        "diagnostics.warnings": traced.warnings,
        "diagnostics.csv_bytes": traced.csv_bytes,
        "trace.overhead": traced.run_s / plain.run_s - 1.0,
        "trace.step_coverage": step_coverage(tr.spans, traced.step_s),
    })
    attempted, failed = check(w, seed, [plain, traced])
    notes = [
        f"untraced run_s = {plain.run_s:.4f} s, traced run_s = {traced.run_s:.4f} s",
        f"fail_frac = {len(failed) / attempted:.6g} ({len(failed)} of {attempted} steps)",
    ]
    trace_path = out_dir / f"trace-{w.name}-seed{seed}.json"
    trace_path.write_text(json.dumps({"columns": ["name", "start", "end", "parent", "run_id"],
                                      "spans": tr.spans}))
    notes.append(f"spans: {len(tr.spans)} written to {trace_path}")
    return values, attempted, failed, notes


STEP_SPANS = ("coupling.coupled_step", "diagnostics.TrajectoryRecorder.add")


def step_coverage(spans, step_s):
    """Summed self time of the spans inside the steps over the steps' wall time.

    Self times partition the top-level spans, so this is the top-level step
    spans' duration (the t = 0 report excluded) over the stamped step time.
    """
    top = [(name, s, e) for name, s, e, parent, _ in spans if parent < 0 and name in STEP_SPANS]
    first_step = next(i for i, (name, _, _) in enumerate(top) if name == "coupling.coupled_step")
    return sum(e - s for _, s, e in top[first_step:]) / float(np.sum(step_s))


# -- command --------------------------------------------------------------------


def provenance(w, seed, newton_tol):
    import scipy

    import lagfsi

    radial, swirl = draw_amplitudes(seed)
    return {
        "lagfsi": lagfsi.__version__,
        "kernel_backend": lagfsi.kernel_backend,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if "THREADS" in k},
        "seed": seed,
        "amplitudes": {"radial": radial, "swirl": swirl},
        "workload": asdict(w),
        "newton_tol": newton_tol if newton_tol is not None else run_config(w, "", 0).newton_tol,
    }


def result_line(outcome):
    return json.dumps({
        "correct": not outcome.failed,
        "attempted": outcome.attempted,
        "failed": len(outcome.failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in outcome.metrics.items()},
    })


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"],
                    help="time budget of a run; an untraced run fills what its trajectories "
                         "leave with set-up samples")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--newton-tol", type=float, default=None,
                    help="override the Newton tolerance (to show that the output check fails)")
    return ap.parse_args(argv)


def main(argv, root, started):
    args = parse_args(argv)
    import lagfsi

    src = (root / "src").resolve()
    if src not in Path(lagfsi.__file__).resolve().parents:
        print(f"lagfsi imported from {lagfsi.__file__}, not from {src}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    outcome = measure(w, args.seed, started + args.seconds, args.trace, root / OUT_DIR, args.newton_tol)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in outcome.notes:
        print(line)
    for (traj, step), reasons in sorted(outcome.failed.items()):
        print(f"FAILED trajectory {traj} step {step}: {'; '.join(reasons)}")
    print("provenance:", json.dumps(provenance(w, args.seed, args.newton_tol)))
    print(result_line(outcome))
    return 0
