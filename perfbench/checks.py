"""Output check of one benchmark trajectory and its failure accounting.

Every seed is held to invariants of the scheme; the default seed is also
compared with the final level-0/1 report values recorded from a reference
build.  Level-2/3 columns (V2, V3, X) are left out: they are not converged in
dt, so they do not make a sharp reference.
"""

import math

DEFAULT_SEED = 1

# V0 may rise between reports by this share of V0(0).  The discrete energy is
# not exactly monotone: at gamma = 0 (Newmark on the nonlinear solid) it rises
# by up to 7e-6 V0(0) between reports, well above round-off.
V0_RISE_RTOL = 1e-4
# The integrated level-0 balance residual is a time-discretization error of the
# initial layer, which the trajectory does not skip: at this commit about
# 1e-2 V0(0) on long2d-r5-g0 and 0.10 V0(0) on fsi3d-r4 (dt = 1e-2, 2 steps).
# This bound catches a broken balance; the default-seed reference catches
# small drifts.
RES_J0_RTOL = 0.25
# Relative tolerance of the default-seed comparison (det_min: of 1 - det_min).
REFERENCE_RTOL = 1e-6
REFERENCE_COLUMNS = ("V0", "V1", "D0", "res_j0", "res_j1", "det_min")

# Final report of each workload at DEFAULT_SEED, numpy kernels, one thread.
REFERENCE = {
    "fsi3d-r4": {
        "V0": 2.11854868876335e-07, "V1": 0.0001604319478978737,
        "D0": 1.0739382804874649e-06, "res_j0": 2.3657162143875544e-08,
        "res_j1": 0.00013061087822600505, "det_min": 0.9999975330620029,
    },
    "long2d-r5-g0": {
        "V0": 3.97585189377074e-07, "V1": 0.00014803804789731157,
        "D0": 1.3238923432417565e-09, "res_j0": 4.2602364660689395e-09,
        "res_j1": 4.995213169411942e-05, "det_min": 0.9999975168683599,
    },
}


def _close(value, ref, column):
    if column == "det_min":
        value, ref = 1.0 - value, 1.0 - ref
    return math.isclose(value, ref, rel_tol=REFERENCE_RTOL, abs_tol=0.0)


def check_trajectory(reports, retried_steps, reference=None):
    """Return {step index: [reasons]} for every step that fails the check.

    Report n belongs to step n (report 0 is the initial state).  A step fails
    if it needed the dt/2 retry, if its report breaks an invariant, or, for
    the final step, if the trajectory-level checks fail.
    """
    failed = {}

    def fail(step, reason):
        failed.setdefault(step, []).append(reason)

    for step in retried_steps:
        fail(step, "raised SolverError (dt/2 retry)")
    v00 = reports[0].V0
    for n, rep in enumerate(reports):
        if not rep.det_min > 0:
            fail(n, f"det_min = {rep.det_min!r}")
        if not rep.min_ellip > 0:
            fail(n, f"min_ellip = {rep.min_ellip!r}")
        if n and not rep.V0 <= reports[n - 1].V0 + V0_RISE_RTOL * v00:
            fail(n, f"V0 rose from {reports[n - 1].V0!r} to {rep.V0!r}")
    last = len(reports) - 1
    final = reports[-1]
    if last and not abs(final.res_j0) <= RES_J0_RTOL * v00:
        fail(last, f"|res_j0| = {abs(final.res_j0):.3e} > {RES_J0_RTOL:g} V0(0) = {RES_J0_RTOL * v00:.3e}")
    if reference is not None:
        for col in REFERENCE_COLUMNS:
            value = float(getattr(final, col))
            if not _close(value, reference[col], col):
                fail(last, f"{col} = {value!r}, reference {reference[col]!r}")
    return failed
