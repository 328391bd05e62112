"""Monolithic coupling of fluid, solid and the damped interface conditions.

One time step solves for (v, q, w, lambda) at t + dt, where lambda is the
interface traction field on the shared trace space.  The transmission
conditions enter weakly and symmetrically:

* fluid momentum rows carry + int_Gc <lambda, phi_f>, so the fluid's
  natural boundary condition identifies lambda with its traction
  (a a^T Dv) nu - q (a nu)  (stress matching);
* solid rows carry - int_Gc <lambda, phi_s>, identifying lambda with the
  elastic traction DW(Dw + I) nu;
* trace rows impose  v - w_t - gamma lambda = 0  on the interface
  (damped velocity matching), a Robin-type closure that degenerates to
  plain velocity matching at gamma = 0.

Testing the fluid rows with v and the solid rows with w_t makes the
interface exchange terms cancel up to the exact dissipation
gamma ||lambda||^2, which is what the energy-identity diagnostics check.
"""

import contextlib
import logging
from collections import deque
from dataclasses import replace

import numpy as np

from . import diagnostics, fluid as fluidmod, mesh as meshmod, solid as solidmod
from . import sparsity
from .errors import PreconditionError, SolverError
from .kinematics import KinematicState, advance_flow_map
from .material import Pairs
from .pointwise import matvec
from .spaces import FieldSpace, InterfaceData

log = logging.getLogger(__name__)


class CoupledProblem:
    """Spaces, interface structures and constant matrices on one mesh, and
    the LU factor of the coupled tangent that the steps of a run share."""

    def __init__(self, mesh, model):
        d = mesh.dimension
        self.mesh = mesh
        self.model = model
        self.vspace = FieldSpace(mesh, meshmod.FLUID, 2, d)
        self.pspace = FieldSpace(mesh, meshmod.FLUID, 1, 1, quad_degree=5)
        self.sspace = FieldSpace(mesh, meshmod.SOLID, 2, d)
        assert self.vspace.degree == self.pspace.degree + 1  # inf-sup stable pair
        self.interface = InterfaceData(mesh, self.vspace, self.sspace, self.pspace)
        self.M_fluid = self.vspace.mass_matrix()
        self.M_solid = self.sspace.mass_matrix()
        self.free_fluid = self.vspace.free_mask(meshmod.OUTER)
        # interface trace nodes never sit on the outer boundary
        assert self.free_fluid[self.interface.C_fluid.indices].all()
        self.tangent = CoupledTangent(self)
        # the tangent moves by O(dt) from one step to the next, so one factor,
        # keyed on dt, preconditions the Newton corrections of many steps
        self.factor = solidmod.FactorStore()


class CoupledTangent:
    """The fixed CSC pattern of the coupled tangent in (v_free, q, w, lambda)
    and, for each source of its data, the tangent slot of each source entry.

    The constant sources (M_f/dt, the solid mass coefficient and the
    identity-state stiffness K(0), C_f, C_s and its Newmark-scaled
    transpose, -gamma M_Gamma) are written once per (dt, gamma) in `base`.
    A step's fluid element arrays go straight to tangent slots in
    `step_matrix`: each scalar viscous entry K[c, a, b] feeds the d slots
    ((a, i), (b, i)), and each divergence entry B[c, p, a, i] feeds one slot
    of the B block and one of the -B^T block, so no fluid matrix is formed.
    Entries on constrained fluid dofs go to a spare slot past the slots they
    could fill, which no matrix sees.  The solid stiffness beyond K(0) is never
    assembled: the Newton solve applies it matrix-free.  Every step's
    matrix shares the pattern's index arrays.
    """

    def __init__(self, problem):
        vs, ps, ss, iface = problem.vspace, problem.pspace, problem.sspace, problem.interface
        free = problem.free_fluid
        fmap = np.where(free, np.cumsum(free) - 1, -1)
        self.sizes = (int(free.sum()), ps.nscalar, ss.ndof, iface.nlam)
        visc = vs.assembly(components=True)
        div = ps.assembly(vs)
        elastic = ss.assembly().pattern
        Cf, Cs, Mg = (sparsity.Pattern.of(A) for A in (iface.C_fluid, iface.C_solid, iface.M_vec))

        def transposed(pattern, rows=None, cols=None):
            pattern_t, order = sparsity.transpose(pattern)
            sub, src = sparsity.restrict(pattern_t, rows, cols)
            return sub, order[src]

        # block -> (source pattern, block pattern, slot of the source carried
        # by each block slot; None: the source's own slots)
        views = {
            (0, 0): (visc.pattern, *sparsity.restrict(visc.pattern, fmap, fmap)),
            (0, 1): (div.pattern, *transposed(div.pattern, rows=fmap)),
            (0, 3): (Cf, *sparsity.restrict(Cf, fmap)),
            (1, 0): (div.pattern, *sparsity.restrict(div.pattern, cols=fmap)),
            (2, 2): (elastic, elastic, None),
            (2, 3): (Cs, Cs, None),
            (3, 0): (Cf, *transposed(Cf, cols=fmap)),
            (3, 2): (Cs, *transposed(Cs)),
            (3, 3): (Mg, Mg, None),
        }
        self.pattern, slots = sparsity.stack({b: p for b, (_, p, _) in views.items()},
                                             self.sizes)
        spare = self.pattern.nnz
        # block -> tangent slot of each source entry
        self._slot = {}
        for block, (source, _, src) in views.items():
            if src is None:
                self._slot[block] = slots[block]
            else:
                self._slot[block] = np.full(source.nnz, spare, dtype=sparsity.INDEX)
                self._slot[block][src] = slots[block]
        mass = sparsity.locate(ss.assembly(components=True).pattern, elastic)
        self._slot["solid mass"] = slots[2, 2][mass]
        # the fluid blocks lie in the velocity and pressure columns, whose
        # slots come first: a step's bincounts span those slots, and its
        # dropped entries go to the slot after them
        self._fluid_end = m = int(self.pattern.indptr[self.sizes[0] + self.sizes[1]])
        # the velocity-pattern slot of each (component, scalar slot), by
        # inverting the viscous assembly's gather, then its tangent slot
        self._ncomp = d = vs.ncomp
        by_comp = np.empty((d, visc.base.nnz), dtype=sparsity.INDEX)
        by_comp[visc.pattern.columns() % d, visc.gather] = np.arange(visc.pattern.nnz)
        self._visc = np.minimum(self._slot[0, 0], m)[by_comp][:, visc.slot].ravel()
        self._div = np.minimum(np.concatenate([self._slot[1, 0][div.slot],
                                               self._slot[0, 1][div.slot]]), m)
        self._constant = (problem.M_fluid, problem.M_solid, iface.C_fluid, iface.C_solid,
                          iface.M_vec)
        self._solid = (problem.model, ss)
        self._base_key = self._base = None

    def base(self, dt, gamma):
        """Data of the constant blocks at (dt, gamma), kept for the next call."""
        if self._base_key != (dt, gamma):
            M_f, M_s, C_f, C_s, M_g = self._constant
            self._base = None
            data = np.zeros(self.pattern.nnz + 1)
            for block, values, scale in (
                ((0, 0), M_f.data, 1.0 / dt),
                ("solid mass", M_s.data, 1.0 / (solidmod.NEWMARK_BETA * dt * dt) + 1.0),
                ((2, 2), solidmod.stiffness_matrix(*self._solid).data, 1.0),
                ((0, 3), C_f.data, 1.0),
                ((3, 0), C_f.data, 1.0),
                ((2, 3), C_s.data, -1.0),
                ((3, 2), C_s.data, -solidmod.newmark_rate_factor(dt)),
                ((3, 3), M_g.data, -gamma),
            ):
                data[self._slot[block]] += scale * values
            self._base, self._base_key = data[:-1], (dt, gamma)
        return self._base

    def step_matrix(self, elements, viscosity, dt, gamma):
        """The step's assembled tangent: the constant blocks plus the fluid
        element arrays (K, B) of `fluid.assemble_fluid_operator`, as
        viscosity K, B and -B^T."""
        K, B = elements
        m = self._fluid_end
        fluid = np.bincount(self._visc, np.tile(K.ravel(), self._ncomp), minlength=m + 1)
        fluid *= viscosity
        B = B.ravel()
        fluid += np.bincount(self._div, np.concatenate([B, -B]), minlength=m + 1)
        data = self.base(dt, gamma).copy()
        data[:m] += fluid[:m]
        return self.pattern.matrix(data)


class CoupledState:
    """One time level of the coupled system plus a short history ring."""

    def __init__(self, problem, v, q, w, wt, wtt, lam, kin, time, history=None):
        self.problem = problem
        self.v = v
        self.q = q
        self.w = w
        self.wt = wt
        self.wtt = wtt
        self.lam = lam
        self.kin = kin
        self.time = time
        self.history = history if history is not None else deque(maxlen=5)
        self._cache = {}

    def snapshot(self):
        """This state without a history ring, sharing its arrays and cache, so
        that a ring of snapshots keeps no earlier ring alive."""
        snap = CoupledState(self.problem, self.v, self.q, self.w, self.wt, self.wtt,
                            self.lam, self.kin, self.time, history=())
        snap._cache = self._cache
        return snap

    def next_history(self):
        """The history ring of the state one step after this one: this ring
        with this state's snapshot appended."""
        history = deque(self.history, maxlen=5)
        history.append(self.snapshot())
        return history

    def past(self):
        """History including self, oldest first."""
        return list(self.history) + [self]

    def q_qp(self):
        if "q_qp" not in self._cache:
            self._cache["q_qp"] = self.problem.pspace.values([self.q])[0, 0]
        return self._cache["q_qp"]


def initial_state(problem, cfg, model, v0, w0, w1):
    """Assemble the t = 0 state: initial pressure, consistent acceleration
    and the projected elastic traction as the initial interface field."""
    vs, ss = problem.vspace, problem.sspace
    iface = problem.interface
    norms = [
        np.sqrt(vs.l2_norm_sq(v0)),
        np.sqrt(ss.l2_norm_sq(w0)),
        np.sqrt(ss.l2_norm_sq(w1)),
    ]
    if not cfg.allow_large and max(norms) > cfg.epsilon0:
        raise PreconditionError(
            f"initial data norms {norms} exceed the smallness screen {cfg.epsilon0}; "
            "pass --allow-large to override"
        )
    kin = KinematicState.initial(vs, iface)
    q0 = fluidmod.solve_initial_pressure(problem, v0, w0, model)
    Dw = iface.gradients("solid", [w0])[:, :, 0]
    lam0 = iface.project(matvec(model.pk1(Pairs([Dw])), iface.nu))
    rhs = iface.C_solid @ lam0 - solidmod.internal_force(model, ss, w0) - problem.M_solid @ w0
    # M_solid = M (x) I: solve the components as columns of the scalar factor
    lu = solidmod.lu_factor(ss.scalar_mass_matrix())
    wtt0 = lu.solve(rhs.reshape(ss.nscalar, ss.ncomp)).ravel()
    return CoupledState(problem, np.array(v0, dtype=float), q0, np.array(w0, dtype=float),
                        np.array(w1, dtype=float), wtt0, lam0, kin, 0.0)


def _dump_system(cfg, step, iteration, J, rhs):
    path = f"{cfg.dump_prefix}_step{step}_it{iteration}.txt"
    Jc = J.tocoo()
    with open(path, "w") as fh:
        fh.write(f"# {J.shape[0]} x {J.shape[1]}, nnz {Jc.nnz}\n")
        for r, c, val in zip(Jc.row, Jc.col, Jc.data):
            fh.write(f"{r} {c} {float(val)!r}\n")
        fh.write("# rhs\n")
        for i, val in enumerate(rhs):
            fh.write(f"{i} {float(val)!r}\n")


def coupled_step(state, cfg, model, step_index=0):
    """Advance the coupled system one implicit step by monolithic Newton.

    The fluid coefficients a a^T are frozen at the current flow map; the
    flow map itself is advanced afterwards with the end-of-step velocity.
    `step_index` labels the step in its log line and system dump files.
    """
    problem = state.problem
    vs, ps, ss = problem.vspace, problem.pspace, problem.sspace
    iface = problem.interface
    dt = cfg.dt

    elements = fluidmod.assemble_fluid_operator(state.kin, vs, ps)
    free = problem.free_fluid
    M_s = problem.M_solid
    C_s = iface.C_solid
    # The fluid, pressure and trace rows are affine in u: P u - b, with P the
    # step's assembled tangent.  The trace rows' constant is C_s^T w_t(w = 0),
    # since the Newmark w_t is affine in w.  The exact tangent at u is P plus
    # the matrix-free (K(w) - K(0)) on the solid rows.
    P = problem.tangent.step_matrix(elements, cfg.viscosity, dt, cfg.gamma)
    nf, nq, nw, _ = problem.tangent.sizes
    ws = slice(nf + nq, nf + nq + nw)
    wt_at_zero, _ = solidmod.newmark_update(np.zeros(nw), state.w, state.wt, state.wtt, dt)
    b = np.zeros(P.shape[0])
    b[:nf] = (problem.M_fluid @ state.v)[free] / dt
    b[ws.stop:] = C_s.T @ wt_at_zero

    def unpack(u):
        return (u[:nf], u[nf:nf + nq], u[ws], u[ws.stop:])

    def residual(u):
        _, _, w, lam = unpack(u)
        _, wtt = solidmod.newmark_update(w, state.w, state.wt, state.wtt, dt)
        R = P @ u - b
        R[ws] = solidmod.solid_residual(model, ss, M_s, w, wtt, C_s @ lam)
        return R

    u0 = np.concatenate([state.v[free], state.q, state.w, state.lam])
    it = [0]

    def tangent(u):
        J = solidmod.TangentOperator(P, solidmod.stiffness_remainder(model, ss, u[ws]), ws)
        if cfg.dump_systems:
            _dump_system(cfg, step_index, it[0], J.assembled(), residual(u))
        it[0] += 1
        return J

    u, info = solidmod.newton_solve(
        residual, tangent, u0, tol=cfg.newton_tol, maxit=cfg.newton_maxit,
        store=problem.factor, key=dt,
    )
    info["retried"] = False
    log.info(
        "step %s t=%.6g newton iterations=%d residuals=%s factorizations=%d krylov_its=%d",
        step_index, state.time + dt, info["iterations"],
        ["%.3e" % r for r in info["residuals"]], info["factorizations"], info["krylov_its"],
    )

    vf, q, w, lam = unpack(u)
    v = np.zeros(vs.ndof)
    v[free] = vf
    wt, wtt = solidmod.newmark_update(w, state.w, state.wt, state.wtt, dt)
    kin = advance_flow_map(state.kin, v, dt)

    new = CoupledState(problem, v, q, w, wt, wtt, lam, kin, state.time + dt,
                       state.next_history())
    new.newton_info = info
    return new


def run_simulation(cfg, init, model, mesh):
    """Drive the coupled system from t = 0 to t_end.

    `init` supplies (v0, w0, w1) dof arrays via build(problem) or as a tuple.
    Returns (reports, final_state).  When cfg.output_csv is set, the CSV is
    opened before any work is done, so an unwritable path fails first, and
    its rows are written after the last step; a run that fails leaves it
    empty.
    """
    with open(cfg.output_csv, "w") if cfg.output_csv else contextlib.nullcontext() as csv:
        problem = CoupledProblem(mesh, model)
        if hasattr(init, "build"):
            v0, w0, w1 = init.build(problem)
        else:
            v0, w0, w1 = init
        state = initial_state(problem, cfg, model, v0, w0, w1)
        recorder = diagnostics.TrajectoryRecorder(problem, model, cfg)
        recorder.add(state)

        nsteps = int(round(cfg.t_end / cfg.dt))
        for n in range(1, nsteps + 1):
            try:
                new = coupled_step(state, cfg, model, step_index=n)
            except SolverError as exc:
                log.warning("step %d failed (%s); retrying with dt/2", n, exc)
                new = None
            # retry outside the handler: the exception's frames hold the
            # failed solve's tangent and factor
            state = new if new is not None else _retry_halved(state, cfg, model, n)
            recorder.add(state)
            if cfg.output_vtk_every and n % cfg.output_vtk_every == 0:
                _export_state(cfg, problem, state, n)

        if csv is not None:
            diagnostics.write_csv(csv, recorder.reports)
    return recorder.reports, state


def _retry_halved(state, cfg, model, n):
    """Step n as two steps of dt/2.  The result's newton_info is flagged
    `retried` and counts the factorizations and GMRES iterations of both."""
    half = replace(cfg, dt=cfg.dt / 2)
    mid = coupled_step(state, half, model, step_index=f"{n}_half1")
    new = coupled_step(mid, half, model, step_index=f"{n}_half2")
    # the diagnostics difference the ring with cfg.dt: keep it spaced by dt,
    # without the half-step state
    new.history = state.next_history()
    info = new.newton_info
    info["retried"] = True
    for key in ("factorizations", "krylov_its"):
        info[key] += mid.newton_info[key]
    log.info("step %d retried as two steps of dt/2: factorizations=%d krylov_its=%d",
             n, info["factorizations"], info["krylov_its"])
    return new


def _export_state(cfg, problem, state, n):
    mesh = problem.mesh
    nv = len(mesh.vertices)
    point_data = {}
    for name, space, u in (("velocity", problem.vspace, state.v),
                           ("displacement", problem.sspace, state.w),
                           ("pressure", problem.pspace, state.q)):
        dofs = space.g2l[:nv]
        mask = dofs >= 0
        nodal = np.zeros((nv, space.ncomp))
        nodal[mask] = u.reshape(space.nscalar, -1)[dofs[mask]]
        point_data[name] = nodal if space.ncomp > 1 else nodal[:, 0]
    meshmod.export_vtk(mesh, f"{cfg.vtk_prefix}_{n:06d}.vtk", point_data=point_data)
