"""Independent dense finite-element oracle.

Everything numerical is recomputed here with hand-coded basis polynomials,
literature quadrature constants, index-notation material formulas and
nested-loop dense assembly; only dof numbering tables are taken from the
package so the resulting vectors are directly comparable.
"""

import numpy as np

from lagfsi.mesh import ReferenceMesh, FLUID, SOLID

# 7-point degree-5 triangle rule (area-1/2 reference)
_S15 = np.sqrt(15.0)
TRI_PTS = np.array(
    [
        [1 / 3, 1 / 3],
        [(6 + _S15) / 21, (6 + _S15) / 21],
        [(9 - 2 * _S15) / 21, (6 + _S15) / 21],
        [(6 + _S15) / 21, (9 - 2 * _S15) / 21],
        [(6 - _S15) / 21, (6 - _S15) / 21],
        [(9 + 2 * _S15) / 21, (6 - _S15) / 21],
        [(6 - _S15) / 21, (9 + 2 * _S15) / 21],
    ]
)
TRI_WTS = np.array(
    [9 / 80] + [(155 + _S15) / 2400] * 3 + [(155 - _S15) / 2400] * 3
)

# 3-point Gauss-Legendre on [0, 1]
EDGE_PTS = np.array([(1 - np.sqrt(0.6)) / 2, 0.5, (1 + np.sqrt(0.6)) / 2])
EDGE_WTS = np.array([5 / 18, 8 / 18, 5 / 18])


def p2_vals(xi, eta):
    s = xi + eta
    return np.array(
        [
            (1 - s) * (1 - 2 * s),
            xi * (2 * xi - 1),
            eta * (2 * eta - 1),
            4 * xi * (1 - s),
            4 * eta * (1 - s),
            4 * xi * eta,
        ]
    )


def p2_grads(xi, eta):
    s = xi + eta
    return np.array(
        [
            [4 * s - 3, 4 * s - 3],
            [4 * xi - 1, 0],
            [0, 4 * eta - 1],
            [4 * (1 - 2 * xi - eta), -4 * xi],
            [-4 * eta, 4 * (1 - xi - 2 * eta)],
            [4 * eta, 4 * xi],
        ]
    )


def p1_vals(xi, eta):
    return np.array([1 - xi - eta, xi, eta])


def svk_energy(F, lam, mu):
    E = 0.5 * (F.T @ F - np.eye(2))
    return 0.5 * lam * np.trace(E) ** 2 + mu * np.sum(E * E)


def oracle_pk1(F, lam, mu, kind):
    if kind == "linear-isotropic":
        eps = 0.5 * ((F - np.eye(2)) + (F - np.eye(2)).T)
        return lam * np.trace(eps) * np.eye(2) + 2 * mu * eps
    E = 0.5 * (F.T @ F - np.eye(2))
    S = lam * np.trace(E) * np.eye(2) + 2 * mu * E
    return F @ S


def oracle_d2w(F, lam, mu, kind):
    d = 2
    D2 = np.zeros((d, d, d, d))
    if kind == "linear-isotropic":
        for i in range(d):
            for a in range(d):
                for j in range(d):
                    for b in range(d):
                        D2[i, a, j, b] = (
                            lam * (i == a) * (j == b)
                            + mu * ((i == j) * (a == b) + (i == b) * (a == j))
                        )
        return D2
    E = 0.5 * (F.T @ F - np.eye(d))
    S = lam * np.trace(E) * np.eye(d) + 2 * mu * E
    for i in range(d):
        for a in range(d):
            for j in range(d):
                for b in range(d):
                    val = lam * F[i, a] * F[j, b] + mu * F[i, b] * F[j, a]
                    val += mu * (a == b) * sum(F[i, B] * F[j, B] for B in range(d))
                    if i == j:
                        val += S[a, b]
                    D2[i, a, j, b] = val
    return D2


def eta(kin):
    """Nodal positions of the flow map of a KinematicState: the velocity
    space's node coordinates plus the kept displacement eta - x."""
    return kin.space.node_coords.reshape(-1) + kin.displacement


def make_tiny_mesh():
    """Smallest legal enclosed-solid mesh: 2 solid + 8 fluid triangles."""
    a, b = 0.4, 1.0
    verts = np.array(
        [
            [-a, -a], [a, -a], [a, a], [-a, a],
            [-b, -b], [b, -b], [b, b], [-b, b],
        ]
    )
    cells = [
        (0, 1, 2), (0, 2, 3),                      # solid square
        (4, 5, 0), (5, 1, 0), (5, 6, 1), (6, 2, 1),
        (6, 7, 2), (7, 3, 2), (7, 4, 3), (4, 0, 3),
    ]
    region = [SOLID, SOLID] + [FLUID] * 8
    return ReferenceMesh(verts, np.array(cells), np.array(region))


class DenseStep:
    """Dense re-assembly and monolithic Newton solve of one coupled step."""

    def __init__(self, problem, model):
        self.problem = problem
        self.model = model
        self.mesh = problem.mesh
        self.lam = model.lam
        self.mu = model.mu
        self.kind = model.kind

    # -- geometry helpers ------------------------------------------------------

    def _cell_geom(self, cell):
        verts = self.mesh.vertices[self.mesh.cells[cell]]
        J = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
        detJ = abs(np.linalg.det(J))
        Jinv = np.linalg.inv(J)
        return verts, J, Jinv, detJ

    def _grad_field(self, space, dofs, cell_local, xi, eta):
        """Gradient of a P2 vector field at one reference point of a cell."""
        cell = space.cells[cell_local]
        _, _, Jinv, _ = self._cell_geom(cell)
        grads = p2_grads(xi, eta) @ Jinv  # (6, 2) physical
        u = np.asarray(dofs).reshape(-1, 2)[space.cell_dofs[cell_local]]
        return u.T @ grads  # (2 comp, 2 deriv) -> D u[i, a]

    # -- dense matrices ---------------------------------------------------------

    def fluid_matrices(self, eta, dt, visc):
        vs, ps = self.problem.vspace, self.problem.pspace
        nv, npr = vs.ndof, ps.nscalar
        M = np.zeros((nv, nv))
        K = np.zeros((nv, nv))
        B = np.zeros((npr, nv))
        for cl, cell in enumerate(vs.cells):
            verts, J, Jinv, detJ = self._cell_geom(cell)
            vdofs = vs.cell_dofs[cl]
            pdofs = ps.cell_dofs[cl] if ps.cells[cl] == cell else None
            assert pdofs is not None
            for (xi, eta_r), wt in zip(TRI_PTS, TRI_WTS):
                w = wt * detJ
                vals = p2_vals(xi, eta_r)
                grads = p2_grads(xi, eta_r) @ Jinv
                Deta = self._grad_field(vs, eta, cl, xi, eta_r)
                a = np.linalg.inv(Deta)
                aaT = a @ a.T
                pv = p1_vals(xi, eta_r)
                for A in range(6):
                    for Bb in range(6):
                        mass = w * vals[A] * vals[Bb]
                        visc_ab = w * sum(
                            aaT[j, k] * grads[Bb, k] * grads[A, j]
                            for j in range(2) for k in range(2)
                        )
                        for i in range(2):
                            M[2 * vdofs[A] + i, 2 * vdofs[Bb] + i] += mass
                            K[2 * vdofs[A] + i, 2 * vdofs[Bb] + i] += visc_ab
                for P in range(3):
                    for A in range(6):
                        for i in range(2):
                            B[pdofs[P], 2 * vdofs[A] + i] += w * pv[P] * sum(
                                a[k, i] * grads[A, k] for k in range(2)
                            )
        return M, M / dt + visc * K, B

    def solid_mass(self):
        ss = self.problem.sspace
        n = ss.ndof
        M = np.zeros((n, n))
        for cl, cell in enumerate(ss.cells):
            _, _, Jinv, detJ = self._cell_geom(cell)
            dofs = ss.cell_dofs[cl]
            for (xi, eta_r), wt in zip(TRI_PTS, TRI_WTS):
                w = wt * detJ
                vals = p2_vals(xi, eta_r)
                for A in range(6):
                    for Bb in range(6):
                        for i in range(2):
                            M[2 * dofs[A] + i, 2 * dofs[Bb] + i] += w * vals[A] * vals[Bb]
        return M

    def internal_force(self, w):
        ss = self.problem.sspace
        R = np.zeros(ss.ndof)
        for cl, cell in enumerate(ss.cells):
            _, _, Jinv, detJ = self._cell_geom(cell)
            dofs = ss.cell_dofs[cl]
            for (xi, eta_r), wt in zip(TRI_PTS, TRI_WTS):
                wq = wt * detJ
                grads = p2_grads(xi, eta_r) @ Jinv
                F = self._grad_field(ss, w, cl, xi, eta_r) + np.eye(2)
                P = oracle_pk1(F, self.lam, self.mu, self.kind)
                for A in range(6):
                    for i in range(2):
                        R[2 * dofs[A] + i] += wq * sum(P[i, b] * grads[A, b] for b in range(2))
        return R

    def stiffness(self, w):
        ss = self.problem.sspace
        n = ss.ndof
        K = np.zeros((n, n))
        for cl, cell in enumerate(ss.cells):
            _, _, Jinv, detJ = self._cell_geom(cell)
            dofs = ss.cell_dofs[cl]
            for (xi, eta_r), wt in zip(TRI_PTS, TRI_WTS):
                wq = wt * detJ
                grads = p2_grads(xi, eta_r) @ Jinv
                F = self._grad_field(ss, w, cl, xi, eta_r) + np.eye(2)
                D2 = oracle_d2w(F, self.lam, self.mu, self.kind)
                for A in range(6):
                    for Bb in range(6):
                        for i in range(2):
                            for j in range(2):
                                K[2 * dofs[A] + i, 2 * dofs[Bb] + j] += wq * sum(
                                    D2[i, a, j, b] * grads[A, a] * grads[Bb, b]
                                    for a in range(2) for b in range(2)
                                )
        return K

    def interface_matrices(self):
        """Dense trace mass and its couplings into fluid/solid dofs."""
        iface = self.problem.interface
        mesh = self.mesh
        ntr, nlam = iface.ntr, iface.nlam
        Mg = np.zeros((nlam, nlam))
        Cf = np.zeros((self.problem.vspace.ndof, nlam))
        Cs = np.zeros((self.problem.sspace.ndof, nlam))
        for k, fi in enumerate(iface.facets):
            pts = mesh.vertices[mesh.facets[fi]]
            length = np.linalg.norm(pts[1] - pts[0])
            tdofs = iface.facet_trace[k]
            for s, wt in zip(EDGE_PTS, EDGE_WTS):
                w = wt * length
                vals = np.array([(1 - s) * (1 - 2 * s), s * (2 * s - 1), 4 * s * (1 - s)])
                for A in range(3):
                    for Bb in range(3):
                        for i in range(2):
                            Mg[2 * tdofs[A] + i, 2 * tdofs[Bb] + i] += w * vals[A] * vals[Bb]
        for r in range(ntr):
            for i in range(2):
                Cf[2 * iface.trace_to_fluid[r] + i] = Mg[2 * r + i]
                Cs[2 * iface.trace_to_solid[r] + i] = Mg[2 * r + i]
        return Mg, Cf, Cs

    # -- one step ----------------------------------------------------------------

    def step(self, state, cfg, beta=0.25, gam_n=0.5, tol=1e-13, maxit=30):
        problem = self.problem
        vs, ps, ss = problem.vspace, problem.pspace, problem.sspace
        free = problem.free_fluid
        dt = cfg.dt
        Mf, A_full, B_full = self.fluid_matrices(eta(state.kin), dt, cfg.viscosity)
        A = A_full[np.ix_(free, free)]
        B = B_full[:, free]
        Ms = self.solid_mass()
        Mg, Cf_full, Cs = self.interface_matrices()
        Cf = Cf_full[free]

        rhs_v = (Mf @ state.v)[free] / dt
        pred_w = state.w + dt * state.wt + dt * dt * (0.5 - beta) * state.wtt
        pred_wt = state.wt + dt * (1 - gam_n) * state.wtt
        c_tt = 1.0 / (beta * dt * dt)
        c_t = gam_n / (beta * dt)

        nf, nq, nw, nl = free.sum(), ps.nscalar, ss.ndof, Mg.shape[0]
        vf = state.v[free].copy()
        q = state.q.copy()
        w = state.w.copy()
        lam = state.lam.copy()
        for it in range(maxit):
            wt = pred_wt + c_t * (w - pred_w)
            wtt = c_tt * (w - pred_w)
            v_full = np.zeros(vs.ndof)
            v_full[free] = vf
            Rv = A @ vf - B.T @ q + Cf @ lam - rhs_v
            Rq = B @ vf
            Rw = Ms @ (wtt + w) + self.internal_force(w) - Cs @ lam
            Rl = Cf_full.T @ v_full - Cs.T @ wt - cfg.gamma * (Mg @ lam)
            R = np.concatenate([Rv, Rq, Rw, Rl])
            if np.linalg.norm(R) <= tol:
                break
            Aww = (c_tt + 1.0) * Ms + self.stiffness(w)
            J = np.zeros((nf + nq + nw + nl, nf + nq + nw + nl))
            J[:nf, :nf] = A
            J[:nf, nf:nf + nq] = -B.T
            J[:nf, nf + nq + nw:] = Cf
            J[nf:nf + nq, :nf] = B
            J[nf + nq:nf + nq + nw, nf + nq:nf + nq + nw] = Aww
            J[nf + nq:nf + nq + nw, nf + nq + nw:] = -Cs
            J[nf + nq + nw:, :nf] = Cf.T
            J[nf + nq + nw:, nf + nq:nf + nq + nw] = -c_t * Cs.T
            J[nf + nq + nw:, nf + nq + nw:] = -cfg.gamma * Mg
            du = np.linalg.solve(J, -R)
            vf = vf + du[:nf]
            q = q + du[nf:nf + nq]
            w = w + du[nf + nq:nf + nq + nw]
            lam = lam + du[nf + nq + nw:]
        v_full = np.zeros(vs.ndof)
        v_full[free] = vf
        wt = pred_wt + c_t * (w - pred_w)
        wtt = c_tt * (w - pred_w)
        return v_full, q, w, wt, wtt, lam
