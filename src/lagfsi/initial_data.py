"""Initial-data modes for the coupled runs.

Both modes vanish (with the relevant traces) where the transmission and
no-slip conditions would otherwise demand nontrivial compatibility data:

* 'radial': smooth radial displacement bump in the solid whose gradient
  vanishes on the interface; fluid starts at rest.
* 'swirl': divergence-free stream-function velocity in the fluid annulus
  vanishing on both the outer boundary and the interface; solid at rest.
"""

import numpy as np

from .errors import ConfigError

INIT_MODES = ("radial", "swirl")


class InitialData:
    def __init__(self, mode, amplitude, inner_radius, outer_radius):
        if mode not in INIT_MODES:
            raise ConfigError(f"unknown init mode {mode!r}")
        self.mode = mode
        self.amplitude = float(amplitude)
        self.ri = float(inner_radius)
        self.ro = float(outer_radius)

    def displacement(self, x):
        if self.mode != "radial":
            return np.zeros_like(np.asarray(x, dtype=float))
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x * x, axis=-1)
        bump = (1.0 - r2 / self.ri**2) ** 2
        return self.amplitude * bump[..., None] * x

    def velocity_raw(self, x):
        if self.mode != "swirl":
            return np.zeros_like(np.asarray(x, dtype=float))
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x * x, axis=-1)
        a2, b2 = self.ri**2, self.ro**2
        # stream bump s(r^2) with double zeros at both radii
        ds = 2 * (r2 - a2) * (b2 - r2) ** 2 - 2 * (r2 - a2) ** 2 * (b2 - r2)
        out = np.zeros_like(x)
        out[..., 0] = 2 * ds * x[..., 1]
        out[..., 1] = -2 * ds * x[..., 0]
        return out

    def build(self, problem):
        """Interpolated (v0, w0, w1) dof arrays, amplitude-normalized."""
        vs, ss = problem.vspace, problem.sspace
        w0 = ss.interpolate(lambda x: self.displacement(x[None])[0])
        w1 = ss.zeros()
        v0 = vs.interpolate(lambda x: self.velocity_raw(x[None])[0])
        if self.mode == "swirl":
            mags = np.linalg.norm(v0.reshape(-1, vs.ncomp), axis=1)
            peak = mags.max()
            if peak > 0:
                v0 *= self.amplitude / peak
        return v0, w0, w1
