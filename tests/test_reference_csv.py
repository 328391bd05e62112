"""Every CSV row of two short runs against a recorded reference.

`data/reference_r4_gamma{0,1}.csv` hold the rows of 2-D res 4 runs of 20
steps (dt = 5e-3, t_end = 0.1, every other setting at its default) at
gamma = 0 and gamma = 1, written by the code of commit 3e8dafc, before the
report and the kinematics moved to component-major pointwise algebra.  A
change of summation order may move each column by round-off only:

* energy and dissipation columns: 1e-10 of the column's maximum;
* the balance residuals res_j*: 1e-10 of the level-j energy V_j they are
  the cancellation of;
* iface_vel and iface_stress: 1e-10 of sqrt(2 V0), the velocity scale (at
  gamma = 0 iface_vel is round-off of an exact zero);
* min_ellip, dist_aaT and det_min: 1e-14 absolute (they are distances of
  order 1e-6 from the identity, read off O(1) entries);
* t and the NaN pattern exactly.
"""

from pathlib import Path

import numpy as np
import pytest

from lagfsi.config import RunConfig
from lagfsi.coupling import run_simulation
from lagfsi.diagnostics import CSV_COLUMNS, LEVEL_ENERGIES, RESIDUAL_COLUMNS

DATA = Path(__file__).parent / "data"
ENERGY_COLUMNS = ("V0e", "V0", "V1e", "V1", "V2e", "V2", "V3e", "V3",
                  "D0", "D1", "D2", "D3", "Q", "Ee", "L", "X")
KINEMATIC_COLUMNS = ("min_ellip", "dist_aaT", "det_min")


def _bounds(ref):
    """Absolute bound of each column, from the reference rows."""
    top = lambda col: np.nanmax(np.abs(ref[col]))
    bounds = {"t": 0.0}
    bounds.update({col: 1e-10 * top(col) for col in ENERGY_COLUMNS})
    bounds.update({res: 1e-10 * top(V) for res, V in zip(RESIDUAL_COLUMNS, LEVEL_ENERGIES)})
    bounds.update({col: 1e-10 * np.sqrt(2 * top("V0")) for col in ("iface_vel", "iface_stress")})
    bounds.update({col: 1e-14 for col in KINEMATIC_COLUMNS})
    assert sorted(bounds) == sorted(CSV_COLUMNS)
    return bounds


@pytest.mark.parametrize("gamma", [0, 1])
def test_rows_match_reference(gamma):
    ref = np.genfromtxt(DATA / f"reference_r4_gamma{gamma}.csv", delimiter=",", names=True)
    cfg = RunConfig(resolution=4, dt=5e-3, t_end=0.1, gamma=float(gamma))
    reports, _ = run_simulation(cfg, cfg.make_initial_data(), cfg.make_material(),
                                cfg.make_mesh())
    rows = np.array([rep.row() for rep in reports], dtype=float)
    assert rows.shape == (len(ref), len(CSV_COLUMNS))
    for col, bound in _bounds(ref).items():
        got, want = rows[:, CSV_COLUMNS.index(col)], ref[col]
        assert np.array_equal(np.isnan(got), np.isnan(want)), col
        err = np.nanmax(np.abs(got - want), initial=0.0)
        assert err <= bound, (col, err, bound)
