"""Boundary-damped fluid-structure interaction on a fixed reference domain.

An incompressible fluid annulus, pulled back to its initial configuration
through the flow map, is coupled to an enclosed nonlinear elastic body
through damped velocity matching and stress matching on the interface.
The package provides the monolithic solver together with a diagnostics
suite that checks the discrete energy balances, the integration-by-parts
multiplier identities and the exponential decay of the total energy.
"""

from .config import RunConfig, parse_config
from .coupling import CoupledProblem, coupled_step, run_simulation
from .diagnostics import fit_decay_rate
from .kernels import BACKEND as kernel_backend
from .material import MaterialModel, make_material
from .mesh import ReferenceMesh, build_annular_mesh, star_shape_margin

__all__ = [
    "RunConfig", "parse_config",
    "CoupledProblem", "coupled_step", "run_simulation",
    "fit_decay_rate", "MaterialModel", "make_material",
    "ReferenceMesh", "build_annular_mesh", "star_shape_margin",
    "kernel_backend",
]

__version__ = "0.1.0"
