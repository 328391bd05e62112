"""Flat key=value run configuration: fully validated, fail-closed.

Unknown keys, type mismatches and range violations raise ConfigError naming
the key and line.  The echo of a parsed config lists every key with its
effective value, so a run is reproducible from its echoed config alone.
"""

import math
from dataclasses import dataclass, field, replace

from . import initial_data, material
from .errors import ConfigError, PreconditionError

_EXPERIMENTS = ("single", "gamma-sweep", "dt-study")


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _float_list(text):
    return [_finite(tok) for tok in text.split(",") if tok.strip()]


# key -> (attribute, parser, validator, description); defaults live in RunConfig
_KEYS = {
    "dimension": ("dimension", int, lambda v: v in (2, 3), "2 or 3"),
    "inner_radius": ("inner_radius", _finite, lambda v: v > 0, "> 0"),
    "outer_radius": ("outer_radius", _finite, lambda v: v > 0, "> 0"),
    "resolution": ("resolution", int, lambda v: v >= 4, ">= 4"),
    "material.kind": ("material_kind", str,
                      lambda v: v in material.KINDS, f"one of {tuple(material.KINDS)}"),
    "material.lambda": ("material_lambda", _finite, lambda v: v >= 0, ">= 0"),
    "material.mu": ("material_mu", _finite, lambda v: v > 0, "> 0"),
    "gamma": ("gamma", _finite, lambda v: v >= 0, ">= 0"),
    "dt": ("dt", _finite, lambda v: v > 0, "> 0"),
    "t_end": ("t_end", _finite, lambda v: v >= 0, ">= 0"),
    "viscosity": ("viscosity", _finite, lambda v: v > 0, "> 0"),
    "epsilon1": ("epsilon1", _finite, lambda v: v > 0, "> 0"),
    "epsilon0": ("epsilon0", _finite, lambda v: v > 0, "> 0"),
    "init.amplitude": ("init_amplitude", _finite, lambda v: v >= 0, ">= 0"),
    "init.mode": ("init_mode", str, lambda v: v in initial_data.INIT_MODES,
                  f"one of {initial_data.INIT_MODES}"),
    "newton.tol": ("newton_tol", _finite, lambda v: v > 0, "> 0"),
    "newton.maxit": ("newton_maxit", int, lambda v: v >= 1, ">= 1"),
    "identity.window_start": ("identity_window_start", _finite, lambda v: v >= 0, ">= 0"),
    "output.csv": ("output_csv", str, None, "path"),
    "output.vtk_every": ("output_vtk_every", int, lambda v: v >= 0, ">= 0"),
    "experiment.kind": ("experiment_kind", str,
                        lambda v: v in _EXPERIMENTS, f"one of {_EXPERIMENTS}"),
    "sweep.gamma": ("sweep_gamma", _float_list,
                    lambda v: all(g >= 0 for g in v), "nonnegative list"),
    "sweep.dt": ("sweep_dt", _float_list,
                 lambda v: all(x > 0 for x in v), "positive list"),
    "seed": ("seed", int, lambda v: v >= 0, ">= 0"),
}


@dataclass
class RunConfig:
    """Every setting of a run and of its coupled time stepper."""

    dimension: int = 2
    inner_radius: float = 0.4
    outer_radius: float = 1.0
    resolution: int = 8
    material_kind: str = "saint-venant-kirchhoff"
    material_lambda: float = 1.0
    material_mu: float = 1.0
    gamma: float = 1.0
    dt: float = 1e-3
    t_end: float = 2.0
    viscosity: float = 1.0
    epsilon1: float = 0.1
    epsilon0: float = 1e-2
    init_amplitude: float = 1e-3
    init_mode: str = "radial"
    newton_tol: float = 1e-10
    newton_maxit: int = 25
    identity_window_start: float = 0.1
    output_csv: str = ""  # no CSV unless set; `lagfsi run` defaults it to run.csv
    output_vtk_every: int = 0
    experiment_kind: str = "single"
    sweep_gamma: list = field(default_factory=lambda: [0.0, 0.5, 1.0, 2.0])
    sweep_dt: list = field(default_factory=lambda: [1e-2, 5e-3, 2.5e-3])
    seed: int = 0
    # set by command-line flags and library callers; no config key
    allow_large: bool = False  # skip the smallness screen on the initial data
    vtk_prefix: str = "state"
    dump_systems: bool = False
    dump_prefix: str = "system"

    def __post_init__(self):
        if self.gamma < 0:
            raise PreconditionError("gamma must be nonnegative")
        if self.dt <= 0:
            raise PreconditionError("dt must be positive")
        if self.epsilon1 <= 0:
            raise PreconditionError("epsilon1 must be positive")

    def echo(self):
        lines = []
        for key, (attr, parser, _, _) in sorted(_KEYS.items()):
            val = getattr(self, attr)
            if parser is _float_list:
                val = ",".join(repr(x) for x in val)
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"

    # -- factories --------------------------------------------------------------

    def make_mesh(self):
        from .mesh import build_annular_mesh

        return build_annular_mesh(
            self.dimension, self.inner_radius, self.outer_radius, self.resolution
        )

    def make_material(self):
        return material.make_material(self.material_kind, self.material_lambda, self.material_mu)

    def make_initial_data(self):
        return initial_data.InitialData(
            self.init_mode, self.init_amplitude, self.inner_radius, self.outer_radius
        )

    def coupling_config(self, **overrides):
        """A copy of this config with `overrides`, validated again."""
        return replace(self, **overrides)


def parse_config(text):
    """Parse flat key=value text ('#' comments) into a validated RunConfig."""
    cfg = RunConfig(output_csv="run.csv")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, parser, validator, doc = _KEYS[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from exc
        if validator is not None and not validator(parsed):
            raise ConfigError(
                f"line {lineno}: key {key!r} = {parsed!r} violates range ({doc})"
            )
        setattr(cfg, attr, parsed)
    if cfg.inner_radius >= cfg.outer_radius:
        raise ConfigError("inner_radius must be smaller than outer_radius")
    return cfg
