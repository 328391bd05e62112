"""Command-line driver: runs, sweeps, refinement studies and check suites.

Exit codes: 0 success, 1 configuration error, 2 solver failure,
3 mesh degeneration, 4 I/O error.
"""

import argparse
import logging
import sys

import numpy as np

from . import diagnostics, mesh as meshmod
from .config import parse_config
from .coupling import run_simulation
from .diagnostics import fit_decay_rate, multiplier_identity_residual
from .errors import (
    ConfigError, FitDomainError, MeshDegenerationError, PreconditionError, SolverError,
)
from .manufactured import constant_displacement, sin_quadratic_displacement

log = logging.getLogger("lagfsi")

EXIT_CONFIG, EXIT_SOLVER, EXIT_DEGENERATION, EXIT_IO = 1, 2, 3, 4


def _load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def cmd_mesh_info(cfg, args):
    mesh = cfg.make_mesh()
    nf = int((mesh.region == meshmod.FLUID).sum())
    ns = int((mesh.region == meshmod.SOLID).sum())
    margin = meshmod.star_shape_margin(mesh, np.zeros(mesh.dimension))
    print(f"dimension            {mesh.dimension}")
    print(f"vertices             {len(mesh.vertices)}")
    print(f"cells                {len(mesh.cells)} (fluid {nf}, solid {ns})")
    print(f"interface facets     {len(mesh.facet_indices(meshmod.INTERFACE))}")
    print(f"outer facets         {len(mesh.facet_indices(meshmod.OUTER))}")
    print(f"solid volume         {mesh.region_volume(meshmod.SOLID)!r}")
    print(f"fluid volume         {mesh.region_volume(meshmod.FLUID)!r}")
    print(f"star_shape_margin    {margin!r}")
    return 0


def cmd_check_material(cfg, args):
    model = cfg.make_material()
    h1 = model.h1_residual(cfg.dimension)
    margin = model.ellipticity_margin(dim=cfg.dimension, nsamples=10000,
                                      rng=np.random.default_rng(cfg.seed))
    errs = model.derivative_chain_errors(dim=cfg.dimension)
    print(f"material             {model.kind} (lambda={model.lam}, mu={model.mu})")
    print(f"H1 residual |DW(I)|  {h1:.3e}")
    print(f"H2 sampled margin    {margin!r} (mu = {model.mu})")
    for k, e in enumerate(errs, start=1):
        print(f"chain order {k}        max rel err {e:.3e}")
    ok = h1 <= 1e-12 and margin >= model.mu - 1e-9 and max(errs) <= 1e-6
    print("PASS" if ok else "FAIL")
    return 0 if ok else EXIT_SOLVER


def cmd_check_identities(cfg, args):
    mesh = cfg.make_mesh()
    model = cfg.make_material()
    d = mesh.dimension
    H = diagnostics.RadialMultiplier(np.zeros(d))
    xi = diagnostics.ScalarField(
        lambda x: 1.0 + x[..., 0] + x[..., 1] ** 2,
        lambda x: np.stack(
            [np.ones(x.shape[:-1]), 2 * x[..., 1]]
            + [np.zeros(x.shape[:-1])] * (d - 2), axis=-1),
    )
    rho = d - 0.5
    interval = (0.0, 1.0)
    ok = True
    const = constant_displacement([0.3] + [0.1] * (d - 1))
    r36, r37 = multiplier_identity_residual(mesh, model, const, H, rho, xi, interval)
    print(f"constant field                    res36 {r36:+.3e}  res37 {r37:+.3e}")
    ok &= max(abs(r36), abs(r37)) <= 1e-10
    poly = sin_quadratic_displacement(d, scale=0.2)
    last = None
    for deg in (1, 2, 3, 5):
        r36, r37 = multiplier_identity_residual(
            mesh, model, poly, H, rho, xi, interval, quad_degree=deg)
        print(f"polynomial field (quad degree {deg})  res36 {r36:+.3e}  res37 {r37:+.3e}")
        last = max(abs(r36), abs(r37))
    ok &= last <= 1e-8
    print("PASS" if ok else "FAIL")
    return 0 if ok else EXIT_SOLVER


def _fit_csv(path, column, window):
    import csv as csvmod

    with open(path) as fh:
        reader = csvmod.reader(fh)
        header = next(reader, [])
        for name in ("t", column):
            if name not in header:
                raise ConfigError(f"column {name!r} not in {path}")
        ti = header.index("t")
        ci = header.index(column)
        try:
            series = [(float(row[ti]), float(row[ci])) for row in reader]
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{path} line {reader.line_num}: {exc}") from exc
    return fit_decay_rate(series, window=window)


def _parse_window(text):
    """(start, end) from the --window text 'start,end'."""
    try:
        a, b = text.split(",")
        return float(a), float(b)
    except ValueError as exc:
        raise ConfigError(f"--window {text!r}: expected two numbers start,end") from exc


def cmd_fit_decay(args):
    window = _parse_window(args.window) if args.window else None
    C, sigma, r2 = _fit_csv(args.csv, args.column, window)
    print(f"amplitude C = {C!r}")
    print(f"rate sigma  = {sigma!r}")
    print(f"R^2         = {r2!r}")
    return 0


def _single_run(cfg, args):
    """The reports of one run of `cfg` with the command-line flags applied;
    a run that ends echoes `cfg` next to its CSV, where it reruns that run."""
    run_cfg = cfg.coupling_config(allow_large=args.allow_large, dump_systems=args.dump_systems)
    reports, _ = run_simulation(run_cfg, cfg.make_initial_data(), cfg.make_material(),
                                cfg.make_mesh())
    with open(cfg.output_csv + ".config", "w") as fh:
        fh.write(cfg.echo())
    return reports


def _decay_fits(cfg, reports):
    """sigma and R^2 of the decay fits of X and of V0e over the second half
    of the run."""
    out = []
    for col in ("X", "V0e"):
        series = [(r.t, getattr(r, col)) for r in reports]
        try:
            _, sigma, r2 = fit_decay_rate(series, window=(cfg.t_end / 2, cfg.t_end))
        except FitDomainError:
            vals = [x for _, x in series if not np.isnan(x)]
            # a series whose numbers are all 0 reads 0; any other, all-NaN included, NaN
            sigma = r2 = 0.0 if vals and not any(vals) else float("nan")
        out += [sigma, r2]
    return out


def _identity_residuals(cfg, reports):
    """|res_j0| and |res_j1| over the identity window."""
    window = (cfg.identity_window_start, cfg.t_end)
    return [abs(diagnostics.energy_identity_residual(reports, cfg.gamma, j, window))
            for j in (0, 1)]


# study kind -> (swept setting, summary name, summary header, the summary
# values of one run)
_STUDIES = {
    "gamma-sweep": ("gamma", "sweep", "gamma sigma_X R2_X sigma_V0e R2_V0e", _decay_fits),
    "dt-study": ("dt", "dtstudy", "dt res_j0 res_j1 order_j0 order_j1", _identity_residuals),
}


def cmd_run(cfg, args):
    kind = cfg.experiment_kind
    if kind == "single":
        reports = _single_run(cfg, args)
        print(f"wrote {cfg.output_csv} ({len(reports)} reports)")
        return 0
    if kind not in _STUDIES:
        raise ConfigError(f"unhandled experiment kind {kind!r}")
    key, name, header, summarize = _STUDIES[kind]
    base = cfg.output_base()
    rows = []
    for x in getattr(cfg, f"sweep_{key}"):
        # each study run is a single run of its own config, echoed as such
        run = cfg.coupling_config(experiment_kind="single", output_csv=f"{base}_{key}{x:g}.csv",
                                  **{key: x})
        row = [x, *summarize(run, _single_run(run, args))]
        if kind == "dt-study":
            # observed orders of res_j0 and res_j1 from the previous dt
            prev = rows[-1] if rows else None
            row += [float(np.log(prev[i] / row[i]) / np.log(prev[0] / x)) if prev
                    else float("nan") for i in (1, 2)]
        rows.append(row)
    with open(f"{base}_{name}_summary.txt", "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    for row in rows:
        print(" ".join(f"{label}={float(v):.4g}" for label, v in zip(header.split(), row)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lagfsi",
        description="boundary-damped fluid-structure interaction on a fixed "
                    "reference domain",
    )
    parser.add_argument("--dump-systems", action="store_true",
                        help="write each assembled linear system in coordinate text format")
    parser.add_argument("--allow-large", action="store_true",
                        help="skip the initial-data smallness screen")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "mesh-info", "check-material", "check-identities"):
        p = sub.add_parser(name)
        p.add_argument("config")
    p = sub.add_parser("fit-decay")
    p.add_argument("csv")
    p.add_argument("--column", default="X")
    p.add_argument("--window", default="")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)

    try:
        if args.command == "fit-decay":
            return cmd_fit_decay(args)
        cfg = _load_config(args.config)
        if args.command == "run":
            return cmd_run(cfg, args)
        if args.command == "mesh-info":
            return cmd_mesh_info(cfg, args)
        if args.command == "check-material":
            return cmd_check_material(cfg, args)
        if args.command == "check-identities":
            return cmd_check_identities(cfg, args)
    except (ConfigError, PreconditionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MeshDegenerationError as exc:
        print(f"mesh degeneration: {exc}", file=sys.stderr)
        return EXIT_DEGENERATION
    except (SolverError, FitDomainError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return 0


if __name__ == "__main__":
    sys.exit(main())
