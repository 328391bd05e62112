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


def _echo_config(cfg, out_path):
    with open(out_path + ".config", "w") as fh:
        fh.write(cfg.echo())


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


def _single_run(cfg, args, **overrides):
    """The reports of one run of `cfg` with the command-line flags and
    `overrides` applied."""
    mesh = cfg.make_mesh()
    model = cfg.make_material()
    init = cfg.make_initial_data()
    run_cfg = cfg.coupling_config(allow_large=args.allow_large,
                                  dump_systems=args.dump_systems, **overrides)
    reports, _ = run_simulation(run_cfg, init, model, mesh)
    return reports


def cmd_run(cfg, args):
    kind = cfg.experiment_kind
    if kind == "single":
        reports = _single_run(cfg, args)
        _echo_config(cfg, cfg.output_csv)
        print(f"wrote {cfg.output_csv} ({len(reports)} reports)")
        return 0
    if kind == "gamma-sweep":
        base = cfg.output_csv.rsplit(".csv", 1)[0]
        rows = []
        for g in cfg.sweep_gamma:
            path = f"{base}_gamma{g:g}.csv"
            reports = _single_run(cfg, args, gamma=g, output_csv=path)
            _echo_config(cfg, path)
            row = {"gamma": g}
            for col in ("X", "V0e"):
                series = [(r.t, getattr(r, col)) for r in reports]
                try:
                    _, sigma, r2 = fit_decay_rate(series, window=(cfg.t_end / 2, cfg.t_end))
                    row[col] = (sigma, r2)
                except FitDomainError:
                    vals = np.array([x for _, x in series], dtype=float)
                    if np.nanmax(np.abs(vals), initial=0.0) == 0.0:
                        row[col] = (0.0, 0.0)  # identically zero trajectory
                    else:
                        row[col] = (float("nan"), float("nan"))
            rows.append(row)
        with open(base + "_sweep_summary.txt", "w") as fh:
            fh.write("gamma sigma_X R2_X sigma_V0e R2_V0e\n")
            for row in rows:
                fh.write(
                    f"{row['gamma']!r} {row['X'][0]!r} {row['X'][1]!r} "
                    f"{row['V0e'][0]!r} {row['V0e'][1]!r}\n")
        for row in rows:
            print(f"gamma={row['gamma']:g}: sigma_X={row['X'][0]:.4g} "
                  f"(R2 {row['X'][1]:.3f}), sigma_V0e={row['V0e'][0]:.4g}")
        return 0
    if kind == "dt-study":
        base = cfg.output_csv.rsplit(".csv", 1)[0]
        res = []
        for dt in cfg.sweep_dt:
            path = f"{base}_dt{dt:g}.csv"
            reports = _single_run(cfg, args, dt=dt, output_csv=path)
            _echo_config(cfg, path)
            window = (cfg.identity_window_start, cfg.t_end)
            r0 = abs(diagnostics.energy_identity_residual(reports, cfg.gamma, 0, window))
            r1 = abs(diagnostics.energy_identity_residual(reports, cfg.gamma, 1, window))
            res.append((dt, r0, r1))
        with open(base + "_dtstudy_summary.txt", "w") as fh:
            fh.write("dt res_j0 res_j1 order_j0 order_j1\n")
            for i, (dt, r0, r1) in enumerate(res):
                if i == 0:
                    o0 = o1 = float("nan")
                else:
                    pdt, pr0, pr1 = res[i - 1]
                    o0 = float(np.log(pr0 / r0) / np.log(pdt / dt))
                    o1 = float(np.log(pr1 / r1) / np.log(pdt / dt))
                fh.write(f"{dt!r} {r0!r} {r1!r} {o0!r} {o1!r}\n")
                print(f"dt={dt:g}: res_j0={r0:.4e} res_j1={r1:.4e} "
                      f"order_j0={o0:.3f} order_j1={o1:.3f}")
        return 0
    raise ConfigError(f"unhandled experiment kind {kind!r}")


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
