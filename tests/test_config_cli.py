"""Config parsing (fail-closed), CLI exit codes and reproducibility."""

import numpy as np
import pytest

from lagfsi import cli, coupling, initial_data, material
from lagfsi.config import RunConfig, parse_config
from lagfsi.errors import ConfigError, MeshDegenerationError, PreconditionError, SolverError


def test_defaults():
    cfg = parse_config("")
    assert cfg.dimension == 2
    assert (cfg.inner_radius, cfg.outer_radius) == (0.4, 1.0)
    assert cfg.material_kind == "saint-venant-kirchhoff"
    assert cfg.material_lambda == 1.0 and cfg.material_mu == 1.0
    assert cfg.gamma == 1.0
    assert cfg.dt == 1e-3
    assert cfg.t_end == 2.0


@pytest.mark.parametrize("make", [
    lambda: RunConfig(gamma=-1),
    lambda: RunConfig(dt=0),
    lambda: RunConfig(epsilon1=0),
    lambda: RunConfig().coupling_config(dt=0),
], ids=["gamma", "dt", "epsilon1", "coupling_config-dt"])
def test_run_config_preconditions(make):
    with pytest.raises(PreconditionError):
        make()


def test_range_violation_names_key():
    with pytest.raises(ConfigError, match="gamma"):
        parse_config("gamma = -1")


def test_overrides():
    cfg = parse_config("dimension = 3\nresolution = 6")
    assert cfg.dimension == 3
    assert cfg.resolution == 6
    assert cfg.dt == 1e-3  # untouched default


def test_unknown_key_rejected():
    # include_convection and coupling.tol were removed: both are unknown now
    for key in ("not_a_key", "include_convection", "coupling.tol"):
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} = 1")


def test_type_mismatch():
    with pytest.raises(ConfigError, match="dt"):
        parse_config("dt = fast")


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\ngamma = 0.5  # trailing\n")
    assert cfg.gamma == 0.5


def test_kinds_and_modes_are_read_from_their_modules(monkeypatch):
    # the config keeps no copy of either list: what the material and the
    # initial-data modules accept is what a config file may name
    monkeypatch.setattr(material, "KINDS", {**material.KINDS, "rubber": 0})
    monkeypatch.setattr(initial_data, "INIT_MODES", initial_data.INIT_MODES + ("vortex",))
    cfg = parse_config("material.kind = rubber\ninit.mode = vortex")
    assert (cfg.material_kind, cfg.init_mode) == ("rubber", "vortex")


def test_unknown_init_mode_is_a_config_error():
    # as an unknown material kind is, also for a library caller
    with pytest.raises(ConfigError, match="init mode"):
        RunConfig(init_mode="x").make_initial_data()
    with pytest.raises(ConfigError, match="material kind"):
        RunConfig(material_kind="x").make_material()


def test_radius_cross_validation():
    with pytest.raises(ConfigError):
        parse_config("inner_radius = 1.5")


def test_echo_is_reparsable():
    cfg = parse_config("gamma = 0.25\nsweep.gamma = 0,1")
    cfg2 = parse_config(cfg.echo())
    assert cfg2.gamma == 0.25
    assert cfg2.sweep_gamma == [0.0, 1.0]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_unknown_key_exit_code(tmp_path):
    path = _write(tmp_path, "bad.cfg", "mystery = 1\n")
    assert cli.main(["run", path]) == 1


def test_cli_run_rejects_check_kinds(tmp_path, capsys):
    # the checks run as the check-material and check-identities subcommands only
    for kind in ("identity-suite", "material-check"):
        path = _write(tmp_path, "k.cfg", f"experiment.kind = {kind}\n")
        assert cli.main(["run", path]) == 1
        assert "experiment.kind" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "t_end = inf", "dt = inf", "gamma = inf", "viscosity = inf", "material.lambda = inf",
])
def test_cli_run_rejects_non_finite(tmp_path, capsys, line):
    # a non-finite float is a configuration error naming its key, not a
    # solver failure, a traceback or a run of one report
    path = _write(tmp_path, "inf.cfg", f"resolution = 4\n{line}\n"
                  f"output.csv = {tmp_path / 'inf.csv'}\n")
    assert cli.main(["run", path]) == 1
    assert line.split(" =")[0] in capsys.readouterr().err
    assert not (tmp_path / "inf.csv").exists()


def test_cli_missing_config(tmp_path):
    assert cli.main(["run", str(tmp_path / "none.cfg")]) == 1


def test_cli_mesh_info(tmp_path, capsys):
    path = _write(tmp_path, "m.cfg", "resolution = 5\n")
    assert cli.main(["mesh-info", path]) == 0
    out = capsys.readouterr().out
    assert "star_shape_margin" in out


def test_cli_check_material(tmp_path, capsys):
    path = _write(tmp_path, "m.cfg", "")
    assert cli.main(["check-material", path]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_run_and_reproducibility(tmp_path):
    text = (
        "resolution = 5\ndt = 0.01\nt_end = 0.05\n"
        "output.csv = {}\nseed = 7\n"
    )
    p1 = _write(tmp_path, "a.cfg", text.format(tmp_path / "a.csv"))
    p2 = _write(tmp_path, "b.cfg", text.format(tmp_path / "b.csv"))
    assert cli.main(["run", p1]) == 0
    assert cli.main(["run", p2]) == 0
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    assert (tmp_path / "a.csv.config").exists()


def test_cli_fit_decay(tmp_path, capsys):
    csv = tmp_path / "x.csv"
    t = np.linspace(0, 5, 60)
    lines = ["t,X"] + [f"{float(ti)!r},{float(np.exp(-2 * ti))!r}" for ti in t]
    csv.write_text("\n".join(lines) + "\n")
    assert cli.main(["fit-decay", str(csv), "--column", "X", "--window", "1,5"]) == 0
    out = capsys.readouterr().out
    assert "rate sigma" in out
    sigma = float(out.splitlines()[1].split("=")[1])
    assert sigma == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("text,window,bad", [
    ("t,X\n0.0,1.0\n", "0.5", "--window '0.5'"),
    ("t,X\n0.0,1.0\n", "a,b", "--window 'a,b'"),
    ("time,X\n0.0,1.0\n", "", "column 't'"),
    ("t,X\n0.0,1.0\n0.1,abc\n", "", "line 3"),
], ids=["window-one-number", "window-not-numbers", "no-t-column", "non-numeric-cell"])
def test_cli_fit_decay_bad_input(tmp_path, capsys, text, window, bad):
    # bad input exits 1 with a configuration error naming it, no traceback
    csv = tmp_path / "x.csv"
    csv.write_text(text)
    assert cli.main(["fit-decay", str(csv), "--window", window]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and bad in err


def test_cli_gamma_sweep_zero_data(tmp_path, capsys):
    path = _write(
        tmp_path, "s.cfg",
        "resolution = 5\ndt = 0.01\nt_end = 0.05\ninit.amplitude = 0\n"
        "experiment.kind = gamma-sweep\nsweep.gamma = 0,1\n"
        f"output.csv = {tmp_path / 'sweep.csv'}\n",
    )
    assert cli.main(["run", path]) == 0
    summary = (tmp_path / "sweep_sweep_summary.txt").read_text().splitlines()
    assert len(summary) == 3
    for line in summary[1:]:
        vals = [float(tok) for tok in line.split()]
        assert all(v == 0.0 for v in vals[1:])


def _short_sweep(tmp_path, extra=""):
    """Run a 2-D res 4 gamma sweep over 0 and 1 of two steps of dt 1e-2 that
    writes out/run.csv in `tmp_path`, the working directory; return out/."""
    path = _write(tmp_path, "s.cfg",
                  "resolution = 4\ndt = 1e-2\nt_end = 0.02\nexperiment.kind = gamma-sweep\n"
                  f"sweep.gamma = 0,1\noutput.csv = out/run.csv\n{extra}")
    (tmp_path / "out").mkdir()
    assert cli.main(["run", path]) == 0
    return tmp_path / "out"


def test_cli_study_echo_reruns_its_run(tmp_path, monkeypatch):
    # each study run echoes its own config, which reruns it byte for byte
    monkeypatch.chdir(tmp_path)
    out = _short_sweep(tmp_path)
    for gamma in ("0", "1"):
        csv = out / f"run_gamma{gamma}.csv"
        echo = csv.with_name(csv.name + ".config")
        text = echo.read_text()
        assert f"gamma = {float(gamma)}" in text and "experiment.kind = single" in text
        assert f"output.csv = out/run_gamma{gamma}.csv" in text
        first = csv.read_bytes()
        csv.unlink()
        assert cli.main(["run", str(echo)]) == 0
        assert csv.read_bytes() == first


def test_cli_sweep_writes_each_runs_snapshots_next_to_its_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = _short_sweep(tmp_path, "output.vtk_every = 1\n")
    vtks = sorted(p.name for p in out.glob("*.vtk"))
    assert vtks == [f"run_gamma{g}_00000{n}.vtk" for g in (0, 1) for n in (1, 2)]
    assert len({(out / name).read_bytes() for name in vtks}) == 4
    assert not list(tmp_path.glob("*.vtk"))


def test_cli_short_sweep_reports_unfittable_series_as_nan(tmp_path, monkeypatch):
    # two steps: X is NaN on every report, V0e has too few samples; neither
    # is an identically zero series, so neither fit reads 0
    monkeypatch.chdir(tmp_path)
    out = _short_sweep(tmp_path)
    lines = (out / "run_sweep_summary.txt").read_text().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        assert all(np.isnan(float(tok)) for tok in line.split()[1:])


def test_cli_dt_study(tmp_path, capsys):
    path = _write(
        tmp_path, "d.cfg",
        "resolution = 5\nt_end = 0.4\nidentity.window_start = 0.05\n"
        "experiment.kind = dt-study\nsweep.dt = 0.02,0.01\n"
        f"output.csv = {tmp_path / 'study.csv'}\n",
    )
    assert cli.main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "order_j0" in out
    summary = (tmp_path / "study_dtstudy_summary.txt").read_text().splitlines()
    assert len(summary) == 3


@pytest.mark.parametrize("kind,setting,summary,header", [
    ("gamma-sweep", "sweep.gamma = 0,1", "sweep", "gamma sigma_X R2_X sigma_V0e R2_V0e"),
    ("dt-study", "sweep.dt = 0.02,0.01", "dtstudy", "dt res_j0 res_j1 order_j0 order_j1"),
])
def test_cli_study_summaries_hold_plain_numbers(tmp_path, kind, setting, summary, header):
    # every field of a summary parses as a float: no NumPy reprs
    path = _write(tmp_path, "s.cfg",
                  f"resolution = 4\nt_end = 0.2\nidentity.window_start = 0.05\n"
                  f"experiment.kind = {kind}\n{setting}\noutput.csv = {tmp_path / 'x.csv'}\n")
    assert cli.main(["run", path]) == 0
    lines = (tmp_path / f"x_{summary}_summary.txt").read_text().splitlines()
    assert lines[0] == header and len(lines) == 3
    for line in lines[1:]:
        fields = line.split()
        assert len(fields) == 5
        values = [float(tok) for tok in fields]
        assert all(np.isfinite(values[:3])), line


def _failing_run(tmp_path, csv):
    """The config file of a 2-D res 4 run of 100 steps that writes `csv`."""
    return _write(tmp_path, "f.cfg", f"resolution = 4\ndt = 1e-3\nt_end = 0.1\noutput.csv = {csv}\n")


def test_cli_unwritable_csv_exits_4_before_any_step(tmp_path, capsys, monkeypatch):
    steps = []
    monkeypatch.setattr(coupling, "coupled_step", lambda *a, **k: steps.append(a))
    path = _failing_run(tmp_path, tmp_path / "missing" / "run.csv")
    assert cli.main(["run", path]) == 4
    assert capsys.readouterr().err.startswith("I/O error:")
    assert steps == []
    assert not (tmp_path / "missing").exists()


def test_cli_solver_failure_exits_2_and_leaves_an_empty_csv(tmp_path, capsys, monkeypatch):
    # the step fails, and so does the first half of its dt/2 retry
    steps = []

    def failing_step(state, cfg, step_index=0):
        steps.append(step_index)
        raise SolverError("injected failure")

    monkeypatch.setattr(coupling, "coupled_step", failing_step)
    csv = tmp_path / "run.csv"
    assert cli.main(["run", _failing_run(tmp_path, csv)]) == 2
    assert capsys.readouterr().err.startswith("solver error: injected failure")
    assert steps == [1, "1_half1"]
    assert csv.read_bytes() == b""
    assert not (tmp_path / "run.csv.config").exists()


def test_cli_mesh_degeneration_exits_3_and_leaves_an_empty_csv(tmp_path, capsys, monkeypatch):
    def degenerate(kin, v, dt):
        raise MeshDegenerationError("injected degeneration")

    monkeypatch.setattr(coupling, "advance_flow_map", degenerate)
    csv = tmp_path / "run.csv"
    assert cli.main(["run", _failing_run(tmp_path, csv)]) == 3
    assert capsys.readouterr().err.startswith("mesh degeneration: injected degeneration")
    assert csv.read_bytes() == b""
    assert not (tmp_path / "run.csv.config").exists()


@pytest.mark.parametrize("kind", list(material.KINDS))
def test_cli_folded_flow_map_exits_3(tmp_path, capsys, kind):
    # a fast swirl at low viscosity folds the flow map at the second step
    csv = tmp_path / "run.csv"
    path = _write(tmp_path, "fold.cfg",
                  f"resolution = 4\nmaterial.kind = {kind}\ninit.mode = swirl\n"
                  "init.amplitude = 3\nviscosity = 0.01\ndt = 0.05\nt_end = 0.2\n"
                  f"output.csv = {csv}\n")
    assert cli.main(["--allow-large", "run", path]) == 3
    assert capsys.readouterr().err.startswith("mesh degeneration: det(D eta) <= 0 at t=0.1")
    assert csv.read_bytes() == b""
    assert not (tmp_path / "run.csv.config").exists()


def test_cli_check_identities(tmp_path, capsys):
    path = _write(tmp_path, "i.cfg", "resolution = 5\n")
    assert cli.main(["check-identities", path]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_smallness_screen_exit(tmp_path):
    path = _write(tmp_path, "big.cfg",
                  "resolution = 5\ndt = 0.01\nt_end = 0.02\ninit.amplitude = 0.5\n"
                  f"output.csv = {tmp_path / 'big.csv'}\n")
    assert cli.main(["run", path]) == 1
    assert cli.main(["--allow-large", "run", path]) == 0
