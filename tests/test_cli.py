"""Command-line driver: artifacts, determinism, exit codes."""

import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import billiardlab
from billiardlab.cli import COMMANDS, main

DISK = "kind = ball\ndim = 2\nradius = 1.0\n"
ELLIPSE = "kind = ellipsoid\ndim = 2\nmatrix = 0.25 0 0 1\n"
SUPERELLIPSE = "kind = superellipse\ndim = 2\nexponent = 4\n"
RADIAL = "kind = radial\nfourier_cos = 1 0 0.06 0 0.01\nfourier_sin = 0 0 0.02\n"


def write(tmp, name, text):
    path = tmp / name
    path.write_text(text, encoding="utf-8")
    return path


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_reflect_command(tmp_path, capsys):
    write(tmp_path, "disk.body", DISK)
    cfg = write(tmp_path, "r.cfg", (
        "experiment = reflect\nbody_k = disk.body\nbody_t = disk.body\n"
        "line_point = 0 0\nline_direction = 1 0\n"))
    rc = main(["reflect", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_rows(tmp_path / "out" / "reflect.csv")
    assert rows[0][0] == "role"
    out_row = rows[2]
    assert out_row[0] == "outgoing"
    assert abs(float(out_row[1]) - 1.0) < 1e-10
    assert abs(float(out_row[3]) + 1.0) < 1e-10


def test_trace_zero_steps_echoes_line(tmp_path, capsys):
    write(tmp_path, "disk.body", DISK)
    cfg = write(tmp_path, "t.cfg", (
        "experiment = trace\nbody_k = disk.body\nbody_t = disk.body\n"
        "line_point = 0.1 0.2\nline_direction = 0 1\nsteps = 0\n"))
    rc = main(["trace", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    captured = capsys.readouterr().out
    assert captured.startswith("line 0.1 0.2 0 1")
    rows = read_rows(tmp_path / "out" / "orbit.csv")
    assert len(rows) == 1  # header only: empty orbit
    assert (tmp_path / "out" / "orbit.svg").exists()


def test_trace_orbit_svg_and_csv(tmp_path):
    write(tmp_path, "disk.body", DISK)
    cfg = write(tmp_path, "t.cfg", (
        "experiment = trace\nbody_k = disk.body\nbody_t = disk.body\n"
        "line_point = 0 0\nline_direction = 1 0\nsteps = 4\n"))
    rc = main(["trace", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_rows(tmp_path / "out" / "orbit.csv")
    assert len(rows) == 5
    assert rows[0][-1] == "length_convention"
    assert rows[1][-1] == "directed-chord"
    svg = (tmp_path / "out" / "orbit.svg").read_text()
    assert svg.startswith("<svg") and "path" in svg


def test_projtest_ellipse_all_below_tolerance(tmp_path, capsys):
    write(tmp_path, "e.body", ELLIPSE)
    cfg = write(tmp_path, "p.cfg", (
        "experiment = projtest\nbody = e.body\nclasses = 5\n"
        "patch_scale = 0.3\nquadruples = 20\n"))
    rc = main(["projtest", "--config", str(cfg), "--seed", "5",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_rows(tmp_path / "out" / "projtest.csv")
    assert rows[0] == ["body_id", "direction_class", "patch_scale",
                       "residual", "fitted_exponent", "fitted_coefficient"]
    for row in rows[1:]:
        assert float(row[3]) <= 1e-7


def test_projtest_superellipse_detects_nonquadric(tmp_path):
    write(tmp_path, "s.body", SUPERELLIPSE)
    cfg = write(tmp_path, "p.cfg", (
        "experiment = projtest\nbody = s.body\nclasses = 8\n"
        "patch_scale = 0.3\nquadruples = 20\n"))
    rc = main(["projtest", "--config", str(cfg), "--seed", "5",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_rows(tmp_path / "out" / "projtest.csv")
    residuals = [float(r[3]) for r in rows[1:]]
    assert max(residuals) >= 1e-3
    # asymptotic columns: deviation from the osculating-conic involution
    # carries the fourth-order law for non-quadric bodies
    fitted = [float(r[4]) for r in rows[1:] if r[4]]
    assert fitted
    assert sum(1 for k in fitted if 3.5 <= k <= 4.5) >= len(fitted) * 2 // 3


def test_projtest_radial_body_fits_the_fourth_order_law(tmp_path):
    # the conic twin is built at the boundary point whose normal is the
    # fixed vector: a radial body's jets take its polar angle
    write(tmp_path, "r.body", RADIAL)
    cfg = write(tmp_path, "p.cfg", "experiment = projtest\nbody = r.body\nclasses = 8\n")
    rc = main(["projtest", "--config", str(cfg), "--seed", "3",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    fitted = [r[4] for r in read_rows(tmp_path / "out" / "projtest.csv")[1:]]
    assert len(fitted) == 8 and all(fitted)
    assert all(abs(float(k) - 4.0) <= 0.2 for k in fitted)


def test_capacity_command_prints_value(tmp_path, capsys):
    write(tmp_path, "disk.body", DISK)
    cfg = write(tmp_path, "c.cfg", (
        "experiment = capacity\nbody_k = disk.body\nbody_t = disk.body\n"
        "m_max = 3\nmultistarts = 8\n"))
    rc = main(["capacity", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "capacity 4.0000" in out
    rows = read_rows(tmp_path / "out" / "capacity.csv")
    assert rows[0] == ["m", "best_action", "stationarity_residual"]
    assert abs(float(rows[1][1]) - 4.0) <= 1e-4


def test_capacity_without_m_max_searches_up_to_n_plus_one(tmp_path):
    # as capacity_estimate: the shortest orbit has at most n + 1 bounces
    write(tmp_path, "disk.body", DISK)
    cfg = write(tmp_path, "c.cfg", "experiment = capacity\nbody_k = disk.body\n"
                "body_t = disk.body\nmultistarts = 4\n")
    assert main(["capacity", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = read_rows(tmp_path / "out" / "capacity.csv")
    assert [r[0] for r in rows[1:]] == ["2", "3"]


def test_osculate_command_planar_and_surface(tmp_path):
    planar = write(tmp_path, "g2.body",
                   "kind = graph_germ\ndim = 2\nc[2] = 0.5\nc[5] = 0.01\n")
    cfg = write(tmp_path, "o2.cfg", "experiment = osculate\ngerm = g2.body\n")
    rc = main(["osculate", "--config", str(cfg), "--out", str(tmp_path / "o2")])
    assert rc == 0
    fits = read_rows(tmp_path / "o2" / "fits.csv")
    assert fits[1][0] == "quintic_gap"
    assert abs(float(fits[1][1]) - 0.01) < 1e-6

    surface = write(tmp_path, "g3.body", (
        "kind = graph_germ\ndim = 3\nc[2,0] = 1.0\nc[1,1] = 0.4\n"
        "c[0,2] = 0.7\nc[2,1] = 0.3\nc[3,1] = 0.05\nc[5,0] = 0.01\n"))
    cfg3 = write(tmp_path, "o3.cfg", "experiment = osculate\ngerm = g3.body\n")
    rc = main(["osculate", "--config", str(cfg3), "--out", str(tmp_path / "o3")])
    assert rc == 0
    fits3 = {r[0]: r for r in read_rows(tmp_path / "o3" / "fits.csv")[1:]}
    assert 2.8 <= float(fits3["normal_gap"][1]) <= 3.5
    assert 3.8 <= float(fits3["angle_gap"][1]) <= 4.2
    coeffs = read_rows(tmp_path / "o3" / "osculate.csv")
    assert coeffs[0] == ["object", "i", "j", "value"]
    assert len(coeffs) > 6


def test_sweep_command(tmp_path):
    cfg = write(tmp_path, "s.cfg", (
        "experiment = sweep\nexponents = 2.0 3.0 4.0\nclasses = 4\n"
        "patch_scale = 0.3\n"))
    rc = main(["sweep", "--config", str(cfg), "--seed", "3",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_rows(tmp_path / "out" / "sweep.csv")
    assert [r[0] for r in rows[1:]] == ["2", "3", "4"]
    res = [float(r[1]) for r in rows[1:]]
    assert res[0] <= 1e-10          # the circle is a quadric
    assert res[2] >= 1e-3           # the quartic superellipse is not
    assert res[1] >= res[0]
    assert (tmp_path / "out" / "sweep.svg").exists()


def test_rerun_is_byte_identical(tmp_path):
    write(tmp_path, "s.body", SUPERELLIPSE)
    write(tmp_path, "disk.body", DISK)
    configs = {
        "projtest": ("experiment = projtest\nbody = s.body\nclasses = 4\n"
                     "patch_scale = 0.3\nquadruples = 15\nseed = 11\n",
                     "projtest.csv"),
        "capacity": ("experiment = capacity\nbody_k = disk.body\n"
                     "body_t = disk.body\nm_max = 3\nmultistarts = 6\n",
                     "capacity.csv"),
        "sweep": ("experiment = sweep\nexponents = 2.0 4.0\nclasses = 3\n"
                  "patch_scale = 0.3\nseed = 2\n", "sweep.csv"),
    }
    for command, (text, artifact) in configs.items():
        cfg = write(tmp_path, f"{command}.cfg", text)
        rc1 = main([command, "--config", str(cfg),
                    "--out", str(tmp_path / command / "a")])
        rc2 = main([command, "--config", str(cfg),
                    "--out", str(tmp_path / command / "b")])
        assert rc1 == rc2 == 0
        a = (tmp_path / command / "a" / artifact).read_bytes()
        b = (tmp_path / command / "b" / artifact).read_bytes()
        assert a == b, command
    # a shorter rerun into a used --out directory leaves no stale tail
    shorter = {
        "projtest": (configs["projtest"][0], ("classes = 4", "classes = 1"),
                     ["projtest.csv"]),
        "sweep": ("experiment = sweep\nexponents = 2.0 3.0 4.0\nclasses = 3\n"
                  "patch_scale = 0.3\nseed = 2\n", ("2.0 3.0 4.0", "2.0"),
                  ["sweep.csv", "sweep.svg"]),
    }
    for command, (text, (long, short), artifacts) in shorter.items():
        x, y = tmp_path / command / "x", tmp_path / command / "y"
        long_cfg = write(tmp_path, f"{command}_long.cfg", text)
        short_cfg = write(tmp_path, f"{command}_short.cfg", text.replace(long, short))
        assert main([command, "--config", str(long_cfg), "--out", str(x)]) == 0
        sizes = {a: (x / a).stat().st_size for a in artifacts}
        assert main([command, "--config", str(short_cfg), "--out", str(x)]) == 0
        assert main([command, "--config", str(short_cfg), "--out", str(y)]) == 0
        for artifact in artifacts:
            assert (y / artifact).stat().st_size < sizes[artifact], (command, artifact)
            assert (x / artifact).read_bytes() == (y / artifact).read_bytes(), (command, artifact)


def test_config_errors_exit_one(tmp_path, capsys):
    missing = main(["capacity", "--config", str(tmp_path / "nope.cfg")])
    assert missing == 1
    bad = write(tmp_path, "bad.cfg", "experiment = capacity\nm_max = 3\n")
    assert main(["capacity", "--config", str(bad)]) == 1
    mismatched = write(tmp_path, "m.cfg", "experiment = trace\n")
    assert main(["capacity", "--config", str(mismatched)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err


def test_bad_seed_or_tol_in_config_exits_one(tmp_path, capsys):
    write(tmp_path, "disk.body", DISK)
    for key, line in (("seed", 3), ("tol", 4)):
        cfg = write(tmp_path, f"{key}.cfg", (
            "experiment = projtest\nbody = disk.body\n"
            + ("seed = abc\nclasses = 1\n" if key == "seed"
               else "classes = 1\ntol = tight\n")))
        rc = main(["projtest", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"config error: line {line}: bad value for '{key}'" in err
    # a negative seed used to end in numpy's ValueError traceback
    cfg = write(tmp_path, "negative.cfg",
                "experiment = projtest\nbody = disk.body\nseed = -1\nclasses = 1\n")
    assert main(["projtest", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "config error: line 3: bad value for 'seed'" in capsys.readouterr().err
    cfg = write(tmp_path, "flag.cfg", "experiment = projtest\nbody = disk.body\nclasses = 1\n")
    assert main(["projtest", "--config", str(cfg), "--seed", "-5",
                 "--out", str(tmp_path / "out")]) == 1
    assert "config error: --seed is -5, less than 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tol", ["-1", "nan", "-0.001"])
def test_negative_or_nan_tol_is_a_config_error(tol, tmp_path, capsys):
    # is_sextactic compares the quintic gap with tol: a gap of 0 read "not
    # sextactic" at a negative or NaN tol, with exit 0
    write(tmp_path, "g.body", "kind = graph_germ\ndim = 2\nc[2] = 0.5\n")
    cfg = write(tmp_path, "o.cfg", f"experiment = osculate\ngerm = g.body\ntol = {tol}\n")
    assert main(["osculate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "config error: line 3: bad value for 'tol'" in capsys.readouterr().err
    cfg = write(tmp_path, "f.cfg", "experiment = osculate\ngerm = g.body\n")
    assert main(["osculate", "--config", str(cfg), "--tol", tol,
                 "--out", str(tmp_path / "out")]) == 1
    assert f"config error: --tol is {float(tol)}, not a non-negative number" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()
    assert main(["osculate", "--config", str(cfg), "--tol", "0",
                 "--out", str(tmp_path / "out")]) == 0
    assert read_rows(tmp_path / "out" / "fits.csv")[1] == ["quintic_gap", "0", "sextactic"]


@pytest.mark.parametrize("experiment, line, rc, message", [
    ("sweep", "classes = 0", 1, "config error: 'classes' is 0, less than 1"),
    ("sweep", "exponents =", 1, "config error: 'exponents' is empty"),
    ("projtest", "classes = 0", 1, "config error: 'classes' is 0, less than 1"),
    ("projtest", "classes = -2", 1, "config error: 'classes' is -2, less than 1"),
    ("projtest", "patch_scale = nan", 2, "SamplePlanError: patch_scale must lie in (0, pi/2)"),
    ("projtest", "patch_scale = 5", 2, "SamplePlanError: patch_scale must lie in (0, pi/2)"),
], ids=["sweep_no_class", "sweep_no_exponent", "projtest_no_class",
        "projtest_negative_classes", "projtest_nan_patch", "projtest_wrapping_patch"])
def test_bad_sampling_config_fails_cleanly(experiment, line, rc, message, tmp_path, capsys):
    # no class used to give sweep residual 0 (a "projective" answer) and
    # projtest a traceback; a patch of 5 rad wraps the circle
    write(tmp_path, "s.body", SUPERELLIPSE)
    cfg = write(tmp_path, "c.cfg", f"experiment = {experiment}\nbody = s.body\n"
                "exponents = 2 3\nclasses = 2\n" + line + "\n")
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")]) == rc
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("multistarts", [0, -2])
def test_capacity_without_multistarts_is_a_config_error(multistarts, tmp_path, capsys):
    # a count below one used to exit 2 with "no admissible closed polygon found"
    write(tmp_path, "disk.body", DISK)
    cfg = write(tmp_path, "c.cfg", "experiment = capacity\nbody_k = disk.body\n"
                f"body_t = disk.body\nm_max = 2\nmultistarts = {multistarts}\n")
    assert main(["capacity", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"config error: 'multistarts' is {multistarts}, less than 1" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("m_max", [1, 0, -3])
def test_capacity_with_m_max_below_two_is_a_config_error(m_max, tmp_path, capsys):
    # m_max = 1 used to exit 2 with "numeric failure: DomainError"
    write(tmp_path, "disk.body", DISK)
    cfg = write(tmp_path, "c.cfg", "experiment = capacity\nbody_k = disk.body\n"
                f"body_t = disk.body\nm_max = {m_max}\nmultistarts = 2\n")
    assert main(["capacity", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"config error: 'm_max' is {m_max}, less than 2" in err
    assert not (tmp_path / "out").exists()


def test_projtest_conic_twin_needs_no_root_solve(tmp_path, monkeypatch):
    # the osculating conic's chord involution is a harmonic homology in
    # closed form, so the fitted cells must not need the row root solves
    def refuse(*args):
        raise AssertionError("root-solved conic twin")

    monkeypatch.setattr(billiardlab.projectivity, "slope_point", refuse)
    monkeypatch.setattr(billiardlab.projectivity, "height_partner", refuse)
    write(tmp_path, "s.body", SUPERELLIPSE)
    cfg = write(tmp_path, "p.cfg", "experiment = projtest\nbody = s.body\nclasses = 4\n")
    assert main(["projtest", "--config", str(cfg), "--seed", "5",
                 "--out", str(tmp_path / "out")]) == 0
    fitted = [r[4:] for r in read_rows(tmp_path / "out" / "projtest.csv")[1:]]
    assert len(fitted) == 4 and all(k and c for k, c in fitted)


def involution_calls(monkeypatch, fault=None):
    """The row counts of the parallel_chord_involution calls that the CLI
    makes, in one batch or per class; ``fault(u)`` may raise first."""
    from billiardlab import cli, projectivity

    calls, real = [], billiardlab.reflection.parallel_chord_involution

    def counted(T, cls, u):
        calls.append(len(u))
        if fault is not None:
            fault(u)
        return real(T, cls, u)

    monkeypatch.setattr(cli, "parallel_chord_involution", counted)
    monkeypatch.setattr(projectivity, "parallel_chord_involution", counted)
    return calls


def test_a_run_maps_each_body_in_one_involution_call(tmp_path, monkeypatch):
    # a projtest class maps 40 quadruples and a 9-row fit grid, a sweep
    # class 20 quadruples: one call per projtest run and per sweep exponent
    write(tmp_path, "s.body", SUPERELLIPSE)
    calls = involution_calls(monkeypatch)
    cfg = write(tmp_path, "p.cfg", "experiment = projtest\nbody = s.body\nclasses = 4\n")
    assert main(["projtest", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
    assert calls == [4 * (160 + 9)]
    calls.clear()
    cfg = write(tmp_path, "w.cfg", "experiment = sweep\nexponents = 2 3 4\nclasses = 2\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "w")]) == 0
    assert calls == [2 * 80] * 3


@pytest.mark.parametrize("seed", [2, 9])
@pytest.mark.parametrize("body, text, csv_name, per_class", [
    (SUPERELLIPSE, "experiment = projtest\nbody = b.body\nclasses = 4\n",
     "projtest.csv", [160, 9] * 4),
    ("kind = superellipse\ndim = 3\nexponent = 4\n",
     "experiment = projtest\nbody = b.body\nclasses = 3\n", "projtest.csv", [60] * 3),
    (DISK, "experiment = sweep\nexponents = 2 3 4\nclasses = 3\n", "sweep.csv", [80] * 9),
], ids=["planar", "3d", "sweep"])
def test_per_class_fallback_writes_the_same_bytes(seed, body, text, csv_name, per_class,
                                                  tmp_path, monkeypatch):
    # when the one call over every class raises, each class maps each of
    # its row sets in its own call, and every row keeps its bits
    from billiardlab import cli
    from billiardlab.errors import ConvergenceError

    write(tmp_path, "b.body", body)
    cfg = write(tmp_path, "c.cfg", text)
    argv = [text.split()[2], "--config", str(cfg), "--seed", str(seed), "--out"]
    assert main(argv + [str(tmp_path / "batched")]) == 0
    calls = involution_calls(monkeypatch)

    def refuse(*args):
        raise ConvergenceError("no batch")

    monkeypatch.setattr(cli, "parallel_chord_involution", refuse)
    assert main(argv + [str(tmp_path / "per_class")]) == 0
    assert calls == per_class
    assert ((tmp_path / "per_class" / csv_name).read_bytes()
            == (tmp_path / "batched" / csv_name).read_bytes())


def marked_rows(seed, classes):
    """Class k's residual rows and fit rows in a default projtest run of
    Superellipse(4) at ``seed``."""
    from billiardlab import cli
    from billiardlab.jets import dyadic_grid

    body = billiardlab.Superellipse(4.0)
    samplers = [billiardlab.SphereInvolutionSampler.from_parallel_chord(body, d)
                for d in cli._direction_classes(np.random.default_rng(seed), 2, classes)]
    return ([billiardlab.projectivity.residual_directions(s, billiardlab.SamplePlan(
                seed=seed + 1000 + k)) for k, s in enumerate(samplers)],
            [cli._chart_directions(cli._conic_twin(body, s), dyadic_grid(4, 12))
             for s in samplers])


def raising_on(marked):
    """A fault that raises ConvergenceError on a call mapping one of the
    marked rows, named by the last such row of the dict."""
    from billiardlab.errors import ConvergenceError

    def fault(u):
        hit = [name for name, row in marked.items() if (u == row).all(axis=-1).any()]
        if hit:
            raise ConvergenceError(hit[-1])
    return fault


def test_a_failed_fit_row_empties_only_its_class_cells(tmp_path, monkeypatch):
    write(tmp_path, "s.body", SUPERELLIPSE)
    cfg = write(tmp_path, "p.cfg", "experiment = projtest\nbody = s.body\nclasses = 4\n")
    argv = ["projtest", "--config", str(cfg), "--seed", "5", "--out"]
    assert main(argv + [str(tmp_path / "clean")]) == 0
    _, fits = marked_rows(5, 4)
    involution_calls(monkeypatch, raising_on({"fit": fits[1][3]}))
    assert main(argv + [str(tmp_path / "out")]) == 0
    clean = read_rows(tmp_path / "clean" / "projtest.csv")
    rows = read_rows(tmp_path / "out" / "projtest.csv")
    assert rows[2][4:] == ["", ""] and clean[2][4] and clean[2][5]
    assert rows[2][:4] == clean[2][:4]
    assert rows[:2] + rows[3:] == clean[:2] + clean[3:]


def test_a_failed_residual_row_exits_two_with_the_first_class_error(tmp_path, monkeypatch,
                                                                     capsys):
    # the batched call meets class 2's row last; the classes, mapped one by
    # one in their order, meet class 0's first
    write(tmp_path, "s.body", SUPERELLIPSE)
    cfg = write(tmp_path, "p.cfg", "experiment = projtest\nbody = s.body\nclasses = 4\n")
    residuals, _ = marked_rows(5, 4)
    involution_calls(monkeypatch, raising_on({"class 0": residuals[0][5],
                                              "class 2": residuals[2][7]}))
    assert main(["projtest", "--config", str(cfg), "--seed", "5",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "numeric failure: ConvergenceError: class 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["reflect", "trace"])
@pytest.mark.parametrize("point, direction, message", [
    ("0 0", "0 0", "'line_direction' is the zero vector"),
    ("0 0 0", "1 0", "'line_point' has 3 entries for a body of dimension 2"),
    ("0 0", "1", "'line_direction' has 1 entries for a body of dimension 2"),
    ("0 inf", "1 0", "'line_point' has an entry that is not finite"),
    ("0 0", "nan 1", "'line_direction' has an entry that is not finite"),
], ids=["zero_direction", "long_point", "short_direction", "infinite_point", "nan_direction"])
def test_malformed_line_exits_one(experiment, point, direction, message, tmp_path, capsys):
    write(tmp_path, "disk.body", DISK)
    cfg = write(tmp_path, "l.cfg", (
        f"experiment = {experiment}\nbody_k = disk.body\nbody_t = disk.body\n"
        f"line_point = {point}\nline_direction = {direction}\nsteps = 3\n"))
    rc = main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"config error: {message}" in capsys.readouterr().err


GERM = "kind = graph_germ\ndim = 2\nc[2] = 0.5\nc[5] = 0.01\n"
POLYGON = "kind = polygon\nvertices = 1 0 0 1 -1 0 0 -1\n"
BODY_KEYS = {"reflect": ("body_k", "body_t"), "trace": ("body_k", "body_t"),
             "capacity": ("body_k", "body_t"), "projtest": ("body",), "osculate": ("germ",)}


@pytest.mark.parametrize("experiment, kind, text", [
    *[(e, k, t) for e in ("trace", "reflect", "capacity", "projtest")
      for k, t in (("graph_germ", GERM), ("polygon", POLYGON))],
    ("osculate", "ball", DISK),
])
def test_body_of_the_wrong_kind_exits_one(experiment, kind, text, tmp_path, capsys):
    write(tmp_path, "b.body", text)
    cfg = write(tmp_path, "k.cfg", f"experiment = {experiment}\n"
                + "".join(f"{key} = b.body\n" for key in BODY_KEYS[experiment])
                + "line_point = 0 0\nline_direction = 1 0\nsteps = 2\nm_max = 2\n")
    rc = main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and BODY_KEYS[experiment][0] in err


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    for name, fn in COMMANDS.items():
        assert f"{name:<10}{fn.__doc__}" in out


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    # rebuilding the parser cost about 200 us per call, and a projtest pass
    # makes 20 calls; the help and the errors come from the one parser
    from billiardlab import cli

    built = []
    real = cli.argparse.ArgumentParser.__init__
    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or real(self, *a, **k))
    cli._parser.cache_clear()
    try:
        cfg = write(tmp_path, "s.cfg", "experiment = sweep\nexponents = 2.0 4.0\nclasses = 2\n")
        for k in range(3):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / f"o{k}")]) == 0
        with pytest.raises(SystemExit):
            main(["sweep"])
        assert "usage: billiardlab" in capsys.readouterr().err
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def test_outputs_are_never_truncated_to_zero(tmp_path, monkeypatch, capsys):
    # an open that truncates an existing file to zero makes ext4 start
    # writeback at close (auto_da_alloc), about 0.3 ms per output;
    # Path.write_text opens through io.open, the object builtins.open names
    import builtins
    import io

    write(tmp_path, "s.body", SUPERELLIPSE)
    runs = {"projtest": "experiment = projtest\nbody = s.body\nclasses = 2\n",
            "sweep": "experiment = sweep\nexponents = 2.0 4.0\nclasses = 2\n"}
    for command, text in runs.items():
        cfg = write(tmp_path, f"{command}.cfg", text)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == 0  # the outputs exist before the checked run
    opened, truncating = [], []
    real_os_open, real_open = os.open, builtins.open

    def os_open(path, flags, *args, **kwargs):
        opened.append(Path(path).name)
        if flags & os.O_TRUNC:
            truncating.append((str(path), "O_TRUNC"))
        return real_os_open(path, flags, *args, **kwargs)

    def open_(file, mode="r", *args, **kwargs):
        if "w" in mode:
            truncating.append((str(file), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(builtins, "open", open_)
    monkeypatch.setattr(io, "open", open_)
    for command in runs:
        assert main([command, "--config", str(tmp_path / f"{command}.cfg"),
                     "--out", str(tmp_path / "out")]) == 0
    monkeypatch.undo()
    assert truncating == []
    assert sorted(opened) == ["projtest.csv", "sweep.csv", "sweep.svg"]


@pytest.mark.parametrize("argv", [["nope", "--config", "x.cfg"], ["sweep"], []],
                         ids=["unknown command", "no config", "no command"])
def test_bad_command_line_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 2
    assert "usage: billiardlab" in capsys.readouterr().err


def test_flags_parse_the_same_before_the_command(tmp_path, capsys):
    cfg = write(tmp_path, "s.cfg", "experiment = sweep\nexponents = 2.0 4.0\nclasses = 2\n")
    after = ["sweep", "--config", str(cfg), "--seed", "4", "--tol", "1e-6",
             "--out", str(tmp_path / "a")]
    before = ["--config", str(cfg), "--seed", "4", "--tol", "1e-6",
              "--out", str(tmp_path / "b"), "sweep"]
    assert main(after) == main(before) == 0
    for name in ("sweep.csv", "sweep.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    capsys.readouterr()
    # the command must still match the experiment the config declares
    assert main(["--config", str(cfg), "projtest"]) == 1
    assert "command is 'projtest'" in capsys.readouterr().err


def test_numeric_failures_exit_two(tmp_path, capsys):
    write(tmp_path, "disk.body", DISK)
    cfg = write(tmp_path, "r.cfg", (
        "experiment = reflect\nbody_k = disk.body\nbody_t = disk.body\n"
        "line_point = 0 5\nline_direction = 1 0\n"))  # line misses the disk
    rc = main(["reflect", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "numeric failure" in capsys.readouterr().err


CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
# SHA-256 of every file (CSV and SVG) that the demo configs write.  A change
# that moves a digit of a demo output updates this table and says so in
# CHANGES.md.
DEMO_OUTPUT_SHA256 = {
    ("capacity_disk.cfg", "capacity.csv"):
        "644e2c899f1e1211a09dd27da4cdcc89e160acdbc79e8b8d5e4e78fb832a9cd1",
    ("capacity_disk.cfg", "orbit.csv"):
        "5358335daff823b9a799c1881556e0c87805b2ccf2424bf79bcd46d1cc109c6f",
    ("osculate_germ.cfg", "fits.csv"):
        "7d329e1ab37d5487aa7b61fa2a8da001a58e1bf11df12eead5a14247784de899",
    ("osculate_germ.cfg", "osculate.csv"):
        "13f4558caa0e13645cc732dfc951f6414a0238b99d3ea22ba9ae3ee9e2a5b884",
    ("projtest_ellipse.cfg", "projtest.csv"):
        "47ce9f7c13cc3930964c8d84e40947ae43f46ab00383abafe8e3490c8f4638fd",
    ("projtest_superellipse.cfg", "projtest.csv"):
        "bae15a37e544b1c3b900343191334dff6b882a46664df0317f59a03b60e94f50",
    ("sweep_family.cfg", "sweep.csv"):
        "702aa87e655e79127be538baa87f8dd7814ac4a80e053fca09326f8c9dab849b",
    ("sweep_family.cfg", "sweep.svg"):
        "f6526342984fc64f2bdbc72bfeb2a5c219f0d4232e07777718b71a6841e20600",
    ("trace_ellipse.cfg", "orbit.csv"):
        "956ad22fb0462634bd38727624d31aac35e95a07b995c515c8f6dfdfa7206314",
    ("trace_ellipse.cfg", "orbit.svg"):
        "e46acf63f09fb591c8a9677d0f11ab2b290ec5e9a2d6294d89743cccbc14c32d",
}


@pytest.mark.parametrize("config", sorted({c for c, _ in DEMO_OUTPUT_SHA256}))
def test_demo_config_csvs_are_byte_identical(config, tmp_path, capsys):
    text = (CONFIGS / config).read_text(encoding="utf-8")
    experiment = next(line.split("=", 1)[1].strip() for line in text.splitlines()
                      if line.startswith("experiment"))
    assert main([experiment, "--config", str(CONFIGS / config), "--out", str(tmp_path)]) == 0
    written = {(config, path.name): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    pinned = {key: h for key, h in DEMO_OUTPUT_SHA256.items() if key[0] == config}
    # on a mismatch, show the text of each file whose hash moved, for review
    assert written == pinned, "".join(
        f"\n--- {name} ---\n" + (tmp_path / name).read_text(encoding="utf-8")
        for (_, name), h in sorted(written.items()) if pinned.get((config, name)) != h)


DEMOS = CONFIGS.parent
# SHA-256 of what each demo script prints, pinned like the demo outputs.
DEMO_STDOUT_SHA256 = {
    "01_reflection_laws.py":
        "77722e76105b3e74b93299a6a9eddb02effee839a7899d6d5d45f930bab426ca",
    "02_projectivity_of_reflections.py":
        "43fe53e2a24e99962be8397386a3bc591496214de6305c396c7f942dd09bc1c7",
    "03_osculating_conics_and_quadrics.py":
        "50a6fc90f633e8a351db83e76f97f72e4eb98e8bf78b3063ee32b004d7d3125d",
    "04_capacity_and_volume_products.py":
        "a0094a90121e725d6d2afa8b16b1c799a91a5f1c19eb55bd9d0ffd4d82af1954",
}


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_printouts_are_byte_identical(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(billiardlab.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env,
                          timeout=120, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo], (
        "printed:\n" + done.stdout.decode())
