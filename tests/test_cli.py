import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from riccati_hjb import (PDEConfig, SpatialGrid, alpha, cli, pde,
                         contraction_budget, grid_convergence, solve)
from riccati_hjb.analysis import monotonicity_certificate
from riccati_hjb.config import load_run
from riccati_hjb.pde import mms_convergence_study
from riccati_hjb.cli import main
from two_asset_data import MU_S, MU_B, two_asset_sigma


def write_config(path, *, utility=None, pde=None, model_extra=None,
                 checks=None):
    doc = {
        "model": {
            "assets": {"mu": [MU_S, MU_B]},
            "covariance": two_asset_sigma().tolist(),
            "decision_set": "simplex",
        },
    }
    if model_extra:
        doc["model"].update(model_extra)
    if utility is not None:
        doc["utility"] = utility
    if pde is not None:
        doc["pde"] = pde
    if checks is not None:
        doc["checks"] = checks
    path.write_text(json.dumps(doc))
    return path


SMALL_PDE = {
    "x_min": -8.0, "x_max": 8.0, "n_cells": 80,
    "t_final": 1.0, "n_steps": 20, "upwind": True,
}
DARA_UTIL = {"kind": "dara", "a0": 9.0, "a1": 6.0, "x_star": 2.0,
             "truncation_gamma": 8.0}


@pytest.fixture
def config_path(tmp_path):
    return write_config(tmp_path / "run.json", utility=DARA_UTIL,
                        pde=SMALL_PDE)


class TestIngest:
    def test_round_trip(self, tmp_path):
        mu = tmp_path / "mu.csv"
        mu.write_text(f"mean\n{MU_S}\n{MU_B}\n")
        sig = tmp_path / "sigma.csv"
        rows = two_asset_sigma()
        sig.write_text("\n".join(
            ",".join(repr(float(v)) for v in row) for row in rows))
        out = tmp_path / "out"
        assert main(["ingest", "--mu", str(mu), "--sigma", str(sig),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["model"]["assets"]["mu"] == [MU_S, MU_B]

    def test_degenerate_covariance_exits_config(self, tmp_path):
        mu = tmp_path / "mu.csv"
        mu.write_text("mean\n0.1\n0.05\n")
        sig = tmp_path / "sigma.csv"
        sig.write_text("0.04,0.02\n0.02,0.01\n")
        assert main(["ingest", "--mu", str(mu), "--sigma", str(sig),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("mu_text, sigma_text, named", [
        ("mean\nnan\n0.05\n", "0.04,0.0\n0.0,0.01\n", "mean returns"),
        ("mean\n0.1\n0.05\n", "0.04,nan\nnan,0.01\n", "covariance"),
    ], ids=["mu", "sigma"])
    def test_non_finite_data_exits_config(self, tmp_path, capsys, mu_text,
                                          sigma_text, named):
        # Cholesky does not reject NaN, so the model checks for it
        mu, sig = tmp_path / "mu.csv", tmp_path / "sigma.csv"
        mu.write_text(mu_text)
        sig.write_text(sigma_text)
        out = tmp_path / "o"
        assert main(["ingest", "--mu", str(mu), "--sigma", str(sig),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err
        assert not out.exists()


    def test_missing_file_exits_config(self, tmp_path, capsys):
        sig = tmp_path / "sigma.csv"
        sig.write_text("0.04\n")
        missing = tmp_path / "mu.csv"
        assert main(["ingest", "--mu", str(missing), "--sigma", str(sig),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: mu csv: file not found: {missing}\n")


class TestCsv:
    def test_rows_are_the_repr_of_each_float(self, tmp_path):
        # shortest round-trip text of every value: signed zero, the least
        # subnormal, a rounded sum, a large float, integer-valued floats
        # and the non-finite ones
        rows = np.array([[-0.0, 5e-324, 0.1 + 0.2, 1e16, 3.0],
                         [2.0, -7.0, 1e-7, np.inf, np.nan]])
        path = tmp_path / "table.csv"
        cli._write_csv(path, ["a", "b", "c", "d", "e"], rows)
        expected = "a,b,c,d,e\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode()
        assert path.read_text().splitlines()[1:] == [
            "-0.0,5e-324,0.30000000000000004,1e+16,3.0",
            "2.0,-7.0,1e-07,inf,nan"]


class TestAlphaCurve:
    def test_curve_with_closed_form_column(self, tmp_path, config_path):
        out = tmp_path / "curve"
        assert main(["alpha-curve", "--config", str(config_path),
                     "--out", str(out), "--n-points", "50"]) == 0
        header = (out / "alpha_curve.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "phi", "alpha", "dalpha_dphi", "theta_1", "theta_2",
            "alpha_closed"]
        man = json.loads((out / "manifest.json").read_text())
        assert man["breakpoints"]["phi_lo"] == pytest.approx(1.7827, abs=1e-3)
        assert "alpha_curve.csv" in man["outputs"]

    def test_closed_and_qp_columns_agree(self, tmp_path, config_path):
        out = tmp_path / "curve"
        main(["alpha-curve", "--config", str(config_path), "--out", str(out),
              "--n-points", "80"])
        rows = np.loadtxt(out / "alpha_curve.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(rows[:, 1] - rows[:, 5])) <= 1e-10

    def test_byte_identical_reruns(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["alpha-curve", "--config", str(config_path),
                  "--out", str(out), "--n-points", "40"])
        assert ((out1 / "alpha_curve.csv").read_bytes()
                == (out2 / "alpha_curve.csv").read_bytes())

    def test_bad_phi_range(self, tmp_path, config_path):
        assert main(["alpha-curve", "--config", str(config_path),
                     "--out", str(tmp_path / "x"),
                     "--phi-min", "5", "--phi-max", "1"]) == 2

    @pytest.mark.parametrize("n_points", ["0", "-3", str(10**12)])
    def test_bad_n_points_exits_usage(self, tmp_path, config_path, capsys,
                                      n_points):
        # 10**12 points would need 8 TB: the cap is checked before the
        # table is allocated
        assert main(["alpha-curve", "--config", str(config_path),
                     "--out", str(tmp_path / "x"),
                     "--n-points", n_points]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--n-points" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["alpha-curve", "weights-path"])
    @pytest.mark.parametrize("phi_min, phi_max", [
        ("0.5", "inf"), ("0.5", "nan"), ("nan", "10"), ("inf", "inf")])
    def test_non_finite_phi_exits_usage(self, tmp_path, config_path, capsys,
                                        command, phi_min, phi_max):
        out = tmp_path / "x"
        assert main([command, "--config", str(config_path), "--out", str(out),
                     "--phi-min", phi_min, "--phi-max", phi_max,
                     "--n-points", "3"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--phi-max" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["alpha-curve", "weights-path"])
    def test_repeated_phi_exits_usage(self, tmp_path, config_path, capsys,
                                      command):
        # one ulp apart, linspace repeats a value of the 3-point grid
        out = tmp_path / "x"
        assert main([command, "--config", str(config_path), "--out", str(out),
                     "--phi-min", "1", "--phi-max", "1.0000000000000002",
                     "--n-points", "3"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert all(flag in err for flag in ("--phi-min", "--phi-max",
                                            "--n-points"))
        assert not out.exists()

    def test_subnormal_phi_min_writes_the_curve(self, tmp_path, config_path):
        # B/phi overflows at phi = 1e-320, below phi_lo, where the vertex
        # line replaces it; the suite turns a RuntimeWarning into a failure
        out = tmp_path / "x"
        assert main(["alpha-curve", "--config", str(config_path),
                     "--out", str(out), "--phi-min", "1e-320",
                     "--n-points", "3"]) == 0
        rows = np.loadtxt(out / "alpha_curve.csv", delimiter=",", skiprows=1)
        assert rows[0, 0] == 1e-320
        assert np.all(np.isfinite(rows))
        assert rows[0, -1] == rows[0, 1]  # the closed form's vertex line

    @pytest.mark.parametrize("mu, sigma", [
        ([0.1, 0.05, 0.07], [[4.0, 0.1, 0.0], [0.1, 1.0, 0.0],
                             [0.0, 0.0, 2.0]]),
        ([0.1, 0.05], [[4.0, 0.1], [0.1, 1.0]])], ids=["n3", "n2"])
    def test_huge_phi_gives_the_minimum_variance_weights(self, tmp_path, mu,
                                                         sigma):
        # rho Sigma overflows near the largest float: the QP solves the
        # problem divided by rho, and the two-asset closed form forms its
        # vertex pieces at every phi; neither may warn, which the suite
        # turns into a failure
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": {
            "assets": {"mu": mu}, "covariance": sigma,
            "decision_set": "simplex"}}))
        out = tmp_path / "x"
        assert main(["alpha-curve", "--config", str(cfg), "--out", str(out),
                     "--phi-min", "1", "--phi-max", "1e308",
                     "--n-points", "3"]) == 0
        rows = np.loadtxt(out / "alpha_curve.csv", delimiter=",", skiprows=1)
        _, model, _, _, _ = load_run(cfg)
        expected = alpha._active_set_qp(model.sigma, np.zeros(model.n), 1.0)
        theta = rows[1:, 3:3 + model.n]
        assert np.max(np.abs(theta - expected)) <= 1e-12

    def test_gnuplot_script_emitted_and_listed(self, tmp_path, config_path):
        out = tmp_path / "gp"
        assert main(["alpha-curve", "--config", str(config_path),
                     "--out", str(out), "--n-points", "20",
                     "--gnuplot"]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert "alpha_curve.gp" in man["outputs"]
        assert "alpha_curve.csv" in (out / "alpha_curve.gp").read_text()


class TestWeightsPath:
    def test_table_written(self, tmp_path, config_path):
        out = tmp_path / "wp"
        assert main(["weights-path", "--config", str(config_path),
                     "--out", str(out), "--n-points", "30"]) == 0
        rows = np.loadtxt(out / "weights_path.csv", delimiter=",", skiprows=1)
        theta1 = rows[:, 3]
        assert np.all(np.diff(theta1) <= 1e-12)  # risk weight shrinks

    def test_gnuplot_is_a_usage_error(self, tmp_path, config_path):
        # only alpha-curve writes a plot script
        out = tmp_path / "wp"
        assert main(["weights-path", "--config", str(config_path),
                     "--out", str(out), "--gnuplot"]) == 2
        assert not out.exists()


class TestDiscreteMenuConfig:
    def test_menu_curve_dominates_simplex(self, tmp_path, config_path):
        menu_cfg = write_config(
            tmp_path / "menu.json",
            model_extra={"decision_set": {
                "points": [[0.8, 0.2], [0.5, 0.5], [0.0, 1.0]]}},
            utility=DARA_UTIL)
        out_m, out_s = tmp_path / "menu_out", tmp_path / "simplex_out"
        assert main(["alpha-curve", "--config", str(menu_cfg),
                     "--out", str(out_m), "--n-points", "60"]) == 0
        assert main(["alpha-curve", "--config", str(config_path),
                     "--out", str(out_s), "--n-points", "60"]) == 0
        menu = np.loadtxt(out_m / "alpha_curve.csv", delimiter=",", skiprows=1)
        full = np.loadtxt(out_s / "alpha_curve.csv", delimiter=",", skiprows=1)
        assert np.all(menu[:, 1] >= full[:, 1] - 1e-12)
        # piecewise linear: second differences vanish away from the kinks
        second = np.abs(np.diff(menu[:, 1], 2))
        assert np.median(second) <= 1e-12


class TestSolve:
    def test_slices_and_manifest(self, tmp_path, config_path):
        out = tmp_path / "sol"
        assert main(["solve", "--config", str(config_path), "--out", str(out),
                     "--slices", "0,0.5,1"]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["versions"]["scipy"] == scipy.__version__
        slices = [f for f in man["outputs"] if f.startswith("slice_tau_")]
        assert len(slices) == 3
        rows = np.loadtxt(out / slices[0], delimiter=",", skiprows=1)
        assert rows.shape == (80, 5)  # x, phi, alpha, theta_1, theta_2
        # the stepper's work, as the same solve reports it step by step
        _, model, utility, pde_cfg, _ = load_run(config_path)
        sol = solve(model, utility, pde_cfg)
        sweeps = [d.picard_iterations for d in sol.diagnostics]
        diag = man["diagnostics"]
        assert diag["total_sweeps"] == sum(sweeps)
        assert diag["mean_sweeps_per_step"] == sum(sweeps) / SMALL_PDE["n_steps"]
        counts = diag["sweeps_per_step_counts"]
        assert sum(counts.values()) == SMALL_PDE["n_steps"]
        assert counts == {str(n): sweeps.count(n) for n in set(sweeps)}
        # every run reports its clamp
        bounds = sol.bounds
        assert diag["cutoff"] == {"m": bounds.m, "lambda": bounds.lam,
                                  "lower": bounds.lower,
                                  "upper": bounds.upper, "excess": 0.0}

    def test_manifest_counts_the_factorizations(self, tmp_path, config_path,
                                                monkeypatch):
        # the manifest's jacobians total is the number of Newton matrices
        # the run factored: fewer than its sweeps, as steps after a
        # one-sweep step reuse the stored factors
        factor, calls = pde.factor_banded, []

        def counted_factor(*args):
            calls.append(1)
            return factor(*args)

        monkeypatch.setattr(pde, "factor_banded", counted_factor)
        out = tmp_path / "sol"
        assert main(["solve", "--config", str(config_path), "--out",
                     str(out)]) == 0
        diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert diag["jacobians"] == len(calls)
        assert 0 < diag["jacobians"] < diag["total_sweeps"]

    def test_constant_profile_slices_flat(self, tmp_path):
        cfg = write_config(
            tmp_path / "const.json",
            utility={"kind": "dara", "a0": 9.0, "a1": 9.0, "x_star": 0.0,
                     "truncation_gamma": None},
            pde=SMALL_PDE)
        out = tmp_path / "sol"
        main(["solve", "--config", str(cfg), "--out", str(out),
              "--slices", "1"])
        name = json.loads((out / "manifest.json").read_text())["outputs"][0]
        rows = np.loadtxt(out / name, delimiter=",", skiprows=1)
        assert np.max(np.abs(rows[:, 1] - 9.0)) <= 1e-10

    def test_solve_reruns_byte_identical(self, tmp_path, config_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            main(["solve", "--config", str(config_path), "--out", str(out),
                  "--slices", "0.5,1"])
            outs.append(out)
        for f in sorted(outs[0].glob("slice_*.csv")):
            assert f.read_bytes() == (outs[1] / f.name).read_bytes()

    def test_gnuplot_script_plots_every_slice_once(self, tmp_path,
                                                   config_path):
        out = tmp_path / "gp"
        assert main(["solve", "--config", str(config_path), "--out", str(out),
                     "--gnuplot"]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert "slices.gp" in man["outputs"]
        slices = [f for f in man["outputs"] if f.startswith("slice_tau_")]
        script = (out / "slices.gp").read_text()
        commands = [line for line in script.splitlines()
                    if not line.startswith(("set ", " "))]
        assert commands[0].startswith("plot ")
        assert "replot" not in script
        assert all(script.count(f"'{name}'") == 1 for name in slices)

    def test_qp_failure_exits_solver(self, tmp_path, capsys, monkeypatch):
        def cycling(sigma, mu, free):
            # a working-set line that drops weight 0 from the full set and
            # takes it back, until the QP's iteration cap
            n = len(mu)
            g = np.zeros(n)
            g[list(free)] = 1.0 / len(free)
            if len(free) == n:
                g[0] = -1.0
            return g, np.zeros(n), -1e3, 0.0, 0.0

        monkeypatch.setattr(alpha, "_working_set_line", cycling)
        cfg = write_config(
            tmp_path / "three.json", utility=DARA_UTIL,
            pde={**SMALL_PDE, "n_cells": 20, "n_steps": 2},
            model_extra={"assets": {"mu": [0.10, 0.07, 0.05]},
                         "covariance": np.diag([0.04, 0.02, 0.01]).tolist()})
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "sol")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("solver error: ")
        assert "did not converge at rho=" in err and err.endswith(", n=3\n")

    def test_bad_slices_exits_usage(self, tmp_path, config_path, capsys):
        assert main(["solve", "--config", str(config_path),
                     "--out", str(tmp_path / "x"), "--slices", "0,abc"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--slices" in err

    # SMALL_PDE runs to t_final = 1
    @pytest.mark.parametrize("slices", ["nan", "inf", "0,-inf", "-0.5",
                                        "0,1.5"])
    def test_slices_outside_the_run_exit_usage(self, tmp_path, config_path,
                                               capsys, slices):
        out = tmp_path / "x"
        assert main(["solve", "--config", str(config_path),
                     "--out", str(out), "--slices", slices]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--slices" in err
        assert not out.exists()

    def test_verify_flag_is_a_usage_error(self, tmp_path, config_path):
        # verify is the one way to run the verification bundle
        out = tmp_path / "sv"
        assert main(["solve", "--config", str(config_path), "--out", str(out),
                     "--verify"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("where, misspelled, utility", [
        ((), "modle", DARA_UTIL),
        (("model",), "inflo", DARA_UTIL),
        (("model", "assets"), "mus", DARA_UTIL),
        (("model", "covariance"), "volatility", DARA_UTIL),
        (("model", "decision_set"), "point", DARA_UTIL),
        (("model", "inflow"), "eps", DARA_UTIL),
        (("utility",), "truncation", DARA_UTIL),
        (("utility",), "phi0", DARA_UTIL),   # read by tabulated only
        (("utility",), "a0", {"kind": "arctan"}),   # read by dara only
        (("utility",), "values", {"kind": "tabulated", "x": [-9.0, 9.0],
                                  "phi0": [9.0, 6.0]}),
        (("pde",), "upwnd", DARA_UTIL),
        (("pde",), "boundary_values", DARA_UTIL),
        (("pde", "boundary"), "rigth", DARA_UTIL),
        (("checks",), "n_pairs", DARA_UTIL),
    ], ids=lambda v: ".".join(v) or "config" if isinstance(v, tuple)
       else v if isinstance(v, str) else v["kind"])
    def test_unknown_key_exits_config(self, tmp_path, capsys, where,
                                      misspelled, utility):
        doc = {
            "model": {
                "assets": {"mu": [MU_S, MU_B]},
                "covariance": {"volatilities": [0.169, 0.0082],
                               "correlation": [[1.0, -0.1151],
                                               [-0.1151, 1.0]]},
                "decision_set": {"points": [[0.8, 0.2], [0.0, 1.0]]},
                "inflow": {"eps_rate": 1.0, "y_minus": 1.0, "y_plus": 2.0},
            },
            "utility": dict(utility),
            "pde": {**SMALL_PDE,
                    "boundary": {"kind": "dirichlet", "left": 6, "right": 9}},
            "checks": {"seed": 1},
        }
        section = doc
        for key in where:
            section = section[key]
        section[misspelled] = 1.0
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "sol"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        named = ".".join(where or ("config",)) + "." + misspelled
        assert err.count("\n") == 1 and f"{named}: unknown key" in err
        assert not out.exists()

    # dx overflows; 1/dx^2 overflows; dx is 0; 1/dtau overflows
    @pytest.mark.parametrize("change", [
        {"x_min": -1e308, "x_max": 1e308},
        {"x_min": -1e-300, "x_max": 1e-300},
        {"x_min": -5e-324, "x_max": 5e-324},
        {"t_final": 1e-310, "n_steps": 10},
    ], ids=["dx", "inv_dx2", "zero_dx", "inv_dtau"])
    def test_degenerate_grid_or_step_exits_config(self, tmp_path, capsys,
                                                  change):
        cfg = write_config(tmp_path / "tiny.json", utility=DARA_UTIL,
                           pde={**SMALL_PDE, **change})
        out = tmp_path / "sol"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(
            "configuration error: pde: ")
        assert not out.exists()

    # 1/dx^2 underflows to 0 and the run would have no diffusion; the ghost
    # value 2 * 1e308 of a wall overflows; 1 / y_minus of the ramp overflows
    @pytest.mark.parametrize("pde_change, model_extra, named", [
        ({"x_min": -1.79e308, "x_max": -1.7e308, "n_cells": 50,
          "n_steps": 10}, None, "pde: cell width"),
        ({"n_cells": 50, "n_steps": 10,
          "boundary": {"left": 1e308, "right": 6.0}}, None,
         "pde: dirichlet wall value"),
        ({"n_cells": 50, "n_steps": 10},
         {"inflow": {"eps_rate": 1.0, "y_minus": 1e-320, "y_plus": 2e-320}},
         "model.inflow: ramp"),
    ], ids=["grid", "walls", "ramp"])
    def test_degenerate_input_exits_config(self, tmp_path, capsys,
                                           pde_change, model_extra, named):
        cfg = write_config(tmp_path / "edge.json", utility=DARA_UTIL,
                           pde={**SMALL_PDE, **pde_change},
                           model_extra=model_extra)
        out = tmp_path / "sol"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(
            f"configuration error: {named}")
        assert not out.exists()

    def test_missing_sections(self, tmp_path):
        cfg = write_config(tmp_path / "bare.json")  # model only
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("section, key, value, named", [
        ("model", "assets", {"mu": ["a", 1]}, "mu"),
        ("model", "covariance", {"volatilities": [0.169, 0.0082],
                                 "correlation": [[1.0, -0.1], [-0.1]]},
         "correlation"),
        ("model", "decision_set", {"points": [[1.0, 0.0], "x"]}, "points"),
        ("utility", "a0", "abc", "a0"),
        ("utility", "truncation_gamma", "abc", "truncation_gamma"),
        ("pde", "n_cells", "abc", "n_cells"),
        ("pde", "cutoff_m", "abc", "cutoff_m"),
        ("pde", "cutoff_m", -1, "cutoff_m"),
        ("pde", "boundary", {"left": "x"}, "left"),
        ("pde", "boundary", {"kind": "neumann"}, "boundary"),
        ("pde", "boundary", {"kind": "robin"}, "boundary"),
        ("pde", "picard_max", 0, "picard_max"),
        ("pde", "n_steps", 2.5, "n_steps"),
        ("pde", "upwind", "false", "upwind"),
        ("pde", "t_final", float("nan"), "t_final"),
        ("pde", "x_min", float("-inf"), "x_min"),
        ("model", "drift_mode", [], "model.drift_mode"),
        ("model", "drift_mode", 0, "model.drift_mode"),
        ("model", "drift_mode", False, "model.drift_mode"),
        ("model", "drift_mode", "nonsense", "drift_mode"),
        ("pde", "n_cells", 10**12, "pde.n_cells"),
        ("pde", "n_steps", 10**9, "pde.n_steps"),
        # every run clamps at M = max|alpha(x, phi0)|: no level, auto level
        # or unclamped run is a setting
        ("pde", "cutoff_m", None, "pde.cutoff_m: unknown key"),
        ("pde", "cutoff_m", "auto", "pde.cutoff_m: unknown key"),
        ("pde", "cutoff_m", 0.5, "pde.cutoff_m: unknown key"),
    ])
    def test_malformed_config_exits_config(self, tmp_path, capsys, section,
                                           key, value, named):
        utility, pde = dict(DARA_UTIL), dict(SMALL_PDE)
        extra = {"utility": utility, "pde": pde, "model": {}}
        extra[section][key] = value
        cfg = write_config(tmp_path / "bad.json", utility=utility, pde=pde,
                           model_extra=extra["model"])
        out = tmp_path / "sol"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err
        assert not out.exists()

    # positive definite covariances that the volatilities and correlations
    # do not describe: variances doubled, rho's sign flipped, rho set to 0
    @pytest.mark.parametrize("vols, corr, named", [
        ([0.169, 0.0082], [[2.0, -0.1151], [-0.1151, 2.0]], "correlation"),
        ([-0.169, 0.0082], [[1.0, -0.1151], [-0.1151, 1.0]], "volatilities"),
        ([0.169, 0.0082], [[1.0, -0.1151], [0.1151, 1.0]], "correlation"),
    ], ids=["diagonal-2", "negative-vol", "asymmetric"])
    def test_inconsistent_covariance_exits_config(self, tmp_path, capsys,
                                                  vols, corr, named):
        cfg = write_config(
            tmp_path / "bad.json", utility=DARA_UTIL, pde=SMALL_PDE,
            model_extra={"covariance": {"volatilities": vols,
                                        "correlation": corr}})
        out = tmp_path / "sol"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"configuration error: model.covariance.{named}: " in err
        assert not out.exists()

    @pytest.mark.parametrize("model_extra, named", [
        ({"covariance": {"volatilities": [[0.169], [0.0082]],
                         "correlation": [[1.0, -0.1151], [-0.1151, 1.0]]}},
         "model.covariance.volatilities"),
        ({"covariance": {"volatilities": [[0.169, 0.0082]],
                         "correlation": [[1.0, -0.1151], [-0.1151, 1.0]]}},
         "model.covariance.volatilities"),
        ({"assets": {"mu": 0.1028}}, "model.assets.mu"),
        ({"assets": {"mu": [[0.1028, 0.0516]]}}, "model.assets.mu"),
    ], ids=["vols-column", "vols-row", "mu-number", "mu-nested"])
    def test_nested_or_bare_vectors_exit_config(self, tmp_path, capsys,
                                                model_extra, named):
        cfg = write_config(tmp_path / "bad.json", utility=DARA_UTIL,
                           pde=SMALL_PDE, model_extra=model_extra)
        out = tmp_path / "sol"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"configuration error: {named}: expected a list" in err
        assert not out.exists()


class TestVerify:
    def test_standard_run_passes(self, tmp_path, config_path):
        out = tmp_path / "v"
        assert main(["verify", "--config", str(config_path),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["passed"]
        assert set(payload["checks"]) == {
            "monotonicity", "maximum-principle", "energy-estimate"}
        assert set(payload["info"]) == {"contraction-budget",
                                        "grid-convergence"}
        energy = payload["checks"]["energy-estimate"]["context"]
        for run in ("coarse", "fine"):
            assert set(energy[run]) == {
                "energy", "ratio", "sup_hminus1_sq", "int_l2_sq", "rhs_data",
                "n_cells", "n_steps"}

    def test_contraction_budget_is_info(self, tmp_path, config_path, capsys):
        # t0 > 0 holds by construction, so the budget reports numbers and
        # no pass/fail; `passed` covers the checks alone
        out = tmp_path / "v"
        assert main(["verify", "--config", str(config_path),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "verify.json").read_text())
        _, model, utility, pde_cfg, _ = load_run(config_path)
        info = payload["info"]["contraction-budget"]
        assert info == contraction_budget(model,
                                          solve(model, utility, pde_cfg))
        assert info["windows"] > 1   # far beyond one contraction window
        assert payload["passed"] == all(
            c["passed"] for c in payload["checks"].values())
        stdout = capsys.readouterr().out
        assert "INFO contraction-budget" in stdout
        assert "PASS contraction-budget" not in stdout

    def test_grid_convergence_is_info(self, tmp_path, config_path, capsys):
        # the record compares the run with the energy check's refined twin;
        # it reports numbers and no pass/fail
        out = tmp_path / "v"
        assert main(["verify", "--config", str(config_path),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "verify.json").read_text())
        _, model, utility, pde_cfg, _ = load_run(config_path)
        fine_cfg = PDEConfig(
            grid=SpatialGrid(pde_cfg.grid.x_min, pde_cfg.grid.x_max,
                             2 * pde_cfg.grid.n_cells),
            t_final=pde_cfg.t_final, n_steps=2 * pde_cfg.n_steps,
            upwind=pde_cfg.upwind)
        assert payload["info"]["grid-convergence"] == grid_convergence(
            solve(model, utility, pde_cfg), solve(model, utility, fine_cfg))
        stdout = capsys.readouterr().out
        assert "INFO grid-convergence" in stdout
        assert "PASS grid-convergence" not in stdout

    def test_adversarial_boundary_fails(self, tmp_path):
        pde = dict(SMALL_PDE)
        pde["boundary"] = {"kind": "dirichlet", "left": 6.0, "right": 0.5}
        pde["t_final"], pde["n_steps"] = 4.0, 40
        cfg = write_config(tmp_path / "bad.json", utility=DARA_UTIL, pde=pde)
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        payload = json.loads((out / "verify.json").read_text())
        assert not payload["checks"]["maximum-principle"]["passed"]

    @pytest.mark.parametrize("checks", [
        {"phi_range": [1.0, 1.0]}, {"phi_range": [1.0]}, {"n_pairs": "abc"},
        {"n_pairs": 0}, {"n_pairs": 10**30}, {"tolerance": -1.0},
        {"seed": 2.5}])
    def test_malformed_checks_exit_config(self, tmp_path, capsys, checks):
        cfg = write_config(tmp_path / "bad.json", utility=DARA_UTIL,
                           pde=SMALL_PDE, checks=checks)
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"checks.{next(iter(checks))}" in err
        assert not out.exists()  # rejected before the solve

    @pytest.mark.parametrize("doc_seed, flag_seed, used", [
        (None, None, "default"), (7, None, 7), (7, 3, 3), (None, 0, 0)])
    def test_seed_of_the_certificate(self, tmp_path, doc_seed, flag_seed,
                                     used):
        # --seed overrides the document's seed; with neither, the
        # certificate's own default applies
        default = inspect.signature(
            monotonicity_certificate).parameters["seed"].default
        cfg = write_config(
            tmp_path / "run.json", utility=DARA_UTIL, pde=SMALL_PDE,
            checks=None if doc_seed is None else {"seed": doc_seed})
        out = tmp_path / "v"
        argv = ["verify", "--config", str(cfg), "--out", str(out)]
        if flag_seed is not None:
            argv += ["--seed", str(flag_seed)]
        assert main(argv) == 0
        payload = json.loads((out / "verify.json").read_text())
        seed = payload["checks"]["monotonicity"]["context"]["seed"]
        assert seed == (default if used == "default" else used)

    def test_negative_seed_exit_config(self, tmp_path, config_path, capsys):
        out = tmp_path / "v"
        assert main(["verify", "--config", str(config_path), "--out", str(out),
                     "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_bound_exits_through_checks(self, tmp_path, capsys):
        # lambda is about 131, so M e^{lam T} overflows at T = 20: the budget
        # reports t0 = 0 and no window count instead of raising
        cfg = write_config(
            tmp_path / "run.json",
            model_extra={"inflow": {"eps_rate": 50.0, "y_minus": 1.0,
                                    "y_plus": 1.5}},
            utility=DARA_UTIL,
            pde={**SMALL_PDE, "n_cells": 40, "t_final": 20.0, "n_steps": 20})
        out = tmp_path / "v"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        payload = json.loads((out / "verify.json").read_text())
        assert code == (0 if payload["passed"] else 1)
        info = payload["info"]["contraction-budget"]
        assert info["t0"] == 0.0 and info["windows"] is None
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("utility, pde", [(None, SMALL_PDE),
                                              (DARA_UTIL, None)],
                             ids=["no-utility", "no-pde"])
    def test_missing_section_exits_config(self, tmp_path, capsys, utility,
                                          pde):
        cfg = write_config(tmp_path / "part.json", utility=utility, pde=pde)
        out = tmp_path / "x"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: verify needs both a utility and a pde "
            "section\n")
        assert not out.exists()

    def test_dirichlet_wall_is_required(self, tmp_path, capsys):
        pde = dict(SMALL_PDE, boundary={"kind": "dirichlet", "right": 1.0})
        cfg = write_config(tmp_path / "wall.json", utility=DARA_UTIL, pde=pde)
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: pde.boundary: missing key 'left'\n")

    # beta_tilde^2 of a near-singular covariance and the window count of a
    # horizon near the float limit raised OverflowError, and the energy's
    # time integral overflowed with a RuntimeWarning
    @pytest.mark.parametrize("model_extra, utility, t_final, code, t0", [
        ({"covariance": [[6.9e-234, 0.0], [0.0, 6.7e-5]]}, DARA_UTIL, 1.0,
         0, 0.0),
        (None, {"kind": "dara", "a0": 9.0, "a1": 9.0, "x_star": 0.0,
                "truncation_gamma": None}, 1e308, 1, None),
    ], ids=["tiny-variance", "long-horizon"])
    def test_budget_beyond_the_float_range(self, tmp_path, model_extra,
                                           utility, t_final, code, t0):
        pde = {**SMALL_PDE, "n_cells": 8, "n_steps": 1, "t_final": t_final}
        cfg = write_config(tmp_path / "far.json", utility=utility,
                           pde=pde, model_extra=model_extra)
        out = tmp_path / "x"
        assert main(["verify", "--config", str(cfg),
                     "--out", str(out)]) == code
        payload = json.loads((out / "verify.json").read_text())
        budget = payload["info"]["contraction-budget"]
        assert budget["windows"] is None
        assert t0 is None or budget["t0"] == t0
        energy = payload["checks"]["energy-estimate"]
        assert energy["passed"] == (code == 0)

    def test_twin_step_out_of_range_exits_config(self, tmp_path, capsys):
        # the run's 1/dtau is finite, the refined twin's overflows: a bad
        # setting, as a twin grid that is too fine, not a solver failure
        utility = {"kind": "tabulated", "x": [-8.0, 8.0], "phi0": [0.0, 0.0]}
        pde = {**SMALL_PDE, "n_cells": 40, "t_final": 4e-308, "n_steps": 5}
        cfg = write_config(tmp_path / "twin.json", utility=utility, pde=pde)
        assert main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: time step t_final / n_steps = 4.000e-309 "
            "is out of range: 1/dtau is not finite\n")

    def test_missing_config_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")]) == 2

    def test_usage_error_distinct(self):
        assert main(["verify"]) == 2  # missing required --config

    def test_invalid_json_reports_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["verify", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 2


class TestModelInput:
    def test_empty_mu_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "empty.json",
                           model_extra={"assets": {"mu": []},
                                        "covariance": []})
        assert main(["alpha-curve", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: model.assets.mu: need at least one asset, "
            "got []\n")

    # the two-asset constant (mu1 - mu2) / (S11 - 2 S12 + S22) overflowed
    # from the first two, which ended in an OverflowError; the QP of the
    # third in a ValueError
    @pytest.mark.parametrize("mu, cov", [
        ([1e308, MU_B], two_asset_sigma().tolist()),
        ([1e308, -1e308], two_asset_sigma().tolist()),
        ([1e308, 0.05, 0.02], np.diag([0.04, 0.03, 0.02]).tolist()),
    ], ids=["stocks-bonds", "opposite", "three-assets"])
    @pytest.mark.parametrize("command", ["solve", "alpha-curve"])
    def test_mu_out_of_range_is_named(self, tmp_path, capsys, mu, cov,
                                      command):
        cfg = write_config(tmp_path / "huge.json", utility=DARA_UTIL,
                           pde=SMALL_PDE,
                           model_extra={"assets": {"mu": mu},
                                        "covariance": cov})
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: model.assets.mu: out of range for "
            "model.covariance: ")

    # the symmetrizing sum of the covariance overflowed its 1e308 diagonal
    # to inf, on which the eigenvalue check of the mu scale did not converge
    @pytest.mark.parametrize("command", ["solve", "alpha-curve"])
    def test_covariance_near_the_float_limit(self, tmp_path, command):
        cov = [[0.04, 0.01, 0.0], [0.01, 1e308, 0.02], [0.0, 0.02, 0.06]]
        cfg = write_config(tmp_path / "wide.json", utility=DARA_UTIL,
                           pde=SMALL_PDE,
                           model_extra={"assets": {"mu": [0.08, 0.05, 0.02]},
                                        "covariance": cov})
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 0

    # each raised a RuntimeWarning, which the suite makes an error: the
    # upwind face flux of a sweep overflowed, the truncation taper divided
    # 1e308 by dx, and the inflow ramp's slope formed eps_rate * 6 times 0
    @pytest.mark.parametrize("model_extra, utility, code, message", [
        ({"covariance": [[0.04, 0.0], [0.0, 1e300]]},
         {**DARA_UTIL, "a0": 1e300}, 3,
         "solver error: non-finite update at tau=0.2\n"),
        (None, {**DARA_UTIL, "truncation_gamma": 1e308}, 0, ""),
        ({"inflow": {"eps_rate": 1e308, "y_minus": 1.0, "y_plus": 3.0}},
         DARA_UTIL, 3, "solver error: non-finite update at tau=0.2\n"),
    ], ids=["sweep", "taper", "ramp"])
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_extreme_input_ends_without_a_warning(self, tmp_path, capsys,
                                                  command, model_extra,
                                                  utility, code, message):
        cfg = write_config(tmp_path / "extreme.json", utility=utility,
                           pde={**SMALL_PDE, "n_cells": 40, "n_steps": 5},
                           model_extra=model_extra)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == code
        assert capsys.readouterr().err == message


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usage_error_after_a_command(self, tmp_path, config_path):
        # the kept parser holds no state of an earlier call
        out = tmp_path / "curve"
        assert main(["alpha-curve", "--config", str(config_path),
                     "--out", str(out), "--n-points", "5"]) == 0
        assert main(["alpha-curve", "--out", str(out)]) == 2
        assert main(["verify"]) == 2
        assert main(["alpha-curve", "--config", str(config_path),
                     "--out", str(out), "--n-points", "5"]) == 0


class TestMms:
    def test_study_runs_and_reports_orders(self, tmp_path):
        out = tmp_path / "mms"
        assert main(["mms", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert all(o >= 1.7 for o in man["orders"]["spatial"])
        assert all(o >= 0.7 for o in man["orders"]["temporal"])
        assert (out / "mms_convergence.csv").exists()

    def test_csv_lines_are_the_study(self, tmp_path):
        out = tmp_path / "mms"
        assert main(["mms", "--out", str(out)]) == 0
        study = mms_convergence_study()
        expected = ["refinement,n_cells,n_steps,max_error"]
        for kind in ("spatial", "temporal"):
            tab = study[kind]
            expected += [f"{kind},{cells},{steps},{error!r}"
                         for cells, steps, error in zip(
                             tab["n_cells"], tab["n_steps"], tab["error"])]
        assert len(expected) > 2
        assert (out / "mms_convergence.csv").read_text() == \
            "\n".join(expected) + "\n"


class TestExamplesScript:
    def test_writes_every_artifact(self, tmp_path):
        repo = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(repo / "src")}
        out = tmp_path / "examples"
        run = subprocess.run(
            [sys.executable, str(repo / "scripts" / "run_examples.py"),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        slices = [f"slice_tau_{t}.csv" for t in (0, 1, 2, 5, 10)]
        expected = {
            "stocks_bonds.json", "three_funds.json", "constant_nine.json",
            "alpha_simplex/alpha_curve.csv", "alpha_menu/alpha_curve.csv",
            "weights/weights_path.csv", "verify/verify.json",
            "mms/mms_convergence.csv",
            *(f"{d}/manifest.json" for d in (
                "alpha_simplex", "alpha_menu", "weights", "profile_const",
                "profile_dara", "verify", "mms")),
            *(f"{d}/{name}" for d in ("profile_const", "profile_dara")
              for name in slices),
        }
        written = {p.relative_to(out).as_posix()
                   for p in out.rglob("*") if p.is_file()}
        assert written == expected
