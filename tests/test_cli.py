import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from riccati_hjb import AlphaEngineError, alpha, contraction_budget, solve
from riccati_hjb.config import load_run
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
                        pde=SMALL_PDE, checks={"n_pairs": 120})


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

    @pytest.mark.parametrize("n_points", ["0", "-3"])
    def test_bad_n_points_exits_usage(self, tmp_path, config_path, capsys,
                                      n_points):
        assert main(["alpha-curve", "--config", str(config_path),
                     "--out", str(tmp_path / "x"),
                     "--n-points", n_points]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--n-points" in err

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
        sweeps = [d.picard_iterations
                  for d in solve(model, utility, pde_cfg).diagnostics]
        diag = man["diagnostics"]
        assert diag["total_sweeps"] == sum(sweeps)
        assert diag["mean_sweeps_per_step"] == sum(sweeps) / SMALL_PDE["n_steps"]
        counts = diag["sweeps_per_step_counts"]
        assert sum(counts.values()) == SMALL_PDE["n_steps"]
        assert counts == {str(n): sweeps.count(n) for n in set(sweeps)}

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
        def fail(sigma, mu, rho):
            raise AlphaEngineError("active-set iteration did not converge "
                                   f"at rho={rho!r}, n={len(mu)}")

        monkeypatch.setattr(alpha, "_active_set_qp", fail)
        cfg = write_config(
            tmp_path / "three.json", utility=DARA_UTIL,
            pde={**SMALL_PDE, "n_cells": 20, "n_steps": 2},
            model_extra={"assets": {"mu": [0.10, 0.07, 0.05]},
                         "covariance": np.diag([0.04, 0.02, 0.01]).tolist()})
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "sol")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("solver error: ")

    def test_bad_slices_exits_usage(self, tmp_path, config_path, capsys):
        assert main(["solve", "--config", str(config_path),
                     "--out", str(tmp_path / "x"), "--slices", "0,abc"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--slices" in err

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


class TestVerify:
    def test_standard_run_passes(self, tmp_path, config_path):
        out = tmp_path / "v"
        assert main(["verify", "--config", str(config_path),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["passed"]
        assert set(payload["checks"]) == {
            "monotonicity", "maximum-principle", "energy-estimate",
            "energy-refinement"}
        assert set(payload["info"]) == {"contraction-budget"}

    def test_contraction_budget_is_info(self, tmp_path, config_path, capsys):
        # t0 > 0 holds by construction, so the budget reports numbers and
        # no pass/fail; `passed` covers the checks alone
        out = tmp_path / "v"
        assert main(["verify", "--config", str(config_path),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "verify.json").read_text())
        _, model, utility, pde_cfg, _ = load_run(config_path)
        budget = contraction_budget(model, solve(model, utility, pde_cfg))
        info = payload["info"]["contraction-budget"]
        assert info == {
            "omega": budget.omega, "beta": budget.beta,
            "beta_tilde": budget.beta_tilde, "t0": budget.t0,
            "horizon": budget.horizon, "windows": budget.windows(),
            "horizon_exceeds_t0": budget.horizon > budget.t0}
        assert info["windows"] > 1   # far beyond one contraction window
        assert payload["passed"] == all(
            c["passed"] for c in payload["checks"].values())
        stdout = capsys.readouterr().out
        assert "INFO contraction-budget" in stdout
        assert "PASS contraction-budget" not in stdout

    def test_adversarial_boundary_fails(self, tmp_path):
        pde = dict(SMALL_PDE)
        pde["boundary"] = {"kind": "dirichlet", "left": 6.0, "right": 0.5}
        pde["t_final"], pde["n_steps"] = 4.0, 40
        cfg = write_config(tmp_path / "bad.json", utility=DARA_UTIL, pde=pde,
                           checks={"n_pairs": 50})
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
            pde={**SMALL_PDE, "n_cells": 40, "t_final": 20.0, "n_steps": 20,
                 "cutoff_m": None},
            checks={"n_pairs": 50})
        out = tmp_path / "v"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        payload = json.loads((out / "verify.json").read_text())
        assert code == (0 if payload["passed"] else 1)
        info = payload["info"]["contraction-budget"]
        assert info["t0"] == 0.0 and info["windows"] is None
        assert capsys.readouterr().err == ""

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


class TestSolveVerifyInline:
    def test_inline_checks_recorded(self, tmp_path, config_path):
        out = tmp_path / "sv"
        assert main(["solve", "--config", str(config_path), "--out", str(out),
                     "--verify"]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["checks"]["maximum-principle"]["passed"]
        assert "contraction-budget" not in man["checks"]
        assert man["info"]["contraction-budget"]["t0"] > 0


class TestMms:
    def test_study_runs_and_reports_orders(self, tmp_path):
        out = tmp_path / "mms"
        assert main(["mms", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert all(o >= 1.7 for o in man["orders"]["spatial"])
        assert all(o >= 0.7 for o in man["orders"]["temporal"])
        assert (out / "mms_convergence.csv").exists()


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
