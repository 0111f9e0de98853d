import json

import numpy as np
import pytest
import scipy

from riccati_hjb import solve
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

    def test_bad_slices_exits_usage(self, tmp_path, config_path, capsys):
        assert main(["solve", "--config", str(config_path),
                     "--out", str(tmp_path / "x"), "--slices", "0,abc"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--slices" in err

    def test_missing_sections(self, tmp_path):
        cfg = write_config(tmp_path / "bare.json")  # model only
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2


class TestVerify:
    def test_standard_run_passes(self, tmp_path, config_path):
        out = tmp_path / "v"
        assert main(["verify", "--config", str(config_path),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["passed"]
        assert set(payload["checks"]) == {
            "monotonicity", "maximum-principle", "energy-estimate",
            "energy-refinement", "contraction-budget"}

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
        {"n_pairs": 0}, {"tolerance": -1.0}, {"seed": 2.5}])
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


class TestMms:
    def test_study_runs_and_reports_orders(self, tmp_path):
        out = tmp_path / "mms"
        assert main(["mms", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert all(o >= 1.7 for o in man["orders"]["spatial"])
        assert all(o >= 0.7 for o in man["orders"]["temporal"])
        assert (out / "mms_convergence.csv").exists()
