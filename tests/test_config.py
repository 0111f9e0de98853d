import json

import numpy as np
import pytest

from riccati_hjb.config import (
    ConfigError,
    build_model,
    build_pde,
    build_utility,
    build_checks,
    load_document,
)
from two_asset_data import MU_S, MU_B, VOL_S, VOL_B, CORR, two_asset_sigma


def base_doc():
    return {
        "model": {
            "assets": {"mu": [MU_S, MU_B]},
            "covariance": two_asset_sigma().tolist(),
        },
        "utility": {"kind": "dara", "a0": 9.0, "a1": 6.0, "x_star": 2.0},
        "pde": {"x_min": -8.0, "x_max": 8.0, "n_cells": 64,
                "t_final": 1.0, "n_steps": 8},
    }


class TestModelSection:
    def test_covariance_from_volatilities(self):
        doc = base_doc()
        doc["model"]["covariance"] = {
            "volatilities": [VOL_S, VOL_B],
            "correlation": [[1.0, CORR], [CORR, 1.0]],
        }
        model = build_model(doc)
        np.testing.assert_allclose(model.sigma, two_asset_sigma(), atol=1e-15)

    def test_inflow_forces_log_wealth(self):
        doc = base_doc()
        doc["model"]["inflow"] = {"eps_rate": 1.0, "y_minus": 1.0,
                                  "y_plus": 2.0}
        model = build_model(doc)
        assert model.drift_mode == "log_wealth"

    def test_bad_inflow_reported_with_path(self):
        doc = base_doc()
        doc["model"]["inflow"] = {"eps_rate": 1.0, "y_minus": 2.0,
                                  "y_plus": 1.0}
        with pytest.raises(ConfigError, match="model.inflow"):
            build_model(doc)

    def test_missing_key_reported(self):
        doc = base_doc()
        del doc["model"]["assets"]
        with pytest.raises(ConfigError, match="missing key 'assets'"):
            build_model(doc)

    def test_bad_decision_set(self):
        doc = base_doc()
        doc["model"]["decision_set"] = "everything"
        with pytest.raises(ConfigError, match="decision_set"):
            build_model(doc)

    def test_correlation_shape_mismatch(self):
        doc = base_doc()
        doc["model"]["covariance"] = {"volatilities": [0.1, 0.2],
                                      "correlation": [[1.0]]}
        with pytest.raises(ConfigError, match="correlation shape"):
            build_model(doc)


class TestUtilitySection:
    def test_arctan(self):
        doc = base_doc()
        doc["utility"] = {"kind": "arctan", "truncation_gamma": 5.0}
        util = build_utility(doc)
        assert util.truncation_gamma == 5.0
        assert util.phi0_raw(1.0) == pytest.approx(1.0)

    def test_tabulated(self):
        doc = base_doc()
        doc["utility"] = {"kind": "tabulated", "x": [-1.0, 0.0, 1.0],
                          "phi0": [2.0, 3.0, 2.0]}
        util = build_utility(doc)
        assert util.truncation_gamma is None
        assert util.phi0_raw(0.0) == 3.0

    def test_null_gamma_disables_truncation(self):
        doc = base_doc()
        doc["utility"]["truncation_gamma"] = None
        assert build_utility(doc).truncation_gamma is None

    def test_unknown_kind(self):
        doc = base_doc()
        doc["utility"]["kind"] = "quadratic"
        with pytest.raises(ConfigError, match="unknown kind"):
            build_utility(doc)

    def test_invalid_dara_parameters(self):
        doc = base_doc()
        doc["utility"]["a0"] = -1.0
        with pytest.raises(ConfigError, match="utility"):
            build_utility(doc)


class TestPdeSection:
    def test_defaults_applied(self):
        cfg = build_pde(base_doc())
        assert cfg.picard_tol == 1e-10
        assert cfg.cutoff_m == "auto"
        assert cfg.boundary == "neumann"
        assert not cfg.upwind

    def test_dirichlet_block(self):
        doc = base_doc()
        doc["pde"]["boundary"] = {"kind": "dirichlet", "left": 1.0,
                                  "right": 2.0}
        cfg = build_pde(doc)
        assert cfg.boundary == "dirichlet"
        assert cfg.dirichlet_values == (1.0, 2.0)

    def test_manual_cutoff_level(self):
        doc = base_doc()
        doc["pde"]["cutoff_m"] = 0.5
        assert build_pde(doc).cutoff_m == 0.5

    def test_invalid_grid_reported(self):
        doc = base_doc()
        doc["pde"]["n_cells"] = 2
        with pytest.raises(ConfigError, match="pde"):
            build_pde(doc)


class TestChecksAndDocument:
    def test_checks_defaults(self):
        checks = build_checks({})
        assert checks == {"seed": 42, "n_pairs": 1000,
                          "phi_range": (0.1, 50.0), "tolerance": 1e-8}

    def test_checks_values_kept(self):
        checks = build_checks({"checks": {"seed": 7, "n_pairs": 3,
                                          "phi_range": [0.5, 2],
                                          "tolerance": 0}})
        assert checks == {"seed": 7, "n_pairs": 3, "phi_range": (0.5, 2.0),
                          "tolerance": 0.0}

    @pytest.mark.parametrize("key, value", [
        ("n_pairs", 0), ("n_pairs", -3), ("n_pairs", "abc"), ("n_pairs", 10.5),
        ("n_pairs", True),
        ("phi_range", [1.0, 1.0]), ("phi_range", [1.0]), ("phi_range", [2.0, 1.0]),
        ("phi_range", [0.0, 1.0]), ("phi_range", [1.0, 1.0 + 1e-6]),
        ("phi_range", [1.0, float("inf")]), ("phi_range", [float("nan"), 1.0]),
        ("phi_range", ["a", "b"]), ("phi_range", 5.0),
        ("tolerance", -1e-9), ("tolerance", float("nan")), ("tolerance", "abc"),
        ("tolerance", None),
        ("seed", "abc"), ("seed", 1.5), ("seed", -1),
    ])
    def test_malformed_checks_name_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"checks.{key}"):
            build_checks({"checks": {key: value}})

    def test_document_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_document(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level"):
            load_document(bad)
        syntax = tmp_path / "syntax.json"
        syntax.write_text("{,}")
        with pytest.raises(ConfigError, match="line 1"):
            load_document(syntax)

    def test_round_trip(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(base_doc()))
        doc = load_document(p)
        assert build_model(doc).n == 2
