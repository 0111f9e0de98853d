import dataclasses
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from riccati_hjb import config
from riccati_hjb.analysis import monotonicity_certificate
from riccati_hjb.config import (
    ConfigError,
    build_model,
    build_pde,
    build_utility,
    build_checks,
    load_document,
    load_run,
)
from riccati_hjb.model import (
    ArctanUtility,
    DaraUtility,
    DecisionSet,
    PortfolioModel,
    SpatialGrid,
    TabulatedPhi0,
)
from riccati_hjb.pde import PDEConfig
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

    # each of these gives a positive definite covariance that is not the
    # one its volatilities and correlations describe: a diagonal of 2
    # doubles each variance, a negative volatility flips the sign of rho,
    # and an antisymmetric rho is symmetrized to 0
    @pytest.mark.parametrize("vols, corr, named", [
        ([0.2, 0.1], [[2.0, 0.3], [0.3, 2.0]], "correlation"),
        ([-0.2, 0.1], [[1.0, 0.3], [0.3, 1.0]], "volatilities"),
        ([0.2, 0.0], [[1.0, 0.3], [0.3, 1.0]], "volatilities"),
        ([0.2, 0.1], [[1.0, 0.3], [-0.3, 1.0]], "correlation"),
        ([0.2, 0.1], [[1.0, 0.3], [0.3, 1.0 - 1e-16]], "correlation"),
    ], ids=["diagonal-2", "negative-vol", "zero-vol", "asymmetric",
            "diagonal-below-1"])
    def test_volatilities_and_correlation_are_checked(self, vols, corr,
                                                      named):
        doc = base_doc()
        doc["model"]["covariance"] = {"volatilities": vols,
                                      "correlation": corr}
        with pytest.raises(ConfigError,
                           match=rf"^model\.covariance\.{named}: "):
            build_model(doc)

    # the outer product of the volatilities overflowed with a RuntimeWarning
    def test_covariance_beyond_the_float_range(self):
        doc = base_doc()
        doc["model"]["covariance"] = {
            "volatilities": [1e308, VOL_B],
            "correlation": [[1.0, CORR], [CORR, 1.0]],
        }
        with pytest.raises(ConfigError,
                           match=r"^model: covariance must be finite, "):
            build_model(doc)

    # a bad menu reached the command line without its key path
    @pytest.mark.parametrize("points, message", [
        ([[0.0, 0.2], [0.5, 0.5]],
         "discrete point 0 is off the simplex: sum=0.2"),
        ([[0.5, 0.5], [0.5, 0.5]], "discrete points 0 and 1 are duplicates"),
        ([], "discrete decision set must be non-empty"),
    ], ids=["off-simplex", "duplicates", "empty"])
    def test_menu_errors_name_the_points(self, points, message):
        doc = base_doc()
        doc["model"]["decision_set"] = {"points": points}
        with pytest.raises(ConfigError, match=(
                rf"^model\.decision_set\.points: {message}$")):
            build_model(doc)

    # np.array would take each of these, and np.outer or the model would
    # flatten or broadcast it: a 1-d list is the only form that says how
    # many assets there are
    @pytest.mark.parametrize("key, value", [
        ("volatilities", [[VOL_S], [VOL_B]]),
        ("volatilities", [[VOL_S, VOL_B]]),
        ("mu", MU_S),
        ("mu", [[MU_S, MU_B]]),
    ], ids=["vols-column", "vols-row", "mu-number", "mu-nested"])
    def test_vectors_must_be_flat_lists(self, key, value):
        doc = base_doc()
        if key == "mu":
            doc["model"]["assets"]["mu"] = value
            where = r"model\.assets\.mu"
        else:
            doc["model"]["covariance"] = {
                "volatilities": value,
                "correlation": [[1.0, CORR], [CORR, 1.0]]}
            where = r"model\.covariance\.volatilities"
        with pytest.raises(ConfigError, match=rf"^{where}: expected a list "
                                              r"of finite numbers, got "):
            build_model(doc)


    def test_scalar_covariance_is_one_asset(self):
        doc = base_doc()
        doc["model"]["assets"]["mu"] = [0.06]
        doc["model"]["covariance"] = 0.04
        assert build_model(doc).sigma.tolist() == [[0.04]]

    @pytest.mark.parametrize("mu, points, message", [
        ([0.1, 0.05, 0.07], None,
         r"covariance shape \(2, 2\) does not match 3 assets"),
        ([MU_S, MU_B], [[0.5, 0.25, 0.25]], "decision set dimension 3 != 2 "
                                            "assets"),
    ], ids=["covariance-shape", "menu-dimension"])
    def test_model_errors_name_the_section(self, mu, points, message):
        doc = base_doc()
        doc["model"]["assets"]["mu"] = mu
        if points is not None:
            doc["model"]["decision_set"] = {"points": points}
        with pytest.raises(ConfigError, match=f"^model: {message}$"):
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

    @pytest.mark.parametrize("kind", ["dara", "arctan", "tabulated"])
    def test_truncation_gamma_must_be_positive(self, kind):
        doc = _utility_doc(kind)
        doc["utility"]["truncation_gamma"] = 0
        with pytest.raises(ConfigError, match="^utility: truncation "
                                              "half-width must be positive"):
            build_utility(doc)

    @pytest.mark.parametrize("x, message", [
        ([-1.0, 1.0], "needs matching 1-d x and values"),
        ([-1.0, 1.0, 1.0], "x must be strictly increasing"),
    ])
    def test_tabulated_profile_errors(self, x, message):
        doc = base_doc()
        doc["utility"] = {"kind": "tabulated", "x": x,
                          "phi0": [2.0, 3.0, 2.0]}
        with pytest.raises(ConfigError,
                           match=f"^utility: tabulated profile {message}$"):
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
        assert cfg.picard_max == 100
        assert cfg.dirichlet is None
        assert not cfg.upwind

    def test_dirichlet_block(self):
        doc = base_doc()
        doc["pde"]["boundary"] = {"kind": "dirichlet", "left": 1.0,
                                  "right": 2.0}
        cfg = build_pde(doc)
        assert cfg.dirichlet == (1.0, 2.0)

    @pytest.mark.parametrize("wall", ["left", "right"])
    def test_dirichlet_needs_both_walls(self, wall):
        doc = base_doc()
        doc["pde"]["boundary"] = {"kind": "dirichlet", "left": 1.0,
                                  "right": 2.0}
        del doc["pde"]["boundary"][wall]
        with pytest.raises(ConfigError, match=f"^pde.boundary: missing key "
                                              f"'{wall}'$"):
            build_pde(doc)

    def test_manual_cutoff_level(self):
        # every run clamps at M = max|alpha(x, phi0)|, so a level named in
        # the config is an unknown key
        doc = base_doc()
        doc["pde"]["cutoff_m"] = 0.5
        with pytest.raises(ConfigError, match=r"pde\.cutoff_m: unknown"):
            build_pde(doc)

    def test_invalid_grid_reported(self):
        doc = base_doc()
        doc["pde"]["n_cells"] = 2
        with pytest.raises(ConfigError, match="pde"):
            build_pde(doc)


class TestChecksAndDocument:
    def test_checks_defaults(self):
        # an absent seed is left to the certificate's own default
        assert build_checks({}) == {}

    def test_checks_values_kept(self):
        assert build_checks({"checks": {"seed": 7}}) == {"seed": 7}

    # the seed is the one setting of the checks; the certificate's pair
    # count and phi range and the tolerance are unknown keys
    @pytest.mark.parametrize("key, value", [
        ("n_pairs", 0), ("n_pairs", -3), ("n_pairs", "abc"), ("n_pairs", 10.5),
        ("n_pairs", True),
        ("phi_range", [1.0, 1.0]), ("phi_range", [1.0]), ("phi_range", [2.0, 1.0]),
        ("phi_range", [0.0, 1.0]), ("phi_range", [1.0, 1.0 + 1e-6]),
        ("phi_range", [1.0, float("inf")]), ("phi_range", [float("nan"), 1.0]),
        ("phi_range", ["a", "b"]), ("phi_range", 5.0),
        ("tolerance", -1e-9), ("tolerance", float("nan")), ("tolerance", "abc"),
        ("tolerance", None), ("tolerance", 10**400),
        ("seed", "abc"), ("seed", 1.5), ("seed", -1),
    ])
    def test_malformed_checks_name_the_key(self, key, value):
        with pytest.raises(ConfigError, match=f"checks.{key}"):
            build_checks({"checks": {key: value}})

    # a section that is not an object: read with _known (model, pde,
    # checks), or first through _require (utility, model.assets)
    @pytest.mark.parametrize("build, where, path", [
        (build_model, "model", ("model",)),
        (build_model, "model.assets", ("model", "assets")),
        (build_utility, "utility", ("utility",)),
        (build_pde, "pde", ("pde",)),
        (build_checks, "checks", ("checks",)),
    ])
    def test_non_object_section_is_named(self, build, where, path):
        doc = base_doc()
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = []
        with pytest.raises(ConfigError, match=f"^{re.escape(where)}: expected "
                                              f"an object, got \\[\\]$"):
            build(doc)

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

    def test_readme_example_loads(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        (block,) = re.findall(r"```json\n(.*?)```", readme.read_text(),
                              flags=re.S)
        path = tmp_path / "readme.json"
        path.write_text(block)
        doc, model, utility, pde, checks = load_run(path)
        assert doc == json.loads(block)
        assert model.n == 2 and model.inflow is not None
        assert utility is not None and pde is not None
        assert checks == {"seed": 42}

    def test_round_trip(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(base_doc()))
        doc = load_document(p)
        assert build_model(doc).n == 2


def _field_default(cls, name):
    (default,) = [f.default for f in dataclasses.fields(cls)
                  if f.name == name]
    return default


def _without(doc, section, key):
    doc[section].pop(key, None)
    return doc


def _utility_doc(kind):
    doc = base_doc()
    doc["utility"] = {
        "dara": {"kind": "dara", "a0": 9.0, "a1": 6.0, "x_star": 2.0},
        "arctan": {"kind": "arctan"},
        "tabulated": {"kind": "tabulated", "x": [-1.0, 0.0, 1.0],
                      "phi0": [2.0, 3.0, 2.0]},
    }[kind]
    doc["utility"]["truncation_gamma"] = 5.0
    return doc


class TestDefaultsDeclaredOnce:
    """Every optional key: with the key absent, the built object equals the
    receiving constructor called without it, so the constructor holds the
    only copy of the default."""

    @pytest.mark.parametrize("key, field", [
        ("picard_tol", "picard_tol"), ("picard_max", "picard_max"),
        ("upwind", "upwind"), ("boundary", "dirichlet")])
    def test_pde(self, key, field):
        doc = base_doc()
        doc["pde"].update(picard_tol=1e-8, picard_max=7, upwind=True,
                          boundary={"left": 1.0, "right": 2.0})
        assert getattr(build_pde(doc), field) != \
            _field_default(PDEConfig, field)
        built = build_pde(_without(doc, "pde", key))
        assert getattr(built, field) == _field_default(PDEConfig, field)

    def test_pde_all_absent(self):
        sec = base_doc()["pde"]
        assert build_pde(base_doc()) == PDEConfig(
            grid=SpatialGrid(sec["x_min"], sec["x_max"], sec["n_cells"]),
            t_final=sec["t_final"], n_steps=sec["n_steps"])

    def test_pde_config_holds_only_the_document_settings(self, monkeypatch):
        # every key of a full pde section reaches PDEConfig, and PDEConfig
        # has no field that a document cannot set
        passed = {}

        def recording(**kwargs):
            passed.update(kwargs)
            return PDEConfig(**kwargs)

        monkeypatch.setattr(config, "PDEConfig", recording)
        doc = base_doc()
        doc["pde"].update(picard_tol=1e-8, picard_max=7, upwind=True,
                          boundary={"left": 1.0, "right": 2.0})
        build_pde(doc)
        settings = {"t_final", "n_steps", "picard_tol", "picard_max",
                    "dirichlet", "upwind"}
        assert set(passed) == {"grid"} | settings
        assert {f.name for f in dataclasses.fields(PDEConfig)} == set(passed)

    def test_pde_config_takes_no_source(self):
        grid = SpatialGrid(-1.0, 1.0, 8)
        with pytest.raises(TypeError, match="mms_source"):
            PDEConfig(grid=grid, t_final=1.0, n_steps=4,
                      mms_source=lambda x, tau: x)

    @pytest.mark.parametrize("kind, cls", [
        ("dara", DaraUtility), ("arctan", ArctanUtility),
        ("tabulated", TabulatedPhi0)])
    def test_truncation_gamma(self, kind, cls):
        doc = _utility_doc(kind)
        assert build_utility(doc).truncation_gamma == 5.0
        built = build_utility(_without(doc, "utility", "truncation_gamma"))
        assert built.truncation_gamma == _field_default(cls,
                                                        "truncation_gamma")

    # drift_mode's field default "" resolves in __post_init__, so the model
    # is compared with the constructor called with the other key only
    @pytest.mark.parametrize("key, other", [
        ("inflow", {"drift_mode": "log_wealth"}),
        ("drift_mode", {"inflow": {"eps_rate": 1.0, "y_minus": 1.0,
                                   "y_plus": 2.0}})])
    @pytest.mark.parametrize("absent", [True, False], ids=["absent", "null"])
    def test_model(self, key, other, absent):
        doc = base_doc()
        doc["model"].update(other)
        if not absent:
            doc["model"][key] = None
        built = build_model(doc)
        bare = PortfolioModel(built.mu, built.sigma,
                              DecisionSet.simplex(built.n),
                              **{k: getattr(built, k) for k in other})
        assert getattr(built, key) == getattr(bare, key)
        if key == "inflow":
            assert built.inflow is _field_default(PortfolioModel, "inflow")

    def test_checks_seed(self):
        default = inspect.signature(
            monotonicity_certificate).parameters["seed"].default
        model = build_model(base_doc())
        assert build_checks({}) == {}
        assert monotonicity_certificate(model, **build_checks({})) == \
            monotonicity_certificate(model)
        assert monotonicity_certificate(model).context["seed"] == default
        given = build_checks({"checks": {"seed": default + 1}})
        assert monotonicity_certificate(model, **given).context["seed"] == \
            default + 1
