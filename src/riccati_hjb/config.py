"""JSON run configuration: one document with sections model / utility /
pde / checks. Builders raise ConfigError with the offending key path."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .analysis import MIN_PAIR_GAP
from .model import (
    ArctanUtility,
    DaraUtility,
    DecisionSet,
    InflowProfile,
    ModelError,
    PortfolioModel,
    SpatialGrid,
    TabulatedPhi0,
)
from .pde import PDEConfig, SolverError

__all__ = [
    "ConfigError",
    "load_document",
    "build_model",
    "build_utility",
    "build_pde",
    "build_checks",
    "load_run",
]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration document."""


def load_document(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    return doc


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}: missing key {key!r}")
    return section[key]


def build_model(doc: dict) -> PortfolioModel:
    sec = _require(doc, "model", "config")
    assets = _require(sec, "assets", "model")
    mu = np.asarray(_require(assets, "mu", "model.assets"), dtype=float)

    cov = _require(sec, "covariance", "model")
    if isinstance(cov, dict):
        vols = np.asarray(_require(cov, "volatilities", "model.covariance"),
                          dtype=float)
        corr = np.asarray(_require(cov, "correlation", "model.covariance"),
                          dtype=float)
        if corr.shape != (len(vols), len(vols)):
            raise ConfigError("model.covariance: correlation shape does not "
                              "match volatilities")
        sigma = corr * np.outer(vols, vols)
    else:
        sigma = np.asarray(cov, dtype=float)

    ds_spec = sec.get("decision_set", "simplex")
    if ds_spec == "simplex":
        ds = DecisionSet.simplex(len(mu))
    elif isinstance(ds_spec, dict) and "points" in ds_spec:
        ds = DecisionSet.discrete(ds_spec["points"])
    else:
        raise ConfigError(f"model.decision_set: expected 'simplex' or "
                          f"{{'points': [...]}}, got {ds_spec!r}")

    inflow = None
    if sec.get("inflow") is not None:
        inf = sec["inflow"]
        try:
            inflow = InflowProfile(
                eps_rate=float(_require(inf, "eps_rate", "model.inflow")),
                y_minus=float(_require(inf, "y_minus", "model.inflow")),
                y_plus=float(_require(inf, "y_plus", "model.inflow")),
            )
        except ModelError as exc:
            raise ConfigError(f"model.inflow: {exc}") from None

    try:
        return PortfolioModel(mu, sigma, ds, inflow=inflow,
                              drift_mode=sec.get("drift_mode", ""))
    except ModelError as exc:
        raise ConfigError(f"model: {exc}") from None


def build_utility(doc: dict):
    sec = _require(doc, "utility", "config")
    kind = _require(sec, "kind", "utility")
    gamma = sec.get("truncation_gamma", 8.0)
    if gamma is not None:
        gamma = float(gamma)
    try:
        if kind == "dara":
            return DaraUtility(
                a0=float(_require(sec, "a0", "utility")),
                a1=float(_require(sec, "a1", "utility")),
                x_star=float(_require(sec, "x_star", "utility")),
                truncation_gamma=gamma,
            )
        if kind == "arctan":
            return ArctanUtility(truncation_gamma=gamma)
        if kind == "tabulated":
            return TabulatedPhi0(
                x=np.asarray(_require(sec, "x", "utility"), dtype=float),
                values=np.asarray(_require(sec, "phi0", "utility"), dtype=float),
                truncation_gamma=gamma if "truncation_gamma" in sec else None,
            )
    except ModelError as exc:
        raise ConfigError(f"utility: {exc}") from None
    raise ConfigError(f"utility.kind: unknown kind {kind!r}")


def build_pde(doc: dict) -> PDEConfig:
    sec = _require(doc, "pde", "config")
    try:
        grid = SpatialGrid(
            x_min=float(_require(sec, "x_min", "pde")),
            x_max=float(_require(sec, "x_max", "pde")),
            n_cells=int(_require(sec, "n_cells", "pde")),
        )
    except ModelError as exc:
        raise ConfigError(f"pde: {exc}") from None

    boundary = sec.get("boundary", "neumann")
    dirichlet = (0.0, 0.0)
    if isinstance(boundary, dict):
        dirichlet = (float(boundary.get("left", 0.0)),
                     float(boundary.get("right", 0.0)))
        boundary = "dirichlet"
    cutoff = sec.get("cutoff_m", "auto")
    if cutoff not in (None, "auto"):
        cutoff = float(cutoff)
    try:
        return PDEConfig(
            grid=grid,
            t_final=float(_require(sec, "t_final", "pde")),
            n_steps=int(_require(sec, "n_steps", "pde")),
            picard_tol=float(sec.get("picard_tol", 1e-10)),
            picard_max=int(sec.get("picard_max", 100)),
            cutoff_m=cutoff,
            boundary=boundary,
            dirichlet_values=dirichlet,
            upwind=bool(sec.get("upwind", False)),
        )
    except SolverError as exc:
        raise ConfigError(f"pde: {exc}") from None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def build_checks(doc: dict) -> dict:
    sec = doc.get("checks", {})
    if not isinstance(sec, dict):
        raise ConfigError(f"checks: expected an object, got {sec!r}")
    seed = sec.get("seed", 42)
    if not (_is_int(seed) and seed >= 0):
        raise ConfigError(f"checks.seed: expected an integer >= 0, got {seed!r}")
    n_pairs = sec.get("n_pairs", 1000)
    if not (_is_int(n_pairs) and n_pairs >= 1):
        raise ConfigError(
            f"checks.n_pairs: expected an integer >= 1, got {n_pairs!r}")
    # at least twice the certificate's minimum pair gap wide, so that at
    # least a quarter of the sampled pairs qualify and the sampling ends
    lo_hi = sec.get("phi_range", (0.1, 50.0))
    if not (isinstance(lo_hi, (list, tuple)) and len(lo_hi) == 2
            and all(_is_finite(v) for v in lo_hi)
            and 0 < lo_hi[0] <= lo_hi[1] - 2 * MIN_PAIR_GAP):
        raise ConfigError(f"checks.phi_range: expected [lo, hi] with 0 < lo "
                          f"and hi - lo >= {2 * MIN_PAIR_GAP:g}, got {lo_hi!r}")
    tolerance = sec.get("tolerance", 1e-8)
    if not (_is_finite(tolerance) and tolerance >= 0):
        raise ConfigError(f"checks.tolerance: expected a finite number >= 0, "
                          f"got {tolerance!r}")
    return {"seed": seed, "n_pairs": n_pairs,
            "phi_range": (float(lo_hi[0]), float(lo_hi[1])),
            "tolerance": float(tolerance)}


def load_run(path):
    """Load a full run configuration: (document, model, utility, pde, checks).
    The pde section is optional (None when absent)."""
    doc = load_document(path)
    model = build_model(doc)
    utility = build_utility(doc) if "utility" in doc else None
    pde = build_pde(doc) if "pde" in doc else None
    checks = build_checks(doc)
    return doc, model, utility, pde, checks
