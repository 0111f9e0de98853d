"""Command-line surface: ingest market data, tabulate alpha curves and
weight paths, integrate the risk-aversion PDE, run the verification bundle
(`verify`, its one entry point) and the manufactured-solution convergence
study.

Exit codes: 0 success, 1 failed verification check (`verify` only), 2
configuration or usage error, 3 solver failure. Numbers given on the
command line are checked as config numbers are: a non-finite or
out-of-range value exits 2 naming its flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
# solve_alpha is unused here, but the traced benchmark wraps it as a boundary
from .alpha import (  # noqa: F401
    AlphaEngineError,
    alpha_field,
    closed_form_n2,
    solve_alpha,
    weights_path,
)
from .analysis import (
    contraction_budget,
    energy_estimate_report,
    grid_convergence,
    maximum_principle_report,
    monotonicity_certificate,
)
from .config import ConfigError, load_run
from .model import ModelError, ingest_market_data
from .pde import SolverError, solve

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

# most points of an alpha-curve or weights-path table
MAX_POINTS = 10**6


def _write_csv(path: Path, header, rows):
    # rows of Python values: str gives a float's shortest round-trip text,
    # so identical runs give byte-identical files (an array's tolist()
    # hands over Python floats in one call)
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _manifest(out_dir: Path, doc, outputs, timings, extra=None):
    man = {
        "config": doc,
        "versions": {"riccati_hjb": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "timings_s": timings,
        "outputs": sorted(outputs),
    }
    if extra:
        man.update(extra)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(man, indent=2) + "\n")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ingest(args) -> int:
    model = ingest_market_data(args.mu, args.sigma)
    out = _out_dir(args)
    doc = {
        "model": {
            "assets": {"mu": model.mu.tolist()},
            "covariance": model.sigma.tolist(),
            "decision_set": "simplex",
        }
    }
    path = out / "model.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"ingested {model.n} assets -> {path}")
    return EXIT_OK


def _phi_grid(args):
    if not (0.0 < args.phi_min < args.phi_max
            and math.isfinite(args.phi_max)):
        raise ConfigError(
            f"--phi-min, --phi-max: need finite 0 < phi_min < phi_max, got "
            f"({args.phi_min}, {args.phi_max})")
    # checked before linspace allocates the table
    if not 1 <= args.n_points <= MAX_POINTS:
        raise ConfigError(f"--n-points: need an integer from 1 to "
                          f"{MAX_POINTS}, got {args.n_points}")
    grid = np.linspace(args.phi_min, args.phi_max, args.n_points)
    # phi_min and phi_max a few ulp apart repeat a value
    if np.any(np.diff(grid) <= 0.0):
        raise ConfigError(
            f"--phi-min, --phi-max, --n-points: {args.n_points} points over "
            f"({args.phi_min}, {args.phi_max}) are not strictly increasing")
    return grid


def cmd_table(args, stem: str, closed_form: bool) -> int:
    """alpha-curve and weights-path: the weight path over the phi grid as
    <stem>.csv, with the two-asset closed form's column and coefficients
    when `closed_form` and the model has one, and a gnuplot script for
    --gnuplot (alpha-curve only)."""
    doc, model, _, _, _ = load_run(args.config)
    grid = _phi_grid(args)
    out = _out_dir(args)
    t0 = time.perf_counter()
    path_data = weights_path(model, grid)
    header = ["phi", "alpha", "dalpha_dphi"] + [
        f"theta_{i + 1}" for i in range(model.n)]
    rows = np.column_stack([path_data["phi"], path_data["alpha"],
                            path_data["dalpha_dphi"], path_data["theta"]])
    extra = {}
    if closed_form:
        try:
            cf = closed_form_n2(model)
            rows = np.column_stack([rows, cf.evaluate(grid)])
            header.append("alpha_closed")
            extra["breakpoints"] = {"phi_lo": cf.phi_lo, "phi_hi": cf.phi_hi}
            extra["closed_form"] = {
                "A": cf.a_const, "B": cf.b_const, "C": cf.c_const,
                "E_minus": cf.e_minus, "D_minus": cf.d_minus,
                "E_plus": cf.e_plus, "D_plus": cf.d_plus,
            }
        except ModelError:
            pass
    csv_path = out / f"{stem}.csv"
    _write_csv(csv_path, header, rows.tolist())
    outputs = [csv_path.name]
    if getattr(args, "gnuplot", False):
        gp = out / f"{stem}.gp"
        gp.write_text(
            "set datafile separator ','\n"
            f"plot '{csv_path.name}' using 1:2 with lines title 'alpha'\n")
        outputs.append(gp.name)
    _manifest(out, doc, outputs, {stem: time.perf_counter() - t0}, extra)
    print(f"wrote {csv_path}")
    return EXIT_OK


def _slice_taus(slices, t_final):
    """The tau values of --slices, each in [0, t_final], or None for the
    default five."""
    if not slices:
        return None
    try:
        taus = [float(s) for s in slices.split(",")]
        ok = all(0.0 <= t <= t_final for t in taus)
    except ValueError:
        ok = False
    if not ok:
        raise ConfigError(f"--slices: expected comma-separated numbers in "
                          f"[0, {t_final:g}], got {slices!r}")
    return taus


def _slice_indices(tau_values, wanted):
    if wanted is None:
        wanted = list(np.linspace(0.0, tau_values[-1], 5))
    return sorted({int(np.argmin(np.abs(tau_values - t))) for t in wanted})


def _emit_slices(out, model, sol, wanted):
    outputs = []
    for k in _slice_indices(sol.tau_values, wanted):
        tau = sol.tau_values[k]
        phi_row = sol.phi[k]
        alpha, _, theta = alpha_field(model, sol.grid.centers, phi_row)
        header = ["x", "phi", "alpha"] + [f"theta_{i + 1}" for i in range(model.n)]
        rows = np.column_stack([sol.grid.centers, phi_row, alpha, theta])
        name = f"slice_tau_{tau:.6g}.csv"
        _write_csv(out / name, header, rows.tolist())
        outputs.append(name)
    return outputs


def _diag_summary(sol):
    sweeps = [d.picard_iterations for d in sol.diagnostics]
    return {
        "max_picard_iterations": max(sweeps),
        "total_sweeps": sum(sweeps),
        "jacobians": sum(d.jacobians for d in sol.diagnostics),
        "mean_sweeps_per_step": sum(sweeps) / len(sweeps),
        "sweeps_per_step_counts": {
            str(n): sweeps.count(n) for n in sorted(set(sweeps))},
        "max_residual": max(d.residual for d in sol.diagnostics),
        "alpha_range": [min(d.alpha_min for d in sol.diagnostics),
                        max(d.alpha_max for d in sol.diagnostics)],
        "cutoff": {"m": sol.bounds.m, "lambda": sol.bounds.lam,
                   "lower": sol.bounds.lower, "upper": sol.bounds.upper,
                   "excess": sol.cutoff_excess},
    }


def cmd_solve(args) -> int:
    doc, model, utility, pde_cfg, _ = load_run(args.config)
    if utility is None or pde_cfg is None:
        raise ConfigError("solve needs both a utility and a pde section")
    wanted = _slice_taus(args.slices, pde_cfg.t_final)
    out = _out_dir(args)
    t0 = time.perf_counter()
    sol = solve(model, utility, pde_cfg)
    solve_time = time.perf_counter() - t0
    outputs = _emit_slices(out, model, sol, wanted)
    if args.gnuplot:
        gp = out / "slices.gp"
        # one plot command naming every slice: gnuplot's replot needs an
        # earlier plot
        plots = ", \\\n     ".join(f"'{name}' using 1:2 with lines"
                                  for name in outputs)
        gp.write_text(f"set datafile separator ','\nplot {plots}\n")
        outputs.append(gp.name)
    _manifest(out, doc, outputs, {"solve": solve_time},
              {"diagnostics": _diag_summary(sol)})
    print(f"solved {pde_cfg.n_steps} steps on {pde_cfg.grid.n_cells} cells "
          f"in {solve_time:.2f}s -> {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    doc, model, utility, pde_cfg, checks = load_run(args.config)
    if utility is None or pde_cfg is None:
        raise ConfigError("verify needs both a utility and a pde section")
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"need --seed >= 0, got {args.seed}")
        checks["seed"] = args.seed
    out = _out_dir(args)
    t0 = time.perf_counter()
    sol = solve(model, utility, pde_cfg)
    # the energy check and the grid-convergence record compare the run with
    # a twin on twice the cells and twice the steps
    fine_cfg = dataclasses.replace(
        pde_cfg,
        grid=dataclasses.replace(pde_cfg.grid,
                                 n_cells=2 * pde_cfg.grid.n_cells),
        n_steps=2 * pde_cfg.n_steps,
    )
    fine = solve(model, utility, fine_cfg)
    reports = [
        monotonicity_certificate(model, **checks),
        maximum_principle_report(sol, model),
        energy_estimate_report(sol, fine, model),
    ]
    # informational: t0 is reported, not checked (it is 0 once M e^{lam T}
    # overflows), and horizons of many contraction windows are normal
    info = {"contraction-budget": contraction_budget(model, sol),
            "grid-convergence": grid_convergence(sol, fine)}
    payload = {
        "passed": all(r.passed for r in reports),
        "checks": {r.check_name: dataclasses.asdict(r) for r in reports},
        "info": info,
    }
    path = out / "verify.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    _manifest(out, doc, [path.name], {"verify": time.perf_counter() - t0})
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.check_name}: "
              f"worst violation {r.worst_violation:.3e} "
              f"(tol {r.tolerance:.1e})")
    budget = info["contraction-budget"]
    print(f"INFO contraction-budget: t0 {budget['t0']:.3e}, "
          f"horizon {budget['horizon']:.6g}, windows {budget['windows']}")
    grid = info["grid-convergence"]
    print(f"INFO grid-convergence: horizon max {grid['horizon_max']:.3e} at "
          f"x={grid['horizon_max_x']:.6g}, L1 {grid['horizon_l1']:.3e}")
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def cmd_mms(args) -> int:
    # looked up at call time: the traced benchmark wraps pde's name
    from .pde import mms_convergence_study
    out = _out_dir(args)
    t0 = time.perf_counter()
    study = mms_convergence_study()
    rows = [(kind, *row) for kind in ("spatial", "temporal")
            for row in zip(study[kind]["n_cells"], study[kind]["n_steps"],
                           study[kind]["error"])]
    csv_path = out / "mms_convergence.csv"
    _write_csv(csv_path, ["refinement", "n_cells", "n_steps", "max_error"],
               rows)
    _manifest(out, {"mms": "builtin single-asset"}, [csv_path.name],
              {"mms": time.perf_counter() - t0},
              {"orders": {"spatial": study["spatial"]["orders"],
                          "temporal": study["temporal"]["orders"]}})
    print(f"spatial orders: {study['spatial']['orders']}")
    print(f"temporal orders: {study['temporal']['orders']}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then kept."""
    p = argparse.ArgumentParser(
        prog="riccati-hjb",
        description="Optimal-portfolio HJB solver via the risk-aversion "
                    "transform: parametric QP diffusion function, implicit "
                    "finite-volume PDE integration, analytic-bound checks.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("ingest", help="validate market-data CSVs")
    pi.add_argument("--mu", required=True, help="mean returns CSV")
    pi.add_argument("--sigma", required=True, help="covariance CSV")
    pi.add_argument("--out", default="out")
    pi.set_defaults(func=cmd_ingest)

    for name, closed_form in (("alpha-curve", True), ("weights-path", False)):
        pc = sub.add_parser(name, help=f"tabulate {name.replace('-', ' ')}")
        pc.add_argument("--config", required=True)
        pc.add_argument("--out", default="out")
        pc.add_argument("--phi-min", type=float, default=0.5)
        pc.add_argument("--phi-max", type=float, default=10.0)
        pc.add_argument("--n-points", type=int, default=200)
        if closed_form:
            pc.add_argument("--gnuplot", action="store_true")
        pc.set_defaults(func=functools.partial(
            cmd_table, stem=name.replace("-", "_"), closed_form=closed_form))

    ps = sub.add_parser("solve", help="integrate the risk-aversion PDE")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", default="out")
    ps.add_argument("--slices", default="",
                    help="comma-separated tau values to emit")
    ps.add_argument("--gnuplot", action="store_true")
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify", help="run all analytic-bound checks")
    pv.add_argument("--config", required=True)
    pv.add_argument("--out", default="out")
    pv.add_argument("--seed", type=int, default=None)
    pv.set_defaults(func=cmd_verify)

    pm = sub.add_parser("mms", help="manufactured-solution convergence study")
    pm.add_argument("--out", default="out")
    pm.set_defaults(func=cmd_mms)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors, matching EXIT_CONFIG
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ModelError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, AlphaEngineError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
