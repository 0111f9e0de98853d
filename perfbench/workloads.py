"""Workloads of the riccati-hjb benchmark.

Each workload has four parts:

* ``inputs(seed)`` makes the run configuration documents from the seed. It
  uses only the standard library, so that a set-up probe can write them
  before it starts its clock and imports the package;
* ``setup(api, inputs, paths)`` turns the written documents into models,
  utilities and PDE configurations through the package (this is what
  ``setup_s`` times);
* ``run_pass(api, state, workdir)`` is one timed workload run. It returns
  one ``Op`` per operation, with the operation's output or its error;
* ``check(api, state, ops, reference)`` compares the outputs against the
  reference outputs stored under ``reference/`` and against the program's
  own invariants, and returns the problems it found per operation.

The package is reached only through the ``api`` namespace that
``import_package`` returns, so that the traced run can wrap the calls the
benchmark itself makes into the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any

# --- tolerances of the output checks -----------------------------------------

PICARD_TOL = 1e-10
# Outputs may move by this much, relative to 1 + |reference|, before a check
# fails: a thousand times the shipped Picard tolerance. Re-running at a
# Picard tolerance of 1e-13 moves the final phi by about 5e-12, so a solver
# that converges to the same implicit step passes, while a changed scheme or
# a wrong answer does not.
REF_TOL = 1e3 * PICARD_TOL
# The QP oracle's optimality tolerance (the active-set KKT tolerance).
KKT_TOL = 1e-10
# Per-step discrete mass balance, relative to max(1, mass of the level); the
# solver meets it to rounding (about 1e-16 relative).
MASS_TOL = 1e-12

# --- the shipped example configuration (scripts/run_examples.py) -------------

STOCKS_BONDS = {
    "assets": {"mu": [0.1028, 0.0516]},
    "covariance": {
        "volatilities": [0.169, 0.0082],
        "correlation": [[1.0, -0.1151], [-0.1151, 1.0]],
    },
}
THREE_FUNDS = {"points": [[0.8, 0.2], [0.5, 0.5], [0.0, 1.0]]}
SHIPPED_PDE = {
    "x_min": -8.0, "x_max": 8.0, "n_cells": 400,
    "t_final": 10.0, "n_steps": 400,
    "picard_tol": PICARD_TOL, "picard_max": 100,
    "upwind": True,
}
DARA = {"kind": "dara", "a0": 9.0, "a1": 6.0, "x_star": 2.0,
        "truncation_gamma": 8.0}
CONSTANT = {"kind": "dara", "a0": 9.0, "a1": 9.0, "x_star": 0.0,
            "truncation_gamma": None}
SLICES = "0,1,2,5,10"


@dataclass
class Op:
    """One operation of a pass: its label, its output or the error it
    raised, and its duration."""

    label: str
    value: Any = None
    error: str | None = None
    seconds: float = 0.0


def import_package() -> SimpleNamespace:
    """Import riccati_hjb; return the modules and the functions the
    workloads call, looked up through this namespace at call time."""
    import riccati_hjb
    from riccati_hjb import alpha, analysis, cli, config, model, pde
    return SimpleNamespace(
        package=riccati_hjb, alpha=alpha, analysis=analysis, cli=cli, pde=pde,
        cli_main=cli.main, load_run=config.load_run,
        phi0_profile=model.phi0_profile, solve=pde.solve,
    )


def write_inputs(docs: dict, directory: Path) -> dict:
    """Write each configuration document as ``<name>.json``; return the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        paths[name] = path
    return paths


def _load(api, paths):
    """load_run every document and sample its initial profile."""
    runs = {}
    for name, path in paths.items():
        _, model, utility, pde_cfg, _ = api.load_run(path)
        runs[name] = SimpleNamespace(
            model=model, utility=utility, pde=pde_cfg,
            phi0=api.phi0_profile(utility, pde_cfg.grid))
    return runs


def _call(label, fn, *args):
    t0 = time.perf_counter()
    try:
        op = Op(label, fn(*args))
    except Exception as exc:  # an operation that raises counts as failed
        op = Op(label, error=f"{type(exc).__name__}: {exc}")
    op.seconds = time.perf_counter() - t0
    return op


# --- shared output checks ----------------------------------------------------

def compare(actual, reference, what: str) -> list:
    """Problems when `actual` leaves REF_TOL * (1 + |reference|)."""
    import numpy as np
    a = np.asarray(actual, dtype=float)
    r = np.asarray(reference, dtype=float)
    if a.shape != r.shape:
        return [f"{what}: shape {a.shape} != reference {r.shape}"]
    if not np.all(np.isfinite(a)):
        return [f"{what}: non-finite values"]
    excess = np.abs(a - r) - REF_TOL * (1.0 + np.abs(r))
    worst = int(np.argmax(excess))
    if excess.flat[worst] > 0:
        return [f"{what}: |actual - reference| = "
                f"{abs(a.flat[worst] - r.flat[worst]):.3e} at flat index {worst}"
                f" exceeds {REF_TOL:.0e} * (1 + |ref|)"]
    return []


def mass_balance(sol, what: str) -> list:
    """The discrete balance sum(phi_k+1 - phi_k) dx = dtau (G_r - G_l + src)
    from the step diagnostics, step by step."""
    import numpy as np
    dx = sol.grid.dx
    dtau = np.diff(sol.tau_values)
    lhs = np.sum(np.diff(sol.phi, axis=0), axis=1) * dx
    rhs = dtau * np.array([d.flux_right - d.flux_left + d.source_integral
                           for d in sol.diagnostics])
    scale = np.maximum(1.0, np.sum(np.abs(sol.phi[:-1]), axis=1) * dx)
    err = np.abs(lhs - rhs) / scale
    k = int(np.argmax(err))
    if err[k] > MASS_TOL:
        return [f"{what}: mass balance off by {err[k]:.3e} (relative) "
                f"at step {k}, tolerance {MASS_TOL:.0e}"]
    return []


def kkt_rows(api, model, x, phi, alpha, theta, what: str) -> list:
    """KKT residual of the given values and weights at sampled (x, phi) rows."""
    worst, where = 0.0, None
    for xi, pi, ai, ti in zip(x, phi, alpha, theta):
        result = api.alpha.AlphaResult(value=float(ai), theta_hat=ti,
                                       dvalue_dphi=0.0, active_set=())
        res = api.alpha.kkt_residual(model, float(xi), float(pi), result)
        if not res <= worst:
            worst, where = res, (float(xi), float(pi))
    if worst > KKT_TOL:
        return [f"{what}: KKT residual {worst:.3e} at (x, phi) = {where} "
                f"exceeds {KKT_TOL:.0e}"]
    return []


def solution_checks(api, run, sol, ref_phi, what: str, kkt_every: int = 0):
    problems = compare(sol.phi[-1], ref_phi, f"{what} final phi")
    problems += mass_balance(sol, what)
    if kkt_every:
        x = sol.grid.centers[::kkt_every]
        phi = sol.phi[-1][::kkt_every]
        found = [api.alpha.solve_alpha(run.model, float(a), float(b))
                 for a, b in zip(x, phi)]
        problems += kkt_rows(api, run.model, x, phi, [r.value for r in found],
                             [r.theta_hat for r in found], f"{what} final level")
    return problems


# --- paper_examples ----------------------------------------------------------

class PaperExamples:
    """The CLI sequence of scripts/run_examples.py, in process."""

    name = "paper_examples"
    why = ("the paper's reproduction sequence through the CLI: the only "
           "workload that runs cli, analysis, scalar alpha, the fund menu "
           "and the one-asset path")
    # rows of each slice table whose weights get a KKT certificate
    kkt_every = 25

    def inputs(self, seed: int) -> dict:
        return {
            "seed": seed,
            "docs": {
                "stocks_bonds": {"model": STOCKS_BONDS, "utility": DARA,
                                 "pde": SHIPPED_PDE},
                "three_funds": {"model": {**STOCKS_BONDS,
                                          "decision_set": THREE_FUNDS},
                                "utility": DARA, "pde": SHIPPED_PDE},
                "constant_nine": {"model": STOCKS_BONDS, "utility": CONSTANT,
                                  "pde": SHIPPED_PDE},
            },
        }

    def setup(self, api, inputs: dict, paths: dict):
        runs = _load(api, paths)
        simplex, menu, const = (str(paths[k]) for k in
                                ("stocks_bonds", "three_funds", "constant_nine"))
        curve = ["--phi-min", "0.5", "--phi-max", "10", "--n-points", "400"]
        commands = [
            ("alpha_simplex", ["alpha-curve", "--config", simplex, *curve]),
            ("alpha_menu", ["alpha-curve", "--config", menu, *curve]),
            ("weights", ["weights-path", "--config", simplex, "--phi-min",
                         "0.5", "--phi-max", "50", "--n-points", "300"]),
            ("profile_const", ["solve", "--config", const, "--slices", SLICES]),
            ("profile_dara", ["solve", "--config", simplex, "--slices", SLICES]),
            ("verify", ["verify", "--config", simplex,
                        "--seed", str(inputs["seed"])]),
            ("mms", ["mms"]),
        ]
        models = {"profile_const": runs["constant_nine"].model,
                  "profile_dara": runs["stocks_bonds"].model}
        return SimpleNamespace(runs=runs, commands=commands, models=models)

    def run_pass(self, api, state, workdir: Path) -> list:
        ops = []
        for label, argv in state.commands:
            out = workdir / label
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                op = _call(label, api.cli_main, [*argv, "--out", str(out)])
            op.value = SimpleNamespace(code=op.value, out=out, log=sink.getvalue())
            ops.append(op)
        return ops

    def check(self, api, state, ops, reference) -> dict:
        problems = {}
        for op in ops:
            found = []
            if op.error is None and op.value.code != 0:
                tail = op.value.log.strip().splitlines()[-1:] or [""]
                found.append(f"exit code {op.value.code}: {tail[0]}")
            if op.error is None and not found:
                found += self._check_files(api, state, op, reference)
            if found:
                problems[op.label] = found
        return problems

    def _check_files(self, api, state, op, reference) -> list:
        out = op.value.out
        found = []
        if op.label == "verify":
            doc = json.loads((out / "verify.json").read_text())
            if doc.get("passed") is not True:
                found.append("verify.json does not report passed")
            return found
        expected = sorted(k.split("/", 1)[1] for k in reference
                          if k.startswith(op.label + "/")
                          and not k.endswith(":header"))
        written = sorted(p.name for p in out.glob("*.csv"))
        if written != expected:
            return [f"csv files {written} != reference {expected}"]
        for name in written:
            key = f"{op.label}/{name}"
            header, data = read_csv(out / name)
            if header != list(reference[key + ":header"]):
                found.append(f"{name}: header {header} differs from reference")
                continue
            found += compare(data, reference[key], name)
            model = state.models.get(op.label)
            if model is not None:
                rows = data[::self.kkt_every]
                found += kkt_rows(api, model, rows[:, 0], rows[:, 1],
                                  rows[:, 2], rows[:, 3:], name)
        return found


def read_csv(path: Path):
    """Header and numeric body of a CSV written by the CLI. Text columns (the
    refinement kind of the MMS table) are encoded as 0, 1, ... in order of
    first appearance."""
    import numpy as np
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    codes: dict = {}
    rows = []
    for line in lines[1:]:
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(float(codes.setdefault(cell, len(codes))))
        rows.append(row)
    return header, np.array(rows, dtype=float)


# --- dara_sweep --------------------------------------------------------------

DARA_POOL = 64      # parameter sets with a stored reference solution
DARA_PER_RUN = 8


def dara_pool() -> list:
    """(a0, a1, x_star) of every pool entry; a0 > a1, so risk aversion falls
    with wealth as in the paper's two-level profile."""
    pool = []
    for i in range(DARA_POOL):
        r = random.Random(1000 + i)
        a0 = round(r.uniform(6.0, 12.0), 4)
        a1 = round(r.uniform(2.0, a0 - 1.0), 4)
        x_star = round(r.uniform(-2.0, 3.0), 4)
        pool.append((a0, a1, x_star))
    return pool


class DaraSweep:
    """Eight DARA utilities on the stocks/bonds simplex at the shipped grid."""

    name = "dara_sweep"
    why = ("eight two-asset DARA solves at the shipped 400x400 grid: bound "
           "by the Picard sweep and tridiagonal solve, alpha is about a "
           "quarter")

    def inputs(self, seed: int) -> dict:
        return self.inputs_for(
            random.Random(seed).sample(range(DARA_POOL), DARA_PER_RUN), seed)

    def inputs_for(self, picks, seed=None) -> dict:
        pool = dara_pool()
        docs = {}
        for i in picks:
            a0, a1, x_star = pool[i]
            docs[f"dara_{i:02d}"] = {
                "model": STOCKS_BONDS,
                "utility": {"kind": "dara", "a0": a0, "a1": a1,
                            "x_star": x_star, "truncation_gamma": 8.0},
                "pde": SHIPPED_PDE,
            }
        return {"seed": seed, "picks": list(picks), "docs": docs}

    def setup(self, api, inputs: dict, paths: dict):
        runs = _load(api, paths)
        return SimpleNamespace(runs=[(i, runs[f"dara_{i:02d}"])
                                     for i in inputs["picks"]])

    def run_pass(self, api, state, workdir: Path) -> list:
        return [_call(f"dara_{i:02d}", api.solve, run.model, run.utility, run.pde)
                for i, run in state.runs]

    def check(self, api, state, ops, reference) -> dict:
        problems = {}
        if [tuple(p) for p in reference["params"].tolist()] != dara_pool():
            raise RuntimeError("dara_sweep reference was made for another pool")
        for (i, run), op in zip(state.runs, ops):
            if op.error is None:
                found = solution_checks(api, run, op.value,
                                        reference["final_phi"][i], op.label)
                if found:
                    problems[op.label] = found
        return problems


# --- simplex5_inflow ---------------------------------------------------------

SIMPLEX5_POOL = 32
SIMPLEX5_VOLS = (0.06, 0.10, 0.14, 0.18, 0.22)
SIMPLEX5_PDE = {**SHIPPED_PDE, "n_cells": 128, "t_final": 1.0, "n_steps": 40}


def simplex5_model(index: int) -> dict:
    """Model section of pool entry `index`: a risk/return ladder of five
    assets whose means and volatilities are jittered by 5 % and whose
    correlations are 0.2 +- 0.05 (positive definite by diagonal dominance).
    The ladder keeps the active sets, and so the QP cost, alike across
    entries."""
    r = random.Random(2000 + index)
    vols = [round(v * r.uniform(0.95, 1.05), 5) for v in SIMPLEX5_VOLS]
    mu = [round((0.02 + 0.35 * v) * r.uniform(0.95, 1.05), 5)
          for v in SIMPLEX5_VOLS]
    n = len(vols)
    corr = [[1.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            corr[a][b] = corr[b][a] = round(0.2 + r.uniform(-0.05, 0.05), 4)
    return {
        "assets": {"mu": mu},
        "covariance": {"volatilities": vols, "correlation": corr},
        "decision_set": "simplex",
        "inflow": {"eps_rate": 1.0, "y_minus": 1.0, "y_plus": 2.0},
        "drift_mode": "log_wealth",
    }


class Simplex5Inflow:
    """A five-asset simplex with inflow, log-wealth drift and DARA (9, 6, 2)."""

    name = "simplex5_inflow"
    why = ("one five-asset simplex solve with inflow on 128 cells x 40 steps: "
           "bound by the per-cell QP, the stepper is under 3 %")
    # cells of the final level whose QP solution gets a KKT certificate
    kkt_every = 8

    def inputs(self, seed: int) -> dict:
        return self.inputs_for(seed % SIMPLEX5_POOL, seed)

    def inputs_for(self, index: int, seed=None) -> dict:
        doc = {"model": simplex5_model(index), "utility": DARA,
               "pde": SIMPLEX5_PDE}
        return {"seed": seed, "index": index, "docs": {"simplex5": doc}}

    def setup(self, api, inputs: dict, paths: dict):
        return SimpleNamespace(index=inputs["index"],
                               run=_load(api, paths)["simplex5"])

    def run_pass(self, api, state, workdir: Path) -> list:
        run = state.run
        return [_call("simplex5", api.solve, run.model, run.utility, run.pde)]

    def check(self, api, state, ops, reference) -> dict:
        problems = {}
        if json.loads(str(reference["models"])) != [
                simplex5_model(i) for i in range(SIMPLEX5_POOL)]:
            raise RuntimeError("simplex5_inflow reference was made for another pool")
        for op in ops:
            if op.error is None:
                found = solution_checks(api, state.run, op.value,
                                        reference["final_phi"][state.index],
                                        op.label, kkt_every=self.kkt_every)
                if found:
                    problems[op.label] = found
        return problems


WORKLOADS = {w.name: w for w in (PaperExamples(), DaraSweep(), Simplex5Inflow())}
