#!/usr/bin/env python3
"""Reproduce the headline numerical studies as data tables.

Builds the two-asset stocks/bonds model (and its three-fund menu), then:
  1. tabulates the diffusion value function and optimal weights over phi,
     for the simplex and for the menu (the menu curve is piecewise linear
     and dominates the simplex curve);
  2. integrates the risk-aversion profile for the constant initial profile
     and the two-level (decreasing risk aversion) profile on the default
     400x400 grid, emitting time-slice tables;
  3. runs the verification bundle on the two-level run;
  4. runs the manufactured-solution convergence study.

Usage: python scripts/run_examples.py [--out DIR]
"""

import argparse
import json
import sys
from pathlib import Path

from riccati_hjb.cli import main as cli

STOCKS_BONDS = {
    "assets": {"mu": [0.1028, 0.0516]},
    "covariance": {
        "volatilities": [0.169, 0.0082],
        "correlation": [[1.0, -0.1151], [-0.1151, 1.0]],
    },
}

THREE_FUNDS = {"points": [[0.8, 0.2], [0.5, 0.5], [0.0, 1.0]]}

# monotone flux: the initial fronts sit at cell Peclet ~ 4, where the
# centered flux over/undershoots and breaks the comparison ordering
PDE = {
    "x_min": -8.0, "x_max": 8.0, "n_cells": 400,
    "t_final": 10.0, "n_steps": 400,
    "upwind": True,
}

DARA = {"kind": "dara", "a0": 9.0, "a1": 6.0, "x_star": 2.0,
        "truncation_gamma": 8.0}
CONSTANT = {"kind": "dara", "a0": 9.0, "a1": 9.0, "x_star": 0.0,
            "truncation_gamma": None}

# the run documents, each written to <name>.json
DOCUMENTS = {
    "stocks_bonds": {"model": STOCKS_BONDS, "utility": DARA, "pde": PDE},
    "three_funds": {"model": {**STOCKS_BONDS, "decision_set": THREE_FUNDS},
                    "utility": DARA, "pde": PDE},
    "constant_nine": {"model": STOCKS_BONDS, "utility": CONSTANT, "pde": PDE},
}


def write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def run(argv) -> None:
    code = cli(argv)
    if code != 0:
        sys.exit(f"command {' '.join(argv)} failed with exit code {code}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/examples")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    simplex_cfg, menu_cfg, const_cfg = (write(out / f"{name}.json", doc)
                                        for name, doc in DOCUMENTS.items())

    print("== value function and weight paths ==")
    run(["alpha-curve", "--config", simplex_cfg,
         "--out", str(out / "alpha_simplex"),
         "--phi-min", "0.5", "--phi-max", "10", "--n-points", "400"])
    run(["alpha-curve", "--config", menu_cfg,
         "--out", str(out / "alpha_menu"),
         "--phi-min", "0.5", "--phi-max", "10", "--n-points", "400"])
    run(["weights-path", "--config", simplex_cfg,
         "--out", str(out / "weights"),
         "--phi-min", "0.5", "--phi-max", "50", "--n-points", "300"])

    print("== risk-aversion profiles ==")
    run(["solve", "--config", const_cfg, "--out", str(out / "profile_const"),
         "--slices", "0,1,2,5,10"])
    run(["solve", "--config", simplex_cfg, "--out", str(out / "profile_dara"),
         "--slices", "0,1,2,5,10"])

    print("== verification bundle on the two-level run ==")
    run(["verify", "--config", simplex_cfg, "--out", str(out / "verify")])

    print("== manufactured-solution convergence ==")
    run(["mms", "--out", str(out / "mms")])

    print(f"\nall artifacts under {out}/")


if __name__ == "__main__":
    main()
