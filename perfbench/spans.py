"""Layer spans for the traced benchmark run.

A span is ``[name, start, end, parent, attrs]``: perf_counter times, the
index of the enclosing span in the same list (-1 for none) and a small dict
of counts. Spans stay in memory and are written out when the run ends.

Wrappers sit only where one module of the package calls into another (or
where the benchmark calls into the package). They replace the module
attribute that the caller looks up at call time, never anything inside
``alpha``'s per-cell loop, and ``Tracer.installed`` puts the originals back
on exit.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "analysis", "pde", "alpha", "config", "model")
FIELD_KINDS = ("simplex-n1", "simplex-n2", "simplex-n5")
CLI_COMMANDS = ("alpha-curve", "weights-path", "solve", "verify", "mms")
CHECKS = ("monotonicity", "maximum_principle", "energy_estimate",
          "contraction_budget")


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    def wrap(self, name: str, fn, attrs=None):
        """`fn` recording a span per call; attrs(args, kwargs, result), when
        given, fills the span's counts after its end time is taken."""
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if attrs is not None:
                spans[idx][4] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Install a wrapper at each (owner, attribute, span name, attrs)
        target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, attrs in targets:
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrap(name, original, attrs))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# --- what gets wrapped -------------------------------------------------------

def _field_attrs(args, kwargs, result):
    model = args[0]
    ds = model.decision_set
    kind = "menu" if ds.kind == "discrete" else f"simplex-n{model.n}"
    return {"kind": kind, "points": int(result[0].size)}


def _one_eval(args, kwargs, result):
    return {"evals": 1}


def _path_evals(args, kwargs, result):
    return {"evals": int(len(result["phi"]))}


def _solve_attrs(args, kwargs, result):
    iters = [d.picard_iterations for d in result.diagnostics]
    return {"steps": len(iters), "sweeps": sum(iters), "max_sweeps": max(iters),
            "field_bytes": int(result.phi.nbytes),
            "n_cells": result.grid.n_cells}


def _cli_attrs(args, kwargs, result):
    argv = args[0]
    out = Path(argv[argv.index("--out") + 1])
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return {"command": argv[0], "bytes": written, "code": result}


def targets(api) -> list:
    """(owner, attribute, span name, attrs) of every layer boundary."""
    cli, pde, analysis = api.cli, api.pde, api.analysis
    return [
        # benchmark -> package
        (api, "cli_main", "cli.main", _cli_attrs),
        (api, "solve", "pde.solve", _solve_attrs),
        (api, "load_run", "config.load_run", None),
        (api, "phi0_profile", "model.phi0", None),
        # cli -> config, pde, analysis, alpha
        (cli, "load_run", "config.load_run", None),
        (cli, "solve", "pde.solve", _solve_attrs),
        (pde, "mms_convergence_study", "pde.mms", None),
        (cli, "monotonicity_certificate", "analysis.monotonicity", None),
        (cli, "maximum_principle_report", "analysis.maximum_principle", None),
        (cli, "energy_estimate_report", "analysis.energy_estimate", None),
        (cli, "contraction_budget", "analysis.contraction_budget", None),
        (cli, "solve_alpha", "alpha.scalar", _one_eval),
        (cli, "weights_path", "alpha.scalar", _path_evals),
        # analysis -> alpha
        (analysis, "solve_alpha", "alpha.scalar", _one_eval),
        (analysis, "alpha_field", "alpha.field", _field_attrs),
        # pde -> alpha, model, scipy
        (pde, "alpha_field", "alpha.field", _field_attrs),
        (pde, "phi0_profile", "model.phi0", None),
        (pde, "solve_banded", "pde.tridiag", None),
    ]


# --- per-layer numbers -------------------------------------------------------

def totals(spans) -> dict:
    """Additive sums over one list of spans (the parents of its spans lie in
    the same list)."""
    t: dict = defaultdict(float)
    child = [0.0] * len(spans)
    for name, t0, t1, parent, attrs in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    solves_in = defaultdict(int)
    for i, (name, t0, t1, parent, attrs) in enumerate(spans):
        d = t1 - t0
        attrs = attrs or {}  # a call that raised has no counts
        t["trace.spans"] += 1
        if name == "pde.tridiag":
            t["pde.tridiag.calls"] += 1
            t["pde.tridiag.busy_s"] += d
            continue
        t[name.split(".")[0] + ".self_s"] += d - child[i]
        if name == "alpha.field":
            kind = attrs.get("kind", "failed")
            t[f"alpha.field.calls.{kind}"] += 1
            t[f"alpha.field.points.{kind}"] += attrs.get("points", 0)
            t[f"alpha.field.busy_s.{kind}"] += d
        elif name == "alpha.scalar":
            t["alpha.scalar.calls"] += attrs.get("evals", 0)
            t["alpha.scalar.busy_s"] += d
        elif name == "pde.solve":
            t["pde.solve.calls"] += 1
            t["pde.solve.busy_s"] += d
            t["pde.steps"] += attrs.get("steps", 0)
            t["pde.sweeps"] += attrs.get("sweeps", 0)
            t["pde.field_bytes"] += attrs.get("field_bytes", 0)
            t["pde.sweeps_per_step.max"] = max(t["pde.sweeps_per_step.max"],
                                               attrs.get("max_sweeps", 0))
            if parent >= 0 and spans[parent][0] == "cli.main":
                command = (spans[parent][4] or {}).get("command")
                solves_in[parent] += 1
                if command == "solve":
                    t["cli.slices.busy_s"] -= d
                elif command == "verify" and solves_in[parent] > 1:
                    t["analysis.refine_solve_s"] += d
        elif name == "cli.main":
            command = attrs.get("command", "failed")
            t[f"cli.{command}.busy_s"] += d
            t["cli.bytes_written"] += attrs.get("bytes", 0)
            if command == "solve":
                t["cli.slices.busy_s"] += d
        elif name.startswith("analysis."):
            t[name + ".busy_s"] += d
        elif name in ("config.load_run", "model.phi0"):
            t[name + ".busy_s"] += d
    return t


def add(a: dict, b: dict) -> dict:
    out = defaultdict(float, a)
    for k, v in b.items():
        out[k] = max(out[k], v) if k == "pde.sweeps_per_step.max" else out[k] + v
    return out


def layer_metrics(t: dict) -> dict:
    """Every per-layer metric of one traced workload run from its totals."""
    m = {}

    def ratio(num, den, scale=1.0):
        return scale * t[num] / t[den] if t[den] else 0.0

    for kind in FIELD_KINDS:
        for what in ("calls", "points", "busy_s"):
            m[f"alpha.field.{what}.{kind}"] = t[f"alpha.field.{what}.{kind}"]
        m[f"alpha.field.us_per_point.{kind}"] = ratio(
            f"alpha.field.busy_s.{kind}", f"alpha.field.points.{kind}", 1e6)
    m["alpha.scalar.calls"] = t["alpha.scalar.calls"]
    m["alpha.scalar.busy_s"] = t["alpha.scalar.busy_s"]
    m["alpha.scalar.us_per_call"] = ratio("alpha.scalar.busy_s",
                                          "alpha.scalar.calls", 1e6)
    for key in ("pde.solve.calls", "pde.solve.busy_s", "pde.steps",
                "pde.sweeps"):
        m[key] = t[key]
    m["pde.sweeps_per_step.mean"] = ratio("pde.sweeps", "pde.steps")
    m["pde.sweeps_per_step.max"] = t["pde.sweeps_per_step.max"]
    m["pde.sweep_us"] = ratio("pde.solve.busy_s", "pde.sweeps", 1e6)
    for key in ("pde.tridiag.calls", "pde.tridiag.busy_s", "pde.field_bytes"):
        m[key] = t[key]
    for check in CHECKS:
        m[f"analysis.{check}.busy_s"] = t[f"analysis.{check}.busy_s"]
    m["analysis.refine_solve_s"] = t["analysis.refine_solve_s"]
    for command in CLI_COMMANDS:
        m[f"cli.{command}.busy_s"] = t[f"cli.{command}.busy_s"]
    m["cli.slices.busy_s"] = t["cli.slices.busy_s"]
    m["cli.bytes_written"] = t["cli.bytes_written"]
    m["config.load_run.busy_s"] = t["config.load_run.busy_s"]
    m["model.phi0.busy_s"] = t["model.phi0.busy_s"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t[f"{layer}.self_s"]
    m["trace.spans"] = t["trace.spans"]
    return m


UNITS = {"calls": "count", "points": "count", "steps": "count",
         "sweeps": "count", "spans": "count", "mean": "sweep/step",
         "max": "sweep/step", "busy_s": "s", "self_s": "s",
         "refine_solve_s": "s", "us_per_point": "us", "us_per_call": "us",
         "sweep_us": "us", "field_bytes": "bytes", "bytes_written": "bytes",
         "overhead_frac": "ratio"}


def unit(name: str) -> str:
    """Unit of a per-layer metric, from the part of its name that says it."""
    for part in reversed(name.split(".")):
        if part in UNITS:
            return UNITS[part]
    raise KeyError(name)
