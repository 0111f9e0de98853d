#!/usr/bin/env python3
"""Benchmark of the riccati-hjb solver.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {paper_examples,dara_sweep,simplex5_inflow,all}
                             --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` (it need not be installed). One run
builds the workload's inputs from the seed and repeats the workload for
about S seconds in this process (closed loop, one thread,
``RICCATI_HJB_THREADS`` cleared), checking every operation's outputs.
Between passes it times ``SETUP_PROBES`` set-ups in fresh interpreters.

--trace 0 reports the end-to-end metrics wall_ref_s (pass time scaled to a
reference host speed by the probes of probe.py), setup_s and peak_rss_mb;
the report also prints the unscaled wall_s. --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones,
plus trace.overhead_frac; traced passes run without speed probes. The first pass of a
run is a warm-up: checked, but not timed. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are the human-readable report.
Results, the environment record and the spans of a traced run are written
under ``.bench_out/`` in the checkout. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads
from probe import SpeedProbe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
THREADS_VAR = "RICCATI_HJB_THREADS"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # internal: one timed set-up
    return ap.parse_args(argv)


def use_source_tree() -> None:
    """Import riccati_hjb from the checkout's src/, or stop."""
    if not (SRC / "riccati_hjb" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC}/riccati_hjb; "
                 "run from the root of a riccati-hjb checkout")
    sys.path.insert(0, str(SRC))


def check_imported(api) -> None:
    origin = Path(api.package.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"perfbench: riccati_hjb was imported from {origin}, "
                 f"not from {SRC}")


# --- set-up ------------------------------------------------------------------

def setup_probe(name: str, seed: int) -> None:
    """Child side: write the inputs, then time import + set-up."""
    wl = WORKLOADS[name]
    inputs = wl.inputs(seed)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
    try:
        paths = workloads.write_inputs(inputs["docs"], workdir)
        t0 = time.perf_counter()
        api = workloads.import_package()
        wl.setup(api, inputs, paths)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_imported(api)
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(name: str, seed: int) -> float:
    """One setup_s sample from a fresh interpreter, so that the import of
    the package and its dependencies is part of it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


# --- environment record ------------------------------------------------------

def git_commit():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own (or git is missing)
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "riccati_hjb").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(api, seed: int, threads, loadavg) -> dict:
    import numpy
    import scipy
    return {
        "host_cores": os.cpu_count(),
        "loadavg_at_start": list(loadavg),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "riccati_hjb": api.package.__version__,
        THREADS_VAR: threads,
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


# --- one workload ------------------------------------------------------------

def load_reference(name: str) -> dict:
    import numpy as np
    with np.load(HERE / "reference" / f"{name}.npz") as ref:
        return {k: ref[k] for k in ref.files}


def run_workload(api, name: str, seed: int, seconds: float, trace: bool):
    wl = WORKLOADS[name]
    inputs = wl.inputs(seed)
    setup_samples = []
    reference = load_reference(name)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        paths = workloads.write_inputs(inputs["docs"], workdir / "inputs")
        tracer = spans.Tracer()
        with tracer.installed(spans.targets(api)) if trace \
                else contextlib.nullcontext():
            state = wl.setup(api, inputs, paths)
        setup_spans = tracer.spans

        passes, problems = [], []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            # set-up probes are spread over the run, so that they see the
            # same host as the passes; their time is not part of the run
            due = len(setup_samples) * seconds / SETUP_PROBES
            if len(setup_samples) < SETUP_PROBES \
                    and time.perf_counter() - start >= due:
                t0 = time.perf_counter()
                setup_samples.append(measure_setup(name, seed))
                start += time.perf_counter() - t0
            # pass 0 warms caches and lazy imports up and is not timed; then
            # a traced run alternates untraced and traced passes
            i = len(passes)
            traced = trace and i > 0 and i % 2 == 0
            passdir = workdir / f"pass-{i}"
            passdir.mkdir()
            tracer = spans.Tracer()
            probe = None if traced else SpeedProbe()
            gc.collect()  # start every pass with the same heap
            with tracer.installed(spans.targets(api)) if traced \
                    else probe:
                t0 = time.perf_counter()
                ops = wl.run_pass(api, state, passdir)
                wall = time.perf_counter() - t0
            if probe is not None:  # the pass's time without the probes'
                wall -= probe.busy_s
            found = wl.check(api, state, ops, reference)
            shutil.rmtree(passdir)
            for op in ops:
                attempted += 1
                if op.error is not None or op.label in found:
                    failed += 1
                    problems.append({"pass": i, "op": op.label,
                                     "error": op.error,
                                     "problems": found.get(op.label, [])})
            passes.append({"timed": i > 0, "traced": traced, "wall_s": wall,
                           "speed_factor": probe and probe.factor(),
                           "op_s": {op.label: op.seconds for op in ops},
                           "spans": tracer.spans if traced else None})
            elapsed = time.perf_counter() - start
            enough = len(passes) >= (3 if trace else 2)
            if enough and elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(measure_setup(name, seed))

    plain = [p for p in passes if p["timed"] and not p["traced"]]
    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "attempted": attempted, "failed": failed, "problems": problems,
        "wall_s_samples": [p["wall_s"] for p in plain],
        "speed_factor_samples": [p["speed_factor"] for p in plain],
        "wall_ref_s_samples": [p["wall_s"] / p["speed_factor"] for p in plain],
        "op_s_samples": [p["op_s"] for p in plain],
        "setup_s_samples": setup_samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        base = spans.totals(setup_spans)
        per_pass = [spans.layer_metrics(spans.add(base, spans.totals(p["spans"])))
                    for p in passes if p["traced"]]
        layer = {k: statistics.median(m[k] for m in per_pass)
                 for k in per_pass[0]}
        layer["trace.overhead_frac"] = (
            statistics.median(traced_walls)
            / statistics.median(result["wall_s_samples"]) - 1.0)
        result["traced_wall_s_samples"] = traced_walls
        result["per_layer"] = layer
        result["spans"] = {"setup": setup_spans,
                           "passes": [p["spans"] for p in passes if p["traced"]]}
    return result


# --- reporting ---------------------------------------------------------------

def end_to_end(result: dict) -> dict:
    return {
        "wall_ref_s": (statistics.median(result["wall_ref_s_samples"]), "s"),
        "setup_s": (statistics.median(result["setup_s_samples"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def report(result: dict) -> dict:
    """Print the human-readable lines of one workload; return its metrics."""
    name, n = result["workload"], len(result["wall_s_samples"])
    print(f"== {name}  seed {result['seed']}  trace {result['trace']} ==")
    refs = result["wall_ref_s_samples"]
    print(f"wall_ref_s   {statistics.median(refs):.4f} s median, "
          f"{max(refs):.4f} s max over n={n} untraced passes (with fewer "
          f"than 20 samples the maximum is the highest percentile measured)")
    walls = result["wall_s_samples"]
    factors = result["speed_factor_samples"]
    print(f"wall_s       {statistics.median(walls):.4f} s median, "
          f"{max(walls):.4f} s max, unscaled; host speed factor "
          f"{min(factors):.3f} to {max(factors):.3f}, median "
          f"{statistics.median(factors):.3f}")
    setups = result["setup_s_samples"]
    print(f"setup_s      {statistics.median(setups):.4f} s median of "
          f"n={len(setups)} fresh-interpreter set-ups")
    print(f"peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    frac = result["failed"] / result["attempted"]
    print(f"failed_frac  {frac:.4f} ({result['failed']} of "
          f"{result['attempted']} operations)")
    for p in result["problems"][:5]:
        print(f"  FAILED pass {p['pass']} {p['op']}: "
              f"{p['error'] or '; '.join(p['problems'])}")
    if not result["trace"]:
        return {k: {"value": v, "unit": u}
                for k, (v, u) in end_to_end(result).items()}
    layer = result["per_layer"]
    n_traced = len(result["traced_wall_s_samples"])
    print(f"per-layer medians over n={n_traced} traced passes "
          f"(set-up spans included in each):")
    for k in sorted(layer):
        print(f"  {k:40s} {layer[k]:14.6g} {spans.unit(k)}")
    return {k: {"value": v, "unit": spans.unit(k)} for k, v in layer.items()}


def save(result: dict, env: dict) -> None:
    stem = f"{result['workload']}-seed{result['seed']}"
    if "spans" in result:
        doc = {"workload": result["workload"], "seed": result["seed"],
               "fields": ["name", "start", "end", "parent", "attrs"],
               **result.pop("spans")}
        (OUT / f"trace-{stem}.json").write_text(json.dumps(doc))
    doc = {"environment": env, **result,
           "end_to_end": {k: {"value": v, "unit": u}
                          for k, (v, u) in end_to_end(result).items()}}
    (OUT / f"result-{stem}-trace{result['trace']}.json").write_text(
        json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    threads = os.environ.pop(THREADS_VAR, None)  # children inherit the clear
    use_source_tree()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    api = workloads.import_package()
    check_imported(api)
    env = environment(api, args.seed, threads, loadavg)
    print("environment " + json.dumps(env))
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result = run_workload(api, name, args.seed, args.seconds,
                              bool(args.trace))
        found = report(result)
        save(result, env)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
