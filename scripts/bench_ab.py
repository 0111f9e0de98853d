#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs of runs.

Usage:

    python3 scripts/bench_ab.py PARENT CHANGE [--pairs 10] [--workload all]
                                [--seed 0] [--trace 0] [--record FILE]

PARENT and CHANGE are the roots of two source checkouts. Each run is
``perfbench/run.py`` of that checkout, started from its root with the same
arguments, so each side measures its own code with its own, unchanged
benchmark. Both sides run for the `run_seconds` of the change checkout's
BENCHMARK.json. Pair i runs the parent first when i is even and the change
first when i is odd. The last line of each run's standard output is its
JSON summary. Each side runs with PYTHONPYCACHEPREFIX set to a fresh
temporary directory of its own, deleted at the end, so neither side reads
or writes a __pycache__ in its checkout: both compile from their sources
alike.

For every workload and metric the report gives each side's median and
q1-q3 over the runs, the pairs the change won (ties count for neither) and
a verdict, with the metric's direction and, for end-to-end metrics, its
bound taken from the change checkout's BENCHMARK.json:

    gain        the change won at least nine tenths of the pairs and the
                medians differ, in its favour, by more than the parent's
                q3 - q1
    same        every run of both sides read the same value (counts)
    worse       the change's median is worse than the parent's by more than
                the bound (a fraction of the parent's median)
    unresolved  the parent's q3 - q1 is wider than the bound and not every
                run of the change beats every run of the parent
    no worse    none of these
    -           a metric without a bound and without a gain

Failed operations are counted per side. A run that exits non-zero ends
the comparison: the report covers the pairs completed before it, and the
script then exits 1, naming the pair, the side and the tail of the run's
standard error.

With --record FILE the comparison is also written to FILE as JSON, the
trajectory of a change's benchmark numbers: each side's commit (null
outside a git checkout) and whether its checkout held uncommitted changes,
the pair count, workload, seed and trace flag, every reported metric's
medians and q1-q3, wins and verdict, each side's operation counts, the host
core count and the versions of Python, numpy and scipy that ran both
sides. A comparison that a failed run ends writes no file.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, default=None,
                    help="write the comparison to this JSON file")
    # the byte-code cache directory of the side being run, set by main
    ap.set_defaults(pycache=None)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    for root in (args.parent, args.change):
        if not (root / "perfbench" / "run.py").is_file():
            ap.error(f"{root} holds no perfbench/run.py")
    return args


class RunFailed(RuntimeError):
    """A benchmark run exited non-zero; the message ends with the tail of
    its standard error."""


def run_once(root: Path, args, seconds) -> dict:
    """One benchmark run of `seconds` in `root`, with its byte code cached
    under `args.pycache`; its JSON summary with the metric names prefixed by
    their workload. Raises RunFailed if the run exits non-zero."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    env = {**os.environ, "PYTHONPYCACHEPREFIX": args.pycache}
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RunFailed(f"{' '.join(cmd)} in {root} exited "
                        f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.splitlines()[-1])
    if args.workload != "all":
        summary["metrics"] = {f"{args.workload}.{k}": v
                              for k, v in summary["metrics"].items()}
    return summary


def quartiles(values):
    """(q1, median, q3) by the inclusive method, which works from one
    sample up."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, lower_is_better, bound):
    """The section 8 verdict of one metric from its paired samples."""
    if len(set(parent) | set(change)) == 1:
        return "same", 0
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1:
        return "gain", wins
    if bound is None:
        return "-", wins
    if sign * (cm - pm) > bound * abs(pm):
        return "worse", wins
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if p3 - p1 > bound * abs(pm) and not all_better:
        return "unresolved", wins
    return "no worse", wins


def compare(runs, metrics_doc) -> dict:
    """Every workload metric that both sides report and BENCHMARK.json
    lists, by name: each side's median and q1-q3 over its runs, the pairs
    the change won and the verdict."""
    better, bounds = {}, {}
    for kind in ("end_to_end", "per_layer"):
        for m in metrics_doc.get(kind, []):
            better[m["name"]] = m["better"] == "lower"
            if "bound" in m:
                bounds[m["name"]] = m["bound"]
    names = sorted(set(runs["parent"][0]["metrics"])
                   & set(runs["change"][0]["metrics"]))
    rows = {}
    for name in names:
        metric = name.split(".", 1)[1] if "." in name else name
        if metric not in better:
            continue
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]]
                 for side in ("parent", "change")}
        label, wins = verdict(sides["parent"], sides["change"],
                              better[metric], bounds.get(metric))
        row = {}
        for side, values in sides.items():
            q1, q2, q3 = quartiles(values)
            row[side] = {"median": q2, "q1": q1, "q3": q3}
        rows[name] = {**row, "wins": wins, "verdict": label}
    return rows


def operations(runs) -> dict:
    """Each side's failed and attempted operations over its runs."""
    return {side: {"failed": sum(r["failed"] for r in runs[side]),
                   "attempted": sum(r["attempted"] for r in runs[side])}
            for side in ("parent", "change")}


def report(runs, metrics_doc) -> None:
    """Print one row per workload and metric, then the failure counts."""
    n = len(runs["parent"])
    print("each side ran with its own fresh PYTHONPYCACHEPREFIX; no "
          "__pycache__ of either checkout was read")
    print(f"{'metric':48s} {'parent median (q1-q3)':>34s} "
          f"{'change median (q1-q3)':>34s} {'wins':>6s}  verdict")
    for name, row in compare(runs, metrics_doc).items():
        cells = [f"{row[side]['median']:.6g} ({row[side]['q1']:.6g}-"
                 f"{row[side]['q3']:.6g})" for side in ("parent", "change")]
        print(f"{name:48s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{row['wins']:>3d}/{n:<2d}  {row['verdict']}")
    for side, ops in operations(runs).items():
        print(f"{side}: {ops['failed']} of {ops['attempted']} operations "
              f"failed")


def checkout(root: Path) -> dict:
    """The commit checked out at `root` and whether its tracked files differ
    from it; both null outside a git checkout."""
    def git(*cmd):
        proc = subprocess.run(["git", "-C", str(root), *cmd],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    commit = git("rev-parse", "--verify", "HEAD")
    if commit is None:
        return {"commit": None, "uncommitted_changes": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": commit,
            "uncommitted_changes": None if status is None else bool(status)}


def record(path: Path, args, runs, metrics_doc) -> None:
    """Write the comparison of the completed pairs to `path` as JSON."""
    doc = {
        "parent": checkout(args.parent),
        "change": checkout(args.change),
        "pairs": len(runs["parent"]),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": metrics_doc["run_seconds"],
        "metrics": compare(runs, metrics_doc),
        "operations": operations(runs),
        "host_cores": os.cpu_count(),
        "versions": {"python": platform.python_version(),
                     **{package: importlib.metadata.version(package)
                        for package in ("numpy", "scipy")}},
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics_doc = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    failure = None
    with tempfile.TemporaryDirectory() as parent_cache, \
            tempfile.TemporaryDirectory() as change_cache:
        pycache = {"parent": parent_cache, "change": change_cache}
        for i in range(args.pairs):
            order = (("parent", "change") if i % 2 == 0
                     else ("change", "parent"))
            pair = {}
            try:
                for side in order:
                    print(f"pair {i + 1}/{args.pairs}: {side}",
                          file=sys.stderr, flush=True)
                    args.pycache = pycache[side]
                    pair[side] = run_once(getattr(args, side), args,
                                          metrics_doc["run_seconds"])
            except RunFailed as exc:
                failure = f"pair {i + 1}/{args.pairs}, {side}: {exc}"
                break
            for side in order:
                runs[side].append(pair[side])
    if runs["parent"]:
        report(runs, metrics_doc)
    if failure is None and args.record is not None:
        record(args.record, args, runs, metrics_doc)
    if failure:
        print(f"bench_ab: completed pairs: {len(runs['parent'])}; "
              f"stopped at {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
