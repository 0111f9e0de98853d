#!/usr/bin/env python3
"""Check that two checkouts give the same outputs, bit for bit.

Usage:

    python3 scripts/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are the roots of two source checkouts. Each side runs in
a subprocess of its own, started in its checkout with that checkout's
``src/`` alone on PYTHONPATH and byte-code writing off, so that it imports
its own package and writes nothing into the checkout. The subprocess (this
script with ``--produce OUT``) writes into OUT:

* ``examples/``: the artifacts of the checkout's ``scripts/run_examples.py``;
* ``solves/<label>.npz``: the final phi and the per-step records (one row
  of ``StepDiagnostics`` fields per step) of every pool entry of the
  ``dara_sweep`` and ``simplex5_inflow`` workloads, solved from the
  documents of the checkout's ``perfbench/workloads.py``, which it only
  reads; ``solves/<label>.txt`` holds the error of a solve that raised.

The two trees must hold the same files. A ``manifest.json`` is compared as
JSON without its ``timings_s``, the arrays of an ``.npz`` bit for bit, and
every other file (the CSVs, ``verify.json``, the run documents) byte for
byte. The script prints one line for each file that differs or is on one
side only, and exits 1; or it prints the number of files compared and
exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def produce(out: Path) -> None:
    """Write the outputs of the checkout in the working directory to out."""
    sys.argv = ["run_examples.py", "--out", str(out / "examples")]
    runpy.run_path("scripts/run_examples.py", run_name="__main__")
    spec = importlib.util.spec_from_file_location("workloads",
                                                  "perfbench/workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are made
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    api = workloads.import_package()
    sweep, inflow = workloads.DaraSweep(), workloads.Simplex5Inflow()
    # (workload, inputs, suffix of each operation's label)
    runs = [(sweep, sweep.inputs_for(range(workloads.DARA_POOL)), "")]
    runs += [(inflow, inflow.inputs_for(i), f"_{i:02d}")
             for i in range(workloads.SIMPLEX5_POOL)]
    solves = out / "solves"
    solves.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as tmp:
        for k, (workload, inputs, suffix) in enumerate(runs):
            paths = workloads.write_inputs(inputs["docs"], Path(tmp) / str(k))
            state = workload.setup(api, inputs, paths)
            for op in workload.run_pass(api, state, Path(tmp)):
                stem = solves / (op.label + suffix)
                if op.error is not None:
                    stem.with_suffix(".txt").write_text(op.error + "\n")
                    continue
                steps = [dataclasses.astuple(d) for d in op.value.diagnostics]
                np.savez(stem.with_suffix(".npz"), phi=op.value.phi[-1],
                         steps=np.array(steps, dtype=float))


def run_side(root: Path, out: Path) -> None:
    """Run `produce` in a subprocess on the checkout at root."""
    env = {**os.environ, "PYTHONPATH": str(root.resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--produce",
         str(out.resolve())],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{root}: making the outputs failed with exit code "
                 f"{proc.returncode}:\n{proc.stderr[-2000:]}")


def _files(root: Path) -> list:
    return sorted(p.relative_to(root).as_posix()
                  for p in root.rglob("*") if p.is_file())


def _manifest_difference(a: Path, b: Path):
    docs = [json.loads(p.read_text()) for p in (a, b)]
    for doc in docs:
        doc.pop("timings_s", None)
    keys = sorted(set(docs[0]) | set(docs[1]))
    key = next((k for k in keys if docs[0].get(k) != docs[1].get(k)), None)
    return None if key is None else f"manifest key {key!r} differs"


def _array_difference(a: Path, b: Path):
    with np.load(a) as x, np.load(b) as y:
        if sorted(x.files) != sorted(y.files):
            return f"arrays {sorted(x.files)} != {sorted(y.files)}"
        for name in sorted(x.files):
            u, v = x[name], y[name]
            if (u.dtype, u.shape) != (v.dtype, v.shape):
                return (f"array {name!r}: {u.dtype}{list(u.shape)} != "
                        f"{v.dtype}{list(v.shape)}")
            # bits, so that -0.0 differs from 0.0 and equal nans agree
            if u.tobytes() == v.tobytes():
                continue
            bits = u.view(np.uint8).reshape(u.size, -1)
            other = v.view(np.uint8).reshape(v.size, -1)
            i = int(np.flatnonzero(np.any(bits != other, axis=1))[0])
            return (f"array {name!r} differs at flat index {i}: "
                    f"{u.flat[i].item()!r} != {v.flat[i].item()!r}")
    return None


def _byte_difference(a: Path, b: Path):
    x, y = a.read_bytes(), b.read_bytes()
    if x == y:
        return None
    i = next((k for k, (p, q) in enumerate(zip(x, y)) if p != q),
             min(len(x), len(y)))
    line = x.count(b"\n", 0, i) + 1
    return f"bytes differ at offset {i} (line {line})"


def differences(parent: Path, change: Path) -> list:
    """One line for each file in which the two output trees differ, in
    name order; empty when they are the same."""
    names, other = set(_files(parent)), set(_files(change))
    found = []
    for name in sorted(names | other):
        a, b = parent / name, change / name
        if name not in names or name not in other:
            side = "parent" if name in names else "change"
            problem = f"only in the {side} outputs"
        elif a.name == "manifest.json":
            problem = _manifest_difference(a, b)
        elif a.suffix == ".npz":
            problem = _array_difference(a, b)
        else:
            problem = _byte_difference(a, b)
        if problem:
            found.append(f"{name}: {problem}")
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        trees = (Path(tmp) / "parent", Path(tmp) / "change")
        for root, out in zip((args.parent, args.change), trees):
            run_side(root, out)
        found = differences(*trees)
        count = len(_files(trees[0]))
    if found:
        print("\n".join(found))
        print(f"outputs differ: {len(found)} of {count} files")
        return 1
    print(f"outputs identical: {count} files")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--produce"] and len(sys.argv) == 3:
        produce(Path(sys.argv[2]))
    else:
        sys.exit(main())
