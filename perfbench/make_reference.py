#!/usr/bin/env python3
"""Regenerate the reference outputs under perfbench/reference/.

    python3 perfbench/make_reference.py [--workload NAME]

Runs every input a workload can draw (all DARA pool entries, all five-asset
pool models, the paper_examples command sequence) through the same set-up
and pass code as the benchmark, stores the outputs the checks compare
against, and then checks the fresh outputs against the stored file. Only
regenerate when the reference numerics are meant to change; the checks
exist to catch solvers that drift from them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads
from workloads import (DARA_POOL, SIMPLEX5_POOL, WORKLOADS, dara_pool,
                       read_csv, simplex5_model)


def outputs(api, wl, inputs, workdir: Path):
    state = wl.setup(api, inputs, workloads.write_inputs(inputs["docs"],
                                                         workdir / "inputs"))
    passdir = workdir / "pass"
    passdir.mkdir()
    ops = wl.run_pass(api, state, passdir)
    for op in ops:
        if op.error is not None:
            raise RuntimeError(f"{op.label}: {op.error}")
    return state, ops


def paper_examples(api, workdir):
    import numpy as np
    wl = WORKLOADS["paper_examples"]
    state, ops = outputs(api, wl, wl.inputs(0), workdir)
    ref = {}
    for op in ops:
        if op.value.code != 0:
            raise RuntimeError(f"{op.label} exited {op.value.code}")
        for path in sorted(op.value.out.glob("*.csv")):
            header, data = read_csv(path)
            ref[f"{op.label}/{path.name}"] = data
            ref[f"{op.label}/{path.name}:header"] = np.array(header)
    return ref, [(wl, state, ops)]


def dara_sweep(api, workdir):
    import numpy as np
    wl = WORKLOADS["dara_sweep"]
    state, ops = outputs(api, wl, wl.inputs_for(range(DARA_POOL)), workdir)
    ref = {"params": np.array(dara_pool()),
           "final_phi": np.array([op.value.phi[-1] for op in ops])}
    return ref, [(wl, state, ops)]


def simplex5_inflow(api, workdir):
    import numpy as np
    wl = WORKLOADS["simplex5_inflow"]
    runs, finals = [], []
    for i in range(SIMPLEX5_POOL):
        state, ops = outputs(api, wl, wl.inputs_for(i), workdir / f"m{i}")
        runs.append((wl, state, ops))
        finals.append(ops[0].value.phi[-1])
    models = [simplex5_model(i) for i in range(SIMPLEX5_POOL)]
    ref = {"models": np.array(json.dumps(models)),
           "final_phi": np.array(finals)}
    return ref, runs


MAKERS = {"paper_examples": paper_examples, "dara_sweep": dara_sweep,
          "simplex5_inflow": simplex5_inflow}


def main() -> int:
    import numpy as np
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*MAKERS, "all"], default="all")
    args = ap.parse_args()
    run.use_source_tree()
    run.OUT.mkdir(exist_ok=True)
    api = workloads.import_package()
    run.check_imported(api)
    names = list(MAKERS) if args.workload == "all" else [args.workload]
    for name in names:
        workdir = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=run.OUT))
        try:
            ref, runs = MAKERS[name](api, workdir)
            path = run.HERE / "reference" / f"{name}.npz"
            path.parent.mkdir(exist_ok=True)
            np.savez_compressed(path, **ref)
            stored = run.load_reference(name)
            for wl, state, ops in runs:
                found = wl.check(api, state, ops, stored)
                if found:
                    raise RuntimeError(f"{name}: fresh outputs fail the "
                                       f"stored reference: {found}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"wrote {path} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
