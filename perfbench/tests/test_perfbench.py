"""Tests of the benchmark itself: tracing changes no output, wrappers come
off, the output checks can fail, and seeds vary inputs but not shape.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import run
import spans
import workloads
from workloads import WORKLOADS, Op


def _prepare(api, name, tmp_path, seed=3):
    wl = WORKLOADS[name]
    inputs = wl.inputs(seed)
    paths = workloads.write_inputs(inputs["docs"], tmp_path / "inputs")
    return wl, wl.setup(api, inputs, paths)


def _pass(api, wl, state, workdir, traced):
    workdir.mkdir()
    tracer = spans.Tracer()
    if traced:
        with tracer.installed(spans.targets(api)):
            ops = wl.run_pass(api, state, workdir)
    else:
        ops = wl.run_pass(api, state, workdir)
    assert all(op.error is None for op in ops), [op.error for op in ops]
    return ops, tracer.spans


def test_traced_solves_are_bitwise_identical(api, tmp_path):
    for name in ("dara_sweep", "simplex5_inflow"):
        wl, state = _prepare(api, name, tmp_path / name)
        if name == "dara_sweep":
            state.runs = state.runs[:1]
        plain, _ = _pass(api, wl, state, tmp_path / name / "plain", False)
        traced, recorded = _pass(api, wl, state, tmp_path / name / "traced", True)
        assert recorded, "the traced pass recorded no spans"
        for a, b in zip(plain, traced):
            assert a.value.phi.tobytes() == b.value.phi.tobytes()
            assert a.value.diagnostics == b.value.diagnostics


def test_traced_cli_outputs_are_bitwise_identical(api, tmp_path):
    wl, state = _prepare(api, "paper_examples", tmp_path)
    keep = {"alpha_simplex", "alpha_menu", "weights", "profile_const", "mms"}
    state.commands = [c for c in state.commands if c[0] in keep]
    plain, _ = _pass(api, wl, state, tmp_path / "plain", False)
    traced, recorded = _pass(api, wl, state, tmp_path / "traced", True)
    names = {s[0] for s in recorded}
    assert {"cli.main", "alpha.scalar", "alpha.field", "pde.solve",
            "pde.mms", "pde.tridiag", "config.load_run"} <= names
    for a, b in zip(plain, traced):
        assert a.value.code == b.value.code == 0
        files = sorted(p.name for p in a.value.out.glob("*.csv"))
        assert files
        for f in files:
            assert (a.value.out / f).read_bytes() == (b.value.out / f).read_bytes()


def test_wrappers_are_restored(api):
    before = [getattr(owner, attr) for owner, attr, _, _ in spans.targets(api)]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(spans.targets(api)):
            inside = [getattr(o, a) for o, a, _, _ in spans.targets(api)]
            assert all(w is not f and w.__wrapped__ is f
                       for w, f in zip(inside, before))
            raise RuntimeError("leave the block by an exception")
    after = [getattr(owner, attr) for owner, attr, _, _ in spans.targets(api)]
    assert all(a is b for a, b in zip(after, before))


def test_self_time_subtracts_children():
    spans_ = [["pde.solve", 0.0, 10.0, -1, {"steps": 2, "sweeps": 7,
                                            "max_sweeps": 4, "field_bytes": 8}],
              ["alpha.field", 1.0, 4.0, 0, {"kind": "simplex-n2", "points": 6}],
              ["pde.tridiag", 5.0, 6.0, 0, None]]
    m = spans.layer_metrics(spans.totals(spans_))
    assert m["pde.self_s"] == 6.0
    assert m["alpha.self_s"] == 3.0
    assert m["pde.tridiag.busy_s"] == 1.0
    assert m["alpha.field.us_per_point.simplex-n2"] == pytest.approx(5e5)
    assert m["pde.sweeps_per_step.mean"] == 3.5


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_perturbed_slice_trips_the_check(api, tmp_path):
    wl, state = _prepare(api, "paper_examples", tmp_path)
    ref = run.load_reference("paper_examples")
    out = tmp_path / "profile_dara"
    out.mkdir()
    names = [k.split("/")[1] for k in ref
             if k.startswith("profile_dara/") and not k.endswith(":header")]
    for n in names:
        key = f"profile_dara/{n}"
        _write_csv(out / n, list(ref[key + ":header"]), ref[key])
    op = Op("profile_dara", SimpleNamespace(code=0, out=out, log=""))
    assert wl.check(api, state, [op], ref) == {}

    header = list(ref["profile_dara/slice_tau_10.csv:header"])
    rows = ref["profile_dara/slice_tau_10.csv"].copy()
    rows[200, 1] += 1e-5                              # phi
    _write_csv(out / "slice_tau_10.csv", header, rows)
    assert "exceeds" in wl.check(api, state, [op], ref)["profile_dara"][0]

    rows = ref["profile_dara/slice_tau_10.csv"].copy()
    rows[200, 3:] = [0.5, 0.5]                        # weights off the QP optimum
    assert workloads.kkt_rows(api, state.models["profile_dara"], rows[200:201, 0],
                              rows[200:201, 1], rows[200:201, 2],
                              rows[200:201, 3:], "row 200")

    failed = Op("verify", SimpleNamespace(code=1, out=out, log="FAIL x\n"))
    assert "exit code 1" in wl.check(api, state, [failed], ref)["verify"][0]


def test_perturbed_solution_trips_the_check(api, tmp_path):
    wl, state = _prepare(api, "dara_sweep", tmp_path)
    state.runs = state.runs[:1]
    ref = run.load_reference("dara_sweep")
    (op,) = wl.run_pass(api, state, tmp_path)
    assert wl.check(api, state, [op], ref) == {}

    sol = op.value
    phi = sol.phi.copy()
    phi[-1, 123] += 1e-5
    bad = Op(op.label, dataclasses.replace(sol, phi=phi))
    assert any("final phi" in p for p in wl.check(api, state, [bad], ref)[op.label])

    diags = list(sol.diagnostics)
    diags[7] = dataclasses.replace(diags[7], flux_left=diags[7].flux_left + 1e-6)
    bad = Op(op.label, dataclasses.replace(sol, diagnostics=tuple(diags)))
    assert any("mass balance" in p for p in wl.check(api, state, [bad], ref)[op.label])


def test_seed_changes_inputs_not_shape():
    def shape(doc):
        model = doc["model"]
        return (len(model["assets"]["mu"]), model.get("decision_set"),
                model.get("inflow"), doc["pde"], sorted(doc["utility"]))

    for name, wl in WORKLOADS.items():
        a, b = wl.inputs(1), wl.inputs(2)
        assert a == wl.inputs(1), f"{name}: inputs are not a function of the seed"
        assert a != b, f"{name}: a second seed left the inputs unchanged"
        assert len(a["docs"]) == len(b["docs"])
        assert [shape(d) for d in a["docs"].values()] == \
               [shape(d) for d in b["docs"].values()]
    # paper_examples is the shipped example: the seed reaches verify only
    pe = WORKLOADS["paper_examples"]
    assert pe.inputs(1)["docs"] == pe.inputs(2)["docs"]


def test_reference_pools_match_the_generators():
    ref = run.load_reference("dara_sweep")
    assert [tuple(p) for p in ref["params"].tolist()] == workloads.dara_pool()
    assert ref["final_phi"].shape == (workloads.DARA_POOL, 400)
    ref = run.load_reference("simplex5_inflow")
    assert ref["final_phi"].shape == (workloads.SIMPLEX5_POOL, 128)
    for i in range(workloads.SIMPLEX5_POOL):
        sigma = np.array(workloads.simplex5_model(i)["covariance"]["correlation"])
        assert np.linalg.eigvalsh(sigma).min() > 0.5


def test_benchmark_json_lists_what_the_benchmark_prints():
    import json
    from collections import defaultdict
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
           [(w.name, w.why) for w in WORKLOADS.values()]
    fake = {"wall_ref_s_samples": [1.0], "setup_s_samples": [1.0],
            "peak_rss_mb": 1.0}
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
           [(k, u) for k, (_, u) in run.end_to_end(fake).items()]
    layer = [*spans.layer_metrics(defaultdict(float)), "trace.overhead_frac"]
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
           [(k, spans.unit(k)) for k in layer]


def test_speed_probe_restores_the_timer_and_scales_by_its_kernels():
    import signal
    import time
    import probe
    before = signal.getsignal(signal.SIGALRM)
    with probe.SpeedProbe() as p:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert all(p.samples.values())
    assert p.busy_s == pytest.approx(sum(map(sum, p.samples.values())))
    # every kernel twice its reference time gives a factor of 2
    p.samples = {k: [2.0 * t] for k, t in probe.REFERENCE_S.items()}
    assert p.factor() == pytest.approx(2.0)
