import importlib.util
import json
import os
import py_compile
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)
verdict = bench_ab.verdict

# ten parent runs with q1-q3 = 1.0225-1.0675, median 1.045
PARENT = [1.00 + 0.01 * i for i in range(10)]


def scaled(samples, factor):
    return [factor * v for v in samples]


class TestVerdict:
    def test_identical_runs_are_the_same(self):
        assert verdict([7.0] * 10, [7.0] * 10, True, None) == ("same", 0)

    @pytest.mark.parametrize("bound", [0.25, None])
    def test_lower_is_better_gain(self, bound):
        assert verdict(PARENT, scaled(PARENT, 0.8), True, bound) == \
            ("gain", 10)

    @pytest.mark.parametrize("bound", [0.25, None])
    def test_higher_is_better_gain(self, bound):
        assert verdict(PARENT, scaled(PARENT, 1.2), False, bound) == \
            ("gain", 10)

    def test_direction_decides_gain_or_worse(self):
        # the same samples are a gain one way and worse the other
        change = scaled(PARENT, 1.5)
        assert verdict(PARENT, change, False, 0.25) == ("gain", 10)
        assert verdict(PARENT, change, True, 0.25) == ("worse", 0)
        change = scaled(PARENT, 0.5)
        assert verdict(PARENT, change, True, 0.25) == ("gain", 10)
        assert verdict(PARENT, change, False, 0.25) == ("worse", 0)

    def test_nine_wins_of_ten_are_enough(self):
        change = scaled(PARENT, 0.8)
        change[0] = PARENT[0] + 1.0
        assert verdict(PARENT, change, True, 0.25) == ("gain", 9)

    def test_eight_wins_of_ten_are_not(self):
        change = scaled(PARENT, 0.8)
        change[0] = change[1] = 5.0
        assert verdict(PARENT, change, True, 0.25) == ("no worse", 8)

    def test_all_wins_within_the_parents_spread_are_not_a_gain(self):
        # the median moves by 0.03, less than the parent's q3 - q1 of 0.045
        change = [v - 0.03 for v in PARENT]
        assert verdict(PARENT, change, True, 0.25) == ("no worse", 10)

    def test_worse_by_more_than_the_bound(self):
        assert verdict(PARENT, scaled(PARENT, 1.3), True, 0.25)[0] == \
            "worse"
        assert verdict(PARENT, scaled(PARENT, 1.2), True, 0.25)[0] == \
            "no worse"

    def test_parent_spread_wider_than_the_bound_is_unresolved(self):
        change = [v + 0.001 for v in PARENT]
        assert verdict(PARENT, change, True, 0.01) == ("unresolved", 0)

    def test_clean_separation_resolves_a_wide_spread(self):
        # every change run beats every parent run, but the medians differ
        # by 0.01, less than the parent's q3 - q1 of 0.175
        parent = [1.0] * 6 + [1.1, 1.2, 1.3, 1.4]
        assert verdict(parent, [0.99] * 10, True, 0.01) == ("no worse", 10)

    def test_no_bound_and_no_gain(self):
        change = [v + 0.001 for v in PARENT]
        assert verdict(PARENT, change, True, None) == ("-", 0)


def checkouts(tmp_path):
    """Parent and change roots that pass the argument checks, the change
    holding a BENCHMARK.json with one end-to-end metric."""
    roots = []
    for name in ("parent", "change"):
        root = tmp_path / name
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").touch()
        roots.append(root)
    (roots[1] / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [
            {"name": "wall_ref_s", "better": "lower", "bound": 0.25}]}))
    return roots


class TestFailedRun:
    def test_completed_pairs_are_reported(self, tmp_path, monkeypatch,
                                          capsys):
        calls = []

        def run_once(root, args, seconds):
            calls.append(root.name)
            if len(calls) == 3:
                raise bench_ab.RunFailed("run.py exited 1:\nboom at the end")
            return {"metrics": {"w.wall_ref_s": {"value": 1.0 - 0.1 * (
                        root.name == "change")}},
                    "failed": 0, "attempted": 4}

        monkeypatch.setattr(bench_ab, "run_once", run_once)
        parent, change = checkouts(tmp_path)
        code = bench_ab.main([str(parent), str(change), "--pairs", "3"])
        assert code == 1
        # pair 2 runs the change first, and that run fails
        assert calls == ["parent", "change", "change"]
        out, err = capsys.readouterr()
        row = next(line for line in out.splitlines()
                   if line.startswith("w.wall_ref_s"))
        assert "1/1" in row and "gain" in row
        assert "parent: 0 of 4 operations failed" in out
        last = err.strip().splitlines()
        assert "completed pairs: 1; stopped at pair 2/3, change" in last[-2]
        assert last[-1] == "boom at the end"

    def test_a_non_zero_exit_raises_with_the_stderr_tail(self, tmp_path,
                                                         monkeypatch):
        def failing(cmd, **kwargs):
            return subprocess.CompletedProcess(cmd, 2, "", "x" * 3000 + "end")

        monkeypatch.setattr(bench_ab.subprocess, "run", failing)
        args = bench_ab.parse_args(
            [str(root) for root in checkouts(tmp_path)])
        with pytest.raises(bench_ab.RunFailed, match="exited 2") as info:
            bench_ab.run_once(tmp_path, args, 1)
        assert str(info.value).endswith("x" * 1997 + "end")


class TestBytecodeCache:
    def test_each_side_compiles_in_its_own_fresh_cache(self, tmp_path,
                                                       monkeypatch, capsys):
        # each checkout holds probe.py and, in its __pycache__, a valid
        # byte-code file of older source of the same size and mtime: a run
        # that read the checkout's cache would import the stale value
        parent, change = checkouts(tmp_path)
        planted = {}
        for root in (parent, change):
            src = root / "probe.py"
            src.write_text("VALUE = 'old'\n")
            pyc = (root / "__pycache__"
                   / f"probe.{sys.implementation.cache_tag}.pyc")
            py_compile.compile(
                str(src), cfile=str(pyc),
                invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)
            planted[root.name] = pyc
            stat = src.stat()
            src.write_text("VALUE = 'new'\n")
            os.utime(src, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        planted_bytes = {k: p.read_bytes() for k, p in planted.items()}
        probe = [sys.executable, "-c", "import probe; print(probe.VALUE)"]
        plain = {k: v for k, v in os.environ.items()
                 if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX")}
        stale = subprocess.run(probe, cwd=parent, capture_output=True,
                               text=True, env=plain)
        assert stale.stdout.strip() == "old"  # the plant is live

        seen = []
        real_run = subprocess.run

        def run(cmd, *, cwd, env, **kwargs):
            prefix = env["PYTHONPYCACHEPREFIX"]
            fresh = not any(p == prefix for _, p, _, _ in seen)
            if fresh:
                assert os.listdir(prefix) == []
            value = real_run(probe, cwd=cwd,
                             env={**plain, "PYTHONPYCACHEPREFIX": prefix},
                             capture_output=True, text=True).stdout.strip()
            seen.append((Path(cwd).name, prefix, fresh, value))
            summary = {"metrics": {"w.wall_ref_s": {"value": 1.0}},
                       "failed": 0, "attempted": 1}
            return subprocess.CompletedProcess(cmd, 0, json.dumps(summary),
                                               "")

        monkeypatch.setattr(bench_ab.subprocess, "run", run)
        assert bench_ab.main([str(parent), str(change), "--pairs", "2"]) == 0
        assert [side for side, *_ in seen] == ["parent", "change", "change",
                                               "parent"]
        prefixes = {side: prefix for side, prefix, _, _ in seen}
        assert prefixes["parent"] != prefixes["change"]
        # one prefix per side over all pairs, fresh at its first run
        assert {prefix for _, prefix, _, _ in seen} == set(prefixes.values())
        assert [fresh for *_, fresh, _ in seen] == [True, True, False, False]
        assert all(value == "new" for *_, value in seen)
        assert not any(Path(p).exists() for p in prefixes.values())
        assert {k: p.read_bytes() for k, p in planted.items()} == \
            planted_bytes
        assert capsys.readouterr().out.splitlines()[0].startswith(
            "each side ran with its own fresh PYTHONPYCACHEPREFIX")


def synthetic_runs(change_factor):
    """run_once giving the parent run i the value PARENT[i] and the change
    run change_factor times it, with four operations per run, one of which
    fails on the parent's side."""
    seen = {"parent": 0, "change": 0}

    def run_once(root, args, seconds):
        i = seen[root.name]
        seen[root.name] += 1
        value = PARENT[i] * (change_factor if root.name == "change" else 1.0)
        return {"metrics": {"w.wall_ref_s": {"value": value},
                            "w.unlisted_s": {"value": 1.0}},
                "failed": int(root.name == "parent" and i == 0),
                "attempted": 4}

    return run_once


def commit_all(root):
    """Make `root` a git checkout with all its files committed; returns the
    commit."""
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t"]
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "c"]):
        subprocess.run(git + cmd, check=True)
    return subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()


class TestRecord:
    def test_the_file_holds_the_comparison(self, tmp_path, monkeypatch,
                                           capsys):
        parent, change = checkouts(tmp_path)
        head = commit_all(parent)
        monkeypatch.setattr(bench_ab, "run_once", synthetic_runs(0.8))
        out = tmp_path / "BENCH.json"
        assert bench_ab.main([str(parent), str(change), "--pairs", "10",
                              "--workload", "w", "--seed", "3",
                              "--record", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["parent"] == {"commit": head,
                                 "uncommitted_changes": False}
        assert doc["change"] == {"commit": None, "uncommitted_changes": None}
        assert (doc["pairs"], doc["workload"], doc["seed"], doc["trace"],
                doc["run_seconds"]) == (10, "w", 3, 0, 1)
        # the metric BENCHMARK.json does not list is left out, as in the
        # printed report
        row = doc["metrics"].pop("w.wall_ref_s")
        assert doc["metrics"] == {}
        assert row["parent"] == pytest.approx(
            {"median": 1.045, "q1": 1.0225, "q3": 1.0675}, abs=1e-12)
        assert row["change"] == pytest.approx(
            {"median": 0.836, "q1": 0.818, "q3": 0.854}, abs=1e-12)
        assert (row["wins"], row["verdict"]) == (10, "gain")
        assert doc["operations"] == {
            "parent": {"failed": 1, "attempted": 40},
            "change": {"failed": 0, "attempted": 40}}
        assert doc["host_cores"] == os.cpu_count()
        assert set(doc["versions"]) == {"python", "numpy", "scipy"}
        assert doc["versions"]["numpy"] == np.__version__
        # the file and the printed report agree
        printed = next(line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("w.wall_ref_s"))
        assert printed.split()[1:] == ["1.045", "(1.0225-1.0675)", "0.836",
                                       "(0.818-0.854)", "10/10", "gain"]

    def test_a_tracked_edit_is_recorded(self, tmp_path, monkeypatch):
        parent, change = checkouts(tmp_path)
        commit_all(change)
        (change / "perfbench" / "run.py").write_text("# edited\n")
        monkeypatch.setattr(bench_ab, "run_once", synthetic_runs(1.0))
        out = tmp_path / "BENCH.json"
        assert bench_ab.main([str(parent), str(change), "--pairs", "2",
                              "--record", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["change"]["uncommitted_changes"] is True
        assert doc["metrics"]["w.wall_ref_s"]["verdict"] == "no worse"

    def test_a_failed_run_writes_no_file(self, tmp_path, monkeypatch):
        calls = []
        passing = synthetic_runs(0.8)

        def run_once(root, args, seconds):
            calls.append(root.name)
            if len(calls) == 3:
                raise bench_ab.RunFailed("run.py exited 1:\nboom")
            return passing(root, args, seconds)

        monkeypatch.setattr(bench_ab, "run_once", run_once)
        parent, change = checkouts(tmp_path)
        out = tmp_path / "BENCH.json"
        assert bench_ab.main([str(parent), str(change), "--pairs", "3",
                              "--record", str(out)]) == 1
        assert not out.exists()
