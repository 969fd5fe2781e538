"""Tests of the benchmark itself: metric names and units, failing certificates.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from coreglasso import CoreScores, Precision, bca  # noqa: E402

import bench  # noqa: E402

from spans import Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "graph_dense": dict(n=16, d=400, lam=0.05, instances=1),
    "grid_path": dict(n=12, d=300, lambdas=(0.05,), es=(0.0, 0.09), instances=2),
    "fit_lp_heavy": dict(n=16, d=400, lam=0.05, instances=1),
}


def tiny(name):
    return dataclasses.replace(bench.WORKLOADS[name], **TINY[name])


def units_of(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, traced, tmp_path):
    result, _ = bench.run(tiny(name), seed=3, seconds=0.0, traced=traced, root=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == tiny(name).instances * tiny(name).units
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units_of("per_layer" if traced else "end_to_end")
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert not list((tmp_path / ".perfbench_out").glob("work-*"))


def test_counts_repeat_between_runs(tmp_path):
    runs = [bench.run(tiny("grid_path"), seed=1, seconds=0.0, traced=True, root=tmp_path)[0]
            for _ in range(2)]
    for key in ("corescore.pivots", "glasso.sweeps", "bca.outer_iters", "io.read_calls"):
        assert runs[0]["metrics"][key] == runs[1]["metrics"][key]
    assert runs[0]["metrics"]["io.read_calls"]["value"] == 2


def test_corrupted_graph_fails_its_certificate(tmp_path, monkeypatch, capsys):
    original = bca.weighted_glasso

    def zero_one_edge(*args, **kwargs):
        res = original(*args, **kwargs)
        theta = res.theta.values.copy()
        off = np.abs(theta) * (1 - np.eye(theta.shape[0]))
        i, j = np.unravel_index(np.argmax(off), off.shape)
        assert theta[i, j] != 0
        theta[i, j] = theta[j, i] = 0.0
        return dataclasses.replace(res, theta=Precision(theta))

    monkeypatch.setattr(bca, "weighted_glasso", zero_one_edge)
    result, _ = bench.run(tiny("graph_dense"), seed=0, seconds=0.0, traced=False, root=tmp_path)
    assert result["failed"] == result["attempted"] == 1
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert "KKT residual" in capsys.readouterr().err


def test_uniform_scores_fail_the_lp_certificate(tmp_path, monkeypatch, capsys):
    original = bca.core_score_lp

    def uniform_start(abs_theta, *args, **kwargs):
        res = original(abs_theta, *args, **kwargs)
        n = len(res.c)
        c = CoreScores(np.full(n, res.c.budget / n), budget=res.c.budget)
        return dataclasses.replace(res, c=c)

    monkeypatch.setattr(bca, "core_score_lp", uniform_start)
    result, _ = bench.run(tiny("fit_lp_heavy"), seed=0, seconds=0.0, traced=False, root=tmp_path)
    assert result["failed"] == 1
    assert not result["correct"]
    assert "score LP relative gap" in capsys.readouterr().err


def test_self_time_excludes_children():
    rec = Recorder(timed=True)
    mod = type("Mod", (), {})()
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: mod.inner() + mod.inner()
    rec.wrap(mod, "inner", "low.inner")
    rec.wrap(mod, "outer", "high.outer")
    with rec.root("solve"):
        mod.outer()
    rec.restore()
    names = [s.name for s in rec.spans]
    assert names == ["solve", "high.outer", "low.inner", "low.inner"]
    assert [s.parent for s in rec.spans] == [None, 0, 1, 1]
    self_s = rec.self_times()
    outer = rec.spans[1]
    assert self_s[1] == pytest.approx(
        outer.duration - rec.spans[2].duration - rec.spans[3].duration)
    assert not hasattr(mod.outer, "__wrapped__")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_path",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
