"""Tests of the benchmark itself, on the 2048x125 quick tier.

    python -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spectra_rrqr import SrrqrConfig, Tolerance, srrqr  # noqa: E402

from checks import check_call  # noqa: E402
from run import end_to_end  # noqa: E402
from tracing import Span, self_times_ns  # noqa: E402
from workloads import Job  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seed=0):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = result_of(run_bench(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        entry = res["metrics"].pop(metric["name"])
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
    assert res["metrics"] == {}


def test_traced_run_self_times_sum_to_call_time():
    res = result_of(run_bench("paper-tau", 1))
    got = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(got) == {m["name"] for m in SPEC["per_layer"]}
    stages = (got["rand_srrqr.self_ms"] + got["sketch.pad_ms"] + got["sketch.apply_ms"]
              + got["srrqr.pivot_ms"] + got["dense_core.final_qr_ms"])
    assert stages == pytest.approx(got["trace.call_ms"], rel=1e-9)
    assert got["sketch.ops"] > 0 and got["dense_core.final_qr_gflops"] > 0
    assert got["sketch.rows_ratio"] == 1.0


def test_traced_swap_det_counts_interchanges():
    got = {k: v["value"] for k, v in result_of(run_bench("swap-det", 1))["metrics"].items()}
    assert got["srrqr.swap_count"] > 0 and got["srrqr.interchange_ms"] > 0
    assert got["sketch.apply_ms"] == 0 and got["dense_core.final_qr_ms"] == 0


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("paper-tau", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_subtract_children():
    spans = [
        Span(0, "rand_srrqr.rand_srrqr_tol", 0, 100, None, 0, {}),
        Span(1, "sketch.apply", 10, 40, 0, 0, {}),
        Span(2, "sketch.fwht", 15, 35, 1, 0, {}),
        Span(3, "dense_core.final_qr", 50, 90, 0, 0, {}),
    ]
    assert self_times_ns(spans) == {0: 30, 1: 10, 2: 20, 3: 40}


def test_costs_divide_wall_time_by_reference_time():
    calls = [{"ms": ms, "ref_ms": ref, "ok": True, "coupling_max": 1.0}
             for ms, ref in [(100.0, 10.0), (300.0, 20.0), (120.0, 10.0)]]
    got = {k: v for k, (v, _) in end_to_end(calls, 1.0).items()}
    assert got["factor_cost_p50"] == pytest.approx(12.0)
    assert got["factor_per_kref"] == pytest.approx(1e3 * 3 / (10.0 + 15.0 + 12.0))


def test_gate_rejects_wrong_rank_and_broken_certificate():
    mat = np.random.default_rng(0).standard_normal((60, 12)) @ np.diag(10.0 ** -np.arange(12))
    res = srrqr(mat, SrrqrConfig(f=1.1, mode=Tolerance(1e-6)), want_q=False)
    job = Job(label="t", fixture="t", algo="srrqr-tau", f=1.1, tau=1e-6, ref_k=frozenset({res.k}))
    assert check_call(job, res, 12)[1] == []
    wrong_k = Job(label="t", fixture="t", algo="srrqr-tau", f=1.1, tau=1e-6,
                  ref_k=frozenset({res.k + 1}))
    assert check_call(wrong_k, res, 12)[1]
    res.factorization.r12[0, 0] += 10.0 * abs(res.factorization.r11[0, 0])
    assert any("coupling" in r for r in check_call(job, res, 12)[1])
