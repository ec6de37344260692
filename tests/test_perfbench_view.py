"""The benchmark reads results the way the package returns them.

Tier-1 collects only ``tests/``, so a renamed result field or a deleted
traced name would fail every call of ``perfbench/run.py`` while this suite
stayed green.  Here the benchmark's own modules are loaded read-only, and
one small traced call per kind of job goes through ``run.run_job`` and
``checks.check_call`` as in ``run.timed_loop``.
"""
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from spectra_rrqr import testmat

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

JOBS = [
    dict(algo="rand-tau", f=2.0, tau=1e-8, kind="srht", sketch_seed=3),
    dict(algo="rand-rank", f=2.0, k=12, kind="gaussian", sketch_seed=4),
    dict(algo="srrqr-tau", f=1.1, tau=1e-8),
]


def load(monkeypatch, name):
    """Import ``perfbench/<name>.py`` under a private name, writing nothing."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def trace_targets(tracing):
    """(owner, attribute, value) of every trace point, as installed now."""
    out = []
    for modname, path, _, _ in tracing.TRACE_POINTS:
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out.append((owner, attr, getattr(owner, attr)))
    return out


@pytest.mark.parametrize("params", JOBS, ids=[j["algo"] for j in JOBS])
def test_run_job_passes_the_benchmark_checks(monkeypatch, params):
    run, checks, tracing, workloads = (
        load(monkeypatch, name) for name in ("run", "checks", "tracing", "workloads")
    )
    spec = testmat.MatrixSpec(testmat.Stewart(m=256, n=32, q=0.8), seed=5)
    mats = {"fx": testmat.generate(spec)}
    job = workloads.Job(label="fx/0", fixture="fx", ref_k=frozenset(), **params)
    before = trace_targets(tracing)
    tracer = tracing.Tracer()
    with tracer.installed(0):
        res = run.run_job(job, mats)
    # every trace point is put back
    assert all(getattr(o, a) is v for o, a, v in before)
    assert {s.name for s in tracer.spans} >= {"srrqr.srrqr", "srrqr.growth"}
    assert all(s.attrs for s in tracer.spans if s.parent is None)

    job = dataclasses.replace(job, ref_k=frozenset({res.k}))
    cmax, reasons = checks.check_call(job, res, mats["fx"].shape[1])
    assert reasons == [] and np.isfinite(cmax)
    # the swap count as run.timed_loop reads it is that of the one srrqr
    # run of the call: on the sketch for a randomized call
    swaps = getattr(res, "swap_count", None)
    if swaps is None:
        swaps = res.sketch_result.swap_count
    (span,) = [s for s in tracer.spans if s.name == "srrqr.srrqr"]
    assert isinstance(swaps, int) and span.attrs["swaps"] == swaps
