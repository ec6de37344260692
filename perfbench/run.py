#!/usr/bin/env python3
"""Benchmark for spectra-rrqr: one workload per process, serial calls.

    python3 perfbench/run.py --workload paper-tau --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run generates its fixtures from ``--seed``, makes one untimed
warm-up call, then calls the package through its public functions in whole
passes over the workload's calls for about ``--seconds`` seconds (always at
least one pass) and checks every returned factorization outside the timed
region.  A fixed reference kernel (``reference.py``) runs between calls; the
time metrics divide each call's wall time by the kernel's, so that drift in
the speed of a shared host cancels.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls of the same jobs and reports per-layer metrics
from the traced ones, plus the tracing overhead.  The last line of standard
output is one JSON object; the full result (environment block, every call,
every metric) goes to ``.perfbench/`` at the checkout root, with the spans
of a traced run next to it.  ``--smoke`` switches to the 2048x125 quick tier
used by the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="2048x125 quick tier")
    return p.parse_args(argv)


def import_package() -> None:
    """Import numpy and the package from ``src/``."""
    # single-threaded BLAS unless the caller chose otherwise: on a shared
    # 2-core machine threaded kernels spread call times about 3x wider
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    pkg = SRC / "spectra_rrqr"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {pkg}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import spectra_rrqr

    if Path(spectra_rrqr.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"benchmark: imported {spectra_rrqr.__file__}, not {pkg}")


def import_seconds() -> list[float]:
    """Time ``import spectra_rrqr`` in ``SETUP_REPS`` fresh interpreters.

    The benchmark's own process imported the package once already; a fresh
    interpreter pays the whole import again, as a user's process does.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import spectra_rrqr"], env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def environment(load_start) -> dict:
    import numpy as np
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "spectra_rrqr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "SPECTRA_RRQR_THREADS": os.environ.get("SPECTRA_RRQR_THREADS"),
        "loadavg_start": list(load_start),
    }


def run_job(job, mats):
    """One factorization call through the package's public functions.

    The modules are looked up at call time, so a traced call goes through
    the wrappers :class:`tracing.Tracer` installs.
    """
    rand = sys.modules["spectra_rrqr.rand_srrqr"]
    det = sys.modules["spectra_rrqr.srrqr"]
    mat = mats[job.fixture]
    if job.algo == "rand-tau":
        return rand.rand_srrqr_tol(
            mat, f=job.f, tau=job.tau, seed=job.sketch_seed, kind=job.kind, want_q=False
        )
    if job.algo == "rand-rank":
        return rand.rand_srrqr_rank(
            mat, f=job.f, k=job.k, seed=job.sketch_seed, kind=job.kind, want_q=False
        )
    config = det.SrrqrConfig(f=job.f, mode=det.Tolerance(job.tau))
    return det.srrqr(mat, config, want_q=False)


def setup(name, seed, smoke):
    """Build the workload and generate its fixtures ``SETUP_REPS`` times,
    then make one untimed warm-up call.

    Returns the workload, the last fixtures, and the set-up times in seconds:
    every fixture generation and the warm-up call.
    """
    import workloads
    from spectra_rrqr import testmat

    gen_s, mats = [], None
    for _ in range(SETUP_REPS):
        mats = None
        t0 = time.perf_counter()
        wl = workloads.build(name, seed, smoke)
        mats = {label: testmat.generate(spec) for label, spec in wl.fixtures.items()}
        gen_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    run_job(wl.jobs[0], mats)
    return wl, mats, {"generate_s": gen_s, "warm_up_s": time.perf_counter() - t0}


def timed_loop(wl, mats, seconds, tracer):
    """Call the jobs in whole passes until the time is up; check each result.

    A block of reference kernel runs follows every call, and one precedes
    the first, so each call is bracketed by two blocks.  A further pass starts
    only if it is likely to end within ``seconds``; the first always runs.
    With a tracer every job runs twice in a row, once traced and once not,
    the order alternating from job to job.
    """
    import reference
    from checks import check_call

    jobs = wl.jobs
    step = 2 if tracer else 1
    per_pass = step * len(jobs)
    fixtures = list(mats.values())
    calls, refs = [], [reference.run_ms(fixtures)]
    wall0 = time.perf_counter()
    i = 0
    while i % per_pass or i == 0 or (time.perf_counter() - wall0) * (i + per_pass) / i <= seconds:
        job = jobs[(i // 2 if tracer else i) % len(jobs)]
        traced = tracer is not None and (i % 2) != (i // 2) % 2
        rec = {"call_id": i, "job": job.label, "traced": traced, "rows": mats[job.fixture].shape[0]}
        res, err = None, None
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed(i):
                    res = run_job(job, mats)
            else:
                res = run_job(job, mats)
        except Exception:  # a raising call is a failed call, never retried
            err = traceback.format_exc()
        rec["ms"] = (time.perf_counter() - t0) * 1e3
        refs.append(reference.block_ms(fixtures, rec["ms"], refs[-1]))
        rec["ref_ms"] = (refs[-2] + refs[-1]) / 2
        if err is not None:
            rec.update(ok=False, reasons=[err.strip().splitlines()[-1]], traceback=err)
        else:
            cmax, reasons = check_call(job, res, mats[job.fixture].shape[1])
            swaps = getattr(res, "swap_count", None)
            if swaps is None:
                swaps = res.sketch_result.swap_count
            rec.update(ok=not reasons, reasons=reasons, k=res.k, swap_count=swaps, coupling_max=cmax)
        calls.append(rec)
        i += 1
    return calls


def cost(call) -> float:
    """A call's wall time in units of the reference kernel run next to it."""
    return call["ms"] / call["ref_ms"]


def end_to_end(calls, setup_s):
    costs = [cost(c) for c in calls]
    passed = [c for c in calls if c["ok"]]
    return {
        "factor_per_kref": (1e3 * len(costs) / sum(costs), "1/kref"),
        "factor_cost_p50": (statistics.median(costs), "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_ratio": (len(passed) / len(calls), "ratio"),
        "coupling_mean": (statistics.mean(c["coupling_max"] for c in passed) if passed else 0.0, "1"),
    }


def wall_times(calls) -> dict:
    """Unnormalized wall-clock figures of the given calls."""
    ms = [c["ms"] for c in calls]
    return {
        "host.factor_ms_p50": (statistics.median(ms), "ms"),
        "host.factor_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "host.ref_ms": (statistics.median(c["ref_ms"] for c in calls), "ms"),
    }


def per_layer(calls, spans, generate_ms):
    from tracing import self_times_ns

    traced = [c for c in calls if c["traced"]]
    untraced = [c for c in calls if not c["traced"]]
    n = len(traced)
    rows_in = {c["call_id"]: c["rows"] for c in traced}
    selfs = self_times_ns(spans)
    incl = defaultdict(float)
    for s in spans:
        incl[s.name] += s.duration_ns / 1e6
    rand_self_ms = sum(selfs[s.span_id] for s in spans if s.layer == "rand_srrqr") / 1e6
    applies = [s for s in spans if s.name == "sketch.apply"]
    finals = [s for s in spans if s.name == "dense_core.final_qr"]
    pivots = [s for s in spans if s.name == "srrqr.srrqr"]
    roots = [s for s in spans if s.parent is None]
    rand_roots = [s for s in roots if s.layer == "rand_srrqr"]
    # a span whose call raised carries no attributes
    sketch_ops = sum(s.attrs.get("ops", 0.0) for s in applies)
    final_flops = sum(s.attrs.get("flops", 0.0) for s in finals)
    swaps = sum(s.attrs.get("swaps", 0) for s in pivots)
    steps = swaps + sum(s.attrs.get("k", 0) for s in pivots)

    def rate(ops, busy_ms):
        return ops / (busy_ms * 1e6) if busy_ms > 0 else 0.0

    def per_call(x):
        return x / n

    traced_ms = sum(c["ms"] for c in traced)
    untraced_ms = sum(c["ms"] for c in untraced)
    return {
        "testmat.generate_ms": (generate_ms, "ms"),
        "sketch.pad_ms": (per_call(incl["sketch.pad"]), "ms"),
        "sketch.apply_ms": (per_call(incl["sketch.apply"]), "ms"),
        "sketch.fwht_ms": (per_call(incl["sketch.fwht"]), "ms"),
        "sketch.rng_ms": (per_call(incl["sketch.rng"]), "ms"),
        "sketch.rows_ratio": (
            statistics.mean(rows_in[s.call_id] / s.attrs["rows"] for s in applies if s.attrs)
            if any(s.attrs for s in applies) else 0.0,
            "ratio",
        ),
        "sketch.ops": (per_call(sketch_ops), "flop"),
        "sketch.gflops": (rate(sketch_ops, incl["sketch.apply"]), "Gflop/s"),
        "srrqr.pivot_ms": (per_call(incl["srrqr.srrqr"]), "ms"),
        "srrqr.growth_ms": (per_call(incl["srrqr.growth"]), "ms"),
        "srrqr.interchange_ms": (per_call(incl["srrqr.interchange"]), "ms"),
        "srrqr.steps": (per_call(steps), "count"),
        "srrqr.swap_count": (per_call(swaps), "count"),
        "srrqr.ms_per_step": (incl["srrqr.srrqr"] / steps if steps else 0.0, "ms"),
        "dense_core.final_qr_ms": (per_call(incl["dense_core.final_qr"]), "ms"),
        "dense_core.final_qr_gflops": (rate(final_flops, incl["dense_core.final_qr"]), "Gflop/s"),
        "rand_srrqr.self_ms": (per_call(rand_self_ms), "ms"),
        "rand_srrqr.eps_measured_ratio": (
            sum(s.attrs.get("eps_measured", False) for s in rand_roots) / len(rand_roots)
            if rand_roots else 0.0,
            "ratio",
        ),
        "trace.call_ms": (per_call(sum(s.duration_ns for s in roots) / 1e6), "ms"),
        "trace.overhead_ratio": (1.0 - (untraced_ms / len(untraced)) / (traced_ms / n), "ratio"),
        **wall_times(untraced),
    }


def main(argv=None) -> int:
    load_start = os.getloadavg()
    args = parse_args(argv)
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    env = environment(load_start)
    print("# env " + json.dumps(env), flush=True)

    wl, mats, setup_times = setup(args.workload, args.seed, args.smoke)
    setup_times["import_s"] = import_seconds()
    # set-up as a user pays it: import, fixture generation, warm-up call
    setup_s = (statistics.median(setup_times["import_s"])
               + statistics.median(setup_times["generate_s"]) + setup_times["warm_up_s"])
    generate_ms = statistics.median(setup_times["generate_s"]) * 1e3
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    calls = timed_loop(wl, mats, args.seconds, tracer)
    failed = sum(not c["ok"] for c in calls)

    if tracer:
        metrics = per_layer(calls, tracer.spans, generate_ms)
    else:
        metrics = end_to_end(calls, setup_s)
    for c in calls:
        if not c["ok"]:
            print(f"# FAILED call {c['call_id']} {c['job']}: {'; '.join(c['reasons'])}")
    print(f"# {args.workload} seed={args.seed}: {len(calls)} calls "
          f"({len(calls) - failed} passed), medians over {len(calls)} samples")
    shown = metrics if tracer else {**metrics, **wall_times(calls)}
    for name, (value, unit) in shown.items():
        print(f"# {name} = {value:.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({
            "env": env, "args": vars(args), "setup": setup_times, "calls": calls,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }, fh, indent=1)
    if tracer:
        tracer.write_jsonl(f"{stem}.spans.jsonl")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
