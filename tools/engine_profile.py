#!/usr/bin/env python3
"""Time the strong-RRQR engine's kernels, the Gaussian sketch and the
stages of a Gaussian call on the benchmark's own inputs.

    python3 tools/engine_profile.py SRC_DIR [--seed N] [--repeat R]

``SRC_DIR`` is the ``src/`` directory of the checkout to run, so the
parent and a change are profiled by the same script, as with
``compare_decisions.py``.  Six inputs are run, each R times after one
untimed warm-up call:

- ``swap-det``: deterministic ``srrqr`` (f=1.1, tau=1e-10, no Q) on the 6
  ``swap-det`` fixtures of benchmark seed N, summed over the 6 calls;
- ``tall-det``: deterministic ``srrqr`` (f=2, tau=1e-10, no Q) on
  ``stairs:8192x500`` of matrix seed 0, the input of acceptance test A12
  and of no benchmark workload: a tall state that grows to k = 400
  without an interchange, so it is never compressed;
- ``sketch-R``: ``srrqr`` (f=2, tau=1e-10, no Q) on the n-by-n R factor of
  the SRHT sketch of the first ``paper-tau`` call of benchmark seed N, the
  pivoting that ``rand_srrqr_tol`` does on the sketch;
- ``hc-R``: the same for the first ``rank-odd`` SRHT call on hc (f=2,
  target rank 333), the pivoting that ``rand_srrqr_rank`` does; its pivots
  come mostly in natural order, so the engine skips most reflectors and
  the QRCP prefix below, which waits for n/8 of them, does not start;
- ``gauss-sketch``: ``sketch.apply`` of the Gaussian operator of the first
  ``rank-odd`` Gaussian call of benchmark seed N to its matrix;
- ``gauss-call``: that whole ``rand_srrqr_rank`` call, as the benchmark
  makes it (no Q).

For each input it prints the whole call and its parts: the count and the
wall time in ms, each the median over the R repeats.  The parts of
``gauss-sketch`` are ``generate``, the shared generation of the operator's
blocks (its count is the chunks), and ``product``, the shared products of
the blocks (its count is the pieces); a checkout that multiplies its blocks
outside ``_threads.share`` counts no piece and puts the products in
``other``.  The parts of ``gauss-call`` are the stages of the result's
``timings_ms``: ``sketch``, ``srrqr_sketch`` (the sketch's R factor, its
pivoting and the copy of M for the worker), ``reduce_m``, ``distortion``
and ``final_qr``; ``other`` is the call outside them.  The parts of the
four ``srrqr`` inputs are the engine kernels: ``SrrqrState._advance``
(split by the state's shape: ``tall`` before a compression, ``square``
once R has no more rows than columns),
``_cycle``, ``_swap_boundary``, ``_compress`` and ``_swap_trailing``, and
the screens ``_first_swap`` and ``_rho_hat_at_most``; then the QRCP
prefix that grows a square or wide state's swap-free steps: ``dgeqp3``
(``_geqp3``), ``replay`` (``_replay``, its own screens included) and
``state``, the rest of ``_qrcp_prefix``: building the state where the
replay stopped; its count is the prefixes tried, and ``handover`` counts
those whose state went on to an interchange before any growth.  A checkout without the
prefix counts none of it.  ``other`` is the call less
the parts, mostly ``_drive``'s own loop.  ``dtrtrs`` is counted, not
timed: one call per interchange, plus one per omega recompute in
``_swap_boundary``.  The wrappers' own calls and clock reads land in the
parts' times and in ``other``.  BLAS runs on one thread unless
``OPENBLAS_NUM_THREADS`` says otherwise, as in the benchmark.  It only
reads ``perfbench/``.
"""
from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import time
from collections import Counter
from functools import partial, wraps
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the kernels timed, in print order: (owner, attribute)
KERNELS = [
    ("SrrqrState", "_advance"),
    ("SrrqrState", "_cycle"),
    ("SrrqrState", "_swap_boundary"),
    ("SrrqrState", "_compress"),
    ("SrrqrState", "_swap_trailing"),
    ("module", "_first_swap"),
    ("module", "_rho_hat_at_most"),
]
# the QRCP prefix's parts: (attribute, printed name); "state" is the whole
# prefix less the other two
PREFIX = [("_geqp3", "dgeqp3"), ("_replay", "replay"), ("_qrcp_prefix", "state")]


def instrument(mod, ms: Counter, calls: Counter) -> None:
    """Wrap the kernels of the ``srrqr`` module ``mod`` to add into ``ms``
    and ``calls``; ``dtrtrs`` and handovers only count.  The screens that
    the replay runs count in ``replay``."""
    replaying = []  # non-empty inside the replay
    grown = []  # non-empty from a prefix that grew pivots to the next step

    def timed(fn, name):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if replaying and name in ("_first_swap", "_rho_hat_at_most"):
                return fn(*args, **kwargs)
            if grown and name in ("_advance", "_cycle"):
                # an interchange before any growth: the prefix stopped at a swap
                calls["handover"] += name == "_cycle"
                grown.clear()
            key = name
            if name == "_advance":
                rows, cols = args[0].r.shape
                key = f"_advance[{'tall' if rows > cols else 'square'}]"
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ms[key] += (time.perf_counter() - t0) * 1e3
                calls[key] += 1

        return wrapper

    for owner, name in KERNELS:
        target = mod.SrrqrState if owner == "SrrqrState" else mod
        setattr(target, name, timed(getattr(target, name), name))
    for name, key in PREFIX:
        if hasattr(mod, name):
            setattr(mod, name, timed(getattr(mod, name), key))
    if hasattr(mod, "_qrcp_prefix"):
        prefix, replay = mod._qrcp_prefix, mod._replay

        def replay_flagged(*args):
            replaying.append(True)
            try:
                return replay(*args)
            finally:
                replaying.clear()

        def prefix_flagged(*args):
            grown.clear()
            state = prefix(*args)
            if state is not None:
                grown.append(True)
            return state

        mod._replay, mod._qrcp_prefix = replay_flagged, prefix_flagged
    dtrtrs = mod.dtrtrs

    def counted(*args, **kwargs):
        calls["dtrtrs"] += 1
        return dtrtrs(*args, **kwargs)

    mod.dtrtrs = counted


def instrument_sketch(threads, ms: Counter, calls: Counter) -> None:
    """Time the Gaussian sketch's shared generation and products, which run
    through ``share`` of the ``_threads`` module ``threads``; their counts
    are the chunks and the pieces."""
    share = threads.share
    parts = {"_fill_gaussian": "generate", "_multiply_pieces": "product"}

    def timed(work, items, workers, *args):
        items = list(items)
        key = parts.get(work.__name__, work.__name__)
        t0 = time.perf_counter()
        try:
            return share(work, items, workers, *args)
        finally:
            ms[key] += (time.perf_counter() - t0) * 1e3
            calls[key] += len(items)

    threads.share = timed


def _sketch_of(job, mat):
    from spectra_rrqr import sketch

    rows = sketch._operator_rows(job.kind, mat.shape[0])
    return sketch.SketchOperator(job.kind, sketch.ose_dim(mat.shape[1], rows), rows, job.sketch_seed)


def _staged(ms: Counter, calls: Counter, call) -> None:
    """Make the randomized ``call`` and add its ``timings_ms`` stages into
    ``ms`` and ``calls``."""
    for stage, t in call().timings_ms.items():
        ms[stage] += t
        calls[stage] += 1


def inputs(seed: int, srrqr, ms: Counter, calls: Counter):
    """(label, parts, [call]) for the swap-det fixtures, the tall stairs,
    the sketch R, the Gaussian sketch and the Gaussian call; the last adds
    its stages into ``ms`` and ``calls``."""
    import numpy as np
    import workloads
    from spectra_rrqr import sketch, testmat
    from spectra_rrqr.bench import resolve_matrix
    from spectra_rrqr.dense_core import _r_factor
    from spectra_rrqr.rand_srrqr import rand_srrqr_rank
    from spectra_rrqr.srrqr import SrrqrConfig, TargetRank, Tolerance

    kernels = ["_advance[tall]", "_advance[square]"] + [name for _, name in KERNELS[1:]]
    kernels += [key for _, key in PREFIX]
    wl = workloads.build("swap-det", seed)
    det = [
        (testmat.generate(wl.fixtures[job.fixture]), SrrqrConfig(job.f, Tolerance(job.tau)))
        for job in wl.jobs
    ]
    yield "swap-det", kernels, [partial(srrqr, mat, cfg, want_q=False) for mat, cfg in det]
    mat = resolve_matrix("stairs:8192x500", 0)
    yield "tall-det", kernels, [partial(srrqr, mat, SrrqrConfig(2.0, Tolerance(1e-10)), want_q=False)]
    wl = workloads.build("paper-tau", seed)
    job = wl.jobs[0]
    mat = testmat.generate(wl.fixtures[job.fixture])
    # as rand_srrqr does: the sketch's n-by-n R factor, pivoted in tolerance mode
    r = _r_factor(np.asfortranarray(sketch.apply(_sketch_of(job, mat), mat)), overwrite=True)
    cfg = SrrqrConfig(job.f, Tolerance(job.tau))
    yield "sketch-R", kernels, [partial(srrqr, r, cfg, want_q=False)]
    wl = workloads.build("rank-odd", seed)
    job = next(job for job in wl.jobs if job.fixture == "hc" and job.kind == "srht")
    mat = testmat.generate(wl.fixtures[job.fixture])
    r = _r_factor(np.asfortranarray(sketch.apply(_sketch_of(job, mat), mat)), overwrite=True)
    yield "hc-R", kernels, [partial(srrqr, r, SrrqrConfig(job.f, TargetRank(job.k)), want_q=False)]
    job = next(job for job in wl.jobs if job.kind == "gaussian")
    mat = testmat.generate(wl.fixtures[job.fixture])
    yield "gauss-sketch", ["generate", "product"], [partial(sketch.apply, _sketch_of(job, mat), mat)]
    call = partial(rand_srrqr_rank, mat, job.f, job.k, seed=job.sketch_seed, kind=job.kind,
                   want_q=False)
    stages = ["sketch", "srrqr_sketch", "reduce_m", "distortion", "final_qr"]
    yield "gauss-call", stages, [partial(_staged, ms, calls, call)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src_dir", type=Path, help="the src/ directory of the checkout to run")
    p.add_argument("--seed", type=int, default=1, help="benchmark seed of the inputs (default 1)")
    p.add_argument("--repeat", type=int, default=5, help="timed runs of each input (default 5)")
    args = p.parse_args(argv)
    if not (args.src_dir / "spectra_rrqr" / "__init__.py").is_file():
        p.error(f"no package source under {args.src_dir}")
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path[:0] = [str(args.src_dir.resolve()), str(PERFBENCH)]
    # the package exports a function of the same name as the module
    mod = importlib.import_module("spectra_rrqr.srrqr")
    threads = importlib.import_module("spectra_rrqr._threads")

    ms, calls = Counter(), Counter()
    instrument(mod, ms, calls)
    instrument_sketch(threads, ms, calls)
    print(f"# medians over {args.repeat} repeats, benchmark seed {args.seed}")
    print(f"{'input':<12} {'part':<20} {'count':>7} {'ms':>9}")
    for label, parts, calls_in in inputs(args.seed, mod.srrqr, ms, calls):
        for call in calls_in:
            call()
        runs = []
        for _ in range(args.repeat):
            ms.clear()
            calls.clear()
            for call in calls_in:
                t0 = time.perf_counter()
                call()
                ms["call"] += (time.perf_counter() - t0) * 1e3
                calls["call"] += 1
            ms["state"] -= ms["dgeqp3"] + ms["replay"]
            # a gauss-call also times the kernels and sketch parts inside its stages
            ms["other"] = ms["call"] - sum(ms[k] for k in parts)
            runs.append((Counter(ms), Counter(calls)))
        counted = [] if label.startswith("gauss-") else ["handover", "dtrtrs"]
        for key in ["call", *parts, "other", *counted]:
            n = "-" if key == "other" else f"{statistics.median(c[key] for _, c in runs):g}"
            t = "-" if key in counted else f"{statistics.median(m[key] for m, _ in runs):.2f}"
            print(f"{label:<12} {key:<20} {n:>7} {t:>9}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
