#!/usr/bin/env python3
"""Print the decisions and factor bytes of 48 benchmark calls, one line each,
then of ``qrcp`` on each of their fixtures and of ``run_volume_decay()``.

    python3 tools/compare_decisions.py SRC_DIR > decisions.txt

``SRC_DIR`` is the ``src/`` directory of the checkout to run; the fixtures
and the calls are those of the benchmark in ``perfbench/`` next to this
script, so two checkouts are compared by running each and diffing:

    diff <(python3 tools/compare_decisions.py ../parent/src) \\
         <(python3 tools/compare_decisions.py src)

The jobs are deterministic ``srrqr`` on the 32 ``swap-det`` pool seeds of
``perfbench/reference_k.json`` (stewart 2048x256), and the 8 ``paper-tau``
and 8 ``rank-odd`` jobs of benchmark seed 1.  A line holds the job's
label, k, ``stop_reason``, ``swap_count``, ``repr(rho)``, and the sha1 of
the permutation, of its swap log, and of the R11, R12 and R22 bytes each.
``rho`` is the result's own for a deterministic job and that of the strong
RRQR of the sketch for a randomized one.  A deterministic job's line ends
with the sha1 of the returned state's ``omega``, ``gamma`` and ``a``, the
quantities that drive later decisions.  A randomized job's line ends with
the sha1 of its sketch ``sketch.apply(op, M)``, formed again from the
call's kind, d and seed, so a change to the sketch's bits shows even where
it moves no decision.

Then comes one ``qrcp`` line for each of the 35 distinct fixtures, labelled
by the first job that uses it and run at that job's smallest reference k,
with Q: the sha1 of the leading k columns of the permutation, of the
transpositions that placed them, of R11, of R12 with its columns in the
input's order, and of Q's leading k columns.  Past the numerical rank
LAPACK orders noise-level columns, a rounding tie that 1e-13 of input
noise breaks another way, so nothing that depends on that order (the rest
of the permutation, R22, the rest of Q) is hashed; ``tests/decision_pins.py``
pins ``qrcp`` the same way.
The last line is ``bench.run_volume_decay()`` with its defaults: its slope
as ``repr`` and the sha1 of the ``repr`` of its rows.  BLAS runs on one
thread unless ``OPENBLAS_NUM_THREADS`` says otherwise, as in the benchmark;
``SPECTRA_RRQR_THREADS`` caps the package's threads as usual.  A run takes
about 30 s on 2 cores.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the swap-det pool (full size) and the benchmark seed of the other jobs
STEWART = dict(m=2048, n=256, q=0.8)
BENCH_SEED = 1


def sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()[:12]


def factor_hashes(fact) -> list[str]:
    """sha1 of a factorization's permutation, its swap log, R11, R12 and R22."""
    hashes = [sha1(fact.perm.forward.tobytes()), sha1(repr(fact.perm.swaps).encode())]
    return hashes + [sha1(getattr(fact, name).tobytes()) for name in ("r11", "r12", "r22")]


def jobs():
    """(label, job, MatrixSpec) for every comparison call, in print order."""
    import workloads
    from spectra_rrqr import testmat

    rec = workloads.load_reference()[workloads.stewart_key(**STEWART)]
    for s in sorted(int(s) for s in rec["k"]):
        job = workloads.Job(
            label=f"stewart/{s}", fixture="m", algo="srrqr-tau",
            f=rec["f"], tau=rec["tau"], ref_k=frozenset({rec["k"][str(s)]}),
        )
        yield f"swap-det:{job.label}", job, testmat.MatrixSpec(testmat.Stewart(**STEWART), seed=s)
    for name in ("paper-tau", "rank-odd"):
        wl = workloads.build(name, BENCH_SEED)
        for job in wl.jobs:
            yield f"{name}:{job.label}", job, wl.fixtures[job.fixture]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src_dir", type=Path, help="the src/ directory of the checkout to run")
    args = p.parse_args(argv)
    if not (args.src_dir / "spectra_rrqr" / "__init__.py").is_file():
        p.error(f"no package source under {args.src_dir}")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path[:0] = [str(args.src_dir.resolve()), str(PERFBENCH)]
    import numpy as np
    from run import run_job
    from spectra_rrqr import bench, qrcp, sketch, testmat

    mat_spec = mat = None
    for label, job, spec in jobs():
        # jobs in a row often share a fixture; one is held at a time
        if spec != mat_spec:
            mat_spec, mat = spec, testmat.generate(spec)
        res = run_job(job, {job.fixture: mat})
        hashes = factor_hashes(res.factorization)
        if res.state is not None:
            state = res.state
            hashes += [sha1(getattr(state, name).tobytes()) for name in ("omega", "gamma", "a")]
        rho = res.rho if res.sketch_result is None else res.sketch_result.rho
        if res.kind is not None:
            rows = sketch._operator_rows(res.kind, mat.shape[0])
            op = sketch.SketchOperator(res.kind, res.d, rows, res.seed)
            hashes.append(sha1(sketch.apply(op, mat).tobytes()))
        print(label, res.k, res.stop_reason, res.swap_count, repr(rho), *hashes, flush=True)
    seen = set()
    for label, job, spec in jobs():
        if spec not in seen:
            seen.add(spec)
            k = min(job.ref_k)
            fact = qrcp(testmat.generate(spec), k)
            lead, swaps = fact.perm.forward[:k], [s for s in fact.perm.swaps if s[0] < k]
            r12 = fact.r12[:, np.argsort(fact.perm.forward[k:])]
            hashes = [lead.tobytes(), repr(swaps).encode(), fact.r11.tobytes(),
                      r12.tobytes(), fact.q[:, :k].tobytes()]
            print(f"qrcp:{label}", k, *map(sha1, hashes), flush=True)
    decay = bench.run_volume_decay()
    print("volume-decay", repr(decay["slope"]), sha1(repr(decay["rows"]).encode()), flush=True)
    return 0



if __name__ == "__main__":
    sys.exit(main())
