"""Workload definitions: fixtures, the calls made on them, reference ranks.

A workload is built from the benchmark's ``--seed`` alone: matrix seeds and
sketch seeds are drawn from ``SeedSequence([seed, salt])``, so the same seed
always yields the same inputs.  Every workload makes serial calls in one
process; the seed fan-out thread pool of the package's own ``bench`` module
is not used, so stage timings are not contended on a small machine.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from spectra_rrqr import testmat

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_k.json"

F_PAPER = 2.0
F_SWAP = 1.1
TAU = 1e-10


@dataclass(frozen=True)
class Job:
    """One factorization call, repeated in the timed loop.

    ``algo`` is ``rand-tau`` (``rand_srrqr_tol``), ``rand-rank``
    (``rand_srrqr_rank``) or ``srrqr-tau`` (deterministic ``srrqr`` in
    tolerance mode).  ``ref_k`` is the set of ranks a correct call may
    return on this fixture.
    """

    label: str
    fixture: str
    algo: str
    f: float
    ref_k: frozenset
    tau: float | None = None
    k: int | None = None
    kind: str | None = None
    sketch_seed: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    fixtures: dict  # label -> testmat.MatrixSpec
    jobs: list


def _seeds(seed: int, salt: int, count: int) -> list[int]:
    ss = np.random.SeedSequence([seed, salt])
    return [int(x) for x in ss.generate_state(count)]


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def stewart_key(m: int, n: int, q: float) -> str:
    return f"stewart:{m}x{n}:q={q}"


def paper_tau(seed: int, smoke: bool) -> Workload:
    # The paper's reference load: tolerance mode, SRHT, f=2, tau=1e-10, on
    # the staircase fixture.  Its reference rank, 400, comes from the
    # acceptance criteria (100 for the 2048x125 analogue with stair length
    # 25).  The hc and kahan fixtures are left out: on some sketch seeds
    # their tolerance-mode rank leaves the reference set (see README.md).
    if smoke:
        stairs, ref = testmat.DevilsStairs(m=2048, n=125, stair_len=25), 100
    else:
        stairs, ref = testmat.DevilsStairs(m=8192, n=500), 400
    fixtures = {"stairs": testmat.MatrixSpec(stairs, seed=_seeds(seed, 1, 1)[0])}
    # eight sketch seeds: one pass of calls takes about 20 s
    jobs = [
        Job(
            label=f"stairs/srht/{i}",
            fixture="stairs",
            algo="rand-tau",
            f=F_PAPER,
            tau=TAU,
            kind="srht",
            sketch_seed=sk,
            ref_k=frozenset({ref}),
        )
        for i, sk in enumerate(_seeds(seed, 2, 8))
    ]
    return Workload("paper-tau", fixtures, jobs)


def rank_odd(seed: int, smoke: bool) -> Workload:
    # Fixed-rank mode on a row count that is not a power of two: SRHT pads
    # the rows to the next power of two, the Gaussian sketch does not.
    if smoke:
        stairs = testmat.DevilsStairs(m=1500, n=125, stair_len=25)
        hc = testmat.HC(m=1500, n=125)
        ranks = {"stairs": 100, "hc": 83}
    else:
        stairs = testmat.DevilsStairs(m=6000, n=500)
        hc = testmat.HC(m=6000, n=500)
        ranks = {"stairs": 400, "hc": 333}
    mseed = _seeds(seed, 3, 2)
    fixtures = {
        "stairs": testmat.MatrixSpec(stairs, seed=mseed[0]),
        "hc": testmat.MatrixSpec(hc, seed=mseed[1]),
    }
    # per pass, each fixture meets SRHT three times and the Gaussian sketch
    # once.  A Gaussian call costs about 1.5 SRHT calls, so a pass split
    # evenly between the kinds would put its median in the gap between
    # them, where it jumps from run to run; with SRHT in the majority the
    # median falls among the SRHT calls.
    combos = [("stairs", "srht"), ("hc", "srht"), ("stairs", "gaussian"), ("hc", "srht"),
              ("stairs", "srht"), ("hc", "gaussian"), ("stairs", "srht"), ("hc", "srht")]
    jobs = [
        Job(
            label=f"{fx}/{kind}/{i}",
            fixture=fx,
            algo="rand-rank",
            f=F_PAPER,
            k=ranks[fx],
            kind=kind,
            sketch_seed=sk,
            ref_k=frozenset({ranks[fx]}),
        )
        for i, ((fx, kind), sk) in enumerate(zip(combos, _seeds(seed, 4, len(combos))))
    ]
    return Workload("rank-odd", fixtures, jobs)


def swap_det(seed: int, smoke: bool) -> Workload:
    # Deterministic srrqr at f=1.1 on Stewart matrices, the one load where
    # interchanges do most of the work.  Matrix seeds come from the pool
    # whose ranks were recorded at the seed commit (reference_k.json), so
    # every input the workload can generate has a known reference rank.
    m, n, q = (1024, 128, 0.6) if smoke else (2048, 256, 0.8)
    rec = load_reference()[stewart_key(m, n, q)]
    pool = sorted(int(s) for s in rec["k"])
    rng = np.random.default_rng(_seeds(seed, 5, 1)[0])
    picked = [pool[i] for i in rng.choice(len(pool), size=6, replace=False)]
    fixtures = {
        f"stewart/{s}": testmat.MatrixSpec(testmat.Stewart(m=m, n=n, q=q), seed=s)
        for s in picked
    }
    jobs = [
        Job(
            label=f"stewart/{s}",
            fixture=f"stewart/{s}",
            algo="srrqr-tau",
            f=F_SWAP,
            tau=TAU,
            ref_k=frozenset({rec["k"][str(s)]}),
        )
        for s in picked
    ]
    return Workload("swap-det", fixtures, jobs)


WORKLOADS = {"paper-tau": paper_tau, "rank-odd": rank_odd, "swap-det": swap_det}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed, smoke)
