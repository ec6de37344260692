"""The pinned calls of ``test_decision_pins.py``: what each decides.

Twenty-six calls.  Twenty run on the smoke-size fixtures of the
benchmark's workloads (stairs 2048x125, stairs and hc 1500x125, stewart
1024x128): ``srrqr`` in both modes, ``qrcp``, and ``rand_srrqr_rank`` and
``rand_srrqr_tol`` with both sketch kinds.  Four run ``srrqr`` on square
inputs, the shape of a randomized call's sketch R: stairs 125x125, stewart
128x128 (seeds 0 and 1) and Kahan(96, s=0.99), whose first interchanges
come at no step, step 5, step 7 and step 16.  The Kahan fixture's diagonal
perturbation is 1e5 ulps, not 25: at 25 its equal column norms are a tie
that 1e-13 input noise breaks another way.  Two run ``rand_srrqr_rank``
with the Gaussian sketch on stairs and hc 1500x300, wider than one
``sketch._PIECE`` of 256 columns, so that the sketch's products come in
pieces.  The stairs fixture has stairs of 60 columns, not 25: past its
fourth stair the singular values sit below 1e-12, where 1e-13 input noise
reorders the pivots.  A call's line is its label, k, ``stop_reason``,
``swap_count`` and the sha1 of its permutation and of its swap log.  A
``qrcp`` line has ``-`` for the two fields it lacks, and hashes only the
leading k columns and the transpositions that placed them: past the
numerical rank LAPACK orders noise-level columns, and an input perturbed
by 1e-13 reorders them.  No R or sketch bytes are pinned: they move with
the BLAS thread count, the decisions do not.  No call sits in a tie
region, where the next ulp decides between two swaps (Kahan(300, s=0.95)
at f=1.02 is one): each line held on 12 inputs perturbed by relative
noise of 1e-13 or 1e-12, at one BLAS thread and at two.

``tools/pin_decisions.py`` prints the lines of a checkout;
``decision_pins.txt`` next to this module holds the committed ones.
"""
from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path

from spectra_rrqr import (
    SrrqrConfig,
    TargetRank,
    Tolerance,
    qrcp,
    rand_srrqr_rank,
    rand_srrqr_tol,
    srrqr,
    testmat,
)

GOLDEN = Path(__file__).resolve().parent / "decision_pins.txt"
F, F_SWAP, TAU = 2.0, 1.1, 1e-10
FIXTURES = {
    "stairs2048": testmat.MatrixSpec(testmat.DevilsStairs(m=2048, n=125, stair_len=25), seed=11),
    "stairs1500": testmat.MatrixSpec(testmat.DevilsStairs(m=1500, n=125, stair_len=25), seed=12),
    "hc1500": testmat.MatrixSpec(testmat.HC(m=1500, n=125), seed=13),
    "stewart0": testmat.MatrixSpec(testmat.Stewart(m=1024, n=128, q=0.6), seed=0),
    "stewart1": testmat.MatrixSpec(testmat.Stewart(m=1024, n=128, q=0.6), seed=1),
    # square inputs, as a randomized call's sketch R is
    "sq-stairs125": testmat.MatrixSpec(testmat.DevilsStairs(m=125, n=125, stair_len=25), seed=11),
    "sq-stewart0": testmat.MatrixSpec(testmat.Stewart(m=128, n=128, q=0.6), seed=0),
    "sq-stewart1": testmat.MatrixSpec(testmat.Stewart(m=128, n=128, q=0.6), seed=1),
    "sq-kahan96": testmat.MatrixSpec(testmat.Kahan(n=96, s=0.99, diag_perturb=1e5)),
    # wider than one sketch piece
    "stairs1500x300": testmat.MatrixSpec(testmat.DevilsStairs(m=1500, n=300, stair_len=60), seed=14),
    "hc1500x300": testmat.MatrixSpec(testmat.HC(m=1500, n=300), seed=15),
}


@lru_cache(maxsize=None)
def fixture(name: str):
    mat = testmat.generate(FIXTURES[name])
    mat.flags.writeable = False
    return mat


def _srrqr(name, f, mode):
    kind, value = mode
    rule = Tolerance(value) if kind == "tol" else TargetRank(value)
    return srrqr(fixture(name), SrrqrConfig(f, rule), want_q=False)


def _rand(name, f, mode, kind, seed):
    call = rand_srrqr_tol if mode[0] == "tol" else rand_srrqr_rank
    return call(fixture(name), f, mode[1], seed=seed, kind=kind, want_q=False)


def _qrcp(name, k):
    return qrcp(fixture(name), k, want_q=False)


# label -> (function, arguments)
CALLS = {
    "srrqr/tol/stairs2048": (_srrqr, ("stairs2048", F, ("tol", TAU))),
    "srrqr/rank/stairs1500": (_srrqr, ("stairs1500", F, ("rank", 100))),
    "srrqr/rank/hc1500": (_srrqr, ("hc1500", F, ("rank", 83))),
    "srrqr/tol/stewart0": (_srrqr, ("stewart0", F_SWAP, ("tol", TAU))),
    "srrqr/tol/stewart1": (_srrqr, ("stewart1", F_SWAP, ("tol", TAU))),
    "srrqr/rank/stewart1": (_srrqr, ("stewart1", F_SWAP, ("rank", 40))),
    # square calls; the comment names the step of the first interchange
    "srrqr/tol/sq-stairs125": (_srrqr, ("sq-stairs125", F, ("tol", TAU))),  # none
    "srrqr/tol/sq-stewart0": (_srrqr, ("sq-stewart0", F_SWAP, ("tol", TAU))),  # k = 5
    "srrqr/rank/sq-stewart1": (_srrqr, ("sq-stewart1", F_SWAP, ("rank", 40))),  # k = 7
    "srrqr/rank/sq-kahan96": (_srrqr, ("sq-kahan96", F, ("rank", 95))),  # k = 16
    "qrcp/stairs2048": (_qrcp, ("stairs2048", 100)),
    "qrcp/hc1500": (_qrcp, ("hc1500", 83)),
    "qrcp/stewart0": (_qrcp, ("stewart0", 45)),
    "rand-tol/stairs2048/srht/1": (_rand, ("stairs2048", F, ("tol", TAU), "srht", 1)),
    "rand-tol/stairs2048/gaussian/1": (_rand, ("stairs2048", F, ("tol", TAU), "gaussian", 1)),
    "rand-tol/stewart0/srht/2": (_rand, ("stewart0", F_SWAP, ("tol", TAU), "srht", 2)),
    "rand-tol/stewart0/gaussian/2": (_rand, ("stewart0", F_SWAP, ("tol", TAU), "gaussian", 2)),
    "rand-rank/stairs1500/srht/3": (_rand, ("stairs1500", F, ("rank", 100), "srht", 3)),
    "rand-rank/stairs1500/gaussian/3": (_rand, ("stairs1500", F, ("rank", 100), "gaussian", 3)),
    "rand-rank/hc1500/srht/4": (_rand, ("hc1500", F, ("rank", 83), "srht", 4)),
    "rand-rank/hc1500/gaussian/4": (_rand, ("hc1500", F, ("rank", 83), "gaussian", 4)),
    "rand-rank/stewart1/srht/5": (_rand, ("stewart1", F_SWAP, ("rank", 40), "srht", 5)),
    "rand-rank/stewart1/gaussian/5": (_rand, ("stewart1", F_SWAP, ("rank", 40), "gaussian", 5)),
    "rand-rank/stewart1/gaussian/6": (_rand, ("stewart1", F_SWAP, ("rank", 40), "gaussian", 6)),
    "rand-rank/stairs1500x300/gaussian/7": (_rand, ("stairs1500x300", F, ("rank", 240), "gaussian", 7)),
    "rand-rank/hc1500x300/gaussian/7": (_rand, ("hc1500x300", F, ("rank", 200), "gaussian", 7)),
}


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()[:12]


def line(label: str) -> str:
    """The pinned line of the call ``label``."""
    fn, args = CALLS[label]
    res = fn(*args)
    if fn is _qrcp:
        k, reason, count = res.k, "-", "-"
        cols, swaps = res.perm.forward[:k], [s for s in res.perm.swaps if s[0] < k]
    else:
        k, reason, count = res.k, res.stop_reason, res.swap_count
        cols, swaps = res.factorization.perm.forward, res.factorization.perm.swaps
    hashes = _sha1(cols.tobytes()), _sha1(repr(swaps).encode())
    return " ".join(str(x) for x in (label, k, reason, count, *hashes))


def golden() -> dict[str, str]:
    """label -> committed line."""
    return {text.split()[0]: text for text in GOLDEN.read_text().splitlines()}
