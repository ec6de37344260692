"""Correctness gate, applied to every call outside the timed region.

A call fails if it raised, if its rank falls outside the fixture's reference
set, if its permutation is invalid, or if a certificate printed by the
package does not hold for the factors it returned:

* coupling: every entry of ``inv(R11) @ R12`` is at most ``f``
  (deterministic) or ``f_tilde`` (randomized);
* tolerance mode: every trailing column norm of ``R22`` is at most
  ``tau / sqrt(1 - eps)`` for the distortion ``eps`` the call reports
  (``eps = 0`` for the deterministic algorithm).

``GRACE`` is the relative roundoff allowance of the acceptance suite.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.linalg

GRACE = 1e-8


def coupling_max(fact) -> float:
    """Largest |inv(R11) @ R12| entry of a factorization (0 when R12 is empty)."""
    if fact.r12.size == 0:
        return 0.0
    return float(np.max(np.abs(scipy.linalg.solve_triangular(fact.r11, fact.r12))))


def check_call(job, res, n_cols: int) -> tuple[float, list[str]]:
    """Return (coupling max, reasons the call failed; empty when it passed)."""
    fact = res.factorization
    reasons = []
    perm = fact.perm.forward
    if not np.array_equal(np.sort(perm), np.arange(n_cols)) or not np.array_equal(
        fact.perm.replay(), perm
    ):
        reasons.append("invalid permutation")
    if res.k not in job.ref_k or fact.k != res.k:
        reasons.append(f"k={res.k} outside reference set {sorted(job.ref_k)}")
    randomized = job.algo.startswith("rand")
    threshold = res.f_tilde if randomized else job.f
    cmax = coupling_max(fact)
    if not cmax <= threshold * (1 + GRACE):
        reasons.append(f"coupling {cmax:.6g} > {threshold:.6g}")
    if job.tau is not None:
        eps = res.distortion if randomized else 0.0
        limit = job.tau / math.sqrt(1.0 - eps) if eps < 1.0 else math.inf
        trailing = float(np.max(np.linalg.norm(fact.r22, axis=0), initial=0.0))
        if not trailing <= limit * (1 + GRACE):
            reasons.append(f"trailing norm {trailing:.6g} > {limit:.6g}")
    return cmax, reasons
