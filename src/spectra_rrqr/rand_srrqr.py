"""Randomized strong rank-revealing QR.

The pivoting decisions are made on a small sketch: build a sketching
operator, reduce ``op @ M`` to its triangular factor, run the deterministic
strong RRQR on that triangle (rank or tolerance driven; it makes the same
decisions as on the sketch itself), then apply the resulting column
permutation to ``M`` and finish with a single unpivoted partial QR that
forms Q only when asked for.  Because single-swap volume
ratios are nearly preserved by the sketch, the factorization of ``M``
inherits the rank-revealing guarantees with the threshold inflated from
``f`` to ``f_tilde = sqrt((1+eps)/(1-eps)) * f``.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .dense_core import (
    PartialQR,
    _r_factor,
    _range_basis,
    as_matrix,
    r_factor,
    singular_values,
)
from .sketch import SketchOperator, embedding_distortion, ose_dim
from .srrqr import SrrqrConfig, SrrqrResult, TargetRank, Tolerance, srrqr

# A randomized call validates its input once, in the public function; the
# stages run on that array and on copies of it, so they are bound to the
# unchecked kernels behind the public functions of the same names (looked
# up here at call time, which lets a tracer wrap each stage).
from .dense_core import _stable_partial_qr as stable_partial_qr
from .sketch import _apply as apply
from .sketch import _operator_rows
from .sketch import pad_rows_pow2  # noqa: F401  perfbench's sketch.pad trace point

_MEASURE_LIMIT = 64


def f_tilde_from(epsilon: float, f: float) -> float:
    """Inflated interchange threshold sqrt((1+eps)/(1-eps)) * f."""
    if epsilon >= 1.0:
        return float("inf")
    return math.sqrt((1.0 + epsilon) / (1.0 - epsilon)) * f


@dataclass
class RandSrrqrResult:
    """Factorization of M whose permutation was chosen on the sketch.

    ``distortion`` is the exact measured distortion over the numerical
    range of M when the column count makes that affordable, otherwise the
    configured target; ``distortion_is_measured`` records which.

    ``sketch_result`` is the strong RRQR of the sketch's R factor when the
    sketch has more rows than columns, so ``sketch_result.state.r`` and
    ``sketch_result.factorization.r22`` have ``n`` rows, not ``d``; its
    permutation, rank, ``rho`` and pivoting quantities are those of the
    sketch.
    """

    factorization: PartialQR
    k: int
    sketch_result: SrrqrResult = field(repr=False)
    f: float
    f_tilde: float
    distortion: float
    distortion_is_measured: bool
    seed: int
    kind: str
    d: int
    timings_ms: dict = field(default_factory=dict)


@dataclass
class RatioReport:
    """Per-index singular-value ratios of a factorization against its matrix.

    ``leading_ratios[i] = sigma_i(M) / sigma_i(R11)`` and
    ``trailing_ratios[j] = sigma_j(R22) / sigma_{j+k}(M)``; trailing entries
    whose denominator falls below 1e-13 * sigma_1(M) are NaN (the ratio is
    undefined for a spectrum that has already hit zero).
    """

    leading_ratios: np.ndarray
    trailing_ratios: np.ndarray
    a_max: float
    bound: float

    @property
    def defined_trailing(self) -> np.ndarray:
        return ~np.isnan(self.trailing_ratios)


@dataclass
class QlpResult:
    """Spectrum estimates read off triangular factors.

    ``r_values`` are the diagonal magnitudes of R11; ``l_values`` those of
    the L factor from one extra unpivoted QR of the transposed top block.
    Raw order plus descending-sorted copies.
    """

    l_values: np.ndarray
    r_values: np.ndarray
    l_values_sorted: np.ndarray
    r_values_sorted: np.ndarray


def _randomized(a, f, mode, d, subspace, seed, kind, epsilon, want_q):
    """Sketch the validated ``a``, pivot on the sketch, then factor ``a``.

    ``d`` defaults to the size that embeds a ``subspace``-dimensional
    subspace.

    Column norms, ``inv(R11)``, ``R12`` and the ``R22`` column norms of the
    sketch under any permutation are fixed by the R factor of the permuted
    sketch, and an orthogonal transform on the left leaves them unchanged;
    so a tall ``d x n`` sketch is first reduced to its ``n x n`` R factor
    (one blocked ``dgeqrt``, :func:`r_factor`), on which the pivoting makes
    the same decisions at a fraction of the cost.  A sketch with ``d <= n``
    is used as it is.
    """
    rows = _operator_rows(kind, a.shape[0])
    if d is None:
        d = ose_dim(epsilon, 0.1, subspace, rows, kind)
    if d > rows:
        raise ValueError(f"sketch size d={d} exceeds padded row count {rows}")
    timings: dict = {}
    op = SketchOperator(kind=kind, d=d, m=rows, seed=seed)
    config = SrrqrConfig(f=f, mode=mode)
    t0 = time.perf_counter()
    msk = apply(op, a)
    timings["sketch"] = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    if msk.shape[0] > msk.shape[1]:
        # srrqr validates the R it gets, which is non-finite if the sketch is
        msk = _r_factor(msk)
    sk_res = srrqr(msk, config, want_q=False)
    timings["srrqr_sketch"] = (time.perf_counter() - t0) * 1e3
    if sk_res.k == 0:
        # only a tolerance can stop before the first pivot
        raise ValueError("tolerance exceeds every sketched column norm")
    k = min(sk_res.k, *a.shape)
    perm = sk_res.factorization.perm.copy()
    t0 = time.perf_counter()
    # the permuted copy is F-ordered and ours, so the QR runs in place on it
    fact = stable_partial_qr(perm.apply_cols(a), k, want_q=want_q, overwrite=True)
    fact.perm = perm
    timings["final_qr"] = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    measured = a.shape[1] <= _MEASURE_LIMIT
    eps_hat = embedding_distortion(op, _range_basis(a)) if measured else epsilon
    timings["distortion"] = (time.perf_counter() - t0) * 1e3
    return RandSrrqrResult(
        factorization=fact,
        k=k,
        sketch_result=sk_res,
        f=f,
        f_tilde=f_tilde_from(eps_hat, f),
        distortion=eps_hat,
        distortion_is_measured=measured,
        seed=seed,
        kind=kind,
        d=op.d,
        timings_ms=timings,
    )


def rand_srrqr_rank(
    m,
    f: float,
    k: int,
    d: int | None = None,
    seed: int = 0,
    kind: str = "srht",
    *,
    epsilon: float = 0.25,
    sizing: str = "range",
    want_q: bool = True,
) -> RandSrrqrResult:
    """Randomized strong RRQR selecting exactly k columns.

    ``sizing`` controls the default sketch size when ``d`` is omitted:
    ``"range"`` targets embedding the whole range of M (tall or low-rank
    input), ``"kplus1"`` targets any (k+1)-dimensional subspace, which is
    the right notion for general matrices with k much smaller than m.
    """
    a = as_matrix(m)
    n = a.shape[1]
    if not (1 <= k <= min(a.shape)):
        raise ValueError(f"k={k} out of range for a {a.shape[0]}x{n} matrix")
    if sizing not in ("range", "kplus1"):
        raise ValueError(f"unknown sizing policy {sizing!r}")
    # a default d embeds at least k + 1 dimensions, so only a given d is short
    if d is not None and d < k:
        raise ValueError(f"sketch size d={d} is smaller than the target rank {k}")
    subspace = n if sizing == "range" else k + 1
    return _randomized(a, f, TargetRank(k), d, subspace, seed, kind, epsilon, want_q)


def rand_srrqr_tol(
    m,
    f: float,
    tau: float,
    d: int | None = None,
    seed: int = 0,
    kind: str = "srht",
    *,
    epsilon: float = 0.25,
    want_q: bool = True,
) -> RandSrrqrResult:
    """Randomized strong RRQR stopping at a trailing-norm tolerance.

    The stopping test runs on the sketch, so the trailing column norms of
    the returned factorization obey ``gamma_j <= tau / sqrt(1 - eps)`` for
    the realized distortion eps.
    """
    a = as_matrix(m)
    n = a.shape[1]
    if not tau > 1e-300 * np.linalg.norm(a):
        raise ValueError(f"tolerance {tau} is below the representable scale of m")
    return _randomized(a, f, Tolerance(tau), d, n, seed, kind, epsilon, want_q)


def ratio_report(m, res, threshold: float | None = None) -> RatioReport:
    """Singular-value ratios of a factorization against its matrix.

    ``res`` may be a randomized result (bound built from its f_tilde), a
    deterministic result (bound from its f), or a bare PartialQR, in which
    case ``threshold`` must be given.  The function only reports; callers
    assert against ``bound``.
    """
    a = as_matrix(m)
    fact: PartialQR = getattr(res, "factorization", res)
    k = fact.k
    n = a.shape[1]
    if threshold is None:
        threshold = getattr(res, "f_tilde", None) or getattr(res, "f", None)
        if threshold is None:
            raise ValueError("a bare factorization needs an explicit threshold")
    sv_m = singular_values(a)
    sv_r11 = singular_values(fact.r11)
    with np.errstate(divide="ignore"):
        leading = sv_m[:k] / sv_r11
    nt = min(a.shape) - k
    trailing = np.full(nt, np.nan)
    if nt > 0 and fact.r22.size:
        sv_r22 = singular_values(fact.r22)
        cutoff = 1e-13 * sv_m[0]
        for j in range(nt):
            if sv_m[j + k] > cutoff:
                trailing[j] = sv_r22[j] / sv_m[j + k]
    if fact.r12.size:
        a_block = scipy.linalg.solve_triangular(fact.r11, fact.r12)
        a_max = float(np.max(np.abs(a_block)))
    else:
        a_max = 0.0
    bound = math.sqrt(1.0 + threshold**2 * k * (n - k))
    return RatioReport(
        leading_ratios=leading,
        trailing_ratios=trailing,
        a_max=a_max,
        bound=bound,
    )


def qlp_values(res) -> QlpResult:
    """Diagonal-based spectrum estimates from the factorization top block."""
    fact: PartialQR = res.factorization
    if fact.k < 1:
        raise ValueError("factorization has an empty leading block")
    top = np.hstack([fact.r11, fact.r12])
    t = r_factor(top.T)
    l_values = np.abs(np.diag(t))
    r_values = np.abs(np.diag(fact.r11))
    return QlpResult(
        l_values=l_values,
        r_values=r_values,
        l_values_sorted=np.sort(l_values)[::-1],
        r_values_sorted=np.sort(r_values)[::-1],
    )


def swap_subspace_distortion(op: SketchOperator, m, perm, k: int) -> float:
    """Largest distortion over the swap-relevant (k+1)-dimensional subspaces.

    For the single-interchange certificate only the spans of the k selected
    columns plus one trailing column matter, and at desk scale each of
    those n-k subspaces can be measured exactly.  This is the tight
    certificate threshold for a general (possibly full-rank) matrix, where
    embedding the whole range would need a sketch as large as the matrix.
    ``m`` is the matrix the operator sketches; an SRHT takes it unpadded
    (see :func:`.sketch.apply`).
    """
    a = as_matrix(m)
    mp = a[:, perm.forward]
    n = a.shape[1]
    worst = 0.0
    for j in range(k, n):
        block = np.hstack([mp[:, :k], mp[:, j : j + 1]])
        worst = max(worst, embedding_distortion(op, _range_basis(block)))
    return worst


def record_ratios(report: RatioReport | None) -> dict:
    """The ``ratios`` and ``bound`` fields of a record (NaN ratios -> null)."""
    if report is None:
        return {"ratios": None, "bound": None}

    def listify(arr):
        return [None if math.isnan(x) else float(x) for x in arr]

    ratios = {
        "leading": listify(report.leading_ratios),
        "trailing": listify(report.trailing_ratios),
        "a_max": report.a_max,
    }
    return {"ratios": ratios, "bound": report.bound}


def export_record(
    res: RandSrrqrResult,
    report: RatioReport | None = None,
    qlp: QlpResult | None = None,
) -> dict:
    """JSON-ready record of one randomized run (fixed key set)."""
    rec = {
        "k": res.k,
        "seed": res.seed,
        "kind": res.kind,
        "d": res.d,
        "f": res.f,
        "epsilon_measured": res.distortion if res.distortion_is_measured else None,
        "epsilon_nominal": None if res.distortion_is_measured else res.distortion,
        "f_tilde": None if math.isinf(res.f_tilde) else res.f_tilde,
        **record_ratios(report),
        "l_values": None,
        "r_values": None,
        "swap_count": res.sketch_result.swap_count,
        "timings_ms": {k: round(v, 3) for k, v in res.timings_ms.items()},
    }
    if qlp is not None:
        rec["l_values"] = [float(x) for x in qlp.l_values]
        rec["r_values"] = [float(x) for x in qlp.r_values]
    return rec


def export_json(res, report=None, qlp=None) -> str:
    return json.dumps(export_record(res, report, qlp), indent=2)
