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

``M P`` plays no part in choosing P, and the shape of ``M`` alone picks
how its QR is computed.  An ``M`` with at least ``_OVERLAP_ASPECT`` rows
per column, or a tall one of at most ``_MEASURE_LIMIT`` columns (its range
basis is read off ``R_M`` too), is reduced to its n-by-n R factor ``R_M``
(TSQR's reduce-to-R step), one unpivoted ``dgeqrt``; the final QR is then
the n-by-n QR of ``R_M P``, and Q, when asked for, is ``Q_M [Q_2; 0]``, one
``dgemqrt``.  Any other ``M``, square or wide too, is factored as ``M P``.
The host picks only where ``M`` is reduced: on the worker pool of
:mod:`._threads`, without the GIL, while the caller pivots, if ``M`` has at
least ``_OVERLAP_ASPECT`` rows per column, LAPACK runs one thread and the
cap allows two; else in the calling thread after the pivoting.  So the cap,
the CPU count and LAPACK's reported threads move timings, not factors.

A call returns the package's one result type, :class:`.srrqr.SrrqrResult`,
with its sketch fields set.  :func:`export_record`, the one record builder,
gives any result every key of :data:`RECORD_KEYS`, in order.
"""
from __future__ import annotations

import json
import math
import time
from concurrent.futures import wait
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import _threads
from .dense_core import (
    PartialQR,
    _apply_q,
    _check_rank,
    _geqrt,
    _r_factor,
    _range_basis,
    _signed_r,
    as_matrix,
    r_factor,
    singular_values,
)
from .sketch import SketchOperator, embedding_distortion, ose_dim
from .srrqr import SrrqrConfig, SrrqrResult, TargetRank, Tolerance, srrqr

# A randomized call validates its input once, in the public function; the
# stages run on that array and on copies of it, so they are bound to the
# unchecked kernels behind the public functions of the same names, or of
# ``partial_qr`` for ``stable_partial_qr`` (looked up here at call time,
# which lets a tracer wrap each stage).
from .dense_core import _stable_partial_qr as stable_partial_qr
from .sketch import _apply as apply
from .sketch import _operator_rows
from .sketch import pad_rows_pow2  # noqa: F401  perfbench's sketch.pad trace point

# eps is measured up to _MEASURE_LIMIT columns, else reported as _NOMINAL_EPS
_MEASURE_LIMIT = 64
_NOMINAL_EPS = 0.25
# least rows per column for which M is reduced to R_M (and the reduction
# may run on a worker).  Measured with the reduction on a worker, n=500 on
# 2 CPUs, one BLAS thread: at 4-8 rows per column the n-by-n QR it adds
# and the contention cost 3-12% per call, at 10-16 the overlap saved 5-37%
_OVERLAP_ASPECT = 10


# the keys of every factor record, for all four algorithms; a key that does
# not apply is null: kind, d, epsilon_*, f_tilde, l_values and r_values for
# srrqr and qrcp, rho for all but srrqr, swap_count and stop_reason for
# qrcp, and ratios, bound, l_values and r_values unless the ratios were
# asked for
RECORD_KEYS = (
    "algo",
    "k",
    "seed",
    "kind",
    "d",
    "f",
    "epsilon_measured",
    "epsilon_nominal",
    "f_tilde",
    "rho",
    "swap_count",
    "stop_reason",
    "ratios",
    "bound",
    "l_values",
    "r_values",
    "timings_ms",
)


def f_tilde_from(epsilon: float, f: float) -> float:
    """Inflated interchange threshold sqrt((1+eps)/(1-eps)) * f."""
    if epsilon >= 1.0:
        return float("inf")
    return math.sqrt((1.0 + epsilon) / (1.0 - epsilon)) * f


@dataclass
class RatioReport:
    """Per-index singular-value ratios of a factorization against its matrix.

    ``leading_ratios[i] = sigma_i(M) / sigma_i(R11)`` and
    ``trailing_ratios[j] = sigma_j(R22) / sigma_{j+k}(M)``; trailing entries
    whose denominator falls below 1e-13 * sigma_1(M) are NaN (the ratio is
    undefined for a spectrum that has already hit zero).  ``sigma_m`` keeps
    the singular values of M the ratios were computed from.
    """

    leading_ratios: np.ndarray
    trailing_ratios: np.ndarray
    a_max: float
    bound: float
    sigma_m: np.ndarray = field(repr=False)

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


def _randomized(a, config, d, seed, kind, want_q):
    """Sketch the validated ``a``, pivot on the sketch, then factor ``a``.

    ``d`` defaults to the size that embeds the n-dimensional range of
    ``a``.  With ``want_q`` the final QR forms the thin m-by-min(m, n) Q.
    ``distortion`` is measured up to ``_MEASURE_LIMIT`` columns, else the
    nominal ``_NOMINAL_EPS``.  ``sketch_result`` pivots on the sketch's R
    factor when the sketch has more rows than columns, so its ``state.r``
    and ``factorization.r22`` then have ``n`` rows, not ``d``.

    Column norms, ``inv(R11)``, ``R12`` and the ``R22`` column norms of the
    sketch under any permutation are fixed by the R factor of the permuted
    sketch, and an orthogonal transform on the left leaves them unchanged;
    so a tall ``d x n`` sketch is first reduced to its ``n x n`` R factor
    (one blocked ``dgeqrt``, :func:`r_factor`), on which the pivoting makes
    the same decisions at a fraction of the cost.  A sketch with ``d <= n``
    is used as it is.

    An ``a`` that the shape rule of the module reduces is reduced on the
    worker pool, started once the sketch is formed and joined after the
    pivoting, or else in the calling thread after the pivoting.
    ``timings_ms["reduce_m"]`` is the wait for the worker or the whole
    reduction in the calling thread, about 0 for an ``a`` not reduced;
    ``"final_qr"`` is the QR of ``R_M P`` or ``a P`` (with Q if wanted),
    and ``"srrqr_sketch"`` also covers copying ``a`` for the worker.
    """
    rows = _operator_rows(kind, a.shape[0])
    if d is None:
        d = ose_dim(a.shape[1], rows)
    if d > rows:
        raise ValueError(f"sketch size d={d} exceeds padded row count {rows}")
    timings: dict = {}
    op = SketchOperator(kind=kind, d=d, m=rows, seed=seed)
    t0 = time.perf_counter()
    msk = apply(op, a)
    timings["sketch"] = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    n = a.shape[1]
    measured = n <= _MEASURE_LIMIT
    # the shape alone decides whether M is reduced; the host only where: a
    # worker overlaps the reduction with the pivoting on a core that LAPACK
    # leaves idle (a threaded LAPACK already spreads it over the cores)
    overlap = a.shape[0] >= _OVERLAP_ASPECT * n
    reduce = overlap or (a.shape[0] > n and measured)
    workers = _threads.worker_count(2) if overlap and _threads.one_blas_thread() else 1
    # started after the sketch, whose scratch it would add to; the copy is
    # made here, not in the worker's own malloc arena
    reduction = None
    if workers > 1:
        reduction = _threads.pool(workers).submit(_geqrt, np.array(a, order="F"), True)
    try:
        if msk.shape[0] > n:
            # in place: a Gaussian sketch is F-ordered, an SRHT one copied
            # once and its original freed, never held twice next to a's copy.
            # srrqr validates the R it gets, non-finite if the sketch is
            msk = np.asfortranarray(msk)
            msk = _r_factor(msk, overwrite=True)
        sk_res = srrqr(msk, config, want_q=False)
        if sk_res.k == 0:
            # only a tolerance can stop before the first pivot
            raise ValueError("tolerance exceeds every sketched column norm")
    except BaseException:
        # the reduction may not outlive the call
        if reduction is not None:
            wait([reduction])
        raise
    timings["srrqr_sketch"] = (time.perf_counter() - t0) * 1e3
    k = min(sk_res.k, *a.shape)
    perm = sk_res.factorization.perm.copy()
    t0 = time.perf_counter()
    reduced = None
    if reduction is not None:
        reduced = reduction.result()
    elif reduce:
        reduced = _geqrt(a)
    timings["reduce_m"] = (time.perf_counter() - t0) * 1e3
    # measured before Q is formed, so that the range basis and the scratch
    # of its sketch are never held next to Q
    t0 = time.perf_counter()
    eps_hat = embedding_distortion(op, _range_basis(a, reduced)) if measured else _NOMINAL_EPS
    distortion_ms = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    if reduced is not None:
        # M P = Q_M [R_M P; 0], so M P's R is the R of R_M P
        f_m, t_m = reduced
        r_m, signs = _signed_r(f_m, n)
        fact = stable_partial_qr(perm.apply_cols(r_m), k, want_q=want_q, overwrite=True)
        if want_q:
            fact.q = _apply_q(f_m, t_m, fact.q * signs[:, None])
        fact.rows = a.shape[0]
    else:
        # the permuted copy is F-ordered and ours, so the QR runs in place on it
        fact = stable_partial_qr(perm.apply_cols(a), k, want_q=want_q, overwrite=True)
    fact.perm = perm
    timings["final_qr"] = (time.perf_counter() - t0) * 1e3
    timings["distortion"] = distortion_ms
    return SrrqrResult(
        factorization=fact,
        k=k,
        swap_count=sk_res.swap_count,
        f=config.f,
        stop_reason=sk_res.stop_reason,
        f_tilde=f_tilde_from(eps_hat, config.f),
        distortion=eps_hat,
        distortion_is_measured=measured,
        # plain ints, so that a numpy integer argument still exports to JSON
        seed=int(seed),
        kind=kind,
        d=int(op.d),
        sketch_result=sk_res,
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
    want_q: bool = True,
) -> SrrqrResult:
    """Randomized strong RRQR selecting exactly k columns.

    When ``d`` is omitted the sketch is sized to embed the whole range of
    M (:func:`.sketch.ose_dim` of its n columns).  ``want_q`` forms the
    thin m-by-min(m, n) Q of the final QR.
    """
    a = as_matrix(m)
    _check_rank(k, *a.shape)
    # a default d is at least min(n + 1, rows) >= k, so only a given d is short
    if d is not None and d < k:
        raise ValueError(f"sketch size d={d} is smaller than the target rank {k}")
    return _randomized(a, SrrqrConfig(f, TargetRank(k)), d, seed, kind, want_q)


def rand_srrqr_tol(
    m,
    f: float,
    tau: float,
    d: int | None = None,
    seed: int = 0,
    kind: str = "srht",
    *,
    want_q: bool = True,
) -> SrrqrResult:
    """Randomized strong RRQR stopping at a trailing-norm tolerance.

    The stopping test runs on the sketch, so the trailing column norms of
    the returned factorization obey ``gamma_j <= tau / sqrt(1 - eps)`` for
    a measured distortion eps; a nominal one carries no such bound.
    """
    a = as_matrix(m)
    # checks f and that tau is positive, as srrqr does, before its scale
    config = SrrqrConfig(f, Tolerance(tau))
    if not tau > 1e-300 * np.linalg.norm(a):
        raise ValueError(f"tolerance {tau} is below the representable scale of m")
    return _randomized(a, config, d, seed, kind, want_q)


def ratio_report(m, res: SrrqrResult) -> RatioReport:
    """Singular-value ratios of a factorization against its matrix.

    The bound is built from the result's ``f_tilde`` when it has one (a
    randomized result), else from its ``f``.  The function only reports;
    callers assert against ``bound``.
    """
    a = as_matrix(m)
    fact = res.factorization
    k = fact.k
    n = a.shape[1]
    threshold = res.f_tilde or res.f
    if threshold is None:
        # a bare QRCP result has no f to build the bound from
        raise ValueError("ratio_report needs a result with an interchange threshold f")
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
        sigma_m=sv_m,
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


def export_record(
    res: SrrqrResult, report: RatioReport | None = None, qlp: QlpResult | None = None
) -> dict:
    """The JSON-ready record of any result, keyed by :data:`RECORD_KEYS` in
    order, with ``algo`` left null for the caller to name; the ratios and
    bound come from a :class:`RatioReport`, ``l_values`` and ``r_values``
    from a :class:`QlpResult`.  A non-finite number, such as a NaN ratio or
    an infinite ``f_tilde`` or ``bound``, is null, so the record is strict
    JSON."""
    measured = res.distortion_is_measured
    rec = dict.fromkeys(RECORD_KEYS)
    rec.update(
        k=res.k, seed=res.seed, kind=res.kind, d=res.d, f=res.f,
        epsilon_measured=res.distortion if measured else None,
        epsilon_nominal=None if measured else res.distortion,
        f_tilde=res.f_tilde,
        rho=res.rho, swap_count=res.swap_count, stop_reason=res.stop_reason,
        timings_ms={k: round(v, 3) for k, v in res.timings_ms.items()},
    )
    if report is not None:
        lead, trail = (
            [float(x) for x in arr] for arr in (report.leading_ratios, report.trailing_ratios)
        )
        ratios = {"leading": lead, "trailing": trail, "a_max": report.a_max}
        rec.update(ratios=ratios, bound=report.bound)
    if qlp is not None:
        rec["l_values"] = [float(x) for x in qlp.l_values]
        rec["r_values"] = [float(x) for x in qlp.r_values]
    return _finite_or_null(rec)


def _finite_or_null(value):
    """``value`` with every non-finite float in it, nested ones too, made None."""
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def export_json(res, report=None, qlp=None) -> str:
    return json.dumps(export_record(res, report, qlp), indent=2, allow_nan=False)
