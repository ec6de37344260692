"""Seeded generators for the benchmark test matrices.

Every generator is a pure function of its spec and seed, so fixtures are
bit-reproducible.  Random orthogonal factors are Haar-distributed, obtained
from the QR factorization of a seeded Gaussian matrix with the R diagonal
sign-corrected.  The factorization is LAPACK ``dgeqrf`` then ``dorgqr``,
run in place on an F-ordered copy of the draw through numpy's own LAPACK
(``numpy.linalg.lapack_lite``); those are the calls of numpy's ``qr``, in
the same library with the same workspace, so the factor is bitwise what it
gives for any BLAS thread count.  (scipy bundles a different OpenBLAS,
whose threaded blocked path can move the last bits.)  Scaling and the
Stewart perturbation are applied in place, so a build holds at most two
matrix-sized arrays at its peak.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from numpy.linalg import lapack_lite

from .dense_core import _diag_signs, as_matrix

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class Kahan:
    """Graded upper-triangular matrix on which greedy pivoting never swaps.

    ``s`` grades the rows (``c = sqrt(1 - s^2)`` fills the strict upper
    triangle with ``-c`` before grading); ``pad_to_m`` appends zero rows,
    e.g. up to a power of two.  ``diag_perturb`` scales a tiny graded
    diagonal perturbation that makes the pivot order strict.  It does not
    make that order robust in floating point for every size: with
    s <= 0.95 and n >= 48, a relative perturbation of the input near the
    unit roundoff changes the pivot order of greedy QRCP and of strong
    RRQR late in the order (positions 36-76 at n = 64-96), so tests that
    need a rounding-proof order use s = 0.99 or small n.
    """

    n: int
    s: float = 0.99
    pad_to_m: int | None = None
    diag_perturb: float = 25.0


@dataclass(frozen=True)
class DevilsStairs:
    """Spectrum with flat stairs: sigma_i = q ** (i // stair_len)."""

    m: int
    n: int
    q: float = 1e-3
    stair_len: int = 100


@dataclass(frozen=True)
class Stewart:
    """Geometric spectrum (1, q, ..., q^(n/2), 0, ...) plus a uniform
    perturbation of magnitude c = q^(n/2)."""

    m: int
    n: int
    q: float = 0.8


@dataclass(frozen=True)
class HC:
    """Orthogonal columns scaled by (100, 10, logspace(1e-2, 1e-14, n-2))."""

    m: int
    n: int


@dataclass(frozen=True)
class SampledIdentity:
    """n distinct columns of the m-by-m identity; volume exactly 1."""

    m: int
    n: int


_KIND_NAMES = {
    Kahan: "kahan",
    DevilsStairs: "devils_stairs",
    Stewart: "stewart",
    HC: "hc",
    SampledIdentity: "sampled_identity",
}
_NAME_KINDS = {v: k for k, v in _KIND_NAMES.items()}


@dataclass(frozen=True)
class MatrixSpec:
    kind: Kahan | DevilsStairs | Stewart | HC | SampledIdentity
    seed: int = 0


def haar_orthogonal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-distributed F-ordered matrix with orthonormal columns.

    Raises ``ValueError`` unless ``rows >= cols``.
    """
    if rows < cols:
        raise ValueError(
            f"haar_orthogonal: needs rows >= cols, got {rows} rows < {cols} cols"
        )
    q = np.asfortranarray(rng.standard_normal((rows, cols)))
    a, tau, lda = q.T, np.empty(cols), max(1, rows)  # a: the F data, C-contiguous
    _lapack(lapack_lite.dgeqrf, rows, cols, a, lda, tau)
    signs = _diag_signs(q)
    _lapack(lapack_lite.dorgqr, rows, cols, cols, a, lda, tau)
    q *= signs
    return q


def _lapack(routine, *args) -> None:
    """Call a lapack_lite routine with a queried optimal workspace, as numpy's ``qr`` does."""
    work = np.empty(1)
    routine(*args, work, -1, 0)
    lwork = max(1, args[1], int(work[0]))
    info = routine(*args, np.empty(lwork), lwork, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine.__name__}: info={info}")


def _haar_svd(rng: np.random.Generator, m: int, n: int, sigma) -> np.ndarray:
    """``U diag(sigma) V^T`` with Haar factors U (m x n), then V (n x n)."""
    u = haar_orthogonal(rng, m, n)
    v = haar_orthogonal(rng, n, n)
    u *= sigma
    return u @ v.T


def _gen_kahan(spec: Kahan) -> np.ndarray:
    n, s = spec.n, spec.s
    if n < 1:
        raise ValueError("kahan: n must be >= 1")
    if not (0.0 < s < 1.0):
        raise ValueError(f"kahan: s must lie in (0, 1), got {s}")
    c = np.sqrt(1.0 - s * s)
    t = np.triu(np.full((n, n), -c), 1) + np.eye(n)
    k = (s ** np.arange(n))[:, None] * t
    k[np.diag_indices(n)] += spec.diag_perturb * _EPS * np.arange(n, 0, -1)
    rows = spec.pad_to_m if spec.pad_to_m is not None else n
    if rows < n:
        raise ValueError(f"kahan: pad_to_m={rows} smaller than n={n}")
    out = np.zeros((rows, n))
    out[:n, :] = k
    return out


def _gen_devils_stairs(spec: DevilsStairs, rng: np.random.Generator) -> np.ndarray:
    m, n, q, length = spec.m, spec.n, spec.q, spec.stair_len
    if not (0.0 < q < 1.0):
        raise ValueError(f"devils_stairs: q must lie in (0, 1), got {q}")
    if length < 1 or m < 1 or n < 1:
        raise ValueError("devils_stairs: dimensions must be positive")
    if n > m:
        # keep only complete stairs that fit in m rows
        n = (m // length) * length
        if n == 0:
            raise ValueError(
                f"devils_stairs: {m} rows cannot hold one stair of length {length}"
            )
    sigma = q ** (np.arange(n) // length).astype(np.float64)
    return _haar_svd(rng, m, n, sigma)


def _gen_stewart(spec: Stewart, rng: np.random.Generator) -> np.ndarray:
    m, n, q = spec.m, spec.n, spec.q
    if not (0.0 < q < 1.0):
        raise ValueError(f"stewart: q must lie in (0, 1), got {q}")
    if m < n or n < 2:
        raise ValueError("stewart: requires m >= n >= 2")
    half = n // 2
    sigma = np.zeros(n)
    sigma[: half + 1] = q ** np.arange(half + 1)
    c = q**half
    out = _haar_svd(rng, m, n, sigma)
    noise = rng.random((m, n))
    noise *= c
    out += noise
    return out


def _gen_hc(spec: HC, rng: np.random.Generator) -> np.ndarray:
    m, n = spec.m, spec.n
    if m < n or n < 3:
        raise ValueError("hc: requires m >= n >= 3")
    sigma = np.concatenate(([100.0, 10.0], np.logspace(-2, -14, n - 2)))
    u = haar_orthogonal(rng, m, n)
    u *= sigma
    return u


def _gen_sampled_identity(spec: SampledIdentity, rng: np.random.Generator) -> np.ndarray:
    m, n = spec.m, spec.n
    if m < n or n < 1:
        raise ValueError("sampled_identity: requires m >= n >= 1")
    cols = rng.choice(m, size=n, replace=False)
    out = np.zeros((m, n))
    out[cols, np.arange(n)] = 1.0
    return out


def generate(spec: MatrixSpec) -> np.ndarray:
    """Materialize the matrix described by the spec, bit-reproducibly."""
    rng = np.random.default_rng(spec.seed)
    kind = spec.kind
    if isinstance(kind, Kahan):
        out = _gen_kahan(kind)
    elif isinstance(kind, DevilsStairs):
        out = _gen_devils_stairs(kind, rng)
    elif isinstance(kind, Stewart):
        out = _gen_stewart(kind, rng)
    elif isinstance(kind, HC):
        out = _gen_hc(kind, rng)
    elif isinstance(kind, SampledIdentity):
        out = _gen_sampled_identity(kind, rng)
    else:
        raise TypeError(f"unknown matrix kind {type(kind).__name__}")
    return as_matrix(out)


def spec_to_json(spec: MatrixSpec) -> str:
    return json.dumps(
        {
            "kind": _KIND_NAMES[type(spec.kind)],
            "params": asdict(spec.kind),
            "seed": spec.seed,
        }
    )


def spec_from_json(text: str) -> MatrixSpec:
    rec = json.loads(text)
    try:
        cls = _NAME_KINDS[rec["kind"]]
    except KeyError:
        raise ValueError(f"unknown matrix kind {rec.get('kind')!r}") from None
    return MatrixSpec(kind=cls(**rec["params"]), seed=int(rec.get("seed", 0)))
