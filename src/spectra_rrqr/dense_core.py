"""Dense matrix container and deterministic numerical kernels.

Everything operates on 64-bit float ndarrays in column-major layout.  The
kernels here (Householder QR, singular values, triangular solves, column
geometry) are the building blocks consumed by the pivoted factorizations
and the sketching layer.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgemqrt, dgeqrt


class SingularMatrixError(ValueError):
    """Raised when a triangular factor has a numerically zero diagonal."""


def as_matrix(data, *, name: str = "matrix") -> np.ndarray:
    """Validate and return a dense float64 matrix in column-major order.

    Rejects empty shapes and non-finite entries.  A float64 Fortran-ordered
    input is returned as-is, anything else is copied.
    """
    m = np.asfortranarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(data, *, name: str = "vector") -> np.ndarray:
    v = np.asarray(data, dtype=np.float64).reshape(-1)
    if v.size < 1:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


@dataclass
class PermutationSeq:
    """Column permutation stored as a forward map plus its transposition log.

    ``(M @ P)[:, j] == M[:, forward[j]]``.  Every mutation goes through
    :meth:`swap`, so replaying ``swaps`` from the identity reproduces
    ``forward`` exactly.  Indices are 0-based.
    """

    forward: np.ndarray
    swaps: list = field(default_factory=list)

    @classmethod
    def identity(cls, n: int) -> "PermutationSeq":
        return cls(forward=np.arange(n, dtype=np.intp))

    @property
    def size(self) -> int:
        return int(self.forward.size)

    def swap(self, i: int, j: int) -> None:
        """Compose with the transposition of positions i and j (right action)."""
        n = self.size
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"swap indices ({i}, {j}) out of range for size {n}")
        if i != j:
            self.forward[[i, j]] = self.forward[[j, i]]
        self.swaps.append((int(i), int(j)))

    def apply_cols(self, m: np.ndarray) -> np.ndarray:
        """Return M with columns permuted, i.e. the product M @ P."""
        return m[:, self.forward]

    def matrix(self) -> np.ndarray:
        p = np.zeros((self.size, self.size))
        p[self.forward, np.arange(self.size)] = 1.0
        return p

    def copy(self) -> "PermutationSeq":
        return PermutationSeq(self.forward.copy(), list(self.swaps))

    def replay(self) -> np.ndarray:
        """Rebuild the forward map from the transposition log (consistency check)."""
        f = np.arange(self.size, dtype=np.intp)
        for i, j in self.swaps:
            f[[i, j]] = f[[j, i]]
        return f


@dataclass
class PartialQR:
    """k-step QR factorization ``M @ P = Q @ [[R11, R12], [0, R22]]``.

    ``r11`` is k-by-k upper-triangular with nonnegative diagonal, ``r22`` is
    the dense (m-k)-by-(n-k) trailing block.  ``q`` holds either the full
    m-by-m orthogonal factor, a thin slice of its leading columns, or None
    when the caller skipped materializing it.
    """

    q: np.ndarray | None
    r11: np.ndarray
    r12: np.ndarray
    r22: np.ndarray
    perm: PermutationSeq
    k: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.k + self.r22.shape[0], self.k + self.r12.shape[1])

    @property
    def full_q(self) -> bool:
        return self.q is not None and self.q.shape[1] == self.q.shape[0]

    def r_matrix(self) -> np.ndarray:
        """Assemble the full m-by-n upper-trapezoidal factor."""
        m, n = self.shape
        r = np.zeros((m, n))
        r[: self.k, : self.k] = self.r11
        r[: self.k, self.k :] = self.r12
        r[self.k :, self.k :] = self.r22
        return r

    def reconstruction_error(self, m) -> float:
        """Relative Frobenius residual of ``M @ P - Q @ R``.

        With a thin Q the check is split into the parts the thin factor can
        certify: the leading block, the projected coupling block, and the
        trailing column norms.
        """
        a = as_matrix(m)
        mp = self.perm.apply_cols(a)
        scale = np.linalg.norm(a)
        if scale == 0.0:
            scale = 1.0
        if self.q is None:
            raise ValueError("factorization was computed without a Q factor")
        qc = self.q.shape[1]
        if qc >= min(self.shape):
            r = self.r_matrix()[:qc, :]
            return float(np.linalg.norm(mp - self.q @ r) / scale)
        # thin m-by-k Q: check MP[:, :k] = Q R11, Q^T MP[:, k:] = R12, and
        # that the residual column norms match those of R22
        err = np.linalg.norm(mp[:, : self.k] - self.q @ self.r11)
        tail = mp[:, self.k :]
        err = max(err, np.linalg.norm(self.q.T @ tail - self.r12))
        resid = tail - self.q @ self.r12
        err = max(
            err,
            float(
                np.max(
                    np.abs(
                        np.linalg.norm(resid, axis=0) - np.linalg.norm(self.r22, axis=0)
                    ),
                    initial=0.0,
                )
            ),
        )
        return float(err / scale)


def _reflector(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Householder vector for x with v[0] = 1: (I - tau v v^T) x = beta e1."""
    alpha = x[0]
    tail_norm = np.linalg.norm(x[1:]) if x.size > 1 else 0.0
    if tail_norm == 0.0:
        # already collapsed; tau=0 leaves x untouched
        return np.zeros_like(x), 0.0, float(alpha)
    beta = -np.hypot(alpha, tail_norm) if alpha >= 0 else np.hypot(alpha, tail_norm)
    v = x.copy()
    v0 = alpha - beta
    v[0] = 1.0
    v[1:] /= v0
    tau = -v0 / beta
    return v, float(tau), float(beta)


def _apply_reflector_left(block: np.ndarray, v: np.ndarray, tau: float) -> None:
    """block <- (I - tau v v^T) block, in place."""
    if tau == 0.0:
        return
    block -= np.outer(tau * v, v @ block)


def partial_qr(m, k: int, *, full_q: bool = True, want_q: bool = True) -> PartialQR:
    """Householder partial QR after k elimination steps, no pivoting.

    The diagonal of R11 is forced nonnegative by a sign sweep, which makes
    the factor unique for full-column-rank leading blocks.  ``full_q=False``
    materializes only the leading k columns of Q; ``want_q=False`` skips Q
    entirely.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    if not (1 <= k <= min(rows, cols)):
        raise ValueError(f"k={k} out of range for a {rows}x{cols} matrix")
    r = a.copy()
    reflectors: list[tuple[int, np.ndarray, float]] = []
    signs = np.ones(k)
    for t in range(k):
        v, tau, beta = _reflector(r[t:, t])
        _apply_reflector_left(r[t:, t + 1 :], v, tau)
        r[t, t] = beta
        r[t + 1 :, t] = 0.0
        reflectors.append((t, v, tau))
        if r[t, t] < 0.0:
            r[t, t:] *= -1.0
            signs[t] = -1.0
    q = None
    if want_q:
        qc = rows if full_q else k
        q = np.eye(rows, qc)
        for t, v, tau in reversed(reflectors):
            _apply_reflector_left(q[t:, :], v, tau)
        q[:, :k] *= signs
    return PartialQR(
        q=q,
        r11=r[:k, :k].copy(),
        r12=r[:k, k:].copy(),
        r22=r[k:, k:].copy(),
        perm=PermutationSeq.identity(cols),
        k=k,
    )


# panel width of the blocked Householder QR; dgeqrt factors each panel
# recursively and updates the trailing columns with BLAS-3
_QRT_BLOCK = 64


def _geqrt(a: np.ndarray, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK ``dgeqrt`` of ``a``: R and reflectors, T.

    ``a`` is overwritten only with ``overwrite`` and only when it is
    F-ordered float64; otherwise LAPACK works on a copy.
    """
    f, t, info = dgeqrt(min(_QRT_BLOCK, *a.shape), a, overwrite_a=overwrite)
    if info:
        raise ValueError(f"dgeqrt failed with info={info}")
    return f, t


def thin_qr(m) -> tuple[np.ndarray, np.ndarray]:
    """Economy QR with nonnegative R diagonal via the LAPACK Householder path.

    Returns (Q, R) with Q of shape (rows, min(rows, cols)).  Used where the
    per-step pivoting machinery is not needed and speed matters.  Q is the
    blocked reflector product applied to the leading identity columns
    (``dgemqrt``).
    """
    return _thin_qr(as_matrix(m))


def _thin_qr(a: np.ndarray, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    k = min(a.shape)
    f, t = _geqrt(a, overwrite)
    q, info = dgemqrt(f[:, :k], t, np.eye(a.shape[0], k, order="F"), overwrite_c=1)
    if info:
        raise ValueError(f"dgemqrt failed with info={info}")
    r = np.triu(f[:k])
    flip = _diag_signs(r)
    return q * flip, r * flip[:, None]


def _diag_signs(r: np.ndarray) -> np.ndarray:
    """Row signs that make the diagonal of a LAPACK R factor nonnegative."""
    flip = np.sign(np.diag(r))
    flip[flip == 0.0] = 1.0
    return flip


def r_factor(m) -> np.ndarray:
    """R of the economy QR, nonnegative diagonal, without forming Q.

    One LAPACK ``dgeqrt`` (recursive panels, BLAS-3 trailing updates); the
    result is exactly the R of :func:`thin_qr`.  Shape
    ``(min(rows, cols), cols)``.
    """
    return _r_factor(as_matrix(m))


def _r_factor(a: np.ndarray, overwrite: bool = False) -> np.ndarray:
    r = np.triu(_geqrt(a, overwrite)[0][: min(a.shape)])
    return r * _diag_signs(r)[:, None]


def stable_partial_qr(m, k: int, *, want_q: bool = True) -> PartialQR:
    """Partial QR of a (possibly tall) matrix through the LAPACK kernel.

    Equivalent to :func:`partial_qr` up to rotations of the trailing block;
    R11 and R12 agree to roundoff thanks to the shared sign convention.
    With ``want_q=False`` only R is computed.
    """
    return _stable_partial_qr(as_matrix(m), k, want_q=want_q)


def _stable_partial_qr(
    a: np.ndarray, k: int, *, want_q: bool = True, overwrite: bool = False
) -> PartialQR:
    rows, cols = a.shape
    if not (1 <= k <= min(rows, cols)):
        raise ValueError(f"k={k} out of range for a {rows}x{cols} matrix")
    if want_q:
        q, r = _thin_qr(a, overwrite)
    else:
        q, r = None, _r_factor(a, overwrite)
    mr = r.shape[0]
    r22 = np.zeros((rows - k, cols - k))
    r22[: mr - k, :] = r[k:, k:]
    return PartialQR(
        q=q,
        r11=r[:k, :k].copy(),
        r12=r[:k, k:].copy(),
        r22=r22,
        perm=PermutationSeq.identity(cols),
        k=k,
    )


def singular_values(m) -> np.ndarray:
    """Singular values in descending order, length min(rows, cols)."""
    return np.linalg.svd(as_matrix(m), compute_uv=False)


def column_norms(m) -> np.ndarray:
    """Euclidean norm of every column."""
    return np.linalg.norm(as_matrix(m), axis=0)


def inverse_row_norms(r11) -> np.ndarray:
    """Row norms of the inverse of an upper-triangular matrix.

    Computed through triangular solves against the identity, one per row,
    never by forming the inverse with explicit subtraction recurrences.
    """
    r = as_matrix(r11, name="r11")
    k = r.shape[0]
    if r.shape[1] != k:
        raise ValueError(f"r11 must be square, got {r.shape}")
    if k > 1 and np.max(np.abs(np.tril(r, -1))) != 0.0:
        raise ValueError("r11 must be upper-triangular")
    diag = np.diag(r)
    zero = np.nonzero(diag == 0.0)[0]
    if zero.size:
        raise SingularMatrixError(f"zero diagonal entry at index {int(zero[0])}")
    # column i of X solves R^T x = e_i, i.e. X^T = R^{-1}
    x = scipy.linalg.solve_triangular(r.T, np.eye(k), lower=True)
    return np.linalg.norm(x, axis=0)


def volume(m) -> float:
    """Volume of the box spanned by the columns: |det R| from a thin QR."""
    a = as_matrix(m)
    if a.shape[1] > a.shape[0]:
        raise ValueError("volume requires cols <= rows")
    fact = partial_qr(a, a.shape[1], want_q=False)
    return float(np.prod(np.abs(np.diag(fact.r11))))


def log_volume(m) -> float:
    """Natural log of :func:`volume`, -inf for rank-deficient input."""
    a = as_matrix(m)
    if a.shape[1] > a.shape[0]:
        raise ValueError("log_volume requires cols <= rows")
    fact = partial_qr(a, a.shape[1], want_q=False)
    d = np.abs(np.diag(fact.r11))
    if np.any(d == 0.0):
        return float("-inf")
    return float(np.sum(np.log(d)))


def _range_basis(m, *, rel_tol: float = 1e-14) -> np.ndarray:
    """Orthonormal basis of the numerical range via pivoted QR.

    Columns whose pivot falls below ``rel_tol`` times the Frobenius norm are
    treated as dependent.
    """
    from .srrqr import qrcp  # deferred: the pivoted module builds on this one

    a = as_matrix(m)
    scale = np.linalg.norm(a)
    if scale == 0.0:
        raise ValueError("matrix of zeros has no range basis")
    kmax = min(a.shape)
    fact = qrcp(a, kmax, want_q=False)
    d = np.abs(np.diag(fact.r11))
    rank = int(np.sum(d > rel_tol * scale))
    if rank == 0:
        raise ValueError("matrix is numerically zero")
    return partial_qr(fact.perm.apply_cols(a), rank, full_q=False).q


def ls_residual(a, b) -> float:
    """Least-squares residual norm ``min_x ||a x - b||`` computed via QR.

    Rank-deficient systems fall back to projecting onto the numerically
    nonsingular leading block of a pivoted factorization.
    """
    mat = as_matrix(a, name="a")
    rhs = as_vector(b, name="b")
    if rhs.size != mat.shape[0]:
        raise ValueError(f"b has length {rhs.size}, expected {mat.shape[0]}")
    basis = _range_basis(mat)
    resid = rhs - basis @ (basis.T @ rhs)
    return float(np.linalg.norm(resid))


def cos_angle(v1, v2) -> float:
    """Cosine of the angle between two nonzero vectors, clipped to [-1, 1]."""
    x = as_vector(v1, name="v1")
    y = as_vector(v2, name="v2")
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("cos_angle requires nonzero vectors")
    return float(np.clip(np.dot(x, y) / (nx * ny), -1.0, 1.0))


def cos_angle_subspace(v, basis) -> float:
    """Cosine of the angle between a vector and the span of ``basis`` columns.

    Equals ``||P v|| / ||v||`` for the orthogonal projector P onto the
    column span; the result lies in [0, 1].
    """
    x = as_vector(v, name="v")
    b = as_matrix(basis, name="basis")
    if x.size != b.shape[0]:
        raise ValueError("vector and basis dimensions differ")
    nx = np.linalg.norm(x)
    if nx == 0.0:
        raise ValueError("cos_angle_subspace requires a nonzero vector")
    fact = partial_qr(b, b.shape[1], full_q=False)
    if np.min(np.diag(fact.r11)) <= 1e-14 * max(np.linalg.norm(b), 1.0):
        raise ValueError("basis does not have full column rank")
    return float(np.clip(np.linalg.norm(fact.q.T @ x) / nx, 0.0, 1.0))


def save_matrix_text(m, path) -> None:
    """Write the text fixture format: "rows cols" then row-major entries."""
    a = as_matrix(m)
    with open(path, "w") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a:
            fh.write(" ".join(f"{x:.17e}" for x in row) + "\n")


def load_matrix_text(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed header line")
        rows, cols = int(header[0]), int(header[1])
        data = np.array(fh.read().split(), dtype=np.float64)
    if data.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} entries, got {data.size}")
    return as_matrix(data.reshape(rows, cols), name=str(path))


def save_matrix_binary(m, path) -> None:
    """Write the binary fixture format: LE uint64 dims, column-major float64."""
    a = as_matrix(m)
    with open(path, "wb") as fh:
        np.asarray(a.shape, dtype="<u8").tofile(fh)
        a.astype("<f8").flatten(order="F").tofile(fh)


def load_matrix_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        dims = np.fromfile(fh, dtype="<u8", count=2)
        if dims.size != 2:
            raise ValueError(f"{path}: truncated header")
        rows, cols = int(dims[0]), int(dims[1])
        data = np.fromfile(fh, dtype="<f8")
    if data.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} entries, got {data.size}")
    return as_matrix(data.reshape((rows, cols), order="F"), name=str(path))
