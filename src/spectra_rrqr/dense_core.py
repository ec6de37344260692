"""Dense matrix container and deterministic numerical kernels.

Everything operates on 64-bit float ndarrays in column-major layout.  The
kernels here (QR, singular values, triangular solves, column geometry) are
the building blocks consumed by the pivoted factorizations and the
sketching layer.  Every unpivoted QR -- :func:`partial_qr`,
:func:`thin_qr`, :func:`r_factor` and the volumes and angles built on them
-- runs on one engine, LAPACK's blocked Householder ``dgeqrt``, called
without the GIL when LAPACK runs on one thread: :func:`_geqrt` calls
scipy's LAPACK routine through its function pointer with ctypes, so a QR
on a worker thread leaves the interpreter to the caller.  No Householder
code is written in Python: the single reflectors of :mod:`.srrqr` are
LAPACK's ``dlarfg``.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import dgemqrt

from . import _threads


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
            fwd = self.forward
            fwd[i], fwd[j] = fwd[j], fwd[i]
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

    ``r11`` is k-by-k upper-triangular with nonnegative diagonal.  ``r22``
    holds the leading rows of the (m-k)-by-(n-k) trailing block, the rest
    being zero: the LAPACK paths keep min(m, n)-k rows.  ``rows`` is m.
    ``q`` is the thin m-by-min(m, n) factor, the columns of Q that meet R,
    or None when the caller skipped materializing it.
    """

    q: np.ndarray | None
    r11: np.ndarray
    r12: np.ndarray
    r22: np.ndarray
    perm: PermutationSeq
    k: int
    rows: int

    @classmethod
    def from_r(cls, q, r: np.ndarray, k: int, perm: PermutationSeq, rows: int):
        """Blocks of ``r``, triangular in its first k columns; ``rows`` is m."""
        r11, r12, r22 = r[:k, :k].copy(), r[:k, k:].copy(), r[k:, k:].copy()
        return cls(q, r11, r12, r22, perm, k, rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.k + self.r12.shape[1])

    def r_matrix(self) -> np.ndarray:
        """Assemble the full m-by-n upper-trapezoidal factor."""
        m, n = self.shape
        r = np.zeros((m, n))
        r[: self.k, : self.k] = self.r11
        r[: self.k, self.k :] = self.r12
        r[self.k : self.k + self.r22.shape[0], self.k :] = self.r22
        return r

    def reconstruction_error(self, m) -> float:
        """Relative Frobenius residual of ``M @ P - Q @ R``."""
        a = as_matrix(m)
        mp = self.perm.apply_cols(a)
        scale = np.linalg.norm(a)
        if scale == 0.0:
            scale = 1.0
        if self.q is None:
            raise ValueError("factorization was computed without a Q factor")
        r = self.r_matrix()[: self.q.shape[1]]
        return float(np.linalg.norm(mp - self.q @ r) / scale)


# panel width of the blocked Householder QR; dgeqrt factors each panel
# recursively and updates the trailing columns with BLAS-3
_QRT_BLOCK = 64


def _capsule_address(capsule) -> int:
    """The function pointer a Cython ``__pyx_capi__`` capsule holds."""
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    return pointer(capsule, name(capsule))


# dgeqrt(m, n, nb, a, lda, t, ldt, work, info), every argument a pointer.
# A CFUNCTYPE call releases the GIL; the PYFUNCTYPE one holds it, as
# scipy's f2py wrapper does
_DGEQRT_ADDRESS = _capsule_address(cython_lapack.__pyx_capi__["dgeqrt"])
_DGEQRT = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 9)(_DGEQRT_ADDRESS)
_DGEQRT_GIL = ctypes.PYFUNCTYPE(None, *[ctypes.c_void_p] * 9)(_DGEQRT_ADDRESS)


def _geqrt(a: np.ndarray, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK ``dgeqrt`` of ``a``: R and reflectors, T.

    ``a`` is overwritten only with ``overwrite`` and only when it is a
    writable float64 array laid out column-major: row stride one element,
    column stride a whole number of elements, at least its row count.  An
    F-ordered array is one, and so is a block of rows and columns cut from
    one, which LAPACK then addresses with that column stride as ``lda``.
    Otherwise LAPACK works on an F-ordered copy.  Runs without the GIL when
    LAPACK runs on one thread; R and T are bitwise those of scipy's
    ``dgeqrt`` wrapper, whatever the column stride.
    """
    m, n = a.shape
    nb = min(_QRT_BLOCK, m, n)
    # aligned float64 strides are whole elements
    in_place = (
        overwrite and a.dtype == np.float64 and a.flags.aligned and a.flags.writeable
        and (m == 1 or a.strides[0] == a.itemsize) and (n == 1 or a.strides[1] >= m * a.itemsize)
    )
    f = a if in_place else np.array(a, np.float64, order="F")
    lda = f.strides[1] // f.itemsize if n > 1 else m
    t = np.zeros((nb, min(m, n)), order="F")
    work = np.empty(nb * n)
    # m, n, nb (also ldt), lda, info
    ints = np.array([m, n, nb, lda, 0], dtype=np.intc)
    i, s = ints.ctypes.data, ints.itemsize
    # a threaded LAPACK already spreads one QR over the cores; holding the
    # GIL keeps threads that call it at once from oversubscribing them
    qr = _DGEQRT if _threads.one_blas_thread() else _DGEQRT_GIL
    qr(
        i, i + s, i + 2 * s, f.ctypes.data, i + 3 * s,
        t.ctypes.data, i + 2 * s, work.ctypes.data, i + 4 * s,
    )
    if ints[4]:
        raise ValueError(f"dgeqrt failed with info={ints[4]}")
    return f, t


def _apply_q(f: np.ndarray, t: np.ndarray, top: np.ndarray) -> np.ndarray:
    """``Q @ [top; 0]`` for the reflectors and T of :func:`_geqrt` (``dgemqrt``).

    ``top`` has at most the row count of ``f``; the zero-padded buffer the
    product overwrites is allocated here.
    """
    c = np.zeros((f.shape[0], top.shape[1]), order="F")
    c[: top.shape[0]] = top
    out, info = dgemqrt(f[:, : t.shape[1]], t, c, overwrite_c=1)
    if info:
        raise ValueError(f"dgemqrt failed with info={info}")
    return out


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
    q = _apply_q(f, t, np.eye(k))
    r, flip = _signed_r(f, k)
    q *= flip
    return q, r


def _diag_signs(r: np.ndarray) -> np.ndarray:
    """Row signs that make the diagonal of a LAPACK R factor nonnegative."""
    flip = np.sign(np.diag(r))
    flip[flip == 0.0] = 1.0
    return flip


def _signed_r(f: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The R in the first k rows of ``dgeqrt``'s output, its diagonal made
    nonnegative, and the row signs that did it."""
    r = np.triu(f[:k])
    flip = _diag_signs(r)
    return r * flip[:, None], flip


def r_factor(m) -> np.ndarray:
    """R of the economy QR, nonnegative diagonal, without forming Q.

    One LAPACK ``dgeqrt`` (recursive panels, BLAS-3 trailing updates); the
    result is exactly the R of :func:`thin_qr`.  Shape
    ``(min(rows, cols), cols)``.
    """
    return _r_factor(as_matrix(m))


def _r_factor(a: np.ndarray, overwrite: bool = False) -> np.ndarray:
    return _signed_r(_geqrt(a, overwrite)[0], min(a.shape))[0]


def partial_qr(m, k: int, *, want_q: bool = True) -> PartialQR:
    """Partial QR after k elimination steps, no pivoting.

    One LAPACK ``dgeqrt`` of the whole matrix: R is bitwise the R of
    :func:`r_factor`, its diagonal nonnegative, which makes the factor
    unique for full-column-rank leading blocks; ``r22`` keeps min(m, n)-k
    rows.  Q is the thin m-by-min(m, n) factor of :func:`thin_qr`, and
    ``want_q=False`` skips it.
    """
    a = as_matrix(m)
    _check_rank(k, *a.shape)
    return _stable_partial_qr(a, k, want_q=want_q)


def _check_rank(k, rows: int, cols: int) -> None:
    """Reject a rank ``k`` that is not a Python or numpy integer in [1, min(rows, cols)];
    a ``bool`` is not one."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k={k!r} is not an integer")
    if not (1 <= k <= min(rows, cols)):
        raise ValueError(f"k={k} out of range for a {rows}x{cols} matrix")


def _stable_partial_qr(
    a: np.ndarray, k: int, *, want_q: bool = True, overwrite: bool = False
) -> PartialQR:
    """:func:`partial_qr` of a validated matrix; ``k`` may be 0.

    Q has the leading min(m, n) columns, the only ones that meet R.
    """
    rows, cols = a.shape
    if want_q:
        q, r = _thin_qr(a, overwrite)
    else:
        q, r = None, _r_factor(a, overwrite)
    return PartialQR.from_r(q, r, k, PermutationSeq.identity(cols), rows)


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


def _abs_r_diag(m, caller: str) -> np.ndarray:
    """``|diag R|`` of a thin QR of ``m``, whose cols may not exceed its rows."""
    a = as_matrix(m)
    if a.shape[1] > a.shape[0]:
        raise ValueError(f"{caller} requires cols <= rows")
    return np.abs(np.diag(partial_qr(a, a.shape[1], want_q=False).r11))


def volume(m) -> float:
    """Volume of the box spanned by the columns: |det R| from a thin QR."""
    return float(np.prod(_abs_r_diag(m, "volume")))


def log_volume(m) -> float:
    """Natural log of :func:`volume`, -inf for rank-deficient input."""
    d = _abs_r_diag(m, "log_volume")
    if np.any(d == 0.0):
        return float("-inf")
    return float(np.sum(np.log(d)))


def _range_basis(m, reduced=None) -> np.ndarray:
    """Orthonormal basis of the numerical range via pivoted QR (``dgeqp3``).

    Columns whose pivot falls below 1e-14 times the Frobenius norm are
    treated as dependent.  The first pivot is the largest column norm, at
    least the Frobenius norm over sqrt(n), so the rank is at least 1.

    ``reduced`` may hold the reflectors and T of :func:`_geqrt` of a tall
    ``m``, ``m = Q_M [R_M; 0]``; the pivoted QR then runs on the n-by-n
    ``R_M``, and its Q is lifted through ``Q_M``.
    """
    a = as_matrix(m)
    scale = np.linalg.norm(a)
    if scale == 0.0:
        raise ValueError("matrix of zeros has no range basis")
    if reduced is None:
        q, r, _ = scipy.linalg.qr(a, mode="economic", pivoting=True, check_finite=False)
        return q[:, : int(np.sum(np.abs(np.diag(r)) > 1e-14 * scale))]
    f, t = reduced
    n = a.shape[1]
    q, r, _ = scipy.linalg.qr(np.triu(f[:n]), pivoting=True, check_finite=False)
    rank = int(np.sum(np.abs(np.diag(r)) > 1e-14 * scale))
    return _apply_q(f, t, q[:, :rank])


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
    peak = np.max(np.abs(x))
    if peak == 0.0:
        raise ValueError("cos_angle_subspace requires a nonzero vector")
    # unit largest entry, so neither norm of x over- or underflows
    x = x / peak
    fact = partial_qr(b, b.shape[1])
    # relative to R11's largest diagonal, a column norm dgeqrt scales
    # against overflow; an all-zero basis still fails
    diag = np.diag(fact.r11)
    if not np.min(diag) > 1e-14 * np.max(diag):
        raise ValueError("basis does not have full column rank")
    return float(np.clip(np.linalg.norm(fact.q.T @ x) / np.linalg.norm(x), 0.0, 1.0))


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
