"""Random sketching operators: rescaled Gaussian and SRHT.

An operator maps length-m vectors to length-d vectors (d <= m) while
approximately preserving inner products on low-dimensional subspaces.  Both
kinds are fully determined by ``(kind, d, m, seed)``: the SRHT re-derives
its sign flips and row samples from the seed, and the Gaussian operator's
columns come in chunks of ``_CHUNK``, chunk c drawn by numpy's ziggurat
sampler from the Philox stream of key ``seed`` and counter ``[0, 0, c,
0]`` (:func:`_gaussian_block`).  So the operator never needs dense storage
and blocked application reproduces the same matrix.

The Gaussian operator is applied one block of whole chunks at a time, the
block's chunks drawn into one buffer and multiplied into the sketch's
C-ordered transpose as ``a_piece.T @ blk.T``, column-major BLAS's NN
product, at one BLAS thread in pieces of at most ``_PIECE`` input
columns.  The blocks, the BLAS thread count and, at one BLAS thread for
n > ``_PIECE``, the pieces fix the sketch's bits: against one product per
block, OpenBLAS gave other bits at 21 of 22 widths from 257 to 1024, all
but n = 260.  The SRHT is applied as two matrix products through the
Kronecker structure ``H_m = H_p (x) H_q`` of the Sylvester Hadamard
matrix, computing only the sampled rows; the first runs in panels of
columns, so the only matrix-sized scratch is its result.  :func:`fwht` is
the same transform as a butterfly.

The Gaussian chunks and the SRHT's panels and sampled row blocks are
shared out among the caller and the package's lazily created thread pool
(:func:`._threads.share`), one worker per available CPU capped by the
``SPECTRA_RRQR_THREADS`` environment variable (a cap of 1 starts no
thread).  So are the Gaussian product's pieces, at one BLAS thread.  A
sketch is bitwise the same for every number of workers.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import _threads
from .dense_core import as_matrix, singular_values

_KINDS = ("gaussian", "srht", "identity")

# Gaussian operator entries per matrix product (the block, _BLOCK_ENTRIES // d
# columns rounded down to whole chunks, fixes the sketch's bits) and operator
# columns per chunk, one random stream each (the chunks fix the entries)
_BLOCK_ENTRIES = 4_000_000
_CHUNK = 64
# input columns per piece of a block's matrix product; the pieces depend on
# n alone, so they fix the bits for every worker count
_PIECE = 256
# SRHT stage-1 scratch columns, shared out among the workers; bounds the
# sign-flipped scratch to _SRHT_PANEL * m doubles
_SRHT_PANEL = 32


def next_pow2(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    return 1 << (n - 1).bit_length()


def pad_rows_pow2(m) -> np.ndarray:
    """Zero-pad below so the row count becomes a power of two."""
    a = as_matrix(m)
    target = next_pow2(a.shape[0])
    if target == a.shape[0]:
        return a
    out = np.zeros((target, a.shape[1]), order="F")
    out[: a.shape[0], :] = a
    return out


def _operator_rows(kind: str, rows: int) -> int:
    """Operator row count for a ``rows``-row input; the SRHT pads to 2^j."""
    return next_pow2(rows) if kind == "srht" else rows


def fwht(x) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along axis 0.

    Uses the Sylvester ordering, so ``fwht(fwht(v)) == m * v``.  Accepts a
    vector or a matrix (transformed column by column); the length along
    axis 0 must be a power of two.  The butterflies run in place on one
    row-major working copy, so the input is never modified.
    """
    arr = np.asarray(x, dtype=np.float64)
    vec = arr.ndim == 1
    if arr.ndim not in (1, 2):
        raise ValueError("fwht expects a vector or a matrix")
    # row-major, so each butterfly half below is a reshape view of y
    y = np.array(arr.reshape(-1, 1) if vec else arr, order="C")
    m, n = y.shape
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(f"length {m} is not a power of two")
    h = 1
    while h < m:
        z = y.reshape(m // (2 * h), 2, h, n)
        t = z[:, 0].copy()
        z[:, 0] += z[:, 1]
        np.subtract(t, z[:, 1], out=z[:, 1])
        h *= 2
    return y[:, 0] if vec else y


def _gaussian_block(seed: int, d: int, j0: int, j1: int) -> np.ndarray:
    """Standard-normal entries of the operator's columns [j0, j1).

    Chunk c, the columns ``[c _CHUNK, (c + 1) _CHUNK)``, is the stream
    ``Generator(Philox(key=seed, counter=[0, 0, c, 0])).standard_normal``
    read column by column; a chunk cut short by ``j1`` or by the operator's
    end is a prefix of its stream.  This fills the chunks that cover the
    range and slices, so any blocking yields the same entries.
    """
    c0 = j0 - j0 % _CHUNK
    buf = np.empty((d, j1 - c0), order="F")
    chunks = ((c, min(j1, c + _CHUNK)) for c in range(c0, j1, _CHUNK))
    _fill_gaussian(buf, seed & (2**64 - 1), d, c0, chunks)
    return buf[:, j0 - c0 :]


def _fill_gaussian(buf: np.ndarray, seed: int, d: int, j0: int, chunks) -> None:
    """Write operator columns ``[c0, c1)`` into ``buf[:, c0 - j0 : c1 - j0]``.

    Each ``c0`` starts a chunk, and its entries are drawn from that chunk's
    stream (:func:`_gaussian_block`) by numpy's ziggurat straight into
    ``buf``: F-ordered with ``d`` rows, so a chunk is one contiguous run.
    A chunk takes about ``d _CHUNK / 4`` counter steps in word 0 of the
    counter, so the streams never overlap.
    """
    flat = buf.reshape(-1, order="F")
    for c0, c1 in chunks:
        bg = np.random.Philox(key=seed, counter=[0, 0, c0 // _CHUNK, 0])
        np.random.Generator(bg).standard_normal(out=flat[d * (c0 - j0) : d * (c1 - j0)])


def _multiply_pieces(out_t: np.ndarray, blk: np.ndarray, a: np.ndarray, pieces) -> None:
    """Add ``a[:, c0:c1].T @ blk.T`` into ``out_t[c0:c1]`` for each ``(c0, c1)``."""
    for c0, c1 in pieces:
        out_t[c0:c1] += a[:, c0:c1].T @ blk.T


def _gaussian_rows(op: SketchOperator, a: np.ndarray) -> np.ndarray:
    """``op @ a`` for a Gaussian operator: one GEMM per block and piece.

    Blocks of ``_BLOCK_ENTRIES // d`` operator columns, rounded down to
    whole chunks (at least one) so that each starts on a chunk boundary,
    are accumulated in order, each in pieces of input columns: the same
    partitions and order as ``out_t[p] += a[b, p].T @ _gaussian_block(b).T``
    over the blocks ``b`` and, within each, the pieces ``p``, on a C-ordered
    n x d ``out_t``, no operand transposed for column-major BLAS; then
    ``(out_t / sqrt(d)).T``, F-ordered.  The caller and ``workers - 1``
    pool tasks draw a block's chunks into the one buffer, one stream each
    and no scratch (:func:`._threads.share`).  With BLAS on one thread
    they then share out its pieces of at most ``_PIECE`` columns; otherwise
    the caller multiplies the block in as one piece.  With n <= ``_PIECE``
    the two are the same product.
    """
    d, m = op.d, op.m
    n = a.shape[1]
    width = min(m, max(_CHUNK, _BLOCK_ENTRIES // d // _CHUNK * _CHUNK))
    workers = _threads.worker_count(-(-width // _CHUNK))
    # a threaded BLAS already spreads each product over the cores, and one
    # product packs the block once, pieces in turn once per piece
    piece = _PIECE if _threads.one_blas_thread() else n
    piece_workers = _threads.worker_count(-(-n // piece))
    buf = np.empty((d, width), order="F")
    out_t = np.zeros((n, d))
    for j0 in range(0, m, width):
        j1 = min(m, j0 + width)
        chunks = ((c, min(j1, c + _CHUNK)) for c in range(j0, j1, _CHUNK))
        _threads.share(_fill_gaussian, chunks, workers, buf, op.seed, d, j0)
        pieces = ((c, min(n, c + piece)) for c in range(0, n, piece))
        _threads.share(_multiply_pieces, pieces, piece_workers, out_t, buf[:, : j1 - j0], a[j0:j1])
    out_t /= math.sqrt(d)
    return out_t.T


@dataclass
class SketchOperator:
    """Sketching map of shape (d, m) identified by (kind, d, m, seed).

    ``kind="identity"`` (requires d == m) is a degenerate stub with zero
    distortion, useful in tests.
    """

    kind: str
    d: int
    m: int
    seed: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown sketch kind {self.kind!r}")
        if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                   for x in (self.d, self.m)):
            raise ValueError(f"dimensions must be integers, got d={self.d!r}, m={self.m!r}")
        if self.d < 1 or self.m < 1:
            raise ValueError("dimensions must be positive")
        if self.d > self.m:
            raise ValueError(f"sketch size d={self.d} exceeds input rows m={self.m}")
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        self.seed = int(self.seed) & (2**64 - 1)
        if self.kind == "srht":
            if self.m & (self.m - 1):
                raise ValueError(
                    f"srht requires a power-of-two row count, got m={self.m}"
                )
            rng = np.random.default_rng(self.seed)
            self.signs = rng.integers(0, 2, size=self.m) * 2.0 - 1.0
            self.sample_idx = rng.integers(0, self.m, size=self.d)
            self.scale = math.sqrt(self.m / self.d)
        elif self.kind == "identity":
            if self.d != self.m:
                raise ValueError("identity sketch requires d == m")

    def to_json(self) -> str:
        return json.dumps(
            {"kind": self.kind, "d": self.d, "m": self.m, "seed": self.seed}
        )

    @classmethod
    def from_json(cls, text: str) -> "SketchOperator":
        rec = json.loads(text)
        return cls(kind=rec["kind"], d=rec["d"], m=rec["m"], seed=rec["seed"])


def _srht_rows(op: SketchOperator, a: np.ndarray) -> np.ndarray:
    """The sampled rows of ``H_m (signs * a) / sqrt(d)``, as two GEMMs.

    With ``m = p q`` and row index ``i = i_p q + i_q``, ``H_m = H_p (x) H_q``
    gives ``H_m[i, j] = H_p[i_p, j_p] H_q[i_q, j_q]``.  Stage 1 contracts the
    row-block index against ``H_p`` for every row, one batched product per
    panel of columns on the row-major view ``(n, p, q)``: each panel's
    sign-flipped columns are copied into one small scratch ``x`` and the
    product is written into its slice of the one ``z``.  Each column is its
    own product in the batch, so the panels give the bytes of a single
    batched product.  Stage 2 contracts the within-block index only against
    the rows of ``H_q`` the samples need, one product per sampled row block
    over all n columns.  Rows of ``a`` past its end (it may have fewer than
    m) are zeros: row blocks past the last nonzero one add nothing to stage
    1, so it contracts only the leading ``live`` blocks, and the part of a
    partial last block past ``a``'s end stays zero in ``x``.  The caller and
    pool tasks share out the panels, of ``_SRHT_PANEL // workers`` columns
    each, then the row blocks (:func:`._threads.share`).
    """
    n = a.shape[1]
    # stage 1 costs 2 n m p flops and stage 2 only 2 n d q (d <= m), so the
    # larger factor of the split goes to stage 2: q = p or q = 2p
    q = 1 << (op.m.bit_length() // 2)
    p = op.m // q
    live = -(-a.shape[0] // q)
    while live and not a[(live - 1) * q : live * q].any():
        live -= 1
    rows = live * q
    signs = op.signs[: min(rows, a.shape[0])]
    h_p = scipy.linalg.hadamard(p, dtype=np.float64)[:, :live]
    workers = _threads.worker_count(min(_SRHT_PANEL, -(-n // _SRHT_PANEL)))
    width = min(n, _SRHT_PANEL // workers)
    # a slice of one scratch per worker, made here, not in a pool thread's malloc arena
    scratch = deque(np.zeros((workers, width, live, q)))
    z = np.empty((n, p, q))

    def stage_1(panels):
        x = scratch.pop()
        for c0, c1 in panels:
            head = x[: c1 - c0].reshape(c1 - c0, rows)[:, : signs.size]
            np.multiply(a[: signs.size, c0:c1].T, signs, out=head)
            np.matmul(h_p, x[: c1 - c0], out=z[c0:c1])
    _threads.share(stage_1, ((c, min(n, c + width)) for c in range(0, n, width)), workers)
    block, within = np.divmod(op.sample_idx, q)
    # sqrt(m/d) * sample(H_normalized ...) collapses to 1/sqrt(d) on the
    # unnormalized transform
    h_rows = scipy.linalg.hadamard(q)[within] * (1.0 / math.sqrt(op.d))
    out = np.empty((op.d, n))

    def stage_2(blocks):
        for b in blocks:
            sel = np.flatnonzero(block == b)
            out[sel] = h_rows[sel] @ z[:, b, :].T
    _threads.share(stage_2, np.unique(block), workers)
    return out


def apply(op: SketchOperator, m) -> np.ndarray:
    """Compute the sketch ``op @ m`` without materializing the operator.

    The SRHT path flips signs and computes only the ``d`` sampled rows of
    the Hadamard transform, as two matrix products (see :func:`_srht_rows`).
    It takes unpadded input, giving bitwise what it gives on
    :func:`pad_rows_pow2` of it; the other kinds need exactly ``op.m`` rows.
    The Gaussian path draws each block of whole chunks of operator columns,
    one Philox stream per chunk of ``_CHUNK`` columns, into one buffer and
    multiplies it into the F-ordered result, at one BLAS thread in pieces
    of at most ``_PIECE`` input columns (see :func:`_gaussian_rows`);
    there, for n > ``_PIECE``, the pieces fix the bits, as the blocks do.
    Both paths share their work out among threads; the result is bitwise
    the same for every worker count.
    """
    return _apply(op, as_matrix(m))


def _apply(op: SketchOperator, a: np.ndarray) -> np.ndarray:
    """:func:`apply` on an already validated F-ordered float64 matrix."""
    if _operator_rows(op.kind, a.shape[0]) != op.m:
        raise ValueError(f"matrix has {a.shape[0]} rows, operator expects {op.m}")
    if op.kind == "identity":
        return a.copy()
    if op.kind == "srht":
        return _srht_rows(op, a)
    return _gaussian_rows(op, a)


def materialize(op: SketchOperator) -> np.ndarray:
    """Dense (d, m) matrix of the operator; for small sizes and oracles."""
    return apply(op, np.eye(op.m))


def embedding_distortion(op: SketchOperator, basis) -> float:
    """Exact distortion of the operator over the span of an orthonormal basis.

    Returns ``max(1 - sigma_min^2, sigma_max^2 - 1)`` of the sketched basis,
    which certifies the inner-product distortion for every vector in the
    span.  Reports 1.0 when d is smaller than the subspace dimension (an
    embedding is then impossible).
    """
    b = as_matrix(basis, name="basis")
    gram_err = np.max(np.abs(b.T @ b - np.eye(b.shape[1])))
    if gram_err > 1e-10:
        raise ValueError(f"basis is not orthonormal (gram error {gram_err:.2e})")
    if op.d < b.shape[1]:
        return 1.0
    s = singular_values(apply(op, b))
    return float(max(1.0 - s[-1] ** 2, s[0] ** 2 - 1.0))


def ose_dim(subspace_dim: int, m: int) -> int:
    """Sketch size ``floor(3 n log(m) / log(n))`` with ``n = subspace_dim``.

    Natural logs (the ratio is base-invariant), clamped to ``[n + 1, m]``.
    No distortion target goes in, and the size implies none.
    """
    n = subspace_dim
    if n < 1 or m < 1:
        raise ValueError("dimensions must be positive")
    raw = m if n < 2 else math.floor(3.0 * n * math.log(m) / math.log(n))
    return int(min(m, max(n + 1, raw)))
