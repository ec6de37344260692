"""Random sketching operators: rescaled Gaussian and SRHT.

An operator maps length-m vectors to length-d vectors (d <= m) while
approximately preserving inner products on low-dimensional subspaces.  Both
kinds are fully determined by ``(kind, d, m, seed)``: the SRHT re-derives
its sign flips and row samples from the seed, and the Gaussian entries are
generated counter-based from (seed, entry index) so the operator never
needs dense storage and blocked application reproduces the same matrix.

The Gaussian operator is applied one block of columns at a time, each
block one matrix product into the result.  Its columns are generated in
chunks of at most ``_CHUNK`` on a lazily created thread pool (Philox, the
ufuncs and the product all release the GIL), the next block filling a
second buffer while the caller multiplies the current one.  The pool has
one worker per CPU available to the process, capped by the
``SPECTRA_RRQR_THREADS`` environment variable; with a cap of 1 the chunks
run in the caller and no thread is started.  Counter-based generation
makes the operator bitwise independent of the chunking and of the number
of workers.

The SRHT is applied as two matrix products through the Kronecker structure
``H_m = H_p (x) H_q`` of the Sylvester Hadamard matrix, computing only the
sampled rows; :func:`fwht` is the same transform as a butterfly.
"""
from __future__ import annotations

import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dense_core import as_matrix, singular_values

_KINDS = ("gaussian", "srht", "identity")

# Gaussian operator entries per matrix product (the block is
# _BLOCK_ENTRIES // d columns) and operator columns per generation chunk;
# a chunk bounds each worker's scratch to 3 d doubles per column
_BLOCK_ENTRIES = 4_000_000
_CHUNK = 256


def worker_count(n_jobs: int) -> int:
    """Threads for ``n_jobs`` independent jobs.

    The number of CPUs available to the process, capped by the
    ``SPECTRA_RRQR_THREADS`` environment variable (``ValueError`` unless it
    is an integer) and by ``n_jobs``.
    """
    if hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    env = os.environ.get("SPECTRA_RRQR_THREADS", "").strip()
    if env:
        if not env.lstrip("+-").isdigit():
            raise ValueError(f"SPECTRA_RRQR_THREADS must be an integer, got {env!r}")
        cap = min(cap, max(1, int(env)))
    return max(1, min(n_jobs, cap))


_pool: ThreadPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def _sketch_pool(workers: int) -> ThreadPoolExecutor:
    """The shared generation pool, grown to at least ``workers`` threads.

    A replaced pool is dropped, not shut down: a caller still holding it
    keeps it alive, and its idle threads exit once it is collected.
    """
    global _pool, _pool_workers
    with _pool_lock:
        if _pool_workers < workers:
            _pool = ThreadPoolExecutor(workers, thread_name_prefix="spectra-sketch")
            _pool_workers = workers
        return _pool


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_workers, _pool_lock
    _pool, _pool_workers, _pool_lock = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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
    """Standard-normal entries for operator columns [j0, j1), counter-based.

    Entry (i, j) consumes the two 64-bit words at counter 2*(j*d + i), so
    any blocking of the generation yields identical values.
    """
    bg = np.random.Philox(key=seed & (2**64 - 1))
    # Philox.advance steps the counter in blocks of four 64-bit words
    words = 2 * d * j0
    bg.advance(words // 4)
    if words % 4:
        bg.random_raw(words % 4)
    raw = bg.random_raw(2 * d * (j1 - j0))
    u = (raw >> np.uint64(11)) * 2.0**-53
    u1, u2 = u[0::2], u[1::2]
    z = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
    return z.reshape((d, j1 - j0), order="F")


def _fill_gaussian(buf: np.ndarray, seed: int, d: int, j0: int, chunks) -> None:
    """Write operator columns ``[c0, c1)`` into ``buf[:, c0 - j0 : c1 - j0]``.

    ``buf`` is F-ordered with ``d`` rows, so each chunk is one contiguous
    run that the transform fills in place.  The arithmetic is that of
    :func:`_gaussian_block`, operation for operation, with ``log1p`` and
    ``cos`` on contiguous operands as there, so the entries are bitwise
    the same.
    """
    flat = buf.reshape(-1, order="F")
    most = d * max(c1 - c0 for c0, c1 in chunks)
    u, arg = np.empty(2 * most), np.empty(most)
    for c0, c1 in chunks:
        bg = np.random.Philox(key=seed)
        words = 2 * d * c0
        bg.advance(words // 4)
        if words % 4:
            bg.random_raw(words % 4)
        size = d * (c1 - c0)
        # Generator.random draws (next 64-bit word >> 11) * 2**-53 in place
        np.random.Generator(bg).random(out=u[: 2 * size])
        z = flat[d * (c0 - j0) : d * (c1 - j0)]
        np.negative(u[0 : 2 * size : 2], out=z)
        np.log1p(z, out=z)
        np.multiply(z, -2.0, out=z)
        np.sqrt(z, out=z)
        np.multiply(u[1 : 2 * size : 2], 2.0 * np.pi, out=arg[:size])
        np.cos(arg[:size], out=arg[:size])
        np.multiply(z, arg[:size], out=z)


def _gaussian_rows(op: SketchOperator, a: np.ndarray) -> np.ndarray:
    """``op @ a`` for a Gaussian operator: one GEMM per block of columns.

    Blocks of ``_BLOCK_ENTRIES // d`` operator columns are accumulated into
    the result in order, the same partition and order as
    ``sum_b _gaussian_block(b) @ a[b] / sqrt(d)``.  The block's chunks are
    spread over ``workers`` tasks; with more than one worker, block ``b + 1``
    is generated into the second buffer while the caller multiplies block
    ``b``.
    """
    d, m = op.d, op.m
    width = min(m, max(1, _BLOCK_ENTRIES // d))
    blocks = [(j0, min(m, j0 + width)) for j0 in range(0, m, width)]
    workers = worker_count(-(-width // _CHUNK))
    bufs = [np.empty((d, width), order="F") for _ in range(min(workers, 2))]

    def chunks(b):
        j0, j1 = blocks[b]
        return [(c, min(j1, c + _CHUNK)) for c in range(j0, j1, _CHUNK)]

    def submit(b):
        if b == len(blocks):
            return []
        pool, cs = _sketch_pool(workers), chunks(b)
        args = (bufs[b % 2], op.seed, d, blocks[b][0])
        tasks = min(workers, len(cs))
        return [pool.submit(_fill_gaussian, *args, cs[t::tasks]) for t in range(tasks)]

    out = np.zeros((d, a.shape[1]))
    pending = submit(0) if workers > 1 else []
    try:
        for b, (j0, j1) in enumerate(blocks):
            buf = bufs[b % len(bufs)]
            if workers == 1:
                _fill_gaussian(buf, op.seed, d, j0, chunks(b))
            else:
                for fut in pending:
                    fut.result()
                pending = submit(b + 1)
            out += buf[:, : j1 - j0] @ a[j0:j1, :]
    finally:
        # on error, no task may still write into the buffers
        for fut in pending:
            fut.cancel()
        wait(pending)
    return out / math.sqrt(d)


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
        if self.d < 1 or self.m < 1:
            raise ValueError("dimensions must be positive")
        if self.d > self.m:
            raise ValueError(f"sketch size d={self.d} exceeds input rows m={self.m}")
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
    gives ``H_m[i, j] = H_p[i_p, j_p] H_q[i_q, j_q]``.  The row-block index
    is contracted against ``H_p`` for every row (one batched product on
    the row-major view ``(n, p, q)``); the within-block index is then
    contracted only against the rows of ``H_q`` the samples need, one
    product per sampled row block.  Rows of ``a`` past its end (it may
    have fewer than m) are zeros: row blocks past the last nonzero one add
    nothing to the first product, so it contracts only the leading blocks,
    and a partial last block is zero-filled in the working copy ``x``.
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
    x = np.zeros((n, live, q))
    head = x.reshape(n, rows)[:, : a.shape[0]]
    np.multiply(a[:rows].T, op.signs[: head.shape[1]], out=head)
    z = np.matmul(scipy.linalg.hadamard(p, dtype=np.float64)[:, :live], x)
    block, within = np.divmod(op.sample_idx, q)
    # sqrt(m/d) * sample(H_normalized ...) collapses to 1/sqrt(d) on the
    # unnormalized transform
    h_rows = scipy.linalg.hadamard(q)[within] * (1.0 / math.sqrt(op.d))
    out = np.empty((op.d, n))
    for b in np.unique(block):
        rows = np.flatnonzero(block == b)
        out[rows] = h_rows[rows] @ z[:, b, :].T
    return out


def apply(op: SketchOperator, m) -> np.ndarray:
    """Compute the sketch ``op @ m`` without materializing the operator.

    The SRHT path flips signs and computes only the ``d`` sampled rows of
    the Hadamard transform, as two matrix products (see :func:`_srht_rows`).
    It takes unpadded input, giving bitwise what it gives on
    :func:`pad_rows_pow2` of it; the other kinds need exactly ``op.m`` rows.
    The Gaussian path multiplies blocks of counter-generated operator
    columns into the result, generating them in chunks of at most
    ``_CHUNK`` columns on one worker thread per available CPU, capped by
    ``SPECTRA_RRQR_THREADS`` (see :func:`_gaussian_rows`); the result is
    bitwise the same for every worker count.
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


@dataclass(frozen=True)
class SketchConfig:
    epsilon: float
    delta: float
    subspace_dim: int
    d: int

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.subspace_dim < 1 or self.d < 1:
            raise ValueError("dimensions must be positive")


def ose_dim(
    epsilon: float,
    delta: float,
    subspace_dim: int,
    m: int,
    kind: str = "srht",
    *,
    policy: str = "experimental",
    constant: float = 1.0,
) -> int:
    """Sketch size for embedding a ``subspace_dim``-dimensional subspace.

    The default policy is the benchmark sizing ``floor(3 n log(m) / log(n))``
    (natural logs; the ratio is base-invariant).  The ``theory`` policy uses
    the asymptotic formulas for the requested kind with an explicit leading
    ``constant`` (default 1) since the asymptotics carry none.  The result
    is clamped to ``[subspace_dim + 1, m]``.
    """
    n = subspace_dim
    if n < 1 or m < 1:
        raise ValueError("dimensions must be positive")
    if policy == "experimental":
        raw = m if n < 2 else math.floor(3.0 * n * math.log(m) / math.log(n))
    elif policy == "theory":
        if kind == "gaussian":
            raw = math.ceil(constant * epsilon**-2 * (n - math.log(delta)))
        elif kind == "srht":
            raw = math.ceil(
                constant
                * epsilon**-2
                * (n + math.log(m / delta))
                * math.log(n / delta)
            )
        else:
            raise ValueError(f"no theory sizing for kind {kind!r}")
    else:
        raise ValueError(f"unknown sizing policy {policy!r}")
    return int(min(m, max(n + 1, raw)))
