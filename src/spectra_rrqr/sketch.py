"""Random sketching operators: rescaled Gaussian and SRHT.

An operator maps length-m vectors to length-d vectors (d <= m) while
approximately preserving inner products on low-dimensional subspaces.  Both
kinds are fully determined by ``(kind, d, m, seed)``: the SRHT re-derives
its sign flips and row samples from the seed, and the Gaussian entries are
generated counter-based from (seed, entry index) so the operator never
needs dense storage and blocked application reproduces the same matrix.

The SRHT is applied as two matrix products through the Kronecker structure
``H_m = H_p (x) H_q`` of the Sylvester Hadamard matrix, computing only the
sampled rows; :func:`fwht` is the same transform as a butterfly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dense_core import as_matrix, singular_values

_KINDS = ("gaussian", "srht", "identity")


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
    product per sampled row block.  Row blocks past the last nonzero one
    (the zero padding of :func:`pad_rows_pow2`) add nothing to the first
    product, so it contracts only the leading blocks.
    """
    n = a.shape[1]
    # stage 1 costs 2 n m p flops and stage 2 only 2 n d q (d <= m), so the
    # larger factor of the split goes to stage 2: q = p or q = 2p
    q = 1 << (op.m.bit_length() // 2)
    p = op.m // q
    live = p
    while live and not a[(live - 1) * q : live * q].any():
        live -= 1
    rows = live * q
    x = (a[:rows].T * op.signs[:rows]).reshape(n, live, q)
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
    the Hadamard transform, as two matrix products (see :func:`_srht_rows`);
    the Gaussian path streams blocks of counter-generated entries.
    """
    a = as_matrix(m)
    if a.shape[0] != op.m:
        raise ValueError(f"matrix has {a.shape[0]} rows, operator expects {op.m}")
    if op.kind == "identity":
        return a.copy()
    if op.kind == "srht":
        return _srht_rows(op, a)
    out = np.zeros((op.d, a.shape[1]))
    block = max(1, 4_000_000 // op.d)
    for j0 in range(0, op.m, block):
        j1 = min(op.m, j0 + block)
        out += _gaussian_block(op.seed, op.d, j0, j1) @ a[j0:j1, :]
    return out / math.sqrt(op.d)


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
