"""Deterministic strong rank-revealing QR with column interchanges.

The factorization greedily grows the leading block one pivot at a time (the
max-norm trailing column moves to the front, QRCP style) and, after each
growth step, interchanges a leading column with a trailing one whenever the
swap would grow ``|det(R11)|`` by more than the threshold ``f``.  At
termination no single swap can improve the leading volume by more than
``f``, which is the certificate behind the singular-value bounds checked in
the test suite.

Three quantities are maintained across steps: the row norms of ``inv(R11)``
(``omega``), the trailing column norms of ``R22`` (``gamma``), and the
coupling block ``inv(R11) @ R12`` (``a``).  By default they are updated
incrementally (rank-one updates on growth, permutation plus closed-form
updates on interchanges, with exact recomputation whenever a downdate loses
more than half its magnitude); ``update_mode="recompute"`` rebuilds them
from scratch after every structural change and is cross-validated against
the incremental path in the tests.

Growth defers the Householder updates of the trailing block over a panel of
up to ``_PANEL`` steps, as LAPACK's xLAQPS does (Quintana-Orti, Sun &
Bischof, SISC 1998).  Each step brings only the pivot column and the pivot
row up to date and records its reflector ``v`` with ``F = tau A^T v``; one
GEMM applies the whole panel when it is full and before anything that reads
the trailing block as a whole (interchanges, ``copy``, recomputation, and
the end of :func:`srrqr` and :func:`srrqr_state`).  Pivots, interchanges
and the stopping test are still decided after every step, from the same
quantities; only the order of floating-point operations changes, so a
decision can move only where rounding already settles it (exact ties).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.linalg.blas

from .dense_core import (
    PartialQR,
    PermutationSeq,
    SingularMatrixError,
    _apply_reflector_left,
    _reflector,
    as_matrix,
    column_norms,
    inverse_row_norms,
)

_UNDERFLOW_FLOOR = 1e-300
# growth steps whose trailing-block updates are deferred and applied together
_PANEL = 32


@dataclass(frozen=True)
class TargetRank:
    """Stop after exactly k pivots have been selected."""

    k: int


@dataclass(frozen=True)
class Tolerance:
    """Stop once every trailing column norm drops below tau."""

    tau: float


@dataclass(frozen=True)
class SrrqrConfig:
    f: float
    mode: TargetRank | Tolerance

    def __post_init__(self):
        if not self.f > 1.0:
            raise ValueError(f"interchange threshold f must exceed 1, got {self.f}")
        if isinstance(self.mode, TargetRank):
            if self.mode.k < 1:
                raise ValueError(f"target rank must be >= 1, got {self.mode.k}")
        elif isinstance(self.mode, Tolerance):
            if not self.mode.tau > 0.0:
                raise ValueError(f"tolerance must be positive, got {self.mode.tau}")
        else:
            raise TypeError("mode must be TargetRank or Tolerance")


def _swap_columns(x: np.ndarray, i: int, j: int) -> None:
    """Swap columns i and j of ``x`` in place through a one-column buffer."""
    t = x[:, i].copy()
    x[:, i] = x[:, j]
    x[:, j] = t


@dataclass
class SrrqrState:
    """Working state of the pivoted factorization.

    ``r`` is the m-by-n factor with its leading ``k`` columns triangularized
    (nonnegative diagonal); ``q`` accumulates the orthogonal transforms when
    requested.  ``omega``, ``gamma`` and ``a`` are the maintained quantities
    described in the module docstring; they are always current.

    Growth steps may leave up to ``_PANEL`` Householder updates pending:
    reflectors ``V`` (one column each) and ``F = tau A^T v`` (one column per
    reflector, one row per column of ``r``).  While updates are pending,
    rows ``>= k`` of the trailing columns of ``r`` are stale, and their true
    value is ``r[k:, k:] - V[k:] F[k:].T``; the rows above ``k`` (the pivot
    rows, ``R11`` and ``R12``) and the leading columns are final.  Trailing
    column swaps swap the matching rows of ``F``.  :meth:`_flush` applies
    the pending updates; it runs when the panel is full and before
    interchanges, :meth:`copy` and :meth:`recomputed`, so every state
    returned to a caller has a fully updated ``r``.
    """

    r: np.ndarray
    perm: PermutationSeq
    k: int
    omega: np.ndarray
    gamma: np.ndarray
    a: np.ndarray
    swap_count: int = 0
    update_mode: str = "incremental"
    q: np.ndarray | None = None
    # pending panel: reflectors (V) and F = tau * A^T v columns, see above
    _v: np.ndarray = field(init=False, repr=False)
    _f: np.ndarray = field(init=False, repr=False)
    _pending: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        rows, cols = self.r.shape
        self._v = np.empty((rows, _PANEL), order="F")
        self._f = np.empty((cols, _PANEL), order="F")

    @property
    def shape(self) -> tuple[int, int]:
        return self.r.shape

    def copy(self) -> "SrrqrState":
        self._flush()
        return SrrqrState(
            r=self.r.copy(),
            perm=self.perm.copy(),
            k=self.k,
            omega=self.omega.copy(),
            gamma=self.gamma.copy(),
            a=self.a.copy(),
            swap_count=self.swap_count,
            update_mode=self.update_mode,
            q=None if self.q is None else self.q.copy(),
        )

    # -- consistency -----------------------------------------------------

    def recomputed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fresh (omega, gamma, a) from the current factor."""
        self._flush()
        k, n = self.k, self.r.shape[1]
        r11 = self.r[:k, :k]
        omega = inverse_row_norms(r11) if k else np.zeros(0)
        gamma = (
            np.linalg.norm(self.r[k:, k:], axis=0) if n > k else np.zeros(0)
        )
        if k and n > k:
            a = scipy.linalg.solve_triangular(r11, self.r[:k, k:])
        else:
            a = np.zeros((k, n - k))
        return omega, gamma, a

    def consistency_errors(self) -> dict[str, float]:
        """Relative gaps between maintained quantities and recomputation."""
        omega, gamma, a = self.recomputed()

        def rel(x, y):
            scale = max(float(np.max(np.abs(y), initial=0.0)), 1e-30)
            return float(np.max(np.abs(x - y), initial=0.0) / scale)

        return {
            "omega": rel(self.omega, omega),
            "gamma": rel(self.gamma, gamma),
            "a": rel(self.a, a),
        }

    def _recompute(self) -> None:
        self.omega, self.gamma, self.a = self.recomputed()

    # -- structural operations -------------------------------------------

    def _flip_row(self, t: int) -> None:
        if self.r[t, t] < 0.0:
            self.r[t, t:] *= -1.0
            if self.q is not None:
                self.q[:, t] *= -1.0

    def _swap_trailing(self, j: int) -> None:
        """Swap trailing columns 0 and j (positions k and k+j); no perm entry."""
        k = self.k
        if j == 0:
            return
        _swap_columns(self.r, k, k + j)
        _swap_columns(self._f[:, : self._pending].T, k, k + j)
        g = self.gamma
        g[0], g[j] = g[j], g[0]
        if self.a.size:
            _swap_columns(self.a, 0, j)

    def _advance(self) -> None:
        """Triangularize the column at position k and grow the leading block.

        The reflector's update of the trailing block is deferred: it joins
        the pending panel, and only the next pivot column, pivot row k and
        the ``F`` column are brought up to date (see the class docstring).
        """
        k = self.k
        r = self.r
        t = self._pending
        vp, fp = self._v[:, :t], self._f[:, :t]
        if t:
            r[k:, k] -= vp[k:] @ fp[k]
        u = self.a[:, 0].copy() if k else np.zeros(0)
        v, tau, beta = _reflector(r[k:, k])
        self._v[k:, t] = v
        # F column: tau * (true trailing block)^T v, from the stale block
        self._f[k + 1 :, t] = tau * (v @ r[k:, k + 1 :])
        if t:
            self._f[k + 1 :, t] -= fp[k + 1 :] @ (tau * (v @ vp[k:]))
        self._pending = t + 1
        if self.q is not None and tau != 0.0:
            self.q[:, k:] -= np.outer(tau * (self.q[:, k:] @ v), v)
        r[k, k] = beta
        r[k + 1 :, k] = 0.0
        r[k, k + 1 :] -= self._f[k + 1 :, : t + 1] @ self._v[k, : t + 1]
        self._flip_row(k)
        diag = r[k, k]
        if diag <= 0.0:
            raise SingularMatrixError(f"pivot column at step {k + 1} has zero norm")
        c2 = r[k, k + 1 :].copy()
        old_tail = self.gamma[1:]
        self.k = k + 1
        if self.update_mode != "incremental":
            self._recompute()
            return
        self.omega = np.concatenate(
            [np.sqrt(self.omega**2 + (u / diag) ** 2), [1.0 / diag]]
        )
        a_new = np.empty((k + 1, c2.size))
        a_new[k] = c2 / diag
        if k and c2.size:
            a_new[:k] = self.a[:, 1:]
            # a_new[:k].T is F-contiguous, so dger updates it in place
            scipy.linalg.blas.dger(-1.0 / diag, c2, u, a=a_new[:k].T, overwrite_a=1)
        self.a = a_new
        g2 = old_tail**2 - c2**2
        bad = g2 < 0.5 * old_tail**2
        if np.any(bad):
            cols = self.k + np.nonzero(bad)[0]
            p = self._pending
            fresh = r[self.k :, cols] - self._v[self.k :, :p] @ self._f[cols, :p].T
            g2[bad] = np.sum(fresh**2, axis=0)
        self.gamma = np.sqrt(np.maximum(g2, 0.0))
        if self._pending == _PANEL:
            self._flush()

    def _flush(self) -> None:
        """Apply the pending reflectors to the trailing block (one GEMM)."""
        p, k = self._pending, self.k
        if p:
            self.r[k:, k:] -= self._v[k:, :p] @ self._f[k:, :p].T
            self._pending = 0

    def _givens_rows(self, t: int, x: float, y: float, col_start: int) -> None:
        """Rotate rows t and t+1 so the pair (x, y) maps to (hypot, 0).

        Applied to columns col_start onward; columns to the left must be
        zero in both rows.
        """
        h = math.hypot(x, y)
        if h == 0.0:
            return
        c, s = x / h, y / h
        r = self.r
        top = c * r[t, col_start:] + s * r[t + 1, col_start:]
        bot = -s * r[t, col_start:] + c * r[t + 1, col_start:]
        r[t, col_start:] = top
        r[t + 1, col_start:] = bot
        if self.q is not None:
            qt = c * self.q[:, t] + s * self.q[:, t + 1]
            self.q[:, t + 1] = -s * self.q[:, t] + c * self.q[:, t + 1]
            self.q[:, t] = qt

    def _rotate_to_boundary(self, i: int) -> None:
        """Cyclically move leading column i to position k-1 and retriangularize.

        The Givens sweep leaves the maintained quantities exactly permuted.
        """
        k = self.k
        if i == k - 1:
            return
        r = self.r
        r[:, i:k] = np.roll(r[:, i:k], -1, axis=1)
        for t in range(i, k - 1):
            self._givens_rows(t, r[t, t], r[t + 1, t], t)
            r[t + 1, t] = 0.0
        self._flip_row(k - 1)
        if self.update_mode == "incremental":
            self.omega[i:k] = np.roll(self.omega[i:k], -1)
            self.a[i:k, :] = np.roll(self.a[i:k, :], -1, axis=0)

    def _rotate_from_boundary(self, i: int) -> None:
        """Inverse of :meth:`_rotate_to_boundary`: column k-1 moves back to i.

        The inserted column forms a spike in rows i..k-1, eliminated bottom
        up by Givens rotations that never touch the trailing block.
        """
        k = self.k
        if i == k - 1:
            return
        r = self.r
        r[:, i:k] = np.roll(r[:, i:k], 1, axis=1)
        for t in range(k - 2, i - 1, -1):
            self._givens_rows(t, r[t, i], r[t + 1, i], i)
            r[t + 1, i] = 0.0
        for t in range(i, k):
            self._flip_row(t)
        if self.update_mode == "incremental":
            self.omega[i:k] = np.roll(self.omega[i:k], 1)
            self.a[i:k, :] = np.roll(self.a[i:k, :], 1, axis=0)

    def _swap_boundary(self) -> None:
        """Interchange columns k-1 and k, then restore the triangular form."""
        k = self.k
        km1 = k - 1
        r = self.r
        beta = r[km1, km1]
        if beta <= 0.0:
            raise SingularMatrixError(f"zero diagonal at index {km1}")
        old_rowk = r[km1, k:].copy()
        nu = self.gamma[0]
        incremental = self.update_mode == "incremental"
        if incremental:
            a1 = self.a[:, 0].copy()
            if km1:
                w = scipy.linalg.solve_triangular(r[:km1, :km1], r[:km1, km1])
            else:
                w = np.zeros(0)
            w_bar = a1[:km1] + w * a1[km1]
        r[:, [km1, k]] = r[:, [k, km1]]
        v, tau, beta_bar = _reflector(r[km1:, km1])
        _apply_reflector_left(r[km1:, km1 + 1 :], v, tau)
        if self.q is not None and tau != 0.0:
            self.q[:, km1:] -= np.outer(tau * (self.q[:, km1:] @ v), v)
        r[km1, km1] = beta_bar
        r[k:, km1] = 0.0
        self._flip_row(km1)
        self.swap_count += 1
        if not incremental:
            return
        beta_bar = r[km1, km1]
        new_rowk = r[km1, k:]
        # row norms of the inverse: only the last column of R11 changed
        omega_new = self.omega.copy()
        omega_new[km1] = 1.0 / beta_bar
        if km1:
            o2 = self.omega[:km1] ** 2 - (w / beta) ** 2 + (w_bar / beta_bar) ** 2
            bad = o2 < 0.5 * self.omega[:km1] ** 2
            if np.any(bad):
                rows = np.nonzero(bad)[0]
                rhs = np.zeros((k, rows.size))
                rhs[rows, np.arange(rows.size)] = 1.0
                sol = scipy.linalg.solve_triangular(r[:k, :k].T, rhs, lower=True)
                o2[bad] = np.sum(sol**2, axis=0)
            omega_new[:km1] = np.sqrt(np.maximum(o2, 0.0))
        self.omega = omega_new
        # coupling block: rank-two update driven by the old and new row k-1
        a_new = np.empty_like(self.a)
        a_new[km1, :] = new_rowk / beta_bar
        if km1:
            a_new[:km1, 0] = w - w_bar * a_new[km1, 0]
            a_new[:km1, 1:] = (
                self.a[:km1, 1:]
                + np.outer(w, self.a[km1, 1:])
                - np.outer(w_bar, a_new[km1, 1:])
            )
        self.a = a_new
        # trailing norms: the reflector moved mass between row k-1 and R22
        gamma_new = self.gamma.copy()
        gamma_new[0] = beta * nu / beta_bar
        if gamma_new.size > 1:
            g2 = self.gamma[1:] ** 2 + old_rowk[1:] ** 2 - new_rowk[1:] ** 2
            bad = g2 < 0.5 * self.gamma[1:] ** 2
            if np.any(bad):
                cols = k + 1 + np.nonzero(bad)[0]
                g2[bad] = np.sum(r[k:, cols] ** 2, axis=0)
            gamma_new[1:] = np.sqrt(np.maximum(g2, 0.0))
        self.gamma = gamma_new

    def _interchange_core(self, i: int, j: int) -> None:
        """Exchange leading column i with trailing column j (one transposition).

        Internally the leading column rotates to the block boundary, the
        boundary pair is swapped and retriangularized, and the incoming
        column rotates back to position i, so the net column permutation is
        exactly the transposition (i, k+j).
        """
        k, n = self.k, self.r.shape[1]
        if not (0 <= i < k):
            raise IndexError(f"leading index i={i} out of range for k={k}")
        if not (0 <= j < n - k):
            raise IndexError(f"trailing index j={j} out of range for n-k={n - k}")
        self._flush()
        self._rotate_to_boundary(i)
        self._swap_trailing(j)
        self._swap_boundary()
        self._swap_trailing(j)
        self._rotate_from_boundary(i)
        self.perm.swap(i, k + j)
        if self.update_mode != "incremental":
            self._recompute()


def srrqr_state(m, k: int, *, update_mode: str = "incremental") -> SrrqrState:
    """State of the unpivoted k-step factorization of ``m`` (identity permutation)."""
    a = as_matrix(m)
    rows, cols = a.shape
    if not (1 <= k <= min(rows, cols)):
        raise ValueError(f"k={k} out of range for a {rows}x{cols} matrix")
    if update_mode not in ("incremental", "recompute"):
        raise ValueError(f"unknown update_mode {update_mode!r}")
    state = SrrqrState(
        r=a.copy(),
        perm=PermutationSeq.identity(cols),
        k=0,
        omega=np.zeros(0),
        gamma=column_norms(a),
        a=np.zeros((0, cols)),
        update_mode=update_mode,
        q=np.eye(rows),
    )
    for _ in range(k):
        state._advance()
    state._flush()
    state.swap_count = 0
    return state


def det_ratio_matrix(state: SrrqrState) -> np.ndarray:
    """All volume-growth factors ``|det(R11 after swap i,j)| / |det(R11)|``.

    Entry (i, j) equals ``sqrt(a[i, j]^2 + omega[i]^2 gamma[j]^2)``.
    """
    if state.omega.size == 0 or state.gamma.size == 0:
        return np.zeros((state.omega.size, state.gamma.size))
    return np.hypot(state.a, np.outer(state.omega, state.gamma))


def det_ratio(state: SrrqrState, i: int, j: int) -> float:
    """Volume-growth factor of the single interchange (i, j); 0-based indices."""
    k, n = state.k, state.r.shape[1]
    if not (0 <= i < k):
        raise IndexError(f"leading index i={i} out of range for k={k}")
    if not (0 <= j < n - k):
        raise IndexError(f"trailing index j={j} out of range for n-k={n - k}")
    return float(math.hypot(state.a[i, j], state.omega[i] * state.gamma[j]))


def rho(state: SrrqrState) -> float:
    """Largest achievable single-swap volume growth (0 when no trailing block)."""
    dr = det_ratio_matrix(state)
    return float(dr.max()) if dr.size else 0.0


def rho_hat(state: SrrqrState) -> float:
    """max(max |a|, max omega_i gamma_j); bounds :func:`rho` within sqrt(2)."""
    if state.omega.size == 0 or state.gamma.size == 0:
        return 0.0
    a = state.a
    # max(a.max(), -a.min()) is max |a| exactly, without an |a| temporary
    return float(max(a.max(), -a.min(), np.max(state.omega) * np.max(state.gamma)))


def interchange(state: SrrqrState, i: int, j: int) -> SrrqrState:
    """Swap leading column i with trailing column j; returns a new state."""
    out = state.copy()
    out._interchange_core(i, j)
    return out


def swap_budget(k: int, n: int, f: float) -> float:
    """Monitored bound on the number of interchanges: k * log_f(sqrt(n))."""
    return k * math.log(math.sqrt(max(n, 2))) / math.log(f)


@dataclass
class SrrqrResult:
    factorization: PartialQR
    k: int
    rho: float
    swap_count: int
    f: float
    state: SrrqrState = field(repr=False)


def srrqr(
    m,
    config: SrrqrConfig,
    *,
    want_q: bool = True,
    update_mode: str = "incremental",
    on_swap=None,
) -> SrrqrResult:
    """Strong rank-revealing QR factorization (rank or tolerance driven).

    Each outer step pivots the max-norm trailing column to the front; the
    inner loop then performs interchanges as long as some pair grows
    ``|det(R11)|`` by more than ``f``, so every swap multiplies the leading
    volume by at least ``f`` and at termination no swap can beat ``f``.
    A cheap early exit fires when ``rho_hat <= f/sqrt(2)``, which already
    certifies ``rho <= f``.

    ``on_swap(k, i, j, ratio)`` is invoked after every interchange; handy
    for monitoring the volume growth.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    mr = min(rows, cols)
    if not isinstance(config, SrrqrConfig):
        raise TypeError("config must be an SrrqrConfig")
    f = config.f
    rank_mode = isinstance(config.mode, TargetRank)
    if rank_mode and config.mode.k > mr:
        raise ValueError(
            f"target rank {config.mode.k} exceeds min(rows, cols) = {mr}"
        )
    if update_mode not in ("incremental", "recompute"):
        raise ValueError(f"unknown update_mode {update_mode!r}")

    state = SrrqrState(
        r=a.copy(),
        perm=PermutationSeq.identity(cols),
        k=0,
        omega=np.zeros(0),
        gamma=column_norms(a),
        a=np.zeros((0, cols)),
        update_mode=update_mode,
        q=np.eye(rows) if want_q else None,
    )
    f_swap = f * (1.0 + 1e-12)
    early_exit = f / math.sqrt(2.0)

    while True:
        if rank_mode:
            if state.k >= config.mode.k:
                break
        elif state.k >= mr:
            break
        jmax = int(np.argmax(state.gamma))
        if rank_mode:
            if state.gamma[jmax] < _UNDERFLOW_FLOOR:
                raise SingularMatrixError(
                    f"trailing column norms underflowed at step {state.k + 1}; "
                    f"target rank {config.mode.k} exceeds the numerical rank"
                )
        elif state.gamma[jmax] < config.mode.tau:
            break
        if jmax > 0:
            state._swap_trailing(jmax)
            state.perm.swap(state.k, state.k + jmax)
        state._advance()
        while state.gamma.size:
            if rho_hat(state) <= early_exit:
                break
            hits = np.argwhere(det_ratio_matrix(state) > f_swap)
            if hits.size == 0:
                break
            if state.swap_count >= 20 * swap_budget(max(state.k, 1), cols, f):
                raise RuntimeError(
                    f"interchange budget exhausted at k={state.k} after "
                    f"{state.swap_count} swaps; threshold f={f} appears to "
                    "livelock in floating point"
                )
            i, j = int(hits[0, 0]), int(hits[0, 1])
            ratio = det_ratio(state, i, j)
            state._interchange_core(i, j)
            if on_swap is not None:
                on_swap(state.k, i, j, ratio)

    state._flush()
    k = state.k
    fact = PartialQR(
        q=state.q,
        r11=state.r[:k, :k].copy(),
        r12=state.r[:k, k:].copy(),
        r22=state.r[k:, k:].copy(),
        perm=state.perm.copy(),
        k=k,
    )
    return SrrqrResult(
        factorization=fact,
        k=k,
        rho=rho(state),
        swap_count=state.swap_count,
        f=f,
        state=state,
    )


def qrcp(m, k: int, *, want_q: bool = True) -> PartialQR:
    """Classical column-pivoted QR truncated after k steps.

    Greedy max-norm pivoting with downdated trailing norms (recomputed
    exactly whenever a downdate loses more than half its magnitude); the
    R diagonal comes out nonnegative and nonincreasing.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    if not (1 <= k <= min(rows, cols)):
        raise ValueError(f"k={k} out of range for a {rows}x{cols} matrix")
    r = a.copy()
    perm = PermutationSeq.identity(cols)
    gamma = column_norms(a)
    q = np.eye(rows) if want_q else None
    for t in range(k):
        jmax = t + int(np.argmax(gamma[t:]))
        if jmax != t:
            r[:, [t, jmax]] = r[:, [jmax, t]]
            gamma[[t, jmax]] = gamma[[jmax, t]]
            perm.swap(t, jmax)
        v, tau, beta = _reflector(r[t:, t])
        _apply_reflector_left(r[t:, t + 1 :], v, tau)
        if q is not None and tau != 0.0:
            q[:, t:] -= np.outer(tau * (q[:, t:] @ v), v)
        r[t, t] = beta
        r[t + 1 :, t] = 0.0
        if r[t, t] < 0.0:
            r[t, t:] *= -1.0
            if q is not None:
                q[:, t] *= -1.0
        c2 = r[t, t + 1 :]
        g2 = gamma[t + 1 :] ** 2 - c2**2
        bad = g2 < 0.5 * gamma[t + 1 :] ** 2
        if np.any(bad):
            cols_bad = t + 1 + np.nonzero(bad)[0]
            g2[bad] = np.sum(r[t + 1 :, cols_bad] ** 2, axis=0)
        gamma[t + 1 :] = np.sqrt(np.maximum(g2, 0.0))
    return PartialQR(
        q=q,
        r11=r[:k, :k].copy(),
        r12=r[:k, k:].copy(),
        r22=r[k:, k:].copy(),
        perm=perm,
        k=k,
    )
