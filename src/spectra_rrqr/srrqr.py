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
coupling block ``inv(R11) @ R12`` (``a``).  They are updated incrementally
(rank-one updates on growth, permutation plus closed-form updates on
interchanges), with exact recomputation whenever a downdate loses more than
half its magnitude; a trailing norm is also recomputed once its downdated
square falls below ``sqrt(eps)`` times its square at the last exact
computation, the rule of LAPACK's xLAQP2 (Drmač & Bujanović, ACM TOMS
2008), so a norm that shrinks a little at every step cannot freeze at its
roundoff floor.  The tests check them against a state that rebuilds all
three from scratch after every structural change.

Each growth step builds its reflector with LAPACK's ``dlarfg`` and applies
it to the trailing block at once, with one matrix-vector product and one
rank-one update, so the state is fully updated after every step.  A tall
state (more rows than columns) is kept column-major, the layout of the
validated input, so the update and the recomputed trailing norms run down
whole contiguous columns; any other state is row-major.  Once it
has applied n/8 reflectors to a sketch R or other input with no more rows
than columns without an interchange, at f >= sqrt(2), one ``dgeqp3`` of
the trailing block grows the swap-free steps after (:func:`_qrcp_prefix`).

Omega, gamma and ``a`` do not change under an orthogonal transform of rows
``>= k``.  So a tall state is compressed once, at its first exact screen
(the first step whose early exit fails) or, if it has none, before
:func:`_drive` returns: rows ``k:`` of the trailing block are replaced by
the block's (n-k)-by-(n-k) R factor, reduced in place.  Every later step
works on a row-major R of n rows instead of m, and every state that
:func:`_drive` returns has no more rows than columns.

An interchange rotates the outgoing leading column to the block boundary,
one Givens update (``qr_delete``) of its rows onward, so omega and ``a``
only permute; it then swaps that column with the trailing one in place and
retriangularizes with one ``dlarfg`` reflector.  No Householder code is
written in Python.  The incoming column stays at the boundary, so the
leading columns leave their logical order: the state records where each
sits, the screen reads its rows in logical order and so picks the same
first hit, and before :func:`_drive` returns one signed QR of the leading
rows puts the columns back, omega and ``a`` gathered by the same
permutation.  An interchange works on whole rows of a row-major R, so it
compresses a tall state first.  The state owns copies of the arrays it is
built from, and an interchange updates ``a`` in place.  The screen squares
ratios; :func:`swap_ratios` uses hypot.

The state holds R only; when Q is asked for, :func:`srrqr` forms it once,
after the last decision, from one LAPACK QR of ``M P`` (``dgeqrt``, then
``dgemqrt`` on the leading min(m, n) identity columns, the thin Q).
:func:`qrcp` is LAPACK's ``dgeqp3``, with ``dorgqr`` for its thin Q.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.linalg.blas
from scipy.linalg.lapack import dgeqp3, dlarfg, dormqr, dorgqr, dtrtrs

from .dense_core import (
    PartialQR,
    PermutationSeq,
    SingularMatrixError,
    _check_rank,
    _r_factor,
    _signed_r,
    _stable_partial_qr,
    as_matrix,
    inverse_row_norms,
)

_UNDERFLOW_FLOOR = 1e-300
_F_SLACK = 1.0 + 1e-12  # a swap must grow the volume by more than f times this
# below this f the screen's early exit f/sqrt(2) is under 1, and interchanges
# came too early for the QRCP prefix to pay; it waits for this many reflectors
_PREFIX_MIN_F, _PREFIX_AFTER = math.sqrt(2.0), 32
# a squared norm downdated below this fraction of its last exact value is
# recomputed (LAPACK xLAQP2's tol3z); strictly below, so a zero one is not
_DOWNDATE_TOL = math.sqrt(np.finfo(np.float64).eps)


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
            if isinstance(self.mode.k, bool) or not isinstance(self.mode.k, (int, np.integer)):
                raise ValueError(f"target rank {self.mode.k!r} is not an integer")
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


def _roll_one(x: np.ndarray) -> None:
    """``x[:] = np.roll(x, -1, axis=0)`` in place."""
    x[:-1], x[-1:] = x[1:], x[:1].copy()


def recompute(r: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fresh (omega, gamma, a) of an R factor whose leading k columns are
    upper-triangular; none of the three depends on the signs of its rows."""
    n = r.shape[1]
    r11 = r[:k, :k]
    omega = inverse_row_norms(r11) if k else np.zeros(0)
    gamma = np.linalg.norm(r[k:, k:], axis=0)
    if k and n > k:
        a = scipy.linalg.solve_triangular(r11, r[:k, k:])
    else:
        a = np.zeros((k, n - k))
    return omega, gamma, a


@dataclass
class SrrqrState:
    """Working state of the pivoted factorization.

    ``r`` is the m-by-n factor with its leading ``k`` columns triangularized
    (nonnegative diagonal); the orthogonal transforms are not kept.  A
    tall ``r`` is column-major and any other row-major, whatever the
    layout of the array it is built from.  :meth:`_compress` turns a tall
    ``r`` into a row-major one of n rows, its trailing block n-k; a tall
    state is compressed at its first exact screen in :func:`_drive`, or
    before it returns, and by any interchange.
    ``omega``, ``gamma`` and ``a`` are the maintained quantities described
    in the module docstring.  All four are current after every step, so
    reading a state never writes to it.  Interchanges retriangularize R11
    with a Givens update of the outgoing column's rows onward
    (:meth:`_cycle`) and leave the incoming column at position k-1;
    ``_lead`` then maps internal leading positions to logical ones, and
    rows of omega and ``a`` follow the internal order.  :meth:`_settle`
    restores the order, which every state that :func:`srrqr`,
    :func:`_drive` or :func:`interchange` returns is in; the readers
    (:func:`det_ratio`, :func:`det_ratio_matrix`) take logical indices.
    """

    r: np.ndarray
    perm: PermutationSeq
    k: int
    omega: np.ndarray
    gamma: np.ndarray
    a: np.ndarray
    swap_count: int = 0
    # _DOWNDATE_TOL times gamma**2 at its last exact computation (LAPACK
    # xLAQP2 keeps that norm as vn2); a downdated square below it is redone
    _gamma2_floor: np.ndarray = field(init=False, repr=False)
    # the logical position of the leading column at each internal position,
    # n entries, those from k on their own; None: in order
    _lead: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # own copies, row-major: ``dger`` updates blocks of whole rows in
        # place; a tall ``r`` column-major, so growth updates whole columns
        for name in ("omega", "gamma", "a"):
            setattr(self, name, np.array(getattr(self, name), dtype=np.float64, order="C"))
        rows, cols = np.shape(self.r)
        self.r = np.array(self.r, dtype=np.float64, order="F" if rows > cols else "C")
        self.perm = self.perm.copy()
        self._gamma2_floor = _DOWNDATE_TOL * self.gamma**2

    @property
    def shape(self) -> tuple[int, int]:
        return self.r.shape

    def copy(self) -> "SrrqrState":
        # __post_init__ copies the init fields; the floor and index are not
        out = replace(self)
        out._gamma2_floor = self._gamma2_floor.copy()
        if self._lead is not None:
            out._lead = self._lead.copy()
        return out

    def _check_pair(self, i: int, j: int) -> None:
        """Reject a leading index i or a trailing index j out of range."""
        k, n = self.k, self.r.shape[1]
        if not (0 <= i < k):
            raise IndexError(f"leading index i={i} out of range for k={k}")
        if not (0 <= j < n - k):
            raise IndexError(f"trailing index j={j} out of range for n-k={n - k}")

    def _position(self, i: int) -> int:
        """Internal position of logical leading column i."""
        return i if self._lead is None else int((self._lead[: self.k] == i).argmax())

    # -- consistency -----------------------------------------------------

    def recomputed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fresh (omega, gamma, a) from the current factor."""
        return recompute(self.r, self.k)

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

    # -- structural operations -------------------------------------------

    def _compress(self) -> None:
        """Replace the trailing rows of a tall ``r`` by their n-row R factor.

        ``omega``, ``gamma`` and ``a`` do not change under an orthogonal
        transform of rows ``>= k``, so rows ``k:`` of the trailing columns
        can be swapped for the (n-k)-by-(n-k) R factor of that block: one
        blocked ``dgeqrt``, in place on the column-major ``r``, and none at
        k = n.  ``r`` is then the row-major n-by-n state that interchanges
        work on.  A no-op when ``r`` has no more rows than columns.
        """
        rows, cols = self.r.shape
        if rows <= cols:
            return
        k = self.k
        r = np.zeros((cols, cols))
        r[:k] = self.r[:k]
        if k < cols:
            r[k:, k:] = _r_factor(self.r[k:, k:], overwrite=True)
        self.r = r

    def _flip_row(self, t: int) -> None:
        if self.r[t, t] < 0.0:
            self.r[t, t:] *= -1.0

    def _swap_trailing(self, j: int) -> None:
        """Swap trailing columns 0 and j (positions k and k+j); no perm entry."""
        k = self.k
        if j == 0:
            return
        _swap_columns(self.r, k, k + j)
        for g in (self.gamma, self._gamma2_floor):
            g[0], g[j] = g[j], g[0]
        if self.a.size:
            _swap_columns(self.a, 0, j)

    def _advance(self) -> bool:
        """Triangularize the column at position k and grow the leading block.

        The ``dlarfg`` reflector is applied to the trailing block at once:
        one GEMV ``w = v^T R[k:, k+1:]``, then one in-place ``dger``.  On a
        row-major ``r`` it updates whole rows k onward, as in
        :meth:`_swap_boundary`, with ``w`` zero on the leading k+1 columns;
        on a column-major (tall) one, whole columns k+1 onward, with ``v``
        zero above row k.  An identity reflector (``tau == 0``) is skipped:
        False.
        """
        k = self.k
        r = self.r
        rows, n = r.shape
        by_rows = r.flags.c_contiguous
        u = self.a[:, 0].copy()
        beta, v_tail, tau = dlarfg(rows - k, r[k, k], r[k + 1 :, k])
        if tau:
            v = np.zeros(rows)
            v[k], v[k + 1 :] = 1.0, v_tail
            w = np.zeros(n)
            np.matmul(v[k:], r[k:, k + 1 :], out=w[k + 1 :])
            # in place: whole rows through their transpose, or whole
            # columns, are F-contiguous
            if by_rows:
                scipy.linalg.blas.dger(-tau, w, v[k:], a=r[k:].T, overwrite_a=1)
            elif k + 1 < n:
                scipy.linalg.blas.dger(-tau, v, w[k + 1 :], a=r[:, k + 1 :], overwrite_a=1)
        r[k, k] = beta
        r[k + 1 :, k] = 0.0
        if beta < 0.0:
            r[k, k:] *= -1.0
        diag = r[k, k]
        if diag <= 0.0:
            raise SingularMatrixError(f"pivot column at step {k + 1} has zero norm")
        c2 = r[k, k + 1 :]  # a view: nothing below writes to row k
        self.k = k + 1
        # omega = [sqrt(omega**2 + (u / diag)**2), 1 / diag]
        t = u / diag
        omega = np.empty(k + 1)
        np.sqrt(np.add(np.square(self.omega, out=omega[:k]), t * t, out=t), out=omega[:k])
        omega[k] = 1.0 / diag
        self.omega = omega
        a_new = np.empty((k + 1, n - k - 1))
        np.divide(c2, diag, out=a_new[k])
        if k and c2.size:
            a_new[:k] = self.a[:, 1:]
            # a_new[:k].T is F-contiguous, so dger updates it in place
            scipy.linalg.blas.dger(-1.0 / diag, c2, u, a=a_new[:k].T, overwrite_a=1)
        self.a = a_new
        old2 = np.square(self.gamma[1:])
        g2 = old2 - np.square(c2)
        floor = self._gamma2_floor = self._gamma2_floor[1:]
        old2 *= 0.5
        bad = g2 < np.maximum(old2, floor, out=old2)
        if bad.any():
            cols = self.k + bad.nonzero()[0]
            # the column sums below run row by row on a row-major r and
            # pairwise down each column of a column-major one (bits rely on it)
            fresh = r[self.k :].take(cols, axis=1) if by_rows else r[self.k :, cols]
            fresh *= fresh
            g2[bad] = fresh.sum(axis=0)
            floor[bad] = _DOWNDATE_TOL * g2[bad]
        self.gamma = np.sqrt(np.maximum(g2, 0.0, out=g2), out=g2)
        return bool(tau)

    def _cycle(self, i: int) -> None:
        """Move leading column i to position k-1 and retriangularize.

        Columns i+1..k-1 shift left by one, and one Givens update of rows
        i..k-1 with Q = I (``qr_delete`` of column i) restores the triangle.
        A row rotation of R11 and R12 leaves omega and ``a`` exactly
        permuted with the columns.
        """
        k, r, w = self.k, self.r, self.k - i
        q, blk = scipy.linalg.qr_delete(
            np.eye(w), np.array(r[i:k, i:], order="F"), 0,
            which="col", overwrite_qr=True, check_finite=False,
        )
        # the deleted column is r_ii e_1, which Q^T maps to r_ii Q[0]
        r[i:k, k - 1] = r[i, i] * q[0]
        r[i:k, i : k - 1] = blk[:, : w - 1]
        r[i:k, k:] = blk[:, w - 1 :]
        # rows >= k of the leading columns are zero, so they need no permuting;
        # the update writes exact zeros below the diagonal, so no triu either
        for x in (r[:i, i:k].T, self.omega[i:k], self.a[i:k]):
            _roll_one(x)
        neg = r.diagonal()[i:k] < 0.0
        if neg.any():
            r[i + neg.nonzero()[0], i:] *= -1.0

    def _swap_boundary(self, j: int) -> None:
        """Interchange column k-1 with trailing column j (position k+j) in
        place, then restore the triangular form; ``r`` is row-major."""
        k = self.k
        km1 = k - 1
        r = self.r
        beta = r[km1, km1]
        if beta <= 0.0:
            raise SingularMatrixError(f"zero diagonal at index {km1}")
        old_rowk = r[km1, k:].copy()
        nu = self.gamma[j]
        a1 = self.a[:, j].copy()
        if km1:
            # solve_triangular's own LAPACK call, without its wrapper
            w, info = dtrtrs(r[:km1, :km1].T, r[:km1, km1], lower=1, trans=1)
            if info:
                raise SingularMatrixError(f"zero diagonal at index {info - 1}")
        else:
            w = np.zeros(0)
        w_bar = a1[:km1] + w * a1[km1]
        _swap_columns(r, km1, k + j)
        beta_bar, v_tail, tau = dlarfg(r.shape[0] - km1, r[km1, km1], r[k:, km1])
        if tau:
            v = np.empty(v_tail.size + 1)
            v[0], v[1:] = 1.0, v_tail
            # rows k-1 onward, in place (their transpose is F-contiguous);
            # the columns left of k-1 are zero there and stay zero
            tail = r[km1:]
            scipy.linalg.blas.dger(-tau, v @ tail, v, a=tail.T, overwrite_a=1)
        r[km1, km1] = beta_bar
        r[k:, km1] = 0.0
        self._flip_row(km1)
        self.swap_count += 1
        beta_bar = r[km1, km1]
        new_rowk = r[km1, k:]
        # row norms of the inverse: only the last column of R11 changed
        omega_new = np.empty(k)
        omega_new[km1] = 1.0 / beta_bar
        if km1:
            old2 = np.square(self.omega[:km1])
            o2 = old2 - (w / beta) ** 2 + (w_bar / beta_bar) ** 2
            old2 *= 0.5
            bad = o2 < old2
            if bad.any():
                rows = bad.nonzero()[0]
                rhs = np.zeros((k, rows.size))
                rhs[rows, np.arange(rows.size)] = 1.0
                # R^T sol = rhs by the LAPACK call solve_triangular makes for it
                sol, info = dtrtrs(r[:k, :k], rhs, lower=0, trans=1)
                if info:
                    raise SingularMatrixError(f"zero diagonal at index {info - 1}")
                sol *= sol
                o2[bad] = sol.sum(axis=0)
            np.sqrt(np.maximum(o2, 0.0, out=o2), out=omega_new[:km1])
        self.omega = omega_new
        # coupling block: rank-two update driven by the old and new row k-1,
        # in place on a row-major ``a`` (copied into one if assigned otherwise)
        a = self.a = np.ascontiguousarray(self.a)
        old_row = a[km1].copy()
        a[km1] = new_rowk / beta_bar
        if km1:
            # a[:km1].T is F-contiguous, so dger updates it in place;
            # column j is then set from its own closed form
            lead = a[:km1]
            scipy.linalg.blas.dger(1.0, old_row, w, a=lead.T, overwrite_a=1)
            scipy.linalg.blas.dger(-1.0, a[km1], w_bar, a=lead.T, overwrite_a=1)
            lead[:, j] = w - w_bar * a[km1, j]
        # trailing norms: the reflector moved mass between row k-1 and R22;
        # the outgoing column j has a closed form
        old2 = np.square(self.gamma)
        g2 = old2 + old_rowk**2 - new_rowk**2
        floor = self._gamma2_floor
        old2 *= 0.5
        bad = g2 < np.maximum(old2, floor, out=old2)
        bad[j] = False
        if bad.any():
            cols = k + bad.nonzero()[0]
            # column-major, unlike np.take's: each column sums pairwise (bits rely on it)
            fresh = r[k:, cols]
            fresh *= fresh
            g2[bad] = fresh.sum(axis=0)
            floor[bad] = _DOWNDATE_TOL * g2[bad]
        gamma_new = np.sqrt(np.maximum(g2, 0.0, out=g2), out=g2)
        gamma_new[j] = beta * nu / beta_bar
        floor[j] = _DOWNDATE_TOL * gamma_new[j] ** 2
        self.gamma = gamma_new

    def _interchange_core(self, i: int, j: int) -> None:
        """Exchange logical leading column i with trailing column j (one
        transposition of ``perm``).

        The outgoing column rotates from its internal position p to the
        block boundary (:meth:`_cycle`, one Givens update of rows p..k-1),
        and the boundary swap exchanges it with trailing column j in place.
        The incoming column stays at position k-1, which ``_lead`` records
        as logical position i; :meth:`_settle` restores the order.  A tall
        state is compressed first, which :func:`_drive` has already done.
        """
        self._check_pair(i, j)
        self._compress()
        k = self.k
        if self._lead is None:
            self._lead = np.arange(self.r.shape[1])
        p = self._position(i)
        self._cycle(p)
        _roll_one(self._lead[p:k])
        self._swap_boundary(j)
        self.perm.swap(i, k + j)

    def _settle(self) -> None:
        """Put the leading columns back in logical order.

        R11's columns are permuted and rows :k retriangularized by one
        signed QR; R11 becomes Q^T R11 P, whose inverse is P^T inv(R11) Q,
        so omega and ``a`` gather their rows by P exactly, and gamma and
        the trailing rows do not change.  A no-op on a state in order.
        """
        lead, self._lead = self._lead, None
        k = self.k
        if lead is None or np.array_equal(lead[:k], np.arange(k)):
            return
        order = np.argsort(lead[:k])  # internal position of each logical one
        r = self.r
        r[:k, :k] = r[:k, order]
        r[:k] = _r_factor(r[:k])
        self.omega = self.omega[order]
        self.a = self.a[order]


def _fresh_state(a: np.ndarray) -> SrrqrState:
    """State of the validated ``a`` before its first pivot (k = 0, identity
    permutation); the state's copy of ``a`` is the only one."""
    return SrrqrState(
        r=a,
        perm=PermutationSeq.identity(a.shape[1]),
        k=0,
        omega=np.zeros(0),
        gamma=np.linalg.norm(a, axis=0),
        a=np.zeros((0, a.shape[1])),
    )


def srrqr_state(m, k: int) -> SrrqrState:
    """State of the unpivoted k-step factorization of ``m`` (identity permutation)."""
    a = as_matrix(m)
    _check_rank(k, *a.shape)
    state = _fresh_state(a)
    for _ in range(k):
        state._advance()
    return state


def swap_ratios(omega, gamma, a) -> np.ndarray:
    """All volume-growth factors ``|det(R11 after swap i,j)| / |det(R11)|``.

    Entry (i, j) equals ``sqrt(a[i, j]^2 + omega[i]^2 gamma[j]^2)`` (Gu &
    Eisenstat, SISC 1996), so ``swap_ratios(*recompute(r, k))`` needs one R.
    """
    if omega.size == 0 or gamma.size == 0:
        return np.zeros((omega.size, gamma.size))
    return np.hypot(a, np.outer(omega, gamma))


def det_ratio_matrix(state: SrrqrState) -> np.ndarray:
    """:func:`swap_ratios` of the maintained omega, gamma and ``a``, its
    rows in logical order."""
    ratios = swap_ratios(state.omega, state.gamma, state.a)
    return ratios if state._lead is None else ratios[np.argsort(state._lead[: state.k])]


def _first_swap(omega, gamma, a, f_swap: float, lead=None) -> tuple[int, int] | None:
    """First (i, j), row-major in logical order, whose :func:`swap_ratios`
    entry exceeds ``f_swap``; None if none.

    Row p of ``omega`` and ``a`` is logical row ``lead[p]`` (p itself when
    ``lead`` is None, as :attr:`SrrqrState._lead`).  Compares squares; only
    ratios above 1e154 overflow, and inf is a hit.  Raises ``ValueError``
    when a NaN ratio comes before the first hit.
    """
    with np.errstate(over="ignore"):
        # einsum's outer product: the same products, with less call overhead
        sq = np.einsum("i,j->ij", omega, gamma)
        sq *= sq
        sq += a * a
    # a NaN is not <= the bound, so the scan stops at it as at a hit
    ok = sq <= f_swap * f_swap
    first = int(ok.argmin())
    if ok.flat[first]:
        return None
    i, j = divmod(first, ok.shape[1])
    p = i  # the row of the arrays that holds logical row i
    if lead is not None:
        # a hit exists: scan again with the rows in logical order
        rows = np.argsort(lead[: omega.size])
        i, j = divmod(int(ok[rows].argmin()), ok.shape[1])
        p = rows[i]
    if math.isnan(sq[p, j]):
        raise ValueError(f"swap ratio ({i}, {j}) is NaN at step {omega.size}")
    return i, j


def det_ratio(state: SrrqrState, i: int, j: int) -> float:
    """Volume-growth factor of the single interchange (i, j); 0-based
    indices, i logical."""
    state._check_pair(i, j)
    i = state._position(i)
    row, col = slice(i, i + 1), slice(j, j + 1)
    return swap_ratios(state.omega[row], state.gamma[col], state.a[row, col]).item()


def rho(state: SrrqrState) -> float:
    """Largest achievable single-swap volume growth (0 when no trailing block)."""
    dr = det_ratio_matrix(state)
    return float(dr.max()) if dr.size else 0.0


def rho_hat(state: SrrqrState) -> float:
    """max(max |a|, max omega_i gamma_j), NaN if a term is; bounds :func:`rho`
    within sqrt(2)."""
    if state.omega.size == 0 or state.gamma.size == 0:
        return 0.0
    a = state.a
    # max(a.max(), -a.min()) is max |a| exactly, without an |a| temporary
    return float(np.max([a.max(), -a.min(), np.max(state.omega) * np.max(state.gamma)]))


def _rho_hat_at_most(omega, gamma, a, bound: float) -> bool:
    """:func:`rho_hat` of (omega, gamma, a) ``<= bound``, computing its terms
    only up to the first one above ``bound``; a NaN term never is."""
    if omega.size == 0 or gamma.size == 0:
        return 0.0 <= bound
    return bool(a.max() <= bound and -a.min() <= bound and omega.max() * gamma.max() <= bound)


def interchange(state: SrrqrState, i: int, j: int) -> SrrqrState:
    """Swap leading column i with trailing column j; returns a new state,
    in order, with n rows if ``state`` is tall."""
    out = state.copy()
    out._interchange_core(i, j)
    out._settle()
    return out


def swap_budget(k: int, n: int, f: float) -> float:
    """Monitored bound on the number of interchanges: k * log_f(sqrt(n))."""
    return k * math.log(math.sqrt(max(n, 2))) / math.log(f)


def _drive(state: SrrqrState, config: SrrqrConfig, on_swap=None, steps=math.inf) -> str | None:
    """Grow and interchange ``state`` until ``config`` stops it; say why.

    Each outer step pivots the max-norm trailing column to the front; the
    inner loop then performs interchanges as long as some pair grows
    ``|det(R11)|`` by more than ``f``, so every swap multiplies the leading
    volume by at least ``f`` and at termination no swap can beat ``f``.
    A cheap early exit fires when ``rho_hat <= f/sqrt(2)``, which already
    certifies ``rho <= f``.  ``on_swap(k, i, j, ratio)`` is invoked after
    every interchange; ``state`` is screened first.  A tall ``state`` is
    compressed (:meth:`SrrqrState._compress`) at its first exact screen,
    or before the return if it meets none.  Interchanges leave leading
    columns out of order (:meth:`SrrqrState._interchange_core`); one
    :meth:`SrrqrState._settle` restores it before the return.

    Returns ``"tolerance"`` (every trailing norm below tau),
    ``"target_rank"``, ``"full_rank"`` (a tolerance run that took every
    column it could), or None after ``steps`` reflectors short of those.
    Raises ``RuntimeError`` when
    the interchanges exceed 20 times :func:`swap_budget` (livelock), in
    rank mode :class:`SingularMatrixError` when the trailing norms underflow,
    and ``ValueError`` naming the step when the pivot norm it picks is not
    finite or the screen meets a NaN ratio (the column norms of an input
    near the overflow threshold, about 1e154, are inf).
    """
    rank_mode = isinstance(config.mode, TargetRank)
    stop = config.mode.k if rank_mode else min(state.r.shape)
    reason = "target_rank" if rank_mode else "full_rank"
    _interchanges(state, config.f, on_swap)
    while state.k < stop:
        if steps <= 0:
            reason = None
            break
        jmax = int(state.gamma.argmax())
        top = state.gamma[jmax]
        if not math.isfinite(top):
            raise ValueError(f"pivot column norm is {top} at step {state.k + 1}")
        if rank_mode:
            if top < _UNDERFLOW_FLOOR:
                raise SingularMatrixError(
                    f"trailing column norms underflowed at step {state.k + 1}; "
                    f"target rank {stop} exceeds the numerical rank"
                )
        elif top < config.mode.tau:
            reason = "tolerance"
            break
        if jmax > 0:
            state._swap_trailing(jmax)
            state.perm.swap(state.k, state.k + jmax)
        # a pivot column already zero below the diagonal needs no reflector
        steps -= bool(state._advance())
        _interchanges(state, config.f, on_swap)
    state._compress()
    state._settle()
    return reason


def _interchanges(state: SrrqrState, f: float, on_swap=None) -> None:
    """:func:`_drive`'s inner loop: interchange while the screen finds a pair."""
    early_exit, f_swap = f / math.sqrt(2.0), f * _F_SLACK
    while state.gamma.size and not _rho_hat_at_most(state.omega, state.gamma, state.a, early_exit):
        # a tall state drops to n rows here, at its first exact screen
        state._compress()
        if (hit := _first_swap(state.omega, state.gamma, state.a, f_swap, state._lead)) is None:
            break
        if state.swap_count >= 20 * swap_budget(max(state.k, 1), state.r.shape[1], f):
            raise RuntimeError(
                f"interchange budget exhausted at k={state.k} after "
                f"{state.swap_count} swaps; threshold f={f} appears to "
                "livelock in floating point"
            )
        i, j = hit
        # the growth factor is only reported, to a monitor
        ratio = det_ratio(state, i, j) if on_swap is not None else None
        state._interchange_core(i, j)
        if on_swap is not None:
            on_swap(state.k, i, j, ratio)


def _geqp3(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocked ``dgeqp3`` of a copy of ``a``: the factored copy, 0-based pivots, tau."""
    work = np.array(a, order="F")
    lwork = int(dgeqp3(work, lwork=-1, overwrite_a=1)[3][0])
    work, piv, tau, _, info = dgeqp3(work, lwork=lwork, overwrite_a=1)
    if info:
        raise ValueError(f"dgeqp3 failed with info={info}")
    return work, piv - 1, tau


def _transpositions(piv: np.ndarray, count: int) -> PermutationSeq:
    """The first ``count`` transpositions by which LAPACK reached its pivots ``piv``."""
    perm, where = PermutationSeq.identity(piv.size), np.arange(piv.size)  # where[c]: c's place
    for t, c in enumerate(piv[:count]):
        p = where[c]
        if p != t:
            where[perm.forward[t]], where[c] = p, t
            perm.swap(t, p)
    return perm


def _qrcp_prefix(state: SrrqrState, config: SrrqrConfig) -> SrrqrState | None:
    """``_drive``'s swap-free growth of ``state`` (no more rows than columns,
    left unchanged) by one ``dgeqp3`` of its trailing block; None where
    :func:`_replay` is or where its t steps cost fewer flops than the build."""
    k0, (rows, cols) = state.k, state.r.shape
    work, piv, tau = _geqp3(state.r[k0:, k0:])
    if (grown := _replay(work, state.omega, state.a[:, piv], config)) is None:
        return None  # the replay's O(n^2) scratch is freed with it
    k, omega, gamma, coup = grown
    if 2 * (rows - k) ** 2 * (cols - k) > 4 * (t := k - k0) * (rows - k0) * (cols - k0):
        return None
    # rows: the state's, the QRCP's (diagonal >= 0), its later reflectors on
    # its trailing triangle; columns as t transpositions leave them
    local, perm = _transpositions(piv, t), state.perm.copy()
    for i, j in local.swaps:
        perm.swap(k0 + i, k0 + j)
    idx = np.argsort(piv)[local.forward[t:]]
    r = np.zeros((rows, cols))
    r[:k0] = state.r[:k0, np.r_[:k0, k0 + local.forward]]
    r[k0:k, k0:] = _signed_r(work, t)[0][:, np.r_[:t, idx]]
    if k < rows:
        refl, tri = work[t:, t : rows - k0], np.triu(work[t:, t:])[:, idx - t]
        lwork = int(dormqr("L", "N", refl, tau[t:], tri, -1)[1][0])
        r[k:, k:], _, info = dormqr("L", "N", refl, tau[t:], tri, lwork, overwrite_c=1)
        if info:
            raise ValueError(f"dormqr failed with info={info}")
    return SrrqrState(r, perm, k, omega, gamma[idx - t], coup[:, idx - t], state.swap_count)


def _replay(work: np.ndarray, omega0: np.ndarray, a0: np.ndarray, config: SrrqrConfig):
    """(k, omega, gamma, a) in QRCP column order where ``_drive`` stops
    growing a state with ``omega0``, ``a0`` along the QRCP ``work`` of its
    trailing block; None at no step on, at a pivot quantity not finite or
    underflowing, or where a downdated norm could decide otherwise: a pivot
    near a tie, a top norm near tau.  ``b[j, i] = a[i, j]`` drops a row for
    free and takes one ``dger`` a step."""
    (rows, cols), k0 = work.shape, omega0.size
    rank_mode, k = isinstance(config.mode, TargetRank), k0
    stop, tau = (config.mode.k, 0.0) if rank_mode else (k0 + rows, config.mode.tau)
    omega, b = np.r_[omega0, np.zeros(stop - k0)], np.ascontiguousarray(a0.T)
    with np.errstate(all="ignore"):
        # gam[t, j]: norm of rows t onward of column j of the R; row ``rows`` is 0
        gam = np.zeros((rows + 1, cols))
        np.square(work, out=gam[:rows], where=~np.tri(rows, cols, -1, dtype=bool))
        np.cumsum(gam[::-1], axis=0, out=gam[::-1])
        np.sqrt(gam, out=gam)
        while k < stop:
            top = gam[t := k - k0, t:].max()
            if not math.isfinite(top) or top < _UNDERFLOW_FLOOR and rank_mode:
                return None
            # a downdated norm is off by up to _DOWNDATE_TOL of itself
            tie = gam[t, t + 1 :].max(initial=0.0) >= (1.0 - _DOWNDATE_TOL) * gam[t, t]
            if abs(top - tau) <= _DOWNDATE_TOL * tau or tie and top >= tau:
                return None
            if top < tau:
                break
            d, c2 = work[t, t], work[t, t + 1 :]
            if k == b.shape[1]:  # full: copy it into one 32 columns wider
                b = np.hstack([b, np.zeros((b.shape[0], min(32, stop - k)))])
            omega[:k], omega[k] = np.hypot(omega[:k], b[0, :k] / d), 1.0 / abs(d)
            x, b = b[0], b[1:]
            if k and c2.size:
                scipy.linalg.blas.dger(-1.0 / d, x, c2, a=b.T, overwrite_a=1)
            b[:, k] = c2 / d
            k += 1
            # b's zero columns pass the positive bound; inf or NaN never does
            q = omega[:k], gam[t + 1, t + 1 :]
            if not c2.size or _rho_hat_at_most(*q, b, config.f / math.sqrt(2.0)):
                continue
            if not (np.isfinite(q[0]).all() and np.isfinite(b).all()):
                return None
            if _first_swap(*q, b[:, :k].T, config.f * _F_SLACK) is not None:
                break
    t = k - k0
    return (k, omega[:k].copy(), gam[t, t:].copy(), b[:, :k].T.copy()) if t else None


@dataclass
class SrrqrResult:
    """A factorization and how it was chosen, for every algorithm.

    :func:`srrqr` sets the first seven fields.  A randomized call pivots on
    a sketch: ``rho`` and ``state`` stay None, ``swap_count`` and
    ``stop_reason`` are those of ``sketch_result``, the strong RRQR of the
    sketch, and the fields after ``state`` describe the sketch, its
    distortion eps and the threshold ``f_tilde`` built from it.  A field
    that does not apply is None: a bare QRCP is ``SrrqrResult(fact, k)``.
    """

    factorization: PartialQR
    k: int
    rho: float | None = None
    swap_count: int | None = None
    f: float | None = None
    # why _drive stopped: "tolerance", "target_rank" or "full_rank"
    stop_reason: str | None = None
    state: SrrqrState | None = field(default=None, repr=False)
    f_tilde: float | None = None
    distortion: float | None = None
    distortion_is_measured: bool | None = None
    seed: int | None = None
    kind: str | None = None
    d: int | None = None
    sketch_result: SrrqrResult | None = field(default=None, repr=False)
    timings_ms: dict = field(default_factory=dict)


def srrqr(m, config: SrrqrConfig, *, want_q: bool = True, on_swap=None) -> SrrqrResult:
    """Strong rank-revealing QR factorization (rank or tolerance driven).

    Validates ``config`` against ``m``, then :func:`_drive` grows and
    interchanges a fresh state, in which :func:`_qrcp_prefix` may grow a
    run of swap-free steps (module docstring; ``_drive`` has the loop); the
    result's ``stop_reason`` is what ``_drive`` returned.  ``on_swap(k, i,
    j, ratio)`` is invoked after every interchange, to monitor the volume.

    With ``want_q`` the factorization, its thin m-by-min(m, n) Q included,
    is one LAPACK QR of ``M P``: R11 and R12 match the state's to roundoff,
    and ``r22`` has min(m, n)-k rows.  Without it ``q`` is None, the blocks
    are the state's own, and ``r22`` has min(m, n)-k rows too: the state
    of every tall input is compressed to n rows, so its ``r22`` has n-k.
    ``shape`` is (m, n) either way.

    Raises what :func:`_drive` raises, ``ValueError`` among it when a
    pivoting quantity is not finite: a column norm that overflows (entries
    of ``m`` near 1e154) or a NaN swap ratio, with the step it happened at.
    """
    a = as_matrix(m)
    rows, mr = a.shape[0], min(a.shape)
    if not isinstance(config, SrrqrConfig):
        raise TypeError("config must be an SrrqrConfig")
    if isinstance(config.mode, TargetRank) and config.mode.k > mr:
        raise ValueError(f"target rank {config.mode.k} exceeds min(rows, cols) = {mr}")
    state, stop_reason = _fresh_state(a), None
    if rows <= a.shape[1] and config.f >= _PREFIX_MIN_F:
        after = max(_PREFIX_AFTER, a.shape[1] // 8)
        if (stop_reason := _drive(state, config, on_swap, after)) is None and not state.swap_count:
            state = _qrcp_prefix(state, config) or state
    stop_reason = stop_reason or _drive(state, config, on_swap)
    k = state.k
    if want_q:
        # the state carries no Q: factor M P once, with LAPACK, for Q and R
        fact = _stable_partial_qr(state.perm.apply_cols(a), k, overwrite=True)
        fact.perm = state.perm.copy()
    else:
        fact = PartialQR.from_r(None, state.r, k, state.perm.copy(), rows)
    return SrrqrResult(
        factorization=fact,
        k=k,
        rho=rho(state),
        swap_count=state.swap_count,
        f=config.f,
        stop_reason=stop_reason,
        state=state,
    )


def qrcp(m, k: int, *, want_q: bool = True) -> PartialQR:
    """Classical column-pivoted QR truncated after k steps.

    One LAPACK ``dgeqp3`` (Quintana-Orti, Sun & Bischof, SISC 1998), greedy
    max-norm pivoting run to the end: the permutation beyond position k is
    LAPACK's.  The R diagonal is made nonnegative and comes out
    nonincreasing.  ``want_q`` adds one ``dorgqr`` of the leading min(m, n)
    reflectors, so ``q`` is the thin m-by-min(m, n) factor.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    _check_rank(k, rows, cols)
    # one working copy and R of min(m, n) rows
    q, (work, piv, tau) = None, _geqp3(a)
    r, flip = _signed_r(work, min(rows, cols))
    if want_q:
        # Q gets its own m-by-min(m, n) array: on a wide input a Q written
        # into ``work`` would keep all n columns of it alive
        reflectors = work[:, : min(rows, cols)]
        lwork = int(dorgqr(reflectors, tau, lwork=-1)[1][0])
        q, _, info = dorgqr(reflectors, tau, lwork=lwork)
        if info:
            raise ValueError(f"dorgqr failed with info={info}")
        q *= flip
    return PartialQR.from_r(q, r, k, _transpositions(piv, cols), rows)
