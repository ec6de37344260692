"""Reference implementations that the tests compare the library against."""
import math

import numpy as np
import scipy.linalg
import scipy.linalg.blas
from scipy.linalg.lapack import dlarfg, dtrtrs

from spectra_rrqr.dense_core import SingularMatrixError, _r_factor, _range_basis, as_matrix
from spectra_rrqr.sketch import SketchOperator, embedding_distortion
from spectra_rrqr.srrqr import (
    _DOWNDATE_TOL,
    _UNDERFLOW_FLOOR,
    SrrqrConfig,
    SrrqrState,
    TargetRank,
    _swap_columns,
    swap_budget,
)


def exhaustive_det_ratios(mp, k: int) -> np.ndarray:
    """From-scratch swap oracle: refactorize after every single interchange.

    Entry (i, j) is ``|det R11(after swapping columns i and j+k)| / |det
    R11|``.  R11 depends on the k leading columns alone, so each
    determinant is read off an independent LAPACK QR of those k columns,
    column i replaced by column j+k (log-space to dodge under/overflow).
    """
    a = as_matrix(mp)
    n = a.shape[1]
    if not (1 <= k <= min(a.shape)):
        raise ValueError(f"k={k} out of range for a {a.shape[0]}x{n} matrix")

    def logdet(cols):
        d = np.abs(np.diag(_r_factor(a[:, cols], overwrite=True)))
        with np.errstate(divide="ignore"):
            return float(np.sum(np.log(d)))

    base = logdet(np.arange(k))
    out = np.zeros((k, n - k))
    for i in range(k):
        for j in range(n - k):
            out[i, j] = math.exp(logdet(np.r_[:i, j + k, i + 1 : k]) - base)
    return out


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


def _reference_perm_swap(perm, i: int, j: int) -> None:
    """The earlier ``PermutationSeq.swap``: two fancy-index gathers."""
    n = perm.size
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"swap indices ({i}, {j}) out of range for size {n}")
    if i != j:
        perm.forward[[i, j]] = perm.forward[[j, i]]
    perm.swaps.append((int(i), int(j)))


class ReferenceState(SrrqrState):
    """Bitwise reference for the hot loop of :class:`SrrqrState`.

    Every method here is an earlier version that makes the same
    floating-point operations, in the same order, with more NumPy calls,
    temporaries and data movement:

    - ``_advance`` builds ``v``, ``w`` and omega with ``np.concatenate`` and
      ``np.zeros``, copies the new row of R, squares the old trailing norms
      twice and flips the row through ``_flip_row``;
    - ``_cycle`` rebuilds the block around ``qr_delete``/``qr_insert`` with
      ``np.insert`` and ``np.delete``, gathers ``r``, omega and ``a``
      through an index array and always runs the sign fix;
    - ``_swap_boundary`` squares omega and the trailing norms twice and
      copies omega and gamma before overwriting them;
    - ``_interchange_core`` swaps the permutation with fancy indexing.

    :func:`reference_drive` drives it with the earlier screens.  A state
    driven by the library must end with the same bits as this one.
    """

    def _advance(self) -> None:
        k = self.k
        r = self.r
        u = self.a[:, 0].copy() if k else np.zeros(0)
        beta, v_tail, tau = dlarfg(r.shape[0] - k, r[k, k], r[k + 1 :, k])
        if tau:
            v = np.concatenate(([1.0], v_tail))
            w = np.zeros(r.shape[1])
            w[k + 1 :] = v @ r[k:, k + 1 :]
            tail = r[k:]
            scipy.linalg.blas.dger(-tau, w, v, a=tail.T, overwrite_a=1)
        r[k, k] = beta
        r[k + 1 :, k] = 0.0
        self._flip_row(k)
        diag = r[k, k]
        if diag <= 0.0:
            raise SingularMatrixError(f"pivot column at step {k + 1} has zero norm")
        c2 = r[k, k + 1 :].copy()
        old_tail = self.gamma[1:]
        self.k = k + 1
        self.omega = np.concatenate(
            [np.sqrt(self.omega**2 + (u / diag) ** 2), [1.0 / diag]]
        )
        a_new = np.empty((k + 1, c2.size))
        a_new[k] = c2 / diag
        if k and c2.size:
            a_new[:k] = self.a[:, 1:]
            scipy.linalg.blas.dger(-1.0 / diag, c2, u, a=a_new[:k].T, overwrite_a=1)
        self.a = a_new
        g2 = old_tail**2 - c2**2
        floor = self._gamma2_floor = self._gamma2_floor[1:]
        bad = g2 < np.maximum(0.5 * old_tail**2, floor)
        if np.any(bad):
            cols = self.k + np.nonzero(bad)[0]
            fresh = np.take(r[self.k :], cols, axis=1)
            g2[bad] = np.sum(fresh**2, axis=0)
            floor[bad] = _DOWNDATE_TOL * g2[bad]
        self.gamma = np.sqrt(np.maximum(g2, 0.0))

    def _cycle(self, i: int, shift: int) -> None:
        k, r, w = self.k, self.r, self.k - i
        order = i + (np.arange(w) - shift) % w
        if shift < 0:
            q, blk = scipy.linalg.qr_delete(
                np.eye(w), np.array(r[i:k, i:], order="F"), 0,
                which="col", overwrite_qr=True, check_finite=False,
            )
            # the deleted column is r_ii e_1, which Q^T maps to r_ii Q[0]
            r[i:k, i:] = np.insert(blk, w - 1, r[i, i] * q[0], axis=1)
        else:
            r[i:k, i:] = scipy.linalg.qr_insert(
                np.eye(w), np.delete(r[i:k, i:], w - 1, axis=1), r[i:k, k - 1], 0,
                which="col", overwrite_qru=True, check_finite=False,
            )[1]
        r[:i, i:k] = r[:i, order]
        r[i + np.flatnonzero(np.diagonal(r)[i:k] < 0.0), i:] *= -1.0
        self.omega[i:k] = self.omega[order]
        self.a[i:k] = self.a[order]

    def _swap_boundary(self) -> None:
        k = self.k
        km1 = k - 1
        r = self.r
        beta = r[km1, km1]
        if beta <= 0.0:
            raise SingularMatrixError(f"zero diagonal at index {km1}")
        old_rowk = r[km1, k:].copy()
        nu = self.gamma[0]
        a1 = self.a[:, 0].copy()
        if km1:
            w, info = dtrtrs(r[:km1, :km1].T, r[:km1, km1], lower=1, trans=1)
            if info:
                raise SingularMatrixError(f"zero diagonal at index {info - 1}")
        else:
            w = np.zeros(0)
        w_bar = a1[:km1] + w * a1[km1]
        _swap_columns(r, km1, k)
        beta_bar, v_tail, tau = dlarfg(r.shape[0] - km1, r[km1, km1], r[k:, km1])
        v = np.concatenate(([1.0], v_tail))
        if tau:
            tail = r[km1:]
            scipy.linalg.blas.dger(-tau, v @ tail, v, a=tail.T, overwrite_a=1)
        r[km1, km1] = beta_bar
        r[k:, km1] = 0.0
        self._flip_row(km1)
        self.swap_count += 1
        beta_bar = r[km1, km1]
        new_rowk = r[km1, k:]
        omega_new = self.omega.copy()
        omega_new[km1] = 1.0 / beta_bar
        if km1:
            o2 = self.omega[:km1] ** 2 - (w / beta) ** 2 + (w_bar / beta_bar) ** 2
            bad = o2 < 0.5 * self.omega[:km1] ** 2
            if np.any(bad):
                rows = np.nonzero(bad)[0]
                rhs = np.zeros((k, rows.size))
                rhs[rows, np.arange(rows.size)] = 1.0
                sol, info = dtrtrs(r[:k, :k], rhs, lower=0, trans=1)
                if info:
                    raise SingularMatrixError(f"zero diagonal at index {info - 1}")
                o2[bad] = np.sum(sol**2, axis=0)
            omega_new[:km1] = np.sqrt(np.maximum(o2, 0.0))
        self.omega = omega_new
        a = self.a = np.ascontiguousarray(self.a)
        old_row = a[km1].copy()
        a[km1] = new_rowk / beta_bar
        if km1:
            lead = a[:km1]
            scipy.linalg.blas.dger(1.0, old_row, w, a=lead.T, overwrite_a=1)
            scipy.linalg.blas.dger(-1.0, a[km1], w_bar, a=lead.T, overwrite_a=1)
            lead[:, 0] = w - w_bar * a[km1, 0]
        gamma_new = self.gamma.copy()
        gamma_new[0] = beta * nu / beta_bar
        floor = self._gamma2_floor
        floor[0] = _DOWNDATE_TOL * gamma_new[0] ** 2
        if gamma_new.size > 1:
            g2 = self.gamma[1:] ** 2 + old_rowk[1:] ** 2 - new_rowk[1:] ** 2
            bad = g2 < np.maximum(0.5 * self.gamma[1:] ** 2, floor[1:])
            if np.any(bad):
                cols = k + 1 + np.nonzero(bad)[0]
                g2[bad] = np.sum(r[k:, cols] ** 2, axis=0)
                floor[1:][bad] = _DOWNDATE_TOL * g2[bad]
            gamma_new[1:] = np.sqrt(np.maximum(g2, 0.0))
        self.gamma = gamma_new

    def _interchange_core(self, i: int, j: int) -> None:
        self._check_pair(i, j)
        self._cycle(i, -1)
        self._swap_trailing(j)
        self._swap_boundary()
        self._swap_trailing(j)
        self._cycle(i, 1)
        _reference_perm_swap(self.perm, i, self.k + j)


def reference_first_swap(state: SrrqrState, f_swap: float) -> tuple[int, int] | None:
    """The earlier ``srrqr._first_swap``: ``np.outer``, ``np.multiply`` and
    ``np.argmin``."""
    with np.errstate(over="ignore"):
        sq = np.outer(state.omega, state.gamma)
        sq *= sq
        sq += np.multiply(state.a, state.a)
    ok = sq <= f_swap * f_swap
    first = int(np.argmin(ok))
    if ok.flat[first]:
        return None
    i, j = divmod(first, ok.shape[1])
    if math.isnan(sq.flat[first]):
        raise ValueError(f"swap ratio ({i}, {j}) is NaN at step {state.k}")
    return i, j


def reference_rho_hat_at_most(state: SrrqrState, bound: float) -> bool:
    """The earlier ``srrqr._rho_hat_at_most``, with ``np.max``."""
    if state.omega.size == 0 or state.gamma.size == 0:
        return 0.0 <= bound
    a = state.a
    return bool(a.max() <= bound and -a.min() <= bound
                and np.max(state.omega) * np.max(state.gamma) <= bound)


def reference_drive(state: ReferenceState, config: SrrqrConfig) -> str:
    """The earlier ``srrqr._drive`` with the earlier screens, no monitor."""
    cols = state.r.shape[1]
    f = config.f
    rank_mode = isinstance(config.mode, TargetRank)
    stop = config.mode.k if rank_mode else min(state.r.shape)
    reason = "target_rank" if rank_mode else "full_rank"
    f_swap = f * (1.0 + 1e-12)
    early_exit = f / math.sqrt(2.0)
    while state.k < stop:
        jmax = int(np.argmax(state.gamma))
        if not math.isfinite(state.gamma[jmax]):
            raise ValueError(f"pivot column norm is {state.gamma[jmax]} at step {state.k + 1}")
        if rank_mode:
            if state.gamma[jmax] < _UNDERFLOW_FLOOR:
                raise SingularMatrixError(f"trailing column norms underflowed at step {state.k + 1}")
        elif state.gamma[jmax] < config.mode.tau:
            reason = "tolerance"
            break
        if jmax > 0:
            state._swap_trailing(jmax)
            _reference_perm_swap(state.perm, state.k, state.k + jmax)
        state._advance()
        while state.gamma.size:
            if reference_rho_hat_at_most(state, early_exit):
                break
            if (hit := reference_first_swap(state, f_swap)) is None:
                break
            if state.swap_count >= 20 * swap_budget(max(state.k, 1), cols, f):
                raise RuntimeError(f"interchange budget exhausted at k={state.k}")
            state._compress()
            state._interchange_core(*hit)
    return reason
