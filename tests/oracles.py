"""Reference implementations that the tests compare the library against."""
import math

import numpy as np
import scipy.linalg
import scipy.linalg.blas
from scipy.linalg.lapack import dlarfg, dtrtrs

from spectra_rrqr.dense_core import SingularMatrixError, _r_factor, _range_basis, as_matrix
from spectra_rrqr.sketch import SketchOperator, embedding_distortion
from spectra_rrqr.srrqr import _DOWNDATE_TOL, SrrqrState, _swap_columns


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


class ReferenceInterchangeState(SrrqrState):
    """Bitwise reference for the interchange bookkeeping of :class:`SrrqrState`.

    ``_cycle`` and ``_swap_boundary`` are the earlier versions, which make
    the same floating-point operations with more data movement: ``_cycle``
    rebuilds the block around ``qr_delete``/``qr_insert`` with ``np.insert``
    and ``np.delete`` and gathers ``r``, omega and ``a`` through an index
    array; ``_swap_boundary`` builds a fresh ``a``.  A state driven by the
    library's methods must end with the same bits as this one.
    """

    def _cycle(self, i: int, shift: int) -> None:
        """Roll leading columns i..k-1 by ``shift`` and retriangularize.

        ``shift=-1`` moves column i to position k-1 (``qr_delete`` of it),
        ``shift=1`` moves column k-1 back to i (``qr_insert``): one Givens
        update of rows i..k-1 with Q = I.  A row rotation of R11 and R12
        leaves omega and ``a`` exactly permuted with the columns.
        """
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
        # rows >= k of the leading columns are zero, so they need no permuting;
        # the updates write exact zeros below the diagonal, so no triu either
        r[:i, i:k] = r[:i, order]
        r[i + np.flatnonzero(np.diagonal(r)[i:k] < 0.0), i:] *= -1.0
        self.omega[i:k] = self.omega[order]
        self.a[i:k] = self.a[order]

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
        a1 = self.a[:, 0].copy()
        if km1:
            # solve_triangular's own LAPACK call, without its wrapper
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
        omega_new = self.omega.copy()
        omega_new[km1] = 1.0 / beta_bar
        if km1:
            o2 = self.omega[:km1] ** 2 - (w / beta) ** 2 + (w_bar / beta_bar) ** 2
            bad = o2 < 0.5 * self.omega[:km1] ** 2
            if np.any(bad):
                rows = np.nonzero(bad)[0]
                rhs = np.zeros((k, rows.size))
                rhs[rows, np.arange(rows.size)] = 1.0
                # R^T sol = rhs by the LAPACK call solve_triangular makes for it
                sol, info = dtrtrs(r[:k, :k], rhs, lower=0, trans=1)
                if info:
                    raise SingularMatrixError(f"zero diagonal at index {info - 1}")
                o2[bad] = np.sum(sol**2, axis=0)
            omega_new[:km1] = np.sqrt(np.maximum(o2, 0.0))
        self.omega = omega_new
        # coupling block: rank-two update driven by the old and new row k-1
        a_new = np.empty(self.a.shape)
        a_new[km1, :] = new_rowk / beta_bar
        if km1:
            # a_new[:km1].T is F-contiguous, so dger updates it in place;
            # column 0 is then set from its own closed form
            lead = a_new[:km1]
            lead[...] = self.a[:km1]
            scipy.linalg.blas.dger(1.0, self.a[km1], w, a=lead.T, overwrite_a=1)
            scipy.linalg.blas.dger(-1.0, a_new[km1], w_bar, a=lead.T, overwrite_a=1)
            lead[:, 0] = w - w_bar * a_new[km1, 0]
        self.a = a_new
        # trailing norms: the reflector moved mass between row k-1 and R22
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
