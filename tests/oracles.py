"""Reference implementations that the tests compare the library against."""
import math

import numpy as np

from spectra_rrqr.dense_core import _r_factor, as_matrix


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
