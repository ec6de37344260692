"""The test oracles of :mod:`oracles` against independent formulas."""
import math

import numpy as np
import pytest

from oracles import exhaustive_det_ratios


def rng(seed=0):
    return np.random.default_rng(seed)


class TestExhaustiveDetRatios:
    def test_oracle_against_gram_determinants(self):
        # |det R11| is sqrt(det G) for the Gram matrix G of the k leading
        # columns; column 6 is in the span of columns 0 and 1, so swapping
        # it in for column 2 makes R11 singular
        m = rng(3).standard_normal((30, 8))
        m[:, 6] = m[:, 0] - 2.0 * m[:, 1]
        k = 3
        oracle = exhaustive_det_ratios(m, k)
        base = np.linalg.slogdet(m[:, :k].T @ m[:, :k])[1]
        for i in range(k):
            for j in range(8 - k):
                cols = [c for c in range(k) if c != i] + [j + k]
                sign, logdet = np.linalg.slogdet(m[:, cols].T @ m[:, cols])
                if (i, j) == (2, 3):
                    assert abs(oracle[i, j]) <= 1e-12
                else:
                    assert sign == 1.0
                    want = math.exp((logdet - base) / 2)
                    assert np.isclose(oracle[i, j], want, rtol=1e-10)
        for bad in (0, 9):
            with pytest.raises(ValueError, match="out of range"):
                exhaustive_det_ratios(m, bad)
