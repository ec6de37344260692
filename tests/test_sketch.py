import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_rrqr import (
    SketchOperator,
    apply,
    cos_angle,
    cos_angle_subspace,
    embedding_distortion,
    fwht,
    haar_orthogonal,
    materialize,
    next_pow2,
    ose_dim,
    pad_rows_pow2,
    singular_values,
)
import spectra_rrqr.sketch as sk
from spectra_rrqr import _threads, bench
from spectra_rrqr.sketch import _gaussian_block


def rng(seed=0):
    return np.random.default_rng(seed)


def _gaussian_width(d):
    # the Gaussian path's block: _BLOCK_ENTRIES // d columns in whole chunks
    return max(sk._CHUNK, sk._BLOCK_ENTRIES // d // sk._CHUNK * sk._CHUNK)


@pytest.fixture
def stuck_pool():
    """A one-thread pool whose thread is blocked until teardown, so no task
    submitted to it runs during the test; teardown opens it and shuts it
    down however the test ends, so a failed test cannot hang the session."""
    gate = threading.Event()
    stuck = ThreadPoolExecutor(1, thread_name_prefix="stuck")
    stuck.submit(gate.wait)
    yield stuck
    gate.set()
    stuck.shutdown()


class TestFwht:
    def test_pair(self):
        assert np.allclose(fwht([1.0, 1.0]), [2.0, 0.0])

    def test_unit_vector(self):
        assert np.allclose(fwht([1.0, 0.0, 0.0, 0.0]), [1.0, 1.0, 1.0, 1.0])

    def test_dense_hadamard_oracle(self):
        v = rng(1).standard_normal(16)
        assert np.allclose(fwht(v), scipy.linalg.hadamard(16) @ v, atol=1e-12)

    def test_matrix_columns(self):
        m = rng(2).standard_normal((8, 3))
        h = scipy.linalg.hadamard(8)
        assert np.allclose(fwht(m), h @ m, atol=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_involution(self, log_m, seed):
        m = 2**log_m
        v = rng(seed).standard_normal(m)
        back = fwht(fwht(v))
        assert np.allclose(back, m * v, rtol=1e-12, atol=1e-12)

    def test_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            fwht(np.ones(6))

    @staticmethod
    def _concatenate_oracle(x):
        # out-of-place butterfly: a new array per level
        arr = np.asarray(x, dtype=np.float64)
        vec = arr.ndim == 1
        y = arr.reshape(-1, 1).copy() if vec else arr.copy()
        m, n = y.shape
        h = 1
        while h < m:
            z = y.reshape(m // (2 * h), 2, h, n)
            y = np.concatenate((z[:, 0] + z[:, 1], z[:, 0] - z[:, 1]), axis=1)
            y = y.reshape(m, n)
            h *= 2
        return y[:, 0] if vec else y

    @pytest.mark.parametrize("log_m", range(13))
    def test_bitwise_equal_to_concatenate_butterfly(self, log_m):
        m = 2**log_m
        g = rng(log_m)
        inputs = [
            g.standard_normal(m),
            np.ascontiguousarray(g.standard_normal((m, 3))),
            np.asfortranarray(g.standard_normal((m, 5))),
        ]
        for x in inputs:
            before = x.copy()
            out = fwht(x)
            assert out.shape == x.shape
            assert np.array_equal(out, self._concatenate_oracle(x))
            assert np.array_equal(x, before)


class TestPadding:
    def test_next_pow2(self):
        assert [next_pow2(x) for x in (1, 2, 3, 8, 9)] == [1, 2, 4, 8, 16]

    def test_pad_rows(self):
        m = np.ones((6, 2))
        p = pad_rows_pow2(m)
        assert p.shape == (8, 2)
        assert np.allclose(p[:6], 1.0) and np.allclose(p[6:], 0.0)

    def test_pad_noop(self):
        m = np.ones((8, 2))
        assert pad_rows_pow2(m).shape == (8, 2)


class TestOperator:
    def test_same_seed_identical(self):
        a = materialize(SketchOperator("srht", d=8, m=32, seed=9))
        b = materialize(SketchOperator("srht", d=8, m=32, seed=9))
        assert np.array_equal(a, b)
        g1 = materialize(SketchOperator("gaussian", d=5, m=20, seed=9))
        g2 = materialize(SketchOperator("gaussian", d=5, m=20, seed=9))
        assert np.array_equal(g1, g2)

    def test_srht_needs_pow2(self):
        with pytest.raises(ValueError, match="power-of-two"):
            SketchOperator("srht", d=4, m=12, seed=0)

    @pytest.mark.parametrize("dims", [{"d": 4.5, "m": 8}, {"d": 4, "m": 8.0}])
    def test_dimensions_must_be_integers(self, dims):
        with pytest.raises(ValueError, match="must be integers"):
            SketchOperator("gaussian", seed=0, **dims)
        assert SketchOperator("gaussian", d=np.int64(4), m=np.int64(8), seed=0).d == 4

    @pytest.mark.parametrize("dims", [{"d": True, "m": 8}, {"d": 1, "m": True}])
    def test_dimensions_are_not_bools(self, dims):
        # bool is an int subclass; True would pass as a size of 1
        with pytest.raises(ValueError, match="must be integers"):
            SketchOperator("gaussian", seed=0, **dims)

    @pytest.mark.parametrize("seed", [1.5, np.float64(2.9), "7", True, np.bool_(True), None])
    @pytest.mark.parametrize("kind", ["gaussian", "srht"])
    def test_seed_must_be_an_integer(self, kind, seed):
        # int() would truncate or parse these into another seed without a word
        with pytest.raises(ValueError, match="seed must be an integer"):
            SketchOperator(kind, d=4, m=8, seed=seed)

    def test_integer_seeds_are_kept_as_64_bit(self):
        for seed, kept in [(7, 7), (np.int32(7), 7), (np.uint64(2**64 - 1), 2**64 - 1),
                           (-1, 2**64 - 1), (2**64 + 3, 3)]:
            op = SketchOperator("gaussian", d=4, m=8, seed=seed)
            assert type(op.seed) is int and op.seed == kept

    def test_d_cannot_exceed_m(self):
        with pytest.raises(ValueError, match="exceeds"):
            SketchOperator("gaussian", d=10, m=5, seed=0)

    def test_identity_requires_square(self):
        with pytest.raises(ValueError, match="d == m"):
            SketchOperator("identity", d=3, m=4, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown sketch kind"):
            SketchOperator("fourier", d=2, m=4, seed=0)

    def test_json_roundtrip_rederives(self):
        op = SketchOperator("srht", d=8, m=64, seed=1234)
        clone = SketchOperator.from_json(op.to_json())
        assert json.loads(op.to_json()) == {
            "kind": "srht",
            "d": 8,
            "m": 64,
            "seed": 1234,
        }
        assert np.array_equal(op.signs, clone.signs)
        assert np.array_equal(op.sample_idx, clone.sample_idx)
        assert np.array_equal(materialize(op), materialize(clone))


class TestApply:
    def test_gaussian_zero_matrix(self):
        op = SketchOperator("gaussian", d=6, m=50, seed=3)
        assert np.max(np.abs(apply(op, np.zeros((50, 4))))) == 0.0

    def test_srht_unit_vector_against_dense_oracle(self):
        op = SketchOperator("srht", d=8, m=32, seed=7)
        dense = (
            scipy.linalg.hadamard(32)[op.sample_idx, :]
            * op.signs[None, :]
            / math.sqrt(8)
        )
        e1 = np.zeros((32, 1))
        e1[0, 0] = 1.0
        assert np.allclose(apply(op, e1), dense @ e1, atol=1e-12)
        m = rng(4).standard_normal((32, 5))
        assert np.allclose(apply(op, m), dense @ m, atol=1e-12)

    def test_linearity(self):
        for kind in ("srht", "gaussian"):
            op = SketchOperator(kind, d=16, m=64, seed=5)
            g = rng(6)
            x, y = g.standard_normal((64, 3)), g.standard_normal((64, 3))
            lhs = apply(op, 2.5 * x - 1.5 * y)
            rhs = 2.5 * apply(op, x) - 1.5 * apply(op, y)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_dimension_mismatch(self):
        op = SketchOperator("srht", d=4, m=16, seed=0)
        with pytest.raises(ValueError, match="rows"):
            apply(op, np.ones((8, 2)))

    def test_gaussian_blocking_invariant(self):
        # one stream per chunk of columns: splitting the column range
        # anywhere, inside a chunk too, yields the same operator entries
        full = _gaussian_block(11, 7, 0, 60)
        split = np.hstack(
            [_gaussian_block(11, 7, 0, 13), _gaussian_block(11, 7, 13, 60)]
        )
        assert np.array_equal(full, split)

    def test_measured_norm_distortion_is_moderate(self):
        # 1024x20 orthonormal columns, d=256: deviations of sketched squared
        # norms over 1000 random unit vectors stay well inside 0.6
        g = rng(7)
        m = haar_orthogonal(g, 1024, 20)
        op = SketchOperator("srht", d=256, m=1024, seed=11)
        sm = apply(op, m)
        coeffs = g.standard_normal((20, 1000))
        coeffs /= np.linalg.norm(coeffs, axis=0)
        devs = np.abs(np.linalg.norm(sm @ coeffs, axis=0) ** 2 - 1.0)
        assert float(np.max(devs)) < 0.6


class TestSrhtKronecker:
    """The two-GEMM SRHT against the dense operator and the butterfly.

    Every power of two from 1 to 4096 is covered, so both Kronecker splits
    of ``H_m`` occur (``p == q`` for even log2(m), ``q == 2p`` for odd).
    The tolerance is fixed from the float64 unit roundoff with room for
    the summation depth: 1e-13 times the largest reference entry.
    """

    RTOL = 1e-13

    @staticmethod
    def _dense(op, x):
        # rows of the Sylvester matrix in blocks, so m=4096 stays small
        h = scipy.linalg.hadamard(op.m, dtype=np.int8)
        out = np.empty((op.d, x.shape[1]))
        for r0 in range(0, op.d, 512):
            rows = h[op.sample_idx[r0 : r0 + 512]] * op.signs
            out[r0 : r0 + 512] = rows @ x / math.sqrt(op.d)
        return out

    @staticmethod
    def _butterfly(op, x):
        # butterfly over all m rows, then sample
        t = fwht(op.signs[:, None] * x)
        return t[op.sample_idx, :] * (op.scale / math.sqrt(op.m))

    def _check(self, op, x):
        before = x.copy()
        got = apply(op, x)
        assert got.shape == (op.d, x.shape[1])
        assert np.array_equal(x, before)
        for ref in (self._dense(op, x), self._butterfly(op, x)):
            assert np.max(np.abs(got - ref)) <= self.RTOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("log_m", range(13))
    def test_against_dense_and_butterfly(self, log_m):
        m = 2**log_m
        g = rng(100 + log_m)
        for d in sorted({1, max(1, m // 3), m}):
            op = SketchOperator("srht", d=d, m=m, seed=log_m * 17 + d)
            for x in (
                g.standard_normal((m, 1)),
                np.asfortranarray(g.standard_normal((m, 5))),
                np.ascontiguousarray(g.standard_normal((m, 4))),
            ):
                self._check(op, x)

    @pytest.mark.parametrize("log_m", [0, 1, 3, 6, 9, 12])
    def test_zero_padded_rows(self, log_m):
        # nonzero rows end inside a row block, on a block boundary, or at
        # the very end; the first product skips only the all-zero tail
        m = 2**log_m
        q = 1 << (m.bit_length() // 2)
        g = rng(300 + log_m)
        op = SketchOperator("srht", d=max(1, m // 3), m=m, seed=log_m)
        for rows in sorted({1, q, q + 1, m // 2 + 1, m - q, m - q + 1, m - 1, m}):
            if not 1 <= rows <= m:
                continue
            x = np.zeros((m, 3))
            x[:rows] = g.standard_normal((rows, 3))
            self._check(op, x)
            self._check(op, np.asfortranarray(x))
        lone = np.zeros((m, 2))
        lone[0, 0] = lone[-1, 1] = 1.0
        self._check(op, lone)
        # all zero: the reference is zero, so _check demands exact zeros
        self._check(op, np.zeros((m, 4)))

    @pytest.mark.parametrize("log_m", range(2, 13))
    def test_unpadded_input_is_padded_bitwise(self, log_m):
        # row counts between m/2 and m end inside a row block, on either
        # side of a block boundary, or one short of m; the sketch must be
        # the bytes of the sketch of the zero-padded input
        m = 2**log_m
        q = 1 << (m.bit_length() // 2)
        g = rng(400 + log_m)
        op = SketchOperator("srht", d=max(1, m // 3), m=m, seed=log_m)
        for rows in sorted({m // 2 + 1, q - 1, q, q + 1, m - q, m - q + 1, m - 1}):
            if not m // 2 < rows < m:
                continue
            x = g.standard_normal((rows, 3))
            tail = x.copy()
            tail[rows // 2 :] = 0.0
            for a in (x, np.ascontiguousarray(x), np.asfortranarray(tail),
                      np.zeros((rows, 2))):
                got = apply(op, a)
                assert got.tobytes() == apply(op, pad_rows_pow2(a)).tobytes()
        gauss = SketchOperator("gaussian", d=2, m=m + 1, seed=0)
        with pytest.raises(ValueError, match="rows"):
            apply(gauss, np.ones((m, 1)))

    @pytest.mark.parametrize("m", [2, 8, 64, 2048])
    def test_repeated_samples(self, m):
        g = rng(m)
        op = SketchOperator("srht", d=m, m=m, seed=5)
        # every sampled row twice, in shuffled order
        op.sample_idx = g.permutation(np.repeat(g.permutation(m)[: m // 2], 2))
        assert np.unique(op.sample_idx).size < m
        self._check(op, np.asfortranarray(g.standard_normal((m, 3))))
        single = SketchOperator("srht", d=m, m=m, seed=6)
        single.sample_idx = np.zeros(m, dtype=np.intp)
        self._check(single, g.standard_normal((m, 2)))


class TestSrhtPanels:
    """Stage 1 of the SRHT in column panels against the unpaneled formula.

    The oracle builds the whole sign-flipped copy ``x`` of the live rows
    and contracts it in one batched product, then runs stage 2 as
    ``_srht_rows`` does.  Each column is its own product in the batch, so
    equality is bitwise.  At m = 1024 the split is p = q = 32.
    """

    M = 1024
    PANEL = sk._SRHT_PANEL

    @staticmethod
    def _oracle(op, a):
        n = a.shape[1]
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
        h_rows = scipy.linalg.hadamard(q)[within] * (1.0 / math.sqrt(op.d))
        out = np.empty((op.d, n))
        for b in np.unique(block):
            sel = np.flatnonzero(block == b)
            out[sel] = h_rows[sel] @ z[:, b, :].T
        return out

    @staticmethod
    def _input(case, n, g):
        if case == "full":
            return g.standard_normal((1024, n))
        if case == "partial-block":  # 31 whole row blocks and 8 rows
            return g.standard_normal((1000, n))
        if case == "short":  # 19 live row blocks of 32, the last partial
            return g.standard_normal((600, n))
        a = np.zeros((1024, n))
        if case == "zero-tail":  # rows past 320 are zero: live = 10
            a[:320] = g.standard_normal((320, n))
        return a  # "zero": live = 0

    @pytest.mark.parametrize("case", ["full", "partial-block", "short", "zero-tail", "zero"])
    @pytest.mark.parametrize("n", [1, PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 3])
    def test_bitwise_equal_to_unpaneled(self, case, n):
        g = rng(n)
        op = SketchOperator("srht", d=300, m=self.M, seed=n)
        a = np.asfortranarray(self._input(case, n, g))
        got = apply(op, a)
        assert got.tobytes() == self._oracle(op, a).tobytes()
        if case == "zero":
            assert not got.any()

    @staticmethod
    def _cap(monkeypatch, cap):
        # the cap, not the host's CPU count, sets the workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setenv("SPECTRA_RRQR_THREADS", str(cap))

    @pytest.mark.parametrize("case", ["full", "partial-block", "short", "zero-tail", "zero"])
    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_bitwise_same_for_every_cap(self, monkeypatch, cap, case):
        # caps 2 and 3 split the panel into scratches of 16 and 10 columns
        self._cap(monkeypatch, cap)
        for n in (1, self.PANEL - 1, self.PANEL, self.PANEL + 1, 2 * self.PANEL + 3, 200):
            op = SketchOperator("srht", d=300, m=self.M, seed=n)
            a = np.asfortranarray(self._input(case, n, rng(n)))
            assert apply(op, a).tobytes() == self._oracle(op, a).tobytes()

    def test_concurrent_callers(self, monkeypatch):
        # four callers share the pool's three threads: each call's pieces
        # land in its own z and result
        self._cap(monkeypatch, 3)
        g = rng(10)
        cases = []
        for i, case in enumerate(["full", "partial-block", "short", "zero-tail"]):
            op = SketchOperator("srht", d=300, m=self.M, seed=i)
            a = np.asfortranarray(self._input(case, 70 + i, g))
            cases.append((op, a, self._oracle(op, a)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as callers:
                futs = [callers.submit(apply, op, a) for op, a, _ in cases * 4]
                got = [f.result(timeout=120) for f in futs]
        finally:
            sys.setswitchinterval(interval)
        for (_, _, ref), out in zip(cases * 4, got):
            assert out.tobytes() == ref.tobytes()

    def test_caller_runs_every_piece_when_no_task_starts(self, monkeypatch, stuck_pool):
        # the pool's one thread is blocked, so no task submitted to it runs
        # until the gate opens: the caller must form every panel and every
        # row block itself
        self._cap(monkeypatch, 2)
        asked = []
        monkeypatch.setattr(_threads, "pool", lambda workers: asked.append(workers) or stuck_pool)
        op = SketchOperator("srht", d=300, m=self.M, seed=8)
        a = np.asfortranarray(rng(8).standard_normal((1000, 2 * self.PANEL + 3)))
        helper = ThreadPoolExecutor(1)
        try:
            got = helper.submit(apply, op, a).result(timeout=20)
        finally:
            helper.shutdown(wait=False)
        assert asked == [2, 2]  # one task offered for each stage
        assert got.tobytes() == self._oracle(op, a).tobytes()

    @pytest.mark.parametrize("rows", [4096, 3000])
    def test_peak_memory(self, monkeypatch, rows, traced_peak):
        # stage 1's result z is n m doubles; the panel scratch, shared out
        # among the workers, H_q's sampled rows and stage 2's temporaries
        # stay under a quarter of that (the unpaneled formula took about
        # twice z)
        n = 512
        a = np.asfortranarray(rng(7).standard_normal((rows, n)))
        op = SketchOperator("srht", d=1200, m=4096, seed=1)
        for cap in (1, 2, 8):
            self._cap(monkeypatch, cap)
            out, peak = traced_peak(lambda: apply(op, a))
            assert peak <= 1.25 * 8 * n * op.m + out.nbytes, cap

    def test_scratch_is_one_panel_in_all(self, monkeypatch, traced_peak):
        # eight workers share one panel of scratch: a panel each would add
        # 7 MB here; a small d keeps stage 2's buffers from hiding it
        self._cap(monkeypatch, 8)
        n, m = 512, 4096
        a = np.asfortranarray(rng(9).standard_normal((m, n)))
        op = SketchOperator("srht", d=64, m=m, seed=2)
        out, peak = traced_peak(lambda: apply(op, a))
        assert peak <= 8 * n * m + 8 * self.PANEL * m + out.nbytes + 2**20


class TestGaussianChunks:
    """The chunked, threaded Gaussian path against the block oracle.

    The oracle is ``(sum_b M[b].T @ _gaussian_block(b).T / sqrt(d)).T``
    over the GEMM blocks of ``_BLOCK_ENTRIES // d`` columns rounded down to
    whole chunks, accumulated in block order into the transposed result;
    the arithmetic is the same, so equality is bitwise.  Most cases shrink
    the block and chunk sizes so their boundaries fall at small m; the
    chunks are the operator's streams, so the oracle's ``_gaussian_block``
    draws on the same grid.
    """

    @staticmethod
    def _oracle(op, x):
        # column-major, as apply's input validation makes it
        x = np.asfortranarray(x, dtype=np.float64)
        out_t = np.zeros((x.shape[1], op.d))
        block = _gaussian_width(op.d)
        for j0 in range(0, op.m, block):
            j1 = min(op.m, j0 + block)
            out_t += x[j0:j1, :].T @ _gaussian_block(op.seed, op.d, j0, j1).T
        return (out_t / math.sqrt(op.d)).T

    @pytest.fixture
    def cap(self, request, monkeypatch):
        # the cap, not the host's CPU count, sets the worker count here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setenv("SPECTRA_RRQR_THREADS", str(request.param))
        return request.param

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        # 7 rows: 30 columns round down to blocks of 28, chunks of 4
        monkeypatch.setattr(sk, "_BLOCK_ENTRIES", 7 * 30)
        monkeypatch.setattr(sk, "_CHUNK", 4)

    @pytest.mark.parametrize("cap", [1, 2, 3], indirect=True)
    @pytest.mark.parametrize(
        # below, at and across chunk (4) and block (28) boundaries, and
        # at the 30 columns that round down to a block
        "m", [7, 8, 9, 12, 27, 28, 29, 30, 31, 33, 56, 57, 60, 61, 97],
    )
    def test_matches_block_oracle(self, cap, small_blocks, m):
        g = rng(m)
        for n in (1, 3):
            op = SketchOperator("gaussian", d=7, m=m, seed=m * 31 + n)
            x = np.asfortranarray(g.standard_normal((m, n)))
            assert np.array_equal(apply(op, x), self._oracle(op, x))

    @pytest.mark.parametrize("cap", [1, 2, 3], indirect=True)
    def test_single_row_operator(self, cap, monkeypatch):
        # d=1: one entry per column, 1000 columns round down to blocks of
        # 960 in chunks of sk._CHUNK (64) columns; m probes the edges of one
        # chunk and of one block, 255-257 end several chunks in, and
        # 999-1001 end a chunk cut short in the second block
        monkeypatch.setattr(sk, "_BLOCK_ENTRIES", 1000)
        g = rng(2)
        chunk = (sk._CHUNK - 1, sk._CHUNK, sk._CHUNK + 1)
        for m in (1, *chunk, 255, 256, 257, 959, 960, 961, 999, 1000, 1001, 2600):
            op = SketchOperator("gaussian", d=1, m=m, seed=m)
            x = g.standard_normal((m, 2))
            assert np.array_equal(apply(op, x), self._oracle(op, x))

    @pytest.mark.parametrize("cap", [1, 2, 3], indirect=True)
    def test_default_partition(self, cap):
        # the shipped sizes: blocks of 1984 columns (31 chunks) at d=2000,
        # so m=4100 has two full blocks, a partial one and a partial last
        # chunk
        g = rng(3)
        op = SketchOperator("gaussian", d=2000, m=4100, seed=9)
        x = np.asfortranarray(g.standard_normal((4100, 2)))
        assert np.array_equal(apply(op, x), self._oracle(op, x))

    @pytest.mark.parametrize("cap", [1, 3], indirect=True)
    def test_memory_order_and_no_mutation(self, cap, small_blocks):
        g = rng(4)
        op = SketchOperator("gaussian", d=7, m=65, seed=4)
        f_in = np.asfortranarray(g.standard_normal((65, 5)))
        c_in = np.ascontiguousarray(f_in)
        ref = self._oracle(op, f_in)
        for x in (f_in, c_in, [list(row) for row in f_in]):
            before = np.array(x, copy=True)
            assert np.array_equal(apply(op, x), ref)
            assert np.array_equal(np.asarray(x), before)

    @pytest.mark.parametrize("cap", [2], indirect=True)
    def test_concurrent_callers(self, cap, small_blocks):
        g = rng(5)
        cases = []
        for i in range(8):
            op = SketchOperator("gaussian", d=7, m=90 + 7 * i, seed=i)
            x = g.standard_normal((op.m, 3))
            cases.append((op, x, self._oracle(op, x)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as callers:
                futs = [callers.submit(apply, op, x) for op, x, _ in cases * 4]
                got = [f.result(timeout=120) for f in futs]
        finally:
            sys.setswitchinterval(interval)
        for (_, _, ref), out in zip(cases * 4, got):
            assert np.array_equal(out, ref)

    @pytest.mark.parametrize("cap", [1, 2], indirect=True)
    def test_worker_error_reaches_caller(self, cap, small_blocks, monkeypatch):
        real = sk._fill_gaussian

        def failing(buf, seed, d, j0, chunks):
            if any(c0 <= 40 < c1 for c0, c1 in chunks):
                raise FloatingPointError("chunk 40 failed")
            real(buf, seed, d, j0, chunks)

        monkeypatch.setattr(sk, "_fill_gaussian", failing)
        op = SketchOperator("gaussian", d=7, m=97, seed=1)
        with pytest.raises(FloatingPointError, match="chunk 40"):
            apply(op, np.ones((97, 2)))
        monkeypatch.setattr(sk, "_fill_gaussian", real)
        x = np.ones((97, 2))
        assert np.array_equal(apply(op, x), self._oracle(op, x))

    @pytest.mark.parametrize("cap", [2], indirect=True)
    def test_pool_threads_are_started(self, cap, small_blocks):
        # positive control for the thread checks below
        op = SketchOperator("gaussian", d=7, m=97, seed=1)
        apply(op, np.ones((97, 2)))
        assert any(t.name.startswith("spectra-rrqr") for t in threading.enumerate())

    def test_import_and_cap_of_one_start_no_thread(self):
        code = (
            "import threading\n"
            "import numpy as np\n"
            "import spectra_rrqr as s\n"
            "print(threading.active_count())\n"
            "op = s.SketchOperator('gaussian', 50, 3000, 1)\n"
            "s.apply(op, np.ones((3000, 2)))\n"
            "s.apply(s.SketchOperator('srht', 300, 4096, 1), np.ones((3000, 100)))\n"
            "print(threading.active_count(), s._threads._pool is None)\n"
        )
        src = Path(sk.__file__).resolve().parents[1]
        env = dict(os.environ, SPECTRA_RRQR_THREADS="1", PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1", "1", "True"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.parametrize("cap", [2], indirect=True)
    def test_forked_child_gets_a_fresh_pool(self, cap, small_blocks):
        import multiprocessing

        op = SketchOperator("gaussian", d=7, m=97, seed=3)
        x = np.ones((97, 2))
        apply(op, x)  # the parent's pool now has threads
        assert _threads._pool is not None
        ref = self._oracle(op, x)

        def child():
            os._exit(0 if np.array_equal(apply(op, x), ref) else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
            pytest.fail("the forked child hung on the inherited pool")
        assert proc.exitcode == 0


class TestGaussianPieces:
    """Each block's product in pieces of ``_PIECE`` input columns.

    The oracle accumulates ``M[b, p].T @ _gaussian_block(b).T`` into the
    transposed result's rows ``p`` over the blocks ``b`` (whole chunks) in
    order and, within each, the pieces ``p``.  Most cases shrink the piece
    width so that n spans several pieces, and report BLAS on one thread,
    where the caller and the pool share the pieces out.
    """

    @staticmethod
    def _oracle(op, x, piece):
        x = np.asfortranarray(x, dtype=np.float64)
        n = x.shape[1]
        out_t = np.zeros((n, op.d))
        block = _gaussian_width(op.d)
        for j0 in range(0, op.m, block):
            j1 = min(op.m, j0 + block)
            blk = _gaussian_block(op.seed, op.d, j0, j1)
            for c0 in range(0, n, piece):
                c1 = min(n, c0 + piece)
                out_t[c0:c1] += x[j0:j1, c0:c1].T @ blk.T
        return (out_t / math.sqrt(op.d)).T

    @pytest.fixture
    def cap(self, request, monkeypatch):
        # the cap, not the host's CPU count, sets the worker count here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setenv("SPECTRA_RRQR_THREADS", str(request.param))
        return request.param

    @pytest.fixture
    def small_pieces(self, monkeypatch):
        # 7 rows: blocks of 28 columns, chunks of 4, pieces of 2 columns
        monkeypatch.setattr(sk, "_BLOCK_ENTRIES", 7 * 30)
        monkeypatch.setattr(sk, "_CHUNK", 4)
        monkeypatch.setattr(sk, "_PIECE", 2)
        monkeypatch.setattr(_threads, "_LAPACK_THREADS", lambda: 1)

    @staticmethod
    def _on_pool():
        return threading.current_thread().name.startswith("spectra-rrqr")

    @pytest.mark.parametrize("cap", [1, 2, 3], indirect=True)
    @pytest.mark.parametrize("m", [7, 28, 29, 30, 31, 57, 61, 97])
    def test_matches_piece_oracle(self, cap, small_pieces, m):
        g = rng(m)
        for n in (3, 4, 5, 8, 9):
            op = SketchOperator("gaussian", d=7, m=m, seed=m * 31 + n)
            x = np.asfortranarray(g.standard_normal((m, n)))
            assert apply(op, x).tobytes() == self._oracle(op, x, 2).tobytes()

    @pytest.mark.parametrize("cap", [1, 2, 3], indirect=True)
    def test_one_piece_is_the_whole_product(self, cap, monkeypatch):
        # n <= _PIECE: one product per block, the single-product oracle's
        monkeypatch.setattr(_threads, "_LAPACK_THREADS", lambda: 1)
        g = rng(11)
        for d, m, n in [(7, 97, 1), (40, 300, 255), (40, 300, 256), (300, 700, 256)]:
            op = SketchOperator("gaussian", d=d, m=m, seed=n)
            x = np.asfortranarray(g.standard_normal((m, n)))
            got = apply(op, x)
            assert got.tobytes() == TestGaussianChunks._oracle(op, x).tobytes()
            assert got.tobytes() == self._oracle(op, x, sk._PIECE).tobytes()

    @pytest.mark.parametrize("cap", [1, 2], indirect=True)
    @pytest.mark.parametrize("threads", [1, 2])
    def test_sketch_is_f_ordered(self, cap, monkeypatch, threads):
        # the transpose of the C-ordered accumulator, in pieces (one BLAS
        # thread, 300 columns) or one product per block: the sketch QR
        # then reduces it in place
        query = None if threads is None else (lambda: threads)
        monkeypatch.setattr(_threads, "_LAPACK_THREADS", query)
        op = SketchOperator("gaussian", d=40, m=300, seed=4)
        x = rng(4).standard_normal((300, 300))
        got = apply(op, x)
        assert got.shape == (40, 300)
        assert got.flags.f_contiguous and not got.flags.c_contiguous
        piece = sk._PIECE if threads == 1 else 300
        assert got.tobytes() == self._oracle(op, x, piece).tobytes()

    @pytest.mark.parametrize("cap", [2], indirect=True)
    @pytest.mark.parametrize("threads, n, workers, pieces", [
        (1, 5, 2, [(0, 2), (2, 4), (4, 5)]),
        (1, 2, 1, [(0, 2)]),
        (2, 5, 1, [(0, 5)]),
        (None, 5, 1, [(0, 5)]),
    ])
    def test_shared_only_when_blas_runs_on_one_thread(self, cap, small_pieces, monkeypatch,
                                                      threads, n, workers, pieces):
        # a threaded BLAS (or an unknown one) already spreads each product
        # over the cores, so the caller multiplies the block in as one
        # piece; one piece is never shared
        query = None if threads is None else (lambda: threads)
        monkeypatch.setattr(_threads, "_LAPACK_THREADS", query)
        real, asked = _threads.share, []

        def spy(work, items, workers, *args):
            items = list(items)
            if work is sk._multiply_pieces:
                asked.append((workers, items))
            real(work, items, workers, *args)

        monkeypatch.setattr(_threads, "share", spy)
        op = SketchOperator("gaussian", d=7, m=61, seed=n)
        x = np.asfortranarray(rng(n).standard_normal((61, n)))
        got = apply(op, x)
        assert asked == [(workers, pieces)] * 3  # one product per block of 28 columns
        piece = 2 if threads == 1 else n
        assert got.tobytes() == self._oracle(op, x, piece).tobytes()

    @pytest.mark.parametrize("cap", [2], indirect=True)
    def test_pool_task_error_reaches_caller(self, cap, small_pieces, monkeypatch):
        # the caller waits until the pool task has taken the first piece
        real, taken = sk._multiply_pieces, threading.Event()

        def failing(out, blk, a, pieces):
            if self._on_pool():
                piece = next(pieces, None)
                taken.set()
                raise FloatingPointError(f"piece {piece} failed")
            taken.wait(timeout=20)
            real(out, blk, a, pieces)

        monkeypatch.setattr(sk, "_multiply_pieces", failing)
        op = SketchOperator("gaussian", d=7, m=61, seed=2)
        x = np.asfortranarray(rng(2).standard_normal((61, 5)))
        with pytest.raises(FloatingPointError, match=r"piece \(0, 2\) failed"):
            apply(op, x)
        monkeypatch.setattr(sk, "_multiply_pieces", real)
        assert apply(op, x).tobytes() == self._oracle(op, x, 2).tobytes()

    @pytest.mark.parametrize("cap", [2], indirect=True)
    def test_no_piece_is_written_after_an_error(self, cap, small_pieces, monkeypatch):
        # the caller fails while the pool task is still multiplying its
        # piece: apply may raise only once that task has stopped writing
        real, taken, written = sk._multiply_pieces, threading.Event(), []

        def slow_or_failing(out, blk, a, pieces):
            if self._on_pool():
                piece = next(pieces)
                taken.set()
                time.sleep(0.3)
                real(out, blk, a, [piece])
                written.append(out)
                return
            taken.wait(timeout=20)
            raise FloatingPointError("the caller's piece failed")

        monkeypatch.setattr(sk, "_multiply_pieces", slow_or_failing)
        op = SketchOperator("gaussian", d=7, m=61, seed=3)
        x = np.asfortranarray(rng(3).standard_normal((61, 5)))
        with pytest.raises(FloatingPointError, match="caller's piece"):
            apply(op, x)
        assert len(written) == 1
        snapshot = written[0].copy()
        time.sleep(0.1)
        assert written[0].tobytes() == snapshot.tobytes()

    def test_caller_multiplies_every_piece_when_no_task_starts(self, small_pieces, monkeypatch,
                                                               stuck_pool):
        # the pool's one thread is blocked, so no task submitted to it runs
        # until the gate opens: the caller must form every piece itself
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setenv("SPECTRA_RRQR_THREADS", "2")
        monkeypatch.setattr(_threads, "pool", lambda workers: stuck_pool)
        op = SketchOperator("gaussian", d=7, m=97, seed=6)
        x = np.asfortranarray(rng(6).standard_normal((97, 5)))
        helper = ThreadPoolExecutor(1)
        try:
            got = helper.submit(apply, op, x).result(timeout=20)
        finally:
            helper.shutdown(wait=False)
        assert got.tobytes() == self._oracle(op, x, 2).tobytes()


class TestGaussianOperator:
    """What fixes the Gaussian operator: its distribution and its bits.

    The oracles above draw from the same generator as the sketch, so only
    the first test here checks that the entries are N(0, 1).
    """

    def test_entries_are_standard_normal(self):
        # 10^6 entries of one seed's operator, 16 chunk streams; each limit
        # is about 5 standard errors at n = 10^6, the KS one the 0.1%
        # critical value
        x = _gaussian_block(2024, 1000, 0, 1000)
        v = x.ravel(order="F")
        n = v.size
        assert abs(v.mean()) < 5 / math.sqrt(n)
        assert abs(v.var() - 1.0) < 5 * math.sqrt(2 / n)
        assert abs(scipy.stats.skew(v)) < 5 * math.sqrt(6 / n)
        assert abs(scipy.stats.kurtosis(v)) < 5 * math.sqrt(24 / n)
        assert scipy.stats.kstest(v, "norm").statistic < 1.95 / math.sqrt(n)
        # neighbouring chunks are distinct streams, not one stream twice
        a, b = x[:, : sk._CHUNK].ravel(), x[:, sk._CHUNK : 2 * sk._CHUNK].ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 5 / math.sqrt(a.size)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    @pytest.mark.parametrize("chunks", [1, 3])
    def test_materialize_is_fixed_by_kind_d_m_seed(self, monkeypatch, cap, chunks):
        # a product with the identity is exact for any blocking, so the
        # dense operator is the entries over sqrt(d) whatever the worker
        # count and the (chunk-aligned) block width
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setenv("SPECTRA_RRQR_THREADS", str(cap))
        d, m = 7, 300
        monkeypatch.setattr(sk, "_BLOCK_ENTRIES", d * chunks * sk._CHUNK)
        assert _gaussian_width(d) == chunks * sk._CHUNK
        op = SketchOperator("gaussian", d=d, m=m, seed=-5)
        want = _gaussian_block(op.seed, d, 0, m) / math.sqrt(d)
        assert materialize(op).tobytes() == want.tobytes()


class TestGaussianOneBuffer:
    """The Gaussian path's one block buffer, filled by the caller and the pool."""

    @staticmethod
    def _cap(monkeypatch, cap):
        # the cap, not the host's CPU count, sets the worker count here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setenv("SPECTRA_RRQR_THREADS", str(cap))

    @pytest.mark.parametrize("cap", [1, 2])
    @pytest.mark.parametrize("d, m, n", [(2000, 4100, 50), (2099, 6000, 500)])
    def test_peak_memory(self, monkeypatch, traced_peak, cap, d, m, n):
        # one d x width block buffer, into which the chunks are drawn with
        # no scratch, the accumulated result, the products of its pieces
        # (d x n in all when they run at once), and 1 MB for the rest
        self._cap(monkeypatch, cap)
        a = np.asfortranarray(rng(8).standard_normal((m, n)))
        op = SketchOperator("gaussian", d=d, m=m, seed=2)
        out, peak = traced_peak(lambda: apply(op, a))
        width = min(m, _gaussian_width(d))
        assert peak <= 8 * d * width + 2 * out.nbytes + 2**20

    def test_caller_fills_the_block_when_no_task_starts(self, monkeypatch, stuck_pool):
        # the pool's one thread is blocked, so no task submitted to it runs
        # until the gate opens: the caller must fill every chunk itself
        self._cap(monkeypatch, 2)
        monkeypatch.setattr(sk, "_BLOCK_ENTRIES", 7 * 30)
        monkeypatch.setattr(sk, "_CHUNK", 4)
        monkeypatch.setattr(_threads, "pool", lambda workers: stuck_pool)
        op = SketchOperator("gaussian", d=7, m=97, seed=6)
        x = np.asfortranarray(rng(6).standard_normal((97, 3)))
        helper = ThreadPoolExecutor(1)
        try:
            got = helper.submit(apply, op, x).result(timeout=20)
        finally:
            helper.shutdown(wait=False)
        assert np.array_equal(got, TestGaussianChunks._oracle(op, x))


@pytest.mark.parametrize("kind", ["srht", "gaussian"])
def test_cancelled_task_holds_no_array(monkeypatch, stuck_pool, kind):
    # a task that never started stays queued behind the pool's blocked
    # thread after apply returns; it must not keep the sketch's z or block
    # buffer (8-10 MB here) alive until a thread reaches it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setenv("SPECTRA_RRQR_THREADS", "2")
    monkeypatch.setattr(_threads, "pool", lambda workers: stuck_pool)
    op = SketchOperator(kind, d=300, m=4096, seed=5)
    a = np.asfortranarray(rng(5).standard_normal((4096, 256)))
    helper = ThreadPoolExecutor(1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = helper.submit(apply, op, a).result(timeout=20)
        held = tracemalloc.get_traced_memory()[0] - base - out.nbytes
    finally:
        tracemalloc.stop()
        helper.shutdown(wait=False)
    assert held < 2**20


class TestWorkerCount:
    def test_cpus_capped_by_env(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.delenv("SPECTRA_RRQR_THREADS", raising=False)
        assert _threads.worker_count(10) == 4
        assert _threads.worker_count(3) == 3
        assert _threads.worker_count(0) == 1
        cases = (("1", 1), ("2", 2), ("16", 4), ("0", 1), (" ", 4), ("-3", 1), (" 2 ", 2))
        for env, want in cases:
            monkeypatch.setenv("SPECTRA_RRQR_THREADS", env)
            assert _threads.worker_count(10) == want

    @pytest.mark.parametrize("env", ["two", "1.5", "+-5", "\u00b2"])
    def test_non_integer_env_names_variable(self, monkeypatch, env):
        monkeypatch.setenv("SPECTRA_RRQR_THREADS", env)
        # "+-5" and "\u00b2" pass a sign-stripped isdigit() but are not integers
        with pytest.raises(ValueError, match="SPECTRA_RRQR_THREADS.*" + re.escape(repr(env))):
            _threads.worker_count(10)

    def test_one_helper(self):
        assert bench.worker_count is _threads.worker_count


class TestDistortion:
    def test_identity_stub_is_exact(self):
        op = SketchOperator("identity", d=16, m=16, seed=0)
        assert embedding_distortion(op, np.eye(16)[:, :5]) == 0.0

    def test_undersized_sketch_reports_one(self):
        op = SketchOperator("gaussian", d=3, m=64, seed=0)
        basis = haar_orthogonal(rng(0), 64, 5)
        assert embedding_distortion(op, basis) == 1.0

    def test_requires_orthonormal_basis(self):
        op = SketchOperator("gaussian", d=8, m=16, seed=0)
        with pytest.raises(ValueError, match="orthonormal"):
            embedding_distortion(op, np.ones((16, 2)))

    def test_certifies_every_vector_in_span(self):
        op = SketchOperator("srht", d=64, m=256, seed=3)
        basis = haar_orthogonal(rng(5), 256, 6)
        eps = embedding_distortion(op, basis)
        g = rng(6)
        for _ in range(200):
            c = g.standard_normal(6)
            c /= np.linalg.norm(c)
            x = basis @ c
            dev = abs(np.linalg.norm(apply(op, x[:, None])) ** 2 - 1.0)
            assert dev <= eps * (1 + 1e-10)

    def test_distortion_shrinks_with_sketch_size(self):
        # at d ~ 10n every seed embeds with distortion below 1; quadrupling
        # d from 4n visibly helps (the 4n regime does not reach 0.5)
        eps_small, eps_big = [], []
        for seed in range(100):
            basis = haar_orthogonal(rng(1000 + seed), 1024, 25)
            for d, out in ((100, eps_small), (256, eps_big)):
                op = SketchOperator("srht", d=d, m=1024, seed=seed)
                out.append(embedding_distortion(op, basis))
        assert sum(e < 1.0 for e in eps_big) >= 95
        assert np.median(eps_big) < np.median(eps_small)


class TestOseDim:
    def test_benchmark_default_value(self):
        # floor(3*500*log(8192)/log(500)) evaluates to 2174 (ratio 2174.94)
        assert ose_dim(500, 8192) == 2174

    def test_clamp_to_m(self):
        assert ose_dim(64, 64) == 64

    def test_floor_guard(self):
        assert ose_dim(1, 2) == 2


class TestSandwiches:
    """Measured-distortion transfer bounds on small instances."""

    def test_singular_value_sandwich(self):
        m = rng(20).standard_normal((256, 12))
        basis = np.linalg.qr(m)[0]
        for seed in range(5):
            op = SketchOperator("srht", d=128, m=256, seed=seed)
            eps = embedding_distortion(op, basis)
            assert eps < 1.0
            quot = singular_values(apply(op, m)) / singular_values(m)
            assert np.all(quot <= math.sqrt(1 + eps) * (1 + 1e-12))
            assert np.all(quot >= math.sqrt(1 - eps) * (1 - 1e-12))

    def test_residual_sandwich(self):
        g = rng(21)
        a = g.standard_normal((64, 6))
        b = g.standard_normal(64)
        basis = np.linalg.qr(np.hstack([a, b[:, None]]))[0]
        op = SketchOperator("srht", d=64, m=64, seed=4)
        eps = embedding_distortion(op, basis)
        assert eps < 1.0
        a_sk, b_sk = apply(op, a), apply(op, b[:, None])[:, 0]
        x_hat = np.linalg.lstsq(a_sk, b_sk, rcond=None)[0]
        sk_resid = np.linalg.norm(a_sk @ x_hat - b_sk)
        true_min = np.linalg.norm(a @ np.linalg.lstsq(a, b, rcond=None)[0] - b)
        assert sk_resid / math.sqrt(1 + eps) <= true_min * (1 + 1e-12)
        assert true_min <= sk_resid / math.sqrt(1 - eps) * (1 + 1e-12)

    def test_angle_sandwich_vectors(self):
        g = rng(22)
        basis = haar_orthogonal(g, 256, 8)
        op = SketchOperator("srht", d=128, m=256, seed=6)
        eps = embedding_distortion(op, basis)
        for _ in range(20):
            v1 = basis @ g.standard_normal(8)
            v2 = basis @ g.standard_normal(8)
            c = cos_angle(v1, v2)
            c_sk = cos_angle(
                apply(op, v1[:, None])[:, 0], apply(op, v2[:, None])[:, 0]
            )
            assert (c - eps) / (1 + eps) - 1e-12 <= c_sk
            assert c_sk <= (c + eps) / (1 - eps) + 1e-12

    def test_angle_sandwich_vector_subspace(self):
        g = rng(23)
        basis = haar_orthogonal(g, 256, 8)
        op = SketchOperator("srht", d=128, m=256, seed=8)
        eps = embedding_distortion(op, basis)
        sub = basis[:, :3]
        for _ in range(20):
            v = basis @ g.standard_normal(8)
            c = cos_angle_subspace(v, sub)
            c_sk = cos_angle_subspace(apply(op, v[:, None])[:, 0], apply(op, sub))
            assert (c - eps) / (1 + eps) - 1e-12 <= c_sk
            assert c_sk <= (c + eps) / (1 - eps) + 1e-12
