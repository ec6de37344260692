import json
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_rrqr import (
    SketchConfig,
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
from spectra_rrqr import bench
from spectra_rrqr.sketch import _gaussian_block


def rng(seed=0):
    return np.random.default_rng(seed)


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
        # counter-based generation: splitting the column range anywhere
        # yields the same operator entries
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


class TestGaussianChunks:
    """The chunked, threaded Gaussian path against the block oracle.

    The oracle is ``sum_b _gaussian_block(b) @ M[b] / sqrt(d)`` over the
    GEMM blocks of ``_BLOCK_ENTRIES // d`` columns, accumulated in block
    order; the arithmetic is unchanged, so equality is bitwise.  Most cases
    shrink the block and chunk sizes so their boundaries fall at small m.
    """

    @staticmethod
    def _oracle(op, x):
        # column-major, as apply's input validation makes it
        x = np.asfortranarray(x, dtype=np.float64)
        out = np.zeros((op.d, x.shape[1]))
        block = max(1, sk._BLOCK_ENTRIES // op.d)
        for j0 in range(0, op.m, block):
            j1 = min(op.m, j0 + block)
            out += _gaussian_block(op.seed, op.d, j0, j1) @ x[j0:j1, :]
        return out / math.sqrt(op.d)

    @pytest.fixture
    def cap(self, request, monkeypatch):
        # the cap, not the host's CPU count, sets the worker count here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setenv("SPECTRA_RRQR_THREADS", str(request.param))
        return request.param

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        # 7 rows: blocks of 30 columns, chunks of 4
        monkeypatch.setattr(sk, "_BLOCK_ENTRIES", 7 * 30)
        monkeypatch.setattr(sk, "_CHUNK", 4)

    @pytest.mark.parametrize("cap", [1, 2, 3], indirect=True)
    @pytest.mark.parametrize(
        # below, at and across chunk (4) and block (30) boundaries
        "m", [7, 8, 9, 12, 29, 30, 31, 33, 60, 61, 97],
    )
    def test_matches_block_oracle(self, cap, small_blocks, m):
        g = rng(m)
        for n in (1, 3):
            op = SketchOperator("gaussian", d=7, m=m, seed=m * 31 + n)
            x = np.asfortranarray(g.standard_normal((m, n)))
            assert np.array_equal(apply(op, x), self._oracle(op, x))

    @pytest.mark.parametrize("cap", [1, 2, 3], indirect=True)
    def test_single_row_operator(self, cap, monkeypatch):
        # d=1: one entry per column, block and chunk sizes 1000 and 256
        monkeypatch.setattr(sk, "_BLOCK_ENTRIES", 1000)
        g = rng(2)
        for m in (1, 255, 256, 257, 999, 1000, 1001, 2600):
            op = SketchOperator("gaussian", d=1, m=m, seed=m)
            x = g.standard_normal((m, 2))
            assert np.array_equal(apply(op, x), self._oracle(op, x))

    @pytest.mark.parametrize("cap", [1, 2, 3], indirect=True)
    def test_default_partition(self, cap):
        # the shipped sizes: blocks of 2000 columns at d=2000, so m=4100
        # has two full blocks, a partial one and a partial last chunk
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
        assert any(t.name.startswith("spectra-sketch") for t in threading.enumerate())

    def test_import_and_cap_of_one_start_no_thread(self):
        code = (
            "import threading\n"
            "import numpy as np\n"
            "import spectra_rrqr as s\n"
            "print(threading.active_count())\n"
            "op = s.SketchOperator('gaussian', 50, 3000, 1)\n"
            "s.apply(op, np.ones((3000, 2)))\n"
            "print(threading.active_count(), s.sketch._pool is None)\n"
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
        assert sk._pool is not None
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


class TestWorkerCount:
    def test_cpus_capped_by_env(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.delenv("SPECTRA_RRQR_THREADS", raising=False)
        assert sk.worker_count(10) == 4
        assert sk.worker_count(3) == 3
        assert sk.worker_count(0) == 1
        for env, want in (("1", 1), ("2", 2), ("16", 4), ("0", 1), (" ", 4)):
            monkeypatch.setenv("SPECTRA_RRQR_THREADS", env)
            assert sk.worker_count(10) == want

    def test_non_integer_env_names_variable(self, monkeypatch):
        monkeypatch.setenv("SPECTRA_RRQR_THREADS", "two")
        with pytest.raises(ValueError, match="SPECTRA_RRQR_THREADS.*'two'"):
            sk.worker_count(10)

    def test_one_helper(self):
        assert bench.worker_count is sk.worker_count


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
        assert ose_dim(0.25, 0.1, 500, 8192) == 2174

    def test_clamp_to_m(self):
        assert ose_dim(0.25, 0.1, 64, 64) == 64

    def test_floor_guard(self):
        assert ose_dim(0.25, 0.1, 1, 2) == 2

    def test_theory_policies(self):
        g = ose_dim(0.5, 0.1, 20, 4096, kind="gaussian", policy="theory")
        s = ose_dim(0.5, 0.1, 20, 4096, kind="srht", policy="theory")
        assert g >= 21 and s >= 21
        assert (
            ose_dim(0.5, 0.1, 20, 4096, kind="srht", policy="theory", constant=2.0)
            >= s
        )

    def test_theory_srht_value(self):
        # 0.5**-2 * (20 + log(4096 / 0.1)) * log(20 / 0.1) = 648.9
        assert ose_dim(0.5, 0.1, 20, 4096, kind="srht", policy="theory") == 649

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            ose_dim(0.25, 0.1, 8, 64, policy="magic")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SketchConfig(epsilon=1.5, delta=0.1, subspace_dim=4, d=16)
        with pytest.raises(ValueError):
            SketchConfig(epsilon=0.5, delta=0.0, subspace_dim=4, d=16)


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
