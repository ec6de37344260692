import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from spectra_rrqr import (
    SketchOperator,
    SrrqrConfig,
    SrrqrResult,
    TargetRank,
    Tolerance,
    apply,
    embedding_distortion,
    export_json,
    export_record,
    f_tilde_from,
    generate,
    haar_orthogonal,
    ose_dim,
    pad_rows_pow2,
    qlp_values,
    qrcp,
    rand_srrqr_rank,
    rand_srrqr_tol,
    ratio_report,
    singular_values,
    srrqr,
)
from spectra_rrqr import MatrixSpec, HC, Stewart, partial_qr, thin_qr
from spectra_rrqr import _threads, dense_core, rand_srrqr, sketch
from spectra_rrqr.bench import RECORD_KEYS, RunConfig, run_factor
from spectra_rrqr.dense_core import _stable_partial_qr, as_matrix, r_factor

from oracles import exhaustive_det_ratios, swap_subspace_distortion


def _spare_core(monkeypatch, cap="2", lapack_threads=1, aspect=4):
    """Eight CPUs, the given cap and LAPACK thread count (None: a LAPACK
    with no thread query), and a worker for inputs of at least ``aspect``
    rows per column (None: the library's), so that small inputs reach it:
    by default a 300x70 input is reduced on a worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    query = None if lapack_threads is None else (lambda: lapack_threads)
    monkeypatch.setattr(_threads, "_LAPACK_THREADS", query)
    if aspect is not None:
        monkeypatch.setattr(rand_srrqr, "_OVERLAP_ASPECT", aspect)
    monkeypatch.setenv("SPECTRA_RRQR_THREADS", cap)


def _reductions(monkeypatch):
    """The worker counts the pool is asked for from outside
    :func:`_threads.share`, recorded from here on: the sketch's pieces
    share the pool and are left out; any other request, such as the
    reduction of M, is counted."""
    asked, sharing = [], threading.local()
    real_pool, real_share = _threads.pool, _threads.share

    def pool(workers):
        if not getattr(sharing, "on", False):
            asked.append(workers)
        return real_pool(workers)

    def share(*args):
        sharing.on = True
        try:
            real_share(*args)
        finally:
            sharing.on = False

    monkeypatch.setattr(_threads, "pool", pool)
    monkeypatch.setattr(_threads, "share", share)
    return asked


# the package exports the function srrqr under the module's name
srrqr_module = importlib.import_module("spectra_rrqr.srrqr")


def rng(seed=0):
    return np.random.default_rng(seed)


def diag_embedded(values, rows):
    n = len(values)
    m = np.zeros((rows, n))
    m[np.arange(n), np.arange(n)] = values
    return m


class TestRankMode:
    def test_matches_deterministic_selection_on_gapped_diagonal(self):
        m = diag_embedded([1.0, 2.0, 3.0], 8)
        hits = 0
        for seed in range(100):
            res = rand_srrqr_rank(m, f=2.0, k=2, d=8, seed=seed, kind="gaussian")
            if set(res.factorization.perm.forward[:2].tolist()) == {1, 2}:
                hits += 1
        assert hits >= 95

    def test_orthonormal_columns_exact_ratios(self):
        m = haar_orthogonal(rng(1), 128, 10)
        res = rand_srrqr_rank(m, f=2.0, k=4, d=64, seed=0)
        rep = ratio_report(m, res)
        assert np.allclose(rep.leading_ratios, 1.0, atol=1e-8)

    def test_permutation_comes_from_sketch(self):
        m = rng(2).standard_normal((64, 12))
        res = rand_srrqr_rank(m, f=2.0, k=5, d=48, seed=3)
        assert np.array_equal(
            res.factorization.perm.forward,
            res.sketch_result.factorization.perm.forward,
        )

    def test_permutation_provenance_reproducible(self):
        # rebuilding the sketch from (kind, d, m, seed) and rerunning the
        # deterministic factorization reproduces the permutation exactly
        m = rng(3).standard_normal((64, 12))
        res = rand_srrqr_rank(m, f=2.0, k=5, d=48, seed=7)
        op = SketchOperator(kind="srht", d=48, m=64, seed=7)
        msk = apply(op, pad_rows_pow2(m))
        again = srrqr(msk, SrrqrConfig(f=2.0, mode=TargetRank(5)), want_q=False)
        assert np.array_equal(
            again.factorization.perm.forward, res.factorization.perm.forward
        )

    def test_k_validation(self):
        m = rng(4).standard_normal((16, 8))
        with pytest.raises(ValueError, match="out of range"):
            rand_srrqr_rank(m, f=2.0, k=9, d=16, seed=0)

    def test_d_smaller_than_k(self):
        m = rng(5).standard_normal((16, 8))
        with pytest.raises(ValueError, match="smaller than the target rank"):
            rand_srrqr_rank(m, f=2.0, k=6, d=4, seed=0)

    def test_d_must_be_an_integer(self):
        m = rng(5).standard_normal((64, 8))
        with pytest.raises(ValueError, match="must be integers"):
            rand_srrqr_rank(m, f=2.0, k=3, d=40.5, seed=0)

    def test_d_is_not_a_bool(self):
        # rejected by the operator, not by numpy's sampler inside the sketch
        m = rng(5).standard_normal((64, 8))
        with pytest.raises(ValueError, match="must be integers, got d=True"):
            rand_srrqr_rank(m, f=2.0, k=1, d=True, kind="gaussian")

    @pytest.mark.parametrize("kind", ["gaussian", "srht"])
    def test_seed_is_not_truncated(self, kind):
        # int(1.5) would have run, and reported, seed 1
        m = rng(5).standard_normal((64, 8))
        with pytest.raises(ValueError, match=r"seed must be an integer, got 1\.5"):
            rand_srrqr_rank(m, f=2.0, k=3, seed=1.5, kind=kind)
        assert rand_srrqr_rank(m, f=2.0, k=3, seed=np.int64(7), kind=kind).seed == 7

    def test_d_exceeding_rows(self):
        m = rng(6).standard_normal((16, 8))
        with pytest.raises(ValueError, match="exceeds padded"):
            rand_srrqr_rank(m, f=2.0, k=4, d=32, seed=0)

    def test_distortion_measured_at_desk_scale(self):
        m = rng(8).standard_normal((64, 12))
        res = rand_srrqr_rank(m, f=2.0, k=4, d=48, seed=0)
        assert res.distortion_is_measured
        assert res.f_tilde == f_tilde_from(res.distortion, 2.0)
        assert res.f_tilde > 2.0

    def test_reconstruction(self):
        m = rng(9).standard_normal((64, 12))
        res = rand_srrqr_rank(m, f=2.0, k=5, d=48, seed=1)
        assert res.factorization.reconstruction_error(m) <= 1e-12

    def test_rank_beyond_sketch_rank_raises(self):
        # zero columns sketch to exact zeros, so the pivot norms underflow
        from spectra_rrqr import SingularMatrixError

        m = np.zeros((16, 4))
        m[0, 0], m[1, 1] = 3.0, 2.0
        with pytest.raises(SingularMatrixError, match="step 3"):
            rand_srrqr_rank(m, f=2.0, k=3, d=16, seed=0)


class TestSketchReduction:
    """Pivoting on the sketch's R factor makes the sketch's own decisions."""

    @pytest.mark.parametrize("mode", [TargetRank(20), Tolerance(0.03)])
    def test_triangle_keeps_every_decision(self, mode):
        sk = generate(MatrixSpec(Stewart(m=256, n=48), seed=0))
        config = SrrqrConfig(f=1.1, mode=mode)
        tall = srrqr(sk, config, want_q=False)
        tri = srrqr(r_factor(sk), config, want_q=False)
        assert tri.state.r.shape == (48, 48)
        assert tall.swap_count > 0 and 0 < tall.k < 48
        assert tri.k == tall.k
        assert tri.swap_count == tall.swap_count
        assert np.array_equal(
            tri.factorization.perm.forward, tall.factorization.perm.forward
        )
        assert tri.rho == pytest.approx(tall.rho, rel=1e-10)

    def test_tall_sketch_is_reduced(self):
        m = rng(3).standard_normal((64, 12))
        res = rand_srrqr_rank(m, f=2.0, k=5, d=48, seed=7)
        assert res.sketch_result.state.r.shape == (12, 12)

    @pytest.mark.parametrize("kind, in_place", [("gaussian", True), ("srht", False)])
    def test_gaussian_sketch_is_reduced_without_a_copy(self, monkeypatch, kind, in_place):
        # the Gaussian sketch comes back F-ordered, so its R factor is formed
        # in place on the array the sketch returned; the SRHT's C-ordered
        # sketch is copied once
        made, reduced = [], []
        real_apply, real_r = rand_srrqr.apply, rand_srrqr._r_factor

        def sketch_spy(op, a):
            made.append(real_apply(op, a))
            return made[-1]

        def r_spy(a, overwrite=False):
            reduced.append(a)
            return real_r(a, overwrite)

        monkeypatch.setattr(rand_srrqr, "apply", sketch_spy)
        monkeypatch.setattr(rand_srrqr, "_r_factor", r_spy)
        m = rng(4).standard_normal((300, 20))
        rand_srrqr_rank(m, f=2.0, k=5, d=60, seed=3, kind=kind)
        assert len(made) == 1 and len(reduced) == 1
        assert np.shares_memory(made[0], reduced[0]) is in_place

    def test_wide_sketch_passes_through(self):
        m = rng(3).standard_normal((64, 12))
        res = rand_srrqr_rank(m, f=2.0, k=5, d=8, seed=7)
        op = SketchOperator(kind="srht", d=8, m=64, seed=7)
        msk = apply(op, pad_rows_pow2(m))
        again = srrqr(msk, SrrqrConfig(f=2.0, mode=TargetRank(5)), want_q=False)
        assert res.sketch_result.state.r.shape == (8, 12)
        assert np.array_equal(res.sketch_result.state.r, again.state.r)
        assert np.array_equal(
            res.factorization.perm.forward, again.factorization.perm.forward
        )


class TestValidatedOnce:
    """A randomized call scans its input for non-finite entries once.

    70 columns is above the distortion measurement limit, so the only
    arrays of the input's (or the padded) row count are the pipeline's own.
    """

    ROWS, COLS = 300, 70

    def _pipeline(self, call, kind, rows=ROWS):
        a = np.asfortranarray(rng(11).standard_normal((rows, self.COLS)))
        if call == "tol":
            return a, rand_srrqr_tol(a, 2.0, 1e-8, seed=4, kind=kind, want_q=False)
        return a, rand_srrqr_rank(a, 2.0, 30, seed=4, kind=kind, want_q=True)

    @pytest.mark.parametrize("kind", ["srht", "gaussian"])
    @pytest.mark.parametrize("call", ["tol", "rank"])
    def test_input_scanned_once(self, monkeypatch, kind, call):
        seen = []
        real = dense_core.as_matrix

        def spy(data, **kw):
            out = real(data, **kw)
            seen.append(out.shape)
            return out

        for mod in (dense_core, sketch, rand_srrqr, srrqr_module):
            monkeypatch.setattr(mod, "as_matrix", spy)
        self._pipeline(call, kind)
        full = [s for s in seen if s[0] in (self.ROWS, 512) and s[1] == self.COLS]
        assert full == [(self.ROWS, self.COLS)]

    @pytest.mark.parametrize("kind", ["srht", "gaussian"])
    @pytest.mark.parametrize("call", ["tol", "rank"])
    def test_same_as_public_stages(self, monkeypatch, kind, call):
        # the unchecked, in-place stages give bitwise what the public
        # functions give on the same data; reduced on a worker, the tall
        # input is finished as the QR of its own R factor with the
        # sketch's permutation
        _spare_core(monkeypatch)
        a, res = self._pipeline(call, kind)
        before = a.copy()
        padded = pad_rows_pow2(a) if kind == "srht" else a
        op = SketchOperator(kind=kind, d=res.d, m=padded.shape[0], seed=4)
        mode = Tolerance(1e-8) if call == "tol" else TargetRank(30)
        sk = srrqr(r_factor(apply(op, padded)), SrrqrConfig(f=2.0, mode=mode), want_q=False)
        perm = sk.factorization.perm.forward
        assert np.array_equal(res.factorization.perm.forward, perm)
        assert res.sketch_result.swap_count == sk.swap_count
        fact = partial_qr(r_factor(a)[:, perm], res.k, want_q=call == "rank")
        for name in ("r11", "r12", "r22"):
            assert np.array_equal(getattr(res.factorization, name), getattr(fact, name))
        assert res.factorization.shape == a.shape
        if call == "rank":
            # Q = Q_M [S Q_2; 0]: Q_M the reflectors of M's own QR, S the
            # row signs that made r_factor's diagonal nonnegative
            f_m, t_m = dense_core._geqrt(a)
            c = np.zeros(a.shape, order="F")
            c[: self.COLS] = fact.q * dense_core._diag_signs(f_m[: self.COLS])[:, None]
            assert np.array_equal(res.factorization.q, dense_core._apply_q(f_m, t_m, c))
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("kind", ["srht", "gaussian"])
    @pytest.mark.parametrize("call", ["tol", "rank"])
    def test_agrees_with_qr_of_permuted_input(self, monkeypatch, kind, call):
        # finishing on R_M P instead of M P moves the factors by roundoff only
        _spare_core(monkeypatch)
        a, res = self._pipeline(call, kind)
        fact = res.factorization
        ref = _stable_partial_qr(as_matrix(a[:, fact.perm.forward]), res.k)
        tol = 1e-13 * np.linalg.norm(a)
        for name in ("r11", "r12", "r22"):
            assert np.linalg.norm(getattr(fact, name) - getattr(ref, name)) <= tol
        if call == "rank":
            assert fact.q.shape == ref.q.shape
            assert np.linalg.norm(fact.q - ref.q) <= 1e-13 * self.COLS
            assert fact.reconstruction_error(a) <= 1e-14

    def _no_worker(self, monkeypatch, call, kind, rows=ROWS):
        # the pipeline's result, and that the pool was asked for no worker
        asked = _reductions(monkeypatch)
        a, res = self._pipeline(call, kind, rows)
        assert asked == []
        return a, res

    @pytest.mark.parametrize("kind", ["srht", "gaussian"])
    @pytest.mark.parametrize("call", ["tol", "rank"])
    @pytest.mark.parametrize(
        "cap, lapack_threads", [("1", 1), ("8", 2), ("8", None)],
        ids=["cap", "threaded", "unknown"],
    )
    def test_no_spare_core_reduces_in_the_caller(
        self, monkeypatch, kind, call, cap, lapack_threads
    ):
        # with a cap of 1, or a LAPACK that is threaded or not known to be
        # single-threaded, the pool is not asked for a worker and the
        # calling thread reduces M itself: bitwise the factors of a run
        # that reduces M on a worker
        _spare_core(monkeypatch, cap, lapack_threads)
        _, res = self._no_worker(monkeypatch, call, kind)
        _spare_core(monkeypatch)
        _, overlapped = self._pipeline(call, kind)
        fact, ref = res.factorization, overlapped.factorization
        assert np.array_equal(fact.perm.forward, ref.perm.forward)
        assert fact.perm.swaps == ref.perm.swaps and res.k == overlapped.k
        for name in ("r11", "r12", "r22"):
            assert np.array_equal(getattr(fact, name), getattr(ref, name))
        if call == "rank":
            assert np.array_equal(fact.q, ref.q)

    @pytest.mark.parametrize("kind", ["srht", "gaussian"])
    @pytest.mark.parametrize("call", ["tol", "rank"])
    @pytest.mark.parametrize(
        "rows, aspect", [(250, 4), (ROWS, None)], ids=["short", "below-10-rows-per-column"]
    )
    def test_no_spare_core_factors_m_p(self, monkeypatch, kind, call, rows, aspect):
        # an M with too few rows per column is not reduced, even with a core
        # to spare: M P is factored as it is, bitwise its QR
        _spare_core(monkeypatch, "8", 1, aspect)
        a, res = self._no_worker(monkeypatch, call, kind, rows)
        fact = res.factorization
        ref = _stable_partial_qr(as_matrix(a[:, fact.perm.forward]), res.k, want_q=call == "rank")
        for name in ("r11", "r12", "r22"):
            assert np.array_equal(getattr(fact, name), getattr(ref, name))
        if call == "rank":
            assert np.array_equal(fact.q, ref.q)

    @pytest.mark.parametrize("cols", [12, COLS])
    def test_srht_never_pads(self, monkeypatch, cols):
        # the SRHT sketches the 300-row input as it is; 12 columns also
        # measure the distortion on the unpadded range basis
        def refuse(_):
            raise AssertionError("the randomized pipeline padded its input")

        for mod in (sketch, rand_srrqr):
            monkeypatch.setattr(mod, "pad_rows_pow2", refuse)
        a = rng(12).standard_normal((self.ROWS, cols))
        tol = rand_srrqr_tol(a, 2.0, 1e-8, seed=4)
        rank = rand_srrqr_rank(a, 2.0, 10, seed=4)
        assert tol.k == min(self.ROWS, cols) and rank.k == 10
        assert tol.distortion_is_measured == (cols == 12)

    def test_public_functions_keep_their_checks(self):
        bad = np.ones((16, 3))
        bad[5, 1] = np.nan
        op = SketchOperator(kind="gaussian", d=4, m=16, seed=0)
        for call in (
            lambda: apply(op, bad),
            lambda: pad_rows_pow2(bad),
            lambda: partial_qr(bad, 2),
            lambda: partial_qr(bad, 2, want_q=False),
            lambda: r_factor(bad),
            lambda: thin_qr(bad),
            lambda: rand_srrqr_tol(bad, 2.0, 1e-8),
            lambda: rand_srrqr_rank(bad, 2.0, 2, kind="gaussian"),
        ):
            with pytest.raises(ValueError, match="non-finite"):
                call()


class TestOverlappedReduction:
    """A tall M is reduced to its R on the worker pool during the pivoting."""

    @pytest.fixture
    def spare_core(self, monkeypatch):
        # the cap, not the host's CPU count or its LAPACK threads, sets the
        # worker count here
        _spare_core(monkeypatch)

    @staticmethod
    def _call(call, kind, want_q, shape=(300, 40)):
        # graded columns in shuffled order, so that the permutation moves
        # them: with P = I, the QRs of M P and of R_M P are both bitwise R_M
        grades = 2.0 ** -rng(22).permutation(shape[1])
        a = np.asfortranarray(rng(21).standard_normal(shape) * grades)
        if call == "tol":
            return rand_srrqr_tol(a, 2.0, 1e-6, seed=3, kind=kind, want_q=want_q)
        return rand_srrqr_rank(a, 2.0, 25, seed=3, kind=kind, want_q=want_q)

    @pytest.mark.parametrize("want_q", [True, False])
    @pytest.mark.parametrize("kind", ["srht", "gaussian"])
    @pytest.mark.parametrize("call", ["tol", "rank"])
    def test_bitwise_same_for_every_cap(self, monkeypatch, call, kind, want_q):
        # M is reduced on every path, on a worker or, with a cap of 1, in
        # the calling thread: at most 64 columns for its range basis, above
        # that for its rows per column, 4 under the test gate (300x70) and
        # 10 under the library's (800x70)
        for shape, aspect in (((300, 40), 4), ((300, 70), 4), ((800, 70), None)):
            # each shape starts from the library's gate
            monkeypatch.undo()
            _spare_core(monkeypatch, aspect=aspect)
            results = []
            for cap in ("1", "2", "8"):
                monkeypatch.setenv("SPECTRA_RRQR_THREADS", cap)
                results.append(self._call(call, kind, want_q, shape).factorization)
            first = results[0]
            assert first.shape == shape and (first.q is None) != want_q
            for fact in results[1:]:
                assert np.array_equal(fact.perm.forward, first.perm.forward)
                assert fact.perm.swaps == first.perm.swaps and fact.k == first.k
                for name in ("r11", "r12", "r22"):
                    assert np.array_equal(getattr(fact, name), getattr(first, name))
                if want_q:
                    assert np.array_equal(fact.q, first.q)

    def test_cap_of_one_starts_no_thread(self):
        code = (
            "import threading\n"
            "import numpy as np\n"
            "import spectra_rrqr as s\n"
            "g = np.random.default_rng(0)\n"
            "for a in (g.standard_normal((3000, 20)), g.standard_normal((1000, 70))):\n"
            "    for kind in ('srht', 'gaussian'):\n"
            "        s.rand_srrqr_tol(a, 2.0, 1e-8, kind=kind)\n"
            "        s.rand_srrqr_rank(a, 2.0, 5, kind=kind, want_q=False)\n"
            "print(threading.active_count(), s._threads._pool is None)\n"
        )
        src = Path(rand_srrqr.__file__).resolve().parents[1]
        env = dict(os.environ, SPECTRA_RRQR_THREADS="1", PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1", "True"]

    @pytest.mark.parametrize("cap", ["1", "2"])
    def test_range_basis_read_off_the_reduction(self, monkeypatch, spare_core, cap):
        # the measured distortion needs no second QR of the m-row input
        monkeypatch.setenv("SPECTRA_RRQR_THREADS", cap)
        shapes = []
        real = scipy.linalg.qr

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "qr", spy)
        # rank 12 of 40 columns, so the basis is cut at its numerical rank
        g = rng(23)
        a = g.standard_normal((300, 12)) @ g.standard_normal((12, 40))
        res = rand_srrqr_rank(a, 2.0, 10, seed=5)
        assert shapes == [(40, 40)]
        op = SketchOperator(kind="srht", d=res.d, m=512, seed=5)
        assert res.distortion_is_measured
        assert res.distortion == pytest.approx(
            embedding_distortion(op, dense_core._range_basis(a)), abs=1e-12
        )

    @pytest.mark.parametrize("cap", ["1", "2"])
    def test_distortion_measured_before_q(self, monkeypatch, spare_core, traced_peak, cap):
        # R_M's reflectors, the range basis with its sketch's scratch and Q
        # are never all held at once: 4.87x M's bytes when they were
        monkeypatch.setenv("SPECTRA_RRQR_THREADS", cap)
        m = np.asfortranarray(rng(33).standard_normal((4096, 64)))
        res, peak = traced_peak(lambda: rand_srrqr_rank(m, 2.0, 32, seed=1))
        assert res.distortion_is_measured and res.factorization.q.shape == m.shape
        assert peak <= 4 * m.nbytes

    def test_wait_for_the_reduction_is_its_own_stage(self, monkeypatch, spare_core):
        # a worker that takes 0.5 s: the pivoting hides a few ms of it, and
        # the rest is the wait, reported apart from the 40x40 final QR
        real = rand_srrqr._geqrt

        def slow(a, overwrite=False):
            time.sleep(0.5)
            return real(a, overwrite)

        monkeypatch.setattr(rand_srrqr, "_geqrt", slow)
        timings = self._call("rank", "srht", True).timings_ms
        assert list(timings) == ["sketch", "srrqr_sketch", "reduce_m", "final_qr", "distortion"]
        assert timings["reduce_m"] >= 250 > timings["final_qr"]

    @pytest.mark.parametrize("cap", ["1", "2"])
    def test_failed_pivoting_joins_the_reduction(self, monkeypatch, spare_core, cap):
        monkeypatch.setenv("SPECTRA_RRQR_THREADS", cap)
        events = []
        real = rand_srrqr._geqrt

        def slow(a, overwrite=False):
            events.append("start")
            time.sleep(0.2)
            out = real(a, overwrite)
            events.append("end")
            return out

        monkeypatch.setattr(rand_srrqr, "_geqrt", slow)
        a = rng(22).standard_normal((300, 40))
        with pytest.raises(ValueError, match="tolerance exceeds every sketched column norm"):
            rand_srrqr_tol(a, 2.0, 1e3 * np.linalg.norm(a), seed=0)
        # a started reduction has finished; run inline it is never started
        assert events == (["start", "end"] if cap == "2" else [])


@pytest.mark.parametrize("one", [True, False], ids=["one-blas-thread", "threaded-blas"])
def test_one_predicate_decides_every_site(monkeypatch, one):
    # the one thread query behind _threads.one_blas_thread moves all three
    # sites: the worker that reduces M, the Gaussian product's pieces and
    # the QR's GIL
    _spare_core(monkeypatch, lapack_threads=1 if one else 2)
    qrs = []
    for name in ("_DGEQRT", "_DGEQRT_GIL"):
        real = getattr(dense_core, name)
        monkeypatch.setattr(
            dense_core, name, lambda *a, real=real, name=name: qrs.append(name) or real(*a)
        )
    asked = _reductions(monkeypatch)
    rand_srrqr_tol(rng(21).standard_normal((300, 70)), 2.0, 1e-8, seed=4)
    assert asked == ([2] if one else [])
    assert set(qrs) == {"_DGEQRT" if one else "_DGEQRT_GIL"}

    products, real_share = [], _threads.share

    def spy(work, items, workers, *args):
        items = list(items)
        if work is sketch._multiply_pieces:
            products.append((workers, items))
        real_share(work, items, workers, *args)

    monkeypatch.setattr(_threads, "share", spy)
    n = sketch._PIECE + 44
    apply(SketchOperator("gaussian", d=40, m=300, seed=4), rng(4).standard_normal((300, n)))
    # one block of 300 operator columns: two pieces on two workers, or one product
    assert products == ([(2, [(0, 256), (256, n)])] if one else [(1, [(0, n)])])

    qrs.clear()
    dense_core._geqrt(rng(3).standard_normal((30, 10)))
    assert qrs == ["_DGEQRT" if one else "_DGEQRT_GIL"]


class TestToleranceMode:
    def test_gapped_diagonal(self):
        m = diag_embedded([3.0, 2.0, 1e-12], 8)
        res = rand_srrqr_tol(m, f=2.0, tau=1e-6, d=8, seed=1)
        assert res.k == 2

    def test_trailing_norms_within_inflated_tolerance(self):
        m = rng(10).standard_normal((250, 16)) @ np.diag(4.0 ** -np.arange(16))
        tau = 1e-4
        for seed in range(5):
            res = rand_srrqr_tol(m, f=2.0, tau=tau, seed=seed)
            assert res.distortion_is_measured and res.distortion < 1.0
            gam = np.linalg.norm(res.factorization.r22, axis=0)
            limit = tau / math.sqrt(1.0 - res.distortion)
            assert np.max(gam, initial=0.0) <= limit * (1 + 1e-10)
            frob = np.linalg.norm(res.factorization.r22)
            n_k = m.shape[1] - res.k
            assert frob <= math.sqrt(n_k / (1.0 - res.distortion)) * tau * (1 + 1e-10)

    def test_per_column_and_frobenius_sandwiches(self):
        m = rng(11).standard_normal((250, 16)) @ np.diag(3.0 ** -np.arange(16))
        for seed in range(5):
            res = rand_srrqr_tol(m, f=2.0, tau=1e-4, seed=seed)
            eps = res.distortion
            assert eps < 1.0
            g_m = np.linalg.norm(res.factorization.r22, axis=0) ** 2
            g_sk = res.sketch_result.state.gamma**2
            assert np.all(g_m >= g_sk / (1 + eps) * (1 - 1e-10))
            assert np.all(g_m <= g_sk / (1 - eps) * (1 + 1e-10))
            assert np.sum(g_m) >= np.sum(g_sk) / (1 + eps) * (1 - 1e-10)
            assert np.sum(g_m) <= np.sum(g_sk) / (1 - eps) * (1 + 1e-10)

    def test_tiny_tau_rejected(self):
        m = rng(12).standard_normal((16, 4))
        with pytest.raises(ValueError, match="representable"):
            rand_srrqr_tol(m, f=2.0, tau=1e-320, d=16, seed=0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("algo", ["srrqr", "rand_srrqr_tol"])
    def test_non_positive_tau_same_error(self, algo, tau):
        # a tau that is not positive is named as such by both algorithms,
        # before the randomized one checks it against the scale of m
        m = rng(12).standard_normal((16, 4))
        with pytest.raises(ValueError, match=re.escape(f"tolerance must be positive, got {tau}")):
            if algo == "srrqr":
                srrqr(m, SrrqrConfig(f=2.0, mode=Tolerance(tau)))
            else:
                rand_srrqr_tol(m, f=2.0, tau=tau, d=16, seed=0)


class TestCertificates:
    def test_exhaustive_posthoc_bound(self):
        # every single-swap volume ratio of the factorization of M stays
        # under the threshold inflated by the swap-subspace distortion
        for seed in range(5):
            m = rng(100 + seed).standard_normal((64, 12))
            res = rand_srrqr_rank(m, f=2.0, k=6, d=48, seed=seed)
            op = SketchOperator(kind="srht", d=48, m=64, seed=seed)
            eps = swap_subspace_distortion(
                op, pad_rows_pow2(m), res.factorization.perm, 6
            )
            ft = f_tilde_from(eps, 2.0)
            oracle = exhaustive_det_ratios(res.factorization.perm.apply_cols(m), 6)
            assert oracle.max() <= ft * (1 + 1e-6)

    def test_ratio_report_bounds(self):
        m = rng(13).standard_normal((128, 10))
        res = rand_srrqr_rank(m, f=2.0, k=5, d=128, seed=2)
        rep = ratio_report(m, res)
        assert res.distortion < 1.0
        assert rep.bound == math.sqrt(1.0 + res.f_tilde**2 * 5 * 5)
        defined = rep.trailing_ratios[rep.defined_trailing]
        assert np.all(rep.leading_ratios >= 1 - 1e-8)
        assert np.all(defined >= 1 - 1e-8)
        assert np.all(rep.leading_ratios <= rep.bound)
        assert np.all(defined <= rep.bound)
        assert rep.a_max <= res.f_tilde

    def test_ratio_report_needs_a_threshold(self):
        # a bare QRCP result has no f: no bound, rather than a NaN one
        m = rng(13).standard_normal((40, 10))
        with pytest.raises(ValueError, match="threshold f"):
            ratio_report(m, SrrqrResult(qrcp(m, 5), 5))

    def test_trailing_ratio_undefined_flagging(self):
        g = rng(14)
        m = g.standard_normal((32, 4)) @ g.standard_normal((4, 8))
        res = rand_srrqr_rank(m, f=2.0, k=3, d=32, seed=0)
        rep = ratio_report(m, res)
        assert rep.trailing_ratios.size == 5
        assert np.isnan(rep.trailing_ratios[1:]).all()
        assert rep.defined_trailing[0]


class TestQlp:
    def test_diagonal_matrix(self):
        m = diag_embedded([5.0, 3.0, 1.0], 8)
        res = rand_srrqr_rank(m, f=2.0, k=3, d=8, seed=0, kind="gaussian")
        q = qlp_values(res)
        assert np.allclose(q.l_values_sorted, [5.0, 3.0, 1.0], atol=1e-12)
        assert np.allclose(q.r_values_sorted, [5.0, 3.0, 1.0], atol=1e-12)

    def test_rank_one(self):
        g = rng(15)
        u = g.standard_normal(32)
        u /= np.linalg.norm(u)
        v = g.standard_normal(6)
        v /= np.linalg.norm(v)
        res = rand_srrqr_rank(np.outer(u, v), f=2.0, k=2, d=32, seed=3)
        q = qlp_values(res)
        assert np.isclose(q.l_values_sorted[0], 1.0, atol=1e-10)
        assert np.all(q.l_values_sorted[1:] <= 1e-12)

    def test_l_values_beat_r_values(self):
        wins = 0
        for seed in range(100):
            m = np.random.default_rng(2000 + seed).standard_normal((64, 16))
            res = rand_srrqr_rank(m, f=2.0, k=16, d=64, seed=seed)
            q = qlp_values(res)
            sv = singular_values(m)
            err_l = np.max(np.abs(q.l_values_sorted - sv) / sv)
            err_r = np.max(np.abs(q.r_values_sorted - sv) / sv)
            wins += err_l <= err_r
        assert wins >= 80

    def test_lengths(self):
        m = rng(16).standard_normal((64, 12))
        res = rand_srrqr_rank(m, f=2.0, k=7, d=48, seed=0)
        q = qlp_values(res)
        assert len(q.l_values) == len(q.r_values) == 7


class TestExport:
    def test_record_schema(self):
        m = rng(17).standard_normal((64, 12))
        res = rand_srrqr_rank(m, f=2.0, k=4, d=48, seed=5)
        rec = export_record(res, ratio_report(m, res), qlp_values(res))
        assert sorted(rec.keys()) == [
            "algo",
            "bound",
            "d",
            "epsilon_measured",
            "epsilon_nominal",
            "f",
            "f_tilde",
            "k",
            "kind",
            "l_values",
            "r_values",
            "ratios",
            "rho",
            "seed",
            "stop_reason",
            "swap_count",
            "timings_ms",
        ]
        assert rec["k"] == 4 and rec["seed"] == 5 and rec["kind"] == "srht"
        assert rec["epsilon_measured"] is not None
        parsed = json.loads(export_json(res, ratio_report(m, res)))
        assert parsed["d"] == 48

    def test_every_algorithm_exports_every_key(self):
        m = rng(20).standard_normal((64, 12))
        results = {
            "srrqr-rank": srrqr(m, SrrqrConfig(2.0, TargetRank(4)), want_q=False),
            "srrqr-tau": srrqr(m, SrrqrConfig(2.0, Tolerance(1e-8)), want_q=False),
            "qrcp": SrrqrResult(qrcp(m, 4), 4),
            "rand-rank": rand_srrqr_rank(m, 2.0, 4, d=48, want_q=False),
            "rand-tau": rand_srrqr_tol(m, 2.0, 1e-8, d=48, want_q=False),
        }
        for name, res in results.items():
            rec = export_record(res)
            assert list(rec) == list(RECORD_KEYS), name
            assert rec["algo"] is None, name
            assert (rec["rho"], rec["stop_reason"]) == (res.rho, res.stop_reason), name
            json.dumps(rec)

    def test_numpy_integer_arguments_export(self):
        # seed and d are stored as Python ints, which json can write
        m = rng(17).standard_normal((64, 12))
        for kw in ({"seed": np.int64(3)}, {"d": np.int64(48)}):
            res = rand_srrqr_rank(m, 2.0, 4, want_q=False, **kw)
            assert type(res.seed) is int and type(res.d) is int
            rec = json.loads(export_json(res))
            assert (rec["seed"], rec["d"]) == (res.seed, res.d)

    def test_nan_ratios_become_null(self):
        g = rng(18)
        m = g.standard_normal((32, 3)) @ g.standard_normal((3, 6))
        res = rand_srrqr_rank(m, f=2.0, k=2, d=32, seed=0)
        rec = export_record(res, ratio_report(m, res))
        assert any(x is None for x in rec["ratios"]["trailing"])
        json.dumps(rec)

    def test_non_finite_numbers_are_null(self):
        # a zero column makes R11 singular, so a leading ratio is inf
        m = rng(21).standard_normal((20, 6))
        m[:, 2] = 0.0
        res = SrrqrResult(qrcp(m, 6), 6, f=2.0)
        report = ratio_report(m, res)
        assert np.isinf(report.leading_ratios).any()

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        rec = json.loads(export_json(res, report), parse_constant=reject)
        lead = rec["ratios"]["leading"]
        assert lead == [None if np.isinf(x) else float(x) for x in report.leading_ratios]

    def test_minimal_record(self):
        m = rng(19).standard_normal((64, 8))
        res = rand_srrqr_rank(m, f=2.0, k=3, d=32, seed=1, want_q=False)
        rec = export_record(res)
        assert rec["ratios"] is None and rec["l_values"] is None
        assert "sketch" in rec["timings_ms"]


class TestNominalDistortion:
    """Above ``_MEASURE_LIMIT`` columns the reported eps is the nominal one."""

    @pytest.mark.parametrize("algo", ["rand-rank", "rand-tau"])
    def test_nominal_eps_is_labelled(self, algo):
        assert rand_srrqr._MEASURE_LIMIT < 70
        m = rng(24).standard_normal((300, 70))
        if algo == "rand-rank":
            res = rand_srrqr_rank(m, f=2.0, k=30, seed=0, want_q=False)
        else:
            res = rand_srrqr_tol(m, f=2.0, tau=1e-8, seed=0, want_q=False)
        assert res.distortion_is_measured is False
        assert res.distortion == rand_srrqr._NOMINAL_EPS
        assert res.f_tilde == f_tilde_from(rand_srrqr._NOMINAL_EPS, 2.0)
        rec = export_record(res)
        assert rec["epsilon_measured"] is None
        assert rec["epsilon_nominal"] == 0.25
        mode = {"k": 30} if algo == "rand-rank" else {"tau": 1e-8}
        (rec,) = run_factor(RunConfig(matrix="random:300x70", algo=algo, **mode))
        assert rec["epsilon_measured"] is None
        assert rec["epsilon_nominal"] == 0.25
        assert rec["f_tilde"] == f_tilde_from(0.25, 2.0)


def test_settable_parameters():
    # every parameter a caller can set on the public entry points; a new
    # knob shows up as an edit here
    pinned = {
        srrqr: ("m", "config", "want_q", "on_swap"),
        qrcp: ("m", "k", "want_q"),
        partial_qr: ("m", "k", "want_q"),
        rand_srrqr_rank: ("m", "f", "k", "d", "seed", "kind", "want_q"),
        rand_srrqr_tol: ("m", "f", "tau", "d", "seed", "kind", "want_q"),
        ose_dim: ("subspace_dim", "m"),
    }
    for func, names in pinned.items():
        assert tuple(inspect.signature(func).parameters) == names, func.__name__


class TestSwapSubspaceDistortion:
    def test_identity_operator_is_exact(self):
        m = rng(20).standard_normal((16, 6))
        res = rand_srrqr_rank(m, f=2.0, k=3, d=16, seed=0, kind="gaussian")
        iop = SketchOperator("identity", d=16, m=16, seed=0)
        assert swap_subspace_distortion(iop, m, res.factorization.perm, 3) <= 1e-12

    def test_no_larger_than_range_distortion(self):
        m = rng(21).standard_normal((128, 10))
        res = rand_srrqr_rank(m, f=2.0, k=5, d=100, seed=4)
        op = SketchOperator("srht", d=100, m=128, seed=4)
        eps_swap = swap_subspace_distortion(op, m, res.factorization.perm, 5)
        assert eps_swap <= res.distortion * (1 + 1e-10)


class TestRealSpectrumFixture:
    def test_hc_small_analogue_rank(self):
        m = generate(MatrixSpec(HC(m=256, n=32), seed=0))
        ks = {rand_srrqr_tol(m, f=2.0, tau=1e-8, seed=s).k for s in range(5)}
        # prescribed spectrum crosses 1e-8 between index 17 and 18
        sigma = np.concatenate(([100.0, 10.0], np.logspace(-2, -14, 30)))
        expected = int(np.sum(sigma > 1e-8))
        assert ks <= {expected - 1, expected, expected + 1}
