import importlib
import json
import math

import numpy as np
import pytest

from spectra_rrqr import (
    SketchOperator,
    SrrqrConfig,
    TargetRank,
    Tolerance,
    apply,
    export_json,
    export_record,
    f_tilde_from,
    generate,
    haar_orthogonal,
    pad_rows_pow2,
    qlp_values,
    rand_srrqr_rank,
    rand_srrqr_tol,
    ratio_report,
    singular_values,
    srrqr,
)
from spectra_rrqr import MatrixSpec, HC, Stewart, stable_partial_qr, thin_qr
from spectra_rrqr import dense_core, rand_srrqr, sketch
from spectra_rrqr.bench import exhaustive_det_ratios
from spectra_rrqr.dense_core import r_factor
from spectra_rrqr.rand_srrqr import swap_subspace_distortion

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

    def test_d_exceeding_rows(self):
        m = rng(6).standard_normal((16, 8))
        with pytest.raises(ValueError, match="exceeds padded"):
            rand_srrqr_rank(m, f=2.0, k=4, d=32, seed=0)

    def test_sizing_policies(self):
        m = rng(7).standard_normal((128, 8))
        r1 = rand_srrqr_rank(m, f=2.0, k=3, seed=0, sizing="range")
        r2 = rand_srrqr_rank(m, f=2.0, k=3, seed=0, sizing="kplus1")
        assert r2.d <= r1.d
        with pytest.raises(ValueError, match="sizing"):
            rand_srrqr_rank(m, f=2.0, k=3, seed=0, sizing="bogus")
        with pytest.raises(ValueError, match="sizing"):
            rand_srrqr_rank(m, 2.0, 5, d=48, sizing="bogus")

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

    def _pipeline(self, call, kind):
        a = np.asfortranarray(rng(11).standard_normal((self.ROWS, self.COLS)))
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
    def test_same_as_public_stages(self, kind, call):
        # the unchecked, in-place stages give bitwise what the public
        # functions give on the same data
        a, res = self._pipeline(call, kind)
        before = a.copy()
        padded = pad_rows_pow2(a) if kind == "srht" else a
        op = SketchOperator(kind=kind, d=res.d, m=padded.shape[0], seed=4)
        mode = Tolerance(1e-8) if call == "tol" else TargetRank(30)
        sk = srrqr(r_factor(apply(op, padded)), SrrqrConfig(f=2.0, mode=mode), want_q=False)
        perm = sk.factorization.perm.forward
        assert np.array_equal(res.factorization.perm.forward, perm)
        assert res.sketch_result.swap_count == sk.swap_count
        fact = stable_partial_qr(a[:, perm], res.k, want_q=call == "rank")
        for name in ("r11", "r12", "r22"):
            assert np.array_equal(getattr(res.factorization, name), getattr(fact, name))
        if call == "rank":
            assert np.array_equal(res.factorization.q, fact.q)
        assert np.array_equal(a, before)

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
            lambda: stable_partial_qr(bad, 2),
            lambda: stable_partial_qr(bad, 2, want_q=False),
            lambda: r_factor(bad),
            lambda: thin_qr(bad),
            lambda: rand_srrqr_tol(bad, 2.0, 1e-8),
            lambda: rand_srrqr_rank(bad, 2.0, 2, kind="gaussian"),
        ):
            with pytest.raises(ValueError, match="non-finite"):
                call()


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
            "seed",
            "swap_count",
            "timings_ms",
        ]
        assert rec["k"] == 4 and rec["seed"] == 5 and rec["kind"] == "srht"
        assert rec["epsilon_measured"] is not None
        parsed = json.loads(export_json(res, ratio_report(m, res)))
        assert parsed["d"] == 48

    def test_nan_ratios_become_null(self):
        g = rng(18)
        m = g.standard_normal((32, 3)) @ g.standard_normal((3, 6))
        res = rand_srrqr_rank(m, f=2.0, k=2, d=32, seed=0)
        rec = export_record(res, ratio_report(m, res))
        assert any(x is None for x in rec["ratios"]["trailing"])
        json.dumps(rec)

    def test_minimal_record(self):
        m = rng(19).standard_normal((64, 8))
        res = rand_srrqr_rank(m, f=2.0, k=3, d=32, seed=1, want_q=False)
        rec = export_record(res)
        assert rec["ratios"] is None and rec["l_values"] is None
        assert "sketch" in rec["timings_ms"]


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
