import math

import numpy as np
import pytest

from spectra_rrqr import (
    DevilsStairs,
    HC,
    Kahan,
    MatrixSpec,
    PermutationSeq,
    SingularMatrixError,
    SrrqrConfig,
    SrrqrState,
    Stewart,
    TargetRank,
    Tolerance,
    column_norms,
    det_ratio,
    det_ratio_matrix,
    generate,
    interchange,
    partial_qr,
    qrcp,
    rho,
    rho_hat,
    singular_values,
    srrqr,
    srrqr_state,
    swap_budget,
)
from spectra_rrqr.bench import exhaustive_det_ratios
from spectra_rrqr.srrqr import _PANEL


def rng(seed=0):
    return np.random.default_rng(seed)


def diag_embedded(values, rows):
    n = len(values)
    m = np.zeros((rows, n))
    m[np.arange(n), np.arange(n)] = values
    return m


class TestConfig:
    def test_f_must_exceed_one(self):
        with pytest.raises(ValueError, match="exceed 1"):
            SrrqrConfig(f=1.0, mode=TargetRank(2))

    def test_rank_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            SrrqrConfig(f=2.0, mode=TargetRank(0))

    def test_tau_positive(self):
        with pytest.raises(ValueError, match="positive"):
            SrrqrConfig(f=2.0, mode=Tolerance(0.0))

    def test_rank_beyond_min_dim(self):
        with pytest.raises(ValueError, match="exceeds"):
            srrqr(np.eye(3), SrrqrConfig(f=2.0, mode=TargetRank(4)))


class TestDetRatio:
    def test_diagonal_case(self):
        st = srrqr_state(np.diag([2.0, 1.0]), 1)
        assert np.isclose(det_ratio(st, 0, 0), 0.5)

    def test_identity_all_ones(self):
        st = srrqr_state(np.eye(5), 2)
        assert np.allclose(det_ratio_matrix(st), 1.0)

    def test_refactorization_oracle(self):
        m = rng(42).standard_normal((8, 6))
        st = srrqr_state(m, 3)
        oracle = exhaustive_det_ratios(m, 3)
        assert np.allclose(det_ratio_matrix(st), oracle, rtol=1e-8)
        for i in range(3):
            for j in range(3):
                assert np.isclose(det_ratio(st, i, j), oracle[i, j], rtol=1e-8)

    def test_index_validation(self):
        st = srrqr_state(np.eye(4), 2)
        with pytest.raises(IndexError):
            det_ratio(st, 2, 0)
        with pytest.raises(IndexError):
            det_ratio(st, 0, 2)


class TestRho:
    def test_identity(self):
        st = srrqr_state(np.eye(4), 2)
        assert np.isclose(rho(st), 1.0)
        assert np.isclose(rho_hat(st), 1.0)

    def test_diagonal_best_swap(self):
        st = srrqr_state(np.diag([1.0, 2.0, 3.0]), 1)
        assert np.isclose(rho(st), 3.0)

    def test_exhaustive_oracle(self):
        m = rng(7).standard_normal((8, 6))
        st = srrqr_state(m, 3)
        assert np.isclose(rho(st), exhaustive_det_ratios(m, 3).max(), rtol=1e-8)

    def test_rho_hat_brackets_rho(self):
        for seed in range(10):
            m = rng(seed).standard_normal((7, 5))
            st = srrqr_state(m, 2)
            rh, r = rho_hat(st), rho(st)
            assert rh <= r * (1 + 1e-12)
            assert r <= math.sqrt(2.0) * rh * (1 + 1e-12)

    def test_rho_hat_formula(self):
        # the largest coupling entry in magnitude is negative here
        st = srrqr_state(np.array([[1.0, -5.0], [0.0, 0.1]]), 1)
        assert rho_hat(st) == 5.0
        for seed in range(10):
            st = srrqr_state(rng(seed).standard_normal((9, 7)), 3)
            ref = max(np.max(np.abs(st.a)), np.max(st.omega) * np.max(st.gamma))
            assert rho_hat(st) == ref

    def test_full_depth_is_zero(self):
        st = srrqr_state(rng(3).standard_normal((6, 4)), 4)
        assert rho(st) == 0.0
        assert rho_hat(st) == 0.0


class TestInterchange:
    def test_diagonal_swap(self):
        st = srrqr_state(np.diag([1.0, 3.0]), 1)
        out = interchange(st, 0, 0)
        assert np.isclose(out.r[0, 0], 3.0)
        assert out.perm.forward.tolist() == [1, 0]
        assert out.swap_count == 1

    def test_involution(self):
        m = rng(5).standard_normal((8, 6))
        st = srrqr_state(m, 3)
        twice = interchange(interchange(st, 1, 2), 1, 2)
        assert np.array_equal(twice.perm.forward, st.perm.forward)
        assert np.allclose(twice.r, st.r, atol=1e-12)

    def test_matches_fresh_factorization(self):
        m = rng(6).standard_normal((8, 6))
        st = srrqr_state(m, 3)
        for i, j in [(0, 0), (2, 1), (1, 2)]:
            out = interchange(st, i, j)
            fresh = partial_qr(out.perm.apply_cols(m), 3, want_q=False)
            assert np.allclose(out.r[:3, :3], fresh.r11, atol=1e-10)
            assert np.allclose(out.r[:3, 3:], fresh.r12, atol=1e-10)
            assert np.allclose(
                np.linalg.norm(out.r[3:, 3:], axis=0),
                np.linalg.norm(fresh.r22, axis=0),
                atol=1e-10,
            )

    def test_determinant_multiplies_by_ratio(self):
        m = rng(8).standard_normal((9, 7))
        st = srrqr_state(m, 4)
        for i, j in [(0, 1), (3, 2), (2, 0)]:
            ratio = det_ratio(st, i, j)
            before = np.prod(np.abs(np.diag(st.r[:4, :4])))
            st = interchange(st, i, j)
            after = np.prod(np.abs(np.diag(st.r[:4, :4])))
            assert np.isclose(after, ratio * before, rtol=1e-8)

    def test_maintained_quantities_consistent(self):
        m = rng(9).standard_normal((10, 7))
        st = srrqr_state(m, 5)
        for i, j in [(0, 0), (4, 1), (2, 1), (1, 0)]:
            st = interchange(st, i, j)
            assert max(st.consistency_errors().values()) <= 1e-8

    def test_update_modes_agree(self):
        m = rng(10).standard_normal((9, 6))
        inc = srrqr_state(m, 4, update_mode="incremental")
        rec = srrqr_state(m, 4, update_mode="recompute")
        for i, j in [(1, 1), (3, 0), (0, 1), (2, 0)]:
            inc = interchange(inc, i, j)
            rec = interchange(rec, i, j)
        assert np.allclose(inc.r, rec.r, atol=1e-12)
        assert np.allclose(inc.omega, rec.omega, rtol=1e-8)
        assert np.allclose(inc.gamma, rec.gamma, rtol=1e-8, atol=1e-14)
        assert np.allclose(inc.a, rec.a, rtol=1e-8, atol=1e-12)


class TestSrrqr:
    def test_diagonal_target_rank(self):
        res = srrqr(np.diag([1.0, 2.0, 3.0]), SrrqrConfig(f=2.0, mode=TargetRank(2)))
        assert set(res.factorization.perm.forward[:2].tolist()) == {1, 2}
        assert np.allclose(np.diag(res.factorization.r11), [3.0, 2.0])
        assert res.rho <= 1.0 + 1e-12

    def test_identity_tolerance(self):
        res = srrqr(np.eye(4), SrrqrConfig(f=2.0, mode=Tolerance(0.5)))
        assert res.k == 4

    def test_tolerance_cut(self):
        m = diag_embedded([3.0, 2.0, 1e-12], 8)
        res = srrqr(m, SrrqrConfig(f=2.0, mode=Tolerance(1e-6)))
        assert res.k == 2

    def test_kahan_contrast_with_qrcp(self):
        k40 = generate(MatrixSpec(Kahan(n=40, s=0.99)))
        res = srrqr(k40, SrrqrConfig(f=2.0, mode=TargetRank(39)), want_q=False)
        sv_m = singular_values(k40)
        ratio = sv_m[38] / singular_values(res.factorization.r11)[38]
        bound = math.sqrt(1.0 + 4.0 * 39 * 1)
        assert ratio <= bound * (1 + 1e-8)
        fq = qrcp(k40, 39, want_q=False)
        qratio = sv_m[38] / singular_values(fq.r11)[38]
        assert qratio > bound  # greedy pivoting alone blows the bound here

    @pytest.mark.parametrize("seed,f,k", [(0, 1.05, 4), (1, 2.0, 3), (2, 1.2, 5)])
    def test_post_termination_certificate(self, seed, f, k):
        m = rng(seed).standard_normal((9, 7))
        res = srrqr(m, SrrqrConfig(f=f, mode=TargetRank(k)), want_q=False)
        oracle = exhaustive_det_ratios(res.factorization.perm.apply_cols(m), k)
        assert oracle.max() <= f * (1 + 1e-8)
        assert res.rho <= f * (1 + 1e-10)

    def test_swaps_grow_determinant_by_f(self):
        k = generate(MatrixSpec(Kahan(n=32, s=0.92)))
        ratios = []
        res = srrqr(
            k,
            SrrqrConfig(f=1.02, mode=TargetRank(31)),
            want_q=False,
            on_swap=lambda kk, i, j, r: ratios.append(r),
        )
        assert res.swap_count == len(ratios) > 0
        assert all(r >= 1.02 * (1 - 1e-8) for r in ratios)

    def test_swap_count_within_monitored_budget(self):
        k = generate(MatrixSpec(Kahan(n=32, s=0.92)))
        res = srrqr(k, SrrqrConfig(f=1.02, mode=TargetRank(31)), want_q=False)
        # monitored statistic, not a hard contract; the hard cap is 10x this
        assert res.swap_count <= 10.0 * swap_budget(res.k, 32, 1.02)

    def test_reconstruction_with_q(self):
        m = rng(11).standard_normal((8, 6))
        res = srrqr(m, SrrqrConfig(f=1.5, mode=TargetRank(4)))
        assert res.factorization.reconstruction_error(m) <= 1e-12
        q = res.factorization.q
        assert np.max(np.abs(q.T @ q - np.eye(8))) <= 1e-12

    def test_singular_ratio_bounds_random(self):
        m = rng(12).standard_normal((20, 15))
        f, k = 2.0, 7
        res = srrqr(m, SrrqrConfig(f=f, mode=TargetRank(k)), want_q=False)
        sv_m = singular_values(m)
        s11 = singular_values(res.factorization.r11)
        s22 = singular_values(res.factorization.r22)
        bound = math.sqrt(1.0 + f * f * k * (15 - k))
        lead = sv_m[:k] / s11
        trail = s22[: 15 - k] / sv_m[k:]
        assert np.all(lead >= 1 - 1e-8) and np.all(lead <= bound)
        assert np.all(trail >= 1 - 1e-8) and np.all(trail <= bound)
        assert np.max(np.abs(res.state.a)) <= f + 1e-8

    def test_zero_trailing_spectrum_transfers(self):
        # exact rank 3: spectrum beyond the rank must vanish in the trailing block
        g = rng(13)
        m = g.standard_normal((7, 3)) @ g.standard_normal((3, 5))
        res = srrqr(m, SrrqrConfig(f=2.0, mode=TargetRank(2)), want_q=False)
        s22 = singular_values(res.factorization.r22)
        assert np.all(s22[1:] <= 1e-12 * s22[0])

    def test_mode_equivalence(self):
        # tau chosen in the gap between the trailing norms left after 4 and
        # after 5 pivots reproduces the rank-5 run exactly
        m = rng(14).standard_normal((12, 8)) @ np.diag(2.0 ** -np.arange(8))
        after4 = srrqr(m, SrrqrConfig(f=2.0, mode=TargetRank(4)), want_q=False)
        after5 = srrqr(m, SrrqrConfig(f=2.0, mode=TargetRank(5)), want_q=False)
        g4 = np.max(after4.state.gamma)
        g5 = np.max(after5.state.gamma)
        assert g5 < g4
        by_tol = srrqr(
            m, SrrqrConfig(f=2.0, mode=Tolerance(math.sqrt(g4 * g5))), want_q=False
        )
        assert by_tol.k == 5
        assert np.array_equal(
            by_tol.factorization.perm.forward, after5.factorization.perm.forward
        )

    def test_rank_beyond_numerical_rank_raises(self):
        m = diag_embedded([3.0, 2.0, 0.0, 0.0], 6)
        with pytest.raises(SingularMatrixError, match="step 3"):
            srrqr(m, SrrqrConfig(f=2.0, mode=TargetRank(3)))

    def test_update_modes_agree_end_to_end(self):
        for seed, mat in [
            (0, rng(0).standard_normal((10, 8))),
            (1, generate(MatrixSpec(Kahan(n=24, s=0.9)))),
        ]:
            a = srrqr(mat, SrrqrConfig(f=1.05, mode=TargetRank(6)), want_q=False)
            b = srrqr(
                mat,
                SrrqrConfig(f=1.05, mode=TargetRank(6)),
                want_q=False,
                update_mode="recompute",
            )
            assert np.array_equal(
                a.factorization.perm.forward, b.factorization.perm.forward
            )
            assert np.allclose(a.state.r, b.state.r, atol=1e-10)
            assert max(a.state.consistency_errors().values()) <= 1e-8

    def test_wide_matrix_tolerance_terminates(self):
        m = rng(15).standard_normal((4, 9))
        res = srrqr(m, SrrqrConfig(f=2.0, mode=Tolerance(1e-14)), want_q=False)
        assert res.k == 4
        assert res.rho == 0.0 or res.rho <= 2.0


def _growing_state(m) -> SrrqrState:
    """Fresh state of ``m`` that grows through ``_advance`` with no forced flush."""
    a = np.asarray(m, dtype=float)
    return SrrqrState(
        r=a.copy(),
        perm=PermutationSeq.identity(a.shape[1]),
        k=0,
        omega=np.zeros(0),
        gamma=column_norms(a),
        a=np.zeros((0, a.shape[1])),
        q=np.eye(a.shape[0]),
    )


def _true_trailing(st: SrrqrState) -> np.ndarray:
    """Trailing block with the pending updates applied; ``st`` is not touched."""
    k, p = st.k, st._pending
    return st.r[k:, k:] - st._v[k:, :p] @ st._f[k:, :p].T


def _same_decisions(a, b):
    assert a.k == b.k
    assert a.swap_count == b.swap_count
    assert np.array_equal(a.factorization.perm.forward, b.factorization.perm.forward)


class TestDeferredGrowth:
    """Growth with the trailing-block updates deferred over a panel."""

    def test_crosses_panel_boundaries(self):
        m = rng(20).standard_normal((150, 110))
        k = 3 * _PANEL + 4
        cfg = SrrqrConfig(f=1.5, mode=TargetRank(k))
        res = srrqr(m, cfg)
        oracle = srrqr(m, cfg, update_mode="recompute")
        _same_decisions(res, oracle)
        assert res.state._pending == 0
        assert np.allclose(res.state.r, oracle.state.r, atol=1e-11)
        assert res.factorization.reconstruction_error(m) <= 1e-12
        q = res.factorization.q
        assert np.max(np.abs(q.T @ q - np.eye(150))) <= 1e-12
        assert max(res.state.consistency_errors().values()) <= 1e-8

    def test_mid_panel_invariant(self):
        m = rng(21).standard_normal((90, 80))
        st = _growing_state(m)
        for step in range(1, 2 * _PANEL + 6):
            st._advance()
            assert st._pending == step % _PANEL
            ref = srrqr_state(m, step, update_mode="recompute")
            # pivot rows and leading columns are final, the rest is stale
            assert np.allclose(st.r[:step], ref.r[:step], atol=1e-12)
            assert np.allclose(_true_trailing(st), ref.r[step:, step:], atol=1e-12)
            assert np.allclose(st.gamma, ref.gamma, rtol=1e-10, atol=1e-14)
            assert np.allclose(st.a, ref.a, rtol=1e-10, atol=1e-12)
            assert np.allclose(st.omega, ref.omega, rtol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interchange_fires_mid_panel(self, seed, monkeypatch):
        m = generate(MatrixSpec(Stewart(m=256, n=96, q=0.8), seed=seed))
        cfg = SrrqrConfig(f=1.1, mode=Tolerance(1e-10))
        oracle = srrqr(m, cfg, want_q=False, update_mode="recompute")
        pending = []
        core = SrrqrState._interchange_core

        def spy(state, i, j):
            pending.append(state._pending)
            core(state, i, j)

        monkeypatch.setattr(SrrqrState, "_interchange_core", spy)
        res = srrqr(m, cfg, want_q=False)
        assert res.swap_count > 0
        assert any(p > 0 for p in pending)
        _same_decisions(res, oracle)
        assert abs(res.rho - oracle.rho) <= 1e-8 * oracle.rho
        assert max(res.state.consistency_errors().values()) <= 1e-8

    def test_bad_downdate_recomputed_while_pending(self):
        # on the flat stairs a column loses more than half its norm at every
        # stair edge, so the downdate falls back to recomputation
        m = generate(MatrixSpec(DevilsStairs(m=200, n=120, stair_len=25), seed=1))
        st = _growing_state(m)
        recomputed_with_pending = 0
        for _ in range(100):
            j = int(np.argmax(st.gamma))
            st._swap_trailing(j)
            st.perm.swap(st.k, st.k + j)
            before = st._pending
            old_tail = st.gamma[1:].copy()
            st._advance()
            c2 = st.r[st.k - 1, st.k :]
            if before and np.any(old_tail**2 - c2**2 < 0.5 * old_tail**2):
                recomputed_with_pending += 1
            norms = np.linalg.norm(_true_trailing(st), axis=0)
            assert np.allclose(st.gamma, norms, rtol=1e-10, atol=1e-14 * norms.max())
        assert recomputed_with_pending > 0
        assert st._pending > 0
        assert max(st.copy().consistency_errors().values()) <= 1e-8

    @pytest.mark.parametrize(
        "shape,mode",
        [
            ((30, 30), TargetRank(30)),
            ((40, 25), Tolerance(1e-14)),
            ((20, 35), Tolerance(1e-14)),
            ((70, 70), TargetRank(70)),
            ((6, 1), TargetRank(1)),
        ],
    )
    def test_last_step_with_empty_trailing_block(self, shape, mode):
        m = rng(22).standard_normal(shape)
        cfg = SrrqrConfig(f=2.0, mode=mode)
        res = srrqr(m, cfg)
        oracle = srrqr(m, cfg, update_mode="recompute")
        _same_decisions(res, oracle)
        assert res.k == min(shape)
        assert res.factorization.reconstruction_error(m) <= 1e-12
        st = srrqr_state(m, min(shape))
        assert st.a.shape == (min(shape), shape[1] - min(shape))

    def test_returned_states_are_flushed(self):
        m = rng(23).standard_normal((60, 50))
        k = _PANEL + 7
        st = srrqr_state(m, k)
        ref = srrqr_state(m, k, update_mode="recompute")
        assert st._pending == 0
        assert np.allclose(st.r, ref.r, atol=1e-12)
        assert max(st.consistency_errors().values()) <= 1e-10

        grown = _growing_state(m)
        for _ in range(k):
            grown._advance()
        assert grown._pending == 7
        true = _true_trailing(grown).copy()
        dup = grown.copy()
        for state in (grown, dup):
            assert state._pending == 0
            assert np.allclose(state.r[k:, k:], true, atol=1e-13)
            assert np.allclose(state.r, ref.r, atol=1e-12)

        grown = _growing_state(m)
        for _ in range(k):
            grown._advance()
        assert max(grown.consistency_errors().values()) <= 1e-10
        assert grown._pending == 0

        for i, j in [(3, 5), (k - 1, 0), (0, 50 - k - 1)]:
            grown = _growing_state(m)
            for _ in range(k):
                grown._advance()
            out = interchange(grown, i, j)
            want = interchange(ref, i, j)
            assert np.allclose(out.r, want.r, atol=1e-11)
            assert max(out.consistency_errors().values()) <= 1e-8

    @pytest.mark.parametrize(
        "spec,f,mode",
        [
            (DevilsStairs(m=200, n=120, stair_len=25), 2.0, Tolerance(1e-10)),
            (DevilsStairs(m=160, n=100, stair_len=20), 1.1, TargetRank(70)),
            # 1e-10 is itself an HC singular value, so tau sits off the grid
            (HC(m=200, n=120), 2.0, Tolerance(3e-10)),
            (HC(m=150, n=90), 2.0, TargetRank(60)),
            (Kahan(n=100, s=0.99), 1.02, TargetRank(99)),
            (Kahan(n=32, s=0.92), 1.02, TargetRank(31)),
            (Stewart(m=200, n=100, q=0.8), 1.1, Tolerance(1e-10)),
            (Stewart(m=300, n=120, q=0.85), 1.1, TargetRank(90)),
        ],
    )
    def test_decisions_match_recompute(self, spec, f, mode):
        m = generate(MatrixSpec(spec, seed=3))
        cfg = SrrqrConfig(f=f, mode=mode)
        res = srrqr(m, cfg, want_q=False)
        oracle = srrqr(m, cfg, want_q=False, update_mode="recompute")
        _same_decisions(res, oracle)
        assert np.allclose(res.state.r, oracle.state.r, atol=1e-12)
        # rho reads inv(R11), whose condition reaches 1e9 on the stairs, so
        # it carries that multiple of the roundoff in R
        assert abs(res.rho - oracle.rho) <= 1e-6 * max(oracle.rho, 1.0)


class TestQrcp:
    def test_diagonal_pivot_order(self):
        fact = qrcp(np.diag([1.0, 2.0, 3.0]), 3)
        assert fact.perm.forward.tolist() == [2, 1, 0]
        assert np.allclose(np.diag(fact.r11), [3.0, 2.0, 1.0])

    def test_kahan_never_swaps(self):
        k = generate(MatrixSpec(Kahan(n=64, s=0.99)))
        fact = qrcp(k, 64, want_q=False)
        assert np.array_equal(fact.perm.forward, np.arange(64))
        # factor equals the matrix itself up to reflector signs
        assert np.allclose(fact.r11, k, atol=1e-12)

    def test_monotone_diagonal(self):
        m = rng(16).standard_normal((8, 5))
        fact = qrcp(m, 5, want_q=False)
        d = np.diag(fact.r11)
        assert np.all(d >= 0.0)
        assert np.all(np.diff(d) <= 1e-14)

    def test_reconstruction(self):
        m = rng(17).standard_normal((9, 6))
        fact = qrcp(m, 4)
        assert fact.reconstruction_error(m) <= 1e-12
