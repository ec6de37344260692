import dataclasses
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

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
    rand_srrqr_rank,
    rand_srrqr_tol,
    rho,
    rho_hat,
    singular_values,
    srrqr,
    srrqr_state,
    swap_budget,
)
from spectra_rrqr.dense_core import PartialQR, _r_factor, as_matrix
from spectra_rrqr.srrqr import (
    _DOWNDATE_TOL,
    SrrqrResult,
    _drive,
    _first_swap,
    _fresh_state,
    _rho_hat_at_most,
    swap_ratios,
)

from oracles import (
    ReferenceState,
    exhaustive_det_ratios,
    reference_drive,
    reference_first_swap,
)

# ranks the benchmark's swap-det pool must reproduce; read, never written
REFERENCE_K = Path(__file__).resolve().parents[1] / "perfbench" / "reference_k.json"


def _swap_det_pool():
    """(key, m, n, q, seed) for every pool seed of both reference keys.

    The full-size swap-det key has bare seed ids, its ``--smoke`` tier
    ``smoke-`` ones.
    """
    ref = json.loads(REFERENCE_K.read_text())
    for key, m, n, q, prefix in [
        ("stewart:2048x256:q=0.8", 2048, 256, 0.8, ""),
        ("stewart:1024x128:q=0.6", 1024, 128, 0.6, "smoke-"),
    ]:
        for s in sorted(ref[key]["k"], key=int):
            yield pytest.param(key, m, n, q, int(s), id=f"{prefix}{s}")


def rng(seed=0):
    return np.random.default_rng(seed)


class _RecomputeState(SrrqrState):
    """Test oracle: rebuilds omega, gamma and ``a`` after every structural step.

    The incremental updates still run (the parent's methods), then
    :meth:`SrrqrState.recomputed` overwrites what they produced, so ``r``
    and every decision read off the state come from exact quantities.
    """

    def _recompute(self) -> None:
        self.omega, self.gamma, self.a = self.recomputed()
        self._gamma2_floor = _DOWNDATE_TOL * self.gamma**2

    def _advance(self) -> None:
        super()._advance()
        self._recompute()

    def _interchange_core(self, i: int, j: int) -> None:
        super()._interchange_core(i, j)
        self._recompute()


def _recompute_state(m, k: int = 0) -> _RecomputeState:
    """The oracle's state after k unpivoted growth steps of ``m``."""
    a = as_matrix(m)
    st = _RecomputeState(
        r=a.copy(),
        perm=PermutationSeq.identity(a.shape[1]),
        k=0,
        omega=np.zeros(0),
        gamma=column_norms(a),
        a=np.zeros((0, a.shape[1])),
    )
    for _ in range(k):
        st._advance()
    return st


def _recompute_srrqr(m, cfg: SrrqrConfig) -> SrrqrResult:
    """``srrqr(m, cfg, want_q=False)`` with the oracle driven by ``_drive``."""
    st = _recompute_state(m)
    reason = _drive(st, cfg)
    fact = PartialQR.from_r(None, st.r, st.k, st.perm.copy(), np.shape(m)[0])
    return SrrqrResult(fact, st.k, rho(st), st.swap_count, cfg.f, reason, st)


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

    def test_rank_must_be_integer(self):
        # a fractional target rank would let the driver grow to its ceiling
        with pytest.raises(ValueError, match="not an integer"):
            SrrqrConfig(f=2.0, mode=TargetRank(2.5))
        res = srrqr(np.eye(4), SrrqrConfig(f=2.0, mode=TargetRank(np.int64(3))))
        assert res.k == 3

    def test_rank_is_not_a_bool(self):
        for k in (True, False):
            with pytest.raises(ValueError, match=f"target rank {k} is not an integer"):
                SrrqrConfig(f=2.0, mode=TargetRank(k))


RANK_CALLS = {
    "qrcp": qrcp,
    "partial_qr": partial_qr,
    "srrqr_state": srrqr_state,
    "rand_srrqr_rank": lambda m, k: rand_srrqr_rank(m, 2.0, k, want_q=False),
}


@pytest.mark.parametrize("call", RANK_CALLS.values(), ids=RANK_CALLS.keys())
def test_rank_argument_is_an_integer(call):
    m = rng(7).standard_normal((16, 6))
    for k in (2.5, 2.0):
        with pytest.raises(ValueError, match="not an integer"):
            call(m, k)
    for k, text in ((0, "k=0 out of range"), (7, "k=7 out of range for a 16x6 matrix")):
        with pytest.raises(ValueError, match=text):
            call(m, k)
    assert call(m, np.int32(3)).k == 3


@pytest.mark.parametrize("call", RANK_CALLS.values(), ids=RANK_CALLS.keys())
def test_rank_argument_is_not_a_bool(call):
    # bool is an int subclass: True would run as k = 1
    m = rng(7).standard_normal((16, 6))
    for k in (True, False):
        with pytest.raises(ValueError, match=f"k={k} is not an integer"):
            call(m, k)


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

    @pytest.mark.parametrize("name, index", [("omega", 1), ("gamma", 0), ("a", (0, 1))])
    def test_nan_term_is_nan(self, name, index):
        # Python's max() drops a NaN that is not its first argument
        st = srrqr_state(rng(2).standard_normal((7, 5)), 2)
        getattr(st, name)[index] = np.nan
        assert math.isnan(rho_hat(st))
        # the early exit never takes a NaN state for a certified one
        assert not _rho_hat_at_most(st.omega, st.gamma, st.a, math.inf)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=hst.data(), k=hst.integers(0, 4), t=hst.integers(0, 4))
    def test_early_exit_is_rho_hat_at_most(self, data, k, t):
        norms = hst.floats(0.0, 1e6)
        omega = data.draw(hnp.arrays(np.float64, k, elements=norms))
        gamma = data.draw(hnp.arrays(np.float64, t, elements=norms))
        a = data.draw(hnp.arrays(np.float64, (k, t), elements=hst.floats(-1e6, 1e6)))
        st = SrrqrState(
            r=np.zeros((k + t, k + t)), perm=PermutationSeq.identity(k + t),
            k=k, omega=omega, gamma=gamma, a=a,
        )
        # bounds equal to a term test the ties
        terms = [0.0, *np.abs(a).ravel()]
        if k and t:
            terms.append(np.max(omega) * np.max(gamma))
        bound = data.draw(hst.one_of(hst.floats(-1.0, 2e12), hst.sampled_from(terms)))
        assert _rho_hat_at_most(st.omega, st.gamma, st.a, bound) == (rho_hat(st) <= bound)


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
        inc = srrqr_state(m, 4)
        rec = _recompute_state(m, 4)
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
        assert q.shape == (8, 6)
        assert np.max(np.abs(q.T @ q - np.eye(6))) <= 1e-12

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
            b = _recompute_srrqr(mat, SrrqrConfig(f=1.05, mode=TargetRank(6)))
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


class TestStopReason:
    """``_drive`` says why it stopped, and ``srrqr`` passes the reason on."""

    @pytest.mark.parametrize(
        "m,mode,k,reason",
        [
            (diag_embedded([3.0, 2.0, 1e-12], 8), Tolerance(1e-6), 2, "tolerance"),
            (rng(30).standard_normal((7, 4)), Tolerance(1e3), 0, "tolerance"),
            (np.diag([1.0, 2.0, 3.0]), TargetRank(2), 2, "target_rank"),
            # a target at min(m, n) is still the target, not full rank
            (np.diag([1.0, 2.0, 3.0]), TargetRank(3), 3, "target_rank"),
            (rng(15).standard_normal((4, 9)), Tolerance(1e-14), 4, "full_rank"),
        ],
        ids=["tolerance", "tau-above-every-column", "target-rank", "target-min-dim",
             "full-rank"],
    )
    def test_reason(self, m, mode, k, reason):
        res = srrqr(m, SrrqrConfig(f=2.0, mode=mode), want_q=False)
        assert (res.k, res.stop_reason) == (k, reason)

    def test_livelock_guard(self, monkeypatch):
        # with no budget the first interchange the loop wants trips the guard
        module = importlib.import_module("spectra_rrqr.srrqr")
        monkeypatch.setattr(module, "swap_budget", lambda k, n, f: 0.0)
        k32 = generate(MatrixSpec(Kahan(n=32, s=0.92)))
        with pytest.raises(RuntimeError, match="interchange budget exhausted"):
            srrqr(k32, SrrqrConfig(f=1.02, mode=TargetRank(31)), want_q=False)


class TestNormDowndate:
    """A trailing norm that shrinks steadily is recomputed before it freezes.

    On Kahan(300, 0.95) one column's norm falls by about 0.72x per step, so
    no single downdate loses half of it; without the comparison against its
    last exact value the maintained norm stops near 6e-9 while the true one
    falls to 3e-42, and tolerance mode admits the column.
    """

    @pytest.mark.parametrize(
        "spec,seed,f",
        [
            # a known rounding-tie region: gate on k and diagonals, not pivots
            (Kahan(n=300, s=0.95), 0, 1.02),
            (DevilsStairs(m=400, n=200, stair_len=25), 1, 2.0),
        ],
    )
    def test_admitted_diagonals_clear_tau(self, spec, seed, f, monkeypatch):
        m = generate(MatrixSpec(spec, seed=seed))
        tau = 1e-10
        cfg = SrrqrConfig(f=f, mode=Tolerance(tau))
        oracle = _recompute_srrqr(m, cfg)
        admitted = []
        grow = SrrqrState._advance

        def spy(state):
            grow(state)
            admitted.append(state.r[state.k - 1, state.k - 1])

        monkeypatch.setattr(SrrqrState, "_advance", spy)
        res = srrqr(m, cfg, want_q=False)
        assert res.k == oracle.k
        assert len(admitted) == res.k
        assert min(admitted) >= tau

    def test_maintained_norms_track_the_trailing_block(self, monkeypatch):
        # without the rule the maintained norms are off by up to 1e33 here
        m = generate(MatrixSpec(Kahan(n=300, s=0.95)))
        worst = []
        for name in ("_advance", "_interchange_core"):
            step = getattr(SrrqrState, name)

            def spy(state, *ij, step=step):
                step(state, *ij)
                true = np.linalg.norm(state.r[state.k :, state.k :], axis=0)
                worst.append(np.max(np.abs(state.gamma - true) / true, initial=0.0))

            monkeypatch.setattr(SrrqrState, name, spy)
        res = srrqr(m, SrrqrConfig(f=1.02, mode=Tolerance(1e-10)), want_q=False)
        assert res.swap_count > 0
        assert len(worst) == res.k + res.swap_count
        assert max(worst) <= 1e-6

    def test_floor_governs_recomputes_and_resets(self):
        m = generate(MatrixSpec(Stewart(m=96, n=40, q=0.8), seed=3))
        st = srrqr_state(m, 10)
        # a column that loses little keeps its floor, a recomputed one gets
        # sqrt(eps) times its new square
        before = st._gamma2_floor[1:].copy()
        st._advance()
        kept = st._gamma2_floor == before
        assert kept.any()
        want = _DOWNDATE_TOL * st.gamma**2
        assert np.allclose(st._gamma2_floor[~kept], want[~kept], rtol=1e-12)
        # a floor far above every norm turns each downdate into a loss to
        # below sqrt(eps) of its last exact square: every norm is recomputed
        # and its floor reset, in growth and in the boundary swap alike
        st._gamma2_floor *= 1e20
        st._advance()
        assert np.allclose(st._gamma2_floor, _DOWNDATE_TOL * st.gamma**2, rtol=1e-12)
        st._gamma2_floor *= 1e20
        st._swap_boundary()
        # the closed form of the incoming column's norm is exact too
        assert st._gamma2_floor[0] == _DOWNDATE_TOL * st.gamma[0] ** 2
        assert np.allclose(st._gamma2_floor, _DOWNDATE_TOL * st.gamma**2, rtol=1e-12)
        exact = np.linalg.norm(st.r[st.k :, st.k :], axis=0)
        assert np.allclose(st.gamma, exact, rtol=1e-12)

    def test_floor_follows_its_column(self):
        m = generate(MatrixSpec(Stewart(m=96, n=40, q=0.8), seed=3))
        st = srrqr_state(m, 10)
        st._gamma2_floor = np.arange(30.0)
        st.gamma = np.arange(30.0)
        st._swap_trailing(7)
        assert np.array_equal(st._gamma2_floor, st.gamma)
        assert st.gamma[0] == 7.0
        dup = st.copy()
        assert np.array_equal(dup._gamma2_floor, st._gamma2_floor)
        assert type(interchange(_recompute_state(m, 10), 0, 0)) is _RecomputeState


def _same_decisions(a, b):
    assert a.k == b.k
    assert a.swap_count == b.swap_count
    assert np.array_equal(a.factorization.perm.forward, b.factorization.perm.forward)


class TestDeferredGrowth:
    """Growth, and the runs built on it, against the recompute oracle."""

    @pytest.mark.parametrize("kind", ["tall", "square", "wide", "triangular", "stairs"])
    def test_every_step_matches_recompute(self, kind):
        m = {
            "tall": lambda: rng(21).standard_normal((150, 80)),
            "square": lambda: rng(21).standard_normal((70, 70)),
            "wide": lambda: rng(21).standard_normal((40, 75)),
            # zero below the diagonal: every reflector is the identity (tau == 0)
            "triangular": lambda: np.triu(rng(21).standard_normal((60, 45))),
            # on the flat stairs a column loses more than half its norm at
            # every stair edge, so the downdate falls back to recomputation
            "stairs": lambda: generate(MatrixSpec(DevilsStairs(m=200, n=120, stair_len=25), seed=1)),
        }[kind]()
        st, ref = _fresh_state(as_matrix(m)), _recompute_state(m)
        recomputes = 0
        for step in range(1, min(100, *m.shape) + 1):
            if kind == "stairs":
                # pivot as _drive does, the oracle on the same column
                j = int(np.argmax(st.gamma))
                for state in (st, ref):
                    state._swap_trailing(j)
                    state.perm.swap(state.k, state.k + j)
            old_tail = st.gamma[1:].copy()
            st._advance()
            ref._advance()
            c2 = st.r[step - 1, step:]
            recomputes += bool(np.any(old_tail**2 - c2**2 < 0.5 * old_tail**2))
            assert np.allclose(st.r, ref.r, atol=1e-12)
            assert np.allclose(st.gamma, ref.gamma, rtol=1e-10, atol=1e-14 * ref.gamma.max(initial=0.0))
            assert np.allclose(st.a, ref.a, rtol=1e-10, atol=1e-12)
            assert np.allclose(st.omega, ref.omega, rtol=1e-10)
        if kind == "triangular":
            # no reflector touched R: its rows only took the diagonal's sign
            assert np.array_equal(np.abs(st.r), np.abs(m))
        if kind == "stairs":
            assert recomputes > 0

    def test_run_with_q_matches_recompute(self):
        m = rng(20).standard_normal((150, 110))
        cfg = SrrqrConfig(f=1.5, mode=TargetRank(100))
        res = srrqr(m, cfg)
        oracle = _recompute_srrqr(m, cfg)
        _same_decisions(res, oracle)
        assert np.allclose(res.state.r, oracle.state.r, atol=1e-11)
        assert res.factorization.reconstruction_error(m) <= 1e-12
        q = res.factorization.q
        assert q.shape == (150, 110)
        assert np.max(np.abs(q.T @ q - np.eye(110))) <= 1e-12
        assert max(res.state.consistency_errors().values()) <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interchange_run_matches_recompute(self, seed):
        m = generate(MatrixSpec(Stewart(m=256, n=96, q=0.8), seed=seed))
        cfg = SrrqrConfig(f=1.1, mode=Tolerance(1e-10))
        oracle = _recompute_srrqr(m, cfg)
        res = srrqr(m, cfg, want_q=False)
        assert res.swap_count > 0
        _same_decisions(res, oracle)
        assert abs(res.rho - oracle.rho) <= 1e-8 * oracle.rho
        assert max(res.state.consistency_errors().values()) <= 1e-8

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
        oracle = _recompute_srrqr(m, cfg)
        _same_decisions(res, oracle)
        assert res.k == min(shape)
        assert res.factorization.reconstruction_error(m) <= 1e-12
        st = srrqr_state(m, min(shape))
        assert st.a.shape == (min(shape), shape[1] - min(shape))

    def test_returned_states_match_recompute(self):
        m = rng(23).standard_normal((60, 50))
        k = 39
        st = srrqr_state(m, k)
        ref = _recompute_state(m, k)
        for state in (st, st.copy()):
            assert np.allclose(state.r, ref.r, atol=1e-12)
            assert max(state.consistency_errors().values()) <= 1e-10
        for i, j in [(3, 5), (k - 1, 0), (0, 50 - k - 1)]:
            out = interchange(st, i, j)
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
        oracle = _recompute_srrqr(m, cfg)
        _same_decisions(res, oracle)
        assert np.allclose(res.state.r, oracle.state.r, atol=1e-12)
        # rho reads inv(R11), whose condition reaches 1e9 on the stairs, so
        # it carries that multiple of the roundoff in R
        assert abs(res.rho - oracle.rho) <= 1e-6 * max(oracle.rho, 1.0)


def _want_q_case(name):
    """Matrix and config of one with/without-Q comparison."""
    random_cases = {
        "tall": ((40, 12), TargetRank(6)),
        "square": ((10, 10), TargetRank(7)),
        "wide": ((5, 9), Tolerance(1e-14)),
        "below-tau": ((7, 4), Tolerance(1e3)),  # every column under tau: k = 0
    }
    if name in random_cases:
        shape, mode = random_cases[name]
        return rng(30).standard_normal(shape), SrrqrConfig(f=1.5, mode=mode)
    seed = int(name.split("-")[1])
    m = generate(MatrixSpec(Stewart(m=256, n=96, q=0.8), seed=seed))
    return m, SrrqrConfig(f=1.1, mode=TargetRank(60))


def _factor(algo, m, want_q):
    """The PartialQR that ``algo`` returns for ``m``, k = min(m, n) // 2."""
    k = min(m.shape) // 2
    if algo == "srrqr":
        cfg = SrrqrConfig(f=1.5, mode=TargetRank(k))
        return srrqr(m, cfg, want_q=want_q).factorization
    if algo == "qrcp":
        return qrcp(m, k, want_q=want_q)
    if algo == "rand_srrqr_rank":
        return rand_srrqr_rank(m, 2.0, k, seed=1, want_q=want_q).factorization
    if algo == "rand_srrqr_tol":
        return rand_srrqr_tol(m, 2.0, 1e-10, seed=1, want_q=want_q).factorization
    return partial_qr(m, k, want_q=want_q)


Q_ALGOS = ["srrqr", "qrcp", "rand_srrqr_rank", "rand_srrqr_tol", "partial_qr"]


class TestWantQ:
    """``want_q`` adds one LAPACK QR of ``M P`` after the last decision.

    Every factorization's Q is thin: the m-by-min(m, n) columns that meet R.
    """

    @pytest.mark.parametrize(
        "name", ["tall", "square", "wide", "below-tau", "stewart-0", "stewart-1"]
    )
    def test_same_factorization_with_and_without_q(self, name):
        m, cfg = _want_q_case(name)
        with_q = srrqr(m, cfg)
        without = srrqr(m, cfg, want_q=False)
        _same_decisions(with_q, without)
        assert with_q.rho == without.rho
        if name.startswith("stewart"):
            assert with_q.swap_count > 0
        a, b = with_q.factorization, without.factorization
        assert b.q is None
        assert a.shape == b.shape == m.shape
        for block in ("r11", "r12"):
            x, y = getattr(a, block), getattr(b, block)
            assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)
        ga = np.linalg.norm(a.r22, axis=0)
        gb = np.linalg.norm(b.r22, axis=0)
        assert np.max(np.abs(ga - gb), initial=0.0) <= 1e-12 * np.max(gb, initial=0.0)
        thin = min(m.shape)
        assert a.q.shape == (m.shape[0], thin)
        assert np.max(np.abs(a.q.T @ a.q - np.eye(thin))) <= 1e-12
        assert a.reconstruction_error(m) <= 1e-12

    @pytest.mark.parametrize(
        "shape", [(300, 40), (60, 60), (30, 50)], ids=["tall", "square", "wide"]
    )
    @pytest.mark.parametrize("algo", Q_ALGOS)
    def test_one_q_contract(self, algo, shape):
        m = np.asfortranarray(rng(32).standard_normal(shape))
        with_q = _factor(algo, m, want_q=True)
        without = _factor(algo, m, want_q=False)
        thin = min(shape)
        assert with_q.q.shape == (shape[0], thin)
        assert np.max(np.abs(with_q.q.T @ with_q.q - np.eye(thin))) <= 1e-12
        assert with_q.reconstruction_error(m) <= 1e-12
        assert without.q is None
        assert with_q.k == without.k
        assert np.array_equal(with_q.perm.forward, without.perm.forward)
        if algo == "srrqr":
            # Q comes from a fresh QR of M P, R from the pivoting state
            for block in ("r11", "r12"):
                x, y = getattr(with_q, block), getattr(without, block)
                assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)
            ga = np.linalg.norm(with_q.r22, axis=0)
            gb = np.linalg.norm(without.r22, axis=0)
            assert np.max(np.abs(ga - gb), initial=0.0) <= 1e-12 * np.max(gb, initial=0.0)
        else:
            for block in ("r11", "r12", "r22"):
                assert np.array_equal(getattr(with_q, block), getattr(without, block))

    @pytest.mark.parametrize("algo", Q_ALGOS)
    def test_q_peak_memory(self, algo, traced_peak):
        # no m-by-m array: an m-by-m Q alone would be 64 times M's bytes
        m = np.asfortranarray(rng(33).standard_normal((4096, 64)))
        fact, peak = traced_peak(lambda: _factor(algo, m, want_q=True))
        assert fact.q.shape == m.shape
        assert peak <= 5 * m.nbytes


def _tall_stewart(seed):
    return generate(MatrixSpec(Stewart(m=512, n=64, q=0.8), seed=seed))


class TestCompression:
    """At its first interchange ``srrqr`` cuts a tall state down to n rows."""

    @pytest.mark.parametrize("mode", [TargetRank(40), Tolerance(1e-10)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_compressed_run_matches_recompute(self, seed, mode):
        m = _tall_stewart(seed)
        rows, cols = m.shape
        cfg = SrrqrConfig(f=1.1, mode=mode)
        res = srrqr(m, cfg, want_q=False)
        oracle = _recompute_srrqr(m, cfg)
        assert res.swap_count > 0
        assert res.state.r.shape == (cols, cols)
        _same_decisions(res, oracle)
        assert max(res.state.consistency_errors().values()) <= 1e-8
        with_q = srrqr(m, cfg)
        _same_decisions(res, with_q)
        fact = res.factorization
        assert fact.shape == (rows, cols)
        assert fact.r22.shape == (cols - res.k, cols - res.k)
        gw = np.linalg.norm(with_q.factorization.r22, axis=0)
        g = np.linalg.norm(fact.r22, axis=0)
        assert np.max(np.abs(g - gw), initial=0.0) <= 1e-12 * np.max(gw, initial=0.0)

    def test_no_swap_keeps_all_rows(self):
        m = generate(MatrixSpec(HC(m=200, n=40), seed=0))
        res = srrqr(m, SrrqrConfig(f=1.1, mode=Tolerance(1e-10)), want_q=False)
        assert res.swap_count == 0
        assert res.state.r.shape == m.shape
        assert res.factorization.r22.shape == (m.shape[0] - res.k, m.shape[1] - res.k)

    def test_public_interchange_keeps_all_rows(self):
        m = _tall_stewart(0)
        st = srrqr_state(m, 20)
        out = interchange(st, 3, 5)
        assert out.r.shape == m.shape
        assert st.r.shape == m.shape

    def test_compress_preserves_state(self):
        m = _tall_stewart(1)
        st = srrqr_state(m, 20)
        before = st.copy()
        st._compress()
        assert st.r.shape == (64, 64)
        assert np.array_equal(st.r[:20], before.r[:20, :])
        assert np.allclose(
            np.linalg.norm(st.r[20:, 20:], axis=0), before.gamma, rtol=1e-12
        )
        assert max(st.consistency_errors().values()) <= 1e-10
        # decisions after compressing match those on the full-height state
        for i, j in [(3, 5), (19, 0), (0, 43)]:
            assert np.isclose(det_ratio(st, i, j), det_ratio(before, i, j), rtol=1e-12)
            st._interchange_core(i, j)
            before._interchange_core(i, j)
        assert np.allclose(st.r[:20], before.r[:20], atol=1e-12)
        assert np.allclose(st.gamma, before.gamma, rtol=1e-10)
        assert np.allclose(st.a, before.a, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("key, m_rows, n, q, seed", list(_swap_det_pool()))
    def test_benchmark_scale_interchanges(self, key, m_rows, n, q, seed):
        # the swap-det workload (f=1.1, tau=1e-10) on every input it can draw
        rec = json.loads(REFERENCE_K.read_text())[key]
        m = generate(MatrixSpec(Stewart(m=m_rows, n=n, q=q), seed=seed))
        cfg = SrrqrConfig(f=rec["f"], mode=Tolerance(rec["tau"]))
        res = srrqr(m, cfg, want_q=False)
        assert res.k == rec["k"][str(seed)]
        assert res.swap_count == rec["swap_count"][str(seed)]
        assert res.swap_count > 0
        assert res.state.r.shape[0] == n
        assert res.rho <= rec["f"]
        assert max(res.state.consistency_errors().values()) <= 1e-8

    def test_compress_is_a_noop_without_extra_rows(self):
        m = rng(31).standard_normal((30, 30))
        st = srrqr_state(m, 5)
        r, bits = st.r, st.r.tobytes()
        st._compress()
        assert st.r is r and r.tobytes() == bits

    @pytest.mark.parametrize("seed", [0, 2])
    def test_first_hit_in_row_major_order(self, seed, monkeypatch):
        m = _tall_stewart(seed)
        f = 1.1
        picks = []
        core = SrrqrState._interchange_core

        def spy(state, i, j):
            hits = np.argwhere(det_ratio_matrix(state) > f * (1.0 + 1e-12))
            picks.append(((i, j), tuple(int(x) for x in hits[0])))
            core(state, i, j)

        monkeypatch.setattr(SrrqrState, "_interchange_core", spy)
        res = srrqr(m, SrrqrConfig(f=f, mode=Tolerance(1e-10)), want_q=False)
        assert len(picks) == res.swap_count > 0
        for got, first in picks:
            assert got == first


class TestSwapScreen:
    """The loop's squared screen picks the swap that ``hypot`` picks."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        rows=hst.integers(2, 12),
        cols=hst.integers(2, 10),
        depth=hst.floats(0.0, 1.0),
        f=hst.floats(1.0001, 4.0),
        scale=hst.sampled_from([1.0, 1e160, 1e-160]),
        exact=hst.one_of(hst.none(), hst.tuples(hst.floats(0, 1), hst.floats(0, 1))),
    )
    @example(seed=0, rows=4, cols=6, depth=0.0, f=2.0, scale=1e-160, exact=(0.0, 0.0))
    def test_first_hit_matches_hypot(self, seed, rows, cols, depth, f, scale, exact):
        # k up to min(rows, cols - 1): a wide state at k = rows has gamma = 0
        top = min(rows, cols - 1)
        k = 1 + int(depth * (top - 1))
        state = srrqr_state(rng(seed).standard_normal((rows, cols)), k)
        f_swap = f * (1.0 + 1e-12)
        # 1e160 overflows a*a to inf, 1e-160 underflows it to zero
        state.a *= scale
        if exact is not None:
            i = int(exact[0] * (k - 1))
            j = int(exact[1] * (cols - k - 1))
            # an exact tie: ratio (i, j) is f_swap itself, which is no hit
            state.a[i, j] = f_swap
            state.gamma[j] = 0.0
        hit = det_ratio_matrix(state) > f_swap
        first = int(np.argmax(hit))
        want = divmod(first, hit.shape[1]) if hit.flat[first] else None
        assert _first_swap(state.omega, state.gamma, state.a, f_swap) == want


def _state_kinds():
    m = generate(MatrixSpec(Stewart(m=96, n=24, q=0.8), seed=3))
    tall = srrqr_state(m, 12)
    compressed = tall.copy()
    compressed._compress()
    square = srrqr_state(rng(12).standard_normal((20, 20)), 12)
    return {"tall": tall, "compressed": compressed, "square": square}


class TestCycle:
    """``_cycle`` against a reference rotation: roll, then a fresh QR."""

    @pytest.mark.parametrize("shift", [-1, 1])
    @pytest.mark.parametrize("kind", ["tall", "compressed", "square"])
    def test_matches_roll_and_qr(self, kind, shift):
        base = _state_kinds()[kind]
        k = base.k
        for i in [0, k // 2, k - 2, k - 1]:
            st = base.copy()
            ref = st.r.copy()
            ref[:k, i:k] = np.roll(ref[:k, i:k], shift, axis=1)
            ref[i:k, i:] = _r_factor(ref[i:k, i:])
            st._cycle(i, shift)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(st.r - ref)) <= 1e-12 * scale
            omega, a = base.omega.copy(), base.a.copy()
            omega[i:k] = np.roll(omega[i:k], shift)
            a[i:k] = np.roll(a[i:k], shift, axis=0)
            assert np.array_equal(st.omega, omega)
            assert np.array_equal(st.a, a)
            r11 = st.r[:k, :k]
            assert np.all(np.tril(r11, -1) == 0.0)
            assert np.all(np.diag(r11) >= 0.0)


def _reference_copy(st: SrrqrState, cls=ReferenceState) -> ReferenceState:
    """``st`` as a ``cls`` (the bitwise reference state), norm floors included."""
    ref = cls(
        r=st.r.copy(), perm=st.perm.copy(), k=st.k, omega=st.omega.copy(),
        gamma=st.gamma.copy(), a=st.a.copy(), swap_count=st.swap_count,
    )
    ref._gamma2_floor = st._gamma2_floor.copy()
    return ref


# every array a state holds
_STATE_ARRAYS = ("r", "omega", "gamma", "a", "_gamma2_floor")


def _assert_same_bits(st: SrrqrState, ref: SrrqrState) -> None:
    assert st.k == ref.k and st.perm.swaps == ref.perm.swaps
    for name in _STATE_ARRAYS:
        x, y = getattr(st, name), getattr(ref, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


class TestInterchangeReference:
    """Interchanges end with the bits of :class:`oracles.ReferenceState`."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["tall", "compressed", "square"])
    def test_random_sequences(self, kind, seed):
        st = _state_kinds()[kind]
        ref = _reference_copy(st)
        g = rng(seed)
        for step in range(12):
            if step % 4 == 3:
                st._advance()
                ref._advance()
            k, n = st.k, st.shape[1]
            if step % 2:
                # the best swap, which shrinks omega and takes other branches
                i, j = divmod(int(np.argmax(det_ratio_matrix(st))), n - k)
            else:
                i, j = int(g.integers(k)), int(g.integers(n - k))
            st._interchange_core(i, j)
            ref._interchange_core(i, j)
            _assert_same_bits(st, ref)

    def test_trailing_norm_recompute(self):
        # the trailing columns nearly parallel the first one, so swapping that
        # one in takes most of their norms and they are recomputed, over the
        # 56 rows of a tall state
        g = rng(13)
        m = g.standard_normal((60, 10))
        m[:, 4:] = m[:, 4:5] + 1e-3 * g.standard_normal((60, 6))
        st = srrqr_state(m, 4)
        ref = _reference_copy(st)
        floor = st._gamma2_floor.copy()
        for s in (st, ref):
            s._interchange_core(1, 0)
        _assert_same_bits(st, ref)
        # a recompute resets the floor, here to a much smaller one
        assert np.all(st._gamma2_floor[1:] < 1e-4 * floor[1:])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_driven_run(self, seed):
        m = generate(MatrixSpec(Stewart(m=400, n=64, q=0.8), seed=seed))
        cfg = SrrqrConfig(f=1.1, mode=Tolerance(1e-10))
        st = _fresh_state(as_matrix(m))
        ref = _reference_copy(st)
        assert _drive(st, cfg) == _drive(ref, cfg)
        assert st.swap_count == ref.swap_count > 0
        _assert_same_bits(st, ref)


def _graded_triangular():
    """Upper-triangular 60x40 with a dominant, decreasing diagonal: every
    growth step pivots the column at k, whose reflector is the identity."""
    n = 40
    t = np.zeros((60, n))
    t[:n] = np.triu(rng(31).uniform(-1e-3, 1e-3, (n, n)))
    t[np.arange(n), np.arange(n)] = 0.97 ** np.arange(n) * rng(32).choice([-1.0, 1.0], n)
    return t


# (input, config) of whole driven runs; each takes its own branches
_DRIVE_CASES = {
    # tall, compressed at its first interchange, tolerance mode
    "stewart-400x64": (
        lambda: generate(MatrixSpec(Stewart(m=400, n=64, q=0.8), seed=0)),
        SrrqrConfig(f=1.1, mode=Tolerance(1e-10)),
    ),
    # a square R with flat stairs: 50 interchanges, rank mode
    "stairs-R-120x120": (
        lambda: _r_factor(generate(MatrixSpec(DevilsStairs(m=300, n=120, stair_len=25), seed=2))),
        SrrqrConfig(f=1.05, mode=TargetRank(100)),
    ),
    # wide: runs to k = rows, where the trailing norms vanish
    "wide-30x90": (
        lambda: rng(30).standard_normal((30, 90)),
        SrrqrConfig(f=1.05, mode=Tolerance(1e-10)),
    ),
    # every reflector has tau == 0
    "triangular-60x40": (_graded_triangular, SrrqrConfig(f=1.1, mode=Tolerance(1e-10))),
}


class _Logged:
    """Logs the bytes of the whole state after every growth step and interchange."""

    def _log(self) -> None:
        parts = [getattr(self, name).tobytes() for name in _STATE_ARRAYS]
        parts += [self.perm.forward.tobytes(), repr((self.k, self.swap_count, self.perm.swaps))]
        self.__dict__.setdefault("log", []).append(parts)

    def _advance(self) -> None:
        super()._advance()
        self._log()

    def _interchange_core(self, i: int, j: int) -> None:
        super()._interchange_core(i, j)
        self._log()


class _LoggedState(_Logged, SrrqrState):
    pass


class _LoggedReference(_Logged, ReferenceState):
    pass


class TestHotLoopReference:
    """The engine's loop ends with the bits of :func:`oracles.reference_drive`.

    The reference is the earlier loop, which makes the same floating-point
    operations with more NumPy calls and temporaries.
    """

    @pytest.mark.parametrize("case", _DRIVE_CASES)
    def test_driven_run_has_the_reference_bits(self, case):
        make, cfg = _DRIVE_CASES[case]
        m = as_matrix(make())
        st = _reference_copy(_fresh_state(m), _LoggedState)
        ref = _reference_copy(st, _LoggedReference)
        assert _drive(st, cfg) == reference_drive(ref, cfg)
        # the same bits after every step, the last being the end state; the
        # end alone is not enough: a full-rank run has no trailing norms left
        assert len(st.log) == len(ref.log) > 0
        for step, (got, want) in enumerate(zip(st.log, ref.log)):
            assert got == want, f"step {step}"
        if case == "triangular-60x40":
            # no reflector touched R: its rows only took the diagonal's sign
            assert st.swap_count == 0 and st.perm.swaps == []
            assert np.array_equal(np.abs(st.r), np.abs(m))
        else:
            assert st.swap_count > 0
        if case == "stewart-400x64":
            assert st.r.shape == (64, 64)

    def test_stairs_run_takes_every_fallback(self, monkeypatch):
        # so the bits above cover them: omega recomputed by dtrtrs, and
        # trailing norms gathered again in growth and in interchanges
        engine = importlib.import_module("spectra_rrqr.srrqr")
        seen = {"dtrtrs": 0, "_advance": 0, "_swap_boundary": 0}
        dtrtrs = engine.dtrtrs

        def counted(*args, **kwargs):
            seen["dtrtrs"] += 1
            return dtrtrs(*args, **kwargs)

        def watch(name, method):
            def watched(self):
                old = self._gamma2_floor[1:].copy()
                method(self)
                # growth drops the leading floor, an interchange resets it
                new = self._gamma2_floor[1:] if name == "_swap_boundary" else self._gamma2_floor
                seen[name] += bool(np.any(new != old))

            return watched

        monkeypatch.setattr(engine, "dtrtrs", counted)
        for name in ("_advance", "_swap_boundary"):
            monkeypatch.setattr(SrrqrState, name, watch(name, getattr(SrrqrState, name)))
        make, cfg = _DRIVE_CASES["stairs-R-120x120"]
        st = _fresh_state(as_matrix(make()))
        _drive(st, cfg)
        # one dtrtrs per interchange, and one more per omega recompute
        assert seen["dtrtrs"] > st.swap_count
        assert seen["_advance"] > 0 and seen["_swap_boundary"] > 0

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(data=hst.data(), k=hst.integers(1, 5), t=hst.integers(1, 5), f=hst.floats(1.0001, 4.0))
    @example(data=None, k=2, t=3, f=1.1)
    def test_first_swap_matches_reference(self, data, k, t, f):
        f_swap = f * (1.0 + 1e-12)
        if data is None:
            # a tie at f, then a NaN, then an overflowing ratio
            omega, gamma = np.zeros(k), np.zeros(t)
            a = np.array([[f_swap, np.nan, 1e200], [0.0, 1.0, 2.0]])
        else:
            # ratios exactly at f (with a zero norm), NaN ratios, and ratios
            # above 1e154, whose squares overflow
            special = hst.sampled_from([f_swap, -f_swap, np.nan, 1e155, -1e200, 0.0])
            norms = hst.one_of(hst.floats(0.0, 3.0), hst.sampled_from([0.0, np.nan, 1e160]))
            omega = data.draw(hnp.arrays(np.float64, k, elements=norms))
            gamma = data.draw(hnp.arrays(np.float64, t, elements=norms))
            a = data.draw(hnp.arrays(
                np.float64, (k, t), elements=hst.one_of(hst.floats(-3.0, 3.0), special)
            ))
        with np.errstate(over="ignore"):
            # the norm floor squares gamma, which 1e160 overflows
            st = SrrqrState(
                r=np.zeros((k + t, k + t)), perm=PermutationSeq.identity(k + t),
                k=k, omega=omega, gamma=gamma, a=a,
            )

        def outcome(screen):
            try:
                return screen(st, f_swap)
            except ValueError as err:
                return str(err)

        assert outcome(lambda s, f: _first_swap(s.omega, s.gamma, s.a, f)) == outcome(
            reference_first_swap
        )


class TestOwnership:
    """A state works on its own copies of the arrays it is built from."""

    def test_callers_arrays_untouched(self):
        src = srrqr_state(rng(4).standard_normal((12, 8)), 3)
        given_ = {name: getattr(src, name).copy() for name in ("r", "omega", "gamma", "a")}
        # C-ordered float64, the layout a state used to keep without copying
        assert given_["r"].flags.c_contiguous
        before = {name: x.copy() for name, x in given_.items()}
        perm = PermutationSeq.identity(8)
        st = SrrqrState(perm=perm, k=3, **given_)
        st._advance()
        st._interchange_core(0, 1)
        st._interchange_core(3, 2)
        for name, x in given_.items():
            assert np.array_equal(x, before[name]), name
        assert perm.forward.tolist() == list(range(8)) and perm.swaps == []
        assert st.swap_count == 2

    def test_any_layout_gives_the_same_bits(self):
        src = srrqr_state(rng(5).standard_normal((12, 8)), 3)
        states = [
            SrrqrState(perm=src.perm, k=3, **{
                name: order(getattr(src, name)) for name in ("r", "omega", "gamma", "a")
            })
            for order in (np.ascontiguousarray, np.asfortranarray)
        ]
        for st in states:
            assert st.r.flags.c_contiguous and st.a.flags.c_contiguous
        # an ``a`` assigned later in column-major order is updated correctly too
        states.append(states[0].copy())
        states[-1].a = np.asfortranarray(states[-1].a)
        for st in states:
            st._interchange_core(2, 1)
            st._interchange_core(0, 4)
        _assert_same_bits(states[0], states[1])
        _assert_same_bits(states[0], states[2])

    def test_state_copies_m_once(self, traced_peak):
        m = np.asfortranarray(rng(6).standard_normal((2048, 256)))
        st, peak = traced_peak(lambda: _fresh_state(as_matrix(m)))
        assert st.r.shape == m.shape
        # the state's copy of M and nothing else of that size
        assert peak < 1.05 * m.nbytes



class TestCopy:
    """``copy`` is ``dataclasses.replace`` plus the gamma floor, carried by hand."""

    @staticmethod
    def _state():
        st = srrqr_state(rng(7).standard_normal((20, 12)), 4)
        st._interchange_core(1, 3)
        st._advance()
        # a floor that __post_init__ would not rebuild from gamma
        st._gamma2_floor = np.arange(1.0, st.gamma.size + 1)
        return st

    def test_every_init_field_is_equal(self):
        st = self._state()
        dup = st.copy()
        for fld in dataclasses.fields(SrrqrState):
            if not fld.init:
                continue
            got, want = getattr(dup, fld.name), getattr(st, fld.name)
            if isinstance(want, PermutationSeq):
                assert np.array_equal(got.forward, want.forward) and got.swaps == want.swaps
            elif isinstance(want, np.ndarray):
                assert np.array_equal(got, want), fld.name
            else:
                assert got == want, fld.name

    def test_copy_owns_its_arrays_and_permutation(self):
        st = self._state()
        dup = st.copy()
        for name in _STATE_ARRAYS:
            assert not np.shares_memory(getattr(dup, name), getattr(st, name)), name
        assert dup.perm is not st.perm and dup.perm.swaps is not st.perm.swaps
        assert not np.shares_memory(dup.perm.forward, st.perm.forward)
        before = st.copy()
        dup._interchange_core(0, 0)
        _assert_same_bits(st, before)
        assert st.perm.swaps == before.perm.swaps

    def test_floor_is_equal_but_independent(self):
        st = self._state()
        dup = st.copy()
        assert np.array_equal(dup._gamma2_floor, np.arange(1.0, st.gamma.size + 1))
        dup._gamma2_floor[0] = -1.0
        assert st._gamma2_floor[0] == 1.0


class TestReaders:
    """``copy``, ``recomputed`` and ``consistency_errors`` write nothing."""

    @staticmethod
    def _read(st):
        before = {name: getattr(st, name).tobytes() for name in _STATE_ARRAYS}
        st.copy()
        st.recomputed()
        st.consistency_errors()
        for name, bits in before.items():
            assert getattr(st, name).tobytes() == bits, name

    def test_reading_a_state_writes_nothing(self):
        m = rng(8).standard_normal((200, 120))
        quiet, watched = _fresh_state(as_matrix(m)), _fresh_state(as_matrix(m))
        for step in range(1, 61):
            quiet._advance()
            watched._advance()
            if step in (6, 31, 45):
                self._read(watched)
        _assert_same_bits(watched, quiet)
        # read at every interchange of a driven run, which compresses
        m = _tall_stewart(0)
        cfg = SrrqrConfig(f=1.1, mode=Tolerance(1e-10))
        quiet, watched = _fresh_state(as_matrix(m)), _fresh_state(as_matrix(m))
        _drive(quiet, cfg, on_swap=lambda *_: None)
        _drive(watched, cfg, on_swap=lambda *_: self._read(watched))
        assert watched.swap_count > 0 and watched.r.shape == (64, 64)
        _assert_same_bits(watched, quiet)


class TestNonFinite:
    """A pivoting quantity that is not finite raises; it never ends the loop."""

    def test_overflowing_column_norms_raise(self):
        m = np.random.default_rng(0).standard_normal((300, 40))
        # the column norms overflow to inf (entries near 1e157)
        with pytest.raises(ValueError, match="pivot column norm is inf at step 1"):
            srrqr(2.0**520 * m, SrrqrConfig(1.2, TargetRank(20)), want_q=False)

    def test_scale_below_overflow_still_factors(self):
        m = np.random.default_rng(0).standard_normal((300, 40))
        res = srrqr(2.0**500 * m, SrrqrConfig(1.2, TargetRank(20)), want_q=False)
        plain = srrqr(m, SrrqrConfig(1.2, TargetRank(20)), want_q=False)
        assert np.array_equal(res.factorization.perm.forward, plain.factorization.perm.forward)

    def test_nan_swap_ratio_raises(self):
        st = srrqr_state(rng(1).standard_normal((7, 5)), 2)
        st.omega[:] = np.nan
        st.a[:] = np.nan
        with pytest.raises(ValueError, match=r"swap ratio \(0, 0\) is NaN at step 2"):
            _first_swap(st.omega, st.gamma, st.a, 1.1)

    def test_hit_before_a_nan_is_taken(self):
        st = srrqr_state(rng(1).standard_normal((7, 5)), 2)
        st.a[0, 1] = 10.0
        st.a[1, :] = np.nan
        hit = _first_swap(st.omega, st.gamma, st.a, 1.1)
        assert hit is not None and hit[0] == 0


def _greedy_pivots(m, k):
    """Brute-force greedy pivoting: each step takes the column with the
    largest residual norm after projecting out the columns already taken.
    Returns the pivots and those norms; fails on a fixture with a near tie.
    """
    chosen, norms = [], []
    resid = m
    for _ in range(k):
        g = np.linalg.norm(resid, axis=0)
        g[chosen] = -1.0
        first, second = np.sort(g)[::-1][:2]
        assert first - second > 1e-6 * first, "fixture has a near tie"
        chosen.append(int(np.argmax(g)))
        norms.append(first)
        q = np.linalg.qr(m[:, chosen])[0]
        resid = m - q @ (q.T @ m)
    return chosen, np.array(norms)


class TestQrcp:
    @pytest.mark.parametrize("shape", [(30, 12), (12, 12), (6, 10)])
    def test_greedy_oracle(self, shape):
        # graded column scales keep the greedy choice clear of ties
        g = rng(shape[0] * 13 + shape[1])
        scales = np.logspace(0, -3, shape[1])[g.permutation(shape[1])]
        m = g.standard_normal(shape) * scales
        k = min(shape)
        pivots, norms = _greedy_pivots(m, k)
        fact = qrcp(m, k, want_q=False)
        assert fact.perm.forward[:k].tolist() == pivots
        assert np.array_equal(fact.perm.replay(), fact.perm.forward)
        d = np.diag(fact.r11)
        assert np.allclose(d, norms, rtol=1e-10)
        assert np.all(d >= 0.0)
        assert np.all(np.diff(d) <= 1e-14 * d[0])

    @pytest.mark.parametrize("shape", [(600, 200), (200, 200), (90, 300), (40, 12)])
    def test_r_only_is_bitwise_the_full_factor(self, shape):
        # 200 columns take dgeqp3's blocked path, which needs the optimal lwork
        tall = Stewart(m=max(shape), n=min(shape), q=0.9)
        m = generate(MatrixSpec(tall, seed=4))
        if shape[0] < shape[1]:
            m = m.T
        full = qrcp(m, min(shape) // 2)
        r_only = qrcp(m, min(shape) // 2, want_q=False)
        assert r_only.q is None
        assert r_only.shape == full.shape == shape
        assert np.array_equal(r_only.perm.forward, full.perm.forward)
        for block in ("r11", "r12", "r22"):
            assert np.array_equal(getattr(r_only, block), getattr(full, block))

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


def _oracle_growth(m, steps):
    """The oracle's state after ``steps`` pivoted growth steps of ``_drive``,
    no interchange among them."""
    st = _recompute_state(m)
    for _ in range(steps):
        j = int(st.gamma.argmax())
        if j:
            st._swap_trailing(j)
            st.perm.swap(st.k, st.k + j)
        st._advance()
    return st


def _oracle_first_swap(m, cfg):
    """The step of the oracle's first interchange, None if it makes none."""
    st, seen = _recompute_state(m), []
    _drive(st, cfg, on_swap=lambda k, i, j, ratio: seen.append(k))
    return seen[0] if seen else None


def _rel_gap(x, y):
    return np.max(np.abs(x - y), initial=0.0) / max(np.max(np.abs(y), initial=0.0), 1e-300)


# label -> (input, config, the step of the first interchange or None)
_PREFIX_CASES = {
    "stairs-125": ("sq-stairs125", SrrqrConfig(2.0, Tolerance(1e-10)), None),
    "stewart-128-tol": ("sq-stewart0", SrrqrConfig(1.1, Tolerance(1e-10)), 5),
    "stewart-128-rank": ("sq-stewart1", SrrqrConfig(1.1, TargetRank(40)), 7),
    "stewart-128-f1.5": ("sq-stewart0", SrrqrConfig(1.5, Tolerance(1e-10)), 30),
    "kahan-96": ("sq-kahan96", SrrqrConfig(2.0, TargetRank(95)), 16),
    "wide-40x70": ("wide", SrrqrConfig(1.1, Tolerance(1e-10)), 38),
}
# label -> (case, the step the prefix starts from, the step its state is
# at, or None when it leaves the growth to the engine)
_PREFIX_RUNS = {
    "stairs-125/0": ("stairs-125", 0, 100),  # the mode's stop
    "stairs-125/32": ("stairs-125", 32, 100),
    "stewart-128-f1.5/0": ("stewart-128-f1.5", 0, 30),  # the first swap
    "stewart-128-f1.5/20": ("stewart-128-f1.5", 20, None),  # 10 engine steps cost less
    "stewart-128-tol/0": ("stewart-128-tol", 0, None),  # likewise for 5
    "kahan-96/0": ("kahan-96", 0, None),  # equal column norms: a tie
    "wide-40x70/0": ("wide-40x70", 0, 38),
    "wide-40x70/10": ("wide-40x70", 10, 38),
}


def _prefix_input(name):
    import decision_pins

    if name == "wide":
        return rng(41).standard_normal((40, 70)) @ np.diag(0.9 ** np.arange(70))
    return decision_pins.fixture(name)


class TestQrcpPrefix:
    """Once the engine has grown a square or wide state for a while without
    an interchange, one ``dgeqp3`` of its trailing block grows the swap-free
    steps after that; the decisions stay the engine's."""

    @pytest.mark.parametrize("run", _PREFIX_RUNS, ids=list(_PREFIX_RUNS))
    def test_grown_state_matches_recompute(self, run):
        engine = importlib.import_module("spectra_rrqr.srrqr")
        case, k0, end = _PREFIX_RUNS[run]
        name, cfg, first = _PREFIX_CASES[case]
        m = as_matrix(_prefix_input(name))
        assert _oracle_first_swap(m, cfg) == first
        start = _oracle_growth(m, k0)
        before = (start.r.copy(), start.perm.copy(), start.omega.copy(), start.a.copy())
        st = engine._qrcp_prefix(start, cfg)
        # the state it starts from is left as it was
        assert np.array_equal(start.r, before[0]) and start.perm.swaps == before[1].swaps
        assert np.array_equal(start.omega, before[2]) and np.array_equal(start.a, before[3])
        if end is None:
            assert st is None
            return
        assert st.k == end == (first or _recompute_srrqr(m, cfg).k)
        ref = _oracle_growth(m, st.k)
        assert np.array_equal(st.perm.forward, ref.perm.forward)
        assert st.perm.swaps == ref.perm.swaps
        assert st.r.shape == ref.r.shape == m.shape
        assert _rel_gap(st.r, ref.r) <= 1e-12
        assert np.all(np.diagonal(st.r)[: st.k] > 0.0)
        assert np.all(np.tril(st.r[:, : st.k], -1) == 0.0)
        # omega and a move with the last bits of R by up to cond(R11) u
        # (1e9 u on stairs), so they are held to the state's own R
        assert max(st.consistency_errors().values()) <= 1e-12

    @pytest.mark.parametrize("case", _PREFIX_CASES, ids=list(_PREFIX_CASES))
    @pytest.mark.parametrize("after", [1, None], ids=["after-1", "default"])
    def test_same_decisions_as_recompute(self, case, after, monkeypatch):
        engine = importlib.import_module("spectra_rrqr.srrqr")
        if after:
            monkeypatch.setattr(engine, "_PREFIX_AFTER", after)
            monkeypatch.setattr(engine, "_PREFIX_MIN_F", 1.0)
        name, cfg, first = _PREFIX_CASES[case]
        m = _prefix_input(name)
        swaps = []
        res = srrqr(m, cfg, want_q=False, on_swap=lambda k, i, j, r: swaps.append((k, i, j, r)))
        oracle = _recompute_srrqr(m, cfg)
        _same_decisions(res, oracle)
        assert res.factorization.perm.swaps == oracle.factorization.perm.swaps
        assert res.stop_reason == oracle.stop_reason
        assert _rel_gap(res.state.r, oracle.state.r) <= 1e-12
        fresh = swap_ratios(*res.state.recomputed())
        assert res.rho == pytest.approx(fresh.max(initial=0.0), rel=1e-12)
        assert res.rho == pytest.approx(oracle.rho, rel=1e-7)
        # on_swap fires once per interchange, the first where the oracle's does
        assert len(swaps) == res.swap_count
        assert (swaps[0][0] if swaps else None) == first
        assert all(r > cfg.f for *_, r in swaps)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_inputs_make_the_oracles_decisions(self, seed, monkeypatch):
        # small square and wide shapes, graded columns or low-rank products,
        # every f and both modes; no exact ties among the column norms.  The
        # prefix may start after 1 to 5 reflectors (n/8), at every f
        engine = importlib.import_module("spectra_rrqr.srrqr")
        monkeypatch.setattr(engine, "_PREFIX_MIN_F", 1.0)
        for g in (rng(100 * seed + i) for i in range(8)):
            monkeypatch.setattr(engine, "_PREFIX_AFTER", int(g.integers(1, 3)))
            rows = int(g.integers(1, 30))
            cols = int(g.integers(rows, 45))
            grade = g.uniform(0.5, 1.0) ** g.permutation(cols)
            m = g.standard_normal((rows, cols)) * grade
            if g.random() < 0.3:
                m = g.standard_normal((rows, rows)) @ m[:, :rows] @ g.standard_normal((rows, cols))
            mode = (TargetRank(int(g.integers(1, rows + 1))) if g.random() < 0.5
                    else Tolerance(float(10.0 ** g.uniform(-12, -1))))
            cfg = SrrqrConfig(float(g.choice([1.01, 1.1, 1.5, 2.0])), mode)
            res = srrqr(m, cfg, want_q=False)
            oracle = _recompute_srrqr(m, cfg)
            _same_decisions(res, oracle)
            assert res.factorization.perm.swaps == oracle.factorization.perm.swaps
            assert res.stop_reason == oracle.stop_reason

    def test_is_tried_on_square_and_wide_states_only(self, monkeypatch):
        engine = importlib.import_module("spectra_rrqr.srrqr")
        prefix, seen = engine._qrcp_prefix, []

        def spy(state, config):
            seen.append((state.r.shape, state.k, config.f))
            return prefix(state, config)

        monkeypatch.setattr(engine, "_qrcp_prefix", spy)
        monkeypatch.setattr(engine, "_PREFIX_AFTER", 2)
        for f in (2.0, 1.2):
            for shape in [(6, 6), (5, 9), (9, 5)]:
                srrqr(rng(42).standard_normal(shape), SrrqrConfig(f, TargetRank(4)), want_q=False)
        # after two reflectors, and only at f >= sqrt(2)
        assert seen == [((6, 6), 2, 2.0), ((5, 9), 2, 2.0)]

    @pytest.mark.parametrize(
        "spec, cfg",
        [
            # the 81st singular value is 1.0000000000000004e-10: a top norm at tau
            (HC(m=120, n=120), SrrqrConfig(2.0, Tolerance(1e-10))),
            # equal column norms: every pivot a tie
            (Kahan(n=80, s=0.95), SrrqrConfig(2.0, TargetRank(79))),
        ],
        ids=["hc-120-at-tau", "kahan-80-ties"],
    )
    def test_near_ties_keep_the_engines_decisions(self, spec, cfg, monkeypatch):
        engine = importlib.import_module("spectra_rrqr.srrqr")
        m = generate(MatrixSpec(spec))
        monkeypatch.setattr(engine, "_PREFIX_MIN_F", math.inf)
        alone = srrqr(m, cfg, want_q=False)
        monkeypatch.setattr(engine, "_PREFIX_MIN_F", 1.0)
        monkeypatch.setattr(engine, "_PREFIX_AFTER", 1)
        res = srrqr(m, cfg, want_q=False)
        _same_decisions(res, alone)
        assert res.factorization.perm.swaps == alone.factorization.perm.swaps
        assert res.stop_reason == alone.stop_reason

    def test_waits_for_the_engines_reflectors(self, monkeypatch):
        # an upper-triangular input in natural pivot order grows without a
        # reflector, so the engine takes it whole and the prefix never starts
        engine = importlib.import_module("spectra_rrqr.srrqr")
        monkeypatch.setattr(engine, "_qrcp_prefix", lambda *args: pytest.fail("prefix tried"))
        m = np.triu(1e-4 * rng(44).standard_normal((60, 60))) + np.diag(0.9 ** np.arange(60))
        res = srrqr(m, SrrqrConfig(2.0, TargetRank(50)), want_q=False)
        assert res.k == 50 and res.swap_count == 0
        assert np.array_equal(res.factorization.perm.forward, np.arange(60))


class TestQrcpPrefixErrors:
    """Where a pivot quantity is not finite, underflows or is zero, the
    prefix falls back to the engine, which raises or returns as it always has."""

    @pytest.mark.parametrize("shape", [(40, 40), (30, 45)], ids=["square", "wide"])
    def test_overflowing_column_norms_raise(self, shape):
        m = 2.0**520 * rng(43).standard_normal(shape)
        with pytest.raises(ValueError, match="^pivot column norm is inf at step 1$"):
            srrqr(m, SrrqrConfig(1.2, TargetRank(20)), want_q=False)
        with pytest.raises(ValueError, match="^pivot column norm is inf at step 1$"):
            srrqr(m, SrrqrConfig(1.2, Tolerance(1e-10)), want_q=False)

    @pytest.mark.parametrize("shape", [(4, 4), (4, 6)], ids=["square", "wide"])
    def test_rank_above_numerical_rank_raises(self, shape):
        m = np.zeros(shape)
        m[0, 0], m[1, 1] = 3.0, 2.0
        with pytest.raises(
            SingularMatrixError,
            match=r"^trailing column norms underflowed at step 3; "
            r"target rank 3 exceeds the numerical rank$",
        ):
            srrqr(m, SrrqrConfig(2.0, TargetRank(3)), want_q=False)

    @pytest.mark.parametrize("shape", [(5, 5), (3, 7)], ids=["square", "wide"])
    def test_all_zero_input(self, shape):
        m = np.zeros(shape)
        res = srrqr(m, SrrqrConfig(2.0, Tolerance(1e-10)), want_q=False)
        assert (res.k, res.stop_reason, res.swap_count, res.rho) == (0, "tolerance", 0, 0.0)
        assert np.array_equal(res.state.r, m)
        assert res.factorization.perm.swaps == []
        with pytest.raises(SingularMatrixError, match="underflowed at step 1"):
            srrqr(m, SrrqrConfig(2.0, TargetRank(1)), want_q=False)

    def test_zero_pivot_falls_back(self):
        # a zero diagonal under a column norm above tau (not a QRCP that
        # LAPACK returns) is left to the engine
        engine = importlib.import_module("spectra_rrqr.srrqr")
        work, none = np.array([[0.0, 1.0], [0.0, 0.0]], order="F"), np.zeros((0, 2))
        assert engine._replay(work, np.zeros(0), none, SrrqrConfig(2.0, Tolerance(1e-10))) is None
        assert engine._replay(work, np.zeros(0), none, SrrqrConfig(2.0, TargetRank(1))) is None
