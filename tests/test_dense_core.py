import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_rrqr import (
    PermutationSeq,
    SingularMatrixError,
    as_matrix,
    column_norms,
    cos_angle,
    cos_angle_subspace,
    haar_orthogonal,
    inverse_row_norms,
    load_matrix_binary,
    load_matrix_text,
    log_volume,
    ls_residual,
    partial_qr,
    qrcp,
    save_matrix_binary,
    save_matrix_text,
    singular_values,
    stable_partial_qr,
    thin_qr,
    volume,
)
from spectra_rrqr.dense_core import r_factor


def rng(seed=0):
    return np.random.default_rng(seed)


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[np.inf], [1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])

    def test_column_major(self):
        m = as_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.flags.f_contiguous


class TestPermutationSeq:
    def test_replay_reproduces_forward(self):
        p = PermutationSeq.identity(6)
        for i, j in [(0, 3), (2, 5), (1, 1), (4, 0)]:
            p.swap(i, j)
        assert np.array_equal(p.replay(), p.forward)

    def test_apply_cols_matches_matrix_product(self):
        m = rng(1).standard_normal((4, 5))
        p = PermutationSeq.identity(5)
        p.swap(0, 4)
        p.swap(1, 2)
        assert np.allclose(p.apply_cols(m), m @ p.matrix())

    def test_forward_is_bijection(self):
        p = PermutationSeq.identity(8)
        for i, j in [(0, 7), (3, 3), (2, 6)]:
            p.swap(i, j)
        assert sorted(p.forward.tolist()) == list(range(8))

    def test_out_of_range_swap(self):
        p = PermutationSeq.identity(3)
        with pytest.raises(IndexError):
            p.swap(0, 3)


def gram_schmidt(m, k):
    """Classical Gram-Schmidt oracle for the leading k columns."""
    q = np.zeros((m.shape[0], k))
    r = np.zeros((k, k))
    for j in range(k):
        v = m[:, j].copy()
        for i in range(j):
            r[i, j] = q[:, i] @ m[:, j]
            v -= r[i, j] * q[:, i]
        r[j, j] = np.linalg.norm(v)
        q[:, j] = v / r[j, j]
    return q, r


class TestPartialQR:
    def test_pythagorean_column(self):
        fact = partial_qr([[3.0], [4.0]], 1)
        assert np.allclose(fact.r11, [[5.0]])

    def test_identity_case(self):
        fact = partial_qr(np.eye(3), 2)
        assert np.allclose(fact.r11, np.eye(2))
        assert np.allclose(fact.r12, 0.0)
        assert np.allclose(fact.r22, [[1.0]])

    def test_against_gram_schmidt_oracle(self):
        m = rng(8).standard_normal((8, 5))
        fact = partial_qr(m, 3)
        q_gs, r_gs = gram_schmidt(m, 3)
        assert np.allclose(fact.r11, r_gs, atol=1e-12)
        assert np.allclose(fact.q[:, :3], q_gs, atol=1e-12)
        assert fact.reconstruction_error(m) <= 1e-12

    @pytest.mark.parametrize("shape,k", [((8, 5), 3), ((6, 6), 6), ((5, 9), 4), ((20, 7), 7)])
    def test_reconstruction_and_orthogonality(self, shape, k):
        m = rng(shape[0] * 31 + k).standard_normal(shape)
        fact = partial_qr(m, k)
        assert fact.reconstruction_error(m) <= 1e-12
        qtq = fact.q.T @ fact.q
        assert np.max(np.abs(qtq - np.eye(qtq.shape[0]))) <= 1e-12
        assert np.all(np.diag(fact.r11) >= 0.0)
        assert np.max(np.abs(np.tril(fact.r11, -1))) == 0.0

    def test_thin_q_variant(self):
        m = rng(4).standard_normal((9, 6))
        full = partial_qr(m, 4)
        thin = partial_qr(m, 4, full_q=False)
        assert thin.q.shape == (9, 4)
        assert np.allclose(thin.q, full.q[:, :4])
        assert thin.reconstruction_error(m) <= 1e-12

    def test_want_q_false(self):
        m = rng(5).standard_normal((6, 4))
        fact = partial_qr(m, 2, want_q=False)
        assert fact.q is None
        with pytest.raises(ValueError, match="without a Q"):
            fact.reconstruction_error(m)

    def test_k_out_of_range(self):
        m = np.eye(3)
        with pytest.raises(ValueError, match="out of range"):
            partial_qr(m, 4)
        with pytest.raises(ValueError, match="out of range"):
            partial_qr(m, 0)

    def test_stable_path_agrees(self):
        m = rng(6).standard_normal((12, 7))
        own = partial_qr(m, 5)
        fast = stable_partial_qr(m, 5)
        assert np.allclose(own.r11, fast.r11, atol=1e-12)
        assert np.allclose(own.r12, fast.r12, atol=1e-12)
        assert fast.reconstruction_error(m) <= 1e-12
        assert np.allclose(
            np.linalg.norm(own.r22, axis=0), np.linalg.norm(fast.r22, axis=0)
        )

    @pytest.mark.parametrize("shape", [(40, 7), (7, 7), (5, 9)])
    def test_r_factor_is_thin_qr_r(self, shape):
        m = rng(8).standard_normal(shape)
        r = r_factor(m)
        assert np.array_equal(r, thin_qr(m)[1])
        assert r.shape == (min(shape), shape[1])
        assert np.all(np.diag(r) >= 0.0)

    # tall, square, wide, single row, single column, several dgeqrt panels
    @pytest.mark.parametrize(
        "shape", [(40, 7), (7, 7), (5, 9), (1, 6), (6, 1), (1, 1), (300, 150), (90, 200)]
    )
    def test_blocked_qr_against_numpy(self, shape):
        m = np.asfortranarray(rng(shape[0] * 7 + shape[1]).standard_normal(shape))
        before = m.copy()
        q, r = thin_qr(m)
        k = min(shape)
        assert q.shape == (shape[0], k) and r.shape == (k, shape[1])
        assert np.max(np.abs(q.T @ q - np.eye(k))) <= 1e-13
        assert np.linalg.norm(q @ r - m) <= 1e-13 * np.linalg.norm(m)
        ref = np.linalg.qr(m, mode="r")
        ref *= np.where(np.diag(ref) < 0.0, -1.0, 1.0)[:, None]
        assert np.linalg.norm(r - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.all(np.diag(r) >= 0.0)
        assert np.max(np.abs(np.tril(r, -1))) == 0.0
        assert np.array_equal(r_factor(m), r)
        assert np.array_equal(m, before)

    def test_stable_path_r_only(self):
        m = np.asfortranarray(rng(9).standard_normal((30, 8)))
        before = m.copy()
        with_q = stable_partial_qr(m, 5)
        r_only = stable_partial_qr(m, 5, want_q=False)
        assert np.array_equal(m, before)
        assert r_only.q is None
        assert np.array_equal(r_only.r11, with_q.r11)
        assert np.array_equal(r_only.r12, with_q.r12)
        assert np.array_equal(r_only.r22, with_q.r22)

    def test_interlacing_any_permutation(self):
        # leading-block singular values never exceed the matrix's; trailing
        # ones never fall below the shifted spectrum
        m = rng(7).standard_normal((9, 6))
        sv = singular_values(m)
        gen = rng(17)
        for k in (2, 4):
            for _ in range(5):
                perm = gen.permutation(6)
                fact = partial_qr(m[:, perm], k)
                s11 = singular_values(fact.r11)
                s22 = singular_values(fact.r22)
                assert np.all(s11 <= sv[:k] * (1 + 1e-10))
                assert np.all(s22[: 6 - k] >= sv[k:] * (1 - 1e-10))


class TestSingularValues:
    def test_diagonal(self):
        assert np.allclose(singular_values(np.diag([3.0, 2.0, 1.0])), [3, 2, 1])

    def test_orthogonal_all_ones(self):
        q = haar_orthogonal(rng(2), 7, 7)
        assert np.allclose(singular_values(q), np.ones(7), atol=1e-12)

    def test_gram_eigen_oracle(self):
        m = rng(3).standard_normal((6, 4))
        sv = singular_values(m)
        eig = np.linalg.eigvalsh(m.T @ m)[::-1]
        assert np.allclose(sv, np.sqrt(np.maximum(eig, 0.0)), rtol=1e-9)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_permutation_and_transpose_invariance(self, seed):
        g = rng(seed)
        m = g.standard_normal((5, 4))
        sv = singular_values(m)
        perm = g.permutation(4)
        assert np.allclose(singular_values(m[:, perm]), sv, rtol=1e-10, atol=1e-12)
        assert np.allclose(singular_values(m.T), sv, rtol=1e-10, atol=1e-12)


class TestColumnNorms:
    def test_identity(self):
        assert np.allclose(column_norms(np.eye(3)), [1, 1, 1])

    def test_simple(self):
        assert np.allclose(column_norms([[3.0, 0.0], [4.0, 0.0]]), [5.0, 0.0])

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_direct_summation_oracle(self, seed):
        m = rng(seed).standard_normal((5, 3))
        oracle = np.sqrt(np.sum(m * m, axis=0))
        assert np.allclose(column_norms(m), oracle, atol=1e-14)


class TestInverseRowNorms:
    def test_diagonal(self):
        assert np.allclose(inverse_row_norms(np.diag([2.0, 4.0])), [0.5, 0.25])

    def test_identity(self):
        assert np.allclose(inverse_row_norms(np.eye(4)), np.ones(4))

    def test_explicit_inverse_oracle(self):
        t = np.triu(rng(9).standard_normal((4, 4))) + 3.0 * np.eye(4)
        oracle = np.linalg.norm(np.linalg.inv(t), axis=1)
        assert np.allclose(inverse_row_norms(t), oracle, atol=1e-12)

    def test_zero_diagonal_names_index(self):
        t = np.triu(np.ones((3, 3)))
        t[1, 1] = 0.0
        with pytest.raises(SingularMatrixError, match="index 1"):
            inverse_row_norms(t)

    def test_rejects_non_triangular(self):
        with pytest.raises(ValueError, match="upper-triangular"):
            inverse_row_norms(np.ones((2, 2)))


class TestVolume:
    def test_2x2_determinant(self):
        assert np.isclose(volume([[1.0, 2.0], [3.0, 4.0]]), 2.0)

    def test_orthonormal_columns(self):
        q = haar_orthogonal(rng(11), 8, 4)
        assert np.isclose(volume(q), 1.0, atol=1e-12)

    def test_gram_determinant_oracle(self):
        m = rng(12).standard_normal((6, 3))
        oracle = np.sqrt(np.linalg.det(m.T @ m))
        assert np.isclose(volume(m), oracle, rtol=1e-10)

    def test_rank_deficient_is_zero(self):
        m = np.ones((4, 2))
        assert volume(m) == 0.0
        assert log_volume(m) == -np.inf

    def test_wide_rejected(self):
        with pytest.raises(ValueError, match="cols <= rows"):
            volume(np.ones((2, 3)))

    def test_log_volume_matches(self):
        m = rng(13).standard_normal((7, 4))
        assert np.isclose(np.exp(log_volume(m)), volume(m), rtol=1e-12)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 2**32 - 1))
    def test_volume_recursion(self, seed):
        # removing any column: V(M) = V(M_rest) * lsq-residual of that column
        m = rng(seed).standard_normal((6, 4))
        v_full = volume(m)
        for i in range(4):
            rest = np.delete(m, i, axis=1)
            resid = ls_residual(rest, m[:, i])
            assert np.isclose(v_full, volume(rest) * resid, rtol=1e-9)


class TestLsResidual:
    def test_orthogonal_complement(self):
        a = np.zeros((3, 1))
        a[0, 0] = 1.0
        b = np.array([0.0, 1.0, 0.0])
        assert np.isclose(ls_residual(a, b), 1.0)

    def test_in_range_is_zero(self):
        a = rng(14).standard_normal((6, 3))
        b = a @ np.array([1.0, -2.0, 0.5])
        assert ls_residual(a, b) <= 1e-12 * np.linalg.norm(b)

    def test_normal_equations_oracle(self):
        g = rng(15)
        a = g.standard_normal((7, 3))
        b = g.standard_normal(7)
        x = np.linalg.solve(a.T @ a, a.T @ b)
        oracle = np.linalg.norm(b - a @ x)
        assert np.isclose(ls_residual(a, b), oracle, atol=1e-9)

    def test_rank_deficient_fallback(self):
        g = rng(16)
        a = g.standard_normal((8, 2))
        a = np.hstack([a, a[:, :1] - a[:, 1:]])  # exactly dependent third column
        b = g.standard_normal(8)
        q = np.linalg.qr(a[:, :2])[0]
        oracle = np.linalg.norm(b - q @ (q.T @ b))
        assert np.isclose(ls_residual(a, b), oracle, rtol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            ls_residual(np.eye(3), np.ones(4))


class TestAngles:
    def test_same_vector(self):
        assert cos_angle([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal_to_subspace(self):
        basis = np.zeros((3, 1))
        basis[0, 0] = 1.0
        assert cos_angle_subspace([0.0, 1.0, 0.0], basis) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            cos_angle([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="nonzero"):
            cos_angle_subspace([0.0, 0.0], np.eye(2))

    def test_projector_oracle(self):
        g = rng(18)
        basis = g.standard_normal((9, 3))
        v = g.standard_normal(9)
        q = np.linalg.qr(basis)[0]
        oracle = np.linalg.norm(q @ (q.T @ v)) / np.linalg.norm(v)
        assert np.isclose(cos_angle_subspace(v, basis), oracle, atol=1e-12)

    def test_vector_pair_matches_formula(self):
        g = rng(19)
        v1, v2 = g.standard_normal(5), g.standard_normal(5)
        oracle = (v1 @ v2) / (np.linalg.norm(v1) * np.linalg.norm(v2))
        assert np.isclose(cos_angle(v1, v2), oracle, atol=1e-14)

    def test_rank_deficient_basis_rejected(self):
        basis = np.ones((4, 2))
        with pytest.raises(ValueError, match="full column rank"):
            cos_angle_subspace([1.0, 0.0, 0.0, 0.0], basis)


class TestFileFormats:
    def test_text_roundtrip_exact(self, tmp_path):
        m = rng(20).standard_normal((5, 3))
        path = tmp_path / "m.txt"
        save_matrix_text(m, path)
        first = path.read_text().splitlines()[0]
        assert first == "5 3"
        back = load_matrix_text(path)
        assert np.array_equal(back, m)

    def test_binary_roundtrip_exact(self, tmp_path):
        m = rng(21).standard_normal((4, 6))
        path = tmp_path / "m.bin"
        save_matrix_binary(m, path)
        back = load_matrix_binary(path)
        assert np.array_equal(back, m)

    def test_binary_layout(self, tmp_path):
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        path = tmp_path / "m.bin"
        save_matrix_binary(m, path)
        raw = path.read_bytes()
        dims = np.frombuffer(raw[:16], dtype="<u8")
        assert dims.tolist() == [2, 2]
        body = np.frombuffer(raw[16:], dtype="<f8")
        assert body.tolist() == [1.0, 2.0, 3.0, 4.0]  # column-major

    def test_text_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="expected 4 entries"):
            load_matrix_text(path)

    def test_qrcp_import_cycle(self):
        # ls_residual reaches into the pivoted module lazily; ensure usable
        assert qrcp(np.eye(2), 1).k == 1
