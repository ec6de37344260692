import numpy as np
import pytest

from spectra_rrqr import (
    HC,
    DevilsStairs,
    Kahan,
    MatrixSpec,
    SampledIdentity,
    Stewart,
    generate,
    haar_orthogonal,
    qrcp,
    singular_values,
    spec_from_json,
    spec_to_json,
    volume,
)


def _haar_oracle(rng, rows, cols):
    # numpy's QR of the draw, then the sign fix of the R diagonal
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)), mode="reduced")
    flip = np.sign(np.diag(r))
    flip[flip == 0.0] = 1.0
    return q * flip


def _generate_oracle(spec):
    # the generators with numpy's QR and out-of-place scaling and sums
    rng = np.random.default_rng(spec.seed)
    kind = spec.kind
    m, n = kind.m, kind.n
    if isinstance(kind, DevilsStairs):
        sigma = kind.q ** (np.arange(n) // kind.stair_len).astype(np.float64)
    elif isinstance(kind, Stewart):
        sigma = np.zeros(n)
        sigma[: n // 2 + 1] = kind.q ** np.arange(n // 2 + 1)
    else:
        sigma = np.concatenate(([100.0, 10.0], np.logspace(-2, -14, n - 2)))
        return np.asfortranarray(_haar_oracle(rng, m, n) * sigma)
    u = _haar_oracle(rng, m, n)
    v = _haar_oracle(rng, n, n)
    out = (u * sigma) @ v.T
    if isinstance(kind, Stewart):
        out = out + kind.q ** (n // 2) * rng.random((m, n))
    return np.asfortranarray(out)


SHAPES = [(1, 1), (64, 12), (300, 40), (500, 500), (1024, 128), (2048, 125)]


class TestHaarOrthogonal:
    """The in-place LAPACK factor against numpy's QR of the same draw."""

    @pytest.mark.parametrize("rows,cols", SHAPES, ids=str)
    def test_bitwise_numpy_qr(self, rows, cols):
        got = haar_orthogonal(np.random.default_rng(rows + cols), rows, cols)
        ref = _haar_oracle(np.random.default_rng(rows + cols), rows, cols)
        assert got.flags.f_contiguous
        assert got.tobytes() == ref.tobytes()

    def test_wide_request_names_both_sizes(self):
        with pytest.raises(ValueError, match="3 rows < 5 cols"):
            haar_orthogonal(np.random.default_rng(0), 3, 5)

    @pytest.mark.parametrize(
        "kind",
        # the --smoke benchmark fixtures, then the Haar kinds over SHAPES
        [DevilsStairs(m=2048, n=125, stair_len=25), DevilsStairs(m=1500, n=125, stair_len=25),
         HC(m=1500, n=125), Stewart(m=1024, n=128, q=0.6)]
        + [DevilsStairs(m=m, n=n, stair_len=max(1, n // 4)) for m, n in SHAPES]
        + [Stewart(m=m, n=n) for m, n in SHAPES[1:]]
        + [HC(m=m, n=n) for m, n in SHAPES[1:]],
        ids=repr,
    )
    def test_generate_bitwise_numpy_qr(self, kind):
        spec = MatrixSpec(kind, seed=11)
        assert generate(spec).tobytes() == _generate_oracle(spec).tobytes()

    @pytest.mark.parametrize(
        "kind", [DevilsStairs(m=4096, n=256, stair_len=64), Stewart(m=4096, n=256),
                 HC(m=4096, n=256)], ids=lambda k: type(k).__name__,
    )
    def test_peak_memory(self, kind, traced_peak):
        # two matrix-sized arrays, plus the finiteness mask of the input
        # check; numpy's QR and out-of-place scaling took three
        out, peak = traced_peak(lambda: generate(MatrixSpec(kind, seed=3)))
        assert peak <= 2.25 * out.nbytes


class TestKahan:
    def test_closed_form_3x3(self):
        m = generate(MatrixSpec(Kahan(n=3, s=0.6)))
        expected = np.array(
            [[1.0, -0.8, -0.8], [0.0, 0.6, -0.48], [0.0, 0.0, 0.36]]
        )
        assert np.allclose(m, expected, atol=1e-12)

    def test_padding(self):
        m = generate(MatrixSpec(Kahan(n=5, s=0.9, pad_to_m=16)))
        assert m.shape == (16, 5)
        assert np.max(np.abs(m[5:])) == 0.0

    def test_pad_smaller_than_n_rejected(self):
        with pytest.raises(ValueError, match="pad_to_m"):
            generate(MatrixSpec(Kahan(n=5, pad_to_m=3)))

    def test_s_range(self):
        with pytest.raises(ValueError, match="s must lie"):
            generate(MatrixSpec(Kahan(n=4, s=1.0)))

    def test_greedy_pivoting_never_swaps(self):
        for n, s, rows in [(64, 0.99, 64), (32, 0.99, 128)]:
            m = generate(MatrixSpec(Kahan(n=n, s=s, pad_to_m=rows)))
            fact = qrcp(m, n, want_q=False)
            assert np.array_equal(fact.perm.forward, np.arange(n))


class TestDevilsStairs:
    def test_prescribed_spectrum(self):
        spec = MatrixSpec(DevilsStairs(m=512, n=200, q=1e-2, stair_len=50), seed=3)
        sv = singular_values(generate(spec))
        expected = (1e-2) ** (np.arange(200) // 50)
        assert np.allclose(sv, expected, rtol=1e-8)

    def test_wide_request_clamps_to_whole_stairs(self):
        spec = MatrixSpec(DevilsStairs(m=256, n=500, q=1e-3, stair_len=100), seed=0)
        m = generate(spec)
        assert m.shape == (256, 200)
        sv = singular_values(m)
        assert np.allclose(sv[:100], 1.0, rtol=1e-8)
        assert np.allclose(sv[100:], 1e-3, rtol=1e-8)

    def test_too_few_rows_for_one_stair(self):
        with pytest.raises(ValueError, match="stair"):
            generate(MatrixSpec(DevilsStairs(m=60, n=500, stair_len=100)))

    def test_q_range(self):
        with pytest.raises(ValueError, match="q must lie"):
            generate(MatrixSpec(DevilsStairs(m=64, n=32, q=1.5)))


class TestStewart:
    def test_spectrum_within_perturbation(self):
        spec = MatrixSpec(Stewart(m=160, n=100, q=0.8), seed=5)
        m = generate(spec)
        half = 50
        prescribed = np.zeros(100)
        prescribed[: half + 1] = 0.8 ** np.arange(half + 1)
        c = 0.8**half
        tol = c * np.sqrt(160 * 100)
        assert np.max(np.abs(singular_values(m) - prescribed)) <= tol

    def test_requires_tall(self):
        with pytest.raises(ValueError, match="m >= n"):
            generate(MatrixSpec(Stewart(m=10, n=20)))


class TestHC:
    def test_prescription_count_at_benchmark_size(self):
        # 2 large values plus 498 log-spaced in [1e-14, 1e-2]: exactly 334
        # of them sit above 1e-10
        sigma = np.concatenate(([100.0, 10.0], np.logspace(-2, -14, 498)))
        assert int(np.sum(sigma > 1e-10)) == 334

    def test_generated_spectrum_matches(self):
        m = generate(MatrixSpec(HC(m=64, n=16), seed=1))
        expected = np.concatenate(([100.0, 10.0], np.logspace(-2, -14, 14)))
        assert np.allclose(singular_values(m), expected, rtol=1e-8)

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="n >= 3"):
            generate(MatrixSpec(HC(m=4, n=2)))


class TestSampledIdentity:
    def test_volume_exactly_one(self):
        m = generate(MatrixSpec(SampledIdentity(m=64, n=12), seed=7))
        assert volume(m) == 1.0

    def test_columns_are_distinct_unit_vectors(self):
        m = generate(MatrixSpec(SampledIdentity(m=32, n=8), seed=2))
        assert np.allclose(m.T @ m, np.eye(8))
        assert np.all(np.sum(m, axis=0) == 1.0)


class TestDeterminismAndJson:
    @pytest.mark.parametrize(
        "kind",
        [
            Kahan(n=6, s=0.7, pad_to_m=8),
            DevilsStairs(m=32, n=16, q=0.1, stair_len=4),
            Stewart(m=24, n=12, q=0.8),
            HC(m=24, n=8),
            SampledIdentity(m=32, n=5),
        ],
        ids=lambda k: type(k).__name__,
    )
    def test_bit_identical_and_roundtrip(self, kind):
        spec = MatrixSpec(kind, seed=99)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a, b)
        again = spec_from_json(spec_to_json(spec))
        assert again == spec
        assert np.array_equal(generate(again), a)

    def test_different_seeds_differ(self):
        a = generate(MatrixSpec(DevilsStairs(m=32, n=16, stair_len=4), seed=0))
        b = generate(MatrixSpec(DevilsStairs(m=32, n=16, stair_len=4), seed=1))
        assert not np.array_equal(a, b)

    def test_unknown_kind_in_json(self):
        with pytest.raises(ValueError, match="unknown matrix kind"):
            spec_from_json('{"kind": "hilbert", "params": {}, "seed": 0}')
