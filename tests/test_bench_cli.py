import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spectra_rrqr
from spectra_rrqr import bench, dense_core, testmat
from spectra_rrqr import (
    SrrqrConfig,
    SrrqrResult,
    Tolerance,
    export_record,
    load_matrix_binary,
    load_matrix_text,
    qlp_values,
    qrcp,
    rand_srrqr_rank,
    rand_srrqr_tol,
    ratio_report,
    srrqr,
)
from spectra_rrqr.bench import (
    ALGOS,
    CSV_COLUMNS,
    RECORD_KEYS,
    RunConfig,
    records_to_csv_rows,
    resolve_matrix,
    run_factor,
    run_timing,
    run_volume_decay,
    verify_config,
    volume_decay_csv,
    volume_decay_gnuplot,
    write_csv,
)
from spectra_rrqr.cli import main
from spectra_rrqr.srrqr import det_ratio_matrix

from oracles import exhaustive_det_ratios

# (algo, parameters) on hc:64x16 for every algorithm
HC_RUNS = {
    "srrqr": {"tau": 1e-8},
    "rand-rank": {"k": 5, "d": 64},
    "rand-tau": {"tau": 1e-8, "d": 64},
    "qrcp": {"k": 5},
}

# arguments that fail before or in the run, and a fragment of the error
# line: the matrix descriptor or its bad segment, which the message names,
# the sketch size (d above the padded row count 64), a sketch option
# given to an algorithm that does not sketch, or a tolerance above every
# column norm (no pivot to report)
RUN_ERRORS = [
    pytest.param(
        ["--matrix", "kahan", "--algo", "qrcp", "--k", "3"], "'kahan'", id="no-dims"
    ),
    pytest.param(
        ["--matrix", "identity:abc", "--algo", "qrcp", "--k", "3"],
        "'identity:abc'",
        id="bad-dims",
    ),
    pytest.param(
        ["--matrix", "kahan:64x16:s", "--algo", "qrcp", "--k", "3"],
        "'kahan:64x16:s'",
        id="bad-param",
    ),
    pytest.param(
        ["--matrix", "stewart:64x32:qq=0.5", "--algo", "qrcp", "--k", "3"],
        "unknown key 'qq'",
        id="unknown-key",
    ),
    pytest.param(
        ["--matrix", "random:64x12", "--algo", "rand-rank", "--k", "6", "--d", "100"],
        "d=100",
        id="big-d",
    ),
    pytest.param(
        ["--matrix", "identity:16x8", "--algo", "qrcp", "--k", "3"],
        "bad segment '16x8'",
        id="identity-two-dims",
    ),
    pytest.param(
        ["--matrix", "diag:4x9", "--algo", "qrcp", "--k", "3"],
        "bad segment '4x9'",
        id="diag-two-dims",
    ),
    pytest.param(
        ["--matrix", "hc:64x16x3", "--algo", "qrcp", "--k", "3"],
        "bad segment '64x16x3'",
        id="three-dims",
    ),
    pytest.param(
        ["--matrix", "stairs:64x32:l=2.5", "--algo", "qrcp", "--k", "3"],
        "bad segment 'l=2.5'",
        id="fractional-l",
    ),
    pytest.param(
        ["--matrix", "hc:64x16", "--algo", "qrcp", "--k", "5", "--d", "3"],
        "qrcp does not sketch",
        id="qrcp-d",
    ),
    pytest.param(
        ["--matrix", "hc:64x16", "--algo", "qrcp", "--k", "5", "--kind", "gaussian"],
        "qrcp does not sketch",
        id="qrcp-kind",
    ),
    pytest.param(
        ["--matrix", "hc:64x16", "--algo", "srrqr", "--tau", "1e10"],
        "tolerance exceeds every column norm",
        id="srrqr-tau-above-norms",
    ),
]

# other commands' input errors, each one error line and exit code 2
COMMAND_ERRORS = {
    "gen-matrix-no-dims": ["gen-matrix", "--matrix", "kahan", "--out", "x.txt"],
    "timing-no-dims": ["timing", "--matrix", "kahan"],
    "decay-empty-range": ["volume-decay", "--n", "30:10"],
    "decay-zero-step": ["volume-decay", "--n", "10:30:0"],
    "decay-big-n": ["volume-decay", "--m", "64", "--d", "32", "--n", "40"],
    "decay-one-count": ["volume-decay", "--m", "256", "--d", "64", "--n", "16"],
    "no-seeds": ["verify", "--matrix", "random:64x12", "--algo", "rand-rank"]
    + ["--k", "6", "--seeds", "0"],
    "negative-seeds": ["factor", "--matrix", "random:64x12", "--algo", "rand-rank"]
    + ["--k", "6", "--seeds", "-2"],
}

# (algo, k, tau) that RunConfig rejects
BAD_ARGS = [
    ("srrqr", None, None),
    ("qrcp", None, None),
    ("rand-rank", None, None),
    ("rand-tau", 3, None),
]


class TestResolveMatrix:
    def test_kinds_and_shapes(self):
        assert resolve_matrix("identity:16").shape == (16, 16)
        d = resolve_matrix("diag:10")
        assert np.array_equal(np.diag(d), np.arange(1.0, 11.0))
        assert resolve_matrix("random:8x5", seed=1).shape == (8, 5)
        assert resolve_matrix("kahan:128x32").shape == (128, 32)
        assert resolve_matrix("stairs:64x32:l=8").shape == (64, 32)
        assert resolve_matrix("stewart:48x24").shape == (48, 24)
        assert resolve_matrix("hc:64x16").shape == (64, 16)
        assert resolve_matrix("sampled-identity:64x9").shape == (64, 9)

    def test_kahan_params(self):
        loose = resolve_matrix("kahan:64x8:s=0.5")
        assert np.isclose(loose[1, 1], 0.5, atol=1e-10)

    def test_seed_changes_random(self):
        a = resolve_matrix("random:6x4", seed=0)
        b = resolve_matrix("random:6x4", seed=1)
        assert not np.array_equal(a, b)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown matrix kind"):
            resolve_matrix("hilbert:8x8")

    def test_missing_dims(self):
        with pytest.raises(ValueError, match="dimensions"):
            resolve_matrix("kahan")

    @pytest.mark.parametrize(
        "text, segment",
        [("identity:abc", "abc"), ("kahan:64x16:s", "s"), ("hc:8xq", "8xq")],
    )
    def test_bad_segment_named(self, text, segment):
        with pytest.raises(ValueError) as exc:
            resolve_matrix(text)
        assert str(exc.value) == f"matrix descriptor {text!r}: bad segment {segment!r}"

    @pytest.mark.parametrize(
        "text, key, takes",
        [
            ("stewart:64x32:qq=0.5", "qq", "q"),
            ("hc:64x16:q=0.5", "q", "no keys"),
            ("kahan:64x16:l=4", "l", "s, pert"),
            ("stairs:64x32:stair_len=8", "stair_len", "q, l"),
            ("random:8x4:s=0.5", "s", "no keys"),
        ],
    )
    def test_unknown_key_named(self, text, key, takes):
        with pytest.raises(ValueError) as exc:
            resolve_matrix(text)
        assert str(exc.value).startswith(
            f"matrix descriptor {text!r}: unknown key {key!r}"
        )
        assert str(exc.value).endswith(f"takes {takes})")

    def test_documented_keys_set_the_generator(self):
        spec = testmat.Kahan(n=16, s=0.9, pad_to_m=32, diag_perturb=5.0)
        want = testmat.generate(testmat.MatrixSpec(spec))
        assert np.array_equal(resolve_matrix("kahan:32x16:S=0.9:pert=5"), want)
        spec = testmat.DevilsStairs(m=64, n=32, q=0.5, stair_len=8)
        want = testmat.generate(testmat.MatrixSpec(spec, seed=3))
        for kind in ("stairs", "devils-stairs", "devils_stairs"):
            got = resolve_matrix(f"{kind}:64x32:q=0.5:l=8", seed=3)
            assert np.array_equal(got, want)

    def test_param_keys_ignore_case(self):
        upper = resolve_matrix("stairs:64x32:L=8")
        assert np.array_equal(upper, resolve_matrix("stairs:64x32:l=8"))
        assert not np.array_equal(upper, resolve_matrix("stairs:64x32"))


class TestRunConfig:
    def test_srrqr_needs_exactly_one_mode(self):
        with pytest.raises(ValueError, match="exactly one"):
            RunConfig(matrix="identity:8", algo="srrqr")
        with pytest.raises(ValueError, match="exactly one"):
            RunConfig(matrix="identity:8", algo="srrqr", k=2, tau=0.1)
        RunConfig(matrix="identity:8", algo="srrqr", k=2)
        RunConfig(matrix="identity:8", algo="srrqr", tau=0.1)

    def test_rand_rank_takes_k(self):
        with pytest.raises(ValueError, match="takes k"):
            RunConfig(matrix="identity:8", algo="rand-rank", tau=0.1)

    def test_rand_tau_takes_tau(self):
        with pytest.raises(ValueError, match="takes tau"):
            RunConfig(matrix="identity:8", algo="rand-tau", k=3)

    def test_unknown_algo(self):
        with pytest.raises(ValueError, match="unknown algo"):
            RunConfig(matrix="identity:8", algo="svd", k=2)

    def test_empty_seeds(self):
        with pytest.raises(ValueError, match="no seeds"):
            RunConfig(matrix="identity:8", algo="qrcp", k=2, seeds=[])


class TestRunFactor:
    def test_rand_tau_records(self):
        cfg = RunConfig(
            matrix="hc:64x16",
            algo="rand-tau",
            tau=1e-8,
            d=64,
            seeds=[0, 1, 2],
            with_ratios=True,
        )
        records = run_factor(cfg)
        assert [r["seed"] for r in records] == [0, 1, 2]
        for rec in records:
            assert rec["algo"] == "rand-tau"
            assert rec["ratios"] is not None
            # a vacuous eps (>= 1) makes f_tilde and the bound infinite, so null
            vacuous = rec["epsilon_measured"] >= 1.0
            assert (rec["bound"] is None) == (rec["f_tilde"] is None) == vacuous
            json.dumps(rec, allow_nan=False)
        # seed 2 measures eps 1.09; seeds 0 and 1 keep a finite bound
        assert [rec["bound"] is None for rec in records] == [False, False, True]

    def test_deterministic_and_qrcp_records(self):
        for algo, kw in [("srrqr", {"tau": 1e-8}), ("qrcp", {"k": 5})]:
            cfg = RunConfig(matrix="hc:64x16", algo=algo, seeds=[0], **kw)
            (rec,) = run_factor(cfg)
            assert rec["algo"] == algo
            assert rec["timings_ms"]["total"] > 0

    @pytest.mark.parametrize("algo", ALGOS)
    def test_record_is_export_record(self, algo, monkeypatch):
        # bench sets algo, seed and the total time; export_record builds the rest
        results, factor = [], bench._factor

        def keep(mat, cfg, seed):
            res, ms = factor(mat, cfg, seed)
            results.append(res)
            return res, ms

        monkeypatch.setattr(bench, "_factor", keep)
        kw = HC_RUNS[algo]
        cfg = RunConfig(matrix="hc:64x16", algo=algo, seeds=[3], with_ratios=True, **kw)
        (rec,) = run_factor(cfg)
        (res,) = results
        mat = resolve_matrix("hc:64x16")
        qlp = qlp_values(res) if res.sketch_result is not None else None
        want = export_record(res, ratio_report(mat, res), qlp)
        assert rec["timings_ms"].pop("total") > 0
        assert rec == {**want, "algo": algo, "seed": 3}

    def test_readme_record_schema(self):
        # the README's record paragraph lists RECORD_KEYS in order and names
        # the one builder
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        para = text[text.index("- Factor records") : text.index("## Library example")]
        listed = re.search(r"`bench\.RECORD_KEYS` = `\{(.*?)\}`", para, re.S).group(1)
        assert re.split(r",\s*", listed) == list(RECORD_KEYS)
        assert "`rand_srrqr.export_record`" in para and "factor_record" not in para

    @pytest.mark.parametrize("with_ratios", [False, True])
    def test_one_key_set_for_every_algo(self, with_ratios):
        mat = resolve_matrix("hc:64x16")
        recs = {}
        for algo, kw in HC_RUNS.items():
            cfg = RunConfig(matrix="hc:64x16", algo=algo, with_ratios=with_ratios, **kw)
            (recs[algo],) = run_factor(cfg)
            assert list(recs[algo]) == list(RECORD_KEYS)
            assert recs[algo]["algo"] == algo
            assert recs[algo]["timings_ms"]["total"] > 0
            assert (recs[algo]["ratios"] is not None) == with_ratios
            json.dumps(recs[algo])
        det = srrqr(mat, SrrqrConfig(f=2.0, mode=Tolerance(1e-8)), want_q=False)
        rec = recs["srrqr"]
        assert (rec["k"], rec["rho"]) == (det.k, det.rho)
        assert rec["swap_count"] == det.swap_count
        assert rec["stop_reason"] == det.stop_reason == "tolerance"
        assert rec["kind"] is rec["f_tilde"] is rec["l_values"] is None
        rec = recs["qrcp"]
        assert rec["k"] == qrcp(mat, 5, want_q=False).k == 5
        assert rec["rho"] is rec["swap_count"] is rec["stop_reason"] is None
        for algo, run, stop in [
            ("rand-rank", rand_srrqr_rank, {"k": 5}),
            ("rand-tau", rand_srrqr_tol, {"tau": 1e-8}),
        ]:
            res = run(mat, f=2.0, d=64, seed=0, want_q=False, **stop)
            rec = recs[algo]
            assert rec["k"] == res.k
            assert rec["swap_count"] == res.sketch_result.swap_count
            assert rec["stop_reason"] == res.sketch_result.stop_reason
            assert rec["f_tilde"] == res.f_tilde and rec["rho"] is None
            assert rec["epsilon_measured"] == res.distortion
            assert rec["epsilon_nominal"] is None
            assert set(rec["timings_ms"]) == set(res.timings_ms) | {"total"}
            assert (rec["l_values"] is not None) == with_ratios

    def test_thread_cap_env(self, monkeypatch):
        monkeypatch.setenv("SPECTRA_RRQR_THREADS", "2")
        cfg = RunConfig(
            matrix="random:32x8", algo="rand-rank", k=3, d=32, seeds=list(range(6))
        )
        records = run_factor(cfg)
        assert [r["seed"] for r in records] == list(range(6))


class TestCsvSchema:
    def test_golden_header(self):
        # the column set is a stable external interface
        assert CSV_COLUMNS == [
            "experiment",
            "seed",
            "k",
            "i_or_j",
            "ratio",
            "bound",
            "kind",
            "d",
            "f",
            "epsilon",
        ]
        text = write_csv([])
        assert text == "experiment,seed,k,i_or_j,ratio,bound,kind,d,f,epsilon\n"

    @pytest.mark.parametrize(
        "cfg, source",
        [
            (RunConfig("random:300x70", "rand-rank", k=30), "epsilon_nominal"),
            (RunConfig("random:32x6", "rand-rank", k=3, d=32), "epsilon_measured"),
        ],
        ids=["nominal", "measured"],
    )
    def test_epsilon_is_the_one_bound_was_built_from(self, cfg, source):
        # above 64 columns eps is nominal; the column then holds it rather
        # than an empty cell next to a bound built from it
        (rec,) = run_factor(replace(cfg, with_ratios=True))
        assert rec[source] is not None
        rows = records_to_csv_rows([rec])
        assert {r["epsilon"] for r in rows} == {rec[source]}
        assert rec["bound"] in {r["bound"] for r in rows}

    def test_row_structure(self):
        cfg = RunConfig(
            matrix="random:32x6",
            algo="rand-rank",
            k=3,
            d=32,
            seeds=[4],
            with_ratios=True,
        )
        rows = records_to_csv_rows(run_factor(cfg))
        kinds = [r["experiment"] for r in rows]
        assert kinds[:3] == ["rank", "swap_count", "time_total_ms"]
        assert kinds.count("leading_ratio") == 3
        assert kinds.count("trailing_ratio") == 3
        assert kinds.count("coupling_max") == 1
        text = write_csv(rows)
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert len(text.splitlines()) == 1 + len(rows)


RATIO_CHECKS = [
    "leading singular ratios",
    "trailing singular ratios",
    "interlacing lower bound",
    "coupling entries",
]
SRRQR_CHECKS = [f"srrqr {n}" for n in RATIO_CHECKS] + [
    "srrqr exhaustive swap certificate"
]
QRCP_CHECKS = [f"qrcp {n}" for n in RATIO_CHECKS]
SANDWICHES = [
    f"{name} {side}"
    for name in (
        "sketch singular values",
        "trailing norm sandwich",
        "trailing frobenius sandwich",
    )
    for side in ("upper", "lower")
]
TAIL_CHECKS = [
    "residual sandwich upper",
    "residual sandwich lower",
    "swap ratio preservation upper",
    "swap ratio preservation lower",
    "exhaustive swap certificate",
]
RAND_HEAD = [f"randomized {n}" for n in RATIO_CHECKS] + SANDWICHES
RAND_CHECKS = RAND_HEAD + TAIL_CHECKS
RAND_TAU_CHECKS = RAND_HEAD + ["trailing norms within tolerance"] + TAIL_CHECKS
# one verify configuration per algorithm and the checks it reports
CHECKLISTS = [
    ("identity:16", "srrqr", {"k": 8}, SRRQR_CHECKS),
    ("kahan:128x32", "qrcp", {"k": 31}, QRCP_CHECKS),
    ("random:64x12", "rand-rank", {"k": 6, "d": 48}, RAND_CHECKS),
    ("hc:64x16", "rand-tau", {"tau": 1e-8, "d": 64}, RAND_TAU_CHECKS),
]


class TestVerify:
    def test_identity_passes(self):
        report = verify_config(RunConfig("identity:16", "srrqr", f=2.0, k=8))
        assert report.exit_code == 0
        assert all(c.ok for c in report.checks)

    def test_randomized_passes(self):
        cfg = RunConfig(
            "random:64x12", "rand-rank", f=2.0, k=6, d=48, seeds=list(range(5))
        )
        report = verify_config(cfg)
        assert report.exit_code == 0

    def test_qrcp_on_kahan_fails_bounds(self):
        # the expected-fail fixture: greedy pivoting alone cannot satisfy
        # the strong bounds on this matrix
        report = verify_config(RunConfig("kahan:128x32", "qrcp", f=2.0, k=31))
        assert report.exit_code == 1
        names = " ".join(c.name for c in report.violations)
        assert "leading singular ratios" in names or "coupling" in names

    @pytest.mark.parametrize("algo, k, tau", BAD_ARGS)
    def test_bad_arguments_raise(self, algo, k, tau):
        with pytest.raises(ValueError, match="takes"):
            verify_config(RunConfig("identity:8", algo, k=k, tau=tau))

    @pytest.mark.parametrize("matrix, algo, kw, names", CHECKLISTS)
    def test_checklist_names(self, matrix, algo, kw, names):
        report = verify_config(RunConfig(matrix, algo, seeds=[0, 1], **kw))
        assert [c.name for c in report.checks] == [
            f"seed={s} {name}" for s in (0, 1) for name in names
        ]

    def test_vacuous_distortion_opens_every_window(self):
        # d=8 < n=12 cannot embed the range of M: eps = 1
        (rec,) = run_factor(
            RunConfig(matrix="random:64x12", algo="rand-rank", k=6, d=8)
        )
        assert rec["epsilon_measured"] == 1.0 and rec["f_tilde"] is None
        report = verify_config(RunConfig("random:64x12", "rand-rank", k=6, d=8))
        assert [c.name for c in report.checks] == [f"seed=0 {n}" for n in RAND_CHECKS]
        for c in report.checks:
            if c.name.endswith("interlacing lower bound"):
                assert c.limit == 1.0 - 1e-8
            elif c.comparator == "<=":
                assert c.limit == float("inf"), c.name
            else:
                assert c.limit == 0.0, c.name
        assert report.exit_code == 0

    def test_sketches_only_the_least_squares_block(self, monkeypatch):
        # the sketch checks reuse the call's R factor; only [M[:, :6], b]
        # is sketched again, never all 12 columns of M
        seen = []
        real = bench.apply

        def spy(op, mat):
            seen.append(np.shape(mat))
            return real(op, mat)

        monkeypatch.setattr(bench, "apply", spy)
        report = verify_config(
            RunConfig("random:100x12", "rand-rank", k=6, d=48, seeds=[0, 1])
        )
        assert report.exit_code == 0
        assert seen and all(shape[1] <= 6 + 1 for shape in seen)

    def test_exhaustive_certificate_on_compressed_state(self, monkeypatch):
        # a tall input whose state is compressed to its 128-row R factor and
        # that makes interchanges; the certificate reads every swap of the
        # returned M P off one QR of it, never off the compressed state
        seen = []
        real = bench._factor

        def spy(mat, cfg, seed):
            res, ms = real(mat, cfg, seed)
            seen.append(res)
            return res, ms

        monkeypatch.setattr(bench, "_factor", spy)
        report = verify_config(RunConfig("stewart:1024x128", "srrqr", f=1.1, k=40))
        assert len(report.checks) == 5 and report.exit_code == 0
        (res,) = seen
        assert res.swap_count == 26 and res.state.r.shape[0] == 128

    @pytest.mark.parametrize(
        "cfg, most",
        [
            (RunConfig("stewart:1024x128", "srrqr", f=1.1, k=40), 3),
            (RunConfig("random:64x12", "rand-rank", k=6, d=48), 4),
        ],
        ids=["stewart-srrqr", "random-rand-rank"],
    )
    def test_qr_count_independent_of_swap_count(self, monkeypatch, cfg, most):
        # the swap checks factor M P once; one QR per candidate swap made
        # k(n-k) calls: 3,522 and 39 on these two runs
        calls = []
        # the engine's one routine, with or without the GIL
        for name in ("_DGEQRT", "_DGEQRT_GIL"):
            real = getattr(dense_core, name)

            def spy(*args, real=real):
                calls.append(1)
                return real(*args)

            monkeypatch.setattr(dense_core, name, spy)
        assert verify_config(cfg).exit_code == 0
        assert 1 <= len(calls) <= most

    @pytest.mark.parametrize(
        "cfg",
        [
            RunConfig(matrix, algo, seeds=[0, 1], **kw)
            for matrix, algo, kw, _ in CHECKLISTS
        ]
        + [RunConfig("stewart:1024x128", "srrqr", f=1.1, k=40)],
        ids=lambda cfg: f"{cfg.matrix}-{cfg.algo}",
    )
    def test_swap_ratios_match_the_oracle(self, monkeypatch, cfg):
        # the closed form on one QR of M P against a refactorization per
        # swap, on the factorizations verify checks; every swap check the
        # oracle's ratios would give has the verdict the report gives
        results = {}
        real = bench._factor

        def spy(mat, cfg, seed):
            res, ms = real(mat, cfg, seed)
            results[seed] = (mat, res)
            return res, ms

        monkeypatch.setattr(bench, "_factor", spy)
        checks = {c.name: c for c in verify_config(cfg).checks}
        for seed, (mat, res) in results.items():
            fact = getattr(res, "factorization", res)
            closed = bench._swap_ratios(mat, fact)
            oracle = exhaustive_det_ratios(fact.perm.apply_cols(mat), fact.k)
            top = float(oracle.max())
            assert np.max(np.abs(closed - oracle)) <= 1e-6 * top
            verdicts = {}
            if cfg.algo == "srrqr":
                verdicts["srrqr exhaustive swap certificate"] = top
            elif cfg.algo != "qrcp":
                verdicts["exhaustive swap certificate"] = top
                d_sk = det_ratio_matrix(res.sketch_result.state)
                quot = oracle[d_sk > 1e-290] / d_sk[d_sk > 1e-290]
                verdicts["swap ratio preservation upper"] = quot.max()
                verdicts["swap ratio preservation lower"] = quot.min()
            for name, value in verdicts.items():
                check = checks[f"seed={seed} {name}"]
                assert replace(check, value=float(value)).ok == check.ok

    def test_srrqr_tau_checks_the_tolerance(self):
        # srrqr guarantees max gamma_j <= tau; verify checks it with eps = 0
        cfg = RunConfig("hc:64x16", "srrqr", tau=1e-8)
        report = verify_config(cfg)
        names = SRRQR_CHECKS + ["trailing norms within tolerance"]
        assert [c.name for c in report.checks] == [f"seed=0 {n}" for n in names]
        check = report.checks[-1]
        det = srrqr(resolve_matrix("hc:64x16"), SrrqrConfig(2.0, Tolerance(1e-8)))
        gamma = np.linalg.norm(det.factorization.r22, axis=0)
        assert check.value == pytest.approx(gamma.max(), rel=1e-12)
        assert check.limit == (1.0 + 1e-8) * 1e-8 and check.ok

    def test_report_lines_format(self):
        report = verify_config(RunConfig("identity:8", "srrqr", f=2.0, k=4))
        for line in report.lines():
            assert line.startswith("[PASS]") or line.startswith("[FAIL]")
            assert "limit=" in line


class TestOneDispatch:
    @pytest.mark.parametrize("algo, kw", HC_RUNS.items())
    def test_one_result_type(self, algo, kw):
        cfg = RunConfig("hc:64x16", algo, **kw)
        res, _ = bench._factor(resolve_matrix(cfg.matrix), cfg, 0)
        assert type(res) is SrrqrResult and res.f == cfg.f
        # a result says whether it was sketched by its fields alone
        assert (res.sketch_result is not None) == algo.startswith("rand")
        assert not hasattr(spectra_rrqr, "RandSrrqrResult")

    def test_every_driver_runs_through_factor(self, monkeypatch):
        calls = []
        real = bench._factor

        def spy(mat, cfg, seed):
            calls.append((cfg.algo, seed))
            return real(mat, cfg, seed)

        monkeypatch.setattr(bench, "_factor", spy)
        run_factor(RunConfig("hc:64x16", "qrcp", k=5, seeds=[0, 1]))
        assert sorted(calls) == [("qrcp", 0), ("qrcp", 1)]
        calls.clear()
        verify_config(RunConfig("identity:8", "srrqr", k=4))
        assert calls == [("srrqr", 0)]
        calls.clear()
        out = run_timing("stairs:128x32:l=8", tau=1e-8, d=64, seed=2)
        assert calls == [("srrqr", 2), ("rand-tau", 2)]
        assert out["deterministic_k"] == out["randomized_k"]


class TestVolumeDecay:
    def test_log_volume_decreases(self):
        result = run_volume_decay(512, 128, range(16, 81, 16), seed=0)
        logs = [r["log_volume"] for r in result["rows"]]
        assert all(b < a for a, b in zip(logs, logs[1:]))
        assert result["slope"] < 0

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="no column counts"):
            run_volume_decay(512, 96, range(40, 20), seed=0)

    @pytest.mark.parametrize("n_values", [[16], [16, 16]])
    def test_one_count_rejected(self, n_values):
        # a line through one point has no meaningful slope
        with pytest.raises(ValueError, match="two distinct column counts"):
            run_volume_decay(256, 64, n_values, seed=0)

    def test_saturated_sketch_rejected(self):
        with pytest.raises(ValueError, match="exceeds sketch size"):
            run_volume_decay(512, 96, range(40, 121, 20), seed=0)

    def test_csv_and_gnuplot(self, tmp_path):
        result = run_volume_decay(256, 64, range(16, 49, 16), seed=1)
        path = tmp_path / "decay.csv"
        text = volume_decay_csv(result, path)
        assert text.splitlines()[0] == "n,volume,log_volume"
        assert len(text.splitlines()) == 1 + len(result["rows"])
        script = volume_decay_gnuplot(str(path))
        assert "plot" in script and str(path) in script


class TestTiming:
    def test_keys_and_sanity(self):
        out = run_timing("stairs:256x64:l=16", tau=1e-8, d=128, seed=0)
        assert out["deterministic_k"] == out["randomized_k"] == 48
        assert out["deterministic_ms"] > 0 and out["randomized_ms"] > 0


class TestCli:
    def test_gen_matrix_roundtrip(self, tmp_path):
        out = tmp_path / "m.txt"
        assert main(["gen-matrix", "--matrix", "kahan:16x8", "--out", str(out)]) == 0
        assert load_matrix_text(out).shape == (16, 8)
        out2 = tmp_path / "m.bin"
        code = main(
            [
                "gen-matrix",
                "--matrix",
                "random:8x4",
                "--seed",
                "3",
                "--out",
                str(out2),
                "--format",
                "binary",
            ]
        )
        assert code == 0
        assert load_matrix_binary(out2).shape == (8, 4)

    def test_factor_json(self, tmp_path, capsys):
        out = tmp_path / "rec.json"
        code = main(
            [
                "factor",
                "--matrix",
                "hc:64x16",
                "--algo",
                "rand-tau",
                "--tau",
                "1e-8",
                "--d",
                "64",
                "--seeds",
                "2",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        records = json.loads(out.read_text())
        assert len(records) == 2

    def test_ratios_prints_csv(self, capsys):
        code = main(
            [
                "ratios",
                "--matrix",
                "identity:12",
                "--algo",
                "srrqr",
                "--k",
                "6",
            ]
        )
        assert code == 0
        outp = capsys.readouterr().out
        assert outp.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert "leading_ratio" in outp

    def test_ratios_on_graded_diagonal_all_one(self):
        cfg = RunConfig(
            matrix="diag:10", algo="srrqr", k=5, seeds=[0], with_ratios=True
        )
        (rec,) = run_factor(cfg)
        assert np.allclose(rec["ratios"]["leading"], 1.0, atol=1e-12)
        assert np.allclose(
            [x for x in rec["ratios"]["trailing"] if x is not None], 1.0, atol=1e-12
        )

    def test_records_are_strict_json_when_eps_is_vacuous(self, capsys):
        # d=13 measures eps 2.56 here, so f_tilde and the bound are infinite
        argv = ["ratios", "--matrix", "random:64x12", "--algo", "rand-rank"]
        argv += ["--k", "6", "--d", "13"]

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        assert main(argv + ["--format", "json"]) == 0
        (rec,) = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert rec["epsilon_measured"] >= 1.0
        assert rec["f_tilde"] is None and rec["bound"] is None
        # the CSV cells of a null bound are empty
        assert main(argv + ["--format", "csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        bound = rows[0].index("bound")
        assert {row[bound] for row in rows if row[0] == "leading_ratio"} == {""}

    def test_verify_exit_codes(self, capsys):
        ok = main(["verify", "--matrix", "identity:16", "--algo", "srrqr", "--k", "8"])
        assert ok == 0
        bad = main(
            ["verify", "--matrix", "kahan:128x32", "--algo", "qrcp", "--k", "31"]
        )
        assert bad == 1

    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize(
        "command", [["factor", "--format", "json"], ["factor"], ["ratios"], ["verify"]]
    )
    def test_every_algo(self, algo, command, capsys):
        opts = [f"--{key}={val}" for key, val in HC_RUNS[algo].items()]
        argv = command[:1] + ["--matrix", "hc:64x16", "--algo", algo] + opts
        assert main(argv + command[1:]) == 0
        out = capsys.readouterr().out
        if "json" in command:
            (rec,) = json.loads(out)
            assert list(rec) == list(RECORD_KEYS) and rec["algo"] == algo
        elif command == ["verify"]:
            count = len(out.splitlines()) - 1
            assert out.splitlines()[-1] == f"{count}/{count} checks passed"
        else:
            lines = out.splitlines()
            assert lines[0] == ",".join(CSV_COLUMNS)
            assert lines[1].startswith("rank,0,")
            assert ("leading_ratio" in out) == (command == ["ratios"])

    @pytest.mark.parametrize("command", ["factor", "ratios", "verify"])
    @pytest.mark.parametrize("algo, k, tau", BAD_ARGS)
    def test_bad_arguments_exit_2(self, command, algo, k, tau, capsys):
        argv = [command, "--matrix", "identity:8", "--algo", algo]
        argv += ["--k", str(k)] if k is not None else []
        argv += ["--tau", str(tau)] if tau is not None else []
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("spectra-rrqr: error: ") and "takes" in err[-1]

    @pytest.mark.parametrize("command", ["factor", "ratios", "verify"])
    @pytest.mark.parametrize("args, fragment", RUN_ERRORS)
    def test_run_errors_exit_2(self, command, args, fragment, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command] + args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("spectra-rrqr: error: ")
        assert fragment in err.splitlines()[-1]

    @pytest.mark.parametrize("argv", COMMAND_ERRORS.values(), ids=COMMAND_ERRORS.keys())
    def test_command_errors_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        errors = [x for x in captured.err.splitlines() if "error" in x]
        assert len(errors) == 1 and errors[0].startswith("spectra-rrqr: error: ")
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    def test_seed_list_error_names_option(self, capsys):
        argv = ["factor", "--matrix", "identity:8", "--algo", "qrcp", "--k", "2"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed-list", "1,a"])
        assert exc.value.code == 2
        line = capsys.readouterr().err.splitlines()[-1]
        assert line.startswith("spectra-rrqr: error: --seed-list") and "'1,a'" in line

    @pytest.mark.parametrize("text", ["abc", "10:30:0", "1:2:3:4"])
    def test_range_error_names_option(self, text, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["volume-decay", "--n", text])
        assert exc.value.code == 2
        line = capsys.readouterr().err.splitlines()[-1]
        assert line.startswith("spectra-rrqr: error: --n ") and repr(text) in line

    def test_volume_decay_cli(self, tmp_path, capsys):
        out = tmp_path / "vol.csv"
        code = main(
            [
                "volume-decay",
                "--m",
                "256",
                "--d",
                "64",
                "--n",
                "16:48:16",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists() and (tmp_path / "vol.csv.gp").exists()

    def test_timing_cli(self, capsys):
        code = main(
            ["timing", "--matrix", "stairs:128x32:l=8", "--tau", "1e-10", "--d", "64"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert "deterministic_ms" in out and "randomized_pipeline_ms" in out
