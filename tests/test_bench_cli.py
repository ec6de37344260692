import json

import numpy as np
import pytest

from spectra_rrqr import bench
from spectra_rrqr import (
    SrrqrConfig,
    Tolerance,
    load_matrix_binary,
    load_matrix_text,
    qrcp,
    rand_srrqr_rank,
    rand_srrqr_tol,
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
    run_verify,
    run_volume_decay,
    volume_decay_csv,
    volume_decay_gnuplot,
    write_csv,
)
from spectra_rrqr.cli import main

# (algo, parameters) on hc:64x16 for every algorithm
HC_RUNS = {
    "srrqr": {"tau": 1e-8},
    "rand-rank": {"k": 5, "d": 64},
    "rand-tau": {"tau": 1e-8, "d": 64},
    "qrcp": {"k": 5},
}

# arguments RunConfig accepts that fail in the run: the matrix descriptor
# or the sketch size (d above the padded row count 64)
RUN_ERRORS = [
    ["--matrix", "kahan", "--algo", "qrcp", "--k", "3"],
    ["--matrix", "identity:abc", "--algo", "qrcp", "--k", "3"],
    ["--matrix", "random:64x12", "--algo", "rand-rank", "--k", "6", "--d", "100"],
]

# (algo, k, tau) that RunConfig rejects
BAD_ARGS = [
    ("srrqr", None, None),
    ("qrcp", None, None),
    ("rand-rank", None, None),
    ("rand-tau", 3, None),
]


class TestResolveMatrix:
    def test_kinds_and_shapes(self):
        assert resolve_matrix("identity:16")[1].shape == (16, 16)
        d = resolve_matrix("diag:10")[1]
        assert np.array_equal(np.diag(d), np.arange(1.0, 11.0))
        assert resolve_matrix("random:8x5", seed=1)[1].shape == (8, 5)
        assert resolve_matrix("kahan:128x32")[1].shape == (128, 32)
        assert resolve_matrix("stairs:64x32:l=8")[1].shape == (64, 32)
        assert resolve_matrix("stewart:48x24")[1].shape == (48, 24)
        assert resolve_matrix("hc:64x16")[1].shape == (64, 16)
        assert resolve_matrix("sampled-identity:64x9")[1].shape == (64, 9)

    def test_kahan_params(self):
        loose = resolve_matrix("kahan:64x8:s=0.5")[1]
        assert np.isclose(loose[1, 1], 0.5, atol=1e-10)

    def test_seed_changes_random(self):
        a = resolve_matrix("random:6x4", seed=0)[1]
        b = resolve_matrix("random:6x4", seed=1)[1]
        assert not np.array_equal(a, b)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown matrix kind"):
            resolve_matrix("hilbert:8x8")

    def test_missing_dims(self):
        with pytest.raises(ValueError, match="dimensions"):
            resolve_matrix("kahan")


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
            assert rec["ratios"] is not None and rec["bound"] is not None
            json.dumps(rec)

    def test_deterministic_and_qrcp_records(self):
        for algo, kw in [("srrqr", {"tau": 1e-8}), ("qrcp", {"k": 5})]:
            cfg = RunConfig(matrix="hc:64x16", algo=algo, seeds=[0], **kw)
            (rec,) = run_factor(cfg)
            assert rec["algo"] == algo
            assert rec["timings_ms"]["total"] > 0

    @pytest.mark.parametrize("with_ratios", [False, True])
    def test_one_key_set_for_every_algo(self, with_ratios):
        mat = resolve_matrix("hc:64x16")[1]
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
        assert rec["kind"] is rec["f_tilde"] is rec["l_values"] is None
        rec = recs["qrcp"]
        assert rec["k"] == qrcp(mat, 5, want_q=False).k == 5
        assert rec["rho"] is rec["swap_count"] is None
        for algo, run, stop in [
            ("rand-rank", rand_srrqr_rank, {"k": 5}),
            ("rand-tau", rand_srrqr_tol, {"tau": 1e-8}),
        ]:
            res = run(mat, f=2.0, d=64, seed=0, want_q=False, **stop)
            rec = recs[algo]
            assert rec["k"] == res.k
            assert rec["swap_count"] == res.sketch_result.swap_count
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


class TestVerify:
    def test_identity_passes(self):
        report = run_verify("identity:16", "srrqr", f=2.0, k=8)
        assert report.exit_code == 0
        assert all(c.ok for c in report.checks)

    def test_randomized_passes(self):
        report = run_verify(
            "random:64x12", "rand-rank", f=2.0, k=6, d=48, seeds=list(range(5))
        )
        assert report.exit_code == 0

    def test_qrcp_on_kahan_fails_bounds(self):
        # the expected-fail fixture: greedy pivoting alone cannot satisfy
        # the strong bounds on this matrix
        report = run_verify("kahan:128x32", "qrcp", f=2.0, k=31)
        assert report.exit_code == 1
        names = " ".join(c.name for c in report.violations)
        assert "leading singular ratios" in names or "coupling" in names

    @pytest.mark.parametrize("algo, k, tau", BAD_ARGS)
    def test_bad_arguments_raise(self, algo, k, tau):
        with pytest.raises(ValueError, match="takes"):
            run_verify("identity:8", algo, k=k, tau=tau)

    @pytest.mark.parametrize(
        "matrix, algo, kw, names",
        [
            ("identity:16", "srrqr", {"k": 8}, SRRQR_CHECKS),
            ("kahan:128x32", "qrcp", {"k": 31}, QRCP_CHECKS),
            ("random:64x12", "rand-rank", {"k": 6, "d": 48}, RAND_CHECKS),
            ("hc:64x16", "rand-tau", {"tau": 1e-8, "d": 64}, RAND_TAU_CHECKS),
        ],
    )
    def test_checklist_names(self, matrix, algo, kw, names):
        report = run_verify(matrix, algo, seeds=[0, 1], **kw)
        assert [c.name for c in report.checks] == [
            f"seed={s} {name}" for s in (0, 1) for name in names
        ]

    def test_vacuous_distortion_opens_every_window(self):
        # d=8 < n=12 cannot embed the range of M: eps = 1
        (rec,) = run_factor(
            RunConfig(matrix="random:64x12", algo="rand-rank", k=6, d=8)
        )
        assert rec["epsilon_measured"] == 1.0 and rec["f_tilde"] is None
        report = run_verify("random:64x12", "rand-rank", k=6, d=8)
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
        report = run_verify("random:100x12", "rand-rank", k=6, d=48, seeds=[0, 1])
        assert report.exit_code == 0
        assert seen and all(shape[1] <= 6 + 1 for shape in seen)

    def test_report_lines_format(self):
        report = run_verify("identity:8", "srrqr", f=2.0, k=4)
        for line in report.lines():
            assert line.startswith("[PASS]") or line.startswith("[FAIL]")
            assert "limit=" in line


class TestVolumeDecay:
    def test_log_volume_decreases(self):
        result = run_volume_decay(512, 128, range(16, 81, 16), seed=0)
        logs = [r["log_volume"] for r in result["rows"]]
        assert all(b < a for a, b in zip(logs, logs[1:]))
        assert result["slope"] < 0

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
    @pytest.mark.parametrize("args", RUN_ERRORS, ids=["no-dims", "bad-dims", "big-d"])
    def test_run_errors_exit_2(self, command, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command] + args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("spectra-rrqr: error: ")

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
