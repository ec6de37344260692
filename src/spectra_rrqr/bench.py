"""Experiment drivers behind the command-line harness.

Everything here is importable so the test suite can exercise the bench
logic without spawning subprocesses.  :func:`_factor` is the one place that
maps an algorithm name to its call; the factor records (one key set,
:data:`RECORD_KEYS`, for all four algorithms) and the bound checklist of
``verify`` are both built from its result.  Seeds fan out across a thread
pool with one thread per available CPU, capped by the ``SPECTRA_RRQR_THREADS``
environment variable (:func:`.sketch.worker_count`); records are returned
in seed order regardless of completion order.
"""
from __future__ import annotations

import csv
import io
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import testmat
from .dense_core import PartialQR, as_matrix, partial_qr, r_factor, singular_values
from .rand_srrqr import (
    RandSrrqrResult,
    export_record,
    qlp_values,
    rand_srrqr_rank,
    rand_srrqr_tol,
    ratio_report,
    record_ratios,
)
from .sketch import SketchOperator, _operator_rows, apply, worker_count
from .srrqr import (
    SrrqrConfig,
    SrrqrResult,
    TargetRank,
    Tolerance,
    det_ratio_matrix,
    qrcp,
    srrqr,
)
from .testmat import MatrixSpec, generate

CSV_COLUMNS = [
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

VOLUME_CSV_COLUMNS = ["n", "volume", "log_volume"]

ALGOS = ("srrqr", "rand-rank", "rand-tau", "qrcp")

# the keys of every factor record, for all four algorithms; a key that does
# not apply is null: kind, d, epsilon_*, f_tilde, l_values and r_values for
# srrqr and qrcp, rho for all but srrqr, swap_count for qrcp, and ratios,
# bound, l_values and r_values unless the ratios were asked for
RECORD_KEYS = (
    "algo",
    "k",
    "seed",
    "kind",
    "d",
    "f",
    "epsilon_measured",
    "epsilon_nominal",
    "f_tilde",
    "rho",
    "swap_count",
    "ratios",
    "bound",
    "l_values",
    "r_values",
    "timings_ms",
)


def resolve_matrix(text: str, seed: int = 0) -> tuple[str, np.ndarray]:
    """Build a matrix from a compact descriptor like ``hc:8192x500``.

    Kinds: kahan, stairs, stewart, hc, sampled-identity, identity, diag,
    random; extra ``:key=value`` segments set generator parameters (``s``,
    ``q``, ``L``, ``pert``).  Dimensions are ``MxN`` (kahan: M is the padded
    row count, N the triangular size); ``diag:N`` is diag(1..N).
    """
    parts = text.split(":")
    kind = parts[0].lower()
    if len(parts) < 2:
        raise ValueError(f"matrix descriptor {text!r} is missing dimensions")
    dims = parts[1].lower().split("x")
    extra = {}
    for item in parts[2:]:
        key, _, val = item.partition("=")
        extra[key.strip()] = float(val)
    if kind == "identity":
        n = int(dims[0])
        return text, np.eye(n)
    if kind == "diag":
        n = int(dims[0])
        return text, np.diag(np.arange(1.0, n + 1.0))
    m = int(dims[0])
    n = int(dims[1]) if len(dims) > 1 else m
    if kind == "random":
        rng = np.random.default_rng(seed)
        return text, rng.standard_normal((m, n))
    if kind == "kahan":
        spec_kind = testmat.Kahan(
            n=n,
            s=extra.get("s", 0.99),
            pad_to_m=m,
            diag_perturb=extra.get("pert", 25.0),
        )
    elif kind in ("stairs", "devils-stairs", "devils_stairs"):
        spec_kind = testmat.DevilsStairs(
            m=m, n=n, q=extra.get("q", 1e-3), stair_len=int(extra.get("l", 100))
        )
    elif kind == "stewart":
        spec_kind = testmat.Stewart(m=m, n=n, q=extra.get("q", 0.8))
    elif kind == "hc":
        spec_kind = testmat.HC(m=m, n=n)
    elif kind in ("sampled-identity", "sampled_identity", "ident"):
        spec_kind = testmat.SampledIdentity(m=m, n=n)
    else:
        raise ValueError(f"unknown matrix kind {kind!r}")
    return text, generate(MatrixSpec(kind=spec_kind, seed=seed))


@dataclass
class RunConfig:
    """One benchmark run: a matrix, an algorithm, and its parameters."""

    matrix: str
    algo: str
    f: float = 2.0
    k: int | None = None
    tau: float | None = None
    kind: str = "srht"
    d: int | None = None
    seeds: list[int] = field(default_factory=lambda: [0])
    matrix_seed: int = 0
    with_ratios: bool = False

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algo {self.algo!r}; expected one of {ALGOS}")
        needs_k = self.algo in ("srrqr", "rand-rank", "qrcp")
        if self.algo == "srrqr":
            if (self.k is None) == (self.tau is None):
                raise ValueError("srrqr takes exactly one of k or tau")
        elif needs_k:
            if self.k is None or self.tau is not None:
                raise ValueError(f"{self.algo} takes k and not tau")
        elif self.tau is None or self.k is not None:
            raise ValueError(f"{self.algo} takes tau and not k")


def exhaustive_det_ratios(mp, k: int) -> np.ndarray:
    """From-scratch swap oracle: refactorize after every single interchange.

    Entry (i, j) is ``|det R11(after swapping columns i and j+k)| / |det
    R11|``, each determinant read off an independent partial QR (log-space
    to dodge under/overflow).
    """
    a = as_matrix(mp)
    n = a.shape[1]

    def logdet(mat):
        d = np.abs(np.diag(partial_qr(mat, k, want_q=False).r11))
        with np.errstate(divide="ignore"):
            return float(np.sum(np.log(d)))

    base = logdet(a)
    out = np.zeros((k, n - k))
    for i in range(k):
        for j in range(n - k):
            swapped = a.copy()
            swapped[:, [i, j + k]] = swapped[:, [j + k, i]]
            out[i, j] = math.exp(logdet(swapped) - base)
    return out


def _factor(
    mat: np.ndarray, cfg: RunConfig, seed: int
) -> tuple[PartialQR | SrrqrResult | RandSrrqrResult, float]:
    """The one dispatch: run ``cfg.algo`` without forming Q; result and ms."""
    t0 = time.perf_counter()
    if cfg.algo == "srrqr":
        mode = TargetRank(cfg.k) if cfg.k is not None else Tolerance(cfg.tau)
        res = srrqr(mat, SrrqrConfig(f=cfg.f, mode=mode), want_q=False)
    elif cfg.algo == "qrcp":
        res = qrcp(mat, cfg.k, want_q=False)
    elif cfg.algo == "rand-rank":
        res = rand_srrqr_rank(
            mat, f=cfg.f, k=cfg.k, d=cfg.d, seed=seed, kind=cfg.kind, want_q=False
        )
    else:
        res = rand_srrqr_tol(
            mat, f=cfg.f, tau=cfg.tau, d=cfg.d, seed=seed, kind=cfg.kind, want_q=False
        )
    return res, (time.perf_counter() - t0) * 1e3


def _record(mat: np.ndarray, cfg: RunConfig, seed: int) -> dict:
    """One factor record; ``timings_ms["total"]`` is the call's wall time."""
    res, ms = _factor(mat, cfg, seed)
    randomized = isinstance(res, RandSrrqrResult)
    report = None
    if cfg.with_ratios:
        report = ratio_report(mat, res, threshold=res.f_tilde if randomized else cfg.f)
    rec = dict.fromkeys(RECORD_KEYS)
    if randomized:
        qlp = qlp_values(res) if report is not None else None
        rec.update(export_record(res, report, qlp))
    else:
        rec.update(k=res.k, f=cfg.f, **record_ratios(report))
        if isinstance(res, SrrqrResult):
            rec.update(rho=res.rho, swap_count=res.swap_count)
    timings = rec["timings_ms"] or {}
    rec.update(algo=cfg.algo, seed=seed, timings_ms={**timings, "total": round(ms, 3)})
    return rec


def _per_seed(cfg: RunConfig, run) -> list:
    """``run(mat, cfg, seed)`` for each seed of ``cfg`` on a thread pool."""
    _, mat = resolve_matrix(cfg.matrix, cfg.matrix_seed)
    with ThreadPoolExecutor(max_workers=worker_count(len(cfg.seeds))) as pool:
        return list(pool.map(lambda s: run(mat, cfg, s), cfg.seeds))


def run_factor(cfg: RunConfig) -> list[dict]:
    """Run the configured factorization once per seed (thread fan-out)."""
    return _per_seed(cfg, _record)


def _csv_row(rec: dict, experiment: str, ratio, i_or_j="", bound="") -> dict:
    return {
        "experiment": experiment,
        "seed": rec.get("seed"),
        "k": rec.get("k"),
        "i_or_j": i_or_j,
        "ratio": ratio,
        "bound": bound,
        "kind": rec.get("kind"),
        "d": rec.get("d"),
        "f": rec.get("f"),
        "epsilon": rec.get("epsilon_measured"),
    }


def records_to_csv_rows(records: list[dict]) -> list[dict]:
    """Flatten factor records into the fixed long-format CSV schema."""
    rows = []
    for rec in records:
        rows.append(_csv_row(rec, "rank", rec.get("k")))
        rows.append(_csv_row(rec, "swap_count", rec.get("swap_count")))
        total = rec.get("timings_ms", {}).get("total")
        rows.append(_csv_row(rec, "time_total_ms", total))
        ratios = rec.get("ratios")
        if ratios:
            bound = rec.get("bound")
            for i, val in enumerate(ratios["leading"]):
                rows.append(_csv_row(rec, "leading_ratio", val, i + 1, bound))
            for j, val in enumerate(ratios["trailing"]):
                val = "" if val is None else val
                rows.append(_csv_row(rec, "trailing_ratio", val, j + 1, bound))
            rows.append(_csv_row(rec, "coupling_max", ratios["a_max"]))
    return rows


def _write_csv(rows: list[dict], columns: list[str], path=None) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({col: row.get(col, "") for col in columns})
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def write_csv(rows: list[dict], path=None) -> str:
    return _write_csv(rows, CSV_COLUMNS, path)


@dataclass
class BoundCheck:
    name: str
    value: float
    limit: float
    comparator: str  # "<=" or ">="

    @property
    def ok(self) -> bool:
        if math.isnan(self.value):
            return False
        if self.comparator == "<=":
            return self.value <= self.limit
        return self.value >= self.limit

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] {self.name}: value={self.value:.6g} "
            f"{self.comparator} limit={self.limit:.6g}"
        )


@dataclass
class VerifyReport:
    checks: list[BoundCheck]

    @property
    def violations(self) -> list[BoundCheck]:
        return [c for c in self.checks if not c.ok]

    @property
    def exit_code(self) -> int:
        return 0 if not self.violations else 1

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _ratio_checks(prefix, rep, limit) -> list[BoundCheck]:
    defined = rep.trailing_ratios[rep.defined_trailing]
    lead_max = float(np.max(rep.leading_ratios)) if rep.leading_ratios.size else 1.0
    trail_max = float(np.max(defined)) if defined.size else 1.0
    lows = [
        float(np.min(rep.leading_ratios)) if rep.leading_ratios.size else 1.0,
        float(np.min(defined)) if defined.size else 1.0,
    ]
    return [
        BoundCheck(f"{prefix} leading singular ratios", lead_max, limit, "<="),
        BoundCheck(f"{prefix} trailing singular ratios", trail_max, limit, "<="),
        BoundCheck(f"{prefix} interlacing lower bound", min(lows), 1.0 - 1e-8, ">="),
    ]


def _two_sided(name, values, upper, lower, vacuous) -> list[BoundCheck]:
    """``max(values) <= upper`` and ``min(values) >= lower``; a vacuous
    distortion (eps >= 1) opens the window to [0, inf]."""
    return [
        BoundCheck(
            f"{name} upper", float(np.max(values)), math.inf if vacuous else upper, "<="
        ),
        BoundCheck(
            f"{name} lower", float(np.min(values)), 0.0 if vacuous else lower, ">="
        ),
    ]


def verify_checks(mat: np.ndarray, cfg: RunConfig, seed: int) -> list[BoundCheck]:
    """Full bound checklist for one seed on one fixture.

    Deterministic algorithms are checked against their own threshold ``f``;
    randomized ones against the inflated threshold built from the measured
    distortion.  Sketch-transfer checks (singular-value sandwich, trailing
    norm sandwiches, residual sandwich, swap-ratio preservation) only apply
    to the randomized paths.
    """
    res, _ = _factor(mat, cfg, seed)
    slack = 1.0 + 1e-8
    randomized = isinstance(res, RandSrrqrResult)
    prefix = "randomized" if randomized else cfg.algo
    threshold = res.f_tilde if randomized else cfg.f
    rep = ratio_report(mat, res, threshold=threshold)
    checks = _ratio_checks(prefix, rep, rep.bound * slack)
    checks.append(
        BoundCheck(f"{prefix} coupling entries", rep.a_max, threshold * slack, "<=")
    )
    if isinstance(res, SrrqrResult):
        oracle = exhaustive_det_ratios(res.factorization.perm.apply_cols(mat), res.k)
        checks.append(
            BoundCheck(
                "srrqr exhaustive swap certificate",
                float(oracle.max()) if oracle.size else 0.0,
                cfg.f * slack,
                "<=",
            )
        )
    elif randomized:
        checks += _sketch_checks(mat, cfg, seed, res, slack)
    return checks


def _sketch_checks(mat, cfg: RunConfig, seed: int, res, slack) -> list[BoundCheck]:
    """The checks that carry bounds from the sketch over to M."""
    checks: list[BoundCheck] = []
    n = mat.shape[1]
    kk = res.k
    # a distortion at or above 1 means the subspace was not embedded at all;
    # every eps-conditioned window is then vacuous, and the limits below
    # are computed from eps = 0 only to keep them finite
    vacuous = res.distortion >= 1.0
    eps = 0.0 if vacuous else res.distortion

    # the R factor the call pivoted on has the singular values of its sketch
    sv_m = singular_values(mat)
    sv_sk = singular_values(res.sketch_result.state.r)
    limit = min(len(sv_sk), len(sv_m), res.d)
    keep = sv_m[:limit] > 1e-13 * sv_m[0]
    quot = sv_sk[:limit][keep] / sv_m[:limit][keep]
    upper, lower = math.sqrt(1.0 + eps) * slack, math.sqrt(1.0 - eps) / slack
    checks += _two_sided("sketch singular values", quot, upper, lower, vacuous)

    g_m = np.linalg.norm(res.factorization.r22, axis=0)
    g_sk = res.sketch_result.state.gamma
    mask = g_sk > 1e-290
    if np.any(mask):
        upper, lower = slack / (1.0 - eps), 1.0 / ((1.0 + eps) * slack)
        q2 = g_m[mask] ** 2 / g_sk[mask] ** 2
        checks += _two_sided("trailing norm sandwich", q2, upper, lower, vacuous)
        fr = float(np.sum(g_m**2) / np.sum(g_sk**2))
        checks += _two_sided("trailing frobenius sandwich", fr, upper, lower, vacuous)
    if cfg.tau is not None:
        checks.append(
            BoundCheck(
                "trailing norms within tolerance",
                float(np.max(g_m, initial=0.0)),
                math.inf if vacuous else slack * cfg.tau / math.sqrt(1.0 - eps),
                "<=",
            )
        )

    # residual transfer on a least-squares instance inside the range
    rng = np.random.default_rng(seed + 101)
    cols = min(6, n - 1) if n > 1 else 1
    a_ls = mat[:, :cols]
    b = mat @ rng.standard_normal(n)
    op = SketchOperator(res.kind, res.d, _operator_rows(res.kind, len(b)), seed)
    ls_sk = apply(op, np.column_stack([a_ls, b]))
    a_sk, b_sk = ls_sk[:, :cols], ls_sk[:, cols]
    x_hat = np.linalg.lstsq(a_sk, b_sk, rcond=None)[0]
    x_star = np.linalg.lstsq(a_ls, b, rcond=None)[0]
    r_star = float(np.linalg.norm(a_ls @ x_star - b))
    sk_resid = float(np.linalg.norm(a_sk @ x_hat - b_sk))
    if sk_resid > 0:
        upper = 1.0 / math.sqrt(1.0 - eps) * slack
        lower = 1.0 / math.sqrt(1.0 + eps) / slack
        quot = r_star / sk_resid
        checks += _two_sided("residual sandwich", quot, upper, lower, vacuous)

    # single-swap volume ratios are preserved through the sketch
    if kk >= 1 and n - kk >= 1:
        dm = exhaustive_det_ratios(res.factorization.perm.apply_cols(mat), kk)
        d_sk = det_ratio_matrix(res.sketch_result.state)
        good = d_sk > 1e-290
        if np.any(good):
            upper = math.sqrt((1.0 + eps) / (1.0 - eps)) * slack
            quot = dm[good] / d_sk[good]
            lower = 1.0 / upper
            checks += _two_sided("swap ratio preservation", quot, upper, lower, vacuous)
        checks.append(
            BoundCheck(
                "exhaustive swap certificate",
                float(dm.max()),
                res.f_tilde * (1.0 + 1e-6),
                "<=",
            )
        )
    return checks


def run_verify(
    matrix: str,
    algo: str,
    f: float = 2.0,
    k: int | None = None,
    tau: float | None = None,
    kind: str = "srht",
    d: int | None = None,
    seeds: list[int] | None = None,
    matrix_seed: int = 0,
) -> VerifyReport:
    """Bound checklist of every seed; :class:`RunConfig` checks the args."""
    cfg = RunConfig(
        matrix=matrix,
        algo=algo,
        f=f,
        k=k,
        tau=tau,
        kind=kind,
        d=d,
        seeds=seeds or [0],
        matrix_seed=matrix_seed,
    )
    return verify_config(cfg)


def verify_config(cfg: RunConfig) -> VerifyReport:
    """Bound checklist of every seed of ``cfg`` (thread fan-out)."""
    checks = []
    for seed, got in zip(cfg.seeds, _per_seed(cfg, verify_checks)):
        for c in got:
            c.name = f"seed={seed} {c.name}"
        checks += got
    return VerifyReport(checks=checks)


def run_volume_decay(
    m_rows: int = 8192,
    d: int = 1500,
    n_values=range(100, 301, 10),
    seed: int = 0,
    kind: str = "srht",
) -> dict:
    """Sketch identity columns and track how the sketched volume decays.

    The input columns are orthonormal (volume exactly 1); the sketched
    volume shrinks roughly geometrically with the column count.  Returns
    the per-n volumes and the fitted slope of log-volume against n.
    """
    n_values = list(n_values)
    n_max = max(n_values)
    if n_max > d:
        raise ValueError(f"column count {n_max} exceeds sketch size {d}")
    rng = np.random.default_rng(seed)
    cols = rng.choice(m_rows, size=n_max, replace=False)
    base = np.zeros((m_rows, n_max), order="F")
    base[cols, np.arange(n_max)] = 1.0
    op = SketchOperator(kind=kind, d=d, m=m_rows, seed=seed)
    sk = apply(op, base)
    rows = []
    for n in n_values:
        r = r_factor(sk[:, :n])
        diag = np.abs(np.diag(r))
        with np.errstate(divide="ignore"):
            logv = float(np.sum(np.log(diag)))
        rows.append({"n": n, "volume": math.exp(logv), "log_volume": logv})
    slope = float(
        np.polyfit([r["n"] for r in rows], [r["log_volume"] for r in rows], 1)[0]
    )
    return {"rows": rows, "slope": slope, "d": d, "m": m_rows, "seed": seed}


def volume_decay_csv(result: dict, path=None) -> str:
    return _write_csv(result["rows"], VOLUME_CSV_COLUMNS, path)


def volume_decay_gnuplot(csv_path: str) -> str:
    """gnuplot-compatible script text for the volume-decay CSV."""
    return (
        "set datafile separator ','\n"
        "set logscale y\n"
        "set xlabel 'columns n'\n"
        "set ylabel 'sketched volume'\n"
        f"plot '{csv_path}' every ::1 using 1:2 with linespoints title 'V(sketch)'\n"
    )


def run_timing(
    matrix: str,
    tau: float = 1e-10,
    f: float = 2.0,
    kind: str = "srht",
    d: int | None = None,
    seed: int = 0,
    matrix_seed: int = 0,
) -> dict:
    """Wall-clock comparison: deterministic factorization vs the randomized
    pipeline (sketch + pivoting on the sketch + final unpivoted QR)."""
    _, mat = resolve_matrix(matrix, matrix_seed)
    t0 = time.perf_counter()
    det = srrqr(mat, SrrqrConfig(f=f, mode=Tolerance(tau)), want_q=False)
    det_ms = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    rnd = rand_srrqr_tol(mat, f=f, tau=tau, d=d, seed=seed, kind=kind, want_q=False)
    rnd_ms = (time.perf_counter() - t0) * 1e3
    rnd_core_ms = float(
        sum(v for k, v in rnd.timings_ms.items() if k != "distortion")
    )
    return {
        "matrix": matrix,
        "deterministic_ms": det_ms,
        "deterministic_k": det.k,
        "randomized_ms": rnd_ms,
        "randomized_pipeline_ms": rnd_core_ms,
        "randomized_k": rnd.k,
        "speedup": det_ms / rnd_core_ms if rnd_core_ms > 0 else float("inf"),
    }
