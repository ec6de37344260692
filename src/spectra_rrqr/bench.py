"""Experiment drivers behind the command-line harness.

Everything here is importable so the test suite can exercise the bench
logic without spawning subprocesses.  Seeds fan out across a thread pool
with one thread per available CPU, capped by the ``SPECTRA_RRQR_THREADS``
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
from .dense_core import as_matrix, partial_qr, r_factor, singular_values
from .rand_srrqr import (
    export_record,
    qlp_values,
    rand_srrqr_rank,
    rand_srrqr_tol,
    ratio_report,
)
from .sketch import SketchOperator, apply, pad_rows_pow2, worker_count
from .srrqr import SrrqrConfig, TargetRank, Tolerance, qrcp, srrqr
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


def _total_ms(timings: dict) -> float:
    return float(sum(timings.values()))


def _one_factor_run(cfg: RunConfig, mat: np.ndarray, seed: int) -> dict:
    if cfg.algo == "rand-rank":
        t0 = time.perf_counter()
        res = rand_srrqr_rank(
            mat, f=cfg.f, k=cfg.k, d=cfg.d, seed=seed, kind=cfg.kind, want_q=False
        )
        res.timings_ms["total"] = (time.perf_counter() - t0) * 1e3
    elif cfg.algo == "rand-tau":
        t0 = time.perf_counter()
        res = rand_srrqr_tol(
            mat, f=cfg.f, tau=cfg.tau, d=cfg.d, seed=seed, kind=cfg.kind, want_q=False
        )
        res.timings_ms["total"] = (time.perf_counter() - t0) * 1e3
    elif cfg.algo == "srrqr":
        mode = TargetRank(cfg.k) if cfg.k is not None else Tolerance(cfg.tau)
        t0 = time.perf_counter()
        det = srrqr(mat, SrrqrConfig(f=cfg.f, mode=mode), want_q=False)
        ms = (time.perf_counter() - t0) * 1e3
        rec = {
            "algo": "srrqr",
            "k": det.k,
            "seed": seed,
            "kind": None,
            "d": None,
            "f": cfg.f,
            "epsilon_measured": None,
            "rho": det.rho,
            "swap_count": det.swap_count,
            "ratios": None,
            "bound": None,
            "timings_ms": {"total": round(ms, 3)},
        }
        if cfg.with_ratios:
            rep = ratio_report(mat, det)
            rec["ratios"] = {
                "leading": [float(x) for x in rep.leading_ratios],
                "trailing": [
                    None if math.isnan(x) else float(x) for x in rep.trailing_ratios
                ],
                "a_max": rep.a_max,
            }
            rec["bound"] = rep.bound
        return rec
    else:  # qrcp
        t0 = time.perf_counter()
        fact = qrcp(mat, cfg.k, want_q=False)
        ms = (time.perf_counter() - t0) * 1e3
        rec = {
            "algo": "qrcp",
            "k": fact.k,
            "seed": seed,
            "kind": None,
            "d": None,
            "f": cfg.f,
            "epsilon_measured": None,
            "swap_count": None,
            "ratios": None,
            "bound": None,
            "timings_ms": {"total": round(ms, 3)},
        }
        if cfg.with_ratios:
            rep = ratio_report(mat, fact, threshold=cfg.f)
            rec["ratios"] = {
                "leading": [float(x) for x in rep.leading_ratios],
                "trailing": [
                    None if math.isnan(x) else float(x) for x in rep.trailing_ratios
                ],
                "a_max": rep.a_max,
            }
            rec["bound"] = rep.bound
        return rec
    report = ratio_report(mat, res) if cfg.with_ratios else None
    qlp = qlp_values(res) if cfg.with_ratios else None
    rec = export_record(res, report, qlp)
    rec["algo"] = cfg.algo
    return rec


def run_factor(cfg: RunConfig) -> list[dict]:
    """Run the configured factorization once per seed (thread fan-out)."""
    _, mat = resolve_matrix(cfg.matrix, cfg.matrix_seed)
    with ThreadPoolExecutor(max_workers=worker_count(len(cfg.seeds))) as pool:
        return list(pool.map(lambda s: _one_factor_run(cfg, mat, s), cfg.seeds))


def records_to_csv_rows(records: list[dict]) -> list[dict]:
    """Flatten factor records into the fixed long-format CSV schema."""
    rows = []
    for rec in records:
        meta = {
            "seed": rec.get("seed"),
            "k": rec.get("k"),
            "kind": rec.get("kind"),
            "d": rec.get("d"),
            "f": rec.get("f"),
            "epsilon": rec.get("epsilon_measured"),
        }
        rows.append(
            {
                "experiment": "rank",
                "i_or_j": "",
                "ratio": rec.get("k"),
                "bound": "",
                **meta,
            }
        )
        rows.append(
            {
                "experiment": "swap_count",
                "i_or_j": "",
                "ratio": rec.get("swap_count"),
                "bound": "",
                **meta,
            }
        )
        rows.append(
            {
                "experiment": "time_total_ms",
                "i_or_j": "",
                "ratio": rec.get("timings_ms", {}).get("total"),
                "bound": "",
                **meta,
            }
        )
        ratios = rec.get("ratios")
        if ratios:
            for i, val in enumerate(ratios["leading"]):
                rows.append(
                    {
                        "experiment": "leading_ratio",
                        "i_or_j": i + 1,
                        "ratio": val,
                        "bound": rec.get("bound"),
                        **meta,
                    }
                )
            for j, val in enumerate(ratios["trailing"]):
                rows.append(
                    {
                        "experiment": "trailing_ratio",
                        "i_or_j": j + 1,
                        "ratio": "" if val is None else val,
                        "bound": rec.get("bound"),
                        **meta,
                    }
                )
            rows.append(
                {
                    "experiment": "coupling_max",
                    "i_or_j": "",
                    "ratio": ratios["a_max"],
                    "bound": "",
                    **meta,
                }
            )
    return rows


def write_csv(rows: list[dict], path=None) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({col: row.get(col, "") for col in CSV_COLUMNS})
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


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


def _sandwich(value, eps):
    lo = 1.0 / math.sqrt(1.0 + eps)
    hi = 1.0 / math.sqrt(1.0 - eps) if eps < 1.0 else float("inf")
    return lo, hi


def verify_checks(
    mat: np.ndarray,
    algo: str,
    f: float,
    k: int | None = None,
    tau: float | None = None,
    kind: str = "srht",
    d: int | None = None,
    seed: int = 0,
) -> list[BoundCheck]:
    """Full bound checklist for one seed on one fixture.

    Deterministic algorithms are checked against their own threshold ``f``;
    randomized ones against the inflated threshold built from the measured
    distortion.  Sketch-transfer checks (singular-value sandwich, trailing
    norm sandwiches, residual sandwich, swap-ratio preservation) only apply
    to the randomized paths.
    """
    checks: list[BoundCheck] = []
    n = mat.shape[1]
    slack = 1.0 + 1e-8
    if algo == "qrcp":
        fact = qrcp(mat, k)
        rep = ratio_report(mat, fact, threshold=f)
        checks += _ratio_checks("qrcp", rep, rep.bound * slack)
        checks.append(
            BoundCheck("qrcp coupling entries", rep.a_max, f * slack, "<=")
        )
        return checks
    if algo == "srrqr":
        mode = TargetRank(k) if k is not None else Tolerance(tau)
        res = srrqr(mat, SrrqrConfig(f=f, mode=mode), want_q=False)
        kk = res.k
        rep = ratio_report(mat, res)
        checks += _ratio_checks("srrqr", rep, rep.bound * slack)
        checks.append(BoundCheck("srrqr coupling entries", rep.a_max, f * slack, "<="))
        oracle = exhaustive_det_ratios(
            res.factorization.perm.apply_cols(mat), kk
        )
        checks.append(
            BoundCheck(
                "srrqr exhaustive swap certificate",
                float(oracle.max()) if oracle.size else 0.0,
                f * slack,
                "<=",
            )
        )
        return checks

    if algo == "rand-rank":
        res = rand_srrqr_rank(mat, f=f, k=k, d=d, seed=seed, kind=kind, want_q=False)
    elif algo == "rand-tau":
        res = rand_srrqr_tol(mat, f=f, tau=tau, d=d, seed=seed, kind=kind, want_q=False)
    else:
        raise ValueError(f"unknown algo {algo!r}")
    eps = res.distortion
    ft = res.f_tilde
    kk = res.k
    # a distortion at or above 1 means the subspace was not embedded at all;
    # every eps-conditioned window is then vacuous
    vacuous = eps >= 1.0
    inf = float("inf")
    rep = ratio_report(mat, res)
    checks += _ratio_checks("randomized", rep, rep.bound * slack)
    checks.append(
        BoundCheck("randomized coupling entries", rep.a_max, ft * slack, "<=")
    )

    padded = pad_rows_pow2(mat) if kind == "srht" else mat
    op = SketchOperator(kind=kind, d=res.d, m=padded.shape[0], seed=seed)
    msk = apply(op, padded)
    sv_m = singular_values(mat)
    sv_sk = singular_values(msk)
    limit = min(len(sv_sk), len(sv_m), res.d)
    keep = sv_m[:limit] > 1e-13 * sv_m[0]
    quot = sv_sk[:limit][keep] / sv_m[:limit][keep]
    checks.append(
        BoundCheck(
            "sketch singular values upper",
            float(np.max(quot)),
            math.sqrt(1.0 + eps) * slack if not vacuous else inf,
            "<=",
        )
    )
    checks.append(
        BoundCheck(
            "sketch singular values lower",
            float(np.min(quot)),
            math.sqrt(max(1.0 - eps, 0.0)) / slack,
            ">=",
        )
    )

    g_m = np.linalg.norm(res.factorization.r22, axis=0)
    g_sk = res.sketch_result.state.gamma
    mask = g_sk > 1e-290
    if np.any(mask):
        q2 = g_m[mask] ** 2 / g_sk[mask] ** 2
        checks.append(
            BoundCheck(
                "trailing norm sandwich upper",
                float(np.max(q2)),
                slack / (1.0 - eps) if not vacuous else inf,
                "<=",
            )
        )
        checks.append(
            BoundCheck(
                "trailing norm sandwich lower",
                float(np.min(q2)),
                1.0 / ((1.0 + eps) * slack) if not vacuous else 0.0,
                ">=",
            )
        )
        fr = float(np.sum(g_m**2) / np.sum(g_sk**2))
        checks.append(
            BoundCheck(
                "trailing frobenius sandwich upper",
                fr,
                slack / (1.0 - eps) if not vacuous else inf,
                "<=",
            )
        )
        checks.append(
            BoundCheck(
                "trailing frobenius sandwich lower",
                fr,
                1.0 / ((1.0 + eps) * slack) if not vacuous else 0.0,
                ">=",
            )
        )
    if tau is not None:
        checks.append(
            BoundCheck(
                "trailing norms within tolerance",
                float(np.max(g_m, initial=0.0)),
                slack * tau / math.sqrt(1.0 - eps) if not vacuous else inf,
                "<=",
            )
        )

    # residual transfer on a least-squares instance inside the range
    rng = np.random.default_rng(seed + 101)
    cols = min(6, n - 1) if n > 1 else 1
    a_ls = mat[:, :cols]
    b = mat @ rng.standard_normal(n)
    a_sk = msk[:, :cols]
    b_sk = apply(op, pad_rows_pow2(b[:, None]) if kind == "srht" else b[:, None])[:, 0]
    x_hat = np.linalg.lstsq(a_sk, b_sk, rcond=None)[0]
    x_star = np.linalg.lstsq(a_ls, b, rcond=None)[0]
    r_star = float(np.linalg.norm(a_ls @ x_star - b))
    sk_resid = float(np.linalg.norm(a_sk @ x_hat - b_sk))
    lo, hi = _sandwich(1.0, eps)
    if sk_resid > 0:
        checks.append(
            BoundCheck(
                "residual sandwich upper",
                r_star / sk_resid,
                hi * slack if not vacuous else inf,
                "<=",
            )
        )
        checks.append(
            BoundCheck(
                "residual sandwich lower",
                r_star / sk_resid,
                lo / slack if not vacuous else 0.0,
                ">=",
            )
        )

    # single-swap volume ratios are preserved through the sketch
    if kk >= 1 and n - kk >= 1:
        mp = res.factorization.perm.apply_cols(mat)
        dm = exhaustive_det_ratios(mp, kk)
        d_sk = np.hypot(
            res.sketch_result.state.a,
            np.outer(res.sketch_result.state.omega, res.sketch_result.state.gamma),
        )
        good = d_sk > 1e-290
        if np.any(good):
            quot = dm[good] / d_sk[good]
            lim = math.sqrt((1.0 + eps) / (1.0 - eps)) if eps < 1.0 else float("inf")
            checks.append(
                BoundCheck(
                    "swap ratio preservation upper",
                    float(np.max(quot)),
                    lim * slack,
                    "<=",
                )
            )
            checks.append(
                BoundCheck(
                    "swap ratio preservation lower",
                    float(np.min(quot)),
                    1.0 / (lim * slack),
                    ">=",
                )
            )
        checks.append(
            BoundCheck(
                "exhaustive swap certificate",
                float(dm.max()),
                ft * (1.0 + 1e-6),
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
    seeds = seeds or [0]
    _, mat = resolve_matrix(matrix, matrix_seed)

    def one(seed):
        got = verify_checks(mat, algo, f, k=k, tau=tau, kind=kind, d=d, seed=seed)
        for c in got:
            c.name = f"seed={seed} {c.name}"
        return got

    with ThreadPoolExecutor(max_workers=worker_count(len(seeds))) as pool:
        nested = list(pool.map(one, seeds))
    return VerifyReport(checks=[c for grp in nested for c in grp])


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
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=VOLUME_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in result["rows"]:
        writer.writerow({c: row[c] for c in VOLUME_CSV_COLUMNS})
    text = buf.getvalue()
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


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
    rnd_core_ms = _total_ms(
        {k: v for k, v in rnd.timings_ms.items() if k != "distortion"}
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
