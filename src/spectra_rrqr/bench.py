"""Experiment drivers behind the command-line harness.

Everything here is importable so the test suite can exercise the bench
logic without spawning subprocesses.  :func:`_factor` is the one place that
maps an algorithm name to its call, and its result is one type,
:class:`.srrqr.SrrqrResult`, for all four algorithms.  The factor records
(:func:`.rand_srrqr.export_record`, one key set :data:`RECORD_KEYS`), the
bound checklist of ``verify`` and both runs of ``timing`` come from it;
``verify`` reads every single-swap ratio off one LAPACK QR of ``M P``.
:func:`resolve_matrix` is the one place that maps a matrix descriptor to a
matrix, with the kind names and defaults of :mod:`.testmat`.  Seeds fan out
across a thread pool with one thread per available CPU, capped by the
``SPECTRA_RRQR_THREADS`` environment variable (:func:`._threads.worker_count`);
records are returned in seed order regardless of completion order.
"""
from __future__ import annotations

import csv
import io
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import testmat
from ._threads import worker_count
from .dense_core import PartialQR, _r_factor, log_volume, singular_values
from .rand_srrqr import (
    RECORD_KEYS,  # noqa: F401  the key set of every record built here
    export_record,
    qlp_values,
    rand_srrqr_rank,
    rand_srrqr_tol,
    ratio_report,
)
from .sketch import SketchOperator, _operator_rows, apply
from .srrqr import (
    SrrqrConfig,
    SrrqrResult,
    TargetRank,
    Tolerance,
    det_ratio_matrix,
    qrcp,
    recompute,
    srrqr,
    swap_ratios,
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

# descriptor kinds spelled otherwise than :mod:`.testmat`'s names (which
# also take hyphens for underscores)
_KIND_ALIASES = {"stairs": "devils_stairs", "ident": "sampled_identity"}
# descriptor keys (case-blind) and the generator field each one sets
_PARAM_KEYS = {"s": "s", "pert": "diag_perturb", "q": "q", "l": "stair_len"}


def resolve_matrix(text: str, seed: int = 0) -> np.ndarray:
    """Build a matrix from a compact descriptor like ``hc:8192x500``.

    Kinds: kahan, stairs (or devils-stairs), stewart, hc, sampled-identity
    (or ident), identity, diag, random.  Dimensions are ``MxN`` (kahan: M is
    the padded row count, N the triangular size); ``diag:N`` is diag(1..N).
    Extra ``:key=value`` segments set generator parameters: ``s`` and
    ``pert`` for kahan, ``q`` for stairs and stewart, an integer ``l`` for
    stairs; keys are case-blind, and a key the kind does not take is an
    error.  A parameter not given keeps the default of its :mod:`.testmat`
    dataclass.  identity and diag take one dimension, the others one or two.
    """
    parts = text.split(":")
    kind = parts[0].lower()
    if len(parts) < 2:
        raise ValueError(f"matrix descriptor {text!r} is missing dimensions")

    def bad(segment):
        return ValueError(f"matrix descriptor {text!r}: bad segment {segment!r}")

    def number(cast, segment, value):
        try:
            return cast(value)
        except ValueError:
            raise bad(segment) from None

    dims = [number(int, parts[1], x) for x in parts[1].lower().split("x")]
    if len(dims) > (1 if kind in ("identity", "diag") else 2):
        raise bad(parts[1])
    given = {}
    for item in parts[2:]:
        key, _, val = item.partition("=")
        given[key.strip().lower()] = (item, number(float, item, val))
    if kind in ("identity", "diag", "random"):
        cls, known = None, set()
    else:
        cls = testmat._NAME_KINDS.get(_KIND_ALIASES.get(kind, kind.replace("-", "_")))
        if cls is None:
            raise ValueError(f"unknown matrix kind {kind!r}")
        known = {fld.name for fld in fields(cls)}
    params = {}
    for key, (item, value) in given.items():
        name = _PARAM_KEYS.get(key)
        if name not in known:
            takes = ", ".join(k for k, v in _PARAM_KEYS.items() if v in known)
            msg = f"matrix descriptor {text!r}: unknown key {key!r}"
            raise ValueError(f"{msg} ({kind} takes {takes or 'no keys'})")
        if name == "stair_len" and not value.is_integer():
            raise bad(item)
        params[name] = int(value) if name == "stair_len" else value
    if kind == "identity":
        return np.eye(dims[0])
    if kind == "diag":
        return np.diag(np.arange(1.0, dims[0] + 1.0))
    m = dims[0]
    n = dims[1] if len(dims) > 1 else m
    if kind == "random":
        return np.random.default_rng(seed).standard_normal((m, n))
    # the kahan triangle is N by N, zero-padded to M rows
    shape = {"n": n, "pad_to_m": m} if cls is testmat.Kahan else {"m": m, "n": n}
    return generate(MatrixSpec(kind=cls(**shape, **params), seed=seed))


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
        if self.algo in ("srrqr", "qrcp") and (self.d, self.kind) != (None, "srht"):
            raise ValueError(f"{self.algo} does not sketch; it takes no d or kind")
        if not self.seeds:
            raise ValueError("no seeds to run; give at least one seed")


def _factor(mat: np.ndarray, cfg: RunConfig, seed: int) -> tuple[SrrqrResult, float]:
    """The one dispatch: run ``cfg.algo`` without forming Q; result and ms.

    ``qrcp`` returns a bare :class:`.PartialQR`, wrapped here with ``cfg.f``,
    the threshold ``verify`` holds it to."""
    t0 = time.perf_counter()
    if cfg.algo == "srrqr":
        mode = TargetRank(cfg.k) if cfg.k is not None else Tolerance(cfg.tau)
        res = srrqr(mat, SrrqrConfig(f=cfg.f, mode=mode), want_q=False)
        if res.k == 0:
            raise ValueError("tolerance exceeds every column norm")
    elif cfg.algo == "qrcp":
        fact = qrcp(mat, cfg.k, want_q=False)
        res = SrrqrResult(fact, fact.k, f=cfg.f)
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
    """The call's :func:`export_record` plus ``algo``, ``seed`` and wall time ``total``."""
    res, ms = _factor(mat, cfg, seed)
    report = qlp = None
    if cfg.with_ratios:
        report = ratio_report(mat, res)
        # QLP values are reported for a sketched call only
        if res.sketch_result is not None:
            qlp = qlp_values(res)
    rec = export_record(res, report, qlp)
    timings = {**rec["timings_ms"], "total": round(ms, 3)}
    rec.update(algo=cfg.algo, seed=seed, timings_ms=timings)
    return rec


def _per_seed(cfg: RunConfig, run) -> list:
    """``run(mat, cfg, seed)`` for each seed of ``cfg`` on a thread pool."""
    mat = resolve_matrix(cfg.matrix, cfg.matrix_seed)
    with ThreadPoolExecutor(max_workers=worker_count(len(cfg.seeds))) as pool:
        return list(pool.map(lambda s: run(mat, cfg, s), cfg.seeds))


def run_factor(cfg: RunConfig) -> list[dict]:
    """Run the configured factorization once per seed (thread fan-out)."""
    return _per_seed(cfg, _record)


def _csv_row(rec: dict, experiment: str, ratio, i_or_j="", bound="") -> dict:
    # the eps that f_tilde and ``bound`` were built from, measured or nominal
    eps = rec.get("epsilon_measured")
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
        "epsilon": rec.get("epsilon_nominal") if eps is None else eps,
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

    ``srrqr`` and ``qrcp`` are checked against ``f`` (``--f``; qrcp has no
    threshold of its own), the randomized algorithms against ``f_tilde``,
    built from the call's distortion (measured up to 64 columns, nominal
    above).  The swap checks read every ratio off one QR of ``M P``
    (:func:`_swap_ratios`).  Sketch-transfer checks (singular-value
    sandwich, trailing norm sandwiches, residual sandwich, swap-ratio
    preservation) apply to a result with a ``sketch_result``.  Every
    tolerance-mode call, ``srrqr --tau`` included, gets the tolerance check.
    """
    res, _ = _factor(mat, cfg, seed)
    slack = 1.0 + 1e-8
    sketched = res.sketch_result is not None
    prefix = "randomized" if sketched else cfg.algo
    threshold = res.f_tilde or res.f
    rep = ratio_report(mat, res)
    checks = _ratio_checks(prefix, rep, rep.bound * slack)
    checks.append(
        BoundCheck(f"{prefix} coupling entries", rep.a_max, threshold * slack, "<=")
    )
    if sketched:
        return checks + _sketch_checks(mat, cfg, seed, res, rep.sigma_m, slack)
    # srrqr certifies every swap against f; qrcp claims nothing of its swaps
    if res.rho is not None:
        top = float(_swap_ratios(mat, res.factorization).max(initial=0.0))
        checks.append(
            BoundCheck("srrqr exhaustive swap certificate", top, res.f * slack, "<=")
        )
    return checks + _tolerance_checks(res, cfg.tau, 0.0, slack)


def _tolerance_checks(res, tau, eps, slack) -> list[BoundCheck]:
    """``max gamma_j <= tau / sqrt(1 - eps)`` on the returned R22 when the
    call ran to a tolerance (``tau`` set); ``eps`` is 0 for a call that
    did not sketch, and a vacuous one (eps >= 1) opens the limit to inf."""
    if tau is None:
        return []
    trailing = float(np.max(np.linalg.norm(res.factorization.r22, axis=0), initial=0.0))
    limit = math.inf if eps >= 1.0 else slack * tau / math.sqrt(1.0 - eps)
    return [BoundCheck("trailing norms within tolerance", trailing, limit, "<=")]


def _swap_ratios(mat, fact: PartialQR) -> np.ndarray:
    """Every single-swap volume ratio of ``M P`` at k, by the closed form on
    one LAPACK QR of ``M P``: like a refactorization per swap, it depends on
    M, the permutation and k alone, not on the state the call maintained."""
    r = _r_factor(fact.perm.apply_cols(mat), overwrite=True)
    return swap_ratios(*recompute(r, fact.k))


def _sketch_checks(
    mat, cfg: RunConfig, seed: int, res, sv_m, slack
) -> list[BoundCheck]:
    """The checks that carry bounds from the sketch over to M, whose
    singular values ``sv_m`` the ratio report has computed."""
    checks: list[BoundCheck] = []
    n = mat.shape[1]
    kk = res.k
    # a distortion at or above 1 means the subspace was not embedded at all;
    # every eps-conditioned window is then vacuous, and the limits below
    # are computed from eps = 0 only to keep them finite
    vacuous = res.distortion >= 1.0
    eps = 0.0 if vacuous else res.distortion

    # the R factor the call pivoted on has the singular values of its sketch
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
    checks += _tolerance_checks(res, cfg.tau, res.distortion, slack)

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
        dm = _swap_ratios(mat, res.factorization)
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
    if not n_values:
        raise ValueError("no column counts to run; the n range is empty")
    n_max = max(n_values)
    if n_max > d:
        raise ValueError(f"column count {n_max} exceeds sketch size {d}")
    if len(set(n_values)) < 2:
        raise ValueError(f"a slope needs two distinct column counts, got n={n_max} only")
    base = generate(MatrixSpec(testmat.SampledIdentity(m_rows, n_max), seed))
    op = SketchOperator(kind=kind, d=d, m=m_rows, seed=seed)
    sk = apply(op, base)
    rows = []
    for n in n_values:
        logv = log_volume(sk[:, :n])
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
    mat = resolve_matrix(matrix, matrix_seed)
    rand_cfg = RunConfig(matrix, "rand-tau", f=f, tau=tau, kind=kind, d=d)
    det_cfg = replace(rand_cfg, algo="srrqr", kind="srht", d=None)
    det, det_ms = _factor(mat, det_cfg, seed)
    rnd, rnd_ms = _factor(mat, rand_cfg, seed)
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
