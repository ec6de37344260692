"""Command-line harness: generate matrices, factor, verify bounds, time runs.

Examples:
    spectra-rrqr gen-matrix --matrix kahan:512x128 --out k.txt
    spectra-rrqr factor --matrix hc:8192x500 --algo rand-tau --tau 1e-10 \\
        --f 2 --seeds 3 --format json
    spectra-rrqr verify --matrix random:64x12 --algo rand-rank --k 6 --seeds 20
    spectra-rrqr volume-decay --m 8192 --d 1500 --n 100:300:10 --out decay.csv
    spectra-rrqr timing --matrix stairs:8192x500 --tau 1e-10
"""
from __future__ import annotations

import argparse
import json
import sys

from .bench import (
    ALGOS,
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
from .dense_core import save_matrix_binary, save_matrix_text


def _parse_seeds(args) -> list[int]:
    if args.seed_list:
        return [int(s) for s in args.seed_list.split(",")]
    return list(range(args.seed_base, args.seed_base + args.seeds))


def _parse_range(text: str) -> range:
    parts = [int(x) for x in text.split(":")]
    if len(parts) == 1:
        return range(parts[0], parts[0] + 1)
    if len(parts) == 2:
        return range(parts[0], parts[1] + 1)
    return range(parts[0], parts[1] + 1, parts[2])


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", required=True, help="descriptor like hc:8192x500")
    p.add_argument("--matrix-seed", type=int, default=0)
    p.add_argument("--f", type=float, default=2.0)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--kind", choices=["srht", "gaussian"], default="srht")
    p.add_argument("--d", type=int, default=None, help="sketch rows (default: auto)")
    p.add_argument("--seeds", type=int, default=1, help="number of seeds")
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--seed-list", default=None, help="comma-separated explicit seeds")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spectra-rrqr",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-matrix", help="write a test matrix to disk")
    p.add_argument("--matrix", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["text", "binary"], default="text")

    for name, text in (
        ("factor", "run factorizations"),
        ("ratios", "run factorizations and report singular-value ratios"),
        ("verify", "run the bound checklist; exit 1 on violation"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        p.add_argument("--algo", choices=ALGOS, required=True)
        if name != "verify":
            p.add_argument("--out", default=None)
            p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("volume-decay", help="sketched-volume decay experiment")
    p.add_argument("--m", type=int, default=8192)
    p.add_argument("--d", type=int, default=1500)
    p.add_argument("--n", default="100:300:10", help="range start:stop[:step]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=["srht", "gaussian"], default="srht")
    p.add_argument("--out", default=None, help="CSV path (gnuplot script alongside)")

    p = sub.add_parser("timing", help="deterministic vs randomized wall time")
    p.add_argument("--matrix", required=True)
    p.add_argument("--matrix-seed", type=int, default=0)
    p.add_argument("--tau", type=float, default=1e-10)
    p.add_argument("--f", type=float, default=2.0)
    p.add_argument("--kind", choices=["srht", "gaussian"], default="srht")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.command == "gen-matrix":
        _, mat = resolve_matrix(args.matrix, args.seed)
        if args.format == "text":
            save_matrix_text(mat, args.out)
        else:
            save_matrix_binary(mat, args.out)
        print(f"wrote {mat.shape[0]}x{mat.shape[1]} matrix to {args.out}")
        return 0

    if args.command in ("factor", "ratios", "verify"):
        try:
            cfg = RunConfig(
                matrix=args.matrix,
                algo=args.algo,
                f=args.f,
                k=args.k,
                tau=args.tau,
                kind=args.kind,
                d=args.d,
                seeds=_parse_seeds(args),
                matrix_seed=args.matrix_seed,
                with_ratios=(args.command == "ratios"),
            )
            # a bad matrix descriptor or sketch size surfaces only in the run
            if args.command == "verify":
                report = verify_config(cfg)
            else:
                records = run_factor(cfg)
        except ValueError as exc:
            parser.error(str(exc))

    if args.command in ("factor", "ratios"):
        if args.format == "json":
            text = json.dumps(records, indent=2)
        else:
            text = write_csv(records_to_csv_rows(records))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"wrote {len(records)} records to {args.out}")
        else:
            print(text)
        return 0

    if args.command == "verify":
        for line in report.lines():
            print(line)
        bad = len(report.violations)
        print(f"{len(report.checks) - bad}/{len(report.checks)} checks passed")
        return report.exit_code

    if args.command == "volume-decay":
        result = run_volume_decay(
            m_rows=args.m,
            d=args.d,
            n_values=_parse_range(args.n),
            seed=args.seed,
            kind=args.kind,
        )
        text = volume_decay_csv(result, args.out)
        if args.out:
            script = volume_decay_gnuplot(args.out)
            with open(args.out + ".gp", "w") as fh:
                fh.write(script)
            print(f"wrote {args.out} and {args.out}.gp; slope={result['slope']:.5f}")
        else:
            print(text)
            print(f"slope={result['slope']:.5f}")
        return 0

    if args.command == "timing":
        result = run_timing(
            matrix=args.matrix,
            tau=args.tau,
            f=args.f,
            kind=args.kind,
            d=args.d,
            seed=args.seed,
            matrix_seed=args.matrix_seed,
        )
        text = json.dumps(result, indent=2)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        print(text)
        return 0

    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
