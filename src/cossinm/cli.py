"""Command-line surface.

Subcommands: cossin (one matrix file in, cos/sin files out), wave (the wave
kernel pair for a time step), bench (corpus benchmark CSV plus a summary
line), theta (print shipped thresholds, optionally recomputed), gallery
(write the corpus to a directory).  Exit code 0 on success, 2 on any input
error; diagnostics go to standard error.

The commands are thin shells over the library: identical inputs give
byte-identical results to direct calls.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .driver import (
    ComputationReport,
    cos_sin,
    pade_cos_sin,
    wave_cos_sin,
)
from .gallery import CorpusSpec, generate_corpus
from .matcore import (
    DenseMatrix,
    MatrixInputError,
    SingularMatrixError,
    norm1,
    read_matrix,
    write_matrix,
)
from .schemes import SchemeFamily, SchemeId
from .theta_tables import (
    PADE_TABLE,
    TAYLOR_TABLE,
    UNIT_ROUNDOFF,
    WAVE_TABLE,
    Precision,
)


@dataclass
class RunRecord:
    matrix_id: str
    class_tag: str
    norm: float
    method: str
    rel_err_cos: float
    rel_err_sin: float
    products: float
    scaling_s: int
    wall_time: float


def _scheme_label(scheme: SchemeId) -> str:
    if scheme.family is SchemeFamily.PADE8:
        return "pade8"
    family = "taylor" if scheme.family is SchemeFamily.COS_SIN_TAYLOR else "wave"
    return f"{family} k={scheme.k_products}"


def _report_line(report: ComputationReport) -> str:
    return (
        f"scheme={_scheme_label(report.scheme_used)}"
        f" s={report.scaling_exponent}"
        f" products={report.total_products}"
    )


def format_theta(x: float) -> str:
    """Five significant digits; mantissa-exponent style below one."""
    if x >= 1.0:
        return f"{x:.5g}"
    mantissa, exponent = f"{x:.4e}".split("e")
    mantissa = mantissa.rstrip("0").rstrip(".")
    return f"{mantissa}e{int(exponent)}"


def _read_square(path: str) -> DenseMatrix:
    """A matrix file that cossin and wave can evaluate: read_matrix's, and
    square, where a wrong header is named by its path and line."""
    a = read_matrix(path)
    rows, cols = a.shape
    if rows != cols:
        raise MatrixInputError(
            f"{path}: line 1: matrix must be square, got {rows} x {cols}")
    return a


def _write_pair(report: ComputationReport, cos_path: str,
                sin_path: str) -> int:
    """Write the pair and print the report line, and a warning if the pair
    holds an inf or a NaN: read_matrix refuses such a file."""
    write_matrix(cos_path, report.result.cos_part)
    write_matrix(sin_path, report.result.sin_part)
    print(_report_line(report))
    if report.nonfinite:
        print(f"warning: {cos_path} and {sin_path} hold non-finite entries",
              file=sys.stderr)
    return 0


def _cmd_cossin(args: argparse.Namespace) -> int:
    a = _read_square(args.path)
    run = pade_cos_sin if args.method == "pade" else cos_sin
    return _write_pair(run(a, args.precision),
                       f"{args.path}.cos", f"{args.path}.sin")


def _cmd_wave(args: argparse.Namespace) -> int:
    a = _read_square(args.path)
    return _write_pair(wave_cos_sin(a, args.t, args.precision),
                       f"{args.path}.c", f"{args.path}.s")


def _bench_counts(total: int) -> tuple[int, int, int, int]:
    if total < 20:
        raise ValueError("bench needs a corpus of at least 20 matrices")
    rest = total - 9
    structured = rest * 33 // 100
    random = rest * 45 // 100
    return structured, random, rest - structured - random, 9


def _cmd_bench(args: argparse.Namespace) -> int:
    from .verify import reference_cos_sin, relative_error_2

    spec = CorpusSpec(
        dimension_cap=args.dim_cap,
        count_per_class=_bench_counts(args.count),
        seed=args.seed,
    )
    records: list[RunRecord] = []
    for index, (matrix, tag) in enumerate(generate_corpus(spec)):
        # entries whose cosine overflows float64 produce inf errors; keep
        # the run quiet and let the CSV carry the infs
        with np.errstate(over="ignore", invalid="ignore"):
            reference = reference_cos_sin(matrix)
        for method, run in (("taylor", cos_sin), ("pade", pade_cos_sin)):
            start = time.perf_counter()
            report = run(matrix)
            wall = time.perf_counter() - start
            records.append(RunRecord(
                matrix_id=f"{index:05d}",
                class_tag=tag,
                norm=norm1(matrix),
                method=method,
                rel_err_cos=relative_error_2(
                    report.result.cos_part, reference.cos_part),
                rel_err_sin=relative_error_2(
                    report.result.sin_part, reference.sin_part),
                products=float(report.total_products),
                scaling_s=report.scaling_exponent,
                wall_time=wall,
            ))
    names = [f.name for f in fields(RunRecord)]
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for record in records:
            writer.writerow([getattr(record, n) for n in names])
    print(_bench_summary(records))
    return 0


def _bench_summary(records: Sequence[RunRecord]) -> str:
    by_id: dict[str, dict[str, RunRecord]] = {}
    for record in records:
        by_id.setdefault(record.matrix_id, {})[record.method] = record
    parts = []
    for func in ("cos", "sin"):
        taylor_better = pade_better = equal = 0
        for pair in by_id.values():
            te = getattr(pair["taylor"], f"rel_err_{func}")
            pe = getattr(pair["pade"], f"rel_err_{func}")
            if te < pe:
                taylor_better += 1
            elif pe < te:
                pade_better += 1
            else:
                equal += 1
        parts.append(
            f"{func}: taylor_better={taylor_better}"
            f" pade_better={pade_better} equal={equal}"
        )
    return "; ".join(parts)


def _cmd_theta(args: argparse.Namespace) -> int:
    from .verify import generate_theta_table

    precision = Precision(args.precision)
    exponent = round(math.log2(UNIT_ROUNDOFF[precision]))
    print(f"{args.precision} precision (u = 2^{exponent})")
    recomputed: dict[SchemeId, tuple[float, float]] = {}
    if args.recompute:
        for family in SchemeFamily:
            table = generate_theta_table(family, precision)
            for entry in table.entries:
                recomputed[entry.scheme] = (entry.theta_cos, entry.theta_sin)
    tables = (TAYLOR_TABLE, PADE_TABLE, WAVE_TABLE)
    for entry in (e for t in tables for e in t[precision].entries):
        line = (
            f"{_scheme_label(entry.scheme):<12}"
            f" theta_cos={format_theta(entry.theta_cos):<10}"
            f" theta_sin={format_theta(entry.theta_sin):<10}"
            f" cost={entry.cost}"
        )
        if args.recompute:
            fresh = recomputed[entry.scheme]
            delta = max(
                abs(entry.theta_cos - fresh[0]) / fresh[0],
                abs(entry.theta_sin - fresh[1]) / fresh[1],
            )
            line += f" recomputed=({format_theta(fresh[0])},"
            line += f" {format_theta(fresh[1])}) delta={delta:.1e}"
        print(line)
    return 0


def _cmd_gallery(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = CorpusSpec(
        dimension_cap=args.dim_cap,
        count_per_class=_bench_counts(args.count),
        seed=args.seed,
    )
    entries = generate_corpus(spec)
    with open(out_dir / "manifest.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "class", "dimension", "norm"])
        for index, (matrix, tag) in enumerate(entries):
            write_matrix(str(out_dir / f"{index:05d}.mat"), matrix)
            writer.writerow([index, tag, matrix.shape[0], norm1(matrix)])
    print(f"wrote {len(entries)} matrices to {out_dir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cossinm",
        description="Matrix cosine/sine and wave kernels via factored "
                    "polynomial schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cossin", help="compute cos and sin of a matrix file")
    p.add_argument("path", help="matrix file (header 'rows cols', one row "
                                "of entries per line)")
    p.add_argument("--method", choices=("taylor", "pade"), default="taylor")
    p.add_argument("--precision", choices=("double", "single"),
                   default="double")
    p.set_defaults(func=_cmd_cossin)

    p = sub.add_parser("wave", help="compute the wave kernel pair")
    p.add_argument("path")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--precision", choices=("double", "single"),
                   default="double")
    p.set_defaults(func=_cmd_wave)

    p = sub.add_parser("bench", help="run the corpus benchmark")
    p.add_argument("--dim-cap", type=int, default=16)
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="bench.csv", help="CSV output path")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("theta", help="print norm thresholds")
    p.add_argument("--precision", choices=("double", "single"),
                   default="double")
    p.add_argument("--recompute", action="store_true",
                   help="recompute thresholds and report deltas")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("gallery", help="write the test corpus to a directory")
    p.add_argument("--out", required=True)
    p.add_argument("--dim-cap", type=int, default=16)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gallery)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SingularMatrixError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
