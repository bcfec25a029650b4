#!/usr/bin/env python3
"""cossinm benchmark: end-to-end metrics per workload, per-layer when traced.

Run from the repository root:

    python3 perfbench/run.py                    # every workload, as a table
    python3 perfbench/run.py --workload small-mixed --seed 3 --seconds 15 \\
        --trace 0

Workloads (inputs made from --seed, references computed before timing):

* small-mixed: a `gallery` corpus with dimension cap 16, each matrix
  through cos_sin, wave_cos_sin (t in [0.5, 2]) and pade_cos_sin;
* large-dense: dense, Jordan-coupled, triangular and negative-definite
  matrices at n = 256 and 512, through the same three calls;
* oracle-check: the per-matrix loop of `cossinm bench` (oracle, both
  methods, four relative_error_2 calls) on a corpus with dimension cap 16.
  Not listed in BENCHMARK.json: its 15 ms calls cannot dodge a host's slow
  phases, so its timings spread more between runs than the bounds allow.

Sizes, norms and t follow one fixed design; the seed draws the matrices.
Each workload runs in its own process as a closed loop with one caller:
the next call starts when the previous one returns.  The loop runs whole
passes (one call per case) until --seconds have passed and at least 100
calls were made; every call is checked outside its timed interval, and
each call's time is its best over the passes.  setup_s is the median of
fresh-interpreter set-up probes spread over the run.  With --trace 0 the
result carries the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics, from passes that alternate between untraced and traced.
BLAS runs on one thread.  Full records and spans are written to
.bench_out/.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("small-mixed", "large-dense", "oracle-check")
BLAS_THREADS = 1


def _pin_blas_threads() -> None:
    """One BLAS thread: two wait on each other whenever either core slows."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _load_library() -> None:
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import cossinm
    except ImportError as exc:
        raise SystemExit(f"cannot import cossinm from {SRC}: {exc}")
    if not Path(cossinm.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"cossinm was imported from {cossinm.__file__},"
                         f" not from {SRC}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process; prints a table, then JSON."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            results[name] = None
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = result
        status |= not result["correct"]
        print(f"{name}: correct={result['correct']}"
              f" calls={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:42s} {m['value']:>14.6g} {m['unit']}")
    if status == 0:
        print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (BENCHMARK.json"
                             " run_seconds by default)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = float(_spec()["run_seconds"])
    _pin_blas_threads()
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    _load_library()
    import harness  # imports numpy: after the BLAS threads are pinned

    return harness.run_workload(_spec(), args.workload, args.seed, seconds,
                                bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
