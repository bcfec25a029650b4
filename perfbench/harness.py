"""Timed loops, traced passes and the metrics computed from them."""

from __future__ import annotations

import contextlib
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calls
import machine
import tracing
from workloads import BUILDERS, UNIT_ROUNDOFF, Tally

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE.parent / ".bench_out"
SETUP_PROBES = 9
MIN_CALLS = 100
MAX_TRACED_PASSES = 4


def _setup_probe(case) -> float:
    """One fresh-interpreter set-up time for the workload's first call."""
    command = [sys.executable, str(HERE / "probe_setup.py"), str(SRC),
               case.method, str(case.a.shape[0]), repr(case.t)]
    data = np.ascontiguousarray(case.a, dtype=np.float64).tobytes()
    proc = subprocess.run(command, input=data, capture_output=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _run_pass(cases, invoke, tally) -> float:
    """One call per case, closed loop; returns the summed call time."""
    clock = time.perf_counter
    total = 0.0
    for case in cases:
        method, a, t = case.method, case.a, case.t
        start = clock()
        value = invoke(method, a, t)
        elapsed = clock() - start
        total += elapsed
        tally.add(case, value, elapsed)
    return total


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _end_to_end(workload, tally, setup) -> tuple[dict, dict]:
    """The end-to-end metrics, timings from each call's best pass.

    The host's speed moves between levels up to 1.8x apart, in phases
    that last from a fraction of a second to tens of seconds, so a call's
    time over the run's passes is taken as its minimum: its time at the
    host's fastest level.  The raw-sample figures go into the record only.
    """
    samples = np.asarray(tally.call_s)
    attempted = len(samples)
    best = samples.reshape(-1, len(workload.cases)).min(axis=0)
    errors = list(tally.errors.values())
    err_p90 = _percentile(errors, 90) if errors else 0.0
    values = {
        "throughput_per_s": len(best) / best.sum(),
        "call_p50_us": _percentile(best, 50) * 1e6,
        "call_p90_us": _percentile(best, 90) * 1e6,
        "products_per_call": float(tally.products / tally.product_calls),
        "err_p90_decades": math.log10(1.0 + err_p90 / UNIT_ROUNDOFF),
        "ok_rate": 1.0 - tally.failed / attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "samples": attempted,
        "passes": attempted // len(workload.cases),
        "fail_rate": tally.failed / attempted,
        "all_samples": {
            "throughput_per_s": attempted / samples.sum(),
            "call_p50_us": _percentile(samples, 50) * 1e6,
            "call_p90_us": _percentile(samples, 90) * 1e6,
        },
        "err_p90": err_p90,
        "inputs_with_error": len(errors),
        "setup_samples_s": setup,
        "overhead_ratio": tally.product_wall_s / tally.ideal_s,
    }
    return values, extra


def _untraced(workload, invoke, seconds: float, bare):
    """Whole passes for `seconds`, with set-up probes spread over the run.

    The host's speed moves between levels that last seconds, so probes
    taken one after another would all see one level; spread out, their
    median follows the run.
    """
    tally, setup = Tally(bare), []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (len(setup) < SETUP_PROBES
                and elapsed >= len(setup) * seconds / SETUP_PROBES):
            setup.append(_setup_probe(workload.cases[0]))
        elif (len(setup) == SETUP_PROBES and elapsed >= seconds
              and len(tally.call_s) >= MIN_CALLS):
            return tally, setup
        else:
            _run_pass(workload.cases, invoke, tally)


def _layer_pass(spans, self_s, lo: int, hi: int, bare) -> dict:
    """Per-layer figures of one traced pass (span rows lo..hi)."""
    names = spans["name"][lo:hi]
    own = self_s[lo:hi]
    n = spans["n"][lo:hi]
    idx = {name: i for i, name in enumerate(tracing.NAMES)}
    by_name = np.bincount(names, weights=own, minlength=len(idx))
    count = np.bincount(names, minlength=len(idx))
    root = names == idx[tracing.ROOT]
    duration = (spans["end"] - spans["start"])[lo:hi]
    mm = names == idx["matcore.matmul"]
    lc = names == idx["matcore.linear_combination"]
    parent = spans["parent"][lo:hi]
    from_driver = (parent >= 0) & (spans["name"][np.maximum(parent, 0)]
                                   == idx[tracing.ENTRY])
    mm_self = float(own[mm].sum())
    bare_s = float(sum(bare[int(k)] for k in n[mm]))
    terms = spans["terms"][lo:hi][lc]
    return {
        "calls_s": float(duration[root].sum()),
        "self_sum_s": float(by_name.sum()),
        "self": {name: float(by_name[i]) for name, i in idx.items()},
        "count": {name: int(count[i]) for name, i in idx.items()},
        "matmul_gflops": float((2.0 * n[mm].astype(float) ** 3).sum())
        / mm_self / 1e9 if mm_self else 0.0,
        "matmul_peak_ratio": bare_s / mm_self if mm_self else 0.0,
        "lc_terms": int(terms.sum()),
        "lc_bytes": float((8.0 * n[lc].astype(float) ** 2
                           * (terms + 1)).sum()),
        "doubling_busy_s": float(own[(mm | lc) & from_driver].sum()),
    }


def _traced(tracer, workload, invoke, seconds: float, bare):
    """Alternate untraced and traced passes; per-layer figures per pass."""
    traced_invoke = tracer.wrap(tracing.ROOT, invoke)
    plain, traced = Tally(bare), Tally(bare)
    walls, bounds = [], []
    start = time.perf_counter()
    while not bounds or (time.perf_counter() - start < seconds
                         and len(bounds) < MAX_TRACED_PASSES):
        untraced_s = _run_pass(workload.cases, invoke, plain)
        lo = len(tracer.rows)
        with tracer.installed():
            traced_s = _run_pass(workload.cases, traced_invoke, traced)
        bounds.append((lo, len(tracer.rows)))
        walls.append(traced_s / untraced_s)
    spans = tracer.arrays()
    self_s = tracing.self_times(spans)
    passes = [_layer_pass(spans, self_s, lo, hi, bare) for lo, hi in bounds]
    # spans before the first pass come from building the workload
    setup = _layer_pass(spans, self_s, 0, bounds[0][0], bare)
    return plain, traced, passes, setup, walls, spans


def _per_layer(workload, plain, passes, setup, walls) -> tuple[dict, dict]:
    def med(get):
        return statistics.median(get(p) for p in passes)

    first = passes[0]
    plain_passes = len(plain.call_s) // len(workload.cases)
    values = {
        "matcore.matmul.calls": first["count"]["matcore.matmul"],
        "matcore.matmul.self_s": med(lambda p: p["self"]["matcore.matmul"]),
        "matcore.matmul.gflops": med(lambda p: p["matmul_gflops"]),
        "matcore.matmul.peak_ratio": med(lambda p: p["matmul_peak_ratio"]),
        "matcore.linear_combination.calls":
            first["count"]["matcore.linear_combination"],
        "matcore.linear_combination.terms": first["lc_terms"],
        "matcore.linear_combination.self_s":
            med(lambda p: p["self"]["matcore.linear_combination"]),
        "matcore.linear_combination.bytes_computed": first["lc_bytes"],
        "matcore.norm1.self_s": med(lambda p: p["self"]["matcore.norm1"]),
        "matcore.lu_solve_pair.calls":
            first["count"]["matcore.lu_solve_pair"],
        "matcore.lu_solve_pair.self_s":
            med(lambda p: p["self"]["matcore.lu_solve_pair"]),
        "driver.select_scheme.self_s":
            med(lambda p: p["self"]["driver.select_scheme"]),
        "driver.self_s": med(lambda p: p["self"]["driver.entry"]),
        "driver.doubling.steps": plain.doubling_steps // plain_passes,
        "driver.doubling.busy_s": med(lambda p: p["doubling_busy_s"]),
        "driver.overhead_ratio": plain.product_wall_s / plain.ideal_s,
        "driver.nonfinite.calls": plain.nonfinite_calls // plain_passes,
        "schemes.evaluate.calls": first["count"]["schemes.evaluate"],
        "schemes.evaluate.self_s":
            med(lambda p: p["self"]["schemes.evaluate"]),
        "verify.reference_cos_sin.calls":
            first["count"]["verify.reference_cos_sin"],
        "verify.reference_cos_sin.self_s":
            med(lambda p: p["self"]["verify.reference_cos_sin"]),
        "verify.relative_error_2.self_s":
            med(lambda p: p["self"]["verify.relative_error_2"]),
        "verify.reference_cos_sin.setup_calls":
            setup["count"]["verify.reference_cos_sin"],
        "verify.reference_cos_sin.setup_self_s":
            setup["self"]["verify.reference_cos_sin"],
        "gallery.generate_corpus.self_s": workload.generate_s,
        "bench.self_s": med(lambda p: p["self"]["bench.call"]),
        "trace.calls_s": med(lambda p: p["calls_s"]),
        "trace.overhead_ratio": statistics.median(walls),
    }
    extra = {
        "traced_passes": len(passes),
        "shares": {
            name: first["self"][name] / first["calls_s"]
            for name in first["self"]
        },
        "self_sum_over_calls": [p["self_sum_s"] / p["calls_s"]
                                for p in passes],
    }
    return values, extra


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 trace: bool) -> int:
    """Run one workload in this process and print its result line."""
    tracer = tracing.Tracer()
    with tracer.installed() if trace else contextlib.nullcontext():
        workload = BUILDERS[name](seed)
    sizes = {case.a.shape[0] for case in workload.cases}
    bare = machine.bare_matmul_s(sizes | set(machine.RECORD_SIZES))
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine.record(bare),
              "generate_s": workload.generate_s,
              "reference_s": workload.reference_s,
              "cases": len(workload.cases),
              "nonfinite_references": sum(
                  not (np.isfinite(r[0]).all() and np.isfinite(r[1]).all())
                  for r in (c.reference for c in workload.cases))}
    OUT.mkdir(exist_ok=True)
    with np.errstate(over="ignore", invalid="ignore"):
        if trace:
            plain, traced, passes, setup, walls, spans = _traced(
                tracer, workload, calls.invoke, seconds, bare)
            tracing.save(OUT / f"trace-{name}.npz", spans)
            values, extra = _per_layer(workload, plain, passes, setup, walls)
            section = spec["per_layer"]
            tallies = (plain, traced)
            sums_ok = all(abs(r - 1.0) < 1e-9
                          for r in extra["self_sum_over_calls"])
        else:
            gc.collect()
            tally, setup = _untraced(workload, calls.invoke, seconds, bare)
            values, extra = _end_to_end(workload, tally, setup)
            section = spec["end_to_end"]
            tallies = (tally,)
            sums_ok = True
    attempted = sum(len(t.call_s) for t in tallies)
    failed = sum(t.failed for t in tallies)
    record.update(extra)
    record["failures"] = [f for t in tallies for f in t.failures]
    record["worst_tolerance_use"] = max(t.worst_tolerance_use
                                        for t in tallies)
    result = {
        "correct": failed == 0 and sums_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in section},
    }
    record["result"] = result
    suffix = "trace" if trace else "e2e"
    with open(OUT / f"record-{name}-{suffix}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("# " + json.dumps({k: v for k, v in record.items()
                             if k != "result"}))
    print(json.dumps(result))
    return 0
