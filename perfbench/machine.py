"""Machine record and the bare `a @ b` rate the layer ratios are taken over."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time

import numpy as np
import scipy

RECORD_SIZES = (16, 256, 512)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_runtime() -> list[dict]:
    """Config string and thread count of every OpenBLAS loaded in-process."""
    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas_", "openblas_"):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
                    break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def bare_matmul_s(sizes, rounds: int = 15, sample_s: float = 2e-3
                  ) -> dict[int, float]:
    """Median seconds of one bare `a @ b` per size, sizes timed interleaved."""
    rng = np.random.default_rng(12345)
    operands = {}
    for n in sorted(set(sizes)):
        a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        start = time.perf_counter()
        a @ b
        once = max(time.perf_counter() - start, 1e-7)
        operands[n] = (a, b, max(1, min(2000, int(sample_s / once))))
    samples: dict[int, list[float]] = {n: [] for n in operands}
    for _ in range(rounds):
        for n, (a, b, reps) in operands.items():
            start = time.perf_counter()
            for _ in range(reps):
                a @ b
            samples[n].append((time.perf_counter() - start) / reps)
    return {n: statistics.median(v) for n, v in samples.items()}


def record(bare: dict[int, float]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime": _openblas_runtime(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bare_matmul_gflops": {
            str(n): round(2.0 * n ** 3 / bare[n] / 1e9, 3)
            for n in RECORD_SIZES if n in bare
        },
    }
