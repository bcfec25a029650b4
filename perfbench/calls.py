"""The public cossinm calls the benchmark times, one function per method.

Every library function is looked up on its module at call time, so the
tracer can rebind it for a traced pass.  This module imports nothing but
numpy and cossinm, because the set-up probe times its import.
"""

from __future__ import annotations

import time

import numpy as np

import cossinm
from cossinm import verify

ORACLE_METHOD = "oracle_check"


def pair(result) -> tuple[np.ndarray, np.ndarray]:
    """The two matrices of a result: (cos, sin) or the wave pair (c, s)."""
    if hasattr(result, "cos_part"):
        return result.cos_part, result.sin_part
    return result.c_part, result.s_part


def product_call(method: str, a: np.ndarray, t: float):
    """One product-path entry call; returns its ComputationReport."""
    if method == "cos_sin":
        return cossinm.cos_sin(a)
    if method == "wave_cos_sin":
        return cossinm.wave_cos_sin(a, t)
    if method == "pade_cos_sin":
        return cossinm.pade_cos_sin(a)
    raise ValueError(f"unknown method {method!r}")


def oracle_check(a: np.ndarray):
    """The per-matrix work of `cossinm bench`: reference, both methods, errors.

    Returns the reference result and, per method, (name, report, wall time,
    relative 2-norm error of cos, of sin).
    """
    reference = verify.reference_cos_sin(a)
    runs = []
    for name, run in (("cos_sin", cossinm.cos_sin),
                      ("pade_cos_sin", cossinm.pade_cos_sin)):
        start = time.perf_counter()
        report = run(a)
        wall = time.perf_counter() - start
        cos, sin = pair(report.result)
        cossinm.norm1(a)
        runs.append((
            name, report, wall,
            verify.relative_error_2(cos, reference.cos_part),
            verify.relative_error_2(sin, reference.sin_part),
        ))
    return reference, runs


def invoke(method: str, a: np.ndarray, t: float):
    """One benchmark call: a product-path entry call or one oracle check."""
    if method == ORACLE_METHOD:
        return oracle_check(a)
    return product_call(method, a, t)
