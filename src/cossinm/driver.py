"""Full-norm evaluation: scheme selection, scaling, and doubling recovery.

An input of arbitrary 1-norm is scaled by an exact power of two until it
fits under a scheme's shipped threshold, the scheme is evaluated there, and
the result is pushed back up with double-angle steps, each costing two
products: S <- 2 S C with the old C, then C <- 2 C^2 - I, both done in
place on the fresh products.  The wave pair scales the time step instead
(halving t quarters the even variable) and doubles with the same
two-product step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# linear_combination is not called here, but stays a name of this module:
# perfbench/tracing.py rebinds it to record its spans.
from .matcore import (
    CostLedger,
    DenseMatrix,
    MatrixInputError,
    linear_combination,
    matmul,
    norm1,
)
from .schemes import (
    CosSinResult,
    SchemeId,
    WaveResult,
    pade8_cos_sin,
    taylor_cos_sin,
    wave_kernels,
)
from .theta_tables import (
    PADE_TABLE,
    TAYLOR_TABLE,
    WAVE_TABLE,
    Precision,
    ThetaTable,
)

__all__ = [
    "ComputationReport",
    "Precision",
    "ThetaTable",
    "cos_sin",
    "pade_cos_sin",
    "select_scheme",
    "wave_cos_sin",
]


@dataclass
class ComputationReport:
    result: CosSinResult | WaveResult
    scheme_used: SchemeId
    scaling_exponent: int
    total_products: Fraction


def _squarings_needed(norm: float, theta: float) -> int:
    if norm <= theta:
        return 0
    return max(0, math.ceil(math.log2(norm / theta)))


def select_scheme(norm: float, table: ThetaTable) -> tuple[SchemeId, int]:
    """Pick (scheme, scaling exponent) for a given operand norm.

    The cheapest entry that needs no scaling wins outright; otherwise the
    entry minimizing scheme cost + 2s wins, with cost ties resolved toward
    fewer squarings.  Costs are compared exactly, as integers in units of
    the table's cost denominator.
    """
    if not (norm >= 0.0 and math.isfinite(norm)):
        raise ValueError(f"norm must be finite and nonnegative, got {norm}")
    candidates = table.candidates
    for theta, _units, scheme in candidates:
        if norm <= theta:
            return scheme, 0
    step = 2 * table.cost_denominator
    best: tuple[tuple[int, int], SchemeId] | None = None
    for theta, units, scheme in candidates:
        s = _squarings_needed(norm, theta)
        key = (units + step * s, s)
        if best is None or key < best[0]:
            best = (key, scheme)
    return best[1], best[0][1]


def _double_angle(
    cos: DenseMatrix, sin: DenseMatrix, steps: int, ledger: CostLedger
) -> tuple[DenseMatrix, DenseMatrix]:
    # Each step scales its two fresh, C-contiguous products in place:
    # S <- 2 (S C), then C <- 2 (C C) - I with -1 added on the diagonal.
    n = cos.shape[0]
    for _ in range(steps):
        sin = matmul(sin, cos, ledger)
        sin *= 2.0
        cos = matmul(cos, cos, ledger)
        cos *= 2.0
        cos.ravel()[:: n + 1] -= 1.0
    return cos, sin


def _check_finite_square(a: DenseMatrix) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatrixInputError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise MatrixInputError("matrix entries must be finite")


def cos_sin(
    a: DenseMatrix, precision: Precision = Precision.DOUBLE
) -> ComputationReport:
    """Simultaneous cos(a) and sin(a) via the factored Taylor pipeline."""
    _check_finite_square(a)
    scheme, s = select_scheme(norm1(a), TAYLOR_TABLE[precision])
    ledger = CostLedger()
    scaled = a * 2.0 ** -s
    part = taylor_cos_sin(scaled, scheme, ledger)
    cos, sin = _double_angle(part.cos_part, part.sin_part, s, ledger)
    return ComputationReport(
        result=CosSinResult(cos_part=cos, sin_part=sin, cost=ledger),
        scheme_used=scheme,
        scaling_exponent=s,
        total_products=ledger.total_cost,
    )


def wave_cos_sin(
    a: DenseMatrix, t: float, precision: Precision = Precision.DOUBLE
) -> ComputationReport:
    """Wave kernels c(t^2 a) and s(t, a) at arbitrary t^2 * norm.

    Scaling halves t (the even variable shrinks by 4 per step); each
    doubling step applies s(2t, A) = 2 s(t, A) c(t^2 A) followed by
    c(4 t^2 A) = 2 c(t^2 A)^2 - I.
    """
    _check_finite_square(a)
    scheme, s = select_scheme(float(t) * float(t) * norm1(a),
                              WAVE_TABLE[precision])
    ledger = CostLedger()
    part = wave_kernels(a, float(t) / 2.0 ** s, scheme, ledger)
    c, s_part = _double_angle(part.c_part, part.s_part, s, ledger)
    return ComputationReport(
        result=WaveResult(c_part=c, s_part=s_part, cost=ledger),
        scheme_used=scheme,
        scaling_exponent=s,
        total_products=ledger.total_cost,
    )


def pade_cos_sin(
    a: DenseMatrix, precision: Precision = Precision.DOUBLE
) -> ComputationReport:
    """Baseline pipeline: the rational order-8 pair under the same driver."""
    _check_finite_square(a)
    scheme, s = select_scheme(norm1(a), PADE_TABLE[precision])
    ledger = CostLedger()
    scaled = a * 2.0 ** -s
    part = pade8_cos_sin(scaled, ledger)
    cos, sin = _double_angle(part.cos_part, part.sin_part, s, ledger)
    return ComputationReport(
        result=CosSinResult(cos_part=cos, sin_part=sin, cost=ledger),
        scheme_used=scheme,
        scaling_exponent=s,
        total_products=ledger.total_cost,
    )
