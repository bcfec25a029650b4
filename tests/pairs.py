"""The pair functions as the driver calls them, for the scheme-level tests."""

from cossinm.matcore import is_upper_triangular
from cossinm.schemes import (
    MatrixAlgebra,
    SchemeFamily,
    pade8_cos_sin,
    taylor_cos_sin,
    wave_kernels,
)


def run_pair(a, scheme, ledger, t=1.0):
    """One pair scheme at a (the wave pair at time t), unscaled.

    The powers the driver hands in, y and y^2 (y = A^2, or t^2 A for the
    wave pair), are formed here in the algebra the driver would make,
    charged to ledger and triangular as its structure test says, so the
    ledger totals the pair's cost.
    """
    alg = MatrixAlgebra(ledger, is_upper_triangular(a))
    wave = scheme.family is SchemeFamily.WAVE_KERNEL
    y = t * t * a if wave else alg.mul(a, a)
    powers = (y, alg.mul(y, y))
    if wave:
        return wave_kernels(t, scheme, alg, powers)
    if scheme.family is SchemeFamily.PADE8:
        return pade8_cos_sin(a, alg, powers)
    return taylor_cos_sin(a, scheme, alg, powers)
