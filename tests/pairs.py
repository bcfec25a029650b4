"""The pair functions as the driver calls them, for the scheme-level tests."""

from cossinm.matcore import is_upper_triangular, matmul
from cossinm.schemes import (
    SchemeFamily,
    pade8_cos_sin,
    taylor_cos_sin,
    wave_kernels,
)


def run_pair(a, scheme, ledger, t=1.0):
    """One pair scheme at a (the wave pair at time t), unscaled.

    The powers the driver hands in, y and y^2 (y = A^2, or t^2 A for the
    wave pair), are formed here, charged to ledger, and the structure is
    tested as the driver tests it, so the ledger totals the pair's cost.
    """
    upper = is_upper_triangular(a)
    wave = scheme.family is SchemeFamily.WAVE_KERNEL
    y = t * t * a if wave else matmul(a, a, ledger, upper=upper)
    powers = (y, matmul(y, y, ledger, upper=upper))
    if wave:
        return wave_kernels(t, scheme, ledger, powers=powers, upper=upper)
    if scheme.family is SchemeFamily.PADE8:
        return pade8_cos_sin(a, ledger, powers=powers, upper=upper)
    return taylor_cos_sin(a, scheme, ledger, powers=powers, upper=upper)
