"""The pair functions as the driver calls them, for the scheme-level tests."""

from cossinm.driver import _basis, _pair
from cossinm.matcore import structure_of
from cossinm.schemes import MatrixAlgebra, SchemeFamily


def run_pair(a, scheme, ledger, t=1.0):
    """One pair scheme at a (the wave pair at time t), unscaled.

    The basis the driver hands in, with y, y^2 and, where the pair reads
    it, y^3 (y = A^2, or t^2 A for the wave pair), is built here in the
    algebra the driver would make and through its own _basis, its products
    charged to ledger and structured as its structure test says, so the
    ledger totals the pair's cost.  The pair is reached through the
    driver's own dispatch.
    """
    alg = MatrixAlgebra(ledger, structure_of(a))
    wave = scheme.family is SchemeFamily.WAVE_KERNEL
    y = t * t * a if wave else alg.mul(a, a)
    return _pair(scheme, t if wave else a, alg,
                 _basis(scheme, alg, y, alg.mul(y, y)))
