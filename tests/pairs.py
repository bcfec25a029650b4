"""The pair functions as the driver calls them, for the scheme-level tests,
and the quarter-period turn of a trigonometric pair."""

import numpy as np

from cossinm.driver import _basis, _pair, _workspace
from cossinm.matcore import structure_of
from cossinm.schemes import MatrixAlgebra, SchemeFamily


def run_pair(a, scheme, ledger, t=1.0):
    """One pair scheme at a (the wave pair at time t), unscaled.

    The basis the driver hands in, with y, y^2 and, where the pair reads
    it, y^3 (y = A^2, or t^2 A for the wave pair), is built here in the
    algebra the driver would make and through its own _basis, y and y^2
    formed in slabs 1 and 2 of the driver's workspace as driver._selection
    forms them, its products charged to ledger and structured as its
    structure test says, so the ledger totals the pair's cost.  The pair
    is reached through the driver's own dispatch, and returns what it
    computed: its cosine may be a slab of the basis.
    """
    alg = MatrixAlgebra(ledger, structure_of(a))
    wave = scheme.family is SchemeFamily.WAVE_KERNEL
    stack = _workspace(a.shape[0])
    y = (np.multiply(a, t * t, out=stack[1]) if wave
         else alg.mul(a, a, out=stack[1]))
    alg.mul(y, y, out=stack[2])
    return _pair(scheme, t if wave else a, alg, _basis(scheme, alg, stack))


def quarter_turn(cos, sin, q):
    """(cos, sin) of A + q (pi/2) I from (cos, sin) of A, by q mod 4."""
    return ((cos, sin), (-sin, cos), (-cos, -sin), (sin, -cos))[q % 4]
