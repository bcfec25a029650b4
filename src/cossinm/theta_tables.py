"""Shipped norm thresholds that drive scheme selection.

For each scheme and working precision, theta_cos / theta_sin are the largest
operand 1-norms at which the scheme's forward absolute error bound (the sum
of per-degree absolute differences between the scheme's coefficients and the
true series, with the true series extended 150 terms past the truncation
order) stays at or below the unit roundoff.  The trigonometric thresholds
are in ||A||; the wave thresholds are in ||t^2 A||, with the scalar t factor
of the s kernel kept outside the bound.

Each side also carries its leading degree ell: the first degree at which
its coefficients differ from the true series.  The tail bound has only
nonnegative terms from there on, so below theta it is at most
u * (norm / theta)^ell, which lets the driver bound the tail by norms of
powers of the operand instead of by its norm alone (see driver).

Each registered scheme has one shipped row: its ell pair, which does not
depend on precision, and a theta pair per precision.  They are frozen
outputs of verify.compute_theta and verify.leading_degree that the tests
regenerate (thresholds to 1e-6 relative) through the same builder.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .schemes import SCHEMES, SchemeFamily, SchemeId

F = Fraction


class Precision(enum.Enum):
    DOUBLE = "double"
    SINGLE = "single"


UNIT_ROUNDOFF: dict[Precision, float] = {
    Precision.DOUBLE: 2.0 ** -53,
    Precision.SINGLE: 2.0 ** -24,
}


@dataclass(frozen=True)
class ThetaEntry:
    """One scheme's thresholds and leading degrees, per side.

    A leading degree of 1, the default, is valid for every scheme: it only
    forgoes the tighter selection a higher degree allows.
    """

    scheme: SchemeId
    theta_cos: float
    theta_sin: float
    cost: Fraction
    ell_cos: int = 1
    ell_sin: int = 1

    @property
    def theta_eff(self) -> float:
        return min(self.theta_cos, self.theta_sin)


def _sides(entry: ThetaEntry, wave: bool) -> tuple[float, ...]:
    # (theta, p, q) per side, cosine first: the side's effective norm is
    # delta (a/delta)^p (beta/delta)^q = delta K^(1/ell), where every power
    # obeys ||A^d|| <= K delta^d with K = (beta/delta)^2 for the even
    # cosine, a beta^2 / delta^3 for the odd sine and b / delta for both
    # wave kernels.
    if wave:
        return (entry.theta_cos, 1.0 / entry.ell_cos, 0.0,
                entry.theta_sin, 1.0 / entry.ell_sin, 0.0)
    return (entry.theta_cos, 0.0, 2.0 / entry.ell_cos,
            entry.theta_sin, 1.0 / entry.ell_sin, 2.0 / entry.ell_sin)


@dataclass(frozen=True)
class ThetaTable:
    """One family's entries, plus a selection view derived from them.

    candidates holds, per entry, the flat tuple (theta, p, q of the cosine
    side, the same of the sine side, cost * cost_denominator, scheme) with
    integer costs, built once so that selection reads no property and does
    no rational arithmetic.  wave is whether the entries are the wave
    pair's, read from the first entry's family once, here.  step_bits is
    log2 of the factor one doubling step takes off the norm the thresholds
    are in: 1 for the trigonometric pairs, 2 for the wave pair (halving t
    quarters the even variable).  floor is the largest norm the cheapest entry
    covers with no step, whatever the norms of the powers.
    """

    precision: Precision
    entries: tuple[ThetaEntry, ...]
    candidates: tuple[tuple, ...] = field(
        init=False, repr=False, compare=False
    )
    cost_denominator: int = field(init=False, repr=False, compare=False)
    wave: bool = field(init=False, repr=False, compare=False)
    step_bits: int = field(init=False, repr=False, compare=False)
    floor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("theta table needs at least one entry")
        for e in self.entries:
            if not (e.theta_cos > 0.0 and e.theta_sin > 0.0):
                raise ValueError(f"nonpositive threshold in entry {e}")
            if not (e.ell_cos >= 1 and e.ell_sin >= 1):
                raise ValueError(f"leading degree below 1 in entry {e}")
        for lo, hi in zip(self.entries, self.entries[1:]):
            if not hi.cost > lo.cost:
                raise ValueError("entries must be sorted by ascending cost")
            if not (hi.theta_cos > lo.theta_cos
                    and hi.theta_sin > lo.theta_sin):
                raise ValueError(
                    "thresholds must increase with scheme order"
                )
        wave = self.entries[0].scheme.family is SchemeFamily.WAVE_KERNEL
        den = math.lcm(*(F(e.cost).denominator for e in self.entries))
        object.__setattr__(self, "cost_denominator", den)
        object.__setattr__(self, "wave", wave)
        object.__setattr__(self, "step_bits", 2 if wave else 1)
        object.__setattr__(self, "floor", self.entries[0].theta_eff)
        object.__setattr__(self, "candidates", tuple(
            (*_sides(e, wave), int(F(e.cost) * den), e.scheme)
            for e in self.entries
        ))


_TAYLOR, _WAVE = SchemeFamily.COS_SIN_TAYLOR, SchemeFamily.WAVE_KERNEL
_PADE = SchemeFamily.PADE8
_D, _S = Precision.DOUBLE, Precision.SINGLE


def family_table(family: SchemeFamily, precision: Precision,
                 sides: Callable[[SchemeId, Precision], tuple]) -> ThetaTable:
    """One entry per registered scheme of the family, in registry order
    (ascending cost) and at the registry's cost; sides(scheme, precision)
    gives its (theta_cos, theta_sin, ell_cos, ell_sin)."""
    entries = []
    for (f, k), registered in SCHEMES.items():
        if f is family:
            scheme = SchemeId(f, k)
            theta_cos, theta_sin, *ells = sides(scheme, precision)
            entries.append(ThetaEntry(scheme, theta_cos, theta_sin,
                                      registered.cost, *ells))
    return ThetaTable(precision, tuple(entries))


# One row per registered scheme: its leading degrees (cos, sin), then its
# thresholds (cos, sin) per precision.
SHIPPED_ROWS: dict[tuple[SchemeFamily, int],
                   tuple[tuple[int, int],
                         dict[Precision, tuple[float, float]]]] = {
    (_TAYLOR, 3): ((6, 7), {_D: (0.006563322289762723, 0.01777015697577729),
                            _S: (0.18709270369684675, 0.3138563386485543)}),
    (_TAYLOR, 4): ((10, 9), {_D: (0.11495105915204516, 0.08043801069944813),
                             _S: (0.8575551381567614, 0.7492030342174507)}),
    (_TAYLOR, 6): ((18, 19), {_D: (0.9810763216215669, 1.118352319366378),
                              _S: (2.9935285064988997, 3.215172177750302)}),
    (_TAYLOR, 7): ((26, 23), {_D: (2.5674905328502904, 1.8554811337390547),
                              _S: (5.555547236845219, 4.381922344660116)}),
    (_WAVE, 3): ((5, 5), {_D: (0.013213746049765359, 0.021345252850722786),
                          _S: (0.7354008169503493, 1.1874758013210427)}),
    (_WAVE, 4): ((9, 9), {_D: (0.9625107503945455, 1.266344610496533),
                          _S: (8.961212972067917, 11.761988215232014)}),
    (_WAVE, 5): ((13, 11), {_D: (6.592007661014267, 3.640429549980952),
                            _S: (30.86410513391181, 21.848395783984834)}),
    (_PADE, 5): ((10, 9), {_D: (0.13959229566058115, 0.11212687277599737),
                           _S: (1.021836815484684, 0.9951082066593949)}),
}


def _shipped(family: SchemeFamily) -> dict[Precision, ThetaTable]:
    def sides(scheme: SchemeId, precision: Precision) -> tuple:
        ells, thetas = SHIPPED_ROWS[scheme.family, scheme.k_products]
        return (*thetas[precision], *ells)
    return {p: family_table(family, p, sides) for p in Precision}


TAYLOR_TABLE = _shipped(_TAYLOR)
PADE_TABLE = _shipped(_PADE)
WAVE_TABLE = _shipped(_WAVE)
