"""Shipped norm thresholds that drive scheme selection.

For each scheme and working precision, theta_cos / theta_sin are the largest
operand 1-norms at which the scheme's forward absolute error bound (the sum
of per-degree absolute differences between the scheme's coefficients and the
true series, with the true series extended 150 terms past the truncation
order) stays at or below the unit roundoff.  The trigonometric thresholds
are in ||A||; the wave thresholds are in ||t^2 A||, with the scalar t factor
of the s kernel kept outside the bound.

The constants are frozen outputs of verify.compute_theta; a regeneration
test asserts they match a fresh computation to 1e-6 relative.  Each table
covers one family, sorted by ascending cost.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .schemes import PADE8, SchemeFamily, SchemeId

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
    scheme: SchemeId
    theta_cos: float
    theta_sin: float
    cost: Fraction

    @property
    def theta_eff(self) -> float:
        return min(self.theta_cos, self.theta_sin)


@dataclass(frozen=True)
class ThetaTable:
    """One family's entries, plus a selection view derived from them.

    candidates holds (theta_eff, cost * cost_denominator, scheme) per entry
    with integer costs, built once so that selection reads no property and
    does no rational arithmetic.
    """

    precision: Precision
    entries: tuple[ThetaEntry, ...]
    candidates: tuple[tuple[float, int, SchemeId], ...] = field(
        init=False, repr=False, compare=False
    )
    cost_denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("theta table needs at least one entry")
        for e in self.entries:
            if not (e.theta_cos > 0.0 and e.theta_sin > 0.0):
                raise ValueError(f"nonpositive threshold in entry {e}")
        for lo, hi in zip(self.entries, self.entries[1:]):
            if not hi.cost > lo.cost:
                raise ValueError("entries must be sorted by ascending cost")
            if not (hi.theta_cos > lo.theta_cos
                    and hi.theta_sin > lo.theta_sin):
                raise ValueError(
                    "thresholds must increase with scheme order"
                )
        den = math.lcm(*(F(e.cost).denominator for e in self.entries))
        object.__setattr__(self, "cost_denominator", den)
        object.__setattr__(self, "candidates", tuple(
            (e.theta_eff, int(F(e.cost) * den), e.scheme)
            for e in self.entries
        ))


def _taylor(k: int) -> SchemeId:
    return SchemeId(SchemeFamily.COS_SIN_TAYLOR, k)


def _wave(k: int) -> SchemeId:
    return SchemeId(SchemeFamily.WAVE_KERNEL, k)


TAYLOR_TABLE: dict[Precision, ThetaTable] = {
    Precision.DOUBLE: ThetaTable(
        Precision.DOUBLE,
        (
            ThetaEntry(_taylor(3), 0.006563322289762723, 0.01777015697577729,
                       F(3)),
            ThetaEntry(_taylor(4), 0.11495105915204516, 0.08043801069944813,
                       F(4)),
            ThetaEntry(_taylor(6), 0.9810763216215669, 1.118352319366378,
                       F(6)),
            ThetaEntry(_taylor(7), 2.5674905328502904, 1.8554811337390547,
                       F(7)),
        ),
    ),
    Precision.SINGLE: ThetaTable(
        Precision.SINGLE,
        (
            ThetaEntry(_taylor(3), 0.18709270369684675, 0.3138563386485543,
                       F(3)),
            ThetaEntry(_taylor(4), 0.8575551381567614, 0.7492030342174507,
                       F(4)),
            ThetaEntry(_taylor(6), 2.9935285064988997, 3.215172177750302,
                       F(6)),
            ThetaEntry(_taylor(7), 5.555547236845219, 4.381922344660116,
                       F(7)),
        ),
    ),
}

PADE_TABLE: dict[Precision, ThetaTable] = {
    Precision.DOUBLE: ThetaTable(
        Precision.DOUBLE,
        (ThetaEntry(PADE8, 0.13959229566058115, 0.11212687277599737,
                    F(22, 3)),),
    ),
    Precision.SINGLE: ThetaTable(
        Precision.SINGLE,
        (ThetaEntry(PADE8, 1.021836815484684, 0.9951082066593949,
                    F(22, 3)),),
    ),
}

WAVE_TABLE: dict[Precision, ThetaTable] = {
    Precision.DOUBLE: ThetaTable(
        Precision.DOUBLE,
        (
            ThetaEntry(_wave(3), 0.013213746049765359, 0.021345252850722786,
                       F(3)),
            ThetaEntry(_wave(4), 0.9625107503945455, 1.266344610496533,
                       F(4)),
            ThetaEntry(_wave(5), 6.592007661014267, 3.640429549980952,
                       F(5)),
        ),
    ),
    Precision.SINGLE: ThetaTable(
        Precision.SINGLE,
        (
            ThetaEntry(_wave(3), 0.7354008169503493, 1.1874758013210427,
                       F(3)),
            ThetaEntry(_wave(4), 8.961212972067917, 11.761988215232014,
                       F(4)),
            ThetaEntry(_wave(5), 30.86410513391181, 21.848395783984834,
                       F(5)),
        ),
    ),
}


def table_for(family: SchemeFamily, precision: Precision) -> ThetaTable:
    tables = {
        SchemeFamily.COS_SIN_TAYLOR: TAYLOR_TABLE,
        SchemeFamily.WAVE_KERNEL: WAVE_TABLE,
        SchemeFamily.PADE8: PADE_TABLE,
    }
    return tables[family][precision]
