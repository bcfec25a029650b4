"""Full-norm evaluation: scheme selection, scaling, and doubling recovery.

cos_sin, wave_cos_sin and pade_cos_sin run one body, which takes the family
from the threshold table it is given and reaches the family's pair through
one dispatch (_pair), the one verify replays.  Every chain starts from the
even variable and its square: y = A^2 and y^2 for the trigonometric pairs,
B = t^2 A (free) and B^2 for the wave pair.  The driver forms those two
powers once, before selection (an operand above 2^500 first brought under
it by an exact power of two), and picks the scheme and the scaling exponent
s from their norms (select_scheme), which sees through nonnormal input
whose 1-norm far exceeds what its powers do.  The degree-12 chains and the
Pade pair read y^3 too; the driver forms it once the scheme is chosen,
and from n = _CUBE_MIN_N reads its norm and a bound on ||y^4|| to lower s
where they allow (_refined_steps), and an estimate of ||y^4|| where only
a value below the bound could lower it further (_power_norm_estimate).
The trigonometric pairs first take a whole number of quarter periods off
the diagonal where that lowers the 1-norm (_quarter_shift): B = A -
q (pi/2) I, q = round(tr A / (n pi/2)), whose pair is A's up to a sign and
a swap by q mod 4 (_quarter_turn), so every step after it, selection
included, runs on B.  pi/2 and q (pi/2) are rounded, and each diagonal
entry once more: a backward error of at most 2.5 u ||A||_1 in each
diagonal entry (u = 2^-53), as |q| pi/2 <= ||A||_1 + pi/4 <= 2 ||A||_1.
The wave pair has no such identity and is never shifted.  The driver
owns the call's one workspace, a basis stack as deep as any scheme's,
made before selection (_workspace); the powers are formed straight into
its first slabs, and the pair's basis is a prefix of it (_basis), so no
power is copied on its way to the pair.  The input is scaled by an exact
power of two, the chain is evaluated there with the powers scaled to
match (2^-s per factor of A, also exact, so the chain forms none of them
again and the cost law stays pair cost + 2s), and the result is pushed
back up with double-angle steps, each costing two products formed from
the old pair: S <- 2 S C and C <- I - 2 S^2.  One loop runs every pair
and every s (_double_angle), over two alternating (2, n, n) buffers;
after the first step each trigonometric step is one stacked product
S [S, C], which matcore.matmul charges 2, and every bit is that of two
products per step.  Every step finishes against read-only arrays made at
import; below _BROADCAST_STEP_MIN_N the trigonometric scale is one
contiguous pass against a slice of one row, so a small step costs little
more than its products.  The returned pair is the last buffer's two
slabs; at s = 0 the driver copies a matrix that is a slab of a larger
stack, so no returned matrix keeps a stack alive.  The sine form keeps
I - C, all the information a cosine near the identity carries, to full
relative accuracy; 2 C^2 - I would rebuild it by cancellation and lose
about a factor 4 per step.  The wave pair scales the time step instead
(halving t quarters the even variable) and doubles with c <- 2 c^2 - I,
two products per step: its s kernel is sin(t sqrt(A))/sqrt(A), so the
sine form would need A s^2, a third product per step.

A large pair (n >= _FLUSH_MIN_N) is tested once as it enters the doubling.
If it is finite and one of its matrices holds a nonzero entry below 2^-511
of that matrix's largest, every such entry is zeroed (times +0.0, so each
zero keeps its sign) in that pair and in each later pair a product reads;
the returned pair keeps its own.  Each product of two surviving entries is
at least 2^-1022 times that of the two matrices' largest, so for a pair of
order one no product reads a subnormal operand or multiplies two entries
into one, which makes a BLAS product 2-4 times slower (the Pade pair of a
Jordan-type matrix decays far below 2^-1022 away from the diagonal).
Zeroing changes a matrix M by at most n 2^-511 max|M| <= n 2^-511 ||M||_1
in the 1-norm, at most 2^-458 of the n u ||S|| ||C|| (u = 2^-53) rounding
the step's products carry anyway, and later steps amplify both alike.
Selection, scheme, s and the ledger do not move, and a pair without such an
entry doubles bit for bit as it did without the test.

All three report one CosSinResult: cos(A) and sin(A), or the wave kernels
c(t^2 A) and s(t, A).  The body takes its input through matcore.as_matrix,
the rule every evaluator shares (a nonempty square matrix of finite real
entries, evaluated in binary64), and checks only t beyond it.
Each entry point looks its table up by Precision(precision), so a
precision's value ("double", "single") serves as well, and any other value
raises ValueError.  A call's one schemes.MatrixAlgebra holds its ledger
and the structure of A (matcore.structure_of: upper triangular, symmetric
or dense, each from matcore's crossover size), and every product runs
through it, selection's included: a triangular A's products and Pade
solves are triangular ones, a symmetric A's symmetric ones and a Cholesky
solve, all charged as dense ones.  A triangular product of banded operands
runs over their bandwidths only (matcore._upper_product): a Jordan-type
A's selection powers, chain products, leading sine factor and doubling
steps stay banded, which in the doubling the zeroing above keeps so by
leaving the far corner at exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

# linear_combination and matmul are not called here, but stay names of this
# module: perfbench/tracing.py rebinds them to record their spans.
from .matcore import (
    CostLedger,
    DenseMatrix,
    MatrixInputError,
    as_matrix,
    linear_combination,
    matmul,
    norm1,
    structure_of,
)
from .schemes import (
    SCHEMES,
    CosSinResult,
    MatrixAlgebra,
    OperandAlgebra,
    SchemeFamily,
    SchemeId,
    T,
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
    """A result, the choice that produced it, and what the choice read.

    shift is the q of the trigonometric pairs' quarter-period shift: the
    driver evaluated A - q (pi/2) I and turned its pair by q mod 4 (0 where
    it did not shift, and always for the wave pair).  selection_norms holds
    the norms selection was given, of that shifted operand where q is not
    0: (||A||_1, ||A^2||_1^(1/2), ||A^4||_1^(1/4)) for the trigonometric
    pairs and (||B||_1, ||B^2||_1^(1/2)) with B = t^2 A for the wave pair.
    Where selection did not read a square's norm (an A^2 norm above 2^500,
    whose square waits for s, or a norm the cheapest scheme covers
    unscaled), its entry repeats the one before it.  cube_norms holds the
    norms selection read beyond those, rooted alike: (||A^6||_1^(1/6),
    c^(1/8)) with c the bound on ||A^8||_1 (_cube_norms), or
    (||B^3||_1^(1/3), c^(1/4)) with c the bound on ||B^4||_1; it is empty
    where they were not read.  Where the estimate of ||A^8||_1 (||B^4||_1)
    was read and fell below the bound, c is that estimate, a lower bound on
    the norm rather than an upper one (select_scheme says what that gives
    up).  Given both, as norm, beta, delta and cube_norms (beta None for
    the wave pair), select_scheme returns the call's scheme and s again.
    structure names the kernels every product and solve took: "dense",
    "upper" (triangular) or "symmetric".
    """

    result: CosSinResult
    scheme_used: SchemeId
    scaling_exponent: int
    total_products: Fraction
    selection_norms: tuple[float, ...] = ()
    structure: str = "dense"
    cube_norms: tuple[float, ...] = ()
    shift: int = 0

    @property
    def nonfinite(self) -> bool:
        """Whether either matrix of the result holds an inf or a NaN.

        Overflow in the products is reported here, not as a numpy warning;
        the test runs when this is read, so a caller who never reads it
        pays nothing for it.
        """
        return not (np.isfinite(self.result.cos_part).all()
                    and np.isfinite(self.result.sin_part).all())


# Largest norm whose operand is squared before selection.  A larger A (or
# B) is first brought under it by an exact power of two, so A^2 (or B^2)
# stays finite; a larger A^2 is not squared again, so A^4 stays finite.
_SQUARE_LIMIT_BITS = 500
_SQUARE_LIMIT = 2.0 ** _SQUARE_LIMIT_BITS


def select_scheme(
    norm: float,
    table: ThetaTable,
    beta: float | None = None,
    delta: float | None = None,
    *,
    cube_norms: tuple[float, ...] = (),
) -> tuple[SchemeId, int]:
    """Pick (scheme, scaling exponent) from the norms of an operand's powers.

    norm is a = ||A||_1, beta is ||A^2||_1^(1/2) and delta is
    ||A^4||_1^(1/4), so delta <= beta <= norm.  For a wave table norm is
    b = ||B||_1 and delta is ||B^2||_1^(1/2), and beta is not read.  Left
    out, beta and delta are each norm (both: the rule on the norm alone);
    a negative, infinite or NaN one raises ValueError.  Each side of each
    entry gets an effective norm from its leading degree ell, x = delta (beta/delta)^(2/ell)
    for a cosine, delta (a beta^2 / delta^3)^(1/ell) for a sine and
    delta (b/delta)^(1/ell) for a wave kernel, clamped at norm, and needs
    ceil(log2(x / theta) / table.step_bits) steps: log2 for the
    trigonometric pairs, log4 for the wave pair, whose norm quarters per
    step.  The cheapest entry that needs no step wins outright; otherwise
    the entry minimizing cost + 2s wins, with cost ties resolved toward
    fewer steps.  Costs are compared exactly, as integers in units of the
    table's cost denominator.  A zero delta means A^4 (B^2) vanishes, and
    with it every tail term: the cheapest entry wins with no step.

    Why x is safe: every power obeys ||A^d|| <= K delta^d, with K the
    bracketed factor above, and K does not change under scaling.  The tail
    bound has nonnegative terms from degree ell on, so below theta it is
    at most u (x' / theta)^ell at the scaled norm x'; K times it stays
    within u exactly when delta K^(1/ell) <= theta.  Because x <= norm for
    every entry, no entry needs more steps than on the norm alone.

    cube_norms = (gamma, eps), rooted as delta is, are gamma =
    ||A^6||_1^(1/6) and eps^8, a bound on ||A^8||_1 or an estimate of it
    (wave: ||B^3||_1^(1/3) and eps^4 for ||B^4||_1), and are given once
    the scheme is fixed; left out
    (or empty, as a report holds them where none were read), the rule
    above stands; any other length raises ValueError.  They recompute s
    for the scheme that rule chose, and never change it (_refined_steps):
    each side's x can only fall.

    Why the refined x is safe: with y the even variable (A^2, or B), every
    j >= p (p - 1) is a sum of p's and (p + 1)'s, so ||y^j|| <= alpha_p^j
    with alpha_p = max(||y^p||^(1/p), ||y^(p+1)||^(1/(p+1))) (Al-Mohy and
    Higham, SIAM J. Matrix Anal. Appl. 31, 2009, Lemma 4.1; Al-Mohy,
    Higham and Relton choose s for the cosine and sine on it, SIAM J. Sci.
    Comput. 37, 2015).  Rooted as delta is, alpha_2 is max(delta, gamma)
    and alpha_3 max(gamma, eps); a bound on ||y^4|| in place of its norm
    only raises alpha_3.  The even cosine's tail starts at y-degree
    j = ceil(ell/2), and its terms ||A^(2j)|| are at most alpha^(2j): its x
    is alpha, with K = 1.  The odd sine's terms A y^j start at
    j = ceil((ell - 1)/2) and are at most a alpha^(2j), which is
    K alpha^(2j+1) with K = a/alpha >= 1 read through its leading factor:
    its x is alpha (a/alpha)^(1/ell).  A wave kernel's tail is in B itself
    from degree ell, its terms at most alpha^j: its x is alpha.  A side
    reads each alpha_p whose condition j >= p (p - 1) its tail's start
    meets, so the degree-12 chains (ell 26 and 23, wave 13 and 11) read
    both and the Pade pair (ell 10 and 9, starts 5 and 4) alpha_2 alone,
    and it keeps the x above where that is smaller.  A gamma of 0 (y^3 =
    0, so alpha_3 = 0 and every tail term from y^3 on vanishes) keeps the
    rule's s: ending the scaling of input proven nilpotent leaves the
    chain to sum large terms that cancel, and rounding, not truncation,
    then decides the error (on the acceptance corpus it took criterion 5
    to 448 of 500, under its gate of 450).

    What an estimate gives up: the driver reads eps from an estimate of
    ||y^4||_1 (_power_norm_estimate) only where some value below the bound
    could lower s, that is where s at eps = 0 (alpha_3 = gamma) is below s
    at the bound, and only where the estimate is the smaller.  It is a lower
    bound on the norm, not an upper one, so then ||y^j|| <= alpha_3^j is
    no longer proven for j >= 6, and a side whose x is alpha_3 is only as
    safe as the estimate is sharp: an estimate low by a factor f leaves
    that side's tail bound up to f^(ell/8) above u (f^(ell/4) for a wave
    kernel, whose ell counts degrees of B), for ell 26 and 23 (13 and 11)
    about f^3.  Higham and Tisseur's estimator is exact on most input and
    rarely low by more than a factor 3; on dense, triangular and symmetric
    input at n = 128-200 it read 0.77-1.0 of the norm, and every
    large-dense benchmark call that read it (4 of 72 over seeds 0, 3 and
    7) dropped a step and kept its benchmark check.  Al-Mohy and Higham
    choose s for the exponential on such estimates (2009, above).  Where
    eps is the bound, the argument above holds as stated.
    """
    beta = norm if beta is None else beta
    delta = norm if delta is None else delta
    named = (("norm", norm), ("beta", beta), ("delta", delta))
    if cube_norms:
        if len(cube_norms) != 2:
            raise ValueError(f"cube_norms must hold 0 or 2 values, got "
                             f"{len(cube_norms)}")
        named += tuple(zip(("gamma", "eps"), cube_norms))
    for name, value in named:
        if not (value >= 0.0 and math.isfinite(value)):
            raise ValueError(
                f"{name} must be finite and nonnegative, got {value}")
    candidates = table.candidates
    if delta == 0.0 or norm <= table.floor:
        return candidates[0][7], 0
    # x = delta 2^e with e = p log2(a/delta) + q log2(beta/delta), clamped
    # at norm; an exponent at or past log2(a/delta) takes norm bit for bit
    la = math.log2(norm / delta)
    lb = math.log2(beta / delta)
    bits = table.step_bits
    step = 2 * table.cost_denominator
    best: tuple[tuple[int, int], SchemeId, float, float] | None = None
    for tc, pc, qc, ts, ps, qs, units, scheme in candidates:
        ec = pc * la + qc * lb
        es = ps * la + qs * lb
        xc = delta * 2.0 ** ec if ec < la else norm
        xs = delta * 2.0 ** es if es < la else norm
        if xc > norm:
            xc = norm
        if xs > norm:
            xs = norm
        if xc <= tc and xs <= ts:
            return scheme, 0
        rc, rs = xc / tc, xs / ts
        s = math.ceil(math.log2(rc if rc > rs else rs) / bits)
        key = (units + step * s, s)
        if best is None or key < best[0]:
            best = (key, scheme, xc, xs)
    (_, s), scheme, xc, xs = best
    # a gamma of 0 keeps this s (see "Why the refined x is safe")
    if not cube_norms or cube_norms[0] == 0.0:
        return scheme, s
    return scheme, _refined_steps(table, scheme, norm, delta, cube_norms,
                                  (xc, xs))


def _refined_steps(
    table: ThetaTable, scheme: SchemeId, norm: float, delta: float,
    cube_norms: tuple[float, float], today: tuple[float, float],
) -> int:
    """s for the chosen scheme, each side's x lowered by the alpha_p its
    tail may read (select_scheme's "Why the refined x is safe")."""
    wave = table.wave
    gamma, eps = cube_norms
    entry = next(e for e in table.entries if e.scheme == scheme)
    alphas = ((2, max(delta, gamma)), (3, max(gamma, eps)))
    ratio = 0.0
    for x, theta, ell, odd in ((today[0], entry.theta_cos, entry.ell_cos, 0),
                               (today[1], entry.theta_sin, entry.ell_sin, 1)):
        # the tail's first y-degree: ell for a wave kernel, ceil(ell/2)
        # for the cosine, ceil((ell - 1)/2) for the sine
        start = ell if wave else (ell + 1 - odd) // 2
        for p, alpha in alphas:
            if start >= p * (p - 1):
                if odd and not wave:
                    # K = a/alpha, at least 1 but for rounding
                    alpha *= max(1.0, norm / alpha) ** (1.0 / ell)
                x = min(x, alpha)
        ratio = max(ratio, x / theta)
    return max(0, math.ceil(math.log2(ratio) / table.step_bits))


# Smallest n whose doubling zeroes the pair's tiny entries.  On a 2-core
# Xeon VM with one OpenBLAS thread (zeroing on and off interleaved, best of
# 7-60), zeroing took a Jordan-type pade_cos_sin call (norms 4 and 12, s = 5
# to 7) to 1.03-1.29 of its time at n = 96-144, 0.76-1.07 at 160,
# 0.58-0.79 at 176 and 0.45-0.68 at 192-256; the entry test costs 3-8 % of
# a call that zeroes nothing at n <= 128, about 1 % from 160 up.
_FLUSH_MIN_N = 176
# An entry below 2^-511 of its matrix's largest one is tiny (see the
# module docstring).
_FLUSH_BITS = 511


def _tiny_mask(m: DenseMatrix) -> tuple[np.ndarray, np.ndarray] | None:
    # the entries of m below 2^-511 of its largest one (zeros included) and
    # the magnitudes of all, or None when m holds an inf or a NaN
    magnitude = np.abs(m)
    top = magnitude.max()
    if not top < math.inf:
        return None
    return magnitude < math.ldexp(top, -_FLUSH_BITS), magnitude


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The arrays every doubling step finishes against, read-only and made here,
# so a call makes none: the wave pair's scale, 2 as a 0-d array at every n
# (a (2, 1, 1) array took 0.6 us more per step at n <= 16, and a Python
# float, which numpy converts on every call, 0.2 us more; one OpenBLAS
# thread on a Xeon VM), and the term added to the new cosine's diagonal,
# +1 for C <- I - 2 (S S) and -1 for the wave pair's C <- 2 (C C) - I
_TWO = _readonly(np.array(2.0))
_ONE = _readonly(np.array(1.0))
_MINUS_ONE = _readonly(np.array(-1.0))
# the trigonometric scale of a step into buffer j = 0, 1 of _double_angle
# from n = _BROADCAST_STEP_MIN_N: 2 for the new sine, -2 for the new cosine
_BROADCAST_SCALES = (_readonly(np.array([2.0, -2.0]).reshape(2, 1, 1)),
                     _readonly(np.array([-2.0, 2.0]).reshape(2, 1, 1)))

# Smallest n whose trigonometric step scales its buffer by a broadcast
# _BROADCAST_SCALES array.  Below it the buffer, read flat, is scaled in one
# contiguous pass by the slice [(j + 1) m - n^2, (j + 1) m + n^2) of
# _SCALE_ROW, the row [2] m, [-2] m, [2] m with m = (_BROADCAST_STEP_MIN_N
# - 1)^2 (36.5 KB at 40): n^2 of 2 and then n^2 of -2 for buffer 0, the
# reverse for buffer 1, with the same bits.  One step (a doubling at s = 5
# less one at s = 1, over 4) on a 2-core Xeon VM with one OpenBLAS thread
# (the least of 200 alternating rounds, us; from 40 on the row was sized to
# 64; the wave step, the same at every n, for comparison):
#   n                  2     4     8    12    16    24    32    40    48    64
#   trig.  broadcast 2.71  2.75  2.78  2.83  3.39  4.33  5.71  8.27 11.50 20.63
#          row       2.23  2.24  2.31  2.44  2.80  3.63  4.78  7.03  9.61 17.43
#   wave             3.12  3.19  3.25  3.25  3.47  4.46  5.58  7.64 10.27 17.88
# The row wins at every n measured, but a row for n past 40 holds
# 24 (n - 1)^2 bytes, for sizes no benchmark workload covers.
_BROADCAST_STEP_MIN_N = 40
_ROW_SLAB = (_BROADCAST_STEP_MIN_N - 1) ** 2
_SCALE_ROW = _readonly(np.repeat([2.0, -2.0, 2.0], _ROW_SLAB))


def _double_angle(
    cos: DenseMatrix, sin: DenseMatrix, steps: int, alg: MatrixAlgebra,
    wave: bool,
) -> tuple[DenseMatrix, DenseMatrix]:
    # Both products of a step read the old pair and are written into the
    # next of two (2, n, n) buffers, buffer j holding the sine in slab j and
    # the cosine in slab 1 - j.  Two passes finish the step against arrays
    # made at import (_BROADCAST_STEP_MIN_N): the buffer times its scale,
    # then the new cosine's diagonal view plus a 0-d +-1, so each entry is
    # rounded as in two products per step, each scaled and its diagonal
    # shifted.  The first step, and every wave step, is two products of the
    # old pair, so the entering pair is never copied into a stack (a
    # C-ordered copy of a Fortran-ordered pair, as the Pade pair's dgetrs
    # solves return below matcore._GEMM_MIN_N, would round differently).
    # Every later trigonometric step is one stacked product, S [S, C] =
    # [S^2, S C] or S [C, S] = [S C, S^2]; the wave step
    # [C, S] C = [C^2, S C] would put the stack first, where perfbench's
    # tracer reads n.  Scaling by -2 turns each +0 of S S into -0, so C's
    # off-diagonal zeros are -0 where a plain sum gives +0 (equal values; a
    # fix costs a pass per step).  Tiny entries are zeroed as the module
    # docstring says: the entering pair is tested once, and zeroing runs
    # only when it is finite and a matrix of it holds a nonzero tiny entry.
    # The returned pair is the last buffer's two slabs; at s = 0 a slab of
    # a larger stack (the pair's basis, a stage's rows) is copied, so it
    # keeps no stack alive.
    if not steps:
        if cos.base is not None and cos.base.nbytes > cos.nbytes:
            cos = cos.copy()
        if sin.base is not None and sin.base.nbytes > sin.nbytes:
            sin = sin.copy()
        return cos, sin
    n = cos.shape[0]
    tiny = None
    if n >= _FLUSH_MIN_N:
        tiny = _tiny_mask(cos), _tiny_mask(sin)
        if not (all(t is not None for t in tiny) and any(
                np.max(magnitude, where=mask, initial=0.0)
                for mask, magnitude in tiny)):
            tiny = None
    flush = tiny is not None
    # buffer j with its sine and cosine slabs, what its scale multiplies,
    # that scale, and the diagonal of its cosine (slab 1 - j) as a view of
    # the buffer read flat
    buffers = []
    area = n * n
    for j in range(min(steps, 2)):
        buffer = np.empty((2, n, n))
        flat = buffer.reshape(2 * area)
        if wave:
            scaled, scale = buffer, _TWO
        elif n < _BROADCAST_STEP_MIN_N:
            middle = (j + 1) * _ROW_SLAB
            scaled, scale = flat, _SCALE_ROW[middle - area:middle + area]
        else:
            scaled, scale = buffer, _BROADCAST_SCALES[j]
        buffers.append((buffer, buffer[j], buffer[1 - j], scaled, scale,
                        flat[:area:n + 1] if j else flat[area::n + 1]))
    term = _MINUS_ONE if wave else _ONE
    mul, multiply, add = alg.mul, np.multiply, np.add
    for step in range(steps):
        if flush:
            _zero_tiny(cos, sin, tiny)
            tiny = None
        j = step & 1
        buffer, sine, cosine, scaled, scale, diagonal = buffers[j]
        if step and not wave:
            mul(sin, buffers[1 - j][0], buffer)
        else:
            square = cos if wave else sin
            mul(square, square, cosine)
            mul(sin, cos, sine)
        multiply(scaled, scale, scaled)
        add(diagonal, term, diagonal)
        cos, sin = cosine, sine
    return cos, sin


def _zero_tiny(cos: DenseMatrix, sin: DenseMatrix, tiny: tuple | None) -> None:
    # each tiny entry of the pair times +0.0, so a zero keeps its sign;
    # tiny holds the pair's _tiny_mask results where the entry test read
    # them already
    if tiny is None:
        tiny = _tiny_mask(cos), _tiny_mask(sin)
    for m, t in zip((cos, sin), tiny):
        if t is not None:
            np.multiply(m, 0.0, out=m, where=t[0])


def _scale(m: DenseMatrix, bits: int) -> None:
    # m <- m 2^bits in place, exact as ldexp is: multiplying by 2.0 ** bits,
    # a normal number from 2^-1022 to 2^1023, rounds each entry once; ldexp
    # takes the larger shifts
    if -1022 <= bits <= 1023:
        if bits:
            np.multiply(m, 2.0 ** bits, out=m)
    else:
        np.ldexp(m, bits, out=m)


def _upscaled(x: float, bits: int) -> float:
    # x 2^bits, inf where that overflows (math.ldexp would raise)
    try:
        return math.ldexp(x, bits)
    except OverflowError:
        return math.inf


# Smallest n whose selection reads the norms of y^3 and y^4 (_cube_norms).
# On a 2-core Xeon VM with one OpenBLAS thread (best of 7-9), the reads
# took 1.3 of a product at n = 64, 0.68 at 96, 0.27 at 128, 0.12 at 256 and
# 0.11 at 512, and whole cos_sin calls at s = 3 that kept their s grew by
# 1.0-4.3 products at n = 64-112 and by 0.2 or less from 128.  On the
# large-dense benchmark 22 % of the calls that read them drop one step,
# which saves 2 products, so they pay on average from about 0.44 of a
# product down.
_CUBE_MIN_N = 128


def _basis(
    scheme: SchemeId, alg: OperandAlgebra[T], stack: Sequence[T]
) -> Sequence[T]:
    """The basis stack scheme's pair starts from: the first depth slabs of
    stack (RegisteredScheme), the identity, y, y^2 and, for the pairs that
    read it, y^3, then free slabs.

    The caller builds stack with the identity, y and y^2 in its first
    three slabs and at least depth slabs in all: the driver's workspace
    (_workspace), verify's list of polynomials, or a test's stack.  y^3 is
    written into slab 3 as y^2 y for the degree-12 chains and as y y^2 for
    the Pade pair: the operands and order each pair used when it formed
    y^3 itself, so the product keeps its bits.
    """
    registered = scheme._registered
    basis = stack[:registered.depth]
    if registered.powers == 3:
        if scheme.family is SchemeFamily.PADE8:
            alg.mul(basis[1], basis[2], out=basis[3])
        else:
            alg.mul(basis[2], basis[1], out=basis[3])
    return basis


# The block 1-norm estimator's columns and its most iterations
# (_power_norm_estimate): Higham and Tisseur's t = 2 and itmax = 5.
_ESTIMATE_COLUMNS = 2
_ESTIMATE_ITERATIONS = 5


def _power_norm_estimate(y: DenseMatrix, y3: DenseMatrix) -> float:
    """A lower bound on ||y^3 y||_1, read from n x 2 blocks alone.

    Higham and Tisseur's block 1-norm estimator (SIAM J. Matrix Anal.
    Appl. 21, 2000, Algorithm 2.4) with t = 2, on the operator y^3 y and
    its transpose, so y^4 is never formed and nothing is charged.  The
    first iteration multiplies a start block by y, then by y^3; each later
    one multiplies y^3 by the two columns of y the last iteration's
    transposed products point to, those products being y^T (y^3^T S) for
    S the signs of the block.  The estimate is the largest 1-norm of a
    column of y^3 y so formed, which never exceeds ||y^3 y||_1 but for
    rounding (the first block's columns have 1-norm 1).  It is
    deterministic: the start block is e/n and the alternating vector
    (-1)^i (1 + i/(n - 1)) scaled to 1-norm 1 (Higham's dlacon vector), and
    a column of signs parallel to another is kept rather than redrawn at
    random, which may leave the estimate lower than a redraw would, never
    above the norm.
    """
    n = y.shape[0]
    start = np.empty((n, _ESTIMATE_COLUMNS))
    start[:, 0] = 1.0
    ramp = start[:, 1]
    ramp[:] = np.linspace(1.0, 2.0, n)
    ramp[1::2] *= -1.0
    start /= np.add.reduce(np.abs(start), axis=0)
    block = y3 @ (y @ start)
    used = np.zeros(n, dtype=bool)
    best, best_index, signs = 0.0, -1, None
    for k in range(_ESTIMATE_ITERATIONS + 1):
        sums = np.add.reduce(np.abs(block), axis=0)
        column = int(sums.argmax())
        if k and sums[column] <= best:
            break
        best = float(sums[column])
        if k == _ESTIMATE_ITERATIONS:
            break
        if k:
            best_index = int(columns[column])
        old, signs = signs, np.where(block >= 0.0, 1.0, -1.0)
        if old is not None and (np.abs(old.T @ signs).max(axis=0) == n).all():
            break   # every column of signs repeats one of the last
        rows = np.abs(y.T @ (y3.T @ signs)).max(axis=1)
        if k and rows.max() == rows[best_index]:
            break
        order = np.argsort(-rows, kind="stable")
        if used[order[:_ESTIMATE_COLUMNS]].all():
            break
        columns = order[~used[order]][:_ESTIMATE_COLUMNS]
        used[columns] = True
        block = y3 @ y[:, columns]
    return best


def _cube_norms(
    y: DenseMatrix, y3: DenseMatrix, scratch: DenseMatrix, wave: bool
) -> tuple[float, float]:
    # (||y^3||_1^(1/d), c^(1/e)), c = max((e^T |y^3|) |y|) >= ||y^4||_1,
    # with d, e = 6, 8 (the degrees of y^3, y^4 in A), or 3, 4 in B: the
    # column sums of |y^3| give its norm and, times |y|, the bound, as
    # ||y^3 y||_1 <= || |y^3| |y| ||_1.  scratch, a free slab of the pair's
    # basis (written before it is read), holds |y^3|, then |y|.
    d, e = (3, 4) if wave else (6, 8)
    magnitude = np.abs(y3, out=scratch)
    columns = np.add.reduce(magnitude, axis=0)
    np.abs(y, out=magnitude)
    return (float(columns.max()) ** (1.0 / d),
            float((columns @ magnitude).max()) ** (1.0 / e))


# The largest ||A||_1 whose selection reads ||y||_1 and ||y^2||_1 in one
# pass (_square_norms): ||y||_1 <= ||A||_1^2 <= 2^500, so y^2 is formed
# before selection anyway.
_PAIRED_NORMS_LIMIT = 2.0 ** (_SQUARE_LIMIT_BITS // 2)
# Slabs of the call's workspace: the deepest basis stack any scheme starts
# from, made before selection forms y and y^2 in slabs 1 and 2.
_WORKSPACE_DEPTH = max(registered.depth for registered in SCHEMES.values())


def _workspace(n: int) -> np.ndarray:
    # the call's basis stack, (_WORKSPACE_DEPTH, n, n): the identity in
    # slab 0 and the rest unwritten, for selection to form y and y^2 in
    # slabs 1 and 2 and _basis to hand a prefix of it to the pair
    stack = np.empty((_WORKSPACE_DEPTH, n, n))
    stack[0] = 0.0
    stack.ravel()[: n * n : n + 1] = 1.0  # slab 0's diagonal
    return stack


def _square_norms(stack: np.ndarray) -> tuple[float, float]:
    # (||y||_1, ||y^2||_1) for y and y^2 in slabs 1 and 2 of stack, in one
    # pass over both, |y| and |y^2| written into slabs 3 and 4 (free until
    # the pair fills them): each slab's column sums are added row by row
    # as norm1's are, so each norm is norm1's bit for bit
    magnitude = np.abs(stack[1:3], out=stack[3:5])
    tops = np.maximum.reduce(np.add.reduce(magnitude, axis=1), axis=1)
    return float(tops[0]), float(tops[1])


def _selection(
    a: DenseMatrix, table: ThetaTable, alg: MatrixAlgebra, t: float | None,
    norm: float | None = None,
) -> tuple[SchemeId, int, np.ndarray, tuple[float, ...], tuple[float, ...]]:
    """Select on the norms of the even variable y and of y^2, formed once.

    The trigonometric pairs' x = A gives y = A^2 at a product; for the
    wave table (table.wave) t is the time step, read there alone, and
    x = B = t^2 A is its own y.  Above 2^500, x is first taken to x 2^-p
    (x 4^-p for B, which quarters per step) so the squares stay finite,
    and s counts p on top; a finite x whose 1-norm overflows is sized from
    x 2^-q (4^-q), and the q steps count in p.  A B with an inf or NaN
    entry (t^2 A overflowed) raises MatrixInputError.
    Returns the scheme, s, the basis stack its pair starts from (_basis),
    its powers scaled to the chain's operand, the selection norms and the
    cube norms (empty where not read).  Selection makes the call's
    workspace (_workspace, _WORKSPACE_DEPTH slabs) before any power, and
    every path forms the pair's powers straight into its slabs 1 and 2, so
    a prefix of it becomes the basis with nothing copied.  At the table's
    floor the cheapest scheme runs unscaled and no power's norm is read;
    where ||y||_1 exceeds 2^500, y^2 is formed from the scaled y once s is
    chosen; up to ||A||_1 = 2^250 both norms are read in one pass
    (_square_norms).  Every product runs through alg, so a structured one
    may round differently from the dense product, and the norms with it
    (by an ulp in ||A^4||_1^(1/4) on a 512 x 512 triangle).

    From n = _CUBE_MIN_N, a scheme whose pair reads y^3 (the degree-12
    chains, the Pade pair) and needs s >= 1 has it formed at that s, from
    the scaled y and y^2, so no product can overflow that the pair would
    not have formed anyway.  Its norm and the bound on ||y^4|| are read
    then (_cube_norms) and s is recomputed for that scheme alone: every
    side whose tail starts at y-degree 2 or more (6 or more) may bound it
    by alpha_2 = max(||y^2||^(1/2), ||y^3||^(1/3)) (by alpha_3 =
    max(||y^3||^(1/3), ||y^4||^(1/4))), the cosine and the wave kernels as
    their effective norm, the sine through its leading factor as
    alpha (a/alpha)^(1/ell) (select_scheme gives the argument).  The
    scheme is fixed before y^3 is formed: it is a product of that scheme's
    pair only, and a choice that moved after it would waste it.  Where s
    falls, the slabs y, y^2 and y^3 are multiplied in place by the exact
    powers of two the lower s asks for; the ledger stays pair cost + 2s,
    and a call whose s does not move keeps every bit.  Where even
    alpha_3 = gamma (no ||y^4|| at all) would lower s below the bound's
    choice, ||y^4||_1 is estimated from n x 2 blocks (_power_norm_estimate,
    nothing charged) and the smaller of the two is read; elsewhere the
    estimate is not formed and the call keeps the bound's every bit.

    norm is ||a||_1 where the caller read it already (the trigonometric
    pairs, after the shift); it is read here otherwise.
    """
    wave = table.wave
    stack = _workspace(a.shape[0])
    x = np.multiply(a, t * t, out=stack[1]) if wave else a
    if wave or norm is None:
        norm = norm1(x)
    if norm <= table.floor:
        scheme = table.entries[0].scheme
        y = x if wave else alg.mul(x, x, out=stack[1])
        alg.mul(y, y, out=stack[2])
        return (scheme, 0, _basis(scheme, alg, stack),
                (norm,) * (2 if wave else 3), ())
    bits = table.step_bits
    # q steps taken first when the 1-norm itself overflows, though every
    # entry is finite: 2^(bits q) > 2n brings every column sum under the
    # largest double
    q, norm_q = 0, norm
    if not math.isfinite(norm):
        if not np.isfinite(x).all():
            # only B = t^2 A can get here: A was checked finite
            raise MatrixInputError(
                "t^2 A overflows: the wave pair needs a smaller t")
        q = -(-(x.shape[0].bit_length() + 1) // bits)
        norm_q = norm1(x * 2.0 ** (-bits * q))
    p = max(0, -(-(math.frexp(norm_q)[1] + bits * q - _SQUARE_LIMIT_BITS)
                 // bits))
    base_norm = math.ldexp(norm_q, bits * (q - p))
    y2 = None
    if wave:
        # B 4^-p in its own slab, as exact as x 4^-p
        y, y_norm = x, base_norm
        _scale(y, -bits * p)
    elif norm <= _PAIRED_NORMS_LIMIT:
        y = alg.mul(x, x, out=stack[1])
        y2 = alg.mul(y, y, out=stack[2])
        y_norm, y2_norm = _square_norms(stack)
    else:
        base = x * 2.0 ** (-bits * p) if p else x
        y = alg.mul(base, base, out=stack[1])
        y_norm = norm1(y)
    if y2 is None and y_norm <= _SQUARE_LIMIT:
        y2 = alg.mul(y, y, out=stack[2])
        y2_norm = norm1(y2)
    # root is ||y^2||^(1/2), or ||y|| when y^2 waits for s
    root = y_norm if y2 is None else math.sqrt(y2_norm)
    if wave:
        beta, delta = None, root
        norms = (norm, _upscaled(delta, 2 * p))
    else:
        beta, delta = math.sqrt(y_norm), math.sqrt(root)
        norms = (norm, _upscaled(beta, p), _upscaled(delta, p))
    scheme, s = select_scheme(base_norm, table, beta, delta)
    # y and y^2 are this call's own slabs, so they are scaled in place
    _scale(y, -2 * s)
    if y2 is None:
        alg.mul(y, y, out=stack[2])
    else:
        _scale(y2, -4 * s)
    basis = _basis(scheme, alg, stack)
    if not (s and x.shape[0] >= _CUBE_MIN_N
            and scheme._registered.powers == 3):
        return scheme, s + p, basis, norms, ()
    # the cube norms at s, in the base operand's units
    gamma, eps = (math.ldexp(c, bits * s)
                  for c in _cube_norms(basis[1], basis[3], basis[4], wave))
    refined = select_scheme(base_norm, table, beta, delta,
                            cube_norms=(gamma, eps))[1]
    # no ||y^4|| can take s below its value at alpha_3 = gamma; short of
    # it, an estimate of ||y^4|| may (select_scheme's "What an estimate
    # gives up")
    if refined > select_scheme(base_norm, table, beta, delta,
                               cube_norms=(gamma, 0.0))[1]:
        estimate = math.ldexp(_power_norm_estimate(basis[1], basis[3])
                              ** (1.0 / (4 if wave else 8)), bits * s)
        if estimate < eps:
            eps = estimate
            refined = select_scheme(base_norm, table, beta, delta,
                                    cube_norms=(gamma, eps))[1]
    if refined < s:
        for degree in (1, 2, 3):
            _scale(basis[degree], 2 * degree * (s - refined))
    return (scheme, refined + p, basis, norms,
            (_upscaled(gamma, bits * p), _upscaled(eps, bits * p)))


def _pair(
    scheme: SchemeId, odd: T, alg: OperandAlgebra[T], basis: Sequence[T]
) -> CosSinResult:
    """The one dispatch from a scheme's family to its pair function.

    odd is A 2^-s, or t 2^-s for the wave pair, and basis the pair's basis
    stack (_basis), its powers scaled to match; verify replays this call
    over polynomials.  The pairs are read as this module's globals, which
    perfbench/tracing.py rebinds.
    """
    if scheme.family is SchemeFamily.WAVE_KERNEL:
        return wave_kernels(odd, scheme, alg, basis)
    if scheme.family is SchemeFamily.PADE8:
        return pade8_cos_sin(odd, alg, basis)
    return taylor_cos_sin(odd, scheme, alg, basis)


# pi/2 and pi/4 in binary64 (each pi rounded, then halved exactly)
_HALF_PI = math.pi / 2
_QUARTER_PI = math.pi / 4


def _quarter_shift(
    a: DenseMatrix, norm: float
) -> tuple[DenseMatrix, float, int]:
    """(B, ||B||_1, q) for B = A - q (pi/2) I, q = round(tr A / (n pi/2)),
    where ||B||_1 < ||A||_1; (A, ||A||_1, 0) otherwise.

    norm is ||A||_1.  Below pi/4, so is every |a_ii|: |tr A| / (n pi/2) is
    below 1/2, q is 0 and the trace is not read.  A trace that overflows
    keeps A.  B is a copy of A with q (pi/2), rounded once, taken from its
    diagonal, so it keeps A's structure (triangular or symmetric).
    """
    if not norm >= _QUARTER_PI:
        return a, norm, 0
    n = a.shape[0]
    # the diagonal summed as Python floats: 0.35 us at n = 8, where
    # a.trace() took 1.25 (one OpenBLAS thread on a Xeon VM); a sum that
    # overflows is +-inf, never NaN, as no partial sum meets the other inf
    centre = sum(a.diagonal().tolist()) / (n * _HALF_PI)
    if not math.isfinite(centre):
        return a, norm, 0
    q = round(centre)
    if not q:
        return a, norm, 0
    b = a.copy()
    diagonal = b.reshape(-1)[::n + 1]
    diagonal -= q * _HALF_PI
    b_norm = norm1(b)
    if b_norm < norm:
        return b, b_norm, q
    return a, norm, 0


def _quarter_turn(
    cos: DenseMatrix, sin: DenseMatrix, q: int
) -> tuple[DenseMatrix, DenseMatrix]:
    # (cos A, sin A) from (cos B, sin B) with A = B + q (pi/2) I: by q mod
    # 4, (C, S), (-S, C), (-C, -S) or (S, -C), each negation in place, so a
    # pair that is one buffer's two slabs stays so
    turn = q & 3
    if turn & 1:
        cos, sin = sin, cos
    if turn in (1, 2):
        np.negative(cos, out=cos)
    if turn >= 2:
        np.negative(sin, out=sin)
    return cos, sin


def _real_time(t) -> float:
    # float(t), or MatrixInputError where float() would parse a str or
    # bytes, drop (or refuse) the imaginary part of a complex t, refuse t
    # (None, a list, an array of one or more dimensions) with a bare
    # TypeError, or overflow (an int or a Fraction past the largest double)
    if not (isinstance(t, (str, bytes)) or np.iscomplexobj(t)):
        try:
            return float(t)
        except TypeError:
            pass
        except OverflowError:
            raise MatrixInputError(
                "t must be finite, got a value past the largest double"
            ) from None
    raise MatrixInputError(f"t must be a real number, got {t!r}")


def _evaluate(
    a: DenseMatrix, table: ThetaTable, t: float | None = None
) -> ComputationReport:
    """The one evaluation body: check, shift, select, scale, evaluate,
    double, turn.

    The family comes from the table; t is read for the wave pair only, and
    must be a finite real number (_real_time says what raises).  An
    upper-triangular (symmetric) A keeps every matrix formed from it upper
    triangular (symmetric), so its structure is tested once
    (matcore.structure_of) into the call's one MatrixAlgebra, with the
    ledger; selection, the pair and the doubling steps run their products
    through it.  The quarter-period shift (_quarter_shift) moves only the
    diagonal, so it keeps that structure, and ||A||_1, read once, serves
    both it and selection.  Selection's norms may then move by ulps from the dense
    path's, so a choice near a threshold could differ.  The arithmetic
    runs with numpy's overflow and invalid-operation warnings off: a
    result that overflowed says so in the report's nonfinite.
    """
    a = as_matrix(a)
    structure = structure_of(a)
    alg = MatrixAlgebra(CostLedger(), structure)
    wave = table.wave
    with np.errstate(over="ignore", invalid="ignore"):
        if wave:
            if type(t) is not float:
                t = _real_time(t)
            if not math.isfinite(t):
                raise MatrixInputError(f"t must be finite, got {t}")
            scheme, s, basis, norms, cubes = _selection(a, table, alg, t)
            odd, shift = t / 2.0 ** s, 0
        else:
            a, norm, shift = _quarter_shift(a, norm1(a))
            scheme, s, basis, norms, cubes = _selection(a, table, alg, None,
                                                        norm)
            # at s = 0 the pair reads A (or B) itself (x 1.0 = x); no pair
            # writes into odd
            odd = a * 2.0 ** -s if s else a
        part = _pair(scheme, odd, alg, basis)
        pair = _double_angle(part.cos_part, part.sin_part, s, alg, wave)
        if shift:
            pair = _quarter_turn(*pair, shift)
        result = CosSinResult(*pair)
    return ComputationReport(
        result=result,
        scheme_used=scheme,
        scaling_exponent=s,
        total_products=alg.ledger.total_cost,
        selection_norms=norms,
        structure=structure.value,
        cube_norms=cubes,
        shift=shift,
    )


def cos_sin(
    a: DenseMatrix, precision: Precision | str = Precision.DOUBLE
) -> ComputationReport:
    """Simultaneous cos(a) and sin(a) via the factored Taylor pipeline."""
    return _evaluate(a, TAYLOR_TABLE[Precision(precision)])


def wave_cos_sin(
    a: DenseMatrix,
    t: float,
    precision: Precision | str = Precision.DOUBLE,
) -> ComputationReport:
    """Wave kernels c(t^2 a) and s(t, a) at arbitrary t^2 * norm.

    B = t^2 a is free and B^2 is formed once, before selection.  Scaling
    halves t (B shrinks by 4 per step, so the chain gets B 4^-s and
    B^2 16^-s); each doubling step applies s(2t, A) = 2 s(t, A) c(t^2 A)
    and c(4 t^2 A) = 2 c(t^2 A)^2 - I, both from the old pair.
    """
    return _evaluate(a, WAVE_TABLE[Precision(precision)], t)


def pade_cos_sin(
    a: DenseMatrix, precision: Precision | str = Precision.DOUBLE
) -> ComputationReport:
    """Baseline pipeline: the rational order-8 pair under the same driver."""
    return _evaluate(a, PADE_TABLE[Precision(precision)])
