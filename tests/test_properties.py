"""Property tests of the three entry points on random small matrices.

Sign symmetries hold bit for bit: negating A leaves every norm, every even
power and so every selection and product unchanged, and negates each odd
result exactly.  Transposes and block-diagonal inputs can select another
scaling exponent s (selection reads the whole matrix), so those compare
within 10^3 n 4^s u of the larger output norm (at least 1), the scale the
benchmark's tolerance uses; the worst seen on 3 000 scratch draws was 3.3
times n 4^s u.  A quarter period on the diagonal, A + q (pi/2) I, turns
the trigonometric pair by q mod 4, compared the same way.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from cossinm.driver import cos_sin, pade_cos_sin, wave_cos_sin
from cossinm.matcore import norm1
from pairs import quarter_turn

U = 2.0 ** -53
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)
TRIG = (cos_sin, pade_cos_sin)


@st.composite
def matrices(draw, max_n=4):
    """A standard-normal n x n matrix rescaled to a 1-norm in [1e-4, 1e3]."""
    n = draw(st.integers(1, max_n))
    log_norm = draw(st.floats(-4.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal((n, n))
    return a * (10.0 ** log_norm / norm1(a))


times = st.floats(0.5, 2.0)


def _pair(report):
    return report.result.cos_part, report.result.sin_part


def _close(x, y, s, extra=0.0):
    bound = (1e3 * x.shape[0] * (4.0 ** s + extra) * U
             * max(norm1(x), norm1(y), 1.0))
    assert norm1(x - y) <= bound, (norm1(x - y), bound)


@PROPERTY
@given(matrices())
def test_negation_is_bitwise_even_and_odd(a):
    for run in TRIG:
        plus, minus = run(a), run(-a)
        assert minus.scaling_exponent == plus.scaling_exponent
        (cp, sp), (cm, sm) = _pair(plus), _pair(minus)
        assert np.array_equal(cm, cp)
        assert np.array_equal(sm, -sp)


@PROPERTY
@given(matrices(), times)
def test_wave_at_negative_t_negates_s_bitwise(a, t):
    (cp, sp), (cm, sm) = _pair(wave_cos_sin(a, t)), _pair(wave_cos_sin(a, -t))
    assert np.array_equal(cm, cp)
    assert np.array_equal(sm, -sp)


@PROPERTY
@given(st.integers(1, 6), st.floats(-2.0, 2.0))
def test_wave_at_zero_is_identity_and_t(n, t):
    report = wave_cos_sin(np.zeros((n, n)), t)
    c, s = _pair(report)
    assert report.scaling_exponent == 0
    assert np.array_equal(c, np.eye(n))
    assert np.array_equal(s, t * np.eye(n))


@PROPERTY
@given(matrices(), times)
def test_transpose_commutes(a, t):
    for run in (*TRIG, lambda m: wave_cos_sin(m, t)):
        plain, flipped = run(a), run(a.T)
        s = max(plain.scaling_exponent, flipped.scaling_exponent)
        for x, y in zip(_pair(plain), _pair(flipped)):
            _close(x, y.T, s)


@PROPERTY
@given(matrices(max_n=3), matrices(max_n=3), times)
def test_block_diagonal_decouples(a, b, t):
    n = a.shape[0]
    m = np.zeros((n + b.shape[0],) * 2)
    m[:n, :n], m[n:, n:] = a, b
    for run in (*TRIG, lambda x: wave_cos_sin(x, t)):
        whole = run(m)
        parts = run(a), run(b)
        s = max(whole.scaling_exponent,
                *(p.scaling_exponent for p in parts))
        for k, joint in enumerate(_pair(whole)):
            assert not joint[:n, n:].any() and not joint[n:, :n].any()
            _close(joint[:n, :n], _pair(parts[0])[k], s)
            _close(joint[n:, n:], _pair(parts[1])[k], s)


@PROPERTY
@given(matrices(), st.integers(-5, 5))
def test_a_quarter_period_turns_the_pair(a, q):
    # each call may take its own shift off the diagonal, rounding it once
    # more: a backward error of a few u ||A||_1 that s does not count, so
    # ||A + q (pi/2) I||_1 joins 4^s in the scale (1 500 scratch draws used
    # up to 1.02 of 10^3 n 4^s u alone: a 1 x 1 A of norm 614, s = 0)
    moved = a + q * (math.pi / 2) * np.eye(a.shape[0])
    for run in TRIG:
        plain, turned = run(a), run(moved)
        s = max(plain.scaling_exponent, turned.scaling_exponent)
        for x, y in zip(_pair(turned), quarter_turn(*_pair(plain), q)):
            _close(x, y, s, norm1(moved))
