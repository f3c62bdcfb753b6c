"""Pressure law, potential, and the phase-space lift."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from wildfan.exactnum import QuadExt, Rational, sign
from wildfan.model import (
    EulerState,
    InvalidReference,
    NonPositiveDensity,
    PHPoint,
    PressureLaw,
    lift_state,
    pressure,
    pressure_potential,
)


def test_pressure_gamma2():
    law = PressureLaw(gamma=2)
    assert pressure(law, Rational(4)) == Rational(16)
    assert pressure(law, Rational(1)) == Rational(1)


def test_pressure_gamma_three_halves():
    law = PressureLaw(gamma=Fraction(3, 2))
    assert pressure(law, Rational(4)) == Rational(8)
    # non-perfect square stays exact in a quadratic tower
    v = pressure(law, Rational(2))
    assert isinstance(v, QuadExt)
    assert sign(v * v - Rational(8)) == 0  # (2^{3/2})^2 = 8


def test_pressure_rejects_vacuum():
    law = PressureLaw(gamma=2)
    with pytest.raises(NonPositiveDensity):
        pressure(law, Rational(0))


def test_pressure_potential_closed_forms():
    law = PressureLaw(gamma=2)  # rho_star defaults to 0
    assert pressure_potential(law, Rational(4)) == Rational(16)
    assert pressure_potential(law, Rational(52, 25)) == Rational(2704, 625)

    iso = PressureLaw(gamma=1, rho_star=1)
    v = pressure_potential(iso, Rational(1))
    assert sign(v, precision_cap=256) == 0  # value is exactly 0
    iv = v.enclosure(128)
    assert float(iv.lo) <= 0.0 <= float(iv.hi)
    assert float(iv.hi - iv.lo) < 1e-30

    with pytest.raises(InvalidReference):
        PressureLaw(gamma=1, rho_star=0)


def test_pressure_potential_general_reference():
    law = PressureLaw(gamma=2, rho_star=1)
    # P(rho) = rho^2 - rho for gamma=2, rho_star=1
    assert pressure_potential(law, Rational(3)) == Rational(6)


def test_lift_rest_state():
    law = PressureLaw(gamma=2)
    z, E = lift_state(law, EulerState(4, (0, 0)))
    assert z.q == Rational(16)
    assert z.u11 == Rational(0) and z.u12 == Rational(0)
    assert z.F == (Rational(0), Rational(0))
    assert E == Rational(16)


def test_lift_paper_left_state():
    law = PressureLaw(gamma=2)
    m2 = Rational(3, 2) * QuadExt.sqrt_of(5)
    z, E = lift_state(law, EulerState(1, (Rational(0), m2)))
    assert z.q == Rational(53, 8)
    assert E == Rational(53, 8)
    expect_f2 = Rational(183, 16) * QuadExt.sqrt_of(5)
    assert sign(z.F[1] - expect_f2) == 0
    assert z.u11 == Rational(-45, 8)


def test_lift_trace_identity_random():
    # trace of (m x m / rho + p I) - (U + q I) must vanish exactly
    rng = random.Random(3)
    law = PressureLaw(gamma=2)
    for _ in range(50):
        rho = Rational(Fraction(rng.randint(1, 40), rng.randint(1, 10)))
        m = (Rational(Fraction(rng.randint(-20, 20), rng.randint(1, 9))),
             Rational(Fraction(rng.randint(-20, 20), rng.randint(1, 9))))
        z, _ = lift_state(law, EulerState(rho, m))
        p = pressure(law, rho)
        lhs11 = m[0] * m[0] / rho + p
        lhs22 = m[1] * m[1] / rho + p
        assert sign(lhs11 + lhs22 - 2 * z.q) == 0
        # trace-free and symmetric structure of U reproduces the off-trace part
        assert sign((lhs11 - lhs22) / 2 - z.u11) == 0
        assert sign(m[0] * m[1] / rho - z.u12) == 0


def test_lifted_point_on_hull_boundary():
    # lambda_max(m x m / rho - U + (p - q) I) = 0: trace <= 0 and det = 0
    rng = random.Random(5)
    law = PressureLaw(gamma=2)
    for _ in range(50):
        rho = Rational(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        m = (Rational(rng.randint(-5, 5)), Rational(rng.randint(-5, 5)))
        z, _ = lift_state(law, EulerState(rho, m))
        p = pressure(law, rho)
        m11 = m[0] * m[0] / rho - z.u11 + p - z.q
        m12 = m[0] * m[1] / rho - z.u12
        m22 = m[1] * m[1] / rho + z.u11 + p - z.q
        tr = m11 + m22
        det = m11 * m22 - m12 * m12
        assert sign(tr) <= 0
        assert sign(det) == 0


def test_phpoint_vector_ops():
    a = PHPointFactory()
    b = PHPointFactory(offset=1)
    s = a + b
    assert s.q == a.q + b.q
    half = Rational(1, 2) * a
    assert sign(half.m[1] * 2 - a.m[1]) == 0
    d = s - b
    assert sign(d.u11 - a.u11) == 0


def PHPointFactory(offset: int = 0):
    from wildfan.model import PHPoint
    return PHPoint((offset, 1 + offset), 2, 3, 4 + offset, (5, 6))


@pytest.mark.parametrize("make", [
    lambda: EulerState(1, (0, 1, 7)),
    lambda: EulerState(1, (0,)),
    lambda: PHPoint((0, 1, 7), 0, 0, 1, (0, 1)),
    lambda: PHPoint((0,), 0, 0, 1, (0, 1)),
    lambda: PHPoint((0, 1), 0, 0, 1, (0, 1, 7)),
    lambda: PHPoint((0, 1), 0, 0, 1, ()),
])
def test_vectors_must_have_two_components(make):
    # a third component used to be dropped silently, a missing one raised
    # IndexError
    with pytest.raises(ValueError, match="must have 2 components"):
        make()
