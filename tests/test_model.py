"""Pressure law, potential, and the phase-space lift."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wildfan.exactnum import IntervalExpr, QuadExt, Rational, adjoin_sqrt, sign
from wildfan.fan import ConditionResult, Status
from wildfan.model import (
    EulerState,
    GammaOutOfRange,
    NonPositiveDensity,
    PHPoint,
    PressureLaw,
    lift_state,
    pressure,
    pressure_potential,
    state_from_json,
    state_to_json,
)
from wildfan.riemann import Shock, Slip
from wildfan.search import Candidate, SearchConfig


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


def test_pressure_gamma_four_thirds():
    law = PressureLaw(gamma=Rational(4, 3))
    # a perfect cube stays rational
    assert pressure(law, Rational(8)) == Rational(16)
    # any other density is a rational-power node: 2^(4/3) = cbrt(16)
    v = pressure(law, Rational(2))
    assert isinstance(v, IntervalExpr)
    iv = v.enclosure(200)
    assert iv.lo ** 3 <= 16 <= iv.hi ** 3
    oracle = sp.N(sp.Integer(2) ** sp.Rational(4, 3), 60)
    for end in (iv.lo, iv.hi):
        assert abs(sp.Rational(end.numerator, end.denominator) - oracle) < sp.Float("1e-55", 60)


def test_pressure_law_rejects_non_rational_gamma():
    # gamma is checked once, where the law is built, not at first use
    for gamma in (QuadExt.sqrt_of(2), IntervalExpr.log(Rational(3))):
        with pytest.raises(ValueError, match="gamma must be rational"):
            PressureLaw(gamma)
    with pytest.raises(ValueError, match="gamma must be >= 1"):
        PressureLaw(Rational(1, 2))


def test_pressure_law_bounds_gamma_terms():
    # numerator and denominator at most 10^4 in lowest terms, and at most
    # 300 when the denominator is above 2
    for gamma in (Rational(10 ** 4), Rational(9999, 2), Rational(2 * 9999, 2 * 2),
                  Rational(300, 299), Rational(2 * 300, 2 * 299), Rational(300, 7)):
        assert PressureLaw(gamma).gamma == gamma
    for gamma in (Rational(10 ** 4 + 1), Rational(10 ** 4 + 1, 10 ** 4), Rational(10 ** 40)):
        with pytest.raises(GammaOutOfRange, match="at most 10000"):
            PressureLaw(gamma)
    for gamma in (Rational(301, 300), Rational(301, 3), Rational(10 ** 4, 9999)):
        with pytest.raises(GammaOutOfRange, match="denominator above 2, .* at most 300$"):
            PressureLaw(gamma)
    # a gamma below 1 is malformed however large its terms
    with pytest.raises(ValueError, match="gamma must be >= 1"):
        PressureLaw(Rational(1, 10 ** 40))


def test_pressure_rejects_vacuum():
    law = PressureLaw(gamma=2)
    with pytest.raises(NonPositiveDensity):
        pressure(law, Rational(0))


def test_pressure_potential_closed_forms():
    law = PressureLaw(gamma=2)  # P = rho^2
    assert pressure_potential(law, Rational(4)) == Rational(16)
    assert pressure_potential(law, Rational(52, 25)) == Rational(2704, 625)

    iso = PressureLaw(gamma=1)  # P = rho log rho
    v = pressure_potential(iso, Rational(1))
    assert sign(v, precision_cap=256) == 0  # value is exactly 0
    iv = v.enclosure(128)
    assert float(iv.lo) <= 0.0 <= float(iv.hi)
    assert float(iv.hi - iv.lo) < 1e-30


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


def test_records_are_class_aware_hashable_and_frozen():
    left, right = EulerState(1, (0, 0)), EulerState(4, (0, 0))
    shock = Shock(Rational(1), left, right)
    # equality is by class and field tuple, not by fields alone
    assert shock != Slip(Rational(1), left, right)
    assert shock == Shock(speed=Rational(1), right=right, left=left)
    assert Shock._fields == ("speed", "left", "right")
    assert hash(shock) == hash((Rational(1), left, right))
    assert hash(left) == hash((Rational(1), (Rational(0), Rational(0))))
    cond = ConditionResult("weights_sum_to_one", Status.PASS, "1")
    assert repr(cond) == ("ConditionResult(name='weights_sum_to_one', "
                          "status=<Status.PASS: 'Pass'>, witness='1')")
    for record, name in ((shock, "speed"), (left, "rho"), (cond, "witness")):
        with pytest.raises(AttributeError):
            setattr(record, name, Rational(2))
        with pytest.raises(AttributeError):
            delattr(record, name)
    # the generic constructor takes the fields and nothing else
    for args, kwargs in (((Rational(1), left), {}), ((Rational(1), left, right, 0), {}),
                         ((Rational(1), left, right), {"speed": 0}),
                         ((Rational(1), left, right), {"mu": 0})):
        with pytest.raises(TypeError):
            Shock(*args, **kwargs)
    # a validating constructor stays in charge of its fields
    with pytest.raises(ValueError):
        SearchConfig(restarts=-1)
    assert SearchConfig() == SearchConfig(64, 0)
    # the search candidate is frozen like every other record
    cand = Candidate(PressureLaw(2), left, right, -1.0, [0.0])
    assert (cand.seed, cand.fan, cand.comparison) == (None, None, None)
    for name in Candidate._fields:
        with pytest.raises(AttributeError):
            setattr(cand, name, None)
        with pytest.raises(AttributeError):
            delattr(cand, name)
    assert Candidate._fields[-2:] == ("fan", "comparison")
    # only search_fan puts a fan on a candidate: the constructor takes none
    for kwargs in ({"fan": None}, {"comparison": None}):
        with pytest.raises(TypeError):
            Candidate(PressureLaw(2), left, right, -1.0, [0.0], 3, **kwargs)
    with pytest.raises(TypeError):
        Candidate(PressureLaw(2), left, right, -1.0, [0.0], 3, None)


def test_candidates_from_equal_arrays_compare_and_hash_equal():
    # x is a tuple of floats: an array would make == raise ValueError and
    # hash raise TypeError
    left = EulerState(Rational(1), (Rational(0), Rational(1)))
    right = EulerState(Rational(4), (Rational(0), Rational(0)))

    def cand(x):
        return Candidate(PressureLaw(2), left, right, -1.0, x, 3)
    a, b = cand(np.array([0.5, 1.5])), cand(np.array([0.5, 1.5]))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.x == (0.5, 1.5) and type(a.x[0]) is float
    assert a != cand(np.array([0.5, 2.5]))
    assert a.to_dict() == {"seed": 3, "sigma": -1.0, "variables": {"mu0": 0.5, "mu2": 1.5}}
    assert type(a.to_dict()["variables"]["mu0"]) is float


# ---------------------------------------------------------------------------
# each state keeps its lift, per law
# ---------------------------------------------------------------------------

_FRACTIONS = st.fractions(min_value=Fraction(1, 16), max_value=16, max_denominator=16)
# a momentum component is rational, or a tower number: a rational times the
# square root of a rational that need not be a square
_COMPONENTS = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=8).map(Rational),
    st.tuples(_FRACTIONS, _FRACTIONS).map(lambda c: Rational(c[0]) * adjoin_sqrt(Rational(c[1]))))
_STATES = st.builds(lambda rho, m1, m2: EulerState(Rational(rho), (m1, m2)),
                    _FRACTIONS, _COMPONENTS, _COMPONENTS)
# tower powers (2, 3/2), interval powers and roots (5/3), and rho log rho (1)
_LAWS = st.sampled_from([Fraction(2), Fraction(3, 2), Fraction(5, 3), Fraction(1)]).map(PressureLaw)


def _fresh(state):
    return EulerState(state.rho, state.m)


def _values(lifted):
    """The lift's seven components and energy; an interval value, which
    compares equal only to itself, as the double nearest it."""
    z, E = lifted
    return tuple(v if v.is_exact else float(v) for v in (*z.components(), E))


@settings(max_examples=40, deadline=None)
@given(_STATES)
def test_a_state_lifted_under_two_laws_gets_each_laws_lift(state):
    # gamma = 2 and 5/3 give different q (rho != 1) or E (rho = 1), so a
    # state that handed one law's lift to the other would fail this
    law2, law53 = PressureLaw(2), PressureLaw(Fraction(5, 3))
    assert _values(lift_state(law2, _fresh(state))) != _values(lift_state(law53, _fresh(state)))
    for law in (law2, law53, law2, law53, PressureLaw(Rational(2))):
        assert _values(lift_state(law, state)) == _values(lift_state(law, _fresh(state)))


@settings(max_examples=40, deadline=None)
@given(_STATES, _LAWS, _LAWS)
def test_a_kept_lift_changes_no_equality_hash_or_repr(state, law, other):
    twin, shown, hashed = _fresh(state), repr(state), hash(state)
    lift_state(law, state)
    lift_state(other, twin)
    assert state == twin and twin == state and len({state, twin}) == 1
    assert hash(state) == hash(twin) == hashed
    assert repr(state) == repr(twin) == shown
    assert state._astuple() == twin._astuple()


@settings(max_examples=40, deadline=None)
@given(_STATES, _LAWS)
def test_a_kept_lift_equals_a_fresh_lift(state, law):
    first = lift_state(law, state)
    assert lift_state(law, state) is first  # asked again: kept, not computed
    assert _values(first) == _values(lift_state(law, _fresh(state)))
    # a state read back from its JSON is equal and lifts to an equal result
    parsed = state_from_json(state_to_json(state))
    assert parsed == state
    assert _values(lift_state(law, parsed)) == _values(first)
