"""Riemann solver: exact shock certification, wave curves, dissipation."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wildfan.exactnum import Inconclusive, QuadExt, Rational, adjoin_sqrt, sign
from wildfan.model import EulerState, PressureLaw, lift_state, pressure
from wildfan.riemann import (
    DissipationProfile,
    Rarefaction,
    Shock,
    Slip,
    VacuumFormation,
    plane_bracket,
    selfsim_dissipation,
    solve_riemann,
)

LAW2 = PressureLaw(gamma=2)
S5 = QuadExt.sqrt_of(5)


def paper_data():
    left = EulerState(1, (Rational(0), Rational(3, 2) * S5))
    right = EulerState(4, (Rational(0), Rational(0)))
    return left, right


def test_paper_single_shock_exact():
    left, right = paper_data()
    sol = solve_riemann(LAW2, left, right)
    assert sol.exact
    assert len(sol.waves) == 1 and isinstance(sol.waves[0], Shock)
    speed = sol.waves[0].speed
    assert sign(speed + S5 / 2) == 0  # sigma = -sqrt(5)/2 exactly


def test_paper_shock_dissipation_bracket():
    left, right = paper_data()
    sol = solve_riemann(LAW2, left, right)
    profile = selfsim_dissipation(LAW2, sol)
    assert len(profile.entries) == 1
    speed, coeff = profile.entries[0]
    assert sign(speed + S5 / 2) == 0
    assert sign(coeff - Rational(27, 4) * S5) == 0


def test_expanding_hugoniot_data_fail_lax():
    # the paper's data with the left normal momentum negated still satisfy
    # [v]^2 = [p][rho]/(rho_l rho_r), but v rises across the jump: Lax
    # rejects the shock and both waves are rarefactions
    left, right = paper_data()
    left = EulerState(left.rho, (left.m[0], -left.m[1]))
    sol = solve_riemann(LAW2, left, right)
    assert not sol.exact
    assert [type(w) for w in sol.waves] == [Rarefaction, Rarefaction]


def test_constant_data_no_waves():
    s = EulerState(2, (1, 1))
    sol = solve_riemann(LAW2, s, s)
    assert sol.waves == ()
    assert selfsim_dissipation(LAW2, sol).entries == ()


def test_symmetric_two_shock():
    left = EulerState(1, (0, 1))
    right = EulerState(1, (0, -1))
    sol = solve_riemann(LAW2, left, right)
    shocks = [w for w in sol.waves if isinstance(w, Shock)]
    assert len(shocks) == 2
    s1, s2 = float(shocks[0].speed), float(shocks[1].speed)
    assert s1 < 0 < s2
    assert abs(s1 + s2) < 1e-9
    assert float(shocks[0].right.rho) > 1.0
    profile = selfsim_dissipation(LAW2, sol)
    c1, c2 = float(profile.entries[0][1]), float(profile.entries[1][1])
    assert c1 > 0 and abs(c1 - c2) < 1e-9


def test_vacuum_detection():
    left = EulerState(1, (0, -10))
    right = EulerState(1, (0, 10))
    with pytest.raises(VacuumFormation):
        solve_riemann(LAW2, left, right)


def test_slip_plane_for_tangential_jump():
    left = EulerState(1, (1, 1))
    right = EulerState(1, (-1, -1))
    sol = solve_riemann(LAW2, left, right)
    slips = [w for w in sol.waves if isinstance(w, Slip)]
    assert len(slips) == 1
    # bracket across a slip vanishes; only shocks enter the profile
    profile = selfsim_dissipation(LAW2, sol)
    assert all(float(c) >= -1e-12 for _, c in profile.entries)


def rh_residuals(gamma: float, w: Shock) -> tuple[float, float]:
    s = float(w.speed)
    rl, rr = float(w.left.rho), float(w.right.rho)
    ml, mr = float(w.left.m[1]), float(w.right.m[1])
    pl, pr = rl ** gamma, rr ** gamma
    mass = s * (rl - rr) - (ml - mr)
    mom = s * (ml - mr) - ((ml * ml / rl + pl) - (mr * mr / rr + pr))
    scale = max(1.0, abs(ml) + abs(mr), pl + pr)
    return abs(mass) / scale, abs(mom) / scale


def rarefaction_curve_residual(gamma: float, w: Rarefaction) -> float:
    rl, rr = float(w.left.rho), float(w.right.rho)
    vl = float(w.left.m[1]) / rl
    vr = float(w.right.m[1]) / rr
    if gamma == 1.0:
        integral = math.log(rr) - math.log(rl)
    else:
        integral, _ = quad(lambda r: math.sqrt(gamma * r ** (gamma - 1.0)) / r, rl, rr)
    # 1-wave: v + ell decreasing family invariant flips sign vs the 2-wave
    res_plus = abs((vr - vl) + integral)
    res_minus = abs((vr - vl) - integral)
    return min(res_plus, res_minus)


@pytest.mark.parametrize("gamma", [1, Fraction(3, 2), 2, 3])
def test_random_riemann_problems(gamma):
    law = PressureLaw(gamma=gamma)
    g = float(gamma)
    rng = random.Random(100 + int(10 * g))
    solved = 0
    for _ in range(50):
        left = EulerState(Fraction(rng.uniform(0.1, 5)).limit_denominator(10 ** 6),
                          (0, Fraction(rng.uniform(-2, 2)).limit_denominator(10 ** 6)))
        right = EulerState(Fraction(rng.uniform(0.1, 5)).limit_denominator(10 ** 6),
                           (0, Fraction(rng.uniform(-2, 2)).limit_denominator(10 ** 6)))
        try:
            sol = solve_riemann(law, left, right)
        except VacuumFormation:
            continue
        solved += 1
        for w in sol.waves:
            if isinstance(w, Shock):
                r1, r2 = rh_residuals(g, w)
                assert r1 < 1e-10 and r2 < 1e-10
            elif isinstance(w, Rarefaction):
                assert rarefaction_curve_residual(g, w) < 1e-10
        profile = selfsim_dissipation(law, sol)
        for _, coeff in profile.entries:
            assert float(coeff) >= -1e-12
    assert solved >= 30


def test_isothermal_exact_shock_with_log_energy():
    # gamma = 1: the pressure potential is rho*log(rho), so the bracket is
    # an interval expression whose positivity must still certify
    law = PressureLaw(gamma=1)
    left = EulerState(1, (Rational(0), Rational(3, 2)))
    right = EulerState(4, (Rational(0), Rational(0)))
    sol = solve_riemann(law, left, right)
    assert sol.exact
    assert len(sol.waves) == 1 and isinstance(sol.waves[0], Shock)
    assert sign(sol.waves[0].speed + Rational(1, 2)) == 0
    profile = selfsim_dissipation(law, sol)
    (speed, coeff), = profile.entries
    assert sign(coeff) == 1
    # hand oracle: -sigma(E_L - E_R) + F2_L = (9/8 - 8 ln2)/2 + 51/16
    assert abs(float(coeff) - (15 / 4 - 4 * math.log(2))) < 1e-12


def test_an_undecided_jump_relation_falls_back_to_the_float_solver(monkeypatch):
    # gamma = 4/3, rho 1 -> 2: rho_r^gamma is an interval expression, and
    # the velocity drop is the square root of the jump, rounded down to 200
    # bits.  At a 128-bit cap the jump relation is neither certified nor
    # refuted: the exact path gives up and the float solver answers
    import wildfan.exactnum as exactnum

    monkeypatch.setattr(exactnum, "_PRECISION_CAP", 128)
    law = PressureLaw(Fraction(4, 3))
    rho_l, rho_r = Rational(1), Rational(2)
    jump_sq = (pressure(law, rho_r) - pressure(law, rho_l)) * (rho_r - rho_l) / (rho_l * rho_r)
    drop = Rational(adjoin_sqrt(jump_sq).enclosure(200).lo)
    with pytest.raises(Inconclusive):
        sign(drop * drop - jump_sq)
    left = EulerState(rho_l, (Rational(0), drop))
    right = EulerState(rho_r, (Rational(0), Rational(0)))
    sol = solve_riemann(law, left, right)
    assert not sol.exact and sol.waves


_SIZES = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8)


@settings(max_examples=60, deadline=None)
@given(gamma=st.sampled_from([1, Fraction(3, 2), 2, 3]), rho=_SIZES, ratio=_SIZES,
       u=st.fractions(min_value=-2, max_value=2, max_denominator=8),
       v_r=st.fractions(min_value=-2, max_value=2, max_denominator=8))
def test_exact_shock_satisfies_rankine_hugoniot_and_dissipates(gamma, rho, ratio, u, v_r):
    # the exact path decides only the jump relation and the Lax test; the
    # Rankine-Hugoniot residuals at the speed it returns must vanish
    # exactly, and the shock must dissipate
    assume(ratio != 1)
    if Fraction(gamma).denominator == 2:  # squares keep rho^(3/2) rational
        rho, ratio = rho * rho, ratio * ratio
    law = PressureLaw(gamma)
    rho_l, rho_r = Rational(rho), Rational(rho * ratio)
    jump_sq = ((pressure(law, rho_r) - pressure(law, rho_l)) * (rho_r - rho_l)
               / (rho_l * rho_r))
    v_l = Rational(v_r) + adjoin_sqrt(jump_sq)  # v drops across the shock
    left = EulerState(rho_l, (rho_l * u, rho_l * v_l))
    right = EulerState(rho_r, (rho_r * u, rho_r * v_r))
    sol = solve_riemann(law, left, right)
    assert sol.exact and [type(w) for w in sol.waves] == [Shock]
    s = sol.waves[0].speed
    (za, _), (zb, _) = lift_state(law, left), lift_state(law, right)
    residuals = (s * (rho_l - rho_r) - (za.m[1] - zb.m[1]),
                 s * (za.m[0] - zb.m[0]) - (za.u12 - zb.u12),
                 s * (za.m[1] - zb.m[1]) - ((-1) * za.u11 + za.q + zb.u11 - zb.q))
    assert [sign(r) for r in residuals] == [0, 0, 0]
    (speed, coeff), = selfsim_dissipation(law, sol).entries
    assert speed == s and sign(coeff) >= 0


def test_profile_adds_coincident_planes():
    # entries of one speed are one plane carrying the sum: the measure on it
    assert DissipationProfile([(1, 1), (1, 2)]) == DissipationProfile([(1, 3)])
    p = DissipationProfile([(2, 5), (0, 1)])
    assert float(p.entries[0][0]) == 0.0


def test_plane_bracket_over_floats_and_exact_numbers():
    # one formula: floats give -mu [E] + [F2] to the bit, tower numbers exactly
    mu, e_a, e_b, f_a, f_b = -1.118033988749895, 2.5, 9.0, 3.75, 0.0
    assert plane_bracket(mu, e_a, e_b, f_a, f_b) == -mu * (e_a - e_b) + (f_a - f_b)
    assert sign(plane_bracket(S5 / 2, Rational(1), Rational(3), S5, Rational(0))) == 1
    assert plane_bracket(S5 / 2, Rational(1), Rational(3), S5, Rational(0)) == 2 * S5
