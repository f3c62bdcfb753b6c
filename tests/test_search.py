"""Chain closure, the float kernel, search and exact certification."""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from wildfan.exactnum import QuadExt, Rational, adjoin_sqrt, sign
from wildfan.fan import (
    beats_selfsimilar,
    fan_dissipation_profile,
    fan_to_json,
    paper_example,
    verify_fan,
)
from wildfan.hull import matrix_M
from wildfan.model import (EulerState, PHPoint, PressureLaw, lift_state, pressure,
                             pressure_potential)
from wildfan.riemann import Shock, plane_bracket, selfsim_dissipation, solve_riemann
from wildfan.search import (
    _MAX_ITERS,
    Candidate,
    DegenerateClosure,
    SearchConfig,
    _certify,
    _kernel,
    _objective,
    _order,
    _Problem,
    _sample_start,
    _Stop,
    certify,
    chain_close,
    minimize,
    search_fan,
)

LAW2 = PressureLaw(gamma=2)
S5 = QuadExt.sqrt_of(5)
SIGMA_F = -(5 ** 0.5) / 2
# float boundary values (rho, m2, u11, q) of the paper's left/right states
MINUS_F = (1.0, 1.5 * 5 ** 0.5, -45 / 8, 53 / 8)
PLUS_F = (4.0, 0.0, 0.0, 16.0)


def paper_boundary():
    left = EulerState(1, (Rational(0), Rational(3, 2) * S5))
    right = EulerState(4, (Rational(0), Rational(0)))
    return left, right


def paper_x():
    s5, s1141 = 5 ** 0.5, 1141 ** 0.5
    return np.array([
        (-53750 * s5 + 77 * s1141 - 25102) / 107500,
        (77 - 125 * s5) / 250,
        (-26875 * s5 + 8316 * s1141 - 12551) / 53750,
        52 / 25,
        398 / 43, 13.0, 691 / 43,
        552 / 25, 277 / 100, 7 / 25,
    ])


def boundary_values(state):
    z, _ = lift_state(LAW2, state)
    return state.rho, z.m[1], z.u11, z.q


def test_chain_close_reproduces_paper_equalities():
    left, right = paper_boundary()
    fan = paper_example()
    qs = tuple(z.q for _, z in fan.regions)
    rhos, m2s, u11s, mu3, residual = chain_close(
        boundary_values(left), boundary_values(right), fan.mu,
        fan.regions[0][0], qs)
    assert sign(mu3 - fan.mu[3]) == 0
    assert sign(residual) == 0
    for got, (rho, z) in zip(zip(rhos, m2s, u11s), fan.regions):
        assert [sign(g - want) for g, want in zip(got, (rho, z.m[1], z.u11))] == [0] * 3


def test_chain_close_float_residuals_tiny():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mu = tuple(sorted(rng.uniform(-3, 3, 4)))
        rho1 = rng.uniform(0.5, 5)
        qs = tuple(rng.uniform(5, 20, 3))
        rhos, m2s, u11s, mu3, residual = chain_close(MINUS_F, PLUS_F, mu, rho1, qs)
        mu_full = (*mu[:3], mu3)
        rho_seq = [MINUS_F[0], *rhos, PLUS_F[0]]
        m_seq = [MINUS_F[1], *m2s, PLUS_F[1]]
        u_seq = [MINUS_F[2], *u11s, PLUS_F[2]]
        q_seq = [MINUS_F[3], *qs, PLUS_F[3]]
        scale = max(1.0, *(abs(v) for v in (*rho_seq, *m_seq, *u_seq)))
        assert abs(mu3 - mu[3]) < 1e-9 * scale
        assert abs(residual) < 1e-9 * scale * scale
        # all eight interface equalities, re-evaluated independently
        for i in range(4):
            r1 = mu_full[i] * (rho_seq[i] - rho_seq[i + 1]) - (m_seq[i] - m_seq[i + 1])
            r3 = mu_full[i] * (m_seq[i] - m_seq[i + 1]) - (
                -u_seq[i] + q_seq[i] + u_seq[i + 1] - q_seq[i + 1])
            assert abs(r1) < 1e-9 * scale
            assert abs(r3) < 1e-9 * scale * scale


@settings(max_examples=40, deadline=None)
@given(mu=st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=16),
                   min_size=4, max_size=4),
       rho1=st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=16),
       qs=st.lists(st.fractions(min_value=0, max_value=30, max_denominator=16),
                   min_size=3, max_size=3))
def test_exact_chain_close_solves_the_last_interface(mu, rho1, qs):
    # certify reads neither output: over exact numbers the 2x2 solve makes
    # the chained mu3 equal mu[3] and the residual zero, identically
    left, right = paper_boundary()
    try:
        _, _, _, mu3, residual = chain_close(
            boundary_values(left), boundary_values(right), tuple(map(Rational, mu)),
            Rational(rho1), tuple(map(Rational, qs)))
    except DegenerateClosure:
        assume(False)
    assert sign(mu3 - mu[3]) == 0 and sign(residual) == 0


def test_chain_close_degenerate():
    with pytest.raises(DegenerateClosure):
        chain_close(MINUS_F, PLUS_F, (-2.0, -1.0, -1.0, 0.0), 2.0,
                    (9.0, 10.0, 11.0))
    left, right = paper_boundary()
    fan = paper_example()
    with pytest.raises(DegenerateClosure):
        chain_close(boundary_values(left), boundary_values(right),
                    (fan.mu[0], fan.mu[1], fan.mu[1], fan.mu[3]),
                    fan.regions[0][0], tuple(z.q for _, z in fan.regions))


def _score(prob, z):
    """The search's score at z: ``_kernel``'s, 1e6 where z does not close."""
    point = _kernel(prob, z)
    return 1e6 if point is None else point[0]


def test_kernel_paper_variables_feasible():
    # the paper's speeds and rho1 as search variables: the closure gives the
    # paper's rho2 and rho3, and the filled caps, each the pad above its
    # bound, sit below the paper's, so the surplus is at least the paper's
    left, right = paper_boundary()
    x = paper_x()
    z = [math.log(v) for v in (SIGMA_F - x[0], x[1] - SIGMA_F, x[2] - x[1], x[3])]
    prob = _Problem(LAW2, left, right)
    score, surplus, filled = _kernel(prob, z)
    assert score < 0.0 and surplus > 0.03
    assert all(abs(f - want) < 1e-12 for f, want in zip(filled[:4], x[:4]))
    assert all(q < want for q, want in zip(filled[4:7], x[4:7]))
    rhos = chain_close(MINUS_F, PLUS_F, (filled[0], SIGMA_F, filled[1], filled[2]), filled[3],
                       filled[4:7])[0]
    assert abs(rhos[1] - 3.19) < 1e-9
    assert abs(rhos[2] - 4.005) < 1e-9


def _exact(v):
    return Rational(Fraction(v))


def _exact_problem(prob):
    """The floats of the problem the kernel reads, as rationals: sigma,
    the boundary values and the boundary energies and fluxes."""
    return SimpleNamespace(
        sigma=_exact(prob.sigma), minus=tuple(map(_exact, prob.minus)),
        plus=tuple(map(_exact, prob.plus)),
        e_m=_exact(prob.e_m), e_p=_exact(prob.e_p), f_m=_exact(prob.f_m), f_p=_exact(prob.f_p))


def _energies(ex, rhos, qs):
    """e = q + P - p of the five records, the boundary ones at the ends."""
    return [ex.e_m, *(q + pressure_potential(LAW2, r) - pressure(LAW2, r)
                      for r, q in zip(rhos, qs)), ex.e_p]


def _brackets(ex, mu, e, fluxes):
    """The four plane brackets at the speeds mu, of the five records'
    energies e and of the boundary fluxes and the three interior ones."""
    f = (ex.f_m, *fluxes, ex.f_p)
    return [plane_bracket(m, e[i], e[i + 1], f[i], f[i + 1]) for i, m in enumerate(mu)]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["paper", "weak"]), seed=st.integers(0, 2 ** 64 - 1))
def test_kernel_matches_the_exact_formulas(name, seed):
    # the score, the surplus and every entry of x, recomputed exactly: the
    # float speeds and rho1 the kernel takes from z read as rationals, the
    # closure at q = 0 over Rational, each cap the pad above its bound, the
    # energies e = q + P - p, and the fluxes that put the outer
    # plane_brackets at the pad; the point is a drawn start of the search,
    # moved at random
    prob = _problem(name)
    rng = random.Random(seed)
    z = [v + rng.uniform(-0.5, 0.5) for v in _sample_start(rng, prob)]
    point = _kernel(prob, z)
    assume(point is not None)
    score, surplus, x = point
    d0, d2, d3, rho1 = map(math.exp, z)
    mu0, mu2 = prob.sigma - d0, prob.sigma + d2
    assert [v.hex() for v in x[:4]] == [v.hex() for v in (mu0, mu2, mu2 + d3, rho1)]

    ex = _exact_problem(prob)
    mu0, mu2, mu3, rho1 = map(_exact, x[:4])
    sigma, pad, zero = ex.sigma, _exact(prob.pad), Rational(0)
    rhos, m2s, vs, mu3_chain, _ = chain_close(ex.minus, ex.plus, (mu0, sigma, mu2, mu3), rho1,
                                              (zero, zero, zero))
    assert sign(mu3_chain - mu3) == 0
    qs, c = [], None
    for rho, m2, v in zip(rhos, m2s, vs):
        p, k = pressure(LAW2, rho), m2 * m2 / rho
        a, b = p + k / 2, (p - v) / 2
        qs.append((a if sign(a - b) >= 0 else b) + pad)
        c_i = -(k + v + p)
        c = c_i if c is None or sign(c_i - c) < 0 else c
    e = _energies(ex, rhos, qs)
    f3 = pad + mu3 * (e[3] - e[4]) + ex.f_p
    f2 = pad + mu2 * (e[2] - e[3]) + f3
    f1 = ex.f_m - pad - mu0 * (e[0] - e[1])
    brackets = _brackets(ex, (mu0, sigma, mu2, mu3), e, (f1, f2, f3))
    assert [sign(brackets[i] - pad) for i in (0, 2, 3)] == [0, 0, 0]
    ref, gap = _exact(prob.ref_coeff), _exact(prob.gap)
    want_surplus = brackets[1] - ref
    least = want_surplus if sign(want_surplus - (c - gap)) <= 0 else c - gap
    got = (score, surplus, *x[4:])
    want = [-least / ref, want_surplus, *qs, f1, f2, f3]
    for label, g, w in zip(("score", "surplus", "q1", "q2", "q3", "F12", "F22", "F32"), got, want):
        assert abs(g - float(w)) <= 1e-9 * (1 + abs(float(w))), (label, g, float(w))


# ---------------------------------------------------------------------------
# the reduction to four variables, decided exactly
# ---------------------------------------------------------------------------

def _reduction_boundary(kind):
    """(left, right, sigma) over the tower of sqrt 5, the paper's boundary
    and matched speed -sqrt(5)/2, or over rationals, rho 1 -> 4 with left
    normal momentum 2 and matched speed -1."""
    if kind == "tower":
        return (*paper_boundary(), -Rational(1, 2) * S5)
    return EulerState(1, (Rational(0), Rational(2))), EulerState(4, (0, 0)), Rational(-1)


def _reduction_point(kind, gaps, rho1):
    """(minus, plus, mu, rho1) on that boundary: mu0, mu2, mu3 sit the gaps
    below sigma, above it and above mu2."""
    left, right, sigma = _reduction_boundary(kind)
    d0, d2, d3 = map(Rational, gaps)
    mu = (sigma - d0, sigma, sigma + d2, sigma + d2 + d3)
    return boundary_values(left), boundary_values(right), mu, Rational(rho1)


def _closed(point, qs):
    """chain_close at the point with caps qs: (rhos, ms, us), or None."""
    minus, plus, mu, rho1 = point
    try:
        return chain_close(minus, plus, mu, rho1, tuple(qs))[:3]
    except DegenerateClosure:
        return None


_KINDS = st.sampled_from(["rational", "tower"])
_GAPS = st.lists(st.fractions(min_value=Fraction(1, 64), max_value=4, max_denominator=64),
                 min_size=3, max_size=3)
_RHO1 = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=64)
_QS = st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=16),
               min_size=3, max_size=3)


@settings(max_examples=30, deadline=None)
@given(kind=_KINDS, gaps=_GAPS, rho1=_RHO1, qs=_QS, other=_QS)
def test_closure_does_not_depend_on_the_caps(kind, gaps, rho1, qs, other):
    # rho_i, m_i and u_i - q_i are the same for any caps q
    point = _reduction_point(kind, gaps, rho1)
    a, b = _closed(point, map(Rational, qs)), _closed(point, map(Rational, other))
    assume(a is not None)
    (rhos, ms, us), (rhos_b, ms_b, us_b) = a, b
    for i in range(3):
        assert sign(rhos[i] - rhos_b[i]) == 0 and sign(ms[i] - ms_b[i]) == 0
        assert sign((us[i] - qs[i]) - (us_b[i] - other[i])) == 0


def _cap_bound(rho, m, v):
    """(k + v + p, max(k + 2p, p - v)) of a region, gamma = 2."""
    p, k = rho * rho, m * m / rho
    a, b = k + 2 * p, p - v
    return k + v + p, (a if sign(a - b) >= 0 else b)


@settings(max_examples=40, deadline=None)
@given(kind=_KINDS, gaps=_GAPS, rho1=_RHO1,
       shifts=st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=8),
                       min_size=3, max_size=3))
@example(kind="tower", gaps=[Fraction(1, 8), Fraction(1, 4), Fraction(3)], rho1=Fraction(5, 4),
         shifts=[Fraction(1, 8)] * 3)
@example(kind="rational", gaps=[Fraction(1, 8), Fraction(1, 4), Fraction(3)],
         rho1=Fraction(5, 4), shifts=[Fraction(0)] * 3)
# region 1 with 0 < -(k + v + p) < p, so c_i, not a cruder bound, decides
@example(kind="rational", gaps=[Fraction(1, 16), Fraction(1, 16), Fraction(2)],
         rho1=Fraction(5, 4), shifts=[Fraction(1, 8)] * 3)
def test_definiteness_is_c_positive_and_the_cap_bound(kind, gaps, rho1, shifts):
    # -tr M > 0 and det M > 0 in region i exactly when k_i + v_i + p_i < 0
    # and 2 q_i > max(k_i + 2 p_i, p_i - v_i); each cap sits the shift
    # above half that bound, so both sides of the equivalence are reached
    point = _reduction_point(kind, gaps, rho1)
    at_zero = _closed(point, [Rational(0)] * 3)
    assume(at_zero is not None and all(sign(r) > 0 for r in at_zero[0]))
    bounds = [_cap_bound(*region) for region in zip(*at_zero)]
    qs = [bound / 2 + Rational(shift) for (_, bound), shift in zip(bounds, shifts)]
    zero = Rational(0)
    for rho, m, u, q, (kvp, bound) in zip(*_closed(point, qs), qs, bounds):
        M = matrix_M(LAW2, rho, PHPoint((zero, m), u, zero, q, (zero, zero)))
        definite = sign(-M.trace()) > 0 and sign(M.det()) > 0
        assert definite == (sign(kvp) < 0 and sign(2 * q - bound) > 0)


@settings(max_examples=30, deadline=None)
@given(kind=_KINDS, gaps=_GAPS, rho1=_RHO1, qs=_QS,
       step=st.fractions(min_value=Fraction(1, 16), max_value=4, max_denominator=16),
       region=st.integers(0, 2))
def test_budget_falls_in_each_cap(kind, gaps, rho1, qs, step, region):
    # the plane-dissipation budget f_m - f_p - sum_j mu_j (e_j - e_j+1),
    # with e = q + P - p in each region, changes by (mu_i-1 - mu_i) step < 0
    # when q_i grows by step
    point = _reduction_point(kind, gaps, rho1)
    mu = point[2]
    left, right, _ = _reduction_boundary(kind)
    (z_m, e_m), (z_p, e_p) = lift_state(LAW2, left), lift_state(LAW2, right)

    def budget(caps):
        closed = _closed(point, caps)
        assume(closed is not None and all(sign(r) > 0 for r in closed[0]))
        e = [e_m, *(q + pressure_potential(LAW2, r) - pressure(LAW2, r)
                    for r, q in zip(closed[0], caps)), e_p]
        total = z_m.F[1] - z_p.F[1]
        for j in range(4):
            total -= mu[j] * (e[j] - e[j + 1])
        return total
    caps = list(map(Rational, qs))
    moved = list(caps)
    moved[region] += Rational(step)
    change = budget(moved) - budget(caps)
    assert sign(change - (mu[region] - mu[region + 1]) * Rational(step)) == 0
    assert sign(change) == -1


def test_certify_paper_variables():
    left, right = paper_boundary()
    cand = Candidate(LAW2, left, right, SIGMA_F, paper_x())
    fan = certify(cand, SearchConfig(restarts=1))
    assert fan is not None
    # a hand-built candidate has no fan: certify certifies it and stores nothing
    assert cand.fan is None and cand.comparison is None
    assert verify_fan(fan).passed
    profile = fan_dissipation_profile(fan)
    assert sign(profile.entries[1][1] - Rational(27, 4) * S5) == 1


def test_certify_rejects_zero_margin_candidate():
    left, right = paper_boundary()
    x = paper_x()
    x[4] -= 2.5  # wreck q1: subsolution trace goes nonnegative
    cand = Candidate(LAW2, left, right, SIGMA_F, x)
    assert certify(cand, SearchConfig(restarts=1)) is None


def test_certify_rejects_a_closure_with_nonpositive_density():
    # the fan's own density check decides: FanSubsolution refuses rho1 = -1
    left, right = paper_boundary()
    x = paper_x()
    x[3] = -1.0
    cand = Candidate(LAW2, left, right, SIGMA_F, x)
    assert _certify(cand, _Problem(LAW2, left, right)) is None


def test_search_zero_restarts():
    left, right = paper_boundary()
    assert search_fan(LAW2, left, right, SearchConfig(restarts=0)) is None


def test_search_finds_certifiable_fan():
    left, right = paper_boundary()
    cfg = SearchConfig(restarts=16, rng_seed=0)
    cand = search_fan(LAW2, left, right, cfg)
    assert cand is not None
    assert cand.fan is not None
    # certify returns the fan search_fan certified, not a second certification
    fan = certify(cand, cfg)
    assert fan is cand.fan
    # a hand-built candidate of the same fields certifies to the same fan
    fields = (cand.law, cand.left, cand.right, cand.sigma, cand.x, cand.seed)
    assert fan_to_json(certify(Candidate(*fields), cfg)) == fan_to_json(cand.fan)
    # the comparison certify ran is kept for the CLI, not recomputed there
    assert cand.comparison.passed
    assert cand.comparison.to_dict() == beats_selfsimilar(fan).to_dict()
    profile = fan_dissipation_profile(fan)
    surplus = profile.entries[1][1] - Rational(27, 4) * S5
    assert sign(surplus) == 1


def test_search_two_shock_reference_returns_without_crash():
    # two reference planes cannot both be covered by a single pinned speed;
    # the search must come back empty-handed or uncertified, not explode
    left = EulerState(1, (0, 1))
    right = EulerState(1, (0, -1))
    cand = search_fan(LAW2, left, right, SearchConfig(restarts=2, rng_seed=0))
    if cand is not None:
        assert certify(cand, SearchConfig(restarts=2)) is None


def test_problem_matches_the_most_negative_shock_plane(monkeypatch):
    import wildfan.search as search_module

    def unit(v):
        """The state of unit density and normal velocity v."""
        return EulerState(1, (Rational(0), Rational(v)))

    # the paper shock: one plane, at the exact speed -sqrt(5)/2
    prob = _Problem(LAW2, *paper_boundary())
    assert sign(prob.speed + Rational(1, 2) * S5) == 0
    assert (prob.sigma, prob.ref_coeff) == tuple(map(float, prob.ref.entries[0]))
    # two shocks, as the CLI's search test builds them: a float-bisected
    # reference with no exact speed to pin, so its candidate stays uncertified
    left, right = unit(1), unit(-1)
    prob = _Problem(LAW2, left, right)
    assert prob.speed is None and len(prob.ref.entries) == 2
    assert prob.sigma == min(float(s) for s, _ in prob.ref.entries) < 0.0
    cand = search_fan(LAW2, left, right, SearchConfig(restarts=1, rng_seed=3))
    assert cand is not None and cand.fan is None
    # a candidate without a fan is certified again, and still fails
    assert certify(cand, SearchConfig(restarts=1)) is None
    # two rarefactions: no plane to beat, and no float evaluation
    left, right = unit(Fraction(-1, 2)), unit(Fraction(1, 2))
    prob = _Problem(LAW2, left, right)
    assert prob.ref.entries == () and (prob.speed, prob.sigma, prob.ref_coeff) == (None,) * 3
    calls = []
    monkeypatch.setattr(search_module, "_kernel", lambda *args: calls.append(args), raising=True)
    assert search_fan(LAW2, left, right, SearchConfig(restarts=4)) is None
    assert calls == []


def test_search_deterministic():
    left, right = paper_boundary()
    cfg = SearchConfig(restarts=4, rng_seed=3)
    a = search_fan(LAW2, left, right, cfg)
    b = search_fan(LAW2, left, right, cfg)
    assert a is not None and b is not None
    assert (a.seed, [v.hex() for v in a.x]) == (b.seed, [v.hex() for v in b.x])


# Restart seed and free variables (float.hex) of the paper-boundary search,
# recorded when the search went over to the four variables that decide
# dominance: the same seeds must keep producing the same Nelder-Mead
# trajectories bit for bit, on any CPU and without numpy.
GOLDEN_SEARCH = {
    (4, 3): (3, [
        "-0x1.5f41adbe6c0bap+0", "-0x1.4bd69f897f154p-1", "0x1.7a3c7e20b50c0p+1",
        "0x1.02eef8db4b0efp+1", "0x1.244aec8152b95p+3", "0x1.b0bf3ff6497ddp+3",
        "0x1.01b847ed38aa2p+4", "0x1.621d07de25c14p+4", "0x1.fe26687d26c57p+0",
        "0x1.4568b012f21f4p-2"]),
    (16, 0): (0, [
        "-0x1.a21f15b9095d8p+0", "-0x1.2e80d0ff25586p-1", "0x1.7ec51d84ad49ep+1",
        "0x1.6a681f08b186dp+0", "0x1.eb9f1bc27aabbp+2", "0x1.c234cfe6d539fp+3",
        "0x1.020f9a3bfd1fap+4", "0x1.7d96316dcc664p+4", "0x1.9a3e4b9e0f634p+0",
        "0x1.8a96c311607e7p-2"]),
}


@pytest.mark.parametrize("restarts, rng_seed", sorted(GOLDEN_SEARCH))
def test_search_golden_bits(restarts, rng_seed):
    left, right = paper_boundary()
    cand = search_fan(LAW2, left, right,
                      SearchConfig(restarts=restarts, rng_seed=rng_seed))
    seed, x_hex = GOLDEN_SEARCH[restarts, rng_seed]
    assert cand is not None and cand.seed == seed
    assert [float(v).hex() for v in cand.x] == x_hex


_NO_NUMPY_SEARCH = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from wildfan.exactnum import QuadExt, Rational
from wildfan.model import EulerState, PressureLaw
from wildfan.search import SearchConfig, search_fan
left = EulerState(1, (Rational(0), Rational(3, 2) * QuadExt.sqrt_of(5)))
right = EulerState(4, (Rational(0), Rational(0)))
cand = search_fan(PressureLaw(gamma=2), left, right, SearchConfig(restarts=16, rng_seed=0))
print(json.dumps([cand.seed, [v.hex() for v in cand.x], cand.fan is not None]))
"""


def test_search_golden_bits_without_numpy():
    # the search runs on the standard library alone and gives the same bits
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_SEARCH], env=env,
                          capture_output=True, text=True, check=True)
    seed, x_hex = GOLDEN_SEARCH[16, 0]
    assert json.loads(proc.stdout) == [seed, x_hex, True]


@settings(max_examples=300)
@given(st.lists(st.one_of(st.sampled_from([0.0, 1e6, math.nan]),
                          st.floats(-1.0, 1.0, allow_nan=False)), max_size=12))
def test_order_is_a_stable_argsort(fsim):
    sim = [[float(i)] for i in range(len(fsim))]
    got, fgot, distinct = _order(sim, fsim)
    ind = np.argsort(np.array(fsim, dtype=float), kind="stable").tolist()
    assert [int(v[0]) for v in got] == ind
    assert [f.hex() for f in fgot] == [fsim[i].hex() for i in ind]
    assert distinct == all(fsim[a] < fsim[b] for a, b in zip(ind, ind[1:]))


def test_search_solves_the_riemann_problem_once(monkeypatch):
    # certify's exact shock speed, boundary values, reference solution and
    # its profile come from search_fan; the comparison does not solve or
    # profile again
    import wildfan.fan as fan_module
    import wildfan.search as search_module

    calls = {}
    for fn in (solve_riemann, selfsim_dissipation):
        def counted(*args, _fn=fn):
            calls[_fn.__name__] += 1
            return _fn(*args)
        calls[fn.__name__] = 0
        for module in (search_module, fan_module):
            monkeypatch.setattr(module, fn.__name__, counted, raising=True)
    left, right = paper_boundary()
    cand = search_fan(LAW2, left, right, SearchConfig(restarts=4, rng_seed=3))
    assert cand is not None and cand.fan is not None
    assert calls == {"solve_riemann": 1, "selfsim_dissipation": 1}


def test_search_certifies_the_rho_2_shock():
    # rho 1 -> 2, v_r = 0, a shock weaker than the paper's: the first point
    # of restart seed 0 that dominates in floats certifies exactly, its
    # matched plane dissipating strictly more than the reference shock
    left = EulerState(1, (Rational(0), adjoin_sqrt(Rational(3, 2))))
    right = EulerState(2, (Rational(0), Rational(0)))
    cand = search_fan(LAW2, left, right, SearchConfig(restarts=3, rng_seed=0))
    assert cand is not None and cand.seed == 0 and cand.fan is not None
    assert cand.comparison.passed
    (ref_speed, ref_coeff), = selfsim_dissipation(LAW2, solve_riemann(LAW2, left, right)).entries
    speed, coeff = fan_dissipation_profile(cand.fan).entries[1]
    assert sign(speed - ref_speed) == 0
    assert sign(coeff - ref_coeff) == 1


def _shock(rho_l, ratio):
    """Exact single-shock data, gamma = 2: rho_r = ratio * rho_l, v_r = 0 and
    (v_r - v_l)^2 = (p_r - p_l)(rho_r - rho_l)/(rho_l rho_r)."""
    v_l = adjoin_sqrt(Rational(rho_l * (ratio ** 2 - 1) * (ratio - 1) / ratio))
    return (EulerState(Rational(rho_l), (Rational(0), Rational(rho_l) * v_l)),
            EulerState(Rational(rho_l * ratio), (Rational(0), Rational(0))))


# rho_l -> 4 rho_l, one rng seed each at which 8 restarts certify, the
# first restart (seed rng_seed) already; chosen so under the ten-variable
# search, and each still certifies at its first restart
_STRONG_SEEDS = {Fraction(1): 13, Fraction(5, 4): 7, Fraction(4, 3): 13, Fraction(3, 2): 15,
                 Fraction(5, 3): 13, Fraction(7, 4): 13, Fraction(2): 4}


@pytest.mark.parametrize("rho_l", sorted(_STRONG_SEEDS), ids=str)
def test_search_certifies_strong_shocks(rho_l):
    # the early end of each restart loses no restart that certifies, the
    # first one included
    seed = _STRONG_SEEDS[rho_l]
    cand = search_fan(LAW2, *_shock(rho_l, Fraction(4)),
                      SearchConfig(restarts=8, rng_seed=seed))
    assert cand is not None and cand.fan is not None and cand.comparison.passed
    assert cand.seed == seed


def test_a_restart_that_reaches_the_cap_gives_way():
    # rho 1 -> 6: restarts 455500 and 455501 run their 150 iterations
    # without a dominating point, and restart 455502 certifies
    shock = _shock(Fraction(1), Fraction(6))
    prob = _Problem(LAW2, *shock)
    for seed in (455500, 455501):
        found = []
        run = minimize(_objective(prob, found), _sample_start(random.Random(seed), prob),
                       _MAX_ITERS)
        assert found == [] and run.nit == _MAX_ITERS
    cand = search_fan(LAW2, *shock, SearchConfig(restarts=8, rng_seed=455500))
    assert cand is not None and cand.seed == 455502
    assert cand.fan is not None and cand.comparison.passed


def _gamma_shock(law, rho_r):
    """Exact single-shock data rho 1 -> rho_r under ``law``, v_r = 0 and
    v_l^2 = (p_r - 1)(rho_r - 1)/rho_r; rho_r is a square where gamma's
    denominator is 2, so that p_r is rational."""
    rho_r = Rational(rho_r)
    p_r = pressure(law, rho_r)
    assert p_r.is_rational()
    left = EulerState(1, (Rational(0), adjoin_sqrt((p_r - 1) * (rho_r - 1) / rho_r)))
    right = EulerState(rho_r, (Rational(0), Rational(0)))
    sol = solve_riemann(law, left, right)
    assert sol.exact and [type(w) for w in sol.waves] == [Shock]
    return left, right


@pytest.mark.parametrize("gamma, rho_r", [
    (1, Fraction(5, 4)), (1, 4),
    (Fraction(3, 2), Fraction(9, 4)), (Fraction(3, 2), 4), (Fraction(5, 2), Fraction(9, 4)),
], ids=lambda v: str(v))
def test_search_certifies_off_gamma_2(gamma, rho_r):
    # the ansatz dominates below gamma = 3: a weak and a strong shock at
    # gamma = 1, where P = rho log rho, and square-density data at 3/2 and
    # 5/2, where rho^gamma of a tower density is an interval value
    law = PressureLaw(gamma)
    cand = search_fan(law, *_gamma_shock(law, rho_r), SearchConfig(restarts=8, rng_seed=0))
    assert cand is not None and cand.fan is not None and cand.comparison.passed


def test_search_misses_at_gamma_3():
    # at gamma = 3 the float dominance ceiling of the four-variable reduction
    # is below 1e-13 at every ratio tried: 64 restarts find no candidate
    law = PressureLaw(3)
    cand = search_fan(law, *_gamma_shock(law, 2), SearchConfig(restarts=64, rng_seed=0))
    assert cand is None, (
        f"finding: a certified fan at gamma = 3 on rho 1 -> 2 (restart {cand.seed}), where "
        f"the float ceiling is below 1e-13" if cand.fan is not None else
        f"a float candidate at gamma = 3 on rho 1 -> 2 (restart {cand.seed}) that does not "
        f"certify")


# ---------------------------------------------------------------------------
# minimize against scipy's adaptive Nelder-Mead
# ---------------------------------------------------------------------------

def _weak_boundary():
    return _shock(Fraction(1), Fraction(5, 4))


# the weak shock of the search budgets, and rho 1 -> 6, whose restarts
# 455500 and 455501 reach the iteration cap
_BOUNDARIES = {"paper": paper_boundary, "weak": _weak_boundary,
               "wide": partial(_shock, Fraction(1), Fraction(6))}


@lru_cache(maxsize=None)
def _problem(name):
    prob = _Problem(LAW2, *_BOUNDARIES[name]())
    assert prob.speed is not None
    return prob


def _plateau(v):
    """Piecewise constant with ties: 1e6 on one side, steps and 0.0 on the
    other."""
    if v[0] > 0.5:
        return 1e6
    return 0.0 if v[-1] < 0.0 else float(math.floor(4.0 * v[-1]))


def _nan_bowl(v):
    """A bowl that turns NaN past a wall."""
    if v[0] > 1.0:
        return math.nan
    total = 0.0
    for i, c in enumerate(v):
        total += (i + 1) * (c - 0.25) ** 2
    return total


def _assert_same_as_scipy(fun, x0, maxiter):
    # scipy orders its simplex with numpy's argsort; a stable one breaks
    # ties as minimize does, on any CPU
    ours = minimize(fun, x0, maxiter)
    with mock.patch.object(np, "argsort", partial(np.argsort, kind="stable")):
        ref = scipy.optimize.minimize(
            fun, np.array(x0, dtype=float), method="Nelder-Mead",
            options={"maxiter": maxiter, "xatol": 1e-12, "fatol": 1e-15, "adaptive": True})
    assert [float(v).hex() for v in ours.x] == [float(v).hex() for v in ref.x]
    assert float(ours.fun).hex() == float(ref.fun).hex()
    assert (ours.nfev, ours.nit) == (ref.nfev, ref.nit)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_BOUNDARIES)), seed=st.integers(0, 63),
       maxiter=st.integers(1, 600))
@example(name="wide", seed=455500, maxiter=600)
def test_minimize_matches_scipy_on_the_phase_objectives(name, seed, maxiter):
    # the search's score from its own draw, run on past the first
    # dominating point
    prob = _problem(name)
    _assert_same_as_scipy(partial(_score, prob),
                          _sample_start(random.Random(seed), prob), maxiter)


@settings(max_examples=40, deadline=None)
@given(fun=st.sampled_from([_plateau, _nan_bowl]),
       x0=st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), min_size=1, max_size=10),
       maxiter=st.integers(1, 400))
@example(fun=_nan_bowl, x0=[0.99, 0.0], maxiter=1)  # NaN left in the simplex
def test_minimize_matches_scipy_on_ties_and_nan(fun, x0, maxiter):
    _assert_same_as_scipy(fun, x0, maxiter)


def _signed_bowl(v):
    """A bowl that reads the sign of a zero.  It squares by a product: a
    Python float power overflows with an exception, numpy's to inf."""
    total = 0.0
    for i, c in enumerate(v):
        d = c - 0.25
        total += (i + 1) * d * d + math.copysign(1e-3, c)
    return total


def _signed_zero_pit(v):
    """0.0 where every coordinate is -0.0, and rising toward any other
    zero.  In one variable the contractions toward -0.0 fail, and the
    shrink (by 1 - 1/n = 0) puts the other vertex at -0.0 + 0.0 = +0.0, so
    the next reflection reads the sign of a centroid of -0.0 alone."""
    total = 0.0
    for c in v:
        if not (c == 0.0 and math.copysign(1.0, c) < 0):
            total += 1.0 / (abs(c) + 1e-300)
    return total


_EDGES = (0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
          1e308, -1e308, 1.7976931348623157e308)


@settings(max_examples=60, deadline=None)
@given(fun=st.sampled_from([_signed_bowl, _signed_zero_pit]),
       x0=st.lists(st.one_of(st.sampled_from(_EDGES), st.floats(-2.0, 2.0)),
                   min_size=1, max_size=10),
       maxiter=st.integers(1, 400))
@example(fun=_signed_zero_pit, x0=[-0.0], maxiter=3)  # a centroid of -0.0 is +0.0
@example(fun=_signed_bowl, x0=[-0.0, 0.0, -0.0], maxiter=400)
@example(fun=_signed_bowl, x0=[5e-324, -5e-324, 1e-310], maxiter=400)  # subnormals
@example(fun=_signed_bowl, x0=[1e308, 1e308, -1e308], maxiter=50)  # column sums overflow
@example(fun=_signed_bowl, x0=[-1.5, 1.7976931348623157e308, 1e308], maxiter=50)
@example(fun=_signed_bowl, x0=[math.inf, -math.inf, 0.5], maxiter=20)  # inf - inf is NaN
@example(fun=_signed_zero_pit, x0=[0.5, -math.inf], maxiter=20)
def test_minimize_matches_scipy_at_the_float_edges(fun, x0, maxiter):
    # the centroid folds each column from 0.0, as numpy's add.reduce does:
    # a column of -0.0 sums to +0.0, and overflow, inf and NaN propagate
    # through the same additions in the same order
    _assert_same_as_scipy(fun, x0, maxiter)


# ---------------------------------------------------------------------------
# the objective's first dominating point
# ---------------------------------------------------------------------------

def _recorded(fun, points):
    """fun, appending each point it is asked to score to ``points``."""
    def score(v):
        points.append([x.hex() for x in v])
        return fun(v)
    return score


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_BOUNDARIES)), seed=st.integers(0, 63))
@example(name="paper", seed=0)  # the restart that certifies the pinned paper search
@example(name="wide", seed=455500)  # no dominating point within the cap
def test_objective_stops_at_the_full_runs_first_dominating_point(name, seed):
    prob = _problem(name)
    z = _sample_start(random.Random(seed), prob)
    full_points, kernels, points, found = [], [], [], []

    def full_score(v):
        kernels.append(_kernel(prob, v))
        return _score(prob, v)
    full = minimize(_recorded(full_score, full_points), z, _MAX_ITERS)
    ours = minimize(_recorded(_objective(prob, found), points), z, _MAX_ITERS)
    # the stopping objective scores as the full run does, so it walks the
    # same points, and nfev counts each of them, the last one included
    assert points == full_points[:len(points)] and ours.nfev == len(points)
    first = next((k for k, point in enumerate(kernels, 1)
                  if point is not None and point[0] < 0.0), None)
    if first is None:
        assert ours == full and found == []
    else:
        # the first point with a negative score, not the best point so far
        point = kernels[first - 1]
        assert ours.nfev == first and ours.fun == point[0]
        assert [v.hex() for v in ours.x] == full_points[first - 1]
        assert found == [point]


def _mock_objective(monkeypatch):
    """The search's objective on z = [score, surplus], or [None] where the
    point does not close, and the list it fills."""
    import wildfan.search as search_module

    monkeypatch.setattr(search_module, "_kernel",
                        lambda prob, z: None if z[0] is None else (z[0], z[1], (0.5,) * 10),
                        raising=True)
    found = []
    return _objective(SimpleNamespace(), found), found


def test_objective_stops_at_its_first_dominating_point(monkeypatch):
    # the objective returns the kernel's score, 1e6 where the point does
    # not close, and its first point with a negative score ends the run
    score, found = _mock_objective(monkeypatch)
    runs_on = (
        ([None], 1e6),
        ([5e-4, -1e-3], 5e-4),  # a negative surplus
        ([0.0, 0.5], 0.0),  # the least c at the gap, not above it
        ([-0.0, 0.5], -0.0),
    )
    for z, f in runs_on:
        assert score(z).hex() == f.hex()
    first = [-5e-5, 1e-4]
    with pytest.raises(_Stop) as stop:
        score(first)
    assert stop.value.args == (first, -5e-5, len(runs_on) + 1)
    assert found == [(-5e-5, 1e-4, (0.5,) * 10)]


def test_nan_score_never_stops_a_run(monkeypatch):
    # a NaN score is not negative: the run goes on past the point, as it
    # does at a NaN z, whose closure and score are NaN
    found = []
    assert math.isnan(_objective(_problem("paper"), found)([math.nan] * 4)) and found == []
    score, found = _mock_objective(monkeypatch)
    assert math.isnan(score([math.nan, 1.0]))
    assert math.isnan(score([math.nan, math.nan]))
    assert found == []


def _visited(name, seed):
    """The ``_kernel`` results at the points a full restart of seed
    ``seed`` visits on boundary ``name``, run on past its first negative
    score."""
    prob, points = _problem(name), []

    def score(z):
        points.append(_kernel(prob, z))
        return 1e6 if points[-1] is None else points[-1][0]
    minimize(score, _sample_start(random.Random(seed), prob), _MAX_ITERS)
    return [p for p in points if p is not None]


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_BOUNDARIES)), seed=st.integers(0, 63), skip=st.integers(0, 40))
@example(name="paper", seed=0, skip=0)
@example(name="weak", seed=0, skip=0)
@example(name="wide", seed=455502, skip=0)
def test_negative_score_points_meet_the_conditions_the_screen_checked(name, seed, skip):
    # at each point of a seeded restart with a negative score (at most 12,
    # from the skip-th on), the fan closed exactly at x, its floats read as
    # rationals, meets the 16 conditions a float screen used to check before
    # the score alone stopped a restart: speed order, positive densities,
    # -tr M and det M of each region positive, and the energy inequality at
    # each plane (>= 0, as verify_fan's rh_energy asks)
    prob, ex = _problem(name), _exact_problem(_problem(name))
    negative = [p for p in _visited(name, seed) if p[0] < 0.0][skip:skip + 12]
    assume(negative)
    zero = Rational(0)
    for _, _, x in negative:
        mu0, mu2, mu3, rho1, q1, q2, q3, f1, f2, f3 = map(_exact, x)
        sigma, qs = ex.sigma, (q1, q2, q3)
        rhos, m2s, u11s, _, _ = chain_close(ex.minus, ex.plus, (mu0, sigma, mu2, mu3), rho1, qs)
        strict = [sigma - mu0, mu2 - sigma, mu3 - mu2, *rhos]
        for rho, m2, u11, q, f in zip(rhos, m2s, u11s, qs, (f1, f2, f3)):
            M = matrix_M(LAW2, rho, PHPoint((zero, m2), u11, zero, q, (zero, f)))
            strict += [-M.trace(), M.det()]
        brackets = _brackets(ex, (mu0, sigma, mu2, mu3), _energies(ex, rhos, qs), (f1, f2, f3))
        assert [sign(v) for v in strict] == [1] * 12, x
        assert all(sign(b) >= 0 for b in brackets), x
