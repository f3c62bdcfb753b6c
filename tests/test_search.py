"""Chain closure, the float kernel, search and exact certification."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

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
from wildfan.model import EulerState, PressureLaw, lift_state
from wildfan.riemann import selfsim_dissipation, solve_riemann
from wildfan.search import (
    _FLOOR,
    Candidate,
    DegenerateClosure,
    SearchConfig,
    _barrier_score,
    _Context,
    _infeasibility,
    _kernel,
    _retreat_score,
    _sample_start,
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


def test_kernel_paper_variables_feasible():
    left, right = paper_boundary()
    x = paper_x()
    # bracket coordinates: the paper's outer-plane coefficients b0, b2, b3
    coeffs = [float(c) for _, c in fan_dissipation_profile(paper_example()).entries]
    y = [*x[:7], coeffs[0], coeffs[2], coeffs[3]]
    ref = 27 / 4 * 5 ** 0.5
    surplus, margins, fluxes, residual = _kernel(
        _Context(LAW2, left, right), SIGMA_F, ref, y)
    assert min(margins) > 0
    assert residual < 1e-10
    assert surplus > 0.03
    assert all(abs(f - want) < 1e-9 for f, want in zip(fluxes, x[7:]))
    rhos = chain_close(MINUS_F, PLUS_F, (y[0], SIGMA_F, y[1], y[2]), y[3], y[4:7])[0]
    assert abs(rhos[1] - 3.19) < 1e-9
    assert abs(rhos[2] - 4.005) < 1e-9


def test_certify_paper_variables():
    left, right = paper_boundary()
    cand = Candidate(LAW2, left, right, SIGMA_F, paper_x())
    fan = certify(cand, SearchConfig(restarts=1))
    assert fan is not None
    assert cand.fan is None and cand.comparison is None  # certify returns, never stores
    assert verify_fan(fan).passed
    profile = fan_dissipation_profile(fan)
    assert sign(profile.entries[1][1] - Rational(27, 4) * S5) == 1


def test_certify_rejects_zero_margin_candidate():
    left, right = paper_boundary()
    x = paper_x()
    x[4] -= 2.5  # wreck q1: subsolution trace goes nonnegative
    cand = Candidate(LAW2, left, right, SIGMA_F, x)
    assert certify(cand, SearchConfig(restarts=1)) is None


def test_search_zero_restarts():
    left, right = paper_boundary()
    assert search_fan(LAW2, left, right, SearchConfig(restarts=0)) is None


def test_search_finds_certifiable_fan():
    left, right = paper_boundary()
    cfg = SearchConfig(restarts=16, rng_seed=0)
    cand = search_fan(LAW2, left, right, cfg)
    assert cand is not None
    assert cand.fan is not None
    fan = certify(cand, cfg)
    assert fan is not None
    assert fan_to_json(fan) == fan_to_json(cand.fan)
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


def test_search_deterministic():
    left, right = paper_boundary()
    cfg = SearchConfig(restarts=4, rng_seed=3)
    a = search_fan(LAW2, left, right, cfg)
    b = search_fan(LAW2, left, right, cfg)
    if a is None:
        assert b is None
    else:
        assert np.allclose(a.x, b.x)


# Restart seed and free variables (float.hex) of the paper-boundary search,
# recorded before the float closure was merged into chain_close: the same
# seeds must keep producing the same Nelder-Mead trajectories bit for bit.
GOLDEN_SEARCH = {
    (4, 3): (3, [
        "-0x1.54d7fe4fd28ccp+0", "-0x1.b7e3ee9f19d8cp-1", "0x1.d1ac5c94cbc24p+1",
        "0x1.0426272bfa70dp+1", "0x1.2360080a15177p+3", "0x1.8c2eefe2d3f82p+3",
        "0x1.0111358b60e39p+4", "0x1.6458c8f693862p+4", "0x1.b4de0eb958da8p+1",
        "0x1.f516316e363c1p-3"]),
    (16, 0): (2, [
        "-0x1.51681045d90a5p+0", "-0x1.bc2a0c3e5df12p-1", "0x1.d3bde2b0d6c4cp+1",
        "0x1.02a047aa32ab0p+1", "0x1.21af7290bfcf1p+3", "0x1.90bd26c806aa4p+3",
        "0x1.00fca009b2d0dp+4", "0x1.65fe25b8a2a97p+4", "0x1.a61ae9b476846p+1",
        "0x1.d0c245a9e3dcfp-3"]),
}


@pytest.mark.parametrize("restarts, rng_seed", sorted(GOLDEN_SEARCH))
def test_search_golden_bits(restarts, rng_seed):
    left, right = paper_boundary()
    cand = search_fan(LAW2, left, right,
                      SearchConfig(restarts=restarts, rng_seed=rng_seed))
    seed, x_hex = GOLDEN_SEARCH[restarts, rng_seed]
    assert cand is not None and cand.seed == seed
    assert [float(v).hex() for v in cand.x] == x_hex


def test_search_solves_the_riemann_problem_once(monkeypatch):
    # certify's exact shock speed, boundary values and reference solution
    # come from search_fan; the comparison does not solve again
    import wildfan.fan as fan_module
    import wildfan.search as search_module

    calls = []

    def counted(*args):
        calls.append(args)
        return solve_riemann(*args)
    for module in (search_module, fan_module):
        monkeypatch.setattr(module, "solve_riemann", counted, raising=True)
    left, right = paper_boundary()
    cand = search_fan(LAW2, left, right, SearchConfig(restarts=4, rng_seed=3))
    assert cand is not None and cand.fan is not None
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# minimize against scipy's adaptive Nelder-Mead
# ---------------------------------------------------------------------------

def _weak_boundary():
    # exact single shock rho 1 -> 5/4, v_r = 0: m_l^2 = (rho_r^2 - 1)(rho_r - 1)/rho_r
    left = EulerState(1, (Rational(0), adjoin_sqrt(Rational(9, 80))))
    right = EulerState(Rational(5, 4), (Rational(0), Rational(0)))
    return left, right


@lru_cache(maxsize=None)
def _problem(name):
    left, right = paper_boundary() if name == "paper" else _weak_boundary()
    sol = solve_riemann(LAW2, left, right)
    assert sol.exact
    sigma, ref_coeff = min((float(s), float(c))
                           for s, c in selfsim_dissipation(LAW2, sol).entries)
    return _Context(LAW2, left, right), sigma, ref_coeff


@lru_cache(maxsize=None)
def _feasible_start(name, seed):
    """A start after a full feasibility phase, where the barrier and
    retreat phases do their real work."""
    ctx, sigma, ref_coeff = _problem(name)
    y = _sample_start(np.random.default_rng(seed), ctx, sigma, _FLOOR)
    return tuple(minimize(lambda v: _infeasibility(ctx, sigma, ref_coeff, _FLOOR, v),
                          y, 4000).x)


def _phase_objective(name, phase, start):
    ctx, sigma, ref_coeff = _problem(name)
    if phase == "feasibility":
        return lambda v: _infeasibility(ctx, sigma, ref_coeff, _FLOOR, v)
    if phase == "barrier":
        return lambda v: _barrier_score(ctx, sigma, ref_coeff, _FLOOR, 1e-2, v)
    point = _kernel(ctx, sigma, ref_coeff, start)
    target = 0.5 * point[0] if point is not None and point[0] > 0.0 else 0.0
    return lambda v: _retreat_score(ctx, sigma, ref_coeff, _FLOOR, target, v)


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
    ours = minimize(fun, x0, maxiter)
    ref = scipy.optimize.minimize(
        fun, np.array(x0, dtype=float), method="Nelder-Mead",
        options={"maxiter": maxiter, "xatol": 1e-12, "fatol": 1e-15, "adaptive": True})
    assert [float(v).hex() for v in ours.x] == [float(v).hex() for v in ref.x]
    assert float(ours.fun).hex() == float(ref.fun).hex()
    assert (ours.nfev, ours.nit) == (ref.nfev, ref.nit)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["paper", "weak"]),
       phase=st.sampled_from(["feasibility", "barrier", "retreat"]),
       seed=st.integers(0, 3), warm=st.booleans(), maxiter=st.integers(1, 600))
def test_minimize_matches_scipy_on_the_phase_objectives(name, phase, seed, warm, maxiter):
    ctx, sigma, _ = _problem(name)
    if warm:
        start = list(_feasible_start(name, seed))
    else:
        start = list(_sample_start(np.random.default_rng(seed), ctx, sigma, _FLOOR))
    _assert_same_as_scipy(_phase_objective(name, phase, start), start, maxiter)


@settings(max_examples=40, deadline=None)
@given(fun=st.sampled_from([_plateau, _nan_bowl]),
       x0=st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), min_size=1, max_size=10),
       maxiter=st.integers(1, 400))
@example(fun=_nan_bowl, x0=[0.99, 0.0], maxiter=1)  # NaN left in the simplex
def test_minimize_matches_scipy_on_ties_and_nan(fun, x0, maxiter):
    _assert_same_as_scipy(fun, x0, maxiter)
