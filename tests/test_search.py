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
from wildfan.riemann import plane_bracket, selfsim_dissipation, solve_riemann
from wildfan.search import (
    _FLOOR,
    _MARGINS,
    _MAX_ITERS,
    Candidate,
    DegenerateClosure,
    SearchConfig,
    _barrier_score,
    _feasibility,
    _infeasibility,
    _kernel,
    _order,
    _PCG64,
    _Problem,
    _barrier,
    _certify,
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


def test_kernel_paper_variables_feasible():
    left, right = paper_boundary()
    x = paper_x()
    # bracket coordinates: the paper's outer-plane coefficients b0, b2, b3
    coeffs = [float(c) for _, c in fan_dissipation_profile(paper_example()).entries]
    y = [*x[:7], coeffs[0], coeffs[2], coeffs[3]]
    prob = _Problem(LAW2, left, right)
    surplus, margins, fluxes, residual = _kernel(prob, y)
    assert min(margins) > 0
    assert residual < 1e-10
    assert surplus > 0.03
    assert all(abs(f - want) < 1e-9 for f, want in zip(fluxes, x[7:]))
    rhos = chain_close(MINUS_F, PLUS_F, (y[0], SIGMA_F, y[1], y[2]), y[3], y[4:7])[0]
    assert abs(rhos[1] - 3.19) < 1e-9
    assert abs(rhos[2] - 4.005) < 1e-9


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["paper", "weak"]), seed=st.integers(0, 2 ** 64 - 1))
@example(name="paper", seed=8977866439302381487)
def test_kernel_matches_the_exact_formulas(name, seed):
    # every quantity of the float kernel, recomputed exactly from its float
    # inputs read as rationals: the closure over Rational, -tr M and det M
    # of hull.matrix_M, e = q + P - p, and the fluxes that put the outer
    # plane_brackets at the bracket coordinates
    prob = _problem(name)
    y = _sample_start(_PCG64(seed), prob)
    point = _kernel(prob, y)
    assume(point is not None)
    surplus, margins, fluxes, residual = point

    def exact(v):
        return Rational(Fraction(v))
    mu0, mu2, mu3, rho1, q1, q2, q3, b0, b2, b3 = map(exact, y)
    sigma, e_m, e_p, f_m, f_p = map(exact, (prob.sigma, prob.e_m, prob.e_p, prob.f_m, prob.f_p))
    rhos, m2s, u11s, mu3_chain, exact_residual = chain_close(
        tuple(map(exact, prob.minus)), tuple(map(exact, prob.plus)), (mu0, sigma, mu2, mu3),
        rho1, (q1, q2, q3))
    assert (sign(mu3_chain - mu3), sign(exact_residual)) == (0, 0)
    zero = Rational(0)
    want, e = [sigma - mu0, mu2 - sigma, mu3 - mu2, *rhos], [e_m]
    for rho, m2, u11, q in zip(rhos, m2s, u11s, (q1, q2, q3)):
        M = matrix_M(LAW2, rho, PHPoint((zero, m2), u11, zero, q, (zero, zero)))
        want += [-M.trace(), M.det()]
        e.append(q + pressure_potential(LAW2, rho) - pressure(LAW2, rho))
    e.append(e_p)
    f3 = b3 + mu3 * (e[3] - e[4]) + f_p
    f2 = b2 + mu2 * (e[2] - e[3]) + f3
    f1 = f_m - b0 - mu0 * (e[0] - e[1])
    brackets = [plane_bracket(mu0, e[0], e[1], f_m, f1), plane_bracket(sigma, e[1], e[2], f1, f2),
                plane_bracket(mu2, e[2], e[3], f2, f3), plane_bracket(mu3, e[3], e[4], f3, f_p)]
    assert [brackets[i] for i in (0, 2, 3)] == [b0, b2, b3]
    # the last plane moves at the chained mu3, which the kernel takes in
    # floats: near rho3 = rho_p its rounding grows as 1/(rho3 - rho_p)^2
    # (on the paper shock at seed 8977866439302381487, rho3 - rho_p is
    # 1.7e-6 and it moves rh4_3 by 4e-9), so its bracket is taken exactly
    # at that float speed
    mu3_float = chain_close(prob.minus, prob.plus, (y[0], prob.sigma, y[1], y[2]), y[3],
                            tuple(y[4:7]))[3]
    brackets[3] = plane_bracket(exact(mu3_float), e[3], e[4], f3, f_p)
    want += brackets
    got = (*margins, *fluxes, surplus, residual)
    want += [f1, f2, f3, brackets[1] - exact(prob.ref_coeff), zero]
    assert len(got) == len(want) == len(_MARGINS) + 5
    for label, g, w in zip((*_MARGINS, "F12", "F22", "F32", "surplus", "residual"), got, want):
        assert abs(g - float(w)) <= 1e-9 * (1 + abs(float(w))), (label, g, float(w))


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
# recorded when each barrier run began to end at its first point with
# positive surplus and every margin positive: the same seeds must keep
# producing the same Nelder-Mead trajectories bit for bit, on any CPU and
# without numpy.
GOLDEN_SEARCH = {
    (4, 3): (3, [
        "-0x1.4383b485a8c42p+0", "-0x1.c05fd62845354p-1", "0x1.ea9b9dcfcc85ep+1",
        "0x1.12667c0a7a1bcp+1", "0x1.4385e5e027bfap+3", "0x1.a7243734f1c8ep+3",
        "0x1.008a7108882e1p+4", "0x1.52b886d6cdad6p+4", "0x1.4c15a8ca755abp+1",
        "0x1.0a9c810ebf345p-3"]),
    (16, 0): (2, [
        "-0x1.25926819fdf3dp+0", "-0x1.6f16054c254e5p-1", "0x1.06626c27c91d1p+2",
        "0x1.04273e2896bbbp+1", "0x1.2662293a7da61p+3", "0x1.f60d4da330354p+3",
        "0x1.00275ab4aee1dp+4", "0x1.69f65797510bdp+4", "0x1.176c16f5c0ddep-2",
        "0x1.58190ab160442p-5"]),
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


def test_pcg64_draws_equal_default_rng():
    # seeds of one to seven 32-bit words: SeedSequence mixes any word past
    # the pool's fourth back in
    rng = random.Random(20)
    seeds = [*range(300), 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 3, 2**100 + 7,
             2**128 + 5, 2**200 + 11, *(rng.getrandbits(70) for _ in range(50))]
    bounds = [(0.05, 1.0), (0.5, 5.0), (-3.0, 7.5), (2e-4, 4e-3), (0.0, 1.0), (1.0, 4.0)] * 2
    for seed in seeds:
        ours, ref = _PCG64(seed), np.random.default_rng(seed)
        assert [ours.uniform(a, b).hex() for a, b in bounds] == \
            [float(ref.uniform(a, b)).hex() for a, b in bounds], seed


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
    # rho 1 -> 2, v_r = 0, a shock weaker than the paper's: the barrier
    # point of restart seed 2 certifies exactly, its matched plane
    # dissipating strictly more than the reference shock
    left = EulerState(1, (Rational(0), adjoin_sqrt(Rational(3, 2))))
    right = EulerState(2, (Rational(0), Rational(0)))
    cand = search_fan(LAW2, left, right, SearchConfig(restarts=3, rng_seed=0))
    assert cand is not None and cand.seed == 2 and cand.fan is not None
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
# first restart (seed rng_seed) already
_STRONG_SEEDS = {Fraction(1): 13, Fraction(5, 4): 7, Fraction(4, 3): 13, Fraction(3, 2): 15,
                 Fraction(5, 3): 13, Fraction(7, 4): 13, Fraction(2): 4}


@pytest.mark.parametrize("rho_l", sorted(_STRONG_SEEDS), ids=str)
def test_search_certifies_strong_shocks(rho_l):
    # the early ends of the feasibility and barrier phases lose no restart
    # that certifies, the first one included
    seed = _STRONG_SEEDS[rho_l]
    cand = search_fan(LAW2, *_shock(rho_l, Fraction(4)),
                      SearchConfig(restarts=8, rng_seed=seed))
    assert cand is not None and cand.fan is not None and cand.comparison.passed
    assert cand.seed == seed


def test_barrier_stall_waits_for_a_positive_surplus():
    # rho 1 -> 10/3: the first barrier run of restart seed 682557 starts at
    # a float surplus near -7 and must go on until the surplus turns
    # positive; a run that ended earlier, say on a stall, certifies nothing
    cand = search_fan(LAW2, *_shock(Fraction(1), Fraction(10, 3)),
                      SearchConfig(restarts=8, rng_seed=682554))
    assert cand is not None and cand.seed == 682557
    assert cand.fan is not None and cand.comparison.passed


# ---------------------------------------------------------------------------
# minimize against scipy's adaptive Nelder-Mead
# ---------------------------------------------------------------------------

def _weak_boundary():
    return _shock(Fraction(1), Fraction(5, 4))


@lru_cache(maxsize=None)
def _problem(name):
    prob = _Problem(LAW2, *(paper_boundary() if name == "paper" else _weak_boundary()))
    assert prob.speed is not None
    return prob


@lru_cache(maxsize=None)
def _feasible_start(name, seed):
    """A start after a full feasibility phase, where the barrier phase
    does its real work."""
    prob = _problem(name)
    y = _sample_start(_PCG64(seed), prob)
    return tuple(minimize(lambda v: _infeasibility(prob, v), y, 4000).x)


def _phase_objective(name, phase):
    prob = _problem(name)
    if phase == "feasibility":
        return lambda v: _infeasibility(prob, v)
    return lambda v: _barrier_score(prob, 1e-2, v)[0]


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
@given(name=st.sampled_from(["paper", "weak"]),
       phase=st.sampled_from(["feasibility", "barrier"]),
       seed=st.integers(0, 3), warm=st.booleans(), maxiter=st.integers(1, 600))
def test_minimize_matches_scipy_on_the_phase_objectives(name, phase, seed, warm, maxiter):
    if warm:
        start = list(_feasible_start(name, seed))
    else:
        start = _sample_start(_PCG64(seed), _problem(name))
    _assert_same_as_scipy(_phase_objective(name, phase), start, maxiter)


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
# the early ends of the feasibility phase
# ---------------------------------------------------------------------------

def _ends_at_first_zero(fun):
    """fun, ending ``minimize`` at the first point that scores 0.0."""
    calls = 0

    def score(v):
        nonlocal calls
        calls += 1
        f = fun(v)
        if f == 0.0:
            raise _Stop(v, f, calls)
        return f
    return score


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(["paper", "weak"]), seed=st.integers(0, 63))
@example(name="paper", seed=2)  # feasible after 98 evaluations
def test_feasibility_phase_ends_at_the_full_runs_point(name, seed):
    prob = _problem(name)
    y = _sample_start(_PCG64(seed), prob)
    plain = minimize(_phase_objective(name, "feasibility"), y, _MAX_ITERS)
    early = minimize(_ends_at_first_zero(_phase_objective(name, "feasibility")), y, _MAX_ITERS)
    if plain.fun == 0.0:
        # a full run ends at the first point that scores 0.0, bit for bit
        assert [v.hex() for v in early.x] == [v.hex() for v in plain.x]
        assert early.fun == 0.0 and early.nfev <= plain.nfev
    else:
        assert early == plain
    # the search's objective ends there too, or drops the restart
    ours = minimize(_feasibility(prob, len(y)), y, _MAX_ITERS)
    if ours.fun == 0.0:
        assert [v.hex() for v in ours.x] == [v.hex() for v in plain.x]
        assert ours.nfev == early.nfev
    else:
        assert ours.fun > 0.0 and ours.nfev <= plain.nfev


def test_no_closure_starts_never_become_feasible():
    # the paper-shock starts among seeds 0-31 whose initial simplex closes
    # nowhere: the search drops each after that simplex, and a full run
    # from each ends on the 1e6 sentinel
    prob = _problem("paper")
    dropped = []
    for seed in range(32):
        y = _sample_start(_PCG64(seed), prob)
        ours = minimize(_feasibility(prob, len(y)), y, _MAX_ITERS)
        if ours.nfev == len(y) + 1 and ours.fun == 1e6:
            dropped.append(seed)
            assert minimize(_phase_objective("paper", "feasibility"), y, _MAX_ITERS).fun >= 1e6
    assert dropped == [9, 14, 17, 22, 25, 26, 31]


def test_nan_margin_is_not_feasible(monkeypatch):
    import wildfan.search as search_module

    margins = (1.0,) * (len(_MARGINS) - 1) + (math.nan,)
    monkeypatch.setattr(search_module, "_kernel",
                        lambda *args: (1.0, margins, (0.0, 0.0, 0.0), 0.0), raising=True)
    assert math.isnan(_infeasibility(None, [0.0] * 10))


def _falling(per_window, count):
    """Points whose scores fall by the factor per_window over every 100
    evaluations, from 1.0."""
    return [[_FLOOR - per_window ** (k / 200)] for k in range(count)]


def test_feasibility_stalls_over_100_evaluations(monkeypatch):
    # the point [m] does not close when m is None, and else has the first
    # margin m and every other margin at the floor, so it scores
    # (floor - m)**2 below the floor and 0.0 from the floor up
    import wildfan.search as search_module

    monkeypatch.setattr(search_module, "_kernel",
                        lambda prob, y: None if y[0] is None else (
                            0.0, (y[0],) + (_FLOOR,) * (len(_MARGINS) - 1),
                            (0.0, 0.0, 0.0), 0.0),
                        raising=True)

    def run(points, n=10):
        score = _feasibility(None, n)
        for k, y in enumerate(points, 1):
            try:
                score(y)
            except _Stop as stop:
                return k, stop.args
        return None

    # a best that falls by 10.5 % over every 100 evaluations runs on
    assert run(_falling(0.895, 1000)) is None
    # one that falls by 9.5 % stops at evaluation 101, at its best point
    points = _falling(0.905, 1000)
    k, (x, f, nfev) = run(points)
    assert (k, nfev) == (101, 101) and x is points[100]
    assert f == _infeasibility(None, points[100])
    # a best that never falls stops at evaluation 101, at the first point
    # that reached it, though later points tie with it
    points = [[-1.0], [-2.0]] + [[-1.0], [-1.5]] * 200
    k, (x, f, nfev) = run(points)
    assert (k, nfev) == (101, 101) and x is points[0]
    assert f == (_FLOOR + 1.0) ** 2
    # the first 0.0 ends the run at once, however late
    points = _falling(0.895, 700) + [[_FLOOR]]
    k, (x, f, nfev) = run(points)
    assert (k, nfev, f) == (701, 701, 0.0) and x is points[-1]
    # an initial simplex that closes nowhere ends the run after it ...
    points = [[None] for _ in range(20)]
    k, (x, f, nfev) = run(points, n=3)
    assert (k, nfev, f) == (4, 4, 1e6) and x is points[0]
    # ... and one closed vertex among the start vertices keeps it going
    assert run([[None]] * 3 + [[-1.0 / k] for k in range(1, 200)], n=3) is None


def _recorded(fun, points):
    """fun, appending each point it is asked to score to ``points``."""
    def score(v):
        points.append([x.hex() for x in v])
        return fun(v)
    return score


def _phase_one_stop(scores, n):
    """The 1-based index of the first of these phase-1 scores at which the
    phase is decided: a 0.0, n + 1 start vertices that all score 1e6, or a
    best that is not 10 % below the best 100 evaluations before; None when
    there is none.  The best ignores NaN."""
    best = [math.inf]  # best[k]: the best of the first k scores
    for f in scores:
        best.append(f if f < best[-1] else best[-1])
    for k in range(1, len(scores) + 1):
        if (scores[k - 1] == 0.0 or (k == n + 1 and all(f == 1e6 for f in scores[:k]))
                or (k > 100 and not best[k] < 0.9 * best[k - 100])):
            return k
    return None


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["paper", "weak"]), seed=st.integers(0, 63))
@example(name="weak", seed=0)  # the first restart of the pinned weak miss
@example(name="paper", seed=2)  # feasible after 98 evaluations
@example(name="paper", seed=9)  # no start vertex closes
def test_feasibility_phase_stops_on_a_prefix_of_the_full_run(name, seed):
    prob = _problem(name)
    y = _sample_start(_PCG64(seed), prob)
    full_points, scores, points = [], [], []

    def full_score(v):
        scores.append(_infeasibility(prob, v))
        return scores[-1]
    full = minimize(_recorded(full_score, full_points), y, _MAX_ITERS)
    ours = minimize(_recorded(_feasibility(prob, len(y)), points), y, _MAX_ITERS)
    # the stopping objective scores as the full run does, so it walks the
    # same points, and nfev counts each of them, the last one included
    assert points == full_points[:len(points)] and ours.nfev == len(points)
    stop = _phase_one_stop(scores, len(y))
    if stop is None:
        assert ours == full
    else:
        # the first point that reached the best score so far
        assert ours.nfev == stop
        best = min(f for f in scores[:stop] if f == f)
        assert ours.fun == best
        assert [v.hex() for v in ours.x] == full_points[scores.index(best)]


# ---------------------------------------------------------------------------
# the barrier phase's first positive point
# ---------------------------------------------------------------------------

def _first_positive(kernels):
    """The 1-based index of the first of these ``_kernel`` results that
    closes with positive surplus and every margin positive; None when
    there is none."""
    for k, point in enumerate(kernels, 1):
        if point is not None and point[0] > 0.0 and all(m > 0.0 for m in point[1]):
            return k
    return None


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(seed=st.integers(0, 63))
@example(seed=2)  # the restart that certifies the pinned paper search
def test_barrier_phase_stops_at_the_full_runs_first_positive_point(seed):
    prob = _problem("paper")
    y = list(_feasible_start("paper", seed))
    assume(_infeasibility(prob, y) == 0.0)
    for tau in (1e-2, 1e-3):
        full_points, scores, kernels, points = [], [], [], []

        def full_score(v):
            kernels.append(_kernel(prob, v))
            scores.append(_barrier_score(prob, tau, v)[0])
            return scores[-1]
        full = minimize(_recorded(full_score, full_points), y, _MAX_ITERS)
        ours = minimize(_recorded(_barrier(prob, tau), points), y, _MAX_ITERS)
        # the stopping objective scores as the full run does, so it walks the
        # same points, and nfev counts each of them, the last one included
        assert points == full_points[:len(points)] and ours.nfev == len(points)
        first = _first_positive(kernels)
        if first is None:
            assert ours == full
        else:
            # the first positive point itself, not the best point so far
            assert ours.nfev == first
            assert [v.hex() for v in ours.x] == full_points[first - 1]
            assert ours.fun == scores[first - 1]
        y = ours.x


def test_barrier_stops_at_its_first_positive_point(monkeypatch):
    # y = [surplus, first margin, every other margin]
    import wildfan.search as search_module

    monkeypatch.setattr(search_module, "_kernel",
                        lambda prob, y: (
                            y[0], (y[1],) + (y[2],) * (len(_MARGINS) - 1),
                            (0.0, 0.0, 0.0), 0.0),
                        raising=True)
    runs_on = (
        [-1e-3, 1.0, 1.0],  # the best score of the run, its surplus negative
        [0.5, 0.0, 1.0],  # positive surplus, a zero margin
        [0.5, -1e-3, 1.0],  # positive surplus, a negative margin
        [math.nan, 1.0, 1.0],
        [0.5, math.nan, 1.0],
        [0.0, 1.0, 1.0],
    )
    first = [2e-3, 1e-3, 1e-3]
    f_best, f_first = (_barrier_score(None, 1e-2, y)[0]
                       for y in (runs_on[0], first))
    assert f_first > f_best
    score = _barrier(None, 1e-2)
    for y in runs_on:
        score(y)
    with pytest.raises(_Stop) as stop:
        score(first)
    assert stop.value.args == (first, f_first, len(runs_on) + 1)
