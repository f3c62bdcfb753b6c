"""A completeness oracle for the search: where the ansatz allows a fan that
dominates the self-similar shock, ``search_fan`` must certify one.

The oracle transcribes the four-variable reduction from its definitions in
floats and shares no code with ``search``; it takes only the reference
shock's speed and bracket coefficient from ``riemann``.  Over
z = (ln d0, ln d2, ln d3, ln rho1), with mu0 = sigma - d0, mu2 = sigma + d2
and mu3 = mu2 + d3, it solves the eight Rankine-Hugoniot equalities of the
three-region fan as one linear system in (rho2, rho3, m1, m2, m3, w1, w2, w3),
w = q - u11; a region is negative definite for some cap q exactly when
c = w - m^2/rho - p > 0, and the plane-dissipation budget then peaks with each
q at its bound max(m^2/rho + 2p, p + w)/2 and the outer brackets at 0.
``differential_evolution`` estimates the ceiling, the largest
(budget - ref_coeff) / ref_coeff over a box of z.  The pressure is
p = rho^gamma, with the potential P = p / (gamma - 1), or rho log rho at
gamma = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import differential_evolution
from test_search import _gamma_shock, _shock

from wildfan.model import PressureLaw
from wildfan.riemann import selfsim_dissipation, solve_riemann
from wildfan.search import SearchConfig, search_fan

LAW2 = PressureLaw(gamma=2)


def _potential(rho, gamma):
    """P = p / (gamma - 1), rho log rho at gamma = 1."""
    return rho * np.log(rho) if gamma == 1.0 else rho ** gamma / (gamma - 1.0)


def _lifted(state, gamma):
    """(rho, m2, w, F2, E) of a boundary state with m1 = 0: q = m2^2/(2 rho)
    + p, u11 = -m2^2/(2 rho), F2 = (q + P) m2 / rho and E = q + P - p."""
    rho, m2 = float(state.rho), float(state.m[1])
    p = rho ** gamma
    big_p = _potential(rho, gamma)
    q = m2 * m2 / (2.0 * rho) + p
    return rho, m2, q + m2 * m2 / (2.0 * rho), (q + big_p) * m2 / rho, q + big_p - p


def _ceiling_objective(law, left, right):
    """(objective, rho_l, rho_r): the objective is the negated relative
    surplus at z, or 1e6 plus the total shortfall where a density or a c is
    not positive, and 1e6 where the system is singular."""
    gamma = float(law.gamma)
    (sigma, ref_coeff), = [tuple(map(float, entry)) for entry in
                           selfsim_dissipation(law, solve_riemann(law, left, right)).entries]
    rho_l, m_l, w_l, f_l, e_l = _lifted(left, gamma)
    rho_r, m_r, w_r, f_r, e_r = _lifted(right, gamma)

    def known(value):
        return np.array([0.0] * 8 + [value])

    def unknown(i):
        form = np.zeros(9)
        form[i] = 1.0
        return form

    # each state quantity as an affine form in the unknowns
    # x = (rho2, rho3, m1, m2, m3, w1, w2, w3): 8 coefficients and a constant
    m = [known(m_l), unknown(2), unknown(3), unknown(4), known(m_r)]
    w = [known(w_l), unknown(5), unknown(6), unknown(7), known(w_r)]

    def objective(z):
        d0, d2, d3, rho1 = np.exp(z)
        mu = (sigma - d0, sigma, sigma + d2, sigma + d2 + d3)
        rho = [known(rho_l), known(rho1), unknown(0), unknown(1), known(rho_r)]
        # per plane j: mu_j [rho] = [m2] and mu_j [m2] = [q - u11]
        rows = []
        for j in range(4):
            rows.append(mu[j] * (rho[j] - rho[j + 1]) - (m[j] - m[j + 1]))
            rows.append(mu[j] * (m[j] - m[j + 1]) - (w[j] - w[j + 1]))
        system = np.array(rows)
        try:
            x = np.linalg.solve(system[:, :8], -system[:, 8])
        except np.linalg.LinAlgError:
            return 1e6
        rhos = np.array([rho1, x[0], x[1]])
        ms, ws = x[2:5], x[5:8]
        if not np.all(rhos > 0.0):
            return 1e6 + float(np.sum(np.maximum(-rhos, 0.0)))
        p = rhos ** gamma
        k = ms * ms / rhos
        c = ws - k - p
        if not np.all(c > 0.0):
            return 1e6 + float(np.sum(np.maximum(-c, 0.0))) / ref_coeff
        q = np.maximum(k + 2.0 * p, p + ws) / 2.0
        e = [e_l, *(q + _potential(rhos, gamma) - p), e_r]
        budget = f_l - f_r - sum(mu[j] * (e[j] - e[j + 1]) for j in range(4))
        return -(budget - ref_coeff) / ref_coeff

    return objective, rho_l, rho_r


def _ceiling(law, left, right, popsize=10, maxiter=40):
    """The estimated ceiling on a box of z: d0 and d2 from 1e-3 eps to
    2 eps, eps = |rho_r / rho_l - 1|, d3 from 0.1 to 10 times the left sound
    speed, rho1 between the two densities."""
    objective, rho_l, rho_r = _ceiling_objective(law, left, right)
    gamma = float(law.gamma)
    eps, sound = abs(rho_r / rho_l - 1.0), math.sqrt(gamma * rho_l ** (gamma - 1.0))
    box = [(math.log(1e-3 * eps), math.log(2.0 * eps))] * 2 + [
        (math.log(0.1 * sound), math.log(10.0 * sound)), (math.log(rho_l), math.log(rho_r))]
    return -differential_evolution(objective, box, popsize=popsize, maxiter=maxiter, seed=0,
                                   tol=0.0, polish=False).fun


@pytest.mark.parametrize("rho_l, ratio", [
    (Fraction(1), Fraction(5, 4)), (Fraction(5, 4), Fraction(7, 5)),
    (Fraction(1), Fraction(101, 100)), (Fraction(1), Fraction(4))], ids=str)
def test_search_certifies_where_the_ceiling_is_positive(rho_l, ratio):
    # population 10 and 40 generations put the ceiling within 1e-5 of what
    # population 15 and 100 generations find (1.4 % to 1.9 % on these
    # shocks), so its sign is robust
    left, right = _shock(rho_l, ratio)
    assert _ceiling(LAW2, left, right) > 0.0
    cand = search_fan(LAW2, left, right, SearchConfig(restarts=8, rng_seed=0))
    assert cand is not None and cand.fan is not None and cand.comparison.passed


@pytest.mark.parametrize("gamma, rho_r", [
    (1, Fraction(5, 4)), (1, 4), (2, Fraction(5, 4)), (2, 4),
    (Fraction(3, 2), Fraction(9, 4)), (Fraction(3, 2), 4), (Fraction(5, 2), Fraction(9, 4)),
], ids=str)
def test_ceiling_is_positive_below_gamma_3(gamma, rho_r):
    # a weak and a strong shock at gamma = 1, where P = rho log rho, and at
    # gamma = 2, and square-density data at 3/2 and 5/2 (3.5 % at 5/2 on
    # rho 1 -> 9/4): the search pins of test_search certify on the same data
    law = PressureLaw(gamma)
    assert _ceiling(law, *_gamma_shock(law, rho_r)) > 1e-3


def test_ceiling_vanishes_at_gamma_3():
    # on rho 1 -> 2 the ceiling collapses onto the shock: population 15 and
    # 120 generations find 2.5e-15, where test_search's 64 restarts find no
    # candidate
    law = PressureLaw(3)
    assert _ceiling(law, *_gamma_shock(law, 2), popsize=15, maxiter=120) < 1e-10
