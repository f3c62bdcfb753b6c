"""Numerical discovery of dominating fan subsolutions with exact
rational certification.

The Rankine-Hugoniot equalities are eliminated by construction, in one
closure (``chain_close``) that works verbatim over floats and over exact
numbers.  Given the four speeds, the first density and the trace caps, the
last mass condition and the telescoped normal-momentum condition are linear
in the two middle densities, with determinant (mu1-mu2)(mu3-mu2)(mu3-mu1);
the closure solves them, then chains the normal momenta and trace-free
entries forward from the left boundary.  The search therefore only fights
strict inequalities: speed ordering, positivity, negative definiteness per
region, the energy-flux inequality per interface, and the dominance target
on the reference shock plane.  Each float evaluation closes its point once.

Certification rounds the free variables to small rationals, pins the
matched plane speed to the exact reference shock speed, re-runs the same
closure in the quadratic tower, checks exactly that the chained last speed
and the leftover residual reproduce the rounded speed and zero, and re-runs
the full exact verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from .exactnum import Inconclusive, XReal, as_xreal, sign
from .fan import FanSubsolution, VerificationReport, beats_selfsimilar, verify_fan
from .model import EulerState, PHPoint, PressureLaw, lift_state
from .riemann import Shock, plane_bracket, selfsim_dissipation, solve_riemann

__all__ = [
    "SearchConfig",
    "Candidate",
    "DegenerateClosure",
    "chain_close",
    "search_fan",
    "certify",
]


class DegenerateClosure(ZeroDivisionError):
    """Closure division degenerates (equal densities or speeds)."""


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 64
    max_iters: int = 4000
    rounding_denominator_cap: int = 10 ** 12
    rng_seed: int = 0

    def __post_init__(self):
        if (self.restarts < 0 or self.max_iters <= 0
                or self.rounding_denominator_cap <= 0 or self.rng_seed < 0):
            raise ValueError("config values must be positive")


# free-variable layout (symmetric ansatz: the boundary tangential momenta
# vanish, so interior tangential momenta and off-diagonal entries are zero)
_VAR_NAMES = ("mu0", "mu2", "mu3", "rho1", "q1", "q2", "q3", "F12", "F22", "F32")


@dataclass
class Candidate:
    """Float candidate: free variables plus the closed chain values, and
    the exact fan that ``certify`` built from it with its comparison
    against the self-similar solution, if it certified."""

    law: PressureLaw
    left: EulerState
    right: EulerState
    sigma: float
    x: np.ndarray
    mu: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    rho: tuple[float, float, float] = (0.0, 0.0, 0.0)
    m2: tuple[float, float, float] = (0.0, 0.0, 0.0)
    u11: tuple[float, float, float] = (0.0, 0.0, 0.0)
    brackets: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    margins: dict = field(default_factory=dict)
    residual: float = math.inf
    feasible: bool = False
    seed: int | None = None
    fan: FanSubsolution | None = None
    comparison: VerificationReport | None = None

    def to_dict(self) -> dict:
        """Reproducibility dump: seed, pinned speed, free variables."""
        return {
            "seed": self.seed,
            "sigma": self.sigma,
            "variables": {name: float(v) for name, v in zip(_VAR_NAMES, self.x)},
            "margins": {k: float(v) for k, v in self.margins.items()},
            "feasible": self.feasible,
        }


def _float_law(law: PressureLaw):
    gamma = float(law.gamma)
    rho_star = float(law.rho_star)

    def p(rho: float) -> float:
        return rho ** gamma

    def P(rho: float) -> float:
        if gamma == 1.0:
            return rho * math.log(rho / rho_star)
        base = rho ** gamma / (gamma - 1.0)
        if rho_star == 0.0:
            return base
        return base - rho * rho_star ** (gamma - 1.0) / (gamma - 1.0)

    return p, P


def _boundary(law: PressureLaw, state: EulerState, as_float: bool):
    """Lifted boundary state: (rho, m2, u11, q) for the closure and
    (F2, e) for the energy-flux brackets."""
    z, e = lift_state(law, state)
    vals, flux = (state.rho, z.m[1], z.u11, z.q), (z.F[1], e)
    if as_float:
        return tuple(map(float, vals)), tuple(map(float, flux))
    return vals, flux


# ---------------------------------------------------------------------------
# the closure (generic over floats and exact numbers)
# ---------------------------------------------------------------------------

def _is_zero(v) -> bool:
    return (v == 0.0) if isinstance(v, float) else (sign(v) == 0)


def chain_close(minus, plus, mu, rho1, q123):
    """Close the Rankine-Hugoniot equalities of a three-region fan.

    ``minus`` and ``plus`` are the boundary values (rho, m2, u11, q) of the
    lifted left and right states, ``mu`` holds all four speeds.  The last
    mass condition and the normal-momentum condition at the last interface
    (telescoped, so free of the interior q's) are solved as a 2x2 linear
    system for (rho2, rho3).  The momentum and trace chains then determine
    the interior normal momenta and trace-free entries from the left
    boundary, the last mass condition gives the chained mu3, and the
    last normal-momentum condition is returned as ``residual``; the solve
    makes the chained mu3 equal ``mu[3]`` and the residual zero, exactly
    over exact numbers and up to rounding over floats.  Works verbatim
    over floats or exact numbers.

    Returns ((rho1, rho2, rho3), (m1, m2, m3), (u1, u2, u3), mu3, residual);
    raises DegenerateClosure on coincident speeds or rho3 equal to the
    right boundary density.
    """
    rho_m, m_m, u_m, q_m = minus
    rho_p, m_p, u_p, q_p = plus
    mu0, mu1, mu2, mu3 = mu
    q1, q2, q3 = q123

    a1, a2 = mu1 - mu2, mu2 - mu3
    a_rhs = mu0 * rho_m - m_m + (mu1 - mu0) * rho1 + m_p - mu3 * rho_p
    b1, b2 = mu2 * mu2 - mu1 * mu1, mu3 * mu3 - mu2 * mu2
    b_rhs = ((q_m - u_m) - (q_p - u_p)) - mu0 * mu0 * rho_m \
        - (mu1 * mu1 - mu0 * mu0) * rho1 + mu3 * mu3 * rho_p
    det = a1 * b2 - a2 * b1
    if _is_zero(det):
        raise DegenerateClosure("coincident interface speeds")
    rho2 = (a_rhs * b2 - a2 * b_rhs) / det
    rho3 = (a1 * b_rhs - a_rhs * b1) / det

    m1 = m_m - mu0 * (rho_m - rho1)
    m2 = m1 - mu1 * (rho1 - rho2)
    m3 = m2 - mu2 * (rho2 - rho3)
    drho = rho3 - rho_p
    if _is_zero(drho):
        raise DegenerateClosure("rho3 equals the right boundary density")
    mu3_chain = (m3 - m_p) / drho

    u1 = u_m - q_m + q1 + mu0 * (m_m - m1)
    u2 = u1 - q1 + q2 + mu1 * (m1 - m2)
    u3 = u2 - q2 + q3 + mu2 * (m2 - m3)
    residual = mu3_chain * (m3 - m_p) - (-u3 + q3 + u_p - q_p)
    return (rho1, rho2, rho3), (m1, m2, m3), (u1, u2, u3), mu3_chain, residual


# ---------------------------------------------------------------------------
# float evaluation of a candidate
# ---------------------------------------------------------------------------

class _Context:
    """Float boundary data and pressure callables, computed once."""

    def __init__(self, law: PressureLaw, left: EulerState, right: EulerState):
        self.p, self.P = _float_law(law)
        self.minus, (self.f_m, self.e_m) = _boundary(law, left, True)
        self.plus, (self.f_p, self.e_p) = _boundary(law, right, True)


def _close_floats(ctx: _Context, sigma: float, v):
    """Close the float point whose first seven coordinates are (mu0, mu2,
    mu3, rho1, q1, q2, q3), shared by both layouts below.

    Returns (closed, margins).  ``closed`` is (mu, rhos, m2s, u11s, e,
    residual), with the chained mu3 in ``mu`` and the region energies
    between the boundary ones in ``e``; it is None when the closure
    degenerates (margins {'closure': -1}) or a density is not positive.
    ``margins`` holds the ordering, density, trace and determinant margins.
    """
    mu0, mu2, mu3, rho1, q1, q2, q3 = map(float, v[:7])
    qs = (q1, q2, q3)
    try:
        rhos, m2s, u11s, mu3_chain, residual = chain_close(
            ctx.minus, ctx.plus, (mu0, sigma, mu2, mu3), rho1, qs)
    except DegenerateClosure:
        return None, {"closure": -1.0}
    margins = {"ord0": sigma - mu0, "ord1": mu2 - sigma, "ord2": mu3 - mu2}
    margins["rho1"], margins["rho2"], margins["rho3"] = rhos
    if min(rhos) <= 0.0:
        return None, margins

    e = [ctx.e_m]
    for i in range(3):
        pi = ctx.p(rhos[i])
        tr = m2s[i] ** 2 / rhos[i] + 2.0 * (pi - qs[i])
        margins[f"trace{i + 1}"] = -tr
        margins[f"det{i + 1}"] = ((-u11s[i] + pi - qs[i])
                                  * (m2s[i] ** 2 / rhos[i] + u11s[i] + pi - qs[i]))
        e.append(qs[i] + ctx.P(rhos[i]) - pi)
    e.append(ctx.e_p)
    mu = (mu0, sigma, mu2, mu3_chain)
    return (mu, rhos, m2s, u11s, e, abs(residual)), margins


def _brackets(ctx: _Context, mu, e, f123, margins: dict):
    """Energy-flux brackets -mu[E] + [F2] per plane, also recorded as the
    'rh4_i' margins."""
    ff = (ctx.f_m, *f123, ctx.f_p)
    brackets = tuple(plane_bracket(mu[i], e[i], e[i + 1], ff[i], ff[i + 1])
                     for i in range(4))
    for i in range(4):
        margins[f"rh4_{i}"] = brackets[i]
    return brackets


def _evaluate(cand: Candidate, ctx: _Context | None = None) -> Candidate:
    """Fill the chain values and margins of a candidate in the flux layout
    (.., F12, F22, F32)."""
    if ctx is None:
        ctx = _Context(cand.law, cand.left, cand.right)
    closed, margins = _close_floats(ctx, cand.sigma, cand.x)
    cand.margins = margins
    cand.feasible = False
    if closed is None:
        cand.residual = math.inf
        return cand
    cand.mu, cand.rho, cand.m2, cand.u11, e, cand.residual = closed
    cand.brackets = _brackets(ctx, cand.mu, e, map(float, cand.x[7:]), margins)
    cand.feasible = min(margins.values()) > 0.0 and cand.residual < 1e-7
    return cand


# ---------------------------------------------------------------------------
# search driver
# ---------------------------------------------------------------------------

# The optimizer works in "bracket coordinates": the three energy-flux
# fluxes are replaced by the bracket values on the outer planes, which
# makes the dominance target a directly controlled quantity.  The total
# plane-dissipation budget is fixed by the speeds and trace caps alone
# (the flux chain telescopes), so maximizing the matched-plane bracket
# means maximizing the budget while the outer brackets sit at the floor.

def _fluxes(ctx: _Context, sigma: float, y, e):
    """(F12, F22, F32) putting the outer-plane brackets of the closed point
    y at its bracket coordinates (b0, b2, b3)."""
    mu0, mu2, mu3, b0, b2, b3 = (float(y[i]) for i in (0, 1, 2, 7, 8, 9))
    mus = (mu0, sigma, mu2, mu3)
    budget = ctx.f_m - ctx.f_p - sum(mus[i] * (e[i] - e[i + 1]) for i in range(4))
    b1 = budget - b0 - b2 - b3
    f3 = b3 + mu3 * (e[3] - e[4]) + ctx.f_p
    f2 = b2 + mu2 * (e[2] - e[3]) + f3
    f1 = b1 + sigma * (e[1] - e[2]) + f2
    return f1, f2, f3


def _y_to_x(ctx: _Context, sigma: float, y) -> np.ndarray | None:
    """Map bracket coordinates (mu0, mu2, mu3, rho1, q1..q3, b0, b2, b3)
    to the flux layout (.., F12, F22, F32); None when the point does not
    close with positive densities."""
    closed, _ = _close_floats(ctx, sigma, y)
    if closed is None:
        return None
    return np.array([*map(float, y[:7]), *_fluxes(ctx, sigma, y, closed[4])])


def _margins_at(ctx: _Context, sigma: float, ref_coeff: float, y):
    """(dominance surplus, margins) at the bracket-coordinate point y;
    (None, None) when it does not close with positive densities."""
    closed, margins = _close_floats(ctx, sigma, y)
    if closed is None:
        return None, None
    mu, e = closed[0], closed[4]
    brackets = _brackets(ctx, mu, e, _fluxes(ctx, sigma, y, e), margins)
    return brackets[1] - ref_coeff, margins


def _infeasibility(ctx, sigma, ref_coeff, floor, y) -> float:
    surplus, margins = _margins_at(ctx, sigma, ref_coeff, y)
    if margins is None:
        return 1e6
    return sum((floor - m) ** 2 for m in margins.values() if m < floor)


def _barrier_score(ctx, sigma, ref_coeff, floor, tau, y) -> float:
    surplus, margins = _margins_at(ctx, sigma, ref_coeff, y)
    if margins is None:
        return 1e9
    barrier = 0.0
    for m in margins.values():
        if m <= 0.0:
            return 1e7
        barrier -= math.log(min(m / floor, 1e6))
    return -surplus + tau * barrier


def _retreat_score(ctx, sigma, ref_coeff, floor, target, y) -> float:
    surplus, margins = _margins_at(ctx, sigma, ref_coeff, y)
    if margins is None:
        return 1e9
    if surplus < target:
        return 1e6 * (1.0 + (target - surplus))
    return -min(min(margins.values()), 100.0 * floor)


_FLOOR = 2e-4


def search_fan(law: PressureLaw, left: EulerState, right: EulerState,
               cfg: SearchConfig) -> Candidate | None:
    """Multi-restart derivative-free search over the free variables.

    Each restart runs three Nelder-Mead phases: drive all strict margins
    above a floor, push the dominance surplus up behind a logarithmic
    barrier, then retreat to the most interior point that keeps half of
    the achieved surplus.  Deterministic in cfg.rng_seed: restart k draws
    from seed rng_seed + k.  Returns the first candidate that certifies
    exactly (its ``fan`` and ``comparison`` are set), else the best
    float-feasible candidate with positive surplus, else None.
    """
    sol = solve_riemann(law, left, right)
    ref = selfsim_dissipation(law, sol)
    shocks = [(float(s), float(c)) for s, c in ref.entries]
    if not shocks:
        return None
    sigma, ref_coeff = min(shocks)  # most negative plane carries the target
    ctx = _Context(law, left, right)
    floor = _FLOOR
    opts = {"maxiter": cfg.max_iters, "xatol": 1e-12, "fatol": 1e-15,
            "adaptive": True}

    best: Candidate | None = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(cfg.rng_seed + restart)
        y = _sample_start(rng, ctx, sigma, floor)

        feas = minimize(lambda v: _infeasibility(ctx, sigma, ref_coeff, floor, v),
                        y, method="Nelder-Mead", options=opts)
        if feas.fun > 0.0:
            continue
        y = feas.x
        for tau in (1e-2, 1e-3):
            y = minimize(lambda v: _barrier_score(ctx, sigma, ref_coeff, floor, tau, v),
                         y, method="Nelder-Mead", options=opts).x
        surplus, _ = _margins_at(ctx, sigma, ref_coeff, y)
        if surplus is None or surplus <= 0.0:
            continue
        target = 0.5 * surplus
        y = minimize(lambda v: _retreat_score(ctx, sigma, ref_coeff, floor, target, v),
                     y, method="Nelder-Mead", options=opts).x

        x = _y_to_x(ctx, sigma, y)
        if x is None:
            continue
        cand = _evaluate(Candidate(law, left, right, sigma, x,
                                   seed=cfg.rng_seed + restart), ctx)
        if not cand.feasible:
            continue
        surplus = cand.brackets[1] - ref_coeff
        if surplus <= floor or min(cand.margins.values()) < 0.5 * floor:
            continue
        if best is None or surplus > best.brackets[1] - ref_coeff:
            best = cand
        if certify(cand, cfg) is not None:
            return cand
    return best


def _sample_start(rng: np.random.Generator, ctx: _Context, sigma: float,
                  floor: float) -> np.ndarray:
    rho_m, _, _, q_m = ctx.minus
    rho_p, _, _, q_p = ctx.plus
    lo_q, hi_q = sorted((q_m, q_p))
    span_q = max(hi_q - lo_q, 1.0)
    lo_r, hi_r = sorted((rho_m, rho_p))
    span_mu = max(abs(sigma), 1.0)

    mu0 = sigma - span_mu * rng.uniform(0.05, 1.0)
    mu2 = sigma + span_mu * rng.uniform(0.05, 1.0)
    mu3 = mu2 + span_mu * rng.uniform(0.5, 5.0)
    rho1 = rng.uniform(lo_r, hi_r)
    q1, q2, q3 = (lo_q + span_q * rng.uniform(0.2, 1.3) for _ in range(3))
    b0, b2, b3 = (rng.uniform(floor, 20 * floor) for _ in range(3))
    return np.array([mu0, mu2, mu3, rho1, q1, q2, q3, b0, b2, b3])


# ---------------------------------------------------------------------------
# exact certification
# ---------------------------------------------------------------------------

def certify(cand: Candidate, cfg: SearchConfig) -> FanSubsolution | None:
    """Round the free variables to rationals (denominator cap), pin the
    matched plane to the exact reference shock speed, re-close exactly in
    the tower, and run the full exact verification plus the dissipation
    comparison.  None when any strict inequality is lost in rounding;
    otherwise the fan, also stored with its comparison report on ``cand``."""
    law, left, right = cand.law, cand.left, cand.right
    sol = solve_riemann(law, left, right)
    shock_speeds = [w.speed for w in sol.waves if isinstance(w, Shock)]
    if not sol.exact or not shock_speeds:
        return None
    sigma = min(shock_speeds, key=float)

    cap = cfg.rounding_denominator_cap

    def rnd(v) -> XReal:
        return as_xreal(Fraction(float(v)).limit_denominator(cap))

    mu0, mu2x, mu3x = rnd(cand.x[0]), rnd(cand.x[1]), rnd(cand.x[2])
    rho1 = rnd(cand.x[3])
    q123 = (rnd(cand.x[4]), rnd(cand.x[5]), rnd(cand.x[6]))
    f123 = (rnd(cand.x[7]), rnd(cand.x[8]), rnd(cand.x[9]))
    mu = (mu0, sigma, mu2x, mu3x)

    minus, _ = _boundary(law, left, False)
    plus, _ = _boundary(law, right, False)
    try:
        rhos, m2s, u11s, mu3_chain, residual = chain_close(
            minus, plus, mu, rho1, q123)
        if any(sign(rho) <= 0 for rho in rhos):
            return None
        # both leftover equalities hold by construction of the 2x2 solve
        if sign(mu3_chain - mu3x) != 0 or sign(residual) != 0:
            return None
        zero = as_xreal(0)
        regions = tuple(
            (rho, PHPoint((zero, m2s[i]), u11s[i], zero, q123[i], (zero, f123[i])))
            for i, rho in enumerate(rhos))
        fan = FanSubsolution(law, mu, left, right, regions)
        if not verify_fan(fan).passed:
            return None
        comparison = beats_selfsimilar(fan)
        if not comparison.passed:
            return None
        cand.fan, cand.comparison = fan, comparison
        return fan
    except (DegenerateClosure, Inconclusive, ZeroDivisionError):
        return None
