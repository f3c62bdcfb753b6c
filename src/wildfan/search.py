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
on the reference shock plane.  Each float evaluation closes its point once,
in one kernel that returns the dominance surplus, the margins, the fluxes
and the closure residual.  That kernel scores every optimizer step and also
closes each restart's final point.

The optimizer is this module's adaptive Nelder-Mead (``minimize``) on
Python float lists: it reproduces scipy 1.17.1's, float for float, without
importing scipy.  numpy is needed only for the seeded restart draws and for
``np.argsort`` on tied simplex values.

Certification rounds the free variables to small rationals, pins the
matched plane speed to the exact reference shock speed, re-runs the same
closure in the quadratic tower, checks exactly that the chained last speed
and the leftover residual reproduce the rounded speed and zero, and re-runs
the full exact verification.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from operator import add
from typing import NamedTuple

import numpy as np

from .exactnum import Inconclusive, XReal, _is_int, as_xreal, sign
from .fan import FanSubsolution, VerificationReport, beats_selfsimilar, verify_fan
from .model import EulerState, PHPoint, PressureLaw, Record, lift_state
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


class SearchConfig(Record):
    restarts: int
    rounding_denominator_cap: int
    rng_seed: int

    def __init__(self, restarts=64, rounding_denominator_cap=10 ** 12, rng_seed=0):
        for name, value, least in (("restarts", restarts, 0),
                                   ("rounding_denominator_cap", rounding_denominator_cap, 1),
                                   ("rng_seed", rng_seed, 0)):
            if not _is_int(value) or value < least:
                raise ValueError(f"config {name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, value)


# free-variable layout (symmetric ansatz: the boundary tangential momenta
# vanish, so interior tangential momenta and off-diagonal entries are zero)
_VAR_NAMES = ("mu0", "mu2", "mu3", "rho1", "q1", "q2", "q3", "F12", "F22", "F32")


class Candidate(Record, frozen=False):
    """Float candidate: free variables and their margins, and the exact fan
    that ``certify`` built from it with its comparison against the
    self-similar solution, if it certified."""

    law: PressureLaw
    left: EulerState
    right: EulerState
    sigma: float
    x: np.ndarray
    margins: dict
    feasible: bool
    seed: int | None
    fan: FanSubsolution | None
    comparison: VerificationReport | None

    def __init__(self, law, left, right, sigma, x, margins=None, feasible=False,
                 seed=None, fan=None, comparison=None):
        self.law, self.left, self.right, self.sigma, self.x = law, left, right, sigma, x
        self.margins = {} if margins is None else margins
        self.feasible, self.seed, self.fan, self.comparison = feasible, seed, fan, comparison

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
# the float closure
# ---------------------------------------------------------------------------

class _Context:
    """Boundary data of one Riemann problem, computed once: the exact
    lifted values (rho, m2, u11, q) for certification, and their floats
    with the boundary F2 and energies and the float pressure callables
    for the search."""

    def __init__(self, law: PressureLaw, left: EulerState, right: EulerState):
        self.p, self.P = _float_law(law)
        (z_m, e_m), (z_p, e_p) = lift_state(law, left), lift_state(law, right)
        self.exact_minus = (left.rho, z_m.m[1], z_m.u11, z_m.q)
        self.exact_plus = (right.rho, z_p.m[1], z_p.u11, z_p.q)
        self.minus = tuple(map(float, self.exact_minus))
        self.plus = tuple(map(float, self.exact_plus))
        self.f_m, self.e_m, self.f_p, self.e_p = map(float, (z_m.F[1], e_m, z_p.F[1], e_p))


# Margin names, in the order the float kernel returns the margins.
_MARGINS = ("ord0", "ord1", "ord2", "rho1", "rho2", "rho3", "trace1", "det1",
            "trace2", "det2", "trace3", "det3", "rh4_0", "rh4_1", "rh4_2", "rh4_3")


def _close_floats(ctx: _Context, sigma: float, v):
    """Close the float point whose first seven coordinates are (mu0, mu2,
    mu3, rho1, q1, q2, q3).

    Returns (mu, e, margins, residual): the speeds with the chained mu3,
    the region energies between the boundary ones, the ordering, density,
    trace and determinant margins in ``_MARGINS`` order, and the absolute
    closure residual.  None when the closure degenerates or a density is
    not positive.
    """
    mu0, mu2, mu3, rho1, q1, q2, q3 = v[:7]
    try:
        rhos, m2s, u11s, mu3_chain, residual = chain_close(
            ctx.minus, ctx.plus, (mu0, sigma, mu2, mu3), rho1, (q1, q2, q3))
    except DegenerateClosure:
        return None
    if min(rhos) <= 0.0:
        return None

    p, P = ctx.p, ctx.P
    r1, r2, r3 = rhos
    (a1, a2, a3), (u1, u2, u3) = m2s, u11s
    p1, p2, p3 = p(r1), p(r2), p(r3)
    k1, k2, k3 = a1 ** 2 / r1, a2 ** 2 / r2, a3 ** 2 / r3
    margins = [sigma - mu0, mu2 - sigma, mu3 - mu2, r1, r2, r3,
               -(k1 + 2.0 * (p1 - q1)), (-u1 + p1 - q1) * (k1 + u1 + p1 - q1),
               -(k2 + 2.0 * (p2 - q2)), (-u2 + p2 - q2) * (k2 + u2 + p2 - q2),
               -(k3 + 2.0 * (p3 - q3)), (-u3 + p3 - q3) * (k3 + u3 + p3 - q3)]
    e = (ctx.e_m, q1 + P(r1) - p1, q2 + P(r2) - p2, q3 + P(r3) - p3, ctx.e_p)
    return (mu0, sigma, mu2, mu3_chain), e, margins, abs(residual)


# ---------------------------------------------------------------------------
# the float kernel and the three phase objectives
# ---------------------------------------------------------------------------

# The optimizer works in "bracket coordinates": the three energy-flux
# fluxes are replaced by the bracket values on the outer planes, which
# makes the dominance target a directly controlled quantity.  The total
# plane-dissipation budget is fixed by the speeds and trace caps alone
# (the flux chain telescopes), so maximizing the matched-plane bracket
# means maximizing the budget while the outer brackets sit at the floor.
#
# Float sums run left to right from 0.0, as the builtin sum() adds on
# Python 3.11; from 3.12 sum() compensates, which would move the bits.

def _fluxes(ctx: _Context, sigma: float, y, e):
    """(F12, F22, F32) putting the outer-plane brackets of the closed point
    y at its bracket coordinates (b0, b2, b3)."""
    mu0, mu2, mu3, b0, b2, b3 = y[0], y[1], y[2], y[7], y[8], y[9]
    budget = ctx.f_m - ctx.f_p - (0.0 + mu0 * (e[0] - e[1]) + sigma * (e[1] - e[2])
                                  + mu2 * (e[2] - e[3]) + mu3 * (e[3] - e[4]))
    b1 = budget - b0 - b2 - b3
    f3 = b3 + mu3 * (e[3] - e[4]) + ctx.f_p
    f2 = b2 + mu2 * (e[2] - e[3]) + f3
    f1 = b1 + sigma * (e[1] - e[2]) + f2
    return f1, f2, f3


def _kernel(ctx: _Context, sigma: float, ref_coeff: float, y):
    """(surplus, margins, fluxes, residual) at the bracket-coordinate point
    y (mu0, mu2, mu3, rho1, q1..q3, b0, b2, b3): the dominance surplus, the
    margins as a tuple in ``_MARGINS`` order (the energy-flux brackets
    -mu[E] + [F2] per plane last), the fluxes (F12, F22, F32) and the
    absolute closure residual; None when the point does not close with
    positive densities."""
    closed = _close_floats(ctx, sigma, y)
    if closed is None:
        return None
    mu, e, margins, residual = closed
    f1, f2, f3 = fluxes = _fluxes(ctx, sigma, y, e)
    brackets = (plane_bracket(mu[0], e[0], e[1], ctx.f_m, f1),
                plane_bracket(mu[1], e[1], e[2], f1, f2),
                plane_bracket(mu[2], e[2], e[3], f2, f3),
                plane_bracket(mu[3], e[3], e[4], f3, ctx.f_p))
    return brackets[1] - ref_coeff, (*margins, *brackets), fluxes, residual


def _infeasibility(ctx, sigma, ref_coeff, floor, y) -> float:
    point = _kernel(ctx, sigma, ref_coeff, y)
    if point is None:
        return 1e6
    total = 0.0
    for m in point[1]:
        if m < floor:
            total += (floor - m) ** 2
    return total


def _barrier_score(ctx, sigma, ref_coeff, floor, tau, y) -> float:
    point = _kernel(ctx, sigma, ref_coeff, y)
    if point is None:
        return 1e9
    surplus, margins = point[:2]
    barrier = 0.0
    for m in margins:
        if m <= 0.0:
            return 1e7
        barrier -= math.log(min(m / floor, 1e6))
    return -surplus + tau * barrier


def _retreat_score(ctx, sigma, ref_coeff, floor, target, y) -> float:
    point = _kernel(ctx, sigma, ref_coeff, y)
    if point is None:
        return 1e9
    surplus, margins = point[:2]
    if surplus < target:
        return 1e6 * (1.0 + (target - surplus))
    return -min(min(margins), 100.0 * floor)


# ---------------------------------------------------------------------------
# adaptive Nelder-Mead
# ---------------------------------------------------------------------------

class _Result(NamedTuple):
    """The fields of scipy's OptimizeResult that the search reads."""

    x: list
    fun: float
    nfev: int
    nit: int


def _order(sim: list, fsim: list):
    """(sim, fsim, distinct): the simplex sorted by value in the order
    np.argsort(fsim) gives.  A plain sort gives that order only when the
    values are distinct and none is NaN; otherwise np.argsort decides,
    since its tie order is not a stable sort's, and the phase-1 plateaus
    (0.0 and 1e6) do tie."""
    ind = sorted(range(len(fsim)), key=fsim.__getitem__)
    f = [fsim[i] for i in ind]
    distinct = all(a < b for a, b in zip(f, f[1:]))
    if not distinct:
        ind = np.argsort(fsim).tolist()
        f = [fsim[i] for i in ind]
    return [sim[i] for i in ind], f, distinct


_XATOL, _FATOL = 1e-12, 1e-15


def minimize(fun, x0, maxiter: int) -> _Result:
    """Adaptive Nelder-Mead (Gao & Han, Comput. Optim. Appl. 51, 2012) on
    Python float lists.

    Runs scipy 1.17.1's ``minimize(fun, x0, method="Nelder-Mead",
    options={"maxiter": maxiter, "xatol": 1e-12, "fatol": 1e-15,
    "adaptive": True})`` in the same operation order (initial simplex,
    centroid as a column sum from 0.0 row by row, comparisons, simplex
    order), so x, fun, nfev and nit come out bit for bit the same.
    """
    n = len(x0)
    dim = float(n)
    chi, psi, shrink = 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    x0 = [float(v) for v in x0]
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [fun(x) for x in sim]
    nfev = n + 1
    sim, fsim, _ = _order(sim, fsim)
    sim, fsim, distinct = _order(sim, fsim)  # scipy sorts twice here
    zero = [0.0] * n
    nit = 1
    while nit < maxiter:
        best, fbest = sim[0], fsim[0]
        # fsim is sorted with any NaN last, so its largest |fsim[0] - f|
        # is the last one's
        if (abs(fbest - fsim[-1]) <= _FATOL
                and all(abs(a - b) <= _XATOL for x in sim[1:] for a, b in zip(x, best))):
            break
        # column sums of all but the worst vertex, row by row from 0.0
        sums = zero
        for x in sim[:-1]:
            sums = map(add, sums, x)
        sums = list(sums)
        worst = sim[-1]
        xr = [2 * (s / n) - w for s, w in zip(sums, worst)]
        fxr = fun(xr)
        nfev += 1
        shrunk = False
        if fxr < fbest:
            xbar = [s / n for s in sums]
            xe = [(1 + chi) * b - chi * w for b, w in zip(xbar, worst)]
            fxe = fun(xe)
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            xbar = [s / n for s in sums]
            if fxr < fsim[-1]:  # outside contraction
                xc = [(1 + psi) * b - psi * w for b, w in zip(xbar, worst)]
                fxc = fun(xc)
                shrunk = not fxc <= fxr
            else:  # inside contraction
                xc = [(1 - psi) * b + psi * w for b, w in zip(xbar, worst)]
                fxc = fun(xc)
                shrunk = not fxc < fsim[-1]
            nfev += 1
            if not shrunk:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = [b + shrink * (v - b) for b, v in zip(best, sim[j])]
                    fsim[j] = fun(sim[j])
                nfev += n
        nit += 1
        # only the last vertex is new unless the simplex shrank: insert it
        f = fsim[-1]
        i = bisect_left(fsim, f, 0, n)
        if distinct and not shrunk and f == f and (i == n or fsim[i] != f):
            sim.insert(i, sim.pop())
            fsim.insert(i, fsim.pop())
        else:
            sim, fsim, distinct = _order(sim, fsim)
    # np.min(fsim): NaN when any value is NaN
    fmin = fsim[0] if all(f == f for f in fsim) else math.nan
    return _Result(sim[0], fmin, nfev, nit)


# ---------------------------------------------------------------------------
# search driver
# ---------------------------------------------------------------------------

_FLOOR = 2e-4
_MAX_ITERS = 4000


def _exact_sigma(sol) -> XReal | None:
    """Exact speed of the most negative reference shock; None when the
    solution is not exact or has no shock."""
    shock_speeds = [w.speed for w in sol.waves if isinstance(w, Shock)]
    if not sol.exact or not shock_speeds:
        return None
    return min(shock_speeds, key=float)


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
    sigma_exact = _exact_sigma(sol)
    ctx = _Context(law, left, right)
    floor = _FLOOR

    best: Candidate | None = None
    best_surplus = 0.0
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(cfg.rng_seed + restart)
        y = _sample_start(rng, ctx, sigma, floor)

        feas = minimize(lambda v: _infeasibility(ctx, sigma, ref_coeff, floor, v),
                        y, _MAX_ITERS)
        if feas.fun > 0.0:
            continue
        y = feas.x
        for tau in (1e-2, 1e-3):
            y = minimize(lambda v: _barrier_score(ctx, sigma, ref_coeff, floor, tau, v),
                         y, _MAX_ITERS).x
        point = _kernel(ctx, sigma, ref_coeff, y)
        if point is None or point[0] <= 0.0:
            continue
        target = 0.5 * point[0]
        y = minimize(lambda v: _retreat_score(ctx, sigma, ref_coeff, floor, target, v),
                     y, _MAX_ITERS).x

        point = _kernel(ctx, sigma, ref_coeff, y)
        if point is None:
            continue
        surplus, margins, fluxes, residual = point
        if not (residual < 1e-7 and surplus > floor and min(margins) >= 0.5 * floor):
            continue
        cand = Candidate(law, left, right, sigma, np.array([*y[:7], *fluxes]),
                         margins=dict(zip(_MARGINS, margins)), feasible=True,
                         seed=cfg.rng_seed + restart)
        if surplus > best_surplus:  # surplus > floor > 0: the first one wins
            best, best_surplus = cand, surplus
        if sigma_exact is not None and _certify(cand, cfg, sigma_exact, ctx) is not None:
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
    sigma = _exact_sigma(solve_riemann(cand.law, cand.left, cand.right))
    if sigma is None:
        return None
    return _certify(cand, cfg, sigma, _Context(cand.law, cand.left, cand.right))


def _certify(cand: Candidate, cfg: SearchConfig, sigma: XReal,
             ctx: _Context) -> FanSubsolution | None:
    """``certify`` against the exact shock speed and the exact boundary
    values the caller already has (``search_fan`` computes them once)."""
    law, left, right = cand.law, cand.left, cand.right
    cap = cfg.rounding_denominator_cap

    def rnd(v) -> XReal:
        return as_xreal(Fraction(float(v)).limit_denominator(cap))

    mu0, mu2x, mu3x = rnd(cand.x[0]), rnd(cand.x[1]), rnd(cand.x[2])
    rho1 = rnd(cand.x[3])
    q123 = (rnd(cand.x[4]), rnd(cand.x[5]), rnd(cand.x[6]))
    f123 = (rnd(cand.x[7]), rnd(cand.x[8]), rnd(cand.x[9]))
    mu = (mu0, sigma, mu2x, mu3x)

    try:
        rhos, m2s, u11s, mu3_chain, residual = chain_close(
            ctx.exact_minus, ctx.exact_plus, mu, rho1, q123)
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
