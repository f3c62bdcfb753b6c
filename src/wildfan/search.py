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
on the reference shock plane.  Each float evaluation is one pass of one
kernel (``_kernel``): it closes the point, takes each region's pressure
power once for its margins and energy, sets the fluxes from the bracket
coordinates and brackets the four planes, and returns the dominance
surplus, the margins, the fluxes and the closure residual.  That kernel
scores every optimizer step and also closes each restart's final point.
Every phase of a restart ends as soon as it is decided: the feasibility
phase at its first feasible point, on a start that closes nowhere or once
100 evaluations cut its best by < 10 %, and each barrier run at its first
point with positive surplus and every margin positive.

The optimizer is this module's adaptive Nelder-Mead (``minimize``) on
Python float lists: it reproduces scipy 1.17.1's, float for float, without
importing scipy, once scipy's argsort breaks ties stably.  The module
imports no numpy: ``_PCG64`` draws the restart starts exactly as numpy's
``default_rng`` does, and ``_order`` breaks ties in the simplex order by
index, so the search bits depend neither on the CPU nor on numpy.

Each Riemann problem is set up once (``_Problem``): the reference solution
and its profile, whose first entry, the most negative shock plane, is the
matched plane, and the lifted boundary values.  Certification rounds the
free variables to rationals of denominator at most 10**12, pins the
matched plane to its exact speed, re-runs the same closure in the
quadratic tower, and runs the full exact verification on the fan it
gives.  That verification decides each Rankine-Hugoniot equality once,
the two the closure solves included.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from fractions import Fraction
from typing import NamedTuple

from .exactnum import Inconclusive, XReal, _is_int, as_xreal, sign
from .fan import FanSubsolution, VerificationReport, compare_selfsimilar, verify_fan
from .model import EulerState, NonPositiveDensity, PHPoint, PressureLaw, Record, lift_state
from .riemann import plane_bracket, selfsim_dissipation, solve_riemann

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
    rng_seed: int

    def __init__(self, restarts=64, rng_seed=0):
        for name, value in (("restarts", restarts), ("rng_seed", rng_seed)):
            if not _is_int(value) or value < 0:
                raise ValueError(f"config {name} must be an integer >= 0, got {value!r}")
            object.__setattr__(self, name, value)


# free-variable layout (symmetric ansatz: the boundary tangential momenta
# vanish, so interior tangential momenta and off-diagonal entries are zero)
_VAR_NAMES = ("mu0", "mu2", "mu3", "rho1", "q1", "q2", "q3", "F12", "F22", "F32")


class Candidate(Record):
    """Float candidate: free variables and their margins, and, on the
    candidate ``search_fan`` returns once it certified, the exact fan built
    from it with its comparison against the self-similar solution."""

    law: PressureLaw
    left: EulerState
    right: EulerState
    sigma: float
    x: tuple[float, ...]
    margins: tuple[tuple[str, float], ...]
    feasible: bool
    seed: int | None
    fan: FanSubsolution | None
    comparison: VerificationReport | None

    def __init__(self, law, left, right, sigma, x, margins=(), feasible=False,
                 seed=None, fan=None, comparison=None):
        super().__init__(law, left, right, sigma, tuple(map(float, x)), tuple(margins),
                         feasible, seed, fan, comparison)

    def to_dict(self) -> dict:
        """Reproducibility dump: seed, pinned speed, free variables."""
        return {
            "seed": self.seed,
            "sigma": self.sigma,
            "variables": {name: float(v) for name, v in zip(_VAR_NAMES, self.x)},
            "margins": {k: float(v) for k, v in self.margins},
            "feasible": self.feasible,
        }


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
# the float kernel and the two phase objectives
# ---------------------------------------------------------------------------

class _Problem:
    """One Riemann problem of the search, set up once: the reference
    solution ``sol``, its profile ``ref`` and the matched plane
    ``ref.entries[0]`` as its exact ``speed`` (None unless ``sol`` is
    exact) and floats ``sigma``, ``ref_coeff`` (None without a shock);
    the float ``gamma`` of the law; the lifted boundary values, exact and
    as the floats the search reads."""

    def __init__(self, law: PressureLaw, left: EulerState, right: EulerState):
        self.sol = solve_riemann(law, left, right)
        self.ref = selfsim_dissipation(law, self.sol)
        self.speed = self.sigma = self.ref_coeff = None
        if self.ref.entries:
            speed, coeff = self.ref.entries[0]
            self.speed = speed if self.sol.exact else None
            self.sigma, self.ref_coeff = float(speed), float(coeff)
        self.gamma = float(law.gamma)
        (z_m, e_m), (z_p, e_p) = lift_state(law, left), lift_state(law, right)
        self.exact_minus = (left.rho, z_m.m[1], z_m.u11, z_m.q)
        self.exact_plus = (right.rho, z_p.m[1], z_p.u11, z_p.q)
        self.minus = tuple(map(float, self.exact_minus))
        self.plus = tuple(map(float, self.exact_plus))
        self.f_m, self.e_m, self.f_p, self.e_p = map(float, (z_m.F[1], e_m, z_p.F[1], e_p))


# Margin names, in the order the float kernel returns the margins.
_MARGINS = ("ord0", "ord1", "ord2", "rho1", "rho2", "rho3", "trace1", "det1",
            "trace2", "det2", "trace3", "det3", "rh4_0", "rh4_1", "rh4_2", "rh4_3")

# The optimizer works in "bracket coordinates": the three energy-flux
# fluxes are replaced by the bracket values on the outer planes, which
# makes the dominance target a directly controlled quantity.  The total
# plane-dissipation budget is fixed by the speeds and trace caps alone
# (the flux chain telescopes), so maximizing the matched-plane bracket
# means maximizing the budget while the outer brackets sit at the floor.
#
# Float sums fold left to right from 0.0 (the kernel's budget, each column
# of ``minimize``'s centroid), as scipy's add.reduce(sim[:-1], 0) does: it
# starts each column at add's identity 0.0 (a column of -0.0 sums to +0.0)
# and adds the rows in order.  The builtin sum() adds so on 3.11 only; from
# 3.12 it compensates.

def _kernel(prob: _Problem, y):
    """(surplus, margins, fluxes, residual) at the bracket-coordinate point
    y (mu0, mu2, mu3, rho1, q1..q3, b0, b2, b3), closed by ``chain_close``
    with the matched plane at sigma: the dominance surplus, the margins as
    a tuple in ``_MARGINS`` order (speed ordering, densities, then trace
    and determinant per region, as -tr M and det M of the region's M, and
    the energy-flux brackets -mu[E] + [F2] per plane last), the fluxes
    (F12, F22, F32) that put the outer-plane brackets at (b0, b2, b3), and
    the absolute closure residual; None when the closure degenerates or a
    density is not positive.  The last plane moves at the chained mu3.  The
    region energies are e = q + P - p, with P as ``model.pressure_potential``
    defines it, from one power rho ** gamma per region."""
    mu0, mu2, mu3, rho1, q1, q2, q3, b0, b2, b3 = y
    sigma = prob.sigma
    try:
        rhos, (a1, a2, a3), (u1, u2, u3), mu3_chain, residual = chain_close(
            prob.minus, prob.plus, (mu0, sigma, mu2, mu3), rho1, (q1, q2, q3))
    except DegenerateClosure:
        return None
    if min(rhos) <= 0.0:
        return None

    gamma = prob.gamma
    r1, r2, r3 = rhos
    p1, p2, p3 = r1 ** gamma, r2 ** gamma, r3 ** gamma
    k1, k2, k3 = a1 ** 2 / r1, a2 ** 2 / r2, a3 ** 2 / r3
    if gamma == 1.0:
        P1, P2, P3 = r1 * math.log(r1), r2 * math.log(r2), r3 * math.log(r3)
    else:
        P1, P2, P3 = p1 / (gamma - 1.0), p2 / (gamma - 1.0), p3 / (gamma - 1.0)
    e0, e1, e2, e3, e4 = prob.e_m, q1 + P1 - p1, q2 + P2 - p2, q3 + P3 - p3, prob.e_p

    f_m, f_p = prob.f_m, prob.f_p
    budget = f_m - f_p - (0.0 + mu0 * (e0 - e1) + sigma * (e1 - e2)
                          + mu2 * (e2 - e3) + mu3 * (e3 - e4))
    b1 = budget - b0 - b2 - b3
    f3 = b3 + mu3 * (e3 - e4) + f_p
    f2 = b2 + mu2 * (e2 - e3) + f3
    f1 = b1 + sigma * (e1 - e2) + f2
    matched = plane_bracket(sigma, e1, e2, f1, f2)
    return (matched - prob.ref_coeff,
            (sigma - mu0, mu2 - sigma, mu3 - mu2, r1, r2, r3,
             -(k1 + 2.0 * (p1 - q1)), (-u1 + p1 - q1) * (k1 + u1 + p1 - q1),
             -(k2 + 2.0 * (p2 - q2)), (-u2 + p2 - q2) * (k2 + u2 + p2 - q2),
             -(k3 + 2.0 * (p3 - q3)), (-u3 + p3 - q3) * (k3 + u3 + p3 - q3),
             plane_bracket(mu0, e0, e1, f_m, f1), matched,
             plane_bracket(mu2, e2, e3, f2, f3), plane_bracket(mu3_chain, e3, e4, f3, f_p)),
            (f1, f2, f3), abs(residual))


def _infeasibility(prob, y) -> float:
    point = _kernel(prob, y)
    if point is None:
        return 1e6
    floor, total = _FLOOR, 0.0
    for m in point[1]:
        if not m >= floor:  # NaN falls short too: only a feasible point scores 0.0
            total += (floor - m) ** 2
    return total


def _feasibility(prob, n: int):
    """``_infeasibility`` as the phase-1 objective over n variables.  It raises
    ``_Stop`` at the first 0.0, where a full run ends too (ties keep index
    order); else, with the best point so far (the first of tied scores),
    once the n + 1 start vertices all score the 1e6 sentinel or
    _STALL_WINDOW evaluations cut the best by < 10 %: ``trail`` holds the
    best as it stood after each of the last _STALL_WINDOW + 1 evaluations."""
    best_f, best_y, k, closed = math.inf, None, 0, False
    trail = deque(maxlen=_STALL_WINDOW + 1)

    def score(y):
        nonlocal best_f, best_y, k, closed
        f = _infeasibility(prob, y)
        k += 1
        if f < best_f:
            best_f, best_y = f, y
        trail.append(best_f)
        closed = closed or f != 1e6
        if (f == 0.0 or (k == n + 1 and not closed)
                or (k > _STALL_WINDOW and not best_f < 0.9 * trail[0])):
            raise _Stop(best_y, best_f, k)
        return f
    return score


def _barrier_score(prob, tau, y) -> tuple[float, float]:
    """(score, surplus): the point's barrier score at weight tau, and its
    float surplus, -inf where the point does not close."""
    point = _kernel(prob, y)
    if point is None:
        return 1e9, -math.inf
    surplus, margins = point[:2]
    barrier, log = 0.0, math.log
    for m in margins:
        if m <= 0.0:
            return 1e7, surplus
        r = m / _FLOOR
        barrier -= log(1e6 if 1e6 < r else r)  # min(r, 1e6), NaN included
    return -surplus + tau * barrier, surplus


def _barrier(prob, tau: float):
    """The score of ``_barrier_score`` at weight tau as a barrier-phase
    objective.  It raises ``_Stop`` at its first point with every margin
    positive (a score below 1e7) and positive float surplus."""
    k = 0

    def score(y):
        nonlocal k
        k += 1
        f, surplus = _barrier_score(prob, tau, y)
        if f < 1e7 and surplus > 0.0:
            raise _Stop(y, f, k)
        return f
    return score


# ---------------------------------------------------------------------------
# adaptive Nelder-Mead
# ---------------------------------------------------------------------------

class _Result(NamedTuple):
    """The fields of scipy's OptimizeResult that the search reads."""

    x: list
    fun: float
    nfev: int
    nit: int


class _Stop(Exception):
    """(x, f, nfev): ends ``minimize`` at x, scored f by evaluation nfev."""


def _order(sim: list, fsim: list):
    """(sim, fsim, distinct): the simplex sorted by value, tied values in
    index order and NaN last: numpy's argsort order with kind="stable",
    which does not depend on the CPU.  scipy's default argsort picks its
    tie order by CPU feature, and the phase-1 plateaus (0.0 and 1e6) do
    tie, so scipy matches ``minimize`` only with a stable argsort."""
    ind = sorted(range(len(fsim)), key=lambda i: (fsim[i] != fsim[i], fsim[i]))
    f = [fsim[i] for i in ind]
    return [sim[i] for i in ind], f, all(a < b for a, b in zip(f, f[1:]))


_XATOL, _FATOL = 1e-12, 1e-15


def minimize(fun, x0, maxiter: int) -> _Result:
    """Adaptive Nelder-Mead (Gao & Han, Comput. Optim. Appl. 51, 2012) on
    Python float lists.

    Runs scipy 1.17.1's ``minimize(fun, x0, method="Nelder-Mead",
    options={"maxiter": maxiter, "xatol": 1e-12, "fatol": 1e-15,
    "adaptive": True})`` in the same operation order (initial simplex,
    centroid with each column folded from 0.0 top row first, as numpy's
    add.reduce adds, comparisons, simplex order), so x, fun, nfev and nit
    come out bit for bit the same.  Each step folds the centroid and forms
    the reflected point in one pass, and reuses that centroid.
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
    nit = 1
    try:
        fsim = [fun(x) for x in sim]
        nfev = n + 1
        sim, fsim, distinct = _order(sim, fsim)
        while nit < maxiter:
            best, fbest = sim[0], fsim[0]
            # fsim is sorted with any NaN last, so its largest |fsim[0] - f|
            # is the last one's
            if (abs(fbest - fsim[-1]) <= _FATOL
                    and all(abs(a - b) <= _XATOL for x in sim[1:] for a, b in zip(x, best))):
                break
            # centroid of all but the worst vertex, and the reflection
            rows, worst = sim[:-1], sim[-1]
            xbar, xr = [], []
            for j, w in enumerate(worst):
                s = 0.0
                for x in rows:
                    s += x[j]
                b = s / n
                xbar.append(b)
                xr.append(2 * b - w)
            fxr = fun(xr)
            nfev += 1
            shrunk = False
            if fxr < fbest:
                xe = [(1 + chi) * b - chi * w for b, w in zip(xbar, worst)]
                fxe = fun(xe)
                nfev += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
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
    except _Stop as stop:
        return _Result(*stop.args, nit)
    # scipy's min of fsim: NaN when any value is NaN
    fmin = fsim[0] if all(f == f for f in fsim) else math.nan
    return _Result(sim[0], fmin, nfev, nit)


# ---------------------------------------------------------------------------
# search driver
# ---------------------------------------------------------------------------

_FLOOR = 2e-4
_MAX_ITERS = 4000
_STALL_WINDOW = 100  # phase 1 stalls once this many evaluations cut its best by < 10 %
# largest denominator certification rounds a float variable to
_DENOMINATOR_CAP = 10 ** 12


def search_fan(law: PressureLaw, left: EulerState, right: EulerState,
               cfg: SearchConfig) -> Candidate | None:
    """Multi-restart derivative-free search over the free variables.

    Each restart runs two Nelder-Mead phases: drive all strict margins
    above a floor, then push the dominance surplus up behind a
    logarithmic barrier (at two weights); each phase ends once decided
    (``_feasibility``, ``_barrier``): a barrier run ends at its first point
    with positive float surplus and every margin positive.  The barrier
    point, if it closes and has positive float surplus, goes to exact
    certification, which alone decides the strict inequalities.
    Deterministic in cfg.rng_seed: restart k draws from seed rng_seed + k.
    Returns the first candidate that certifies exactly (its ``fan`` and
    ``comparison`` are set), else the best float-feasible candidate with
    positive surplus, else None (at once when the reference has no shock).
    """
    prob = _Problem(law, left, right)
    if prob.sigma is None:
        return None

    best: Candidate | None = None
    best_surplus = 0.0
    for restart in range(cfg.restarts):
        y = _sample_start(_PCG64(cfg.rng_seed + restart), prob)

        feas = minimize(_feasibility(prob, len(y)), y, _MAX_ITERS)
        if feas.fun > 0.0:
            continue
        y = feas.x
        for tau in (1e-2, 1e-3):
            y = minimize(_barrier(prob, tau), y, _MAX_ITERS).x
        # the barrier phase starts feasible and scores a point with any
        # nonpositive margin 1e7, so every margin is positive here; the
        # float tests only screen what the exact certifier decides
        point = _kernel(prob, y)
        if point is None:
            continue
        surplus, margins, fluxes, residual = point
        if not (residual < 1e-7 and surplus > 0.0):
            continue
        fields = (law, left, right, prob.sigma, (*y[:7], *fluxes),
                  tuple(zip(_MARGINS, margins)), True, cfg.rng_seed + restart)
        cand = Candidate(*fields)
        if surplus > best_surplus:  # surplus > 0.0: the first one wins
            best, best_surplus = cand, surplus
        certified = _certify(cand, prob)
        if certified is not None:
            return Candidate(*fields, *certified)
    return best


class _PCG64:
    """numpy's ``default_rng(seed).uniform(a, b)``, bit for bit, in pure
    Python: SeedSequence's hash mixing of the seed's 32-bit words into a
    4-word pool, expanded to four 64-bit words that seed PCG64, a 128-bit
    LCG with XSL-RR output (O'Neill, HMC-CS-2014-0905); each draw scales
    the top 53 bits of one output to [0, 1)."""

    _MULT = 0x2360ED051FC65DA44385DF649FCCF645
    _M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1

    def __init__(self, seed: int) -> None:
        m32 = self._M32
        words = [seed & m32]  # the seed's 32-bit words, lowest first
        while seed >> 32:
            seed >>= 32
            words.append(seed & m32)
        const = 0x43B0D7E5

        def hashmix(value: int) -> int:
            nonlocal const
            value ^= const
            const = const * 0x931E8875 & m32
            value = value * const & m32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * y) & m32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state: eight 32-bit words, paired into 64-bit ones
        const, out = 0x8B51F9DD, []
        for i in range(8):
            value = pool[i % 4] ^ const
            const = const * 0x58F38DED & m32
            value = value * const & m32
            out.append(value ^ value >> 16)
        s0, s1, s2, s3 = (out[k] | out[k + 1] << 32 for k in range(0, 8, 2))
        self._inc = ((s2 << 64 | s3) << 1 | 1) & self._M128
        self._state = ((self._inc + (s0 << 64 | s1)) * self._MULT + self._inc) & self._M128

    def uniform(self, a: float, b: float) -> float:
        state = self._state = (self._state * self._MULT + self._inc) & self._M128
        word = ((state >> 64) ^ state) & self._M64
        rot = state >> 122
        word = (word >> rot | word << (64 - rot)) & self._M64
        return a + (b - a) * ((word >> 11) * 2.0 ** -53)


def _sample_start(rng: _PCG64, prob: _Problem) -> list:
    rho_m, _, _, q_m = prob.minus
    rho_p, _, _, q_p = prob.plus
    lo_q, hi_q = sorted((q_m, q_p))
    span_q = max(hi_q - lo_q, 1.0)
    lo_r, hi_r = sorted((rho_m, rho_p))
    span_mu = max(abs(prob.sigma), 1.0)

    mu0 = prob.sigma - span_mu * rng.uniform(0.05, 1.0)
    mu2 = prob.sigma + span_mu * rng.uniform(0.05, 1.0)
    mu3 = mu2 + span_mu * rng.uniform(0.5, 5.0)
    rho1 = rng.uniform(lo_r, hi_r)
    q1, q2, q3 = (lo_q + span_q * rng.uniform(0.2, 1.3) for _ in range(3))
    b0, b2, b3 = (rng.uniform(_FLOOR, 20 * _FLOOR) for _ in range(3))
    return [mu0, mu2, mu3, rho1, q1, q2, q3, b0, b2, b3]


# ---------------------------------------------------------------------------
# exact certification
# ---------------------------------------------------------------------------

def certify(cand: Candidate, cfg: SearchConfig) -> FanSubsolution | None:
    """Round the free variables to rationals of denominator at most
    ``_DENOMINATOR_CAP``, pin the matched plane to the exact reference
    shock speed, re-close exactly in the tower, and run the full exact
    verification plus the dissipation comparison.  None when any strict
    inequality is lost in rounding; otherwise the fan.  ``cand`` is left
    as it is.  Nothing in ``cfg`` changes the result: its fields steer the
    restarts of ``search_fan`` only."""
    certified = _certify(cand, _Problem(cand.law, cand.left, cand.right))
    return None if certified is None else certified[0]


def _certify(cand: Candidate, prob: _Problem) -> tuple[FanSubsolution, VerificationReport] | None:
    """``certify`` on the problem ``prob`` of cand's law and boundary
    states, which ``search_fan`` sets up once: the fan with its comparison
    report; None as well when the reference is not exact or has no shock."""
    if prob.speed is None:
        return None

    def rnd(v) -> XReal:
        return as_xreal(Fraction(float(v)).limit_denominator(_DENOMINATOR_CAP))

    mu0, mu2x, mu3x = rnd(cand.x[0]), rnd(cand.x[1]), rnd(cand.x[2])
    rho1 = rnd(cand.x[3])
    q123 = (rnd(cand.x[4]), rnd(cand.x[5]), rnd(cand.x[6]))
    f123 = (rnd(cand.x[7]), rnd(cand.x[8]), rnd(cand.x[9]))
    mu = (mu0, prob.speed, mu2x, mu3x)

    try:
        # the chained mu3 and the residual are not read: over exact numbers
        # the 2x2 solve makes them mu3x and 0, and verify_fan decides the
        # two equalities behind them as rh_mass[3] and rh_normal[3]
        rhos, m2s, u11s, _, _ = chain_close(prob.exact_minus, prob.exact_plus, mu, rho1, q123)
        zero = as_xreal(0)
        regions = tuple(
            (rho, PHPoint((zero, m2s[i]), u11s[i], zero, q123[i], (zero, f123[i])))
            for i, rho in enumerate(rhos))
        fan = FanSubsolution(cand.law, mu, cand.left, cand.right, regions)
        if not verify_fan(fan).passed:
            return None
        comparison = compare_selfsimilar(fan, (prob.sol, prob.ref))[0]
        if not comparison.passed:
            return None
        return fan, comparison
    except (DegenerateClosure, Inconclusive, NonPositiveDensity, ZeroDivisionError):
        return None
