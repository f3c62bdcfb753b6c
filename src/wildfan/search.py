"""Numerical discovery of dominating fan subsolutions with exact
rational certification.

The Rankine-Hugoniot equalities are eliminated by construction, in one
closure (``chain_close``) that works verbatim over floats and over exact
numbers.  Given the four speeds and the first density, the last mass
condition and the telescoped normal-momentum condition are linear in the
two middle densities, with determinant (mu1-mu2)(mu3-mu2)(mu3-mu1); the
closure solves them, then chains the normal momenta and v = u11 - q forward
from the left boundary.  No region's density, normal momentum or v depends
on the trace caps q, so the closure takes none, and four variables decide
dominance: the speed gaps d0, d2, d3 around the matched plane and the first
density.  Given them, each region is negative definite exactly when one
quantity c_i is positive and its q_i clears a bound, and the matched
bracket falls in each q_i and in each outer bracket, so the other six
variables take their best values in closed form.

A restart is one Nelder-Mead phase over z = (ln d0, ln d2, ln d3, ln rho1),
from a start drawn by ``random.Random(rng_seed + restart)`` near the
weak-shock optimum.  Each evaluation runs one pass of one kernel
(``_kernel``): it closes the point once, at q = 0, fills in the other six
variables, takes each region's pressure power once, and returns the score,
the dominance surplus and the ten variables.  The phase ends at its first
point with a negative score (positive surplus and every c_i above a gap),
or after 150 iterations.  No float copy of the exact conditions screens
that point: exact certification alone decides every strict inequality.

The optimizer is this module's adaptive Nelder-Mead (``minimize``) on
Python float lists: it reproduces scipy 1.17.1's, float for float, without
importing scipy, once scipy's argsort breaks ties stably.  The module
imports no numpy, and ``_order`` breaks ties in the simplex order by
index, so the search bits depend neither on the CPU nor on numpy.

Each Riemann problem is set up once (``_Problem``): the reference solution
and its profile, whose first entry, the most negative shock plane, is the
matched plane, and the lifted boundary values.  Certification reads the ten
floats of the searched point exactly, pins the matched plane to its exact
speed, re-runs the same closure at q = 0 in the quadratic tower, sets
u11 = v + q in each region, and runs the full exact verification on the
fan it gives.  That verification decides each Rankine-Hugoniot equality
once, the two the closure solves included, and the comparison reuses the
problem's reference profile and the plane brackets the verification
computed on the fan.  ``search_fan`` puts the fan it certified, with its
comparison, on the candidate it returns; no other code puts a fan on a
candidate, so ``certify`` returns that fan and certifies nothing twice.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from typing import NamedTuple

from .exactnum import Inconclusive, _is_int, as_xreal, sign
from .fan import FanSubsolution, VerificationReport, compare_selfsimilar, verify_fan
from .model import EulerState, NonPositiveDensity, PHPoint, PressureLaw, Record, lift_state
from .riemann import Shock, _sound_speed, plane_bracket, selfsim_dissipation, solve_riemann

__all__ = [
    "SearchConfig",
    "Candidate",
    "DegenerateClosure",
    "chain_close",
    "search_fan",
    "certify",
]


class DegenerateClosure(ZeroDivisionError):
    """Closure division degenerates (coincident speeds)."""


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
    """Float candidate: its free variables and, on the candidate
    ``search_fan`` returns once it certified, the exact fan built from them
    with its comparison against the self-similar solution.  The constructor
    takes no fan: only ``search_fan`` puts one on a candidate, so
    ``certify`` can return it as it is."""

    law: PressureLaw
    left: EulerState
    right: EulerState
    sigma: float
    x: tuple[float, ...]
    seed: int | None
    fan: FanSubsolution | None
    comparison: VerificationReport | None

    def __init__(self, law, left, right, sigma, x, seed=None):
        super().__init__(law, left, right, sigma, tuple(map(float, x)), seed, None, None)

    def to_dict(self) -> dict:
        """Reproducibility dump: seed, pinned speed, free variables."""
        return {
            "seed": self.seed,
            "sigma": self.sigma,
            "variables": {name: float(v) for name, v in zip(_VAR_NAMES, self.x)},
        }


# ---------------------------------------------------------------------------
# the closure (generic over floats and exact numbers)
# ---------------------------------------------------------------------------

def _is_zero(v) -> bool:
    return (v == 0.0) if isinstance(v, float) else (sign(v) == 0)


def chain_close(minus, plus, mu, rho1):
    """Close the Rankine-Hugoniot equalities of a three-region fan.

    ``minus`` and ``plus`` are the boundary values (rho, m2, v) of the
    lifted left and right states, with v = u11 - q; ``mu`` holds all four
    speeds.  The last mass condition and the normal-momentum condition at
    the last interface (telescoped, so free of the interior v's) are solved
    as a 2x2 linear system for (rho2, rho3).  The momentum and v chains
    then determine the interior normal momenta and v's from the left
    boundary.  Over exact numbers the solve meets both last-interface
    conditions identically, for any caps q with u11_i = v_i + q_i; over
    floats, up to rounding.  Works verbatim over floats or exact numbers.

    Returns ((rho1, rho2, rho3), (m1, m2, m3), (v1, v2, v3)); raises
    DegenerateClosure on coincident speeds.
    """
    rho_m, m_m, v_m = minus
    rho_p, m_p, v_p = plus
    mu0, mu1, mu2, mu3 = mu

    a1, a2 = mu1 - mu2, mu2 - mu3
    a_rhs = mu0 * rho_m - m_m + (mu1 - mu0) * rho1 + m_p - mu3 * rho_p
    b1, b2 = mu2 * mu2 - mu1 * mu1, mu3 * mu3 - mu2 * mu2
    b_rhs = (v_p - v_m) - mu0 * mu0 * rho_m \
        - (mu1 * mu1 - mu0 * mu0) * rho1 + mu3 * mu3 * rho_p
    det = a1 * b2 - a2 * b1
    if _is_zero(det):
        raise DegenerateClosure("coincident interface speeds")
    rho2 = (a_rhs * b2 - a2 * b_rhs) / det
    rho3 = (a1 * b_rhs - a_rhs * b1) / det

    m1 = m_m - mu0 * (rho_m - rho1)
    m2 = m1 - mu1 * (rho1 - rho2)
    m3 = m2 - mu2 * (rho2 - rho3)
    v1 = v_m + mu0 * (m_m - m1)
    v2 = v1 + mu1 * (m1 - m2)
    v3 = v2 + mu2 * (m2 - m3)
    return (rho1, rho2, rho3), (m1, m2, m3), (v1, v2, v3)


# ---------------------------------------------------------------------------
# the float kernel and the search objective
# ---------------------------------------------------------------------------

class _Problem:
    """One Riemann problem of the search, set up once: the reference
    solution ``sol``, its profile ``ref`` and the matched plane
    ``ref.entries[0]`` as its exact ``speed`` (None unless ``sol`` is
    exact) and floats ``sigma``, ``ref_coeff`` (None without a shock); the
    search's ``pad`` and ``gap``, 1e-5 and 1e-4 of ``ref_coeff``, and the
    float densities ``shock_rhos`` on either side of the matched shock; the
    float ``gamma`` of the law; the lifted boundary values (rho, m2,
    u11 - q), exact and as the floats the search reads, whose last entry
    is the float u11 less the float q."""

    def __init__(self, law: PressureLaw, left: EulerState, right: EulerState):
        self.sol = solve_riemann(law, left, right)
        self.ref = selfsim_dissipation(law, self.sol)
        self.speed = self.sigma = self.ref_coeff = None
        if self.ref.entries:
            speed, coeff = self.ref.entries[0]
            self.speed = speed if self.sol.exact else None
            self.sigma, self.ref_coeff = float(speed), float(coeff)
            self.pad, self.gap = 1e-5 * self.ref_coeff, 1e-4 * self.ref_coeff
            shock = next(w for w in self.sol.waves if isinstance(w, Shock))
            self.shock_rhos = float(shock.left.rho), float(shock.right.rho)
        self.gamma = float(law.gamma)
        (z_m, e_m), (z_p, e_p) = lift_state(law, left), lift_state(law, right)
        self.exact_minus = (left.rho, z_m.m[1], z_m.u11 - z_m.q)
        self.exact_plus = (right.rho, z_p.m[1], z_p.u11 - z_p.q)
        self.minus = (float(left.rho), float(z_m.m[1]), float(z_m.u11) - float(z_m.q))
        self.plus = (float(right.rho), float(z_p.m[1]), float(z_p.u11) - float(z_p.q))
        self.f_m, self.e_m, self.f_p, self.e_p = map(float, (z_m.F[1], e_m, z_p.F[1], e_p))


# Float sums fold left to right from 0.0 (the kernel's budget, each column
# of ``minimize``'s centroid), as scipy's add.reduce(sim[:-1], 0) does: it
# starts each column at add's identity 0.0 (a column of -0.0 sums to +0.0)
# and adds the rows in order.  The builtin sum() adds so on 3.11 only; from
# 3.12 it compensates.

def _kernel(prob: _Problem, z):
    """(score, surplus, x) at the search variables z = (ln d0, ln d2,
    ln d3, ln rho1); None when the closure degenerates or a density is not
    positive.

    The speeds are mu0 = sigma - d0, mu2 = sigma + d2 and mu3 = mu2 + d3.
    The closure gives each region's rho_i, m_i and v_i = u_i - q_i, none of
    which depends on q.  With p_i = rho_i ** gamma and
    k_i = m_i ** 2 / rho_i, region i has -tr M = 2 q_i - k_i - 2 p_i and
    det M = (p_i - v_i - 2 q_i)(k_i + v_i + p_i), both positive exactly when
    c_i = -(k_i + v_i + p_i) > 0 and 2 q_i > max(k_i + 2 p_i, p_i - v_i).
    The matched bracket falls in each q_i and in each outer bracket, so x,
    the ten variables (mu0, mu2, mu3, rho1, q1..q3, F12, F22, F32), puts
    each q_i the pad above its bound and the fluxes where the outer brackets
    are the pad.  The plane-dissipation budget is fixed by the speeds and
    the q_i alone (the flux chain telescopes), so the matched bracket is
    the budget less the three pads.  The region energies are e = q + P - p,
    with P as ``model.pressure_potential`` defines it, from one power
    rho ** gamma per region.  The surplus is the matched bracket less
    ref_coeff, and the score -min(surplus, least c_i - gap) / ref_coeff:
    negative exactly when the surplus is positive and every c_i exceeds the
    gap."""
    d0, d2, d3, rho1 = map(math.exp, z)
    sigma = prob.sigma
    mu0, mu2 = sigma - d0, sigma + d2
    mu3 = mu2 + d3
    try:
        rhos, ms, vs = chain_close(prob.minus, prob.plus, (mu0, sigma, mu2, mu3), rho1)
    except DegenerateClosure:
        return None
    if min(rhos) <= 0.0:
        return None
    gamma, pad = prob.gamma, prob.pad
    qs, e, c = [], [prob.e_m], math.inf
    for r, m, v in zip(rhos, ms, vs):
        p, k = r ** gamma, m ** 2 / r
        q = max(p + k / 2.0, (p - v) / 2.0) + pad
        big_p = r * math.log(r) if gamma == 1.0 else p / (gamma - 1.0)
        qs.append(q)
        e.append(q + big_p - p)
        c = min(c, -(k + v + p))
    e0, e1, e2, e3, e4 = *e, prob.e_p
    f_m, f_p = prob.f_m, prob.f_p
    budget = f_m - f_p - (0.0 + mu0 * (e0 - e1) + sigma * (e1 - e2)
                          + mu2 * (e2 - e3) + mu3 * (e3 - e4))
    f3 = pad + mu3 * (e3 - e4) + f_p
    f2 = pad + mu2 * (e2 - e3) + f3
    f1 = budget - pad - pad - pad + sigma * (e1 - e2) + f2
    surplus = plane_bracket(sigma, e1, e2, f1, f2) - prob.ref_coeff
    return (-min(surplus, c - prob.gap) / prob.ref_coeff, surplus,
            (mu0, mu2, mu3, rho1, *qs, f1, f2, f3))


def _objective(prob: _Problem, found: list):
    """The search's objective: ``_kernel``'s score, 1e6 where z does not
    close.  It raises ``_Stop`` at its first point with a negative score,
    once it has put that point's ``_kernel`` result in ``found``."""
    k = 0

    def score(z):
        nonlocal k
        k += 1
        point = _kernel(prob, z)
        if point is None:
            return 1e6
        if point[0] < 0.0:
            found.append(point)
            raise _Stop(z, point[0], k)
        return point[0]
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
    tie order by CPU feature, and the search's 1e6 for a point that does
    not close does tie, so scipy matches ``minimize`` only with a stable argsort."""
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

_MAX_ITERS = 150


def search_fan(law: PressureLaw, left: EulerState, right: EulerState,
               cfg: SearchConfig) -> Candidate | None:
    """Multi-restart derivative-free search over the four variables that
    decide dominance.

    Each restart draws a start with ``random.Random(cfg.rng_seed +
    restart)`` (``_sample_start``) and runs one Nelder-Mead phase over
    z = (ln d0, ln d2, ln d3, ln rho1), scored by ``_kernel``, for at most
    _MAX_ITERS iterations.  It ends at its first point with a negative
    score, and that point goes to exact certification, which alone decides
    the strict inequalities.  Returns the first candidate that certifies
    exactly (its ``fan`` and ``comparison`` are set), else the float
    candidate with the largest surplus, else None (at once when the
    reference has no shock).
    """
    prob = _Problem(law, left, right)
    if prob.sigma is None:
        return None

    best: Candidate | None = None
    best_surplus = 0.0
    for seed in range(cfg.rng_seed, cfg.rng_seed + cfg.restarts):
        found = []
        minimize(_objective(prob, found), _sample_start(random.Random(seed), prob), _MAX_ITERS)
        if not found:
            continue
        (_, surplus, x), = found
        cand = Candidate(law, left, right, prob.sigma, x, seed)
        if surplus > best_surplus:  # surplus > 0.0: the first one wins
            best, best_surplus = cand, surplus
        certified = _certify(cand, prob)
        if certified is not None:
            object.__setattr__(cand, "fan", certified[0])
            object.__setattr__(cand, "comparison", certified[1])
            return cand
    return best


def _sample_start(rng: random.Random, prob: _Problem) -> list:
    """A restart's z, drawn near the weak-shock optimum.  With rho_l and
    rho_r on either side of the matched shock, eps = |rho_r / rho_l - 1| and
    c_l the sound speed at rho_l: d0 and d2 from 0.11 eps U(0.5, 2), d3 from
    (3 / sqrt 2) c_l U(0.7, 1.4) and rho1 from rho_l (1 + eps U(0.1, 0.6))."""
    rho_l, rho_r = prob.shock_rhos
    eps = abs(rho_r / rho_l - 1.0)
    d0 = 0.11 * eps * rng.uniform(0.5, 2.0)
    d2 = 0.11 * eps * rng.uniform(0.5, 2.0)
    d3 = 3.0 / math.sqrt(2.0) * _sound_speed(prob.gamma, rho_l) * rng.uniform(0.7, 1.4)
    rho1 = rho_l * (1.0 + eps * rng.uniform(0.1, 0.6))
    return [math.log(d0), math.log(d2), math.log(d3), math.log(rho1)]


# ---------------------------------------------------------------------------
# exact certification
# ---------------------------------------------------------------------------

def certify(cand: Candidate, cfg: SearchConfig) -> FanSubsolution | None:
    """The fan ``search_fan`` certified from ``cand``, returned as it is,
    with no exact work.  A candidate without one is certified here: read
    its ten float variables exactly as rationals, pin the matched plane to
    the exact reference shock speed, close exactly in the tower and set
    u11 = v + q in each region, and run the full exact verification plus
    the dissipation comparison.  None when a strict inequality fails
    exactly; otherwise the fan.  ``cand`` is left as it is.  Nothing in
    ``cfg`` changes the result: its fields steer the restarts of
    ``search_fan`` only."""
    if cand.fan is not None:
        return cand.fan
    certified = _certify(cand, _Problem(cand.law, cand.left, cand.right))
    return None if certified is None else certified[0]


def _certify(cand: Candidate, prob: _Problem) -> tuple[FanSubsolution, VerificationReport] | None:
    """``certify`` on the problem ``prob`` of cand's law and boundary
    states, which ``search_fan`` sets up once: the fan with its comparison
    report; None as well when the reference is not exact or has no shock."""
    if prob.speed is None:
        return None
    mu0, mu2, mu3, rho1, *qf = map(as_xreal, cand.x)
    mu = (mu0, prob.speed, mu2, mu3)
    try:
        # verify_fan decides the two last-interface equalities the solve
        # meets, as rh_mass[3] and rh_normal[3]
        rhos, m2s, vs = chain_close(prob.exact_minus, prob.exact_plus, mu, rho1)
        zero = as_xreal(0)
        regions = tuple((rho, PHPoint((zero, m2), v + q, zero, q, (zero, f)))
                        for rho, m2, v, q, f in zip(rhos, m2s, vs, qf[:3], qf[3:]))
        fan = FanSubsolution(cand.law, mu, cand.left, cand.right, regions)
        if not verify_fan(fan).passed:
            return None
        comparison = compare_selfsimilar(fan, (prob.sol, prob.ref))[0]
        if not comparison.passed:
            return None
        return fan, comparison
    except (Inconclusive, NonPositiveDensity, ZeroDivisionError):
        return None
