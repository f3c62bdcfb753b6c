"""Self-similar solution of the planar Riemann problem in the normal
direction, and its plane-concentrated dissipation profile.

The construction is the classical barotropic wave-curve method: a left
(1-family) and right (2-family) acoustic wave joined at a middle state
found by monotone bisection on the velocity-match function, with the
tangential momentum transported and jumping only at a middle slip plane.

When the data happen to lie on a single admissible shock curve of either
family with all quantities in the quadratic tower, the solver certifies
this exactly and returns exact speeds; otherwise it works in floating
point with stated tolerances.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key

from .exactnum import Inconclusive, XReal, as_xreal, sign
from .model import EulerState, PressureLaw, Record, lift_state, pressure

__all__ = [
    "Shock",
    "Rarefaction",
    "Slip",
    "Wave",
    "SelfSimilarSolution",
    "DissipationProfile",
    "plane_bracket",
    "VacuumFormation",
    "solve_riemann",
    "selfsim_dissipation",
]


class VacuumFormation(ValueError):
    """Wave curves fail to intersect at positive density."""


class Shock(Record):
    speed: XReal
    left: EulerState
    right: EulerState


class Rarefaction(Record):
    speed_lo: XReal
    speed_hi: XReal
    left: EulerState
    right: EulerState


class Slip(Record):
    speed: XReal
    left: EulerState
    right: EulerState


Wave = Shock | Rarefaction | Slip


class SelfSimilarSolution(Record):
    law: PressureLaw
    left: EulerState
    right: EulerState
    waves: tuple[Wave, ...]
    exact: bool

    def speeds(self) -> list[float]:
        out = []
        for w in self.waves:
            if isinstance(w, Rarefaction):
                out.extend([float(w.speed_lo), float(w.speed_hi)])
            else:
                out.append(float(w.speed))
        return out


class DissipationProfile(Record):
    """Plane-supported dissipation: (speed, bracket coefficient) by strictly
    increasing speed.  Entries of one speed add up to one plane, the measure
    on it; only verify_fan judges whether a fan's speeds are ordered.

    Coefficients are the raw bracket values -mu [E] + [F2]; the positive
    surface-measure prefactor 1/sqrt(mu^2+1) is plane-local and therefore
    omitted (it never changes a dominance decision).
    """

    entries: tuple[tuple[XReal, XReal], ...]

    def __init__(self, entries):
        planes = []
        for s, c in sorted(((as_xreal(s), as_xreal(c)) for s, c in entries),
                           key=cmp_to_key(lambda a, b: sign(a[0] - b[0]))):
            if planes and sign(s - planes[-1][0]) == 0:
                planes[-1] = (planes[-1][0], planes[-1][1] + c)
            else:
                planes.append((s, c))
        object.__setattr__(self, "entries", tuple(planes))


def plane_bracket(mu, e_a, e_b, f_a, f_b):
    """Dissipation bracket -mu [E] + [F2] on the plane y = mu t between the
    states a and b (energies e, fluxes f), over floats or exact numbers."""
    return (-1) * mu * (e_a - e_b) + (f_a - f_b)


# ---------------------------------------------------------------------------
# exact single-shock path
# ---------------------------------------------------------------------------

def _exact_single_shock(law: PressureLaw, left: EulerState, right: EulerState) -> Shock | None:
    """Certify that (left, right) is one admissible shock, exactly."""
    try:
        rho_l, rho_r = left.rho, right.rho
        if sign(left.m[0] / rho_l - right.m[0] / rho_r) != 0:
            return None  # tangential jump needs a slip plane
        v_l = left.m[1] / rho_l
        v_r = right.m[1] / rho_r
        drho = sign(rho_r - rho_l)
        if drho == 0:
            return None
        p_l, p_r = pressure(law, rho_l), pressure(law, rho_r)
        jump_sq = (p_r - p_l) * (rho_r - rho_l) / (rho_l * rho_r)
        dv = v_r - v_l
        if sign(dv * dv - jump_sq) != 0:
            return None
        # Lax admissibility: either family compresses, so v must drop
        if sign(dv) >= 0:
            return None
        # the mass condition fixes the speed; given it, the momentum
        # condition is the jump relation decided above
        speed = (rho_r * v_r - rho_l * v_l) / (rho_r - rho_l)
        return Shock(speed=speed, left=left, right=right)
    except Inconclusive:
        return None


# ---------------------------------------------------------------------------
# float wave-curve machinery
# ---------------------------------------------------------------------------

def _sound_speed(gamma: float, rho: float) -> float:
    return math.sqrt(gamma * rho ** (gamma - 1.0))


def _ell(gamma: float, rho: float) -> float:
    """Riemann-invariant integral of c(r)/r."""
    if gamma == 1.0:
        return math.log(rho)
    return 2.0 * math.sqrt(gamma) / (gamma - 1.0) * rho ** ((gamma - 1.0) / 2.0)


def _curve_velocity(gamma: float, rho_side: float, v_side: float,
                    rho_mid: float, family: int) -> float:
    """Middle velocity reachable from the side state at density rho_mid.

    family = +1 for the left (1-) wave, -1 for the right (2-) wave.
    """
    if rho_mid > rho_side:  # shock branch
        p_mid, p_side = rho_mid ** gamma, rho_side ** gamma
        jump = math.sqrt((p_mid - p_side) * (rho_mid - rho_side) / (rho_mid * rho_side))
        return v_side - family * jump
    # rarefaction branch
    return v_side - family * (_ell(gamma, rho_mid) - _ell(gamma, rho_side))


def solve_riemann(law: PressureLaw, left: EulerState, right: EulerState) -> SelfSimilarSolution:
    """Self-similar solution: up to one wave per acoustic family plus a slip.

    Tries the exact single-shock certification first; otherwise resolves
    the middle state by 200-step bisection on a monotone velocity match.
    """
    # constant data: no waves
    if (sign(left.rho - right.rho) == 0
            and sign(left.m[0] - right.m[0]) == 0
            and sign(left.m[1] - right.m[1]) == 0):
        return SelfSimilarSolution(law, left, right, (), exact=True)

    exact_inputs = all(x.is_exact for x in
                       (left.rho, left.m[0], left.m[1], right.rho, right.m[0], right.m[1]))
    if exact_inputs:
        shock = _exact_single_shock(law, left, right)
        if shock is not None:
            return SelfSimilarSolution(law, left, right, (shock,), exact=True)

    gamma = float(law.gamma)
    rho_l, rho_r = float(left.rho), float(right.rho)
    u_l, u_r = float(left.m[0]) / rho_l, float(right.m[0]) / rho_r
    v_l, v_r = float(left.m[1]) / rho_l, float(right.m[1]) / rho_r

    def match(rho_mid: float) -> float:
        return (_curve_velocity(gamma, rho_l, v_l, rho_mid, +1)
                - _curve_velocity(gamma, rho_r, v_r, rho_mid, -1))

    lo, hi = 1e-12, max(rho_l, rho_r) * 1e6
    f_lo, f_hi = match(lo), match(hi)
    if f_lo < 0.0:
        if gamma > 1.0:
            raise VacuumFormation("wave curves only meet at vacuum")
        raise VacuumFormation("no intersection within bracket")
    if f_hi > 0.0:
        raise VacuumFormation("velocity match does not change sign in bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if match(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, lo):
            break
    rho_mid = 0.5 * (lo + hi)
    v_mid = 0.5 * (_curve_velocity(gamma, rho_l, v_l, rho_mid, +1)
                   + _curve_velocity(gamma, rho_r, v_r, rho_mid, -1))

    def state(rho: float, u: float, v: float) -> EulerState:
        return EulerState(Fraction(rho), (Fraction(rho * u), Fraction(rho * v)))

    has_slip = abs(u_l - u_r) > 1e-14 * max(1.0, abs(u_l), abs(u_r))
    mid_left = state(rho_mid, u_l, v_mid)
    mid_right = state(rho_mid, u_r, v_mid) if has_slip else mid_left

    waves: list[Wave] = []
    rtol = 1e-12
    if abs(rho_mid - rho_l) > rtol * max(rho_mid, rho_l):
        if rho_mid > rho_l:
            s = (rho_mid * v_mid - rho_l * v_l) / (rho_mid - rho_l)
            waves.append(Shock(as_xreal(Fraction(s)), left, mid_left))
        else:
            c_l, c_m = _sound_speed(gamma, rho_l), _sound_speed(gamma, rho_mid)
            waves.append(Rarefaction(as_xreal(Fraction(v_l - c_l)),
                                     as_xreal(Fraction(v_mid - c_m)), left, mid_left))
    if has_slip:
        waves.append(Slip(as_xreal(Fraction(v_mid)), mid_left, mid_right))
    if abs(rho_mid - rho_r) > rtol * max(rho_mid, rho_r):
        if rho_mid > rho_r:
            s = (rho_r * v_r - rho_mid * v_mid) / (rho_r - rho_mid)
            waves.append(Shock(as_xreal(Fraction(s)), mid_right, right))
        else:
            c_r, c_m = _sound_speed(gamma, rho_r), _sound_speed(gamma, rho_mid)
            waves.append(Rarefaction(as_xreal(Fraction(v_mid + c_m)),
                                     as_xreal(Fraction(v_r + c_r)), mid_right, right))

    sol = SelfSimilarSolution(law, left, right, tuple(waves), exact=False)
    speeds = sol.speeds()
    if any(b < a - 1e-9 for a, b in zip(speeds, speeds[1:])):
        raise ArithmeticError("wave speeds are not ordered; solver failure")
    return sol


def selfsim_dissipation(law: PressureLaw, sol: SelfSimilarSolution) -> DissipationProfile:
    """Bracket coefficients -s [E] + [F2] for every shock plane.

    Rarefactions are continuous and slips carry an exactly vanishing
    bracket, so only shocks contribute.
    """
    entries = []
    for w in sol.waves:
        if not isinstance(w, Shock):
            continue
        z_left, e_left = lift_state(law, w.left)
        z_right, e_right = lift_state(law, w.right)
        entries.append((w.speed, plane_bracket(w.speed, e_left, e_right,
                                               z_left.F[1], z_right.F[1])))
    return DissipationProfile(entries)
