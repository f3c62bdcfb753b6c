"""Fan subsolutions: exact verification, dissipation profiles, cap
certification, dominance comparison, and the built-in counterexample.

A fan subsolution is piecewise constant on a fan of four space-time planes
y = mu_i t: boundary Riemann states outside, three interior phase-space
records in between.  Verification checks the algebraic system equivalent to
the weak equations: speed ordering, Rankine-Hugoniot equalities at all four
interfaces, the energy-flux inequality per interface, and strict negative
definiteness inside each region.  All checks are exact whenever the data
live in the quadratic tower.

Dissipation is concentrated on the interface planes with bracket
coefficients -mu_i [E] + [F2]; profiles of two solutions are compared
plane by plane (a plane missing from one side counts as coefficient zero),
which is the measure order restricted to plane-supported dissipation.

A fan computes its records once: one lift per boundary state, which also
gives its energy, one energy per region, and from them the four plane
brackets.  ``verify_fan``'s ``rh_energy`` conditions read those brackets,
and the fan's dissipation profile, which ``compare_selfsimilar`` reads,
is built from them once.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

from .exactnum import (
    Inconclusive,
    QuadExt,
    Rational,
    XReal,
    as_xreal,
    sign,
    xreal_to_json,
)
from .hull import NotInV, WDecomposition, WGeometry, matrix_M
from .model import (
    EulerState, NonPositiveDensity, PHPoint, PressureLaw, Record, _json_array, _json_object,
    _number, _pair, lift_state, pressure, pressure_potential, state_from_json, state_to_json,
)
from .riemann import (
    DissipationProfile, SelfSimilarSolution, plane_bracket, selfsim_dissipation, solve_riemann,
)

__all__ = [
    "FanSubsolution",
    "DissipationProfile",
    "ConditionResult",
    "VerificationReport",
    "ProfileOrder",
    "NotCertifiableWithinCap",
    "verify_fan",
    "fan_dissipation_profile",
    "compare_profiles",
    "find_Q",
    "paper_example",
    "paper_chain",
    "beats_selfsimilar",
    "compare_selfsimilar",
    "fan_to_json",
    "fan_from_json",
]


class NotCertifiableWithinCap(RuntimeError):
    """No cap in the doubling schedule certified the region memberships."""


class FanSubsolution(Record):
    """Interface speeds, boundary Riemann states, three interior records.

    ``_planes`` and ``_profile`` are computed on first use and kept; they
    are not fields, so equality, hash and repr ignore them."""

    law: PressureLaw
    mu: tuple[XReal, XReal, XReal, XReal]
    left: EulerState
    right: EulerState
    regions: tuple[tuple[XReal, PHPoint], ...]

    def __init__(self, law, mu, left, right, regions):
        if len(mu) != 4:
            raise ValueError("need four interface speeds")
        if len(regions) != 3:
            raise ValueError("need three interior regions")
        regions = tuple((as_xreal(r), z) for r, z in regions)
        for rho, _ in regions:
            if sign(rho) <= 0:
                raise NonPositiveDensity("interior densities must be positive")
        object.__setattr__(self, "law", law)
        object.__setattr__(self, "mu", tuple(as_xreal(m) for m in mu))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "regions", regions)

    def records(self) -> list[tuple[XReal, PHPoint]]:
        """(rho, z) for i = 0..4 with lifted boundary records at the ends."""
        return list(self._planes[0])

    @cached_property
    def _planes(self) -> tuple[tuple[tuple[XReal, PHPoint], ...], tuple[XReal, ...]]:
        """(records, brackets): the records of ``records`` and the bracket
        -mu_i [E] + [F2] on each plane, from one lift per boundary state
        (which gives its energy) and one energy per region."""
        law = self.law
        z_minus, e_minus = lift_state(law, self.left)
        z_plus, e_plus = lift_state(law, self.right)
        recs = ((self.left.rho, z_minus), *self.regions, (self.right.rho, z_plus))
        energies = (e_minus, *(_energy(law, rho, z.q) for rho, z in self.regions), e_plus)
        brackets = tuple(plane_bracket(self.mu[i], energies[i], energies[i + 1],
                                       recs[i][1].F[1], recs[i + 1][1].F[1]) for i in range(4))
        return recs, brackets

    @cached_property
    def _profile(self) -> DissipationProfile:
        return DissipationProfile(zip(self.mu, self._planes[1]))


class Status(Enum):
    PASS = "Pass"
    FAIL = "Fail"
    INCONCLUSIVE = "Inconclusive"


class ConditionResult(Record):
    name: str
    status: Status
    witness: str


class VerificationReport(Record):
    conditions: tuple[ConditionResult, ...]

    @property
    def overall(self) -> Status:
        if any(c.status is Status.FAIL for c in self.conditions):
            return Status.FAIL
        if any(c.status is Status.INCONCLUSIVE for c in self.conditions):
            return Status.INCONCLUSIVE
        return Status.PASS

    @property
    def passed(self) -> bool:
        return self.overall is Status.PASS

    def to_dict(self) -> dict:
        return {
            "overall": self.overall.value,
            "conditions": [
                {"name": c.name, "status": c.status.value, "witness": c.witness}
                for c in self.conditions
            ],
        }


def _witness(value: XReal) -> str:
    enc = xreal_to_json(value)
    return enc if isinstance(enc, str) else str(enc)


def _speed_tag(value: XReal) -> str:
    return f"{float(value):.6g}"


def _check(name: str, value: XReal, relation: str) -> ConditionResult:
    """relation: 'zero' (== 0), 'nonneg' (>= 0), 'pos' (> 0)."""
    try:
        s = sign(value)
    except Inconclusive:
        return ConditionResult(name, Status.INCONCLUSIVE, _witness(value))
    ok = {"zero": s == 0, "nonneg": s >= 0, "pos": s > 0}[relation]
    return ConditionResult(name, Status.PASS if ok else Status.FAIL, _witness(value))


def _energy(law: PressureLaw, rho: XReal, q: XReal) -> XReal:
    return q + pressure_potential(law, rho) - pressure(law, rho)


def verify_fan(fan: FanSubsolution) -> VerificationReport:
    """Exact check of the full algebraic system for an admissible fan
    subsolution; failures and inconclusive entries are reported, never
    raised."""
    recs, brackets = fan._planes
    conds: list[ConditionResult] = []

    for i in range(3):
        conds.append(_check(f"ordering[mu{i}<mu{i + 1}]", fan.mu[i + 1] - fan.mu[i], "pos"))

    for i in range(4):
        (rho_a, za), (rho_b, zb) = recs[i], recs[i + 1]
        mu = fan.mu[i]
        conds.append(_check(
            f"rh_mass[{i}]",
            mu * (rho_a - rho_b) - (za.m[1] - zb.m[1]), "zero"))
        conds.append(_check(
            f"rh_tangential[{i}]",
            mu * (za.m[0] - zb.m[0]) - (za.u12 - zb.u12), "zero"))
        conds.append(_check(
            f"rh_normal[{i}]",
            mu * (za.m[1] - zb.m[1]) - ((-1) * za.u11 + za.q + zb.u11 - zb.q), "zero"))
        conds.append(_check(f"rh_energy[{i}]", brackets[i], "nonneg"))

    for i, (rho, z) in enumerate(fan.regions, start=1):
        M = matrix_M(fan.law, rho, z)
        conds.append(_check(f"subsolution_trace[{i}]", (-1) * M.trace(), "pos"))
        conds.append(_check(f"subsolution_det[{i}]", M.det(), "pos"))

    return VerificationReport(tuple(conds))


def fan_dissipation_profile(fan: FanSubsolution) -> DissipationProfile:
    """Bracket coefficient -mu_i [E] + [F2] on each interface plane: the
    brackets verify_fan reads, profiled once per fan."""
    return fan._profile


class ProfileOrder(Enum):
    STRICTLY_DOMINATES = "StrictlyDominates"
    DOMINATES = "Dominates"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"
    DOMINATED = "Dominated"


def _merged_planes(a: DissipationProfile, b: DissipationProfile):
    """Union of plane speeds with per-profile coefficients (None off
    support), merged by exact speed comparison; a matched plane has a's speed."""
    ia = ib = 0
    ea, eb = a.entries, b.entries
    while ia < len(ea) or ib < len(eb):
        if ia >= len(ea):
            yield eb[ib][0], None, eb[ib][1]
            ib += 1
            continue
        if ib >= len(eb):
            yield ea[ia][0], ea[ia][1], None
            ia += 1
            continue
        s = sign(ea[ia][0] - eb[ib][0])
        if s < 0:
            yield ea[ia][0], ea[ia][1], None
            ia += 1
        elif s > 0:
            yield eb[ib][0], None, eb[ib][1]
            ib += 1
        else:
            yield ea[ia][0], ea[ia][1], eb[ib][1]
            ia += 1
            ib += 1


def _weak_sign(x: XReal) -> tuple[int, bool]:
    """(sign, strictness certified).  For interval values whose strict sign
    is out of reach, falls back to a certified one-sided bound taken at the
    precision the sign search stopped at."""
    try:
        return sign(x), True
    except Inconclusive as exc:
        iv = x.enclosure(exc.precision)
        if iv.lo >= 0:
            return 1, False
        if iv.hi <= 0:
            return -1, False
        raise


def _order(candidate: DissipationProfile, reference: DissipationProfile):
    """(order, merged planes) of compare_profiles; the one plane walk."""
    for _, coeff in candidate.entries:
        s, _ = _weak_sign(coeff)
        if s < 0:
            raise ValueError("candidate profile has a negative coefficient")
    planes = list(_merged_planes(candidate, reference))
    zero = as_xreal(0)
    any_pos = any_neg = False
    strict_pos = False
    for _, ca, cb in planes:
        s, strict = _weak_sign((zero if ca is None else ca) - (zero if cb is None else cb))
        if s > 0:
            any_pos = True
            if strict:
                strict_pos = True
        elif s < 0:
            any_neg = True
    if any_pos and any_neg:
        return ProfileOrder.INCOMPARABLE, planes
    if any_pos:
        return (ProfileOrder.STRICTLY_DOMINATES if strict_pos else ProfileOrder.DOMINATES), planes
    return (ProfileOrder.DOMINATED if any_neg else ProfileOrder.EQUAL), planes


def compare_profiles(candidate: DissipationProfile,
                     reference: DissipationProfile) -> ProfileOrder:
    """Plane-wise measure comparison.

    Requires every candidate coefficient to be certified nonnegative
    (admissibility).  A plane missing from one side counts as coefficient
    zero.  'Dominates' only arises for interval-valued profiles where >=
    holds everywhere but no strict plane can be certified.
    """
    return _order(candidate, reference)[0]


_MAX_DOUBLINGS = 60


def _first_cap(law: PressureLaw, rho: XReal, z: PHPoint
               ) -> tuple[XReal, WDecomposition] | None:
    try:
        geom = WGeometry(law, rho, z)
    except (NotInV, Inconclusive):
        return None  # M(z) is not certified negative definite: no cap helps
    for n in range(1, _MAX_DOUBLINGS + 1):
        Q = z.q * (2 ** n)
        try:
            ok, witness = geom.in_W(Q)
        except Inconclusive:
            continue
        if ok:
            return Q, witness
    return None


def find_Q(fan: FanSubsolution) -> tuple[tuple[XReal, WDecomposition], ...]:
    """Per region, the first cap in the doubling schedule q_i * 2^n,
    n <= 60, whose W-membership certifies, together with the witness
    decomposition.  The cap-independent geometry is built once per region."""
    out = []
    for rho, z in fan.regions:
        found = _first_cap(fan.law, rho, z)
        if found is None:
            raise NotCertifiableWithinCap(
                f"no certificate after {_MAX_DOUBLINGS} doublings")
        out.append(found)
    return tuple(out)


# ---------------------------------------------------------------------------
# the built-in counterexample
# ---------------------------------------------------------------------------

def paper_example() -> FanSubsolution:
    """The exact admissible fan subsolution beating the self-similar shock.

    All constants live in Q(sqrt(5), sqrt(1141)); gamma = 2.
    """

    def field(c0=0, c1=0, c2=0, c3=0):
        return QuadExt((5, 1141), (c0, c1, c2, c3))

    s5 = field(0, 1, 0, 0)
    s1141 = field(0, 0, 1, 0)
    law = PressureLaw(gamma=2)

    left = EulerState(1, (Rational(0), Rational(3, 2) * s5))
    right = EulerState(4, (Rational(0), Rational(0)))

    mu0 = (-53750 * s5 + 77 * s1141 - 25102) / 107500
    mu1 = (-1) * s5 / 2
    mu2 = (77 - 125 * s5) / as_xreal(250)
    mu3 = (-26875 * s5 + 8316 * s1141 - 12551) / 53750

    rho1, rho2, rho3 = Rational(52, 25), Rational(319, 100), Rational(801, 200)

    m1 = 3 * (860000 * s5 + 693 * s1141 - 225918) / 2687500
    m2 = 27 * (80625 * s5 + 154 * s1141 - 50204) / 5375000
    m3 = (-26875 * s5 + 8316 * s1141 - 12551) / 10750000

    u1 = (-72858555000 * s5 + 8316 * s1141 * (26875 * s5 + 12551)
          - 1272258135611) / 288906250000
    u2 = (-36429277500 * s5 + 4158 * s1141 * (26875 * s5 + 12551)
          - 295698403743) / 144453125000
    u3 = (-337308125 * s5 + 8316 * s1141 * (26875 * s5 + 12551)
          - 21181593711) / 288906250000

    q1, q2, q3 = Rational(398, 43), Rational(13), Rational(691, 43)
    f1, f2, f3 = Rational(552, 25), Rational(277, 100), Rational(7, 25)

    zero = Rational(0)
    regions = (
        (rho1, PHPoint((zero, m1), u1, zero, q1, (zero, f1))),
        (rho2, PHPoint((zero, m2), u2, zero, q2, (zero, f2))),
        (rho3, PHPoint((zero, m3), u3, zero, q3, (zero, f3))),
    )
    return FanSubsolution(law, (mu0, mu1, mu2, mu3), left, right, regions)


def paper_chain(report: VerificationReport, planes) -> VerificationReport:
    """The paper example's strict margin factors through 151/10: where the
    candidate coefficient is (83033 - 8050 sqrt5)/4300, checks candidate >
    151/10 > reference just before that plane's strict margin."""
    paper_coeff = Rational(83033, 4300) - Rational(8050, 4300) * QuadExt.sqrt_of(5)
    conds = list(report.conditions)
    for speed, coeff, ref_coeff in planes:
        if (coeff is None or ref_coeff is None or not coeff.is_exact
                or sign(coeff - paper_coeff) != 0):
            continue
        at = [c.name for c in conds].index(f"strict_margin[{_speed_tag(speed)}]")
        conds[at:at] = [_check("chain[candidate>151/10]", coeff - Rational(151, 10), "pos"),
                        _check("chain[151/10>reference]", Rational(151, 10) - ref_coeff, "pos")]
    return VerificationReport(tuple(conds))


def compare_selfsimilar(fan: FanSubsolution,
                        solved: tuple[SelfSimilarSolution, DissipationProfile] | None = None
                        ) -> tuple[VerificationReport, list]:
    """Dissipation comparison against the self-similar solution of the same
    Riemann data: solve and profile it (unless the caller passes ``solved``,
    its solution of fan's law and boundary states with that solution's
    profile), profile the fan, compare plane by plane.  Returns the report
    and the merged planes (speed, candidate coefficient, reference
    coefficient; None off support), empty if the comparison did not
    finish."""
    conds: list[ConditionResult] = []
    if solved is None:
        sol = solve_riemann(fan.law, fan.left, fan.right)
        solved = sol, selfsim_dissipation(fan.law, sol)
    sol, reference = solved
    # a float-bisected reference is no ground for a certified verdict
    conds.append(ConditionResult(
        "selfsimilar_solved", Status.PASS if sol.exact else Status.INCONCLUSIVE,
        f"waves={len(sol.waves)}, exact={sol.exact}"))
    candidate = fan_dissipation_profile(fan)

    try:
        verdict, planes = _order(candidate, reference)
    except ValueError:
        conds.append(ConditionResult("candidate_admissible", Status.FAIL,
                                     "negative bracket coefficient"))
        return VerificationReport(tuple(conds)), []
    except Inconclusive as exc:
        conds.append(ConditionResult("comparison", Status.INCONCLUSIVE, str(exc)))
        return VerificationReport(tuple(conds)), []

    for speed, coeff, ref_coeff in planes:
        if ref_coeff is not None:
            conds.append(ConditionResult(
                f"covers_plane[{_speed_tag(speed)}]",
                Status.PASS if coeff is not None else Status.FAIL,
                f"reference coefficient {_witness(ref_coeff)}"))
    for speed, coeff, ref_coeff in planes:
        if coeff is not None and ref_coeff is not None:
            conds.append(_check(f"strict_margin[{_speed_tag(speed)}]",
                                coeff - ref_coeff, "pos"))

    conds.append(ConditionResult(
        "comparison",
        Status.PASS if verdict is ProfileOrder.STRICTLY_DOMINATES else Status.FAIL,
        verdict.value))
    return VerificationReport(tuple(conds)), planes


def beats_selfsimilar(fan: FanSubsolution) -> VerificationReport:
    """The report of compare_selfsimilar."""
    return compare_selfsimilar(fan)[0]


# ---------------------------------------------------------------------------
# JSON fan files
# ---------------------------------------------------------------------------

def fan_to_json(fan: FanSubsolution) -> dict:
    return {
        "gamma": xreal_to_json(fan.law.gamma),
        "left": state_to_json(fan.left),
        "right": state_to_json(fan.right),
        "mu": [xreal_to_json(m) for m in fan.mu],
        "regions": [
            {
                "rho": xreal_to_json(rho),
                "m": [xreal_to_json(c) for c in z.m],
                "u11": xreal_to_json(z.u11),
                "u12": xreal_to_json(z.u12),
                "q": xreal_to_json(z.q),
                "F": [xreal_to_json(c) for c in z.F],
            }
            for rho, z in fan.regions
        ],
    }


def fan_from_json(data: dict) -> FanSubsolution:
    law = PressureLaw(gamma=_number(data, "gamma"))
    left, right = state_from_json(data["left"], "left"), state_from_json(data["right"], "right")
    mu_data = _json_array(data["mu"], "mu", "numbers")
    mu = tuple(_number(mu_data, i, "mu") for i in range(len(mu_data)))
    regions = []
    for i, reg in enumerate(_json_array(data["regions"], "regions", "region objects")):
        name = f"regions[{i}]"
        reg = _json_object(reg, name, ("rho", "m", "u11", "u12", "q", "F"))
        z = PHPoint(_pair(reg["m"], f"{name} m"),
                    _number(reg, "u11", name), _number(reg, "u12", name),
                    _number(reg, "q", name), _pair(reg["F"], f"{name} F"))
        regions.append((_number(reg, "rho", name), z))
    return FanSubsolution(law, mu, left, right, tuple(regions))
