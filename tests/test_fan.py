"""Fan subsolutions: the counterexample, verification, profiles, dominance."""

from __future__ import annotations

import ast
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wildfan.exactnum import (
    Inconclusive, IntervalExpr, QuadExt, Rational, as_xreal, sign, xmax, xreal_from_json,
    xreal_to_json,
)
from wildfan.fan import (
    ConditionResult,
    FanSubsolution,
    NotCertifiableWithinCap,
    ProfileOrder,
    Status,
    VerificationReport,
    _witness,
    beats_selfsimilar,
    compare_profiles,
    compare_selfsimilar,
    fan_dissipation_profile,
    fan_from_json,
    fan_to_json,
    find_Q,
    paper_chain,
    paper_example,
    verify_fan,
)
from wildfan.hull import in_K, in_W
from wildfan.model import (
    EulerState, NonPositiveDensity, PHPoint, PressureLaw, lift_state, pressure,
    pressure_potential,
)
from wildfan.riemann import DissipationProfile, Shock, plane_bracket, solve_riemann

S5 = QuadExt.sqrt_of(5)
S1141 = QuadExt.sqrt_of(1141)


def test_paper_example_verifies_all_exact():
    report = verify_fan(paper_example())
    assert report.passed
    assert all(c.status is Status.PASS for c in report.conditions)


def test_paper_example_swapped_speeds_fails_ordering():
    fan = paper_example()
    mu = (fan.mu[0], fan.mu[2], fan.mu[1], fan.mu[3])
    bad = FanSubsolution(fan.law, mu, fan.left, fan.right, fan.regions)
    report = verify_fan(bad)
    assert not report.passed
    failing = {c.name for c in report.conditions if c.status is Status.FAIL}
    assert any(name.startswith("ordering") for name in failing)


def test_coincident_speeds_fail_ordering_and_share_a_plane():
    # verify_fan alone judges speed order; the profile and the comparison
    # take the fan as it is, one plane for the two equal speeds
    paper = paper_example()
    mu = (paper.mu[0], paper.mu[0], paper.mu[2], paper.mu[3])
    fan = FanSubsolution(paper.law, mu, paper.left, paper.right, paper.regions)
    report = verify_fan(fan)
    assert [(c.name, c.status) for c in report.conditions if c.name.startswith("ordering")] == [
        ("ordering[mu0<mu1]", Status.FAIL), ("ordering[mu1<mu2]", Status.PASS),
        ("ordering[mu2<mu3]", Status.PASS)]
    recs = fan.records()
    entries = fan_dissipation_profile(fan).entries
    assert len(entries) == 3
    e = [z.q + pressure_potential(fan.law, rho) - pressure(fan.law, rho) for rho, z in recs]
    shared = sum(plane_bracket(fan.mu[i], e[i], e[i + 1], recs[i][1].F[1], recs[i + 1][1].F[1])
                 for i in range(2))
    assert sign(entries[0][0] - fan.mu[0]) == 0 and sign(entries[0][1] - shared) == 0
    assert isinstance(beats_selfsimilar(fan), VerificationReport)


def test_paper_example_degenerate_q_fails_subsolution():
    fan = paper_example()
    rho1, z1 = fan.regions[0]
    flat = PHPoint(z1.m, z1.u11, z1.u12, pressure(fan.law, rho1), z1.F)
    bad = FanSubsolution(fan.law, fan.mu, fan.left, fan.right,
                         ((rho1, flat),) + fan.regions[1:])
    report = verify_fan(bad)
    failing = {c.name for c in report.conditions if c.status is Status.FAIL}
    assert "subsolution_trace[1]" in failing


def _with_region(fan, i, z):
    """fan with region i's phase point replaced by z."""
    regions = list(fan.regions)
    regions[i] = (regions[i][0], z)
    return FanSubsolution(fan.law, fan.mu, fan.left, fan.right, tuple(regions))


def _is_zero_witness(witness: str) -> bool:
    return sign(xreal_from_json(ast.literal_eval(witness))) == 0


# the coefficient of the paper shock's one plane
PAPER_SHOCK_COEFF = Rational(27, 4) * S5


def boundary_fan(case):
    """(fan, name): an exact boundary fan built from the paper fan, and the
    condition whose value it puts at exactly 0.

    - "trace": region 1's cap q at p + k/2, so -tr M = 0;
    - "det": region 3's cap q at (p - v)/2, so det M = 0;
    - "bracket": region 3's flux F2 lowered by plane 3's bracket, which
      becomes 0;
    - "margin": region 1's flux F2 lowered by the matched plane's margin
      over the reference shock, which becomes 0.

    Here p = rho^2, k = m2^2 / rho and v = u11 - q.  u11 moves with q, so v
    and every Rankine-Hugoniot equality hold.  A lowered flux raises the
    bracket of the plane before the region by as much."""
    fan = paper_example()
    if case in ("trace", "det"):
        region, name = (0, "subsolution_trace[1]") if case == "trace" else (2, "subsolution_det[3]")
        rho, z = fan.regions[region]
        p, k, v = pressure(fan.law, rho), z.m[1] * z.m[1] / rho, z.u11 - z.q
        q = p + k / 2 if case == "trace" else (p - v) / 2
        return _with_region(fan, region, PHPoint(z.m, v + q, z.u12, q, z.F)), name
    entries = fan_dissipation_profile(fan).entries
    if case == "bracket":
        region, drop, name = 2, entries[3][1], "rh_energy[3]"
    else:
        region, name = 0, f"strict_margin[{float(fan.mu[1]):.6g}]"
        drop = entries[1][1] - PAPER_SHOCK_COEFF
    rho, z = fan.regions[region]
    return _with_region(fan, region, PHPoint(z.m, z.u11, z.u12, z.q, (z.F[0], z.F[1] - drop))), name


@pytest.mark.parametrize("case, failing", [
    # -tr M = 0, and det M = -(k + v + p)^2 < 0
    ("trace", {"subsolution_trace[1]", "subsolution_det[1]"}),
    # det M = 0, and -tr M = -(k + v + p) > 0 still
    ("det", {"subsolution_det[3]"}),
], ids=["trace", "det"])
def test_a_cap_on_its_bound_fails_strict_negative_definiteness(case, failing):
    # region i's cap q sits on the bound of its zero condition, which is
    # strict, so it fails
    fan, zero = boundary_fan(case)
    conds = {c.name: c for c in verify_fan(fan).conditions}
    assert {name for name, c in conds.items() if c.status is not Status.PASS} == failing
    assert all(conds[name].status is Status.FAIL for name in failing)
    assert _is_zero_witness(conds[zero].witness)


def test_an_outer_plane_bracket_of_exactly_zero_passes():
    # the energy inequality holds with equality, the profile keeps a zero
    # coefficient, and a zero coefficient is admissible, so the comparison
    # still passes
    fan, zero = boundary_fan("bracket")
    conds = {c.name: c for c in verify_fan(fan).conditions}
    assert all(c.status is Status.PASS for c in conds.values())
    assert _is_zero_witness(conds[zero].witness)
    speed, coeff = fan_dissipation_profile(fan).entries[3]
    assert sign(speed - fan.mu[3]) == 0 and sign(coeff) == 0
    report = beats_selfsimilar(fan)
    verdict = next(c for c in report.conditions if c.name == "comparison")
    assert report.passed and verdict.witness == ProfileOrder.STRICTLY_DOMINATES.value


def test_a_matched_coefficient_equal_to_the_reference_fails_the_strict_margin():
    # the fan is still admissible, and its matched plane dissipates exactly
    # as much as the reference shock.  The profile order still reads
    # StrictlyDominates, from the planes the reference lacks, so the strict
    # margin alone, failing with a zero witness, fails the comparison
    fan, zero = boundary_fan("margin")
    assert verify_fan(fan).passed
    report = beats_selfsimilar(fan)
    conds = {c.name: c for c in report.conditions}
    assert {name for name, c in conds.items() if c.status is not Status.PASS} == {zero}
    assert conds[zero].status is Status.FAIL and _is_zero_witness(conds[zero].witness)
    assert conds["comparison"].witness == ProfileOrder.STRICTLY_DOMINATES.value
    assert not report.passed


def test_a_zero_interior_density_is_refused():
    # a region of density exactly 0 is no fan: the constructor refuses it,
    # as it refuses a negative one
    fan = paper_example()
    for rho in (Rational(0), Rational(-1)):
        regions = (fan.regions[0], (rho, fan.regions[1][1]), fan.regions[2])
        with pytest.raises(NonPositiveDensity, match="interior densities must be positive"):
            FanSubsolution(fan.law, fan.mu, fan.left, fan.right, regions)


def test_paper_regions_are_strict_subsolutions_not_in_K():
    fan = paper_example()
    for rho, z in fan.regions:
        assert not in_K(fan.law, rho, z.q * 4, z)


def test_paper_dissipation_profile_exact_coefficients():
    fan = paper_example()
    profile = fan_dissipation_profile(fan)
    expected = [
        (74863000 * S5 + 13937 * S1141 - 167847142) / 7396000,
        (83033 - 8050 * S5) / Rational(4300),
        (73863 - 33000 * S5) / Rational(21500),
        (80625 * S5 - 24948 * S1141 + 684803) / 2311250,
    ]
    assert len(profile.entries) == 4
    for (speed, coeff), expect, mu in zip(profile.entries, expected, fan.mu):
        assert sign(speed - mu) == 0
        assert sign(coeff - expect) == 0
        assert sign(coeff) > 0


def test_trivial_fan_zero_profile():
    # all regions equal to the lifted left state, matching Riemann data
    law = PressureLaw(gamma=2)
    left = EulerState(1, (0, 2))
    z, _ = lift_state(law, left)
    fan = FanSubsolution(law, (-2, -1, 0, 1), left, left,
                         ((left.rho, z), (left.rho, z), (left.rho, z)))
    profile = fan_dissipation_profile(fan)
    for _, coeff in profile.entries:
        assert sign(coeff) == 0


def test_compare_profiles_semantics():
    one = Rational(1)
    p_a = DissipationProfile([(0, one)])
    p_b = DissipationProfile([(1, one)])
    assert compare_profiles(p_a, p_b) is ProfileOrder.INCOMPARABLE
    assert compare_profiles(p_a, p_a) is ProfileOrder.EQUAL
    bigger = DissipationProfile([(0, Rational(2))])
    assert compare_profiles(bigger, p_a) is ProfileOrder.STRICTLY_DOMINATES
    assert compare_profiles(p_a, bigger) is ProfileOrder.DOMINATED
    with pytest.raises(ValueError):
        compare_profiles(DissipationProfile([(0, Rational(-1))]), p_a)


def test_merged_planes_walk_both_profiles_by_speed():
    # a matched plane carries the candidate's speed, here a Rational, where
    # the reference's is an interval expression of the same value
    from wildfan.fan import _merged_planes

    candidate = DissipationProfile([(0, 1), (2, 3), (4, 5)])
    reference = DissipationProfile([(-1, 7), (IntervalExpr.lift(Rational(0)), 9)])
    planes = list(_merged_planes(candidate, reference))
    assert [(float(s), ca, cb) for s, ca, cb in planes] == [
        (-1.0, None, 7), (0.0, 1, 9), (2.0, 3, None), (4.0, 5, None)]
    assert isinstance(planes[1][0], Rational)
    assert [(float(s), ca, cb) for s, ca, cb in _merged_planes(reference, candidate)] == [
        (-1.0, 7, None), (0.0, 9, 1), (2.0, None, 3), (4.0, None, 5)]


def test_compare_profiles_antisymmetric():
    fan = paper_example()
    cand = fan_dissipation_profile(fan)
    from wildfan.riemann import selfsim_dissipation, solve_riemann
    ref = selfsim_dissipation(fan.law, solve_riemann(fan.law, fan.left, fan.right))
    assert compare_profiles(cand, ref) is ProfileOrder.STRICTLY_DOMINATES
    # swapping arguments flips the verdict (reference is admissible too)
    assert compare_profiles(ref, cand) is ProfileOrder.DOMINATED


def test_beats_selfsimilar_paper():
    report = beats_selfsimilar(paper_example())
    assert report.passed
    # the paper's 151/10 chain is paper_chain's, not the general comparison's
    assert not any(c.name.startswith("chain[") for c in report.conditions)
    assert any(c.name == "comparison" and c.witness == "StrictlyDominates"
               for c in report.conditions)


def _shifted_left_fan(shift):
    """paper_example() with the left m2 lowered by shift and mu1 moved onto
    the shock speed of the float-bisected reference of those data."""
    fan = paper_example()
    left = EulerState(fan.left.rho, (fan.left.m[0], fan.left.m[1] - shift))
    sol = solve_riemann(fan.law, left, fan.right)
    shocks = [w.speed for w in sol.waves if isinstance(w, Shock)]
    mu = (fan.mu[0], shocks[0], *fan.mu[2:]) if shocks else fan.mu
    return FanSubsolution(fan.law, mu, left, fan.right, fan.regions), sol


def test_comparison_with_unsolved_reference_is_inconclusive():
    # the candidate's plane sits on the rounded shock speed, so every sign
    # of the comparison certifies; only the reference itself is not exact
    fan, sol = _shifted_left_fan(Rational(1, 10 ** 6))
    assert not sol.exact
    report = beats_selfsimilar(fan)
    solved = report.conditions[0]
    assert (solved.name, solved.status) == ("selfsimilar_solved", Status.INCONCLUSIVE)
    assert report.overall is Status.INCONCLUSIVE


@settings(max_examples=20, deadline=None)
@given(num=st.integers(-1000, 1000).filter(bool), digits=st.integers(3, 9))
def test_inexact_reference_never_passes(num, digits):
    fan, sol = _shifted_left_fan(Rational(num, 10 ** digits))
    if not sol.exact:
        assert beats_selfsimilar(fan).overall is not Status.PASS


def _scaled_fan(fan, k):
    """gamma = 2 scaling: rho -> k^2 rho, m -> k^3 m, mu -> k mu,
    (u11, u12, q) -> k^4 (...), F -> k^5 F."""
    def state(s):
        return EulerState(k ** 2 * s.rho, tuple(k ** 3 * c for c in s.m))
    regions = tuple(
        (k ** 2 * rho, PHPoint(tuple(k ** 3 * c for c in z.m), k ** 4 * z.u11,
                               k ** 4 * z.u12, k ** 4 * z.q, tuple(k ** 5 * c for c in z.F)))
        for rho, z in fan.regions)
    return FanSubsolution(fan.law, tuple(k * m for m in fan.mu),
                          state(fan.left), state(fan.right), regions)


@settings(max_examples=20, deadline=None)
@given(num=st.integers(1, 9), den=st.integers(1, 9))
@example(num=2, den=1)
@example(num=3, den=2)
@example(num=7, den=5)
def test_scaling_keeps_verdicts_and_scales_the_profile(num, den):
    fan = paper_example()
    k = Rational(num, den)
    scaled = _scaled_fan(fan, k)
    for check in (verify_fan, lambda f: compare_selfsimilar(f)[0]):
        got, want = check(scaled), check(fan)
        assert got.passed
        # condition names carry plane speeds, which scale too
        assert [c.status for c in got.conditions] == [c.status for c in want.conditions]
    base = fan_dissipation_profile(fan).entries
    got = fan_dissipation_profile(scaled).entries
    assert len(got) == len(base)
    for (s, c), (s_k, c_k) in zip(base, got):
        assert sign(s_k - k * s) == 0
        assert sign(c_k - k ** 5 * c) == 0


def _reflected_fan(fan):
    """x2 -> -x2: planes y = mu t become y = -mu t, so mu -> (-mu3, -mu2,
    -mu1, -mu0); the boundary states swap and the regions reverse; m2,
    u12 and F2 change sign (U -> R U R with R = diag(1, -1))."""
    def state(s):
        return EulerState(s.rho, (s.m[0], -s.m[1]))
    regions = tuple(
        (rho, PHPoint((z.m[0], -z.m[1]), z.u11, -z.u12, z.q, (z.F[0], -z.F[1])))
        for rho, z in reversed(fan.regions))
    return FanSubsolution(fan.law, tuple(-m for m in reversed(fan.mu)),
                          state(fan.right), state(fan.left), regions)


def _reflected_name(name):
    """The condition of the original fan that a reflected condition reads:
    ordering i <-> 2-i, interface i <-> 3-i, region i <-> 4-i."""
    kind, index = name.rstrip("]").split("[")
    if kind == "ordering":
        i = 2 - int(index[2])
        return f"ordering[mu{i}<mu{i + 1}]"
    return f"{kind}[{(3 if kind.startswith('rh_') else 4) - int(index)}]"


def _assert_reflection_keeps_verdicts(fan):
    mirrored = _reflected_fan(fan)
    want = {c.name: (c.status, c.witness) for c in verify_fan(fan).conditions}
    got = {_reflected_name(c.name): (c.status, c.witness)
           for c in verify_fan(mirrored).conditions}
    assert got == want
    assert ([c.status for c in compare_selfsimilar(mirrored)[0].conditions]
            == [c.status for c in compare_selfsimilar(fan)[0].conditions])
    base = fan_dissipation_profile(fan).entries
    got_profile = fan_dissipation_profile(mirrored).entries
    assert len(got_profile) == len(base)
    for (s, c), (s_r, c_r) in zip(reversed(base), got_profile):
        assert sign(s_r + s) == 0
        assert sign(c_r - c) == 0


def test_reflection_keeps_every_verdict_and_coefficient():
    fan = paper_example()
    _assert_reflection_keeps_verdicts(fan)
    assert verify_fan(_reflected_fan(fan)).passed
    caps = [xreal_to_json(Q) for Q, _ in find_Q(fan)]
    assert [xreal_to_json(Q) for Q, _ in find_Q(_reflected_fan(fan))] == caps[::-1]


@settings(max_examples=10, deadline=None)
@given(num=st.integers(1, 9), den=st.integers(1, 9))
def test_reflection_of_rescaled_fans(num, den):
    _assert_reflection_keeps_verdicts(_scaled_fan(paper_example(), Rational(num, den)))


def _boosted_point(law, rho, z, v):
    """z at density rho in the frame that moves at -v, v = (v1, v2)
    rational: m + rho v, q + v.m + rho |v|^2/2, U + (v (x) m + m (x) v) +
    rho v (x) v less its trace part, and F + (q + P) v + (U + (q - p) I) v
    + (|v|^2/2) m + (v.m + rho |v|^2/2) v."""
    (v1, v2), (m1, m2) = v, z.m
    vm, vv = v1 * m1 + v2 * m2, v1 * v1 + v2 * v2
    p, P = pressure(law, rho), pressure_potential(law, rho)
    s = z.q - p
    uv = ((z.u11 + s) * v1 + z.u12 * v2, z.u12 * v1 + (s - z.u11) * v2)
    w = vm + rho * vv / 2
    F = tuple(f + (z.q + P) * vi + ui + vv / 2 * mi + w * vi
              for f, vi, ui, mi in zip(z.F, v, uv, z.m))
    return PHPoint((m1 + rho * v1, m2 + rho * v2),
                   z.u11 + v1 * m1 - v2 * m2 + rho * (v1 * v1 - v2 * v2) / 2,
                   z.u12 + v1 * m2 + v2 * m1 + rho * v1 * v2, z.q + w, F)


def _boosted_fan(fan, v):
    """The Galilean boost of fan by v: every record boosted, every speed
    mu + v2."""
    def state(st):
        return EulerState(st.rho, tuple(m + st.rho * vi for m, vi in zip(st.m, v)))
    regions = tuple((rho, _boosted_point(fan.law, rho, z, v)) for rho, z in fan.regions)
    return FanSubsolution(fan.law, tuple(mu + v[1] for mu in fan.mu),
                          state(fan.left), state(fan.right), regions)


def _point_values(z):
    return (*z.m, z.u11, z.u12, z.q, *z.F)


def _plane_residuals(fan, i):
    """(rh_mass, rh_tangential, rh_normal) of plane i, as verify_fan forms
    them: mu [rho] - [m2], mu [m1] - [u12] and mu [m2] - [q - u11]."""
    (rho_a, a), (rho_b, b) = fan.records()[i:i + 2]
    mu = fan.mu[i]
    return (mu * (rho_a - rho_b) - (a.m[1] - b.m[1]), mu * (a.m[0] - b.m[0]) - (a.u12 - b.u12),
            mu * (a.m[1] - b.m[1]) - ((a.q - a.u11) - (b.q - b.u11)))


def _fan_to_boost(case):
    """The paper fan, or its twin under gamma = 3/2, which fails
    rh_energy[2], rh_normal[3] and rh_energy[3]."""
    fan = paper_example()
    if case == "paper":
        return fan
    return FanSubsolution(PressureLaw(Fraction(3, 2)), fan.mu, fan.left, fan.right, fan.regions)


_VELOCITY = st.fractions(min_value=-2, max_value=2, max_denominator=7)


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from(["paper", "gamma 3/2"]), v1=_VELOCITY, v2=_VELOCITY)
@example(case="paper", v1=Fraction(0), v2=Fraction(1, 3))
@example(case="paper", v1=Fraction(2, 7), v2=Fraction(0))
@example(case="gamma 3/2", v1=Fraction(-5, 4), v2=Fraction(3, 2))
def test_a_galilean_boost_keeps_every_verdict_and_coefficient(case, v1, v2):
    # the boost maps solutions to solutions: the lift commutes with it,
    # and a plane's coefficient moves by -(v1 rh_tangential + v2 rh_normal
    # + |v|^2/2 rh_mass), so it stays exactly equal wherever the plane's
    # equalities hold: on every plane of the paper fan, and on planes 0-2
    # of the gamma = 3/2 twin.  Its plane 3 (rh_normal[3] = -8) moves by
    # 8 v2, at most 16 here, and its bracket of about -31 stays negative,
    # so verify_fan and the comparison give the same status at each
    # position (the names carry the shifted speeds), and the comparison
    # keeps its verdict
    fan, v = _fan_to_boost(case), (Rational(v1), Rational(v2))
    boosted = _boosted_fan(fan, v)
    for state, moved in ((fan.left, boosted.left), (fan.right, boosted.right)):
        (z, e), (z_moved, e_moved) = lift_state(fan.law, state), lift_state(fan.law, moved)
        want = _boosted_point(fan.law, state.rho, z, v)
        assert [sign(a - b) for a, b in zip(_point_values(z_moved), _point_values(want))] == [0] * 7
        assert sign(e_moved - (e + want.q - z.q)) == 0
    reports = [(verify_fan(f), compare_selfsimilar(f)[0]) for f in (fan, boosted)]
    for got, want in zip(*reports):
        assert [c.status for c in got.conditions] == [c.status for c in want.conditions]
    base, got = fan_dissipation_profile(fan).entries, fan_dissipation_profile(boosted).entries
    assert len(got) == len(base) == 4
    moved = []
    for i, ((speed, coeff), (speed_b, coeff_b)) in enumerate(zip(base, got)):
        mass, tangential, normal = _plane_residuals(fan, i)
        shift = -(v[0] * tangential + v[1] * normal + (v[0] ** 2 + v[1] ** 2) / 2 * mass)
        assert sign(speed_b - speed - v[1]) == 0 and sign(coeff_b - coeff - shift) == 0
        moved.append(sign(shift) != 0)
    assert moved == [False, False, False, case != "paper" and v2 != 0]
    verdicts = [(comparison.overall, [c.witness for c in comparison.conditions
                                      if c.name == "comparison"]) for _, comparison in reports]
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0] is (Status.PASS if case == "paper" else Status.FAIL)


def test_paper_chain_sits_before_the_shock_margin():
    report, planes = compare_selfsimilar(paper_example())
    assert report == beats_selfsimilar(paper_example())
    # four candidate planes, the shock plane -sqrt5/2 matched by the reference
    assert [ref is not None for _, _, ref in planes] == [False, True, False, False]
    names = [c.name for c in paper_chain(report, planes).conditions]
    at = names.index("strict_margin[-1.11803]")
    assert names[at - 2:at] == ["chain[candidate>151/10]", "chain[151/10>reference]"]
    assert [n for n in names if not n.startswith("chain[")] == [
        c.name for c in report.conditions]
    assert paper_chain(report, planes).passed


def test_find_Q_certificates_reverify():
    fan = paper_example()
    results = find_Q(fan)
    assert len(results) == 3
    for (rho, z), (Q, witness) in zip(fan.regions, results):
        # independent re-check of the witness at the returned cap
        ok, _ = in_W(fan.law, rho, Q, z)
        assert ok
        for k in witness.kappa:
            assert sign(k, precision_cap=1 << 14) > 0
        total = witness.kappa[0] + witness.kappa[1] + witness.kappa[2] + witness.kappa[3]
        iv = total.enclosure(128)
        assert float(iv.lo) <= 1.0 <= float(iv.hi)


def test_paper_region_vertex_scales_certified_positive():
    # interval-valued A/r on tower data still certifies strict positivity
    from wildfan.hull import A_j, r_j
    fan = paper_example()
    rho, z = fan.regions[1]
    Q = z.q * 4
    for j in (1, 2, 3, 4):
        assert sign(A_j(fan.law, rho, Q, z, j)) == 1
        assert sign(r_j(fan.law, rho, Q, z, j)) == 1


def test_reduced_sigma_coefficient_breaks_dominance():
    # move half a unit of flux from plane 1 to plane 0: still admissible,
    # but the sigma-plane coefficient drops below the reference
    fan = paper_example()
    rho1, z1 = fan.regions[0]
    shifted = PHPoint(z1.m, z1.u11, z1.u12, z1.q, (z1.F[0], z1.F[1] - Rational(1, 2)))
    bent = FanSubsolution(fan.law, fan.mu, fan.left, fan.right,
                          ((rho1, shifted),) + fan.regions[1:])
    assert verify_fan(bent).passed  # RH4 still holds everywhere
    from wildfan.riemann import selfsim_dissipation, solve_riemann
    ref = selfsim_dissipation(fan.law, solve_riemann(fan.law, fan.left, fan.right))
    verdict = compare_profiles(fan_dissipation_profile(bent), ref)
    assert verdict is ProfileOrder.INCOMPARABLE


def test_interval_valued_fan_reports_inconclusive():
    # an exactly-zero interval expression in q makes equality checks
    # undecidable: the report must say Inconclusive, never guess
    report = verify_fan(_fuzzy_fan())
    assert report.overall is Status.INCONCLUSIVE
    assert any(c.status is Status.INCONCLUSIVE for c in report.conditions)
    assert not any(c.status is Status.FAIL for c in report.conditions)


def _fuzzy_fan():
    """The paper fan with region 2's cap moved by sqrt2 sqrt2 - 2 over
    interval arithmetic: its equalities are Inconclusive."""
    fan = paper_example()
    fuzz = IntervalExpr.sqrt(as_xreal(2)) * IntervalExpr.sqrt(as_xreal(2)) - as_xreal(2)
    rho2, z2 = fan.regions[1]
    fuzzy = PHPoint(z2.m, z2.u11, z2.u12, z2.q + fuzz, z2.F)
    return FanSubsolution(fan.law, fan.mu, fan.left, fan.right,
                           (fan.regions[0], (rho2, fuzzy), fan.regions[2]))


# sha256 of the two reports' to_dict JSON, as formatted when each witness
# was formatted as its condition was decided
_REPORT_DIGESTS = {
    "paper": "64e5c1e46e105858551a35e1bc38eebc0217fa01060a6f4844291a323be55cbc",
    "gamma 3/2": "6d1080dd2e6c5c119ce31c112d8c3e5086647c819913227d302bbed78994ba20",
    "trace": "d7125c9c5d03e5ace29dd5e0f04856cae55beac9ea2623b124badb4b46c9795b",
    "det": "7bfea338ef8cdfdd011bd9b74523250789bae72ea52f7f6bd6dae6f1f001fb13",
    "bracket": "5895a119b9acea751a8b94185ef5a27a24bae1c0ed8185784f62a59412889fbd",
    "margin": "d263c4dad5282d44ded46f013bce3108d9097834108dddae75d2b71891f4cf94",
    "inconclusive": "3f93503be6dd4c1236a9564cb4103f492e1c1ce7764d7ab0a898f0d07900164a",
}


@pytest.mark.parametrize("case", _REPORT_DIGESTS)
def test_witnesses_formatted_on_read_are_the_old_witnesses(monkeypatch, case):
    # a decided condition keeps its value and formats it, as _witness does,
    # when its witness is first read; the reports read as they read when
    # every witness was formatted as it was decided
    if case == "inconclusive":
        import wildfan.exactnum as exactnum

        monkeypatch.setattr(exactnum, "_PRECISION_CAP", 128)
        fan = _fuzzy_fan()
    elif case in ("paper", "gamma 3/2"):
        fan = _fan_to_boost(case)
    else:
        fan = boundary_fan(case)[0]
    reports = (verify_fan(fan), compare_selfsimilar(fan)[0])
    if case == "inconclusive":
        assert any(c.status is Status.INCONCLUSIVE for c in reports[0].conditions)
    for report in reports:
        decided = [c for c in report.conditions if "value" in vars(c)]
        # only the reference's solve, admissibility and the profile order
        # are text alone
        assert {c.name for c in report.conditions if "value" not in vars(c)} <= {
            "selfsimilar_solved", "candidate_admissible", "comparison"}
        assert all("witness" not in vars(c) for c in decided if c.value.is_exact)
        texts = [("reference coefficient " if c.name.startswith("covers_plane[") else "")
                 + _witness(c.value) for c in decided]
        first = [c.witness for c in decided]
        assert first == texts and all(a is c.witness for a, c in zip(first, decided))
        twin = VerificationReport(tuple(ConditionResult(c.name, c.status, c.witness)
                                        for c in report.conditions))
        assert twin == report and hash(twin) == hash(report) and repr(twin) == repr(report)
        assert twin.to_dict() == report.to_dict()
    shown = json.dumps([report.to_dict() for report in reports], sort_keys=True)
    assert hashlib.sha256(shown.encode()).hexdigest() == _REPORT_DIGESTS[case]


def test_find_Q_raises_outside_relaxed_set():
    fan = paper_example()
    rho1, z1 = fan.regions[0]
    flat = PHPoint(z1.m, z1.u11, z1.u12, pressure(fan.law, rho1), z1.F)
    bad = FanSubsolution(fan.law, fan.mu, fan.left, fan.right,
                         ((rho1, flat),) + fan.regions[1:])
    with pytest.raises(NotCertifiableWithinCap):
        find_Q(bad)


def test_fan_json_roundtrip():
    fan = paper_example()
    data = fan_to_json(fan)
    back = fan_from_json(data)
    assert fan_to_json(back) == data
    report = verify_fan(back)
    assert report.passed


@settings(max_examples=15, deadline=None)
@given(num=st.integers(1, 9), den=st.integers(1, 9), gamma=st.sampled_from(["2/1", "3/2"]),
       bent=st.sampled_from([None, "q", "F"]), region=st.integers(0, 2))
@example(num=1, den=1, gamma="2/1", bent=None, region=0)
@example(num=1, den=1, gamma="3/2", bent=None, region=0)
def test_cached_fan_quantities_match_a_rebuilt_fan(num, den, gamma, bent, region):
    # a fan computes its records, brackets and profile once; a rebuilt fan
    # that computes them afresh gives the same reports and profile, and the
    # cache changes neither equality nor hash
    data = {**fan_to_json(_scaled_fan(paper_example(), Rational(num, den))), "gamma": gamma}
    if bent == "q":
        data["regions"][region]["q"] = "1/3"
    elif bent == "F":
        data["regions"][region]["F"][1] = "-1/1"
    fan = fan_from_json(data)
    reports = verify_fan(fan).to_dict(), beats_selfsimilar(fan).to_dict()
    profile = fan_dissipation_profile(fan)
    records = fan.records()
    rebuilt = fan_from_json(fan_to_json(fan))
    assert rebuilt == fan and hash(rebuilt) == hash(fan)
    assert (verify_fan(rebuilt).to_dict(), beats_selfsimilar(rebuilt).to_dict()) == reports
    assert fan_dissipation_profile(rebuilt) == profile
    assert rebuilt == fan and hash(rebuilt) == hash(fan)
    # records() hands out a copy: changing it changes no later verdict
    mutated = fan.records()
    mutated.reverse()
    mutated[0] = (Rational(1), mutated[0][1])
    assert fan.records() == records
    assert (verify_fan(fan).to_dict(), beats_selfsimilar(fan).to_dict()) == reports
    assert fan_dissipation_profile(fan) == profile


# find_Q(paper_example()) as recorded before the cap-independent hull geometry
# was hoisted out of the doubling schedule: per region the cap (exact) and,
# at 40 digits, the enclosures of the four kappas and of the four vertices.
GOLDEN_FIND_Q = (
    {
        "Q": "13041664/43",
        "kappa": (
            "[0.4430300278060478590137362303695396245362,0.4430300278060478590137362303695396245363]",
            "[0.0569699721939521409862637696304603754637,0.0569699721939521409862637696304603754638]",
            "[0.0569699721939521409862637696304603754637,0.0569699721939521409862637696304603754638]",
            "[0.4430300278060478590137362303695396245362,0.4430300278060478590137362303695396245363]",
        ),
        "vertices": (
            ("[12.3497138119908257359613454302252507015586,12.3497138119908257359613454302252507015587]",
             "[12.3497138119908257359613454302252507015586,12.3497138119908257359613454302252507015587]"),
            ("[-12.3198871792339397577043585770679431459157,-12.3198871792339397577043585770679431459156]",
             "[-12.3198871792339397577043585770679431459157,-12.3198871792339397577043585770679431459156]"),
            ("[12.3198871792339397577043585770679431459156,12.3198871792339397577043585770679431459157]",
             "[-12.3198871792339397577043585770679431459157,-12.3198871792339397577043585770679431459156]"),
            ("[-12.3497138119908257359613454302252507015587,-12.3497138119908257359613454302252507015586]",
             "[12.3497138119908257359613454302252507015586,12.3497138119908257359613454302252507015587]"),
        ),
    },
    {
        "Q": "416/1",
        "kappa": (
            "[0.0683848874929957478428414516847455078860,0.0683848874929957478428414516847455078861]",
            "[0.4316151125070042521571585483152544921139,0.4316151125070042521571585483152544921140]",
            "[0.4316151125070042521571585483152544921139,0.4316151125070042521571585483152544921140]",
            "[0.0683848874929957478428414516847455078860,0.0683848874929957478428414516847455078861]",
        ),
        "vertices": (
            ("[3.0511309344653374008469971556655749978726,3.0511309344653374008469971556655749978727]",
             "[3.0511309344653374008469971556655749978726,3.0511309344653374008469971556655749978727]"),
            ("[-2.9938677167289490294490907681286804115732,-2.9938677167289490294490907681286804115731]",
             "[-2.9938677167289490294490907681286804115732,-2.9938677167289490294490907681286804115731]"),
            ("[2.9938677167289490294490907681286804115731,2.9938677167289490294490907681286804115732]",
             "[-2.9938677167289490294490907681286804115732,-2.9938677167289490294490907681286804115731]"),
            ("[-3.0511309344653374008469971556655749978727,-3.0511309344653374008469971556655749978726]",
             "[3.0511309344653374008469971556655749978726,3.0511309344653374008469971556655749978727]"),
        ),
    },
    {
        "Q": "22112/43",
        "kappa": (
            "[0.4442451784420364269144046113451920762220,0.4442451784420364269144046113451920762221]",
            "[0.0557548215579635730855953886548079237779,0.0557548215579635730855953886548079237780]",
            "[0.0557548215579635730855953886548079237779,0.0557548215579635730855953886548079237780]",
            "[0.4442451784420364269144046113451920762220,0.4442451784420364269144046113451920762221]",
        ),
        "vertices": (
            ("[0.1604566775001018636044215935273271179425,0.1604566775001018636044215935273271179426]",
             "[0.1604566775001018636044215935273271179425,0.1604566775001018636044215935273271179426]"),
            ("[-0.1603871007340497914366919887733715474767,-0.1603871007340497914366919887733715474766]",
             "[-0.1603871007340497914366919887733715474767,-0.1603871007340497914366919887733715474766]"),
            ("[0.1603871007340497914366919887733715474766,0.1603871007340497914366919887733715474767]",
             "[-0.1603871007340497914366919887733715474767,-0.1603871007340497914366919887733715474766]"),
            ("[-0.1604566775001018636044215935273271179426,-0.1604566775001018636044215935273271179425]",
             "[0.1604566775001018636044215935273271179425,0.1604566775001018636044215935273271179426]"),
        ),
    },
)


def test_find_Q_paper_golden(monkeypatch):
    import wildfan.exactnum as exactnum

    results = find_Q(paper_example())
    assert len(results) == len(GOLDEN_FIND_Q)
    monkeypatch.setattr(exactnum, "_ENCLOSURE_DIGITS", 40)  # the goldens' decimals
    for (Q, witness), golden in zip(results, GOLDEN_FIND_Q):
        assert xreal_to_json(Q) == golden["Q"]
        assert tuple(xreal_to_json(k) for k in witness.kappa) == golden["kappa"]
        assert tuple(tuple(xreal_to_json(c) for c in v)
                     for v in witness.vertices) == golden["vertices"]


def _in_W_inconclusive_where(monkeypatch, undecided):
    """Patch WGeometry.in_W to raise Inconclusive at the caps Q where
    undecided(Q) holds; returns the list of caps it is asked about."""
    import wildfan.hull as hull

    probed, in_W = [], hull.WGeometry.in_W

    def patched(geom, Q):
        probed.append(Q)
        if undecided(Q):
            raise Inconclusive(64)
        return in_W(geom, Q)

    monkeypatch.setattr(hull.WGeometry, "in_W", patched)
    return probed


def test_find_Q_steps_past_an_inconclusive_cap(monkeypatch):
    # a cap whose membership cannot be decided is skipped, not taken as a
    # failure: W grows with the cap, so the next doubling certifies
    golden = [xreal_from_json(g["Q"]) for g in GOLDEN_FIND_Q]
    _in_W_inconclusive_where(monkeypatch, lambda Q: any(sign(Q - g) == 0 for g in golden))
    caps = [Q for Q, _ in find_Q(paper_example())]
    assert len(caps) == 3 and all(sign(Q - 2 * g) == 0 for Q, g in zip(caps, golden))


def test_find_Q_gives_up_after_60_inconclusive_doublings(monkeypatch):
    probed = _in_W_inconclusive_where(monkeypatch, lambda Q: True)
    with pytest.raises(NotCertifiableWithinCap, match="no certificate after 60 doublings"):
        find_Q(paper_example())
    q1 = paper_example().regions[0][1].q
    assert len(probed) == 60 and sign(probed[-1] - q1 * 2 ** 60) == 0


def test_find_Q_builds_geometry_once_per_region(monkeypatch):
    import wildfan.hull as hull
    calls = {"matrix_M": 0, "quad_form": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(hull, "matrix_M", counted("matrix_M", hull.matrix_M))
    monkeypatch.setattr(hull.MatrixM, "quad_form",
                        counted("quad_form", hull.MatrixM.quad_form))
    fan = paper_example()
    find_Q(fan)
    assert len(fan.regions) == 3
    assert calls == {"matrix_M": 3, "quad_form": 6}  # M once, two A values


def _unseparated_zero():
    """max(sqrt2 sqrt2 - 2, 0) over interval arithmetic: exactly zero, and
    no enclosure of it excludes zero, so its sign raises Inconclusive."""
    root2 = IntervalExpr.sqrt(as_xreal(2))
    return xmax(root2 * root2 - 2, 0)


def test_a_plane_not_separated_from_zero_is_inconclusive(monkeypatch):
    # a matched plane whose reference coefficient is the candidate's plus an
    # unseparated zero: no order is certified, and the comparison reports
    # Inconclusive rather than an order
    import wildfan.exactnum as exactnum

    monkeypatch.setattr(exactnum, "_PRECISION_CAP", 128)
    tiny = IntervalExpr.lift(Rational(1, 2 ** 100))
    x = _unseparated_zero() + (tiny - tiny)
    with pytest.raises(Inconclusive):
        sign(x)
    fan = paper_example()
    candidate = fan_dissipation_profile(fan)
    speed, coeff = candidate.entries[1]
    reference = DissipationProfile([(speed, coeff + x)])
    with pytest.raises(Inconclusive):
        compare_profiles(candidate, reference)
    sol = solve_riemann(fan.law, fan.left, fan.right)
    report, planes = compare_selfsimilar(fan, (sol, reference))
    assert [(c.name, c.status) for c in report.conditions] == [
        ("selfsimilar_solved", Status.PASS), ("comparison", Status.INCONCLUSIVE)]
    assert report.overall is Status.INCONCLUSIVE and planes == []


@pytest.mark.parametrize("candidate, reference", [
    # a one-sided enclosure bound reads the plane 1 - (1 + x) as negative,
    # and the pair as Incomparable: it strictly dominates
    ([(0, 1), (1, 1)], [(0, 1 + _unseparated_zero())]),
    # a one-sided enclosure bound reads x as positive, and the pair as
    # Dominates: the two are equal
    ([(0, _unseparated_zero())], []),
], ids=["matched-plane", "candidate-coefficient"])
def test_an_unseparated_plane_certifies_no_order(candidate, reference):
    with pytest.raises(Inconclusive):
        compare_profiles(DissipationProfile(candidate), DissipationProfile(reference))
