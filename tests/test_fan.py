"""Fan subsolutions: the counterexample, verification, profiles, dominance."""

from __future__ import annotations

import ast

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wildfan.exactnum import QuadExt, Rational, sign, xreal_from_json, xreal_to_json
from wildfan.fan import (
    FanSubsolution,
    ProfileOrder,
    Status,
    VerificationReport,
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
    EulerState, PHPoint, PressureLaw, lift_state, pressure, pressure_potential,
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


@pytest.mark.parametrize("region, zero, failing", [
    # q = p + k/2: -tr M = 0, and det M = -(k + v + p)^2 < 0
    (0, "subsolution_trace[1]", {"subsolution_trace[1]", "subsolution_det[1]"}),
    # q = (p - v)/2: det M = 0, and -tr M = -(k + v + p) > 0 still
    (2, "subsolution_det[3]", {"subsolution_det[3]"}),
], ids=["trace", "det"])
def test_a_cap_on_its_bound_fails_strict_negative_definiteness(region, zero, failing):
    # exact boundary fans from the paper fan: region i's cap q sits on the
    # bound of its zero condition, with p = rho^2, k = m2^2 / rho and
    # v = u11 - q.  u11 moves with q, so v and every Rankine-Hugoniot
    # equality hold; the zero condition is strict, so it fails
    fan = paper_example()
    rho, z = fan.regions[region]
    p, k, v = pressure(fan.law, rho), z.m[1] * z.m[1] / rho, z.u11 - z.q
    q = p + k / 2 if zero.startswith("subsolution_trace") else (p - v) / 2
    report = verify_fan(_with_region(fan, region, PHPoint(z.m, v + q, z.u12, q, z.F)))
    conds = {c.name: c for c in report.conditions}
    assert {name for name, c in conds.items() if c.status is not Status.PASS} == failing
    assert all(conds[name].status is Status.FAIL for name in failing)
    assert _is_zero_witness(conds[zero].witness)


def test_an_outer_plane_bracket_of_exactly_zero_passes():
    # region 3's flux F2 lowered by the bracket on plane 3 makes that
    # bracket exactly 0 (the one on plane 2 grows by as much): the energy
    # inequality holds with equality, the profile keeps a zero coefficient,
    # and a zero coefficient is admissible, so the comparison still passes
    fan = paper_example()
    rho, z = fan.regions[2]
    (_, b3), = fan_dissipation_profile(fan).entries[3:]
    flat = _with_region(fan, 2, PHPoint(z.m, z.u11, z.u12, z.q, (z.F[0], z.F[1] - b3)))
    conds = {c.name: c for c in verify_fan(flat).conditions}
    assert all(c.status is Status.PASS for c in conds.values())
    assert _is_zero_witness(conds["rh_energy[3]"].witness)
    speed, coeff = fan_dissipation_profile(flat).entries[3]
    assert sign(speed - fan.mu[3]) == 0 and sign(coeff) == 0
    report = beats_selfsimilar(flat)
    verdict = next(c for c in report.conditions if c.name == "comparison")
    assert report.passed and verdict.witness == ProfileOrder.STRICTLY_DOMINATES.value


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
    from wildfan.exactnum import IntervalExpr, as_xreal
    fan = paper_example()
    fuzz = IntervalExpr.sqrt(as_xreal(2)) * IntervalExpr.sqrt(as_xreal(2)) - as_xreal(2)
    rho2, z2 = fan.regions[1]
    fuzzy = PHPoint(z2.m, z2.u11, z2.u12, z2.q + fuzz, z2.F)
    bent = FanSubsolution(fan.law, fan.mu, fan.left, fan.right,
                          (fan.regions[0], (rho2, fuzzy), fan.regions[2]))
    report = verify_fan(bent)
    assert report.overall is Status.INCONCLUSIVE
    assert any(c.status is Status.INCONCLUSIVE for c in report.conditions)
    assert not any(c.status is Status.FAIL for c in report.conditions)


def test_find_Q_raises_outside_relaxed_set():
    from wildfan.fan import NotCertifiableWithinCap
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


def test_find_Q_paper_golden():
    results = find_Q(paper_example())
    assert len(results) == len(GOLDEN_FIND_Q)
    for (Q, witness), golden in zip(results, GOLDEN_FIND_Q):
        assert xreal_to_json(Q) == golden["Q"]
        assert tuple(xreal_to_json(k, 40) for k in witness.kappa) == golden["kappa"]
        assert tuple(tuple(xreal_to_json(c, 40) for c in v)
                     for v in witness.vertices) == golden["vertices"]


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


def test_weak_sign_bound_at_the_sign_cap(monkeypatch):
    # with enclosure caching switched off, the one-sided bound must come from
    # the precision the sign search reached, not from a fresh 64-bit pass
    import wildfan.exactnum as exactnum
    from wildfan.exactnum import Inconclusive, IntervalExpr, as_xreal, xmax
    from wildfan.fan import _weak_sign

    monkeypatch.setattr(exactnum, "_PRECISION_CAP", 128)
    monkeypatch.setattr(IntervalExpr, "refine", IntervalExpr._eval)
    root2 = IntervalExpr.sqrt(as_xreal(2))
    fuzz = root2 * root2 - 2  # exactly zero, never separated from it
    tiny = IntervalExpr.lift(Rational(1, 2 ** 100))
    # nonnegative; below 2^-100 the rounding of the two leaves hides that
    x = xmax(fuzz, 0) + (tiny - tiny)
    assert x.enclosure(64).lo < 0
    with pytest.raises(Inconclusive):
        sign(x)
    assert _weak_sign(x) == (1, False)
