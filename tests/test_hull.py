"""Hull geometry: membership predicates, flux vertices, convex splittings."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wildfan.exactnum import (
    Inconclusive, IntervalExpr, Rational, adjoin_sqrt, as_xreal, sign, xmax,
)
from wildfan.hull import (
    SIGMA,
    HypothesesViolated,
    LambdaClass,
    MatrixM,
    NotInV,
    WGeometry,
    A_j,
    f_j,
    flux_deviation,
    in_K,
    in_Kco_mU,
    in_V,
    in_W,
    lambda_class,
    matrix_M,
    r_j,
    rigid_flux,
    split_flux_direction,
    w_flux_vertices,
)
from wildfan.model import EulerState, PHPoint, PressureLaw, lift_state, pressure

LAW2 = PressureLaw(gamma=2)


def isotropic_point(q=3):
    return PHPoint((0, 0), 0, 0, q, (0, 0))


def random_V_member(rng: random.Random):
    """Random rational (rho, z, Q) with M(z) negative definite and q < Q."""
    rho = Rational(Fraction(rng.randint(1, 30), rng.randint(1, 10)))
    m = (Rational(Fraction(rng.randint(-12, 12), rng.randint(1, 6))),
         Rational(Fraction(rng.randint(-12, 12), rng.randint(1, 6))))
    u11 = Rational(Fraction(rng.randint(-8, 8), rng.randint(1, 6)))
    u12 = Rational(Fraction(rng.randint(-8, 8), rng.randint(1, 6)))
    p = pressure(LAW2, rho)
    n11 = m[0] * m[0] / rho - u11 + p
    n12 = m[0] * m[1] / rho - u12
    n22 = m[1] * m[1] / rho + u11 + p
    absn12 = xmax(n12, (-1) * n12)
    q = xmax(n11, n22) + absn12 + 1
    z = PHPoint(m, u11, u12, q, (0, 0))
    Q = q + Rational(Fraction(rng.randint(1, 20), rng.randint(1, 4)))
    return rho, z, Q


def test_matrix_M_isotropic():
    M = matrix_M(LAW2, Rational(1), isotropic_point(q=3))
    assert M.m11 == Rational(-2) and M.m22 == Rational(-2) and M.m12 == Rational(0)
    assert lambda_class(M) is LambdaClass.NEG_DEF


def test_lambda_class_cases():
    assert lambda_class(MatrixM(as_xreal(-2), as_xreal(0), as_xreal(-2))) is LambdaClass.NEG_DEF
    assert lambda_class(MatrixM(as_xreal(0), as_xreal(0), as_xreal(-1))) \
        is LambdaClass.NEG_SEMI_DEF_SINGULAR
    assert lambda_class(MatrixM(as_xreal(1), as_xreal(0), as_xreal(-3))) is LambdaClass.POS_PART


def test_lifted_state_boundary_class():
    z, _ = lift_state(LAW2, EulerState(1, (1, 0)))
    M = matrix_M(LAW2, Rational(1), z)
    assert lambda_class(M) is LambdaClass.NEG_SEMI_DEF_SINGULAR


def test_in_K_lifted_and_perturbed():
    z, _ = lift_state(LAW2, EulerState(1, (1, 2)))
    assert in_K(LAW2, Rational(1), z.q, z)
    assert in_K(LAW2, Rational(1), z.q + 5, z)
    bad = PHPoint(z.m, z.u11, z.u12, z.q, (z.F[0] + 1, z.F[1]))
    assert not in_K(LAW2, Rational(1), z.q + 5, bad)
    assert not in_K(LAW2, Rational(1), z.q - 1, z)  # cap below q


def test_in_V_isotropic():
    assert in_V(LAW2, Rational(1), Rational(4), (0, 0), 0, 0, Rational(3))
    assert not in_V(LAW2, Rational(1), Rational(3), (0, 0), 0, 0, Rational(3))


def test_A_isotropic_unity():
    z = isotropic_point(q=3)
    for j in (1, 2, 3, 4):
        assert A_j(LAW2, Rational(1), Rational(4), z, j) == Rational(1)


def test_A_pairs_equal_random():
    rng = random.Random(23)
    for _ in range(40):
        rho, z, Q = random_V_member(rng)
        a1 = A_j(LAW2, rho, Q, z, 1)
        a2 = A_j(LAW2, rho, Q, z, 2)
        a3 = A_j(LAW2, rho, Q, z, 3)
        a4 = A_j(LAW2, rho, Q, z, 4)
        assert sign(a1 - a2) == 0
        assert sign(a3 - a4) == 0
        assert sign(a1) > 0 and sign(a3) > 0


def test_A_requires_V():
    z = isotropic_point(q=3)
    with pytest.raises(NotInV):
        A_j(LAW2, Rational(1), Rational(2), z, 1)  # Q < q


def test_r_isotropic_sqrt2():
    z = isotropic_point(q=3)
    r = r_j(LAW2, Rational(1), Rational(4), z, 1)
    assert sign(r - adjoin_sqrt(2)) == 0


def test_r_quadratic_identity_random():
    # r^2 (Q-q)^2 + r (Q-q) (m.sigma) - rho A - rho (Q-q) = 0 exactly
    rng = random.Random(31)
    for _ in range(40):
        rho, z, Q = random_V_member(rng)
        for j in (1, 2, 3, 4):
            A = A_j(LAW2, rho, Q, z, j)
            r = r_j(LAW2, rho, Q, z, j)
            assert sign(r) > 0
            s1, s2 = SIGMA[j - 1]
            msig = z.m[0] * s1 + z.m[1] * s2
            gap = Q - z.q
            residual = r * r * gap * gap + r * gap * msig - rho * A - rho * gap
            assert sign(residual) == 0


def test_f_isotropic():
    z = isotropic_point(q=3)
    f1 = f_j(LAW2, Rational(1), Rational(4), z, 1)
    inv_sqrt2 = 1 / adjoin_sqrt(2)
    assert sign(f1[0] - inv_sqrt2) == 0 and sign(f1[1] - inv_sqrt2) == 0
    f2 = f_j(LAW2, Rational(1), Rational(4), z, 2)
    assert sign(f2[0] + f1[0]) == 0 and sign(f2[1] + f1[1]) == 0


def test_in_W_rigid_flux_and_far_flux():
    rng = random.Random(37)
    rho, z, Q = random_V_member(rng)
    rf = rigid_flux(LAW2, rho, z)
    member = PHPoint(z.m, z.u11, z.u12, z.q, rf)
    ok, witness = in_W(LAW2, rho, Q, member)
    assert ok and witness is not None
    total = witness.kappa[0] + witness.kappa[1] + witness.kappa[2] + witness.kappa[3]
    assert sign(total - 1) == 0
    far = PHPoint(z.m, z.u11, z.u12, z.q, (rf[0] + 10 ** 6, rf[1]))
    ok, witness = in_W(LAW2, rho, Q, far)
    assert not ok and witness is None


def scan_feasible(cs, a, b, steps=200):
    """Dense 1-parameter scan oracle for the polytope membership."""
    c1, c2, c3, c4 = (float(c) for c in cs)
    af, bf = float(a), float(b)
    for i in range(1, steps):
        s = i / steps
        k1 = (af + s * c2) / (c1 + c2)
        k2 = s - k1
        k3 = (bf + (1 - s) * c4) / (c3 + c4)
        k4 = (1 - s) - k3
        if min(k1, k2, k3, k4) > 1e-12:
            return True
    return False


def test_in_W_agrees_with_scan_oracle():
    rng = random.Random(41)
    agree = 0
    for _ in range(50):
        rho, z, Q = random_V_member(rng)
        cs = [A_j(LAW2, rho, Q, z, j) / r_j(LAW2, rho, Q, z, j) for j in (1, 2, 3, 4)]
        rf = rigid_flux(LAW2, rho, z)
        v = (Rational(Fraction(rng.randint(-40, 40), 20)) * cs[0],
             Rational(Fraction(rng.randint(-40, 40), 20)) * cs[2])
        cand = PHPoint(z.m, z.u11, z.u12, z.q, (rf[0] + v[0], rf[1] + v[1]))
        got, witness = in_W(LAW2, rho, Q, cand)
        expected = scan_feasible(cs, (v[0] + v[1]) / 2, (v[0] - v[1]) / 2)
        # the scan is float-resolution; skip razor-thin disagreements
        if got != expected:
            margin = abs(float(v[0])) + abs(float(v[1]))
            assert margin > 0  # sanity
            continue
        agree += 1
        if got:
            k = witness.kappa
            for kj in k:
                assert sign(kj) > 0
            assert sign(k[0] + k[1] + k[2] + k[3] - 1) == 0
            rec0 = sum((kj * fv[0] for kj, fv in zip(k, witness.vertices)), as_xreal(0))
            rec1 = sum((kj * fv[1] for kj, fv in zip(k, witness.vertices)), as_xreal(0))
            assert sign(rec0 - v[0]) == 0
            assert sign(rec1 - v[1]) == 0
    assert agree >= 45


def vertex_point(law, rho, Q, z, j):
    rf = rigid_flux(law, rho, z)
    fv = f_j(law, rho, Q, z, j)
    return PHPoint(z.m, z.u11, z.u12, z.q, (rf[0] + fv[0], rf[1] + fv[1]))


def test_split_isotropic_mu_plus():
    z = vertex_point(LAW2, Rational(1), Rational(4), isotropic_point(q=3), 1)
    tau1, z1, tau2, z2, zhat = split_flux_direction(LAW2, Rational(1), Rational(4), z, 1)
    # mu_+ = Q - q = 1 shows up as z2.q - z.q since qhat = 1
    assert sign(z2.q - z.q - 1) == 0
    assert sign(z2.q - 4) == 0


def test_split_random_instances():
    rng = random.Random(53)
    checked = 0
    for _ in range(60):
        rho, z0, Q = random_V_member(rng)
        j = rng.randint(1, 4)
        z = vertex_point(LAW2, rho, Q, z0, j)
        tau1, z1, tau2, z2, zhat = split_flux_direction(LAW2, rho, Q, z, j)
        # convex combination reproduces the input exactly
        back = tau1 * z1 + tau2 * z2
        for c, ce in zip(back.components(), z.components()):
            assert sign(c - ce) == 0
        # endpoints on the hull boundary: det = 0, common trace shift 2A
        A = A_j(LAW2, rho, Q, z, j)
        M0 = matrix_M(LAW2, rho, z)
        for ze in (z1, z2):
            Me = matrix_M(LAW2, rho, ze)
            assert sign(Me.det()) == 0
            assert sign(Me.trace() - (M0.trace() + 2 * A)) == 0
            assert sign(ze.q - Q) <= 0
            dev = flux_deviation(LAW2, rho, ze)
            assert sign(dev[0]) == 0 and sign(dev[1]) == 0
        # mu_+ = Q - q exactly
        assert sign(z2.q - Q) == 0
        checked += 1
    assert checked == 60


def test_split_rejects_wrong_flux():
    rng = random.Random(59)
    rho, z0, Q = random_V_member(rng)
    bad = PHPoint(z0.m, z0.u11, z0.u12, z0.q, (123, 456))
    with pytest.raises(HypothesesViolated):
        split_flux_direction(LAW2, rho, Q, bad, 1)


def test_w_flux_vertices_barycenter():
    rng = random.Random(61)
    rho, z0, Q = random_V_member(rng)
    rf = rigid_flux(LAW2, rho, z0)
    member = PHPoint(z0.m, z0.u11, z0.u12, z0.q, rf)
    ok, witness = in_W(LAW2, rho, Q, member)
    assert ok
    verts = w_flux_vertices(LAW2, rho, Q, member)
    acc = witness.kappa[0] * verts[0]
    for kj, vz in zip(witness.kappa[1:], verts[1:]):
        acc = acc + kj * vz
    for c, ce in zip(acc.components(), member.components()):
        assert sign(c - ce) == 0


def test_in_Kco_mU_monotone_in_q():
    z, _ = lift_state(LAW2, EulerState(2, (1, -1)))
    assert in_Kco_mU(LAW2, Rational(2), z.q, z.m, z.u11, z.u12)
    assert in_Kco_mU(LAW2, Rational(2), z.q + 3, z.m, z.u11, z.u12)
    assert not in_Kco_mU(LAW2, Rational(2), z.q - Rational(1, 2), z.m, z.u11, z.u12)


@st.composite
def exact_V_points(draw):
    """Exact (rho, z) with M(z) negative definite and q > 0, flux anywhere."""
    def frac(lo, hi, den):
        return Rational(Fraction(draw(st.integers(lo, hi)), draw(st.integers(1, den))))

    rho = frac(1, 30, 10)
    m = (frac(-12, 12, 6), frac(-12, 12, 6))
    u11, u12 = frac(-8, 8, 6), frac(-8, 8, 6)
    p = pressure(LAW2, rho)
    n11 = m[0] * m[0] / rho - u11 + p
    n12 = m[0] * m[1] / rho - u12
    n22 = m[1] * m[1] / rho + u11 + p
    q = xmax(n11, n22) + xmax(n12, (-1) * n12) + frac(1, 20, 4)
    z0 = PHPoint(m, u11, u12, q, (0, 0))
    rf = rigid_flux(LAW2, rho, z0)
    F = (rf[0] + frac(-400, 400, 4), rf[1] + frac(-400, 400, 4))
    return rho, PHPoint(m, u11, u12, q, F)


@settings(max_examples=40, deadline=None)
@given(exact_V_points(), st.integers(0, 3))
def test_geometry_reuse_matches_fresh_in_W(point, below):
    rho, z = point
    geom = WGeometry(LAW2, rho, z)
    for n in range(1, 7):
        Q = z.q * (2 ** n)
        got, witness = geom.in_W(Q)
        fresh, fresh_witness = in_W(LAW2, rho, Q, z)
        assert got == fresh
        if got:
            assert witness.kappa == fresh_witness.kappa
            assert witness.vertices == fresh_witness.vertices
    # caps at or below q leave V: same verdicts and exceptions as before
    Q = z.q - below
    assert geom.in_W(Q) == (False, None) == in_W(LAW2, rho, Q, z)
    with pytest.raises(NotInV):
        A_j(LAW2, rho, Q, z, 1)
    with pytest.raises(NotInV):
        geom.r(Q, 3)


def test_in_W_takes_one_square_root_per_vertex_pair(monkeypatch):
    # a failing cap is decided in the tower with no square root; a
    # certifying one takes one root per vertex pair for its witness (r^1, r^2
    # share their radicand, and so do r^3, r^4)
    import wildfan.hull as hull
    from wildfan.fan import paper_example

    calls = []

    def counted(x):
        calls.append(x)
        return adjoin_sqrt(x)

    monkeypatch.setattr(hull, "adjoin_sqrt", counted)
    fan = paper_example()
    for rho, z in fan.regions:
        geom = WGeometry(fan.law, rho, z)
        ok, n = False, 0
        while not ok:
            n += 1
            calls.clear()
            ok, _ = geom.in_W(z.q * 2 ** n)
            assert len(calls) == (2 if ok else 0)
        assert n > 1  # failing caps were probed too


@st.composite
def perturbed_paper_regions(draw):
    """A gamma = 2 paper region with q and F shifted by rationals.  The flux
    is drawn free, or on a diagonal through the rigid flux, where the
    deviation coordinate a or b is exactly 0."""
    from wildfan.fan import paper_example

    def shift(lo, hi, den):
        return Rational(draw(st.integers(lo, hi)), draw(st.integers(1, den)))

    rho, z = paper_example().regions[draw(st.integers(0, 2))]
    q = z.q + shift(-1, 200, 100)
    rf = rigid_flux(LAW2, rho, PHPoint(z.m, z.u11, z.u12, q, (0, 0)))
    d = shift(-60, 60, 8)
    F = {"free": (z.F[0] + shift(-60, 60, 8), z.F[1] + d),
         "a=0": (rf[0] + d, rf[1] - d),
         "b=0": (rf[0] + d, rf[1] + d)}[draw(st.sampled_from(("free", "a=0", "b=0")))]
    return rho, PHPoint(z.m, z.u11, z.u12, q, F)


def _interval_slack_sign(geom, Q):
    """sign(1 - lo - hi) refined over the roots r^j, as in_W decides it on
    interval data; None where 256 bits do not decide it."""
    c1, c2, c3, c4 = geom.scales(Q)
    lo = xmax(geom.a / c1, (-1) * geom.a / c2, 0)
    hi = xmax(geom.b / c3, (-1) * geom.b / c4, 0)
    try:
        return sign(1 - lo - hi, precision_cap=256)
    except Inconclusive:
        return None


@settings(max_examples=30, deadline=None)
@given(perturbed_paper_regions())
def test_exact_W_decision_matches_the_interval_slack(point):
    # caps one doubling either side of the first certifying one, and caps
    # bisected towards the W boundary between them
    rho, z = point
    try:
        geom = WGeometry(LAW2, rho, z)
    except NotInV:
        assume(False)
    n = next((n for n in range(1, 31) if geom.in_W(z.q * 2 ** n)[0]), None)
    assume(n is not None)
    out, inside = z.q * 2 ** (n - 1), z.q * 2 ** n
    caps = [inside, z.q * 2 ** (n + 1)] + ([out] if n > 1 else [])
    for _ in range(4):
        if n == 1:
            break
        mid = (out + inside) / 2
        caps.append(mid)
        if geom.in_W(mid)[0]:
            inside = mid
        else:
            out = mid
    for Q in caps:
        exact = geom._slack_sign(*geom._radicands(Q))
        assert exact is not None  # tower data take the exact path
        assert geom.in_W(Q)[0] == (exact > 0)
        interval = _interval_slack_sign(geom, Q)
        if interval is not None:
            assert exact == interval


def test_interval_data_keep_the_refined_W_decision():
    # at gamma = 1 the potential rho log rho makes the flux deviation an
    # interval expression: in_W refines sign(1 - lo - hi) instead, and
    # agrees with the float scan one doubling either side of its first cap
    from wildfan.fan import paper_example

    law1 = PressureLaw(gamma=1)
    failing = 0
    for rho, z in paper_example().regions:
        geom = WGeometry(law1, rho, z)
        assert geom._slack_sign(*geom._radicands(z.q * 2)) is None
        n = next(n for n in range(1, 31) if geom.in_W(z.q * 2 ** n)[0])
        for cap in [z.q * 2 ** k for k in range(max(n - 1, 1), n + 2)]:
            ok, witness = geom.in_W(cap)
            assert ok == scan_feasible(geom.scales(cap), geom.a, geom.b)
            if ok:
                assert all(sign(k) > 0 for k in witness.kappa)
            failing += not ok
    assert failing  # region 1 first certifies at 2^4 q


def test_a_cap_with_a_W_slack_of_exactly_zero_is_outside_W():
    # rho = 1, m = 0, U = 0, q = 2, F = (1/4, 1/4): A^j = 1/2, both vertex
    # radicands are 4 at Q = 5/2, and there the polytope slack 1 - lo - hi
    # is exactly 0.  W is open, so that cap is outside it: on the tower
    # path, and on the refined path with the cap an interval expression,
    # whose enclosures are then all points and give the slack the sign 0
    z = PHPoint((0, 0), 0, 0, 2, (Rational(1, 4), Rational(1, 4)))
    geom = WGeometry(LAW2, Rational(1), z)
    boundary, step = Rational(5, 2), Rational(1, 10 ** 6)
    for Q, slack in ((boundary - step, -1), (boundary, 0), (boundary + step, 1)):
        assert geom._slack_sign(*geom._radicands(Q)) == slack
        assert in_W(LAW2, Rational(1), Q, z)[0] is (slack > 0)
        interval_Q = IntervalExpr.lift(Q)
        assert geom._slack_sign(*geom._radicands(interval_Q)) is None
        assert _interval_slack_sign(geom, interval_Q) == slack
        assert geom.in_W(interval_Q)[0] is (slack > 0)
