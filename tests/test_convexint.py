"""Operator coefficients, staircase profiles, oscillation diagnostics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildfan.convexint import (
    BadParameters,
    BumpField,
    NotAWaveDirection,
    OperatorCase,
    PlaneProfileField,
    ProductField,
    _polyval,
    apply_operator,
    build_oscillation,
    build_staircase,
    diagnostics_csv,
    operator_coeffs,
    verify_pde_identity,
)
from wildfan.exactnum import Rational
from wildfan.hull import f_j, rigid_flux, split_flux_direction
from wildfan.model import PHPoint
from wildfan.wavecone import WaveDirection, in_Lambda


def c_zero_point():
    # (m, U, q, F) in the cone with eta = (a, b, 0): kernel forces m1 = 0
    # rows: b m2 = 0 is NOT required; with eta=(a,b,0): row1: b*m1 = 0 ...
    # choose a = 0, b = 1: kernel needs m1 = 0, U11 + q = 0, U12 = 0, F1 = 0
    z = PHPoint((0, 1), -2, 0, 2, (0, 3))
    eta = WaveDirection(Rational(0), (Rational(1), Rational(0)))
    return z, eta


def test_operator_coeffs_c_zero_case():
    z, eta = c_zero_point()
    co = operator_coeffs(z, eta)
    assert co.case_flag is OperatorCase.C_ZERO
    assert co.alpha == pytest.approx(-1.0)  # -m2/b^3
    assert co.beta == pytest.approx(2.0)    # q/b^3
    assert co.gamma == 0.0
    assert co.delta == pytest.approx(3.0)   # F2/b^3
    assert (co.epsilon, co.zeta) == (0.0, 0.0)


def test_operator_coeffs_scaling_homogeneity():
    z, eta = c_zero_point()
    co1 = operator_coeffs(z, eta)
    eta2 = WaveDirection(Rational(0), (Rational(2), Rational(0)))
    co2 = operator_coeffs(z, eta2)
    assert co2.alpha == pytest.approx(co1.alpha / 8.0)
    assert co2.beta == pytest.approx(co1.beta / 8.0)


def test_operator_coeffs_rejects_non_kernel():
    z = PHPoint((1, 1), 1, 1, 1, (1, 1))
    eta = WaveDirection(Rational(1), (Rational(1), Rational(1)))
    with pytest.raises(NotAWaveDirection):
        operator_coeffs(z, eta)


def cubic_profile():
    class Cubic:
        def deriv1d(self, order):
            def f(s, order=order):
                s = np.asarray(s, dtype=float)
                if order == 0:
                    return s ** 3 / 6.0
                if order == 1:
                    return s ** 2 / 2.0
                if order == 2:
                    return s
                if order == 3:
                    return np.ones_like(s)
                return np.zeros_like(s)
            return f
    return Cubic()


def sine_profile():
    # h = -sin, so h''' = cos
    class Sine:
        def deriv1d(self, order):
            return (lambda s: -np.sin(s), lambda s: -np.cos(s), np.sin, np.cos)[order % 4]
    return Sine()


_COMPONENTS = ("m1", "m2", "u11", "u12", "q", "F1", "F2")


def sample_points(n=5, span=1.0):
    rng = np.random.default_rng(0)
    return tuple(rng.uniform(-span, span, size=n ** 3) for _ in range(3))


def test_plane_wave_reproduces_z_for_cubic():
    # with h = s^3/6 (h''' = 1), L[h(. eta)] must equal z exactly
    z, eta = c_zero_point()
    co = operator_coeffs(z, eta)
    pts = sample_points()
    g = PlaneProfileField(cubic_profile(), co.eta)
    vals = apply_operator(co, g, pts)
    zv = [float(c) for c in z.components()]
    for comp, target in zip(_COMPONENTS, zv):
        assert np.max(np.abs(vals[comp] - target)) < 1e-10 * max(1.0, abs(target))


def test_plane_wave_reproduces_z_c_nonzero_from_cone_split():
    # a genuine cone element with c != 0: difference of split endpoints
    from wildfan.model import PressureLaw
    law = PressureLaw(gamma=2)
    base = PHPoint((0, 0), 0, 0, 3, (0, 0))
    rf = rigid_flux(law, Rational(1), base)
    fv = f_j(law, Rational(1), Rational(4), base, 1)
    vert = PHPoint(base.m, base.u11, base.u12, base.q, (rf[0] + fv[0], rf[1] + fv[1]))
    _, z1, _, z2, _ = split_flux_direction(law, Rational(1), Rational(4), vert, 1)
    dz = z2 - z1
    eta = in_Lambda(dz)
    assert eta is not None
    co = operator_coeffs(dz, eta)
    assert co.case_flag is OperatorCase.C_NONZERO
    pts = sample_points()
    zv = [float(c) for c in dz.components()]
    scale = max(abs(c) for c in zv)
    # L[h((t,x,y).eta)] = dz * h''' componentwise: dz itself when h''' = 1
    vals = apply_operator(co, PlaneProfileField(cubic_profile(), co.eta), pts)
    for comp, target in zip(_COMPONENTS, zv):
        assert np.max(np.abs(vals[comp] - target)) < 1e-10 * scale
    # sin profile: deviation bounded by rounding relative to |h'''| <= 1
    vals = apply_operator(co, PlaneProfileField(sine_profile(), co.eta), pts)
    a, b, c = co.eta
    h3 = np.cos(a * pts[0] + b * pts[1] + c * pts[2])
    for comp, target in zip(_COMPONENTS, zv):
        assert np.max(np.abs(vals[comp] - target * h3)) < 1e-9 * scale


def plane_times_bump(eta, amp=1.0, inner=0.7):
    """The field build_oscillation runs, a plane wave times the cutoff, with
    a sine profile so that every derivative order is nonzero."""
    return ProductField(PlaneProfileField(sine_profile(), eta, freq=3.0, amp=amp),
                        BumpField(((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)), inner=inner))


def test_pde_identity_plane_profile_times_bump():
    z, eta = c_zero_point()
    co = operator_coeffs(z, eta)
    # eta is oblique to the operator's direction, so every mixed partial of
    # the plane wave enters, and the samples reach the cutoff's transition
    g = plane_times_bump((0.5, -1.0, 2.0))
    pts = sample_points(n=6, span=2.0)
    res = verify_pde_identity(co, g, pts)
    assert res.scale > 1.0
    assert res.max_residual < 1e-9 * res.scale


def test_pde_identity_zero_field():
    z, eta = c_zero_point()
    co = operator_coeffs(z, eta)
    g = plane_times_bump(co.eta, amp=0.0)
    res = verify_pde_identity(co, g, sample_points())
    assert res.max_residual == 0.0


def test_staircase_shape_and_mean():
    prof = build_staircase(0.3, 0.05)
    f = prof.f
    xs = np.linspace(0.0, 1.0, 2001, endpoint=False)
    vals = f(xs)
    assert vals.min() >= -0.7 - 1e-12 and vals.max() <= 0.3 + 1e-12
    # plateaus at the stated windows
    assert np.allclose(f(np.linspace(0.06, 0.24, 50)), -0.7, atol=1e-12)
    assert np.allclose(f(np.linspace(0.36, 0.94, 50)), 0.3, atol=1e-12)
    assert abs(f.mean()) < 1e-12
    # closed-form integration oracle: trapezoid on a fine grid
    quad = np.trapezoid(np.concatenate([vals, vals[:1]]),
                        np.linspace(0.0, 1.0, 2002))
    assert abs(quad) < 1e-6


def test_staircase_odd_symmetry_at_half():
    prof = build_staircase(0.5, 0.05)
    xs = np.linspace(0.0, 1.0, 101, endpoint=False)
    # f(x + 1/2) = -f(x) for the symmetric split
    assert np.allclose(prof.f(xs + 0.5), -prof.f(xs), atol=1e-12)


def test_staircase_antiderivative_ladder():
    prof = build_staircase(0.4, 0.02)
    h = prof.h
    xs = np.linspace(0.0, 1.0, 400, endpoint=False)
    # h''' = f and periodicity of h, h', h''
    assert np.allclose(h.deriv1d(3)(xs), prof.f(xs), atol=1e-10)
    for order in range(3):
        d = h.deriv1d(order)
        ends = d(np.array([0.0, 1.0 - 1e-12]))
        assert abs(ends[0] - ends[1]) < 1e-8
    # central finite differences agree with the analytic derivative
    step = 1e-5
    fd = (h(xs + step) - h(xs - step)) / (2 * step)
    assert np.max(np.abs(fd - h.deriv1d(1)(xs))) < 1e-7


def test_staircase_bad_parameters():
    with pytest.raises(BadParameters):
        build_staircase(0.0, 0.01)
    with pytest.raises(BadParameters):
        build_staircase(0.4, 0.3)


def laminate_inputs():
    from wildfan.model import PressureLaw
    law = PressureLaw(gamma=2)
    base = PHPoint((0, 0), 0, 0, 3, (0, 0))
    rf = rigid_flux(law, Rational(1), base)
    fv = f_j(law, Rational(1), Rational(4), base, 1)
    vert = PHPoint(base.m, base.u11, base.u12, base.q, (rf[0] + fv[0], rf[1] + fv[1]))
    tau1, z1, tau2, z2, _ = split_flux_direction(law, Rational(1), Rational(4), vert, 1)
    return float(tau1), z1, z2, vert


def test_build_oscillation_diagnostics():
    tau1, z1, z2, z_star = laminate_inputs()
    box = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    delta = 0.02
    diags = []
    for k in (8, 16):
        _, diag = build_oscillation(z_star, z1, z2, tau1, box, k, delta, grid_n=24)
        diags.append(diag)
        assert diag.pde_residual < 1e-8 * diag.pde_scale
        assert abs(diag.fraction1 - tau1) < 6 * delta + 0.05
        assert abs(diag.fraction2 - (1.0 - tau1)) < 6 * delta + 0.05
    # commutator decays roughly like 1/k
    ratio = diags[1].commutator_sup / diags[0].commutator_sup
    assert 0.2 < ratio < 0.8
    assert diags[1].avg_norm <= diags[0].avg_norm * 1.5
    csv = diagnostics_csv(diags)
    assert csv.splitlines()[0] == "k,fraction1,fraction2,commutator_sup,avg_norm"
    assert len(csv.splitlines()) == 3


# float.hex of every OscillationDiagnostics field after k, for the laminate
# inputs on a 16^3 grid with delta = 0.02 (recorded with numpy 2.4.6).
OSCILLATION_GOLDEN = {
    8: ("0x1.3333333333333p-1", "0x1.999999999999ap-3", "0x1.c33a80b4ca1f9p-1",
        "0x1.5af3f04f92ed8p-3", "0x1.0000000000000p-39", "0x1.f76635fba87abp+12"),
    16: ("0x1.3333333333333p-1", "0x1.999999999999ap-3", "0x1.c0d5fe01f57e2p-2",
         "0x1.2372c6b0974b5p-3", "0x1.0000000000000p-39", "0x1.f76635fba87afp+13"),
}


def test_build_oscillation_golden_bits():
    tau1, z1, z2, z_star = laminate_inputs()
    box = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    for k, expected in OSCILLATION_GOLDEN.items():
        _, diag = build_oscillation(z_star, z1, z2, tau1, box, k, 0.02, grid_n=16)
        values = [getattr(diag, name) for name in diag._fields]
        assert values[0] == k
        assert tuple(v.hex() for v in values[1:]) == expected


def test_pde_identity_warm_cache_matches_cold():
    tau1, z1, z2, _ = laminate_inputs()
    co = operator_coeffs(z2 - z1, in_Lambda(z2 - z1))
    g = PlaneProfileField(build_staircase(tau1, 0.02).h, co.eta, freq=8.0, amp=8.0 ** -3)
    field = ProductField(g, BumpField(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))))
    rng = np.random.default_rng(11)
    pts = tuple(rng.uniform(0.0, 1.0, size=300) for _ in range(3))
    cache: dict = {}
    apply_operator(co, field, pts, cache)
    warm = verify_pde_identity(co, field, pts, cache)
    assert warm == verify_pde_identity(co, field, pts)


def test_product_field_leibniz_against_finite_differences():
    rng = np.random.default_rng(7)
    prod = plane_times_bump((0.5, -1.0, 2.0), inner=0.5)
    # samples reach into the cutoff's transition, where both factors vary
    pts = tuple(rng.uniform(-1.8, 1.8, size=40) for _ in range(3))
    h = 1e-6
    for axis in range(3):
        shift = [np.zeros(40)] * 3
        shift[axis] = np.full(40, h)
        plus = tuple(p + s for p, s in zip(pts, shift))
        minus = tuple(p - s for p, s in zip(pts, shift))
        fd = (prod.values(plus) - prod.values(minus)) / (2 * h)
        mi = [0, 0, 0]
        mi[axis] = 1
        analytic = prod.deriv(tuple(mi), pts)
        assert np.max(np.abs(fd - analytic)) < 1e-6 * max(1.0, np.max(np.abs(analytic)))


@pytest.mark.parametrize("grid_n", [7, 17])
@pytest.mark.parametrize("planes", [1, 3])
def test_build_oscillation_slab_invariance(monkeypatch, grid_n, planes):
    # slabs of 1 or 3 t-planes (3 divides neither 7 nor 17, so the last slab
    # is short) against one slab of the whole grid: the same arrays and the
    # same diagnostic bits
    import wildfan.convexint as convexint

    tau1, z1, z2, z_star = laminate_inputs()
    box = ((0.0, 1.0), (-0.5, 1.0), (0.0, 2.0))

    def run(slab_points):
        monkeypatch.setattr(convexint, "_SLAB_POINTS", slab_points, raising=True)
        return build_oscillation(z_star, z1, z2, tau1, box, 3, 0.02, grid_n=grid_n)

    whole, whole_diag = run(grid_n ** 3)
    slabbed, diag = run(planes * grid_n ** 2)
    assert diag.k == whole_diag.k == 3
    assert [getattr(diag, name).hex() for name in diag._fields[1:]] \
        == [getattr(whole_diag, name).hex() for name in whole_diag._fields[1:]]
    assert slabbed.keys() == whole.keys()
    for comp in whole:
        assert slabbed[comp].shape == (grid_n ** 3,)
        assert np.array_equal(slabbed[comp], whole[comp]), comp


# ±0.0, the extremes of the float range and subnormals, and anything finite
_COEFFICIENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1.7e308, 1e-300, -1e-300,
                     5e-324, -5e-324]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(_COEFFICIENT, min_size=1, max_size=9),
       x=st.one_of(_COEFFICIENT, st.lists(_COEFFICIENT, max_size=6)))
def test_polyval_matches_numpy_bit_for_bit(coeffs, x):
    # the in-house Horner steps equal numpy's polyval, also where they
    # overflow to inf or meet inf * 0 and give nan
    c = np.asarray(coeffs, dtype=float)
    points = np.asarray(x, dtype=float) if isinstance(x, list) else x
    with np.errstate(all="ignore"):
        got = _polyval(points, c)
        want = np.polynomial.polynomial.polyval(points, c)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
