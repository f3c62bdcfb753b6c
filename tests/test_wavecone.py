"""Wave cone membership, K-difference directions, iterated-split families."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from wildfan.exactnum import Rational, sign
from wildfan.hull import f_j, rigid_flux, split_flux_direction
from wildfan.model import EulerState, PHPoint, PressureLaw, lift_state
from wildfan.wavecone import (
    NForTooLarge,
    WeightedFamily,
    barycenter,
    eta_for_K_difference,
    in_Lambda,
    residual_norm_signs,
    verify_HN,
)

LAW2 = PressureLaw(gamma=2)


def test_zero_point_any_direction():
    z = PHPoint((0, 0), 0, 0, 0, (0, 0))
    d = in_Lambda(z)
    assert d is not None
    assert sign(d.eta_x[0]) != 0 or sign(d.eta_x[1]) != 0


def test_diag_traceless_not_in_cone():
    # m=0, U=diag(1,-1), q=0, F=0: kernel forces eta_x = 0
    z = PHPoint((0, 0), 1, 0, 0, (0, 0))
    assert in_Lambda(z) is None


def test_rank_one_kernel_is_the_plane_of_the_only_row():
    # m = 0, U = 0, q = 0: only the row (q, F) = (0, 3, 5) is nonzero
    d = in_Lambda(PHPoint((0, 0), 0, 0, 0, (3, 5)))
    assert d.as_tuple() == (0, 5, -3)


def test_difference_of_lifted_points_in_cone():
    z1, _ = lift_state(LAW2, EulerState(1, (1, 0)))
    z2, _ = lift_state(LAW2, EulerState(1, (0, 1)))
    d = in_Lambda(z1 - z2)
    assert d is not None


def test_eta_for_K_difference_example():
    z1, _ = lift_state(LAW2, EulerState(1, (1, 0)))
    z2, _ = lift_state(LAW2, EulerState(1, (0, 1)))
    d = eta_for_K_difference(Rational(1), z1, z2)
    # perpendicular to m1 - m2 = (1,-1); our convention picks (1,1)
    assert sign(d.eta_x[0] - 1) == 0 and sign(d.eta_x[1] - 1) == 0
    assert sign(d.eta_t + 1) == 0
    assert residual_norm_signs(z1 - z2, d)


def test_eta_for_equal_points():
    z, _ = lift_state(LAW2, EulerState(2, (3, 4)))
    d = eta_for_K_difference(Rational(2), z, z)
    assert sign(d.eta_x[0]) != 0 or sign(d.eta_x[1]) != 0


def test_eta_rejects_mismatched_density():
    from wildfan.wavecone import VerificationFailed
    z1, _ = lift_state(LAW2, EulerState(1, (1, 0)))
    z2, _ = lift_state(LAW2, EulerState(2, (0, 1)))
    with pytest.raises(VerificationFailed):
        eta_for_K_difference(Rational(1), z1, z2)


def test_eta_random_pairs_annihilate():
    rng = random.Random(17)
    for _ in range(100):
        rho = Rational(Fraction(rng.randint(1, 20), rng.randint(1, 6)))
        m1 = (Rational(Fraction(rng.randint(-9, 9), rng.randint(1, 5))),
              Rational(Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
        m2 = (Rational(Fraction(rng.randint(-9, 9), rng.randint(1, 5))),
              Rational(Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
        z1, _ = lift_state(LAW2, EulerState(rho, m1))
        z2, _ = lift_state(LAW2, EulerState(rho, m2))
        d = eta_for_K_difference(rho, z1, z2)
        assert residual_norm_signs(z1 - z2, d)


def test_eta_for_tower_valued_states():
    # both states at the density of the left Riemann datum, one carrying
    # the tower-valued boundary momentum
    from wildfan.exactnum import QuadExt
    m_minus = Rational(3, 2) * QuadExt.sqrt_of(5)
    z1, _ = lift_state(LAW2, EulerState(1, (Rational(0), m_minus)))
    z2, _ = lift_state(LAW2, EulerState(1, (Rational(0), Rational(0))))
    d = eta_for_K_difference(Rational(1), z1, z2)
    assert residual_norm_signs(z1 - z2, d)


def test_barycenter_roundtrip():
    z1, _ = lift_state(LAW2, EulerState(1, (1, 0)))
    z2, _ = lift_state(LAW2, EulerState(1, (0, 1)))
    fam = WeightedFamily([(Rational(1, 3), z1), (Rational(2, 3), z2)])
    b = barycenter(fam)
    expect = Rational(1, 3) * z1 + Rational(2, 3) * z2
    for c, ce in zip(b.components(), expect.components()):
        assert sign(c - ce) == 0


def test_verify_HN_single_and_split_pair():
    z, _ = lift_state(LAW2, EulerState(1, (0, 0)))
    assert verify_HN(WeightedFamily([(Rational(1), z)]))

    # pair produced by a flux-direction split is a laminate by construction
    base = PHPoint((0, 0), 0, 0, 3, (0, 0))
    rf = rigid_flux(LAW2, Rational(1), base)
    fv = f_j(LAW2, Rational(1), Rational(4), base, 1)
    vert = PHPoint(base.m, base.u11, base.u12, base.q, (rf[0] + fv[0], rf[1] + fv[1]))
    tau1, z1, tau2, z2, _ = split_flux_direction(LAW2, Rational(1), Rational(4), vert, 1)
    assert verify_HN(WeightedFamily([(tau1, z1), (tau2, z2)]))


def test_verify_HN_rejects_noncone_pair():
    zero = PHPoint((0, 0), 0, 0, 0, (0, 0))
    off = PHPoint((0, 0), 1, 0, 0, (0, 0))  # difference not in the cone
    fam = WeightedFamily([(Rational(1, 2), zero), (Rational(1, 2), off)])
    assert not verify_HN(fam)


def test_verify_HN_permutation_invariant():
    base = PHPoint((0, 0), 0, 0, 3, (0, 0))
    rf = rigid_flux(LAW2, Rational(1), base)
    fv = f_j(LAW2, Rational(1), Rational(4), base, 1)
    vert = PHPoint(base.m, base.u11, base.u12, base.q, (rf[0] + fv[0], rf[1] + fv[1]))
    tau1, z1, tau2, z2, _ = split_flux_direction(LAW2, Rational(1), Rational(4), vert, 1)
    a = WeightedFamily([(tau1, z1), (tau2, z2)])
    b = WeightedFamily([(tau2, z2), (tau1, z1)])
    assert verify_HN(a) == verify_HN(b) is True


def test_verify_HN_collinear_constitutive_families():
    # lifted states at equal density with purely normal momenta: every
    # difference, including merged barycenters, keeps the direction (0,1,0)
    # in the cone, so families of any size certify
    states = [lift_state(LAW2, EulerState(1, (0, v)))[0] for v in (0, 1, 2, 3)]
    fam3 = WeightedFamily([(Rational(1, 4), states[0]),
                           (Rational(1, 4), states[1]),
                           (Rational(1, 2), states[2])])
    assert verify_HN(fam3)
    fam4 = WeightedFamily([(Rational(1, 8), states[0]),
                           (Rational(1, 8), states[1]),
                           (Rational(1, 4), states[2]),
                           (Rational(1, 2), states[3])])
    assert verify_HN(fam4)


def test_verify_HN_mixed_family_with_outlier():
    # one member with a different momentum-flux trace breaks every merge
    # involving it (the kernel forces eta_x = 0), so the family is stuck
    z0, _ = lift_state(LAW2, EulerState(1, (0, 0)))
    z1, _ = lift_state(LAW2, EulerState(1, (0, 1)))
    off = PHPoint((0, 0), 2, 0, 0, (0, 0))
    assert in_Lambda(z0 - off) is None and in_Lambda(z1 - off) is None
    fam = WeightedFamily([(Rational(1, 3), z0), (Rational(1, 3), z1),
                          (Rational(1, 3), off)])
    assert not verify_HN(fam)


def test_verify_HN_size_guard():
    z = PHPoint((0, 0), 0, 0, 0, (0, 0))
    fam = WeightedFamily([(Rational(1, 9), z)] * 9)
    with pytest.raises(NForTooLarge):
        verify_HN(fam)
