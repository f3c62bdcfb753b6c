"""Constitutive-set geometry: membership predicates and convex splittings.

Everything is phrased through the symmetric matrix

    M = m (x) m / rho - U + (p(rho) - q) I.

The constitutive set fixes M = 0 together with the rigid energy flux; the
relaxation replaces M = 0 by negative (semi)definiteness.  Eigenvalues are
never extracted: all classifications go through the polynomial trace/det
equivalences, which keeps every decision inside the quadratic tower.

The set W is the explicitly parameterized subset of the relaxed interior:
its flux freedom is the open polytope spanned by four flux vertices
f^j = (A^j / r^j) sigma^j, and points with one of those fluxes split along
a wave direction into two hull boundary points (the convex splitting used
by the oscillation construction).

In f^j only r^j depends on the cap Q, through the gap Q - q; M, det M and
A^j do not.  WGeometry(law, rho, z) computes the cap-independent part once
(M and its class, the two distinct A values, the flux deviation) and
answers r^j, the vertex scales, f^j and W-membership for any cap from it.
Per cap, one helper forms the gap and the two vertex radicands and one the
four roots, from one square root per vertex pair; every per-cap answer,
split_flux_direction's included, reads these two.  find_Q builds one
geometry per region and probes its whole doubling schedule through it.

On tower data (as at gamma = 2) W-membership is decided with no rounding,
by the tower sign rule two levels up (see WGeometry.in_W); the witness
weights stay interval expressions over the roots r^j.
"""

from __future__ import annotations

from enum import Enum

from .exactnum import QuadExt, XReal, _tower_sign, adjoin_sqrt, as_xreal, sign, xmax
from .model import PHPoint, PressureLaw, Record, pressure, pressure_potential

__all__ = [
    "MatrixM",
    "LambdaClass",
    "WDecomposition",
    "WGeometry",
    "NotInV",
    "HypothesesViolated",
    "SIGMA",
    "matrix_M",
    "lambda_class",
    "in_K",
    "in_V",
    "A_j",
    "r_j",
    "f_j",
    "rigid_flux",
    "flux_deviation",
    "in_W",
    "split_flux_direction",
    "w_flux_vertices",
    "in_Kco_mU",
]


class NotInV(ValueError):
    """Point is not in the open relaxed set V (negative definiteness fails)."""


class HypothesesViolated(ValueError):
    """Inputs do not satisfy the splitting hypotheses."""


#: the four flux directions (diagonals of the square)
SIGMA: tuple[tuple[int, int], ...] = ((1, 1), (-1, -1), (1, -1), (-1, 1))


class MatrixM(Record):
    """Symmetric 2x2 matrix by entries (m11, m12, m22)."""

    m11: XReal
    m12: XReal
    m22: XReal

    def trace(self) -> XReal:
        return self.m11 + self.m22

    def det(self) -> XReal:
        return self.m11 * self.m22 - self.m12 * self.m12

    def quad_form(self, v: tuple[XReal, XReal]) -> XReal:
        return (self.m11 * v[0] * v[0] + 2 * self.m12 * v[0] * v[1]
                + self.m22 * v[1] * v[1])


class LambdaClass(Enum):
    NEG_DEF = "NegDef"
    NEG_SEMI_DEF_SINGULAR = "NegSemiDefSingular"
    POS_PART = "Indefinite/PosPart"


def matrix_M(law: PressureLaw, rho: XReal, z: PHPoint) -> MatrixM:
    """M = m (x) m / rho - U + (p(rho) - q) I for the phase point z."""
    rho = as_xreal(rho)
    p = pressure(law, rho)
    shift = p - z.q
    return MatrixM(
        m11=z.m[0] * z.m[0] / rho - z.u11 + shift,
        m12=z.m[0] * z.m[1] / rho - z.u12,
        m22=z.m[1] * z.m[1] / rho + z.u11 + shift,
    )


def lambda_class(M: MatrixM) -> LambdaClass:
    """Sign class of the largest eigenvalue, via trace/det only."""
    tr = sign(M.trace())
    dt = sign(M.det())
    if tr < 0 and dt > 0:
        return LambdaClass.NEG_DEF
    if tr <= 0 and dt == 0:
        return LambdaClass.NEG_SEMI_DEF_SINGULAR
    return LambdaClass.POS_PART


def rigid_flux(law: PressureLaw, rho: XReal, z: PHPoint) -> tuple[XReal, XReal]:
    """The energy flux forced on constitutive points: (q + P)/rho * m."""
    scale = (z.q + pressure_potential(law, rho)) / rho
    return (scale * z.m[0], scale * z.m[1])


def flux_deviation(law: PressureLaw, rho: XReal, z: PHPoint) -> tuple[XReal, XReal]:
    rf = rigid_flux(law, rho, z)
    return (z.F[0] - rf[0], z.F[1] - rf[1])


def in_K(law: PressureLaw, rho: XReal, Q: XReal, z: PHPoint) -> bool:
    """Membership in the constitutive set: exact nonlinearity plus q <= Q."""
    rho, Q = as_xreal(rho), as_xreal(Q)
    M = matrix_M(law, rho, z)
    # the momentum-flux identity M = 0 and the rigid flux, componentwise
    identities = (M.m11, M.m12, M.m22, *flux_deviation(law, rho, z))
    return all(sign(v) == 0 for v in identities) and sign(z.q - Q) <= 0


def in_V(law: PressureLaw, rho: XReal, Q: XReal,
         m: tuple[XReal, XReal], u11: XReal, u12: XReal, q: XReal) -> bool:
    """Open set V: M negative definite and q < Q."""
    z = PHPoint(m, u11, u12, q, (0, 0))
    if lambda_class(matrix_M(law, rho, z)) is not LambdaClass.NEG_DEF:
        return False
    return sign(as_xreal(Q) - as_xreal(q)) > 0


class WDecomposition(Record):
    """Witness for W-membership: weights kappa_j > 0 summing to one with
    sum kappa_j f^j equal to the flux deviation."""

    kappa: tuple[XReal, XReal, XReal, XReal]
    vertices: tuple[tuple[XReal, XReal], ...]


class WGeometry:
    """The cap-independent part of the W geometry at (rho, z).

    M, its class, det M, the two distinct A values (A^1 = A^2, A^3 = A^4),
    the flux deviation with its diagonal coordinates and the m.sigma^j do
    not depend on the cap Q; they are computed once here.  Only the vertex
    roots r^j depend on Q, through the gap Q - q (``_radicands``, ``_roots``).
    Their radicands m.sigma^j^2 + 4 rho (A^j + gap) agree in the same pairs
    (m.sigma^2 = -m.sigma^1, m.sigma^4 = -m.sigma^3), so one square root
    serves each pair.  Raises NotInV unless M(z) is negative definite.
    """

    def __init__(self, law: PressureLaw, rho: XReal, z: PHPoint):
        rho = as_xreal(rho)
        M = matrix_M(law, rho, z)
        if lambda_class(M) is not LambdaClass.NEG_DEF:
            raise NotInV("matrix is not negative definite")
        self.z = z
        det = M.det()
        # A^j = det M / -M[v, v] with v = sigma^j rotated by 90deg; the
        # rotated directions agree up to sign in the pairs (1, 2) and (3, 4)
        a12, a34 = (det / (-M.quad_form((as_xreal(s2), as_xreal(-s1))))
                    for s1, s2 in (SIGMA[0], SIGMA[2]))
        self.A = (a12, a12, a34, a34)
        self.msig = tuple(z.m[0] * s1 + z.m[1] * s2 for s1, s2 in SIGMA)
        self._four_rho = 4 * rho
        # Q-independent head of the vertex radicand msig^2 + 4 rho A + 4 rho
        # gap, once per pair (j = 1, 2 and j = 3, 4)
        self._rad_head = tuple(self.msig[k] * self.msig[k] + self._four_rho * self.A[k]
                               for k in (0, 2))
        self.rigid = rigid_flux(law, rho, z)
        self.dev = (z.F[0] - self.rigid[0], z.F[1] - self.rigid[1])
        self.a = (self.dev[0] + self.dev[1]) / 2
        self.b = (self.dev[0] - self.dev[1]) / 2
        self._neg_a, self._neg_b = (-1) * self.a, (-1) * self.b
        # the cap-independent terms of the slack X + Y sqrt(R12) + Z sqrt(R34)
        # (see in_W), on tower data only
        self._slack_terms = None
        if all(isinstance(v, QuadExt) for v in (rho, a12, a34, *self.msig, self.a, self.b)):
            abs_a = self.a if sign(self.a) >= 0 else self._neg_a
            abs_b = self.b if sign(self.b) >= 0 else self._neg_b
            self._slack_terms = (2 * a12 * a34,
                                 self.a * a34 * self.msig[0] + self.b * a12 * self.msig[2],
                                 (-1) * abs_a * a34, (-1) * abs_b * a12)

    def _radicands(self, Q: XReal) -> tuple[XReal, tuple[XReal, XReal]]:
        """(gap, (R12, R34)) at cap Q: the gap Q - q and the vertex radicands
        msig^2 + 4 rho (A + gap) that r^1, r^2 and r^3, r^4 share.  Raises
        NotInV unless the gap is positive."""
        gap = as_xreal(Q) - self.z.q
        if sign(gap) <= 0:
            raise NotInV("q >= Q")
        return gap, tuple(head + self._four_rho * gap for head in self._rad_head)

    def _roots(self, gap: XReal, rads: tuple[XReal, XReal]) -> tuple[XReal, ...]:
        """The roots r^1..r^4 at this gap, from one square root per pair."""
        root12, root34 = map(adjoin_sqrt, rads)
        return tuple((-m + root) / (2 * gap)
                     for m, root in zip(self.msig, (root12, root12, root34, root34)))

    def r(self, Q: XReal, j: int) -> XReal:
        """Positive root r^j of the flux-vertex quadratic at cap Q."""
        return self._roots(*self._radicands(Q))[j - 1]

    def _scales_at(self, gap: XReal, rads: tuple[XReal, XReal]) -> tuple[XReal, ...]:
        """The vertex scales c_j = A^j / r^j at this gap, from two square roots."""
        return tuple(A / r for A, r in zip(self.A, self._roots(gap, rads)))

    def scales(self, Q: XReal) -> tuple[XReal, XReal, XReal, XReal]:
        """The vertex scales c_j = A^j / r^j at cap Q."""
        return self._scales_at(*self._radicands(Q))

    def f(self, Q: XReal, j: int) -> tuple[XReal, XReal]:
        """Flux vertex f^j = c_j sigma^j at cap Q."""
        c = self.A[j - 1] / self.r(Q, j)
        s1, s2 = SIGMA[j - 1]
        return (c * s1, c * s2)

    def _slack_sign(self, gap: XReal, rads: tuple[XReal, XReal]) -> int | None:
        """Exact sign of in_W's polytope slack 1 - lo - hi at this gap and its
        radicands; None unless the geometry and the gap are tower elements."""
        if self._slack_terms is None or not isinstance(gap, QuadExt):
            return None
        two_aa, x_tail, y, z = self._slack_terms
        return _tower_sign([gap * two_aa + x_tail, y, z, 0], rads)

    def in_W(self, Q: XReal) -> tuple[bool, WDecomposition | None]:
        """W-membership at cap Q with a constructive witness.

        In the diagonal flux coordinates a = (v1+v2)/2, b = (v1-v2)/2 and
        with vertex scales c_j, the polytope condition collapses to

            lo + hi < 1,  lo = max(a/c1, -a/c2, 0),  hi = max(b/c3, -b/c4, 0),

        and any s strictly inside the remaining interval yields strictly
        positive weights in closed form; we take the midpoint.

        With g = Q - q, m1 = m.sigma^1 = -m.sigma^2, m3 = m.sigma^3 =
        -m.sigma^4 and R12 = m1^2 + 4 rho (A^1 + g), R34 likewise, the roots
        are r^{1,2} = (-+m1 + sqrt(R12)) / (2g).  As c_j > 0, lo is |a|
        times the root that sign(a) picks over A^1, and hi likewise, so the
        slack 1 - lo - hi times 2g A^1 A^3 > 0 is

            X + Y sqrt(R12) + Z sqrt(R34),  X = 2g A^1 A^3 + a A^3 m1 + b A^1 m3,
                                            Y = -|a| A^3,  Z = -|b| A^1.

        On tower data its sign decides membership exactly, and a failing
        cap takes no square root.  Other data (interval expressions, as at
        gamma = 1) are decided by refining sign(1 - lo - hi).
        """
        try:
            gap, rads = self._radicands(Q)
        except NotInV:
            return False, None
        slack = self._slack_sign(gap, rads)
        if slack is not None and slack <= 0:
            return False, None
        c1, c2, c3, c4 = cs = self._scales_at(gap, rads)
        a, b = self.a, self.b
        lo = xmax(a / c1, self._neg_a / c2, 0)
        hi = xmax(b / c3, self._neg_b / c4, 0)
        if slack is None and sign(1 - lo - hi) <= 0:
            return False, None
        s = (lo + (1 - hi)) / 2
        k1 = (a + s * c2) / (c1 + c2)
        k2 = s - k1
        k3 = (b + (1 - s) * c4) / (c3 + c4)
        k4 = (1 - s) - k3
        vertices = tuple((c * s1, c * s2) for c, (s1, s2) in zip(cs, SIGMA))
        return True, WDecomposition(kappa=(k1, k2, k3, k4), vertices=vertices)


def A_j(law: PressureLaw, rho: XReal, Q: XReal, z: PHPoint, j: int) -> XReal:
    """det(M) over the negated quadratic form along sigma^j rotated by 90deg.

    Positive on V; equal in pairs A^1 = A^2 and A^3 = A^4.
    """
    geom = WGeometry(law, rho, z)
    geom._radicands(Q)  # A^j does not depend on Q, but it is defined on V only
    return geom.A[j - 1]


def r_j(law: PressureLaw, rho: XReal, Q: XReal, z: PHPoint, j: int) -> XReal:
    """Positive root of the flux-vertex quadratic; exact when the radicand
    admits a square root in the tower."""
    return WGeometry(law, rho, z).r(Q, j)


def f_j(law: PressureLaw, rho: XReal, Q: XReal, z: PHPoint, j: int) -> tuple[XReal, XReal]:
    """Flux vertex f^j = (A^j / r^j) sigma^j, a positive multiple of sigma^j."""
    return WGeometry(law, rho, z).f(Q, j)


def in_W(law: PressureLaw, rho: XReal, Q: XReal, z: PHPoint) -> tuple[bool, WDecomposition | None]:
    """W-membership with a constructive witness (see WGeometry.in_W)."""
    try:
        geom = WGeometry(law, rho, z)
    except NotInV:
        return False, None
    return geom.in_W(Q)


def split_flux_direction(law: PressureLaw, rho: XReal, Q: XReal, z: PHPoint,
                         j: int) -> tuple[XReal, PHPoint, XReal, PHPoint, PHPoint]:
    """Split a vertex-flux point into a convex pair of boundary points.

    Requires M(z) negative definite, q < Q and flux deviation exactly f^j.
    Returns (tau1, z1, tau2, z2, zhat) with z = tau1 z1 + tau2 z2,
    z_{1,2} = z + mu_{-,+} zhat, and both endpoints on the hull boundary
    with rigid flux; mu_+ equals Q - q.
    """
    rho = as_xreal(rho)
    try:
        geom = WGeometry(law, rho, z)
        gap, rads = geom._radicands(Q)
    except NotInV as exc:
        raise HypothesesViolated(str(exc)) from None
    r = geom._roots(gap, rads)[j - 1]
    s1, s2 = SIGMA[j - 1]
    c = geom.A[j - 1] / r
    dev = geom.dev
    if sign(dev[0] - c * s1) != 0 or sign(dev[1] - c * s2) != 0:
        raise HypothesesViolated(f"flux deviation is not f^{j}")

    base = rho / r - geom.msig[j - 1]
    # the mu radicand 4 rho A + base^2 is the square of 2 r (Q-q) - base,
    # which the vertex quadratic makes nonnegative; no nested radical needed
    sqrt_term = 2 * r * gap - base
    mu_minus = (base - sqrt_term) / (2 * r)
    mu_plus = gap

    P = pressure_potential(law, rho)
    zhat = PHPoint(
        m=(r * s1, r * s2),
        u11=(z.m[0] * s1 - z.m[1] * s2) * r / rho,
        u12=as_xreal(s1 * s2),
        q=1,
        F=(z.m[0] / rho + ((z.q + P) / rho * r + base / rho) * s1,
           z.m[1] / rho + ((z.q + P) / rho * r + base / rho) * s2),
    )
    z1 = z + mu_minus * zhat
    z2 = z + mu_plus * zhat
    span = mu_plus - mu_minus
    tau1 = mu_plus / span
    tau2 = (-1) * mu_minus / span
    return tau1, z1, tau2, z2, zhat


def w_flux_vertices(law: PressureLaw, rho: XReal, Q: XReal, z: PHPoint) -> tuple[PHPoint, ...]:
    """The four vertex-flux companions of a W-point: same (m, U, q), flux
    moved to rigid + f^j.  Their kappa-weighted barycenter is z."""
    geom = WGeometry(law, rho, z)
    rf = geom.rigid
    return tuple(PHPoint(z.m, z.u11, z.u12, z.q, (rf[0] + c * s1, rf[1] + c * s2))
                 for c, (s1, s2) in zip(geom.scales(Q), SIGMA))


def in_Kco_mU(law: PressureLaw, rho: XReal, q: XReal,
              m: tuple[XReal, XReal], u11: XReal, u12: XReal) -> bool:
    """Hull membership in the (m, U) slice at fixed rho and q:
    lambda_max(M) <= 0, i.e. trace <= 0 and det >= 0."""
    z = PHPoint(m, u11, u12, q, (0, 0))
    M = matrix_M(law, as_xreal(rho), z)
    return sign(M.trace()) <= 0 and sign(M.det()) >= 0
