"""Desk-scale convex-integration kernels in floating point.

This module demonstrates (it does not certify) the oscillation machinery:
the third-order homogeneous operators attached to wave directions, the
mollified square-wave profile driving a binary laminate, and the localized
plane-wave perturbation with its quantitative diagnostics (plateau volume
fractions, cutoff commutator decay, weak-star averaging).

All fields carry analytic derivatives up to total order four so that the
operator identities can be residual-checked on grids: the identities are
algebraic in the mixed partials, so any residual is pure rounding noise.
The oscillation evaluates its grid by slabs of whole t-planes, so memory
grows with slab * grid^2 plus the grid^3 outputs.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING

from .model import PHPoint, Record

if TYPE_CHECKING:
    from .wavecone import WaveDirection


class _NumpyOnUse:
    """Stands in for numpy until a kernel first uses it: the first attribute
    access imports numpy and rebinds this module's `np` to it, through
    `globals()` because CI rejects `global` statements."""

    def __getattr__(self, name: str):
        import numpy

        globals()["np"] = numpy
        return getattr(numpy, name)


# numpy loads when a kernel first runs, not when the CLI imports this module,
# so the exact commands start where numpy is not installed
np = _NumpyOnUse()

__all__ = [
    "NotAWaveDirection",
    "NotLambdaDirection",
    "BadParameters",
    "OperatorCase",
    "OperatorCoeffs",
    "SmoothField",
    "PlaneProfileField",
    "ProductField",
    "BumpField",
    "PiecewisePoly",
    "StaircaseProfile",
    "OscillationDiagnostics",
    "operator_coeffs",
    "apply_operator",
    "verify_pde_identity",
    "build_staircase",
    "build_oscillation",
    "diagnostics_csv",
]


class NotAWaveDirection(ValueError):
    """(z, eta) fails the kernel equation of the linearized system."""


class NotLambdaDirection(ValueError):
    """z2 - z1 admits no spatially nontrivial wave direction."""


class BadParameters(ValueError):
    """Staircase parameters out of range."""


class OperatorCase(Enum):
    C_ZERO = "c=0"
    C_NONZERO = "c!=0"


def _phpoint_floats(z: PHPoint) -> np.ndarray:
    return np.array([float(c) for c in z.components()], dtype=float)


class OperatorCoeffs(Record):
    """Coefficients (alpha..zeta) of the suitable third-order operator for a
    wave-cone element, together with its direction eta = (a, b, c)."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    epsilon: float
    zeta: float
    case_flag: OperatorCase
    eta: tuple[float, float, float]


def operator_coeffs(z: PHPoint, eta: WaveDirection) -> OperatorCoeffs:
    """Coefficients from the two charts of the construction (c = 0, c != 0).

    The kernel equation of the 4x3 system is re-checked numerically before
    trusting the chart formulas.
    """
    zv = _phpoint_floats(z)
    m1, m2, u11, u12, q, F1, F2 = zv
    a = float(eta.eta_t)
    b, c = float(eta.eta_x[0]), float(eta.eta_x[1])
    if b == 0.0 and c == 0.0:
        raise NotAWaveDirection("eta_x must be nonzero")
    rows = np.array([
        [0.0, m1, m2],
        [m1, u11 + q, u12],
        [m2, u12, -u11 + q],
        [q, F1, F2],
    ])
    res = rows @ np.array([a, b, c])
    scale = max(1.0, float(np.max(np.abs(rows)))) * max(abs(a), abs(b), abs(c), 1.0)
    if float(np.max(np.abs(res))) > 1e-8 * scale:
        raise NotAWaveDirection(f"kernel residual {np.max(np.abs(res)):.3e}")
    if c == 0.0:
        if abs(m1) > 1e-10 * scale:
            raise NotAWaveDirection("c = 0 chart forces m1 = 0")
        b3 = b ** 3
        return OperatorCoeffs(-m2 / b3, q / b3, 0.0, F2 / b3, 0.0, 0.0,
                              OperatorCase.C_ZERO, (a, b, c))
    denom = c * (b * b + c * c)
    return OperatorCoeffs(m1 / denom, 0.0, q / denom, 0.0, F2 / denom, F1 / denom,
                          OperatorCase.C_NONZERO, (a, b, c))


# term tables: component -> [(coefficient name, multiplier, (kt, kx, ky))]
_L_TERMS: dict[str, list[tuple[str, float, tuple[int, int, int]]]] = {
    "m1": [("alpha", 1, (0, 2, 1)), ("alpha", 1, (0, 0, 3))],
    "m2": [("alpha", -1, (0, 3, 0)), ("alpha", -1, (0, 1, 2))],
    "u11": [("alpha", -2, (1, 1, 1)), ("beta", -1, (0, 3, 0)), ("beta", 1, (0, 1, 2)),
            ("gamma", -1, (0, 2, 1)), ("gamma", 1, (0, 0, 3))],
    "u12": [("alpha", 1, (1, 2, 0)), ("alpha", -1, (1, 0, 2)),
            ("beta", -2, (0, 2, 1)), ("gamma", -2, (0, 1, 2))],
    "q": [("beta", 1, (0, 3, 0)), ("beta", 1, (0, 1, 2)),
          ("gamma", 1, (0, 2, 1)), ("gamma", 1, (0, 0, 3))],
    "F1": [("beta", -1, (1, 2, 0)), ("gamma", -1, (1, 1, 1)), ("delta", -1, (0, 2, 1)),
           ("epsilon", -1, (0, 1, 2)), ("zeta", 1, (0, 0, 3))],
    "F2": [("beta", -1, (1, 1, 1)), ("gamma", -1, (1, 0, 2)), ("delta", 1, (0, 3, 0)),
           ("epsilon", 1, (0, 2, 1)), ("zeta", -1, (0, 1, 2))],
}

_COMPONENTS = ("m1", "m2", "u11", "u12", "q", "F1", "F2")

# PDE rows as derivatives of operator components: row -> [(component, axis)]
# axis 0 = t, 1 = x, 2 = y; u22 = -u11 handled by an explicit sign
_PDE_ROWS: dict[str, list[tuple[str, int, float]]] = {
    "continuity": [("m1", 1, 1), ("m2", 2, 1)],
    "momentum_x": [("m1", 0, 1), ("u11", 1, 1), ("q", 1, 1), ("u12", 2, 1)],
    "momentum_y": [("m2", 0, 1), ("u12", 1, 1), ("u11", 2, -1), ("q", 2, 1)],
    "energy": [("q", 0, 1), ("F1", 1, 1), ("F2", 2, 1)],
}


# ---------------------------------------------------------------------------
# smooth fields with analytic derivatives
# ---------------------------------------------------------------------------

class SmoothField:
    """A scalar field with analytic partial derivatives up to order four.

    Implementations provide _deriv_values(mi, pts, cache); evaluation goes
    through a shared per-call cache so repeated mixed partials are computed
    once (PlaneProfileField caches h^(n) once per order instead of each
    partial).
    """

    def _deriv_values(self, mi: tuple[int, int, int], pts, cache) -> np.ndarray:
        raise NotImplementedError

    def deriv(self, mi, pts, cache=None) -> np.ndarray:
        if cache is None:
            cache = {}
        key = (id(self), mi)
        val = cache.get(key)
        if val is None:
            val = self._deriv_values(tuple(mi), pts, cache)
            cache[key] = val
        return val

    def values(self, pts, cache=None) -> np.ndarray:
        return self.deriv((0, 0, 0), pts, cache)


class PlaneProfileField(SmoothField):
    """g(t,x,y) = amp * h(freq * (t,x,y).eta) for a 1D profile h."""

    def __init__(self, profile: PiecewisePoly, eta: tuple[float, float, float],
                 freq: float = 1.0, amp: float = 1.0):
        self.profile = profile
        self.eta = eta
        self.freq = freq
        self.amp = amp

    def argument(self, pts, cache):
        """freq * (t,x,y).eta, cached; located once if the profile is piecewise
        (its derivatives share its breaks)."""
        key = (id(self), "arg")
        if key not in cache:
            (a, b, c), (t, x, y) = self.eta, pts
            s = self.freq * (a * t + b * x + c * y)
            cache[key] = self.profile.locate(s) if isinstance(self.profile, PiecewisePoly) else s
        return cache[key]

    def deriv(self, mi, pts, cache=None) -> np.ndarray:
        # every partial of order n is h^(n)(arg) times a monomial in eta, so
        # the cache holds h^(n)(arg) once per order, not each partial
        if cache is None:
            cache = {}
        kt, kx, ky = mi
        n = kt + kx + ky
        a, b, c = self.eta
        key = (id(self), "h", n)
        h_n = cache.get(key)
        if h_n is None:
            d, s = self.profile.deriv1d(n), self.argument(pts, cache)
            h_n = cache[key] = d.at(s) if isinstance(d, PiecewisePoly) else d(s)
        return (self.amp * self.freq ** n * a ** kt * b ** kx * c ** ky) * h_n


class ProductField(SmoothField):
    """Pointwise product with Leibniz-rule derivatives."""

    def __init__(self, f: SmoothField, g: SmoothField):
        self.f = f
        self.g = g

    def _deriv_values(self, mi, pts, cache):
        kt, kx, ky = mi
        out = None
        for it in range(kt + 1):
            for ix in range(kx + 1):
                for iy in range(ky + 1):
                    w = (math.comb(kt, it) * math.comb(kx, ix) * math.comb(ky, iy))
                    term = self.f.deriv((it, ix, iy), pts, cache)
                    if w != 1:  # 1 * f is f, so a weight of 1 is no multiplication
                        term = w * term
                    term = term * self.g.deriv((kt - it, kx - ix, ky - iy), pts, cache)
                    out = term if out is None else out + term
        return out


# ---------------------------------------------------------------------------
# piecewise polynomials (staircase profile, bump)
# ---------------------------------------------------------------------------

def _polyval(x, c):
    """numpy.polynomial.polynomial.polyval(x, c) for one row c of float
    coefficients, lowest degree first, in the same steps and so bit for bit,
    without importing numpy.polynomial."""
    acc = c[-1] + x * 0
    for coeff in c[-2::-1]:
        acc = coeff + acc * x
    return acc


class PiecewisePoly:
    """Piecewise polynomial on breakpoints, local coordinates per piece;
    optionally evaluated periodically on its domain."""

    def __init__(self, breaks, coeffs, periodic: bool = False):
        self.breaks = np.asarray(breaks, dtype=float)
        self.coeffs = [np.asarray(c, dtype=float) for c in coeffs]
        if len(self.coeffs) != len(self.breaks) - 1:
            raise ValueError("need one coefficient row per interval")
        self.periodic = periodic
        self._derivs: dict[int, PiecewisePoly] = {}

    @property
    def period(self) -> float:
        return float(self.breaks[-1] - self.breaks[0])

    def locate(self, x) -> tuple:
        """Wrap x periodically and find each point's piece and local coordinate:
        (shape of x, [(piece index, mask, local coordinates)] per nonempty piece)."""
        x = np.asarray(x, dtype=float)
        if self.periodic:
            x = self.breaks[0] + np.mod(x - self.breaks[0], self.period)
        idx = np.clip(np.searchsorted(self.breaks, x, side="right") - 1,
                      0, len(self.coeffs) - 1)
        pieces = []
        for i in range(len(self.coeffs)):
            mask = idx == i
            if np.any(mask):
                pieces.append((i, mask, x[mask] - self.breaks[i]))
        return x.shape, pieces

    def at(self, located: tuple) -> np.ndarray:
        """Values at points located on the same breaks."""
        shape, pieces = located
        out = np.zeros(shape)
        for i, mask, local in pieces:
            out[mask] = _polyval(local, self.coeffs[i])
        return out

    def __call__(self, x) -> np.ndarray:
        return self.at(self.locate(x))

    def derivative(self) -> "PiecewisePoly":
        new = []
        for c in self.coeffs:
            if len(c) <= 1:
                new.append(np.zeros(1))
            else:
                new.append(c[1:] * np.arange(1, len(c)))
        return PiecewisePoly(self.breaks, new, periodic=self.periodic)

    def antiderivative(self) -> "PiecewisePoly":
        """Continuous antiderivative starting at zero on the left edge."""
        new = []
        running = 0.0
        for i, c in enumerate(self.coeffs):
            ac = np.concatenate(([running], c / np.arange(1, len(c) + 1)))
            new.append(ac)
            width = self.breaks[i + 1] - self.breaks[i]
            running = float(_polyval(width, ac))
        return PiecewisePoly(self.breaks, new, periodic=self.periodic)

    def mean(self) -> float:
        total = 0.0
        for i, c in enumerate(self.coeffs):
            ac = np.concatenate(([0.0], c / np.arange(1, len(c) + 1)))
            width = self.breaks[i + 1] - self.breaks[i]
            total += float(_polyval(width, ac))
        return total / self.period

    def shifted(self, const: float) -> "PiecewisePoly":
        new = []
        for c in self.coeffs:
            cc = c.copy()
            cc[0] += const
            new.append(cc)
        return PiecewisePoly(self.breaks, new, periodic=self.periodic)

    def deriv1d(self, order: int):
        if order == 0:
            return self
        if order not in self._derivs:
            self._derivs[order] = self.deriv1d(order - 1).derivative()
        return self._derivs[order]


# quintic smoothstep: C^2 transitions with vanishing first two derivatives
_SMOOTHSTEP = (0.0, 0.0, 0.0, 10.0, -15.0, 6.0)


def _scaled_smoothstep(width: float, lo: float, hi: float) -> np.ndarray:
    """Coefficients of lo + (hi-lo) * S(u/width) in the local coordinate."""
    c = np.array(_SMOOTHSTEP) * (hi - lo)
    scale = np.array([width ** -k for k in range(len(c))])
    out = c * scale
    out[0] += lo
    return out


class StaircaseProfile(Record):
    """Mollified period-1 square wave f and its periodic antiderivatives.

    f equals -tau2 on [delta, tau1-delta] and tau1 on [tau1+delta, 1-delta]
    with C^2 polynomial transitions, has exactly zero mean, and h''' = f
    with h, h', h'' periodic (mean-zero integration constants).
    """

    tau1: float
    tau2: float
    delta: float
    f: PiecewisePoly
    h: PiecewisePoly


def build_staircase(tau1: float, delta: float) -> StaircaseProfile:
    """Construct the mollified square wave and its integrals."""
    if not 0.0 < tau1 < 1.0:
        raise BadParameters("tau1 must lie in (0, 1)")
    tau2 = 1.0 - tau1
    if not 0.0 < delta < min(tau1, tau2) / 2.0:
        raise BadParameters("delta must lie in (0, min(tau1, tau2)/2)")

    breaks = [0.0, delta, tau1 - delta, tau1 + delta, 1.0 - delta, 1.0]
    # the down transition is centered at 0 (wrapping), the up one at tau1
    down = _scaled_smoothstep(2.0 * delta, tau1, -tau2)
    up = _scaled_smoothstep(2.0 * delta, -tau2, tau1)
    down_shifted = _shift_poly(down, delta)  # second half, evaluated at u + delta
    coeffs = [
        down_shifted,                 # [0, delta]: second half of down
        np.array([-tau2]),            # [delta, tau1-delta]
        up,                           # [tau1-delta, tau1+delta]
        np.array([tau1]),             # [tau1+delta, 1-delta]
        down,                         # [1-delta, 1]: first half of down
    ]
    f = PiecewisePoly(breaks, coeffs, periodic=True)
    f = f.shifted(-f.mean())  # analytic mean is zero; remove rounding dust

    h2 = f.antiderivative()
    h2 = h2.shifted(-h2.mean())
    h1 = h2.antiderivative()
    h1 = h1.shifted(-h1.mean())
    h0 = h1.antiderivative()
    h0 = h0.shifted(-h0.mean())
    return StaircaseProfile(tau1=tau1, tau2=tau2, delta=delta, f=f, h=h0)


def _shift_poly(c: np.ndarray, shift: float) -> np.ndarray:
    """Coefficients of p(u + shift) given those of p(u)."""
    n = len(c)
    out = np.zeros(n)
    for i, ci in enumerate(c):
        for k in range(i + 1):
            out[k] += ci * math.comb(i, k) * shift ** (i - k)
    return out


class _FlatTopBump1D(PiecewisePoly):
    """C^2 bump: 1 on [-inner, inner], smoothstep down to 0 at +-1."""

    def __init__(self, inner: float):
        if not 0.0 < inner < 1.0:
            raise BadParameters("inner fraction must lie in (0, 1)")
        width = 1.0 - inner
        breaks = [-1.0, -inner, inner, 1.0]
        up = _scaled_smoothstep(width, 0.0, 1.0)
        down = _scaled_smoothstep(width, 1.0, 0.0)
        coeffs = [up, np.array([1.0]), down]
        super().__init__(breaks, coeffs, periodic=False)


class BumpField(SmoothField):
    """Separable compactly supported cutoff equal to one on an inner box."""

    def __init__(self, box, inner: float = 0.7):
        (t0, t1), (x0, x1), (y0, y1) = box
        self.box = ((t0, t1), (x0, x1), (y0, y1))
        self.inner = inner
        self.b1 = _FlatTopBump1D(inner)
        self.centers = ((t0 + t1) / 2, (x0 + x1) / 2, (y0 + y1) / 2)
        self.radii = ((t1 - t0) / 2, (x1 - x0) / 2, (y1 - y0) / 2)

    def inner_box(self):
        c, r = self.centers, self.radii
        return tuple((c[i] - self.inner * r[i], c[i] + self.inner * r[i])
                     for i in range(3))

    def _deriv_values(self, mi, pts, cache):
        vals = []
        for i, (order, coord) in enumerate(zip(mi, pts)):
            # one factor per (axis, order): n values on a sparse grid
            key = (id(self), "axis", i, order)
            val = cache.get(key)
            if val is None:
                u = (coord - self.centers[i]) / self.radii[i]
                d = self.b1.deriv1d(order)
                val = cache[key] = (d(np.clip(u, -1.0, 1.0)) / self.radii[i] ** order
                                    * (np.abs(u) <= 1.0))
            vals.append(val)
        return vals[0] * vals[1] * vals[2]


# ---------------------------------------------------------------------------
# operator application and residuals
# ---------------------------------------------------------------------------

def apply_operator(co: OperatorCoeffs, g: SmoothField, pts, cache=None) -> dict[str, np.ndarray]:
    """Evaluate the seven third-derivative combinations at the points."""
    if cache is None:
        cache = {}
    out = {}
    for comp in _COMPONENTS:
        acc = None
        for name, mult, mi in _L_TERMS[comp]:
            cval = getattr(co, name)
            if cval == 0.0 and mult != 0:
                continue
            term = (mult * cval) * g.deriv(mi, pts, cache)
            acc = term if acc is None else acc + term
        if acc is None:
            acc = np.zeros(np.broadcast(*pts).shape)
        out[comp] = acc
    return out


class PDEResidual(Record):
    max_residual: float
    scale: float
    by_row: dict[str, float]


def verify_pde_identity(co: OperatorCoeffs, g: SmoothField, pts,
                        cache=None) -> PDEResidual:
    """Residuals of the homogeneous system rows applied to the operator
    output, using order-four analytic derivatives of g.  For any field the
    rows cancel algebraically, so the residual measures rounding only.
    A cache shared with apply_operator on the same points reuses its
    derivatives."""
    if cache is None:
        cache = {}
    by_row = {}
    scale = 1e-300
    for row, parts in _PDE_ROWS.items():
        acc = None
        for comp, axis, srow in parts:
            for name, mult, mi in _L_TERMS[comp]:
                cval = getattr(co, name)
                if cval == 0.0:
                    continue
                dmi = list(mi)
                dmi[axis] += 1
                vals = g.deriv(tuple(dmi), pts, cache)
                term = (srow * mult * cval) * vals
                scale = max(scale, float(np.max(np.abs(term))))
                acc = term if acc is None else acc + term
        by_row[row] = float(np.max(np.abs(acc))) if acc is not None else 0.0
    return PDEResidual(max_residual=max(by_row.values()), scale=scale, by_row=by_row)


# ---------------------------------------------------------------------------
# the localized oscillation and its diagnostics
# ---------------------------------------------------------------------------

class OscillationDiagnostics(Record):
    k: int
    fraction1: float
    fraction2: float
    commutator_sup: float
    avg_norm: float
    pde_residual: float
    pde_scale: float


# points per slab of whole t-planes (at least one plane) in build_oscillation
_SLAB_POINTS = 2 ** 13


def _grid(box, n: int):
    """Sparse tensor grid: axis arrays of shapes (n,1,1), (1,n,1), (1,1,n)
    that broadcast to the n^3 points."""
    axes = [np.linspace(lo, hi, n) for lo, hi in box]
    return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))


def build_oscillation(z_star: PHPoint, z1: PHPoint, z2: PHPoint, tau1: float,
                      box, k: int, delta: float, grid_n: int = 48
                      ) -> tuple[dict[str, np.ndarray], OscillationDiagnostics]:
    """Localized laminate oscillation between z1 and z2 around their convex
    combination z_star, with plateau/commutator/average diagnostics.

    The perturbation is L_{z2-z1}[g_k * Phi] with g_k(x) = k^-3 h(k x.eta);
    on the region where Phi is identically one it takes exactly the values
    z1 - z_star and z2 - z_star on complementary plateau slabs.  The
    components come back as flat arrays over the grid_n^3 points of the box
    (t slowest, y fastest).

    The grid is evaluated in slabs of whole t-planes, each with its own
    derivative cache, so memory grows with slab * grid^2 plus the grid^3
    outputs.  Slabs combine by placement, maxima and integer counts, so the
    slab size moves no output bit.
    """
    from .wavecone import in_Lambda  # exact commands never compile wavecone

    direction = in_Lambda(z2 - z1)
    if direction is None:
        raise NotLambdaDirection("z2 - z1 admits no spatial wave direction")
    co = operator_coeffs(z2 - z1, direction)

    profile = build_staircase(tau1, delta)
    g_k = PlaneProfileField(profile.h, co.eta, freq=float(k), amp=float(k) ** -3)
    bump = BumpField(box)
    field = ProductField(g_k, bump)

    zs = _phpoint_floats(z_star)
    z1v, z2v = _phpoint_floats(z1), _phpoint_floats(z2)
    dz = z2v - z1v
    tol = 1e-9 * max(float(np.max(np.abs(dz))), 1e-300)

    t_axis, *plane = _grid(box, grid_n)
    planes = max(1, _SLAB_POINTS // grid_n ** 2)
    ztilde = {comp: np.empty(grid_n ** 3) for comp in _COMPONENTS}
    commutator, pde_residual, pde_scale = 0.0, 0.0, 1e-300
    n_inner = n_at1 = n_at2 = 0
    for lo_t in range(0, grid_n, planes):
        pts = (t_axis[lo_t:lo_t + planes], *plane)
        cache: dict = {}
        terms = apply_operator(co, field, pts, cache)
        pde = verify_pde_identity(co, field, pts, cache)
        pde_residual, pde_scale = max(pde_residual, pde.max_residual), max(pde_scale, pde.scale)

        # exact plane-wave values of L[g_k]: f reads the argument located for
        # h, f's third antiderivative on the same breaks; the cutoff
        # commutator is the gap
        fvals = profile.f.at(g_k.argument(pts, cache))
        phi = bump.values(pts, cache)
        for comp, dzc in zip(_COMPONENTS, dz):
            gap = terms[comp] - dzc * fvals * phi
            commutator = max(commutator, float(np.max(np.abs(gap))))

        # plateau fractions strictly inside the flat-top region (points on the
        # cutoff seam see the transition piece's one-sided derivatives)
        mask = True
        for coord, (lo, hi) in zip(pts, bump.inner_box()):
            margin = 1e-9 * (hi - lo)
            mask = mask & (coord > lo + margin) & (coord < hi - margin)
        at1 = at2 = mask
        for comp, zsc, z1c, z2c in zip(_COMPONENTS, zs, z1v, z2v):
            total = zsc + terms[comp]
            at1 = at1 & (np.abs(total - z1c) <= tol)
            at2 = at2 & (np.abs(total - z2c) <= tol)
        n_inner += int(np.count_nonzero(mask))
        n_at1 += int(np.count_nonzero(at1))
        n_at2 += int(np.count_nonzero(at2))

        span = slice(lo_t * grid_n ** 2, (lo_t + len(pts[0])) * grid_n ** 2)
        for comp, vals in terms.items():
            ztilde[comp][span] = vals.ravel()

    avg = max(abs(float(np.mean(ztilde[comp]))) for comp in _COMPONENTS)
    diag = OscillationDiagnostics(
        k=k, fraction1=float(n_at1) / max(n_inner, 1),
        fraction2=float(n_at2) / max(n_inner, 1),
        commutator_sup=commutator, avg_norm=avg,
        pde_residual=pde_residual, pde_scale=pde_scale)
    return ztilde, diag


def diagnostics_csv(diags: list[OscillationDiagnostics]) -> str:
    lines = ["k,fraction1,fraction2,commutator_sup,avg_norm"]
    for d in diags:
        lines.append(f"{d.k},{d.fraction1:.6f},{d.fraction2:.6f},"
                     f"{d.commutator_sup:.6e},{d.avg_norm:.6e}")
    return "\n".join(lines)
