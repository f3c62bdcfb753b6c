"""Barotropic Euler state space: pressure law, energy, and the phase-space lift.

The phase space collects the Tartar-framework unknowns (m, U, q, F) where U
is symmetric trace-free (stored as its independent entries u11, u12), q is
the trace part of the momentum flux and F is the energy flux.  A classical
state (rho, m) lifts to the unique phase point realizing the Euler
nonlinearity; the lift also returns the energy density E.
"""

from __future__ import annotations

from .exactnum import (
    IntervalExpr,
    QuadExt,
    Rational,
    XReal,
    _iroot_floor,
    adjoin_sqrt,
    as_xreal,
    sign,
)

__all__ = [
    "PressureLaw",
    "EulerState",
    "PHPoint",
    "NonPositiveDensity",
    "InvalidReference",
    "pressure",
    "pressure_potential",
    "lift_state",
]


class NonPositiveDensity(ValueError):
    """Density must be strictly positive (no vacuum)."""


class InvalidReference(ValueError):
    """gamma = 1 needs a positive reference density in the potential."""


class Record:
    """Base of the package's value records.

    The fields are a subclass's own annotations, in order, and ``_fields``
    names them (as on a namedtuple).  A subclass may keep its own
    validating ``__init__``, which stores fields with ``object.__setattr__``;
    otherwise it takes the fields positionally or by keyword.  Equality is
    by class and field tuple, ``hash`` is the hash of the field tuple,
    ``repr`` is ``Name(field=value, ...)``, and assigning or deleting an
    attribute raises ``AttributeError`` unless the class is declared with
    ``frozen=False``.  Nothing is generated per class, so defining the
    records adds next to nothing to the CLI's start-up.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        # each field exactly once: all are named and none is given twice
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__qualname__} takes the fields {fields}, got "
                            f"{len(args)} positional and {sorted(kwargs)} by keyword")
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _two_components(name: str, v) -> tuple[XReal, XReal]:
    """A planar vector of exactly two components."""
    if len(v) != 2:
        raise ValueError(f"{name} must have 2 components, got {len(v)}")
    return as_xreal(v[0]), as_xreal(v[1])


class PressureLaw(Record):
    """p(rho) = rho**gamma with the reference density rho_star of the
    pressure potential.  Default rho_star: 0 for gamma > 1 (potential
    rho**gamma/(gamma-1)), 1 for gamma = 1 (potential rho*log(rho))."""

    gamma: XReal
    rho_star: XReal

    def __init__(self, gamma=2, rho_star=None):
        g = as_xreal(gamma)
        if sign(g - 1) < 0:
            raise ValueError("gamma must be >= 1")
        if rho_star is None:
            rho_star = 0 if sign(g - 1) > 0 else 1
        rs = as_xreal(rho_star)
        if sign(g - 1) == 0 and sign(rs) <= 0:
            raise InvalidReference("gamma = 1 requires rho_star > 0")
        if sign(rs) < 0:
            raise ValueError("rho_star must be >= 0")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "rho_star", rs)


class EulerState(Record):
    """Classical state (rho, m); vacuum excluded."""

    rho: XReal
    m: tuple[XReal, XReal]

    def __init__(self, rho, m):
        r = as_xreal(rho)
        if sign(r) <= 0:
            raise NonPositiveDensity(f"rho = {r}")
        object.__setattr__(self, "rho", r)
        object.__setattr__(self, "m", _two_components("m", m))


class PHPoint(Record):
    """Phase-space point (m, U, q, F); U = [[u11, u12], [u12, -u11]]."""

    m: tuple[XReal, XReal]
    u11: XReal
    u12: XReal
    q: XReal
    F: tuple[XReal, XReal]

    def __init__(self, m, u11, u12, q, F):
        object.__setattr__(self, "m", _two_components("m", m))
        object.__setattr__(self, "u11", as_xreal(u11))
        object.__setattr__(self, "u12", as_xreal(u12))
        object.__setattr__(self, "q", as_xreal(q))
        object.__setattr__(self, "F", _two_components("F", F))

    # 7-vector arithmetic, used by splits, laminates and barycenters
    def __add__(self, other: "PHPoint") -> "PHPoint":
        return PHPoint(
            (self.m[0] + other.m[0], self.m[1] + other.m[1]),
            self.u11 + other.u11, self.u12 + other.u12, self.q + other.q,
            (self.F[0] + other.F[0], self.F[1] + other.F[1]))

    def __sub__(self, other: "PHPoint") -> "PHPoint":
        return self + (-1) * other

    def __rmul__(self, c) -> "PHPoint":
        c = as_xreal(c)
        return PHPoint(
            (c * self.m[0], c * self.m[1]),
            c * self.u11, c * self.u12, c * self.q,
            (c * self.F[0], c * self.F[1]))

    def components(self) -> tuple[XReal, ...]:
        return (self.m[0], self.m[1], self.u11, self.u12, self.q,
                self.F[0], self.F[1])

    def is_exact(self) -> bool:
        return all(not isinstance(c, IntervalExpr) for c in self.components())


def _gamma_parts(law: PressureLaw) -> tuple[int, int] | None:
    """(num, den) when gamma is rational, else None."""
    g = law.gamma
    if isinstance(g, QuadExt) and g.is_rational():
        v = g.rational_value()
        return v.numerator, v.denominator
    return None


def _rational_pow(x: XReal, num: int, den: int) -> XReal:
    """x**(num/den), exact through the quadratic tower when possible."""
    if den == 1:
        return x ** num
    if den == 2:
        return adjoin_sqrt(x) ** num
    if isinstance(x, Rational) and x.value > 0:
        # exact only if x is a perfect den-th power
        n, d = x.numerator, x.denominator
        rn, rd = _iroot_floor(n, den), _iroot_floor(d, den)
        if rn ** den == n and rd ** den == d:
            return Rational(rn, rd) ** num
    return IntervalExpr.pow_rational(x, num, den)


def pressure(law: PressureLaw, rho: XReal) -> XReal:
    """p(rho) = rho**gamma; exact whenever the power stays in the tower."""
    rho = as_xreal(rho)
    if sign(rho) <= 0:
        raise NonPositiveDensity(f"rho = {rho}")
    parts = _gamma_parts(law)
    if parts is None:
        raise ValueError("gamma must be rational")
    return _rational_pow(rho, *parts)


def pressure_potential(law: PressureLaw, rho: XReal) -> XReal:
    """P(rho) = rho * integral_{rho_star}^{rho} p(r)/r^2 dr, in closed form."""
    rho = as_xreal(rho)
    if sign(rho) <= 0:
        raise NonPositiveDensity(f"rho = {rho}")
    parts = _gamma_parts(law)
    if parts is None:
        raise ValueError("gamma must be rational")
    num, den = parts
    if num == den:  # gamma = 1
        if sign(law.rho_star) <= 0:
            raise InvalidReference("gamma = 1 requires rho_star > 0")
        return rho * IntervalExpr.log(rho / law.rho_star)
    gm1 = law.gamma - 1
    main = pressure(law, rho) / gm1
    if sign(law.rho_star) == 0:
        return main
    return main - rho * _rational_pow(law.rho_star, num - den, den) / gm1


def lift_state(law: PressureLaw, state: EulerState) -> tuple[PHPoint, XReal]:
    """Lift (rho, m) to phase space and return (point, energy density).

    q = |m|^2/(2 rho) + p; U = m (x) m / rho - |m|^2/(2 rho) I;
    F = (q + P)/rho * m; E = q + P - p.  The lifted point realizes the
    Euler nonlinearity exactly, so it lies in the constitutive set for any
    cap Q >= q.
    """
    rho, (m1, m2) = state.rho, state.m
    p = pressure(law, rho)
    P = pressure_potential(law, rho)
    msq_half = (m1 * m1 + m2 * m2) / (2 * rho)
    q = msq_half + p
    u11 = m1 * m1 / rho - msq_half
    u12 = m1 * m2 / rho
    scale = (q + P) / rho
    F = (scale * m1, scale * m2)
    E = q + P - p
    return PHPoint((m1, m2), u11, u12, q, F), E
