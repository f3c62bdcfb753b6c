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
    _shown,
    adjoin_sqrt,
    as_xreal,
    sign,
    xreal_from_json,
    xreal_to_json,
)

__all__ = [
    "PressureLaw",
    "EulerState",
    "PHPoint",
    "NonPositiveDensity",
    "GammaOutOfRange",
    "pressure",
    "pressure_potential",
    "lift_state",
    "state_to_json",
    "state_from_json",
]


class NonPositiveDensity(ValueError):
    """Density must be strictly positive (no vacuum)."""


class Record:
    """Base of the package's value records.

    The fields are a subclass's own annotations, in order, and ``_fields``
    names them (as on a namedtuple).  A subclass may keep its own
    validating ``__init__``, which stores fields with ``object.__setattr__``;
    otherwise it takes the fields positionally or by keyword.  Equality is
    by class and field tuple, ``hash`` is the hash of the field tuple,
    ``repr`` is ``Name(field=value, ...)``, and assigning or deleting an
    attribute raises ``AttributeError``.  Nothing is generated per class,
    so defining the records adds next to nothing to the CLI's start-up.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

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


class GammaOutOfRange(ValueError):
    """A rational gamma >= 1 whose numerator or denominator exceeds
    _GAMMA_TERM_MAX, or _GAMMA_ROOT_TERM_MAX when the denominator is above 2:
    well-formed, but past the exact work a law may ask for."""


# rho ** gamma is exact (tower powers, or interval powers and roots for a
# denominator above 2), and its integers grow with gamma's terms: on a shared
# 2-core host, verifying the paper fan takes about 2 s at gamma = 10**4 and
# over 20 s at 3 * 10**4.  An interval power and root costs far more per
# term: about 1.5 s at 300/299, 3 s at 400/399, 5 s at 512/511 and 24 s at
# 1001/1000, so a denominator above 2 has the lower bound
_GAMMA_TERM_MAX = 10 ** 4
_GAMMA_ROOT_TERM_MAX = 300


class PressureLaw(Record):
    """p(rho) = rho**gamma for a rational gamma >= 1 whose numerator and
    denominator are at most _GAMMA_TERM_MAX, and at most
    _GAMMA_ROOT_TERM_MAX when the denominator is above 2; any other gamma
    is rejected here, so every later use of the law has a bounded rational
    exponent."""

    gamma: XReal

    def __init__(self, gamma=2):
        g = as_xreal(gamma)
        if not (isinstance(g, QuadExt) and g.is_rational()):
            raise ValueError(f"gamma must be rational, got {g}")
        if sign(g - 1) < 0:
            raise ValueError("gamma must be >= 1")
        v = g.rational_value()
        if max(v.numerator, v.denominator) > _GAMMA_TERM_MAX:
            raise GammaOutOfRange(f"gamma = {g}: its numerator and denominator must be at "
                                  f"most {_GAMMA_TERM_MAX}")
        if v.denominator > 2 and v.numerator > _GAMMA_ROOT_TERM_MAX:
            raise GammaOutOfRange(f"gamma = {g}: with a denominator above 2, its numerator "
                                  f"and denominator must be at most {_GAMMA_ROOT_TERM_MAX}")
        object.__setattr__(self, "gamma", g)


class EulerState(Record):
    """Classical state (rho, m); vacuum excluded.

    ``lift_state`` keeps the state's lift on it; the lift is not a field,
    so equality, hash and repr ignore it."""

    rho: XReal
    m: tuple[XReal, XReal]

    def __init__(self, rho, m):
        r = as_xreal(rho)
        if sign(r) <= 0:
            raise NonPositiveDensity(f"rho = {r}")
        object.__setattr__(self, "rho", r)
        object.__setattr__(self, "m", _two_components("m", m))


def state_to_json(state: EulerState) -> dict:
    return {"rho": xreal_to_json(state.rho), "m": [xreal_to_json(c) for c in state.m]}


# JSON's names for its kinds of value
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               type(None): "null"}


def _json_array(data, name: str, of: str) -> list:
    """``data`` if it is a JSON array; else a parse error (ValueError) that
    names ``name`` and says that it needs an array ``of``."""
    if not isinstance(data, list):
        raise ValueError(f"{name} must be a JSON array of {of}, got "
                         f"{_JSON_TYPES.get(type(data), 'a number')}")
    return data


def _json_object(data, name: str, keys: tuple[str, ...] = ()) -> dict:
    """``data`` if it is a JSON object with each of ``keys``; else a parse
    error (ValueError) that names ``name`` and says what it needs."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object, got "
                         f"{_JSON_TYPES.get(type(data), 'a number')}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{name} is missing {', '.join(map(repr, missing))}: "
                         f"it needs the keys {', '.join(keys)}")
    return data


def _number(data, key, owner: str = "") -> XReal:
    """The number at ``data[key]``; a malformed one is a parse error that
    names it: ``owner`` then the key, or ``owner[i]`` for a list index."""
    try:
        return xreal_from_json(data[key])
    except ValueError as exc:
        name = f"{owner}[{key}]" if isinstance(key, int) else f"{owner} {key}".lstrip()
        raise type(exc)(f"{name}: {exc}") from None


def _pair(data, name: str) -> tuple[XReal, XReal]:
    if not isinstance(data, list) or len(data) != 2:
        raise ValueError(f"{name} must be a list of two numbers, got {_shown(data)!r}")
    return _number(data, 0, name), _number(data, 1, name)


def state_from_json(data, name: str = "state") -> EulerState:
    """The state of a JSON object {"rho": ..., "m": [..., ...]}; ``name``
    names it in a parse error."""
    data = _json_object(data, name, ("rho", "m"))
    return EulerState(_number(data, "rho", name), _pair(data["m"], f"{name} m"))


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


def _gamma_parts(law: PressureLaw) -> tuple[int, int]:
    """(num, den) of the rational gamma."""
    v = law.gamma.rational_value()
    return v.numerator, v.denominator


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
    return _rational_pow(rho, *_gamma_parts(law))


def pressure_potential(law: PressureLaw, rho: XReal) -> XReal:
    """P(rho) = rho**gamma/(gamma-1) for gamma > 1, rho*log(rho) for
    gamma = 1: a solution of rho P'' = p'.  P is fixed only up to a linear
    term c*rho, which adds c*(-mu[rho] + [m2]) = 0 to every bracket
    -mu[E] + [F2] by the mass condition, so no verdict depends on it."""
    rho = as_xreal(rho)
    num, den = _gamma_parts(law)
    if num != den:  # pressure signs rho
        return pressure(law, rho) / (law.gamma - 1)
    if sign(rho) <= 0:
        raise NonPositiveDensity(f"rho = {rho}")
    return rho * IntervalExpr.log(rho)


def lift_state(law: PressureLaw, state: EulerState) -> tuple[PHPoint, XReal]:
    """Lift (rho, m) to phase space and return (point, energy density).

    q = |m|^2/(2 rho) + p; U = m (x) m / rho - |m|^2/(2 rho) I;
    F = (q + P)/rho * m; E = q + P - p.  The lifted point realizes the
    Euler nonlinearity exactly, so it lies in the constitutive set for any
    cap Q >= q.

    A state is lifted once per law: the state keeps its last lift and the
    law it was taken under, and lifting it again under an equal law
    returns the same pair.  The lift is not a field, so the state's
    equality, hash and repr ignore it.
    """
    memo = state.__dict__.get("_lift")
    if memo is None or memo[0] != law:
        memo = state.__dict__["_lift"] = (law, _lift(law, state))
    return memo[1]


def _lift(law: PressureLaw, state: EulerState) -> tuple[PHPoint, XReal]:
    """``lift_state``, computed."""
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
