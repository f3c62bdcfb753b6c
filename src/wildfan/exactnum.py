"""Exact real arithmetic for certified inequality checking.

Two carriers, both immutable:

* ``QuadExt`` -- elements of a real quadratic tower Q(sqrt(d1), ..., sqrt(dn))
  with 1 <= n <= ``_MAX_RADICANDS`` (4) integer radicands, stored as integer
  numerators on the basis of radical products (1, sqrt(d1), sqrt(d2),
  sqrt(d1*d2), sqrt(d3), ...) over one denominator.  All of its arithmetic
  runs on those integers, through one product (``_tower_mul``).
  ``Rational`` is its subclass for the radicand-free tower Q: one numerator
  over one denominator, chosen only by ``QuadExt._reduced``.  One rule
  validates radicands where a tower enters (the constructor, hence
  ``from_rational``, ``sqrt_of`` and JSON): they are their own compositum
  basis (``_compositum``).  Two towers meet in their compositum, which
  raises ``RadicandMismatch`` beyond ``_MAX_RADICANDS`` independent radicands.
* ``IntervalExpr`` -- an expression DAG over +, -, *, /, sqrt, log and
  rational powers, evaluated with outward-rounded dyadic intervals at
  adaptive precision.

Signs and inverses of ``QuadExt`` values are decided algebraically, with no
rounding.  A tower element x = A + B*sqrt(d), with d the top radicand and A,
B one level down, has the sign of A when B = 0 or sign A = sign B, the sign
of B when A = 0, and sign A * sign(A^2 - d*B^2) otherwise; its inverse is
(A - B*sqrt(d)) / (A^2 - d*B^2).  Both recurse down the tower to Q.  The
sign rule also runs on levels whose radicands and coefficients are
``QuadExt`` elements (``_tower_sign``), which is how ``hull`` decides
W-membership exactly.

Intervals serve ``IntervalExpr`` only: its enclosure is refined with doubling
precision until it excludes zero (or is a single point), and ``Inconclusive``
is raised once the precision cap is reached.  A ``QuadExt`` is rounded to a
float from integers too: its value scaled by 2^k is bracketed by integer
square roots (``math.isqrt``), and k doubles until both ends of the bracket
round to the same double.  Powers square and multiply with no product past
the top bit, so x ** 2 is one tower product.  The cap is the constant
``_PRECISION_CAP`` (4096 bits); no library code picks another, and
``sign(x, precision_cap=n)`` overrides it per call.  A wrong sign is never returned.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "XReal",
    "Rational",
    "QuadExt",
    "IntervalExpr",
    "Inconclusive",
    "RadicandMismatch",
    "NegativeRadicand",
    "as_xreal",
    "sign",
    "adjoin_sqrt",
    "xreal_to_json",
    "xreal_from_json",
]

_STARTING_PRECISION = 64
_PRECISION_CAP = 4096
_MAX_RADICANDS = 4  # independent integer radicands of a tower: 16 coefficients
_ENCLOSURE_DIGITS = 24  # decimals per endpoint of an interval's JSON enclosure


class Inconclusive(Exception):
    """Sign/comparison could not be certified within the precision cap."""

    def __init__(self, precision: int, message: str = ""):
        self.precision = precision
        super().__init__(message or f"inconclusive at precision {precision} bits")


class RadicandMismatch(ValueError):
    """Two QuadExt values live in incompatible quadratic towers."""


class NegativeRadicand(ValueError):
    """Square root of a certified-negative quantity was requested."""


# ---------------------------------------------------------------------------
# dyadic interval kernel
# ---------------------------------------------------------------------------

def _round_down(x: Fraction, prec: int) -> Fraction:
    return Fraction(x.numerator * (1 << prec) // x.denominator, 1 << prec)


def _round_up(x: Fraction, prec: int) -> Fraction:
    return Fraction(-((-x.numerator) * (1 << prec) // x.denominator), 1 << prec)


def _iroot_floor(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, integer Newton iteration."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0 or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class _Ival:
    """Closed dyadic interval [lo, hi]; endpoints exact Fractions."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("empty interval")
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

    @staticmethod
    def point(x: Fraction) -> "_Ival":
        return _Ival(x, x)

    def round(self, prec: int) -> "_Ival":
        return _Ival(_round_down(self.lo, prec), _round_up(self.hi, prec))

    def intersect(self, other: "_Ival") -> "_Ival":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            # sound outward-rounded enclosures can never become disjoint
            raise ArithmeticError("enclosure refinement produced disjoint intervals")
        return _Ival(lo, hi)

    def __add__(self, other: "_Ival") -> "_Ival":
        return _Ival(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "_Ival") -> "_Ival":
        return _Ival(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "_Ival":
        return _Ival(-self.hi, -self.lo)

    def __mul__(self, other: "_Ival") -> "_Ival":
        cands = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return _Ival(min(cands), max(cands))

    def scale(self, c: Fraction) -> "_Ival":
        if c >= 0:
            return _Ival(self.lo * c, self.hi * c)
        return _Ival(self.hi * c, self.lo * c)

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def inverse(self) -> "_Ival":
        if self.contains_zero():
            raise ZeroDivisionError("interval straddles zero")
        return _Ival(1 / self.hi, 1 / self.lo)

    def root(self, k: int, prec: int) -> "_Ival":
        """k-th root for a nonnegative interval."""
        lo = max(self.lo, Fraction(0))
        if self.hi < 0:
            raise NegativeRadicand(f"root of {self}")
        scale = 1 << (k * prec)
        nlo = lo.numerator * scale // lo.denominator
        lo_root = Fraction(_iroot_floor(nlo, k), 1 << prec)
        nhi = -((-self.hi.numerator) * scale // self.hi.denominator)
        r = _iroot_floor(nhi, k)
        if r ** k < nhi:
            r += 1
        return _Ival(lo_root, Fraction(r, 1 << prec))

    def log(self, prec: int) -> "_Ival":
        if self.lo <= 0:
            raise ValueError("log of interval touching zero")
        return _Ival(_ln_down(self.lo, prec), _ln_up(self.hi, prec))


def _atanh_series(u: Fraction, prec: int) -> _Ival:
    """Rigorous enclosure of 2*atanh(u) for 0 <= u < 1/2."""
    if u == 0:
        return _Ival.point(Fraction(0))
    # interval-accumulated partial sum plus a geometric tail bound
    work = prec + 16
    eps = Fraction(1, 1 << (prec + 4))
    u2 = u * u
    total = _Ival.point(Fraction(0))
    pw = _Ival.point(u).round(work)
    u2_iv = _Ival.point(u2).round(work)
    k = 0
    while True:
        total = (total + pw.scale(Fraction(1, 2 * k + 1))).round(work)
        k += 1
        pw = (pw * u2_iv).round(work)
        if pw.hi / (2 * k + 1) < eps or k > prec + 64:
            break
    tail_hi = (pw.hi / (2 * k + 1)) / (1 - u2)
    return _Ival(2 * total.lo, 2 * (total.hi + tail_hi)).round(prec + 8)


_LN2_CACHE: dict[int, _Ival] = {}


def _ln2(prec: int) -> _Ival:
    iv = _LN2_CACHE.get(prec)
    if iv is None:
        iv = _atanh_series(Fraction(1, 3), prec)
        _LN2_CACHE[prec] = iv
    return iv


def _ln_enclosure(x: Fraction, prec: int) -> _Ival:
    """Enclosure of ln(x) for x > 0 via range reduction to [1, 2)."""
    if x <= 0:
        raise ValueError("log of nonpositive value")
    e = 0
    m = x
    while m >= 2:
        m /= 2
        e += 1
    while m < 1:
        m *= 2
        e -= 1
    u = (m - 1) / (m + 1)  # in [0, 1/3)
    core = _atanh_series(u, prec)
    if e == 0:
        return core
    return core + _ln2(prec).scale(Fraction(e))


def _ln_down(x: Fraction, prec: int) -> Fraction:
    return _round_down(_ln_enclosure(x, prec).lo, prec)


def _ln_up(x: Fraction, prec: int) -> Fraction:
    return _round_up(_ln_enclosure(x, prec).hi, prec)


# ---------------------------------------------------------------------------
# XReal hierarchy
# ---------------------------------------------------------------------------

XLike = Union["XReal", int, Fraction]


class XReal:
    """Common interface: exact or certified-enclosure real number."""

    __slots__ = ()

    def enclosure(self, prec: int) -> _Ival:
        raise NotImplementedError

    @property
    def is_exact(self) -> bool:
        return True

    # -- arithmetic: subclasses coerce through _binop -----------------------

    @staticmethod
    def _coerce(other: XLike) -> "XReal | None":
        try:
            return as_xreal(other)
        except TypeError:
            return None

    def __add__(self, other: XLike) -> "XReal":
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else _binop(self, rhs, "add")

    def __radd__(self, other: XLike) -> "XReal":
        lhs = self._coerce(other)
        return NotImplemented if lhs is None else _binop(lhs, self, "add")

    def __sub__(self, other: XLike) -> "XReal":
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else _binop(self, rhs, "sub")

    def __rsub__(self, other: XLike) -> "XReal":
        lhs = self._coerce(other)
        return NotImplemented if lhs is None else _binop(lhs, self, "sub")

    def __mul__(self, other: XLike) -> "XReal":
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else _binop(self, rhs, "mul")

    def __rmul__(self, other: XLike) -> "XReal":
        lhs = self._coerce(other)
        return NotImplemented if lhs is None else _binop(lhs, self, "mul")

    def __truediv__(self, other: XLike) -> "XReal":
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else _binop(self, rhs, "div")

    def __rtruediv__(self, other: XLike) -> "XReal":
        lhs = self._coerce(other)
        return NotImplemented if lhs is None else _binop(lhs, self, "div")

    def __pow__(self, n: int) -> "XReal":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return as_xreal(1) / (self ** (-n))
        if n == 0:
            return Rational(1)
        # square and multiply from the lowest set bit, no square past the
        # top one: x ** 2 is one product
        base: XReal = self
        while not n & 1:
            base, n = base * base, n >> 1
        out = base
        while n := n >> 1:
            base = base * base
            if n & 1:
                out = out * base
        return out

    def __neg__(self) -> "XReal":
        raise NotImplementedError

    def __pos__(self) -> "XReal":
        return self

    # -- certified comparisons ----------------------------------------------

    def __lt__(self, other: XLike) -> bool:
        return sign(self - as_xreal(other)) < 0

    def __le__(self, other: XLike) -> bool:
        return sign(self - as_xreal(other)) <= 0

    def __gt__(self, other: XLike) -> bool:
        return sign(self - as_xreal(other)) > 0

    def __ge__(self, other: XLike) -> bool:
        return sign(self - as_xreal(other)) >= 0

    def __float__(self) -> float:
        """The double nearest the value: the enclosure is refined until both
        ends round to the same double, so its precision follows the value's
        magnitude.  The rounded midpoint is returned instead for a value on
        a rounding tie at the precision cap, and for an interval expression
        whose enclosure still holds zero at 256 bits (it may be zero, which
        refinement never decides).  ``QuadExt`` brackets its value with
        integer square roots instead and comes here only at the cap."""
        prec, cap = _STARTING_PRECISION, _PRECISION_CAP
        while True:
            iv = self.enclosure(prec)
            lo = float(iv.lo)
            if lo == float(iv.hi):
                return lo
            if prec >= cap or (prec >= 256 and not self.is_exact and iv.contains_zero()):
                return float((iv.lo + iv.hi) / 2)
            prec = min(2 * prec, cap)


def _squarefree_decompose(n: int) -> tuple[int, int]:
    """n = s*s*d with d free of square factors up to 1000 (and not itself
    a perfect square).  Trial division keeps radicands canonical for the
    small numbers that arise here; hidden large square factors do not affect
    correctness of the zero test, only canonicality."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, d = 1, 1
    m = n
    f = 2
    while f * f <= m and f <= 1000:
        if m % f == 0:
            count = 0
            while m % f == 0:
                m //= f
                count += 1
            s *= f ** (count // 2)
            if count % 2:
                d *= f
        f += 1 if f == 2 else 2
    # leftover cofactor: pull out a perfect-square part if it is one
    r = math.isqrt(m)
    if r * r == m:
        s *= r
    else:
        d *= m
    return s, d


class QuadExt(XReal):
    """Element of Q(sqrt(d1), ..., sqrt(dn)) on the basis of radical products.

    ``radicands`` is a tuple of 1 to ``_MAX_RADICANDS`` positive integers
    that is its own compositum basis: sorted ascending, with no product of
    a nonempty subset a perfect square (so none is 1 or a square, and no
    two are equal or differ by a square factor).  It is empty for the
    ``Rational`` subclass.  The value is stored as integer numerators
    ``nums`` over one denominator ``den`` (den > 0, gcd(den, *nums) == 1),
    indexed by the bitmask of participating radicands: basis(mask) is the
    square root of the product of the radicands in mask, so two radicands
    give (1, sqrt(d1), sqrt(d2), sqrt(d1*d2)).  ``coeffs`` gives the same
    vector as Fractions.  The constructor validates the radicands;
    arithmetic results inside an already validated tower (``_reduced``)
    skip that check.
    """

    __slots__ = ("radicands", "nums", "den")

    def __init__(self, radicands: Sequence[int], coeffs: Sequence[Fraction | int]):
        rads = tuple(radicands)
        if not all(_is_int(d) and d > 0 for d in rads):
            raise ValueError(f"radicands must be positive integers, got {rads!r}")
        if not 1 <= len(rads) <= _MAX_RADICANDS:
            raise ValueError(f"a tower has 1 to {_MAX_RADICANDS} radicands, got {len(rads)}")
        if _compositum(rads)[0] != rads:
            raise ValueError(f"radicands {rads!r} are not their own compositum basis "
                             f"(sorted, no product of a nonempty subset a square)")
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != 1 << len(rads):
            raise ValueError("coefficient count must be 2**len(radicands)")
        # over the lcm of reduced denominators the numerators share no factor with it
        den = math.lcm(*(c.denominator for c in cs))
        self.radicands = rads
        self.nums = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.den = den

    @staticmethod
    def _reduced(rads: tuple[int, ...], nums: Sequence[int], den: int) -> "QuadExt":
        """nums/den in the validated tower rads, divided by gcd(den, *nums);
        a Rational when rads is empty."""
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        x = object.__new__(QuadExt if rads else Rational)
        x.radicands = rads
        x.nums = tuple(n // g for n in nums)
        x.den = den // g
        return x

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def from_rational(value: Fraction | int, radicands: Sequence[int]) -> "QuadExt":
        coeffs = [Fraction(value)] + [Fraction(0)] * ((1 << len(radicands)) - 1)
        return QuadExt(radicands, coeffs)

    @staticmethod
    def sqrt_of(d: int) -> "QuadExt":
        """sqrt(d) for a positive non-square integer, as a field element."""
        s, df = _squarefree_decompose(d)
        if df == 1:
            raise ValueError("perfect square; use Rational")
        return QuadExt((df,), (0, s))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return Fraction(self.nums[0], self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __float__(self) -> float:
        """The double nearest the value, by int division, which rounds
        correctly.  An irrational value is bracketed at scale 2^k: with each
        term n*sqrt(D)*2^k = +-sqrt(n*n*D*4^k) floored by ``math.isqrt``, the
        scaled numerator lies strictly between L and L + t, t the number of
        irrational terms.  When both ends round to one double, so does the
        value; otherwise k doubles up to ``_PRECISION_CAP``, past which the
        enclosure rule of ``XReal.__float__`` decides."""
        nums, den = self.nums, self.den
        if not any(nums[1:]):
            return nums[0] / den
        terms = [(n, d) for d, n in zip(_basis_radicands(self.radicands)[1:], nums[1:]) if n]
        k = _STARTING_PRECISION
        while k <= _PRECISION_CAP:
            low = nums[0] << k
            for n, d in terms:
                r = math.isqrt(n * n * d << 2 * k)
                low += r if n > 0 else -r - 1
            scaled = den << k
            f = low / scaled
            if f == (low + len(terms)) / scaled:
                return f
            k *= 2
        return super().__float__()

    def enclosure(self, prec: int) -> _Ival:
        work = prec + 8
        total = _Ival.point(Fraction(self.nums[0], self.den))
        for d, n in zip(_basis_radicands(self.radicands)[1:], self.nums[1:]):
            if n:
                total = total + _Ival.point(Fraction(d)).root(2, work).scale(Fraction(n, self.den))
        return total.round(prec)

    def __neg__(self) -> "QuadExt":
        return QuadExt._reduced(self.radicands, [-n for n in self.nums], self.den)

    def inverse(self) -> "QuadExt":
        if self.is_zero():
            raise ZeroDivisionError("division by certified zero")
        p, q = _tower_inverse(self.nums, self.radicands)
        return QuadExt._reduced(self.radicands, [self.den * v for v in p], q)

    def sign_exact(self) -> int:
        return _tower_sign(self.nums, self.radicands)

    def __repr__(self) -> str:
        return f"QuadExt(d={self.radicands}, c={[_frac_str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        parts = [_frac_str(c) + f"*sqrt({d})" * (d > 1)
                 for d, c in zip(_basis_radicands(self.radicands), self.coeffs) if c != 0]
        return " + ".join(parts) if parts else "0"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, QuadExt)) and not isinstance(other, bool):
            return _binop(self, as_xreal(other), "sub").is_zero()
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.coeffs[0], *_canonical_terms(self)))


class Rational(QuadExt):
    """Exact rational number: the element of the radicand-free tower, one
    integer numerator over a positive denominator."""

    __slots__ = ()

    def __init__(self, numerator: int | Fraction | str | "Rational" = 0,
                 denominator: int | None = None):
        if isinstance(numerator, Rational):
            value = numerator.value
        elif denominator is not None:
            value = Fraction(numerator, denominator)
        else:
            value = Fraction(numerator)
        self.radicands = ()
        self.nums = (value.numerator,)
        self.den = value.denominator

    @property
    def value(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    @property
    def numerator(self) -> int:
        return self.nums[0]

    @property
    def denominator(self) -> int:
        return self.den

    def __repr__(self) -> str:
        return f"Rational({_frac_str(self.value)})"

    def __str__(self) -> str:
        return f"{_int_str(self.nums[0])}/{_int_str(self.den)}"


# Tower elements with integer coefficients c on the basis of radical products
# of `rads`, split by the top radicand d as A + B*sqrt(d): A = c[:h], B = c[h:].

def _basis_radicands(rads: Sequence[int]) -> list[int]:
    """For every mask, the product of the radicands in it: basis(mask) is
    its square root."""
    out = [1]
    for d in rads:
        out += [f * d for f in out]
    return out


def _tower_mul(x: Sequence[int], y: Sequence[int], rads: tuple[int, ...]) -> list[int]:
    """x*y by basis(i)*basis(j) = prod_{k in i&j} d_k * basis(i^j)."""
    if not rads:
        return [x[0] * y[0]]
    factors = _basis_radicands(rads)
    out = [0] * len(x)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    out[i ^ j] += a * b * factors[i & j]
    return out


def _relative_norm(c: Sequence[int], rads: tuple[int, ...]) -> list[int]:
    """A^2 - d*B^2, one level below c's tower."""
    h, d, below = len(c) // 2, rads[-1], rads[:-1]
    a, b = c[:h], c[h:]
    return [u - d * v for u, v in zip(_tower_mul(a, a, below), _tower_mul(b, b, below))]


def _tower_sign(c: Sequence[int], rads: tuple[int, ...]) -> int:
    """Exact sign by the real-quadratic rule, recursing one level down.

    The rule holds for any positive radicand d, because A - B*sqrt(d) has
    the sign of A when sign A = -sign B, and (A + B*sqrt(d))(A - B*sqrt(d))
    = A^2 - d*B^2.  So it needs no independence between the radicands, and
    they and the coefficients may be QuadExt elements instead of integers:
    the tower then sits on top of theirs, and the base case compares a
    coefficient with 0 by its own sign (hull decides W-membership over
    (R12, R34) this way).
    """
    if not rads:
        return (c[0] > 0) - (c[0] < 0)
    h, below = len(c) // 2, rads[:-1]
    sa = _tower_sign(c[:h], below)
    sb = _tower_sign(c[h:], below)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    return sa * _tower_sign(_relative_norm(c, rads), below)


def _tower_inverse(c: Sequence[int], rads: tuple[int, ...]) -> tuple[list[int], int]:
    """(p, q) with 1/c = p/q: (A - B*sqrt(d)) times the inverse of the
    relative norm, which is taken the same way one level down."""
    if not rads:
        return [1], c[0]
    h, below = len(c) // 2, rads[:-1]
    p, q = _tower_inverse(_relative_norm(c, rads), below)
    return _tower_mul(c[:h], p, below) + [-v for v in _tower_mul(c[h:], p, below)], q


def _canonical_terms(x: QuadExt) -> list[tuple[int, Fraction]]:
    """x's irrational terms c*sqrt(D), each as (sign of c, c*c*D), sorted.

    The radical products of a valid tower have distinct square-free parts,
    so these terms are those of x's one expansion over square-free
    radicands: equal values give equal pairs in any tower, with nothing
    to factor."""
    return sorted(((c > 0) - (c < 0), c * c * prod)
                  for prod, c in zip(_basis_radicands(x.radicands)[1:], x.coeffs[1:]) if c)


# ---------------------------------------------------------------------------
# coercion and binary operations
# ---------------------------------------------------------------------------

def as_xreal(v: XLike | float | str) -> XReal:
    if isinstance(v, XReal):
        return v
    if isinstance(v, bool):
        raise TypeError("bool is not a number here")
    if isinstance(v, (int, Fraction, float, str)):
        return Rational(v)
    raise TypeError(f"cannot interpret {v!r} as XReal")


def _compositum(radicands: Iterable[int]) -> tuple[tuple[int, ...], dict[int, tuple[Fraction, int]]]:
    """Independent basis for the field generated by the given radicands.

    Radicands are taken in ascending order; each one whose square root is
    a rational multiple of a basis product (mask 0 included, for a square)
    is expressed by it, and every other one joins the basis.  Returns the
    basis tuple plus, for every input radicand d, a pair (c, mask) with
    sqrt(d) = c * prod_{i in mask} sqrt(basis[i]).  A valid tower is its
    own compositum basis.  Raises RadicandMismatch beyond _MAX_RADICANDS
    independent radicands.
    """
    basis: list[int] = []
    images: dict[int, tuple[Fraction, int]] = {}
    for d in sorted(set(radicands)):
        expressed = False
        for mask in range(1 << len(basis)):
            prod = d
            denom = 1
            for i, bd in enumerate(basis):
                if mask & (1 << i):
                    prod *= bd
                    denom *= bd
            r = math.isqrt(prod)
            if r * r == prod:
                images[d] = (Fraction(r, denom), mask)
                expressed = True
                break
        if not expressed:
            if len(basis) >= _MAX_RADICANDS:
                raise RadicandMismatch(f"radicands {sorted(set(radicands))} need more than "
                                       f"{_MAX_RADICANDS} independent radicals")
            basis.append(d)
            images[d] = (Fraction(1), 1 << (len(basis) - 1))
    return tuple(basis), images


def _rebase(x: QuadExt, basis: tuple[int, ...],
            images: dict[int, tuple[Fraction, int]]) -> QuadExt:
    out = [Fraction(0)] * (1 << len(basis))
    for mask, c in enumerate(x.coeffs):
        if c == 0:
            continue
        coeff = c
        new_mask = 0
        for i, d in enumerate(x.radicands):
            if mask & (1 << i):
                ci, mi = images[d]
                coeff *= ci
                overlap = new_mask & mi
                for j, bd in enumerate(basis):
                    if overlap & (1 << j):
                        coeff *= bd
                new_mask ^= mi
        out[new_mask] += coeff
    den = math.lcm(*(c.denominator for c in out))
    return QuadExt._reduced(basis, [c.numerator * (den // c.denominator) for c in out], den)


def _embed(num: int, den: int, rads: tuple[int, ...]) -> QuadExt:
    """num/den as an element of the validated tower rads."""
    return QuadExt._reduced(rads, [num] + [0] * ((1 << len(rads)) - 1), den)


def _unify(a: QuadExt, b: QuadExt) -> tuple[QuadExt, QuadExt]:
    if a.radicands == b.radicands:
        return a, b
    # rational-valued elements live in any tower; a radicand-free operand
    # moves first, so a rational-valued tower element keeps its tower
    if not a.radicands or (b.radicands and a.is_rational()):
        return _embed(a.nums[0], a.den, b.radicands), b
    if not b.radicands or b.is_rational():
        return a, _embed(b.nums[0], b.den, a.radicands)
    basis, images = _compositum(tuple(a.radicands) + tuple(b.radicands))
    return _rebase(a, basis, images), _rebase(b, basis, images)


def _binop(a: XReal, b: XLike, op: str) -> XReal:
    if not isinstance(b, XReal):
        b = as_xreal(b)

    if isinstance(a, IntervalExpr) or isinstance(b, IntervalExpr):
        return IntervalExpr(op, (IntervalExpr.lift(a), IntervalExpr.lift(b)))

    a, b = _unify(a, b)

    rads = a.radicands
    if op in ("mul", "div"):
        if op == "div" and b.is_rational() and b.nums[0]:
            # a rational divisor scales the denominator
            return QuadExt._reduced(rads, [n * b.den for n in a.nums], a.den * b.nums[0])
        if op == "div":
            b = b.inverse()
        return QuadExt._reduced(rads, _tower_mul(a.nums, b.nums, rads), a.den * b.den)
    den = math.lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    if op == "sub":
        sb = -sb
    return QuadExt._reduced(rads, [u * sa + v * sb for u, v in zip(a.nums, b.nums)], den)


# ---------------------------------------------------------------------------
# interval expressions
# ---------------------------------------------------------------------------

class IntervalExpr(XReal):
    """Expression DAG evaluated by outward-rounded dyadic intervals.

    Nodes are immutable; refinement caches the tightest enclosure found so
    far and intersects new evaluations with it, which makes refinement
    monotone by construction.
    """

    __slots__ = ("op", "args", "payload", "_best", "_best_prec")

    def __init__(self, op: str, args: tuple = (), payload=None):
        self.op = op
        self.args = args
        self.payload = payload
        self._best: _Ival | None = None
        self._best_prec = 0

    @property
    def is_exact(self) -> bool:
        return False

    @staticmethod
    def lift(x: XReal) -> "IntervalExpr":
        if isinstance(x, IntervalExpr):
            return x
        return IntervalExpr("leaf", payload=x)

    @staticmethod
    def sqrt(x: XReal) -> "IntervalExpr":
        return IntervalExpr("sqrt", (IntervalExpr.lift(x),))

    @staticmethod
    def log(x: XReal) -> "IntervalExpr":
        return IntervalExpr("log", (IntervalExpr.lift(x),))

    @staticmethod
    def pow_rational(x: XReal, num: int, den: int) -> "IntervalExpr":
        return IntervalExpr("powq", (IntervalExpr.lift(x),), payload=(num, den))

    def __neg__(self) -> "IntervalExpr":
        return IntervalExpr("neg", (self,))

    def _eval(self, prec: int) -> _Ival:
        op = self.op
        if op == "leaf":
            return self.payload.enclosure(prec)
        if op == "neg":
            return (-self.args[0].refine(prec)).round(prec)
        a = self.args[0].refine(prec + 4)
        if op == "sqrt":
            if a.hi < 0:
                raise NegativeRadicand(f"sqrt of {a}")
            return a.root(2, prec)
        if op == "log":
            if a.lo <= 0:
                if a.hi <= 0:
                    raise ValueError("log of certified-nonpositive value")
                raise _NeedsRefinement(prec)  # rounding pushed lo to zero
            return a.log(prec)
        if op == "powq":
            num, den = self.payload
            if a.lo < 0:
                a = _Ival(Fraction(0), max(a.hi, Fraction(0)))
            powed = _Ival.point(Fraction(1))
            base = a
            k = abs(num)
            while k:
                if k & 1:
                    powed = powed * base
                base = base * base
                k >>= 1
            if num < 0:
                powed = powed.inverse()
            out = powed.root(den, prec) if den > 1 else powed
            return out.round(prec)
        b = self.args[1].refine(prec + 4)
        if op == "max":
            return _Ival(max(a.lo, b.lo), max(a.hi, b.hi)).round(prec)
        if op == "add":
            return (a + b).round(prec)
        if op == "sub":
            return (a - b).round(prec)
        if op == "mul":
            return (a * b).round(prec)
        if op == "div":
            if b.contains_zero():
                if b.lo == b.hi == 0:
                    raise ZeroDivisionError("division by certified zero")
                raise _NeedsRefinement(prec)
            return (a * b.inverse()).round(prec)
        raise AssertionError(op)

    def refine(self, prec: int) -> _Ival:
        if self._best is not None and self._best_prec >= prec:
            return self._best
        iv = self._eval(prec)
        if self._best is not None:
            iv = iv.intersect(self._best)
        self._best = iv
        self._best_prec = prec
        return iv

    def _refine_until(self, decide, prec: int, cap: int, message: str = ""):
        """decide(enclosure) at prec, 2*prec, ... up to cap, until it answers
        (is not None); Inconclusive at the cap."""
        while True:
            try:
                iv = self.refine(prec)
            except _NeedsRefinement:
                pass
            else:
                answer = decide(iv)
                if answer is not None:
                    return answer
            if prec >= cap:
                raise Inconclusive(prec, message)
            prec = min(2 * prec, cap)

    def enclosure(self, prec: int) -> _Ival:
        return self._refine_until(lambda iv: iv, max(_STARTING_PRECISION, prec),
                                  max(prec, _PRECISION_CAP),
                                  "divisor enclosure straddles zero at cap")

    def sign_certified(self, precision_cap: int | None = None) -> int:
        return self._refine_until(_interval_sign, _STARTING_PRECISION,
                                  precision_cap or _PRECISION_CAP)

    def __repr__(self) -> str:
        iv = self._best if self._best is not None else None
        shown = f"~{float(self):.6g}" if iv or self.op == "leaf" else "unevaluated"
        return f"IntervalExpr({self.op}, {shown})"

    __hash__ = object.__hash__

    def __eq__(self, other: object) -> bool:
        return self is other


class _NeedsRefinement(Exception):
    def __init__(self, precision: int):
        self.precision = precision


def _interval_sign(iv: _Ival) -> int | None:
    """The sign every point of iv has, or None."""
    if iv.lo > 0:
        return 1
    if iv.hi < 0:
        return -1
    if iv.lo == iv.hi == 0:
        return 0
    return None


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def sign(x: XLike, precision_cap: int | None = None) -> int:
    """Certified sign in {-1, 0, +1}; raises Inconclusive only for interval
    expressions whose value cannot be separated from zero at the cap."""
    x = as_xreal(x)
    if isinstance(x, QuadExt):
        return x.sign_exact()
    return x.sign_certified(precision_cap)


def xmax(*values: XLike) -> XReal:
    """Maximum of finitely many XReals.

    Decided exactly by sign comparisons when every operand is exact;
    otherwise returned as a certified max-enclosure node.
    """
    xs = [as_xreal(v) for v in values]
    if not xs:
        raise ValueError("xmax needs at least one value")
    if all(x.is_exact for x in xs):
        best = xs[0]
        for x in xs[1:]:
            if sign(x - best) > 0:
                best = x
        return best
    out = IntervalExpr.lift(xs[0])
    for x in xs[1:]:
        out = IntervalExpr("max", (out, IntervalExpr.lift(x)))
    return out


def adjoin_sqrt(x: XLike) -> XReal:
    """Square root of a nonnegative XReal.

    Rational-valued inputs, in any tower, produce exact results: either
    rational (perfect square) or a one-radicand QuadExt.  Any other tower
    element or expression falls back to a certified IntervalExpr sqrt node,
    which raises NegativeRadicand once an enclosure of x lies below zero.  No
    library caller passes a negative x: ``model`` roots densities (rho > 0),
    ``hull`` the vertex radicands R12, R34 (> 0 on V).
    """
    x = as_xreal(x)
    if isinstance(x, QuadExt):
        sgn = x.sign_exact()
        if sgn < 0:
            raise NegativeRadicand(f"sqrt of {x}")
        if sgn == 0:
            return Rational(0)
        if not x.is_rational():
            return IntervalExpr.sqrt(x)
        # sqrt(p/q) = sqrt(p*q)/q
        v = x.rational_value()
        s, d = _squarefree_decompose(v.numerator * v.denominator)
        if d == 1:
            return Rational(s, v.denominator)
        return QuadExt((d,), (0, Fraction(s, v.denominator)))
    return IntervalExpr.sqrt(x)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def xreal_to_json(x: XReal):
    """JSON-encodable form: rationals as "p/q", tower elements as
    {"d": [...], "c": [...]}, intervals as a decimal enclosure "[lo,hi]"
    with ``_ENCLOSURE_DIGITS`` decimals."""
    if isinstance(x, Rational):
        return str(x)
    if isinstance(x, QuadExt):
        return {
            "d": list(x.radicands),
            "c": [f"{_int_str(c.numerator)}/{_int_str(c.denominator)}" for c in x.coeffs],
        }
    iv = x.enclosure(4 * _ENCLOSURE_DIGITS)
    scale = 10 ** _ENCLOSURE_DIGITS
    lo = iv.lo.numerator * scale // iv.lo.denominator
    hi = -((-iv.hi.numerator) * scale // iv.hi.denominator)
    return f"[{_fmt_scaled(lo, _ENCLOSURE_DIGITS)},{_fmt_scaled(hi, _ENCLOSURE_DIGITS)}]"


_BLOCK_DIGITS = 600  # under every int-to-str digit limit Python allows (>= 640)
_BLOCK = 10 ** _BLOCK_DIGITS


def _int_str(n: int) -> str:
    """str(n) in blocks of _BLOCK_DIGITS digits, which no setting of Python's
    digit limit refuses; the process-wide sys.set_int_max_str_digits is untouched."""
    head, blocks = abs(n), []
    while head >= _BLOCK:
        head, low = divmod(head, _BLOCK)
        blocks.append(str(low).zfill(_BLOCK_DIGITS))
    return "-" * (n < 0) + str(head) + "".join(reversed(blocks))


def _str_int(s: str) -> int:
    """int(s) in blocks of _BLOCK_DIGITS digits: the inverse of _int_str."""
    n, digits = 0, s.removeprefix("-")
    for i in range(0, len(digits), _BLOCK_DIGITS):
        n = n * 10 ** min(_BLOCK_DIGITS, len(digits) - i) + int(digits[i:i + _BLOCK_DIGITS])
    return -n if s.startswith("-") else n


def _frac_str(c: Fraction) -> str:
    """str(c), its integers written by _int_str."""
    return _int_str(c.numerator) + (f"/{_int_str(c.denominator)}" if c.denominator != 1 else "")


def _fmt_scaled(n: int, digits: int) -> str:
    s = _int_str(abs(n)).rjust(digits + 1, "0")
    return "-" * (n < 0) + f"{s[:-digits]}.{s[-digits:]}"


def xreal_from_json(obj) -> XReal:
    """Parse the encodings produced by xreal_to_json (intervals excluded:
    an enclosure does not determine the underlying expression)."""
    if isinstance(obj, bool):
        raise ValueError("boolean is not a number")
    if isinstance(obj, int):
        return Rational(obj)
    if isinstance(obj, str):
        if obj.startswith("["):
            raise ValueError("interval enclosures cannot be parsed back into expressions")
        return Rational(_fraction(obj))
    if isinstance(obj, dict) and set(obj) == {"d", "c"}:
        d, c = obj["d"], obj["c"]
        if not (isinstance(d, list) and all(_is_int(r) for r in d)):
            raise ValueError(f"tower radicands must be a list of JSON integers, got {_shown(d)!r}")
        if not (isinstance(c, list) and all(_is_int(x) or isinstance(x, str) for x in c)):
            raise ValueError(f"tower coefficients must be a list of JSON integers "
                             f"or \"p/q\" strings, got {_shown(c)!r}")
        return QuadExt(d, [_fraction(x) for x in c])
    raise ValueError(f"not an XReal encoding: {_shown(obj)!r}")


def _shown(value):
    """A JSON value as a parse error shows it: each integer past 2**53, in
    lists and objects too, as its bit length, since Python writes no int of
    more than 4,300 digits as a string."""
    if isinstance(value, list):
        return [_shown(v) for v in value]
    if isinstance(value, dict):
        return {k: _shown(v) for k, v in value.items()}
    if _is_int(value) and abs(value) > 2 ** 53:
        return f"<{value.bit_length()}-bit integer>"
    return value


def _is_int(obj) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _fraction(obj) -> Fraction:
    try:
        return Fraction(obj)
    except ZeroDivisionError:  # "1/0" is malformed input like any other
        raise ValueError(f"zero denominator in {obj!r}") from None
    except ValueError:  # "p/q" past Python's int-to-str digit limit: read it in blocks
        num, _, den = obj.partition("/")
        if not (num.removeprefix("-").isdigit() and den.lstrip("0").isdigit()):  # q > 0
            raise
        return Fraction(_str_int(num), _str_int(den))
