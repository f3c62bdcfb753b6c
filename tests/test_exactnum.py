"""Exact arithmetic: field operations, certified signs, interval refinement."""

from __future__ import annotations

import math
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wildfan import exactnum
from wildfan.exactnum import (
    Inconclusive,
    IntervalExpr,
    NegativeRadicand,
    QuadExt,
    RadicandMismatch,
    Rational,
    XReal,
    adjoin_sqrt,
    as_xreal,
    sign,
    xreal_from_json,
    xreal_to_json,
)
from wildfan.model import EulerState, NonPositiveDensity


def test_rational_basic():
    assert (Rational(1, 2) + Rational(1, 3)) == Rational(5, 6)
    assert (Rational(1, 2) - Rational(1, 2)) == Rational(0)
    assert (Rational(2, 3) * Rational(9, 4)) == Rational(3, 2)
    assert (Rational(1) / Rational(4)) == Rational(1, 4)
    with pytest.raises(ZeroDivisionError):
        Rational(1) / Rational(0)


_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)
_FRACTIONS = st.fractions(max_denominator=10 ** 6).filter(lambda v: abs(v) < 10 ** 9)


@settings(max_examples=300, deadline=None)
@given(p=_FRACTIONS, q=_FRACTIONS, op=st.sampled_from(_OPS))
def test_radicand_free_tower_matches_fraction(p, q, op):
    # Rational is the radicand-free QuadExt; Fraction is its reference
    a, b = Rational(p), Rational(q)
    assert isinstance(a, QuadExt) and a.radicands == ()
    if op is operator.truediv and q == 0:
        with pytest.raises(ZeroDivisionError):
            op(a, b)
        return
    got, want = op(a, b), op(p, q)
    assert type(got) is Rational and got.radicands == ()
    assert got == want and got.value == want
    assert sign(got) == (want > 0) - (want < 0)
    assert hash(got) == hash(want)
    assert float(got) == float(want)
    assert xreal_to_json(got) == f"{want.numerator}/{want.denominator}"
    # mixing with a tower keeps the tower, also for a rational-valued element
    s5 = QuadExt.sqrt_of(5)
    x = QuadExt((5, 1141), (p, 0, q, 1))
    x_rational = QuadExt.from_rational(q, (5, 1141))
    for other in (s5, x, x_rational):
        for lhs, rhs in ((a, other), (other, a)):
            if op is operator.truediv and rhs.is_zero():
                continue
            mixed = op(lhs, rhs)
            assert type(mixed) is QuadExt and mixed.radicands == other.radicands
    if q:
        assert op(x_rational, b) == op(q, q) and op(x_rational, b).radicands == (5, 1141)


def test_sqrt5_squared_stays_in_tower():
    s5 = QuadExt.sqrt_of(5)
    sq = s5 * s5
    assert isinstance(sq, QuadExt)
    assert sq.radicands == (5,)
    assert sq.coeffs == (Fraction(5), Fraction(0))


def test_inverse_of_one_plus_sqrt5_in_two_radical_tower():
    # 1/(1+sqrt5) = (-1 + sqrt5)/4, embedded in Q(sqrt5, sqrt1141)
    one_plus = QuadExt((5, 1141), (1, 1, 0, 0))
    inv = Rational(1) / one_plus
    assert isinstance(inv, QuadExt)
    assert inv.coeffs == (Fraction(-1, 4), Fraction(1, 4), Fraction(0), Fraction(0))
    # brute-force check: product back to exactly 1
    prod = inv * one_plus
    assert prod.coeffs == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def test_sign_paper_inequalities():
    s5 = QuadExt.sqrt_of(5)
    lhs = Rational(83033, 4300) - Rational(8050, 4300) * s5
    assert sign(lhs - Rational(151, 10)) == 1
    assert sign(Rational(151, 10) - Rational(27, 4) * s5) == 1
    assert sign(Rational(0)) == 0


def test_adjoin_sqrt_rational_cases():
    r = adjoin_sqrt(8)
    assert isinstance(r, QuadExt)
    assert r.radicands == (2,)
    assert r.coeffs == (Fraction(0), Fraction(2))  # 2*sqrt(2)
    assert adjoin_sqrt(0) == Rational(0)
    assert adjoin_sqrt(Rational(9, 4)) == Rational(3, 2)
    with pytest.raises(NegativeRadicand):
        adjoin_sqrt(-1)


def test_adjoin_sqrt_field_element_gives_interval():
    s5 = QuadExt.sqrt_of(5)
    x = Rational(45, 4) * 5 + s5  # no exact sqrt in the tower
    r = adjoin_sqrt(x)
    assert isinstance(r, IntervalExpr)
    iv = r.enclosure(128)
    approx = float(x) ** 0.5
    assert float(iv.lo) <= approx <= float(iv.hi)
    assert float(iv.hi - iv.lo) < 1e-30


def test_radicand_mismatch_three_radicals():
    # the limit: a depth-4 tower and a fifth independent radicand
    a = QuadExt((2, 3, 5, 7), (1,) + (0,) * 14 + (1,))
    b = QuadExt.sqrt_of(11)
    with pytest.raises(RadicandMismatch, match="need more than 4 independent radicals"):
        a + b


def test_same_field_radicands_merge():
    # sqrt(8) = 2*sqrt(2): towers (2,) and (8,) describe the same field
    a = QuadExt((2,), (0, 1))
    b = QuadExt((8,), (0, 1))
    s = a + b
    assert isinstance(s, QuadExt)
    assert float(s) == pytest.approx(3 * 2 ** 0.5)
    # sqrt65 = sqrt5*sqrt13 is a basis product of (5, 13); (319, 1141)
    # merges with it to depth 4
    c = QuadExt((5, 13), (1, 2, 3, 4))
    assert (c + QuadExt.sqrt_of(65)).radicands == (5, 13)
    assert (c * QuadExt((319, 1141), (5, 6, 7, 8))).radicands == (5, 13, 319, 1141)


def test_equal_values_in_different_towers_hash_equal():
    # sqrt(8) = 2*sqrt(2), sqrt(12) = 2*sqrt(3) and sqrt(1013*1009^2) =
    # 1009*sqrt(1013), a square factor beyond the trial division of
    # _squarefree_decompose: each pair is one value
    pairs = ((xreal_from_json({"d": [8], "c": ["0/1", "1/1"]}), QuadExt.sqrt_of(8)),
             (QuadExt((2, 6), (0, 0, 0, 1)), QuadExt((2, 3), (0, 0, 2, 0))),
             (QuadExt((1013 * 1009 ** 2,), (5, -1)), QuadExt((1013,), (5, -1009))))
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_division_by_rational_valued_tower_element():
    a = QuadExt((2, 7), (1, Fraction(-2, 3), 5, 7))
    assert a / QuadExt.from_rational(Fraction(-4, 9), (2, 7)) == a * Fraction(-9, 4)
    with pytest.raises(ZeroDivisionError):
        a / QuadExt.from_rational(0, (2, 7))


def test_square_radicands_rejected_at_the_boundary():
    # arithmetic results skip the radicand check; the entry points keep it:
    # 1 to 4 positive integers (5.9 was truncated to sqrt(5)) that are their
    # own compositum basis, which (2, 3, 6) is not: sqrt6 = sqrt2*sqrt3
    for rads in ((), (4,), (2, 9), (2, 8), (5.5,), (5.9,), (Fraction(11, 2),), (5, 7.5),
                 (2, 3, 6), (3, 2), (0,), (-5,), (1,), (2, 2), (2, 3, 5, 7, 11)):
        with pytest.raises(ValueError):
            QuadExt(rads, [1] + [0] * ((1 << len(rads)) - 1))
        with pytest.raises(ValueError):
            QuadExt.from_rational(1, rads)
    with pytest.raises(ValueError):
        xreal_from_json({"d": [9], "c": ["1/1", "0/1"]})


def test_depth_four_tower_and_its_basis_names():
    x = QuadExt((2, 3, 5, 7), range(16))
    assert x.radicands == (2, 3, 5, 7) and x.coeffs == tuple(map(Fraction, range(16)))
    assert xreal_from_json(xreal_to_json(x)) == x
    # the basis in bitmask order: every product of the radicands is named
    assert str(QuadExt((2, 3, 5), range(1, 9))) == (
        "1 + 2*sqrt(2) + 3*sqrt(3) + 4*sqrt(6) + 5*sqrt(5) + 6*sqrt(10)"
        " + 7*sqrt(15) + 8*sqrt(30)")


_PRIMES = st.sets(st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=1, max_size=4).map(sorted)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), rads=_PRIMES, near=st.booleans())
def test_sign_agrees_with_enclosure_on_deep_towers(data, rads, near):
    # near: x minus a close rational, so the sign rests on the relative norm
    cs = data.draw(st.lists(st.fractions(-20, 20, max_denominator=20),
                            min_size=1 << len(rads), max_size=1 << len(rads)))
    x = QuadExt(rads, cs)
    if near:
        x = x - Fraction(float(x)).limit_denominator(10 ** 9)
    iv = x.enclosure(256)
    if iv.lo > 0 or iv.hi < 0:
        assert sign(x) == (1 if iv.lo > 0 else -1)


_SCALED = st.builds(lambda q, e: q * Fraction(10) ** e,
                    st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 9).filter(bool),
                    st.integers(-300, 300))


@settings(max_examples=300, deadline=None)
@given(q=st.one_of(_SCALED, _FRACTIONS))
@example(q=Fraction(1, 10 ** 7))
def test_float_is_correctly_rounded(q):
    # tiny, huge and ordinary values round to the nearest double, as
    # Fraction does; 64 fixed-point bits made 1e-7 read 9.999999999997533e-08
    assert float(Rational(q)) == float(q)
    if q:
        # an irrational value, against sqrt(2) to 3000 bits (no tie is
        # that close to a double)
        root2 = Fraction(math.isqrt(2 << 6000), 1 << 3000)
        assert float(QuadExt.sqrt_of(2) * Rational(q)) == float(root2 * q)


_BIG = st.integers(-10 ** 30, 10 ** 30)


@st.composite
def _tower_elements(draw):
    """An irrational element of a tower of 1-4 prime radicands, numerators
    and denominator up to 10^30.  In half the draws its rational part is
    minus its irrational part rounded to 2^-60, term by term (a = -[b
    sqrt(d) 2^60] / 2^60 for one radicand), so the t irrational terms leave
    a value within 2^-60 t / den of zero."""
    rads = draw(_PRIMES)
    nums = draw(st.lists(_BIG, min_size=1 << len(rads), max_size=1 << len(rads)))
    if not any(nums[1:]):
        nums[1] = 1
    den = draw(st.integers(1, 10 ** 30))
    cs = [Fraction(n, den) for n in nums]
    if draw(st.booleans()):
        basis = [math.prod(d for i, d in enumerate(rads) if mask >> i & 1)
                 for mask in range(1 << len(rads))]
        near = sum(math.isqrt(n * n * d << 120) * (1 if n > 0 else -1)
                   for n, d in zip(nums[1:], basis[1:]))
        cs[0] = Fraction(-near, den << 60)
    return QuadExt(rads, cs)


@settings(max_examples=200, deadline=None)
@given(x=_tower_elements())
@example(x=QuadExt((2,), (Fraction(-math.isqrt(2 << 120), 1 << 60), 1)))
@example(x=QuadExt((3, 7), (Fraction(-math.isqrt(10 ** 60 * 21 << 120), 1 << 60), 0, 0, 10 ** 30)))
# small values over odd denominators, whose bracket shifted by one unit
# rounds to a neighbour of the nearest double: a negative term's up, a
# positive term's up, a negative term's down
@example(x=QuadExt((2,), (Fraction(574541936035, 91), Fraction(-406262499046, 91))))
@example(x=QuadExt((2,), (Fraction(-136397759129, 1687), Fraction(96447780419, 1687))))
@example(x=QuadExt((2,), (Fraction(1231025324087, 3545), Fraction(-870466354474, 3545))))
def test_float_of_a_tower_element_is_the_nearest_double(x):
    # x lies strictly between the midpoints to f's neighbouring doubles,
    # decided by tower signs; and f is what the enclosure rule gives
    f = float(x)
    below, above = math.nextafter(f, -math.inf), math.nextafter(f, math.inf)
    assert sign(x - (Fraction(f) + Fraction(below)) / 2) > 0
    assert sign((Fraction(f) + Fraction(above)) / 2 - x) > 0
    assert f == XReal.__float__(x)


_POW_BASES = {
    "rational": Rational(-7, 3),
    "two radicands": QuadExt((2, 3), (Fraction(1, 2), -2, 3, Fraction(5, 7))),
    "interval": IntervalExpr.sqrt(as_xreal(2)) + Rational(1, 3),
}


@pytest.mark.parametrize("name", _POW_BASES)
def test_pow_is_the_product_of_n_copies(name):
    x = _POW_BASES[name]
    product = Rational(1)
    for n in range(10):
        pairs = ((x ** n, product), (x ** -n, Rational(1) / product))
        product = product * x
        if x.is_exact:
            assert all(got == want for got, want in pairs)
            continue
        # interval expressions: the enclosures of either form overlap, and
        # refinement narrows both
        for got, want in pairs:
            a, b = got.enclosure(200), want.enclosure(200)
            assert max(a.lo, b.lo) <= min(a.hi, b.hi)
            assert a.hi - a.lo < Fraction(1, 2 ** 180) and b.hi - b.lo < Fraction(1, 2 ** 180)


@pytest.mark.parametrize("x", [Rational(-7, 3), _POW_BASES["two radicands"]],
                         ids=["rational", "two radicands"])
def test_a_square_is_one_product(monkeypatch, x):
    calls = []
    tower_mul = exactnum._tower_mul
    monkeypatch.setattr(exactnum, "_tower_mul",
                        lambda *args: calls.append(1) or tower_mul(*args), raising=True)
    assert x ** 2 == QuadExt._reduced(x.radicands, tower_mul(x.nums, x.nums, x.radicands),
                                      x.den * x.den)
    assert len(calls) == 1


def test_random_field_ops_roundtrip():
    rng = random.Random(7)
    for _ in range(1000):
        coeffs_a = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
        coeffs_b = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
        a = QuadExt((2, 7), coeffs_a)
        b = QuadExt((2, 7), coeffs_b)
        if b.is_zero():
            continue
        assert (a * b) / b == a
        zero = a + (-a)
        assert zero.is_zero()


def test_sign_agrees_with_float_on_random_elements():
    rng = random.Random(11)
    for _ in range(300):
        a = QuadExt((3, 11), tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 20))
                                   for _ in range(4)))
        s = sign(a)
        approx = float(a)
        if abs(approx) > 1e-9:
            assert s == (1 if approx > 0 else -1)


def test_sign_never_contradicts_128bit_enclosure():
    rng = random.Random(13)
    for _ in range(200):
        a = QuadExt((2, 19), tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 30))
                                   for _ in range(4)))
        s = sign(a)
        iv = a.enclosure(128)
        if iv.lo > 0:
            assert s == 1
        elif iv.hi < 0:
            assert s == -1
        else:
            assert iv.lo <= 0 <= iv.hi  # enclosure must contain the true value


def test_exact_sqrt_products_collapse_in_field():
    expr = adjoin_sqrt(2) * adjoin_sqrt(3) - adjoin_sqrt(6)
    assert isinstance(expr, QuadExt)
    assert sign(expr) == 0


def test_interval_refinement_monotone():
    expr = IntervalExpr.sqrt(as_xreal(2)) * IntervalExpr.sqrt(as_xreal(3)) \
        - IntervalExpr.sqrt(as_xreal(6))
    assert isinstance(expr, IntervalExpr)
    coarse = expr.enclosure(64)
    fine = expr.enclosure(256)
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi
    # the value is exactly 0, so sign must stay inconclusive
    with pytest.raises(Inconclusive):
        sign(expr, precision_cap=512)


def test_interval_division_by_possible_zero():
    z = IntervalExpr.sqrt(as_xreal(2)) * IntervalExpr.sqrt(as_xreal(2)) - as_xreal(2)  # exact 0
    with pytest.raises((ZeroDivisionError, Inconclusive)):
        val = as_xreal(1) / z
        sign(val, precision_cap=256)


def test_interval_sign_separates_nonzero():
    expr = IntervalExpr.sqrt(as_xreal(2)) + IntervalExpr.sqrt(as_xreal(3)) - as_xreal(3)
    assert sign(expr) == 1  # sqrt2 + sqrt3 = 3.146... > 3
    neg = -IntervalExpr.sqrt(as_xreal(2))
    assert neg.op == "neg" and sign(neg) == -1


def test_pow_and_log_nodes():
    x = IntervalExpr.pow_rational(as_xreal(4), 3, 2)  # 4^{3/2} = 8
    iv = x.enclosure(96)
    assert float(iv.lo) <= 8.0 <= float(iv.hi)
    assert float(iv.hi - iv.lo) < 1e-25
    ln = IntervalExpr.log(as_xreal(2))
    iv = ln.enclosure(96)
    assert abs(float((iv.lo + iv.hi) / 2) - 0.6931471805599453) < 1e-15
    assert float(iv.hi - iv.lo) < 1e-25
    # float() rounds correctly where refinement separates the value from a
    # tie, and stops at 256 bits on an expression it cannot tell from zero
    assert (float(x), float(ln)) == (8.0, 0.6931471805599453)
    assert abs(float(ln - IntervalExpr.log(as_xreal(2)))) < 2.0 ** -255


def test_serialization():
    assert xreal_to_json(Rational(5, 3)) == "5/3"
    s5 = QuadExt((5, 1141), (Fraction(1, 2), Fraction(-3), 0, 0))
    enc = xreal_to_json(s5)
    assert enc == {"d": [5, 1141], "c": ["1/2", "-3/1", "0/1", "0/1"]}
    back = xreal_from_json(enc)
    assert isinstance(back, QuadExt) and back == s5
    iv_enc = xreal_to_json(IntervalExpr.sqrt(as_xreal(2)) + as_xreal(1))
    assert isinstance(iv_enc, str) and iv_enc.startswith("[") and "," in iv_enc
    lo, hi = (float(v) for v in iv_enc[1:-1].split(","))
    assert lo <= 2 ** 0.5 + 1 <= hi


@pytest.mark.parametrize("limit", [4300, 640], ids=["default-limit", "least-limit"])
@pytest.mark.parametrize("n", [10 ** 4000, -(10 ** 4000) + 1, 7 ** 20000, -(3 ** 30000) * 10 ** 5000,
                               10 ** 600 - 2, 10 ** 600, -(10 ** 1200)],
                         ids=["10^4000", "1-10^4000", "7^20000", "-3^30000*10^5000",
                              "10^600-2", "10^600", "-10^1200"])
def test_long_integers_print_past_the_digit_limit(n, limit):
    # str() refuses ints of more digits than sys.get_int_max_str_digits()
    # (4300 by default, 640 at the least); the printers convert in blocks
    def read(digits):  # back in blocks of 600 digits, which int() accepts
        value = 0
        for k in range(0, len(digits), 600):
            value = value * 10 ** len(digits[k:k + 600]) + int(digits[k:k + 600])
        return value
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        num, den = xreal_to_json(Rational(n, 13)).split("/")
        enc = xreal_to_json(QuadExt((5,), (Fraction(n, 13), Fraction(1))))
    finally:
        sys.set_int_max_str_digits(old_limit)
    digits = num.lstrip("-")
    assert (num[0] == "-", digits[0] != "0", read(digits), den) == (n < 0, True, abs(n), "13")
    assert enc["c"] == [f"{num}/13", "1/1"]


@pytest.mark.parametrize("limit", [4300, 640], ids=["default-limit", "least-limit"])
def test_long_integers_read_back_past_the_digit_limit(limit):
    # Fraction() refuses "p/q" strings of more digits than the limit; the
    # reader converts such integers in blocks, so what the writer wrote
    # reads back, and a zero denominator stays a parse error
    values = (Rational(10 ** 5000 + 1, 3), -Rational(10 ** 5000 + 1, 3),
              QuadExt((5,), (Fraction(-(7 ** 6000), 10 ** 5000 + 1), Fraction(1, 2))))
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        back = [xreal_from_json(xreal_to_json(x)) for x in values]
        for bad in ("1" * 5000 + "/0", "--" + "1" * 5000 + "/3", "1" * 5000 + "/x"):
            with pytest.raises(ValueError):
                xreal_from_json(bad)
    finally:
        sys.set_int_max_str_digits(old_limit)
    assert back == list(values)
    assert [type(x) for x in back] == [Rational, Rational, QuadExt]


@pytest.mark.parametrize("limit", [4300, 640], ids=["default-limit", "least-limit"])
def test_long_integers_in_str_repr_and_messages(limit):
    # str, repr and the error messages that format values write long ints
    # in blocks: under the digit limit they read as they do without one
    big = Fraction(10 ** 5000 + 1, 3)
    tower = QuadExt((5,), (big, Fraction(-(7 ** 6000))))  # < 0: 7**6000 > 10**5000

    def texts():
        with pytest.raises(NonPositiveDensity) as err:
            EulerState(tower, (0, 0))
        return [str(tower), repr(tower), repr(Rational(big)), repr(Rational(-big.numerator)),
                str(err.value)]
    old_limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)  # no limit: Python's own str()
        want = texts()
        sys.set_int_max_str_digits(limit)
        got = texts()
    finally:
        sys.set_int_max_str_digits(old_limit)
    assert got == want
    assert [len(t) > 5000 for t in want] == [True] * 5


def test_comparison_operators():
    assert Rational(1, 3) < Rational(1, 2)
    s2 = adjoin_sqrt(2)
    assert s2 > Rational(7, 5)
    assert s2 < Rational(3, 2)


def test_xreal_from_json_rejects_floats():
    # a JSON float is a binary approximation, not the number it spells
    for enc in (0.1, 2.0, {"d": [5], "c": ["0/1", 0.5]}):
        with pytest.raises(ValueError):
            xreal_from_json(enc)
    assert xreal_from_json({"d": [5], "c": [0, "1/2"]}) == QuadExt.sqrt_of(5) / 2


def test_xreal_from_json_zero_denominator_is_a_parse_error():
    for enc in ("1/0", {"d": [5], "c": ["0/1", "3/0"]}):
        with pytest.raises(ValueError):
            xreal_from_json(enc)


def test_precision_cap_env_override(monkeypatch):
    # the cap is the fixed 4096 bits or a per-call argument: the environment
    # does not move it.  sqrt(2) - floor(sqrt(2) 2^200)/2^200 lies in
    # (0, 2^-200), so its sign needs about 200 bits.
    monkeypatch.setenv("WILDFAN_PRECISION_CAP", "128")

    def close_to_sqrt2():
        return IntervalExpr.sqrt(as_xreal(2)) - Rational(math.isqrt(2 << 400), 1 << 200)

    assert sign(close_to_sqrt2()) == 1
    with pytest.raises(Inconclusive):
        sign(close_to_sqrt2(), precision_cap=128)


def test_adjoin_sqrt_of_interval_expression():
    # an interval radicand is not signed when the node is built: the first
    # sign or float of the node, which evaluates it, refuses a negative one
    root2 = IntervalExpr.sqrt(as_xreal(2))
    negative = adjoin_sqrt(root2 - 2)
    with pytest.raises(NegativeRadicand):
        sign(negative)
    with pytest.raises(NegativeRadicand):
        float(negative)
    fourth = adjoin_sqrt(root2)
    assert isinstance(fourth, IntervalExpr)
    iv = fourth.enclosure(200)
    assert iv.lo ** 4 <= 2 <= iv.hi ** 4  # encloses 2^(1/4)
    assert iv.hi - iv.lo < Fraction(1, 2 ** 190)
