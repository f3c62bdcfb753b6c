"""Differential tests: exact arithmetic against an independent CAS, and
mutation coverage of the fan checker."""

from __future__ import annotations

import ast
import math
import operator
import random
from fractions import Fraction

import pytest
import sympy as sp

from wildfan.exactnum import (IntervalExpr, QuadExt, Rational, _tower_sign, as_xreal, sign,
                              xreal_from_json)
from wildfan.fan import FanSubsolution, Status, fan_from_json, fan_to_json, paper_example, verify_fan
from wildfan.model import PHPoint

from test_oracle import _oracle


def random_quadext(rng: random.Random, *radicands: int, size: int = 15) -> QuadExt:
    return QuadExt(radicands, tuple(
        Fraction(rng.randint(-size, size), rng.randint(1, max(12, size)))
        for _ in range(1 << len(radicands))))


def to_sympy(x: QuadExt | Rational):
    if isinstance(x, Rational):
        return sp.Rational(x.numerator, x.denominator)
    basis = [sp.Integer(1)]
    for d in x.radicands:  # (1, sqrt d1, sqrt d2, sqrt(d1*d2), sqrt d3, ...)
        basis += [b * sp.sqrt(d) for b in basis]
    return sum(sp.Rational(c.numerator, c.denominator) * b
               for c, b in zip(x.coeffs, basis))


def _operand_pairs(rng: random.Random, pairs: int):
    """Random pairs in Q(sqrt2, sqrt7) and in Q(sqrt7); across the towers
    (2,) and (7,), and (5,) and (5, 1141); with a Rational on either side;
    and with coefficients around 1e12.  Each round adds one deep pair, in
    turn: in (2, 3, 5), in (2, 3, 5, 7), and the cross-tower pairs that
    merge to depth 4, (2, 3) with (5, 7) and (5, 13) with (319, 1141)."""
    deep = (((2, 3, 5), (2, 3, 5)), ((2, 3, 5, 7), (2, 3, 5, 7)),
            ((2, 3), (5, 7)), ((5, 13), (319, 1141)))
    for i in range(pairs):
        for ra, rb in (((2, 7), (2, 7)), ((7,), (7,)), ((2,), (7,)), ((5,), (5, 1141)),
                       deep[i % len(deep)]):
            yield random_quadext(rng, *ra), random_quadext(rng, *rb)
        r = Rational(rng.randint(-15, 15), rng.randint(1, 12))
        yield r, random_quadext(rng, 2, 7)
        yield random_quadext(rng, 5, 1141), r
        yield (random_quadext(rng, 2, 7, size=10 ** 12),
               random_quadext(rng, 2, 7, size=10 ** 12))


def _field_op_cases(rng: random.Random, pairs: int):
    """(got, want) for +, -, *, / on _operand_pairs; every result is in
    lowest terms over a positive denominator."""
    for a, b in _operand_pairs(rng, pairs):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            if op is operator.truediv and b == 0:
                continue
            got = op(a, b)
            assert got.den > 0 and math.gcd(got.den, *got.nums) == 1
            yield got, op(to_sympy(a), to_sympy(b))


def test_field_ops_match_sympy_exactly():
    for got, want in _field_op_cases(random.Random(101), 5):
        # a quotient is multiplied back by its denominator (radsimp cannot
        # rationalise one of depth 3 or 4); expand then collects the result
        # on the radical basis, so this is a zero test
        num, den = sp.fraction(want)
        assert sp.expand(to_sympy(got) * den - num) == 0


def test_field_ops_match_sympy_numerically():
    for got, want in _field_op_cases(random.Random(102), 40):
        diff = sp.N(to_sympy(got) - want, 50)
        assert abs(diff) < sp.Float("1e-45")


def _paper_coordinates():
    fan = paper_example()
    values = [*fan.mu, fan.left.rho, *fan.left.m, fan.right.rho, *fan.right.m]
    for rho, z in fan.regions:
        values += [rho, *z.m, z.u11, z.u12, z.q, *z.F]
    return [v for v in values if isinstance(v, QuadExt)]


def _sign_cases(rng: random.Random):
    for _ in range(100):
        yield random_quadext(rng, 3, 5)
    for _ in range(40):
        yield random_quadext(rng, 7)
    for radicands in ((2, 3, 5), (2, 3, 5, 7), (5, 13, 319, 1141)):
        for _ in range(20):
            yield random_quadext(rng, *radicands)
    # x minus a 1e-9-denominator rational close to it: the enclosure of such
    # a difference needs many bits, the relative norm decides it
    for radicands in ((5, 1141), (2, 7), (7,), (2, 3, 5), (2, 3, 5, 7), (5, 13, 319, 1141)):
        for _ in range(40):
            x = random_quadext(rng, *radicands)
            yield x - Fraction(float(x)).limit_denominator(10 ** 9)
    yield from _paper_coordinates()


def test_signs_match_sympy():
    for a in _sign_cases(random.Random(103)):
        expected = int(sp.sign(sp.N(to_sympy(a), 60))) if not a.is_zero() else 0
        assert sign(a) == expected


def test_gamma_three_halves_paper_fan_signs_match_sympy():
    # gamma = 3/2 takes sqrt(rho) of each density: every condition lies in
    # a tower of up to four radicands, such as (5, 13, 319, 1141)
    fan = fan_from_json({**fan_to_json(paper_example()), "gamma": "3/2"})
    conditions = verify_fan(fan).conditions
    assert {c.name for c in conditions if c.status is not Status.PASS} == {
        "rh_energy[2]", "rh_normal[3]", "rh_energy[3]"}
    assert all(c.status is not Status.INCONCLUSIVE for c in conditions)
    for c in conditions:
        # a tower witness is the repr of its JSON dict
        w = xreal_from_json(ast.literal_eval(c.witness) if c.witness.startswith("{")
                            else c.witness)
        expected = int(sp.sign(sp.N(to_sympy(w), 60))) if not w.is_zero() else 0
        assert sign(w) == expected


def test_nested_tower_signs_match_sympy():
    # _tower_sign one level up: coefficients and radicands in Q(sqrt5), the
    # form in which hull decides W-membership.  The value is
    # X + Y sqrt(R1) + Z sqrt(R2) + W sqrt(R1) sqrt(R2)
    rng = random.Random(109)

    def positive():
        r = random_quadext(rng, 5)
        return r if sign(r) > 0 else r * (-1) + Rational(1, 7)

    def value(c, rads):
        r1, r2 = (sp.sqrt(to_sympy(r)) for r in rads)
        x, y, z, w = (to_sympy(v) for v in c)
        return x + y * r1 + z * r2 + w * r1 * r2

    for _ in range(60):
        rads = (positive(), positive())
        c = [random_quadext(rng, 5) for _ in range(4)]
        # a coefficient or two set to zero, and a near-cancelling X
        for k in rng.sample(range(4), rng.randint(0, 2)):
            c[k] = Rational(0)
        if rng.random() < 0.5:
            c[0] = c[0] - Fraction(float(value(c, rads))).limit_denominator(10 ** 6)
        assert _tower_sign(c, rads) == int(sp.sign(sp.N(value(c, rads), 60)))

    # a constructed zero over dependent radicands R2 = R1 t^2 (t > 0), so
    # sqrt(R2) = t sqrt(R1) and sqrt(R1 R2) = R1 t: X = -W R1 t and Y = -Z t
    # cancel; the rule needs no independence of R1 and R2
    for _ in range(20):
        r1, t = positive(), positive()
        r2 = r1 * t * t
        z, w = random_quadext(rng, 5), random_quadext(rng, 5)
        c = [(-1) * w * r1 * t, (-1) * z * t, z, w]
        assert sp.expand(to_sympy(r2) - to_sympy(r1) * to_sympy(t) ** 2) == 0  # multiplied back
        assert sp.expand(to_sympy(c[0]) + to_sympy(w) * to_sympy(r1) * to_sympy(t)) == 0
        assert sp.expand(to_sympy(c[1]) + to_sympy(z) * to_sympy(t)) == 0
        assert _tower_sign(c, (r1, r2)) == 0
        eps = Rational(rng.choice((-1, 1)), 10 ** 12)
        assert _tower_sign([c[0] + eps, *c[1:]], (r1, r2)) == sign(eps)


def test_interval_enclosures_contain_true_values():
    rng = random.Random(107)
    for _ in range(60):
        base = Fraction(rng.randint(1, 400), rng.randint(1, 40))
        expr = IntervalExpr.sqrt(as_xreal(base)) + IntervalExpr.log(as_xreal(base)) \
            - IntervalExpr.pow_rational(as_xreal(base), 2, 3)
        truth = sp.sqrt(sp.Rational(base)) + sp.log(sp.Rational(base)) \
            - sp.Rational(base) ** sp.Rational(2, 3)
        iv = expr.enclosure(128)
        lo = sp.Rational(iv.lo.numerator, iv.lo.denominator)
        hi = sp.Rational(iv.hi.numerator, iv.hi.denominator)
        assert sp.N(lo - truth, 50) <= 0 <= sp.N(hi - truth, 50)
        assert float(iv.hi - iv.lo) < 1e-30


def _mutants():
    """Single-coordinate perturbations of the built-in counterexample that
    each violate at least one verification condition."""
    fan = paper_example()
    eps = Rational(1, 1000)
    out = []
    for i in range(4):
        mu = list(fan.mu)
        mu[i] = mu[i] + eps
        out.append((f"mu[{i}]", FanSubsolution(fan.law, tuple(mu), fan.left,
                                               fan.right, fan.regions)))
    for i, (rho, z) in enumerate(fan.regions):
        # the flux bump must exceed the upstream plane's dissipation budget,
        # otherwise the mutant legitimately remains admissible
        for name, repl in (
                ("m2", PHPoint((z.m[0], z.m[1] + eps), z.u11, z.u12, z.q, z.F)),
                ("u11", PHPoint(z.m, z.u11 + eps, z.u12, z.q, z.F)),
                ("u12", PHPoint(z.m, z.u11, z.u12 + eps, z.q, z.F)),
                ("q", PHPoint(z.m, z.u11, z.u12, z.q + eps, z.F)),
                ("F2+", PHPoint(z.m, z.u11, z.u12, z.q, (z.F[0], z.F[1] + 16))),
        ):
            regions = list(fan.regions)
            regions[i] = (rho, repl)
            out.append((f"region{i + 1}.{name}",
                        FanSubsolution(fan.law, fan.mu, fan.left, fan.right,
                                       tuple(regions))))
    return out


@pytest.mark.parametrize("label,mutant", _mutants(), ids=lambda v: v if isinstance(v, str) else "")
def test_checker_rejects_all_single_coordinate_mutants(label, mutant):
    report = verify_fan(mutant)
    assert not report.passed, f"mutant {label} slipped through"
    # the sympy oracle, sharing no code with wildfan, fails the same conditions
    fails = {c["name"] for c in report.to_dict()["conditions"] if c["status"] == "Fail"}
    oracle = _oracle(fan_to_json(mutant))
    assert fails == {name for name, status in oracle.items() if status == "Fail"}
