"""Differential tests: exact arithmetic against an independent CAS, and
mutation coverage of the fan checker."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy as sp

from wildfan.exactnum import IntervalExpr, QuadExt, Rational, as_xreal, sign
from wildfan.fan import FanSubsolution, paper_example, verify_fan
from wildfan.model import PHPoint


def random_quadext(rng: random.Random, *radicands: int) -> QuadExt:
    return QuadExt(radicands, tuple(
        Fraction(rng.randint(-15, 15), rng.randint(1, 12))
        for _ in range(1 << len(radicands))))


def to_sympy(x: QuadExt):
    basis = [sp.Integer(1)]
    for d in x.radicands:  # (1, sqrt d1[, sqrt d2, sqrt(d1*d2)])
        basis += [b * sp.sqrt(d) for b in basis]
    return sum(sp.Rational(c.numerator, c.denominator) * b
               for c, b in zip(x.coeffs, basis))


def _field_op_cases(rng: random.Random, pairs: int):
    """(got, want) for +, -, *, / on random pairs in Q(sqrt2, sqrt7) and,
    one radicand down, in Q(sqrt7)."""
    for radicands in ((2, 7), (7,)):
        for _ in range(pairs):
            a = random_quadext(rng, *radicands)
            b = random_quadext(rng, *radicands)
            for op in ("add", "sub", "mul", "div"):
                if op == "div" and b.is_zero():
                    continue
                got = {"add": a + b, "sub": a - b, "mul": a * b, "div": a / b}[op]
                want = {"add": to_sympy(a) + to_sympy(b),
                        "sub": to_sympy(a) - to_sympy(b),
                        "mul": to_sympy(a) * to_sympy(b),
                        "div": to_sympy(a) / to_sympy(b)}[op]
                yield got, want


def test_field_ops_match_sympy_exactly():
    for got, want in _field_op_cases(random.Random(101), 10):
        # radsimp rationalises the quotient's denominator; expand then
        # collects the result on the radical basis, so this is a zero test
        assert sp.expand(sp.radsimp(to_sympy(got) - want)) == 0


def test_field_ops_match_sympy_numerically():
    for got, want in _field_op_cases(random.Random(102), 120):
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
    # x minus a 1e-9-denominator rational close to it: the enclosure of such
    # a difference needs many bits, the relative norm decides it
    for radicands in ((5, 1141), (2, 7), (7,)):
        for _ in range(40):
            x = random_quadext(rng, *radicands)
            yield x - Fraction(float(x)).limit_denominator(10 ** 9)
    yield from _paper_coordinates()


def test_signs_match_sympy():
    for a in _sign_cases(random.Random(103)):
        expected = int(sp.sign(sp.N(to_sympy(a), 60))) if not a.is_zero() else 0
        assert sign(a) == expected


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
    assert not verify_fan(mutant).passed, f"mutant {label} slipped through"
