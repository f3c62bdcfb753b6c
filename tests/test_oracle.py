"""An independent oracle for ``verify_fan`` and for the plane conditions of
``beats_selfsimilar``: every condition recomputed in sympy from the fan's
JSON alone.

The oracle transcribes the conditions from their definitions and shares no
code with ``wildfan``: it reads a fan as ``fan_to_json`` writes it, lifts
the boundary states, and decides each condition with sympy.  The comparison
oracle reads the reference profile too, as ``selfsim_dissipation`` gives
it.  The tests then ask ``wildfan`` for its verdicts on the same JSON and
require the same status for every condition name.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
import sympy as sp
from test_fan import _is_zero_witness, boundary_fan
from test_search import _STRONG_SEEDS, _shock

from wildfan.exactnum import QuadExt, Rational, xreal_to_json
from wildfan.fan import beats_selfsimilar, fan_from_json, fan_to_json, paper_example, verify_fan
from wildfan.model import EulerState, PressureLaw
from wildfan.riemann import selfsim_dissipation, solve_riemann
from wildfan.search import SearchConfig, search_fan


def _number(v):
    """A number as the fan JSON writes it: "p/q", or {"d": radicands,
    "c": coefficients} on the square roots of the radicands' products,
    taken in the order 1, d1, d2, d1 d2, d3, ..."""
    if isinstance(v, str):
        return sp.Rational(v)
    roots = [sp.Integer(1)]
    for d in v["d"]:
        roots += [r * sp.sqrt(d) for r in roots]
    return sp.Add(*(sp.Rational(c) * r for c, r in zip(v["c"], roots, strict=True)))


def _sign(x) -> int:
    """The sign of a number built from rationals and square roots of
    rationals by ring operations.  Expanded, sympy writes it over square
    roots of distinct squarefree integers, which are linearly independent
    over Q: it is 0 exactly when it expands to 0, and 60 digits decide the
    sign of any other value."""
    x = sp.expand(x)
    if x == 0:
        return 0
    value = x.evalf(60)
    assert abs(value) > sp.Float("1e-30"), f"a nonzero value this small is suspect: {x}"
    return 1 if value > 0 else -1


def _records(data: dict):
    """(mu, records) of the fan ``data``: its four speeds and the five
    records from left to right, each a dict of rho, m1, m2, u11, u12, q,
    F2, p and E, with p = rho^gamma, P = rho^gamma / (gamma - 1) and
    E = q + P - p.  A boundary state (rho, m) lifts to
    q = |m|^2/(2 rho) + p, U = m (x) m / rho - |m|^2/(2 rho) I and
    F = (q + P) m / rho."""
    gamma = sp.Rational(data["gamma"])
    assert gamma > 1

    def region(rho, m, u11, u12, q, F):
        # rho^gamma takes sqrt(rho) unless gamma is an integer: keep rho
        # rational then, so that every value stays in the fields _sign reads
        assert _sign(rho) == 1 and (gamma.q == 1 or rho.is_Rational)
        p = rho ** gamma
        return {"rho": rho, "m1": m[0], "m2": m[1], "u11": u11, "u12": u12, "q": q,
                "F2": F[1], "p": p, "E": q + p / (gamma - 1) - p}

    def boundary(state):
        rho, (m1, m2) = _number(state["rho"]), map(_number, state["m"])
        assert rho.is_Rational  # _sign reads no quotient by an irrational
        half = (m1 * m1 + m2 * m2) / (2 * rho)
        q = half + rho ** gamma
        scale = (q + rho ** gamma / (gamma - 1)) / rho
        return region(rho, (m1, m2), m1 * m1 / rho - half, m1 * m2 / rho, q,
                      (scale * m1, scale * m2))

    records = [boundary(data["left"])]
    for r in data["regions"]:
        records.append(region(_number(r["rho"]), [_number(v) for v in r["m"]],
                              _number(r["u11"]), _number(r["u12"]), _number(r["q"]),
                              [_number(v) for v in r["F"]]))
    records.append(boundary(data["right"]))
    return [_number(v) for v in data["mu"]], records


def _oracle(data: dict, signs: dict | None = None) -> dict[str, str]:
    """{condition name: "Pass" or "Fail"} of the fan ``data``; each
    condition's sign goes into ``signs`` too, when it is given.

    With jumps [X] = X_left - X_right across the plane y = mu t and
    M = m (x) m / rho - U + (p - q) I with U = ((u11, u12), (u12, -u11)):
    the speeds increase; each plane carries [rho] mu = [m2],
    [m1] mu = [u12], [m2] mu = [-u11 + q] and -mu [E] + [F2] >= 0; and M is
    negative definite in each region, trace M < 0 and det M > 0.
    """
    mu, records = _records(data)
    verdicts = {}

    def check(name, value, allowed):
        s = _sign(value)
        verdicts[name] = "Pass" if s in allowed else "Fail"
        if signs is not None:
            signs[name] = s

    for i in range(3):
        check(f"ordering[mu{i}<mu{i + 1}]", mu[i + 1] - mu[i], {1})
    for i in range(4):
        a, b = records[i], records[i + 1]

        def jump(key):
            return a[key] - b[key]
        check(f"rh_mass[{i}]", mu[i] * jump("rho") - jump("m2"), {0})
        check(f"rh_tangential[{i}]", mu[i] * jump("m1") - jump("u12"), {0})
        check(f"rh_normal[{i}]", mu[i] * jump("m2") - (jump("q") - jump("u11")), {0})
        check(f"rh_energy[{i}]", -mu[i] * jump("E") + jump("F2"), {0, 1})
    for i, r in enumerate(records[1:4], start=1):
        # rho M, whose trace and det have the signs of M's as rho > 0
        shift = r["rho"] * (r["p"] - r["q"])
        n11 = r["m1"] * r["m1"] - r["rho"] * r["u11"] + shift
        n12 = r["m1"] * r["m2"] - r["rho"] * r["u12"]
        n22 = r["m2"] * r["m2"] + r["rho"] * r["u11"] + shift
        check(f"subsolution_trace[{i}]", n11 + n22, {-1})
        check(f"subsolution_det[{i}]", n11 * n22 - n12 * n12, {1})
    return verdicts


def _comparison_oracle(data: dict, reference, signs: dict | None = None) -> dict[str, str]:
    """{condition name: "Pass" or "Fail"} of the plane conditions of the
    fan ``data`` against ``reference``, the (speed, coefficient) pairs of
    the self-similar profile, written as ``fan_to_json`` writes numbers;
    each margin's sign goes into ``signs`` too, when it is given.

    The fan's coefficient on the plane y = mu t is -mu [E] + [F2] across
    it, added over planes of one speed.  Each reference plane, by
    increasing speed, is covered when a fan plane has its speed; where it
    is, its margin, the fan's coefficient less the reference's, must be
    positive.  A plane is named by its speed to six significant digits."""
    mu, records = _records(data)
    planes = []
    for i in range(4):
        a, b = records[i], records[i + 1]
        coeff = -mu[i] * (a["E"] - b["E"]) + (a["F2"] - b["F2"])
        same = [plane for plane in planes if _sign(plane[0] - mu[i]) == 0]
        if same:
            same[0][1] += coeff
        else:
            planes.append([mu[i], coeff])
    covers, margins = {}, {}
    for speed, ref_coeff in sorted(((_number(s), _number(c)) for s, c in reference),
                                   key=lambda plane: plane[0].evalf(30)):
        tag = f"{float(speed.evalf(30)):.6g}"
        coeffs = [c for s, c in planes if _sign(s - speed) == 0]
        covers[f"covers_plane[{tag}]"] = "Pass" if coeffs else "Fail"
        if coeffs:
            s = _sign(coeffs[0] - ref_coeff)
            margins[f"strict_margin[{tag}]"] = "Pass" if s == 1 else "Fail"
            if signs is not None:
                signs[f"strict_margin[{tag}]"] = s
    return {**covers, **margins}


def _assert_comparison_agrees(data: dict, signs: dict | None = None) -> dict[str, str]:
    """The comparison oracle on ``data`` against ``selfsim_dissipation``
    of its Riemann data, checked name by name against
    ``beats_selfsimilar``; returns the oracle's verdicts."""
    fan = fan_from_json(data)
    reference = selfsim_dissipation(fan.law, solve_riemann(fan.law, fan.left, fan.right))
    oracle = _comparison_oracle(
        data, [(xreal_to_json(s), xreal_to_json(c)) for s, c in reference.entries], signs)
    assert oracle
    report = beats_selfsimilar(fan).to_dict()
    assert [(c["name"], c["status"]) for c in report["conditions"]
            if c["name"].startswith(("covers_plane[", "strict_margin["))] == list(oracle.items())
    return oracle


@lru_cache(maxsize=None)
def _searched_fan():
    """The fan search_fan certifies on the paper shock."""
    s5 = QuadExt.sqrt_of(5)
    left = EulerState(1, (Rational(0), Rational(3, 2) * s5))
    right = EulerState(4, (Rational(0), Rational(0)))
    cand = search_fan(PressureLaw(gamma=2), left, right, SearchConfig(restarts=16, rng_seed=0))
    assert cand is not None and cand.fan is not None
    return cand.fan


def _fan_json(case: str) -> dict:
    if case == "searched":
        return fan_to_json(_searched_fan())
    data = fan_to_json(paper_example())
    return {**data, "gamma": "3/2"} if case == "gamma 3/2" else data


@pytest.mark.parametrize("case, fails", [
    ("paper", []),
    ("gamma 3/2", ["rh_energy[2]", "rh_normal[3]", "rh_energy[3]"]),
    ("searched", []),
])
def test_oracle_agrees_with_verify_fan(case, fails):
    data = _fan_json(case)
    oracle = _oracle(data)
    assert [name for name, status in oracle.items() if status == "Fail"] == fails
    report = verify_fan(fan_from_json(data)).to_dict()
    assert {c["name"]: c["status"] for c in report["conditions"]} == oracle
    assert [c["name"] for c in report["conditions"]] == list(oracle)


@pytest.mark.parametrize("case, fails", [
    ("paper", []),
    # half a unit of flux moved from the shock plane to the first plane:
    # still admissible, but the shock plane's margin is lost
    ("paper, flux moved", ["strict_margin[-1.11803]"]),
    ("searched", []),
])
def test_comparison_oracle_agrees_with_beats_selfsimilar(case, fails):
    if case == "paper, flux moved":
        data = fan_to_json(paper_example())
        F = data["regions"][0]["F"]
        F[1] = str(Fraction(F[1]) - Fraction(1, 2))
    else:
        data = _fan_json(case)
    oracle = _assert_comparison_agrees(data)
    assert [name for name, status in oracle.items() if status == "Fail"] == fails


@pytest.mark.parametrize("case, fails, margin_fails", [
    # the lowered cap lowers region 1's energy, and the margin turns negative
    ("trace", ["subsolution_trace[1]", "subsolution_det[1]"], ["strict_margin[-1.11803]"]),
    ("det", ["subsolution_det[3]"], []),
    ("bracket", [], []),
    ("margin", [], ["strict_margin[-1.11803]"]),
])
def test_oracle_agrees_on_the_boundary_fans(case, fails, margin_fails):
    # the exact boundary fans of test_fan: both oracles give every
    # condition the library's status, and the condition each fan puts on
    # its boundary is an exact zero in the oracle as in the library
    fan, zero = boundary_fan(case)
    data = fan_to_json(fan)
    signs = {}
    oracle = _oracle(data, signs)
    assert [name for name, status in oracle.items() if status == "Fail"] == fails
    report = verify_fan(fan_from_json(data)).to_dict()
    assert [(c["name"], c["status"]) for c in report["conditions"]] == list(oracle.items())
    margins = _assert_comparison_agrees(data, signs)
    assert [name for name, status in margins.items() if status == "Fail"] == margin_fails
    witnesses = {c["name"]: c["witness"] for c in report["conditions"]}
    witnesses.update((c.name, c.witness) for c in beats_selfsimilar(fan).conditions)
    assert [name for name, s in signs.items() if s == 0 and not name.startswith(
        ("rh_mass", "rh_tangential", "rh_normal"))] == [zero]
    assert all(_is_zero_witness(witnesses[name]) for name, s in signs.items() if s == 0)


def _assert_oracle_passes_searched_fan(rho_l, ratio, rng_seed):
    """The fan search_fan certifies on rho_l -> ratio rho_l passes every
    condition of the oracle and of the comparison oracle, as verify_fan
    and beats_selfsimilar say."""
    cand = search_fan(PressureLaw(gamma=2), *_shock(rho_l, ratio),
                      SearchConfig(restarts=8, rng_seed=rng_seed))
    assert cand is not None and cand.fan is not None
    data = fan_to_json(cand.fan)
    oracle = _oracle(data)
    assert "Fail" not in oracle.values()
    report = verify_fan(fan_from_json(data)).to_dict()
    assert {c["name"]: c["status"] for c in report["conditions"]} == oracle
    assert "Fail" not in _assert_comparison_agrees(data).values()


@pytest.mark.parametrize("rho_l", sorted(_STRONG_SEEDS), ids=str)
def test_oracle_agrees_on_searched_strong_shocks(rho_l):
    # the fans test_search_certifies_strong_shocks certifies on rho_l -> 4 rho_l;
    # their least float condition, det M of region 3, runs from 2.0e-6 to 7.2e-5
    _assert_oracle_passes_searched_fan(rho_l, Fraction(4), _STRONG_SEEDS[rho_l])


@pytest.mark.parametrize("rho_l, ratio", [
    (Fraction(1), Fraction(5, 4)), (Fraction(1), Fraction(7, 5)), (Fraction(5, 4), Fraction(5, 4)),
    (Fraction(9, 8), Fraction(9, 7)), (Fraction(6, 5), Fraction(4, 3))], ids=str)
def test_oracle_agrees_on_searched_weak_shocks(rho_l, ratio):
    # shocks of the search benchmark's weak table at rng_seed 0; their least
    # float condition, det M of region 3, runs from 2.1e-12 to 2.4e-11, far
    # above the 1e-30 under which _sign calls a nonzero value suspect
    _assert_oracle_passes_searched_fan(rho_l, ratio, 0)
