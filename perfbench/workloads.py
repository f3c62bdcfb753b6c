"""Inputs, ops and output checks for the three benchmark workloads.

Every workload is a closed loop with a single client: the next op starts
only after the previous one has finished.  Items come in rounds of fixed
composition, so every run sees the same mix of input kinds; the seed picks
the values inside each kind.

Ops reach the library through module attributes looked up at call time
(``fanmod.find_Q(...)``), so the traced run's wrappers see every op.

Each workload offers:

* ``warm_up()``: one untimed op per command kind, on fixed inputs;
* ``round(rng)``: the next round of items, drawn from ``rng`` alone;
* ``run(item)``: the timed op;
* ``replay(item)``: the op as run in-process by the traced run;
* ``check(item, out)``: ``(certified, problems)``; any problem fails the op.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import wildfan.cli as climod
import wildfan.fan as fanmod
import wildfan.search as searchmod
from wildfan.exactnum import Inconclusive, QuadExt, Rational, adjoin_sqrt, sign, xreal_to_json
from wildfan.model import EulerState, PressureLaw

LAW = PressureLaw(gamma=2)
SQRT5 = QuadExt.sqrt_of(5)
# Shock-plane bracket coefficient and shock speed of the paper's data.
PAPER_SHOCK_COEFF = Rational(83033, 4300) - Rational(8050, 4300) * SQRT5
PAPER_SHOCK_SPEED = Rational(-1, 2) * SQRT5

CHILD_TIMEOUT_S = 120.0


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _scaled(enc, factor: Fraction):
    if isinstance(enc, str):
        return _frac(Fraction(enc) * factor)
    return {"d": enc["d"], "c": [_frac(Fraction(c) * factor) for c in enc["c"]]}


def scale_fan(base: dict, k: Fraction) -> dict:
    """The fan JSON rescaled by k > 0: rho -> k^2 rho, m -> k^3 m,
    mu -> k mu, (u11, u12, q) -> k^4 (u11, u12, q), F -> k^5 F.  With
    gamma = 2 this maps fan subsolutions onto fan subsolutions in the same
    tower and multiplies every plane coefficient by k^5."""
    out = {"gamma": base["gamma"], "mu": [_scaled(m, k) for m in base["mu"]]}
    for side in ("left", "right"):
        out[side] = {"rho": _scaled(base[side]["rho"], k ** 2),
                     "m": [_scaled(c, k ** 3) for c in base[side]["m"]]}
    out["regions"] = [
        {"rho": _scaled(r["rho"], k ** 2),
         "m": [_scaled(c, k ** 3) for c in r["m"]],
         "u11": _scaled(r["u11"], k ** 4),
         "u12": _scaled(r["u12"], k ** 4),
         "q": _scaled(r["q"], k ** 4),
         "F": [_scaled(c, k ** 5) for c in r["F"]]}
        for r in base["regions"]]
    return out


def draw_scale(rng, digits: int, used: set) -> Fraction:
    """A fresh k = a/b with a and b of the given number of digits."""
    lo, hi = 10 ** (digits - 1), 10 ** digits - 1
    while True:
        k = Fraction(rng.randint(lo, hi), rng.randint(lo, hi))
        if k not in used:
            used.add(k)
            return k


def shock_data(rho_l: Fraction, ratio: Fraction):
    """(left, right, shock speed) of exact single-shock data: gamma = 2,
    rho_r = ratio * rho_l, v_r = 0 and v_l from the shock relation
    (v_r - v_l)^2 = (p_r - p_l)(rho_r - rho_l)/(rho_l rho_r)."""
    rho_r = rho_l * ratio
    v_l = adjoin_sqrt(Rational(rho_l * (ratio ** 2 - 1) * (ratio - 1) / ratio))
    left = EulerState(Rational(rho_l), (Rational(0), Rational(rho_l) * v_l))
    right = EulerState(Rational(rho_r), (Rational(0), Rational(0)))
    speed = (right.m[1] - left.m[1]) / (right.rho - left.rho)
    return left, right, speed


def _state_json(state: EulerState) -> dict:
    return {"rho": xreal_to_json(state.rho), "m": [xreal_to_json(c) for c in state.m]}


# Shock data of small height.  Strong shocks certify within a few restarts;
# weak ones (ratio 5/4 to 7/5) run every restart and miss, each after about
# 46k-50k objective evaluations.
STRONG_RHO = (Fraction(1), Fraction(5, 4), Fraction(4, 3), Fraction(3, 2),
              Fraction(5, 3), Fraction(7, 4), Fraction(2))
STRONG_RATIO = (Fraction(3), Fraction(10, 3), Fraction(7, 2), Fraction(11, 3), Fraction(4))
WEAK_RHO = (Fraction(1), Fraction(9, 8), Fraction(6, 5), Fraction(5, 4))
WEAK_RATIO = (Fraction(5, 4), Fraction(9, 7), Fraction(4, 3), Fraction(11, 8), Fraction(7, 5))


def draw_shock(rng, strong: bool):
    rhos, ratios = (STRONG_RHO, STRONG_RATIO) if strong else (WEAK_RHO, WEAK_RATIO)
    return rng.choice(rhos), rng.choice(ratios)


# ---------------------------------------------------------------------------
# exact-certify
# ---------------------------------------------------------------------------

class ExactCertify:
    """Parse a rescaled paper fan, verify it, compare it with the
    self-similar shock and certify its W-membership caps."""

    name = "exact-certify"

    def __init__(self):
        self.base = fanmod.fan_to_json(fanmod.paper_example())
        self.paper_caps = None
        self._used = {Fraction(1)}

    def warm_up(self) -> None:
        item = {"kind": "certify", "k": Fraction(1), "fan": json.dumps(self.base)}
        out = self.run(item)
        self.paper_caps = tuple(Q for Q, _ in out[3])
        _require(self, item, out)

    def round(self, rng) -> list:
        """One fan per digit length 1..6 of k's numerator and denominator."""
        items = []
        for digits in rng.sample(range(1, 7), 6):
            k = draw_scale(rng, digits, self._used)
            items.append({"kind": "certify", "k": k,
                          "fan": json.dumps(scale_fan(self.base, k))})
        return items

    def run(self, item):
        fan = fanmod.fan_from_json(json.loads(item["fan"]))
        return fan, fanmod.verify_fan(fan), fanmod.beats_selfsimilar(fan), fanmod.find_Q(fan)

    replay = run

    def check(self, item, out):
        fan, report, comparison, caps = out
        k = Rational(item["k"])
        problems = []
        if not report.passed:
            problems.append("verify_fan did not pass")
        if not comparison.passed:
            problems.append("beats_selfsimilar did not pass")
        for i, (Q, witness) in enumerate(caps):
            if sign(Q - self.paper_caps[i] * k ** 4) != 0:
                problems.append(f"Q[{i}] is not k^4 times the paper cap")
            if any(sign(kappa) <= 0 for kappa in witness.kappa):
                problems.append(f"kappa[{i}] not all positive")
            total = witness.kappa[0] + witness.kappa[1] + witness.kappa[2] + witness.kappa[3]
            iv = total.enclosure(192)
            if not (iv.lo <= 1 <= iv.hi and iv.hi - iv.lo < Fraction(1, 2 ** 100)):
                problems.append(f"kappa[{i}] does not sum to 1")
        speed = k * PAPER_SHOCK_SPEED
        coeffs = [c for s, c in fanmod.fan_dissipation_profile(fan).entries
                  if sign(s - speed) == 0]
        if len(coeffs) != 1 or sign(coeffs[0] - k ** 5 * PAPER_SHOCK_COEFF) != 0:
            problems.append("shock-plane coefficient is not k^5 times the paper's")
        return not problems, problems


# ---------------------------------------------------------------------------
# search-certify
# ---------------------------------------------------------------------------

# Restarts per search: a weak shock runs all of them and misses.
SEARCH_RESTARTS = 8


class SearchCertify:
    """search_fan then certify on exact single-shock data, as ``wildfan
    search`` does."""

    name = "search-certify"

    def warm_up(self) -> None:
        left, right, speed = shock_data(Fraction(1), Fraction(4))
        item = {"kind": "strong", "left": left, "right": right, "speed": speed,
                "rng_seed": 21}
        _require(self, item, self.run(item))

    def round(self, rng) -> list:
        """Three weak shocks and one strong shock, in seeded order.  Weak
        misses cost about the same every time, while a strong shock's cost
        depends on how many restarts fail before one certifies; with three
        misses per round the median op is a miss and the strong shocks'
        spread moves the mean little."""
        items = []
        for strong in rng.sample((True, False, False, False), 4):
            left, right, speed = shock_data(*draw_shock(rng, strong))
            items.append({"kind": "strong" if strong else "weak", "left": left,
                          "right": right, "speed": speed,
                          "rng_seed": rng.randrange(1_000_000)})
        return items

    def run(self, item):
        cfg = searchmod.SearchConfig(restarts=SEARCH_RESTARTS, rng_seed=item["rng_seed"])
        cand = searchmod.search_fan(LAW, item["left"], item["right"], cfg)
        fan = searchmod.certify(cand, cfg) if cand is not None else None
        return cand, fan, cfg

    replay = run

    @staticmethod
    def restarts_used(out) -> int:
        """Restarts the search ran: up to the certified one, else all."""
        cand, fan, cfg = out
        return cand.seed - cfg.rng_seed + 1 if fan is not None else cfg.restarts

    def check(self, item, out):
        _, fan, _ = out
        if fan is None:
            return False, []
        problems = []
        if not fanmod.verify_fan(fan).passed:
            problems.append("certified fan does not re-verify")
        if not fanmod.beats_selfsimilar(fan).passed:
            problems.append("certified fan does not beat the self-similar shock")
        if sign(fan.mu[1] - item["speed"]) != 0:
            problems.append("matched plane speed is not the exact shock speed")
        return True, problems


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

CLI_KINDS = ("verify-example", "verify-fan", "verify-fan-mutated",
             "riemann-shock", "riemann-two-wave", "oscillate")


class CliSession:
    """One fresh ``python -m wildfan.cli`` process per op, one at a time."""

    name = "cli-session"

    def __init__(self, workdir: Path, env: dict, cwd: Path):
        self.workdir, self.env, self.cwd = workdir, env, cwd
        self.base = fanmod.fan_to_json(fanmod.paper_example())
        self._used = {Fraction(1)}
        self._files = 0
        self.peak_rss_kb = 0

    def _file(self, payload: dict) -> str:
        self._files += 1
        path = self.workdir / f"input{self._files}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def warm_up(self) -> None:
        left, right, _ = shock_data(Fraction(1), Fraction(4))
        items = [
            {"kind": "verify-example", "argv": ["verify-example", "--format", "json"]},
            {"kind": "verify-fan", "argv": ["verify-fan", self._file(self.base),
                                            "--format", "json"]},
            {"kind": "riemann-shock", "argv": ["riemann", self._file(
                {"gamma": "2/1", "left": _state_json(left), "right": _state_json(right)}),
                "--format", "json"]},
            {"kind": "oscillate", "ks": [8], "argv": ["oscillate", self._file(
                {"tau1": 0.4, "delta": 0.02, "ks": [8], "grid": 24}), "--format", "csv"]},
        ]
        for item in items:
            _require(self, item, self.run(item))

    def round(self, rng) -> list:
        """One command of every kind, in seeded order."""
        return [self._item(kind, rng) for kind in rng.sample(CLI_KINDS, len(CLI_KINDS))]

    def _item(self, kind: str, rng) -> dict:
        if kind == "verify-example":
            return {"kind": kind, "argv": ["verify-example", "--format", "json"]}
        if kind in ("verify-fan", "verify-fan-mutated"):
            fan = scale_fan(self.base, draw_scale(rng, rng.randint(1, 6), self._used))
            if kind == "verify-fan-mutated":
                _mutate(fan, rng)
            return {"kind": kind, "argv": ["verify-fan", self._file(fan), "--format", "json"]}
        if kind == "riemann-shock":
            left, right, _ = shock_data(*draw_shock(rng, rng.random() < 0.5))
            data = {"gamma": "2/1", "left": _state_json(left), "right": _state_json(right)}
            return {"kind": kind, "argv": ["riemann", self._file(data), "--format", "json"]}
        if kind == "riemann-two-wave":
            rho = rng.choice((Fraction(1), Fraction(3, 2), Fraction(2)))
            m = rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2)))
            if rng.random() < 0.5:
                m = -m  # diverging flow: two rarefactions instead of two shocks
            data = {"gamma": "2/1",
                    "left": {"rho": _frac(rho), "m": ["0/1", _frac(m)]},
                    "right": {"rho": _frac(rho), "m": ["0/1", _frac(-m)]}}
            return {"kind": kind, "argv": ["riemann", self._file(data), "--format", "json"]}
        # One grid size: the grid sets the arrays' size, so it would make the
        # largest child's memory depend on which grids a run happened to draw.
        ks = sorted(rng.sample((8, 16, 32), 2))
        config = {"tau1": rng.choice((0.3, 0.4, 0.5)), "delta": rng.choice((0.02, 0.03)),
                  "ks": ks, "grid": 32}
        return {"kind": kind, "ks": ks,
                "argv": ["oscillate", self._file(config), "--format", "csv"]}

    def run(self, item):
        code, stdout, rss_kb = run_child(["-m", "wildfan.cli", *item["argv"]], self.env, self.cwd)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        return code, stdout

    def replay(self, item):
        """The same command through ``wildfan.cli.run`` in this process."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = climod.run(list(item["argv"]))
        return code, out.getvalue()

    def check(self, item, out):
        code, stdout = out
        kind = item["kind"]
        expected_code = 1 if kind == "verify-fan-mutated" else 0
        if code != expected_code:
            return False, [f"{kind}: exit code {code}, expected {expected_code}"]
        if kind == "oscillate":
            rows = [line for line in stdout.splitlines() if line.strip()]
            if rows[0] != "k,fraction1,fraction2,commutator_sup,avg_norm" \
                    or [int(r.split(",")[0]) for r in rows[1:]] != item["ks"]:
                return False, ["oscillate: CSV rows do not match the requested ks"]
            return False, []
        payload = json.loads(stdout)
        if kind == "verify-example":
            ok = (payload["verdict"] == "StrictlyDominates"
                  and payload["subsolution_check"]["overall"] == "Pass"
                  and payload["comparison_check"]["overall"] == "Pass")
            return ok, [] if ok else ["verify-example: verdict is not a certified pass"]
        if kind == "verify-fan":
            ok = payload["verification"]["overall"] == "Pass"
            return ok, [] if ok else ["verify-fan: scaled fan did not pass"]
        if kind == "verify-fan-mutated":
            ok = payload["verification"]["overall"] == "Fail"
            return False, [] if ok else ["verify-fan: mutated fan did not fail"]
        waves = payload["waves"]
        if kind == "riemann-shock":
            ok = payload["exact"] is True and len(waves) == 1 and waves[0]["kind"] == "shock"
            return ok, [] if ok else ["riemann: single shock not solved exactly"]
        ok = payload["exact"] is False and len(waves) == 2
        return False, [] if ok else ["riemann: two-wave data not on the float path"]


# Single coordinates of a fan JSON whose change breaks an RH equality.
_MUTABLE = ("rho", "m", "u11", "u12", "q", "mu")


def _mutate(fan: dict, rng) -> None:
    """Shift the rational part of one coordinate by a small positive
    rational.  Every mutable coordinate enters an RH equality, so the
    mutated fan must fail verification (exit 1)."""
    delta = Fraction(1, rng.randint(7, 997))
    field = rng.choice(_MUTABLE)
    if field == "mu":
        holder, key = fan["mu"], rng.randrange(4)
    else:
        region = fan["regions"][rng.randrange(3)]
        holder, key = (region["m"], 1) if field == "m" else (region, field)
    enc = holder[key]
    if isinstance(enc, str):
        holder[key] = _frac(Fraction(enc) + delta)
    else:
        holder[key] = {"d": enc["d"], "c": [_frac(Fraction(enc["c"][0]) + delta),
                                            *enc["c"][1:]]}


def run_child(args: list, env: dict, cwd: Path) -> tuple[int, str, int]:
    """Run ``python <args>`` to completion: (exit code, stdout, peak RSS in
    KiB of that child alone).  The child is killed after CHILD_TIMEOUT_S."""
    with open(os.devnull, "wb") as devnull:
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                stderr=devnull, env=env, cwd=cwd)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout.decode("utf-8", "replace"), usage.ru_maxrss


def _require(workload, item, out) -> None:
    """Warm-up ops run on fixed inputs and must pass their checks."""
    try:
        _, problems = workload.check(item, out)
    except (Inconclusive, KeyError, ValueError, IndexError) as exc:
        problems = [repr(exc)]
    if problems:
        raise RuntimeError(f"{workload.name} warm-up failed: {problems}")


def make(name: str, workdir: Path, env: dict, cwd: Path):
    if name == "exact-certify":
        return ExactCertify()
    if name == "search-certify":
        return SearchCertify()
    return CliSession(workdir, env, cwd)
