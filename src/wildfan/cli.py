"""Command-line front end: verifications, Riemann solves, search, reports.

Exit codes: 2 on parse/usage errors; otherwise 1 on any verification
failure, else 3 when a certification is inconclusive: at the precision cap,
or because well-formed input leaves the supported arithmetic (more than four
independent square roots, the square root of a negative number, float wave
curves that overflow, or a gamma past model._GAMMA_TERM_MAX), else 0.
"""

from __future__ import annotations

import argparse
import json
import sys

# Each handler imports the modules it runs when it runs, so `riemann` loads
# no `fan` or `hull` and `oscillate` no `fan` or `riemann`.  convexint
# defers numpy to its first use and wavecone to build_oscillation, so this
# import costs the exact commands neither; it stays at module level because
# the benchmark's tracer (perfbench/layertrace.py) finds wildfan.convexint
# in sys.modules after importing this module.
from .convexint import build_oscillation, diagnostics_csv
from .exactnum import (
    Inconclusive,
    NegativeRadicand,
    RadicandMismatch,
    Rational,
    _basis_radicands,
    _is_int,
    _shown,
    _str_int,
    xreal_to_json,
)
from .model import (GammaOutOfRange, PHPoint, PressureLaw, _json_object, _number,
                    state_from_json, state_to_json)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INCONCLUSIVE = 3
# by the value of a report's overall status, so no fan.Status is needed here
_EXIT = {"Pass": EXIT_OK, "Fail": EXIT_FAIL, "Inconclusive": EXIT_INCONCLUSIVE}


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        _print_table(payload)


def _pretty(value):
    """Human rendering for table mode; tower encodings become radical sums."""
    if isinstance(value, dict) and set(value) == {"d", "c"}:
        parts = [coeff if prod == 1 else f"{coeff}*sqrt({prod})"
                 for coeff, prod in zip(value["c"], _basis_radicands(value["d"]))
                 if not coeff.startswith("0/")]
        return " + ".join(parts) if parts else "0"
    return value


def _print_table(payload: dict, indent: str = "") -> None:
    for key, value in payload.items():
        if isinstance(value, dict) and set(value) != {"d", "c"}:
            print(f"{indent}{key}:")
            _print_table(value, indent + "  ")
        elif isinstance(value, list):
            print(f"{indent}{key}:")
            for item in value:
                if isinstance(item, dict) and set(item) != {"d", "c"}:
                    row = "  ".join(f"{k}={_pretty(v)}" for k, v in item.items())
                    print(f"{indent}  {row}")
                else:
                    print(f"{indent}  {_pretty(item)}")
        else:
            print(f"{indent}{key}: {_pretty(value)}")


def _load_json(path: str, command: str, keys: tuple[str, ...] = ()) -> dict:
    """The JSON object in ``path``; any other JSON value, or an object
    without one of ``keys``, is a parse error that names what is wrong."""
    # _str_int reads JSON integers longer than the int-to-str digit limit
    with open(path, "r", encoding="utf-8") as fh:
        return _json_object(json.load(fh, parse_int=_str_int), f"{command} input", keys)


# the top-level keys of a Riemann problem, which riemann and search read
_RIEMANN_KEYS = ("gamma", "left", "right")


def _riemann_inputs(data: dict):
    law = PressureLaw(gamma=_number(data, "gamma"))
    return law, state_from_json(data["left"], "left"), state_from_json(data["right"], "right")


def _profile_json(profile) -> list:
    return [{"speed": xreal_to_json(s), "coefficient": xreal_to_json(c)}
            for s, c in profile.entries]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify_example(args) -> int:
    from .fan import VerificationReport, compare_selfsimilar, paper_chain, paper_example, verify_fan

    fan = paper_example()
    report = verify_fan(fan)
    comparison, merged = compare_selfsimilar(fan)
    comparison = paper_chain(comparison, merged)
    planes = [{"speed": xreal_to_json(speed),
               "coefficient": xreal_to_json(coeff),
               "reference": "0/1" if ref_coeff is None else xreal_to_json(ref_coeff)}
              for speed, coeff, ref_coeff in merged if coeff is not None]
    verdict = next((c.witness for c in comparison.conditions
                    if c.name == "comparison"), "missing")
    payload = {
        "command": "verify-example",
        "subsolution_check": report.to_dict(),
        "comparison_check": comparison.to_dict(),
        "planes": planes,
        "verdict": verdict,
    }
    _emit(payload, args.format)
    return _EXIT[VerificationReport(report.conditions + comparison.conditions).overall.value]


def _cmd_riemann(args) -> int:
    from .riemann import VacuumFormation, selfsim_dissipation, solve_riemann

    law, left, right = _riemann_inputs(_load_json(args.file, "riemann", _RIEMANN_KEYS))
    try:
        sol = solve_riemann(law, left, right)
    except VacuumFormation as exc:
        _emit({"command": "riemann", "error": f"vacuum formation: {exc}"}, args.format)
        return EXIT_FAIL
    # a wave record's fields are its speeds and its left and right states
    waves = [{"kind": type(w).__name__.lower(),
              **{name: (state_to_json if name in ("left", "right") else xreal_to_json)(
                  getattr(w, name)) for name in w._fields}}
             for w in sol.waves]
    payload = {
        "command": "riemann",
        "exact": sol.exact,
        "waves": waves if waves else "no waves",
        "dissipation": _profile_json(selfsim_dissipation(law, sol)),
    }
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_verify_fan(args) -> int:
    from .fan import fan_dissipation_profile, fan_from_json, verify_fan

    fan = fan_from_json(_load_json(args.file, "verify-fan",
                                   ("gamma", "mu", "left", "right", "regions")))
    report = verify_fan(fan)
    payload = {
        "command": "verify-fan",
        "verification": report.to_dict(),
        "dissipation": _profile_json(fan_dissipation_profile(fan)),
    }
    _emit(payload, args.format)
    return _EXIT[report.overall.value]


def _cmd_search(args) -> int:
    from .fan import fan_to_json
    from .search import SearchConfig, search_fan

    data = _load_json(args.file, "search", _RIEMANN_KEYS)
    law, left, right = _riemann_inputs(data)
    cfg_data = dict(_json_object(data.get("config", {}), "search config"))
    unknown = sorted(set(cfg_data) - set(SearchConfig._fields))
    if unknown:
        raise ValueError(f"unknown search config keys {unknown}; allowed: "
                         f"{', '.join(SearchConfig._fields)}")
    if args.seed is not None:
        cfg_data["rng_seed"] = args.seed
    cfg = SearchConfig(**cfg_data)
    cand = search_fan(law, left, right, cfg)
    if cand is None:
        _emit({"command": "search", "result": "no candidate found"}, args.format)
        return EXIT_FAIL
    fan = cand.fan
    if fan is None:
        _emit({"command": "search", "result": "candidate failed certification",
               "candidate": cand.to_dict()}, args.format)
        return EXIT_FAIL
    payload = {
        "command": "search",
        "result": "certified",
        "candidate": cand.to_dict(),
        "fan": fan_to_json(fan),
        "comparison": cand.comparison.to_dict(),
    }
    _emit(payload, args.format)
    return EXIT_OK


# bounds checked before anything is allocated: a grid of 128 keeps one k's
# grid^3 outputs near 117 MB, a delta of 1e-12 keeps the smoothstep's
# (2 delta)^-5 coefficients and their derivatives far inside the float range,
# and every k up to 2^53 is a float exactly (float(k) ** 4, the field's
# fourth derivative, overflows from about 1.2e77)
_GRID_MAX = 128
_DELTA_MIN = 1e-12
_K_MAX = 2 ** 53


def _oscillate_config(data: dict) -> tuple[float, float, list, int]:
    """(tau1, delta, ks, grid) of an oscillate object; anything but JSON
    numbers, a delta of at least _DELTA_MIN, a non-empty list of integer
    ks from 1 to _K_MAX and an integer grid from 2 to _GRID_MAX is a parse
    error."""
    unknown = sorted(set(data) - {"tau1", "delta", "ks", "grid"})
    if unknown:
        raise ValueError(f"unknown oscillate keys {unknown}; allowed: tau1, delta, ks, grid")
    tau1, delta = data.get("tau1", 0.4), data.get("delta", 0.02)
    ks, grid_n = data.get("ks", [8, 16, 32]), data.get("grid", 48)
    for key, value in (("tau1", tau1), ("delta", delta)):
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or _is_int(value) and abs(value) > sys.float_info.max:
            raise ValueError(f"oscillate {key} must be a number in the float range, "
                             f"got {_shown(value)!r}")
    if not (isinstance(ks, list) and ks and all(_is_int(k) and 0 < k <= _K_MAX for k in ks)):
        raise ValueError(f"oscillate ks must be a non-empty list of integers from 1 to "
                         f"{_K_MAX}, got {_shown(ks)!r}")
    if not delta >= _DELTA_MIN:
        raise ValueError(f"oscillate delta must be at least {_DELTA_MIN}, got {delta!r}")
    if not (_is_int(grid_n) and 2 <= grid_n <= _GRID_MAX):
        raise ValueError(f"oscillate grid must be an integer from 2 to {_GRID_MAX}, "
                         f"got {_shown(grid_n)!r}")
    return float(tau1), float(delta), ks, grid_n


def _cmd_oscillate(args) -> int:
    from .hull import split_flux_direction, w_flux_vertices

    tau1, delta, ks, grid_n = _oscillate_config(_load_json(args.file, "oscillate"))
    # canonical laminate: the two ends of the isotropic vertex-flux point's split
    law = PressureLaw(gamma=2)
    rho, Q = Rational(1), Rational(4)
    vert = w_flux_vertices(law, rho, Q, PHPoint((0, 0), 0, 0, 3, (0, 0)))[0]
    _, z1, _, z2, _ = split_flux_direction(law, rho, Q, vert, 1)
    box = ((0.0, 1.0),) * 3
    z_star = tau1 * z1 + (1.0 - tau1) * z2
    # only the diagnostics are printed: each k's grid^3 components go at once
    diags = [build_oscillation(z_star, z1, z2, tau1, box, k, delta, grid_n=grid_n)[1]
             for k in ks]
    if args.format == "csv":
        print(diagnostics_csv(diags))
    else:
        payload = {
            "command": "oscillate",
            "diagnostics": [
                {"k": d.k, "fraction1": d.fraction1, "fraction2": d.fraction2,
                 "commutator_sup": d.commutator_sup, "avg_norm": d.avg_norm,
                 "pde_residual": d.pde_residual, "pde_scale": d.pde_scale}
                for d in diags
            ],
        }
        _emit(payload, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table", "csv"),
                        default=argparse.SUPPRESS,
                        help="report format (csv: oscillate only)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="search seed override (default 0)")

    parser = argparse.ArgumentParser(
        prog="wildfan",
        parents=[common],
        description="Verify and search fan subsolutions of 2D barotropic "
                    "Euler; compare plane dissipation against the "
                    "self-similar Riemann solution.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify-example", parents=[common],
                   help="verify the built-in counterexample end to end")
    for name, desc in (("riemann", "solve a Riemann problem from JSON"),
                       ("verify-fan", "verify a fan subsolution JSON file"),
                       ("search", "search for a dominating fan subsolution"),
                       ("oscillate", "run oscillation diagnostics")):
        p = sub.add_parser(name, parents=[common], help=desc)
        p.add_argument("file")
    return parser


_HANDLERS = {
    "verify-example": _cmd_verify_example,
    "riemann": _cmd_riemann,
    "verify-fan": _cmd_verify_fan,
    "search": _cmd_search,
    "oscillate": _cmd_oscillate,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.format = getattr(args, "format", "table")
    args.seed = getattr(args, "seed", None)
    if args.format == "csv" and args.command != "oscillate":
        print("error: --format csv is for oscillate only", file=sys.stderr)
        return EXIT_PARSE
    try:
        return _HANDLERS[args.command](args)
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (RadicandMismatch, NegativeRadicand, GammaOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
