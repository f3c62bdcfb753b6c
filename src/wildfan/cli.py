"""Command-line front end: verifications, Riemann solves, search, reports.

Exit codes: 0 when the requested verification fully passes, 1 on a
verification failure, 2 on parse/usage errors, 3 when a certification is
inconclusive: at the precision cap, or because well-formed input leaves the
supported arithmetic (radicands beyond the two-radical tower, or the square
root of a negative number).
"""

from __future__ import annotations

import argparse
import json
import sys

# convexint defers numpy to its first use and wavecone to build_oscillation,
# so this import costs the exact commands neither.  It stays at module level
# because the benchmark's tracer (perfbench/layertrace.py) finds
# wildfan.convexint in sys.modules after importing this module; `search`
# imports its module in its handler.
from .convexint import build_oscillation, diagnostics_csv
from .exactnum import (
    Inconclusive,
    NegativeRadicand,
    RadicandMismatch,
    Rational,
    _is_int,
    set_precision_cap,
    xreal_from_json,
    xreal_to_json,
)
from .fan import (
    Status,
    compare_selfsimilar,
    fan_dissipation_profile,
    fan_from_json,
    fan_to_json,
    paper_chain,
    paper_example,
    state_from_json,
    state_to_json,
    verify_fan,
)
from .hull import split_flux_direction, w_flux_vertices
from .model import PHPoint, PressureLaw
from .riemann import (
    Rarefaction,
    Shock,
    Slip,
    VacuumFormation,
    selfsim_dissipation,
    solve_riemann,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INCONCLUSIVE = 3


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        _print_table(payload)


def _pretty(value):
    """Human rendering for table mode; tower encodings become radical sums."""
    if isinstance(value, dict) and set(value) == {"d", "c"}:
        names = ["1"]
        d = value["d"]
        names.extend(f"sqrt({r})" for r in d)
        if len(d) == 2:
            names.append(f"sqrt({d[0] * d[1]})")
        parts = []
        for coeff, name in zip(value["c"], names):
            if coeff.startswith("0/"):
                continue
            parts.append(coeff if name == "1" else f"{coeff}*{name}")
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


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _riemann_inputs(data: dict):
    law = PressureLaw(gamma=xreal_from_json(data["gamma"]))
    return law, state_from_json(data["left"]), state_from_json(data["right"])


def _profile_json(profile) -> list:
    return [{"speed": xreal_to_json(s), "coefficient": xreal_to_json(c)}
            for s, c in profile.entries]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify_example(args) -> int:
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
    statuses = [c.status for c in report.conditions + comparison.conditions]
    if any(s is Status.INCONCLUSIVE for s in statuses):
        return EXIT_INCONCLUSIVE
    if report.passed and comparison.passed and verdict == "StrictlyDominates":
        return EXIT_OK
    return EXIT_FAIL


def _cmd_riemann(args) -> int:
    data = _load_json(args.file)
    law, left, right = _riemann_inputs(data)
    try:
        sol = solve_riemann(law, left, right)
    except VacuumFormation as exc:
        _emit({"command": "riemann", "error": f"vacuum formation: {exc}"}, args.format)
        return EXIT_FAIL
    waves = []
    for w in sol.waves:
        if isinstance(w, Shock):
            waves.append({"kind": "shock", "speed": xreal_to_json(w.speed),
                          "left": state_to_json(w.left), "right": state_to_json(w.right)})
        elif isinstance(w, Rarefaction):
            waves.append({"kind": "rarefaction",
                          "speed_lo": xreal_to_json(w.speed_lo),
                          "speed_hi": xreal_to_json(w.speed_hi),
                          "left": state_to_json(w.left), "right": state_to_json(w.right)})
        elif isinstance(w, Slip):
            waves.append({"kind": "slip", "speed": xreal_to_json(w.speed),
                          "left": state_to_json(w.left), "right": state_to_json(w.right)})
    payload = {
        "command": "riemann",
        "exact": sol.exact,
        "waves": waves if waves else "no waves",
        "dissipation": _profile_json(selfsim_dissipation(law, sol)),
    }
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_verify_fan(args) -> int:
    data = _load_json(args.file)
    fan = fan_from_json(data)
    report = verify_fan(fan)
    payload = {
        "command": "verify-fan",
        "verification": report.to_dict(),
        "dissipation": _profile_json(fan_dissipation_profile(fan)),
    }
    _emit(payload, args.format)
    if report.overall is Status.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_search(args) -> int:
    from .search import SearchConfig, search_fan  # imports numpy, so only here

    data = _load_json(args.file)
    law, left, right = _riemann_inputs(data)
    cfg_data = dict(data.get("config", {}))
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
    comparison = cand.comparison
    payload = {
        "command": "search",
        "result": "certified",
        "candidate": cand.to_dict(),
        "fan": fan_to_json(fan),
        "comparison": comparison.to_dict(),
    }
    _emit(payload, args.format)
    return EXIT_OK if comparison.passed else EXIT_FAIL


def _oscillate_config(data) -> tuple[float, float, list, int]:
    """(tau1, delta, ks, grid) of an oscillate file; anything but JSON
    numbers, a non-empty list of positive integer ks and an integer grid of
    at least 2 is a parse error."""
    if not isinstance(data, dict):
        raise ValueError("oscillate input must be a JSON object")
    unknown = sorted(set(data) - {"tau1", "delta", "ks", "grid"})
    if unknown:
        raise ValueError(f"unknown oscillate keys {unknown}; allowed: tau1, delta, ks, grid")
    tau1, delta = data.get("tau1", 0.4), data.get("delta", 0.02)
    ks, grid_n = data.get("ks", [8, 16, 32]), data.get("grid", 48)
    for key, value in (("tau1", tau1), ("delta", delta)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"oscillate {key} must be a number, got {value!r}")
    if not (isinstance(ks, list) and ks and all(_is_int(k) and k > 0 for k in ks)):
        raise ValueError(f"oscillate ks must be a non-empty list of positive integers, "
                         f"got {ks!r}")
    if not (_is_int(grid_n) and grid_n >= 2):
        raise ValueError(f"oscillate grid must be an integer >= 2, got {grid_n!r}")
    return float(tau1), float(delta), ks, grid_n


def _cmd_oscillate(args) -> int:
    tau1, delta, ks, grid_n = _oscillate_config(_load_json(args.file))
    # canonical laminate: the two ends of the isotropic vertex-flux point's split
    law = PressureLaw(gamma=2)
    rho, Q = Rational(1), Rational(4)
    vert = w_flux_vertices(law, rho, Q, PHPoint((0, 0), 0, 0, 3, (0, 0)))[0]
    _, z1, _, z2, _ = split_flux_direction(law, rho, Q, vert, 1)
    box = ((0.0, 1.0),) * 3
    z_star = tau1 * z1 + (1.0 - tau1) * z2
    diags = []
    for k in ks:
        _, diag = build_oscillation(z_star, z1, z2, tau1, box, k, delta,
                                    grid_n=grid_n)
        diags.append(diag)
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
    common.add_argument("--precision-cap", type=int, default=argparse.SUPPRESS,
                        help="interval precision cap in bits")
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
    args.precision_cap = getattr(args, "precision_cap", None)
    if args.format == "csv" and args.command != "oscillate":
        print("error: --format csv is for oscillate only", file=sys.stderr)
        return EXIT_PARSE
    if args.precision_cap is not None:
        set_precision_cap(args.precision_cap)
    try:
        return _HANDLERS[args.command](args)
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (RadicandMismatch, NegativeRadicand) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
