"""The exact library and the exact CLI on the standard library alone.

Run it with an interpreter that sees no installed package, such as a bare
venv or ``python -S``:

    python -S tests/stdlib_only.py

It checks that numpy is not importable, then that verify_fan,
beats_selfsimilar and find_Q on the paper fan give the three golden caps;
that search_fan gives on the paper shock the golden restart seed and first
bits, on the weak shock rho 1 -> 5/4 (phase 1 ends once 100 evaluations cut
its best infeasibility by < 10 %) no candidate, each with its pinned count
of _kernel calls, and on rho 1 -> 10/3 a certified fan at the restart whose
first barrier run starts at a float surplus near -7 and must go on until
the surplus turns positive; that ``verify-example`` and ``verify-fan``
print the bytes tests/test_cli.py pins; and that ``riemann`` loads neither
``fan`` nor ``hull``.  Any mismatch raises.  pytest does
not collect this file: the tier-1 suite needs numpy.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from wildfan import search  # noqa: E402
from wildfan.exactnum import QuadExt, Rational, adjoin_sqrt  # noqa: E402
from wildfan.fan import beats_selfsimilar, fan_to_json, find_Q, paper_example, verify_fan  # noqa: E402
from wildfan.model import EulerState, PressureLaw  # noqa: E402
from wildfan.search import SearchConfig, search_fan  # noqa: E402

CLI_SHA256 = {
    "verify-example": "f0af6cae74a49d85cc2fee2552a00ec7eea6bd74fed184dd949c1337061ebdfd",
    "verify-fan": "8a7f88d510d399961d498ca1394f9a4c5a5665e7e4fd39fc512bccd9d19f5858",
}


def check(got, want) -> None:
    print(*got)
    assert got == want, got


def main() -> None:
    assert importlib.util.find_spec("numpy") is None, "the interpreter must not see numpy"
    fan = paper_example()
    check((verify_fan(fan).passed, beats_selfsimilar(fan).passed, [str(q) for q, _ in find_Q(fan)]),
          (True, True, ["13041664/43", "416/1", "22112/43"]))

    calls, kernel = [0], search._kernel

    def counted(*args):
        calls[0] += 1
        return kernel(*args)
    search._kernel = counted
    law = PressureLaw(gamma=2)
    left = EulerState(1, (Rational(0), Rational(3, 2) * QuadExt.sqrt_of(5)))
    right = EulerState(4, (Rational(0), Rational(0)))
    cand = search_fan(law, left, right, SearchConfig(restarts=16, rng_seed=0))
    check((cand.seed, cand.x[0].hex(), cand.fan is not None, calls[0]),
          (2, "-0x1.25926819fdf3dp+0", True, 1729))
    left = EulerState(1, (Rational(0), adjoin_sqrt(Rational(9, 80))))
    right = EulerState(Rational(5, 4), (Rational(0), Rational(0)))
    calls[0] = 0
    check((search_fan(law, left, right, SearchConfig(restarts=2, rng_seed=0)), calls[0]),
          (None, 1314))
    left = EulerState(1, (Rational(0), adjoin_sqrt(Rational(637, 90))))
    right = EulerState(Rational(10, 3), (Rational(0), Rational(0)))
    gated = search_fan(law, left, right, SearchConfig(restarts=8, rng_seed=682554))
    check((gated.seed, gated.fan is not None), (682557, True))

    # the exact CLI starts without numpy and prints the pinned bytes; a
    # child runs with this interpreter's -S, if any
    flags = ["-S"] if sys.flags.no_site else []
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory() as tmp:
        fan_file = Path(tmp) / "fan.json"
        fan_file.write_text(json.dumps(fan_to_json(fan)))
        for command, args in (("verify-example", []), ("verify-fan", [str(fan_file)])):
            out = subprocess.run([sys.executable, *flags, "-m", "wildfan.cli", command, *args,
                                  "--format", "json"], env=env, capture_output=True, check=True).stdout
            check((command, hashlib.sha256(out).hexdigest()), (command, CLI_SHA256[command]))
        # two rarefactions: the float solver, which needs no fan or hull either
        riemann_file = Path(tmp) / "two_rarefaction.json"
        riemann_file.write_text(json.dumps({"gamma": "2/1",
                                            "left": {"rho": "1/1", "m": ["0/1", "-1/2"]},
                                            "right": {"rho": "1/1", "m": ["0/1", "1/2"]}}))
        probe = ("import contextlib, io, sys\n"
                 "from wildfan.cli import run\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    code = run(sys.argv[1:])\n"
                 "print(code, [m for m in ('wildfan.fan', 'wildfan.hull') if m in sys.modules])")
        out = subprocess.run([sys.executable, *flags, "-c", probe, "riemann", str(riemann_file)],
                             env=env, capture_output=True, check=True, text=True).stdout.strip()
        check(("riemann", out), ("riemann", "0 []"))


if __name__ == "__main__":
    main()
