"""CLI: commands, exit codes, report round-trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import wildfan
from wildfan.cli import run
from wildfan.fan import fan_to_json, paper_example


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_example_table(capsys):
    code, out = invoke(capsys, "verify-example", "--format", "table")
    assert code == 0
    assert "StrictlyDominates" in out
    # sigma-plane coefficient (83033 - 8050 sqrt5)/4300 in lowest terms
    assert "1931/100" in out and "-161/86*sqrt(5)" in out
    # reference coefficient 27 sqrt5 / 4
    assert "27/4*sqrt(5)" in out
    assert "overall: Pass" in out


def test_verify_example_json_roundtrip(capsys):
    code, out = invoke(capsys, "--format", "json", "verify-example")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "StrictlyDominates"
    assert len(payload["planes"]) == 4
    # byte-identical re-serialization (canonical field order)
    assert json.dumps(payload, indent=2) == out.strip()


def test_riemann_constant_data(tmp_path, capsys):
    data = {"gamma": "2/1",
            "left": {"rho": "2/1", "m": ["0/1", "1/1"]},
            "right": {"rho": "2/1", "m": ["0/1", "1/1"]}}
    path = tmp_path / "constant.json"
    path.write_text(json.dumps(data))
    code, out = invoke(capsys, "riemann", str(path))
    assert code == 0
    assert "no waves" in out


def test_riemann_paper_data(tmp_path, capsys):
    data = {"gamma": "2/1",
            "left": {"rho": "1/1",
                     "m": ["0/1", {"d": [5], "c": ["0/1", "3/2"]}]},
            "right": {"rho": "4/1", "m": ["0/1", "0/1"]}}
    path = tmp_path / "paper.json"
    path.write_text(json.dumps(data))
    code, out = invoke(capsys, "--format", "json", "riemann", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["waves"][0]["kind"] == "shock"


def test_verify_fan_good_and_broken(tmp_path, capsys):
    fan = paper_example()
    good = tmp_path / "good.json"
    good.write_text(json.dumps(fan_to_json(fan)))
    code, out = invoke(capsys, "verify-fan", str(good))
    assert code == 0

    broken = fan_to_json(fan)
    broken["mu"][1], broken["mu"][2] = broken["mu"][2], broken["mu"][1]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(broken))
    code, out = invoke(capsys, "verify-fan", str(bad))
    assert code == 1
    assert "ordering" in out and "Fail" in out


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _ = invoke(capsys, "riemann", str(path))
    assert code == 2


def test_missing_field_exit_code(tmp_path, capsys):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"gamma": "2/1"}))
    code, _ = invoke(capsys, "riemann", str(path))
    assert code == 2


def test_oscillate_csv(tmp_path, capsys):
    cfgf = tmp_path / "osc.json"
    cfgf.write_text(json.dumps({"tau1": 0.4, "delta": 0.02, "ks": [8],
                                "grid": 12}))
    code, out = invoke(capsys, "--format", "csv", "oscillate", str(cfgf))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,fraction1,fraction2,commutator_sup,avg_norm"
    assert lines[1].startswith("8,")


def test_search_command(tmp_path, capsys):
    data = {"gamma": "2/1",
            "left": {"rho": "1/1",
                     "m": ["0/1", {"d": [5], "c": ["0/1", "3/2"]}]},
            "right": {"rho": "4/1", "m": ["0/1", "0/1"]},
            "config": {"restarts": 8}}
    path = tmp_path / "search.json"
    path.write_text(json.dumps(data))
    code, out = invoke(capsys, "--format", "json", "search", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "certified"
    assert "fan" in payload


def test_json_float_exit_code(tmp_path, capsys):
    # JSON floats are not exact numbers: top level and tower coefficients
    for gamma, left_m in ((2.0, "0/1"), ("2/1", 0.5),
                          ("2/1", {"d": [5], "c": ["0/1", 1.5]})):
        data = {"gamma": gamma,
                "left": {"rho": "1/1", "m": ["0/1", left_m]},
                "right": {"rho": "4/1", "m": ["0/1", "0/1"]}}
        path = tmp_path / "floats.json"
        path.write_text(json.dumps(data))
        code, _ = invoke(capsys, "riemann", str(path))
        assert code == 2


def test_search_config_unknown_field_exit_code(tmp_path, capsys):
    data = {"gamma": "2/1",
            "left": {"rho": "1/1", "m": ["0/1", "0/1"]},
            "right": {"rho": "4/1", "m": ["0/1", "0/1"]},
            "config": {"restarts": 1, "margin_weight": 1.0}}
    path = tmp_path / "search.json"
    path.write_text(json.dumps(data))
    code, _ = invoke(capsys, "search", str(path))
    assert code == 2


_IMPORT_PROBE = """
import json, sys
import wildfan, wildfan.cli
loaded = {"scipy": "scipy" in sys.modules,
          "numpy executed": "numpy._core" in sys.modules or "numpy.core" in sys.modules}
from wildfan import Candidate, SearchConfig, certify, chain_close, search_fan
import wildfan.search as search
same = all(obj is getattr(search, obj.__name__)
           for obj in (Candidate, SearchConfig, certify, chain_close, search_fan))
try:
    wildfan.no_such_name
    missing = "resolved"
except AttributeError:
    missing = "AttributeError"
print(json.dumps({"loaded": loaded, "same": same, "missing": missing}))
"""


def test_cli_import_loads_no_float_library():
    # The exact commands need neither scipy nor numpy; the search names
    # still resolve, on first use, to the objects of wildfan.search.
    src = str(Path(wildfan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {
        "loaded": {"scipy": False, "numpy executed": False},
        "same": True,
        "missing": "AttributeError",
    }
