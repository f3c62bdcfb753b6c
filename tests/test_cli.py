"""CLI: commands, exit codes, report round-trips."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wildfan
from wildfan.cli import run
from wildfan.exactnum import Rational, xreal_from_json, xreal_to_json
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


def test_gamma_three_halves_fan_is_a_certified_fail(tmp_path, capsys):
    # rho**(1/2) enters the pressure: towers such as (5, 13, 319, 1141)
    def gamma_three_halves(data):
        data["gamma"] = "3/2"
    code, out = invoke(capsys, "--format", "json", "verify-fan",
                       _fan_file(tmp_path, gamma_three_halves))
    assert code == 1
    conditions = json.loads(out)["verification"]["conditions"]
    assert {c["status"] for c in conditions} == {"Pass", "Fail"}
    assert [c["name"] for c in conditions if c["status"] == "Fail"] == [
        "rh_energy[2]", "rh_normal[3]", "rh_energy[3]"]


@pytest.mark.parametrize("limit", [4300, 640], ids=["default-limit", "least-limit"])
def test_gamma_1000_fan_prints_witnesses_past_the_digit_limit(tmp_path, capsys, limit):
    # rho**1000 makes witnesses of more digits than str() converts (4300 by
    # default, 640 at the least); formatting them once raised ValueError,
    # which the CLI reported as a parse error (exit 2)
    def gamma_1000(data):
        data["gamma"] = "1000"
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        code, out = invoke(capsys, "--format", "json", "verify-fan",
                           _fan_file(tmp_path, gamma_1000))
    finally:
        sys.set_int_max_str_digits(old_limit)
    assert code == 1
    assert max(map(len, re.findall(r"\d+", out))) > 4300
    conditions = json.loads(out)["verification"]["conditions"]
    assert [c["name"] for c in conditions if c["status"] == "Fail"] == [
        "rh_normal[3]", "subsolution_trace[1]", "subsolution_trace[2]", "subsolution_trace[3]"]


@pytest.mark.parametrize("limit", [4300, 640], ids=["default-limit", "least-limit"])
def test_verify_fan_reads_long_integers_past_the_digit_limit(tmp_path, capsys, limit):
    # the paper fan rescaled by k = (10**1000 + 1)/3 (rho by k^2, m by k^3,
    # mu by k, u and q by k^4, F by k^5) is a fan subsolution whose file
    # holds integers of more digits than Fraction() reads (4300 by
    # default, 640 at the least); reading it once raised ValueError, which
    # the CLI reported as a parse error (exit 2)
    k = Rational(10 ** 1000 + 1, 3)

    def scaled(enc, power):
        return xreal_to_json(xreal_from_json(enc) * k ** power)

    def rescale(data):
        data["mu"] = [scaled(v, 1) for v in data["mu"]]
        for state in (data["left"], data["right"], *data["regions"]):
            state["rho"], state["m"] = scaled(state["rho"], 2), [scaled(v, 3) for v in state["m"]]
        for region in data["regions"]:
            for key in ("u11", "u12", "q"):
                region[key] = scaled(region[key], 4)
            region["F"] = [scaled(v, 5) for v in region["F"]]
    path = _fan_file(tmp_path, rescale)
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        code, out = invoke(capsys, "--format", "json", "verify-fan", path)
    finally:
        sys.set_int_max_str_digits(old_limit)
    assert max(map(len, re.findall(r"\d+", Path(path).read_text()))) > 5000
    assert code == 0
    assert json.loads(out)["verification"]["overall"] == "Pass"


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


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "must be a JSON object, got an array"),
    ('"x"', "must be a JSON object, got a string"),
    ("3", "must be a JSON object, got a number"),
    ("null", "must be a JSON object, got null"),
    ("{}", "is missing 'gamma', "),
], ids=["array", "string", "number", "null", "empty-object"])
@pytest.mark.parametrize("command", ["riemann", "verify-fan", "search"])
def test_top_level_json_must_be_an_object_with_the_keys(tmp_path, capsys, command, text, message):
    # checked where the file is read: Python's own messages ("list indices
    # must be integers or slices, not str", "error: 'gamma'") used to be the
    # report
    path = tmp_path / "input.json"
    path.write_text(text)
    assert run([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {command} input ") and message in err
    assert "subscriptable" not in err and "indices" not in err


def test_missing_keys_are_named(tmp_path, capsys):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"gamma": "2/1", "left": {}}))
    assert run(["search", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: search input is missing 'right': it needs the keys gamma, left, right\n"
    fan = fan_to_json(paper_example())
    del fan["mu"], fan["regions"]
    path.write_text(json.dumps(fan))
    assert run(["verify-fan", str(path)]) == 2
    assert capsys.readouterr().err == ("error: verify-fan input is missing 'mu', 'regions': "
                                       "it needs the keys gamma, mu, left, right, regions\n")


_RIEMANN = {"gamma": "2/1", "left": {"rho": "1/1", "m": ["0/1", "1/1"]},
            "right": {"rho": "4/1", "m": ["0/1", "0/1"]}}


@pytest.mark.parametrize("command, key, value, message", [
    ("search", "left", 3, "left must be a JSON object, got a number"),
    ("search", "left", {}, "left is missing 'rho', 'm': it needs the keys rho, m"),
    ("riemann", "right", {"rho": "4/1", "m": 3}, "right m must be a list of two numbers, got 3"),
    ("search", "config", [1, 2], "search config must be a JSON object, got an array"),
    ("search", "config", {"restart": 2},
     "unknown search config keys ['restart']; allowed: restarts, rng_seed"),
    ("verify-fan", "regions", [3, 4, 5], "regions[0] must be a JSON object, got a number"),
    ("verify-fan", "regions", "abc", "regions must be a JSON array of region objects, got a string"),
    ("verify-fan", "mu", 3, "mu must be a JSON array of numbers, got a number"),
    ("verify-fan", "left", None, "left must be a JSON object, got null"),
], ids=["left-number", "left-empty", "right-m-number", "config-array", "config-unknown-key",
        "regions-of-numbers", "regions-string", "mu-number", "left-null"])
def test_nested_json_of_the_wrong_type_is_named(tmp_path, capsys, command, key, value, message):
    # checked where the input is parsed: Python's own messages ("'int'
    # object is not subscriptable", "error: 'rho'", "SearchConfig.__init__()
    # got an unexpected keyword argument") used to be the report
    data = fan_to_json(paper_example()) if command == "verify-fan" else dict(_RIEMANN)
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**data, key: value}))
    assert run([command, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _set(data: dict, path: tuple, value) -> dict:
    """A copy of data with the entry at path (keys and indices) set to value."""
    data = json.loads(json.dumps(data))
    *inner, last = path
    target = data
    for key in inner:
        target = target[key]
    target[last] = value
    return data


@pytest.mark.parametrize("command, path, value, message", [
    ("riemann", ("gamma",), [1], "gamma: not an XReal encoding: [1]"),
    ("search", ("left", "rho"), None, "left rho: not an XReal encoding: None"),
    ("riemann", ("right", "m", 0), True, "right m[0]: boolean is not a number"),
    ("verify-fan", ("mu", 2), True, "mu[2]: boolean is not a number"),
    ("verify-fan", ("regions", 1, "q"), {}, "regions[1] q: not an XReal encoding: {}"),
    ("verify-fan", ("regions", 0, "F", 1), "1/0", "regions[0] F[1]: zero denominator in '1/0'"),
], ids=["gamma", "left-rho", "right-m0", "mu2", "regions1-q", "regions0-F1"])
def test_a_malformed_number_names_its_key(tmp_path, capsys, command, path, value, message):
    # the number parser sees only the value: its message used to name no key
    data = fan_to_json(paper_example()) if command == "verify-fan" else _RIEMANN
    file = tmp_path / "input.json"
    file.write_text(json.dumps(_set(data, path, value)))
    assert run([command, str(file)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_oscillate_csv(tmp_path, capsys):
    cfgf = tmp_path / "osc.json"
    cfgf.write_text(json.dumps({"tau1": 0.4, "delta": 0.02, "ks": [8],
                                "grid": 12}))
    code, out = invoke(capsys, "--format", "csv", "oscillate", str(cfgf))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,fraction1,fraction2,commutator_sup,avg_norm"
    assert lines[1].startswith("8,")


def test_oscillate_rejects_unknown_keys(tmp_path, capsys):
    # a key the command does not read is a parse error, not silently dropped
    for key in ("box", "use_split_weights", "tua1"):
        cfgf = tmp_path / "osc.json"
        cfgf.write_text(json.dumps({"tau1": 0.4, "ks": [8], "grid": 12, key: 1}))
        assert run(["oscillate", str(cfgf)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and key in err


_LONG = "<10**5000>"


@pytest.mark.parametrize("edit", [
    {"ks": [0]}, {"ks": [-8]}, {"ks": [8.5]}, {"ks": [8.0]}, {"ks": [True]},
    {"ks": ["8"]}, {"ks": []}, {"ks": 8}, {"grid": 8.9}, {"grid": 1},
    {"grid": True}, {"grid": "32"}, {"tau1": "0.4"}, {"delta": None},
    {"grid": 100000}, {"grid": 129}, {"delta": 1e-300}, {"delta": 9e-13},
    {"ks": [10 ** 79]}, {"ks": [8, 2 ** 53 + 1]},
], ids=lambda edit: ",".join(f"{k}={json.dumps(v)}" for k, v in edit.items()))
def test_oscillate_rejects_malformed_values(tmp_path, monkeypatch, capsys, edit):
    # ks [0] used to die in a ZeroDivisionError traceback (exit 1), grid 1
    # printed all-zero diagnostics, and the others were coerced silently;
    # grid 100000 died allocating grid^3 floats, delta 1e-300 overflowed
    # (2 delta)^-5 and k 10^79 overflowed k^4.  Each is rejected before the
    # oscillation is built
    import wildfan.cli as cli_module

    def no_build(*args, **kwargs):
        raise AssertionError("build_oscillation ran on a rejected config")
    monkeypatch.setattr(cli_module, "build_oscillation", no_build, raising=True)
    cfgf = tmp_path / "osc.json"
    cfgf.write_text(json.dumps({"tau1": 0.4, "delta": 0.02, "ks": [8], "grid": 12, **edit}))
    assert run(["oscillate", str(cfgf)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and next(iter(edit)) in err


@pytest.mark.parametrize("key, value", [
    ("ks", [_LONG]), ("ks", {"k": _LONG}), ("grid", _LONG), ("tau1", _LONG), ("delta", _LONG),
    ("tau1", [_LONG])], ids=["ks", "ks-object", "grid", "tau1", "delta", "tau1-list"])
def test_oscillate_rejects_integers_past_the_digit_limit(tmp_path, capsys, key, value):
    # _LONG stands for 10**5000, past Python's 4,300-digit int-to-str limit:
    # the message names the key and the integer's bit length, where
    # formatting the value once raised a second ValueError, and tau1 or
    # delta that large died converting to float (exit 1)
    text = json.dumps({"tau1": 0.4, "delta": 0.02, "ks": [8], "grid": 2, key: value})
    cfgf = tmp_path / "osc.json"
    cfgf.write_text(text.replace(json.dumps(_LONG), "1" + "0" * 5000))
    assert run(["oscillate", str(cfgf)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and key in err and "16610-bit integer" in err


@pytest.mark.parametrize("key, value, message", [
    ("left", {"rho": "1/1", "m": _LONG}, "left m must be a list of two numbers, got "),
    ("gamma", [_LONG], "gamma: not an XReal encoding: ["),
    ("gamma", {"d": [_LONG, "x"], "c": [1]},
     "gamma: tower radicands must be a list of JSON integers, got ["),
], ids=["pair", "xreal", "radicands"])
def test_a_long_integer_in_a_parse_error_is_shown_by_its_bit_length(tmp_path, capsys, key, value,
                                                                     message):
    # _LONG stands for 10**5000: Python writes no int of more than 4,300
    # digits, so formatting the value once raised a second ValueError, whose
    # message named neither the key nor the value
    path = tmp_path / "input.json"
    text = json.dumps({**_RIEMANN, key: value})
    path.write_text(text.replace(json.dumps(_LONG), "1" + "0" * 5000))
    assert run(["riemann", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}") and "'<16610-bit integer>'" in err


def test_oscillate_accepts_its_bounds():
    import wildfan.cli as cli_module

    assert cli_module._oscillate_config({"delta": 1e-12, "grid": 128}) \
        == (0.4, 1e-12, [8, 16, 32], 128)
    assert cli_module._oscillate_config({"ks": [2 ** 53]})[2] == [2 ** 53]


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


def _normal_data(tmp_path, v_left, v_right, **extra):
    """Riemann data at unit density with normal velocities v_left, v_right."""
    data = {"gamma": "2/1", "left": {"rho": "1/1", "m": ["0/1", v_left]},
            "right": {"rho": "1/1", "m": ["0/1", v_right]}, **extra}
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_riemann_vacuum_exit_code(tmp_path, capsys):
    code, out = invoke(capsys, "--format", "json", "riemann",
                       _normal_data(tmp_path, "-10/1", "10/1"))
    assert code == 1
    assert json.loads(out)["error"].startswith("vacuum formation: ")


def test_search_without_certificate_exit_codes(tmp_path, capsys):
    # two rarefactions: no reference shock plane to beat
    code, out = invoke(capsys, "--format", "json", "search",
                       _normal_data(tmp_path, "-1/2", "1/2"))
    assert (code, json.loads(out)["result"]) == (1, "no candidate found")
    # two shocks: no exact reference speed to pin, so the float candidate
    # stays uncertified; --seed overrides the file's rng_seed
    path = _normal_data(tmp_path, "1/1", "-1/1", config={"restarts": 1, "rng_seed": 0})
    code, out = invoke(capsys, "--format", "json", "search", path, "--seed", "3")
    payload = json.loads(out)
    assert (code, payload["result"]) == (1, "candidate failed certification")
    assert payload["candidate"]["seed"] == 3


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_verify_fan_coincident_speeds_is_a_certified_fail(tmp_path, capsys, fmt):
    # two equal speeds once made the profile raise (exit 2) before the
    # report's ordering Fail could set the exit code
    def coincident(data):
        data["mu"][1] = data["mu"][0]
    code, out = invoke(capsys, "--format", fmt, "verify-fan", _fan_file(tmp_path, coincident))
    assert code == 1
    if fmt == "json":
        conditions = json.loads(out)["verification"]["conditions"]
        assert {"name": "ordering[mu0<mu1]", "status": "Fail"}.items() <= conditions[0].items()
    else:
        assert re.search(r"name=ordering\[mu0<mu1\]\s+status=Fail", out)


@pytest.mark.parametrize("statuses, expected", [
    (("Fail", "Inconclusive"), 1), (("Inconclusive",), 3)], ids=["fail", "inconclusive"])
def test_one_exit_rule_for_every_report(tmp_path, monkeypatch, capsys, statuses, expected):
    # any Fail gives 1, else any Inconclusive 3, whichever command reports
    # the handlers import verify_fan from wildfan.fan when they run
    import wildfan.fan as fan_module
    from wildfan.fan import ConditionResult, Status, VerificationReport

    report = VerificationReport(tuple(
        ConditionResult(f"stub[{i}]", Status(value), "") for i, value in enumerate(statuses)))
    monkeypatch.setattr(fan_module, "verify_fan", lambda fan: report, raising=True)
    assert invoke(capsys, "verify-example")[0] == expected
    assert invoke(capsys, "verify-fan", _fan_file(tmp_path, lambda data: None))[0] == expected


def test_nonpositive_region_density_exit_code(tmp_path, capsys):
    def negative_rho(data):
        data["regions"][1]["rho"] = "-1/1"
    code = run(["verify-fan", _fan_file(tmp_path, negative_rho)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "interior densities must be positive" in captured.err


def test_zero_region_density_exit_code(tmp_path, capsys):
    # a density of exactly 0 sits on the boundary of the same check: a
    # parse error (exit 2), as README gives it
    def zero_rho(data):
        data["regions"][1]["rho"] = "0/1"
    code = run(["verify-fan", _fan_file(tmp_path, zero_rho)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "interior densities must be positive" in captured.err


@pytest.mark.parametrize("limit", [4300, 640], ids=["default-limit", "least-limit"])
def test_riemann_reads_json_integers_past_the_digit_limit(tmp_path, capsys, limit):
    # a JSON integer of 5001 digits once raised ValueError in json.load,
    # which the CLI reported as a parse error (exit 2); the "p/q" string
    # of the same value always parsed
    outs = []
    for rho in ("1" + "0" * 5000, '"1' + "0" * 5000 + '/1"'):
        path = tmp_path / "constant.json"
        state = f'{{"rho": {rho}, "m": ["0/1", "1/1"]}}'
        path.write_text(f'{{"gamma": "2/1", "left": {state}, "right": {state}}}')
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            outs.append(invoke(capsys, "--format", "json", "riemann", str(path)))
        finally:
            sys.set_int_max_str_digits(old_limit)
    assert outs[0] == outs[1]
    assert outs[0][0] == 0 and "no waves" in outs[0][1]


def test_riemann_float_overflow_is_inconclusive(tmp_path, capsys):
    # rho**gamma at the bisection bracket's top density overflows a float
    # from gamma = 52 on; gamma 1001 used to die in an OverflowError
    # traceback with exit 1, which means a failed verification or vacuum
    for gamma in ("60/1", "1001/1"):
        path = tmp_path / "two_shocks.json"
        path.write_text(json.dumps({"gamma": gamma,
                                    "left": {"rho": "1/1", "m": ["0/1", "1/1"]},
                                    "right": {"rho": "1/1", "m": ["0/1", "-1/1"]}}))
        code = run(["riemann", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == f"inconclusive: the float wave curves leave the float range " \
                               f"(gamma = {gamma})\n"


def test_gamma_past_its_bound_is_inconclusive_at_once(tmp_path, capsys):
    # the paper fan at gamma = 1000001 ran past 20 s without a bound; a law
    # takes numerator and denominator up to 10^4, so 1000 stays a certified
    # Fail and 1001 reaches the float overflow above
    data = fan_to_json(paper_example())
    for gamma, shown in (("1000001", "1000001/1"), ("10001/10000", "10001/10000"),
                         ("20001/2", "20001/2")):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({**data, "gamma": gamma}))
        start = time.perf_counter()
        code = run(["verify-fan", str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == f"error: gamma = {shown}: its numerator and denominator " \
                               f"must be at most 10000\n"
        assert elapsed < 1.0


def test_gamma_root_past_its_bound_is_inconclusive_at_once(tmp_path, capsys):
    # a denominator above 2 takes rho**gamma as an interval power and root:
    # the paper fan took about 4.6 s at 1001/3 and ran past 5 minutes at
    # 9999/100, so such a gamma takes terms up to 300 only
    data = fan_to_json(paper_example())
    for gamma in ("1001/3", "1999/9", "1001/1000", "9999/100"):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({**data, "gamma": gamma}))
        start = time.perf_counter()
        code = run(["verify-fan", str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == f"error: gamma = {gamma}: with a denominator above 2, its " \
                               f"numerator and denominator must be at most 300\n"
        assert elapsed < 1.0


def test_gamma_root_within_its_bound_is_a_certified_fail(tmp_path, capsys):
    # interval powers decide every condition within the bound; the paper
    # fan fails at each of these gammas, in a fraction of a second
    data = fan_to_json(paper_example())
    for gamma in ("5/3", "7/5", "101/3"):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({**data, "gamma": gamma}))
        start = time.perf_counter()
        code = run(["verify-fan", str(path)])
        elapsed = time.perf_counter() - start
        assert code == 1, capsys.readouterr().err
        assert elapsed < 3.0


def test_non_rational_gamma_exit_code(tmp_path, capsys):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"gamma": {"d": [2], "c": ["0/1", "1/1"]},
                                "left": {"rho": "1/1", "m": ["0/1", "0/1"]},
                                "right": {"rho": "4/1", "m": ["0/1", "0/1"]}}))
    code = run(["riemann", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "gamma must be rational" in captured.err


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
    # max_iters and rounding_denominator_cap were config fields; the
    # iteration cap and the rounding cap are now fixed.  Values are integers
    # (a bool or a float is not), and the message names the key
    for key, value in (("margin_weight", 1.0), ("max_iters", 10),
                       ("restarts", True), ("rng_seed", True), ("restarts", 8.0),
                       ("rng_seed", "0"), ("restarts", -1), ("rng_seed", -1),
                       ("rounding_denominator_cap", 1.5), ("rounding_denominator_cap", 0),
                       ("rounding_denominator_cap", None)):
        data = {"gamma": "2/1",
                "left": {"rho": "1/1", "m": ["0/1", "0/1"]},
                "right": {"rho": "4/1", "m": ["0/1", "0/1"]},
                "config": {"restarts": 1, key: value}}
        path = tmp_path / "search.json"
        path.write_text(json.dumps(data))
        code = run(["search", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), key
        assert key in captured.err


def test_csv_format_only_for_oscillate(tmp_path, capsys):
    _write_inputs(tmp_path)
    for argv in (("verify-example", "--format", "csv"),
                 ("--format", "csv", "verify-fan", str(tmp_path / "fan.json")),
                 ("riemann", str(tmp_path / "paper_shock.json"), "--format", "csv")):
        assert run(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == "" and "csv" in err


def test_precision_cap_option_is_a_usage_error(capsys):
    # the cap is fixed; the option that used to set it is unknown
    with pytest.raises(SystemExit) as exc:
        run(["verify-example", "--precision-cap", "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --precision-cap 64" in capsys.readouterr().err


def _probe(script: str, *args: str) -> dict:
    """JSON printed by `script` in a fresh interpreter that imports the
    package from this checkout."""
    src = str(Path(wildfan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


_IMPORT_PROBE = """
import json, sys
import wildfan, wildfan.cli
loaded = {"scipy": "scipy" in sys.modules, "numpy": "numpy" in sys.modules}
from wildfan import Candidate, SearchConfig, certify, chain_close, search_fan
import wildfan.search as search
loaded["scipy after search"] = "scipy" in sys.modules
loaded["numpy after search"] = "numpy" in sys.modules
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
    # still resolve, on first use, to the objects of wildfan.search, which
    # loads neither scipy nor numpy.
    assert _probe(_IMPORT_PROBE) == {
        "loaded": {"scipy": False, "numpy": False, "scipy after search": False,
                   "numpy after search": False},
        "same": True,
        "missing": "AttributeError",
    }


_EXACT_COMMANDS_PROBE = """
import contextlib, io, json, sys
from wildfan.cli import run
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(run(argv))
loaded = sorted(m for m in ("wildfan.search", "wildfan.wavecone", "numpy", "scipy",
                            "dataclasses", "inspect")
                if m in sys.modules)
# oscillate's first kernel binds convexint's `np` to numpy itself
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(run(["oscillate", sys.argv[2]]))
import numpy, wildfan.convexint
print(json.dumps({"codes": codes, "loaded": loaded, "np is numpy": wildfan.convexint.np is numpy}))
"""


def test_exact_commands_load_no_float_module(tmp_path):
    # the exact commands run no float code: the CLI imports `search` in its
    # handler, and convexint, which it imports for the benchmark's tracer,
    # imports numpy at oscillate's first kernel and wavecone in
    # build_oscillation.  The records are plain classes, so neither
    # `dataclasses` nor the `inspect` it pulls in is loaded
    _write_inputs(tmp_path)
    argvs = [["verify-example", "--format", "json"],
             ["verify-fan", str(tmp_path / "fan.json")],
             ["riemann", str(tmp_path / "paper_shock.json"), "--format", "json"],
             ["riemann", str(tmp_path / "two_rarefaction.json")]]
    assert _probe(_EXACT_COMMANDS_PROBE, json.dumps(argvs), str(tmp_path / "osc_small.json")) \
        == {"codes": [0, 0, 0, 0, 0], "loaded": [], "np is numpy": True}


_COMMAND_MODULES_PROBE = """
import contextlib, io, json, sys
from wildfan.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "loaded": sorted(
    m for m in sys.modules
    if m.startswith("wildfan.") or m in ("numpy", "numpy.polynomial", "scipy"))}))
"""

# every command loads these: convexint too, since the benchmark's tracer
# looks it up in sys.modules after importing the CLI
_CLI_MODULES = ["wildfan.cli", "wildfan.convexint", "wildfan.exactnum", "wildfan.model"]
_EXACT_MODULES = ["wildfan.fan", "wildfan.hull", "wildfan.riemann"]


@pytest.mark.parametrize("argv, code, modules", [
    (["verify-example"], 0, _EXACT_MODULES),
    (["verify-fan", "fan.json"], 0, _EXACT_MODULES),
    (["riemann", "paper_shock.json"], 0, ["wildfan.riemann"]),
    (["riemann", "two_rarefaction.json"], 0, ["wildfan.riemann"]),
    (["search", "search8.json"], 0, [*_EXACT_MODULES, "wildfan.search"]),
    (["oscillate", "osc_small.json"], 0, ["numpy", "wildfan.hull", "wildfan.wavecone"]),
], ids=["verify-example", "verify-fan", "riemann-shock", "riemann-two-rarefaction", "search",
        "oscillate"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, code, modules):
    # each handler imports what it runs: riemann no fan or hull, oscillate no
    # fan or riemann (nor numpy.polynomial), the exact commands no search,
    # wavecone or numpy, and no command scipy
    _write_inputs(tmp_path)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert _probe(_COMMAND_MODULES_PROBE, json.dumps(argv)) \
        == {"code": code, "loaded": sorted(_CLI_MODULES + modules)}


_NAMESPACE_PROBE = """
import importlib, json, sys
import wildfan
# before anything imports them, the submodules resolve as attributes
modules = [m for m in ("exactnum", "model", "hull", "wavecone", "riemann", "fan", "search")
           if m not in dir(wildfan) or getattr(wildfan, m) is not sys.modules["wildfan." + m]]
star = {}
exec("from wildfan import *", star)
problems = []
for name in wildfan.__all__:
    homes = [m for m in ("exactnum", "model", "hull", "wavecone", "riemann", "fan", "search")
             if name in importlib.import_module("wildfan." + m).__all__]
    obj = getattr(wildfan, name)
    if not homes or any(obj is not getattr(sys.modules["wildfan." + m], name) for m in homes):
        problems.append(name + ": not its home module's object")
    if name not in dir(wildfan):
        problems.append(name + ": missing from dir()")
    if star.get(name) is not obj:
        problems.append(name + ": not bound by import *")
try:
    wildfan.no_such_name
    missing = "resolved"
except AttributeError:
    missing = "AttributeError"
print(json.dumps({"names": len(wildfan.__all__), "problems": problems, "missing": missing,
                  "unbound submodules": modules}))
"""


def test_lazy_namespace_resolves_every_public_name():
    result = _probe(_NAMESPACE_PROBE)
    assert result["names"] == 71  # every public name of the seven submodules
    assert result["problems"] == [] and result["missing"] == "AttributeError"
    assert result["unbound submodules"] == []


# ---------------------------------------------------------------------------
# pinned output bytes and per-command work
# ---------------------------------------------------------------------------

_S5_HALF3 = {"d": [5], "c": ["0/1", "3/2"]}
_INPUTS = {
    "paper_shock.json": {"gamma": "2/1", "left": {"rho": "1/1", "m": ["0/1", _S5_HALF3]},
                         "right": {"rho": "4/1", "m": ["0/1", "0/1"]}},
    "two_rarefaction.json": {"gamma": "2/1", "left": {"rho": "1/1", "m": ["0/1", "-1/2"]},
                             "right": {"rho": "1/1", "m": ["0/1", "1/2"]}},
    "gamma_one.json": {"gamma": "1/1", "left": {"rho": "1/1", "m": ["0/1", "3/2"]},
                       "right": {"rho": "4/1", "m": ["0/1", "0/1"]}},
    "slip.json": {"gamma": "2/1", "left": {"rho": "1/1", "m": ["1/1", "1/1"]},
                  "right": {"rho": "1/1", "m": ["-1/1", "-1/1"]}},
    "search8.json": {"gamma": "2/1", "left": {"rho": "1/1", "m": ["0/1", _S5_HALF3]},
                     "right": {"rho": "4/1", "m": ["0/1", "0/1"]},
                     "config": {"restarts": 8}},
    "osc_bench.json": {"tau1": 0.4, "delta": 0.02, "ks": [8, 16], "grid": 32},
    "osc_small.json": {"tau1": 0.3, "delta": 0.03, "ks": [4, 12], "grid": 16},
}

# (argv, exit code, sha256 of stdout), recorded before the dissipation
# comparison was folded into one plane walk; the search bytes were
# re-recorded when the search went over to the four variables that decide
# dominance, again when the candidate dropped its float margins and its
# feasible flag (the same search, the same certified fan), and again when
# certification read the searched floats exactly and closed at q = 0, where
# it had rounded them to denominators of at most 10**12 (the same search, a
# new certified fan); like test_search_golden_bits they depend neither on
# the CPU nor on numpy.
_GOLDEN = (
    (("verify-example", "--format", "json"), 0,
     "f0af6cae74a49d85cc2fee2552a00ec7eea6bd74fed184dd949c1337061ebdfd"),
    (("verify-example", "--format", "table"), 0,
     "12a992d4a6cdfaedd70949f4104768f7b218b6b429ae251e204788b3f92dd32d"),
    (("verify-fan", "fan.json", "--format", "json"), 0,
     "8a7f88d510d399961d498ca1394f9a4c5a5665e7e4fd39fc512bccd9d19f5858"),
    (("verify-fan", "fan.json"), 0,
     "b2fda15a7810488d7910773b35ded158c111b891e4ef48c54c3cb6459da9726e"),
    (("verify-fan", "swapped.json", "--format", "table"), 1,
     "504d5a24b8077e059faabf084b4d57a8544531375d7b0f46444235c3cdc350a4"),
    (("riemann", "paper_shock.json", "--format", "json"), 0,
     "2ad0e12de2833ee463da1dba9b0ba1703d307c2abfbcc28249abd7e768c3e242"),
    (("riemann", "two_rarefaction.json", "--format", "json"), 0,
     "c466dfbae48a2ba86945de6c28a20878f507ed64b9808a3694677032811450ec"),
    (("riemann", "gamma_one.json", "--format", "json"), 0,
     "b95a140d8250da9633135da5cfd604520f4fbb6e0da5ce6ec9a0ba403bbf1792"),
    (("riemann", "gamma_one.json"), 0,
     "81f2726223519f52a418ccbd1202cc6efe909fb500df8394a8cdf8a4a266c0f8"),
    (("riemann", "slip.json", "--format", "json"), 0,
     "677bbd590ba3adc12a5c9dcd7743480cf2c7a98affb3ad6980b50c72c3850a71"),
    (("search", "search8.json", "--format", "json"), 0,
     "0a106309d0fafddf7686e19edc057e9acb23ee65b0d44119716aa00da44c2e0c"),
    # the benchmark's oscillate config and a small one, recorded on the
    # dense grid before the sparse grid and the per-order caches; the JSON
    # carries every float's repr, so it pins the diagnostics bit for bit
    (("oscillate", "osc_bench.json", "--format", "csv"), 0,
     "042cb3e357dd1d392792523e0c81a48c5ecc7c6c03dcece7b1d62c7de2ce14a9"),
    (("oscillate", "osc_bench.json", "--format", "json"), 0,
     "8847ca65697f782bab1a355a7f7adc5386d0a9bb23cce872928748ecdce50b9c"),
    (("oscillate", "osc_small.json", "--format", "csv"), 0,
     "90dac99596fb9787f6a2e6fe14188186d39827c74b5f7dcd1ddbbb53968ec051"),
    (("oscillate", "osc_small.json", "--format", "json"), 0,
     "f8f0f3635bc898c674f3528c801df272366291d2560e81155ffd393a9ae39bfb"),
)


def _write_inputs(tmp_path):
    files = dict(_INPUTS)
    files["fan.json"] = fan_to_json(paper_example())
    swapped = fan_to_json(paper_example())
    swapped["mu"][1], swapped["mu"][2] = swapped["mu"][2], swapped["mu"][1]
    files["swapped.json"] = swapped
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))


def test_cli_output_bytes_pinned(tmp_path, capsys):
    _write_inputs(tmp_path)
    for argv, code, digest in _GOLDEN:
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        got_code, out = invoke(capsys, *argv)
        assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), argv


def test_exact_cli_starts_without_numpy(tmp_path):
    # `python -S` leaves site-packages, and so numpy, off the path; with
    # only the checkout's src on PYTHONPATH the exact commands must still
    # start and print their pinned bytes
    _write_inputs(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(wildfan.__file__).resolve().parents[1]))

    def child(*args):
        return subprocess.run([sys.executable, "-S", *args], env=env, cwd=tmp_path,
                              capture_output=True)

    numpy_spec = child("-c", "import importlib.util; print(importlib.util.find_spec('numpy'))")
    assert numpy_spec.stdout == b"None\n", "the child must not see numpy"
    pinned = {argv: (code, digest) for argv, code, digest in _GOLDEN}
    for argv in (("verify-example", "--format", "json"),
                 ("verify-fan", "fan.json", "--format", "json")):
        proc = child("-m", "wildfan.cli", *argv)
        got = (proc.returncode, hashlib.sha256(proc.stdout).hexdigest())
        assert got == pinned[argv], proc.stderr.decode()


def test_verify_example_solves_and_profiles_once(monkeypatch, capsys):
    import wildfan.fan as fan_module
    import wildfan.riemann as riemann_module

    calls = {}
    for fn in (riemann_module.solve_riemann, riemann_module.selfsim_dissipation,
               fan_module.fan_dissipation_profile):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        calls[fn.__name__] = 0
        # every module that looks the function up by name
        for name, module in list(sys.modules.items()):
            if (name == "wildfan" or name.startswith("wildfan.")) \
                    and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    code, _ = invoke(capsys, "verify-example", "--format", "json")
    assert code == 0
    assert calls == {"solve_riemann": 1, "selfsim_dissipation": 1,
                     "fan_dissipation_profile": 1}


# ---------------------------------------------------------------------------
# malformed numbers and vectors are parse errors (exit 2)
# ---------------------------------------------------------------------------

def _riemann_file(tmp_path, left):
    data = {"gamma": "2/1", "left": left, "right": {"rho": "4/1", "m": ["0/1", "0/1"]}}
    path = tmp_path / "riemann.json"
    path.write_text(json.dumps(data))
    return str(path)


def _fan_file(tmp_path, edit):
    data = fan_to_json(paper_example())
    edit(data)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_zero_denominator_exit_code(tmp_path, capsys):
    for left in ({"rho": "1/0", "m": ["0/1", "0/1"]},
                 {"rho": "1/1", "m": ["0/1", {"d": [5], "c": ["0/1", "3/0"]}]}):
        code, _ = invoke(capsys, "riemann", _riemann_file(tmp_path, left))
        assert code == 2

    def zero_q(data):
        data["regions"][1]["q"] = "1/0"
    code, _ = invoke(capsys, "verify-fan", _fan_file(tmp_path, zero_q))
    assert code == 2


@pytest.mark.parametrize("tower", [
    {"d": [5.5], "c": ["0/1", "3/2"]},  # was truncated to (3/2)*sqrt(5)
    {"d": ["5"], "c": ["0/1", "3/2"]},
    {"d": [True], "c": ["0/1", "3/2"]},
    {"d": 5, "c": ["0/1", "3/2"]},
    {"d": [5], "c": "03"},  # was read digit by digit as 3*sqrt(5)
    {"d": [5], "c": ["0/1", True]},
    {"d": [5], "c": {"0": "3/2"}},
    {"d": [], "c": ["1/2"]},
])
def test_malformed_tower_exit_code(tmp_path, capsys, tower):
    code, out = invoke(capsys, "riemann", _riemann_file(tmp_path, {"rho": "1/1", "m": ["0/1", tower]}))
    assert (code, out) == (2, "")


def test_wrong_length_vector_exit_code(tmp_path, capsys):
    for m in (["0/1"], ["0/1", "0/1", "1/1"]):
        code, _ = invoke(capsys, "riemann", _riemann_file(tmp_path, {"rho": "1/1", "m": m}))
        assert code == 2

    # a third component used to be dropped silently (verify-fan passed),
    # a missing one raised IndexError
    for edit in (lambda d: d["regions"][1]["m"].pop(),
                 lambda d: d["regions"][1]["m"].append("1/1"),
                 lambda d: d["regions"][1]["F"].pop(),
                 lambda d: d["regions"][1]["F"].append("1/1"),
                 lambda d: d["left"]["m"].append("1/1")):
        code, _ = invoke(capsys, "verify-fan", _fan_file(tmp_path, edit))
        assert code == 2


# ---------------------------------------------------------------------------
# well-formed input outside the supported arithmetic is inconclusive (exit 3)
# ---------------------------------------------------------------------------

def test_unsupported_arithmetic_exit_code(tmp_path, monkeypatch, capsys):
    def depth_three_q(data):
        # a q in Q(sqrt2, sqrt3, sqrt7) meets the fan's sqrt5 and sqrt1141
        data["regions"][1]["q"] = {"d": [2, 3, 7], "c": ["0/1"] * 7 + ["1/1"]}
    code = run(["verify-fan", _fan_file(tmp_path, depth_three_q)])
    captured = capsys.readouterr()
    assert code == 3
    assert "need more than 4 independent radicals" in captured.err

    import wildfan.cli as cli_module
    from wildfan.exactnum import NegativeRadicand

    def negative_radicand(args):
        raise NegativeRadicand("sqrt of -1")
    monkeypatch.setitem(cli_module._HANDLERS, "verify-example", negative_radicand)
    code = run(["verify-example"])
    assert (code, capsys.readouterr().err) == (3, "error: sqrt of -1\n")
