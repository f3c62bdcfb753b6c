"""Operation budgets: call counts of whole operations, which host noise
cannot blur, and the traced memory peak of one oscillation.

Each bound is the count of the change that last lowered it.  Budgets only
go down: a change that beats one lowers it to the new count.  The counters
are patched with ``raising=True``, so a renamed function fails the test
instead of silently counting nothing.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tracemalloc

import pytest

from wildfan import exactnum, hull, model, search
from wildfan.convexint import build_oscillation
from wildfan.exactnum import IntervalExpr, QuadExt, Rational, adjoin_sqrt
from wildfan.fan import beats_selfsimilar, fan_to_json, find_Q, paper_example, verify_fan
from wildfan.hull import split_flux_direction, w_flux_vertices
from wildfan.model import EulerState, PHPoint, PressureLaw

LAW2 = PressureLaw(gamma=2)

_EXACT_COUNTERS = (
    (exactnum, "_tower_sign"),
    (exactnum, "_tower_mul"),
    (IntervalExpr, "_refine_until"),
    (QuadExt, "enclosure"),
    (hull.WGeometry, "in_W"),
    (exactnum._Ival, "root"),
)


def _counted(monkeypatch, targets) -> dict[str, int]:
    """Count the calls of each (owner, name) from now on, by name."""
    counts = {}
    for owner, name in targets:
        original = getattr(owner, name)
        counts[name] = 0

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper, raising=True)
    return counts


def _within(counts: dict[str, int], budget: dict[str, int]) -> None:
    assert counts.keys() == budget.keys()
    over = {name: (counts[name], budget[name]) for name in budget if counts[name] > budget[name]}
    assert not over, f"over budget (count, budget): {over}"


@pytest.mark.parametrize("operation, budget", [
    (verify_fan, {"_tower_sign": 223, "_tower_mul": 107, "_refine_until": 0,
                  "enclosure": 0, "in_W": 0, "root": 0}),
    (beats_selfsimilar, {"_tower_sign": 186, "_tower_mul": 81, "_refine_until": 0,
                         "enclosure": 0, "in_W": 0, "root": 0}),
    (find_Q, {"_tower_sign": 3294, "_tower_mul": 2118, "_refine_until": 0,
              "enclosure": 0, "in_W": 25, "root": 0}),
], ids=["verify_fan", "beats_selfsimilar", "find_Q"])
def test_exact_operation_budget(monkeypatch, operation, budget):
    fan = paper_example()  # built before counting: only the operation is counted
    counts = _counted(monkeypatch, _EXACT_COUNTERS)
    operation(fan)
    _within(counts, budget)


def _paper_shock():
    s5 = QuadExt.sqrt_of(5)
    return (EulerState(1, (Rational(0), Rational(3, 2) * s5)),
            EulerState(4, (Rational(0), Rational(0))))


def _weak_shock():
    # rho 1 -> 5/4 with v_r = 0: the weakest ratio of the search benchmark
    return (EulerState(1, (Rational(0), adjoin_sqrt(Rational(9, 80)))),
            EulerState(Rational(5, 4), (Rational(0), Rational(0))))


def _warmup_shock():
    # rho 1 -> 4 with v_r = 0, built as the search benchmark's warm-up builds
    # it: v_l = sqrt(45/4) adjoined, not the paper's 3/2 sqrt(5)
    return (EulerState(Rational(1), (Rational(0), Rational(1) * adjoin_sqrt(Rational(45, 4)))),
            EulerState(Rational(4), (Rational(0), Rational(0))))


def _fan_digest(fan) -> str:
    """sha256 of the fan's JSON with sorted keys."""
    return hashlib.sha256(json.dumps(fan_to_json(fan), sort_keys=True).encode()).hexdigest()


def _counted_everywhere(monkeypatch, names, source=model) -> dict[str, int]:
    """Count the calls of each named ``source`` function (of ``model`` by
    default) through every wildfan module that binds it, ``source``
    included, so that calls made inside ``source`` count too."""
    targets = []
    for name in names:
        fn = getattr(source, name)
        targets += [(module, name) for module_name, module in sorted(sys.modules.items())
                    if module_name.startswith("wildfan.") and getattr(module, name, None) is fn]
    return _counted(monkeypatch, targets)


def _verify_and_compare_paper_fan():
    fan = paper_example()
    return lambda: (verify_fan(fan), beats_selfsimilar(fan))


_PAPER_SHOCK_FAN = "2c2638de2897e21e843dca71533116ed0e1250a4595f3e52127a36f638c6cd56"


def _certify_paper_shock():
    cfg = search.SearchConfig(rng_seed=0)
    cand = search.search_fan(LAW2, *_paper_shock(), cfg)

    def certify():
        fan = search.certify(cand, cfg)
        assert fan is cand.fan
        assert _fan_digest(fan) == _PAPER_SHOCK_FAN
    return certify


def _certify_hand_built_paper_shock():
    # the searched candidate's fields without its fan: certify runs the
    # exact certification and gives the same fan
    cfg = search.SearchConfig(rng_seed=0)
    found = search.search_fan(LAW2, *_paper_shock(), cfg)
    cand = search.Candidate(found.law, found.left, found.right, found.sigma, found.x, found.seed)

    def certify():
        fan = search.certify(cand, cfg)
        assert cand.fan is None and _fan_digest(fan) == _PAPER_SHOCK_FAN
    return certify


def _search_and_certify_paper_shock():
    # one search benchmark op: the states are built before counting, as the
    # benchmark draws its shocks before it times an op
    cfg, shock = search.SearchConfig(rng_seed=0), _paper_shock()

    def op():
        fan = search.certify(search.search_fan(LAW2, *shock, cfg), cfg)
        assert _fan_digest(fan) == _PAPER_SHOCK_FAN
    return op


# ``_lift`` is the lift computed, ``lift_state`` the lift asked for: each
# state keeps its lift, so a state is computed once however often it is asked
@pytest.mark.parametrize("setup, budget", [
    # the fan lifts each boundary state, and the self-similar profile asks
    # again for the same two states; each region's energy is taken once
    (_verify_and_compare_paper_fan,
     {"lift_state": 4, "_lift": 2, "pressure": 15, "pressure_potential": 5}),
    # search_fan certified the candidate: certify returns its fan
    (_certify_paper_shock,
     {"lift_state": 0, "_lift": 0, "pressure": 0, "pressure_potential": 0}),
    # search_fan has lifted the candidate's states: the problem, the
    # reference profile and the fan ask for them and compute nothing
    (_certify_hand_built_paper_shock,
     {"lift_state": 6, "_lift": 0, "pressure": 11, "pressure_potential": 3}),
    # the search and its certification; certify adds nothing: one lift per
    # state for the whole op
    (_search_and_certify_paper_shock,
     {"lift_state": 6, "_lift": 2, "pressure": 15, "pressure_potential": 5}),
], ids=["verify_fan+beats_selfsimilar", "certify", "certify (hand-built)", "search_fan+certify"])
def test_model_call_budget(monkeypatch, setup, budget):
    operation = setup()  # fans and candidates are built before counting
    counts = _counted_everywhere(monkeypatch, budget)
    operation()
    _within(counts, budget)


def test_search_and_certify_certify_once(monkeypatch):
    # one search benchmark op on the paper shock: one exact certification
    # and one Riemann solve, all of them inside search_fan
    import wildfan.fan as fan_module

    op = _search_and_certify_paper_shock()
    counts = _counted(monkeypatch, [(search, "_certify"), (search, "solve_riemann"),
                                    (fan_module, "solve_riemann")])
    op()
    assert counts == {"_certify": 1, "solve_riemann": 1}


def test_search_formats_nothing(monkeypatch):
    # certification reads each report's verdicts only: no witness is
    # formatted, and the floats of the problem and of the plane names come
    # from integer square roots, not from interval enclosures
    shock = _paper_shock()
    counts = _counted_everywhere(monkeypatch, ["xreal_to_json"], exactnum)
    counts.update(_counted(monkeypatch, [(QuadExt, "enclosure")]))
    cand = search.search_fan(LAW2, *shock, search.SearchConfig(rng_seed=0))
    assert cand is not None and cand.fan is not None
    _within(counts, {"xreal_to_json": 0, "enclosure": 0})


def test_search_weak_op_budget(monkeypatch):
    # the weak shock with the 8 restarts of a search benchmark op: the
    # drawn start of restart 0 already dominates, and certifies
    counts = _counted(monkeypatch, [(search, "_kernel")])
    cand = search.search_fan(LAW2, *_weak_shock(), search.SearchConfig(restarts=8, rng_seed=0))
    assert cand is not None and cand.fan is not None and cand.seed == 0
    assert _fan_digest(cand.fan) == \
        "51c241254998816684953a500c669b1705060582bd657c0b085d4d29728c8f30"
    _within(counts, {"_kernel": 1})


def test_search_paper_shock_budget(monkeypatch):
    # restarts past the certified one do not run
    counts = _counted(monkeypatch, [(search, "_kernel")])
    cand = search.search_fan(LAW2, *_paper_shock(), search.SearchConfig(rng_seed=0))
    assert cand is not None and cand.fan is not None and cand.seed == 0
    assert _fan_digest(cand.fan) == \
        "2c2638de2897e21e843dca71533116ed0e1250a4595f3e52127a36f638c6cd56"
    _within(counts, {"_kernel": 21})


def test_search_warmup_budget(monkeypatch):
    # the restart ends at its first dominating point: restart 21 certifies
    counts = _counted(monkeypatch, [(search, "_kernel")])
    cand = search.search_fan(LAW2, *_warmup_shock(), search.SearchConfig(restarts=8, rng_seed=21))
    assert cand is not None and cand.fan is not None and cand.seed == 21
    assert _fan_digest(cand.fan) == \
        "1c3bea293b0efdef252c99ea09784237f556cc8eef6441cb0994c591b35be6f4"
    _within(counts, {"_kernel": 4})


def test_oscillation_memory_budget():
    # the laminate of `wildfan oscillate` at tau1 0.4, delta 0.02, k 8 on a
    # 32^3 grid: the derivative caches live one slab of t-planes at a time,
    # and the seven grid^3 outputs (1.8 MB) remain.  The bound is the
    # 5,935,560 B traced on 3.11 plus 10 % for Python's object sizes on
    # other versions (5,998,016 B before the Leibniz sums skipped a weight
    # of 1); one cache over the whole grid peaked at 15,082,600 B.
    vert = w_flux_vertices(LAW2, Rational(1), Rational(4), PHPoint((0, 0), 0, 0, 3, (0, 0)))[0]
    _, z1, _, z2, _ = split_flux_direction(LAW2, Rational(1), Rational(4), vert, 1)
    args = (0.4 * z1 + 0.6 * z2, z1, z2, 0.4, ((0.0, 1.0),) * 3, 8, 0.02)
    build_oscillation(*args, grid_n=32)  # imports and profile caches are not counted
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        build_oscillation(*args, grid_n=32)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 6_529_000, f"traced peak {peak:,} B"
