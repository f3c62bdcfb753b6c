"""Operation budgets: call counts of whole operations, which host noise
cannot blur, and the traced memory peak of one oscillation.

Each bound is the count of the change that last lowered it.  Budgets only
go down: a change that beats one lowers it to the new count.  The counters
are patched with ``raising=True``, so a renamed function fails the test
instead of silently counting nothing.
"""

from __future__ import annotations

import tracemalloc

import pytest

from wildfan import exactnum, hull, search
from wildfan.convexint import build_oscillation
from wildfan.exactnum import IntervalExpr, QuadExt, Rational, adjoin_sqrt
from wildfan.fan import beats_selfsimilar, find_Q, paper_example, verify_fan
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
    (verify_fan, {"_tower_sign": 233, "_tower_mul": 163, "_refine_until": 0,
                  "enclosure": 0, "in_W": 0, "root": 0}),
    (beats_selfsimilar, {"_tower_sign": 200, "_tower_mul": 161, "_refine_until": 0,
                         "enclosure": 2, "in_W": 0, "root": 2}),
    (find_Q, {"_tower_sign": 3294, "_tower_mul": 2130, "_refine_until": 0,
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
    # rho 1 -> 5/4 with v_r = 0: a shock too weak for any restart to certify
    return (EulerState(1, (Rational(0), adjoin_sqrt(Rational(9, 80)))),
            EulerState(Rational(5, 4), (Rational(0), Rational(0))))


def _warmup_shock():
    # rho 1 -> 4 with v_r = 0, built as the search benchmark's warm-up builds
    # it: v_l = sqrt(45/4) adjoined, not the paper's 3/2 sqrt(5)
    return (EulerState(Rational(1), (Rational(0), Rational(1) * adjoin_sqrt(Rational(45, 4)))),
            EulerState(Rational(4), (Rational(0), Rational(0))))


def test_search_weak_miss_budget(monkeypatch):
    counts = _counted(monkeypatch, [(search, "_kernel")])
    cand = search.search_fan(LAW2, *_weak_shock(), search.SearchConfig(restarts=2, rng_seed=0))
    assert cand is None
    _within(counts, {"_kernel": 1314})


def test_search_weak_op_budget(monkeypatch):
    # the weak miss with the 8 restarts of a search benchmark op, each
    # ending its phase 1 on a stall
    counts = _counted(monkeypatch, [(search, "_kernel")])
    cand = search.search_fan(LAW2, *_weak_shock(), search.SearchConfig(restarts=8, rng_seed=0))
    assert cand is None
    _within(counts, {"_kernel": 5101})


def test_search_paper_shock_budget(monkeypatch):
    # restarts past the certified one do not run
    counts = _counted(monkeypatch, [(search, "_kernel")])
    cand = search.search_fan(LAW2, *_paper_shock(), search.SearchConfig(rng_seed=0))
    assert cand is not None and cand.fan is not None and cand.seed == 2
    _within(counts, {"_kernel": 1729})


def test_search_warmup_budget(monkeypatch):
    # each barrier run ends at its first positive point: restart 21 certifies
    counts = _counted(monkeypatch, [(search, "_kernel")])
    cand = search.search_fan(LAW2, *_warmup_shock(), search.SearchConfig(restarts=8, rng_seed=21))
    assert cand is not None and cand.fan is not None and cand.seed == 21
    _within(counts, {"_kernel": 622})


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
