#!/usr/bin/env python3
"""wildfan benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-certify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The workloads are described in ``perfbench/README.md``.

``--trace 0`` sets up the workload several times, runs it as a closed loop
for ``--seconds`` and prints the end-to-end metrics, with every time scaled
to the reference host by the calibration in ``hostspeed.py``.  ``--trace 1`` runs
every item twice, untraced and then traced, and prints the per-layer
metrics.  Every op's output is checked; an op that raises or fails a check
counts in ``failed``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("exact-certify", "search-certify", "cli-session")

# Set-ups per run, the first in-process; set-up time is their median.
SETUP_REPS = 3
# Interpreter and import probes per traced run.
PROBE_REPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("ops_per_s", "1/s"),
    ("certified_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)

CLI_METRIC = {
    "verify-example": "cli.verify_example_s.p50",
    "verify-fan": "cli.verify_fan_s.p50",
    "verify-fan-mutated": "cli.verify_fan_s.p50",
    "riemann-shock": "cli.riemann_s.p50",
    "riemann-two-wave": "cli.riemann_s.p50",
    "oscillate": "cli.oscillate_s.p50",
}


def pin_environment() -> dict:
    """Pin this process and return the environment for child processes.

    WILDFAN_PRECISION_CAP is removed because it silently overrides the
    library's precision cap; BLAS pools get one thread each."""
    os.environ.pop("WILDFAN_PRECISION_CAP", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def tail(samples: list) -> tuple[str, float]:
    """The highest percentile (50, 55, ..., 95, 99, 99.9) with at least ten
    samples beyond it, by nearest rank; the median when there is none."""
    ordered = sorted(samples)
    n = len(ordered)
    best = 50
    for p in (*range(55, 100, 5), 99, 99.9):
        if n - math.ceil(p / 100 * n) >= 10:
            best = p
    return f"p{best:g}", ordered[max(1, math.ceil(best / 100 * n)) - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Run:
    """State of one benchmark run."""

    def __init__(self, workload: str, seed: int, env: dict, workdir: Path):
        import workloads  # imports wildfan: part of the timed set-up

        self.seed = seed
        self.rng = random.Random(seed * len(WORKLOADS) + WORKLOADS.index(workload))
        self.wl = workloads.make(workload, workdir, env, ROOT)
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.certified = 0
        self.pending = []

    def warm_up(self) -> None:
        """Untimed ops, then the first round of inputs."""
        self.wl.warm_up()
        self.pending = self.wl.round(self.rng)

    def items(self, seconds: float, max_items: int | None = None):
        """Yield (round number, item) over whole rounds until ``seconds``
        of wall time have passed, or for the first ``max_items`` items."""
        deadline = perf_counter() + seconds
        count = 0
        for number in itertools.count():
            items, self.pending = self.pending or self.wl.round(self.rng), []
            for item in items:
                yield number, item
                count += 1
                if max_items is not None and count >= max_items:
                    return
            if perf_counter() >= deadline:
                return

    def attempt(self, fn, item):
        """Run one op and check its output: (seconds, output), or None when
        it raised or failed a check."""
        self.attempted += 1
        try:
            start = perf_counter()
            out = fn(item)
            elapsed = perf_counter() - start
            certified, problems = self.wl.check(item, out)
        except Exception:  # a failed op is counted and the loop goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        if problems:
            print(f"check failed ({item['kind']}): {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
            return None
        self.certified += certified
        return elapsed, out


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A private directory for input files, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run still uses it
            WORK.rmdir()


def setup_once(workload: str, seed: int, env: dict, workdir: Path) -> tuple[Run, float]:
    start = perf_counter()
    run = Run(workload, seed, env, workdir)
    run.warm_up()
    return run, perf_counter() - start


def setup_in_child(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter running the same set-up."""
    from workloads import run_child

    code, stdout, _ = run_child([str(Path(__file__)), "--workload", workload, "--seed",
                                 str(seed), "--setup-only"], dict(os.environ), ROOT)
    if code != 0:
        raise RuntimeError(f"set-up child exited with {code}")
    return json.loads(stdout.splitlines()[-1])["setup_s"]


def measure_setup(workload: str, seed: int, reps: int, env: dict,
                  workdir: Path) -> tuple[Run, float]:
    """Set up ``reps`` times: once in this process, which gives the run, and
    ``reps - 1`` times in fresh interpreters.  Each set-up time is scaled to
    the reference host by the samples around it.  Returns the run and the
    median scaled set-up time."""
    host = HostSpeed(True, env, ROOT)
    setups, raw = [], []
    before = host.sample()
    run, seconds = setup_once(workload, seed, env, workdir)
    for rep in range(reps):
        if rep:
            seconds = setup_in_child(workload, seed)
        after = host.sample()
        raw.append(seconds)
        setups.append(host.scale(seconds, before, after))
        before = after
    print(f"unscaled: setup_s = {statistics.median(raw):.6g} s over {reps} set-ups")
    return run, statistics.median(setups)


def measure(run: Run, seconds: float, max_items: int | None, host: HostSpeed) -> dict:
    """Closed loop over whole rounds until ``seconds`` of wall time have
    passed: the end-to-end metrics other than set-up.  ``host`` samples the
    host's speed before the first op and after every op, and each op's time
    is scaled to the reference host by the samples around it."""
    durations, raw = [], []
    before = host.sample()
    for _, item in run.items(seconds, max_items):
        result = run.attempt(run.wl.run, item)
        after = host.sample()
        if result is not None:
            raw.append(result[0])
            durations.append(host.scale(result[0], before, after))
        before = after
    if not durations:
        raise RuntimeError("no op completed")
    tail_name, tail_value = tail(durations)
    if run.wl.name == "cli-session":
        rss_kb = run.wl.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_s.p50": statistics.median(durations),
        "op_s.tail": tail_value,
        "ops_per_s": len(durations) / sum(durations),
        "certified_frac": run.certified / run.attempted,
        "peak_rss_mb": rss_kb / 1024,
    }
    print(f"op_s.tail is {tail_name} of {len(durations)} completed ops")
    print(f"unscaled: op_s.p50 = {statistics.median(raw):.6g} s, op_s.tail = "
          f"{tail(raw)[1]:.6g} s, ops_per_s = {len(raw) / sum(raw):.6g} 1/s; "
          f"calibration mean {statistics.fmean(host.samples):.6g} s over "
          f"{len(host.samples)} samples, reference {host.ref_s:g} s")
    return metrics


def measure_traced(run: Run, seconds: float, max_items: int | None) -> dict:
    """Every item untraced, then traced; for cli-session the item is also
    run as a child process first, and the in-process replays are traced."""
    from layertrace import Recorder, per_layer_metrics
    from workloads import run_child

    rec = Recorder()
    probes = defaultdict(list)
    for _ in range(PROBE_REPS):
        for name, args in (("cli.python_s.p50", ["-c", "pass"]),
                           ("cli.import_s.p50", ["-c", "import wildfan"])):
            start = perf_counter()
            code, _, _ = run_child(args, run.env, ROOT)
            probes[name].append(perf_counter() - start)
            if code != 0:
                raise RuntimeError(f"probe {args} exited with {code}")

    untraced, traced = [], []
    restarts = Counter()
    first_round, first_round_ops = None, 0
    for number, item in run.items(seconds, max_items):
        if number > 0 and first_round is None:
            first_round = Counter(rec.counts)
        if run.wl.name == "cli-session":
            child = run.attempt(run.wl.run, item)
            if child is not None:
                probes[CLI_METRIC[item["kind"]]].append(child[0])
        plain = run.attempt(run.wl.replay, item)
        rec.install()
        rec.begin_op(run.wl.name)
        try:
            result = run.attempt(run.wl.replay, item)
        finally:
            rec.end_op()
            rec.uninstall()
        if plain is not None and result is not None:
            untraced.append(plain[0])
            traced.append(result[0])
        if number == 0:
            first_round_ops += 1
            if result is not None and run.wl.name == "search-certify":
                restarts["restarts"] += run.wl.restarts_used(result[1])
                restarts["items"] += 1
    if first_round is None:
        first_round = Counter(rec.counts)
    if not traced:
        raise RuntimeError("no traced op completed")
    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"spans-{run.wl.name}-seed{run.seed}.jsonl")

    extra = {name: statistics.median(probes[name]) if probes[name] else 0.0
             for name in ("cli.python_s.p50", "cli.import_s.p50", *CLI_METRIC.values())}
    extra["search.restarts_per_item"] = (restarts["restarts"] / restarts["items"]
                                         if restarts["items"] else 0.0)
    extra["trace.untraced_op_s.p50"] = statistics.median(untraced)
    extra["trace.traced_op_s.p50"] = statistics.median(traced)
    extra["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
    print(f"traced {len(traced)} ops; counts are per op over the first "
          f"{first_round_ops} ops")
    return per_layer_metrics(rec, first_round, first_round_ops, len(traced), extra)


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              max_items: int | None = None, setup_reps: int = SETUP_REPS) -> dict:
    """One run; returns the result object printed as the last line."""
    env = pin_environment()
    with scratch_dir(f"{workload}-") as workdir:
        if trace:
            from layertrace import PER_LAYER

            run, _ = setup_once(workload, seed, env, workdir)
            values = measure_traced(run, seconds, max_items)
            metrics = {name: _metric(values[name], unit) for name, unit, _ in PER_LAYER}
        else:
            run, setup_s = measure_setup(workload, seed, setup_reps, env, workdir)
            values = measure(run, seconds, max_items,
                             HostSpeed(workload == "cli-session", env, ROOT))
            values["setup_s"] = setup_s
            metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    print(f"failed_frac = {run.failed / run.attempted:.4g} fraction "
          f"({run.failed} of {run.attempted} ops)")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up time (used for "
                             "the repeated set-ups of a run)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wildfan" / "__init__.py").is_file():
        print(f"error: no wildfan package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        with scratch_dir("setup-") as workdir:
            _, setup_s = setup_once(args.workload, args.seed, pin_environment(), workdir)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
