"""Benchmark of core-picker: one workload per run, in one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload learn-small --seed 0 --seconds 25 --trace 0

The package is imported from ``src/``; nothing is installed.  Every workload is
a closed loop: the next trial starts when the previous one returns.  A run
makes one uncounted warm-up trial, then runs until ``--seconds`` have passed
and the workload's core units are done.  Counts and digests come from the core
units only, so they repeat exactly for a seed; timings come from every unit.

Workloads:

- ``learn-small``: blocks of strict games at n = 3, 4, 5, 6 (adjacent
  permutations) plus one unit-game control capped at 10^6 epochs.  Many
  stopping checks per run.
- ``learn-large``: blocks of two strict n = 10 games (adjacent) and one
  strict n = 20 game (cyclic).  Epoch advances, the 2^n generation and the
  2^n verification dominate.  Two n = 10 per n = 20 keep the median inside
  one cluster of run times instead of on the gap between two.
- ``sweep``: ``cli.main(["sweep", "--gen", "strict", ...])`` over n 2..6 with
  20 trials each, through the CLI's own worker pool.
- ``cw``: ``cli.main(["cw", "--n", "10", "50", ...])`` with 500 trials each,
  the same pool over pure geometry jobs.

The first CLI call of every run uses the seed that produced the CSV committed
in ``out/`` and must reproduce it byte for byte; later calls use seeds derived
from ``--seed``.  On ``sweep`` and ``cw`` a trial is a CSV row, and
``run_ms_*`` time whole CLI calls.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs each of the workload's trace units untraced and then
with every layer hooked (``tracing.py``), and reports the per-layer metrics
and the tracing overhead.  On ``sweep`` and ``cw`` the traced pass runs the
CLI serially in process (``CORE_PICKER_THREADS=1``), after an untraced pooled
pass (``cli.wall_s``) and an untraced serial pass (``cli.busy_s``).

The host is a few cores of a shared machine.  A core's speed swings by up to
a third within a second and can stay off for many seconds, apart from the
other cores, so a raw time says as much about the host as about the code.
So an untraced run also times a fixed reference kernel that uses nothing from
the package, on the cores the work runs on, and corrects each unit's times to
a host on which that kernel takes ``REFERENCE_MS``: times are multiplied, and
rates divided, by ``REFERENCE_MS`` over the unit's kernel time.  A change to
the package moves the corrected figures as it moves the raw ones; a slow phase
of the host moves the kernel too and cancels out.

- A learn workload runs in this process alone, pinned to one core (Linux CPU
  affinity).  The kernel runs on that core after each trial (``CoreSpeed``),
  and a trial's kernel time is the median of the timings just before and
  after it.
- ``sweep`` and ``cw`` run on every core through the pool.  While a call
  runs, a thread pinned to each core times the kernel by its own CPU time
  every ``PROBE_PERIOD_S`` (``PoolSpeed``), and the call's kernel time is the
  mean over cores of each core's median.  The probes take about 6% of each
  core.
- ``setup_s`` starts a fresh interpreter that imports the package and CLI.
  Its time does not follow the kernel's, so each start is timed next to a
  fresh interpreter that imports numpy alone, and ``setup_s`` is
  ``REFERENCE_SETUP_S`` times the median ratio of the two over
  ``SETUP_REPEATS`` pairs.

The raw figures, the scales and the kernel timings are kept in the result
file.  Per-layer metrics are not corrected.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, tail percentile and count, failed share, output digest,
missing hooks, and which end-to-end metric each layer metric should move) is
written to ``BENCH_<workload>.json`` (``BENCH_<workload>.trace.json`` when
traced) beside ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from unittest import mock

import numpy as np
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

DELTA = 0.1
MEMBERSHIP_TOL = 1e-9
UNIT_MAX_EPOCHS = 10**6
TAIL_BEYOND = 10
SETUP_REPEATS = 7
SETUP_CODE = "import core_picker, core_picker.cli"
REFERENCE_SETUP_CODE = "import numpy"
REFERENCE_SETUP_S = 0.2  # REFERENCE_SETUP_CODE's median on a quiet 2-core x86-64 host
REFERENCE_MS = 6.0      # reference kernel's median on a quiet 2-core x86-64 host
REFERENCE_SHARE = 0.1   # kernel time after a trial, as a share of the trial's time
REFERENCE_MIN = 3       # kernel timings after a trial, at least
PROBE_PERIOD_S = 0.1    # kernel period on each core while a pooled call runs

END_TO_END = {
    "setup_s": ("s", "lower"),
    "trials_per_s": ("1/s", "higher"),
    "run_ms_p50": ("ms", "lower"),
    "run_ms_tail": ("ms", "lower"),
    "samples_p50": ("count", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

# name -> (unit, better, the end-to-end metric it should move and where)
LAYER_METRICS = {
    "games.generate_us": ("us", "lower", "run_ms_tail on learn-large"),
    "games.prefix_coalitions_calls": ("count", "lower", "run_ms_tail on learn-large"),
    "oracle.calls": ("count", "lower",
                     "run_ms_p50 on learn-large, trials_per_s on sweep; little on learn-small"),
    "oracle.us_per_call": ("us", "lower",
                           "run_ms_p50 on learn-large, trials_per_s on sweep; little on learn-small"),
    "oracle.calls_per_advance": ("count", "lower",
                                 "run_ms_p50 on learn-large, trials_per_s on sweep"),
    "learner.advances_per_run": ("count", "lower", "run_ms_p50 on learn-small"),
    "learner.checks_per_run": ("count", "lower",
                               "run_ms_p50 on learn-small, weighed against samples_p50"),
    "learner.advance_self_us": ("us", "lower", "run_ms_p50 on learn-large"),
    "learner.check_us": ("us", "lower", "run_ms_p50 on learn-small"),
    "learner.run_self_us": ("us", "lower", "run_ms_p50 on learn-small"),
    "geometry.separate_calls": ("count", "lower", "run_ms_p50 on learn-small"),
    "geometry.separate_us": ("us", "lower", "run_ms_p50 on learn-small"),
    "geometry.clearance_us": ("us", "lower", "run_ms_p50 on learn-small"),
    "geometry.width_us": ("us", "lower", "trials_per_s on cw only"),
    "verify.membership_us": ("us", "lower", "run_ms_tail on learn-large (n = 20)"),
    "cli.wall_s": ("s", "lower", "trials_per_s on sweep and cw; none on learn workloads"),
    "cli.busy_s": ("s", "lower", "trials_per_s on sweep and cw; none on learn workloads"),
    "cli.pool_efficiency": ("ratio", "higher",
                            "trials_per_s on sweep and cw; none on learn workloads"),
    "trace.untraced_trials_per_s": ("1/s", "higher", "base of trace.overhead_share"),
    "trace.overhead_share": ("share", "lower", "none: cost of the hooks themselves"),
}

# (span key, module, public name); a class hooks all of its public methods.
HOOKS = [
    ("games.generate", "core_picker.games", "gen_strictly_convex"),
    ("games.generate", "core_picker.games", "gen_unit_game"),
    ("games.generate", "core_picker.games", "marginal_increments"),
    ("games.prefix_coalitions", "core_picker.games", "prefix_coalitions"),
    ("oracle.call", "core_picker.oracle", "RewardOracle"),
    ("learner.run", "core_picker.learner", "common_points_picking"),
    ("learner.advance", "core_picker.learner", "run_epochs"),
    ("learner.check", "core_picker.learner", "stopping_condition"),
    ("geometry.separate", "core_picker.geometry", "fit_separating_hyperplane"),
    ("geometry.clearance", "core_picker.geometry", "box_hyperplane_clearance"),
    ("geometry.width", "core_picker.geometry", "simplex_width"),
    ("verify.membership", "core_picker.verify", "core_membership"),
]
CLI_HOOKS = [("cli.main", "core_picker.cli", "main")]


@dataclass
class Record:
    """One timed unit of work: a learner trial, or one CLI call."""

    ms: float
    trials: int             # 1 for a learner trial, CSV rows for a CLI call
    failed: int
    samples: list           # (configuration, bandit samples) of strict runs
    output: bytes           # what the output digest covers


# ----------------------------------------------------------------- checks

def learn_failed(unit_game: bool, stopped: bool, is_member: bool) -> bool:
    """A unit run must hit its cap; a strict run must stop inside the core."""
    if unit_game:
        return stopped
    return not stopped or not is_member


def count_failed_rows(text: str, header: str, expected: int, row_ok,
                      reference_sha256: str | None = None) -> int:
    """Failed rows of a CLI CSV: all of them on any mismatch of the whole
    file (reference digest, header or row count), else the rows ``row_ok``
    rejects."""
    if reference_sha256 is not None and sha256(text) != reference_sha256:
        return expected
    lines = text.splitlines()
    if len(lines) != expected + 1 or lines[0] != header:
        return expected
    return sum(1 for line in lines[1:] if not row_ok(line.split(",")))


def sweep_row_ok(cols) -> bool:
    """A strict sweep row must have stopped with no coalition violation."""
    try:
        return len(cols) == 5 and cols[3] == "true" and float(cols[4]) <= MEMBERSHIP_TOL
    except ValueError:
        return False


def cw_row_ok(cols) -> bool:
    """A cw row must report a positive, finite width and constant."""
    try:
        width, c_w = float(cols[2]), float(cols[3])
    except (IndexError, ValueError):
        return False
    return len(cols) == 4 and 0.0 < width < math.inf and 0.0 < c_w < math.inf


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -------------------------------------------------------------- workloads

@dataclass(frozen=True)
class LearnWorkload:
    """Blocks of in-process learner trials: generate, learn, verify."""

    # Runs in this process alone, so a run pins it to one core and corrects
    # each trial by the kernel timed on that core.
    pinned = True

    block: tuple            # (generator, n, perms, max_epochs or None) per trial
    core: int               # trials every untraced run completes
    trace_core: int         # trials of each pass of a traced run

    def units(self, seed: int):
        """One trial per unit, the block's trials in turn."""
        for b in itertools.count():
            for slot, spec in enumerate(self.block):
                yield [(spec, np.random.SeedSequence(seed, spawn_key=(b, slot)).spawn(2))]

    def warm_up(self, cp, seed: int) -> None:
        self.run(cp, next(self.units(seed)))

    def run(self, cp, unit) -> list:
        records = []
        for (gen, n, perms, max_epochs), (game_seed, oracle_seed) in unit:
            cap = {} if max_epochs is None else {"max_epochs": max_epochs}
            start = time.perf_counter()
            game = cp.gen_unit_game(n) if gen == "unit" else cp.gen_strictly_convex(n, game_seed)
            oracle = cp.RewardOracle(game, oracle_seed)
            report = cp.common_points_picking(
                oracle, cp.LearnerConfig(delta=DELTA, perm_choice=perms, **cap))
            member = cp.core_membership(game, report.allocation, tol=MEMBERSHIP_TOL)
            ms = (time.perf_counter() - start) * 1e3
            failed = learn_failed(gen == "unit", report.stopped_naturally, member.is_member)
            samples = [] if gen == "unit" else [(f"{gen}-n{n}-{perms}", report.samples)]
            output = (struct.pack("<qq", report.epochs, report.samples)
                      + np.asarray(report.allocation, dtype=np.float64).tobytes())
            records.append(Record(ms, 1, int(failed), samples, output))
        return records


@dataclass(frozen=True)
class CliWorkload:
    """Calls of ``cli.main`` whose CSV goes to a buffer and is checked."""

    # Runs on every core through the pool, so the kernel is timed on every
    # core while it runs.
    pinned = False

    args: tuple
    warm_up_args: tuple     # a one-row call of the same command
    header: str
    rows: int
    row_ok: object
    samples_col: int | None  # CSV column of bandit samples, if any
    reference: tuple        # (seed, sha256 of the CSV committed in out/)
    core: int
    trace_core: int

    def units(self, seed: int):
        yield self.reference[0]
        for i in itertools.count(1):
            yield seed * 1000 + i

    def call(self, cp, argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cp.cli.main(list(argv))
        return code, buf.getvalue()

    def warm_up(self, cp, seed: int) -> None:
        self.call(cp, [*self.warm_up_args, "--seed", str(seed)])

    def run(self, cp, call_seed: int) -> list:
        start = time.perf_counter()
        code, text = self.call(cp, [*self.args, "--seed", str(call_seed)])
        ms = (time.perf_counter() - start) * 1e3
        reference = self.reference[1] if call_seed == self.reference[0] else None
        failed = self.rows if code != 0 else count_failed_rows(
            text, self.header, self.rows, self.row_ok, reference)
        samples = []
        if self.samples_col is not None:
            for line in text.splitlines()[1:]:
                cols = line.split(",")
                with contextlib.suppress(IndexError, ValueError):
                    samples.append((f"strict-n{cols[0]}-adjacent", int(cols[self.samples_col])))
        return [Record(ms, self.rows, failed, samples, text.encode())]


WORKLOADS = {
    "learn-small": LearnWorkload(
        block=(("strict", 3, "adjacent", None), ("strict", 4, "adjacent", None),
               ("strict", 5, "adjacent", None), ("strict", 6, "adjacent", None),
               ("unit", 4, "adjacent", UNIT_MAX_EPOCHS)),
        core=150, trace_core=75),
    "learn-large": LearnWorkload(
        block=(("strict", 10, "adjacent", None), ("strict", 10, "adjacent", None),
               ("strict", 20, "cyclic", None)),
        core=36, trace_core=18),
    "sweep": CliWorkload(
        args=("sweep", "--gen", "strict", "--n-min", "2", "--n-max", "6", "--trials", "20"),
        warm_up_args=("sweep", "--gen", "strict", "--n-min", "2", "--n-max", "2",
                      "--trials", "1"),
        header="n,trial,samples,stopped,violation_max", rows=100,
        row_ok=sweep_row_ok, samples_col=2,
        # out/strict_sweep.csv
        reference=(42, "e141aae4c1b0bea3119bb416d0308aafd223ac086303d526c8fc321fa054ace2"),
        core=3, trace_core=2),
    "cw": CliWorkload(
        args=("cw", "--n", "10", "50", "--trials", "500"),
        warm_up_args=("cw", "--n", "10", "--trials", "1"),
        header="n,trial,width,c_w", rows=1000, row_ok=cw_row_ok, samples_col=None,
        # out/cw.csv
        reference=(0, "bf929e2fbd0a305af1f8eb2250565c4b8e22a7a64faa1020cc9939be57caf2dd"),
        core=3, trace_core=2),
}


# ------------------------------------------------------------- host speed

def reference_kernel() -> float:
    """Fixed work that uses nothing from the package, in the mix the learner
    spends its time on: small numpy draws and reductions, a 6x6 SVD and
    least-squares solve, and interpreter arithmetic."""
    rng = np.random.default_rng(12345)
    m = rng.standard_normal((6, 6))
    total = 0.0
    table = {}
    for i in range(40):
        for j in range(12):
            x = rng.uniform(0.0, 1.0, size=64)
            total += float(x.sum()) + float(x[:6] @ m[j % 6])
            table[i, j] = total
        total += float(np.linalg.svd(m, compute_uv=False)[-1])
        w, *_ = np.linalg.lstsq(m, m[:, i % 6], rcond=None)
        total += float(np.abs(w).max()) + float(np.argsort(x, kind="stable")[0])
        total += sum(k * 0.5 for k in range(60))
    return total


def kernel_ms() -> float:
    """CPU time of one reference kernel in this thread, so that time spent
    waiting for a core is left out and only the core's speed is measured."""
    start = time.thread_time()
    reference_kernel()
    return (time.thread_time() - start) * 1e3


class CoreSpeed:
    """Reference kernel timings on this process's one core, taken before the
    first unit of work and after each unit."""

    def __init__(self):
        reference_kernel()
        self.batches = [[kernel_ms() for _ in range(REFERENCE_MIN)]]

    def run(self, work):
        """Run `work()`, then the kernel at least REFERENCE_MIN times and for
        REFERENCE_SHARE of the work's time.  Returns the result and the
        work's wall seconds."""
        start = time.perf_counter()
        result = work()
        seconds = time.perf_counter() - start
        batch = []
        while len(batch) < REFERENCE_MIN or sum(batch) < REFERENCE_SHARE * seconds * 1e3:
            batch.append(kernel_ms())
        self.batches.append(batch)
        return result, seconds

    def scales(self) -> list:
        """The speed scale of each unit so far: REFERENCE_MS over the median
        of the kernel timings just before and after it, below 1 on a slow
        host."""
        return [REFERENCE_MS / statistics.median(before + after)
                for before, after in zip(self.batches, self.batches[1:])]


class PoolSpeed:
    """Reference kernel timings on every core of the process while each unit
    of work runs, for work that a pool spreads over the cores."""

    def __init__(self):
        reference_kernel()
        self.cores = sorted(os.sched_getaffinity(0))
        self.batches = []   # per unit, the kernel timings of each core

    def run(self, work):
        """Run `work()` while a thread pinned to each core times the kernel
        at once and then every PROBE_PERIOD_S.  Returns the result and the
        work's wall seconds."""
        batch = [[] for _ in self.cores]
        stop = threading.Event()

        def probe(core, times):
            os.sched_setaffinity(0, {core})     # the calling thread only
            times.append(kernel_ms())
            while not stop.wait(PROBE_PERIOD_S):
                times.append(kernel_ms())

        threads = [threading.Thread(target=probe, args=args) for args in zip(self.cores, batch)]
        for thread in threads:
            thread.start()
        try:
            start = time.perf_counter()
            result = work()
            seconds = time.perf_counter() - start
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        self.batches.append(batch)
        return result, seconds

    def scales(self) -> list:
        """The speed scale of each unit so far: REFERENCE_MS over the mean,
        across cores, of each core's median kernel time during the unit."""
        return [REFERENCE_MS / statistics.fmean(statistics.median(times) for times in batch)
                for batch in self.batches]


# ------------------------------------------------------------- statistics

def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND values beyond it.

    Returns (value, percentile, count).  The value is the (TAIL_BEYOND+1)-th
    largest; with no more than TAIL_BEYOND values there is no such
    percentile, and the largest value is returned as percentile 100.
    """
    xs = sorted(values)
    count = len(xs)
    if count == 0:
        raise ValueError("no values")
    i = count - TAIL_BEYOND - 1 if count > TAIL_BEYOND else count - 1
    return xs[i], 100.0 * (i + 1) / count, count


def samples_p50(records) -> tuple[float, dict]:
    """Geometric mean over configurations of the median samples to stop.

    Medians are taken per configuration because sample counts differ by
    orders of magnitude across n; a pooled median would sit on the gap.
    With no learner trials (``cw``) the mean is over nothing and reads 1,
    the empty product.
    """
    by_config = defaultdict(list)
    for record in records:
        for config, samples in record.samples:
            by_config[config].append(samples)
    medians = {c: statistics.median(v) for c, v in sorted(by_config.items())}
    if not medians:
        return 1.0, medians
    return math.exp(statistics.fmean(math.log(m) for m in medians.values())), medians


def digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(record.output)
    return h.hexdigest()


def closed_loop(workload, cp, units, seconds: float, minimum: int, host):
    """Run units back to back through `host`, until `seconds` have passed and
    `minimum` units are done.  Returns the records and seconds of each unit."""
    done, unit_s = [], []
    start = time.perf_counter()
    for unit in units:
        records, unit_seconds = host.run(lambda: workload.run(cp, unit))
        done.append(records)
        unit_s.append(unit_seconds)
        if len(done) >= minimum and time.perf_counter() - start >= seconds:
            break
    return done, unit_s


def flat(units) -> list:
    return [record for unit in units for record in unit]


# ------------------------------------------------------------------- runs

def interpreter_s(code: str, env: dict) -> float:
    """Wall time of a fresh interpreter running `code`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def measure_setup() -> tuple[float, float]:
    """Set-up time, corrected and raw: the median over SETUP_REPEATS of a
    fresh interpreter importing the package and CLI, timed next to one
    importing numpy alone, in alternating order."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    pairs = []
    for i in range(SETUP_REPEATS):
        order = (SETUP_CODE, REFERENCE_SETUP_CODE)
        times = {code: interpreter_s(code, env) for code in (order[::-1] if i % 2 else order)}
        pairs.append((times[SETUP_CODE], times[REFERENCE_SETUP_CODE]))
    ratio = statistics.median(setup / reference for setup, reference in pairs)
    return REFERENCE_SETUP_S * ratio, statistics.median(setup for setup, _ in pairs)


def timings(units, unit_s, unit_scales) -> tuple[dict, tuple]:
    """The timed end-to-end metrics of the units, each time multiplied by its
    unit's scale, and the tail's (value, percentile, count)."""
    ms = [r.ms * scale for unit, scale in zip(units, unit_scales) for r in unit]
    tail_ms = tail(ms)
    return {
        "trials_per_s": sum(r.trials for r in flat(units))
        / sum(t * scale for t, scale in zip(unit_s, unit_scales)),
        "run_ms_p50": statistics.median(ms),
        "run_ms_tail": tail_ms[0],
    }, tail_ms


def run_untraced(workload, cp, seed: int, seconds: float):
    setup_s, raw_setup_s = measure_setup()
    if workload.pinned:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload.warm_up(cp, seed)
    host = CoreSpeed() if workload.pinned else PoolSpeed()
    units, unit_s = closed_loop(workload, cp, workload.units(seed), seconds, workload.core, host)
    scales = host.scales()
    metrics, (_, tail_pct, count) = timings(units, unit_s, scales)
    raw, _ = timings(units, unit_s, [1.0] * len(units))
    p50, medians = samples_p50(flat(units[:workload.core]))
    metrics = {"setup_s": setup_s, **metrics, "samples_p50": p50,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    details = {
        "raw_timings": {"setup_s": raw_setup_s, **raw},
        "unit_scales": scales,
        "reference_ms": host.batches,
        "units_run": len(units),
        "core_units": workload.core,
        "run_ms_tail_percentile": tail_pct,
        "run_ms_timed": count,
        "samples_median_by_config": medians,
        "output_digest": digest(flat(units[:workload.core])),
    }
    return flat(units), metrics, details


def run_traced(workload, cp, seed: int):
    """Untraced and traced passes over the same trace units, interleaved unit
    by unit so that drift in machine speed falls on every pass alike."""
    units = list(itertools.islice(workload.units(seed), workload.trace_core))
    workload.warm_up(cp, seed)
    cli_workload = isinstance(workload, CliWorkload)
    # (name, hooks, run the CLI serially); pool workers must run untraced code,
    # so the pooled pass hooks cli.main only.
    passes = ([("pooled untraced", CLI_HOOKS, False), ("serial untraced", (), True),
               ("serial traced", HOOKS, True)] if cli_workload
              else [("untraced", (), False), ("traced", HOOKS, False)])
    records = {name: [] for name, _, _ in passes}
    elapsed = dict.fromkeys(records, 0.0)
    tracer = Tracer()
    for unit in units:
        for name, hooks, serial in passes:
            env = {"CORE_PICKER_THREADS": "1"} if serial else {}
            with mock.patch.dict(os.environ, env):
                tracer.install(hooks)
                try:
                    start = time.perf_counter()
                    records[name] += workload.run(cp, unit)
                    elapsed[name] += time.perf_counter() - start
                finally:
                    tracer.remove()
    rates = [sum(r.trials for r in records[name]) / elapsed[name] for name, _, _ in passes]
    wall_s = busy_s = 0.0
    workers = 1
    if cli_workload:
        if "cli.main" in tracer.stats:
            wall_s = tracer.stats["cli.main"].total_ns / 1e9
        busy_s = elapsed["serial untraced"]
        workers = pool_workers(cp) or 1
    metrics = layer_metrics(tracer, wall_s, busy_s, workers, rates[-2], rates[-1])
    details = {
        "trace_units": len(units),
        "passes": {name: {"seconds": elapsed[name], "trials_per_s": rate}
                   for (name, _, _), rate in zip(passes, rates)},
        "pool_workers": workers,
        "missing_hooks": tracer.missing,
        "output_digest": digest(records[passes[-1][0]]),
    }
    return [r for name in records for r in records[name]], metrics, details


def layer_metrics(tracer, wall_s, busy_s, workers, untraced_rate, traced_rate) -> dict:
    """Per-layer metrics from the traced pass; those resting on a missing
    hook are left out rather than reported as zero."""
    stats = tracer.stats

    def calls(key):
        return stats[key].calls if key in stats else 0

    def per(total, count):
        return total / count if count else 0.0

    def mean_us(key, self_only=False):
        if key not in stats:
            return 0.0
        ns = stats[key].self_ns if self_only else stats[key].total_ns
        return per(ns / 1e3, stats[key].calls)

    table = {
        "games.generate_us": (("games.generate",), lambda: mean_us("games.generate")),
        "games.prefix_coalitions_calls": (("games.prefix_coalitions",),
                                          lambda: calls("games.prefix_coalitions")),
        "oracle.calls": (("oracle.call",), lambda: calls("oracle.call")),
        "oracle.us_per_call": (("oracle.call",), lambda: mean_us("oracle.call")),
        "oracle.calls_per_advance": (("oracle.call", "learner.advance"),
                                     lambda: per(calls("oracle.call"), calls("learner.advance"))),
        "learner.advances_per_run": (("learner.advance", "learner.run"),
                                     lambda: per(calls("learner.advance"), calls("learner.run"))),
        "learner.checks_per_run": (("learner.check", "learner.run"),
                                   lambda: per(calls("learner.check"), calls("learner.run"))),
        "learner.advance_self_us": (("learner.advance", "oracle.call", "games.prefix_coalitions"),
                                    lambda: mean_us("learner.advance", self_only=True)),
        "learner.check_us": (("learner.check",), lambda: mean_us("learner.check")),
        "learner.run_self_us": (("learner.run", "learner.advance", "learner.check"),
                                lambda: mean_us("learner.run", self_only=True)),
        "geometry.separate_calls": (("geometry.separate",), lambda: calls("geometry.separate")),
        "geometry.separate_us": (("geometry.separate",), lambda: mean_us("geometry.separate")),
        "geometry.clearance_us": (("geometry.clearance",), lambda: mean_us("geometry.clearance")),
        "geometry.width_us": (("geometry.width",), lambda: mean_us("geometry.width")),
        "verify.membership_us": (("verify.membership",), lambda: mean_us("verify.membership")),
        "cli.wall_s": (("cli.main",), lambda: wall_s),
        "cli.busy_s": ((), lambda: busy_s),
        "cli.pool_efficiency": (("cli.main",), lambda: per(busy_s, workers * wall_s)),
        "trace.untraced_trials_per_s": ((), lambda: untraced_rate),
        "trace.overhead_share": ((), lambda: 1.0 - traced_rate / untraced_rate),
    }
    return {name: value() for name, (keys, value) in table.items()
            if not tracer.missing_keys.intersection(keys)}


# ------------------------------------------------------------------- main

def pool_workers(cp) -> int | None:
    """Worker count the CLI's pool would use now; None if it has no pool."""
    worker_count = getattr(cp.cli, "_worker_count", None)
    return worker_count() if worker_count else None


def environment(cp) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "pool_workers": pool_workers(cp),
        "CORE_PICKER_THREADS": os.environ.get("CORE_PICKER_THREADS"),
    }


def seed_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=seed_arg, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "core_picker", "__init__.py")):
        print(f"perfbench: no core_picker package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import core_picker as cp
    import core_picker.cli  # noqa: F401  (binds cp.cli)

    workload = WORKLOADS[args.workload]
    if args.trace:
        records, metrics, details = run_traced(workload, cp, args.seed)
        catalog = {k: v[:2] for k, v in LAYER_METRICS.items()}
    else:
        records, metrics, details = run_untraced(workload, cp, args.seed, args.seconds)
        catalog = END_TO_END
    attempted = sum(r.trials for r in records)
    failed = sum(r.failed for r in records)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": catalog[name][0]}
                    for name, value in metrics.items()},
    }
    details["failed_share"] = failed / attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(cp),
        "result": result,
        "details": details,
        "layer_targets": {k: v[2] for k, v in LAYER_METRICS.items()},
    }
    suffix = ".trace" if args.trace else ""
    with open(os.path.join(ROOT, f"BENCH_{args.workload}{suffix}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {catalog[name][0]}")
    for key in ("failed_share", "output_digest", "missing_hooks"):
        if key in details:
            print(f"{key:32s} {details[key]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
