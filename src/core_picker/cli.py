"""Command-line harness for desk-scale experiments.

Three subcommands: ``learn`` runs the learner once and verifies the returned
allocation, ``sweep`` measures sample counts across player counts (the
sample-complexity figure), ``cw`` measures the width constant of
cyclic-permutation vertex simplices over random strictly convex games.

All outputs are CSV with fixed headers; rows are computed in parallel worker
processes and sorted before writing, so outputs are byte-identical for a fixed
seed regardless of worker count.  A call starts at most min(requested, CPU
count, jobs) workers, where CORE_PICKER_THREADS sets the request (default 8).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .games import (
    MAX_PLAYERS,
    gen_convex_boundary,
    gen_permutahedron,
    gen_strictly_convex,
    gen_unit_game,
    marginal_increments,
)
from .geometry import MEMBERSHIP_TOL, simplex_width
from .learner import DEFAULT_MAX_EPOCHS, PERMUTATIONS, LearnerConfig, common_points_picking
from .oracle import NOISE_MODELS, RewardOracle
from .verify import core_membership

MAX_CW_PLAYERS = 200  # a trial's cost grows as n^4; this keeps a 500-trial call to minutes
MAX_TRIALS = 10_000   # per player count; the job list is built before any worker starts

GENERATORS = {
    "strict": gen_strictly_convex,
    "convex": gen_convex_boundary,
    "unit": lambda n, seed: gen_unit_game(n),
    "permutahedron": lambda n, seed: gen_permutahedron(n),
}


def trial_streams(seed: int, n: int, trial: int):
    """Independent (game, oracle) seed streams derived from one root seed."""
    root = np.random.SeedSequence(entropy=seed, spawn_key=(n, trial))
    return root.spawn(2)


def run_single(n, gen, perm_choice, delta, seed, noise, max_epochs, trial=0):
    """One full pipeline run: generate, learn, verify.  Returns a result dict."""
    config = LearnerConfig(delta=delta, perm_choice=perm_choice, max_epochs=max_epochs)
    game_stream, oracle_stream = trial_streams(seed, n, trial)
    game = GENERATORS[gen](n, game_stream)
    oracle = RewardOracle(game, oracle_stream, noise)
    report = common_points_picking(oracle, config)
    check = core_membership(game, report.allocation, tol=MEMBERSHIP_TOL)
    return {
        "n": n,
        "epochs": report.epochs,
        "samples": report.samples,
        "stopped": report.stopped_naturally,
        "violation_max": check.max_violation,
        "efficiency_gap": check.efficiency_gap,
        "is_member": check.is_member,
        "allocation": report.allocation,
    }


def _sweep_worker(args):
    n, trial, gen, perm_choice, delta, seed, max_epochs = args
    r = run_single(n, gen, perm_choice, delta, seed, "bernoulli", max_epochs, trial)
    return (n, trial, r["samples"], r["stopped"], r["violation_max"])


def _cw_worker(args):
    n, trial, seed = args
    game_stream, _ = trial_streams(seed, n, trial)
    increments = marginal_increments(n, game_stream, coeff=0.9)
    margin = float(np.min(np.diff(increments)))
    vertices = increments[(np.arange(n)[:, None] + np.arange(n)) % n]  # row k: rotation by k
    width = simplex_width(vertices)
    return (n, trial, width, n * margin / width)


def _worker_count() -> int:
    """Pool size: CORE_PICKER_THREADS (default 8), at most the CPU count."""
    value = os.environ.get("CORE_PICKER_THREADS", "8")
    try:
        requested = max(1, int(value))
    except ValueError:  # int() would name the value but not where it came from
        raise ValueError(f"CORE_PICKER_THREADS must be an integer, not {value!r}") from None
    return min(requested, os.cpu_count() or 1)


def _parallel_map(fn, jobs):
    # a fork pool starts all its workers at the first submit, so size it to the jobs
    workers = min(_worker_count(), len(jobs))
    if workers <= 1:
        return [fn(j) for j in jobs]
    # imported here, so that learn and the package import load no multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=max(1, len(jobs) // (4 * workers))))


def _write_csv(path, header, rows):
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)  # shortest digits that round-trip the double exactly
    return str(v)


def cmd_learn(args) -> int:
    r = run_single(args.n, args.gen, args.perms, args.delta, args.seed,
                   args.noise, args.max_epochs)
    alloc = " ".join(repr(float(v)) for v in r["allocation"])
    print(f"allocation: {alloc}")
    row = (args.n, args.delta, args.perms, args.seed, r["epochs"],
           r["samples"], r["stopped"], r["violation_max"])
    _write_csv(args.out, "n,delta,perm_choice,seed,epochs,samples,stopped,violation_max", [row])
    if r["stopped"] and not r["is_member"]:
        return 1
    return 0


def cmd_sweep(args) -> int:
    LearnerConfig(delta=args.delta, max_epochs=args.max_epochs)  # fail before any worker starts
    # a job's cost grows with n: start the costliest, so the pool ends on cheap ones
    jobs = [
        (n, t, args.gen, args.perms, args.delta, args.seed, args.max_epochs)
        for n in range(args.n_max, args.n_min - 1, -1)
        for t in range(args.trials)
    ]
    rows = sorted(_parallel_map(_sweep_worker, jobs))
    _write_csv(args.out, "n,trial,samples,stopped,violation_max", rows)
    return 0


def cmd_cw(args) -> int:
    jobs = [(n, t, args.seed) for n in sorted(args.n, reverse=True)  # costliest first
            for t in range(args.trials)]
    rows = sorted(_parallel_map(_cw_worker, jobs))
    _write_csv(args.out, "n,trial,width,c_w", rows)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="core-picker",
        description="Expected-core learning experiments for convex stochastic games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="one learner run plus core verification")
    learn.add_argument("--n", type=int, required=True)
    learn.add_argument("--gen", choices=sorted(GENERATORS), default="strict")
    learn.add_argument("--noise", choices=NOISE_MODELS, default="bernoulli",
                       help="reward model: bernoulli, or none for rewards equal "
                            "to their means")
    learn.set_defaults(fn=cmd_learn)

    sweep = sub.add_parser("sweep", help="sample counts across player counts")
    sweep.add_argument("--n-min", type=int, default=2)
    sweep.add_argument("--n-max", type=int, default=6)
    sweep.add_argument("--trials", type=int, default=20,
                       help=f"trials per player count, in 1..{MAX_TRIALS}")
    sweep.add_argument("--gen", choices=["strict", "convex"], default="strict")
    sweep.set_defaults(fn=cmd_sweep)

    cw = sub.add_parser("cw", help="width constant of cyclic-vertex simplices")
    cw.add_argument("--n", type=int, nargs="+", default=[10, 50],
                    help=f"distinct player counts, each in 2..{MAX_CW_PLAYERS}; a trial "
                         "runs n SVDs of an n x (n-1) matrix, so its cost grows as n^4")
    cw.add_argument("--trials", type=int, default=500,
                    help=f"trials per player count, in 1..{MAX_TRIALS}")
    cw.set_defaults(fn=cmd_cw)

    for command in (learn, sweep):
        command.add_argument("--perms", choices=sorted(PERMUTATIONS), default="adjacent")
        command.add_argument("--delta", type=float, default=0.1)
        command.add_argument("--max-epochs", type=int, default=DEFAULT_MAX_EPOCHS)
    for command in (learn, sweep, cw):
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--out", default=None, help="CSV path (default stdout)")
        command.set_defaults(parser=command)
    return parser


def _validate(parser, args) -> None:
    """Range checks owned by the CLI; the domain types check everything else."""
    if args.seed < 0:  # numpy's SeedSequence would reject it without naming the option
        parser.error("--seed must be nonnegative")
    if args.command in ("sweep", "cw"):
        _worker_count()  # a bad CORE_PICKER_THREADS raises before any job is built
        if not 1 <= args.trials <= MAX_TRIALS:
            parser.error(f"--trials must be in 1..{MAX_TRIALS}")
    if args.command == "learn" and not 2 <= args.n <= MAX_PLAYERS:
        parser.error(f"--n must be in 2..{MAX_PLAYERS}")  # before trial_streams sees it
    if args.command == "sweep" and not 2 <= args.n_min <= args.n_max <= 10:
        parser.error("need 2 <= n-min <= n-max <= 10")
    if args.command == "cw" and any(not 2 <= n <= MAX_CW_PLAYERS for n in args.n):
        parser.error(f"--n entries must be in 2..{MAX_CW_PLAYERS}")
    if args.command == "cw" and len(set(args.n)) < len(args.n):
        parser.error("--n entries must be distinct")  # a repeat would run its trials twice
    if args.out is not None:
        fresh = not os.path.lexists(args.out)
        try:  # append mode keeps an existing file; the run rewrites it at the end
            open(args.out, "a").close()
        except OSError as exc:
            parser.error(f"--out {args.out}: {exc.strerror}")
        if fresh:  # a run that fails later with a usage error leaves no empty file
            os.remove(args.out)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:  # errors print the usage of the chosen subcommand
        _validate(args.parser, args)
        return args.fn(args)
    except ValueError as exc:  # a bad CORE_PICKER_THREADS, game, oracle or learner setting
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
