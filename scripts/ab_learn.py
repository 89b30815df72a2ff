#!/usr/bin/env python3
"""In-process A/B of the learner on two source trees.

Usage, from the repository root:

    python3 scripts/ab_learn.py PARENT_ROOT CHANGE_ROOT --workload learn-small --rounds 60

Each tree's ``src/core_picker`` is imported into this one process under a
module name of its own, and both run the same trials of a learn workload of
``perfbench/run.py`` (this repository's copy, used as it is).  A round runs
one block of the workload's trials on each tree, the tree that goes first
alternating from round to round.  The process is pinned to one core and each
block is timed in this thread's CPU time, so time spent waiting for the core
is left out.  Every trial's output bytes and failure flag must be equal on
both trees.  After the timed rounds, each tree runs one more block, untimed,
under ``tracemalloc``.  The last line gives the median ratio of the change's
time to the parent's over the rounds, how many rounds the change took less
time, the quartiles of each tree's block time in ms, so a ratio can be read
against the parent's own spread, and each tree's traced peak in MiB over its
untimed block.
"""

import argparse
import importlib.util
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run as bench  # noqa: E402


def load(root, name):
    """The package in ``root/src/core_picker``, imported as ``name``."""
    package = os.path.join(os.path.abspath(root), "src", "core_picker")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # before running it, so its relative imports resolve
    spec.loader.exec_module(module)
    return module


def timed_block(workload, cp, block):
    """CPU seconds of one block of trials, and each trial's (output, failed)."""
    start = time.thread_time()
    records = [record for unit in block for record in workload.run(cp, unit)]
    return time.thread_time() - start, [(r.output, r.failed) for r in records]


def traced_peak(workload, cp, block):
    """The peak MiB that ``tracemalloc`` sees over one untimed block of trials."""
    tracemalloc.start()
    try:
        timed_block(workload, cp, block)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None):
    learn = [name for name, w in bench.WORKLOADS.items() if isinstance(w, bench.LearnWorkload)]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the tree to compare against")
    parser.add_argument("change", help="root of the changed tree")
    parser.add_argument("--workload", choices=learn, default="learn-small")
    parser.add_argument("--rounds", type=int, default=60)
    args = parser.parse_args(argv)
    workload = bench.WORKLOADS[args.workload]
    trees = (load(args.parent, "ab_parent"), load(args.change, "ab_change"))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for cp in trees:
        workload.warm_up(cp, 0)
    units, blocks = workload.units(0), []  # (parent, change) CPU seconds per round
    for r in range(args.rounds):
        block = [next(units) for _ in workload.block]
        first = r % 2
        results = {i: timed_block(workload, trees[i], block) for i in (first, 1 - first)}
        if results[0][1] != results[1][1]:
            sys.exit(f"round {r}: the trees' outputs differ")
        blocks.append((results[0][0], results[1][0]))
    block = [next(units) for _ in workload.block]
    peaks = [traced_peak(workload, cp, block) for cp in trees]
    ratios = [change / parent for parent, change in blocks]
    won = sum(ratio < 1.0 for ratio in ratios)
    parent, change = ("/".join(f"{q:.1f}" for q in np.percentile(t, (25, 50, 75)) * 1e3)
                      for t in zip(*blocks))
    print(f"{args.workload}: median time ratio change/parent {statistics.median(ratios):.4f}, "
          f"change won {won} of {len(ratios)} rounds, "
          f"block ms quartiles parent {parent} change {change}, "
          f"traced peak MiB parent {peaks[0]:.2f} change {peaks[1]:.2f}")


if __name__ == "__main__":
    main()
