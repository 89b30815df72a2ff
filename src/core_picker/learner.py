"""Common-points picking: learn a core point from bandit feedback.

Each epoch queries the n arrival-prefix coalitions of n permutations (n^2
queries), telescopes the rewards into one marginal-vector sample per
permutation, and keeps running means.  The run stops once every estimated
vertex can be separated from the others by a hyperplane inside the efficiency
plane with clearance large relative to the confidence radius; the returned
allocation is the average of the estimates.

Epochs are advanced in batches between stopping checks (the oracle sums whole
batches of rewards at once), with check epochs spaced geometrically.  This
leaves the sampling distribution untouched and makes runs needing billions of
samples take milliseconds; the reported epoch is the first checked epoch at
which the stopping condition held, at most ``CHECK_GROWTH`` times the exact
one.

A run's state is built once from the n permutations, as their prefix masks
``chains`` and player ranks ``ranks``, plus one n x n array ``totals`` of
summed prefix rewards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import (
    Permutation,
    adjacent_permutations,
    cyclic_permutations,
    prefix_coalitions,
)
from .geometry import mean_point, separating_normals
from .oracle import RewardOracle

DEFAULT_MAX_EPOCHS = 10**12
CHECK_DENSE_UNTIL = 64  # check the stopping rule every epoch up to here
CHECK_GROWTH = 1.05     # then space checks geometrically


def confidence_bonus(ep: int, n: int, delta: float) -> float:
    """Per-coordinate confidence radius sqrt(2 log(n ep / delta) / ep)."""
    if ep < 1:
        raise ValueError("epoch must be at least 1")
    return math.sqrt(2.0 * math.log(n * ep / delta) / ep)


def resolve_permutations(choice, n: int) -> list[Permutation]:
    """Expand a permutation choice into n distinct arrival orders.

    "adjacent" is the identity plus its n-1 adjacent-transposition
    neighbours; "cyclic" the n rotations; anything else must be an explicit
    sequence of n distinct Permutations.
    """
    if choice == "adjacent":
        perms = adjacent_permutations(Permutation.identity(n))
    elif choice == "cyclic":
        perms = cyclic_permutations(n)
    else:
        perms = list(choice)
    if len(perms) != n:
        raise ValueError(f"need exactly {n} permutations, got {len(perms)}")
    if len({p.ranks for p in perms}) != n:
        raise ValueError("permutations must be distinct")
    for p in perms:
        if p.n != n:
            raise ValueError("permutation size does not match the game")
    return perms


@dataclass(frozen=True)
class LearnerConfig:
    delta: float
    perm_choice: object = "adjacent"  # "adjacent" | "cyclic" | sequence of Permutation
    max_epochs: int = DEFAULT_MAX_EPOCHS
    project_to_hn: bool = True

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly between 0 and 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")


def run_epochs(totals: np.ndarray, oracle: RewardOracle, chains, k: int) -> None:
    """Advance k epochs: add k rewards of every prefix chains[p][i] to totals[p, i].

    ``totals[p, i]`` is the summed reward of the (i+1)-th arrival prefix of
    permutation p; the n^2 prefix sums are drawn in row-major order.
    """
    for p, chain in enumerate(chains):
        for i, coalition in enumerate(chain):
            totals[p, i] += oracle.query_sum(coalition, k)


def vertex_estimates(totals: np.ndarray, epochs: int, ranks: np.ndarray,
                     mu_grand: float | None = None) -> np.ndarray:
    """Row p: the mean marginal vector of permutation p, player-indexed.

    Prefix totals telescope into per-rank means, and ``ranks[p, i]`` (the rank
    of player i under permutation p) picks player i's entry.  With
    ``mu_grand`` each row is shifted onto the efficiency hyperplane.
    """
    by_rank = np.diff(totals, axis=1, prepend=0.0) / epochs
    estimates = np.take_along_axis(by_rank, ranks, axis=1)
    if mu_grand is not None:
        estimates += (mu_grand - estimates.sum(axis=1, keepdims=True)) / len(ranks)
    return estimates


def stopping_condition(estimates, bonus: float) -> bool:
    """True when every estimated vertex clears its separating hyperplane.

    With margin eps = 2 sqrt(n) * bonus, the hyperplane through the other
    points shifted by eps toward x^p must clear the confidence box around x^p
    by at least n * eps: altitude_p - eps - bonus * ||v_p||_1 >= n * eps for
    the unit facet normal v_p.  Degenerate estimates fail the check.
    """
    n = len(estimates)
    if n == 0:
        return False
    fit = separating_normals(estimates)
    if fit is None:
        return False
    normals, altitudes = fit
    eps = 2.0 * math.sqrt(n) * bonus
    clearance = altitudes - eps - bonus * np.abs(normals).sum(axis=1)
    return bool(np.all(clearance >= n * eps))


@dataclass(frozen=True)
class RunReport:
    allocation: np.ndarray
    epochs: int
    samples: int
    stopped_naturally: bool
    estimates: tuple = ()   # final per-permutation vertex estimates
    bonus: float = float("nan")  # confidence radius at the final epoch


def common_points_picking(oracle: RewardOracle, config: LearnerConfig) -> RunReport:
    """Run the learner to its stopping condition or the epoch cap.

    Returns the averaged estimate either way; ``stopped_naturally`` is False
    when the cap was hit first (the expected outcome on games whose core has
    an empty interior).
    """
    n = oracle.game.n
    perms = resolve_permutations(config.perm_choice, n)
    chains = [prefix_coalitions(w) for w in perms]
    ranks = np.array([w.ranks for w in perms])
    mu_grand = oracle.game.mu_grand if config.project_to_hn else None
    totals = np.zeros((n, n))
    epoch = 0
    next_check = 1
    while epoch < config.max_epochs:
        target = min(next_check, config.max_epochs)
        run_epochs(totals, oracle, chains, target - epoch)
        epoch = target
        estimates = vertex_estimates(totals, epoch, ranks, mu_grand)
        bonus = confidence_bonus(epoch, n, config.delta)
        if stopping_condition(estimates, bonus):
            return _report(estimates, epoch, bonus, stopped=True)
        if epoch < CHECK_DENSE_UNTIL:
            next_check = epoch + 1
        else:
            next_check = max(epoch + 1, int(epoch * CHECK_GROWTH))
    return _report(estimates, epoch, bonus, stopped=False)


def _report(estimates: np.ndarray, epoch: int, bonus: float, stopped: bool) -> RunReport:
    n = len(estimates)
    return RunReport(
        allocation=mean_point(estimates),
        epochs=epoch,
        samples=epoch * n * n,
        stopped_naturally=stopped,
        estimates=tuple(estimates),
        bonus=bonus,
    )
