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

The rule is checked once per window, the scheduled check epochs in
(2^j, 2^(j+1)].  The run saves the oracle's state, advances through the
window, stacks the totals of each check epoch, and decides the whole window
in one stacked solve.  If some epoch passes, the oracle is rewound to the
saved state and the window's advances are replayed up to the first passing
epoch, so the random stream, the sample count and the report are exactly
those of checking epoch by epoch.  The price is the advances past the first
passing epoch and their replay, at most one window's worth, once per run.

A run's state is built once from the n permutations, as their prefix masks
``chains`` and the gather ``index`` of their player ranks, plus one n x n
array ``totals`` of summed prefix rewards.

Each estimate is shifted onto the efficiency plane of the true mu(N), which
treats mu(N) as known and reads it from the game (``oracle.game.mu_grand``):
the one value the learner takes from anywhere but the bandit's rewards.
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


def resolve_permutations(choice: str, n: int) -> list[Permutation]:
    """The n arrival orders of a permutation choice.

    "adjacent" is the identity plus its n-1 adjacent-transposition
    neighbours; "cyclic" the n rotations.
    """
    if choice == "adjacent":
        return adjacent_permutations(Permutation.identity(n))
    if choice == "cyclic":
        return cyclic_permutations(n)
    raise ValueError(f"unknown permutation choice {choice!r}; use adjacent or cyclic")


@dataclass(frozen=True)
class LearnerConfig:
    """Settings of one run.

    ``perm_choice`` is "adjacent" or "cyclic" (:func:`resolve_permutations`);
    ``max_epochs`` is at most 2**63 - 1, numpy's largest binomial count.
    """

    delta: float
    perm_choice: str = "adjacent"
    max_epochs: int = DEFAULT_MAX_EPOCHS

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly between 0 and 1")
        if not 1 <= self.max_epochs <= 2**63 - 1:
            raise ValueError("max_epochs must lie in 1..2**63 - 1")


def run_epochs(totals: np.ndarray, oracle: RewardOracle, chains, k: int) -> None:
    """Advance k epochs: add k rewards of every prefix chains[p][i] to totals[p, i].

    ``totals[p, i]`` is the summed reward of the (i+1)-th arrival prefix of
    permutation p; the n^2 prefix sums are drawn in row-major order and added
    to ``totals`` in one array add.
    """
    query_sum = oracle.query_sum
    totals += [[query_sum(coalition, k) for coalition in chain] for chain in chains]


def rank_index(ranks: np.ndarray) -> np.ndarray:
    """Flat positions p * n + ranks[p, i] of an n x n table, built once per run.

    Gathering a by-rank table at these positions puts row p in player order
    (``ranks[p, i]`` is the rank of player i under permutation p).
    """
    n = len(ranks)
    return ranks + n * np.arange(n)[:, None]


def vertex_estimates(totals: np.ndarray, epochs, index: np.ndarray,
                     mu_grand: float) -> np.ndarray:
    """Row p: the mean marginal vector of permutation p, player-indexed,
    shifted onto the efficiency hyperplane of ``mu_grand``.

    Prefix totals telescope into per-rank means, which ``index`` (from
    :func:`rank_index`) gathers into player order.  ``totals`` is one n x n
    table, or a (w, n, n) stack with ``epochs`` a length-w sequence.
    """
    by_rank = np.array(totals, dtype=np.float64)
    by_rank[..., 1:] -= totals[..., :-1]
    by_rank /= np.asarray(epochs, dtype=np.float64)[..., None, None]
    n = by_rank.shape[-1]
    # take keeps the result C-ordered, so each row sums as in the n x n case
    estimates = by_rank.reshape(by_rank.shape[:-2] + (n * n,)).take(index, axis=-1)
    estimates += (mu_grand - estimates.sum(axis=-1, keepdims=True)) / n
    return estimates


def stopping_condition(estimates, bonus):
    """Whether every estimated vertex clears its separating hyperplane.

    With margin eps = 2 sqrt(n) * bonus, the hyperplane through the other
    points shifted by eps toward x^p must clear the confidence box around x^p
    by at least n * eps: altitude_p - eps - bonus * ||v_p||_1 >= n * eps for
    the unit facet normal v_p.  Degenerate estimates (NaN altitudes) fail.

    A (..., n, n) stack of estimates with a matching stack of bonuses is
    decided in one stacked solve and gives a boolean array of that shape.
    """
    normals, altitudes = separating_normals(estimates)
    n = altitudes.shape[-1]
    bonus = np.asarray(bonus, dtype=np.float64)[..., None]
    eps = 2.0 * math.sqrt(n) * bonus
    clearance = altitudes - eps - bonus * np.abs(normals).sum(axis=-1)
    return np.all(clearance >= n * eps, axis=-1)


def check_window(epoch: int, max_epochs: int) -> list[int]:
    """The scheduled checks after ``epoch`` in the doubling window of the next.

    Checks fall on every epoch up to ``CHECK_DENSE_UNTIL``, then grow by
    ``CHECK_GROWTH``, and the last one is ``max_epochs``.  The next check t
    lies in the window (2^j, 2^(j+1)] with 2^j < t <= 2^(j+1).
    """
    def following(t):
        step = t + 1 if t < CHECK_DENSE_UNTIL else max(t + 1, int(t * CHECK_GROWTH))
        return min(step, max_epochs)

    window = [following(epoch)]
    end = 1 << (window[0] - 1).bit_length()
    while window[-1] < max_epochs and following(window[-1]) <= end:
        window.append(following(window[-1]))
    return window


@dataclass(frozen=True)
class RunReport:
    allocation: np.ndarray
    epochs: int
    samples: int
    stopped_naturally: bool
    estimates: np.ndarray  # (n, n): final vertex estimates, one row per permutation
    bonus: float  # confidence radius at the final epoch


def common_points_picking(oracle: RewardOracle, config: LearnerConfig) -> RunReport:
    """Run the learner to its stopping condition or the epoch cap.

    Returns the averaged estimate either way; ``stopped_naturally`` is False
    when the cap was hit first (the expected outcome on games whose core has
    an empty interior).
    """
    n = oracle.game.n
    perms = resolve_permutations(config.perm_choice, n)
    chains = [prefix_coalitions(w) for w in perms]
    index = rank_index(np.array([w.ranks for w in perms]))
    totals = np.zeros((n, n))
    epoch = 0
    while epoch < config.max_epochs:
        start, saved = epoch, oracle.state
        window = check_window(epoch, config.max_epochs)
        stack = np.empty((len(window), n, n))
        for i, target in enumerate(window):
            run_epochs(totals, oracle, chains, target - epoch)
            epoch = target
            stack[i] = totals
        estimates = vertex_estimates(stack, window, index, oracle.game.mu_grand)
        bonuses = [confidence_bonus(t, n, config.delta) for t in window]
        passed = stopping_condition(estimates, bonuses)
        if passed.any():
            first = int(passed.argmax())
            oracle.state = saved  # replay up to the first pass, as if checked epoch by epoch
            replay = np.zeros((n, n))
            for target in window[:first + 1]:
                run_epochs(replay, oracle, chains, target - start)
                start = target
            return _report(estimates[first], window[first], bonuses[first], stopped=True)
    return _report(estimates[-1], epoch, bonuses[-1], stopped=False)


def _report(estimates: np.ndarray, epoch: int, bonus: float, stopped: bool) -> RunReport:
    n = len(estimates)
    return RunReport(
        allocation=mean_point(estimates),
        epochs=epoch,
        samples=epoch * n * n,
        stopped_naturally=stopped,
        estimates=estimates,
        bonus=bonus,
    )
