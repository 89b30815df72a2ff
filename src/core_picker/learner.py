"""Common-points picking: learn a core point from bandit feedback.

Each epoch queries the n arrival-prefix coalitions of n permutations (n^2
queries), telescopes the rewards into one marginal-vector sample per
permutation, and keeps running means.  The run stops once every estimated
vertex can be separated from the others by a hyperplane inside the efficiency
plane with clearance large relative to the confidence radius; the returned
allocation is the average of the estimates.

Epochs are advanced in batches between checks (the oracle sums whole batches
at once), with check epochs spaced geometrically: the sampling distribution is
untouched, and a reported epoch is at most ``CHECK_GROWTH`` times the exact
one.  The checks of a window of :func:`check_schedule` are decided together;
when one passes, the oracle is rewound and replayed up to it, so the random
stream, the sample count and the report are those of checking every epoch.

A run's state is the flat row-major list ``prefixes`` of the n^2 prefix masks,
the rank gather ``index`` and one n x n array ``totals`` of prefix sums.

Each estimate is shifted onto the efficiency plane of the true mu(N), which
treats mu(N) as known: ``oracle.mu_grand`` is, besides n, the one value the
learner takes from anywhere but the bandit's rewards.
"""

from __future__ import annotations

import functools
import math
import operator
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
    """Per-coordinate confidence radius b = sqrt(2 log(n ep / delta) / ep).

    Hoeffding at b/2 gives each prefix mean a failure chance of 2 delta/(n ep)
    per check, so the union over the n^2 prefix means gives 2 n delta/ep; on
    that event each telescoped coordinate lies within b.  The projection onto
    mu(N) can add up to b/(2n), and summed over the C checks of
    :func:`check_schedule` (C = 549 at the default cap, 878 at 2**63 - 1) the
    failure chance exceeds delta.  ROADMAP item 5 closes that gap."""
    return math.sqrt(2.0 * math.log(n * ep / delta) / ep)


PERMUTATIONS = {  # the n arrival orders of each permutation choice
    "adjacent": lambda n: adjacent_permutations(Permutation.identity(n)),  # identity + swaps
    "cyclic": cyclic_permutations,  # the n rotations
}


def resolve_permutations(choice: str, n: int) -> list[Permutation]:
    """The n arrival orders of a permutation choice in :data:`PERMUTATIONS`."""
    build = PERMUTATIONS.get(choice) if isinstance(choice, str) else None
    if build is None:
        raise ValueError(f"unknown permutation choice {choice!r}; use {' or '.join(PERMUTATIONS)}")
    return build(n)


@dataclass(frozen=True)
class LearnerConfig:
    """Settings of one run.

    ``perm_choice`` is a key of :data:`PERMUTATIONS`; ``max_epochs`` is at
    most 2**63 - 1, numpy's largest binomial count.
    """

    delta: float
    perm_choice: str = "adjacent"
    max_epochs: int = DEFAULT_MAX_EPOCHS

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly between 0 and 1")
        try:  # whole epochs: a float cap would reach the report and the schedule cache
            object.__setattr__(self, "max_epochs", operator.index(self.max_epochs))
        except TypeError:
            raise ValueError(f"max_epochs must be an integer, not {self.max_epochs!r}") from None
        if not 1 <= self.max_epochs <= 2**63 - 1:
            raise ValueError("max_epochs must lie in 1..2**63 - 1")
        resolve_permutations(self.perm_choice, 2)  # rejects an unknown choice


def run_epochs(oracle: RewardOracle, prefixes, k: int) -> list:
    """The sums of k more rewards of every prefix, as one flat list.

    ``prefixes`` holds the n arrival prefixes of each permutation in turn, so
    entry p * n + i sums the rewards of the (i+1)-th prefix of permutation p.
    The n^2 sums are drawn in that row-major order, one ``query_sum`` each.
    """
    query_sum = oracle.query_sum
    return [query_sum(coalition, k) for coalition in prefixes]


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


def min_pass_altitude(n: int, bonus, l1):
    """The least altitude at which a vertex passes the stopping rule, for
    ``l1`` the 1-norm of its unit facet normal v.

    With margin eps = 2 sqrt(n) bonus, the plane through the other estimates,
    shifted by eps toward the vertex, must clear its confidence box of radius
    ``bonus``, which reaches bonus ||v||_1 along v, by n eps: altitude - eps -
    bonus ||v||_1 >= n eps.  A lower bound on ||v||_1 gives a lower floor.
    """
    return bonus * (2.0 * math.sqrt(n) * (n + 1) + l1)


SKIP_SLACK = 1e-9  # relative slack of the floors that skip checks, for their rounding


def stopping_condition(estimates, bonus):
    """Whether every estimated vertex x^p clears its separating hyperplane:
    its altitude is at least :func:`min_pass_altitude` of the 1-norm of its
    unit facet normal v_p from :func:`separating_normals`.

    Most checks are decided False before any solve, by a distance bound.  Let
    r be the distance from the estimates' mean to the nearest estimate, x^p.
    Its altitude is at most its distance n/(n-1) r to the centroid of the
    others, which lies on the opposite facet; the solve's move of each row
    along the all-ones direction onto coordinate sum n is an orthogonal
    projection, which keeps centroids and lengthens no distance, so this holds
    for the altitudes it measures, rows on different planes included.  So a
    check with n r below n - 1 times the floor at ||v_p||_1 = 1, less
    ``SKIP_SLACK`` for rounding in r and the floor, cannot pass.  Any computed
    unit vector has ||v_p||_1 >= 1, whatever rounding did to its zero sum; the
    (sqrt(2) - 1) bonus given up against an exact sum-zero normal, at least
    0.2% of the floor for n <= 20, absorbs the solve's rounding of the
    altitudes on the coordinates :func:`separating_normals` accepts.

    A (..., n, n) stack of estimates with a matching stack of bonuses gives a
    boolean array of that shape.  The checks the bound leaves are decided in
    one stacked solve; the solve and every reduction work one set at a time,
    so each boolean is the one a solve of every check gives.  Degenerate sets
    (NaN altitudes) and NaN or infinite estimates fail.
    """
    points = np.asarray(estimates, dtype=np.float64)
    n = points.shape[-1]
    bonus = np.asarray(bonus, dtype=np.float64)
    offsets = points - np.add.reduce(points, axis=-2, keepdims=True) / n
    nearest = np.sqrt(np.minimum.reduce(np.add.reduce(offsets * offsets, axis=-1), axis=-1))
    skip = min_pass_altitude(n, 1.0, 1.0) * ((n - 1) / n * (1.0 - SKIP_SLACK))  # linear in bonus
    solve = nearest >= bonus * skip
    passed = np.zeros(solve.shape, dtype=bool)
    if solve.any():
        normals, altitudes = separating_normals(points[solve])
        bonus = np.broadcast_to(bonus, solve.shape)[solve][:, None]
        floor = min_pass_altitude(n, bonus, np.abs(normals).sum(axis=-1))
        passed[solve] = np.logical_and.reduce(altitudes >= floor, axis=-1)
    return passed[()]  # a single set gives a numpy bool, not a 0-d array


def stop_bonus_ceiling(n: int) -> float:
    """The largest bonus at which :func:`stopping_condition` can pass on n
    estimates built from rewards in [0, 1].

    By-rank means, differences of means in [0, 1], lie in [-1, 1], and the
    projection onto the efficiency plane shortens distances, so no altitude
    exceeds 2 sqrt(n).  A unit sum-zero normal has 1-norm at least sqrt(2) (its
    positive and negative parts each sum to at least 1/sqrt(2)), so the
    ceiling is the bonus at which :func:`min_pass_altitude` at sqrt(2) reaches
    2 sqrt(n).  It is exact at n = 2: (1, -1) and (-1, 1) pass up to 2/7.
    """
    return 2.0 * math.sqrt(n) / min_pass_altitude(n, 1.0, math.sqrt(2.0))


@functools.lru_cache
def check_schedule(n: int, delta: float, max_epochs: int) -> tuple:
    """A run's checks as ``(epochs, bonuses)`` pairs, one per window (2^j, 2^(j+1)].

    Checks fall on every epoch up to ``CHECK_DENSE_UNTIL``, then grow by
    ``CHECK_GROWTH``, and the last one is ``max_epochs``.  The bonus falls with
    the epoch from epoch 2 on, so a window whose last bonus exceeds
    :func:`stop_bonus_ceiling` by more than ``SKIP_SLACK`` cannot stop: it
    gets ``bonuses`` None, and the run draws through it without estimates or
    a stopping test.  The window ending at the epoch cap is always decided, for
    the report's estimates.  Runs share the cached schedule, made of tuples.
    """
    windows, t = {}, 0
    while t < max_epochs:
        t = min(t + 1 if t < CHECK_DENSE_UNTIL else max(t + 1, int(t * CHECK_GROWTH)), max_epochs)
        windows.setdefault((t - 1).bit_length(), []).append(t)
    ceiling = stop_bonus_ceiling(n) * (1.0 + SKIP_SLACK)
    schedule = []
    for window in windows.values():
        bonuses = tuple(confidence_bonus(t, n, delta) for t in window)
        cannot_stop = window[-1] < max_epochs and bonuses[-1] > ceiling
        schedule.append((tuple(window), None if cannot_stop else bonuses))
    return tuple(schedule)


@dataclass(frozen=True)
class RunReport:
    estimates: np.ndarray  # (n, n): final vertex estimates, one row per permutation
    epochs: int
    bonus: float  # confidence radius at the final epoch
    stopped_naturally: bool

    @property
    def allocation(self) -> np.ndarray:
        return mean_point(self.estimates)

    @property
    def samples(self) -> int:
        return self.epochs * len(self.estimates) ** 2


def common_points_picking(oracle: RewardOracle, config: LearnerConfig) -> RunReport:
    """Run the learner to its stopping condition or the epoch cap.

    Returns the averaged estimate either way; ``stopped_naturally`` is False
    when the cap was hit first (the expected outcome on games whose core has
    an empty interior).
    """
    n = oracle.n
    perms = resolve_permutations(config.perm_choice, n)
    prefixes = [S for w in perms for S in prefix_coalitions(w)]
    index = rank_index(np.array([w.ranks for w in perms]))
    totals = np.zeros((n, n))
    epoch = 0
    for window, bonuses in check_schedule(n, config.delta, config.max_epochs):
        if bonuses is not None:  # only a decided window can pass and rewind
            start, saved = epoch, oracle.state
        draws = []
        for target in window:
            draws += run_epochs(oracle, prefixes, target - epoch)
            epoch = target
        stack = np.empty((len(window) + 1, n, n))
        stack[0] = totals
        stack.reshape(-1)[n * n:] = draws
        # row i + 1 is the totals at check i, added up one advance at a time
        np.cumsum(stack, axis=0, out=stack)
        totals = stack[-1]
        if bonuses is None:  # no check in this window can pass
            continue
        estimates = vertex_estimates(stack[1:], window, index, oracle.mu_grand)
        passed = stopping_condition(estimates, bonuses)
        if passed.any():
            first = int(passed.argmax())
            oracle.state = saved  # replay up to the first pass, as if checked epoch by epoch
            for target in window[:first + 1]:
                run_epochs(oracle, prefixes, target - start)
                start = target
            return RunReport(estimates[first], window[first], bonuses[first], True)
    return RunReport(estimates[-1], epoch, bonuses[-1], False)
