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
one.  :func:`check_schedule` fixes each window's checks, advance sizes and
bonuses: the first window runs to the first check that can stop, and each
later one holds ``CHECKS_PER_WINDOW`` checks.  A window is decided together,
the totals at its checks drawn into one buffer, except that of the first
window only the last check, the one that can stop, is estimated and decided.
A run only draws forward: its report is that of checking each epoch, while
the oracle's count also holds the window's draws past the first pass, which
no report reads.

A run's state is the flat row-major list ``prefixes`` of the n^2 prefix masks,
the permutations' n x n ``ranks`` and one n x n array ``totals`` of prefix sums.

Each estimate is shifted onto the efficiency plane of the true mu(N), which
treats mu(N) as known: ``oracle.mu_grand`` is, besides n, the one value the
learner takes from anywhere but the bandit's rewards.
"""

from __future__ import annotations

import functools
import itertools
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
from .geometry import mean_point, point_stack, separating_normals
from .oracle import MAX_COUNT, RewardOracle

DEFAULT_MAX_EPOCHS = 10**12
CHECK_DENSE_UNTIL = 64  # check the stopping rule every epoch up to here
CHECK_GROWTH = 1.05     # then space checks geometrically
CHECKS_PER_WINDOW = 1 + int(math.log(2) / math.log(CHECK_GROWTH))  # span < one doubling


def confidence_bonus(ep: int, n: int, delta: float) -> float:
    """Per-coordinate confidence radius b = sqrt(2 log(n ep / delta) / ep).

    Hoeffding at b/2 gives each prefix mean a failure chance of 2 delta/(n ep)
    per check, so the union over the n^2 prefix means gives 2 n delta/ep; on
    that event each telescoped coordinate lies within b, and the projection
    onto mu(N) can add up to b/(2n).  A stop outside the core needs a check c,
    at epoch t_c with bonus b_c, that passes while its event fails, and no
    check with b_c above :func:`stop_bonus_ceiling` can pass.  So the union
    over the checks of :func:`check_schedule` bounds the chance of a stop
    outside the core by delta * sum(2 n / t_c) over the checks with b_c at or
    below the ceiling.  A test holds that sum at most 1 over a grid of n, delta
    and caps, so there a run keeps the guarantee of Common-Points-Picking
    (arXiv 2402.07067) at level delta.  For delta below about 1e-290 the
    quotient can overflow, and an infinite bonus never stops a run, so the log
    is then taken as a difference."""
    ratio = n * ep / delta
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(n * ep) - math.log(delta)
    return math.sqrt(2.0 * log_ratio / ep)


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
    """Settings of one run: ``perm_choice`` is a key of :data:`PERMUTATIONS`,
    and ``max_epochs`` is at most :data:`oracle.MAX_COUNT`."""

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
        if not 1 <= self.max_epochs <= MAX_COUNT:
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


def _draw_window(oracle: RewardOracle, prefixes, totals: np.ndarray, steps) -> np.ndarray:
    """The totals after each advance of k epochs, k in ``steps``, from the n x n
    ``totals``.  Each advance's :func:`run_epochs` sums stream into one
    (len(steps), n, n) float64 buffer, so no list outlives one advance; the
    start is added into the first row, and the buffer is summed in place down
    its first axis."""
    sums = itertools.chain.from_iterable(run_epochs(oracle, prefixes, k) for k in steps)
    buf = np.fromiter(sums, np.float64, len(steps) * totals.size).reshape(-1, *totals.shape)
    buf[0] += totals
    return np.cumsum(buf, axis=0, out=buf)


def vertex_estimates(totals: np.ndarray, epochs, ranks: np.ndarray,
                     mu_grand: float) -> np.ndarray:
    """Row p: the mean marginal vector of permutation p, player-indexed,
    shifted onto the efficiency hyperplane of ``mu_grand``.

    Prefix totals telescope into per-rank means, which the n x n ``ranks``
    put in player order (``ranks[p, i]`` is player i's rank under permutation
    p).  ``totals`` is one n x n table, or a (w, n, n) stack with ``epochs`` a
    length-w sequence.
    """
    by_rank = np.array(totals, dtype=np.float64)
    by_rank[..., 1:] -= totals[..., :-1]
    by_rank /= np.asarray(epochs, dtype=np.float64)[..., None, None]
    n = by_rank.shape[-1]
    # take at flat positions p * n + rank keeps rows C-ordered: each sums as for one table
    estimates = by_rank.reshape(by_rank.shape[:-2] + (n * n,)).take(
        ranks + n * np.arange(n)[:, None], axis=-1)
    estimates += (mu_grand - estimates.sum(axis=-1, keepdims=True)) / n
    return estimates


def min_pass_altitude(n: int, bonus, l1):
    """The least altitude at which a vertex passes the stopping rule, for
    ``l1`` the 1-norm of its unit facet normal v.

    With margin eps = 2 sqrt(n) bonus, the plane through the other estimates,
    shifted by eps toward the vertex, must clear its confidence box of radius
    ``bonus``, which reaches bonus ||v||_1 along v, by n eps: altitude - eps -
    bonus ||v||_1 >= n eps.  A lower bound on ||v||_1 gives a lower floor.

    A pass makes the estimates' mean m a common point (the common-point
    lemma).  Let each true vertex be x^q + e^q, on the estimates' plane with
    |e^q|_inf <= r = (1 + 1/(2n)) bonus (the projection adds bonus/(2n)).
    The weight of x^p is affine with gradient v_p/h_p, so m = sum_q w_q (x^q
    + t e^q), sum_q w_q = 1, gives w_p = 1/n - t sum_q w_q <v_p, e^q>/h_p with
    |<v_p, e^q>| <= r ||v_p||_1.  If every h_p > n r ||v_p||_1, no weight
    reaches 0 as t grows from 0 to 1, and a dependence mu of the vertices
    would have every |mu_p| < ||mu||_1/n: m is in every true-vertex simplex.
    That holds here: ||v||_1 <= sqrt(n) and (n - 1/2) sqrt(n) < 2 sqrt(n)(n + 1)
    give this floor > (n + 1/2) bonus ||v||_1 = n r ||v||_1.
    """
    return bonus * (2.0 * math.sqrt(n) * (n + 1) + l1)


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
    for the altitudes it measures, rows on different planes included.  A pass
    needs ||v_p||_1 >= sqrt(2), up to the rounding of a unit sum-zero vector,
    and the bound takes ||v_p||_1 = 1: a check with n r below n - 1 times that
    floor cannot pass.  The (sqrt(2) - 1) bonus given up, at least 0.2% of the
    floor for n <= 20, covers the rounding of r, of the floor and of the
    solve's altitudes on the coordinates :func:`separating_normals` accepts.

    A (..., n, n) stack of estimates and bonuses that broadcast to its
    leading shape give a boolean array of that shape; other shapes, and a
    negative bonus, raise ValueError.  The checks the bound leaves go to one
    stacked solve; it and every reduction work one set at a time, so each
    boolean is what solving every check gives.  Degenerate sets (NaN
    altitudes), NaN or infinite estimates and a NaN bonus fail.
    """
    points, n = point_stack(estimates)
    bonus = np.full(points.shape[:-2], np.asarray(bonus, dtype=np.float64))
    if np.count_nonzero(bonus < 0.0):
        raise ValueError("bonus must be nonnegative")
    offsets = points - np.add.reduce(points, axis=-2, keepdims=True) / n
    nearest = np.sqrt(np.minimum.reduce(  # offsets squared in place: no second stack
        np.add.reduce(np.square(offsets, out=offsets), axis=-1), axis=-1))
    skip = min_pass_altitude(n, 1.0, 1.0) * ((n - 1) / n)  # linear in bonus
    solve = nearest >= bonus * skip
    passed = np.zeros(solve.shape, dtype=bool)
    if solve.any():
        normals, altitudes = separating_normals(points[solve])
        bonus = bonus[solve][:, None]
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
    """A run's checks as ``(epochs, steps, bonuses)``, one per window: each
    step, a Python int, is its epoch less the previous check's.

    Checks fall on every epoch up to ``CHECK_DENSE_UNTIL``, then grow by
    ``CHECK_GROWTH``, and the last one is ``max_epochs``.  No check with a bonus
    above :func:`stop_bonus_ceiling`, the dense ones included, can stop, so the
    first window runs through the first check at or below it, or the cap, and
    a run decides that last check alone.  Each later window holds
    ``CHECKS_PER_WINDOW`` checks (the last may hold fewer), which span less
    than one doubling of the epoch, so a run draws fewer than twice the samples
    it reports.  Every later check is decided, so windows only group checks
    into fewer calls.  Runs share the cached schedule, of tuples.
    """
    checks, t = [], 0
    while t < max_epochs:
        s, t = t, min(t + 1 if t < CHECK_DENSE_UNTIL else max(t + 1, int(t * CHECK_GROWTH)),
                      max_epochs)
        checks.append((t, t - s, confidence_bonus(t, n, delta)))
    ceiling = stop_bonus_ceiling(n)
    cut = next((i + 1 for i, (_, _, bonus) in enumerate(checks) if bonus <= ceiling), len(checks))
    ends = [*range(cut, len(checks), CHECKS_PER_WINDOW), len(checks)]
    return tuple(tuple(zip(*checks[lo:hi])) for lo, hi in zip([0, *ends], ends))


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
    ranks = np.array([w.ranks for w in perms])
    totals = np.zeros((n, n))
    decided = slice(-1, None)  # the first window's other checks are above the ceiling
    for window, steps, bonuses in check_schedule(n, config.delta, config.max_epochs):
        stack = _draw_window(oracle, prefixes, totals, steps)[decided]  # row i: at check i
        window, bonuses = window[decided], bonuses[decided]
        estimates = vertex_estimates(stack, window, ranks, oracle.mu_grand)
        passed = stopping_condition(estimates, bonuses)
        if passed.any():
            first = int(passed.argmax())
            return RunReport(estimates[first], window[first], bonuses[first], True)
        totals, decided = stack[-1].copy(), slice(None)  # a view would keep the buffer
    return RunReport(estimates[-1], window[-1], bonuses[-1], False)
