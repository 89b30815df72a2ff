"""Bandit feedback environment: one stochastic coalition reward per query.

The game supplies the expected rewards mu(S); the oracle owns the reward
model.  Each query draws an independent reward in [0, 1] with mean mu(S) and
increments the sample counter.  A query names a nonempty coalition, a mask in
1..2^n - 1.  Like a bandit, the oracle cannot be rewound: a learner run's
counter includes the draws of its deciding window past the stop, which no
report reads.

``query_sum`` advances the same reward process many draws at a time through
its sufficient statistic (a binomial for Bernoulli noise), which is what makes
million-epoch simulations affordable; the distribution of everything the
learner computes from the sums is identical to drawing rewards one by one.

The sampler is bound once per oracle, and each mean is read once through
``game.reward``, which hides how the game stores its rewards, into a cache of
the coalitions queried (at most n^2 for a learner run, never a 2^n list).
numpy's scalar binomial converts each argument into an array on every call
unless it already is one of the dtype it wants, so for both reward models
the cached means are 0-d float64 arrays, and a count becomes a 0-d int64
array once per advance, whose n^2 calls share one count object.  The learner makes one call per prefix sum because the benchmark
pins n^2 calls per advance; one draw per check window waits on that pin.
"""

from __future__ import annotations

import operator

import numpy as np

from .games import Coalition, Game

NOISE_MODELS = ("bernoulli", "none")
MAX_COUNT = 2**63 - 1  # numpy's largest binomial count


class RewardOracle:
    """Stateful sampler answering coalition queries for one learner run.

    ``noise`` is the reward model: "bernoulli" draws Bernoulli(mu(S)), and
    "none" returns mu(S) itself, so k draws sum to k mu(S) exactly.
    """

    def __init__(self, game: Game, seed, noise: str = "bernoulli"):
        if noise not in NOISE_MODELS:
            raise ValueError(f"unknown noise tag {noise!r}; use {' or '.join(NOISE_MODELS)}")
        self.n, self.mu_grand = game.n, game.mu_grand  # all a learner may read of the game
        self.rng = np.random.default_rng(seed)
        self.total_queries = 0
        self._reward = game.reward
        self._draw = self.rng.binomial if noise == "bernoulli" else operator.mul
        self._means: dict[Coalition, np.ndarray] = {}  # np.array(mu[S]) of each S queried
        self._count = self._count_arg = None  # the last count, as an int and as a 0-d array

    def query(self, S: Coalition) -> float:
        """One independent reward draw with mean mu(S)."""
        return self.query_sum(S, 1)

    def query_sum(self, S: Coalition, k: int) -> float:
        """Sum of k independent reward draws for S; counts k samples.

        A Bernoulli sum is the int numpy draws, a noise-free one the
        np.float64 k mu(S), both from the 0-d arrays of the cached mean and
        the count.  A count must be an integer in 0..MAX_COUNT and a mask an
        integer in 1..2^n - 1; a rejected count or mask draws and counts nothing.
        The mask is checked when it first misses the cache, so a value equal to
        a cached mask, such as 1.0 after 1, is answered as that mask.
        """
        if k is not self._count:  # a new count: checked and converted once per advance
            k = operator.index(k)
            if not 0 <= k <= MAX_COUNT:
                raise ValueError(f"query count must lie in 0..2**63 - 1, not {k}")
            self._count, self._count_arg = k, np.array(k)
        try:
            mean = self._means[S]
        except (KeyError, TypeError):  # TypeError: an unhashable mask, such as a 0-d array
            mask = operator.index(S) if hasattr(S, "__index__") else 0  # True as 1, 1.5 as none
            if not 0 < mask < 1 << self.n:  # a table would read mask -1 as mu(N)
                raise ValueError(f"coalition mask must lie in 1..{(1 << self.n) - 1}, not {S}")
            mean = self._means[mask] = np.array(self._reward(mask))
        self.total_queries += k
        return self._draw(self._count_arg, mean)
