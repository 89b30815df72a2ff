"""Bandit feedback environment: one stochastic coalition reward per query.

The game supplies the expected rewards mu(S); the oracle owns the reward
model.  Each query draws an independent reward in [0, 1] with mean mu(S) and
increments the sample counter.  The empty coalition is free: it returns 0 by
definition without consuming a sample.

``query_sum`` advances the same reward process many draws at a time through
its sufficient statistic (a binomial for Bernoulli noise), which is what makes
million-epoch simulations affordable; the distribution of everything the
learner computes from the sums is identical to drawing rewards one by one.

The sampler is bound once per oracle, and each coalition's mean is read from
the table once, as a Python float, into a cache of the coalitions queried so
far: at most n^2 for a learner run, where the whole 2^n table as a Python
list would add about 32 MiB at n = 20.  So a call pays for one guard, one
dict read and one scalar draw, which numpy returns as a Python number.  The
draw is the floor: numpy's scalar binomial takes about 1.05 us of an
untraced call's 1.25 us (one core of a shared 2-core Xeon, numpy 2.4).  The
learner makes one public call per prefix sum on purpose: the benchmark pins
n^2 calls per epoch advance, and the draws stay one per call until it stops
pinning that count (ROADMAP item 2 waits on item 1).
"""

from __future__ import annotations

import operator

import numpy as np

from .games import Coalition, GameSpec

NOISE_MODELS = ("bernoulli", "none")


class RewardOracle:
    """Stateful sampler answering coalition queries for one learner run.

    ``noise`` is the reward model: "bernoulli" draws Bernoulli(mu(S)), and
    "none" returns mu(S) itself, so k draws sum to k mu(S) exactly.
    """

    def __init__(self, game: GameSpec, seed, noise: str = "bernoulli"):
        if noise not in NOISE_MODELS:
            raise ValueError(f"unknown noise tag {noise!r}; use {' or '.join(NOISE_MODELS)}")
        self.n, self.mu_grand = game.n, game.mu_grand  # all a learner may read of the game
        self.rng = np.random.default_rng(seed)
        self.total_queries = 0
        self._mu = game.mu
        self._means: dict[Coalition, float] = {}  # float(mu[S]) of each S queried
        self._draw = self.rng.binomial if noise == "bernoulli" else operator.mul

    def query(self, S: Coalition) -> float:
        """One independent reward draw with mean mu(S)."""
        return self.query_sum(S, 1)

    def query_sum(self, S: Coalition, k: int) -> float:
        """Sum of k independent reward draws for S; counts k samples.

        A Bernoulli sum comes back as the int numpy draws, a noise-free one
        as the float k mu(S).
        """
        if k <= 0 or S == 0:
            if k < 0:
                raise ValueError("query count must be nonnegative")
            return 0.0
        self.total_queries += k
        try:
            mean = self._means[S]
        except KeyError:
            mean = self._means[S] = float(self._mu[S])
        return self._draw(k, mean)

    @property
    def state(self):
        """The bit-generator state and the sample count.

        Assigning a value read earlier rewinds the oracle: the draws after it
        repeat exactly.  A property rather than a method, so it is not a query.
        """
        return self.rng.bit_generator.state, self.total_queries

    @state.setter
    def state(self, value) -> None:
        self.rng.bit_generator.state, self.total_queries = value
