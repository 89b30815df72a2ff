"""Bandit feedback environment: one stochastic coalition reward per query.

The game supplies the expected rewards mu(S); the oracle owns the reward
model.  Each query draws an independent reward in [0, 1] with mean mu(S) and
increments the sample counter.  The empty coalition is free: it returns 0 by
definition without consuming a sample.

``query_sum`` advances the same reward process many draws at a time through
its sufficient statistic (a binomial for Bernoulli noise), which is what makes
million-epoch simulations affordable; the distribution of everything the
learner computes from the sums is identical to drawing rewards one by one.

The sampler is bound once per oracle, and each mean is read from the table
once, into a cache of the coalitions queried (at most n^2 for a learner run,
never a 2^n list).  numpy's scalar binomial converts each argument into an
array on every call unless it already is one of the dtype it wants, so for
Bernoulli noise the cached means are 0-d float64 arrays, and a count becomes
a 0-d int64 array once per advance, whose n^2 calls share one count object.
The learner makes one call per prefix sum because the benchmark pins n^2
calls per advance (ROADMAP item 2, one draw per window, waits on item 1).
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
        bernoulli = noise == "bernoulli"
        self._draw = self.rng.binomial if bernoulli else operator.mul
        # a 0-d array skips binomial's conversion; pos keeps the Python scalars mul is fastest on
        self._as_arg = np.array if bernoulli else operator.pos
        self._means: dict[Coalition, object] = {}  # _as_arg(float(mu[S])) of each S queried
        self._count = self._count_arg = None  # the last count, as an int and as _draw takes it

    def query(self, S: Coalition) -> float:
        """One independent reward draw with mean mu(S)."""
        return self.query_sum(S, 1)

    def query_sum(self, S: Coalition, k: int) -> float:
        """Sum of k independent reward draws for S; counts k samples.

        A Bernoulli sum comes back as the int numpy draws, a noise-free one
        as the float k mu(S).  A count must be an integer in 0..2**63 - 1,
        numpy's binomial range, and a mask one of 0..2^n - 1; a rejected
        count or mask draws and counts nothing.
        """
        if k is not self._count:  # a new count: checked and converted once per advance
            k = operator.index(k)
            if not 0 <= k <= 2**63 - 1:
                raise ValueError(f"query count must lie in 0..2**63 - 1, not {k}")
            self._count, self._count_arg = k, self._as_arg(k)
        try:
            mean = self._means[S]
        except KeyError:
            if S == 0:  # never cached, so the fast path needs no check for it
                return 0.0
            if not 0 < S < len(self._mu):  # mu[-1] would read mu(N)
                raise ValueError(f"coalition mask must lie in 0..{len(self._mu) - 1}, not {S}")
            mean = self._means[S] = self._as_arg(float(self._mu[S]))
        self.total_queries += k
        return self._draw(self._count_arg, mean)

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
