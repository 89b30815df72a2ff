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
the table once, into a cache of the coalitions queried so far: at most n^2
for a learner run, where the whole 2^n table as a Python list would add about
32 MiB at n = 20.  numpy's scalar binomial turns each argument into an array
before it reads it as a C number, and takes an array that already has the
dtype it wants as it is.  So for Bernoulli noise the cache holds each mean as
a 0-d float64 array, and a count is checked and turned into a 0-d int64 array
only when it is not the object of the previous call: ``run_epochs`` passes one
count object to all n^2 calls of an advance.  That cut one draw from about
590 to 460 ns, and a prefix sum of ``run_epochs`` at n = 10 from about 830 to
705 ns (one core of a shared 2-core x86-64 host, Python 3.11, numpy 2.4).  A
call then pays for one identity test, one dict read, one add to the sample
count and one scalar draw, which numpy returns as a Python int.  Noise-free
sums keep Python scalars, on which ``operator.mul`` is fastest.  The learner
makes one public call per prefix sum on purpose: the benchmark pins n^2 calls
per epoch advance, and the draws stay one per call until it stops pinning
that count (ROADMAP item 2, whose one draw per window replaces this cache,
waits on item 1).
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
        numpy's binomial range; a rejected count draws and counts nothing.
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
