"""Bandit feedback environment: one stochastic coalition reward per query.

The game supplies the expected rewards mu(S); the oracle owns the reward
model.  Each query draws an independent reward in [0, 1] with mean mu(S) and
increments the sample counter.  The empty coalition is free: it returns 0 by
definition without consuming a sample.

``query_sum`` advances the same reward process many draws at a time through
its sufficient statistic (a binomial for Bernoulli noise), which is what makes
million-epoch simulations affordable; the distribution of everything the
learner computes from the sums is identical to drawing rewards one by one.
"""

from __future__ import annotations

import math

import numpy as np

from .games import Coalition, GameSpec

_UNIFORM_CHUNK = 1 << 20  # bound memory when materializing uniform draws


class RewardOracle:
    """Stateful sampler answering coalition queries for one learner run.

    ``noise`` is the reward model: "bernoulli" draws Bernoulli(mu(S)), and
    "uniform:<r>" draws mu(S) + Unif[-r, r] for a finite r >= 0 whose support
    fits in [0, 1] for every nonempty coalition.
    """

    def __init__(self, game: GameSpec, seed, noise: str = "bernoulli"):
        self.game = game
        self.radius = None  # None means Bernoulli rewards
        if noise.startswith("uniform:"):
            a = float(noise[len("uniform:"):])
            if not (a >= 0.0 and math.isfinite(a)):
                raise ValueError(f"uniform radius in {noise!r} must be finite and nonnegative")
            mu = game.mu[1:]  # the empty coalition is never sampled
            if np.any(mu - a < 0.0) or np.any(mu + a > 1.0):
                raise ValueError(
                    "uniform noise radius pushes some reward outside [0, 1]; "
                    "no clipping is applied so the support must fit"
                )
            self.radius = a
        elif noise != "bernoulli":
            raise ValueError(f"unknown noise tag {noise!r}")
        self.rng = np.random.default_rng(seed)
        self.total_queries = 0

    def query(self, S: Coalition) -> float:
        """One independent reward draw with mean mu(S)."""
        return self.query_sum(S, 1)

    def query_sum(self, S: Coalition, k: int) -> float:
        """Sum of k independent reward draws for S; counts k samples."""
        if k < 0:
            raise ValueError("query count must be nonnegative")
        if S == 0 or k == 0:
            return 0.0
        mu = float(self.game.mu[S])
        self.total_queries += k
        a = self.radius
        if a is None:
            return float(self.rng.binomial(k, mu))
        if a == 0.0:
            return k * mu
        total = 0.0
        left = k
        while left > 0:
            chunk = min(left, _UNIFORM_CHUNK)
            total += float(self.rng.uniform(mu - a, mu + a, size=chunk).sum())
            left -= chunk
        return total

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
