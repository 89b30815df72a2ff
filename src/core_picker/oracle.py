"""Bandit feedback environment: one stochastic coalition reward per query.

Each query draws an independent reward in [0, 1] with mean mu(S) under the
game's noise model and increments the sample counter.  The empty coalition is
free: it returns 0 by definition without consuming a sample.

``query_sum`` advances the same reward process many draws at a time through
its sufficient statistic (a binomial for Bernoulli noise), which is what makes
million-epoch simulations affordable; the distribution of everything the
learner computes from the sums is identical to drawing rewards one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import Coalition, GameSpec

_UNIFORM_CHUNK = 1 << 20  # bound memory when materializing uniform draws


@dataclass(frozen=True)
class NoiseModel:
    """Reward distribution family: Bernoulli(mu) or mu + Unif[-radius, radius]."""

    kind: str
    radius: float = 0.0

    def __post_init__(self):
        if self.kind not in ("bernoulli", "uniform"):
            raise ValueError(f"unknown noise model {self.kind!r}")
        if self.kind == "uniform" and self.radius < 0:
            raise ValueError("uniform radius must be nonnegative")

    @classmethod
    def parse(cls, tag: str) -> "NoiseModel":
        if tag == "bernoulli":
            return cls("bernoulli")
        if tag.startswith("uniform:"):
            return cls("uniform", float(tag.split(":", 1)[1]))
        raise ValueError(f"unknown noise tag {tag!r}")

    @property
    def tag(self) -> str:
        if self.kind == "bernoulli":
            return "bernoulli"
        return f"uniform:{self.radius:.17g}"


class RewardOracle:
    """Stateful sampler answering coalition queries for one learner run."""

    def __init__(self, game: GameSpec, seed):
        self.game = game
        self.noise = NoiseModel.parse(game.noise)
        if self.noise.kind == "uniform" and self.noise.radius > 0:
            a = self.noise.radius
            mu = game.mu[1:]  # the empty coalition is never sampled
            if np.any(mu - a < 0.0) or np.any(mu + a > 1.0):
                raise ValueError(
                    "uniform noise radius pushes some reward outside [0, 1]; "
                    "no clipping is applied so the support must fit"
                )
        self.rng = np.random.default_rng(seed)
        self.total_queries = 0

    def query(self, S: Coalition) -> float:
        """One independent reward draw with mean mu(S)."""
        if S == 0:
            return 0.0
        mu = float(self.game.mu[S])
        self.total_queries += 1
        if self.noise.kind == "bernoulli":
            return float(self.rng.random() < mu)
        a = self.noise.radius
        if a == 0.0:
            return mu
        return float(self.rng.uniform(mu - a, mu + a))

    def query_sum(self, S: Coalition, k: int) -> float:
        """Sum of k independent reward draws for S; counts k samples."""
        if k < 0:
            raise ValueError("query count must be nonnegative")
        if S == 0 or k == 0:
            return 0.0
        mu = float(self.game.mu[S])
        self.total_queries += k
        if self.noise.kind == "bernoulli":
            return float(self.rng.binomial(k, mu))
        a = self.noise.radius
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
    def sample_count(self) -> int:
        return self.total_queries

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
