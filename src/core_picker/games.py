"""Cooperative games as expected rewards over coalitions.

Coalitions are bit-masks over player indices 0..n-1 (bit p set means player p
is in the coalition).  A game answers the expected reward of any mask, or of
each mask of an integer array, with values normalized into [0, 1]: a
:class:`SymmetricGame` (every generator here) from its n + 1 size rewards, a
:class:`GameSpec` from an explicit 2^n table.
Permutations index the marginal vectors that form the vertices of the core of
a convex game.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

MAX_PLAYERS = 20  # the core scan takes time 2^n: 2^20 coalitions keeps it at desk scale
STRICT_COEFF = 0.9  # increment noise of the strict games; below 1 keeps them strictly convex

Coalition = int


def _check_player_count(n: int) -> None:
    if not 2 <= n <= MAX_PLAYERS:
        raise ValueError(f"player count {n} outside 2..{MAX_PLAYERS}")


def subset_sums(values) -> np.ndarray:
    """The sum of ``values[p]`` over the set bits p of every mask
    0..2**len(values)-1.

    Filled in place by doubling: the sums of the masks with bit p set are
    those below 2**p plus ``values[p]``, so each sum adds its terms in
    ascending order of p.
    """
    sums = np.empty(1 << len(values))
    sums[0] = 0
    for p, value in enumerate(values):
        h = 1 << p
        np.add(sums[:h], value, out=sums[h:2 * h])
    return sums


@dataclass(frozen=True)
class Permutation:
    """An arrival order for n players.

    ``ranks[p]`` is the (0-based) position at which player p arrives; lower
    rank means earlier arrival.  ``ranks`` must be a bijection on 0..n-1 of
    integers, kept as a tuple of Python ints (``True`` is read as 1).
    """

    ranks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(map(operator.index, self.ranks)))  # 1.0 raises
        n = len(self.ranks)
        if sorted(self.ranks) != list(range(n)):
            raise ValueError(f"ranks {self.ranks} is not a bijection on 0..{n - 1}")

    @property
    def n(self) -> int:
        return len(self.ranks)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def arrival_order(self) -> tuple[int, ...]:
        """Players sorted by arrival, earliest first, as Python ints.

        Python ints keep the prefix masks built from them Python ints, which
        the oracle compares and indexes with faster than numpy scalars.
        """
        return tuple(sorted(range(self.n), key=self.ranks.__getitem__))


def prefix_coalitions(w: Permutation) -> list[Coalition]:
    """The nested chain S_1 < S_2 < ... < S_n = N of arrival prefixes.

    S_k holds the k earliest-arriving players under w.
    """
    chain = []
    mask = 0
    for player in w.arrival_order():
        mask |= 1 << player
        chain.append(mask)
    return chain


def adjacent_permutations(base: Permutation) -> list[Permutation]:
    """A permutation together with its n-1 adjacent-transposition neighbours.

    Neighbour i + 1 swaps the ranks i and i+1 of base, so the players arriving
    at positions i and i+1 trade places.
    """
    return [base] + [
        Permutation(tuple(i + 1 if r == i else i if r == i + 1 else r for r in base.ranks))
        for i in range(base.n - 1)
    ]


def cyclic_permutations(n: int) -> list[Permutation]:
    """The n rotations of 0..n-1; rotation k ranks player p at (p + k) mod n.

    Rotation 0 is the identity.
    """
    return [Permutation(tuple((p + k) % n for p in range(n))) for k in range(n)]


def _rewards(values, entries: int) -> np.ndarray:
    """A read-only float64 copy of ``values``, checked as a game's expected
    rewards: ``entries`` of them, the empty coalition's first and exactly 0,
    all in [0, 1]."""
    values = np.array(values, dtype=np.float64)
    values.flags.writeable = False
    if values.shape != (entries,):
        raise ValueError(f"reward table must have {entries} entries")
    if values[0] != 0.0:
        raise ValueError("empty coalition must have reward 0")
    if not (values.min() >= 0.0 and values.max() <= 1.0):  # nan fails both
        raise ValueError("rewards must lie in [0, 1]")
    return values


@dataclass(frozen=True)
class GameSpec:
    """A stochastic cooperative game given by its explicit expected-reward table.

    ``mu[mask]`` is the expected reward of the coalition with that bit-mask.
    The empty coalition has reward exactly 0 and all values lie in [0, 1].
    The reward distribution around these means belongs to the bandit oracle.
    The table is a frozen float64 copy of the input, 2^n entries (8 MiB at
    n = 20), for games whose rewards depend on more than a coalition's size;
    the generators' games are :class:`SymmetricGame`, which hold no table.
    ``reward`` is the one reader of either format: the oracle asks it one
    mask at a time, the core scan a block of masks at a time.
    """

    n: int
    mu: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_player_count(self.n)
        object.__setattr__(self, "mu", _rewards(self.mu, 1 << self.n))

    @property
    def mu_grand(self) -> float:
        return float(self.mu[-1])

    def reward(self, mask):
        """The expected reward of the coalition ``mask``, an int in 0..2^n - 1,
        or the array of rewards of an integer array of such masks."""
        return self.mu[mask]


@dataclass(frozen=True)
class SymmetricGame:
    """A game whose coalitions of size k all have expected reward ``by_size[k]``.

    It holds the n + 1 size rewards, not a 2^n table, checked by the rules of
    :class:`GameSpec`: ``by_size[0]`` is exactly 0 and all lie in [0, 1].
    ``reward`` reads ``by_size`` at the popcount of a mask or of each mask of
    an integer array, so it gives the bits of the table :class:`GameSpec`
    would hold.
    """

    n: int
    by_size: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_player_count(self.n)
        object.__setattr__(self, "by_size", _rewards(self.by_size, self.n + 1))

    @property
    def mu_grand(self) -> float:
        return float(self.by_size[-1])

    def reward(self, mask):
        return self.by_size[np.bitwise_count(mask)]


Game = GameSpec | SymmetricGame  # n, mu_grand and reward are all a reader may use


def marginal_vector(game: Game, w: Permutation) -> np.ndarray:
    """Payoff vector giving each player its marginal contribution under w.

    Entry for player p is mu(prefix through p) - mu(prefix just before p);
    the entries telescope to mu(N).
    """
    if w.n != game.n:
        raise ValueError("permutation size does not match the game")
    by_arrival = np.diff(game.reward(np.array(prefix_coalitions(w))), prepend=0.0)
    return by_arrival[list(w.ranks)]


def marginal_increments(n: int, seed, coeff: float = STRICT_COEFF) -> np.ndarray:
    """Per-size reward increments of a generated game, normalized to sum 1.

    Entry k is mu(any coalition of size k+1) - mu(any coalition of size k)
    for the symmetric game built by the recursion
    ``f(size k) = f(size k-1) + k + coeff * u_k`` with u_k ~ Unif[0, 1],
    after dividing by f(n).  With coeff < 1 consecutive increments differ by
    at least (1 - coeff) before normalization, so the game is strictly convex.
    """
    rng = np.random.default_rng(seed)
    raw = np.arange(1, n + 1, dtype=np.float64) + coeff * rng.random(n)
    return raw / raw.sum()


def _increment_game(n: int, seed, coeff: float) -> SymmetricGame:
    _check_player_count(n)  # before marginal_increments sizes an array by n
    values = np.concatenate([[0.0], np.cumsum(marginal_increments(n, seed, coeff))])
    values[-1] = 1.0  # guard cumsum rounding at the grand coalition
    return SymmetricGame(n, values)


def gen_strictly_convex(n: int, seed) -> SymmetricGame:
    """Random strictly convex game with noise amplitude STRICT_COEFF on the increments."""
    return _increment_game(n, seed, coeff=STRICT_COEFF)


def gen_convex_boundary(n: int, seed) -> SymmetricGame:
    """Random game on the convexity boundary: amplitude 1.0, margin can reach 0."""
    return _increment_game(n, seed, coeff=1.0)


def gen_unit_game(n: int) -> SymmetricGame:
    """mu(S) = |S| / n: convex but not strictly, one-point core at (1/n) 1."""
    _check_player_count(n)
    return SymmetricGame(n, np.arange(n + 1) / n)


def gen_permutahedron(n: int) -> SymmetricGame:
    """mu(S) = g(|S|) / g(n) with g(k) = k (k + 1) / 2.

    Every marginal vector is (rank+1 profile) / g(n), so the core is the
    standard permutahedron scaled by 1 / g(n).
    """
    _check_player_count(n)
    k = np.arange(n + 1)
    g = k * (k + 1) / 2.0
    return SymmetricGame(n, g / g[-1])
