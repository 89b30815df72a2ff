"""Cooperative games as explicit reward tables over coalitions.

Coalitions are bit-masks over player indices 0..n-1 (bit p set means player p
is in the coalition).  A game stores the full table of expected rewards, one
entry per mask, with values normalized into [0, 1].  Permutations index the
marginal vectors that form the vertices of the core of a convex game.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

MAX_PLAYERS = 20  # 2**20 table entries keeps exhaustive scans at desk scale
MASK_BLOCK_BITS = 15  # 2^15 masks per block of each pass over a 2^n table: 256 KiB
STRICT_COEFF = 0.9  # increment noise of the strict games; below 1 keeps them strictly convex

Coalition = int


def _check_player_count(n: int) -> None:
    if not 2 <= n <= MAX_PLAYERS:
        raise ValueError(f"player count {n} outside 2..{MAX_PLAYERS}")


def subset_sums(values, dtype=np.float64) -> np.ndarray:
    """The sum of ``values[p]`` over the set bits p of every mask
    0..2**len(values)-1.

    Filled in place by doubling: the sums of the masks with bit p set are
    those below 2**p plus ``values[p]``, so each sum adds its terms in
    ascending order of p.
    """
    sums = np.empty(1 << len(values), dtype=dtype)
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


def _frozen(mu: np.ndarray) -> np.ndarray:
    mu.flags.writeable = False
    return mu


@dataclass(frozen=True)
class GameSpec:
    """A stochastic cooperative game given by its expected-reward table.

    ``mu[mask]`` is the expected reward of the coalition with that bit-mask.
    The empty coalition has reward exactly 0 and all values lie in [0, 1].
    The reward distribution around these means belongs to the bandit oracle.

    The table is the one 2^n array a trial holds (8 MiB at n = 20).  A
    read-only float64 array that owns its data is adopted as it is, which is
    how the generators hand over their fresh table; anything else (a
    writeable array, a view, a list) is copied and frozen.
    """

    n: int
    mu: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_player_count(self.n)
        mu = self.mu
        if not (isinstance(mu, np.ndarray) and mu.dtype == np.float64
                and mu.flags.owndata and not mu.flags.writeable):
            mu = _frozen(np.array(mu, dtype=np.float64))
        if mu.shape != (1 << self.n,):
            raise ValueError(f"reward table must have {1 << self.n} entries")
        if mu[0] != 0.0:
            raise ValueError("empty coalition must have reward 0")
        if not (mu.min() >= 0.0 and mu.max() <= 1.0):  # nan fails both
            raise ValueError("rewards must lie in [0, 1]")
        object.__setattr__(self, "mu", mu)

    @property
    def mu_grand(self) -> float:
        return float(self.mu[-1])


def marginal_vector(game: GameSpec, w: Permutation) -> np.ndarray:
    """Payoff vector giving each player its marginal contribution under w.

    Entry for player p is mu(prefix through p) - mu(prefix just before p);
    the entries telescope to mu(N).
    """
    if w.n != game.n:
        raise ValueError("permutation size does not match the game")
    by_arrival = np.diff(game.mu[prefix_coalitions(w)], prepend=0.0)
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


def _symmetric_game(values: np.ndarray) -> GameSpec:
    """The game of n = len(values) - 1 players whose coalitions of size k all
    have reward ``values[k]``; its caller checks n first.

    The table is gathered in blocks of 2^MASK_BLOCK_BITS masks that share their
    high bits: a block whose high bits count h takes ``values[h + size]`` for
    the popcount ``size`` of each low mask, so besides the table the gather
    holds one block-sized intp index.  ``np.take`` writes straight into the
    table; its "clip" mode (every index here is in range) spares the output
    buffer that its default "raise" mode allocates.
    """
    n = len(values) - 1
    sizes = subset_sums([1] * min(n, MASK_BLOCK_BITS), np.intp)
    mu = np.empty(1 << n)
    for b, block in enumerate(mu.reshape(-1, sizes.size)):
        np.take(values[b.bit_count():], sizes, out=block, mode="clip")
    return GameSpec(n=n, mu=_frozen(mu))


def _increment_game(n: int, seed, coeff: float) -> GameSpec:
    _check_player_count(n)  # before marginal_increments sizes an array by n
    values = np.concatenate([[0.0], np.cumsum(marginal_increments(n, seed, coeff))])
    values[-1] = 1.0  # guard cumsum rounding at the grand coalition
    return _symmetric_game(values)


def gen_strictly_convex(n: int, seed) -> GameSpec:
    """Random strictly convex game with noise amplitude STRICT_COEFF on the increments."""
    return _increment_game(n, seed, coeff=STRICT_COEFF)


def gen_convex_boundary(n: int, seed) -> GameSpec:
    """Random game on the convexity boundary: amplitude 1.0, margin can reach 0."""
    return _increment_game(n, seed, coeff=1.0)


def gen_unit_game(n: int) -> GameSpec:
    """mu(S) = |S| / n: convex but not strictly, one-point core at (1/n) 1."""
    _check_player_count(n)
    return _symmetric_game(np.arange(n + 1) / n)


def gen_permutahedron(n: int) -> GameSpec:
    """mu(S) = g(|S|) / g(n) with g(k) = k (k + 1) / 2.

    Every marginal vector is (rank+1 profile) / g(n), so the core is the
    standard permutahedron scaled by 1 / g(n).
    """
    _check_player_count(n)
    k = np.arange(n + 1)
    g = k * (k + 1) / 2.0
    return _symmetric_game(g / g[-1])
