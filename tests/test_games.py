import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from support import gen_weighted_game, strict_convexity_margin, table

from core_picker.games import (
    GameSpec,
    Permutation,
    SymmetricGame,
    adjacent_permutations,
    cyclic_permutations,
    gen_convex_boundary,
    gen_permutahedron,
    gen_strictly_convex,
    gen_unit_game,
    marginal_increments,
    marginal_vector,
    prefix_coalitions,
    subset_sums,
)


def permutation_strategy(n):
    return st.permutations(list(range(n))).map(lambda r: Permutation(tuple(r)))


# ---------------------------------------------------------------------------
# reward tables


def test_generated_grand_coalition_is_exactly_one():
    for seed in range(8):
        assert gen_strictly_convex(3, seed).mu_grand == 1.0
        assert gen_convex_boundary(3, seed).mu_grand == 1.0


# an explicit table and a symmetric game's size rewards, with the name of their field
FORMATS = [(GameSpec, "mu", [0.0, 0.25, 0.5, 1.0]), (SymmetricGame, "by_size", [0.0, 0.5, 1.0])]


def test_gamespec_validation():
    # both formats check their rewards by the same rules, with the same messages
    for kind, _, good in FORMATS:
        assert kind(2, good).mu_grand == 1.0
        for n in (-1, 1, 21):
            with pytest.raises(ValueError, match=f"player count {n} outside 2..20"):
                kind(n, good)
        for index, value, message in ((0, 0.1, "empty coalition must have reward 0"),
                                      (-1, 1.5, r"rewards must lie in \[0, 1\]"),
                                      (-2, -0.5, r"rewards must lie in \[0, 1\]"),
                                      (1, np.nan, r"rewards must lie in \[0, 1\]")):
            bad = list(good)
            bad[index] = value
            with pytest.raises(ValueError, match=message):
                kind(2, bad)
        with pytest.raises(ValueError, match=f"reward table must have {len(good)} entries"):
            kind(2, good + [1.0])


def test_games_copy_and_freeze_their_rewards():
    for kind, name, good in FORMATS:
        values = np.array(good)
        rewards = getattr(kind(2, values), name)
        values[1] = 0.9  # the caller's array is not the game's
        assert rewards.tolist() == good and rewards is not values
        assert not rewards.flags.writeable and rewards.flags.owndata
        values.flags.writeable = False  # a frozen array is copied too
        assert getattr(kind(2, values), name) is not values
        single = getattr(kind(2, np.array(good, dtype=np.float32)), name)
        assert single.dtype == np.float64 and single.tolist() == good


@pytest.mark.parametrize("n", [2, 14, 15, 16, 20])
def test_generators_match_int64_popcount_formulas(n):
    # sizes * (sizes + 1) overflows uint8 from n = 16, so the reference casts first
    sizes = np.bitwise_count(np.arange(1 << n)).astype(np.int64)
    g = sizes * (sizes + 1) / 2.0
    assert np.array_equal(table(gen_permutahedron(n)), g / g[-1])
    assert np.array_equal(table(gen_unit_game(n)), sizes / n)
    values = np.concatenate([[0.0], np.cumsum(marginal_increments(n, 3))])
    values[-1] = 1.0
    assert np.array_equal(table(gen_strictly_convex(n, 3)), values[sizes])


@pytest.mark.parametrize("make", [
    lambda n: gen_strictly_convex(n, n),
    lambda n: gen_convex_boundary(n, n),
    gen_unit_game,
    gen_permutahedron,
    lambda n: GameSpec(n, np.append(0.0, np.random.default_rng(n).random((1 << n) - 1))),
], ids=["strict", "convex", "unit", "permutahedron", "table"])
@pytest.mark.parametrize("sizes", [range(2, 13), [20]], ids=["every-mask-to-12", "sample-20"])
def test_reward_of_a_mask_array_is_its_scalar_rewards(make, sizes):
    # the core scan asks for a block of masks in one call, the oracle for one mask at a time
    for n in sizes:
        game = make(n)
        if n <= 12:
            masks = np.arange(1 << n, dtype=np.int64)
        else:  # the ends and a seeded sample
            sample = np.random.default_rng(n).integers(1 << n, size=4096)
            masks = np.concatenate([[0, (1 << n) - 1], sample]).astype(np.int64)
        scalars = np.array([game.reward(int(mask)) for mask in masks])
        rewards = game.reward(masks)
        assert rewards.dtype == np.float64 and rewards.tobytes() == scalars.tobytes()


@pytest.mark.parametrize("generate", [
    lambda n: gen_strictly_convex(n, 0),
    lambda n: gen_convex_boundary(n, 0),
    gen_unit_game,
    gen_permutahedron,
], ids=["strict", "convex", "unit", "permutahedron"])
@pytest.mark.parametrize("n", [-1, 1, 21])
def test_generators_reject_player_counts_out_of_range(generate, n):
    with pytest.raises(ValueError, match=f"player count {n} outside"):
        generate(n)


# ---------------------------------------------------------------------------
# subset sums


@pytest.mark.parametrize("n", range(1, 9))
def test_subset_sums_of_ones_are_popcounts(n):
    sizes = subset_sums([1] * n)
    assert sizes.dtype == np.float64
    assert sizes.tolist() == [bin(mask).count("1") for mask in range(1 << n)]


@pytest.mark.parametrize("n", [1, 5, 11])
def test_subset_sums_add_each_mask_in_ascending_order(n):
    x = np.random.default_rng(n).random(n)
    expected = []
    for mask in range(1 << n):
        total = 0.0
        for p in range(n):
            if mask >> p & 1:
                total += x[p]
        expected.append(total)
    assert subset_sums(x).tolist() == expected  # exact: the same additions in the same order


# ---------------------------------------------------------------------------
# permutations and prefixes


def test_prefix_chain_identity():
    chain = prefix_coalitions(Permutation.identity(3))
    assert chain == [0b001, 0b011, 0b111]


def test_prefix_chain_custom_order():
    # player 2 (0-based) arrives first, then 0, then 1
    w = Permutation((1, 2, 0))
    chain = prefix_coalitions(w)
    assert chain == [0b100, 0b101, 0b111]


def test_permutation_ranks_are_python_ints():
    # numpy once read bool ranks as a mask: a marginal vector of one entry
    game = gen_strictly_convex(2, 0)
    by_bool = marginal_vector(game, Permutation((True, False)))
    assert len(by_bool) == 2
    assert by_bool.tobytes() == marginal_vector(game, Permutation((1, 0))).tobytes()
    ranks = Permutation(tuple(np.arange(3, dtype=np.int64)[::-1])).ranks
    assert ranks == (2, 1, 0) and all(type(r) is int for r in ranks)
    with pytest.raises(TypeError):
        Permutation((1.0, 0))
    with pytest.raises(ValueError, match="bijection"):
        Permutation((1, 1))


@pytest.mark.parametrize("n", [3, 20])
def test_prefix_masks_are_python_ints(n):
    # the oracle compares and indexes with them; numpy scalars cost more there
    for perms in (adjacent_permutations(Permutation.identity(n)), cyclic_permutations(n)):
        for w in perms:
            chain = prefix_coalitions(w)
            assert all(type(S) is int for S in chain)
            assert chain == [sum(1 << p for p in range(n) if w.ranks[p] < k)
                             for k in range(1, n + 1)]


@settings(max_examples=60)
@given(st.integers(2, 7).flatmap(permutation_strategy))
def test_prefix_chain_nested_and_ends_at_grand(w):
    chain = prefix_coalitions(w)
    assert chain[-1] == (1 << w.n) - 1
    for a, b in zip(chain, chain[1:]):
        assert a & b == a and a != b
    assert [bin(m).count("1") for m in chain] == list(range(1, w.n + 1))


def test_adjacent_transpose_swaps_first_two():
    w = adjacent_permutations(Permutation.identity(3))[1]
    assert w.ranks == (1, 0, 2)  # player 1 now arrives first


@settings(max_examples=60)
@given(st.integers(3, 7).flatmap(permutation_strategy), st.data())
def test_adjacent_transpose_involution_and_support(w, data):
    i = data.draw(st.integers(0, w.n - 2))
    swapped = adjacent_permutations(w)[i + 1]
    assert adjacent_permutations(swapped)[i + 1] == w
    order, swapped_order = w.arrival_order(), swapped.arrival_order()
    assert swapped_order[i:i + 2] == (order[i + 1], order[i])  # the players at positions i, i+1
    assert swapped_order[:i] == order[:i] and swapped_order[i + 2:] == order[i + 2:]
    changed = [p for p in range(w.n) if swapped.ranks[p] != w.ranks[p]]
    assert len(changed) == 2


def test_cyclic_permutations_small():
    assert [w.ranks for w in cyclic_permutations(2)] == [(0, 1), (1, 0)]
    perms3 = cyclic_permutations(3)
    assert len({w.ranks for w in perms3}) == 3
    assert perms3[0] == Permutation.identity(3)


def test_cyclic_vertices_match_circulant():
    # vertex of the standard permutahedron for w is the 1-based rank profile;
    # over the rotations these are the columns of the circulant with
    # entries ((i - j) mod n) + 1
    n = 5
    vertices = {tuple(r + 1 for r in w.ranks) for w in cyclic_permutations(n)}
    circulant = {
        tuple(((i - j) % n) + 1 for i in range(n)) for j in range(n)
    }
    assert vertices == circulant


# ---------------------------------------------------------------------------
# marginal vectors


def test_marginal_vector_unit_game_is_uniform():
    game = gen_unit_game(3)
    for w in [Permutation.identity(3), Permutation((2, 0, 1))]:
        assert np.abs(marginal_vector(game, w) - 1 / 3).max() < 1e-15


def test_marginal_vector_permutahedron_is_rank_profile():
    n = 4
    game = gen_permutahedron(n)
    g_n = n * (n + 1) / 2
    for w in [Permutation.identity(n), Permutation((2, 0, 3, 1))]:
        expected = (np.array(w.ranks) + 1) / g_n
        assert np.abs(marginal_vector(game, w) - expected).max() < 1e-12


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.just(n), permutation_strategy(n))))
def test_marginal_vector_telescopes_to_grand_reward(seed, n_and_w):
    n, w = n_and_w
    game = gen_strictly_convex(n, seed)
    assert abs(marginal_vector(game, w).sum() - game.mu_grand) < 1e-12


def marginal_vector_by_loop(game, w):
    """Reference: walk the arrival order, each entry one table difference."""
    phi = np.empty(game.n)
    prev = 0.0
    mask = 0
    for player in w.arrival_order():
        mask |= 1 << player
        cur = float(game.mu[mask])
        phi[player] = cur - prev
        prev = cur
    return phi


@pytest.mark.parametrize("n", range(3, 7))
def test_marginal_vector_is_bit_identical_to_the_loop(n):
    # the weighted game is asymmetric, so a vector scattered to the wrong players differs;
    # all n! orders cover every adjacent and cyclic permutation
    game = gen_weighted_game(n, n)
    for ranks in itertools.permutations(range(n)):
        w = Permutation(ranks)
        assert marginal_vector(game, w).tobytes() == marginal_vector_by_loop(game, w).tobytes()


def test_adjacent_marginal_vectors_differ_in_two_coordinates():
    # neighbouring vertices differ along a coordinate-difference direction,
    # by at least the strict-convexity margin
    rng = np.random.default_rng(0)
    for seed in range(6):
        n = 3 + seed % 4
        game = gen_strictly_convex(n, seed)
        margin = strict_convexity_margin(game)
        assert margin > 0
        bases = [Permutation.identity(n),
                 Permutation(tuple(int(r) for r in rng.permutation(n)))]
        for w in bases:
            neighbours = adjacent_permutations(w)
            for i in range(n - 1):
                delta = marginal_vector(game, w) - marginal_vector(game, neighbours[i + 1])
                moved = np.nonzero(np.abs(delta) > 1e-14)[0]
                assert len(moved) == 2
                assert abs(delta[moved[0]] + delta[moved[1]]) < 1e-12
                assert np.abs(delta[moved[0]]) >= margin - 1e-12


# ---------------------------------------------------------------------------
# convexity margin


def test_margin_unit_game_is_zero():
    assert abs(strict_convexity_margin(gen_unit_game(4))) < 1e-15
    assert abs(strict_convexity_margin(gen_unit_game(3))) < 1e-15


def test_margin_permutahedron():
    n = 4
    g_n = n * (n + 1) / 2
    assert strict_convexity_margin(gen_permutahedron(n)) == pytest.approx(1 / g_n, abs=1e-12)


def test_margin_detects_planted_violation():
    mu = table(gen_unit_game(4))
    mu[0b0011] -= 0.05  # players 0 and 1
    assert strict_convexity_margin(GameSpec(n=4, mu=mu)) == pytest.approx(-0.05, abs=1e-12)


def test_margin_strictly_convex_generator_positive_up_to_ten_players():
    for n in range(3, 11):
        for seed in range(8):
            assert strict_convexity_margin(gen_strictly_convex(n, seed)) > 0


def test_margin_tracks_one_tenth_over_n():
    # the generator's margin concentrates near 0.1/n; the median over seeds
    # lands within +-50% from n=6 up (at n=5 it sits a factor ~1.54 above,
    # still within a factor of two)
    for n in (6, 7, 8):
        margins = [strict_convexity_margin(gen_strictly_convex(n, s)) for s in range(50)]
        med = float(np.median(margins))
        assert 0.5 * 0.1 / n < med < 1.5 * 0.1 / n
    margins5 = [strict_convexity_margin(gen_strictly_convex(5, s)) for s in range(50)]
    assert 0.5 * 0.02 < float(np.median(margins5)) < 2.0 * 0.02


def test_margin_boundary_generator_nonnegative():
    for n in (3, 5, 7):
        for seed in range(10):
            assert strict_convexity_margin(gen_convex_boundary(n, seed)) >= -1e-12


def test_margin_matches_increment_gap_closed_form():
    # for size-symmetric tables the exhaustive scan reduces to the smallest
    # consecutive-increment gap; cmd_cw relies on the closed form at large n
    for n, seed in [(4, 0), (6, 3)]:
        inc = marginal_increments(n, seed)
        game = gen_strictly_convex(n, seed)
        assert strict_convexity_margin(game) == pytest.approx(float(np.min(np.diff(inc))), abs=1e-12)


def test_noise_free_increments_recover_triangular_numbers():
    inc = marginal_increments(5, 0, coeff=0.0)
    g_n = 15.0
    assert np.allclose(inc, np.arange(1, 6) / g_n, atol=1e-15)
    # zero-noise variant coincides with the permutahedron table
    assert np.allclose(np.cumsum(inc), table(gen_permutahedron(5))[[1, 3, 7, 15, 31]], atol=1e-15)


def test_adjacent_permutations_shape():
    perms = adjacent_permutations(Permutation.identity(4))
    assert len(perms) == 4
    assert len({w.ranks for w in perms}) == 4
