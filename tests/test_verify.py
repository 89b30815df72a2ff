import itertools
import tracemalloc

import numpy as np
import pytest
from support import table

from core_picker.games import (
    MASK_BLOCK_BITS,
    GameSpec,
    Permutation,
    cyclic_permutations,
    gen_convex_boundary,
    gen_permutahedron,
    gen_strictly_convex,
    gen_unit_game,
    marginal_vector,
    prefix_coalitions,
    subset_sums,
)
from core_picker import games, verify
from core_picker.geometry import in_simplex
from core_picker.learner import resolve_permutations
from core_picker.oracle import RewardOracle
from core_picker.verify import core_membership


def marginal_vectors(game):
    """The marginal vectors of all n! arrival orders, one row each."""
    orders = itertools.permutations(range(game.n))
    return np.array([marginal_vector(game, Permutation(ranks)) for ranks in orders])


def test_allocation_sums_doubling():
    """games.subset_sums gives every mask the sum of its allocation entries."""
    x = np.array([0.25, 0.5, 0.125])
    sums = subset_sums(x)
    assert sums[0b000] == 0.0
    assert sums[0b101] == pytest.approx(0.375, abs=1e-15)
    assert sums[0b111] == pytest.approx(0.875, abs=1e-15)


def full_table_report(game, x):
    """The unblocked scan: one table of sums from the doubling, then mu - sums."""
    sums = subset_sums(x)
    slack = table(game) - sums
    slack[0] = slack[-1] = -np.inf
    return float(np.max(slack)), abs(float(sums[-1]) - game.mu_grand)


@pytest.mark.parametrize("n", range(2, 21))
def test_blocked_scan_equals_full_table_scan(monkeypatch, n):
    # n >= 5 spans several blocks: 2 at n = 5, up to 32 from n = 9 on
    for module in (games, verify):  # verify reads its own binding of the constant
        monkeypatch.setattr(module, "MASK_BLOCK_BITS", max(4, n - 5))
    rng = np.random.default_rng(n)
    game = gen_strictly_convex(n, n)
    centre = np.full(n, 1.0 / n)
    spread = rng.random(n)
    nan_high = centre.copy()
    nan_high[-1] = np.nan  # the first nan slack sits past the first block
    cases = [(game, x) for x in (centre, marginal_vector(game, cyclic_permutations(n)[n // 2]),
                                 spread / spread.sum(), rng.random(n), nan_high)]
    cases.append((gen_unit_game(n), centre))  # ties: slack 0 up to rounding almost everywhere
    for g, x in cases:
        report = core_membership(g, x)
        got = (report.max_violation, report.efficiency_gap)
        if np.isnan(x).any():  # nan != nan, so compare the floats by their exact repr
            assert repr(got) == repr(full_table_report(g, x))
        else:
            assert got == full_table_report(g, x)


@pytest.mark.parametrize("n, bits", [
    *(pytest.param(n, MASK_BLOCK_BITS, id=str(n)) for n in range(2, 21)),  # 16: two blocks
    *(pytest.param(n, 3, id=f"{n}-3bit") for n in range(2, 15)),  # up to 2^11 blocks of 8 masks
])
def test_a_symmetric_game_and_its_table_give_the_same_bits(monkeypatch, n, bits):
    # the oracle and marginal_vector read reward(), the table is built from blocks(): a
    # gather that misplaces a block shows as a difference between the two formats
    for module in (games, verify):  # verify reads its own binding of the constant
        monkeypatch.setattr(module, "MASK_BLOCK_BITS", bits)
    rng = np.random.default_rng(n)
    w = cyclic_permutations(n)[n // 2]
    for game in (gen_strictly_convex(n, n), gen_convex_boundary(n, n), gen_unit_game(n),
                 gen_permutahedron(n)):
        explicit = GameSpec(n, table(game))
        cyclic = marginal_vector(game, w)
        assert cyclic.tobytes() == marginal_vector(explicit, w).tobytes()
        nan_first, nan_last = np.full(n, 1.0 / n), np.full(n, 1.0 / n)
        nan_first[0] = nan_last[-1] = np.nan
        for x in (np.full(n, 1.0 / n), cyclic, rng.random(n), nan_first, nan_last):
            assert repr(core_membership(game, x)) == repr(core_membership(explicit, x))
        for choice in ("adjacent", "cyclic"):
            prefixes = [S for v in resolve_permutations(choice, n) for S in prefix_coalitions(v)]
            for noise in ("bernoulli", "none"):
                oracles = [RewardOracle(g, n, noise) for g in (game, explicit)]
                sums = [[o.query_sum(S, k) for k in (1, 1000, 2**40) for S in prefixes]
                        for o in oracles]
                assert sums[0] == sums[1]
                assert oracles[0].rng.bit_generator.state == oracles[1].rng.bit_generator.state


def test_generation_and_scan_hold_no_table_at_n20():
    table_bytes = 8 << 20  # one 2^20-entry float64 table
    gen_strictly_convex(2, 5)  # numpy imports its random module on first use
    tracemalloc.start()
    try:
        game = gen_strictly_convex(20, 5)
        core_membership(game, marginal_vector(game, cyclic_permutations(20)[3]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # four blocks of 2^MASK_BLOCK_BITS entries: the gather's index and buffer, the sums, the slack
    assert peak < 0.15 * table_bytes


def test_unit_game_center_is_member():
    game = gen_unit_game(4)
    report = core_membership(game, np.full(4, 0.25), tol=1e-12)
    assert report.is_member
    assert abs(report.max_violation) < 1e-12
    assert report.efficiency_gap < 1e-12


def test_unit_game_tilted_point_violates_by_epsilon():
    game = gen_unit_game(4)
    eps = 0.01
    x = np.full(4, 0.25) + np.array([eps, -eps, 0.0, 0.0])
    report = core_membership(game, x, tol=0.0)
    assert not report.is_member
    assert report.max_violation == pytest.approx(eps, abs=1e-12)


def test_marginal_vectors_of_convex_games_are_members():
    for gen, seed in [(gen_strictly_convex, 0), (gen_convex_boundary, 1)]:
        for n in (3, 5):
            game = gen(n, seed)
            for v in marginal_vectors(game)[:: max(1, n)]:
                report = core_membership(game, v, tol=1e-12)
                assert report.is_member


# The core vertices of a convex game are its marginal vectors, and the Shapley
# value of a symmetric game (every generator here) is the equal split of mu(N).


def test_core_vertices_unit_game_collapses_to_point():
    assert np.allclose(marginal_vectors(gen_unit_game(3)), 1 / 3, atol=1e-12)


def test_core_vertices_permutahedron_all_distinct():
    verts = marginal_vectors(gen_permutahedron(3))
    expected = {tuple(p) for p in
                [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]}
    assert {tuple(np.round(v * 6).astype(int)) for v in verts} == expected


def test_core_vertices_strictly_convex_has_factorial_many():
    verts = marginal_vectors(gen_strictly_convex(5, 3))
    assert len(np.unique(np.round(verts / 1e-10), axis=0)) == 120  # distinct beyond 1e-10


def test_core_vertices_pass_membership():
    game = gen_strictly_convex(4, 9)
    for v in marginal_vectors(game):
        assert core_membership(game, v, tol=1e-12).is_member


def test_shapley_is_efficient_and_stable():
    for seed in (0, 4):
        game = gen_strictly_convex(4, seed)
        value = np.full(4, game.mu_grand / 4)  # a symmetric game splits mu(N) equally
        assert value.sum() == pytest.approx(game.mu_grand, abs=1e-12)
        assert core_membership(game, value, tol=1e-12).is_member


def test_shapley_inside_cyclic_vertex_simplex_of_permutahedron():
    game = gen_permutahedron(4)
    verts = [marginal_vector(game, w) for w in cyclic_permutations(4)]
    assert in_simplex(np.full(4, game.mu_grand / 4), verts)


def test_an_allocation_of_the_wrong_length_is_rejected():
    # sliced to its own length, a short x once passed with a zero efficiency gap
    game = gen_strictly_convex(3, 0)
    for x in ([0.5, 0.5], [0.25, 0.25, 0.25, 0.25], [[1 / 3] * 3], 1.0):
        with pytest.raises(ValueError, match=r"allocation must have shape \(3,\)"):
            core_membership(game, x)
    assert core_membership(game, [1 / 3] * 3).efficiency_gap < 1e-15
