import math

import numpy as np
import pytest

from core_picker.games import (
    cyclic_permutations,
    gen_permutahedron,
    gen_strictly_convex,
    gen_unit_game,
    marginal_vector,
    prefix_coalitions,
)
from core_picker.learner import (
    LearnerConfig,
    common_points_picking,
    confidence_bonus,
    resolve_permutations,
    run_epochs,
    stopping_condition,
    vertex_estimates,
)
from core_picker.oracle import RewardOracle
from core_picker.verify import core_membership


def noise_free(game_fn, *args):
    return game_fn(*args, noise="uniform:0")


# ---------------------------------------------------------------------------
# confidence bonus


def test_bonus_degenerate_inputs_give_zero():
    assert confidence_bonus(1, 1, 1.0) == 0.0


def test_bonus_closed_form():
    value = confidence_bonus(2, 2, 0.5)
    assert value == math.sqrt(2 * math.log(8.0) / 2)
    assert value == pytest.approx(math.sqrt(math.log(8.0)), abs=1e-12)
    assert value == pytest.approx(1.442, abs=2e-3)


def test_bonus_decays_to_zero():
    grid = [10, 100, 10**4, 10**6, 10**9]
    values = [confidence_bonus(ep, 4, 0.1) for ep in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3


# ---------------------------------------------------------------------------
# configuration and permutation resolution


def test_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig(delta=0.0)
    with pytest.raises(ValueError):
        LearnerConfig(delta=1.0)
    with pytest.raises(ValueError):
        LearnerConfig(delta=0.1, max_epochs=0)


def test_resolve_permutations_counts():
    assert len(resolve_permutations("adjacent", 5)) == 5
    assert len(resolve_permutations("cyclic", 5)) == 5
    explicit = cyclic_permutations(3)
    assert resolve_permutations(explicit, 3) == explicit
    with pytest.raises(ValueError):
        resolve_permutations(explicit[:2], 3)  # fewer than n permutations
    with pytest.raises(ValueError):
        resolve_permutations([explicit[0]] * 3, 3)  # duplicates


# ---------------------------------------------------------------------------
# epochs


def advance(oracle, perms, k, totals=None):
    """Prefix totals after k more epochs over the given permutations."""
    if totals is None:
        totals = np.zeros((len(perms), len(perms)))
    run_epochs(totals, oracle, [prefix_coalitions(w) for w in perms], k)
    return totals


def ranks_of(perms):
    return np.array([w.ranks for w in perms])


def telescoped_means(totals, epochs, perms):
    """Reference: walk each arrival order, crediting each player the step in
    its prefix total."""
    out = np.empty(totals.shape)
    for p, w in enumerate(perms):
        prev = 0.0
        for player in w.arrival_order():
            cur = totals[p, w.ranks[player]]
            out[p, player] = (cur - prev) / epochs
            prev = cur
    return out


def test_noise_free_epoch_recovers_exact_vertices():
    game = noise_free(gen_permutahedron, 3)
    oracle = RewardOracle(game, seed=5)
    perms = resolve_permutations("adjacent", 3)
    totals = advance(oracle, perms, 1)
    estimates = vertex_estimates(totals, 1, ranks_of(perms), game.mu_grand)
    for est, w in zip(estimates, perms):
        assert np.allclose(est, marginal_vector(game, w), atol=1e-15)


def test_epoch_query_budget():
    game = gen_strictly_convex(4, 0)
    oracle = RewardOracle(game, seed=1)
    perms = resolve_permutations("adjacent", 4)
    totals = advance(oracle, perms, 1)
    assert oracle.sample_count == 16
    advance(oracle, perms, 9, totals)
    assert oracle.sample_count == 160


def test_estimates_are_projected_running_means():
    game = gen_strictly_convex(3, 2)
    oracle = RewardOracle(game, seed=3)
    perms = resolve_permutations("adjacent", 3)
    totals = advance(oracle, perms, 50)
    estimates = vertex_estimates(totals, 50, ranks_of(perms), game.mu_grand)
    raw = telescoped_means(totals, 50, perms)
    for p in range(3):
        projected = raw[p] + (game.mu_grand - raw[p].sum()) / 3
        assert np.allclose(estimates[p], projected, atol=1e-12)
        assert estimates[p].sum() == pytest.approx(game.mu_grand, abs=1e-10)


def test_unprojected_estimates_are_plain_means():
    game = gen_strictly_convex(3, 2)
    oracle = RewardOracle(game, seed=3)
    perms = resolve_permutations("cyclic", 3)
    totals = advance(oracle, perms, 20)
    estimates = vertex_estimates(totals, 20, ranks_of(perms))
    assert np.allclose(estimates, telescoped_means(totals, 20, perms), atol=1e-12)


def test_bernoulli_unit_game_estimates_concentrate():
    game = gen_unit_game(3)
    oracle = RewardOracle(game, seed=123)
    perms = resolve_permutations("adjacent", 3)
    totals = advance(oracle, perms, 1000)
    estimates = vertex_estimates(totals, 1000, ranks_of(perms), game.mu_grand)
    assert np.abs(estimates - 1 / 3).max() < 0.05


# ---------------------------------------------------------------------------
# stopping condition


def test_stopping_empty_is_false():
    assert stopping_condition([], 0.5) is False


def test_stopping_scaled_basis_true():
    scale = 10 / np.sqrt(2)  # pairwise distance 10
    points = [scale * np.eye(3)[i] for i in range(3)]
    assert stopping_condition(points, 1e-4) is True


def test_stopping_duplicate_points_false():
    scale = 10 / np.sqrt(2)
    points = [scale * np.eye(3)[i] for i in [0, 0, 2]]
    assert stopping_condition(points, 1e-4) is False


def test_stopping_large_bonus_false():
    points = [np.eye(3)[i] for i in range(3)]
    assert stopping_condition(points, 10.0) is False


# ---------------------------------------------------------------------------
# full runs


def test_noise_free_permutahedron_run_returns_vertex_average():
    game = noise_free(gen_permutahedron, 3)
    oracle = RewardOracle(game, seed=0)
    report = common_points_picking(oracle, LearnerConfig(delta=0.1))
    assert report.stopped_naturally
    perms = resolve_permutations("adjacent", 3)
    expected = np.mean([marginal_vector(game, w) for w in perms], axis=0)
    assert np.allclose(report.allocation, expected, atol=1e-12)
    check = core_membership(game, report.allocation)
    assert check.max_violation <= 0.0
    assert check.efficiency_gap <= 1e-10
    assert report.samples == report.epochs * 9
    assert oracle.sample_count == report.samples


def test_unit_game_never_stops():
    game = gen_unit_game(4)
    oracle = RewardOracle(game, seed=9)
    config = LearnerConfig(delta=0.1, max_epochs=20_000)
    report = common_points_picking(oracle, config)
    assert not report.stopped_naturally
    assert report.epochs == 20_000


def test_both_permutation_choices_stop_on_generated_games():
    for n in (3, 8):
        for choice in ("adjacent", "cyclic"):
            game = gen_strictly_convex(n, 42)
            oracle = RewardOracle(game, seed=7)
            report = common_points_picking(
                oracle, LearnerConfig(delta=0.1, perm_choice=choice)
            )
            assert report.stopped_naturally, (n, choice)
            check = core_membership(game, report.allocation)
            assert check.max_violation <= 0.0
            assert check.efficiency_gap <= 1e-10


def test_noisy_runs_are_sound_and_covered():
    # on each stopped run the true vertices sit inside their confidence boxes
    # and the returned point is exactly stable
    n = 3
    perms = resolve_permutations("adjacent", n)
    covered = sound = 0
    runs = 40
    for seed in range(runs):
        game = gen_strictly_convex(n, seed)
        oracle = RewardOracle(game, seed=seed + 1000)
        report = common_points_picking(oracle, LearnerConfig(delta=0.1))
        assert report.stopped_naturally
        truth = [marginal_vector(game, w) for w in perms]
        if all(np.abs(e - t).max() <= report.bonus for e, t in zip(report.estimates, truth)):
            covered += 1
            check = core_membership(game, report.allocation)
            sound += check.max_violation <= 0.0 and check.efficiency_gap <= 1e-10
    assert covered >= 0.9 * runs
    assert sound == covered


def test_explicit_permutation_list_runs():
    game = gen_strictly_convex(3, 8)
    perms = tuple(cyclic_permutations(3))
    oracle = RewardOracle(game, seed=2)
    report = common_points_picking(oracle, LearnerConfig(delta=0.1, perm_choice=perms))
    assert report.stopped_naturally
    assert core_membership(game, report.allocation).max_violation <= 0.0


def test_two_player_game_runs():
    game = gen_strictly_convex(2, 1)
    oracle = RewardOracle(game, seed=3)
    report = common_points_picking(oracle, LearnerConfig(delta=0.1))
    assert report.stopped_naturally
    assert report.samples == 4 * report.epochs
    assert core_membership(game, report.allocation).max_violation <= 0.0


def test_projection_off_leaves_raw_means():
    # scale the table so the grand-coalition reward is genuinely stochastic
    from core_picker.games import GameSpec

    base = gen_strictly_convex(3, 5)
    game = GameSpec(n=3, mu=base.mu * 0.8)
    oracle = RewardOracle(game, seed=6)
    config = LearnerConfig(delta=0.1, project_to_hn=False, max_epochs=10**5)
    report = common_points_picking(oracle, config)
    # raw telescoped means carry the grand-coalition sampling noise
    sums = [float(e.sum()) for e in report.estimates]
    assert all(abs(s - game.mu_grand) < 0.05 for s in sums)
    assert any(s != game.mu_grand for s in sums)


def test_run_is_deterministic_given_seed():
    game = gen_strictly_convex(3, 11)
    reports = [
        common_points_picking(RewardOracle(game, seed=5), LearnerConfig(delta=0.1))
        for _ in range(2)
    ]
    assert reports[0].epochs == reports[1].epochs
    assert np.array_equal(reports[0].allocation, reports[1].allocation)
