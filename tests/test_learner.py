import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from core_picker import learner
from core_picker.games import (
    GameSpec,
    cyclic_permutations,
    gen_permutahedron,
    gen_strictly_convex,
    gen_unit_game,
    marginal_vector,
    prefix_coalitions,
)
from core_picker.geometry import in_simplex, mean_point, separating_normals
from core_picker.learner import (
    DEFAULT_MAX_EPOCHS,
    LearnerConfig,
    check_schedule,
    common_points_picking,
    confidence_bonus,
    resolve_permutations,
    run_epochs,
    stop_bonus_ceiling,
    stopping_condition,
    vertex_estimates,
)
from core_picker.oracle import RewardOracle
from core_picker.verify import core_membership
from support import (
    Box,
    cyclic_center_config,
    gen_weighted_game,
    random_box_corner,
    reference_check_windows,
    reference_stopping_condition,
    table,
)


def noise_free(game, seed):
    """An oracle whose every reward equals its mean."""
    return RewardOracle(game, seed, "none")


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


def test_bonus_keeps_its_closed_form_where_the_quotient_is_finite():
    for n in (2, 3, 20):
        for ep in (1, 2, 64, 10**6, 10**12, 2**63 - 1):
            for delta in (0.5, 0.1, 1e-10, 1e-100, 1e-280, 1e-300, 1e-307):
                if n * ep / delta < math.inf:
                    expected = math.sqrt(2 * math.log(n * ep / delta) / ep)
                    assert confidence_bonus(ep, n, delta) == expected, (n, ep, delta)


@pytest.mark.parametrize("n", [3, 20])
def test_schedule_bonuses_stay_finite_and_falling_at_the_least_delta(n):
    # n ep / 5e-324 overflows at every epoch: an infinite bonus would never stop a run
    assert n / 5e-324 == math.inf
    bonuses = [b for _, _, window in check_schedule(n, 5e-324, DEFAULT_MAX_EPOCHS) for b in window]
    assert all(math.isfinite(b) for b in bonuses)
    assert all(a > b for a, b in zip(bonuses, bonuses[1:]))


# ---------------------------------------------------------------------------
# configuration and permutation resolution


def test_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig(delta=0.0)
    with pytest.raises(ValueError):
        LearnerConfig(delta=1.0)
    with pytest.raises(ValueError):
        LearnerConfig(delta=0.1, max_epochs=0)
    with pytest.raises(ValueError, match="max_epochs"):
        LearnerConfig(delta=0.1, max_epochs=2**63)  # above numpy's largest binomial count
    LearnerConfig(delta=0.1, max_epochs=2**63 - 1)
    for cap in (100.5, 1000.0):  # a cap counts whole epochs; it used to reach the report
        with pytest.raises(ValueError, match="max_epochs must be an integer"):
            LearnerConfig(delta=0.1, max_epochs=cap)
    assert type(LearnerConfig(delta=0.1, max_epochs=np.int64(1000)).max_epochs) is int
    with pytest.raises(ValueError, match="unknown permutation choice 'bogus'"):
        LearnerConfig(delta=0.1, perm_choice="bogus")  # rejected when built, not in the run
    assert RewardOracle(gen_unit_game(3), 0).query_sum(1, 2**63 - 1) > 0  # the cap still draws


def test_resolve_permutations_counts():
    assert len(resolve_permutations("adjacent", 5)) == 5
    assert len(resolve_permutations("cyclic", 5)) == 5
    assert resolve_permutations("cyclic", 3) == cyclic_permutations(3)
    for choice in ("random", "Cyclic", cyclic_permutations(3)):
        with pytest.raises(ValueError, match="use adjacent or cyclic"):
            resolve_permutations(choice, 3)


# ---------------------------------------------------------------------------
# epochs


def flat_prefixes(perms):
    """The n^2 prefix masks of the permutations, row-major, as a run builds them."""
    return [S for w in perms for S in prefix_coalitions(w)]


def advance(oracle, perms, k, totals=None):
    """Prefix totals after k more epochs over the given permutations."""
    n = len(perms)
    if totals is None:
        totals = np.zeros((n, n))
    totals += np.reshape(run_epochs(oracle, flat_prefixes(perms), k), (n, n))
    return totals


def draw_row_major(totals, oracle, chains, k):
    """Reference for run_epochs: one query_sum per prefix, row by row."""
    for p, chain in enumerate(chains):
        for i, coalition in enumerate(chain):
            totals[p, i] += oracle.query_sum(coalition, k)


@pytest.mark.parametrize("noise", ["bernoulli", "none"])
@pytest.mark.parametrize("k", [1, 10**6, 2**63 - 1])
def test_run_epochs_draws_row_major(noise, k):
    perms = resolve_permutations("cyclic", 4)
    chains = [prefix_coalitions(w) for w in perms]
    game = gen_weighted_game(4, 3)
    oracle, reference = RewardOracle(game, 21, noise), RewardOracle(game, 21, noise)
    totals, expected = np.zeros((4, 4)), np.zeros((4, 4))
    for _ in range(2):
        sums = run_epochs(oracle, flat_prefixes(perms), k)  # flat, added by the caller
        assert type(sums) is list and len(sums) == 16
        assert not any(isinstance(s, list) for s in sums)
        totals += np.reshape(sums, (4, 4))
        draw_row_major(expected, reference, chains, k)
    assert totals.tobytes() == expected.tobytes()
    assert oracle.total_queries == reference.total_queries == 2 * 16 * k
    assert oracle.rng.bit_generator.state == reference.rng.bit_generator.state


def test_a_run_caches_one_mean_per_prefix_it_queries():
    n = 10
    game = gen_strictly_convex(n, 1)
    mu = table(game)
    prefixes = {S for w in resolve_permutations("cyclic", n) for S in prefix_coalitions(w)}
    for noise in ("bernoulli", "none"):
        oracle = RewardOracle(game, 2, noise)
        report = common_points_picking(oracle, LearnerConfig(delta=0.1, perm_choice="cyclic"))
        assert report.stopped_naturally
        cached = oracle._means
        assert set(cached) == prefixes and len(cached) <= n * n
        for S, mean in cached.items():  # ready for numpy's binomial: a 0-d float64 array
            assert type(mean) is np.ndarray and mean.shape == () and mean.dtype == np.float64
            assert float(mean) == float(mu[S])


def test_an_advance_hands_every_draw_the_same_ready_count():
    """numpy's binomial converts a Python scalar argument to an array on every
    call; a 0-d array of its dtype it takes as it is.  One advance converts its
    count once, and each mean was converted once, when first queried."""
    oracle = RewardOracle(gen_weighted_game(3, 1), 5)
    draw, calls = oracle._draw, []

    def recording(k, mean):
        calls.append((k, mean))
        return draw(k, mean)

    oracle._draw = recording
    run_epochs(oracle, flat_prefixes(resolve_permutations("adjacent", 3)), 1000)
    assert len(calls) == 9
    count = calls[0][0]
    assert all(k is count for k, _ in calls)
    assert count.dtype == np.int64 and int(count) == 1000
    for arg in itertools.chain.from_iterable(calls):
        assert type(arg) is np.ndarray and arg.shape == ()


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
    game = gen_permutahedron(3)
    oracle = noise_free(game, 5)
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
    assert oracle.total_queries == 16
    advance(oracle, perms, 9, totals)
    assert oracle.total_queries == 160


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


def test_window_stack_estimates_equal_single_tables():
    # n = 9 rows are long enough for numpy's unrolled row sums
    game = gen_strictly_convex(9, 4)
    oracle = RewardOracle(game, seed=8)
    perms = resolve_permutations("cyclic", 9)
    epochs, tables, totals = [3, 7, 12], [], None
    for k in (3, 4, 5):
        totals = advance(oracle, perms, k, totals)
        tables.append(totals.copy())
    stacked = vertex_estimates(np.array(tables), epochs, ranks_of(perms), game.mu_grand)
    for table, ep, est in zip(tables, epochs, stacked):
        assert np.array_equal(est, vertex_estimates(table, ep, ranks_of(perms), game.mu_grand))
        raw = telescoped_means(table, ep, perms)
        assert np.allclose(est, raw + (game.mu_grand - raw.sum(axis=1, keepdims=True)) / 9,
                           rtol=0.0, atol=1e-12)


def test_bernoulli_unit_game_estimates_concentrate():
    game = gen_unit_game(3)
    oracle = RewardOracle(game, seed=123)
    perms = resolve_permutations("adjacent", 3)
    totals = advance(oracle, perms, 1000)
    estimates = vertex_estimates(totals, 1000, ranks_of(perms), game.mu_grand)
    assert np.abs(estimates - 1 / 3).max() < 0.05


# ---------------------------------------------------------------------------
# stopping condition


def test_stopping_scaled_basis_true():
    scale = 10 / np.sqrt(2)  # pairwise distance 10
    assert stopping_condition([scale * np.eye(3)], [1e-4]).tolist() == [True]


def test_stopping_duplicate_points_false():
    scale = 10 / np.sqrt(2)
    points = scale * np.eye(3)[[0, 0, 2]]
    assert stopping_condition([points], [1e-4]).tolist() == [False]


def test_stopping_large_bonus_false():
    assert stopping_condition([np.eye(3)], [10.0]).tolist() == [False]


def test_a_negative_bonus_is_rejected_and_a_nan_bonus_fails():
    basis = 10 / np.sqrt(2) * np.eye(3)  # pairwise distance 10: passes at bonus 1e-4
    for estimates, bonus in ((np.eye(3), -1.0), ([basis, basis], [1e-4, -1e-300])):
        with pytest.raises(ValueError, match="bonus must be nonnegative"):
            stopping_condition(estimates, bonus)
    assert not stopping_condition(basis, np.nan)
    assert stopping_condition([basis, basis], [1e-4, np.nan]).tolist() == [True, False]
    assert stopping_condition(basis, -0.0)


def test_bonuses_that_do_not_match_the_checks_are_rejected():
    # rejected before the distance bound, whichever checks would reach the solve
    basis = 10 / np.sqrt(2) * np.eye(3)
    for estimates, bonus in ((5 * np.eye(3), [0.01, 0.02]), ([basis] * 3, [1e-4] * 2),
                             ([basis] * 2, np.full((2, 1), 1e-4))):
        with pytest.raises(ValueError):
            stopping_condition(estimates, bonus)
    # bonuses that broadcast to the checks' leading shape give the full stack's verdicts
    stack, bonuses = np.array([[basis, np.eye(3)]] * 3), np.array([1e-4, 10.0])
    full = stopping_condition(stack, np.broadcast_to(bonuses, (3, 2)).copy())
    assert full.tolist() == stopping_condition(stack, bonuses).tolist() == [[True, False]] * 3


@pytest.mark.parametrize("singular", [False, True])
def test_stacked_stopping_equals_per_item_calls(singular):
    rng = np.random.default_rng(11 + singular)
    for n in (2, 3, 5, 9):
        for w in (1, 4, 15):
            points = rng.random((w, n, n))
            if singular:
                # 0/1 means as after one Bernoulli epoch: many exactly singular sets
                points = np.round(points)
                points[0, 1] = points[0, 0]
            bonuses = rng.random(w) * 0.02
            stacked = stopping_condition(points, bonuses)
            assert stacked.shape == (w,)
            single = [stopping_condition(points[i:i + 1], bonuses[i:i + 1]) for i in range(w)]
            assert all(s.shape == (1,) for s in single)
            assert stacked.tolist() == [bool(s[0]) for s in single]


@pytest.mark.parametrize("n", range(2, 9))
def test_no_estimates_pass_above_the_bonus_ceiling(n):
    # by-rank means anywhere in [-1, 1], the corners included, projected as a run does
    rng = np.random.default_rng(100 + n)
    index = ranks_of(resolve_permutations("cyclic", n))
    ceiling = stop_bonus_ceiling(n)
    for mu_grand in (0.0, 0.5, 1.0):
        corners = rng.choice([-1.0, 1.0], (1000, n, n))
        for by_rank in (corners, rng.uniform(-1.0, 1.0, (1000, n, n))):
            totals = np.cumsum(by_rank, axis=-1)
            estimates = vertex_estimates(totals, np.ones(1000), index, mu_grand)
            assert not stopping_condition(estimates, np.full(1000, ceiling * (1 + 1e-9))).any()
            assert stopping_condition(estimates, np.full(1000, ceiling / 10)).any()  # not vacuous


def count_solves(monkeypatch):
    """The sizes of the stacks ``stopping_condition`` hands to the solve."""
    solved = []

    def counted(points):
        solved.append(len(points))
        return separating_normals(points)

    monkeypatch.setattr(learner, "separating_normals", counted)
    return solved


@pytest.mark.parametrize("n", range(2, 21))
def test_the_distance_bound_changes_no_boolean_of_solving_every_check(monkeypatch, n):
    rng = np.random.default_rng(700 + n)
    random = rng.uniform(-1.0, 1.0, (6, n, n))
    scaled = rng.random((5, n, n)) * np.array([1e-12, 1e-6, 1.0, 1e6, 1e12])[:, None, None]
    degenerate = rng.normal(size=(2, n, n))
    degenerate[0, 0] = degenerate[0, -1]  # a repeated point
    weights = rng.random(n - 1)
    degenerate[1, 0] = weights / weights.sum() @ degenerate[1, 1:]  # x^0 on the others' hull
    singular = np.round(rng.random((6, n, n)))  # 0/1 means, as after one Bernoulli epoch
    singular[0] = 0.0  # every point the same, so the stacked inverse fails
    off_plane = rng.random((4, n, n)) + rng.normal(size=(4, n, 1))  # rows of different sums
    # regular simplices: every altitude equals n/(n-1) r, so the bound is tightest here
    regular = np.eye(n) * np.array([1.0, 1e-3, 1e3])[:, None, None] + rng.normal(size=(3, 1, 1))
    solved, checks = count_solves(monkeypatch), 0
    root = 2.0 * math.sqrt(n)
    for stack in (random, scaled, degenerate, singular, off_plane, regular):
        normals, altitudes = separating_normals(stack)
        passing = (altitudes / (root * (n + 1) + np.abs(normals).sum(axis=-1))).min(axis=-1)
        nearest = np.linalg.norm(stack - stack.mean(axis=-2, keepdims=True), axis=-1).min(axis=-1)
        skipping = n * nearest / ((n - 1) * (root * (n + 1) + 1.0))
        for edge in (passing * (1 - 1e-9), passing * (1 + 1e-9),
                     skipping * (1 - 1e-6), skipping * (1 + 1e-6)):
            bonuses = np.where(np.isnan(edge), 1e-3, edge)  # degenerate sets have no threshold
            expected = reference_stopping_condition(stack, bonuses)
            assert stopping_condition(stack, bonuses).tolist() == expected.tolist()
            checks += len(stack)
    with pytest.raises(np.linalg.LinAlgError):  # the reference inverts these sets one by one
        np.linalg.inv(singular - singular.mean(axis=-1, keepdims=True) + 1.0)
    assert 0 < sum(solved) < checks  # some checks were skipped and some solved
    # not vacuous: the last stack, the regular simplices, passes just below its thresholds
    assert stopping_condition(regular, passing * (1 - 1e-9)).all()


def test_stopping_condition_keeps_its_edge_cases(monkeypatch):
    basis = 10 / np.sqrt(2) * np.eye(3)  # pairwise distance 10
    solved = count_solves(monkeypatch)
    # one set and a scalar bonus give a numpy bool: a pass, a solved fail and a skip
    for bonus in (0.5, 0.57, 10.0):
        result, expected = stopping_condition(basis, bonus), reference_stopping_condition(basis, bonus)
        assert type(result) is type(expected) and result.shape == expected.shape == ()
        assert result == expected == (bonus == 0.5)
    assert solved == [1, 1]
    broken = np.array([basis] * 4)
    broken[0, 0, 0], broken[1, 1, 1], broken[2] = np.nan, np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        assert stopping_condition(broken, 1e-4).tolist() == [False, False, False, True]
    solved.clear()
    result = stopping_condition(np.array([[basis] * 3] * 2), np.full((2, 3), 10.0))
    assert result.shape == (2, 3) and result.dtype == bool and not result.any()
    assert solved == []  # every check skipped


def test_runs_solve_only_the_checks_the_distance_bound_leaves(monkeypatch):
    solved, decided = count_solves(monkeypatch), []

    def counted(estimates, bonuses):
        decided.append(len(bonuses))
        return stopping_condition(estimates, bonuses)

    monkeypatch.setattr(learner, "stopping_condition", counted)
    unit = common_points_picking(RewardOracle(gen_unit_game(4), seed=7),
                                 LearnerConfig(delta=0.1, max_epochs=10**6))
    assert not unit.stopped_naturally and sum(decided) > 100 and solved == []
    decided.clear()
    strict = common_points_picking(RewardOracle(gen_strictly_convex(6, 0), seed=7),
                                   LearnerConfig(delta=0.1))
    assert strict.stopped_naturally and 0 < 3 * sum(solved) <= sum(decided)


def test_bonus_ceiling_is_exact_for_two_players():
    pair = [[1.0, -1.0], [-1.0, 1.0]]
    assert stop_bonus_ceiling(2) == pytest.approx(2 / 7, rel=1e-15)
    assert stopping_condition([pair, pair], [0.28, stop_bonus_ceiling(2) * (1 - 1e-9)]).all()
    assert not stopping_condition([pair], [stop_bonus_ceiling(2) * (1 + 1e-9)]).any()


@pytest.mark.parametrize("scale", [1e13, 1e14, 1e15, 1e16])
def test_a_solve_past_the_coordinate_domain_raises_and_a_skip_does_not(monkeypatch, scale):
    basis = scale / np.sqrt(2) * np.eye(3)  # pairwise distance scale
    solved = count_solves(monkeypatch)
    with pytest.raises(ValueError, match="coordinates"):
        stopping_condition(basis, 1e-4)
    assert not stopping_condition([basis], [scale]).any()  # decided by the distance bound
    assert solved == [1]


def test_one_pass_floor_sets_the_clearance_the_distance_bound_and_the_ceiling(monkeypatch):
    for n in range(2, 21):  # bit for bit the closed form
        assert stop_bonus_ceiling(n) == 2 * math.sqrt(n) / (2 * math.sqrt(n) * (n + 1) + math.sqrt(2))
    # side 10: the clearance passes up to bonus 0.559, and the bound solves up to 0.583
    basis = 10 / np.sqrt(2) * np.eye(3)
    bonuses = [0.52, 0.55]
    solved = count_solves(monkeypatch)
    ceiling, passed = stop_bonus_ceiling(3), stopping_condition([basis, basis], bonuses)
    floor = learner.min_pass_altitude
    monkeypatch.setattr(learner, "min_pass_altitude", lambda n, bonus, l1: 1.1 * floor(n, bonus, l1))
    assert stop_bonus_ceiling(3) == pytest.approx(ceiling / 1.1, rel=1e-12)
    assert passed.tolist() == [True, True]
    assert stopping_condition([basis, basis], bonuses).tolist() == [False, False]
    assert solved == [2, 1]  # the raised floor skips the check at 0.55 and fails the one at 0.52


def test_the_distance_bound_gives_up_a_margin_of_the_floor_for_rounding():
    # a pass needs ||v||_1 >= sqrt(2) and the bound takes 1; what that gives up
    # must outweigh the rounding of r, the floor and the solve's altitudes
    for n in range(2, 21):
        margin = learner.min_pass_altitude(n, 1.0, math.sqrt(2)) / learner.min_pass_altitude(n, 1.0, 1.0)
        assert margin - 1 >= 2e-3


def largest_passing_bonus(estimates):
    """The largest bonus at which ``stopping_condition`` passes, by bisection."""
    lo, hi = 0.0, 1.0
    assert stopping_condition(estimates, lo) and not stopping_condition(estimates, hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if stopping_condition(estimates, mid) else (lo, mid)
    return lo


def test_the_production_floor_makes_the_mean_a_common_point():
    """The link from clearance to common point, at the floor a run stops on.

    Each random stack is bisected to the largest passing bonus b.  Boxes of
    the radius (1 + 1/(2n)) b that the projected estimates keep (the lemma in
    ``min_pass_altitude``) must hold the estimates' mean in every sampled
    corner simplex.  Boxes 6x that radius lose it on some corner set, so the
    sampling can see a miss.  ``support.meets_clearance_condition``, the
    paper's condition that criterion 7 tests, asks for more clearance.
    """
    rng = np.random.default_rng(1700)
    control_misses = 0
    for n in range(3, 7):
        for _ in range(10):
            centers, _ = cyclic_center_config(rng, n, jitter=0.3)
            radius = (1.0 + 1.0 / (2 * n)) * largest_passing_bonus(centers)
            mean = mean_point(centers)
            for _ in range(60):
                assert in_simplex(mean, [random_box_corner(rng, Box(c, radius)) for c in centers])
            for _ in range(20):
                corners = [random_box_corner(rng, Box(c, 6.0 * radius)) for c in centers]
                control_misses += not in_simplex(mean, corners)
    assert control_misses > 0


# ---------------------------------------------------------------------------
# full runs


def window_end(n, config, epoch):
    """The last epoch of the ``check_schedule`` window that holds check ``epoch``:
    a run draws forward to it, so its oracle counts that many epochs."""
    schedule = check_schedule(n, config.delta, config.max_epochs)
    return next(window[-1] for window, _, _ in schedule if epoch <= window[-1])


def test_noise_free_permutahedron_run_returns_vertex_average():
    game, config = gen_permutahedron(3), LearnerConfig(delta=0.1)
    oracle = noise_free(game, 0)
    report = common_points_picking(oracle, config)
    assert report.stopped_naturally
    perms = resolve_permutations("adjacent", 3)
    expected = np.mean([marginal_vector(game, w) for w in perms], axis=0)
    assert np.allclose(report.allocation, expected, atol=1e-12)
    check = core_membership(game, report.allocation)
    assert check.max_violation <= 0.0
    assert check.efficiency_gap <= 1e-10
    assert report.samples == report.epochs * 9
    assert report.epochs < window_end(3, config, report.epochs)  # the draws past the stop
    assert oracle.total_queries == window_end(3, config, report.epochs) * 9


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


def test_two_player_game_runs():
    game = gen_strictly_convex(2, 1)
    oracle = RewardOracle(game, seed=3)
    report = common_points_picking(oracle, LearnerConfig(delta=0.1))
    assert report.stopped_naturally
    assert report.samples == 4 * report.epochs
    assert core_membership(game, report.allocation).max_violation <= 0.0


def test_check_windows_cut_at_the_first_check_that_can_stop_then_every_15_checks():
    # at n = 3 the first window runs through 375, the first check whose bonus
    # is at or below the ceiling; each later window holds 15 checks
    windows = [list(window) for window, _, _ in check_schedule(3, 0.1, 1000)]
    first = windows[0]
    assert first[:8] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert first[32:64] == list(range(33, 65))
    assert first[64:80] == [67, 70, 73, 76, 79, 82, 86, 90, 94, 98, 102, 107, 112, 117, 122, 128]
    assert first[-1] == 375 and len(first) == 103
    assert windows[1] == [393, 412, 432, 453, 475, 498, 522, 548, 575, 603, 633, 664, 697, 731, 767]
    assert windows[2] == [805, 845, 887, 931, 977, 1000]  # the cap is the last check
    assert len(windows) == 3


def test_a_window_of_checks_spans_less_than_one_doubling():
    # the most checks that grow by at most CHECK_GROWTH and span less than 2x
    assert learner.CHECK_GROWTH ** (learner.CHECKS_PER_WINDOW - 1) < 2
    assert 2 <= learner.CHECK_GROWTH ** learner.CHECKS_PER_WINDOW
    assert learner.CHECKS_PER_WINDOW == 15


# (cap, checks, doublings (2^(j-1), 2^j] that hold a check)
SCHEDULE_SIZES = [(1, 1, 1), (2, 2, 2), (63, 63, 7), (64, 64, 7), (65, 65, 8), (100, 75, 8),
                  (10**6, 266, 21), (10**12, 549, 41), (2**63 - 1, 878, 64)]


@pytest.mark.parametrize("cap, checks, doublings", SCHEDULE_SIZES)
def test_schedule_windows_equal_the_one_check_at_a_time_reference(cap, checks, doublings):
    schedule, reference = check_schedule(3, 0.1, cap), reference_check_windows(3, 0.1, cap)
    assert [list(window) for window, _, _ in schedule] == reference
    epochs = [t for w in reference for t in w]
    # the checks grow by less than 2x each, so no doubling up to the cap lacks one
    assert (len(epochs), len({(t - 1).bit_length() for t in epochs})) == (checks, doublings)


@pytest.mark.parametrize("delta", [0.1, 0.01])
@pytest.mark.parametrize("n", range(2, 11))
def test_schedule_bonuses_are_the_confidence_bonus_and_skip_above_the_ceiling(n, delta):
    ceiling = stop_bonus_ceiling(n)
    for cap in (10**6, 10**12, 2**63 - 1):
        schedule = check_schedule(n, delta, cap)
        for window, _, bonuses in schedule:  # every window is decided
            assert bonuses == tuple(confidence_bonus(t, n, delta) for t in window)
        # the first window holds every check above the ceiling and ends at the
        # first one that is not; each later window but the last holds 15 checks
        first_bonuses = schedule[0][2]
        assert all(b > ceiling for b in first_bonuses[:-1]) and first_bonuses[-1] <= ceiling
        assert len(first_bonuses) > learner.CHECK_DENSE_UNTIL  # no dense check can stop
        assert [len(window) for window, _, _ in schedule[1:-1]] == [15] * (len(schedule) - 2)
        assert 1 <= len(schedule[-1][0]) <= 15 and schedule[-1][0][-1] == cap
        assert [list(window) for window, _, _ in schedule] == reference_check_windows(
            n, delta, cap)


def test_the_passable_checks_keep_the_union_bound_at_most_delta():
    # a check c fails its confidence event with chance at most 2 n delta / t_c,
    # and only a check at or below the ceiling can stop a run, so the chance
    # of a stop outside the core is at most delta times this sum
    worst = 0.0
    for n in range(2, 21):
        ceiling = stop_bonus_ceiling(n)
        for delta in (1e-100, 1e-10, 0.01, 0.1, 0.5, 0.93, 0.9999):
            for cap in (500, 10**6, 10**12, 2**63 - 1):
                total = sum(2 * n / t for window, _, bonuses in check_schedule(n, delta, cap)
                            for t, bonus in zip(window, bonuses) if bonus <= ceiling)
                assert total <= 1, (n, delta, cap, total)
                worst = max(worst, total)
    assert worst > 0.5  # the grid reaches the passable checks of the largest deltas


def test_schedule_is_one_shared_immutable_object():
    # every run with the same n, delta and cap reads the same cached schedule
    schedule = check_schedule(4, 0.1, 10**12)
    assert check_schedule(4, 0.1, LearnerConfig(delta=0.1).max_epochs) is schedule
    assert type(schedule) is tuple
    for window, steps, bonuses in schedule:
        assert type(window) is tuple and all(type(t) is int for t in window)
        assert type(steps) is tuple and all(type(k) is int for k in steps)
        assert len(steps) == len(window)
        assert type(bonuses) is tuple


@pytest.mark.parametrize("n", [2, 3, 20])
@pytest.mark.parametrize("cap", [cap for cap, _, _ in SCHEDULE_SIZES])
def test_schedule_steps_are_the_gaps_between_checks(n, cap):
    # taken in order across the windows, the steps advance from epoch 0 to
    # each check in turn, so the run reaches the cap and no later epoch
    schedule = check_schedule(n, 0.1, cap)
    epochs = [t for window, _, _ in schedule for t in window]
    steps = [k for _, window_steps, _ in schedule for k in window_steps]
    assert steps == [t - s for s, t in zip([0, *epochs], epochs)]
    assert min(steps) >= 1 and sum(steps) == cap


def test_the_first_window_holds_every_check_that_cannot_stop(monkeypatch):
    n, config = 3, LearnerConfig(delta=0.1)
    schedule = check_schedule(n, 0.1, config.max_epochs)
    (first, _, bonuses), later = schedule[0], schedule[1:]
    ceiling = stop_bonus_ceiling(n)
    # it ends at 375, the first check whose bonus is at or below the ceiling
    assert first[-1] == 375 and len(first) == 103
    assert all(b > ceiling for b in bonuses[:-1]) and bonuses[-1] <= ceiling
    assert all(b <= ceiling for _, _, later_bonuses in later for b in later_bonuses)
    seen, estimated = [], []

    def counted(estimates, bonuses):
        seen.append(list(bonuses))
        return stopping_condition(estimates, bonuses)

    def counted_estimates(totals, epochs, ranks, mu_grand):
        estimated.append(list(epochs))
        return vertex_estimates(totals, epochs, ranks, mu_grand)

    monkeypatch.setattr(learner, "stopping_condition", counted)
    monkeypatch.setattr(learner, "vertex_estimates", counted_estimates)
    game = gen_strictly_convex(n, 3)
    report = common_points_picking(RewardOracle(game, seed=4), config)
    assert report.stopped_naturally and report.epochs > first[-1]
    # of the first window only its last check, the first that can stop, is estimated and decided
    assert estimated[0] == [first[-1]] and seen[0] == [bonuses[-1]]
    assert estimated[1] == list(later[0][0]) and seen[1] == list(later[0][2])
    # the noise-free estimates (1, -1) and (-1, 1) pass at any bonus up to
    # the ceiling, so this run stops at that check, the first window's last
    estimated.clear()
    two = common_points_picking(noise_free(GameSpec(n=2, mu=[0.0, 1.0, 1.0, 0.0]), 0), config)
    assert two.stopped_naturally and two.epochs == 213
    assert estimated == [[213]] and check_schedule(2, 0.1, config.max_epochs)[0][0][-1] == 213


def one_window_per_check(n, delta, max_epochs):
    """Every check in a window of its own, and none skipped."""
    checks = [t for window, _, _ in check_schedule(n, delta, max_epochs) for t in window]
    return tuple(((t,), (t - s,), (confidence_bonus(t, n, delta),))
                 for s, t in zip([0, *checks], checks))


@pytest.mark.parametrize("gen, n, cap", [("strict", 3, 10**12), ("strict", 5, 10**12),
                                         ("strict", 6, 10**12), ("unit", 4, 5_000)])
def test_windows_change_speed_never_results(monkeypatch, gen, n, cap):
    config = LearnerConfig(delta=0.1, max_epochs=cap)
    for seed in range(3):
        game = gen_unit_game(n) if gen == "unit" else gen_strictly_convex(n, seed)
        windowed, single = RewardOracle(game, seed + 100), RewardOracle(game, seed + 100)
        expected = common_points_picking(windowed, config)
        with monkeypatch.context() as patch:
            patch.setattr(learner, "check_schedule", one_window_per_check)
            report = common_points_picking(single, config)
        assert (report.epochs, report.bonus, report.stopped_naturally) == (
            expected.epochs, expected.bonus, expected.stopped_naturally)
        assert report.stopped_naturally == (gen == "strict")
        assert report.estimates.tobytes() == expected.estimates.tobytes()
        assert single.total_queries == report.samples  # one check per window: no overshoot
        assert windowed.total_queries == window_end(n, config, report.epochs) * n**2


def test_a_run_stops_at_the_first_check_below_the_bonus_ceiling():
    # the estimates (1, -1) and (-1, 1) pass at any bonus up to the ceiling,
    # so a skipped window that could pass would delay the stop
    game = GameSpec(n=2, mu=[0.0, 1.0, 1.0, 0.0])
    report = common_points_picking(noise_free(game, 0), LearnerConfig(delta=0.1))
    checks = [t for window, _, _ in check_schedule(2, 0.1, 10**12) for t in window]
    first = next(t for t in checks if confidence_bonus(t, 2, 0.1) <= stop_bonus_ceiling(2))
    assert report.stopped_naturally and report.epochs == first


def test_a_run_holds_no_list_of_a_window_of_sums():
    # the first window at n = 20 holds 177 checks of 400 prefix sums each.
    # Held in one list of Python ints, they lift the run's peak to about 3 MiB;
    # estimating and deciding every one of them, to about 1.9 MiB; starting the
    # next window from a view of their buffer's last row, to about 1 MiB
    game, config = gen_strictly_convex(20, 0), LearnerConfig(delta=0.1, perm_choice="cyclic")
    assert len(check_schedule(20, 0.1, config.max_epochs)[0][0]) == 177
    tracemalloc.start()
    try:
        report = common_points_picking(RewardOracle(game, 0), config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.stopped_naturally
    assert peak < 2**20


def one_check_per_epoch(oracle, config):
    """Reference: check the stopping rule at every scheduled epoch in turn.

    After the first pass it draws on, unchecked, to the end of that check's
    window, as a run that decides a window at a time does."""
    n = oracle.n
    perms = resolve_permutations(config.perm_choice, n)
    chains = [prefix_coalitions(w) for w in perms]
    totals = np.zeros((n, n))
    epoch, result = 0, None
    for window in reference_check_windows(n, config.delta, config.max_epochs):
        for target in window:
            draw_row_major(totals, oracle, chains, target - epoch)
            epoch = target
            if result is None:
                estimates = vertex_estimates(totals, epoch, ranks_of(perms), oracle.mu_grand)
                bonus = confidence_bonus(epoch, n, config.delta)
                if stopping_condition(estimates, bonus):
                    result = estimates, epoch, bonus, True
        if result is not None:
            return result
    return estimates, epoch, bonus, False


def assert_matches_reference(game, seed, config, noise="bernoulli"):
    reference, oracle = RewardOracle(game, seed, noise), RewardOracle(game, seed, noise)
    estimates, epoch, bonus, stopped = one_check_per_epoch(reference, config)
    report = common_points_picking(oracle, config)
    assert (report.epochs, report.stopped_naturally, report.bonus) == (epoch, stopped, bonus)
    assert report.samples == epoch * game.n**2
    assert oracle.total_queries == reference.total_queries
    assert oracle.total_queries == window_end(game.n, config, epoch) * game.n**2
    assert report.allocation.tobytes() == mean_point(estimates).tobytes()
    assert report.estimates.shape == (game.n, game.n)
    assert report.estimates.tobytes() == estimates.tobytes()
    assert oracle.rng.bit_generator.state == reference.rng.bit_generator.state


@pytest.mark.parametrize("choice", ["adjacent", "cyclic"])
@pytest.mark.parametrize("n", range(2, 11))
def test_windowed_run_matches_one_check_per_epoch(n, choice):
    config = LearnerConfig(delta=0.1, perm_choice=choice)
    assert_matches_reference(gen_strictly_convex(n, n), 40 + n, config)


@pytest.mark.parametrize("seed", range(3))
def test_a_noisy_run_stopping_inside_the_second_window_matches_one_check_per_epoch(seed):
    # these runs stop at epoch 234, 223 and 223: inside the second window,
    # which runs from 223 to 432, so the oracle draws on past the stop
    game, config = GameSpec(n=2, mu=[0.0, 1.0, 0.95, 0.0]), LearnerConfig(delta=0.1)
    first, second = (window for window, _, _ in check_schedule(2, 0.1, config.max_epochs)[:2])
    report = common_points_picking(RewardOracle(game, seed), config)
    assert (first[-1], second[0], second[-1]) == (213, 223, 432)
    assert second[0] <= report.epochs < second[-1]
    assert_matches_reference(game, seed, config)


@pytest.mark.parametrize("cap", [1, 65, 100, 20_000])
def test_capped_unit_run_matches_one_check_per_epoch(cap):
    # caps that end a window early, after the dense phase, and deep in it
    config = LearnerConfig(delta=0.1, max_epochs=cap)
    assert_matches_reference(gen_unit_game(4), 9, config)


def test_scaled_and_noise_free_runs_match_one_check_per_epoch():
    # a scaled table makes the grand-coalition reward genuinely stochastic
    scaled = GameSpec(n=3, mu=table(gen_strictly_convex(3, 5)) * 0.8)
    assert_matches_reference(scaled, 6, LearnerConfig(delta=0.1, max_epochs=10**5))
    for game in (gen_strictly_convex(4, 3), gen_permutahedron(5)):
        assert_matches_reference(game, 2, LearnerConfig(delta=0.1), noise="none")


@pytest.mark.parametrize("noise", ["bernoulli", "none"])
def test_weighted_runs_match_one_check_per_epoch(noise):
    # an asymmetric game: chains of the wrong players change the estimates
    for n in (3, 5):
        for choice in ("adjacent", "cyclic"):
            config = LearnerConfig(delta=0.1, perm_choice=choice)
            assert_matches_reference(gen_weighted_game(n, n), 60 + n, config, noise)


RUN_GRID_SHA256 = "584816b0525311bb9d72df08ff74057acd76695929af846b2c98f0b303d59100"


@pytest.fixture(scope="module")
def run_grid():
    """96 fixed runs as ``(report, oracle)`` pairs, each oracle after its run.

    The grid: n 2..6 and 10; a strictly convex game at the default cap and
    the unit game capped at 1, 65 and 5000 epochs; adjacent and cyclic
    permutations; both noise models.
    """
    runs, seed = [], itertools.count()
    for n in (2, 3, 4, 5, 6, 10):
        games = [(gen_strictly_convex(n, n), DEFAULT_MAX_EPOCHS)]
        games += [(gen_unit_game(n), cap) for cap in (1, 65, 5000)]
        for (game, cap), choice, noise in itertools.product(
                games, ("adjacent", "cyclic"), ("bernoulli", "none")):
            oracle = RewardOracle(game, next(seed), noise)
            report = common_points_picking(
                oracle, LearnerConfig(delta=0.1, perm_choice=choice, max_epochs=cap))
            runs.append((report, oracle))
    return runs


def test_a_grid_of_runs_keeps_its_digest(run_grid):
    """One sha256 over the reports of the 96 runs of ``run_grid`` pins every
    output byte.

    Each run adds its epochs, bonus, stop flag, ``total_queries``, samples,
    the final bit-generator state and the estimate bytes.  A speedup leaves
    the digest as it is.  ROADMAP item 9 changes the outputs on purpose,
    and edits this digest when it declares its regeneration.
    """
    digest = hashlib.sha256()
    for report, oracle in run_grid:
        fields = (report.epochs, report.bonus, report.stopped_naturally,
                  oracle.total_queries, report.samples, oracle.rng.bit_generator.state)
        digest.update(repr(fields).encode())
        digest.update(report.estimates.tobytes())
    assert digest.hexdigest() == RUN_GRID_SHA256


def test_a_run_draws_fewer_than_twice_its_samples(run_grid):
    # a stop lands in a window of checks spanning less than one doubling, and
    # the oracle draws on only to that window's end
    stopped = [(report, oracle) for report, oracle in run_grid if report.stopped_naturally]
    assert len(stopped) == 24
    assert all(oracle.total_queries < 2 * report.samples for report, oracle in stopped)
    # a stop at the first check that can pass ends the first window: no draw past it
    oracle = noise_free(GameSpec(n=2, mu=[0.0, 1.0, 1.0, 0.0]), 0)
    report = common_points_picking(oracle, LearnerConfig(delta=0.1))
    assert report.epochs == check_schedule(2, 0.1, DEFAULT_MAX_EPOCHS)[0][0][-1] == 213
    assert oracle.total_queries == report.samples == 852


@pytest.mark.parametrize("n", range(3, 7))
def test_noise_free_weighted_estimates_are_the_marginal_vectors(n):
    game = gen_weighted_game(n, n)
    for choice in ("adjacent", "cyclic"):
        report = common_points_picking(noise_free(game, 0),
                                       LearnerConfig(delta=0.1, perm_choice=choice))
        assert report.stopped_naturally
        truth = [marginal_vector(game, w) for w in resolve_permutations(choice, n)]
        assert np.allclose(report.estimates, truth, rtol=0.0, atol=1e-12), choice


def test_noisy_weighted_runs_are_sound_and_covered():
    n = 4
    game = gen_weighted_game(n, 8)
    for choice in ("adjacent", "cyclic"):
        report = common_points_picking(RewardOracle(game, seed=80),
                                       LearnerConfig(delta=0.1, perm_choice=choice))
        assert report.stopped_naturally
        truth = [marginal_vector(game, w) for w in resolve_permutations(choice, n)]
        assert np.abs(report.estimates - truth).max() <= report.bonus, choice
        check = core_membership(game, report.allocation)
        assert check.max_violation <= 0.0 and check.efficiency_gap <= 1e-10


class BanditView:
    """An oracle cut down to rewards, n and mu(N): no game table, no random state."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.n, self.mu_grand = oracle.n, oracle.mu_grand

    def query_sum(self, S, k):
        return self._oracle.query_sum(S, k)


@pytest.mark.parametrize("game, cap", [(gen_strictly_convex(3, 1), 10**12),
                                       (gen_strictly_convex(5, 2), 10**12),
                                       (gen_unit_game(3), 5_000)])
def test_learner_sees_only_the_bandit(game, cap):
    config = LearnerConfig(delta=0.1, max_epochs=cap)
    direct = common_points_picking(RewardOracle(game, seed=4), config)
    oracle = RewardOracle(game, seed=4)
    report = common_points_picking(BanditView(oracle), config)
    assert (report.epochs, report.stopped_naturally) == (direct.epochs, direct.stopped_naturally)
    assert report.allocation.tobytes() == direct.allocation.tobytes()
    last = window_end(game.n, config, report.epochs) if report.stopped_naturally else cap
    assert oracle.total_queries == last * game.n**2
    assert report.stopped_naturally == (cap > 5_000)


def test_run_is_deterministic_given_seed():
    game = gen_strictly_convex(3, 11)
    reports = [
        common_points_picking(RewardOracle(game, seed=5), LearnerConfig(delta=0.1))
        for _ in range(2)
    ]
    assert reports[0].epochs == reports[1].epochs
    assert np.array_equal(reports[0].allocation, reports[1].allocation)
