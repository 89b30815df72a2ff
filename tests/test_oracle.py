import numpy as np
import pytest

from core_picker.games import GameSpec, gen_strictly_convex, gen_unit_game, prefix_coalitions
from core_picker.learner import resolve_permutations
from core_picker.oracle import RewardOracle
from support import gen_weighted_game


def small_game(values):
    mu = np.zeros(4)
    mu[1], mu[2], mu[3] = values
    return GameSpec(n=2, mu=mu)


def test_noise_model_parsing():
    game = small_game([0.3, 0.5, 0.7])
    for oracle in (RewardOracle(game, 0), RewardOracle(game, 0, "bernoulli")):
        assert oracle.query(3) in (0.0, 1.0)
    assert RewardOracle(game, 0, "none").query_sum(3, 10) == 10 * 0.7
    for tag in ("gaussian", "uniform", "uniform:0", "uniform:0.1", "uniform:nan",
                "Bernoulli", "None", ""):
        with pytest.raises(ValueError, match="unknown noise tag .*; use bernoulli or none"):
            RewardOracle(game, 0, tag)


def test_counter_increments_per_query():
    oracle = RewardOracle(gen_strictly_convex(3, 0), seed=0)
    oracle.query(1)
    oracle.query(3)
    assert oracle.total_queries == 2
    oracle.query_sum(7, 10)
    assert oracle.total_queries == 12


def test_determinism_same_seed_same_rewards():
    game = gen_strictly_convex(3, 4)
    seq = [1, 3, 7, 3, 1, 7, 7]
    first = RewardOracle(game, seed=99)
    second = RewardOracle(game, seed=99)
    assert [first.query(S) for S in seq] == [second.query(S) for S in seq]


@pytest.mark.parametrize("noise", ["bernoulli", "none"])
def test_query_sums_equal_plain_numpy_draws(noise):
    """The sums are those of numpy's binomial, or k mu(S), from Python
    scalars, whatever form the oracle hands its arguments in: the stream,
    the values, their types and the final bit-generator state."""
    game = gen_weighted_game(4, 5)
    oracle, rng = RewardOracle(game, 17, noise), np.random.default_rng(17)
    coalitions = [1, 3, 7, 15, 2, 6, 14, 15, 1]  # repeats and the grand coalition
    queries = 0
    for k in (0, 1, 10**6, 2**63 - 1):
        for S in coalitions:
            got = oracle.query_sum(S, k)
            queries += k
            mean = float(game.mu[S])
            if noise == "bernoulli":
                expected, kind = rng.binomial(k, mean), int  # binomial(0, p) draws nothing
            else:
                expected, kind = k * mean, np.float64
            assert got == expected, (S, k)
            assert k == 0 or type(got) is kind  # a zero count may sum to 0 or 0.0
    assert oracle.total_queries == queries
    assert oracle.rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("choice", ["adjacent", "cyclic"])
@pytest.mark.parametrize("n", [3, 6])
def test_one_block_binomial_draw_equals_row_major_query_sums(n, choice):
    """One ``binomial(ks[:, None], means[None, :])`` call over a window's
    advances gives the sums and the final bit-generator state of the
    row-major ``query_sum`` calls, one per prefix and advance: the premise of
    drawing a check window in one call (ROADMAP item 2)."""
    game = gen_weighted_game(n, n)
    prefixes = [S for w in resolve_permutations(choice, n) for S in prefix_coalitions(w)]
    ks = [1, 2, 1, 3, 64, 1000, 2**20 + 1, 2**40]  # a window's increments, repeats included
    oracle, rng = RewardOracle(game, 23), np.random.default_rng(23)
    sums = [[oracle.query_sum(S, k) for S in prefixes] for k in ks]
    block = rng.binomial(np.array(ks)[:, None], game.mu[prefixes][None, :])
    assert block.tolist() == sums
    assert rng.bit_generator.state == oracle.rng.bit_generator.state


@pytest.mark.parametrize("noise", ["bernoulli", "none"])
def test_a_rejected_count_draws_and_counts_nothing(noise):
    oracle = RewardOracle(small_game([0.3, 0.5, 0.8]), 4, noise)
    oracle.query_sum(3, 2**63 - 1)
    for last, k in ((2**63 - 1, 2**63), (2**63 - 1, -1), (3, 3.0), (3, 3.5), (3, "3"),
                    (3, None), (3, np.float64(3.0)), (0, -1), (0, 0.0)):
        oracle.query_sum(1, last)  # a float equal to the last count is still not a count
        before = (oracle.rng.bit_generator.state, oracle.total_queries)
        error = ValueError if isinstance(k, int) else TypeError
        with pytest.raises(error):
            oracle.query_sum(1, k)
        assert (oracle.rng.bit_generator.state, oracle.total_queries) == before, k
        assert type(oracle.total_queries) is int
    counted = oracle.total_queries
    assert oracle.query_sum(1, np.int64(5)) >= 0  # any integer type is a count
    assert oracle.total_queries == counted + 5 and type(oracle.total_queries) is int


@pytest.mark.parametrize("noise", ["bernoulli", "none"])
def test_a_mask_outside_the_table_draws_and_counts_nothing(noise):
    # mu[-1] is mu(N): a negative mask used to be read as the grand coalition
    oracle = RewardOracle(small_game([0.3, 0.5, 0.8]), 4, noise)
    oracle.query_sum(3, 7)
    for S in (-1, 0, 4, 1.5):  # the empty coalition, 2^n at n = 2, and no integer
        before = (oracle.rng.bit_generator.state, oracle.total_queries)
        with pytest.raises(ValueError, match="coalition mask must lie in 1..3"):
            oracle.query_sum(S, 1000)
        assert (oracle.rng.bit_generator.state, oracle.total_queries) == before, S
    assert oracle.total_queries == 7


@pytest.mark.parametrize("noise", ["bernoulli", "none"])
def test_a_bool_mask_is_the_integer_mask(noise):
    # a fresh oracle once read mu[True] as a boolean index: a (1, 2^n) array of
    # draws, and an unhashable 0-d array failed the cache lookup
    game = small_game([0.3, 0.5, 0.8])
    for mask in (True, np.array(1)):
        by_mask, by_int = RewardOracle(game, 6, noise), RewardOracle(game, 6, noise)
        got, expected = by_mask.query_sum(mask, 1000), by_int.query_sum(1, 1000)
        assert got == expected and type(got) is type(expected)
        assert by_mask.total_queries == by_int.total_queries == 1000
        assert by_mask.rng.bit_generator.state == by_int.rng.bit_generator.state


def test_bernoulli_degenerate_mean_one():
    oracle = RewardOracle(small_game([0.2, 0.4, 1.0]), seed=7)
    assert all(oracle.query(3) == 1.0 for _ in range(50))


def test_bernoulli_sample_mean_close():
    oracle = RewardOracle(small_game([0.3, 0.5, 1.0]), seed=0)
    draws = 10**5
    mean = oracle.query_sum(1, draws) / draws
    assert abs(mean - 0.3) < 0.01


@pytest.mark.parametrize("noise,mu_S,se", [
    ("bernoulli", 0.3, np.sqrt(0.3 * 0.7 / 1e5)),
])
def test_mean_correctness_within_three_standard_errors(noise, mu_S, se):
    oracle = RewardOracle(small_game([mu_S, 0.5, 0.8]), 2, noise)
    mean = oracle.query_sum(1, 10**5) / 10**5
    assert abs(mean - mu_S) < 3 * se


def test_noise_free_rewards_are_exact_means():
    """noise="none" returns mu(S) itself, and k draws sum to k mu(S) exactly."""
    game = gen_unit_game(3)
    oracle = RewardOracle(game, 0, "none")
    assert oracle.query(0b011) == game.mu[0b011]
    assert oracle.query_sum(0b111, 4) == 4 * game.mu[0b111]


def test_query_sum_matches_query_distribution_moments():
    game = small_game([0.4, 0.5, 0.8])
    batched = RewardOracle(game, seed=11).query_sum(1, 20000) / 20000
    one_by_one = RewardOracle(game, seed=12)
    single = np.mean([one_by_one.query(1) for _ in range(20000)])
    assert abs(batched - 0.4) < 0.02 and abs(single - 0.4) < 0.02
