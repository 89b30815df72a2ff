"""Learning a point in the expected core of a convex stochastic game."""

from .games import gen_strictly_convex, gen_unit_game
from .learner import LearnerConfig, common_points_picking
from .oracle import RewardOracle
from .verify import core_membership
