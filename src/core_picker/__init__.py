"""Learning a point in the expected core of a convex stochastic game."""

from .games import (
    GameSpec,
    Permutation,
    adjacent_permutations,
    cyclic_permutations,
    gen_convex_boundary,
    gen_permutahedron,
    gen_strictly_convex,
    gen_unit_game,
    load_game,
    marginal_increments,
    marginal_vector,
    prefix_coalitions,
    save_game,
    strict_convexity_margin,
)
from .geometry import (
    ConfidenceBox,
    DegenerateSimplexError,
    Hyperplane,
    box_hyperplane_clearance,
    fit_separating_hyperplane,
    in_simplex,
    mean_point,
    separating_normals,
    simplex_width,
)
from .learner import (
    LearnerConfig,
    RunReport,
    common_points_picking,
    confidence_bonus,
    rank_index,
    run_epochs,
    stopping_condition,
    vertex_estimates,
)
from .oracle import RewardOracle
from .verify import MembershipReport, core_membership
