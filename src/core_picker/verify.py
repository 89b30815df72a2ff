"""Ground truth for a returned allocation: an exhaustive core-membership scan.

It deliberately avoids the geometry used by the learner so the two sides can
check each other: membership is a scan over all 2^n coalition constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import Game, subset_sums

MASK_BLOCK_BITS = 14  # 2^14 masks per block of the scan over all 2^n masks: 128 KiB of doubles


@dataclass(frozen=True)
class MembershipReport:
    is_member: bool
    max_violation: float
    efficiency_gap: float


def core_membership(game: Game, x, tol: float = 0.0) -> MembershipReport:
    """Exhaustive stability check of an allocation against every coalition.

    max_violation is the largest mu(S) - x(S) over proper nonempty S (positive
    means some coalition prefers to deviate); the efficiency gap is
    |x(N) - mu(N)|.  Membership requires both within tol.  An allocation must
    hold exactly n entries.

    The scan holds no 2^n array: block b holds the 2^MASK_BLOCK_BITS masks
    whose high bits read b, and ``game.reward`` answers them in one call.
    Besides a block's masks and rewards it holds two more blocks of doubles,
    the low players' sums and the slack.  For each block it starts from the
    low players' sums, adds each high player present in ascending order as
    :func:`subset_sums` does, and keeps one running maximum as it goes (a NaN
    wins and stays), so the report is bit-identical to one max over a full
    table.
    """
    x = np.asarray(x, dtype=np.float64)
    n = game.n
    if x.shape != (n,):
        raise ValueError(f"allocation must have shape ({n},), not {x.shape}")
    low = min(n, MASK_BLOCK_BITS)
    low_sums = subset_sums(x[:low])
    last = (1 << (n - low)) - 1
    slack = np.empty_like(low_sums)
    max_violation = -np.inf
    for b in range(last + 1):
        block = game.reward(np.arange(b << low, (b + 1) << low))
        np.copyto(slack, low_sums)
        for p in range(low, n):
            if b >> (p - low) & 1:
                slack += x[p]
        grand_sum = float(slack[-1])  # x(N) once the last block is reached
        np.subtract(block, slack, out=slack)
        if b == 0:
            slack[0] = -np.inf
        if b == last:
            slack[-1] = -np.inf  # the grand coalition is judged by the efficiency gap
        # np.max's own ufunc, without its wrapper; not Python's max, which drops a later NaN
        max_violation = np.maximum(max_violation, np.maximum.reduce(slack))
    max_violation = float(max_violation)
    efficiency_gap = abs(grand_sum - game.mu_grand)
    return MembershipReport(
        is_member=(max_violation <= tol and efficiency_gap <= tol),
        max_violation=max_violation,
        efficiency_gap=efficiency_gap,
    )
