"""Shared helpers for the test suite: independent geometric oracles and
random configurations used by both the unit tests and the acceptance suite.

``table`` spells out a game's 2^n reward table from its blocks.  The oracles
``coordinate_matrix``, ``simplex_altitudes``,
``strict_convexity_margin``, ``reference_check_windows`` and
``hyperplane_misses_some_box`` are written against first principles (least
squares, direct enumeration) rather than through the package's own geometry
paths, so the two sides can validate each other; ``reference_separating_normals``
respells the solve with numpy's own wrappers.  ``meets_clearance_condition``
and ``reference_stopping_condition`` go through the package's solve: they
restate the stopping rule's conditions, not the geometry beneath them.
"""

import math
from collections import namedtuple

import numpy as np

from core_picker.games import Game, GameSpec
from core_picker.geometry import (
    RANK_TOL,
    box_hyperplane_clearance,
    fit_separating_hyperplane,
    separating_normals,
)
from core_picker.learner import (
    CHECK_DENSE_UNTIL,
    CHECK_GROWTH,
    CHECKS_PER_WINDOW,
    confidence_bonus,
    stop_bonus_ceiling,
)

Box = namedtuple("Box", "center radius")  # L-infinity ball around an estimated vertex


def gen_weighted_game(n: int, seed) -> GameSpec:
    """An asymmetric strictly convex game: mu(S) = (w.1_S)^2 / (w.1_N)^2.

    The weights are w ~ U[0.5, 1.5]^n, and the pairwise slack is
    2 w_i w_j / (w.1_N)^2 > 0.  Every package generator is symmetric (mu(S)
    depends on |S| alone); here it depends on which players S holds, so a
    prefix chain built from the wrong players changes what the learner sees.
    """
    w = np.random.default_rng(seed).uniform(0.5, 1.5, size=n)
    masks = np.arange(1 << n)
    weight = ((masks[:, None] >> np.arange(n)) & 1) @ w
    return GameSpec(n=n, mu=(weight / weight[-1]) ** 2)


def table(game: Game) -> np.ndarray:
    """A game's 2^n reward table, one entry per mask: its ``blocks()``, copied
    (a symmetric game refills one buffer) and joined."""
    return np.concatenate([block.copy() for block in game.blocks()])


def reference_check_windows(n: int, delta: float, max_epochs: int) -> list[list[int]]:
    """A run's check epochs, window by window, built one check at a time.

    Each check follows the last by one epoch up to ``CHECK_DENSE_UNTIL``, then
    by a factor ``CHECK_GROWTH`` (at least one epoch), and none passes the cap.
    The first window takes checks through the first whose confidence bonus is
    at or below ``stop_bonus_ceiling(n)``; each later one takes
    ``CHECKS_PER_WINDOW`` checks, and the last stops at the cap.
    """
    def following(t):
        step = t + 1 if t < CHECK_DENSE_UNTIL else max(t + 1, int(t * CHECK_GROWTH))
        return min(step, max_epochs)

    ceiling, epoch, windows = stop_bonus_ceiling(n), 0, [[]]
    while epoch < max_epochs:
        epoch = following(epoch)
        windows[-1].append(epoch)
        if len(windows) == 1:
            full = confidence_bonus(epoch, n, delta) <= ceiling
        else:
            full = len(windows[-1]) == CHECKS_PER_WINDOW
        if full and epoch < max_epochs:
            windows.append([])
    return windows


def strict_convexity_margin(game: Game) -> float:
    """Largest slack in the pairwise supermodularity inequalities.

    Scans min over i != j and S avoiding both of
    ``[mu(S+i+j) - mu(S+j)] - [mu(S+i) - mu(S)]``; a positive value certifies
    strict convexity, zero plain convexity, negative a supermodularity
    violation.  O(n^2 * 2^n).
    """
    n, mu = game.n, table(game)
    masks = np.arange(1 << n)
    best = np.inf
    for i in range(n):
        bi = 1 << i
        for j in range(i + 1, n):
            bj = 1 << j
            base = masks[(masks & (bi | bj)) == 0]
            diff = mu[base | bi | bj] - mu[base | bj] - mu[base | bi] + mu[base]
            best = min(best, float(diff.min()))
    return best


def coordinate_matrix(points, i: int) -> np.ndarray:
    """Differences (x^j - x^i) as columns, j in original order with i omitted."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if not 0 <= i < n:
        raise ValueError(f"reference index {i} out of range for {n} points")
    cols = [pts[j] - pts[i] for j in range(n) if j != i]
    return np.stack(cols, axis=1)


def simplex_altitudes(points) -> np.ndarray:
    """Distance from each vertex to the affine hull of the other vertices."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    out = []
    for i in range(n):
        others = np.array([pts[j] for j in range(n) if j != i])
        span = (others[1:] - others[0]).T
        gap = pts[i] - others[0]
        if span.size:
            coef, *_ = np.linalg.lstsq(span, gap, rcond=None)
            out.append(float(np.linalg.norm(gap - span @ coef)))
        else:
            out.append(float(np.linalg.norm(gap)))
    return np.array(out)


def reference_separating_normals(points):
    """``geometry.separating_normals`` spelled with numpy's own ``mean``,
    ``linalg.norm`` and ``all``: the package's ufunc reductions must give
    these bytes.  An exactly singular stack is inverted one set at a time,
    with NaN for each singular set."""
    pts = np.asarray(points, dtype=np.float64)
    shifted = pts - pts.mean(axis=-1, keepdims=True) + 1.0
    try:
        inverse = np.linalg.inv(shifted)
    except np.linalg.LinAlgError:
        n = shifted.shape[-1]
        inverse = np.empty_like(shifted).reshape(-1, n, n)
        for i, matrix in enumerate(shifted.reshape(-1, n, n)):
            try:
                inverse[i] = np.linalg.inv(matrix)
            except np.linalg.LinAlgError:
                inverse[i] = np.nan
        inverse = inverse.reshape(shifted.shape)
    gradients = inverse - inverse.mean(axis=-2, keepdims=True)
    altitudes = 1.0 / np.linalg.norm(gradients, axis=-2)
    altitudes[~np.all(altitudes > RANK_TOL, axis=-1)] = np.nan
    return -np.swapaxes(gradients * altitudes[..., None, :], -1, -2), altitudes


def reference_stopping_condition(estimates, bonus):
    """``learner.stopping_condition`` without its distance bound: every check
    is solved, in one stacked solve, and decided by its clearance alone."""
    normals, altitudes = separating_normals(estimates)
    n = altitudes.shape[-1]
    bonus = np.asarray(bonus, dtype=np.float64)[..., None]
    eps = 2.0 * math.sqrt(n) * bonus
    clearance = altitudes - eps - bonus * np.abs(normals).sum(axis=-1)
    return np.logical_and.reduce(clearance >= n * eps, axis=-1)


def sum_zero(v: np.ndarray) -> np.ndarray:
    """``v - v.mean()``, without ``mean``'s wrapper: the same reduction and bytes."""
    return v - np.add.reduce(v) / len(v)


def random_box_point(rng, box: Box) -> np.ndarray:
    """Uniform-ish point of the L-infinity ball intersected with the sum plane."""
    shift = sum_zero(rng.uniform(-box.radius, box.radius, size=len(box.center)))
    peak = np.abs(shift).max()
    if peak > box.radius:
        shift *= box.radius / peak
    return box.center + shift


_SIGNS = np.array([-1.0, 1.0])


def random_box_corner(rng, box: Box) -> np.ndarray:
    """Near-extreme point of the box inside the sum plane (sign-vector corner,
    recentred and rescaled to stay inside).

    The signs are ``_SIGNS[rng.integers(0, 2, size=n)]``: the same values and
    bit-generator state as ``rng.choice([-1.0, 1.0], size=n)``, at less cost.
    """
    shift = sum_zero(box.radius * _SIGNS[rng.integers(0, 2, size=len(box.center))])
    peak = np.maximum.reduce(np.abs(shift))  # .max() without its wrapper
    if peak > box.radius:
        shift *= box.radius / peak
    return box.center + shift


def cyclic_center_config(rng, n, jitter=0.05, radius_factor=None):
    """n well-separated box centers in a common sum plane, plus equal radii.

    Centers are the cyclic rotations of (1..n) with a small sum-zero jitter;
    the radius is a fraction of the smallest altitude, small enough that the
    separating-hyperplane clearance condition holds comfortably.
    """
    base = np.arange(1.0, n + 1.0)
    centers = np.array([np.roll(base, k) for k in range(n)])
    alt = simplex_altitudes(centers).min()
    centers = centers + np.array([sum_zero(rng.normal(size=n)) * jitter * alt
                                  for _ in range(n)])
    if radius_factor is None:
        radius_factor = 1.0 / (10.0 * n ** 1.5)
    radius = simplex_altitudes(centers).min() * radius_factor
    return centers, [Box(c, radius) for c in centers]


def meets_clearance_condition(centers, boxes) -> bool:
    """The sufficient common-point condition: every separating hyperplane,
    offset by the largest other-box diameter, clears its box by more than
    2n times that diameter, 2 r sqrt(n) for the full L-infinity ball (an
    upper bound for its slice inside the efficiency hyperplane)."""
    n = len(boxes)
    for p in range(n):
        others_diam = max(2.0 * boxes[q].radius * np.sqrt(n) for q in range(n) if q != p)
        plane = fit_separating_hyperplane(centers, p, others_diam)
        if plane is None:
            return False
        if box_hyperplane_clearance(plane, boxes[p]) <= 2 * n * others_diam:
            return False
    return True


def hyperplane_misses_some_box(normal, offset, boxes) -> bool:
    """Whether the sum-plane hyperplane <normal, x> = offset avoids at least
    one box, using the conservative interval test over the full cube."""
    reach = float(np.abs(normal).sum())
    for box in boxes:
        if abs(float(normal @ box.center) - offset) > box.radius * reach:
            return True
    return False


def loglog_exponent(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)
