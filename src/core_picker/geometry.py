"""Convex-geometry primitives for the stopping rule and its verification.

Everything lives in R^n but the interesting objects sit inside the efficiency
hyperplane (coordinates summing to a common value), so separating hyperplanes
are constrained to have sum-zero normals.

Tolerances are centralized here: RANK_TOL for rank decisions on singular
values and altitudes, MEMBERSHIP_TOL as slack for barycentric coordinates,
UNIT_TOL for unit-norm checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANK_TOL = 1e-10
MEMBERSHIP_TOL = 1e-9
UNIT_TOL = 1e-12
_BLOCK_DOUBLES = 1 << 20  # coordinate data simplex_width holds at once (8 MiB)


class DegenerateSimplexError(ValueError):
    """The vertex set is affinely degenerate where a proper simplex is required."""


@dataclass(frozen=True)
class Hyperplane:
    """Hyperplane {x : <normal, x> = offset} with a unit, sum-zero normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        v = np.array(self.normal, dtype=np.float64)  # own copy, frozen below
        if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
            raise ValueError("hyperplane normal must be a unit vector")
        if abs(v.sum()) > 1e-10:
            raise ValueError("hyperplane normal must sum to zero")
        v.flags.writeable = False
        object.__setattr__(self, "normal", v)


@dataclass(frozen=True)
class ConfidenceBox:
    """L-infinity ball of the given radius around an estimated vertex."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("box radius must be nonnegative")
        c = np.array(self.center, dtype=np.float64)  # own copy, frozen below
        c.flags.writeable = False
        object.__setattr__(self, "center", c)

    @property
    def euclidean_diameter(self) -> float:
        """Diameter of the full L-infinity ball, 2 r sqrt(n); an upper bound
        for the slice inside the efficiency hyperplane."""
        return 2.0 * self.radius * np.sqrt(len(self.center))


def simplex_width(points) -> float:
    """min over reference vertices i of the smallest singular value of the
    coordinate matrix whose columns are x^j - x^i, j ascending with i left out.

    For n <= m + 1 points in R^m, zero exactly when they are affinely
    degenerate; invariant under translation and under permuting the points.
    One stacked SVD per block of at most _BLOCK_DOUBLES doubles (or one
    matrix, if larger); blocking changes no matrix's bytes, so not the width.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if pts.ndim != 2 or n < 2:
        raise ValueError(f"simplex width needs at least two points, got shape {pts.shape}")
    step = max(1, _BLOCK_DOUBLES // max(1, pts.shape[1] * (n - 1)))
    cols = np.arange(n - 1)
    width = np.inf
    for refs in np.split(np.arange(n), range(step, n, step)):
        diffs = pts[cols + (cols >= refs[:, None])]  # row r: every point but refs[r]
        diffs -= pts[refs, None, :]
        sigma = np.linalg.svd(diffs.swapaxes(1, 2), compute_uv=False)
        del diffs  # free this block before the next one is gathered
        width = min(width, float(sigma[:, -1].min()))
    return width


def separating_normals(points):
    """Facet normals and altitudes of each simplex in a stack of n points.

    Shifting each row along the all-ones direction to coordinate sum n keeps
    its sum-zero part and makes barycentric weights linear in the row, so
    column p of the inverse, less its mean, is the in-plane gradient g_p of
    the weight of x^p.  Row p of the returned ``normals`` is -g_p / ||g_p||,
    the unit sum-zero normal of the facet opposite x^p: the other points share
    one level along it and x^p sits below by its altitude 1 / ||g_p||.

    ``points`` is any (..., n, n) stack, solved in one stacked inverse; it
    gives ``(normals, altitudes)`` of shapes (..., n, n) and (..., n).  A set
    that is affinely degenerate within RANK_TOL has NaN normals and
    altitudes.  When some set is exactly singular the stacked inverse fails
    as a whole, so the sets are then inverted one by one.
    """
    pts = np.asarray(points, dtype=np.float64)
    shifted = pts - pts.mean(axis=-1, keepdims=True) + 1.0
    try:
        inverse = np.linalg.inv(shifted)
    except np.linalg.LinAlgError:
        n = shifted.shape[-1]
        inverse = np.stack([_inverse_or_nan(m) for m in shifted.reshape(-1, n, n)])
        inverse = inverse.reshape(shifted.shape)
    gradients = inverse - inverse.mean(axis=-2, keepdims=True)
    altitudes = 1.0 / np.linalg.norm(gradients, axis=-2)
    altitudes[~np.all(altitudes > RANK_TOL, axis=-1)] = np.nan  # also catches nan
    return -np.swapaxes(gradients * altitudes[..., None, :], -1, -2), altitudes


def _inverse_or_nan(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        return np.full_like(matrix, np.nan)


def fit_separating_hyperplane(points, p: int, eps: float) -> Hyperplane | None:
    """Hyperplane through the points other than x^p, shifted by eps toward x^p.

    The normal v is row p of :func:`separating_normals`: a unit sum-zero
    vector with <v, x^q> at a common level L for all q != p and
    <v, x^p> = L - altitude.  The offset is L - eps.  Returns None when the
    points are degenerate (NaN altitude), i.e. no separation exists.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if not 0 <= p < n:
        raise ValueError(f"index {p} out of range for {n} points")
    normals, altitudes = separating_normals(pts)
    if np.isnan(altitudes[p]):
        return None
    level = float(normals[p] @ pts[p] + altitudes[p])
    return Hyperplane(normal=normals[p], offset=level - eps)


def box_hyperplane_clearance(h: Hyperplane, box: ConfidenceBox) -> float:
    """min of offset - <normal, x> over the L-infinity ball around the center.

    The closed form offset - <v, c> - r ||v||_1 is exact over the whole ball
    and a conservative lower bound over the ball restricted to the efficiency
    hyperplane.  Positive means the box lies strictly on the near side.
    """
    reach = box.radius * float(np.abs(h.normal).sum())
    return h.offset - float(h.normal @ box.center) - reach


def mean_point(points) -> np.ndarray:
    """Arithmetic mean of the points; stays on any shared hyperplane."""
    return np.mean(np.asarray(points, dtype=np.float64), axis=0)


def in_simplex(x, vertices) -> bool:
    """Whether x lies in the simplex spanned by n affinely independent vertices.

    Solves for affine weights summing to one and accepts iff every weight is
    at least -MEMBERSHIP_TOL.  Points off the affine hull of the vertices are
    outside.  Raises DegenerateSimplexError when the weight system [V^T; 1]
    has a singular value at most RANK_TOL, as computed by its least-squares solve.
    The smallest one is at most ``simplex_width``: for any of its coordinate
    matrices D and any unit vector u, weighting the reference vertex -sum(u)
    and the others u gives w with ||w|| >= 1 and ||[V^T; 1] w|| = ||D u||.
    So every vertex set that fails the width test is rejected too.
    """
    verts = np.asarray(vertices, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n = verts.shape[0]
    system = np.vstack([verts.T, np.ones(n)])
    rhs = np.concatenate([x, [1.0]])
    weights, _, _, singular = np.linalg.lstsq(system, rhs, rcond=None)
    if len(singular) < n or singular[-1] <= RANK_TOL:
        raise DegenerateSimplexError("vertices are affinely degenerate")
    residual = np.abs(system @ weights - rhs).max()
    scale = 1.0 + np.abs(rhs).max()
    if residual > 1e-8 * scale:
        return False  # x is off the affine hull of the vertices
    return bool(np.all(weights >= -MEMBERSHIP_TOL))
