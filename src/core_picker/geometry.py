"""Convex-geometry primitives for the stopping rule and its verification.

Everything lives in R^n but the interesting objects sit inside the efficiency
hyperplane (coordinates summing to a common value), so separating hyperplanes
are constrained to have sum-zero normals.

RANK_TOL decides ranks of singular values and altitudes, MEMBERSHIP_TOL is the
slack of barycentric weights and HULL_TOL the relative residual allowed off
their affine hull; MAX_COORDINATE bounds the coordinates the solve accepts.
"""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-10
MEMBERSHIP_TOL = 1e-9
HULL_TOL = 1e-8
MAX_COORDINATE = 1e12


def simplex_width(points) -> float:
    """min over reference vertices i of the smallest singular value of the
    coordinate matrix whose columns are x^j - x^i, j ascending with i left out.

    For n <= m + 1 points in R^m, zero exactly when they are affinely
    degenerate; invariant under translation and under permuting the points.
    One stacked SVD of all n matrices, n * m * (n - 1) doubles (7.55 MiB at n = m = 100).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError(f"simplex width needs at least two points, got shape {pts.shape}")
    n = pts.shape[0]
    cols = np.arange(n - 1)
    diffs = pts[cols + (cols >= np.arange(n)[:, None])]  # row i: every point but i
    diffs -= pts[:, None, :]
    return float(np.linalg.svd(diffs.swapaxes(1, 2), compute_uv=False)[:, -1].min())


def point_stack(points) -> tuple[np.ndarray, int]:
    """``points`` as a float64 (..., n, n) stack, and n; other shapes, and
    n < 2, where no point has others to be separated from, raise ValueError."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim < 2 or pts.shape[-2] != pts.shape[-1] or pts.shape[-1] < 2:
        raise ValueError(f"n >= 2 points must form a (..., n, n) stack, got shape {pts.shape}")
    return pts, pts.shape[-1]


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
    as a whole, so the sets are then inverted one by one.  A stack whose last
    two axes differ raises ValueError, and so does a coordinate above
    MAX_COORDINATE in magnitude, inf included: from about 1e13 on, the
    shift's added 1.0 is lost in rounding and the solve is noise.
    """
    pts, n = point_stack(points)
    if np.logical_or.reduce(np.abs(pts) > MAX_COORDINATE, axis=None):  # NaN compares False
        raise ValueError(f"coordinates must lie within {MAX_COORDINATE:g} in magnitude")
    # the means, column norms and all() are spelled as the ufunc reductions
    # that numpy's wrappers compute, bit for bit, without the wrappers' cost
    shifted = pts - np.add.reduce(pts, axis=-1, keepdims=True) / n + 1.0
    try:
        inverse = np.linalg.inv(shifted)
    except np.linalg.LinAlgError:
        inverse = np.stack([_inverse_or_nan(m) for m in shifted.reshape(-1, n, n)])
        inverse = inverse.reshape(shifted.shape)
    gradients = inverse - np.add.reduce(inverse, axis=-2, keepdims=True) / n
    altitudes = 1.0 / np.sqrt(np.add.reduce(gradients * gradients, axis=-2))
    altitudes[~np.logical_and.reduce(altitudes > RANK_TOL, axis=-1)] = np.nan  # also catches nan
    return -np.swapaxes(gradients * altitudes[..., None, :], -1, -2), altitudes


def _inverse_or_nan(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        return np.full_like(matrix, np.nan)


def fit_separating_hyperplane(points, p: int, eps: float) -> tuple[np.ndarray, float] | None:
    """The hyperplane {x : <v, x> = offset} through the points other than x^p,
    shifted by eps toward x^p, as the pair ``(v, offset)``.

    The normal v is row p of :func:`separating_normals`: a unit sum-zero
    vector with <v, x^q> at a common level L for all q != p and
    <v, x^p> = L - altitude.  The offset is L - eps.  Returns None when the
    points are degenerate (NaN altitude), i.e. no separation exists.
    """
    pts, n = point_stack(points)
    normals, altitudes = separating_normals(pts)
    if not 0 <= p < n:
        raise ValueError(f"index {p} out of range for {n} points")
    if np.isnan(altitudes[p]):
        return None
    level = float(normals[p] @ pts[p] + altitudes[p])
    return normals[p], level - eps


def box_hyperplane_clearance(plane, box) -> float:
    """min of offset - <v, x> over the L-infinity ball of radius r >= 0
    around c, for a plane ``(v, offset)`` and a box ``(c, r)``.

    The closed form offset - <v, c> - r ||v||_1 is exact over the whole ball
    and a conservative lower bound over the ball restricted to the efficiency
    hyperplane.  Positive means the box lies strictly on the near side.
    """
    normal, offset = plane
    center, radius = box
    if radius < 0:
        raise ValueError("box radius must be nonnegative")
    return offset - float(normal @ center) - radius * float(np.abs(normal).sum())


def mean_point(points) -> np.ndarray:
    """Arithmetic mean of the points; stays on any shared hyperplane."""
    return np.mean(np.asarray(points, dtype=np.float64), axis=0)


def in_simplex(x, vertices) -> bool:
    """Whether x lies in the simplex spanned by n affinely independent vertices.

    Solves for affine weights summing to one and accepts iff every weight is
    at least -MEMBERSHIP_TOL.  Points off the affine hull of the vertices are
    outside.  Raises ValueError when the weight system [V^T; 1] has a singular
    value at most RANK_TOL, as computed by its least-squares solve.
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
        raise ValueError("vertices are affinely degenerate")
    residual = np.abs(system @ weights - rhs).max()
    scale = 1.0 + np.abs(rhs).max()
    if residual > HULL_TOL * scale:
        return False  # x is off the affine hull of the vertices
    return bool(np.all(weights >= -MEMBERSHIP_TOL))
