import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from support import (
    Box,
    coordinate_matrix,
    cyclic_center_config,
    hyperplane_misses_some_box,
    meets_clearance_condition,
    random_box_corner,
    random_box_point,
    reference_separating_normals,
    simplex_altitudes,
    strict_convexity_margin,
    sum_zero,
)

from core_picker import cli
from core_picker.games import (
    Permutation,
    adjacent_permutations,
    cyclic_permutations,
    gen_permutahedron,
    gen_strictly_convex,
    marginal_vector,
)
from core_picker.geometry import (
    MAX_COORDINATE,
    box_hyperplane_clearance,
    fit_separating_hyperplane,
    in_simplex,
    mean_point,
    separating_normals,
    simplex_width,
)
from core_picker.learner import stopping_condition


def permutahedron_vertices(n, perms):
    return [np.array(w.ranks, dtype=float) + 1 for w in perms]


# ---------------------------------------------------------------------------
# coordinate matrices and widths


def test_coordinate_matrix_identical_points_zero():
    pts = np.ones((4, 4))
    assert np.array_equal(coordinate_matrix(pts, 1), np.zeros((4, 3)))


def test_coordinate_matrix_permutahedron_adjacent_is_bidiagonal():
    pts = permutahedron_vertices(3, adjacent_permutations(Permutation.identity(3)))
    V = coordinate_matrix(pts, 0)
    assert np.array_equal(V, np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]))


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_coordinate_matrix_translation_invariant(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(4, 4))
    t = rng.normal(size=4)
    assert np.allclose(coordinate_matrix(pts, 2), coordinate_matrix(pts + t, 2), atol=1e-12)


def test_simplex_width_cyclic_permutahedron_at_least_half_n():
    for n in range(3, 11):
        pts = permutahedron_vertices(n, cyclic_permutations(n))
        assert simplex_width(pts) >= n / 2 - 1e-9


def test_simplex_width_adjacent_permutahedron_at_most_three_over_n():
    for n in range(3, 11):
        pts = permutahedron_vertices(n, adjacent_permutations(Permutation.identity(n)))
        assert simplex_width(pts) <= 3 / n + 1e-9


def test_simplex_width_zero_for_coincident_points():
    pts = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
    assert simplex_width(pts) == 0.0


def per_reference_width(pts):
    """The width from one SVD per coordinate matrix, the reference definition."""
    return min(float(np.linalg.svd(coordinate_matrix(pts, i), compute_uv=False)[-1])
               for i in range(len(pts)))


def width_cases():
    rng = np.random.default_rng(20240211)
    cases = [rng.normal(size=(2, 2)), rng.normal(size=(2, 5)), np.ones((2, 3))]
    for k in range(30):
        n = int(rng.integers(2, 13))
        m = n if k % 3 else int(rng.integers(1, 16))
        pts = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3, 3)
        if k % 5 == 0:
            pts[-1] = pts[0]  # coincident points
        cases.append(pts)
    return cases


@pytest.mark.parametrize("counted", [None, 2 * 6 * 7])
def test_simplex_width_bit_identical_to_per_reference_svds(monkeypatch, counted):
    if counted is not None:
        svd, stacks = np.linalg.svd, []

        def counting_svd(a, **kwargs):
            stacks.append(len(a))
            return svd(a, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for n in (7, counted):
            simplex_width(np.random.default_rng(0).normal(size=(n, n)))
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert stacks == [7, counted]  # one call a set, holding all n of its n x (n - 1) matrices
        pts = np.random.default_rng(0).normal(size=(counted, counted))
        assert simplex_width(pts) == per_reference_width(pts)
    for pts in width_cases():
        expected = per_reference_width(pts)
        assert simplex_width(pts) == expected
        if np.array_equal(pts[-1], pts[0]) and pts.shape[1] >= len(pts) - 1:
            assert expected == 0.0


def test_simplex_width_at_the_cw_cap_peaks_below_eight_mib():
    n = cli.MAX_CW_PLAYERS
    pts = np.random.default_rng(1).normal(size=(n, n))
    tracemalloc.start()
    try:
        simplex_width(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (1 << 20)  # 2^20 doubles; the one stack is n^2 (n - 1) of them


def test_simplex_width_needs_two_points():
    for pts in (np.empty((0, 3)), np.ones((1, 3)), [], 5.0):
        with pytest.raises(ValueError, match="at least two points"):
            simplex_width(pts)


def test_simplex_width_permutation_invariant():
    rng = np.random.default_rng(3)
    pts = rng.random((5, 5))
    shuffled = pts[rng.permutation(5)]
    assert simplex_width(pts) == pytest.approx(simplex_width(shuffled), rel=1e-9)


# ---------------------------------------------------------------------------
# separating hyperplanes


def test_fit_hyperplane_standard_basis():
    normal, offset = fit_separating_hyperplane(np.eye(3), 0, 0.0)
    expected = np.array([-2.0, 1.0, 1.0]) / np.sqrt(6)
    assert np.allclose(normal, expected, atol=1e-12)
    assert offset == pytest.approx(1 / np.sqrt(6), abs=1e-12)
    assert normal @ np.eye(3)[0] < offset


def test_fit_hyperplane_degenerate_point_on_hull():
    pts = np.array([[1.0, 0, 0], [0, 1.0, 0], [0.5, 0.5, 0]])
    assert fit_separating_hyperplane(pts, 2, 0.1) is None


def test_fit_hyperplane_degenerate_duplicate_points():
    pts = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0]])
    assert fit_separating_hyperplane(pts, 0, 0.0) is None


@settings(max_examples=40)
@given(st.integers(0, 10**6), st.integers(3, 6))
def test_fit_hyperplane_construction_identity(seed, n):
    # all points off the reference sit at level offset + eps, on the far side
    rng = np.random.default_rng(seed)
    pts = rng.random((n, n))
    pts -= pts.mean(axis=1, keepdims=True) - 1.0  # common coordinate sum
    eps = 0.125
    plane = fit_separating_hyperplane(pts, 1, eps)
    if plane is None:
        return
    normal, offset = plane
    for q in range(n):
        level = float(normal @ pts[q])
        if q == 1:
            assert level < offset + eps
        else:
            assert level - offset == pytest.approx(eps, abs=1e-9)
    assert abs(normal.sum()) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 10))
def test_separating_normals_give_altitudes_and_facets(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, n))
    pts -= pts.mean(axis=1, keepdims=True) - 1.0  # common coordinate sum
    normals, altitudes = separating_normals(pts)
    assert np.allclose(altitudes, simplex_altitudes(pts), rtol=1e-9, atol=0.0)
    for p in range(n):
        v = normals[p]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert abs(v.sum()) < 1e-12
        levels = pts @ v
        others = np.delete(levels, p)
        assert np.allclose(others, others[0], rtol=0.0, atol=1e-9)
        assert levels[p] == pytest.approx(others[0] - altitudes[p], abs=1e-9)
    duplicate = pts.copy()
    duplicate[0] = pts[-1]
    degenerate = [duplicate]
    if n >= 3:  # x^0 on the affine hull of the others
        weights = rng.random(n - 1)
        on_hull = pts.copy()
        on_hull[0] = weights / weights.sum() @ pts[1:]
        degenerate.append(on_hull)
    for points in degenerate:
        normals, altitudes = separating_normals([points])
        assert np.isnan(altitudes).all() and np.isnan(normals).all()


def test_degenerate_sets_alone_get_nan_in_a_stack():
    # one exactly singular set (a repeated point) and one with x^0 on the
    # hull of the others, among regular sets
    rng = np.random.default_rng(21)
    stack = rng.random((6, 4, 4))
    stack[1, 2] = stack[1, 3]
    stack[4, 0] = 0.25 * stack[4, 1] + 0.75 * stack[4, 2]
    normals, altitudes = separating_normals(stack)
    assert normals.shape == (6, 4, 4) and altitudes.shape == (6, 4)
    for i, points in enumerate(stack):
        degenerate = i in (1, 4)
        assert np.isnan(altitudes[i]).all() == np.isnan(normals[i]).all() == degenerate
        if not degenerate:
            alone = separating_normals(stack[i:i + 1])
            assert normals[i].tobytes() == alone[0][0].tobytes()
            assert altitudes[i].tobytes() == alone[1][0].tobytes()
        planes = [fit_separating_hyperplane(points, p, 0.0) for p in range(4)]
        assert all((plane is None) == degenerate for plane in planes)


@pytest.mark.parametrize("n", range(2, 21))
def test_separating_normals_match_the_numpy_wrapper_reference_bytes(n):
    rng = np.random.default_rng(300 + n)
    random = rng.random((5, n, n))
    scaled = random * np.array([1e-12, 1e-6, 1.0, 1e6, 1e12])[:, None, None]
    degenerate = rng.normal(size=(4, n, n))
    degenerate[1, 0] = degenerate[1, -1]  # a repeated point
    weights = rng.random(n - 1)
    degenerate[3, 0] = weights / weights.sum() @ degenerate[3, 1:]  # x^0 on the others' hull
    singular = rng.random((4, n, n))
    singular[0, 1] = singular[0, 0]
    singular[2] = 0.0  # every point the same
    shifted = singular - singular.mean(axis=-1, keepdims=True) + 1.0
    with pytest.raises(np.linalg.LinAlgError):  # so the sets are inverted one by one
        np.linalg.inv(shifted)
    for stack in (random[0], random, scaled, degenerate, singular):
        normals, altitudes = separating_normals(stack)
        expected_normals, expected_altitudes = reference_separating_normals(stack)
        assert normals.tobytes() == expected_normals.tobytes()
        assert altitudes.tobytes() == expected_altitudes.tobytes()
    assert np.isnan(altitudes[[0, 2]]).all() and not np.isnan(altitudes[[1, 3]]).any()


@pytest.mark.parametrize("scale", [1e13, 1e14, 1e15, 1e16])
def test_coordinates_past_the_solves_domain_are_rejected(scale):
    rng = np.random.default_rng(31)
    for n in (2, 3, 10, 20):
        small = rng.random((3, n, n))
        large = small.copy()
        large[1] *= scale
        with pytest.raises(ValueError, match="coordinates"):
            separating_normals(large)
        with pytest.raises(ValueError, match="coordinates"):
            fit_separating_hyperplane(large[1], 0, 0.0)
        edge = small * MAX_COORDINATE
        edge[0, 0, 0], edge[2, 0, 0] = np.nan, MAX_COORDINATE  # both are accepted
        assert np.isnan(separating_normals(edge)[1][0]).all()
        edge[2, 0, 0] = np.inf  # rejected, also beside a NaN
        with pytest.raises(ValueError, match="coordinates"):
            separating_normals(edge)


def test_two_points_separate_in_the_plane():
    pts = np.array([[0.2, 0.8], [0.7, 0.3]])
    normal, _ = fit_separating_hyperplane(pts, 0, 0.0)
    assert normal @ pts[0] < normal @ pts[1]


def test_fit_hyperplane_rejects_an_index_outside_the_points():
    # normals[-1] would silently read the last vertex's plane
    pts = np.random.default_rng(4).random((3, 3))
    for p in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            fit_separating_hyperplane(pts, p, 0.0)


def test_a_set_that_is_not_n_points_in_r_n_is_rejected():
    # a (4, 2) set used to fall into the singular-set fallback, which cut it
    # into square blocks, and the stopping test passed it
    pts = np.random.default_rng(0).random((4, 2))
    for call in (lambda: separating_normals(pts),
                 lambda: separating_normals(pts[None]),
                 lambda: separating_normals(np.ones(3)),
                 lambda: fit_separating_hyperplane(pts, 0, 0.0),
                 lambda: fit_separating_hyperplane(5.0, 0, 0.0)):
        with pytest.raises(ValueError, match=r"\(\.\.\., n, n\) stack"):
            call()
    # the stopping test rejects the set before its distance bound, at any
    # bonus, and names the caller's shape
    for bonus in (1e-6, 1.0):
        with pytest.raises(ValueError, match=r"\(\.\.\., n, n\) stack, got shape \(4, 2\)"):
            stopping_condition(pts, bonus)


def test_fewer_than_two_points_are_rejected():
    # no point has others to be separated from: one point made the solve
    # divide by zero, and none made the stopping test fail inside numpy
    for pts in (np.zeros((0, 0)), np.array([[5.0]]), np.ones((3, 1, 1))):
        for call in (lambda: separating_normals(pts),
                     lambda: fit_separating_hyperplane(pts, 0, 0.0),
                     lambda: stopping_condition(pts, 0.1)):
            with pytest.raises(ValueError, match=r"n >= 2 points must form"):
                call()


# ---------------------------------------------------------------------------
# clearance


def test_clearance_point_box():
    plane = (np.array([1.0, -1.0]) / np.sqrt(2), 0.5)
    box = Box(np.array([0.1, 0.3]), 0.0)
    expected = 0.5 - float(plane[0] @ box.center)
    assert box_hyperplane_clearance(plane, box) == pytest.approx(expected, abs=1e-15)


def test_clearance_center_on_plane():
    v = np.array([1.0, -1.0]) / np.sqrt(2)
    center = np.array([0.75, 0.25])
    plane = (v, float(v @ center))
    box = Box(center, 0.2)
    assert box_hyperplane_clearance(plane, box) == pytest.approx(-0.2 * np.abs(v).sum(), abs=1e-12)


def test_clearance_rejects_a_negative_radius():
    plane = (np.array([1.0, -1.0]) / np.sqrt(2), 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        box_hyperplane_clearance(plane, Box(np.array([0.1, 0.3]), -1e-3))


def test_clearance_dominates_sampled_points():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = int(rng.integers(3, 6))
        v = sum_zero(rng.normal(size=n))
        v /= np.linalg.norm(v)
        offset = float(rng.normal())
        box = Box(rng.random(n), float(rng.uniform(0.01, 0.3)))
        clearance = box_hyperplane_clearance((v, offset), box)
        sampled = min(
            offset - float(v @ random_box_point(rng, box))
            for _ in range(10_000)
        )
        assert clearance <= sampled + 1e-12


# ---------------------------------------------------------------------------
# mean point and membership


def test_mean_point_basics():
    x = np.array([0.4, 0.1, 0.5])
    assert np.allclose(mean_point([x, x, x]), x, atol=1e-15)
    assert np.allclose(mean_point(np.eye(3)), np.full(3, 1 / 3), atol=1e-15)


def test_mean_point_of_cyclic_vertices_is_shapley_value():
    n = 5
    game = gen_permutahedron(n)
    verts = [marginal_vector(game, w) for w in cyclic_permutations(n)]
    # a symmetric game's Shapley value splits mu(N) equally
    assert np.allclose(mean_point(verts), np.full(n, game.mu_grand / n), atol=1e-12)
    assert np.allclose(mean_point(verts), np.full(n, (n + 1) / 2 / (n * (n + 1) / 2)), atol=1e-12)


def test_in_simplex_vertex_and_mean():
    verts = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    assert in_simplex(verts[0], verts)
    assert in_simplex(mean_point(verts), verts)


def test_in_simplex_reflected_vertex_false():
    verts = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    opposite_mid = (verts[1] + verts[2]) / 2
    reflected = 2 * opposite_mid - verts[0]
    assert not in_simplex(reflected, verts)


def test_in_simplex_degenerate_raises():
    verts = np.array([[1.0, 0, 0], [0.5, 0.5, 0], [0, 1.0, 0]])
    with pytest.raises(ValueError, match="affinely degenerate"):
        in_simplex(np.array([0.5, 0.5, 0.0]), verts)


def test_in_simplex_off_hull_false():
    verts = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    assert not in_simplex(np.array([1.0, 1.0, 1.0]), verts)


# ---------------------------------------------------------------------------
# property suites tying the primitives to the stopping-rule guarantees


def test_width_lower_bound_on_adjacent_vertex_sets():
    # weak (squared-margin) form of the adjacent-vertex width bound
    count = 0
    for seed in range(200):
        n = 3 + seed % 5
        game = gen_strictly_convex(n, seed)
        margin = strict_convexity_margin(game)
        verts = [marginal_vector(game, w) for w in adjacent_permutations(Permutation.identity(n))]
        assert simplex_width(verts) >= margin**2 / np.sqrt(2 * n**3) - 1e-12
        count += 1
    assert count == 200


def test_perturbed_simplex_altitudes_lower_bound():
    # entrywise perturbations below eps/2 keep every altitude above
    # sqrt(width^2 - 6 n^3 eps)
    rng = np.random.default_rng(7)
    done = 0
    while done < 60:
        n = int(rng.integers(3, 7))
        M = rng.random((n, n))
        sigma = simplex_width(M)
        if sigma < 1e-3:
            continue
        for divisor in (6.0, 12.0):
            eps = sigma**2 / (divisor * n**3)
            R = rng.uniform(-eps / 2, eps / 2, size=(n, n))
            bound = np.sqrt(max(sigma**2 - 6 * n**3 * eps, 0.0))
            assert simplex_altitudes(M + R).min() >= bound - 1e-9
        done += 1


def test_separation_emerges_when_no_hyperplane_pierces_all_boxes():
    # when 10^4 random hyperplane probes all miss at least one box, each box
    # center admits a separating hyperplane with positive clearance
    for n in (3, 4):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            centers, boxes = cyclic_center_config(rng, n)
            for _ in range(10_000):
                v = sum_zero(rng.normal(size=n))
                v /= np.linalg.norm(v)
                levels = centers @ v
                offset = float(rng.uniform(levels.min(), levels.max()))
                assert hyperplane_misses_some_box(v, offset, boxes)
            for p in range(n):
                diam = max(2.0 * boxes[q].radius * np.sqrt(n) for q in range(n) if q != p)
                plane = fit_separating_hyperplane(centers, p, diam)
                assert plane is not None
                assert box_hyperplane_clearance(plane, boxes[p]) > 0


def test_common_point_follows_from_clearance_condition():
    # smaller inline version of the acceptance suite for the common-point rule
    for n in (3, 4):
        rng = np.random.default_rng(2000 + n)
        centers, boxes = cyclic_center_config(rng, n)
        assert meets_clearance_condition(centers, boxes)
        x_star = mean_point(centers)
        for _ in range(200):
            corners = [random_box_corner(rng, b) for b in boxes]
            assert in_simplex(x_star, corners)


@pytest.mark.parametrize("n", [3, 5, 8, 20])
def test_box_corners_match_the_generator_choice_draw(n):
    # random_box_corner's sign draw reproduces rng.choice([-1.0, 1.0]), so the
    # corner sets of the acceptance suite are those of the choice-based helper
    box = Box(np.linspace(-1.0, 2.0, n), 0.25)
    fast, reference = np.random.default_rng(n), np.random.default_rng(n)
    for _ in range(1000):
        shift = sum_zero(box.radius * reference.choice([-1.0, 1.0], size=n))
        peak = np.abs(shift).max()
        if peak > box.radius:
            shift *= box.radius / peak
        assert random_box_corner(fast, box).tobytes() == (box.center + shift).tobytes()
    assert fast.bit_generator.state == reference.bit_generator.state


def test_sum_zero_gives_the_bytes_of_subtracting_the_mean():
    rng = np.random.default_rng(11)
    for n in range(2, 21):
        for v in (rng.normal(size=n), rng.uniform(-1e3, 1e3, size=n)):
            assert sum_zero(v).tobytes() == (v - v.mean()).tobytes()


def test_no_common_point_when_hyperplane_pierces_all_boxes():
    # collinear centers: a single line meets every box, and some corner
    # selection excludes the candidate common point
    n = 3
    rng = np.random.default_rng(5)
    direction = sum_zero(np.array([1.0, -0.2, -0.8]))
    direction /= np.linalg.norm(direction)
    base = np.array([2.0, 1.0, 0.0])
    centers = np.array([base + k * direction for k in range(n)])
    radius = 0.05
    boxes = [Box(c, radius) for c in centers]
    x_star = mean_point(centers)

    side = sum_zero(np.cross(np.ones(3), direction))  # in-plane, across the line
    side /= np.abs(side).max()
    explicit = [
        centers[0] + radius * side,
        centers[1] + 0.5 * radius * side,
        centers[2] + radius * side,
    ]
    failures = 0 if in_simplex(x_star, explicit) else 1
    for _ in range(500):
        corners = [random_box_corner(rng, b) for b in boxes]
        try:
            if not in_simplex(x_star, corners):
                failures += 1
        except ValueError as exc:
            assert "affinely degenerate" in str(exc)
            failures += 1
    assert failures > 0
