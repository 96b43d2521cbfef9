import math

import numpy as np
import pytest

from fuzzdec import (
    FuzzyRelation,
    RegionGrid,
    Verdict,
    is_t_transitive,
    make_conorm,
    make_norm,
    one_interval,
    pair_weakly_decomposable,
    restricted_decomposability,
    strong_region,
    t_transitive_closure,
    transitivity_preserves_verdict,
    weak_region,
    zero_interval,
)

RES = 1 / 50  # fast grids for unit tests; the acceptance suite runs 1/200


def shape_masks(axis):
    A, B = np.meshgrid(axis, axis, indexing="ij")
    edges = (A == 0) | (A == 1) | (B == 0) | (B == 1)
    diag = A == B
    axes_only = np.minimum(A, B) == 0
    return A, B, edges, diag, axes_only


# ---------------------------------------------------------------------------
# weak regions


def test_weak_region_full_square_for_continuous_conorms():
    for spec in ("max", "lukasiewicz", "prob", "ordinal_sum"):
        grid = weak_region(make_conorm(spec), RES)
        assert grid.membership.all(), spec


def test_weak_region_drastic_is_frame_plus_diagonal():
    grid = weak_region(make_conorm("drastic"), RES)
    _, _, edges, diag, _ = shape_masks(grid.axis)
    np.testing.assert_array_equal(grid.membership, edges | diag)


def test_weak_region_symmetric_and_diagonal_invariants():
    for spec, lam in (("drastic", None), ("schweizer_sklar", math.inf), ("max", None)):
        grid = weak_region(make_conorm(spec, lam), RES)
        assert grid.is_symmetric()
        assert np.diag(grid.membership).all()  # (c,c) reconstructs with t = 0


def test_pair_decomposability_matches_region():
    S = make_conorm("drastic")
    grid = weak_region(S, RES)
    for a in (0.0, 0.1, 0.5, 1.0):
        for b in (0.0, 0.3, 0.5, 1.0):
            assert grid.member(a, b) == pair_weakly_decomposable(S, a, b)


# ---------------------------------------------------------------------------
# strong regions


def test_strong_region_product_lukasiewicz_is_diagonal_and_axes():
    grid = strong_region(make_norm("product"), make_conorm("lukasiewicz"), RES)
    _, _, _, diag, axes_only = shape_masks(grid.axis)
    np.testing.assert_array_equal(grid.membership, diag | axes_only)


def test_strong_region_lukasiewicz_pair_is_everything():
    grid = strong_region(make_norm("lukasiewicz"), make_conorm("lukasiewicz"), RES)
    assert grid.membership.all()


def test_strong_region_lukasiewicz_probabilistic_curve():
    grid = strong_region(make_norm("lukasiewicz"), make_conorm("prob"), RES)
    A, B, _, _, _ = shape_masks(grid.axis)
    mn, mx = np.minimum(A, B), np.maximum(A, B)
    analytic = mx <= mn * mn - mn + 1 + 1e-9
    np.testing.assert_array_equal(grid.membership, analytic)


def test_strong_region_minimum_maximum_point():
    grid = strong_region(make_norm("min"), make_conorm("max"), RES)
    assert not grid.member(1.0, 0.5)
    assert grid.member(0.5, 0.5) and grid.member(1.0, 0.0)


@pytest.mark.parametrize(
    "t_spec, s_spec",
    [
        ("drastic", "lukasiewicz"),
        ("product", "lukasiewicz"),
        ("lukasiewicz", "prob"),
        ("min", "max"),
        ("drastic", "drastic"),
        ("lukasiewicz", "lukasiewicz"),
    ],
)
@pytest.mark.parametrize("cells", [37, 51])
def test_strong_region_edge_matches_divisor_intervals(t_spec, s_spec, cells):
    T, S = make_norm(t_spec), make_conorm(s_spec)
    grid = strong_region(T, S, 1 / cells)
    ax = grid.axis
    expected = np.array(
        [not one_interval(S, w).intersect(zero_interval(T, w)).empty for w in ax]
    )
    expected[-1] = True  # the (1,1) corner is on the diagonal
    np.testing.assert_array_equal(grid.membership[-1, :], expected)
    np.testing.assert_array_equal(grid.membership[:, -1], expected)


def test_weak_contains_strong():
    pairs = [
        ("min", "max"),
        ("lukasiewicz", "lukasiewicz"),
        ("product", "lukasiewicz"),
        ("drastic", "drastic"),
        ("lukasiewicz", "prob"),
    ]
    for t_spec, s_spec in pairs:
        T, S = make_norm(t_spec), make_conorm(s_spec)
        weak = weak_region(S, RES).membership
        strong = strong_region(T, S, RES).membership
        assert (weak | ~strong).all(), (t_spec, s_spec)


def test_region_csv_round_trip():
    grid = weak_region(make_conorm("drastic"), 1 / 10)
    text = grid.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "a,b,member"
    assert len(lines) == 1 + 11 * 11
    # row-major: the first data line is the (0,0) cell
    a, b, member = lines[1].split(",")
    assert float(a) == 0.0 and float(b) == 0.0 and member == "1"


def reference_csv(grid):
    """The per-cell writer the row-joined one must match byte for byte."""
    out = ["a,b,member\n"]
    for i, a in enumerate(grid.axis):
        for j, b in enumerate(grid.axis):
            out.append(f"{a:.17g},{b:.17g},{int(grid.membership[i, j])}\n")
    return "".join(out)


def test_region_csv_matches_per_cell_reference():
    grids = [
        weak_region(make_conorm("drastic"), 1 / 37),
        strong_region(make_norm("lukasiewicz"), make_conorm("prob"), 1 / 37),
        strong_region(make_norm("product"), make_conorm("lukasiewicz"), 1 / 10),
    ]
    # an irregular axis with edge values, and a random membership
    axis = np.array([0.0, 5e-324, 0.1, 1 / 3, 1 - 2**-53, 1.0])
    member = np.random.default_rng(3).random((6, 6)) < 0.5
    grids.append(RegionGrid(0.2, axis, member))
    for grid in grids:
        assert grid.to_csv() == reference_csv(grid)


def test_save_csv_writes_to_csv(tmp_path):
    grid = strong_region(make_norm("drastic"), make_conorm("lukasiewicz"), 1 / 37)
    path = tmp_path / "region.csv"
    grid.save_csv(path)
    assert path.read_bytes() == reference_csv(grid).encode("utf-8")


# ---------------------------------------------------------------------------
# restricted domains


def test_max_connected_relations_decompose_under_drastic():
    verdict = restricted_decomposability(make_conorm("max"), make_conorm("drastic"))
    assert verdict.verdict is Verdict.HOLDS


def test_lukasiewicz_connected_relations_can_fail_under_drastic():
    verdict = restricted_decomposability(make_conorm("lukasiewicz"), make_conorm("drastic"))
    assert verdict.verdict is Verdict.FAILS
    a, b = verdict.witness
    SL, SD = make_conorm("lukasiewicz"), make_conorm("drastic")
    assert SL(a, b) == 1.0
    assert not pair_weakly_decomposable(SD, a, b)


def test_any_connectedness_passes_for_continuous_conorms():
    verdict = restricted_decomposability(make_conorm("lukasiewicz"), make_conorm("prob"))
    assert verdict.verdict is Verdict.HOLDS


# ---------------------------------------------------------------------------
# transitive closure and verdict preservation


def test_transitive_closure_properties():
    rng = np.random.default_rng(8)
    Tmin = make_norm("min")
    Tprod = make_norm("product")
    for T in (Tmin, Tprod):
        for _ in range(10):
            R = FuzzyRelation(("a", "b", "c", "d"), rng.uniform(size=(4, 4)))
            closed = t_transitive_closure(R, T)
            assert np.all(closed.degrees >= R.degrees - 1e-12)
            assert is_t_transitive(closed, T)
            again = t_transitive_closure(closed, T)
            np.testing.assert_allclose(again.degrees, closed.degrees, atol=1e-9)


def test_transitivity_never_changes_the_verdict():
    v = transitivity_preserves_verdict(make_norm("min"), make_conorm("prob"), samples=15)
    assert v.verdict is Verdict.UNKNOWN_SAMPLED
    v = transitivity_preserves_verdict(make_norm("product"), make_conorm("max"), samples=15)
    assert v.verdict is Verdict.UNKNOWN_SAMPLED
    # nonexistence survives the restriction: a min-transitive relation with
    # an interior asymmetric pair still fails under the drastic sum
    v = transitivity_preserves_verdict(make_norm("min"), make_conorm("drastic"), samples=15)
    assert v.verdict is Verdict.UNKNOWN_SAMPLED
    assert "nonexistence" in v.detail


def test_two_element_interior_witness_is_min_transitive():
    R = FuzzyRelation(("x", "y"), np.array([[1.0, 0.6], [0.5, 1.0]]))
    assert is_t_transitive(R, make_norm("min"))
    assert not pair_weakly_decomposable(make_conorm("drastic"), 0.6, 0.5)


def test_resolution_guard():
    with pytest.raises(ValueError):
        weak_region(make_conorm("max"), 1 / 4000)
