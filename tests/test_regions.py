import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fuzzdec import (
    FuzzyRelation,
    Kind,
    RegionGrid,
    Verdict,
    is_t_transitive,
    load_operator_table,
    make_conorm,
    make_custom,
    make_norm,
    one_interval,
    parse_op_spec,
    restricted_decomposability,
    strong_region,
    t_transitive_closure,
    weak_region,
    zero_interval,
)
from fuzzdec.regions import _decomposable
from oracles import (
    is_s_connected,
    lower_connector,
    skewed_connector,
    spelling,
    squared_min_norm,
    squaring_closure,
    walk_closure,
    warshall_closure,
)

RES = 1 / 50  # fast grids for unit tests; the acceptance suite runs 1/200


def weakly_decomposable(S, a, b):
    """The weak cell test on the one value pair (a, b)."""
    return bool(_decomposable(S, None, np.array([min(a, b)], float), np.array([max(a, b)], float), None)[0])


def member(grid, a, b):
    """The raster cell nearest to (a, b)."""
    i, j = (int(np.argmin(np.abs(grid.axis - v))) for v in (a, b))
    return bool(grid.membership[i, j])


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
        assert np.array_equal(grid.membership, grid.membership.T)
        assert np.diag(grid.membership).all()  # (c,c) reconstructs with t = 0


def test_pair_decomposability_matches_region():
    S = make_conorm("drastic")
    grid = weak_region(S, RES)
    for a in (0.0, 0.1, 0.5, 1.0):
        for b in (0.0, 0.3, 0.5, 1.0):
            assert member(grid, a, b) == weakly_decomposable(S, a, b)


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
    assert not member(grid, 1.0, 0.5)
    assert member(grid, 0.5, 0.5) and member(grid, 1.0, 0.0)


@pytest.mark.parametrize(
    "t_spec, s_spec",
    [
        ("drastic", "lukasiewicz"),
        ("product", "lukasiewicz"),
        ("lukasiewicz", "prob"),
        ("min", "max"),
        ("drastic", "drastic"),
        ("lukasiewicz", "lukasiewicz"),
        ("product", "custom_sum"),
        ("schweizer_sklar:lambda=0.5", "schweizer_sklar:lambda=2"),
    ],
)
@pytest.mark.parametrize("cells", [37, 51])
def test_strong_region_edge_matches_divisor_intervals(t_spec, s_spec, cells):
    T = parse_op_spec(t_spec, Kind.NORM)
    if s_spec == "custom_sum":
        S = make_custom(lambda x, y: np.minimum(x + y, 1.0), Kind.CONORM)
    else:
        S = parse_op_spec(s_spec, Kind.CONORM)
    grid = strong_region(T, S, 1 / cells)
    ax = grid.axis
    expected = np.array(
        [not one_interval(S, w).intersect(zero_interval(T, w)).empty for w in ax]
    )
    expected[-1] = True  # the (1,1) corner is on the diagonal
    np.testing.assert_array_equal(grid.membership[-1, :], expected)
    np.testing.assert_array_equal(grid.membership[:, -1], expected)


GOLDEN_REGIONS = Path(__file__).resolve().parents[1] / "perfbench" / "golden_regions.json"


def test_strong_regions_match_the_benchmark_golden_digests():
    # the strong rasters the regions benchmark replays, recomputed here: the
    # digest is the first 24 hex digits of SHA-256 over the packed membership
    golden = json.loads(GOLDEN_REGIONS.read_text(encoding="utf-8"))
    strong = {k: v for k, v in golden.items() if k.startswith("region|") and "/" in k}
    assert len(strong) == 180
    for key, want in strong.items():
        _, pair, _, res = key.split("|")
        t_spec, s_spec = pair.split("/")
        T, S = parse_op_spec(t_spec, Kind.NORM), parse_op_spec(s_spec, Kind.CONORM)
        member = strong_region(T, S, 1.0 / int(res)).membership
        digest = hashlib.sha256(np.packbits(member).tobytes()).hexdigest()[:24]
        assert f"{member.shape[0]}:{digest}" == want, key


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
            out.append(f"{spelling(a)},{spelling(b)},{int(grid.membership[i, j])}\n")
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
    grids.append(RegionGrid(axis, member))
    # all-member, empty and mixed rows
    member = np.ones((6, 6), dtype=bool)
    member[2] = False
    member[4, ::2] = False
    grids += [
        RegionGrid(axis, member),
        RegionGrid(axis, np.ones((6, 6), dtype=bool)),
        RegionGrid(axis, np.zeros((6, 6), dtype=bool)),
    ]
    rng = np.random.default_rng(5)
    for grid in grids:
        text = reference_csv(grid)
        assert grid.to_csv() == text
        # any partition of the rows concatenates to the whole file
        n = grid.axis.size
        for _ in range(4):
            cuts = np.unique([0, *rng.integers(0, n + 1, size=rng.integers(0, 5)), n]).tolist()
            parts = [grid.to_csv(slice(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
            assert "".join(parts) == text
            assert all(p.startswith("a,b,member\n") == (lo == 0) for p, lo in zip(parts, cuts))
        assert "".join(grid.to_csv(slice(k, k + 1)) for k in range(n)) == text


def test_save_csv_writes_to_csv(tmp_path):
    grid = strong_region(make_norm("drastic"), make_conorm("lukasiewicz"), 1 / 37)
    path = tmp_path / "region.csv"
    grid.save_csv(path)
    assert path.read_bytes() == reference_csv(grid).encode("utf-8")


def test_save_csv_memory_is_bounded_by_one_row_block(tmp_path):
    # the 1/2000 CSV is 75 MB (150 MB with every axis value in 17 digits, when a
    # whole-file text took 288 MB at its peak)
    grid = strong_region(make_norm("lukasiewicz"), make_conorm("lukasiewicz"), 1 / 2000)
    path = tmp_path / "region.csv"
    tracemalloc.start()
    try:
        grid.save_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    with open(path, "rb") as fh:
        assert fh.readline() == b"a,b,member\n"
    assert path.stat().st_size == 75_001_493
    path.unlink()  # pytest keeps recent temporary directories


# ---------------------------------------------------------------------------
# restricted domains


def test_max_connected_relations_decompose_under_drastic():
    # proven by the connector: the maximum reaches 1 only on pairs (i, 1)
    verdict = restricted_decomposability(make_conorm("max"), make_conorm("drastic"), None, RES)
    assert str(verdict) == "HOLDS -- Maximum connects only pairs (i, 1), and t = 1 decomposes each weakly"


def test_lukasiewicz_connected_relations_can_fail_under_drastic():
    verdict = restricted_decomposability(make_conorm("lukasiewicz"), make_conorm("drastic"), None, RES)
    assert str(verdict) == (
        "FAILS witness=(0.02, 0.98) -- pair (0.02,0.98) is Lukasiewicz conorm-connected but not decomposable"
    )
    a, b = verdict.witness
    SL, SD = make_conorm("lukasiewicz"), make_conorm("drastic")
    assert SL(a, b) == 1.0
    assert not weakly_decomposable(SD, a, b)


def test_any_connectedness_passes_for_continuous_conorms():
    # proven by existence: every relation decomposes under the conorm
    verdict = restricted_decomposability(make_conorm("lukasiewicz"), make_conorm("prob"), None, RES)
    assert str(verdict) == "HOLDS -- every relation decomposes: Probabilistic sum is continuous on [0,1]^2"


def test_max_connected_relations_decompose_strongly_under_the_drastic_pair():
    # existence FAILS (discontinuous conorm), but the maximum connects only
    # pairs (i, 1), and the drastic divisor intervals meet at every w = i
    for conn in ("max", "ordinal_sum"):
        verdict = restricted_decomposability(make_conorm(conn), make_conorm("drastic"), make_norm("drastic"), RES)
        assert verdict.verdict is Verdict.HOLDS, conn
    assert str(verdict) == (
        "HOLDS -- Ordinal-sum conorm (Lukasiewicz on [0,1/2]) connects only pairs (i, 1), "
        "and the divisor intervals meet at every w"
    )


def test_a_clean_raster_alone_is_unknown():
    # a Schweizer-Sklar pair at lambdas 0.5 and 3 is not classified: its
    # existence is UNKNOWN, and the connector proves nothing for a strong check
    verdict = restricted_decomposability(
        make_conorm("max"), make_conorm("schweizer_sklar", 3.0), make_norm("schweizer_sklar", 0.5), RES
    )
    assert str(verdict) == "UNKNOWN -- no connected value pair escapes the region on the 51x51 grid of step 1/50"


def test_kind_errors_name_the_check_called():
    S, T = make_conorm("max"), make_norm("minimum")
    calls = [
        ("weak_region expects a conorm", lambda: weak_region(T, RES)),
        ("strong_region expects (norm, conorm)", lambda: strong_region(S, S, RES)),
        ("restricted_decomposability expects a conorm", lambda: restricted_decomposability(S, T, None, RES)),
        ("restricted_decomposability expects (norm, conorm)", lambda: restricted_decomposability(S, S, S, RES)),
        ("the connecting operator must be a conorm", lambda: restricted_decomposability(T, S, None, RES)),
    ]
    for message, call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


REPLAY_CHECKS = [
    (None, ("drastic", None)),
    (None, ("schweizer_sklar", 5.0)),
    (("drastic", None), ("drastic", None)),
    (("schweizer_sklar", 5.0), ("schweizer_sklar", 5.0)),
    (("minimum", None), ("lukasiewicz", None)),
    (("lukasiewicz", None), ("max", None)),
]


@pytest.mark.parametrize("connector", [lower_connector, skewed_connector])
def test_fails_witnesses_of_non_commuting_connectors_replay(connector):
    # a witness (a, b) must be a connected relation [[1, a], [b, 1]] (S'
    # reaches 1 in both orders) whose value pair lies outside the region
    S_prime, failures = connector(), 0
    for norm, conorm in REPLAY_CHECKS:
        T, S = norm and make_norm(*norm), make_conorm(*conorm)
        for n in (4, 7, 20, 41):
            verdict = restricted_decomposability(S_prime, S, T, 1 / n)
            if verdict.verdict is not Verdict.FAILS:
                continue
            failures += 1
            a, b = verdict.witness
            assert is_s_connected(FuzzyRelation(("x", "y"), np.array([[1.0, a], [b, 1.0]])), S_prime)
            grid = weak_region(S, 1 / n) if T is None else strong_region(T, S, 1 / n)
            assert not member(grid, a, b), (norm, conorm, n, (a, b))
    assert failures


# ---------------------------------------------------------------------------
# transitive closure


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


WALK_NORMS = [("minimum", None), ("product", None), ("lukasiewicz", None), ("drastic", None),
              ("ordinal_sum", None), ("schweizer_sklar", -1.0), ("schweizer_sklar", 0.5),
              ("schweizer_sklar", 2.0), ("hamacher", 0.0), ("hamacher", 2.0)]


@pytest.mark.parametrize("norm", WALK_NORMS, ids=[f"{f}-{lam}" for f, lam in WALK_NORMS])
def test_closure_is_the_sup_over_walks(norm):
    # random diagonals, so cycles through a node can raise its own degree
    T = make_norm(*norm)
    rng = np.random.default_rng(30)
    for n in (1, 2, 3, 4):
        for grid in (False, True):
            for _ in range(4):
                m = rng.integers(0, 21, size=(n, n)) / 20 if grid else rng.random((n, n))
                R = FuzzyRelation(tuple("abcd"[:n]), m)
                C = t_transitive_closure(R, T).degrees
                walks = walk_closure(R, T)
                if T.family == "minimum":
                    assert np.array_equal(C, walks)
                np.testing.assert_allclose(C, walks, rtol=0.0, atol=1e-12)


def test_custom_closure_finishes_what_the_pivot_pass_misses():
    T = squared_min_norm()
    rng = np.random.default_rng(6)
    for n in (6, 40):
        R = FuzzyRelation(tuple(f"x{k}" for k in range(n)), rng.random((n, n)))
        pivot = warshall_closure(R.degrees, T)
        assert not is_t_transitive(FuzzyRelation(R.universe, pivot), T)
        C = t_transitive_closure(R, T)
        assert is_t_transitive(C, T)
        assert np.all(C.degrees >= R.degrees)
        assert np.array_equal(C.degrees, squaring_closure(R.degrees, T))


@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_closure_under_a_table_norm_is_the_least_transitive_relation(tmp_path, n):
    # the Lukasiewicz norm max(0, x + y - 1) at the nodes of the 1/4 grid
    nodes = [[max(0.0, (a + b - 4) / 4) for b in range(5)] for a in range(5)]
    path = tmp_path / "luk_norm.op"
    path.write_text("fuzzop v1\ngrid 4\n" + "".join(" ".join(map(repr, row)) + "\n" for row in nodes))
    T = load_operator_table(path, Kind.NORM)
    R = FuzzyRelation(tuple(f"x{k}" for k in range(n)), np.random.default_rng(n).random((n, n)))
    C = t_transitive_closure(R, T)
    assert is_t_transitive(C, T)
    assert np.all(C.degrees >= R.degrees)
    # interpolation rounds, so closing again may still move a cell by a few ulps
    np.testing.assert_allclose(t_transitive_closure(C, T).degrees, C.degrees, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(C.degrees, squaring_closure(R.degrees, T), rtol=0.0, atol=1e-12)


def test_two_element_interior_witness_is_min_transitive():
    R = FuzzyRelation(("x", "y"), np.array([[1.0, 0.6], [0.5, 1.0]]))
    assert is_t_transitive(R, make_norm("min"))
    assert not weakly_decomposable(make_conorm("drastic"), 0.6, 0.5)


REGION_CALLS = {
    "weak": lambda res: weak_region(make_conorm("max"), res),
    "strong": lambda res: strong_region(make_norm("min"), make_conorm("max"), res),
    "restricted": lambda res: restricted_decomposability(make_conorm("max"), make_conorm("max"), None, res),
}


@pytest.mark.parametrize(
    "resolution, named", [(math.nan, "nan"), (2.0, "2.0"), (math.inf, "inf"), (1 / 4000, "1/4000")]
)
@pytest.mark.parametrize("call", sorted(REGION_CALLS))
def test_resolution_guard(call, resolution, named):
    """Only a resolution in [1/2000, 1] rasterises; any other is refused by
    name, never read as a 1 x 1 raster or passed on to numpy."""
    with pytest.raises(ValueError, match=rf"resolution .*, got {re.escape(named)}$"):
        REGION_CALLS[call](resolution)
