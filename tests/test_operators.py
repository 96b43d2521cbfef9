import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzdec import (
    Kind,
    Verdict,
    check_collapse_implies_absorption,
    check_first_coordinate_continuity,
    check_norm_axioms,
    check_strict_near_zero,
    check_strictly_increasing_first,
    degree_grid,
    make_conorm,
    make_custom,
    make_family,
    make_norm,
    parse_op_spec,
)
from fuzzdec import FuzzyRelation, existence, families
from fuzzdec.operators import format_lambda
from fuzzdec.tables import LAMBDA_SAMPLES
from oracles import WHERE_CHAINS, where_chain_evaluator, where_chain_pinned

BUILTIN_SPECS = [
    ("minimum", None),
    ("product", None),
    ("lukasiewicz", None),
    ("drastic", None),
    ("schweizer_sklar", -math.inf),
    ("schweizer_sklar", -1.0),
    ("schweizer_sklar", 0.0),
    ("schweizer_sklar", 0.5),
    ("schweizer_sklar", 2.0),
    ("schweizer_sklar", math.inf),
    ("hamacher", 0.0),
    ("hamacher", 0.5),
    ("hamacher", 2.0),
    ("hamacher", math.inf),
    ("ordinal_sum_lukasiewicz_half", None),
]

degrees = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# construction and evaluation


def test_family_point_values():
    assert make_conorm("lukasiewicz")(0.3, 0.9) == 1.0
    assert make_norm("schweizer_sklar", 0)(0.5, 0.5) == 0.25
    assert make_conorm("drastic")(0.4, 0.0) == 0.4


def test_parameter_degenerations():
    grid = degree_grid(0.05)
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    np.testing.assert_array_equal(
        make_norm("schweizer_sklar", -math.inf).evaluator(xx, yy),
        make_norm("minimum").evaluator(xx, yy),
    )
    np.testing.assert_array_equal(
        make_conorm("schweizer_sklar", 0).evaluator(xx, yy),
        make_conorm("product").evaluator(xx, yy),
    )
    np.testing.assert_array_equal(
        make_conorm("schweizer_sklar", math.inf).evaluator(xx, yy),
        make_conorm("drastic").evaluator(xx, yy),
    )
    np.testing.assert_array_equal(
        make_conorm("hamacher", math.inf).evaluator(xx, yy),
        make_conorm("drastic").evaluator(xx, yy),
    )


def test_lambda_snapping_and_ranges():
    assert make_norm("schweizer_sklar", 1e-13).parameter == 0.0
    with pytest.raises(ValueError):
        make_norm("hamacher", -1.0)
    with pytest.raises(ValueError):
        make_norm("nonsense")
    with pytest.raises(ValueError):
        make_norm("minimum", 2.0)
    with pytest.raises(ValueError):
        make_norm("schweizer_sklar")


def test_hamacher_corner_values():
    # the 0/0 corners must respect the boundary axioms
    assert make_norm("hamacher", 0.0)(0.0, 0.0) == 0.0
    assert make_conorm("hamacher", 0.0)(1.0, 1.0) == 1.0
    assert make_conorm("hamacher", 0.0)(0.0, 0.0) == 0.0


def test_make_family_deterministic():
    a = make_conorm("schweizer_sklar", 2.0)
    b = make_conorm("schweizer_sklar", 2.0)
    g = degree_grid(0.01)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    np.testing.assert_array_equal(a.evaluator(xx, yy), b.evaluator(xx, yy))


def accepted_builtins():
    """Every built-in family at each lambda of `tables.LAMBDA_SAMPLES` it
    accepts, in both kinds."""
    ops = []
    for family in (*families.FAMILIES, *families.PARAMETRIC):
        for lam in (None,) if family in families.FAMILIES else LAMBDA_SAMPLES:
            for kind in Kind:
                try:
                    ops.append(make_family(family, kind, lam))
                except ValueError:
                    pass
    return ops


# custom callables: one that broadcasts, and two whose result has another shape
CUSTOM_SHAPES = {"squared-min": lambda x, y: np.minimum(x, y) ** 2, "first": lambda x, y: x, "constant": lambda x, y: 0.0}


@pytest.mark.parametrize(
    "op",
    [pytest.param(op, id=f"{op.family}-{op.parameter}-{op.kind.value}") for op in accepted_builtins()]
    + [pytest.param(make_custom(fn, Kind.NORM), id=f"custom-{name}") for name, fn in CUSTOM_SHAPES.items()],
)
def test_evaluators_return_float_arrays_of_the_broadcast_shape(op):
    g = degree_grid(0.25)
    for x, y in ((g[:, None], g[None, :]), (g, g[::-1]), (g[None, :3], g[:2, None])):
        out = op.evaluator(x, y)
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64
        assert out.shape == np.broadcast_shapes(x.shape, y.shape)


# boundary rows, the floats next to them, out-of-range values, NaN and +-inf
PINNED_PROBES = np.array(
    [-0.0, 0.0, 5e-324, 0.25, 0.5, 0.7, 1 - 2**-53, 1.0, -0.5, 1.5, np.nan, np.inf, -np.inf]
)


def assert_pinned_cells(got, want, x, y, absorbing):
    """``got`` against the where-chain's ``want``: bit for bit where both
    operands lie in [0,1] and wherever an operand is 0 or 1 (the boundary
    rules).  Where an operand is NaN and neither is 0 or 1, NaN (the
    where-chain read 0 or 1 there); beside an absorbing partner, the absorbing
    value.  Other cells with an operand outside [0,1] are outside the
    evaluator contract."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    x, y = np.broadcast_arrays(x, y)
    inside = (x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0)
    edge = np.isin(x, (0.0, 1.0)) | np.isin(y, (0.0, 1.0))
    assert np.array_equal(got.view(np.int64)[inside | edge], want.view(np.int64)[inside | edge])
    nan = (np.isnan(x) | np.isnan(y)) & ~edge
    assert np.isnan(got[nan]).all()
    beside = (np.isnan(x) | np.isnan(y)) & ((x == absorbing) | (y == absorbing))
    assert (got[beside] == absorbing).all()


@pytest.mark.parametrize(
    "family,lam",
    [("schweizer_sklar", lam) for lam in (-3.0, -1.0, -0.5, 0.5, 1.0, 2.0, 5.0, 50.0)]
    + [("hamacher", lam) for lam in (0.0, 0.5, 2.0, 10.0)],
)
def test_pinned_evaluators_match_the_where_chain(family, lam, monkeypatch):
    record = families.PARAMETRIC[family](lam)
    monkeypatch.setattr(families, "_pinned", where_chain_pinned)
    oracle = families.PARAMETRIC[family](lam)
    probes = np.concatenate([PINNED_PROBES, degree_grid(0.01)])
    xx, yy = np.meshgrid(probes, probes, indexing="ij")
    for absorbing, got_ev, want_ev in ((0.0, record.norm, oracle.norm), (1.0, record.conorm, oracle.conorm)):
        for x, y in ((xx, yy), (probes[:, None], probes[None, :])):
            assert_pinned_cells(got_ev(x, y), want_ev(x, y), x, y, absorbing)
        for x in PINNED_PROBES:  # 0-d operands
            for y in PINNED_PROBES:
                x0, y0 = np.float64(x), np.float64(y)
                assert_pinned_cells(got_ev(x0, y0), want_ev(x0, y0), x0, y0, absorbing)


@pytest.mark.parametrize("family,lam", [("drastic", None), ("schweizer_sklar", math.inf), ("hamacher", math.inf)])
@np.errstate(invalid="ignore")  # inf * 0 and inf - inf, outside the evaluator contract
def test_drastic_evaluators_keep_the_pinned_contract(family, lam):
    # a NaN operand gave the absorbing value unless its partner was the identity
    probes = np.concatenate([PINNED_PROBES, degree_grid(0.01)])
    xx, yy = np.meshgrid(probes, probes, indexing="ij")
    for absorbing, kind in ((0.0, Kind.NORM), (1.0, Kind.CONORM)):
        got_ev, want_ev = make_family(family, kind, lam).evaluator, WHERE_CHAINS["drastic", kind]
        for x, y in ((xx, yy), (probes[:, None], probes[None, :])):
            assert_pinned_cells(got_ev(x, y), want_ev(x, y), x, y, absorbing)
        for x in PINNED_PROBES:  # 0-d operands
            for y in PINNED_PROBES:
                x0, y0 = np.float64(x), np.float64(y)
                assert_pinned_cells(got_ev(x0, y0), want_ev(x0, y0), x0, y0, absorbing)
        assert np.isnan(got_ev(np.nan, 0.5)) and np.isnan(got_ev(np.nan, np.nan))


def _read_only(m):
    """``m`` write-protected, as `FuzzyRelation.degrees` is."""
    if np.ndim(m) == 2:
        return FuzzyRelation(tuple(f"x{i}" for i in range(len(m))), m).degrees
    m = np.array(m, dtype=float)
    m.flags.writeable = False
    return m


def _operand_pairs():
    """(label, x, y): in-domain probes, decomposition-shaped blocks (P = 0
    wherever R(x,y) <= R(y,x)), Warshall pivot broadcasts and 0-d
    operands, all write-protected."""
    probes = np.concatenate([PINNED_PROBES[:8], np.nextafter(0.5, [0.0, 1.0]), degree_grid(0.01)])
    xx, yy = np.meshgrid(probes, probes, indexing="ij")
    pairs = [("probes", _read_only(xx), _read_only(yy))]
    rng = np.random.default_rng(35)
    for grid, m in (("grid", rng.integers(0, 21, (48, 48)) / 20), ("continuous", rng.random((48, 48)))):
        R = _read_only(m)
        P, I = _read_only(np.where(m > m.T, m, 0.0)), _read_only(np.minimum(m, m.T))
        pairs += [(f"{grid}-block", P, I), (f"{grid}-pivot", R[:, 7, None], R[None, 7, :])]
    for x in PINNED_PROBES[:8]:
        for y in (0.0, 5e-324, 0.5, 1.0):
            pairs.append(("0-d", _read_only(x), _read_only(y)))
    return pairs


@pytest.mark.parametrize(
    "op", [pytest.param(op, id=f"{op.family}-{op.parameter}-{op.kind.value}") for op in accepted_builtins()]
)
def test_every_builtin_evaluator_matches_its_where_chain(op):
    oracle = where_chain_evaluator(op)
    for label, x, y in _operand_pairs():
        before = x.copy(), y.copy()
        got, want = op.evaluator(x, y), oracle(x, y)
        assert np.shape(got) == np.shape(want) == np.broadcast_shapes(x.shape, y.shape), label
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64)), label
        assert np.array_equal(x, before[0]) and np.array_equal(y, before[1]), label


def test_parse_op_spec():
    op = parse_op_spec("schweizer_sklar:lambda=2", Kind.NORM)
    assert op.family == "schweizer_sklar" and op.parameter == 2.0
    assert parse_op_spec("max", Kind.CONORM).display_name == "Maximum"
    assert parse_op_spec("ss:lambda=-inf", Kind.CONORM)(0.3, 0.4) == 0.4
    with pytest.raises(ValueError):
        parse_op_spec("max:lambda=1", Kind.CONORM)
    with pytest.raises(ValueError):
        parse_op_spec("schweizer_sklar:lambda=abc", Kind.NORM)


def test_lambda_reads_as_a_file_degree():
    assert parse_op_spec("ss:lambda=1e-3", Kind.NORM).parameter == 1e-3
    assert parse_op_spec("ss:lambda=+inf", Kind.NORM).parameter == math.inf
    # float() reads these as 10 and 2; a relation file may not hold them either
    for raw in ("1_0", "\u0662", "\uff12"):
        with pytest.raises(ValueError, match=re.escape(f"bad lambda value {raw!r} in spec 'ss:lambda={raw}'")):
            parse_op_spec(f"ss:lambda={raw}", Kind.NORM)


def test_degree_grid_stops_at_the_finest_step():
    assert degree_grid(1 / 2000).size == 2001
    with pytest.raises(ValueError, match="grid step below 1/2000 is not supported"):
        degree_grid(1 / 2001)


def test_lambdas_and_witness_texts_print_each_float_in_full():
    # six significant digits would name lambda = 1, a different Table-1 regime
    assert make_conorm("schweizer_sklar", 1.0000001).display_name == "Schweizer-Sklar conorm(lambda=1.0000001)"
    assert [format_lambda(lam) for lam in (math.inf, -math.inf, 1.0, -0.5)] == ["+inf", "-inf", "1", "-0.5"]
    # ... and would print t = s for this t < s
    S = make_conorm("schweizer_sklar", 0.05)
    assert check_strictly_increasing_first(S).detail == "op(0.999999999999998,0.5) = 1 and op(0.999999999999999,0.5) = 1"
    assert check_collapse_implies_absorption(S).detail == "S(0.999999999999998,0.5) = S(0.999999999999999,0.5) = 1 > 0.5"
    # a section that falls is not described as flat
    dip = make_custom(lambda x, y: np.minimum(1.0, np.asarray(x) + y) - 0.25 * (np.asarray(x) > 0.5), Kind.CONORM)
    assert str(check_strictly_increasing_first(dip)) == (
        "FAILS witness=(0.5, 0.501, 0.0) -- op(0.5,0) = 0.5 and op(0.501,0) = 0.251"
    )


# ---------------------------------------------------------------------------
# axioms and duality


@pytest.mark.parametrize("family,lam", BUILTIN_SPECS)
@pytest.mark.parametrize("kind", [Kind.NORM, Kind.CONORM])
def test_builtin_axioms_on_grid(family, lam, kind):
    op = make_family(family, kind, lam)
    assert check_norm_axioms(op, 0.01).verdict is Verdict.HOLDS


@pytest.mark.parametrize("family,lam", BUILTIN_SPECS)
def test_duality_on_grid(family, lam):
    T = make_family(family, Kind.NORM, lam)
    S = make_family(family, Kind.CONORM, lam)
    g = degree_grid(0.01)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    lhs = np.asarray(S.evaluator(xx, yy), dtype=float)
    rhs = 1.0 - np.asarray(T.evaluator(1.0 - xx, 1.0 - yy), dtype=float)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_ss_family_continuous_in_lambda_near_zero():
    almost = make_norm("schweizer_sklar", 0.001)
    g = degree_grid(0.01)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    assert np.max(np.abs(almost.evaluator(xx, yy) - xx * yy)) <= 0.01


def test_custom_violation_found_with_reproducible_witness():
    bad = make_custom(lambda x, y: np.asarray(x) * np.asarray(y), Kind.CONORM)
    verdict = check_norm_axioms(bad, 0.02)
    assert verdict.verdict is Verdict.FAILS
    x, y = verdict.witness
    # the boundary S(x,1) = 1 (or S(x,0) = x) really does fail there
    if 1.0 in (x, y):
        assert bad(x, y) != 1.0 or bad(x, y) != max(x, y)
    assert abs(bad(x, y) - x * y) <= 1e-12


SWEPT = (
    "UNKNOWN -- no violation on the 101-point grid of step 0.01 (associativity on 51 points); "
    "axioms not certified for a custom operator"
)


def test_absorbing_boundary_rows_must_hold_exactly():
    # x + y - x*y rounds S(0.13, 1) to 0.9999999999999999, which the divisor
    # intervals (level sets of 1) cannot absorb
    v = check_norm_axioms(make_custom(lambda x, y: x + y - x * y, Kind.CONORM))
    assert v.verdict is Verdict.FAILS
    assert v.witness == (0.13, 1.0) and v.detail == "boundary S(x,1) = 1 violated: got 0.9999999999999999"
    ok = make_custom(lambda x, y: np.minimum(1.0, x + y), Kind.CONORM)
    assert str(check_norm_axioms(ok)) == SWEPT
    # the identity rows keep the tolerance
    near = make_custom(lambda x, y: np.where(np.asarray(y) == 1.0, x * (1 - 1e-12), np.minimum(x, y)), Kind.NORM)
    assert str(check_norm_axioms(near)) == SWEPT


def test_custom_passing_grid_is_only_sampled():
    ok = make_custom(lambda x, y: np.maximum(x, y), Kind.CONORM)
    assert str(check_norm_axioms(ok, 0.05)) == (
        "UNKNOWN -- no violation on the 21-point grid of step 0.05 (associativity on 21 points); "
        "axioms not certified for a custom operator"
    )


@given(degrees, degrees)
@settings(max_examples=60, deadline=None)
def test_norms_below_min_conorms_above_max(x, y):
    for family, lam in (("product", None), ("lukasiewicz", None), ("schweizer_sklar", 2.0)):
        T = make_family(family, Kind.NORM, lam)
        S = make_family(family, Kind.CONORM, lam)
        assert T(x, y) <= min(x, y) + 1e-12
        assert S(x, y) >= max(x, y) - 1e-12


# ---------------------------------------------------------------------------
# continuity


def test_continuity_analytic_verdicts():
    assert check_first_coordinate_continuity(make_conorm("max")).verdict is Verdict.HOLDS
    assert check_first_coordinate_continuity(make_conorm("ordinal_sum")).verdict is Verdict.HOLDS
    assert (
        check_first_coordinate_continuity(make_conorm("schweizer_sklar", -3.0)).verdict
        is Verdict.HOLDS
    )
    for op in (
        make_conorm("drastic"),
        make_conorm("schweizer_sklar", math.inf),
        make_conorm("hamacher", math.inf),
    ):
        verdict = check_first_coordinate_continuity(op)
        assert verdict.verdict is Verdict.FAILS
        t0, t1, w = verdict.witness
        assert abs(op(t0, w) - op(t1, w)) > 0.4  # the jump reproduces


def test_continuity_sampled_custom():
    step = make_custom(
        lambda x, y: np.where(np.asarray(x) + np.asarray(y) > 0, 1.0, 0.0), Kind.CONORM
    )
    assert check_first_coordinate_continuity(step).verdict is Verdict.FAILS
    smooth = make_custom(lambda x, y: np.minimum(np.asarray(x) + np.asarray(y), 1.0), Kind.CONORM)
    assert str(check_first_coordinate_continuity(smooth)) == (
        "UNKNOWN -- no jump above 0.05 on 1001 points of t at each of 101 w"
    )


def test_a_steep_continuous_custom_section_is_no_jump():
    # Schweizer-Sklar at lambda = 3 rises by 0.0586 across the grid step
    # (0.556, 0.557) at w = 0.03; halving the step shrinks the rise
    steep = make_custom(make_conorm("schweizer_sklar", 3.0).evaluator, Kind.CONORM)
    assert str(check_first_coordinate_continuity(steep)) == (
        "UNKNOWN -- no jump above 0.05 on 1001 points of t at each of 101 w"
    )
    assert existence(steep).verdict is Verdict.UNKNOWN
    # a true jump stays one, across a gap bisection has narrowed
    step = make_custom(lambda x, y: np.where(np.asarray(x) + np.asarray(y) > 0, 1.0, 0.0), Kind.CONORM)
    assert str(check_first_coordinate_continuity(step)) == (
        "FAILS witness=(0.0, 8.673617379884036e-22, 0.0) -- jump from 0 to 1 across first-argument gap of 8.67362e-22"
    )


# ---------------------------------------------------------------------------
# strictness in the first coordinate


def test_strictly_increasing_verdicts():
    assert check_strictly_increasing_first(make_conorm("prob")).verdict is Verdict.HOLDS
    v = check_strictly_increasing_first(make_conorm("max"))
    assert v.verdict is Verdict.FAILS
    t, s, w = v.witness
    assert make_conorm("max")(t, w) == make_conorm("max")(s, w)
    v = check_strictly_increasing_first(make_conorm("lukasiewicz"))
    assert v.verdict is Verdict.FAILS
    t, s, w = v.witness
    SL = make_conorm("lukasiewicz")
    assert SL(t, w) == SL(s, w) == 1.0


@pytest.mark.parametrize(
    "family,lam,expect",
    [
        ("product", None, Verdict.HOLDS),
        ("schweizer_sklar", -1.0, Verdict.HOLDS),
        ("schweizer_sklar", 0.5, Verdict.FAILS),
        ("schweizer_sklar", 2.0, Verdict.FAILS),
        ("hamacher", 0.0, Verdict.HOLDS),
        ("hamacher", 2.0, Verdict.HOLDS),
        ("ordinal_sum_lukasiewicz_half", None, Verdict.FAILS),
        ("drastic", None, Verdict.FAILS),
    ],
)
def test_strictness_family_table(family, lam, expect):
    op = make_family(family, Kind.CONORM, lam)
    verdict = check_strictly_increasing_first(op)
    assert verdict.verdict is expect
    if expect is Verdict.FAILS:
        t, s, w = verdict.witness
        assert op(t, w) == op(s, w) and t != s and w < 1.0


# ---------------------------------------------------------------------------
# collapse-implies-absorption


def test_collapse_absorption_verdicts():
    assert check_collapse_implies_absorption(make_conorm("max")).verdict is Verdict.HOLDS
    assert check_collapse_implies_absorption(make_conorm("prob")).verdict is Verdict.HOLDS
    v = check_collapse_implies_absorption(make_conorm("lukasiewicz"))
    assert v.verdict is Verdict.FAILS
    w, t, s = v.witness
    SL = make_conorm("lukasiewicz")
    assert SL(t, w) == SL(s, w) > w
    # the documented witness works too
    assert SL(0.6, 0.5) == SL(0.7, 0.5) == 1.0 > 0.5


def test_collapse_absorption_grid_oracle_agrees():
    # sweep a custom copy of each analytic case and compare outcomes
    probe = {
        "max": (np.maximum, Verdict.UNKNOWN),
        "luk": (lambda x, y: np.minimum(np.asarray(x) + np.asarray(y), 1.0), Verdict.FAILS),
    }
    for name, (fn, expect) in probe.items():
        verdict = check_collapse_implies_absorption(make_custom(fn, Kind.CONORM))
        assert verdict.verdict is expect, name


# ---------------------------------------------------------------------------
# strict near zero


@pytest.mark.parametrize(
    "family,lam,expect",
    [
        ("minimum", None, Verdict.FAILS),
        ("lukasiewicz", None, Verdict.HOLDS),
        ("product", None, Verdict.HOLDS),
        ("drastic", None, Verdict.FAILS),
        ("schweizer_sklar", -2.0, Verdict.HOLDS),
        ("schweizer_sklar", 0.7, Verdict.HOLDS),
        ("schweizer_sklar", math.inf, Verdict.FAILS),
        ("hamacher", 1.5, Verdict.HOLDS),
        ("ordinal_sum_lukasiewicz_half", None, Verdict.FAILS),
    ],
)
def test_strict_near_zero_table(family, lam, expect):
    op = make_family(family, Kind.CONORM, lam)
    verdict = check_strict_near_zero(op)
    assert verdict.verdict is expect
    if expect is Verdict.FAILS:
        w, t, s = verdict.witness
        assert op(t, w) == op(s, w) and w < 1.0


def test_strict_near_zero_rejects_norms():
    with pytest.raises(ValueError):
        check_strict_near_zero(make_norm("minimum"))


@pytest.mark.parametrize("family", ["schweizer_sklar", "hamacher"])
@pytest.mark.parametrize("kind", [Kind.NORM, Kind.CONORM])
def test_nan_lambda_is_rejected(family, kind):
    with pytest.raises(ValueError, match="must not be NaN"):
        make_family(family, kind, float("nan"))
    with pytest.raises(ValueError, match="must not be NaN"):
        parse_op_spec(f"{family}:lambda=nan", kind)
    # the infinite limits stay valid
    assert make_family(family, kind, math.inf).parameter == math.inf
    if family == "schweizer_sklar":
        assert make_family(family, kind, -math.inf).parameter == -math.inf


def nan_band(kind):
    """The minimum (norm) or the probabilistic sum (conorm), except NaN
    wherever an argument lies in (0.3, 0.4)."""
    base = np.minimum if kind is Kind.NORM else (lambda x, y: x + y - x * y)

    def fn(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        band = ((0.3 < x) & (x < 0.4)) | ((0.3 < y) & (y < 0.4))
        return np.where(band, np.nan, base(x, y))

    return make_custom(fn, kind)


@pytest.mark.parametrize(
    "check, kind",
    [
        (check_norm_axioms, Kind.NORM),
        (check_norm_axioms, Kind.CONORM),
        (check_first_coordinate_continuity, Kind.NORM),
        (check_first_coordinate_continuity, Kind.CONORM),
        (check_strictly_increasing_first, Kind.NORM),
        (check_strictly_increasing_first, Kind.CONORM),
        (check_collapse_implies_absorption, Kind.CONORM),
        (check_strict_near_zero, Kind.CONORM),
    ],
)
def test_custom_nan_output_is_rejected(check, kind):
    # every comparison with NaN is False, so before the check these sweeps
    # passed as UNKNOWN
    with pytest.raises(ValueError, match=rf"^custom {kind.value} returned nan at \("):
        check(nan_band(kind))


def test_custom_nan_message_names_the_first_offending_pair():
    with pytest.raises(ValueError) as exc:
        check_norm_axioms(nan_band(Kind.NORM))
    assert str(exc.value) == "custom norm returned nan at (0.31, 1.0)"
    inf_op = make_custom(lambda x, y: np.where(np.asarray(y) == 0.5, np.inf, np.minimum(x, y)), Kind.NORM)
    with pytest.raises(ValueError, match=r"^custom norm returned inf at \(0\.0, 0\.5\)$"):
        check_first_coordinate_continuity(inf_op)
