from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzdec import (
    EPSILON,
    DecompositionError,
    FuzzyRelation,
    Kind,
    Verdict,
    bisection_residual,
    canonical_decompose,
    crisp_decompose,
    make_conorm,
    make_custom,
    make_norm,
    residual,
    residual_array,
    strong_decompose,
    verify_strong,
    verify_weak,
)
from fuzzdec import divisors
from fuzzdec.families import _least_addend
from oracles import enumerate_decompositions

CONTINUOUS_CONORMS = [
    ("minimum", None),
    ("lukasiewicz", None),
    ("product", None),
    ("schweizer_sklar", -1.0),
    ("schweizer_sklar", 0.5),
    ("schweizer_sklar", 2.0),
    ("hamacher", 0.0),
    ("hamacher", 2.0),
    ("ordinal_sum_lukasiewicz_half", None),
]


def two_rel(r_xy, r_yx, diag=1.0):
    return FuzzyRelation(("x", "y"), np.array([[diag, r_xy], [r_yx, diag]], dtype=float))


# ---------------------------------------------------------------------------
# residual


def test_residual_point_values():
    assert residual(make_conorm("max"), 0.5, 1.0) == 1.0
    assert residual(make_conorm("lukasiewicz"), 0.3, 0.8) == pytest.approx(0.5, abs=1e-12)
    assert residual(make_conorm("prob"), 0.5, 0.75) == pytest.approx(0.5, abs=1e-12)
    for family, lam in CONTINUOUS_CONORMS:
        S = make_conorm(family, lam)
        assert residual(S, 0.4, 0.4) == 0.0  # t = 0 always reconstructs i = r
        assert residual(S, 0.9, 0.2) == 0.0  # i > r likewise


def test_residual_is_attained_for_continuous_conorms():
    rng = np.random.default_rng(7)
    for family, lam in CONTINUOUS_CONORMS:
        S = make_conorm(family, lam)
        for _ in range(200):
            a, b = rng.uniform(size=2)
            i, r = min(a, b), max(a, b)
            res = residual(S, i, r)
            assert S(res, i) >= r - EPSILON
            assert abs(S(res, i) - r) <= 1e-9


def test_residual_unattained_for_drastic():
    S = make_conorm("drastic")
    res = residual(S, 0.3, 0.7)
    assert res == 0.0 and not S(res, 0.3) >= 0.7 - EPSILON


@pytest.mark.parametrize("lam", [1.5, 2.0, 3.0, 5.0, 10.0])
def test_schweizer_sklar_residual_reaches_one_exactly(lam):
    # for lambda > 1 the closed form alone misses S(P, i) = 1 on some (i, 1),
    # e.g. S(P, 0.85) = 0.99999998509 at lambda = 2
    S = make_conorm("schweizer_sklar", lam)
    i = np.unique(np.concatenate([np.arange(20) / 20, np.arange(1000) / 1000]))
    p = residual_array(S, i, np.ones_like(i))
    assert np.all(S(p, i) == 1.0)
    d = canonical_decompose(FuzzyRelation(("a", "b"), np.array([[1.0, 1.0], [0.85, 1.0]])), S)
    assert S(d.strict.value("a", "b"), 0.85) == 1.0


@pytest.mark.parametrize("lam", [0.05, 0.1, 0.2, 0.22])
def test_drastic_schweizer_sklar_strong_decompose_at_small_lambda(lam):
    # at lambda = 0.05 the closed-form residual at (0.65, 1) rounds to 1, and
    # T(1, 0.65) = 0.65 under the drastic norm
    T, S = make_norm("drastic"), make_conorm("schweizer_sklar", lam)
    R = FuzzyRelation(("a", "b"), np.array([[1.0, 1.0], [0.65, 1.0]]))
    d = strong_decompose(R, T, S)
    p = d.strict.value("a", "b")
    assert p < 1.0 and S(p, 0.65) == 1.0 and T(p, 0.65) == 0.0
    assert verify_strong(R, d, T).verdict is Verdict.HOLDS


@pytest.mark.parametrize("lam", [0.001, 0.05, 2.0, 3.0])
def test_corrected_residual_is_the_least_saturating_degree(lam):
    # where the closed form misses S(P, i) = 1 (lambda > 1) or rounds up to
    # 1 (lambda near 0), P is the least 1 - d (d a float) with S(P, i) = 1
    S = make_conorm("schweizer_sklar", lam)
    i = np.arange(1, 1000) / 1000
    A = 1.0 - (1.0 - i) ** lam
    closed = np.where(A <= 0.0, 1.0, 1.0 - A ** (1.0 / lam))
    p = residual_array(S, i, np.ones_like(i))
    searched = (S(closed, i) != 1.0) | (closed == 1.0)
    assert searched.any()
    assert np.all(S(p, i) == 1.0)
    assert np.all(p[~searched] == closed[~searched])
    assert np.all(S(p[searched] - 2.0 ** -53, i[searched]) != 1.0)


@pytest.mark.parametrize("family", ["minimum", "lukasiewicz", "ordinal_sum_lukasiewicz_half"])
def test_custom_copy_residual_is_the_records_least_float(family):
    # a custom copy bisects float bit patterns; where the record's residual
    # is the least float that reaches r, both agree bit for bit (a value
    # bisection gave 7.806255641895632e-18 at the second cell below, a
    # Lukasiewicz copy, where the least float is 6.93889390390723e-18)
    S = make_conorm(family)
    copy = make_custom(S.evaluator, Kind.CONORM)
    rng = np.random.default_rng(40)
    u, v = rng.random(20_000), rng.random(20_000)
    i = np.concatenate([np.minimum(u, v), u, [0.3, 0.08564916714362436]])
    r = np.concatenate([np.maximum(u, v), np.nextafter(u, 2.0), [0.3, 0.08564916714362437]])
    grid = np.arange(201) / 200
    for i, r in ((i, r), np.meshgrid(grid, grid, indexing="ij")):
        assert bisection_residual(copy, i, r).tobytes() == residual_array(S, i, r).tobytes()


def test_residual_minimality_against_bisection_oracle():
    rng = np.random.default_rng(42)
    for family, lam in CONTINUOUS_CONORMS:
        S = make_conorm(family, lam)
        for _ in range(100):
            a, b = rng.uniform(size=2)
            i, r = min(a, b), max(a, b)
            closed = residual(S, i, r)
            assert abs(closed - bisection_residual(S, i, r)) <= 1e-7


@given(
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
)
@example(i=0.0, r=5e-324)  # v/2 underflows to 0 at the smallest subnormal
@example(i=0.9999999999999999, r=1.0)  # i + v/2 rounds to r at one float below r
@settings(max_examples=80, deadline=None)
def test_residual_infimum_property(i, r):
    # nothing below the residual reconstructs; the residual itself does
    S = make_conorm("lukasiewicz")
    v = residual(S, i, r)
    assert S(v, i) >= r - 1e-9
    if v > 0:
        below = v - min(1e-6, v / 2) if v / 2 > 0 else 0.0
        assert below < v
        assert S(below, i) < r


@pytest.mark.parametrize("family", ["lukasiewicz", "ordinal_sum"])
def test_adding_residual_is_the_least_float_that_reconstructs(family):
    # r - i can lie above the least float whose sum with i rounds to r
    S = make_conorm(family)
    rng = np.random.default_rng(7)
    r = rng.uniform(0.0, 0.5, size=4000)
    r[:4] = [0.5, 0.25, 5e-324, 0.1]
    i = r * rng.uniform(size=r.size)
    i[: r.size // 2] = np.nextafter(r[: r.size // 2], 0.0)
    p = residual_array(S, i, r)
    assert (S(p, i) >= r).all()
    below = np.nextafter(p, 0.0)
    assert ((p == 0.0) | (S(below, i) < r)).all()
    assert (np.abs(p - (r - i)) <= np.spacing(r)).all()  # the closed form, to a float


def nextafter_least_addend(i, r):
    """The whole-block `np.nextafter` walk that `_least_addend` replaced: the
    oracle it must match bit for bit."""
    t = np.maximum((r - i) - 0.5 * (r - np.nextafter(r, 0.0)), 0.0)
    over = (t > 0.0) & (np.nextafter(t, 0.0) + i >= r)
    while over.any():
        t = np.where(over, np.nextafter(t, 0.0), t)
        over = (t > 0.0) & (np.nextafter(t, 0.0) + i >= r)
    short = t + i < r
    while short.any():
        t = np.where(short, np.nextafter(t, 1.0), t)
        short = t + i < r
    return t


EDGE_DEGREES = [-0.0, 0.0, 5e-324, 1e-300, 0.1, 0.5, 1 - 2**-53, 1.0]
unit_floats = st.one_of(st.sampled_from(EDGE_DEGREES), st.floats(0.0, 1.0))


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (got, want)


@given(
    st.lists(st.tuples(unit_floats, unit_floats, st.sampled_from([0, 1, 2])), min_size=1, max_size=8)
)
@settings(max_examples=300, deadline=None)
@example([(-0.0, -0.0, 0), (0.0, -0.0, 0), (-0.0, 5e-324, 0), (0.0, 5e-324, 0), (0.5, 1.0, 0)])
@example([(1 - 2**-53, 1.0, 0), (0.3, 1.0, 1), (0.25, 0.5, 2), (5e-324, 1e-300, 1)])
def test_least_addend_matches_the_nextafter_walk(cells):
    # each cell is (i, r, how): i as drawn, i one float below r, or i = r / 2
    i = np.array([c[0] for c in cells])
    r = np.array([c[1] for c in cells])
    how = np.array([c[2] for c in cells])
    i = np.where(how == 1, np.nextafter(r, -1.0), np.where(how == 2, r / 2, i))
    assert_same_bits(_least_addend(i, r), nextafter_least_addend(i, r))
    for a, b in zip(i, r):  # 0-d inputs
        assert_same_bits(_least_addend(np.float64(a), np.float64(b)), nextafter_least_addend(a, b))
    # broadcast shapes: a column of i against a row of r
    assert_same_bits(
        _least_addend(i[:, None], r[None, :]), nextafter_least_addend(i[:, None], r[None, :])
    )


# ---------------------------------------------------------------------------
# canonical decomposition


def test_showcase_two_element_decomposition():
    R = two_rel(1.0, 0.5)
    d = canonical_decompose(R, make_conorm("max"))
    assert d.strict.value("x", "y") == 1.0
    assert d.strict.value("y", "x") == 0.0
    assert d.indifference.value("x", "y") == 0.5
    assert verify_weak(R, d).verdict is Verdict.HOLDS
    # the same pair under the probabilistic sum pushes the residual to 1
    d2 = canonical_decompose(R, make_conorm("prob"))
    assert d2.strict.value("x", "y") == pytest.approx(1.0, abs=1e-12)


def test_ordinal_sum_symmetric_pair_has_zero_canonical_strict_part():
    R = two_rel(0.5, 0.5)
    d = canonical_decompose(R, make_conorm("ordinal_sum"))
    assert d.strict.value("x", "y") == 0.0
    # yet a different weak decomposition of the same relation places 0.5
    alt = FuzzyRelation(("x", "y"), np.array([[0.0, 0.5], [0.0, 0.0]]))
    from fuzzdec import Decomposition

    d_alt = Decomposition(alt, d.indifference, make_conorm("ordinal_sum"))
    assert verify_weak(R, d_alt).verdict is Verdict.HOLDS


def test_canonical_refuses_discontinuous_conorms():
    with pytest.raises(DecompositionError):
        canonical_decompose(two_rel(0.8, 0.3), make_conorm("drastic"))


def test_indifference_is_pointwise_minimum():
    R = FuzzyRelation(tuple("abc"), np.array([[0, 0.7, 0.4], [0.2, 0, 0], [0.9, 0, 0]]))
    I = canonical_decompose(R, make_conorm("max")).indifference
    np.testing.assert_array_equal(I.degrees, np.minimum(R.degrees, R.degrees.T))


@pytest.mark.parametrize("family,lam", CONTINUOUS_CONORMS)
def test_reconstruction_on_random_relations(family, lam):
    S = make_conorm(family, lam)
    rng = np.random.default_rng(3)
    for _ in range(25):
        R = FuzzyRelation(("a", "b", "c"), rng.uniform(size=(3, 3)))
        d = canonical_decompose(R, S)
        recon = S.evaluator(d.strict.degrees, d.indifference.degrees)
        assert np.max(np.abs(recon - R.degrees)) <= 1e-9
        assert verify_weak(R, d).verdict is Verdict.HOLDS


# ---------------------------------------------------------------------------
# verification


def test_verify_strong_rejects_overlapping_parts():
    R = two_rel(1.0, 0.5)
    d = canonical_decompose(R, make_conorm("max"))
    for T in (make_norm("min"), make_norm("product"), make_norm("lukasiewicz"), make_norm("drastic")):
        v = verify_strong(R, d, T)
        assert v.verdict is Verdict.FAILS
        assert T(1.0, 0.5) == 0.5  # the failing overlap the witness reports


def test_verify_strong_accepts_crisp_split():
    R = two_rel(1.0, 0.0)
    P, I = crisp_decompose(R)
    from fuzzdec import Decomposition

    d = Decomposition(P, I, make_conorm("max"), make_norm("min"))
    assert verify_strong(R, d, make_norm("min")).verdict is Verdict.HOLDS


def test_verify_strong_lukasiewicz_numeric_case():
    R = two_rel(0.8, 0.3)
    d = strong_decompose(R, make_norm("lukasiewicz"), make_conorm("lukasiewicz"))
    assert d.strict.value("x", "y") == pytest.approx(0.5, abs=1e-12)
    assert make_conorm("lukasiewicz")(0.5, 0.3) == pytest.approx(0.8, abs=1e-12)
    assert make_norm("lukasiewicz")(0.5, 0.3) == 0.0


def test_verify_weak_flags_unit_indifference_with_positive_strict():
    R = two_rel(1.0, 1.0)
    P = FuzzyRelation(("x", "y"), np.array([[0.0, 0.5], [0.0, 0.0]]))
    I = FuzzyRelation(("x", "y"), np.ones((2, 2)))
    from fuzzdec import Decomposition

    d = Decomposition(P, I, make_conorm("max"))
    v = verify_weak(R, d)
    assert v.verdict is Verdict.FAILS and "I = 1" in v.detail

    zero = FuzzyRelation(("x", "y"), np.zeros((2, 2)))
    d0 = Decomposition(zero, zero, make_conorm("max"))
    assert verify_weak(FuzzyRelation(("x", "y"), np.zeros((2, 2))), d0).verdict is Verdict.HOLDS


# ---------------------------------------------------------------------------
# strong decomposition


def test_strong_decompose_cases():
    d = strong_decompose(two_rel(1.0, 0.4), make_norm("lukasiewicz"), make_conorm("lukasiewicz"))
    assert d.strict.value("x", "y") == pytest.approx(0.6, abs=1e-12)
    assert make_norm("lukasiewicz")(0.6, 0.4) == 0.0

    d = strong_decompose(two_rel(0.9, 0.2), make_norm("drastic"), make_conorm("lukasiewicz"))
    assert d.strict.value("x", "y") == pytest.approx(0.7, abs=1e-12)
    assert make_norm("drastic")(0.7, 0.2) == 0.0

    with pytest.raises(DecompositionError):
        strong_decompose(two_rel(1.0, 0.5), make_norm("min"), make_conorm("max"))


def counting(op, cells):
    """``op`` with an evaluator that adds the size of each call to ``cells``."""
    evaluate = op.evaluator
    return replace(op, evaluator=lambda x, y: cells.append(np.broadcast(x, y).size) or evaluate(x, y))


@pytest.mark.parametrize("strong", [False, True], ids=["weak", "strong"])
def test_a_decomposition_evaluates_each_operator_on_every_cell_once(strong):
    n = 30
    m = np.random.default_rng(4).integers(0, 21, size=(n, n)) / 20
    np.fill_diagonal(m, 1.0)
    R = FuzzyRelation(tuple(f"x{k}" for k in range(n)), m)
    s_cells, t_cells = [], []
    S, T = counting(make_conorm("lukasiewicz"), s_cells), counting(make_norm("lukasiewicz"), t_cells)
    d = strong_decompose(R, T, S) if strong else canonical_decompose(R, S)
    # the one pass over S(P, I) is the verifier's, whose verdict d carries
    assert sum(s_cells) == n * n
    assert sum(t_cells) == (n * n if strong else 0)
    assert str(d.verification) == f"HOLDS -- {'strong' if strong else 'weak'} decomposition verified"


def test_strong_decompose_checks_continuity_once(monkeypatch):
    calls = []
    check = divisors.check_first_coordinate_continuity
    monkeypatch.setattr(divisors, "check_first_coordinate_continuity", lambda op: calls.append(op) or check(op))
    d = strong_decompose(two_rel(0.9, 0.2), make_norm("drastic"), make_conorm("lukasiewicz"))
    assert calls == [make_conorm("lukasiewicz")]
    assert d.verification.verdict is Verdict.HOLDS


def test_strong_decompose_degenerates_on_crisp_input():
    R = two_rel(1.0, 0.0)
    d = strong_decompose(R, make_norm("lukasiewicz"), make_conorm("lukasiewicz"))
    P, I = crisp_decompose(R)
    np.testing.assert_array_equal(d.strict.degrees, P.degrees)
    np.testing.assert_array_equal(d.indifference.degrees, I.degrees)


# ---------------------------------------------------------------------------
# enumeration oracle


def test_enumeration_probabilistic_unique():
    ds = enumerate_decompositions(two_rel(0.75, 0.5), make_conorm("prob"), grid_step=0.01)
    assert len(ds) == 1
    assert ds[0].strict.value("x", "y") == pytest.approx(0.5, abs=1e-9)


def test_enumeration_maximum_asymmetric_pair_unique():
    ds = enumerate_decompositions(two_rel(0.75, 0.5), make_conorm("max"), grid_step=0.01)
    assert len(ds) == 1
    assert ds[0].strict.value("x", "y") == pytest.approx(0.75, abs=1e-12)


def test_enumeration_maximum_symmetric_pair_collapses_below():
    # a symmetric sub-unit pair admits many weak decompositions under max
    ds = enumerate_decompositions(two_rel(0.5, 0.5), make_conorm("max"), grid_step=0.05)
    p_values = sorted(d.strict.value("x", "y") for d in ds)
    assert len(ds) == 21  # (0,0), ten (p,0) and ten (0,q)
    assert p_values[-1] == 0.5


def test_enumeration_lukasiewicz_interval_of_candidates():
    ds = enumerate_decompositions(two_rel(1.0, 0.5), make_conorm("lukasiewicz"), grid_step=0.01)
    p_values = sorted(d.strict.value("x", "y") for d in ds)
    assert len(ds) == 51
    assert p_values[0] == pytest.approx(0.5) and p_values[-1] == 1.0


def test_enumeration_minimality_of_canonical():
    S = make_conorm("lukasiewicz")
    R = two_rel(1.0, 0.5)
    canonical = canonical_decompose(R, S)
    found = enumerate_decompositions(R, S, grid_step=0.01)
    for d in found:
        assert d.strict.value("x", "y") >= canonical.strict.value("x", "y") - 0.01 - 1e-9


def test_enumeration_search_mode_forces_minimum_indifference():
    for family in ("minimum", "lukasiewicz", "product"):
        S = make_conorm(family)
        R = two_rel(0.75, 0.5)
        ds = enumerate_decompositions(R, S, grid_step=0.05, search_indifference=True)
        assert ds, family
        for d in ds:
            np.testing.assert_array_equal(
                d.indifference.degrees, np.minimum(R.degrees, R.degrees.T)
            )


def test_enumeration_uniqueness_matches_strictness():
    # strictly increasing conorms admit exactly one weak decomposition; use
    # a relation whose residuals land on the grid so the oracle can see it
    # (0.8 over 0.5 has residual 0.5 under the probabilistic sum, 0.5 under
    # Hamacher(2) via 0.3/0.6, 0.75 under Schweizer-Sklar(-1))
    R = FuzzyRelation(tuple("abc"), np.array([[1, 0.8, 1.0], [0.5, 1, 0.5], [0.5, 0.5, 1]]))
    for S in (
        make_conorm("prob"),
        make_conorm("hamacher", 2.0),
        make_conorm("schweizer_sklar", -1.0),
    ):
        ds = enumerate_decompositions(R, S, grid_step=0.05)
        assert len(ds) == 1, S.display_name
        canonical = canonical_decompose(R, S)
        np.testing.assert_allclose(
            ds[0].strict.degrees, canonical.strict.degrees, atol=1e-9
        )
    # and the non-strict ones genuinely branch
    assert len(enumerate_decompositions(two_rel(1.0, 0.5), make_conorm("lukasiewicz"), grid_step=0.05)) > 1
    assert len(enumerate_decompositions(two_rel(0.5, 0.5), make_conorm("max"), grid_step=0.05)) > 1


def test_enumeration_empty_when_residual_off_grid():
    # the unique strict value 0.35/0.8 = 0.4375 misses the 1/20 grid; the
    # oracle honestly reports nothing rather than a rounded imposter
    R = two_rel(0.55, 0.2)
    assert enumerate_decompositions(R, make_conorm("prob"), grid_step=0.05) == []
    assert canonical_decompose(R, make_conorm("prob")).strict.value("x", "y") == pytest.approx(
        0.4375
    )


def test_enumeration_strong_filter():
    ds = enumerate_decompositions(
        two_rel(1.0, 0.5),
        make_conorm("lukasiewicz"),
        T=make_norm("lukasiewicz"),
        grid_step=0.05,
    )
    assert len(ds) == 1
    assert ds[0].strict.value("x", "y") == pytest.approx(0.5)


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_decompositions(two_rel(1, 0), make_conorm("max"), grid_step=0.001)
    big = FuzzyRelation(tuple("abcde"), np.zeros((5, 5)))
    with pytest.raises(ValueError):
        enumerate_decompositions(big, make_conorm("max"))


# ---------------------------------------------------------------------------
# crisp degeneration


@pytest.mark.parametrize("family,lam", CONTINUOUS_CONORMS)
def test_crisp_degeneration_two_elements(family, lam):
    S = make_conorm(family, lam)
    for bits in range(16):
        m = np.array([(bits >> k) & 1 for k in range(4)], dtype=float).reshape(2, 2)
        R = FuzzyRelation(("x", "y"), m)
        d = canonical_decompose(R, S)
        P, I = crisp_decompose(R)
        np.testing.assert_array_equal(d.strict.degrees, P.degrees)
        np.testing.assert_array_equal(d.indifference.degrees, I.degrees)
