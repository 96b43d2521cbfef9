import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzdec import (
    FuzzyRelation,
    RelationParseError,
    crisp_decompose,
    format_relation,
    is_asymmetric,
    is_crisp,
    is_reflexive,
    is_s_connected,
    is_symmetric,
    is_t_transitive,
    make_conorm,
    make_norm,
    parse_relation,
    relation_from_dict,
)


def rel(matrix, labels=None):
    m = np.asarray(matrix, dtype=float)
    labels = labels or tuple(f"x{k}" for k in range(m.shape[0]))
    return FuzzyRelation(tuple(labels), m)


def test_construction_validates():
    with pytest.raises(ValueError):
        rel([[0.5, 1.5], [0, 0]])
    with pytest.raises(ValueError):
        FuzzyRelation(("a", "a"), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        FuzzyRelation(("a", "b"), np.zeros((2, 3)))
    r = rel([[1, 0.5], [0.25, 1]])
    with pytest.raises(ValueError):
        r.degrees[0, 0] = 0.0  # matrices are frozen


def test_construction_names_a_nan_degree():
    with pytest.raises(ValueError, match="row 2, column 1"):
        rel([[1.0, 0.5], [np.nan, 1.0]])


def test_symmetry():
    assert is_symmetric(rel([[1, 0.5], [0.5, 1]]))
    assert not is_symmetric(rel([[1, 1], [0.5, 1]]))
    assert is_symmetric(rel(np.zeros((3, 3))))


def test_asymmetry():
    assert is_asymmetric(rel([[0, 1], [0, 0]]))
    assert not is_asymmetric(rel([[0, 0.5], [0.1, 0]]))
    assert is_asymmetric(rel(np.zeros((2, 2))))
    assert not is_asymmetric(rel([[0.2, 0], [0, 0]]))  # positive diagonal


def test_symmetric_and_asymmetric_only_for_zero():
    both = [
        R
        for R in (
            rel(np.zeros((2, 2))),
            rel([[0, 0.3], [0.3, 0]]),
            rel([[0, 0.3], [0, 0]]),
        )
        if is_symmetric(R) and is_asymmetric(R)
    ]
    assert len(both) == 1 and not both[0].degrees.any()


def test_transitivity():
    Tmin = make_norm("min")
    assert is_t_transitive(rel(np.full((3, 3), 0.4)), Tmin)
    bad = relation_from_dict(
        "xyz", {("x", "y"): 1, ("y", "z"): 1, ("x", "z"): 0.3}
    )
    assert not is_t_transitive(bad, Tmin)
    # crisp total preorder stays transitive under the product norm
    preorder = rel([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
    assert is_t_transitive(preorder, make_norm("product"))
    # oracle: exhaustive triple check of the same relation
    m = preorder.degrees
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert m[a, c] >= m[a, b] * m[b, c] - 1e-9


def test_connectedness():
    SL = make_conorm("lukasiewicz")
    assert is_s_connected(rel([[1, 0.6], [0.5, 1]]), SL)
    assert not is_s_connected(rel([[1, 0.6], [0.3, 1]]), make_conorm("max"))
    assert is_s_connected(rel([[1, 1], [0.2, 1]]), make_conorm("max"))


def test_crispness_and_reflexivity():
    assert is_crisp(rel(np.ones((2, 2))))
    assert not is_crisp(rel(np.full((2, 2), 0.5)))
    assert is_crisp(rel([[0, 1], [1, 0]]))
    assert is_reflexive(rel([[1, 0.2], [0.9, 1]]))


def test_crisp_decompose_examples():
    P, I = crisp_decompose(rel(np.ones((2, 2))))
    assert not P.degrees.any() and I.degrees.all()

    P, I = crisp_decompose(rel([[0, 1], [0, 0]]))
    assert P.degrees[0, 1] == 1.0 and P.degrees.sum() == 1.0
    assert not I.degrees.any()

    P, I = crisp_decompose(rel(np.eye(2)))
    assert not P.degrees.any()
    np.testing.assert_array_equal(I.degrees, np.eye(2))

    with pytest.raises(ValueError):
        crisp_decompose(rel([[0.5, 0], [0, 0]]))


def test_crisp_decompose_partition():
    # strict and symmetric parts partition the relation, exactly
    for bits in range(512):
        m = np.array([(bits >> k) & 1 for k in range(9)], dtype=float).reshape(3, 3)
        R = rel(m)
        P, I = crisp_decompose(R)
        assert is_asymmetric(P) and is_symmetric(I)
        np.testing.assert_array_equal(np.minimum(P.degrees, I.degrees), np.zeros((3, 3)))
        np.testing.assert_array_equal(np.maximum(P.degrees, I.degrees), m)


def test_file_round_trip():
    R = rel([[1.0, 1 / 3], [0.1234567890123456789, 0.0]], labels=("alpha", "beta"))
    text = format_relation(R)
    back = parse_relation(text)
    assert back.universe == R.universe
    np.testing.assert_array_equal(back.degrees, R.degrees)


EDGE_DEGREES = [0.0, 1.0, 5e-324, 1 - 2**-53, 0.1]


def reference_format(R):
    """The per-value writer the row-wise one must match byte for byte."""
    lines = ["fuzzrel v1", "universe " + " ".join(R.universe)]
    for row in R.degrees:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", ["continuous", "grid", "edge"])
def test_format_matches_per_value_reference(kind):
    rng = np.random.default_rng(7)
    if kind == "continuous":
        m = rng.random((9, 9))
    elif kind == "grid":
        m = rng.integers(0, 21, (9, 9)) / 20
    else:
        m = rng.choice(EDGE_DEGREES, (9, 9))
    R = rel(m)
    text = format_relation(R)
    assert text == reference_format(R)
    np.testing.assert_array_equal(parse_relation(text).degrees, R.degrees)


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.one_of(st.sampled_from(EDGE_DEGREES), st.floats(0.0, 1.0)),
            min_size=n * n,
            max_size=n * n,
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_round_trip_is_bit_identical(values):
    n = int(round(len(values) ** 0.5))
    R = rel(np.array(values).reshape(n, n))
    back = parse_relation(format_relation(R))
    assert back.degrees.tobytes() == R.degrees.tobytes()


@pytest.mark.parametrize(
    "cells, first",
    [
        ("0 boom 1.5 nan", "column 2: not a number: 'boom'"),
        ("0 1.5 boom nan", "column 2: degree 1.5 outside"),
        ("0 nan boom 1.5", "column 2: degree nan outside"),
        ("0 -0.25 nan boom", "column 2: degree -0.25 outside"),
        ("0 0.5 nan 1.5", "column 3: degree nan outside"),
        ("1 1.5 -1 0", "column 2: degree 1.5 outside"),
        ("0 0 0 inf", "column 4: degree inf outside"),
    ],
)
def test_parse_reports_first_offending_cell_in_row_major_order(cells, first):
    text = f"fuzzrel v1\nuniverse a b c d\n0 0 0 0\n{cells}\n0 nope 2 nan\n0 0 0 0\n"
    with pytest.raises(RelationParseError, match="row 2, " + first):
        parse_relation(text)


def test_parse_errors_identify_position():
    with pytest.raises(RelationParseError, match="header"):
        parse_relation("nope\nuniverse a\n0\n")
    with pytest.raises(RelationParseError, match="row 2, column 2"):
        parse_relation("fuzzrel v1\nuniverse a b\n0 0\n0 boom\n")
    with pytest.raises(RelationParseError, match="row 1"):
        parse_relation("fuzzrel v1\nuniverse a b\n0 0 0\n0 0\n")
    with pytest.raises(RelationParseError, match="outside"):
        parse_relation("fuzzrel v1\nuniverse a\n1.5\n")
    with pytest.raises(RelationParseError, match="2 matrix rows"):
        parse_relation("fuzzrel v1\nuniverse a b\n0 0\n")


def test_comments_and_blank_lines_ignored():
    text = "# comment\nfuzzrel v1\n\nuniverse a b  # trailing\n1 0.5\n0 1\n"
    R = parse_relation(text)
    assert R.value("a", "b") == 0.5
