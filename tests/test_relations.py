import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzdec import verdicts
from fuzzdec import (
    EPSILON,
    FuzzyRelation,
    Kind,
    RelationParseError,
    crisp_decompose,
    format_relation,
    is_crisp,
    is_t_transitive,
    load_operator_table,
    load_relation,
    make_conorm,
    make_norm,
    parse_relation,
    save_relation,
)
from fuzzdec.relations import _term_bound, asymmetry_violation, symmetry_violation
from oracles import is_s_connected, spelling


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


@pytest.mark.parametrize("x, y", [("a", "z"), ("z", "b")])
def test_value_names_a_label_outside_the_universe(x, y):
    with pytest.raises(ValueError, match="label 'z' is not in the universe"):
        rel([[1, 0.5], [0.25, 1]], ("a", "b")).value(x, y)


def test_symmetry():
    assert symmetry_violation(rel([[1, 0.5], [0.5, 1]]).degrees) is None
    assert symmetry_violation(rel([[1, 1], [0.5, 1]]).degrees) is not None
    assert symmetry_violation(rel(np.zeros((3, 3))).degrees) is None


def test_asymmetry():
    assert asymmetry_violation(rel([[0, 1], [0, 0]]).degrees) is None
    assert asymmetry_violation(rel([[0, 0.5], [0.1, 0]]).degrees) is not None
    assert asymmetry_violation(rel(np.zeros((2, 2))).degrees) is None
    assert asymmetry_violation(rel([[0.2, 0], [0, 0]]).degrees) is not None  # positive diagonal


def test_symmetric_and_asymmetric_only_for_zero():
    both = [
        R
        for R in (
            rel(np.zeros((2, 2))),
            rel([[0, 0.3], [0.3, 0]]),
            rel([[0, 0.3], [0, 0]]),
        )
        if symmetry_violation(R.degrees) is None and asymmetry_violation(R.degrees) is None
    ]
    assert len(both) == 1 and not both[0].degrees.any()


def test_transitivity():
    Tmin = make_norm("min")
    assert is_t_transitive(rel(np.full((3, 3), 0.4)), Tmin)
    bad = rel([[0, 1, 0.3], [0, 0, 1], [0, 0, 0]])
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


def test_transitivity_stops_at_the_first_violating_pivot():
    # one evaluator call per pivot; the violation T(m(0,1), m(1,2)) > m(0,2) sits at pivot 1
    calls = []
    Tmin = make_norm("min")

    def counted(x, y):
        calls.append(x.shape)
        return Tmin.evaluator(x, y)

    T = dataclasses.replace(Tmin, evaluator=counted)
    m = np.full((64, 64), 0.5)
    m[0, 1] = m[1, 2] = 0.9
    m[0, 2] = 0.1
    assert not is_t_transitive(rel(m), T)
    assert len(calls) == 2
    calls.clear()
    m[0, 2] = 0.9
    assert is_t_transitive(rel(m), T)
    assert len(calls) == 64


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
    st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16),
)
# fl(m + EPSILON) steps down once at the first m and up once at the second
@example([0.12499999999999999, 2.0**-29, 0.0, 5e-324, 1.0], [0.5] * 16)
def test_the_term_bound_is_the_tolerant_comparison(degrees, terms):
    m = np.array(degrees)
    b = _term_bound(m)
    nan = np.full(m.shape, np.nan)
    for t in (np.nextafter(b, -1.0), b, np.nextafter(b, 2.0), m, np.array(terms[: m.size]), nan):
        assert np.array_equal(t <= b, m >= t - EPSILON)


def test_connectedness():
    SL = make_conorm("lukasiewicz")
    assert is_s_connected(rel([[1, 0.6], [0.5, 1]]), SL)
    assert not is_s_connected(rel([[1, 0.6], [0.3, 1]]), make_conorm("max"))
    assert is_s_connected(rel([[1, 1], [0.2, 1]]), make_conorm("max"))


def test_crispness():
    assert is_crisp(rel(np.ones((2, 2))))
    assert not is_crisp(rel(np.full((2, 2), 0.5)))
    assert is_crisp(rel([[0, 1], [1, 0]]))


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
        assert asymmetry_violation(P.degrees) is None and symmetry_violation(I.degrees) is None
        np.testing.assert_array_equal(np.minimum(P.degrees, I.degrees), np.zeros((3, 3)))
        np.testing.assert_array_equal(np.maximum(P.degrees, I.degrees), m)


def test_file_round_trip():
    R = rel([[1.0, 1 / 3], [0.1234567890123456789, 0.0]], labels=("alpha", "beta"))
    text = format_relation(R)
    back = parse_relation(text)
    assert back.universe == R.universe
    np.testing.assert_array_equal(back.degrees, R.degrees)


@pytest.mark.parametrize("step", [2, -1])
def test_format_relation_refuses_a_row_slice_with_another_step(step):
    # the texts of slices join to the file only where each takes every row
    R = rel(np.eye(3))
    with pytest.raises(ValueError, match=f"step 1, got step {step}$"):
        format_relation(R, slice(0, None, step) if step > 0 else slice(None, None, step))
    assert format_relation(R, slice(0, None, 1)) == format_relation(R)


@pytest.mark.parametrize("label", ["", "a b", "a#x", "a\nb", "x\xa0"])
def test_a_label_the_universe_line_cannot_carry_is_refused(tmp_path, label):
    # each would read back as other labels, a short row or a duplicate
    R = rel(np.eye(3), labels=("x", label, "c"))
    with pytest.raises(ValueError, match=re.escape(repr(label))):
        format_relation(R)
    path = tmp_path / "r.rel"
    with pytest.raises(ValueError, match=re.escape(repr(label))):
        save_relation(R, path)
    assert not path.exists()
    # the rows after the first carry no universe line
    assert format_relation(R, slice(1, None)) == "0 1 0\n0 0 1\n"


def test_valid_labels_round_trip_bit_identically(tmp_path):
    R = rel(np.random.default_rng(5).random((4, 4)), labels=("a", "é", "x-1", "Ω_2"))
    path = tmp_path / "r.rel"
    save_relation(R, path)
    back = load_relation(path)
    assert back.universe == R.universe and back.degrees.tobytes() == R.degrees.tobytes()


EDGE_DEGREES = [0.0, 1.0, 5e-324, 1 - 2**-53, 0.1]


def reference_format(R):
    """The per-value writer the row-wise one must match byte for byte."""
    lines = ["fuzzrel v1", "universe " + " ".join(R.universe)]
    for row in R.degrees:
        lines.append(" ".join(map(spelling, row)))
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


def reference_parse(text):
    """The per-token reader that parsing must match bit for bit."""
    rows = text.splitlines()[2:]
    return np.array([[float(token) for token in row.split()] for row in rows])


def codec_matrix(n, kinds, seed, specials):
    """An n x n matrix whose row r is of kind ``kinds[r % len(kinds)]``:
    ``grid`` (the 1/20 grid), ``fine`` (zeros in its first n//2 + 1 cells and
    fresh values of the 1/10**6 grid after them, so it repeats values and
    yet adds new ones) or ``continuous``; ``specials`` then sets single
    cells, given as (flat index mod n*n, value)."""
    rng = np.random.default_rng(seed)
    m = np.empty((n, n))
    for r in range(n):
        kind = kinds[r % len(kinds)]
        if kind == "grid":
            m[r] = rng.integers(0, 21, n) / 20
        elif kind == "fine":
            m[r] = rng.integers(0, 10**6 + 1, n) / 10**6
            m[r, : n // 2 + 1] = 0.0
        else:
            m[r] = rng.random(n)
    for k, v in specials:
        m.flat[k % (n * n)] = v
    return m


SPECIAL_DEGREES = [-0.0, 5e-324, 2.2250738585072009e-308, 1 - 2**-53, 1.0]


@given(
    st.integers(1, 120),
    st.lists(st.sampled_from(["grid", "fine", "continuous"]), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 14400), st.sampled_from(SPECIAL_DEGREES)), max_size=4),
)
@example(150, ["fine"], 0, [])  # more than 4,096 distinct values while rows mostly repeat
@example(100, ["grid"] * 50 + ["continuous"] * 50, 1, [])  # the memo switches off at row 51
@example(100, ["continuous"] * 50 + ["grid"] * 50, 2, [])
@example(100, ["grid"], 3, [(5050, -0.0), (7, 5e-324), (8, 1 - 2**-53)])
@settings(max_examples=60, deadline=None)
def test_memoised_codec_matches_per_cell_references(n, kinds, seed, specials):
    m = codec_matrix(n, kinds, seed, specials)
    R = rel(m)
    text = format_relation(R)
    assert text == reference_format(R)
    parsed = parse_relation(text).degrees
    assert parsed.tobytes() == reference_parse(text).tobytes() == m.tobytes()


def test_save_relation_streams_the_formatted_text(tmp_path):
    n = 1000
    rng = np.random.default_rng(3)
    for m in (rng.integers(0, 21, (n, n)) / 20, rng.random((n, n))):
        R = rel(m)
        path = tmp_path / "r.rel"
        tracemalloc.start()
        try:
            save_relation(R, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one row (its floats, texts and encoded line, generously) plus a
        # full memo (keys, texts and table slots), against ~20 MB of text
        assert peak < 200 * n + 150 * 4096, peak
        assert path.read_text(encoding="utf-8") == format_relation(R)
        assert load_relation(path).degrees.tobytes() == R.degrees.tobytes()


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
        ("0 0.0_5 1.5 nan", "column 2: not a number: '0.0_5'"),
        ("0 1.5 0.0_5 nan", "column 2: degree 1.5 outside"),
        ("0 0.5 \uff10.\uff15 1.5", "column 3: not a number: '\uff10.\uff15'"),
        ("0 0.5 1_0 \uff10", "column 3: not a number: '1_0'"),
    ],
)
def test_parse_reports_first_offending_cell_in_row_major_order(cells, first):
    text = f"fuzzrel v1\nuniverse a b c d\n0 0 0 0\n{cells}\n0 nope 2 nan\n0 0 0 0\n"
    with pytest.raises(RelationParseError, match="row 2, " + first):
        parse_relation(text)


def single_token(tok):
    return "#" not in tok and tok.split() == [tok] and tok.splitlines() == [tok]


DEGREE_TOKENS = st.one_of(
    st.text(max_size=8),
    st.from_regex(r"[+-]?[0-9_]{0,4}\.?[0-9_]{0,4}([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    st.floats(allow_nan=True).map(repr),
    st.sampled_from(
        ["0_1", "１", "０.５", "1e-320", "-0", "+.5", "5.", "infinity", "-nan", "0x1p-1", "1e", "1d0", "1j"]
    ),
).filter(single_token)


@given(DEGREE_TOKENS)
@settings(max_examples=400, deadline=None)
def test_a_cell_reads_as_its_ascii_float_without_underscores(tok):
    """The reader's grammar: Python's float() on ASCII without '_', bit for bit."""
    try:
        expected = float(tok) if tok.isascii() and "_" not in tok else None
    except ValueError:
        expected = None
    text = f"fuzzrel v1\nuniverse a\n{tok}\n"
    if expected is not None and 0.0 <= expected <= 1.0:
        parsed = parse_relation(text).degrees
        assert parsed.tobytes() == np.float64(expected).tobytes()
    else:
        problem = "not a number: " + repr(tok) if expected is None else f"degree {expected!r} outside"
        with pytest.raises(RelationParseError, match=re.escape("line 3: row 1, column 1: " + problem)):
            parse_relation(text)


@pytest.mark.parametrize("sep", ["\t", "\x1f", "\xa0", "　"])
def test_cells_split_on_the_whitespace_of_str_split(sep):
    row = sep.join(["0.25", "1", "0"])
    R = parse_relation(f"fuzzrel v1\nuniverse a b c\n{row}\n1 1 1\n0 0 0\n")
    assert R.degrees[0].tolist() == [0.25, 1.0, 0.0]
    with pytest.raises(RelationParseError, match="line 3: row 1 has 3 entries, expected 2"):
        parse_relation(f"fuzzrel v1\nuniverse a b\n{row}\n1 1\n")


@pytest.mark.parametrize(
    "bad",
    [
        [(0, -1, "2"), (1, 0, "x")],  # the last cell before a block boundary and the first after it
        [(1, 0, "x"), (1, 5, "2")],
        [(1, 7, "nan"), (1, 8, "x"), (2, 0, "x")],
    ],
)
def test_first_bad_cell_is_named_across_a_block_boundary(bad):
    n = 300
    rows = verdicts._BLOCK_CELLS // n  # rows per block: rows - 1 and rows straddle the first boundary
    cells = np.full((n, n), "0.5", dtype=object)
    for dr, c, value in bad:
        cells[rows - 1 + dr, c % n] = value
    lines, where = ["# head", "", "fuzzrel v1", "universe " + " ".join(f"x{k}" for k in range(n))], {}
    for r in range(n):
        if r % 7 == 3:
            lines += ["   # a comment", ""]
        lines.append(" ".join(cells[r]) + ("  # trailing" if r % 5 == 0 else ""))
        where[r] = len(lines)
    dr, c, value = bad[0]
    r, c = rows - 1 + dr, c % n
    problem = "not a number: 'x'" if value == "x" else f"degree {float(value)!r} outside [0,1]"
    message = f"line {where[r]}: row {r + 1}, column {c + 1}: {problem}"
    for source in ("\n".join(lines), iter(lines)):
        with pytest.raises(RelationParseError, match=re.escape(message) + "$"):
            parse_relation(source)


def test_a_block_rejected_without_a_bad_cell_is_not_returned(monkeypatch):
    # a reader that refuses every block of two or more lines: the walk finds
    # no bad cell, so the block raises rather than leaving its rows unread
    # (tabs leave the block to np.loadtxt: the short-token table reads only
    # tokens one space apart)
    loadtxt = np.loadtxt

    def one_line_reader(lines, **kw):
        if len(lines) > 1:
            raise ValueError("refused")
        return loadtxt(lines, **kw)

    monkeypatch.setattr(np, "loadtxt", one_line_reader)
    with pytest.raises(RelationParseError, match=r"^line 3: rows 1 to 2 do not read as a matrix$"):
        parse_relation("fuzzrel v1\nuniverse a b\n0\t1\n1\t0\n")
    assert parse_relation("fuzzrel v1\nuniverse a\n0.5\n").degrees.tolist() == [[0.5]]


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


@pytest.mark.parametrize(
    "text",
    [
        "# c\r\nfuzzrel v1\r\n\r\nuniverse a b  # t\r\n1 0.5\r\n0 1\r\n",
        "fuzzrel v1\runiverse a b\r1 0.5\x0c0 1",
    ],
)
def test_lines_and_files_parse_like_the_text(tmp_path, text):
    path = tmp_path / "r.rel"
    path.write_bytes(text.encode("utf-8"))
    expected = parse_relation(text)
    assert expected.value("a", "b") == 0.5
    for R in (
        parse_relation(text.splitlines(keepends=True)),
        parse_relation(iter(text.splitlines())),
        load_relation(path),
    ):
        assert R.universe == expected.universe
        assert R.degrees.tobytes() == expected.degrees.tobytes()


def test_streamed_errors_match_the_text(tmp_path):
    text = "fuzzrel v1\r\nuniverse a b\r\n0 0\x0c0 boom\n"
    path = tmp_path / "bad.rel"
    path.write_bytes(text.encode("utf-8"))
    for source in (text, iter(text.splitlines())):
        with pytest.raises(RelationParseError, match="line 4: row 2, column 2: not a number") as parsed:
            parse_relation(source)
    # the loader puts the path in front of the parser's own message
    with pytest.raises(RelationParseError) as loaded:
        load_relation(path)
    assert str(loaded.value) == f"{path}: {parsed.value}"
    # errors come in line order: a bad row before the count, rows past the
    # n-th are counted however they arrive
    head = ["fuzzrel v1", "universe a b"]
    for rows, message in (
        (["0 boom", "0 0", "0 0"], "line 3: row 1, column 2: not a number"),
        (["0 0", "0 0", "0 boom"], "expected 2 matrix rows, found 3"),
    ):
        for source in ("\n".join(head + rows), iter(head + rows)):
            with pytest.raises(RelationParseError, match=message):
                parse_relation(source)


def test_public_construction_copies_and_parsed_matrices_are_frozen():
    m = np.array([[1.0, 0.5], [0.25, 1.0]])
    R = FuzzyRelation(("a", "b"), m)
    m[0, 1] = 0.0
    assert R.value("a", "b") == 0.5
    parsed = parse_relation(format_relation(R))
    assert not parsed.degrees.flags.writeable
    assert parsed.degrees.tobytes() == R.degrees.tobytes()


RELATION_TOKENS = st.sampled_from(
    ["0", "1", "0.5", "1e-320", "-0.0", "2", "-1", "nan", "inf", "x", "#", "universe", "fuzzrel v1", "a", "a#b"]
)


@given(
    st.one_of(
        st.builds(
            lambda header, labels, rows: "\n".join(
                [header, "universe " + " ".join(labels)] + [" ".join(row) for row in rows]
            ),
            st.sampled_from(["fuzzrel v1", "fuzzrel v2", "", "# c"]),
            st.lists(st.sampled_from(["a", "b", "c", "a", "#", "1"]), max_size=4),
            st.lists(st.lists(RELATION_TOKENS, max_size=4), max_size=5),
        ),
        st.text(max_size=80),
    )
)
@settings(max_examples=200, deadline=None)
def test_fuzzed_relation_text_parses_or_raises_a_parse_error(text):
    try:
        R = parse_relation(text)
    except ValueError:  # RelationParseError, or FuzzyRelation's own check
        return
    assert R.degrees.shape == (R.size, R.size)
    assert np.all((R.degrees >= 0.0) & (R.degrees <= 1.0))


@pytest.mark.parametrize(
    "body, problem",
    [
        (b"", "empty operator table"),
        (b"fuzzop v1\ngrid 1\n0 0\n", "expected 2 matrix rows, found 1"),
        (b"fuzzop v1\ngrid 1\n0 0\n0 \xe9\n", "line 4: byte 3 (0xe9) is not UTF-8 text"),
    ],
)
def test_operator_table_errors_start_with_the_path(tmp_path, body, problem):
    path = tmp_path / "bad.op"
    path.write_bytes(body)
    with pytest.raises(RelationParseError) as exc:
        load_operator_table(path, Kind.NORM)
    assert str(exc.value) == f"{path}: {problem}"


def test_readme_file_examples_load(tmp_path):
    # every fenced relation file and operator table of the README loads
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(fuzz(?:rel|op) v1\n.*?)^```", readme, flags=re.S | re.M)
    assert {text.split()[0] for text in blocks} == {"fuzzrel", "fuzzop"}
    for k, text in enumerate(blocks):
        path = tmp_path / f"example{k}"
        path.write_text(text, encoding="utf-8")
        if text.startswith("fuzzrel"):
            assert load_relation(path).size >= 1
        else:
            op = load_operator_table(path, Kind.CONORM)
            assert op(0.0, 0.5) == 0.5 and op(1.0, 0.5) == 1.0
