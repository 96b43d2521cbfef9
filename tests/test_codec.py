"""The relation text codec against the per-value conversions it replaces.

The writer must print every degree exactly as ``oracles.spelling`` does
(``repr`` for the float of a decimal of at most 6 places, ``"%.17g"``
otherwise and for 0, -0 and 1); the reader must read every token exactly as
``float(token)``.  Both are checked on random bit patterns, on named edges
(powers of ten and their neighbours, exact ties at the 18th digit, every
six-place decimal and the floats beside it, tokens next to a rounding
midpoint) and through the public ``format_relation`` / ``parse_relation``.
"""

import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzdec import relations, verdicts
from fuzzdec.operators import _number
from fuzzdec.relations import (
    FuzzyRelation,
    RelationParseError,
    format_relation,
    load_relation,
    parse_relation,
    save_relation,
    write_relation,
)
from oracles import spelling

ONE_BITS = 0x3FF0000000000000  # the bit pattern of 1.0: patterns up to it are the floats in [0, 1]
KERNEL_BITS = int(np.float64(1e-3).view(np.uint64))  # the least degree the digit kernel writes


def unit_floats(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


def reference_lines(m):
    return "".join(" ".join(map(spelling, row)) + "\n" for row in np.atleast_2d(m).tolist())


def neighbours(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)]


def ties():
    """Floats j / 2**m in [1e-3, 1) with exactly 18 significant digits, the
    last a 5: rounding them to 17 digits is an exact tie."""
    out = []
    for m, lo, hi in ((18, 26215, 262143), (19, 5243, 52428), (20, 1049, 10485)):
        out += [j / 2**m for j in range(lo | 1, hi, 2 * 211)]
    for x in out:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    return out


def cut_edges():
    """For each leading-zero count z < 3 and trailing-zero count t <= 16 of
    the writer's 17 digits, a degree written "0." + z zeros + 17 - t digits
    (the first and last not 0), found by a seeded search."""
    rng = np.random.default_rng(37)
    out = []
    for z in range(3):
        for t in range(17):
            while True:
                digits = str(rng.integers(10 ** (16 - t), 10 ** (17 - t)))
                text = "0." + "0" * z + digits
                if digits[-1] != "0" and spelling(float(text)) == text:
                    out.append(float(text))
                    break
    return out


EDGES = sorted(
    {float(v) for x in (1e-3, 1e-4, 1e-2, 0.1, 0.5, 1.0) for v in neighbours(x)}
    | {0.0, 0.99999999999999989, 1 - 2**-53, 5e-324, 2.2250738585072014e-308, 0.1, 1e-3}
)


def format_both_ways(values):
    """The writer's text of ``values`` as one row, through the per-cell
    kernel, and of four copies of that row through a distinct-value table,
    which formats each distinct value once (while there are at most
    ``_DISTINCT_CAP`` of them)."""
    x = np.asarray(values, dtype=float)
    once = relations._format_rows(x.reshape(1, -1))
    table = relations._Distinct(relations._cells_of_bits)
    repeated = relations._format_rows(np.tile(x, 4).reshape(4, -1), table)
    distinct = np.unique(x.view(np.uint64)).size
    if distinct <= 64:  # a collision no multiplier resolves is then most unlikely
        assert table.holding
    if distinct > relations._DISTINCT_CAP:
        assert not table.holding
    return once, repeated


# most cells 0.0, whose cell the writer fixes without counting trailing zeros,
# between the edges, the ties and -0.0
ZERO_HEAVY = [v for x in (*EDGES, *ties()[::7], -0.0) for v in (0.0, x, 0.0)]


@pytest.mark.parametrize("values", [EDGES, [-0.0] + EDGES, ties(), ZERO_HEAVY, cut_edges()],
                         ids=["edges", "negative-zero", "ties", "zero-heavy", "trailing-zeros"])
def test_writer_prints_named_edges_as_percent_17g(values):
    once, repeated = format_both_ways(values)
    assert once == reference_lines(values)
    assert repeated == reference_lines(np.tile(values, 4).reshape(4, -1))


def test_ties_round_both_ways():
    # half to even rounds a tie down after an even 17th digit and up after
    # an odd one: the ties hold both, so rounding half up or down misprints
    assert {Decimal(x).as_tuple().digits[16] % 2 for x in ties()} == {0, 1}


@given(st.lists(st.integers(0, ONE_BITS), min_size=1, max_size=300))
@settings(max_examples=300, deadline=None)
def test_writer_prints_random_bit_patterns_as_percent_17g(bits):
    values = unit_floats(bits)
    once, repeated = format_both_ways(values)
    assert once == reference_lines(values)
    assert repeated == reference_lines(np.tile(values, 4).reshape(4, -1))


@given(st.lists(st.integers(KERNEL_BITS, ONE_BITS), min_size=1, max_size=300))
@settings(max_examples=300, deadline=None)
def test_writer_prints_bit_patterns_of_the_kernel_range_as_percent_17g(bits):
    values = unit_floats(bits)
    assert format_both_ways(values)[0] == reference_lines(values)


def test_every_six_place_decimal_is_written_as_repr():
    # int / 10**6 rounds correctly, so these are the floats of the decimals
    decimals = np.arange(1000, 10**6) / 10**6
    for lo in range(0, decimals.size, 1 << 16):
        x = decimals[lo:lo + (1 << 16)]
        assert relations._spellings(x) == [repr(v) for v in x.tolist()]
        for beside in (np.nextafter(x, 0.0), np.nextafter(x, 1.0)):
            assert relations._spellings(beside) == ["%.17g" % v for v in beside.tolist()]


def test_random_bit_patterns_round_trip_bit_exactly():
    # patterns over all of [0, 1], over the kernel's range, and six-place
    # decimals with the floats beside them, a few cells 0 and 1 among them,
    # each through the per-cell kernel and through the distinct-value table
    # (one value in 200)
    rng = np.random.default_rng(36)
    decimals = rng.integers(0, 10**6 + 1, 1500) / 10**6
    m = np.concatenate([
        unit_floats(rng.integers(0, ONE_BITS + 1, 2750)),
        unit_floats(rng.integers(KERNEL_BITS, ONE_BITS + 1, 2750)),
        decimals, np.nextafter(decimals, 0.0), np.nextafter(decimals, 1.0),
    ])
    m[::97], m[1::89] = 0.0, 1.0
    for m in (m.reshape(100, 100), m[::200][rng.integers(0, 50, (100, 100))]):
        text = format_relation(FuzzyRelation(tuple(f"x{k}" for k in range(100)), m))
        assert parse_relation(text).degrees.tobytes() == m.tobytes()


def test_saved_grid_relations_are_read_by_the_short_token_path(blocks, monkeypatch, tmp_path):
    n = 300
    R = FuzzyRelation(tuple(f"x{k}" for k in range(n)), np.random.default_rng(15).integers(0, 21, (n, n)) / 20)
    save_relation(R, tmp_path / "r.rel")
    read_short, taken = relations._read_short, []

    def recording(lines, cols, table):
        taken.append(read_short(lines, cols, table))
        return taken[-1]

    def refuse(*args, **kwargs):
        raise AssertionError("a block of the file left the short-token path")

    monkeypatch.setattr(relations, "_read_short", recording)
    monkeypatch.setattr(relations, "_read_decimals", refuse)
    monkeypatch.setattr(np, "loadtxt", refuse)
    assert load_relation(tmp_path / "r.rel").degrees.tobytes() == R.degrees.tobytes()
    assert len(taken) == len(list(verdicts._row_blocks(n, n))) and all(t is not None for t in taken)


def test_row_slices_join_to_the_whole_text(tmp_path):
    rng = np.random.default_rng(4)
    for n in (1, 2, 63, 64, 65, 130):
        R = FuzzyRelation(tuple(f"x{k}" for k in range(n)), rng.random((n, n)))
        whole = format_relation(R)
        writes = []
        write_relation(R, SimpleNamespace(write=writes.append))
        assert "".join(writes) == whole
        assert format_relation(R, slice(0, 1)) + format_relation(R, slice(1, None)) == whole
        # one write per text block of rows, the first with the header and universe lines
        rows = [text.count("\n") for text in writes]
        rows[0] -= 2
        assert sum(rows) == n and max(rows) <= max(1, relations._TEXT_CELLS // n)
    # an empty universe has no file text: the parser refuses "universe" alone
    empty = FuzzyRelation((), np.zeros((0, 0)))
    with pytest.raises(ValueError, match="empty universe"):
        format_relation(empty)
    with pytest.raises(ValueError, match="empty universe"):
        save_relation(empty, tmp_path / "empty.rel")
    with pytest.raises(ValueError, match="empty universe"):
        write_relation(empty, SimpleNamespace(write=writes.append))
    assert not (tmp_path / "empty.rel").exists()


# ---------------------------------------------------------------------------
# reader


def read_plain(tokens, cols=None):
    """The degrees of ``tokens`` read as one plain block by the integer path,
    which must accept it."""
    cols = cols or len(tokens)
    rows = [" ".join(tokens[k:k + cols]) for k in range(0, len(tokens), cols)]
    got = relations._decimals("\n".join(rows) + "\n", len(rows), cols)
    assert got is not None, "the block did not take the integer path"
    return got.ravel()


def assert_reads_as_float(tokens):
    got = read_plain(tokens)
    expected = np.array([float(t) for t in tokens])
    assert got.tobytes() == expected.tobytes(), [t for t, a, b in zip(tokens, got, expected) if a != b][:5]


# one per token pads any block past the integer path's 10 bytes a token
LONG = "0.12345678901234567"


@given(st.lists(st.integers(KERNEL_BITS, ONE_BITS), min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_reader_reads_written_texts_as_float(bits):
    values = unit_floats(bits)
    assert_reads_as_float(["%.17g" % v for v in values] + [LONG] * len(values))
    assert_reads_as_float([repr(float(v)) for v in values] + [LONG] * len(values))


@given(st.lists(st.tuples(st.integers(1, 19), st.integers(0, 10**19 - 1)), min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_reader_reads_short_and_long_fractions_as_float(fractions):
    tokens = ["0." + str(f % 10**k).zfill(k) for k, f in fractions]
    assert_reads_as_float(tokens + [LONG] * len(tokens))


def midpoint_tokens(x):
    """The 19-digit decimals on either side of the midpoint above x: each
    lies within 10**-19 < 2**-60 of it."""
    mid = (Fraction(float(x)) + Fraction(float(np.nextafter(x, 2.0)))) / 2
    f = mid.numerator * 10**19 // mid.denominator
    return [f"0.{g:019d}" for g in (f, f + 1) if 0 <= g < 10**19]


@given(st.lists(st.integers(0x3F50000000000000, ONE_BITS - 1), min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_reader_rounds_tokens_next_to_a_midpoint_as_float(bits):
    tokens = [t for x in unit_floats(bits) for t in midpoint_tokens(x)]
    assert_reads_as_float(tokens)


def undecidable(j, delta):
    """A 19-digit fraction F within 2**-42 ulp of a midpoint between floats
    in [2**-j, 2**(1-j)): with E = j + 53, F * 2**E lands 2**19 * delta from
    an odd multiple of 10**19 where F * 2**(E-19) = delta modulo 5**19."""
    E = j + 53
    five = 5**19
    residue = delta * pow(2, -(E - 19), five) % five
    lo = -(-(10**19) // 2**j)  # F / 10**19 >= 2**-j
    F = lo + (residue - lo) % five + 7 * five
    x = Fraction(F, 10**19)
    assert Fraction(1, 2**j) <= x < Fraction(2, 2**j) and F < 10**19
    ulp = Fraction(1, 2 ** (E - 1))
    mid = (x // (ulp / 2)) * (ulp / 2)  # the odd multiple of half an ulp next to x
    mid = mid if (mid / (ulp / 2)) % 2 == 1 else mid + ulp / 2
    assert abs(x - mid) <= ulp * Fraction(1, 2**42)
    return F


@pytest.mark.parametrize("j", [1, 2, 4, 7, 9])
@pytest.mark.parametrize("delta", [1, -1, 3, -5])
def test_tokens_by_a_midpoint_are_left_to_float(j, delta):
    F = undecidable(j, delta)
    _, undecided = relations._quotients(np.array([F], dtype=np.uint64), np.array([19]))
    assert undecided.tolist() == [True]
    assert_reads_as_float([f"0.{F:019d}", LONG])


def test_quotients_decide_plain_fractions():
    rng = np.random.default_rng(9)
    F = rng.integers(0, 10**19, 20000, dtype=np.uint64)
    k = rng.integers(1, 20, 20000)
    F %= np.uint64(10) ** k.astype(np.uint64)
    x, undecided = relations._quotients(F, k)
    assert not undecided.any()
    assert [float(Fraction(int(f), 10 ** int(e))) for f, e in zip(F[:3000], k[:3000])] == x[:3000].tolist()


@given(st.lists(st.integers(0, ONE_BITS), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_files_of_any_degrees_read_as_float(bits):
    n = int(len(bits) ** 0.5)
    values = unit_floats(bits[: n * n]).reshape(n, n)
    for spell in ("%.17g".__mod__, lambda v: repr(float(v))):
        rows = [" ".join(spell(v) for v in row) for row in values]
        text = "fuzzrel v1\nuniverse " + " ".join(f"x{k}" for k in range(n)) + "\n" + "\n".join(rows) + "\n"
        expected = np.array([[float(spell(v)) for v in row] for row in values])
        assert parse_relation(text).degrees.tobytes() == expected.tobytes()


def test_reader_leaves_other_spellings_to_float():
    rng = np.random.default_rng(8)
    tokens = ["%.17g" % v for v in rng.random(160)]
    odd = ["1e-5", "2.5E-3", "0.123456789012345678901234", "1.0000000000000000000000", "00.5", "0.",
           "1", "0", "1.0", "0.0"]
    for k, t in enumerate(odd):
        tokens[11 * k + 3] = t
    assert_reads_as_float(tokens)


@pytest.mark.parametrize(
    "text",
    [
        "0.12345678901234567 0.12345678901234567\t\n",  # a tab
        "0.12345678901234567  0.12345678901234567\n",  # two spaces
        "0.12345678901234567 1.12345678901234567\n",  # above 1
        "0.12345678901234567 0.1234567890123456-7\n",  # a sign inside a token
        "0.12345678901234567 0.1234567890123456.7\n",  # a second point
        "0.12345678901234567 0.1234567890123456x\n",  # another byte
        "0.12345678901234567 nan\n",
        "0.12345678901234567\n",  # a short row
        "0.05 0.1\n",  # short tokens: the distinct-value table reads them
    ],
)
def test_other_blocks_are_left_to_numpy_float_reader(text):
    assert relations._decimals(text, 1, 2) is None


@pytest.mark.parametrize("bad", ["1e-3_0", "1_0e-1", "0.25e0_0"])
@pytest.mark.parametrize("n", [4, 9])
def test_a_long_token_block_refuses_an_underscore(n, bad):
    # float() reads '_' between digits, which a degree may not hold: the
    # block is left to the cell walk, which names the cell
    rng = np.random.default_rng(n)
    rows = [["%.17g" % v for v in rng.random(n)] for _ in range(n)]
    rows[1][n - 1] = bad
    message = f"line 4: row 2, column {n}: not a number: {bad!r}"
    for source in (relation_text(rows), relation_text(rows).splitlines(keepends=True)):
        with pytest.raises(RelationParseError, match=re.escape(message) + "$"):
            parse_relation(source)


def test_plain_files_are_read_without_numpy_float_reader(monkeypatch):
    rng = np.random.default_rng(6)
    n = 90
    R = FuzzyRelation(tuple(f"x{k}" for k in range(n)), rng.random((n, n)))
    text = format_relation(R)

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called on plain decimals")

    monkeypatch.setattr(np, "loadtxt", refuse)
    assert parse_relation(text).degrees.tobytes() == R.degrees.tobytes()
    assert parse_relation(text.splitlines(keepends=True)).degrees.tobytes() == R.degrees.tobytes()


# ---------------------------------------------------------------------------
# the distinct-value table: one per file, shared by its blocks


# short spellings float() reads, each 8 bytes or shorter
ODD_SHORT = ["1e-3", "+0.5", ".5", "1.", "00.5", "-0", "0", "1", "0.", "1.0", "5E-1", "0.000", "+1", "-0.0", "1e0"]
GRID = [repr(k / 20) for k in range(21)]


def relation_text(rows):
    n = len(rows)
    return "fuzzrel v1\nuniverse " + " ".join(f"x{k}" for k in range(n)) + "\n" + "".join(" ".join(r) + "\n" for r in rows)


def expected_degrees(rows):
    return np.array([[float(t) for t in r] for r in rows])


@pytest.fixture(params=[None, 64], ids=["default-blocks", "small-blocks"])
def blocks(request, monkeypatch):
    """The default text and row blocks, or blocks of 64 cells, so that one
    table spans many of them."""
    if request.param:
        monkeypatch.setattr(relations, "_TEXT_CELLS", request.param)
        monkeypatch.setattr(verdicts, "_BLOCK_CELLS", request.param)
    return request.param


@pytest.fixture
def tables(monkeypatch):
    """Every distinct-value table made while the test runs."""
    made = []

    class Recorded(relations._Distinct):
        def __init__(self, convert):
            super().__init__(convert)
            made.append(self)

    monkeypatch.setattr(relations, "_Distinct", Recorded)
    return made


short_tokens = st.one_of(
    st.sampled_from(ODD_SHORT + GRID),
    st.integers(0, 99999).map(lambda f: "0." + str(f)),  # up to 7 bytes
    st.integers(0, 999).map(lambda f: f"{f}e-3" if f else "0e0"),
)


@given(st.lists(short_tokens, min_size=1, max_size=12, unique=True), st.integers(1, 14), st.randoms())
@settings(max_examples=150, deadline=None)
def test_files_of_few_short_tokens_read_as_float(vocabulary, n, rnd):
    rows = [[rnd.choice(vocabulary) for _ in range(n)] for _ in range(n)]
    expected = expected_degrees(rows)
    for source in (relation_text(rows), relation_text(rows).splitlines(keepends=True)):
        assert parse_relation(source).degrees.tobytes() == expected.tobytes()
    lines = [" ".join(r) + "\n" for r in rows]
    table = relations._Distinct(relations._judged)
    got = relations._read_short(lines, n, table)
    assert got is not None, "the block did not take the table"
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "bad, problem",
    [("nan", "degree nan outside [0,1]"), ("inf", "degree inf outside [0,1]"),
     ("0_5", "not a number: '0_5'"), ("2", "degree 2.0 outside [0,1]"), ("0.x", "not a number: '0.x'")],
)
@pytest.mark.parametrize("at", [(0, 1), (7, 3), (11, 11)])
def test_a_short_token_the_judge_refuses_names_its_cell(blocks, bad, problem, at):
    # the table already holds the grid when the bad token arrives in a later
    # block; the block falls back and the cell walk names the cell
    n = 12
    rows = [[GRID[(r * n + c) % 21] for c in range(n)] for r in range(n)]
    r, c = at
    rows[r][c] = bad
    message = f"line {r + 3}: row {r + 1}, column {c + 1}: {problem}"
    with pytest.raises(RelationParseError, match=re.escape(message) + "$"):
        parse_relation(relation_text(rows))


def test_the_cell_walk_reads_no_cell_with_numpy(monkeypatch):
    # np.loadtxt reads the block whole once; the walk judges the cells
    # itself, so it names the last cell of a block without a numpy call
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda lines, **kw: calls.append(len(lines)) or loadtxt(lines, **kw))
    n = 12
    rows = [[GRID[(r * n + c) % 21] for c in range(n)] for r in range(n)]
    rows[n - 1][n - 1] = "0_5"
    with pytest.raises(RelationParseError, match=re.escape("row 12, column 12: not a number: '0_5'") + "$"):
        parse_relation(relation_text(rows))
    assert calls == [n]


def test_the_reader_table_spans_blocks_and_gives_up_past_the_cap(blocks, tables):
    # grid rows, then rows of 3-decimal tokens: the distinct count crosses
    # the cap mid-file, and the later blocks take the other paths
    n = 40
    rng = np.random.default_rng(11)
    rows = [[GRID[k] for k in rng.integers(0, 21, n)] for _ in range(20)]
    rows += [[f"0.{k:03d}" for k in rng.integers(0, 1000, n)] for _ in range(20)]
    expected = expected_degrees(rows)
    assert parse_relation(relation_text(rows)).degrees.tobytes() == expected.tobytes()
    assert len(tables) == 1 and not tables[0].holding
    # below the cap the one table holds the file to the end
    del tables[:]
    assert parse_relation(relation_text(rows[:20] * 2)).degrees.tobytes() == expected_degrees(rows[:20] * 2).tobytes()
    assert len(tables) == 1 and tables[0].holding


# ---------------------------------------------------------------------------
# one grammar: the judge of a token reads it as numpy's block reader does


TOKEN_ZOO = [
    "infinity", "+inf", "-nan", "1.e5", ".5", "+.5", "00.5", "-0", "1e-400", "4e-324", "1e400",
    "0x1", "1d-1", "0.5e", "1__0", "0_5", "0.5\x00", "0.123456789012345678901234567890",
]


def block_read(token):
    """float(np.loadtxt([token])), or None where it refuses the token."""
    try:
        return float(np.loadtxt([token], comments=None))
    except (ValueError, TypeError):  # TypeError: not one number
        return None


def assert_one_grammar(token):
    # repr tells -0.0 from 0.0, and reads every NaN (and None) alike
    assert repr(_number(token)) == repr(block_read(token)), token


@pytest.mark.parametrize("token", TOKEN_ZOO)
def test_the_judge_reads_the_token_zoo_as_numpy(token):
    assert_one_grammar(token)


printable_tokens = st.one_of(
    st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=12),
    st.text(st.sampled_from("0123456789.eE+-_xdinfatyINFATY"), min_size=1, max_size=12),  # near-numbers
)


@given(printable_tokens)
@settings(max_examples=500, deadline=None)
def test_the_judge_reads_printable_ascii_tokens_as_numpy(token):
    assert_one_grammar(token)


def test_the_judge_refuses_digits_of_other_scripts():
    assert float("\u0661") == float("\uff11") == 1.0
    assert _number("\u0661") is None and _number("\uff11") is None


def grid_writer_values(rng, size):
    """Degrees on the 1/20 grid mixed with -0.0, subnormals and values
    below 1e-3, which the writer prints one by one (1e-4 and 3.3e-5 as
    repr, the rest through "%.17g")."""
    odd = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308, 1e-4, 3.3e-5, 0.00099999999999999]
    return np.array([k / 20 for k in range(21)] + odd)[rng.integers(0, 28, size)]


@pytest.mark.parametrize("n", [1, 7, 40, 130])
def test_grid_relations_write_as_percent_17g(blocks, tables, n):
    rng = np.random.default_rng(n)
    R = FuzzyRelation(tuple(f"x{k}" for k in range(n)), grid_writer_values(rng, (n, n)))
    head = relations._header(R)
    writes = []
    write_relation(R, SimpleNamespace(write=writes.append))
    assert format_relation(R) == "".join(writes) == head + reference_lines(R.degrees)
    assert all(t.holding for t in tables)
    back = parse_relation("".join(writes)).degrees
    assert back.tobytes() == R.degrees.tobytes()


def test_the_writer_table_spans_blocks_and_gives_up_past_the_cap(blocks, tables):
    n = 40
    rng = np.random.default_rng(12)
    m = grid_writer_values(rng, (n, n))
    m[20:] = rng.random((20, n))  # continuous rows: the distinct count crosses the cap
    R = FuzzyRelation(tuple(f"x{k}" for k in range(n)), m)
    writes = []
    write_relation(R, SimpleNamespace(write=writes.append))
    assert "".join(writes) == relations._header(R) + reference_lines(m)
    assert len(tables) == 1 and not tables[0].holding
    if blocks:
        assert len(writes) > 2  # the table served the blocks before it gave up


def test_values_new_past_the_sorted_prefix_are_added(tables):
    # the table finds a block's new values in a sorted prefix of the cells it
    # misses, then spreads the rest: here +0.0, -0.0 and the least subnormal
    # (bits 0, 2**63 and 1) first show past that prefix
    n = 64
    rng = np.random.default_rng(14)
    m = rng.integers(1, 21, (n, n)) / 20
    m[40:, ::3] = np.array([0.0, -0.0, 5e-324])[rng.integers(0, 3, (24, 22))]
    R = FuzzyRelation(tuple(f"x{k}" for k in range(n)), m)
    assert format_relation(R) == relations._header(R) + reference_lines(m)
    assert tables[0].holding
    rows = [["0" if v == 0 else GRID[round(v * 20)] for v in row] for row in m.tolist()]
    assert parse_relation(relation_text(rows)).degrees.tobytes() == expected_degrees(rows).tobytes()
    assert tables[1].holding


def test_repr_grid_files_never_give_numpy_float_reader_a_block(monkeypatch):
    # the benchmark's grid files spell degrees as repr(k / 20): the
    # distinct-value table reads them, and np.loadtxt sees no block
    n = 300
    rows = [[GRID[k] for k in np.random.default_rng(13).integers(0, 21, n)] for _ in range(n)]
    sizes = []
    loadtxt = np.loadtxt

    def recording(lines, *args, **kwargs):
        sizes.append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording)
    assert parse_relation(relation_text(rows)).degrees.tobytes() == expected_degrees(rows).tobytes()
    assert sizes == []


@pytest.mark.parametrize("n", [500, 1000])
@pytest.mark.parametrize("grid", [True, False], ids=["grid", "continuous"])
def test_file_io_memory_stays_bounded(tmp_path, n, grid):
    rng = np.random.default_rng(n)
    path = tmp_path / "r.rel"
    if grid:
        num = rng.integers(0, 21, (n, n))
        path.write_text(relation_text([[GRID[k] for k in row] for row in num.tolist()]))
        m = num / 20
    else:
        m = rng.random((n, n))
        save_relation(FuzzyRelation(tuple(f"x{k}" for k in range(n)), m), path)
    tracemalloc.start()
    try:
        R = load_relation(path)
        loaded = tracemalloc.get_traced_memory()[1] - R.degrees.nbytes
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        save_relation(R, tmp_path / "out.rel")
        saved = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert R.degrees.tobytes() == m.tobytes()
    assert loaded < 8 * 2**20 and saved < 8 * 2**20, (loaded / 2**20, saved / 2**20)
