"""The relation text codec against the per-value conversions it replaces.

The writer must print every degree exactly as ``"%.17g" % x``; the reader
must read every token exactly as ``float(token)``.  Both are checked on
random bit patterns, on named edges (powers of ten and their neighbours,
exact ties at the 18th digit, tokens next to a rounding midpoint) and
through the public ``format_relation`` / ``parse_relation``.
"""

from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzdec import relations
from fuzzdec.relations import FuzzyRelation, format_relation, parse_relation, save_relation, write_relation

ONE_BITS = 0x3FF0000000000000  # the bit pattern of 1.0: patterns up to it are the floats in [0, 1]
KERNEL_BITS = int(np.float64(1e-3).view(np.uint64))  # the least degree the digit kernel writes


def unit_floats(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


def reference_lines(m):
    return "".join(" ".join("%.17g" % v for v in row) + "\n" for row in np.atleast_2d(m).tolist())


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


EDGES = sorted(
    {float(v) for x in (1e-3, 1e-4, 1e-2, 0.1, 0.5, 1.0) for v in neighbours(x)}
    | {0.0, 0.99999999999999989, 1 - 2**-53, 5e-324, 2.2250738585072014e-308, 0.1, 1e-3}
)


def format_both_ways(values):
    """The writer's text of ``values`` as one row, through the per-cell
    kernel and through the path that formats each distinct value once."""
    x = np.asarray(values, dtype=float)
    once = relations._format_rows(x.reshape(1, -1))
    repeated = relations._format_rows(np.tile(x, 4).reshape(4, -1))
    return once, repeated


@pytest.mark.parametrize("values", [EDGES, [-0.0] + EDGES, ties()], ids=["edges", "negative-zero", "ties"])
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
        "0.05 0.1\n",  # short tokens read faster as floats
    ],
)
def test_other_blocks_are_left_to_numpy_float_reader(text):
    assert relations._decimals(text, 1, 2) is None


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
