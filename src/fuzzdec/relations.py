"""Finite fuzzy binary relations and their structural predicates.

A relation is a square membership matrix over an ordered universe of labels;
row index is the first argument.  Equality-style predicates (symmetry,
crispness) compare stored degrees exactly, while predicates that involve
operator evaluations (transitivity, connectedness) allow the package-wide
1e-9 tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .operators import EPSILON, BinaryOp, Kind

FILE_HEADER = "fuzzrel v1"

# Whole-matrix work runs in row blocks of at most this many cells (or one row,
# where a row alone is larger), so no temporary outgrows one block.
_BLOCK_CELLS = 1 << 16


def _row_blocks(rows: int, cells_per_row: int) -> Iterator[slice]:
    """Consecutive row slices covering ``range(rows)``, each spanning at most
    ``_BLOCK_CELLS`` cells of ``cells_per_row`` per row (at least one row)."""
    step = max(1, _BLOCK_CELLS // max(1, cells_per_row))
    for lo in range(0, rows, step):
        yield slice(lo, min(lo + step, rows))


def _first_cell(n: int, mask_of: Callable[[slice], np.ndarray]) -> Optional[Tuple[int, int]]:
    """Row-major first True cell of the n x n mask that ``mask_of`` builds one
    row block at a time, or None.  No block after the first hit is built."""
    for rows in _row_blocks(n, n):
        mask = mask_of(rows)
        if mask.any():
            a, b = np.argwhere(mask)[0]
            return (rows.start + int(a), int(b))
    return None


class RelationParseError(ValueError):
    """Raised on malformed relation files; the message pinpoints row/column."""


@dataclass(frozen=True, eq=False)
class FuzzyRelation:
    """Membership matrix R: X x X -> [0,1] over an ordered label universe."""

    universe: Tuple[str, ...]
    degrees: np.ndarray = field(compare=False)

    def __post_init__(self):
        self._settle(np.array(self.degrees, dtype=float, copy=True))

    @classmethod
    def _adopt(cls, universe: Tuple[str, ...], mat: np.ndarray) -> "FuzzyRelation":
        """Wrap a float matrix the library has just built, without the
        defensive copy public construction makes."""
        rel = object.__new__(cls)
        object.__setattr__(rel, "universe", universe)
        rel._settle(mat)
        return rel

    def _settle(self, mat: np.ndarray) -> None:
        labels = tuple(str(u) for u in self.universe)
        n = len(labels)
        if len(set(labels)) != n:
            raise ValueError("universe labels must be distinct")
        if mat.shape != (n, n):
            raise ValueError(f"degree matrix must be {n}x{n}, got {mat.shape}")
        # NaN counts as outside
        bad = _first_cell(n, lambda s: ~((mat[s] >= 0.0) & (mat[s] <= 1.0)))
        if bad is not None:
            raise ValueError(
                f"degree out of [0,1] at row {bad[0] + 1}, column {bad[1] + 1}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "universe", labels)
        object.__setattr__(self, "degrees", mat)

    @property
    def size(self) -> int:
        return len(self.universe)

    def value(self, x: str, y: str) -> float:
        i = self.universe.index(x)
        j = self.universe.index(y)
        return float(self.degrees[i, j])

    def __str__(self) -> str:
        return format_relation(self)


# ---------------------------------------------------------------------------
# predicates


def asymmetry_violation(m: np.ndarray) -> Optional[Tuple[int, int]]:
    """Row-major first (x, y) with m(x,y) > 0 and m(y,x) > 0, or None."""
    return _first_cell(m.shape[0], lambda s: (m[s] > 0.0) & (m[:, s].T > 0.0))


def symmetry_violation(m: np.ndarray) -> Optional[Tuple[int, int]]:
    """Row-major first (x, y) with m(x,y) != m(y,x), or None."""
    return _first_cell(m.shape[0], lambda s: m[s] != m[:, s].T)


def is_symmetric(R: FuzzyRelation) -> bool:
    return symmetry_violation(R.degrees) is None


def is_asymmetric(R: FuzzyRelation) -> bool:
    """R(x,y) > 0 forces R(y,x) = 0 (and hence a zero diagonal)."""
    return asymmetry_violation(R.degrees) is None


def is_crisp(R: FuzzyRelation) -> bool:
    m = R.degrees
    return bool(np.all((m == 0.0) | (m == 1.0)))


def is_t_transitive(R: FuzzyRelation, T: BinaryOp) -> bool:
    """R(x,z) >= T(R(x,y), R(y,z)) for every triple, within tolerance."""
    if T.kind is not Kind.NORM:
        raise ValueError("transitivity expects a norm")
    m = R.degrees
    return bool(np.all(m >= sup_t_compose(m, T) - EPSILON))


def sup_t_compose(m: np.ndarray, T: BinaryOp) -> np.ndarray:
    """The sup-T self-composition max_y T(m(x,y), m(y,z)), built one row
    block of x at a time so the n x n x n products never exist at once."""
    n = m.shape[0]
    out = np.empty_like(m)
    for s in _row_blocks(n, n * n):
        out[s] = np.asarray(T.evaluator(m[s, :, None], m[None, :, :]), dtype=float).max(axis=1)
    return out


def is_s_connected(R: FuzzyRelation, S: BinaryOp) -> bool:
    """S(R(x,y), R(y,x)) = 1 for every pair (including x = y), within
    tolerance: the S-connectedness whose value pairs
    `regions.restricted_decomposability` checks."""
    if S.kind is not Kind.CONORM:
        raise ValueError("connectedness expects a conorm")
    m = R.degrees
    return _first_cell(
        R.size, lambda s: ~(np.asarray(S.evaluator(m[s], m[:, s].T), dtype=float) >= 1.0 - EPSILON)
    ) is None


# ---------------------------------------------------------------------------
# crisp decomposition (the degenerate case every fuzzy decomposition must
# reproduce on 0/1 matrices)


def crisp_decompose(R: FuzzyRelation) -> Tuple[FuzzyRelation, FuzzyRelation]:
    """Split a crisp relation into its strict part (x above y but not back)
    and its symmetric part (both ways).  The split is exact and unique."""

    if not is_crisp(R):
        raise ValueError("crisp_decompose requires a 0/1 relation")
    m = R.degrees
    strict = ((m == 1.0) & (m.T == 0.0)).astype(float)
    sym = ((m == 1.0) & (m.T == 1.0)).astype(float)
    return (
        FuzzyRelation(R.universe, strict),
        FuzzyRelation(R.universe, sym),
    )


# ---------------------------------------------------------------------------
# file format
#
#   fuzzrel v1
#   universe <label> <label> ...
#   <row of n degrees>
#   ... (n rows, row-major, whitespace separated)
#
# '#' starts a comment; blank lines are ignored.  Degrees are written with
# 17 significant digits so emitted files re-parse to bit-identical matrices.
# Degrees are read by numpy's text reader one row block at a time; it accepts
# exactly the spellings of Python's float() that are ASCII without '_', so
# the further ones float() takes ('0.0_5', full-width digits) are rejected.
#
# Degrees elicited on a finite scale repeat, so writing formats each distinct
# value once through a per-call memo while rows are mostly repeats, and falls
# back to formatting every cell once a row is mostly new values.

_MEMO_ENTRIES = 4096


class _Memo(dict):
    """``%.17g`` texts of floats, at most ``_MEMO_ENTRIES`` of them."""

    misses = 0

    def __missing__(self, key):
        self.misses += 1
        text = "%.17g" % key
        if len(self) < _MEMO_ENTRIES:
            self[key] = text
        return text

    def row(self, values: Sequence[float]) -> Tuple[list, bool]:
        """Format one row; the flag says whether at most half of it was new."""
        before = self.misses
        out = list(map(self.__getitem__, values))
        return out, 2 * (self.misses - before) <= len(out)


def _lines(R: FuzzyRelation) -> Iterator[str]:
    """The file text of R, one newline-terminated line at a time."""
    yield FILE_HEADER + "\n"
    yield "universe " + " ".join(R.universe) + "\n"
    m = R.degrees
    row_format = " ".join(["%.17g"] * R.size) + "\n"
    # -0.0 == 0.0 as a key, so a memo would print -0 as 0
    signed = _first_cell(R.size, lambda s: np.signbit(m[s]))
    memo = None if signed is not None else _Memo()
    for row in m:
        if memo is None:
            yield row_format % tuple(row.tolist())
            continue
        texts, mostly_hits = memo.row(row.tolist())
        yield " ".join(texts) + "\n"
        if not mostly_hits:
            memo = None


def format_relation(R: FuzzyRelation) -> str:
    return "".join(_lines(R))


def content_lines(source: Union[str, Iterable[str]]) -> Iterator[Tuple[int, str]]:
    """(line number, text) of each line of ``source`` (one string, or an
    iterable of lines such as an open file, which streams) that is not blank
    once its '#' comment and surrounding whitespace are stripped."""
    if isinstance(source, str):
        source = source.splitlines()
    # a blank line splits into no parts, but still counts
    numbered = enumerate((part for chunk in source for part in chunk.splitlines() or [""]), start=1)
    return ((idx, s) for idx, line in numbered if (s := line.split("#", 1)[0].strip()))


def read_degrees(lines: Iterator[Tuple[int, str]], rows: int, cols: int) -> np.ndarray:
    """The rows x cols matrix of degrees in [0,1] that the remaining
    ``content_lines`` hold, one matrix row per line.

    Each row block of at most ``_BLOCK_CELLS`` cells is read by one
    ``np.loadtxt``, and nothing rows x cols in size is allocated before the
    rows have arrived.  Errors come in line order: the first offending row
    length or cell in row-major order, then the row count."""
    mat = np.empty((0, cols))
    for s in _row_blocks(rows, cols):
        block = list(islice(lines, s.stop - s.start))
        if block:
            degrees = _read_block(block, s.start, cols)
            # mat grows in place (no view of it exists): no second copy is made
            mat.resize((s.start + len(block), cols), refcheck=False)
            mat[s.start:] = degrees
        if len(block) < s.stop - s.start:
            break
    found = len(mat) + sum(1 for _ in lines)  # rows past the last are only counted
    if found != rows:
        raise RelationParseError(f"expected {rows} matrix rows, found {found}")
    return mat


def _read_block(block: List[Tuple[int, str]], first_row: int, cols: int) -> np.ndarray:
    """The degrees on ``block``'s lines, rows ``first_row + 1, ...`` of the
    matrix.  A block the reader rejects is walked cell by cell, each cell
    judged by the same reader, to name its first offending cell."""
    try:
        mat = np.loadtxt([text for _, text in block], ndmin=2, comments=None)
        if mat.shape[1] == cols and ((mat >= 0.0) & (mat <= 1.0)).all():  # NaN fails too
            return mat
    except ValueError:
        pass
    for r, (lineno, text) in enumerate(block, start=first_row + 1):
        cells = text.split()  # numpy's reader splits on the same whitespace
        if len(cells) != cols:
            raise RelationParseError(f"line {lineno}: row {r} has {len(cells)} entries, expected {cols}")
        for c, cell in enumerate(cells, start=1):
            where = f"line {lineno}: row {r}, column {c}"
            try:
                v = float(np.loadtxt([cell], comments=None))
            except ValueError:
                raise RelationParseError(f"{where}: not a number: {cell!r}") from None
            if not 0.0 <= v <= 1.0:
                raise RelationParseError(f"{where}: degree {v!r} outside [0,1]")
    last = first_row + len(block)
    raise RelationParseError(f"line {block[0][0]}: rows {first_row + 1} to {last} do not read as a matrix")


def parse_relation(source: Union[str, Iterable[str]]) -> FuzzyRelation:
    """Parse a relation file given as one string or as an iterable of lines
    (an open file streams: no copy of the whole text is made)."""
    lines = content_lines(source)
    lineno, header = next(lines, (None, None))
    if header is None:
        raise RelationParseError("empty relation file")
    if header != FILE_HEADER:
        raise RelationParseError(f"line {lineno}: expected header {FILE_HEADER!r}, got {header!r}")
    lineno, uline = next(lines, (None, None))
    if uline is None:
        raise RelationParseError("missing universe line")
    parts = uline.split()
    if parts[0] != "universe" or len(parts) < 2:
        raise RelationParseError(f"line {lineno}: expected 'universe <label> ...', got {uline!r}")
    labels = parts[1:]
    n = len(labels)
    if len(set(labels)) != n:
        raise RelationParseError(f"line {lineno}: duplicate universe labels")
    return FuzzyRelation._adopt(tuple(labels), read_degrees(lines, n, n))


def load_relation(path) -> FuzzyRelation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_relation(fh)
        except UnicodeDecodeError:
            raise not_utf8(path) from None


def not_utf8(path) -> RelationParseError:
    """The error for a file that does not decode as UTF-8, naming the file and
    its first line that does not (the decoder's own position counts from the
    start of a read chunk)."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return RelationParseError(
                    f"{path}: line {lineno}: byte {exc.start + 1} (0x{raw[exc.start]:02x}) is not UTF-8 text"
                )
    return RelationParseError(f"{path}: not UTF-8 text")


def save_relation(R: FuzzyRelation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_lines(R))
