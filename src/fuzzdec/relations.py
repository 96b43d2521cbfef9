"""Finite fuzzy binary relations, their structural predicates, and both file
formats: relation files, and the value tables of custom operators (loaded
here, not beside ``make_custom``, because ``operators`` is the lower layer).

A relation is a square membership matrix over an ordered universe of labels;
row index is the first argument.  Equality-style predicates (symmetry,
crispness) compare stored degrees exactly, while transitivity, which
evaluates a norm, allows the package-wide 1e-9 tolerance.  Transitivity is
read through Warshall's pivot term, the package's one O(n^3) kernel, which
`regions.t_transitive_closure` also builds the closure from.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .operators import EPSILON, BinaryOp, Kind, _count, _number, make_custom
from .verdicts import _first_cell, _row_blocks

FILE_HEADER = "fuzzrel v1"


class RelationParseError(ValueError):
    """Raised on malformed relation files and operator tables; the message pinpoints row/column."""


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
        """R(x, y); ValueError naming a label that is not in the universe."""
        for label in (x, y):
            if label not in self.universe:
                raise ValueError(f"label {label!r} is not in the universe")
        return float(self.degrees[self.universe.index(x), self.universe.index(y)])

    def __str__(self) -> str:
        return format_relation(self)


# ---------------------------------------------------------------------------
# predicates


# Both pair predicates are symmetric, so the row-major first violation has y >= x:
# row block s compares only its cells on and above the diagonal, m[s, s.start:].
def asymmetry_violation(m: np.ndarray) -> Optional[Tuple[int, int]]:
    """Row-major first (x, y) with m(x,y) > 0 and m(y,x) > 0, or None."""
    return _first_cell(m.shape[0], lambda s: (m[s, s.start:] > 0.0) & (m[s.start:, s].T > 0.0))


def symmetry_violation(m: np.ndarray) -> Optional[Tuple[int, int]]:
    """Row-major first (x, y) with m(x,y) != m(y,x), or None."""
    return _first_cell(m.shape[0], lambda s: m[s, s.start:] != m[s.start:, s].T)


def is_crisp(R: FuzzyRelation) -> bool:
    m = R.degrees
    return bool(np.all((m == 0.0) | (m == 1.0)))


def is_t_transitive(R: FuzzyRelation, T: BinaryOp) -> bool:
    """R(x,z) >= T(R(x,y), R(y,z)) for every triple, within tolerance: for
    each pivot y, R >= `_pivot_term` - EPSILON, checked one pivot at a time
    up to the first violating one, as one comparison with `_term_bound`."""
    if T.kind is not Kind.NORM:
        raise ValueError("transitivity expects a norm")
    m = R.degrees
    bound = _term_bound(m)
    return all(np.all(_pivot_term(m, T, k) <= bound) for k in range(R.size))


def _term_bound(m: np.ndarray) -> np.ndarray:
    """The largest float b with fl(b - EPSILON) <= m, cell by cell: as t -> fl(t - EPSILON) is monotone,
    t <= b exactly where m >= t - EPSILON (a NaN t fails both).  fl(m + EPSILON) is a float or two off."""
    b = m + EPSILON
    while (over := b - EPSILON > m).any():
        b[over] = np.nextafter(b[over], 0.0)
    while (up := np.nextafter(b, 2.0) - EPSILON <= m).any():
        b[up] = np.nextafter(b[up], 2.0)
    return b


def _pivot_term(m: np.ndarray, T: BinaryOp, k: int) -> np.ndarray:
    """Warshall's pivot term T(m(x,k), m(k,z)) over all (x, z).  It may be a
    view of m (a custom T may return its argument), so it is never written."""
    return T.evaluator(m[:, k, None], m[None, k, :])


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
# file formats
#
#   fuzzrel v1                       fuzzop v1
#   universe <label> <label> ...     grid <n>
#   <row of n degrees>               <row of n+1 values f(i/n, j/n)>
#   ... (n rows)                     ... (n+1 rows, i = 0..n)
#
# Rows are row-major and whitespace separated, read by one reader for both;
# a table is evaluated by bilinear interpolation between its grid nodes.
# '#' starts a comment; blank lines are ignored.  Emitted degrees are one
# space apart, and each reads back as the same float: 0, -0 and 1 are
# written "0", "-0" and "1"; the float of any other decimal of at most 6
# places as repr writes it, its shortest spelling (0.05, 1e-05); every
# other degree as "%.17g" (17 significant digits).  Region CSVs spell their
# axis values the same way.  One judge, ``operators._number``, reads every
# degree token as float() reads ASCII without '_' (so not '0.0_5' or full-width
# digits), and the degree must lie in [0,1].  A grid size is ASCII digits.
#
# Text is converted by numpy kernels, each equal to the per-value conversion
# it replaces, in text blocks of at most ``_TEXT_CELLS`` cells (written) or
# row blocks of at most ``verdicts._BLOCK_CELLS`` cells (read).  A degree on
# a finite scale repeats: one distinct-value table (``_Distinct``) per file,
# parsed or written, converts each distinct degree once, for as long as the
# file has at most ``_DISTINCT_CAP`` of them.
#
# - writing: a degree in [1e-3, 1) is printed from its 17 significant digits,
#   x * 10**(16 - q) rounded half to even from Dekker's exact product, through
#   4-digit tables into a 24-byte cell whose unused bytes are NUL (the head
#   is NUL-padded, and a trailing-zero cut clears the last zero digits).
#   Only digits whose last 8 lie within 16 of a multiple of 10**8 can be a
#   six-place decimal's; rint(x * 1e6) / 1e6 == x decides, and the decimal's
#   own digits m * 10**(10 - q) go to the cut.  +0.0 and 1 take fixed cells,
#   without the kernel where they fill more than 1 in 8 cells of a block;
#   every other degree (below 1e-3, -0.0, subnormal) is spelled one by one.
#   The table, keyed by bit pattern, makes each distinct degree's text once
#   and holds it in an ``S`` array, NUL-padded to the longest (5 bytes for
#   the 1/20 grid) and gathered at that width; past its cap every cell is
#   made anew.  Either way one deletion of the NUL bytes joins the cells.
# - reading: a block of plain lines whose tokens are all 8 bytes or shorter
#   (one space apart, one row a line, such as repr(k / 20)) takes each
#   token's bytes as one integer key, and the table judges each distinct
#   token once; a block with a token it refuses goes on as below.  A block
#   of longer plain decimals (tokens 0, 1 or [01].d{1,19}) is read as
#   integers F by numpy's integer text reader and rounded as F / 10**k by
#   an exact double-double quotient (Clinger's condition: the quotient is
#   decided unless it lies within 2**-40 ulp of a rounding midpoint).  A
#   token it cannot decide (an e-notation or 20-digit spelling, or a
#   near-midpoint quotient) is judged on its own; any other block is read
#   whole by np.loadtxt, whose grammar is the judge's, and a block it
#   rejects is walked cell by cell, each cell judged, to name its first
#   offending cell.

_TEXT_CELLS = 1 << 12
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant for float64
_POW10 = 10.0 ** np.arange(23)  # exact up to 10**22
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)  # their 26-bit halves
_POW10_LO = _POW10 - _POW10_HI


def _times_power(a: np.ndarray, k: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(p, e) with p the float product a * 10**k and p + e = a * 10**k
    exactly: Dekker's two-product, computed in place where it can be."""
    b = np.take(_POW10, k)
    bh = np.take(_POW10_HI, k)
    bl = np.take(_POW10_LO, k)
    p = a * b
    ah = _SPLIT * a
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    e = ah * bh
    e -= p
    e += np.multiply(ah, bl, out=ah)
    e += np.multiply(al, bh, out=bh)
    e += np.multiply(al, bl, out=bl)
    return p, e


_DISTINCT_CAP = 256  # distinct keys a table holds before it gives up
# odd multipliers of the table's hash, each at least 2**63, so that key 1
# never lands in slot 0
_MULTIPLIERS = (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93,
    0xC2B2AE3D27D4EB4F, 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53, 0xA0761D6478BD642F,
)


def _hash(keys: np.ndarray, m: int, bits: int) -> np.ndarray:
    """The slot (k * m mod 2**64) >> (64 - bits) of each key k (uint64) in
    an array of 2**bits slots, as int64."""
    slots = keys * np.uint64(m)
    slots >>= np.uint64(64 - bits)
    return slots.view(np.int64)


def _spread(keys: np.ndarray, bits: int) -> Optional[Tuple[int, np.ndarray, np.ndarray]]:
    """(m, slots, held) for the first multiplier m of ``_MULTIPLIERS`` whose
    ``_hash`` sends two of ``keys`` to one slot only when they are equal:
    the slot of each key, and the 2**bits slots with each key in its own.
    An empty slot holds a key that lands in another slot, so that no lookup
    matches it: slot 0 holds 1, any other slot 0 (the bits of +0.0, which
    land in slot 0).  None where no multiplier spreads the keys."""
    for m in _MULTIPLIERS:
        slots = _hash(keys, m, bits)
        held = np.zeros(1 << bits, np.uint64)
        held[0] = 1
        held[slots] = keys
        if (np.take(held, slots) == keys).all():
            return m, slots, held
    return None


class _Distinct:
    """The distinct 64-bit keys of one file (one parse or one write), each
    with the item ``convert`` makes of it, made once per key: ``convert``
    maps new keys to a 1-d array, one item a key, that ``np.concatenate``
    joins to the earlier ones (an ``S`` array pads narrower texts with NUL
    bytes).

    The keys are numbered in order of arrival and held in the slots
    ``_spread`` gives them; the table grows with them, and every lookup
    compares the key held in the slot.  The table gives up
    for good, ``rows`` returning None from then on, once a file has more
    than ``_DISTINCT_CAP`` distinct keys, when no multiplier spreads them,
    or when ``convert`` returns None for new keys."""

    def __init__(self, convert: Callable[[np.ndarray], Optional[np.ndarray]]):
        self._convert = convert
        self._keys = np.empty(0, np.uint64)  # by number; None once the table gives up
        self._rows = None
        self._hold(self._keys)

    @property
    def holding(self) -> bool:
        """Whether the table has not given up."""
        return self._keys is not None

    def rows(self, keys: np.ndarray) -> Optional[np.ndarray]:
        """The rows of each of ``keys`` (uint64), converting the new ones,
        or None where the table gives up."""
        if not self.holding:
            return None
        slots, missing = self._find(keys)
        if missing.any():
            # a block's new keys mostly all show in a prefix of those missing,
            # whose distinct values a short sort finds
            if not self._add(np.unique(keys[missing][:4 * _DISTINCT_CAP])):
                return None
            slots, missing = self._find(keys)
            if missing.any():
                if not self._add(np.unique(keys[missing])):
                    return None
                slots, _ = self._find(keys)
        numbers = np.take(self._numbers, slots)
        del slots
        return np.take(self._rows, numbers)

    def _find(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The slot of each key, and whether the key is missing from it."""
        slots = _hash(keys, self._multiplier, self._bits)
        return slots, np.take(self._held, slots) != keys

    def _add(self, fresh: np.ndarray) -> bool:
        """Add the new keys ``fresh`` (distinct), or give up and return
        False."""
        if self._keys.size + fresh.size <= _DISTINCT_CAP:
            rows = self._convert(fresh)
            if rows is not None and self._hold(np.concatenate([self._keys, fresh])):
                self._rows = rows if self._rows is None else np.concatenate([self._rows, rows])
                return True
        self._keys = None
        return False

    def _hold(self, keys: np.ndarray) -> bool:
        """Hold ``keys``, numbered in order, in a table of 2**bits >=
        2 * len(keys)**2 slots (4 to 16 bits), where a spread without
        collisions is likely; False where no multiplier spreads them."""
        bits = min(16, max(4, (2 * keys.size**2).bit_length()))
        spread = _spread(keys, bits)
        if spread is None:
            return False
        self._multiplier, slots, self._held = spread
        self._bits = bits
        self._numbers = np.zeros(1 << bits, np.intp)
        self._numbers[slots] = np.arange(keys.size)
        self._keys = keys
        return True


# A written cell is 24 bytes, NUL where its text does not reach: its separator,
# then either the digits of a degree in [1e-3, 1) ("0." and z < 3 zeros ending
# at byte 7 with the leading digit, then four 4-digit groups) or another text.
_CELL = 24


@functools.cache
def _text_tables():
    """The writer's lookup tables, built on first use: the 4 ASCII digits of
    each g < 10**4 as one uint32; the trailing zeros of those digits (4 for
    0); cell bytes 0-7 as one uint64 (a space, then "0." with z zeros and the
    leading digit d at index 10 * z + d, "0" and "1" at 30 and 31, NUL before
    and after); and the masks of bytes 8-15 and of bytes 16-23 as two rows
    of uint64s that, at index t, clear the last t of the 16 digits."""
    g = np.arange(10**4)[:, None]
    places = 10 ** np.arange(3, -1, -1)
    digits = (g // places % 10 + 48).astype(np.uint8)
    zeros = (g % (10 * places[::-1]) == 0).sum(axis=1)
    z, lead = np.divmod(np.arange(30), 10)
    heads = np.zeros((32, 8), np.uint8)
    heads[:30] = np.where(np.arange(8) >= 5 - z[:, None], 48, 0)
    heads[:, 0] = 32
    heads[np.arange(30), 6 - z] = 46
    heads[:30, 7] = 48 + lead
    heads[30:, 1] = (48, 49)
    cuts = np.where(np.arange(16) < np.arange(16, -1, -1)[:, None], 255, 0).astype(np.uint8)
    return digits.view(np.uint32).ravel(), zeros, heads.view(np.uint64).ravel(), cuts.view(np.uint64).T.copy()


def _digits17(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """x * 10**(16 - q) rounded half to even, from its exact value.  Where
    that is at least 2**53 the float product p is an even integer, so the
    rounding of p + e is p plus the rounding of e."""
    p, e = _times_power(x, 16 - q)
    return p.astype(np.int64) + np.rint(e, out=e).astype(np.int64)


def _spelling(v: float) -> bytes:
    """The text of one degree by the writer's rule (see the file formats above)."""
    if v != 0.0 and v != 1.0 and round(v * 1e6) / 1e6 == v:
        return repr(v).encode("ascii")
    return b"%.17g" % v


def _cells(x: np.ndarray) -> np.ndarray:
    """The ``_CELL``-byte cells of the degrees x, each a space and its text,
    NUL-padded."""
    digits, zeros, heads, cuts = _text_tables()
    zero = (x == 0.0) & ~np.signbit(x)
    unit = x == 1.0
    fixed = zero | unit  # their cells are fixed
    # the kernel skips them where more than 1 in 8 cells is fixed (half of a canonical P
    # is 0); for fewer, gathering the other cells costs more than it saves
    live = np.flatnonzero(~fixed) if np.count_nonzero(fixed) * 8 > x.size else slice(None)
    # digits of each live cell as if it were in [1e-3, 1); the others are replaced below
    xc = np.clip(x[live], 1e-3, 1.0 - 2.0**-53)
    q = np.floor(np.log10(xc)).astype(np.intp)
    n = _digits17(xc, q)
    # log10 may miss the decimal exponent by one, and rounding may carry into
    # the next: either way n falls outside 17 digits
    off = np.flatnonzero((n < 10**16) | (n >= 10**17))
    if off.size:
        q[off] += np.where(n[off] < 10**16, -1, 1)
        n[off] = _digits17(xc[off], q[off])
    hi = n // 10**8
    lo = n - hi * 10**8
    # the float of a decimal m / 10**6 has digits within 10 of m * 10**(10 - q), so
    # only digits within 16 of a multiple of 10**8 are tested; a match gets those digits
    near = np.flatnonzero((lo <= 16) | (lo >= 10**8 - 16))
    if near.size:
        m = np.rint(xc[near] * 1e6)
        short = m / 1e6 == xc[near]
        near = near[short]
        hi[near] = m[short].astype(np.int64) * 10 ** (2 - q[near])
        lo[near] = 0
    lead = hi // 10**8
    hi -= lead * 10**8
    groups = [hi // 10**4, hi, lo // 10**4, lo]
    groups[1] -= groups[0] * 10**4  # in place of the slower %
    groups[3] -= groups[2] * 10**4
    trailing = np.take(zeros, groups[3])
    more = np.flatnonzero(groups[3] == 0)
    for g in groups[2::-1]:
        if not more.size:
            break
        gm = g[more]
        trailing[more] += np.take(zeros, gm)
        more = more[gm == 0]
    head = (-1 - q) * 10 + lead
    # a fixed cell clears all 16 digits
    if isinstance(live, slice):
        head[fixed], trailing[fixed] = 30 + unit[fixed], 16
    else:
        cells = head, trailing
        head, trailing = np.where(unit, 31, 30), np.full(x.size, 16)
        head[live], trailing[live] = cells
    buf = np.empty((x.size, _CELL), np.uint8)
    words = buf.view(np.uint32)
    buf.view(np.uint64)[:, 0] = np.take(heads, head)
    for k, g in enumerate(groups, start=2):
        words[:, k][live] = np.take(digits, g)  # faster than words[live, k]
    for k, cut in enumerate(cuts, start=1):
        buf.view(np.uint64)[:, k] &= np.take(cut, trailing)  # a 2-d take is 4 times slower
    small = np.flatnonzero((x < 1e-3) & ~zero)
    for k, v in zip(small.tolist(), x[small].tolist()):
        buf[k, 1:] = np.frombuffer(_spelling(v).ljust(_CELL - 1, b"\0"), np.uint8)
    return buf


def _spellings(x: np.ndarray) -> List[str]:
    """The texts of the degrees x."""
    return _cells(x).tobytes().translate(None, b"\0").decode("ascii").split()


def _cells_of_bits(bits: np.ndarray) -> np.ndarray:
    """The cells of the degrees with bit patterns ``bits`` as an ``S`` array,
    each cell's bytes without its NULs, so that the array pads them with NUL
    bytes to the longest."""
    return np.array([cell.tobytes().translate(None, b"\0") for cell in _cells(bits.view(np.float64))])


def _format_rows(m: np.ndarray, table: Optional[_Distinct] = None) -> str:
    """The lines of the rows of m, formatted as one block: the NUL-padded
    cells of each distinct degree come from ``table`` (of ``_cells_of_bits``)
    while it holds them, of every degree from ``_cells`` otherwise, and one
    deletion of their NUL bytes joins them."""
    x = np.ascontiguousarray(m).ravel()
    texts = None if table is None else table.rows(x.view(np.uint64))  # -0.0 and 0.0 stay apart
    buf = (_cells(x) if texts is None else texts).view(np.uint8).reshape(x.size, -1)
    buf[:: m.shape[1], 0] = 10  # each row's first separator ends the row before
    return buf.tobytes().translate(None, b"\0")[1:].decode("ascii") + "\n"


def format_relation(R: FuzzyRelation, rows: slice = slice(0, None), *, table: Optional[_Distinct] = None) -> str:
    """The file text of R's rows ``rows`` (a slice with step 1, else
    ValueError), with the header and ``universe`` lines in front where the
    slice starts at row 0, so the texts of consecutive slices join to the
    whole file.  ``table`` is the distinct-value table of the file these
    rows are part of (``write_relation`` passes one for all its slices);
    by default the call has its own."""
    start, stop, step = rows.indices(R.size)
    if step != 1:
        raise ValueError(f"format_relation takes a row slice with step 1, got step {step}")
    table = _Distinct(_cells_of_bits) if table is None else table
    m = R.degrees[start:stop]
    head = _header(R) if start == 0 else ""
    return head + "".join(_format_rows(m[s], table) for s in _row_blocks(len(m), R.size, _TEXT_CELLS))


def _header(R: FuzzyRelation) -> str:
    """The header and ``universe`` lines of R's file; ValueError for an empty
    universe, which no file can hold, or naming the first label that line
    cannot carry (empty, or holding whitespace or '#')."""
    if not R.universe:
        raise ValueError("a relation over an empty universe cannot be written: its file would not parse")
    for label in R.universe:
        if label.split() != [label] or "#" in label:
            raise ValueError(f"universe label {label!r} cannot be written: it is empty or holds whitespace or '#'")
    return FILE_HEADER + "\nuniverse " + " ".join(R.universe) + "\n"


def write_relation(R: FuzzyRelation, fh) -> None:
    """Write R's file text to the open text file ``fh`` one text block of rows
    at a time, after the checks of ``_header``, with one distinct-value
    table for the whole file."""
    _header(R)
    table = _Distinct(_cells_of_bits)
    for rows in _row_blocks(R.size, R.size, _TEXT_CELLS):
        fh.write(format_relation(R, rows, table=table))


def save_relation(R: FuzzyRelation, path) -> None:
    _header(R)  # an empty universe or a bad label raises before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        write_relation(R, fh)


class ContentLines:
    """The numbered lines of a relation file or operator table: one string,
    or an iterable of lines such as an open file, which streams.  Iterating
    gives (line number, text) of each line that is not blank once its '#'
    comment and surrounding whitespace are stripped; ``rows`` takes the next
    lines of a matrix as one block."""

    def __init__(self, source: Union[str, Iterable[str]]):
        if isinstance(source, str):
            source = source.splitlines(keepends=True)
        self._chunks = iter(source)
        self._parts = deque()  # lines of chunks already taken, not yet numbered
        self.lineno = 0

    def __iter__(self) -> "ContentLines":
        return self

    def __next__(self) -> Tuple[int, str]:
        while True:
            while not self._parts:
                # a blank line splits into no parts, but still counts
                self._parts.extend(next(self._chunks).splitlines() or [""])
            self.lineno += 1
            text = self._parts.popleft().split("#", 1)[0].strip()
            if text:
                return self.lineno, text

    def rows(self, count: int) -> "_Block":
        """The next ``count`` lines that are not blank (fewer at the end).
        Where the next ``count`` chunks of the source are each one plain
        line (see ``_plain``), they pass as they are."""
        if not self._parts:
            chunks = list(islice(self._chunks, count))
            if _plain(chunks):
                first = self.lineno + 1
                self.lineno += len(chunks)
                return _Block(chunks, range(first, self.lineno + 1), plain=True)
            self._parts.extend(part for chunk in chunks for part in chunk.splitlines() or [""])
        numbered = list(islice(self, count))
        return _Block([text for _, text in numbered], [lineno for lineno, _ in numbered])


def _plain(chunks: List[str]) -> bool:
    """Whether each chunk is one ASCII line with no '#' and something besides
    whitespace, ending in a newline (the last one may instead end the
    source): such a chunk is its own content line, and numpy's reader splits
    it into the cells ``str.split`` makes."""
    text = "".join(chunks)
    if not text.isascii() or any(c in text for c in "#\r\x0b\x0c\x1c\x1d\x1e"):
        return False
    last = len(chunks) - 1
    for k, chunk in enumerate(chunks):
        end = chunk.find("\n")
        if not chunk or chunk.isspace() or (end != len(chunk) - 1 and not (k == last and end < 0)):
            return False
    return True


@dataclass
class _Block:
    """Lines of matrix rows: their texts (each as ``str.split`` splits it into
    cells), their line numbers, and whether they are plain lines."""

    texts: List[str]
    numbers: Sequence[int]
    plain: bool = False


def read_degrees(lines: ContentLines, rows: int, cols: int) -> np.ndarray:
    """The rows x cols matrix of degrees in [0,1] that the remaining
    ``lines`` hold, one matrix row per line.

    Each row block of at most ``verdicts._BLOCK_CELLS`` cells is read at once, and
    nothing rows x cols in size is allocated before the rows have arrived.
    Errors come in line order: the first offending row length or cell in
    row-major order, then the row count."""
    mat = np.empty((0, cols))
    table = _Distinct(_judged)
    for s in _row_blocks(rows, cols):
        block = lines.rows(s.stop - s.start)
        if block.texts:
            degrees = _read_block(block, s.start, cols, table)
            # mat grows in place (no view of it exists): no second copy is made
            mat.resize((s.start + len(block.texts), cols), refcheck=False)
            mat[s.start:] = degrees
        if len(block.texts) < s.stop - s.start:
            break
    found = len(mat) + sum(1 for _ in lines)  # rows past the last are only counted
    if found != rows:
        raise RelationParseError(f"expected {rows} matrix rows, found {found}")
    return mat


def _read_block(block: _Block, first_row: int, cols: int, table: _Distinct) -> np.ndarray:
    """The degrees on ``block``'s lines, rows ``first_row + 1, ...`` of the
    matrix, ``table`` holding the distinct short tokens of the file.  A
    block the readers reject is walked cell by cell, each cell judged by
    ``_number``, to name its first offending cell."""
    if block.plain:
        mat = _read_short(block.texts, cols, table)
        if mat is None:
            mat = _read_decimals(block.texts, cols)
        if mat is not None:
            return mat
    try:
        mat = np.loadtxt(block.texts, ndmin=2, comments=None)
        if mat.shape == (len(block.texts), cols) and ((mat >= 0.0) & (mat <= 1.0)).all():  # NaN fails too
            return mat
    except ValueError:
        pass
    for r, (lineno, text) in enumerate(zip(block.numbers, block.texts), start=first_row + 1):
        cells = text.split()  # numpy's reader splits on the same whitespace
        if len(cells) != cols:
            raise RelationParseError(f"line {lineno}: row {r} has {len(cells)} entries, expected {cols}")
        for c, cell in enumerate(cells, start=1):
            where = f"line {lineno}: row {r}, column {c}"
            v = _number(cell)
            if v is None:
                raise RelationParseError(f"{where}: not a number: {cell!r}")
            if not 0.0 <= v <= 1.0:
                raise RelationParseError(f"{where}: degree {v!r} outside [0,1]")
    last = first_row + len(block.texts)
    raise RelationParseError(f"line {block.numbers[0]}: rows {first_row + 1} to {last} do not read as a matrix")


def _read_decimals(lines: List[str], cols: int) -> Optional[np.ndarray]:
    """The degrees of plain lines read by ``_decimals`` one text block at a
    time, or None where it refuses a block."""
    parts = []
    for s in _row_blocks(len(lines), cols, _TEXT_CELLS):
        part = _decimals("".join(lines[s]), s.stop - s.start, cols)
        if part is None:
            return None
        parts.append(part)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _tokens(b: np.ndarray, rows: int, cols: int) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(starts, ends, lengths) of the rows x cols tokens of the ASCII bytes
    ``b``, or None where they are not one space apart, one row a line, each
    line ending in a newline."""
    ends = np.flatnonzero(b <= 32)  # the space or newline after each token
    if ends.size != rows * cols:
        return None
    seps = np.take(b, ends).reshape(rows, cols)
    if not ((seps[:, -1] == 10).all() and (seps[:, :-1] == 32).all()):
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    length = ends - starts
    if length.min() < 1:
        return None
    return starts, ends, length


def _read_short(lines: List[str], cols: int, table: _Distinct) -> Optional[np.ndarray]:
    """The degrees of plain lines whose tokens are all 8 bytes or shorter,
    each distinct token converted once by ``table``, or None: where a row
    has another shape, a token is longer, or the table gives up (a file of
    many distinct tokens, or a token ``_judged`` refuses)."""
    keys = _short_keys(lines, cols) if table.holding else None
    rows = None if keys is None else table.rows(keys)
    return None if rows is None else rows.reshape(len(lines), cols)


def _short_keys(lines: List[str], cols: int) -> Optional[np.ndarray]:
    """The bytes of each token of plain lines as one little-endian uint64,
    or None where a row has another shape or a token is longer than 8
    bytes."""
    rows = len(lines)
    if sum(map(len, lines)) > 9 * rows * cols:  # a token is longer than 8 bytes
        return None
    text = "".join(lines)
    # the last newline, then 7 bytes past it: every token start has 8 bytes to read
    size = len(text) + (not text.endswith("\n"))
    raw = text.ljust(size, "\n").ljust(size + 7, "\0").encode("ascii")
    del text
    found = _tokens(np.frombuffer(raw, np.uint8, size), rows, cols)
    if found is None:
        return None
    starts, _, length = found
    del found  # the token ends
    if length.max() > 8:
        return None
    words = np.ndarray((size,), np.dtype("<u8"), raw, strides=(1,))  # the 8 bytes from each offset
    keys = words[starts]  # np.take would first copy words whole
    keys &= np.take(np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64), length)  # a token's own bytes
    return keys


def _judged(keys: np.ndarray) -> Optional[np.ndarray]:
    """The degrees of the tokens whose bytes (little-endian, up
    to 8) the ``keys`` hold, each read by ``_number``; None where one is not
    a number or is outside [0,1]."""
    values = [_number(key.to_bytes(8, "little").rstrip(b"\0").decode("ascii")) for key in keys.tolist()]
    judged = all(v is not None and 0.0 <= v <= 1.0 for v in values)
    return np.array(values, dtype=float) if judged else None


def _decimals(text: str, rows: int, cols: int) -> Optional[np.ndarray]:
    """The rows x cols degrees of ``text``, or None: where a row has another
    shape, the tokens average under 10 bytes (shorter ones are left to
    ``_read_short`` or np.loadtxt), more than 1 in 16 is not a plain
    decimal, or a degree is not a number in [0,1]."""
    if not text.endswith("\n"):
        text += "\n"
    n = rows * cols
    if len(text) < 10 * n:
        return None
    b = np.frombuffer(text.encode("ascii"), np.uint8)
    found = _tokens(b, rows, cols)
    if found is None:
        return None
    starts, ends, length = found
    lead = np.take(b, starts)
    dotted = np.take(b, starts + 1) == 46
    plain = (lead - np.uint8(48) <= 1) & np.where(dotted, (length >= 3) & (length <= 21), length == 1)
    if any(c in text for c in "eE+-"):  # e-notation (or a sign) leaves its token to the judge
        plain[np.searchsorted(ends, np.flatnonzero((b == 101) | (b == 69) | (b == 43) | (b == 45)))] = False
    other = np.flatnonzero(~plain)
    dots = np.flatnonzero(dotted & plain)
    if other.size > n // 16:
        return None
    # each plain token as one integer: its lead digit and point become spaces
    digits = bytearray(b)
    view = np.frombuffer(digits, np.uint8)
    for i in other.tolist():
        view[starts[i]:ends[i]] = 48
    view[starts[dots]] = 32
    view[starts[dots] + 1] = 32
    try:  # numpy's integer reader refuses every byte a plain token may not hold
        ints = np.fromstring(bytes(digits), dtype=np.uint64, sep=" ")
    except ValueError:
        return None
    if ints.size != n:
        return None
    whole = np.take(lead, dots) == 49
    fractions = np.take(ints, dots)
    if fractions[whole].any():
        return None
    values = (lead == 49).astype(float)
    degrees, undecided = _quotients(fractions, np.take(length, dots) - 2)
    values[dots] = degrees + whole
    for i in np.concatenate([other, dots[undecided]]).tolist():
        v = _number(text[starts[i]:ends[i]])
        if v is None or not 0.0 <= v <= 1.0:
            return None
        values[i] = v
    return values.reshape(rows, cols)


def _quotients(F: np.ndarray, k: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """F / 10**k rounded to the nearest float (ties to even) for F < 2**64
    and k <= 19, and where that rounding is not decided.

    The double-double quotient q1 + q2 is within about 2**-100 of F / 10**k
    relative; its rounded sum x is the correctly rounded quotient unless the
    sum lies within 2**-40 ulp of a midpoint between two floats."""
    fh = F.astype(float)
    fl = (F - fh.astype(np.uint64)).view(np.int64).astype(float)  # F = fh + fl exactly
    d = np.take(_POW10, k)
    q1 = fh / d
    p, e = _times_power(q1, k)
    q2 = fh - p
    q2 -= e
    q2 += fl
    q2 /= d
    x = q1 + q2
    err = q1 - x
    err += q2
    np.abs(err, out=err)
    # a midpoint lies 2**-53 times the power of two at or below x from x
    # (2**-54 below a power of two, where the ulp halves)
    scale = (x.view(np.uint64) & np.uint64(0x7FF0000000000000)).view(float)
    half = scale * 2.0**-53
    undecided = np.abs(err - half) < scale * 2.0**-92
    undecided |= np.abs(err - half * 0.5) < scale * 2.0**-93
    return x, undecided


def _preamble(source, header: str, usage: str, what: str) -> Tuple[ContentLines, int, List[str]]:
    """The lines of ``source`` after its ``header`` line and the keyword line ``usage``
    shows (as ``'grid <n>'``), with that line's number and arguments; ``what`` names an empty file."""
    lines = ContentLines(source)
    lineno, text = next(lines, (None, None))
    if text is None:
        raise RelationParseError(f"empty {what}")
    if text != header:
        raise RelationParseError(f"line {lineno}: expected header {header!r}, got {text!r}")
    keyword = usage.split()[0]
    lineno, text = next(lines, (None, None))
    if text is None:
        raise RelationParseError(f"missing {keyword} line")
    words = text.split()
    if words[0] != keyword or len(words) < 2:
        raise RelationParseError(f"line {lineno}: expected {usage!r}, got {text!r}")
    return lines, lineno, words[1:]


def parse_relation(source: Union[str, Iterable[str]]) -> FuzzyRelation:
    """Parse a relation file given as one string or as an iterable of lines
    (an open file streams: no copy of the whole text is made)."""
    lines, lineno, labels = _preamble(source, FILE_HEADER, "universe <label> ...", "relation file")
    n = len(labels)
    if len(set(labels)) != n:
        raise RelationParseError(f"line {lineno}: duplicate universe labels")
    return FuzzyRelation._adopt(tuple(labels), read_degrees(lines, n, n))


def _parse_table(source: Union[str, Iterable[str]], kind: Kind) -> BinaryOp:
    """The custom operator of an operator table: the bilinear interpolant of
    its (n+1) x (n+1) grid nodes."""
    lines, lineno, words = _preamble(source, "fuzzop v1", "grid <n>", "operator table")
    size = " ".join(words)
    n = _count(size)
    if not n:
        raise RelationParseError(f"line {lineno}: grid size must be a positive integer, got {size!r}")
    mat = read_degrees(lines, n + 1, n + 1)

    def fn(x, y):
        xi = np.clip(np.asarray(x, dtype=float), 0.0, 1.0) * n
        yi = np.clip(np.asarray(y, dtype=float), 0.0, 1.0) * n
        x0 = np.clip(np.floor(xi).astype(int), 0, n - 1)
        y0 = np.clip(np.floor(yi).astype(int), 0, n - 1)
        fx = xi - x0
        fy = yi - y0
        return (
            mat[x0, y0] * (1 - fx) * (1 - fy)
            + mat[x0 + 1, y0] * fx * (1 - fy)
            + mat[x0, y0 + 1] * (1 - fx) * fy
            + mat[x0 + 1, y0 + 1] * fx * fy
        )

    return make_custom(fn, kind)


def _load(path, parse):
    """``parse`` of the UTF-8 text file at ``path``, streamed; each parse
    error starts with ``<path>: ``, and a file that does not decode is named
    with its first line that does not."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(fh)
        except RelationParseError as exc:
            raise RelationParseError(f"{path}: {exc}") from None
        except UnicodeDecodeError:
            pass
    with open(path, "rb") as fh:  # the decoder's own position counts from the start of a read chunk
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                where = f"line {lineno}: byte {exc.start + 1} (0x{raw[exc.start]:02x})"
                raise RelationParseError(f"{path}: {where} is not UTF-8 text") from None
    raise RelationParseError(f"{path}: not UTF-8 text")


def load_relation(path) -> FuzzyRelation:
    return _load(path, parse_relation)


def load_operator_table(path, kind: Kind) -> BinaryOp:
    """The custom operator of kind ``kind`` that the operator table at
    ``path`` holds (see the file formats above)."""
    return _load(path, lambda lines: _parse_table(lines, kind))
