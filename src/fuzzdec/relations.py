"""Finite fuzzy binary relations and their structural predicates.

A relation is a square membership matrix over an ordered universe of labels;
row index is the first argument.  Equality-style predicates (symmetry,
crispness) compare stored degrees exactly, while predicates that involve
operator evaluations (transitivity, connectedness) allow the package-wide
1e-9 tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .operators import EPSILON, BinaryOp, Kind

FILE_HEADER = "fuzzrel v1"


class RelationParseError(ValueError):
    """Raised on malformed relation files; the message pinpoints row/column."""


@dataclass(frozen=True, eq=False)
class FuzzyRelation:
    """Membership matrix R: X x X -> [0,1] over an ordered label universe."""

    universe: Tuple[str, ...]
    degrees: np.ndarray = field(compare=False)

    def __post_init__(self):
        labels = tuple(str(u) for u in self.universe)
        mat = np.array(self.degrees, dtype=float, copy=True)
        n = len(labels)
        if len(set(labels)) != n:
            raise ValueError("universe labels must be distinct")
        if mat.shape != (n, n):
            raise ValueError(f"degree matrix must be {n}x{n}, got {mat.shape}")
        outside = ~((mat >= 0.0) & (mat <= 1.0))  # NaN counts as outside
        if outside.any():
            bad = np.argwhere(outside)[0]
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

    def transpose(self) -> "FuzzyRelation":
        return FuzzyRelation(self.universe, self.degrees.T)

    def equals(self, other: "FuzzyRelation") -> bool:
        return self.universe == other.universe and np.array_equal(
            self.degrees, other.degrees
        )

    def __str__(self) -> str:
        return format_relation(self)


def relation_from_dict(universe: Sequence[str], entries: dict, default: float = 0.0) -> FuzzyRelation:
    """Convenience constructor: entries maps (x, y) label pairs to degrees."""
    labels = list(universe)
    n = len(labels)
    mat = np.full((n, n), float(default))
    for (x, y), v in entries.items():
        mat[labels.index(x), labels.index(y)] = v
    return FuzzyRelation(tuple(labels), mat)


# ---------------------------------------------------------------------------
# predicates


def is_symmetric(R: FuzzyRelation) -> bool:
    return bool(np.array_equal(R.degrees, R.degrees.T))


def is_asymmetric(R: FuzzyRelation) -> bool:
    """R(x,y) > 0 forces R(y,x) = 0 (and hence a zero diagonal)."""
    m = R.degrees
    return not bool(np.any((m > 0.0) & (m.T > 0.0)))


def is_reflexive(R: FuzzyRelation) -> bool:
    return bool(np.all(np.diag(R.degrees) == 1.0))


def is_crisp(R: FuzzyRelation) -> bool:
    m = R.degrees
    return bool(np.all((m == 0.0) | (m == 1.0)))


def is_t_transitive(R: FuzzyRelation, T: BinaryOp) -> bool:
    """R(x,z) >= T(R(x,y), R(y,z)) for every triple, within tolerance."""
    if T.kind is not Kind.NORM:
        raise ValueError("transitivity expects a norm")
    m = R.degrees
    comp = np.asarray(T.evaluator(m[:, :, None], m[None, :, :]), dtype=float)
    needed = comp.max(axis=1)
    return bool(np.all(m >= needed - EPSILON))


def is_s_connected(R: FuzzyRelation, S: BinaryOp) -> bool:
    """S(R(x,y), R(y,x)) = 1 for every pair (including x = y), within
    tolerance."""
    if S.kind is not Kind.CONORM:
        raise ValueError("connectedness expects a conorm")
    m = R.degrees
    vals = np.asarray(S.evaluator(m, m.T), dtype=float)
    return bool(np.all(vals >= 1.0 - EPSILON))


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


def format_relation(R: FuzzyRelation) -> str:
    lines = [FILE_HEADER, "universe " + " ".join(R.universe)]
    row_format = " ".join(["%.17g"] * R.size)
    for row in R.degrees:
        lines.append(row_format % tuple(row.tolist()))
    return "\n".join(lines) + "\n"


def parse_relation(text: str) -> FuzzyRelation:
    raw_lines = text.splitlines()
    lines = []
    for idx, line in enumerate(raw_lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            lines.append((idx, stripped))
    if not lines:
        raise RelationParseError("empty relation file")
    lineno, header = lines[0]
    if header != FILE_HEADER:
        raise RelationParseError(
            f"line {lineno}: expected header {FILE_HEADER!r}, got {header!r}"
        )
    if len(lines) < 2:
        raise RelationParseError("missing universe line")
    lineno, uline = lines[1]
    parts = uline.split()
    if parts[0] != "universe" or len(parts) < 2:
        raise RelationParseError(
            f"line {lineno}: expected 'universe <label> ...', got {uline!r}"
        )
    labels = parts[1:]
    n = len(labels)
    if len(set(labels)) != n:
        raise RelationParseError(f"line {lineno}: duplicate universe labels")
    body = lines[2:]
    if len(body) != n:
        raise RelationParseError(
            f"expected {n} matrix rows, found {len(body)}"
        )
    mat = np.zeros((n, n))
    for r, (lineno, row_text) in enumerate(body):
        cells = row_text.split()
        if len(cells) != n:
            raise RelationParseError(
                f"line {lineno}: row {r + 1} has {len(cells)} entries, expected {n}"
            )
        try:
            mat[r] = list(map(float, cells))
            if ((mat[r] >= 0.0) & (mat[r] <= 1.0)).all():  # NaN fails too
                continue
        except ValueError:
            pass
        for c, cell in enumerate(cells):  # name the row's first offending cell
            try:
                v = float(cell)
            except ValueError:
                raise RelationParseError(
                    f"line {lineno}: row {r + 1}, column {c + 1}: not a number: {cell!r}"
                ) from None
            if not 0.0 <= v <= 1.0:
                raise RelationParseError(
                    f"line {lineno}: row {r + 1}, column {c + 1}: degree {v!r} outside [0,1]"
                )
    return FuzzyRelation(tuple(labels), mat)


def load_relation(path) -> FuzzyRelation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_relation(fh.read())


def save_relation(R: FuzzyRelation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_relation(R))
