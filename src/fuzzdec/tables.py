"""Machine-checked regeneration of the reference decomposability tables.

Two summary tables cover the standard operator families: one records, for
each (norm, conorm) pairing and for weak decomposition per conorm, whether
every relation decomposes and whether uniquely; the other records whether
the canonical decomposition yields a preference-forming rule, whether that
rule is the only preference-forming choice, or whether the question is
open.  Parametric families are summarised per lambda regime; a regime whose
samples disagree raises instead of summarising.

The declaration both tables are checked against, `CELLS`, lives in
`reference`; the words of both tables, the regimes the generators sample
and the open cells are read off it here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .divisors import existence, uniqueness
from .families import PARAMETRIC
from .operators import BinaryOp, make_conorm, make_norm
from .preferences import RuleClass, classify_rule
from .reference import CELLS, WEAK_ROW, in_regime
from .verdicts import Verdict

# the families of both the rows (norms) and the columns (conorms)
CONORM_FAMILIES = ("drastic", "minimum", "lukasiewicz", "product", "schweizer_sklar", "hamacher")

CONORM_LABELS = {
    "drastic": "Drastic",
    "minimum": "Maximum",
    "lukasiewicz": "Lukasiewicz",
    "product": "Probabilistic",
    "schweizer_sklar": "Schweizer-Sklar",
    "hamacher": "Hamacher",
}
NORM_LABELS = {**CONORM_LABELS, "minimum": "Minimum", "product": "Product"}
ROWS = CONORM_FAMILIES + (WEAK_ROW,)

LAMBDA_SAMPLES = (-math.inf, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, math.inf)


# The lambdas a Hamacher row or column is sampled at.  The family takes
# lambda >= 0; its row stops short of +inf, where the norm is the drastic
# one and the row would repeat the drastic row.
_ROW_SCOPE = {"hamacher": "0<=lambda<+inf"}
_COL_SCOPE = {"hamacher": "0<=lambda"}

def _declared(row: str, col: str) -> Tuple[Tuple[str, str, str], ...]:
    """(regime label, table-1 word, table-2 word) of each regime of a cell."""
    return CELLS.get((row, col), (("", "none", "none"),))


# (row, col, regime label) of each regime whose rule the reference leaves open
OPEN_CELLS: Tuple[Tuple[str, str, str], ...] = tuple(
    (row, col, label)
    for row in ROWS
    for col in CONORM_FAMILIES
    for label, _, rule in _declared(row, col)
    if rule == "undetermined"
)


@dataclass(frozen=True)
class TableCell:
    row: str
    col: str
    entries: Tuple[Tuple[str, str], ...]  # (regime label, word)

    def verdict_for(self, label: str = "") -> str:
        for lab, v in self.entries:
            if lab == label:
                return v
        raise KeyError(f"no regime {label!r} in cell ({self.row}, {self.col})")

    def render(self) -> str:
        if len(self.entries) == 1 and self.entries[0][0] == "":
            return self.entries[0][1]
        return "; ".join(f"{lab}: {v}" for lab, v in self.entries)


def _lambdas(row: str, col: str, label: str, lambda_samples: Sequence[float]) -> List[Optional[float]]:
    """The samples a regime of a cell is checked at; [None] for a cell of
    two non-parametric families."""
    if row not in PARAMETRIC and col not in PARAMETRIC:
        return [None]
    scopes = (label, _ROW_SCOPE.get(row, ""), _COL_SCOPE.get(col, ""))
    vals = [lam for lam in lambda_samples if all(in_regime(s, lam) for s in scopes)]
    if not vals:
        raise ValueError(
            f"lambda samples do not cover regime {label!r} of cell ({row}, {col})"
        )
    return vals


def _ops_for(row: str, col: str, lam: Optional[float]) -> Tuple[Optional[BinaryOp], BinaryOp]:
    T = None if row == WEAK_ROW else make_norm(row, lam if row in PARAMETRIC else None)
    S = make_conorm(col, lam if col in PARAMETRIC else None)
    return T, S


class RegimeConsistencyError(RuntimeError):
    """A declared lambda regime produced different verdicts for different
    samples: the regime structure itself is wrong."""


def _summarise(row, col, label, verdicts):
    distinct = set(verdicts)
    if len(distinct) != 1:
        raise RegimeConsistencyError(
            f"cell ({row}, {col}) regime {label!r}: mixed verdicts {sorted(distinct)}"
        )
    return next(iter(distinct))


# ---------------------------------------------------------------------------
# engine verdicts


def _engine_table1(T: Optional[BinaryOp], S: BinaryOp) -> str:
    if existence(S, T).verdict is not Verdict.HOLDS:
        return "none"
    if uniqueness(S, T).verdict is Verdict.HOLDS:
        return "unique"
    return "exists"


def _engine_table2(T: Optional[BinaryOp], S: BinaryOp) -> str:
    verdict = classify_rule(S, T).verdict
    # a rule class is worded as in the table, but for not-compatible (none)
    if verdict is RuleClass.NOT_COMPATIBLE:
        return "none"
    return verdict.value


def _generate(which: int, lambda_samples: Sequence[float]) -> List[TableCell]:
    engine = _engine_table1 if which == 1 else _engine_table2
    cells: List[TableCell] = []
    for row in ROWS:
        for col in CONORM_FAMILIES:
            entries = []
            for label, *_ in _declared(row, col):
                verdicts = [
                    engine(*_ops_for(row, col, lam))
                    for lam in _lambdas(row, col, label, lambda_samples)
                ]
                entries.append((label, _summarise(row, col, label, verdicts)))
            cells.append(TableCell(row, col, tuple(entries)))
    return cells


def generate_table1() -> List[TableCell]:
    """Existence/uniqueness verdicts computed by `divisors.existence` and
    `divisors.uniqueness`, one cell per (norm family, conorm family) plus a
    weak-decomposition row."""
    return _generate(1, LAMBDA_SAMPLES)


def generate_table2() -> List[TableCell]:
    """Rule-classification verdicts computed by classify_rule."""
    return _generate(2, LAMBDA_SAMPLES)


# ---------------------------------------------------------------------------
# diffing and rendering


@dataclass(frozen=True)
class TableMismatch:
    row: str
    col: str
    regime: str
    expected: str
    got: str

    def __str__(self) -> str:
        where = f"({self.row}, {self.col})" + (f" [{self.regime}]" if self.regime else "")
        return f"{where}: expected {self.expected}, got {self.got}"


def diff_against_reference(cells: List[TableCell], which: int) -> List[TableMismatch]:
    return [
        TableMismatch(cell.row, cell.col, entry[0], entry[which], got)
        for cell in cells
        for entry in _declared(cell.row, cell.col)
        if (got := cell.verdict_for(entry[0])) != entry[which]
    ]


def render_table(cells: List[TableCell], fmt: str = "text") -> str:
    by_pos = {(c.row, c.col): c for c in cells}
    if fmt == "csv":
        lines = ["row,conorm,regime,verdict"]
        for row in ROWS:
            for col in CONORM_FAMILIES:
                for label, v in by_pos[(row, col)].entries:
                    lines.append(f"{_row_label(row)},{CONORM_LABELS[col]},{label},{v}")
        return "\n".join(lines) + "\n"
    header = ["T \\ S"] + [CONORM_LABELS[c] for c in CONORM_FAMILIES]
    table_rows = [header]
    for row in ROWS:
        table_rows.append([_row_label(row)] + [by_pos[(row, col)].render() for col in CONORM_FAMILIES])
    widths = [max(len(r[k]) for r in table_rows) for k in range(len(header))]
    out = []
    for r in table_rows:
        out.append(" | ".join(cell.ljust(widths[k]) for k, cell in enumerate(r)))
    out.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join(out) + "\n"


def _row_label(row: str) -> str:
    if row == WEAK_ROW:
        return "Weak decomposition"
    return NORM_LABELS[row]


def oracle_evidence_for_open_cells() -> List[str]:
    """What the computed checks of classify_rule say about the open cells of
    the rule table, each at the first lambda sample of its regime.
    Informational only: the open cells stay undetermined."""

    lines = []
    for row, col, label in OPEN_CELLS:
        T, S = _ops_for(row, col, _lambdas(row, col, label, LAMBDA_SAMPLES)[0])
        says = classify_rule(S, T).oracle_verdict.value  # always set on an open built-in cell
        where = f"({_row_label(row)}, {CONORM_LABELS[col]})" + (f" [{label}]" if label else "")
        lines.append(f"{where}: oracle says {says}")
    return sorted(lines)
