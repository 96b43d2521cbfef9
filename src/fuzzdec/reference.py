"""The declaration of the two reference summary tables.

`CELLS` declares both tables at once: each cell's lambda regimes with their
two reference verdicts.  `tables` reads the reference tables and the
regimes it samples off it, and `open_cell` reads the cells whose rule the
reference leaves open.

The declared verdicts are the reference verdicts with two transcription
slips repaired (see the repository notes): the strong (Lukasiewicz,
Schweizer-Sklar) cell had its 0<lambda<1 / lambda>1 regimes swapped
relative to its own divisor-interval formulas, and the weak Schweizer-Sklar
rule column listed nonexistence on -inf<lambda<=0 where those strictly
increasing conorms provably induce their rule (at lambda=0 the same conorm
is the probabilistic sum, whose cell says exactly that).  Open cells stay
open: they are reported as undetermined, never resolved.
"""

from __future__ import annotations

import operator
import re
from typing import Dict, Optional, Tuple

WEAK_ROW = "weak"

# (row, col) -> ((regime label, table-1 verdict, table-2 verdict), ...).  A
# label reads [a<|a<=]lambda[<b|<=b|>b|=b]; the empty label is every lambda.
# Every cell not listed has no decomposition for any lambda.
CELLS: Dict[Tuple[str, str], Tuple[Tuple[str, str, str], ...]] = {
    ("drastic", "lukasiewicz"): (("", "exists", "compatible"),),
    ("drastic", "schweizer_sklar"): (
        ("lambda<=0", "none", "none"),
        ("0<lambda<+inf", "exists", "undetermined"),
        ("lambda=+inf", "none", "none"),
    ),
    ("lukasiewicz", "lukasiewicz"): (("", "unique", "induced"),),
    ("lukasiewicz", "schweizer_sklar"): (
        ("lambda<=0", "none", "none"),
        # the reference's table 1 swaps the next two regimes against its own intervals
        ("0<lambda<1", "none", "none"),
        ("lambda=1", "unique", "undetermined"),
        ("1<lambda<+inf", "exists", "undetermined"),
        ("lambda=+inf", "none", "none"),
    ),
    ("schweizer_sklar", "lukasiewicz"): (
        ("lambda<1", "none", "none"),
        ("lambda=1", "unique", "induced"),
        ("lambda>1", "exists", "compatible"),
    ),
    ("schweizer_sklar", "schweizer_sklar"): (
        ("lambda<1", "none", "none"),
        ("lambda=1", "unique", "undetermined"),
        ("1<lambda<+inf", "exists", "undetermined"),
        ("lambda=+inf", "none", "none"),
    ),
    (WEAK_ROW, "minimum"): (("", "exists", "induced"),),
    (WEAK_ROW, "lukasiewicz"): (("", "exists", "compatible"),),
    (WEAK_ROW, "product"): (("", "unique", "induced"),),
    (WEAK_ROW, "schweizer_sklar"): (
        ("lambda=-inf", "exists", "induced"),
        # the reference's table 2 says none, but these strictly increasing conorms induce
        ("-inf<lambda<=0", "unique", "induced"),
        ("0<lambda<+inf", "exists", "undetermined"),
        ("lambda=+inf", "none", "none"),
    ),
    (WEAK_ROW, "hamacher"): (("lambda<+inf", "unique", "induced"), ("lambda=+inf", "none", "none")),
}

_REGIME = re.compile(r"(?:(.+?)(<=?))?lambda(?:(<=?|>|=)(.+))?")
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, "=": operator.eq}


def in_regime(label: str, lam: Optional[float]) -> bool:
    """Whether lam lies in the regime a label names (grammar at `CELLS`)."""
    a, op_a, op_b, b = _REGIME.fullmatch(label or "lambda").groups()
    return (a is None or _COMPARE[op_a](float(a), lam)) and (
        b is None or _COMPARE[op_b](lam, float(b))
    )


def open_cell(T, S) -> bool:
    """Whether the rule of conorm S, with norm T (None for the weak row),
    lies in a regime whose status the reference classification leaves open.
    These are reported UNDETERMINED and never resolved, even though the
    computed checks of classify_rule often suggest an answer."""

    if not S.is_builtin or (T is not None and not T.is_builtin):
        return False
    lams = {op.parameter for op in (S, T) if op is not None and op.parameter is not None}
    if len(lams) > 1:  # the reference cells share one lambda between norm and conorm
        return False
    lam = lams.pop() if lams else None
    pos = (WEAK_ROW if T is None else T.family, S.family)
    return any(rule == "undetermined" and in_regime(label, lam) for label, _, rule in CELLS.get(pos, ()))
