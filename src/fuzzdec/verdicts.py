"""Three-valued verdicts for numerically checked universal claims.

Properties quantified over all of [0,1] cannot be decided exhaustively by
evaluation, so every yes/no check in this package reports one of three
outcomes: HOLDS, the claim is proven; FAILS, with a witness that reproduces
the failure; or UNKNOWN, the claim survived a sweep or a sample without
being proven, and the detail names the grid, probe set or sample.

Whole-matrix checks run in row blocks (`_row_blocks`) and stop at the first
block that holds a violation (`_first_cell`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional, Tuple, Union

import numpy as np

# Whole-matrix work runs in row blocks of at most this many cells (or one row,
# where a row alone is larger), so no temporary outgrows one block.
_BLOCK_CELLS = 1 << 16


def _row_blocks(rows: int, cells_per_row: int, cap: Optional[int] = None) -> Iterator[slice]:
    """Consecutive row slices covering ``range(rows)``, each spanning at most
    ``cap`` (by default ``_BLOCK_CELLS``) cells of ``cells_per_row`` per row
    (at least one row)."""
    step = max(1, (cap or _BLOCK_CELLS) // max(1, cells_per_row))
    for lo in range(0, rows, step):
        yield slice(lo, min(lo + step, rows))


def _first_cell(n: int, mask_of: Callable[[slice], np.ndarray]) -> Optional[Tuple[int, int]]:
    """Row-major first True cell of the n x n mask that ``mask_of`` builds one
    row block at a time, or None.  No block after the first hit is built.
    A block mask narrower than n holds the last columns of its rows."""
    for rows in _row_blocks(n, n):
        mask = mask_of(rows)
        if mask.any():
            a, b = np.argwhere(mask)[0]
            return (rows.start + int(a), n - mask.shape[1] + int(b))
    return None


class Verdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class TriState:
    """Outcome of a universally quantified check.

    A FAILS verdict always carries a witness; re-evaluating the checked
    property at the witness reproduces the failure.  A witness holds
    degrees, or the universe labels of a relation's cells.
    """

    verdict: Verdict
    witness: Optional[Tuple[Union[float, str], ...]] = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict is not Verdict.FAILS

    def __str__(self) -> str:
        head = f"FAILS witness={self.witness}" if self.verdict is Verdict.FAILS else self.verdict.name
        return head + (f" -- {self.detail}" if self.detail else "")


def holds(detail: str = "") -> TriState:
    return TriState(Verdict.HOLDS, None, detail)


def fails(witness: Tuple[Union[float, str], ...], detail: str = "") -> TriState:
    if witness is None:
        raise ValueError("a failing verdict requires a witness")
    return TriState(Verdict.FAILS, tuple(v if isinstance(v, str) else float(v) for v in witness), detail)


def unknown(detail: str = "") -> TriState:
    return TriState(Verdict.UNKNOWN, None, detail)
