"""Three-valued verdicts for numerically checked universal claims.

Properties quantified over all of [0,1] cannot be decided exhaustively by
evaluation, so every yes/no check in this package reports one of three
outcomes: HOLDS, the claim is proven; FAILS, with a witness that reproduces
the failure; or UNKNOWN, the claim survived a sweep or a sample without
being proven, and the detail names the grid, probe set or sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple, Union


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
