"""Geometry of decomposable value pairs.

Whether a relation decomposes depends only on the unordered value pairs
(R(x,y), R(y,x)) it realises, so decomposability is a region of the unit
square: cell (a,b) is in the weak region of S when some t reconstructs the
pair (S(t, min) = max, with t forced to 0 if min = 1), and in the strong
region of (T,S) when such a t also satisfies T(t, min) = 0.

Regions are rasterised on uniform grids for figure reproduction, and power
the restricted-domain test: an S'-connected relation has S'(R(x,y), R(y,x))
= 1 for every ordered pair, which confines its value pairs to the set where
the connecting conorm reaches 1 in both orders and can rescue an otherwise
undecomposable conorm.  `t_transitive_closure` gives the least transitive
relation above a relation: one pass of Warshall's n pivot updates for a
built-in norm, and passes repeated to a fixpoint for a custom norm, which
may not be associative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .operators import _FINEST_STEP, EPSILON, BinaryOp, Kind
from .decompose import residual_array
from .divisors import _classified, existence, intersection
from .relations import FuzzyRelation, _pivot_term, _spellings
from .verdicts import TriState, Verdict, _first_cell, _row_blocks, fails, holds, unknown


@dataclass(frozen=True)
class RegionGrid:
    """Boolean rasterisation of a decomposability region over [0,1]^2."""

    axis: np.ndarray
    membership: np.ndarray

    def __post_init__(self):
        n = self.membership.shape[0]
        if self.membership.shape != (n, n) or self.axis.shape != (n,):
            raise ValueError("membership must be square and match the axis")

    @cached_property
    def _csv_parts(self):
        """The axis texts and the ``b,0``/``b,1`` line tails, once per grid."""
        values = _spellings(self.axis)
        all_members = [f"{b},1\n" for b in values]
        tail0 = np.array([f"{b},0\n" for b in values], dtype=object)
        return values, tail0, np.array(all_members, dtype=object), all_members

    def to_csv(self, rows: slice = slice(0, None)) -> str:
        """``a,b,member`` lines of the grid rows in ``rows`` (all by default),
        ``a`` outer, each axis value spelled as a degree in a relation file
        (the shortest spelling for the float of a decimal of at most 6
        places, 17 significant digits for any other, ``0`` and ``1``), so
        it reads back as the same float; the header line only when the
        slice starts at row 0."""
        values, tail0, tail1, all_members = self._csv_parts
        lines = ["a,b,member\n"] if rows.indices(len(values))[0] == 0 else []
        member = self.membership[rows]
        for a, member_row, full in zip(values[rows], member, member.all(axis=1).tolist()):
            head = a + ","
            tails = all_members if full else np.where(member_row, tail1, tail0).tolist()
            lines += (head, head.join(tails))
        return "".join(lines)

    def save_csv(self, path) -> None:
        """Write `to_csv` one row block at a time, so no text the size of the
        file is ever built.  `_row_blocks` sizes a block for 64K float cells,
        and a CSV line holds at most about 5 times a float cell's bytes:
        ``4 * n`` cells per row give blocks of about 16K lines, 0.3 MB of
        text at 1/2000 (whose axis values average 7.4 bytes) and at most
        about 0.7 MB (all in 17 digits)."""
        n = self.axis.size
        with open(path, "w", encoding="utf-8") as fh:
            for s in _row_blocks(n, 4 * n):
                fh.write(self.to_csv(s))


def _axis(resolution: float) -> np.ndarray:
    if resolution < _FINEST_STEP:
        got = f"1/{1.0 / resolution:.15g}" if resolution > 0 else repr(resolution)
        raise ValueError(f"resolution below 1/2000 is not supported, got {got}")
    if not resolution <= 1.0:  # also NaN, which fails every comparison
        raise ValueError(f"resolution must lie in [1/2000, 1], got {resolution!r}")
    return np.linspace(0.0, 1.0, round(1.0 / resolution) + 1)


def _decomposable(S: BinaryOp, T: Optional[BinaryOp], i, r, meets) -> np.ndarray:
    """Elementwise: whether the value pair with smaller coordinate i and
    larger coordinate r (arrays of at least one dimension) decomposes weakly
    under S (T None) or strongly under (T,S).  On the diagonal t = 0 does;
    elsewhere the residual t must reconstruct, S(t,i) = r, and strongly also
    vanish, T(t,i) = 0.  On the r = 1 edge (the only axis value within
    EPSILON of 1 is 1 itself) t = 1 decomposes weakly, and strongly
    ``meets(i)``, whether the divisor intervals intersect at w = i, decides,
    which catches attaining values the unattained residual misses for
    discontinuous conorms.  One float buffer holds the reconstruction gap
    and then the diagonal bound, to save block-sized temporaries."""
    t = residual_array(S, i, r)
    work = np.subtract(S.evaluator(t, i), r)
    member = np.abs(work, out=work) <= EPSILON
    if T is not None:
        member &= T.evaluator(t, i) <= EPSILON
    member |= r <= np.add(i, EPSILON, out=work)
    edge = (r >= 1.0 - EPSILON) & (i < 1.0)
    if edge.any():
        member[edge] = True if T is None else meets(i[edge])
    return member


def weak_region(S: BinaryOp, resolution: float = 1 / 200) -> RegionGrid:
    """Cells (a,b) whose value pair admits a weak decomposition under S.

    With i = min(a,b) and r = max(a,b) the pair decomposes when some t has
    S(t,i) = r exactly (t = 0 handles r = i, t = 1 handles r = 1, and in
    between the residual infimum must be attained).  For conorms continuous
    in the first coordinate this is all of the square.
    """

    return _region(*_cell_test("weak_region", resolution, S))


def strong_region(T: BinaryOp, S: BinaryOp, resolution: float = 1 / 200) -> RegionGrid:
    """Cells (a,b) whose value pair admits a strong decomposition under
    (T,S): some t with S(t,i) = r and T(t,i) = 0.  On the r = 1 edge the
    attaining set is the divisor-interval intersection; elsewhere the
    residual is the only candidate that can also vanish under T.
    """

    return _region(*_cell_test("strong_region", resolution, S, T))


def _cell_test(check: str, resolution: float, S: BinaryOp, T: Optional[BinaryOp] = None):
    """The grid axis and ``cell_test(i, r)`` of the weak region of S (T None)
    or of the strong region of (T,S), once the operator kinds are checked
    (an error names ``check``, the function called).  The strong test reads
    the divisor-interval intersection at every axis value below 1 from one
    array call (an array `intersection` has a fixed cost of about 0.1 ms; a
    value rounds the same alone or in an array)."""
    if S.kind is not Kind.CONORM or (T is not None and T.kind is not Kind.NORM):
        raise ValueError(f"{check} expects {'a conorm' if T is None else '(norm, conorm)'}")
    ax = _axis(resolution)
    meets = None if T is None else ~intersection(T, S, ax[:-1]).empty
    return ax, lambda i, r: _decomposable(S, T, i, r, lambda w: meets[np.searchsorted(ax, w)])


def _region(ax: np.ndarray, test) -> RegionGrid:
    """The region whose ``test(i, r)`` gets the smaller and the larger
    coordinate of each cell, so membership is symmetric: a row block is
    evaluated from its first row's diagonal on and written with its
    transpose, and the columns before it come from earlier transposes."""
    member = np.empty((ax.size, ax.size), dtype=bool)
    for s in _row_blocks(ax.size, ax.size):
        a, b = ax[s, None], ax[s.start:]
        block = test(np.minimum(a, b), np.maximum(a, b))
        member[s.start:, s] = block.T
        member[s, s.start:] = block
    return RegionGrid(ax, member)


def restricted_decomposability(
    S_prime: BinaryOp,
    S: BinaryOp,
    T: Optional[BinaryOp] = None,
    resolution: float = 1 / 200,
) -> TriState:
    """Whether every value pair allowed by S'-connectedness lies in the
    (weak or strong) decomposability region: connected relations all
    decompose exactly when {(a,b) : S'(a,b) = S'(b,a) = 1} sits inside the
    region.

    The grid is walked in the row blocks of the region rasters, each from
    its first row's diagonal to the right edge, and only the connected
    cells go through the cell test.  A built-in S' commutes, so one
    evaluation serves both orders; a custom S' is evaluated in both.  The
    connected set is symmetric like the region, so the row-major first
    escaping cell, which `_first_cell` finds, is the witness.
    A clean raster proves nothing between its grid points: it is HOLDS only
    when `existence` HOLDS (every relation decomposes), or under a built-in
    S' whose one-interval is {1} (exponent 0), which connects only pairs
    (i, 1): each decomposes weakly by t = 1, and strongly iff the divisor
    intervals meet at w = i, which `_classified` proves for every w of a
    classified pair; otherwise it is UNKNOWN."""

    if S_prime.kind is not Kind.CONORM:
        raise ValueError("the connecting operator must be a conorm")
    ax, test = _cell_test("restricted_decomposability", resolution, S, T)

    def connected(x, y):
        return S_prime.evaluator(x, y) >= 1.0 - EPSILON

    def escaping(s):
        a, b = ax[s, None], ax[s.start:]
        tested = connected(a, b) if S_prime.is_builtin else connected(a, b) & connected(b, a)
        if tested.all():
            return ~test(np.minimum(a, b), np.maximum(a, b))
        a, b = np.broadcast_to(a, tested.shape)[tested], np.broadcast_to(b, tested.shape)[tested]
        bad = np.zeros_like(tested)
        bad[tested] = ~test(np.minimum(a, b), np.maximum(a, b))
        return bad

    bad = _first_cell(ax.size, escaping)
    if bad is not None:
        i, j = bad
        return fails(
            (float(ax[i]), float(ax[j])),
            f"pair ({float(ax[i])!r},{float(ax[j])!r}) is {S_prime.display_name}-connected "
            "but not decomposable",
        )
    exist = existence(S, T)
    if exist.verdict is Verdict.HOLDS:
        return holds(f"every relation decomposes: {exist.detail}")
    if S_prime.is_builtin and S_prime.record.exponent == 0.0:
        ends = f"{S_prime.display_name} connects only pairs (i, 1), and "
        if T is None:
            return holds(ends + "t = 1 decomposes each weakly")
        if (_classified(T, S) or (False, False))[0]:
            return holds(ends + "the divisor intervals meet at every w")
    return unknown(
        f"no connected value pair escapes the region on the {ax.size}x{ax.size} grid of step 1/{ax.size - 1}"
    )


# ---------------------------------------------------------------------------
# transitive closure


def t_transitive_closure(R: FuzzyRelation, T_prime: BinaryOp) -> FuzzyRelation:
    """Least T'-transitive relation above R.

    Warshall's pivot pass (Naessens, De Meyer and De Baets, IEEE Trans.
    Fuzzy Systems 10, 2002) runs m = max(m, T'(m[:, k], m[k, :])) in place
    for k = 0..n-1.  Each update reads row and column k whole before it
    writes, and a norm never exceeds min, so the pivot row and column cannot
    change under it.  Every update is forced on the closure, so m never
    leaves the region between R and it.  For an associative T', as every
    built-in norm is, one pass is the closure.  A custom norm is not known
    to be associative, so its pass repeats until a pass moves nothing by
    more than EPSILON (at most max(2, |X|) passes): a pass that changes
    nothing leaves m transitive."""

    if T_prime.kind is not Kind.NORM:
        raise ValueError("transitive closure expects a norm")
    m = R.degrees.copy()
    for _ in range(1 if T_prime.is_builtin else max(2, R.size)):
        old = None if T_prime.is_builtin else m.copy()
        for k in range(R.size):
            np.maximum(m, _pivot_term(m, T_prime, k), out=m)
        if old is None or np.all(m - old <= EPSILON):
            break
    return FuzzyRelation._adopt(R.universe, np.clip(m, 0.0, 1.0))
