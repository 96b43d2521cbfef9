"""Divisor intervals and the existence/uniqueness tests built on them.

For a conorm S and w in [0,1], the one-interval is {t : S(t,w) = 1}; for a
norm T the zero-interval is {t : T(t,w) = 0}.  Monotonicity makes both sets
intervals, always containing 1 (resp. 0).  Every fuzzy relation decomposes
strongly with respect to (T,S) exactly when S is continuous in the first
coordinate and the two intervals intersect for every w; the decomposition is
unique exactly when every intersection is a singleton.  `existence` and
`uniqueness` decide these two characterisations, and their weak
counterparts, for every caller.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .families import DegreeInterval, _DYADIC, _bisect
from .operators import (
    BinaryOp,
    Kind,
    _as_grid,
    check_first_coordinate_continuity,
    check_strictly_increasing_first,
)
from .verdicts import TriState, Verdict, fails, holds, unknown


# ---------------------------------------------------------------------------
# closed forms


def _check_w(w) -> None:
    w = np.asarray(w, dtype=float)
    bad = ~((0.0 <= w) & (w <= 1.0))  # NaN fails this too
    if bad.any():
        raise ValueError(f"w must lie in [0,1], got {float(w[bad][0])!r}")


def one_interval(S: BinaryOp, w) -> DegreeInterval:
    """{t in [0,1] : S(t, w) = 1} for a conorm S, entry by entry for an array of w."""

    if S.kind is not Kind.CONORM:
        raise ValueError("one_interval expects a conorm")
    _check_w(w)
    if not S.is_builtin:
        return bisection_one_interval(S, w)
    return S.record.one_interval(w)


def zero_interval(T: BinaryOp, w) -> DegreeInterval:
    """{t in [0,1] : T(t, w) = 0} for a norm T, entry by entry for an array of w."""

    if T.kind is not Kind.NORM:
        raise ValueError("zero_interval expects a norm")
    _check_w(w)
    if not T.is_builtin:
        return bisection_zero_interval(T, w)
    return T.record.zero_interval(w)


# ---------------------------------------------------------------------------
# bisection over float bit patterns: the fallback for custom operators and an
# independent oracle for the closed forms


def _absorbing_edge(op: BinaryOp, w, boundary: str):
    """Per entry of w: the end inside [0,1] of {t : op(t, w) = a}, a the
    absorbing element (1 for a conorm, 0 for a norm), which op reaches and
    the next float outside does not.  The first w with op(a, w) != a is named."""
    w = np.asarray(w, dtype=float)
    a = 1.0 if op.kind is Kind.CONORM else 0.0

    def absorbed(t):
        return op.evaluator(np.broadcast_to(t, w.shape), w) == a

    bad = np.flatnonzero(~absorbed(a))
    if bad.size:
        at = float(w.flat[bad[0]])
        raise ValueError(
            f"operator violates the {op.kind.value} boundary {boundary} at w={at!r}: got {op(a, at)!r}"
        )
    # [edge, 1] for a conorm, [0, edge] for a norm: all of [0,1] where it holds the far end 1 - a
    return _bisect(absorbed, 1.0 - a, np.where(absorbed(1.0 - a), 1.0 - a, a))[1]


def bisection_one_interval(S: BinaryOp, w) -> DegreeInterval:
    """Numerically computed one-interval, ignoring closed forms."""
    return DegreeInterval.closed(_absorbing_edge(S, w, "S(1,w) = 1"), 1.0)


def bisection_zero_interval(T: BinaryOp, w) -> DegreeInterval:
    """Numerically computed zero-interval, ignoring closed forms."""
    return DegreeInterval.closed(0.0, _absorbing_edge(T, w, "T(0,w) = 0"))


# ---------------------------------------------------------------------------
# existence / uniqueness of strong decompositions


def _classified(T: BinaryOp, S: BinaryOp) -> Optional[Tuple[bool, bool]]:
    """(exists, unique) for a classified built-in pair: whether the divisor
    intervals meet for every w, and whether they meet in one point for
    every w.  None for a custom operator, and for a Schweizer-Sklar norm
    against a Schweizer-Sklar conorm at two different lambdas, neither 1,
    the smaller below 1 (not a classified pairing; swept instead).

    Both verdicts follow from the exponents p of T and q of S.  At w = 0 the
    zero-interval is all of [0,1]; at w = 1 the one-interval is all of
    [0,1] and 0 always lies in the zero-interval: only interior w can fail.
    A point interval ({0} or {1}) never meets the other one there; a
    drastic interval ([0,1) or (0,1]) always does.  Power intervals
    [0, f_p(w)] and [1 - f_q(1-w), 1], f_p(w) = (1 - w^p)^(1/p), meet iff
    f_p(w) + f_q(1-w) >= 1.  For p >= 1, f_p >= f_1 (l^p norms fall as p
    grows; Hardy, Littlewood and Polya, *Inequalities*, 1934), so
    min(p, q) >= 1 gives f_p(w) + f_q(1-w) >= (1-w) + w = 1, with equality
    for every w only at p = q = 1, where the intersection is {1-w}; for
    p < 1, f_p < f_1 on (0,1), so the classified pairs with min(p, q) < 1
    (one exponent 1, or both equal) fail.
    """

    if not (T.is_builtin and S.is_builtin):
        return None
    p, q = T.record.exponent, S.record.exponent
    if p != q and 0.0 < min(p, q) < 1.0 and max(p, q) not in (1.0, math.inf):
        return None
    return 0.0 not in (p, q) and (math.inf in (p, q) or min(p, q) >= 1.0), p == q == 1.0


def intersection(T: BinaryOp, S: BinaryOp, w) -> DegreeInterval:
    """{t : S(t, w) = 1 and T(t, w) = 0}, entry by entry for an array of w."""
    return one_interval(S, w).intersect(zero_interval(T, w))


# toward 1, where one-intervals are widest, then toward 0, where large-exponent zero-intervals resolve
_CLASSIFIED_PROBES = np.concatenate([1.0 - _DYADIC[:51], _DYADIC[:51]])


def _probes(T: BinaryOp, S: BinaryOp) -> tuple:
    """The w probed after w = 0.5 (the single-w path is ~10x cheaper than an
    array call, and it gives the most readable witness), and how an UNKNOWN
    verdict names all of them: `_CLASSIFIED_PROBES` for a classified pair,
    the sweep grid otherwise."""
    if _classified(T, S) is not None:
        return _CLASSIFIED_PROBES, f"w = 0.5 and {_CLASSIFIED_PROBES.size} dyadic w toward 0 and 1"
    grid = _as_grid(1e-3, T, S)
    return grid[grid != 0.5], f"w = 0.5 and the {grid.size}-point grid of step 0.001"


def _witness(T: BinaryOp, S: BinaryOp, probes: np.ndarray, unique: bool):
    """(witness, detail) at the first w, 0.5 and then ``probes``, that
    disproves existence, (w,) with disjoint intervals, or uniqueness,
    (w, t1, t2) with S(t, w) = 1 and T(t, w) = 0 for both t (a value rounds
    the same alone or in an array, so the scalar replay sees what the probe
    array saw); None if no probe does."""
    for ws in (0.5, probes):
        one, zero = one_interval(S, ws), zero_interval(T, ws)
        inter = one.intersect(zero)
        ws = np.atleast_1d(ws)
        if not unique:
            hits = np.flatnonzero(inter.empty)
            if hits.size:
                w = float(ws[hits[0]])
                if ws.size > 1:  # the message shows the intervals at w alone
                    one, zero = one_interval(S, w), zero_interval(T, w)
                return (w,), f"at w={w!r}: one-interval {one} and zero-interval {zero} are disjoint"
            continue
        t1, t2 = (np.atleast_1d(t) for t in inter.two_points())
        for k in np.flatnonzero(~np.isnan(t1)).tolist():
            w, pts = float(ws[k]), (float(t1[k]), float(t2[k]))
            if all(S(t, w) == 1.0 and T(t, w) == 0.0 for t in pts):
                return (w, *pts), f"at w={w!r} both t={pts[0]!r} and t={pts[1]!r} decompose the pair"
    return None


def strong_existence(T: BinaryOp, S: BinaryOp) -> TriState:
    """Whether every fuzzy relation admits a strong decomposition under (T,S):
    S continuous in the first coordinate and the divisor intervals intersect
    at every w.  Analytic over all w for classified built-in pairs; a failure
    is witnessed at the first of `_probes` with disjoint intervals."""

    if T.kind is not Kind.NORM or S.kind is not Kind.CONORM:
        raise ValueError("strong_existence expects (norm, conorm)")
    cont = existence(S)
    if cont.verdict is Verdict.FAILS:
        return cont

    if (_classified(T, S) or (False, False))[0]:
        return holds("divisor intervals intersect for every w")
    probes, probed = _probes(T, S)
    found = _witness(T, S, probes, unique=False)
    if found is not None:
        return fails(*found)
    why = cont.detail if cont.verdict is Verdict.UNKNOWN else "pair not analytically classified"
    return unknown(f"divisor intervals intersect at {probed}; {why}")


def strong_uniqueness(T: BinaryOp, S: BinaryOp) -> TriState:
    """Existence plus |intersection| = 1 for every w."""

    exist = strong_existence(T, S)
    if exist.verdict is Verdict.FAILS:
        return exist
    if (_classified(T, S) or (False, False))[1]:
        return holds("intersection is the singleton {1-w} for every w")
    probes, probed = _probes(T, S)
    found = _witness(T, S, probes, unique=True)
    if found is None:
        return unknown(f"no w among {probed} shows two points that decompose the pair")
    return fails(*found)


# ---------------------------------------------------------------------------
# the paper's two characterisations, weak (T None) and strong


def existence(S: BinaryOp, T: Optional[BinaryOp] = None) -> TriState:
    """Whether every fuzzy relation decomposes weakly under the conorm S
    (T None), or strongly under (T,S).  Weakly exactly when S is continuous
    in the first coordinate; strongly when, besides, the divisor intervals
    meet for every w (`strong_existence`)."""

    if T is not None:
        return strong_existence(T, S)
    if S.kind is not Kind.CONORM:
        raise ValueError("existence expects a conorm")
    cont = check_first_coordinate_continuity(S)
    if cont.verdict is Verdict.FAILS:
        return fails(cont.witness, f"conorm discontinuous in the first coordinate: {cont.detail}")
    return cont


def uniqueness(S: BinaryOp, T: Optional[BinaryOp] = None) -> TriState:
    """Whether every fuzzy relation decomposes in exactly one way, weakly
    under S (T None) or strongly under (T,S): existence, and then S strictly
    increasing in the first coordinate (weak) or every divisor-interval
    intersection a singleton (strong, `strong_uniqueness`)."""

    if T is not None:
        return strong_uniqueness(T, S)
    exist = existence(S)
    if exist.verdict is Verdict.FAILS:
        return exist
    # strictness HOLDS only for a built-in conorm, whose existence is then proven
    return check_strictly_increasing_first(S)
