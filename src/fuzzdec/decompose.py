"""Decomposition of a fuzzy relation into strict preference and indifference.

Any reconstruction R = S(P, I) with P asymmetric and I symmetric forces
I(x,y) = min(R(x,y), R(y,x)); the canonical strict part is the residual
P(x,y) = inf{t : S(t, I(x,y)) >= R(x,y)}, which exists as a reconstructing
value exactly when S is continuous in its first coordinate.

Closed-form residuals are used for every built-in conorm; a bisection over
float bit patterns covers custom operators, giving the least float that
reaches r where the section is monotone in floats, and doubles as an
independent oracle for the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .families import _bisect
from .operators import EPSILON, BinaryOp, Kind
from .divisors import existence
from .relations import FuzzyRelation, asymmetry_violation, symmetry_violation
from .verdicts import TriState, Verdict, _first_cell, _row_blocks, fails, holds


class DecompositionError(ValueError):
    pass


@dataclass(frozen=True)
class Decomposition:
    """P and I under the conorm; strong exactly when ``norm`` is set."""

    strict: FuzzyRelation
    indifference: FuzzyRelation
    conorm: BinaryOp
    norm: Optional[BinaryOp] = None
    # verify_weak's / verify_strong's verdict on a decomposition built here
    verification: Optional[TriState] = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# residual operator


def residual_array(S: BinaryOp, i, r) -> np.ndarray:
    """Vectorised inf{t : S(t, i) >= r}.  Where i >= r the residual is 0."""

    i = np.asarray(i, dtype=float)
    r = np.asarray(r, dtype=float)
    if not S.is_builtin:
        return np.asarray(bisection_residual(S, i, r))
    with np.errstate(all="ignore"):
        return np.where(r > i, S.record.residual(i, r), 0.0)


def bisection_residual(S: BinaryOp, i, r):
    """Residual computed by bisection regardless of family: the fallback for
    custom conorms and the independent oracle for the closed forms; the
    least float t with S(t, i) >= r where the section is monotone in floats
    (1 where S(1, i) < r).  Scalar in, scalar out; arrays broadcast."""
    i, r = np.broadcast_arrays(np.asarray(i, float), np.asarray(r, float))

    def reaches(t):
        return S.evaluator(np.broadcast_to(t, i.shape), i) >= r

    _, hi = _bisect(reaches, np.where(reaches(1.0), 0.0, 1.0), np.where(reaches(0.0), 0.0, 1.0))
    return float(hi) if hi.ndim == 0 else hi


def residual(S: BinaryOp, i: float, r: float) -> float:
    """inf{t in [0,1] : S(t, i) >= r} for one pair of degrees.  For a conorm
    discontinuous in its first coordinate the infimum need not reconstruct:
    S(inf, i) can fall short of r."""

    if S.kind is not Kind.CONORM:
        raise ValueError("residual expects a conorm")
    if not (0.0 <= i <= 1.0 and 0.0 <= r <= 1.0):
        raise ValueError("degrees must lie in [0,1]")
    return float(residual_array(S, i, r))


# ---------------------------------------------------------------------------
# canonical decomposition


def canonical_decompose(R: FuzzyRelation, S: BinaryOp) -> Decomposition:
    """I = min(R, R^t); P = pointwise residual, verified by `verify_weak`.
    Refuses where weak `existence` FAILS, for a conorm discontinuous in the
    first coordinate (some relations have no decomposition at all then, and
    this one would not reconstruct)."""
    return _decompose(R, S, None)


def strong_decompose(R: FuzzyRelation, T: BinaryOp, S: BinaryOp) -> Decomposition:
    """The canonical parts, verified by `verify_strong` against the norm
    condition T(P, I) = 0.  Refuses where strong `existence` FAILS (which
    includes the weak continuity check); even where it holds the norm
    condition can fail where the divisor intervals meet only between two
    floats (drastic x Schweizer-Sklar at lambda near 0 has P = 1 where I > 0)."""
    return _decompose(R, S, T)


def _decompose(R: FuzzyRelation, S: BinaryOp, T: Optional[BinaryOp]) -> Decomposition:
    """I = min(R, R^t) and the residual P, built in row blocks and checked once
    by `verify_weak` (T None) or `verify_strong`.  Asymmetric and symmetric by
    construction, they fail only on reconstruction (named at the first cell
    of `_gap`) or on T(P, I) = 0."""
    exist = existence(S, T)
    if exist.verdict is Verdict.FAILS:
        what, under = "weak", S.display_name
        if T is not None:
            what, under = "strong", f"({T.display_name}, {S.display_name})"
        raise DecompositionError(f"no {what} decomposition under {under}: {exist.detail}")
    m = R.degrees
    i_mat, p_mat = np.empty_like(m), np.empty_like(m)
    for s in _row_blocks(R.size, R.size):
        i_blk = i_mat[s] = np.minimum(m[s], m[:, s].T)
        p_mat[s] = residual_array(S, i_blk, m[s])
    d = Decomposition(FuzzyRelation._adopt(R.universe, p_mat), FuzzyRelation._adopt(R.universe, i_mat), S, T)
    check = verify_weak(R, d) if T is None else verify_strong(R, d, T)
    if check.verdict is not Verdict.FAILS:
        return replace(d, verification=check)
    bad = _first_cell(R.size, _gap(S, p_mat, i_mat, m))
    if bad is None:
        raise DecompositionError(f"canonical pair fails the norm condition: {check.detail}")
    (a, b), (recon, r) = bad, check.witness
    raise DecompositionError(
        f"residual infimum not attained at pair ({R.universe[a]},{R.universe[b]}): "
        f"S(P,I) = {recon!r} but R = {r!r}"
    )


# ---------------------------------------------------------------------------
# verification


def _gap(S: BinaryOp, P: np.ndarray, I: np.ndarray, R: np.ndarray):
    """The row-block mask of the cells where |S(P,I) - R| > EPSILON."""
    return lambda s: np.abs(S.evaluator(P[s], I[s]) - R[s]) > EPSILON


def _structural_check(R: FuzzyRelation, D: Decomposition) -> Optional[TriState]:
    P, I = D.strict, D.indifference
    if not (R.universe == P.universe == I.universe):
        raise ValueError("relation and decomposition universes differ")
    for m, violation, what in (
        (P.degrees, asymmetry_violation, "strict part not asymmetric"),
        (I.degrees, symmetry_violation, "indifference not symmetric"),
    ):
        bad = violation(m)
        if bad is not None:
            a, b = bad
            return fails((float(m[a, b]), float(m[b, a])), f"{what} at ({R.universe[a]},{R.universe[b]})")
    p, i, r = P.degrees, I.degrees, R.degrees
    bad = _first_cell(R.size, _gap(D.conorm, p, i, r))
    if bad is not None:
        a, b = bad
        return fails(
            (D.conorm(p[a, b], i[a, b]), float(r[a, b])),
            f"S(P,I) != R at ({R.universe[a]},{R.universe[b]})",
        )
    return None


def verify_weak(R: FuzzyRelation, D: Decomposition) -> TriState:
    """P asymmetric, I symmetric, S(P,I) = R, and I = 1 forces P = 0."""

    bad = _structural_check(R, D)
    if bad is not None:
        return bad
    P, I = D.strict.degrees, D.indifference.degrees
    bad = _first_cell(R.size, lambda s: (I[s] == 1.0) & (P[s] > 0.0))
    if bad is not None:
        a, b = bad
        return fails(
            (float(P[a, b]), 1.0),
            f"I = 1 but P = {P[a, b]:g} at ({R.universe[a]},{R.universe[b]})",
        )
    return holds("weak decomposition verified")


def verify_strong(R: FuzzyRelation, D: Decomposition, T: BinaryOp) -> TriState:
    """P asymmetric, I symmetric, S(P,I) = R, and T(P,I) = 0."""

    bad = _structural_check(R, D)
    if bad is not None:
        return bad
    P, I = D.strict.degrees, D.indifference.degrees
    bad = _first_cell(R.size, lambda s: T.evaluator(P[s], I[s]) > EPSILON)
    if bad is not None:
        a, b = bad
        return fails(
            (float(P[a, b]), float(I[a, b])),
            f"T({P[a, b]:g},{I[a, b]:g}) = {T(P[a, b], I[a, b]):g} != 0 "
            f"at ({R.universe[a]},{R.universe[b]})",
        )
    return holds("strong decomposition verified")
