"""Decomposition of a fuzzy relation into strict preference and indifference.

Any reconstruction R = S(P, I) with P asymmetric and I symmetric forces
I(x,y) = min(R(x,y), R(y,x)); the canonical strict part is the residual
P(x,y) = inf{t : S(t, I(x,y)) >= R(x,y)}, which exists as a reconstructing
value exactly when S is continuous in its first coordinate.

Closed-form residuals are used for every built-in conorm; a 60-step
bisection covers custom operators and doubles as an independent oracle for
the closed forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .operators import EPSILON, BinaryOp, Kind
from .divisors import _bisect, existence
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
    # the verdict of the check that accepted the decomposition, where one did
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
        return np.where(r > i, S.record.residual(i, r, S.evaluator), 0.0)


def bisection_residual(S: BinaryOp, i, r):
    """Residual computed by bisection regardless of family: the fallback for
    custom conorms and the independent oracle for the closed forms.  Scalar
    in, scalar out; arrays broadcast."""
    i, r = np.broadcast_arrays(np.asarray(i, float), np.asarray(r, float))
    _, hi = _bisect(lambda t: np.asarray(S.evaluator(t, i), dtype=float) >= r, i.shape)
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
    """I = min(R, R^t); P = pointwise residual.  Refuses where weak
    `existence` FAILS, for a conorm discontinuous in the first coordinate
    (some relations have no decomposition at all then, and this one would
    not reconstruct)."""

    exist = existence(S)
    if exist.verdict is Verdict.FAILS:
        raise DecompositionError(f"no weak decomposition under {S.display_name}: {exist.detail}")
    m = R.degrees
    i_mat, p_mat = np.empty_like(m), np.empty_like(m)
    for s in _row_blocks(R.size, R.size):
        i_blk = i_mat[s] = np.minimum(m[s], m[:, s].T)
        p_blk = p_mat[s] = residual_array(S, i_blk, m[s])
        recon = np.asarray(S.evaluator(p_blk, i_blk), dtype=float)
        gap = np.abs(recon - m[s]) > EPSILON
        if gap.any():
            a, b = np.argwhere(gap)[0]
            raise DecompositionError(
                f"residual infimum not attained at pair ({R.universe[s.start + a]},{R.universe[b]}): "
                f"S(P,I) = {float(recon[a, b])!r} but R = {float(m[s.start + a, b])!r}"
            )
    return Decomposition(
        strict=FuzzyRelation._adopt(R.universe, p_mat),
        indifference=FuzzyRelation._adopt(R.universe, i_mat),
        conorm=S,
    )


def strong_decompose(R: FuzzyRelation, T: BinaryOp, S: BinaryOp) -> Decomposition:
    """Canonical decomposition re-verified against the norm condition
    T(P, I) = 0.  Refuses where strong `existence` FAILS; even where it
    holds the check can fail where the divisor intervals meet only between
    two floats (drastic x Schweizer-Sklar at lambda near 0 has P = 1 where
    I > 0).  The result carries the check's verdict as ``verification``."""

    exist = existence(S, T)
    if exist.verdict is Verdict.FAILS:
        raise DecompositionError(
            f"no strong decomposition under ({T.display_name}, {S.display_name}): {exist.detail}"
        )
    weak = canonical_decompose(R, S)
    d = Decomposition(weak.strict, weak.indifference, S, T)
    check = verify_strong(R, d, T)
    if check.verdict is Verdict.FAILS:
        raise DecompositionError(f"canonical pair fails the norm condition: {check.detail}")
    return replace(d, verification=check)


# ---------------------------------------------------------------------------
# verification


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
    bad = _first_cell(
        R.size, lambda s: np.abs(np.asarray(D.conorm.evaluator(p[s], i[s]), dtype=float) - r[s]) > EPSILON
    )
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
    bad = _first_cell(R.size, lambda s: np.asarray(T.evaluator(P[s], I[s]), dtype=float) > EPSILON)
    if bad is not None:
        a, b = bad
        return fails(
            (float(P[a, b]), float(I[a, b])),
            f"T({P[a, b]:g},{I[a, b]:g}) = {T(P[a, b], I[a, b]):g} != 0 "
            f"at ({R.universe[a]},{R.universe[b]})",
        )
    return holds("strong decomposition verified")


# ---------------------------------------------------------------------------
# brute-force enumeration (uniqueness oracle)


def _grid_values(grid_step: float) -> np.ndarray:
    # k/n by direct division: bit-identical to degrees built the same way
    n = round(1.0 / grid_step)
    return np.arange(n + 1) / n


_MAX_CANDIDATES = 500_000


def enumerate_decompositions(
    R: FuzzyRelation,
    S: BinaryOp,
    T: Optional[BinaryOp] = None,
    grid_step: float = 0.01,
    search_indifference: bool = False,
) -> List[Decomposition]:
    """All grid-valued decompositions of R with respect to S (and T when a
    strong decomposition is requested).

    By default the indifference part is pinned to min(R, R^t), which any
    reconstruction forces anyway; ``search_indifference=True`` drops that
    shortcut and brute-forces I as well, turning the enumeration into an
    independent oracle for the pinning itself.  Candidates for P are searched
    on every ordered pair subject to asymmetry.  Results are sorted
    lexicographically by (P, I) matrices.
    """

    if grid_step < 0.01 - 1e-12:
        raise ValueError("grid_step below 1/100 makes the search explode")
    n = R.size
    if n > 4:
        raise ValueError("enumeration is meant for universes of at most 4 elements")
    vals = _grid_values(grid_step)
    m = R.degrees

    def strict_candidates(i: float, r: float) -> np.ndarray:
        """Grid values p with S(p, i) = r (and T(p, i) = 0 when strong)."""
        col = np.full_like(vals, i)
        ok = np.abs(np.asarray(S.evaluator(vals, col), dtype=float) - r) <= EPSILON
        if T is not None:
            ok &= np.asarray(T.evaluator(vals, col), dtype=float) <= EPSILON
        return vals[ok]

    def zero_works(i: float, r: float) -> bool:
        if abs(S(0.0, i) - r) > EPSILON:
            return False
        return T is None or T(0.0, i) <= EPSILON

    # diagonal: asymmetry forces P(x,x) = 0, so I(x,x) must reproduce R(x,x)
    diag_choices: List[List[float]] = []
    for k in range(n):
        r = m[k, k]
        if search_indifference:
            opts = [float(v) for v in vals if zero_works(v, r)]
        else:
            opts = [float(r)] if zero_works(r, r) else []
        diag_choices.append(opts)

    # off-diagonal unordered pairs: candidates (i, p_xy, p_yx)
    pair_index = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pair_choices: List[List[Tuple[float, float, float]]] = []
    for a, b in pair_index:
        r_ab, r_ba = m[a, b], m[b, a]
        i_options = (
            [float(v) for v in vals]
            if search_indifference
            else [float(min(r_ab, r_ba))]
        )
        combos: List[Tuple[float, float, float]] = []
        for i in i_options:
            if i == 1.0:
                # the weak condition pins both strict values to 0
                if zero_works(1.0, r_ab) and zero_works(1.0, r_ba):
                    combos.append((i, 0.0, 0.0))
                continue
            p_ab_opts = strict_candidates(i, r_ab)
            p_ba_opts = strict_candidates(i, r_ba)
            zero_ab = bool((p_ab_opts == 0.0).any())
            zero_ba = bool((p_ba_opts == 0.0).any())
            if zero_ba:
                combos.extend((i, float(p), 0.0) for p in p_ab_opts if p > 0.0)
            if zero_ab:
                combos.extend((i, 0.0, float(q)) for q in p_ba_opts if q > 0.0)
            if zero_ab and zero_ba:
                combos.append((i, 0.0, 0.0))
        pair_choices.append(combos)

    total = 1
    for opts in diag_choices + pair_choices:
        total *= len(opts)
        if total > _MAX_CANDIDATES:
            raise ValueError(f"combinatorial bound exceeded: more than {_MAX_CANDIDATES} candidates")
    if total == 0:
        return []

    results: List[Decomposition] = []
    for diag in itertools.product(*diag_choices):
        for assignment in itertools.product(*pair_choices):
            P = np.zeros((n, n))
            I = np.zeros((n, n))
            for k in range(n):
                I[k, k] = diag[k]
            for (a, b), (i, p_ab, p_ba) in zip(pair_index, assignment):
                I[a, b] = I[b, a] = i
                P[a, b] = p_ab
                P[b, a] = p_ba
            d = Decomposition(FuzzyRelation(R.universe, P), FuzzyRelation(R.universe, I), S, T)
            if verify_weak(R, d).verdict is not Verdict.HOLDS:
                continue
            if T is not None and verify_strong(R, d, T).verdict is not Verdict.HOLDS:
                continue
            results.append(d)

    results.sort(
        key=lambda d: (
            tuple(d.strict.degrees.ravel()),
            tuple(d.indifference.degrees.ravel()),
        )
    )
    return results
