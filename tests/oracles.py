"""Brute-force oracles and fixtures the tests check the library against.

`enumerate_decompositions` lists every grid-valued decomposition of a small
relation, the independent check of the analytic existence and uniqueness
verdicts; `is_s_connected` is the paper's S-connectedness on one relation,
the relation-level counterpart of the value pairs
`regions.restricted_decomposability` checks, and `skewed_connector` and
`lower_connector` are two connectors that do not commute;
`tie_strict_max_decomposition` is a deliberately flawed rule that
`audit_fp` must catch.  `walk_closure`, `warshall_closure` and
`squaring_closure` are three independent routes to the least T-transitive
relation above a relation (the last two for an associative T), and
`squared_min_norm` is a norm-kind operator that is not associative.
`where_chain_evaluator` is each built-in evaluator as the whole-block
``np.where`` chains it once was (`where_chain_pinned` for Schweizer-Sklar
and Hamacher, `WHERE_CHAINS` for the probabilistic sum, drastic and
ordinal-sum operators).  `spelling` is the text the writers give one
degree or axis value, from exact arithmetic.  `least_saturating` is a
one-interval's lower end by bisection over all of [0, 1]'s bit patterns.
No library code calls any of them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from fuzzdec import EPSILON, BinaryOp, FuzzyRelation, Kind, Verdict, families, make_conorm, make_custom
from fuzzdec.decompose import Decomposition, verify_strong, verify_weak
from fuzzdec.verdicts import _first_cell

_MAX_CANDIDATES = 500_000


def _grid_values(grid_step: float) -> np.ndarray:
    # k/n by direct division: bit-identical to degrees built the same way
    n = round(1.0 / grid_step)
    return np.arange(n + 1) / n


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


def is_s_connected(R: FuzzyRelation, S: BinaryOp) -> bool:
    """S(R(x,y), R(y,x)) = 1 for every pair (including x = y), within
    tolerance: the S-connectedness whose value pairs
    `regions.restricted_decomposability` checks."""
    if S.kind is not Kind.CONORM:
        raise ValueError("connectedness expects a conorm")
    m = R.degrees
    return _first_cell(
        R.size, lambda s: ~(np.asarray(S.evaluator(m[s], m[:, s].T), dtype=float) >= 1.0 - EPSILON)
    ) is None


def skewed_connector() -> BinaryOp:
    """Not commutative: S'(a,b) = 1 from a + 2b >= 1 on, so (a,b) is
    connected from a + 2b >= 1 and 2a + b >= 1 on."""
    return make_custom(lambda x, y: np.minimum(x + 2.0 * y, 1.0), Kind.CONORM)


def lower_connector() -> BinaryOp:
    """Not commutative: S'(a,b) = 1 on the frame and where a - b >= 1/2,
    below the diagonal, but S'(b,a) < 1 there.  A pair connected in one
    order only is not connected, so only the frame counts."""
    return make_custom(lambda x, y: np.where(x - y >= 0.5, 1.0, np.maximum(x, y)), Kind.CONORM)


def tie_strict_max_decomposition(R: FuzzyRelation) -> Decomposition:
    """A deliberately flawed variant of the maximum rule: besides the strict
    winners it also promotes symmetric pairs below 1 into the strict part
    (first direction in universe order, to keep P asymmetric).

    Reconstructs under the maximum and satisfies every axiom except the
    backward half of FP4.
    """

    m = R.degrees
    P = np.where((m > m.T) | np.triu((m == m.T) & (m < 1.0), 1), m, 0.0)
    I = np.minimum(m, m.T)
    return Decomposition(FuzzyRelation(R.universe, P), FuzzyRelation(R.universe, I), make_conorm("max"))


def walk_closure(R: FuzzyRelation, T: BinaryOp) -> np.ndarray:
    """The T-transitive closure by definition: the sup over every walk of
    1 to n steps from x to z of T folded from the left along the walk,
    T(T(R(x,y1), R(y1,y2)), ...).  A norm never exceeds min, so a walk that
    repeats a node is no better than a shorter one and n steps are enough.  It
    evaluates T one scalar at a time; meant for n <= 4."""
    m = R.degrees
    n = R.size
    if n > 4:
        raise ValueError("the walk oracle is meant for universes of at most 4 elements")
    out = np.zeros((n, n))
    for x, z in itertools.product(range(n), repeat=2):
        for steps in range(1, n + 1):
            for inner in itertools.product(range(n), repeat=steps - 1):
                walk = (x,) + inner + (z,)
                value = m[walk[0], walk[1]]
                for a, b in zip(walk[1:], walk[2:]):
                    value = T(value, m[a, b])
                out[x, z] = max(out[x, z], value)
    return out


def warshall_closure(m: np.ndarray, T: BinaryOp) -> np.ndarray:
    """Textbook Warshall: n pivot updates m = max(m, T(m[:, k], m[k, :])),
    each a new whole array."""
    for k in range(m.shape[0]):
        m = np.maximum(m, np.asarray(T.evaluator(m[:, k][:, None], m[k, :][None, :]), dtype=float))
    return np.clip(m, 0.0, 1.0)


def squaring_closure(m: np.ndarray, T: BinaryOp) -> np.ndarray:
    """The closure as the fixpoint of m = max(m, sup-T self-composition),
    each composition one whole n x n x n array, for at most max(2, n)
    rounds; it ends once a round changes nothing by more than EPSILON."""
    for _ in range(max(2, m.shape[0])):
        comp = np.asarray(T.evaluator(m[:, :, None], m[None, :, :]), dtype=float).max(axis=1)
        m, old = np.maximum(m, comp), m
        if np.all(np.abs(m - old) <= EPSILON):
            break
    return np.clip(m, 0.0, 1.0)


def squared_min_norm() -> BinaryOp:
    """T(x,y) = min(x,y)^2: monotone and commutative but not associative,
    so a path's value depends on how it is split, and one pivot pass alone
    misses compositions that squaring, or further pivot passes, find."""
    return make_custom(lambda x, y: np.minimum(x, y) ** 2, Kind.NORM)


def where_chain_pinned(formula, absorbing):
    """The `families._pinned` that masked the operands and ran the whole
    where-chain on every cell; a cell outside [0,1]^2 that no boundary rule
    reaches, NaN included, reads 0."""
    identity = 1.0 - absorbing

    def ev(x, y):
        inside = (x > 0) & (y > 0) & (x < 1) & (y < 1)
        with np.errstate(all="ignore"):
            val = families.lifted(formula, np.where(inside, x, 0.5), np.where(inside, y, 0.5))
        out = np.where(inside, np.clip(val, 0.0, 1.0), 0.0)
        out = np.where((x == absorbing) | (y == absorbing), absorbing, out)
        out = np.where(x == identity, y, out)
        return np.where(y == identity, np.where(x == identity, identity, x), out)

    return ev


# the other evaluators that were np.where chains, by (family, kind)
WHERE_CHAINS = {
    ("product", Kind.CONORM): lambda x, y: np.where((x == 1.0) | (y == 1.0), 1.0, x + y - x * y),
    ("drastic", Kind.NORM): lambda x, y: np.where(y == 1.0, x, np.where(x == 1.0, y, 0.0)),
    ("drastic", Kind.CONORM): lambda x, y: np.where(y == 0.0, x, np.where(x == 0.0, y, 1.0)),
    ("ordinal_sum_lukasiewicz_half", Kind.NORM): lambda x, y: np.where(
        (x >= 0.5) & (y >= 0.5), np.maximum(0.5, x + y - 1.0), np.minimum(x, y)
    ),
    ("ordinal_sum_lukasiewicz_half", Kind.CONORM): lambda x, y: np.where(
        (x <= 0.5) & (y <= 0.5), np.minimum(0.5, x + y), np.maximum(x, y)
    ),
}


def where_chain_evaluator(op: BinaryOp):
    """The evaluator of the built-in ``op`` as where-chains: `WHERE_CHAINS`
    for a record of `families.FAMILIES` (its own evaluator where it never
    had one), and for a parametric record the one `families.resolve` builds
    with `where_chain_pinned` in place of `families._pinned`."""
    field = "norm" if op.kind is Kind.NORM else "conorm"
    for name, record in families.FAMILIES.items():
        if getattr(record, field) is op.evaluator:
            return WHERE_CHAINS.get((name, op.kind), op.evaluator)
    pinned, families._pinned = families._pinned, where_chain_pinned
    try:
        return getattr(families.resolve(op.family, op.parameter)[1], field)
    finally:
        families._pinned = pinned


def spelling(v: float) -> str:
    """The text of v in an emitted relation file or region CSV: ``repr(v)``
    (the shortest text that reads back as v) where v is the float nearest a
    decimal of at most 6 places, ``"%.17g" % v`` elsewhere and for 0, -0 and
    1 (``0``, ``-0``, ``1``)."""
    v = float(v)
    if v not in (0.0, 1.0) and float(Fraction(round(Fraction(v) * 10**6), 10**6)) == v:
        return repr(v)
    return "%.17g" % v


def least_saturating(S: BinaryOp, w: np.ndarray) -> np.ndarray:
    """The least float t with S(t, w) = 1, entry by entry, for a conorm
    monotone in floats: bisection over the int64 bit patterns from 0 (where
    S(0, w) = w < 1) to 1.0, with no start taken from a closed form."""
    w = np.asarray(w, dtype=float)
    lo = np.zeros(w.shape, dtype=np.int64)
    hi = np.full(w.shape, np.float64(1.0).view(np.int64))
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        ok = S.evaluator(mid.view(np.float64), w) == 1.0
        hi, lo = np.where(ok, mid, hi), np.where(ok, lo, mid)
    return hi.view(np.float64)
