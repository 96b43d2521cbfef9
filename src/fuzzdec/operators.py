"""Triangular norms and conorms on [0,1] with property checkers.

Built-in families: minimum/maximum, product/probabilistic sum, Lukasiewicz,
drastic, Schweizer-Sklar (lambda in [-inf, +inf]), Hamacher (lambda in
[0, +inf]) and the ordinal sum that rescales the Lukasiewicz conorm onto
[0, 1/2].  Evaluators are numpy-vectorised and exact at the boundary rows
x=0, x=1 (the parametric families short-circuit them instead of trusting a
power-function round trip).  Their formulas and closed-form verdicts live in
one record per family, in `families`.

Universally quantified properties (continuity, strictness, ...) carry
analytically known verdicts for built-in families; user-supplied operators
are swept on a finite grid and can at best earn an UNKNOWN verdict, whose
detail names the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from .families import FAMILIES, PARAMETRIC, Family, lifted, resolve
from .verdicts import TriState, _row_blocks, fails, holds, unknown

# Absolute tolerance for comparisons between membership degrees.
EPSILON = 1e-9

# The sweeps that check a custom operator: t on a 1e-3 grid at each of 101
# values of w, and (t, s, w) on a 0.01 grid for collapses.
_T_STEP = 1e-3
_W_STEP = 0.01
_COLLAPSE_STEP = 0.01


class Kind(Enum):
    NORM = "norm"
    CONORM = "conorm"


_CANONICAL_FAMILIES = (*FAMILIES, *PARAMETRIC, "custom")

_ALIASES = {
    "min": "minimum",
    "max": "minimum",
    "maximum": "minimum",
    "prob": "product",
    "probabilistic": "product",
    "probabilistic_sum": "product",
    "luk": "lukasiewicz",
    "ss": "schweizer_sklar",
    "schweizer-sklar": "schweizer_sklar",
    "ham": "hamacher",
    "ordinal_sum": "ordinal_sum_lukasiewicz_half",
}


@dataclass(frozen=True)
class BinaryOp:
    """A t-norm or t-conorm: a monotone, commutative, associative
    [0,1]^2 -> [0,1] operator with identity 1 (norm) or 0 (conorm)."""

    kind: Kind
    family: str
    parameter: Optional[float] = None
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    # the closed forms of a built-in operator's family; None for custom ones
    record: Optional[Family] = field(default=None, repr=False, compare=False)

    def __call__(self, x, y):
        out = self.evaluator(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        if np.ndim(out) == 0:
            return float(out)
        return out

    @property
    def is_builtin(self) -> bool:
        return self.family != "custom"

    @property
    def display_name(self) -> str:
        if self.record is None:
            return f"custom {self.kind.value}"
        lam = self.parameter
        suffix = "" if lam is None else f"(lambda={format_lambda(lam)})"
        return self.record.names[self.kind is Kind.CONORM] + suffix


def format_lambda(lam: float) -> str:
    if lam == math.inf:
        return "+inf"
    if lam == -math.inf:
        return "-inf"
    return f"{lam:g}"


def canonical_family(name: str) -> str:
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _CANONICAL_FAMILIES:
        raise ValueError(f"unknown operator family: {name!r}")
    return key


# ---------------------------------------------------------------------------
# construction


def make_family(family: str, kind: Kind, parameter: Optional[float] = None) -> BinaryOp:
    """Build a built-in operator.  Raises ValueError for unknown families or
    parameters outside the family's range."""

    fam = canonical_family(family)
    if fam == "custom":
        raise ValueError("use make_custom() for user-supplied operators")
    lam, record = resolve(fam, parameter)
    formula = record.norm if kind is Kind.NORM else record.conorm
    return BinaryOp(kind, fam, lam, formula, record)


def make_norm(family: str, parameter: Optional[float] = None) -> BinaryOp:
    return make_family(family, Kind.NORM, parameter)


def make_conorm(family: str, parameter: Optional[float] = None) -> BinaryOp:
    return make_family(family, Kind.CONORM, parameter)


def make_custom(fn: Callable, kind: Kind) -> BinaryOp:
    """Wrap a user-supplied [0,1]^2 -> [0,1] callable (must broadcast over
    numpy arrays, or at least accept scalars).  Array operands reach it
    `lifted`, so one value rounds as it does in an array."""

    def ev(x, y):
        try:
            out = np.asarray(lifted(fn, x, y), dtype=float)
        except (TypeError, ValueError):
            out = np.vectorize(fn, otypes=[float])(x, y)
        # a NaN fails every comparison, so it would pass every check silently
        if not np.isfinite(out).all():
            xs, ys, vs = (a.ravel() for a in np.broadcast_arrays(x, y, out))
            k = int(np.argmax(~np.isfinite(vs)))
            raise ValueError(
                f"custom {kind.value} returned {float(vs[k])!r} at "
                f"({float(xs[k])!r}, {float(ys[k])!r})"
            )
        return out

    return BinaryOp(kind, "custom", None, ev)


def dual(op: BinaryOp) -> BinaryOp:
    """The De Morgan dual with respect to the standard negation 1-x."""
    other = Kind.CONORM if op.kind is Kind.NORM else Kind.NORM
    if not op.is_builtin:
        inner = op.evaluator
        return make_custom(lambda x, y: 1.0 - inner(1.0 - np.asarray(x, float), 1.0 - np.asarray(y, float)), other)
    return make_family(op.family, other, op.parameter)


def parse_op_spec(spec: str, kind: Kind) -> BinaryOp:
    """Parse the textual operator grammar `<family>[:lambda=<value|+inf|-inf>]`,
    e.g. ``schweizer_sklar:lambda=2``, ``max``, ``lukasiewicz``."""

    text = spec.strip()
    lam = None
    if ":" in text:
        head, _, tail = text.partition(":")
        tail = tail.strip()
        if not tail.startswith("lambda="):
            raise ValueError(f"bad operator spec {spec!r}: expected lambda=<value>")
        raw = tail[len("lambda="):].strip()
        if raw in ("+inf", "inf"):
            lam = math.inf
        elif raw == "-inf":
            lam = -math.inf
        else:
            try:
                lam = float(raw)
            except ValueError:
                raise ValueError(f"bad lambda value {raw!r} in spec {spec!r}") from None
        text = head
    return make_family(text, kind, lam)


# ---------------------------------------------------------------------------
# grids


def degree_grid(step: float = 1e-3, extra: Iterable[float] = ()) -> np.ndarray:
    """Uniform grid on [0,1] of the given step, always containing 0, 1/2, 1
    plus any extra breakpoints."""

    if not 0.0 < step <= 1.0:  # NaN fails this too
        raise ValueError(f"grid step must lie in (0, 1], got {step:g}")
    n = max(1, round(1.0 / step))
    pts = np.linspace(0.0, 1.0, n + 1)
    merged = np.union1d(pts, np.asarray([0.0, 0.5, 1.0, *extra], dtype=float))
    return merged[(merged >= 0.0) & (merged <= 1.0)]


def _as_grid(step: float, *ops: BinaryOp) -> np.ndarray:
    """The degree grid of the given step holding the breakpoints of ``ops``."""
    extra = [b for op in ops if op.record is not None for b in op.record.breakpoints]
    return degree_grid(float(step), extra)


# ---------------------------------------------------------------------------
# axiom checking


def check_norm_axioms(op: BinaryOp, grid: float = 0.01) -> TriState:
    """Check boundary, monotonicity, commutativity and associativity on a
    finite grid (default step 1/100 plus family breakpoints).

    Built-in families pass by construction; the sweep is still run and a
    failure would expose an implementation bug.  Custom operators that pass
    the sweep earn UNKNOWN, never HOLDS.
    """

    if 0.0 < grid < 1.0 / 2000.0:  # the (0, 1] range check of `degree_grid` names the rest
        raise ValueError(f"grid step below 1/2000 is not supported, got {grid:g}")
    g = _as_grid(grid, op)
    letter, e, a = ("T", 1, 0) if op.kind is Kind.NORM else ("S", 0, 1)
    ident, absorb = np.full_like(g, e), np.full_like(g, a)
    # identity rows within EPSILON, absorbing rows exactly (divisor intervals are their level sets)
    pairs = [
        (g, ident, g, EPSILON, f"{letter}(x,{e}) = x"),
        (ident, g, g, EPSILON, f"{letter}({e},x) = x"),
        (g, absorb, absorb, 0.0, f"{letter}(x,{a}) = {a}"),
        (absorb, g, absorb, 0.0, f"{letter}({a},x) = {a}"),
    ]
    for xs, ys, want, tol, label in pairs:
        got = np.asarray(op.evaluator(xs, ys), dtype=float)
        bad = np.abs(got - want) > tol
        if bad.any():
            k = int(np.argmax(bad))
            return fails(
                (float(xs[k]), float(ys[k])),
                f"boundary {label} violated: got {float(got[k])!r}",
            )

    # range, commutativity, then monotonicity in the first argument, each
    # reported at its row-major first violation; S(x, y) is built one row
    # block of x at a time, and a block stops the sweep once it escapes [0,1]
    first = [None, None, None]
    above = None
    for s in _row_blocks(g.size, g.size):
        xx, yy = np.meshgrid(g[s], g, indexing="ij")
        fwd = np.asarray(op.evaluator(xx, yy), dtype=float)
        bwd = np.asarray(op.evaluator(yy, xx), dtype=float)
        # each row's step down from the row above it (the first row's from itself)
        steps = np.diff(np.vstack([fwd[:1] if above is None else above, fwd]), axis=0)
        masks = (np.abs(fwd - np.clip(fwd, 0.0, 1.0)) > 0, np.abs(fwd - bwd) > EPSILON, steps < -EPSILON)
        for k, mask in enumerate(masks):
            if first[k] is None and mask.any():
                a, b = np.argwhere(mask)[0]
                first[k] = (s.start + int(a), int(b))
        if first[0] is not None:
            break
        above = fwd[-1:]
    rng, comm, mono = first
    if rng is not None:
        return fails((g[rng[0]], g[rng[1]]), "output escapes [0,1]")
    if comm is not None:
        return fails((g[comm[0]], g[comm[1]]), "commutativity violated")
    if mono is not None:
        i, j = mono
        return fails((g[i - 1], g[i], g[j]), "monotonicity violated in the first argument")

    # associativity on a thinner grid: the full grid cubed is wasteful
    ga = g if g.size <= 51 else g[:: max(1, g.size // 50)]
    if 1.0 not in ga:
        ga = np.union1d(ga, [1.0])
    A = ga[:, None, None]
    B = ga[None, :, None]
    C = ga[None, None, :]
    ab = np.asarray(op.evaluator(A, B), dtype=float)
    bc = np.asarray(op.evaluator(B, C), dtype=float)
    lhs = np.asarray(op.evaluator(ab, C), dtype=float)
    rhs = np.asarray(op.evaluator(A, bc), dtype=float)
    assoc_bad = np.abs(lhs - rhs) > EPSILON
    if assoc_bad.any():
        i, j, k = np.argwhere(assoc_bad)[0]
        return fails(
            (float(ga[i]), float(ga[j]), float(ga[k])), "associativity violated"
        )

    if op.is_builtin:
        return holds("axioms certified for the built-in family; grid sweep agrees")
    return unknown(
        f"no violation on the {g.size}-point grid of step {grid:g} (associativity on {ga.size} points); "
        "axioms not certified for a custom operator"
    )


# ---------------------------------------------------------------------------
# first-coordinate continuity


def check_first_coordinate_continuity(op: BinaryOp) -> TriState:
    """Continuity of t -> op(t, w) for every fixed w.

    For commutative monotone operators separate continuity in one coordinate
    is equivalent to joint continuity; some sources phrase the hypothesis as
    right-continuity instead, which for these operators asks no less.  Only
    the first-coordinate check is exposed.
    """

    if op.is_builtin:
        if op.record.jump is None:
            return holds(f"{op.display_name} is continuous on [0,1]^2")
        t0, t1, w = op.record.jump
        if op.kind is Kind.NORM:
            t0, t1, w = 1.0 - t1, 1.0 - t0, 1.0 - w
        v0, v1 = op(t0, w), op(t1, w)
        return fails(
            (t0, t1, w),
            f"jump from {v0:g} to {v1:g} across first-argument gap of {abs(t1 - t0):g}",
        )

    # sampled scan for custom operators: flag jumps much larger than the step
    grid = degree_grid(_T_STEP)
    ws = degree_grid(_W_STEP)
    for w in ws:
        vals = np.asarray(op.evaluator(grid, np.full_like(grid, w)), dtype=float)
        jumps = np.abs(np.diff(vals))
        k = int(np.argmax(jumps))
        if jumps[k] > 0.05:
            return fails(
                (float(grid[k]), float(grid[k + 1]), float(w)),
                f"jump of {jumps[k]:g} across adjacent grid points",
            )
    return unknown(f"no jump above 0.05 on {grid.size} points of t at each of {ws.size} w")


# ---------------------------------------------------------------------------
# strict increasingness in the first coordinate


def check_strictly_increasing_first(op: BinaryOp) -> TriState:
    """Strict increase of t -> op(t,w): on [0,1) with w < 1 for conorms, on
    (0,1] with w > 0 for norms (the only strictness a t-operator can have)."""

    if op.is_builtin:
        witness = op.record.strict_conorm if op.kind is Kind.CONORM else op.record.strict_norm
        if witness is None:
            return holds(f"{op.display_name} is strictly increasing off its absorbing row")
        t, s, w = witness
        return fails(
            (t, s, w),
            f"op({t:g},{w:g}) = op({s:g},{w:g}) = {op(t, w):g}",
        )

    grid = degree_grid(_T_STEP)
    inner = grid[grid < 1.0] if op.kind is Kind.CONORM else grid[grid > 0.0]
    ws = degree_grid(_W_STEP)
    ws = ws[ws < 1.0] if op.kind is Kind.CONORM else ws[ws > 0.0]
    for w in ws:
        vals = np.asarray(op.evaluator(inner, np.full_like(inner, w)), dtype=float)
        flat = np.diff(vals) <= 0.0
        if flat.any():
            k = int(np.argmax(flat))
            return fails(
                (float(inner[k]), float(inner[k + 1]), float(w)),
                "no increase across adjacent grid points",
            )
    return unknown(f"strictly increasing on {inner.size} points of t at each of {ws.size} w")


# ---------------------------------------------------------------------------
# collapse-implies-absorption (the uniqueness hypothesis for rule inducement)


def check_collapse_implies_absorption(op: BinaryOp) -> TriState:
    """Whether S(t,w) = S(s,w) with t != s forces S(t,w) = w.

    Strictly increasing conorms satisfy this vacuously; the maximum satisfies
    it because any collapse happens at the absorbed value w itself.
    """

    if op.kind is not Kind.CONORM:
        raise ValueError("collapse/absorption is a conorm property")
    if op.is_builtin:
        if op.record.collapse is None:
            return holds(f"collapses of {op.display_name} only happen at the absorbed value")
        witness = op.record.collapse
    else:
        witness = find_collapse_witness(op)
        if witness is None:
            return unknown(f"no collapse above the absorbed value on the grid of step {_COLLAPSE_STEP:g} in t, s and w")
    w, t, s = witness
    return fails(
        (w, t, s),
        f"S({t:g},{w:g}) = S({s:g},{w:g}) = {op(t, w):g} > {w:g}",
    )


def find_collapse_witness(S: BinaryOp) -> Optional[Tuple[float, float, float]]:
    """Grid sweep for (w, t, s) with S(t,w) = S(s,w) > w and t != s; None if
    the precondition is unsatisfiable on the grid."""

    g = degree_grid(_COLLAPSE_STEP)
    T_, S_, W = np.meshgrid(g, g, g, indexing="ij")
    vt = np.asarray(S.evaluator(T_, W), dtype=float)
    vs = np.asarray(S.evaluator(S_, W), dtype=float)
    bad = (T_ < S_) & (np.abs(vt - vs) <= EPSILON) & (vt > W + EPSILON)
    if not bad.any():
        return None
    i, j, k = np.argwhere(bad)[0]
    return (float(g[k]), float(g[i]), float(g[j]))


# ---------------------------------------------------------------------------
# strict increase near zero (the extra hypothesis for full strict-preference
# equivalence in decomposed preferences)


def check_strict_near_zero(op: BinaryOp) -> TriState:
    """Whether for every w in [0,1) the section t -> S(t,w) is strictly
    increasing on some [0, eps]."""

    if op.kind is not Kind.CONORM:
        raise ValueError("strict-near-zero is a conorm property")
    if op.is_builtin:
        if op.record.flat_near_zero is None:
            return holds(f"{op.display_name} rises strictly from t=0 for every w < 1")
        w, t, s = op.record.flat_near_zero
        return fails(
            (w, t, s),
            f"S({t:g},{w:g}) = {op(t, w):g} and S({s:g},{w:g}) = {op(s, w):g}: flat near 0",
        )

    ws = degree_grid(_W_STEP)
    ws = ws[ws < 1.0]
    for w in ws:
        # a flat stretch starting at t=0 refutes the claim outright
        if abs(op(0.0, w) - op(_T_STEP, w)) <= 1e-15:
            return fails((float(w), 0.0, _T_STEP), "section is flat on an initial segment")
    return unknown(f"no flat section on [0, {_T_STEP:g}] at each of {ws.size} w")
