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

from .families import FAMILIES, PARAMETRIC, Family, _shortest, lifted, resolve
from .verdicts import TriState, _row_blocks, fails, holds, unknown

# Absolute tolerance for comparisons between membership degrees.
EPSILON = 1e-9

# Halvings of each jump of a custom operator's section (`_jump`); the divisor
# interval ends and residuals bisect float bit patterns instead.
BISECTION_STEPS = 60


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
    [0,1]^2 -> [0,1] operator with identity 1 (norm) or 0 (conorm).

    ``evaluator`` takes float arrays and returns a float64 array of their
    broadcast shape (or a np.float64 for 0-d operands): a built-in one by
    construction, a custom one through `make_custom`.  Callers use its
    result as it is.  It may be a view of an operand, so a caller never
    writes into it.  The contract covers operands in [0,1], and NaN, which
    gives NaN; the Schweizer-Sklar, Hamacher, probabilistic-sum and drastic
    evaluators give the absorbing value beside an absorbing partner instead."""

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
    return _shortest(lam)


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
    `lifted`, so one value rounds as it does in an array.  Its result is
    viewed, read-only, at the operands' broadcast shape, so a callable that
    returns a constant or one operand still meets the evaluator contract."""

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
        return np.broadcast_to(out, np.broadcast_shapes(np.shape(x), np.shape(y)))

    return BinaryOp(kind, "custom", None, ev)


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
        lam = _number(raw)  # reads +inf, inf and -inf too
        if lam is None:
            raise ValueError(f"bad lambda value {raw!r} in spec {spec!r}")
        text = head
    return make_family(text, kind, lam)


def _number(token: str) -> Optional[float]:
    """``token`` as float() reads it, or None where float() refuses it or where it holds '_' or a
    non-ASCII character ('1_0' and '١' read as 10 and 1): a file's degree, a lambda and a flag read so."""
    if not token.isascii() or "_" in token:
        return None
    try:
        return float(token)
    except ValueError:
        return None


def _count(token: str) -> Optional[int]:
    """``token`` as int() reads it where it is ASCII digits alone (int() also reads '_', signs and
    other scripts' digits), else None: a grid size or a count flag."""
    return int(token) if token.isascii() and token.isdigit() else None


# ---------------------------------------------------------------------------
# grids

_FINEST_STEP = 1.0 / 2000.0  # of a degree grid, and of a region raster's axis


def degree_grid(step: float = 1e-3, extra: Iterable[float] = ()) -> np.ndarray:
    """Uniform grid on [0,1] of the given step, in [1/2000, 1], always
    containing 0, 1/2, 1 plus any extra breakpoints."""

    if not 0.0 < step <= 1.0:  # NaN fails this too
        raise ValueError(f"grid step must lie in (0, 1], got {step:g}")
    if step < _FINEST_STEP:  # a step of 1e-9 would ask for 10**9 points
        raise ValueError(f"grid step below 1/2000 is not supported, got {step:g}")
    pts = np.linspace(0.0, 1.0, round(1.0 / step) + 1)
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
        got = op.evaluator(xs, ys)
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
        fwd = op.evaluator(xx, yy)
        bwd = op.evaluator(yy, xx)
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
    ab = op.evaluator(A, B)
    bc = op.evaluator(B, C)
    lhs = op.evaluator(ab, C)
    rhs = op.evaluator(A, bc)
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
# the four properties of the section t -> op(t, w): a built-in operator reads
# each witness off its record, a custom one off one evaluation on the section
# grid (t in steps of 1e-3 at each of 101 values of w)

# degree_grid(1e-3) and degree_grid(0.01); its np.unique would import numpy.ma,
# some 14 ms, into every start of the package
_T = np.linspace(0.0, 1.0, 1001)
_W = np.linspace(0.0, 1.0, 101)
_JUMP = 0.05  # a rise above this across a step of t is a jump unless bisection shrinks it


def _section(op: BinaryOp) -> np.ndarray:
    """op(t, w) on the section grid, one row per w."""
    tt, ww = np.meshgrid(_T, _W)
    return op.evaluator(tt, ww)


def _verdict(op: BinaryOp, witness, proven: str, swept: str, failure: Callable[..., str]) -> TriState:
    """FAILS at ``witness``, worded by ``failure(*witness)``; without one, HOLDS
    for a built-in operator (its record is proven), UNKNOWN for a custom one."""
    if witness is None:
        return holds(proven) if op.is_builtin else unknown(swept)
    return fails(witness, failure(*witness))


def check_first_coordinate_continuity(op: BinaryOp) -> TriState:
    """Continuity of t -> op(t, w) for every fixed w.

    For commutative monotone operators separate continuity in one coordinate
    is equivalent to joint continuity; some sources phrase the hypothesis as
    right-continuity instead, which for these operators asks no less.  Only
    the first-coordinate check is exposed.
    """

    if op.is_builtin:
        witness = op.record.jump
        if witness is not None and op.kind is Kind.NORM:  # the conorm's jump, mirrored
            witness = (1.0 - witness[1], 1.0 - witness[0], 1.0 - witness[2])
    else:
        witness = _jump(op)
    return _verdict(
        op, witness, f"{op.display_name} is continuous on [0,1]^2",
        f"no jump above {_JUMP:g} on {_T.size} points of t at each of {_W.size} w",
        lambda t0, t1, w: f"jump from {op(t0, w):g} to {op(t1, w):g} across first-argument gap of {abs(t1 - t0):g}",
    )


def _jump(op: BinaryOp) -> Optional[Tuple[float, float, float]]:
    """(t0, t1, w) across which a custom section jumps, or None.  Each step of
    the section grid that rises by more than _JUMP is halved BISECTION_STEPS
    times, keeping the half with the larger rise; the first w where a rise
    stays above _JUMP gives its largest one."""
    V = _section(op)
    wi, ti = np.nonzero(np.abs(np.diff(V, axis=1)) > _JUMP)
    if not wi.size:
        return None
    w, a, b, va, vb = _W[wi], _T[ti], _T[ti + 1], V[wi, ti], V[wi, ti + 1]
    for _ in range(BISECTION_STEPS):
        m = 0.5 * (a + b)
        vm = op.evaluator(m, w)
        left = np.abs(vm - va) >= np.abs(vb - vm)
        a, va = np.where(left, a, m), np.where(left, va, vm)
        b, vb = np.where(left, m, b), np.where(left, vm, vb)
    rise = np.abs(vb - va)
    jumps = rise > _JUMP
    if not jumps.any():
        return None
    k = int(np.argmax(np.where(jumps & (wi == wi[jumps][0]), rise, -1.0)))
    return (float(a[k]), float(b[k]), float(w[k]))


def check_strictly_increasing_first(op: BinaryOp) -> TriState:
    """Strict increase of t -> op(t,w): on [0,1) with w < 1 for conorms, on
    (0,1] with w > 0 for norms (the only strictness a t-operator can have)."""

    if op.is_builtin:
        witness = op.record.strict_conorm if op.kind is Kind.CONORM else op.record.strict_norm
    else:
        # the first step, in w then t, with no rise, leaving out the row w = a
        # and the step that touches t = a (a = 1 for a conorm, 0 for a norm)
        flat = np.diff(_section(op), axis=1) <= 0.0
        a = -1 if op.kind is Kind.CONORM else 0
        flat[a], flat[:, a] = False, False
        i, k = np.unravel_index(np.argmax(flat), flat.shape)
        witness = (float(_T[k]), float(_T[k + 1]), float(_W[i])) if flat[i, k] else None
    return _verdict(
        op, witness, f"{op.display_name} is strictly increasing off its absorbing row",
        f"strictly increasing on {_T.size - 1} points of t at each of {_W.size - 1} w",
        lambda t, s, w: "op({},{}) = {} and op({},{}) = {}".format(*map(_shortest, (t, w, op(t, w), s, w, op(s, w)))),
    )


def check_collapse_implies_absorption(op: BinaryOp) -> TriState:
    """Whether S(t,w) = S(s,w) with t != s forces S(t,w) = w.

    Strictly increasing conorms satisfy this vacuously; the maximum satisfies
    it because any collapse happens at the absorbed value w itself.
    """

    if op.kind is not Kind.CONORM:
        raise ValueError("collapse/absorption is a conorm property")
    return _verdict(
        op, op.record.collapse if op.is_builtin else find_collapse_witness(op),
        f"collapses of {op.display_name} only happen at the absorbed value",
        f"no collapse above the absorbed value across steps of {_T[1]:g} in t at each of {_W.size} w",
        lambda w, t, s: "S({},{}) = S({},{}) = {} > {}".format(*map(_shortest, (t, w, s, w, op(t, w), w))),
    )


def find_collapse_witness(S: BinaryOp) -> Optional[Tuple[float, float, float]]:
    """(w, t, s) with S(t,w) = S(s,w) > w for adjacent t < s of the section
    grid, the first in t; None if the section grid holds none.  For a
    monotone S this finds every collapse between points of the 0.01 grid:
    S(t,w) = S(s,w) > w there makes each step from t to s flat above w."""

    V = _section(S)
    hit = (np.abs(np.diff(V, axis=1)) <= EPSILON) & (V[:, :-1] > _W[:, None] + EPSILON)
    k, i = np.unravel_index(np.argmax(hit.T), hit.T.shape)
    return (float(_W[i]), float(_T[k]), float(_T[k + 1])) if hit[i, k] else None


def check_strict_near_zero(op: BinaryOp) -> TriState:
    """Whether for every w in [0,1) the section t -> S(t,w) is strictly
    increasing on some [0, eps] (the extra hypothesis for full
    strict-preference equivalence in decomposed preferences)."""

    if op.kind is not Kind.CONORM:
        raise ValueError("strict-near-zero is a conorm property")
    if op.is_builtin:
        witness = op.record.flat_near_zero
    else:  # a flat stretch from t = 0, or from just after a jump at 0, refutes the claim
        w, t = _W[:-1], np.zeros(_W.size - 1)
        end = op.evaluator(t + _T[1], w)
        # where the first step rises by more than _JUMP, S is read instead at
        # its BISECTION_STEPS-th halving towards 0, t = 0.001 * 2**-60
        t[end - op.evaluator(t, w) > _JUMP] = _T[1] * 0.5**BISECTION_STEPS
        flat = np.flatnonzero(np.abs(end - op.evaluator(t, w)) <= 1e-15)
        witness = (float(w[flat[0]]), float(t[flat[0]]), float(_T[1])) if flat.size else None
    return _verdict(
        op, witness, f"{op.display_name} rises strictly from t=0 for every w < 1",
        f"no flat section on [0, {_T[1]:g}] or just after a jump at 0, at each of {_W.size - 1} w",
        lambda w, t, s: f"S({t:g},{w:g}) = {op(t, w):g} and S({s:g},{w:g}) = {op(s, w):g}: flat near 0",
    )
