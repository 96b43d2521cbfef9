"""Triangular norms and conorms on [0,1] with property checkers.

Built-in families: minimum/maximum, product/probabilistic sum, Lukasiewicz,
drastic, Schweizer-Sklar (lambda in [-inf, +inf]), Hamacher (lambda in
[0, +inf]) and the ordinal sum that rescales the Lukasiewicz conorm onto
[0, 1/2].  Evaluators are numpy-vectorised and exact at the boundary rows
x=0, x=1 (the parametric families short-circuit them instead of trusting a
power-function round trip).

Universally quantified properties (continuity, strictness, ...) carry
analytically known verdicts for built-in families; user-supplied operators
are swept on a finite grid and can at best earn an UNKNOWN_SAMPLED verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional

import numpy as np

from .verdicts import TriState, fails, holds, unknown

# Absolute tolerance for comparisons between membership degrees.
EPSILON = 1e-9

# A parameter this close to a special value (0 for Schweizer-Sklar) is
# treated as that special value.
LAMBDA_SNAP = 1e-12


class Kind(Enum):
    NORM = "norm"
    CONORM = "conorm"


_CANONICAL_FAMILIES = (
    "minimum",
    "product",
    "lukasiewicz",
    "drastic",
    "schweizer_sklar",
    "hamacher",
    "ordinal_sum_lukasiewicz_half",
    "custom",
)

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

_PARAMETRIC = ("schweizer_sklar", "hamacher")


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
        lam = self.parameter
        suffix = "" if lam is None else f"(lambda={format_lambda(lam)})"
        names = {
            ("minimum", Kind.NORM): "Minimum",
            ("minimum", Kind.CONORM): "Maximum",
            ("product", Kind.NORM): "Product",
            ("product", Kind.CONORM): "Probabilistic sum",
            ("lukasiewicz", Kind.NORM): "Lukasiewicz norm",
            ("lukasiewicz", Kind.CONORM): "Lukasiewicz conorm",
            ("drastic", Kind.NORM): "Drastic product",
            ("drastic", Kind.CONORM): "Drastic sum",
            ("schweizer_sklar", Kind.NORM): "Schweizer-Sklar norm",
            ("schweizer_sklar", Kind.CONORM): "Schweizer-Sklar conorm",
            ("hamacher", Kind.NORM): "Hamacher norm",
            ("hamacher", Kind.CONORM): "Hamacher conorm",
            ("ordinal_sum_lukasiewicz_half", Kind.NORM): "Ordinal-sum norm (Lukasiewicz on [1/2,1])",
            ("ordinal_sum_lukasiewicz_half", Kind.CONORM): "Ordinal-sum conorm (Lukasiewicz on [0,1/2])",
            ("custom", Kind.NORM): "custom norm",
            ("custom", Kind.CONORM): "custom conorm",
        }
        return names[(self.family, self.kind)] + suffix

    def spec_string(self) -> str:
        if self.parameter is None:
            return self.family
        return f"{self.family}:lambda={format_lambda(self.parameter)}"


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
# evaluators


def _t_minimum(x, y):
    return np.minimum(x, y)


def _s_maximum(x, y):
    return np.maximum(x, y)


def _t_product(x, y):
    return x * y


def _s_probabilistic(x, y):
    # the plain formula rounds S(1,y) below 1 for some y; pin the boundary
    return np.where((x == 1.0) | (y == 1.0), 1.0, x + y - x * y)


def _t_lukasiewicz(x, y):
    return np.maximum(x + y - 1.0, 0.0)


def _s_lukasiewicz(x, y):
    return np.minimum(x + y, 1.0)


def _t_drastic(x, y):
    return np.where(y == 1.0, x, np.where(x == 1.0, y, 0.0))


def _s_drastic(x, y):
    return np.where(y == 0.0, x, np.where(x == 0.0, y, 1.0))


def _t_ordinal_sum(x, y):
    return np.where(
        (x >= 0.5) & (y >= 0.5), np.maximum(0.5, x + y - 1.0), np.minimum(x, y)
    )


def _s_ordinal_sum(x, y):
    return np.where(
        (x <= 0.5) & (y <= 0.5), np.minimum(0.5, x + y), np.maximum(x, y)
    )


def _make_ss_norm(lam: float):
    def ev(x, y):
        interior = (x > 0) & (y > 0) & (x < 1) & (y < 1)
        xs = np.where(interior, x, 0.5)
        ys = np.where(interior, y, 0.5)
        with np.errstate(all="ignore"):
            inner = np.maximum(xs ** lam + ys ** lam - 1.0, 0.0)
            val = inner ** (1.0 / lam)
        val = np.clip(val, 0.0, 1.0)
        out = np.where(interior, val, 0.0)
        out = np.where((x == 0.0) | (y == 0.0), 0.0, out)
        out = np.where(x == 1.0, y, out)
        out = np.where(y == 1.0, np.where(x == 1.0, 1.0, x), out)
        return out

    return ev


def _make_ss_conorm(lam: float):
    def ev(x, y):
        interior = (x > 0) & (y > 0) & (x < 1) & (y < 1)
        xs = np.where(interior, x, 0.5)
        ys = np.where(interior, y, 0.5)
        with np.errstate(all="ignore"):
            inner = np.maximum((1.0 - xs) ** lam + (1.0 - ys) ** lam - 1.0, 0.0)
            val = 1.0 - inner ** (1.0 / lam)
        val = np.clip(val, 0.0, 1.0)
        out = np.where(interior, val, 0.0)
        out = np.where((x == 1.0) | (y == 1.0), 1.0, out)
        out = np.where(x == 0.0, y, out)
        out = np.where(y == 0.0, np.where(x == 0.0, 0.0, x), out)
        return out

    return ev


def _make_hamacher_norm(lam: float):
    def ev(x, y):
        plain = (x > 0) & (y > 0) & (x < 1) & (y < 1)
        xs = np.where(plain, x, 0.5)
        ys = np.where(plain, y, 0.5)
        with np.errstate(all="ignore"):
            val = xs * ys / (lam + (1.0 - lam) * (xs + ys - xs * ys))
        val = np.clip(val, 0.0, 1.0)
        out = np.where(plain, val, 0.0)
        out = np.where((x == 0.0) | (y == 0.0), 0.0, out)
        out = np.where(x == 1.0, y, out)
        out = np.where(y == 1.0, np.where(x == 1.0, 1.0, x), out)
        return out

    return ev


def _make_hamacher_conorm(lam: float):
    def ev(x, y):
        plain = (x > 0) & (y > 0) & (x < 1) & (y < 1)
        xs = np.where(plain, x, 0.5)
        ys = np.where(plain, y, 0.5)
        with np.errstate(all="ignore"):
            val = (xs + ys - xs * ys - (1.0 - lam) * xs * ys) / (
                1.0 - (1.0 - lam) * xs * ys
            )
        val = np.clip(val, 0.0, 1.0)
        out = np.where(plain, val, 0.0)
        out = np.where((x == 1.0) | (y == 1.0), 1.0, out)
        out = np.where(x == 0.0, y, out)
        out = np.where(y == 0.0, np.where(x == 0.0, 0.0, x), out)
        return out

    return ev


# ---------------------------------------------------------------------------
# construction


def _snap_lambda(family: str, lam: float) -> float:
    lam = float(lam)
    if family == "schweizer_sklar" and abs(lam) <= LAMBDA_SNAP:
        return 0.0
    if family == "hamacher" and abs(lam) <= LAMBDA_SNAP:
        return 0.0
    return lam


def make_family(family: str, kind: Kind, parameter: Optional[float] = None) -> BinaryOp:
    """Build a built-in operator.  Raises ValueError for unknown families or
    parameters outside the family's range."""

    fam = canonical_family(family)
    if fam == "custom":
        raise ValueError("use make_custom() for user-supplied operators")
    if fam in _PARAMETRIC:
        if parameter is None:
            raise ValueError(f"family {fam!r} requires a lambda parameter")
        lam = _snap_lambda(fam, parameter)
        if math.isnan(lam):
            raise ValueError(f"{fam} lambda must not be NaN")
        if fam == "hamacher" and not (lam >= 0.0):
            raise ValueError("hamacher lambda must lie in [0, +inf]")
    else:
        if parameter is not None:
            raise ValueError(f"family {fam!r} takes no parameter")
        lam = None

    if fam == "schweizer_sklar":
        if lam == -math.inf:
            ev = _t_minimum if kind is Kind.NORM else _s_maximum
        elif lam == 0.0:
            ev = _t_product if kind is Kind.NORM else _s_probabilistic
        elif lam == math.inf:
            ev = _t_drastic if kind is Kind.NORM else _s_drastic
        else:
            ev = _make_ss_norm(lam) if kind is Kind.NORM else _make_ss_conorm(lam)
        return BinaryOp(kind, fam, lam, ev)

    if fam == "hamacher":
        if lam == math.inf:
            ev = _t_drastic if kind is Kind.NORM else _s_drastic
        else:
            ev = (
                _make_hamacher_norm(lam)
                if kind is Kind.NORM
                else _make_hamacher_conorm(lam)
            )
        return BinaryOp(kind, fam, lam, ev)

    table = {
        ("minimum", Kind.NORM): _t_minimum,
        ("minimum", Kind.CONORM): _s_maximum,
        ("product", Kind.NORM): _t_product,
        ("product", Kind.CONORM): _s_probabilistic,
        ("lukasiewicz", Kind.NORM): _t_lukasiewicz,
        ("lukasiewicz", Kind.CONORM): _s_lukasiewicz,
        ("drastic", Kind.NORM): _t_drastic,
        ("drastic", Kind.CONORM): _s_drastic,
        ("ordinal_sum_lukasiewicz_half", Kind.NORM): _t_ordinal_sum,
        ("ordinal_sum_lukasiewicz_half", Kind.CONORM): _s_ordinal_sum,
    }
    return BinaryOp(kind, fam, None, table[(fam, kind)])


def make_norm(family: str, parameter: Optional[float] = None) -> BinaryOp:
    return make_family(family, Kind.NORM, parameter)


def make_conorm(family: str, parameter: Optional[float] = None) -> BinaryOp:
    return make_family(family, Kind.CONORM, parameter)


def make_custom(fn: Callable, kind: Kind) -> BinaryOp:
    """Wrap a user-supplied [0,1]^2 -> [0,1] callable (must broadcast over
    numpy arrays, or at least accept scalars)."""

    def ev(x, y):
        try:
            return np.asarray(fn(x, y), dtype=float)
        except (TypeError, ValueError):
            return np.vectorize(fn, otypes=[float])(x, y)

    return BinaryOp(kind, "custom", None, ev)


def dual(op: BinaryOp) -> BinaryOp:
    """The De Morgan dual with respect to the standard negation 1-x."""
    if not op.is_builtin:
        other = Kind.CONORM if op.kind is Kind.NORM else Kind.NORM
        inner = op.evaluator
        return make_custom(lambda x, y: 1.0 - inner(1.0 - np.asarray(x, float), 1.0 - np.asarray(y, float)), other)
    other = Kind.CONORM if op.kind is Kind.NORM else Kind.NORM
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

    if step <= 0:
        raise ValueError("grid step must be positive")
    n = max(1, round(1.0 / step))
    pts = np.linspace(0.0, 1.0, n + 1)
    merged = np.union1d(pts, np.asarray([0.0, 0.5, 1.0, *extra], dtype=float))
    return merged[(merged >= 0.0) & (merged <= 1.0)]


def family_breakpoints(op: BinaryOp) -> tuple:
    if op.family == "ordinal_sum_lukasiewicz_half":
        return (0.5,)
    return ()


def _as_grid(grid, op: BinaryOp, default_step: float) -> np.ndarray:
    if grid is None:
        return degree_grid(default_step, family_breakpoints(op))
    if np.isscalar(grid):
        return degree_grid(float(grid), family_breakpoints(op))
    return np.asarray(grid, dtype=float)


# ---------------------------------------------------------------------------
# regime helpers (used by the analytic verdicts below and by `divisors`)


def ss_regime(lam: float) -> str:
    if lam == -math.inf:
        return "neg_inf"
    if lam == math.inf:
        return "pos_inf"
    if lam < 0:
        return "neg"
    if lam == 0:
        return "zero"
    return "pos"


def resolved_family(op: BinaryOp) -> str:
    """The family whose formulas govern this operator, after collapsing
    degenerate parameter values (Schweizer-Sklar at -inf/0/+inf, Hamacher
    at +inf) onto the family they reproduce."""

    if op.family == "schweizer_sklar":
        return {
            "neg_inf": "minimum",
            "zero": "product",
            "pos_inf": "drastic",
            "neg": "schweizer_sklar",
            "pos": "schweizer_sklar",
        }[ss_regime(op.parameter)]
    if op.family == "hamacher":
        return "drastic" if op.parameter == math.inf else "hamacher"
    return op.family


# ---------------------------------------------------------------------------
# axiom checking


def check_norm_axioms(op: BinaryOp, grid=None) -> TriState:
    """Check boundary, monotonicity, commutativity and associativity on a
    finite grid (default step 1/100 plus family breakpoints).

    Built-in families pass by construction; the sweep is still run and a
    failure would expose an implementation bug.  Custom operators that pass
    the sweep earn UNKNOWN_SAMPLED, never HOLDS.
    """

    g = _as_grid(grid, op, default_step=0.01)
    if 0.0 not in g or 1.0 not in g:
        raise ValueError("axiom grid must contain 0 and 1")
    zeros = np.zeros_like(g)
    ones = np.ones_like(g)

    if op.kind is Kind.NORM:
        pairs = [
            (g, ones, g, "T(x,1) = x"),
            (ones, g, g, "T(1,x) = x"),
            (g, zeros, zeros, "T(x,0) = 0"),
            (zeros, g, zeros, "T(0,x) = 0"),
        ]
    else:
        pairs = [
            (g, zeros, g, "S(x,0) = x"),
            (zeros, g, g, "S(0,x) = x"),
            (g, ones, ones, "S(x,1) = 1"),
            (ones, g, ones, "S(1,x) = 1"),
        ]
    for xs, ys, want, label in pairs:
        got = np.asarray(op.evaluator(xs, ys), dtype=float)
        bad = np.abs(got - want) > EPSILON
        if bad.any():
            k = int(np.argmax(bad))
            return fails(
                (float(xs[k]), float(ys[k])),
                f"boundary {label} violated: got {float(got[k])!r}",
            )

    xx, yy = np.meshgrid(g, g, indexing="ij")
    fwd = np.asarray(op.evaluator(xx, yy), dtype=float)

    rng = np.abs(fwd - np.clip(fwd, 0.0, 1.0)) > 0
    if rng.any():
        i, j = np.argwhere(rng)[0]
        return fails((float(g[i]), float(g[j])), "output escapes [0,1]")

    bwd = np.asarray(op.evaluator(yy, xx), dtype=float)
    comm_bad = np.abs(fwd - bwd) > EPSILON
    if comm_bad.any():
        i, j = np.argwhere(comm_bad)[0]
        return fails((float(g[i]), float(g[j])), "commutativity violated")

    mono_bad = np.diff(fwd, axis=0) < -EPSILON
    if mono_bad.any():
        i, j = np.argwhere(mono_bad)[0]
        return fails(
            (float(g[i]), float(g[i + 1]), float(g[j])),
            "monotonicity violated in the first argument",
        )

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
    return unknown("grid sweep passed; axioms not certified for a custom operator")


# ---------------------------------------------------------------------------
# first-coordinate continuity


def check_first_coordinate_continuity(op: BinaryOp, resolution: float = 1e-3) -> TriState:
    """Continuity of t -> op(t, w) for every fixed w.

    For commutative monotone operators separate continuity in one coordinate
    is equivalent to joint continuity; some sources phrase the hypothesis as
    right-continuity instead, which for these operators asks no less.  Only
    the first-coordinate check is exposed.
    """

    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if op.is_builtin:
        fam = resolved_family(op)
        if fam != "drastic":
            return holds(f"{op.display_name} is continuous on [0,1]^2")
        w = 0.5
        if op.kind is Kind.CONORM:
            t0, t1 = 0.0, min(resolution, 1e-3)
        else:
            t1, t0 = 1.0, 1.0 - min(resolution, 1e-3)
        v0, v1 = op(t0, w), op(t1, w)
        return fails(
            (t0, t1, w),
            f"jump from {v0:g} to {v1:g} across first-argument gap of {abs(t1 - t0):g}",
        )

    # sampled scan for custom operators: flag jumps much larger than the step
    grid = degree_grid(resolution)
    ws = degree_grid(max(resolution, 0.01))
    jump_tol = max(0.05, 20.0 * resolution)
    for w in ws:
        vals = np.asarray(op.evaluator(grid, np.full_like(grid, w)), dtype=float)
        jumps = np.abs(np.diff(vals))
        k = int(np.argmax(jumps))
        if jumps[k] > jump_tol:
            return fails(
                (float(grid[k]), float(grid[k + 1]), float(w)),
                f"jump of {jumps[k]:g} across adjacent grid points",
            )
    return unknown("no jump found at the sampled resolution")


# ---------------------------------------------------------------------------
# strict increasingness in the first coordinate


def _ss_conorm_saturation(lam: float, w: float) -> float:
    # smallest t with S_ss(t, w) = 1, for finite lam > 0
    return 1.0 - (1.0 - (1.0 - w) ** lam) ** (1.0 / lam)


def _ss_norm_vanishing(lam: float, w: float) -> float:
    # largest t with T_ss(t, w) = 0, for finite lam > 0
    return (1.0 - w ** lam) ** (1.0 / lam)


def check_strictly_increasing_first(op: BinaryOp, resolution: float = 1e-3) -> TriState:
    """Strict increase of t -> op(t,w): on [0,1) with w < 1 for conorms, on
    (0,1] with w > 0 for norms (the only strictness a t-operator can have)."""

    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if op.is_builtin:
        fam = resolved_family(op)
        lam = op.parameter
        if fam == "product" or (
            fam == "schweizer_sklar" and ss_regime(lam) == "neg"
        ) or (fam == "hamacher" and lam != math.inf):
            return holds(f"{op.display_name} is strictly increasing off its absorbing row")
        if fam == "minimum":
            witness = (0.2, 0.3, 0.5) if op.kind is Kind.CONORM else (0.6, 0.7, 0.5)
        elif fam == "lukasiewicz":
            witness = (0.8, 0.9, 0.5) if op.kind is Kind.CONORM else (0.1, 0.2, 0.5)
        elif fam == "drastic":
            witness = (0.3, 0.4, 0.5)
        elif fam == "ordinal_sum_lukasiewicz_half":
            witness = (0.3, 0.4, 0.3) if op.kind is Kind.CONORM else (0.6, 0.65, 0.7)
        else:  # schweizer_sklar, finite lam > 0
            w = 0.5
            if op.kind is Kind.CONORM:
                t0 = _ss_conorm_saturation(lam, w)
                witness = (t0 + (1 - t0) / 3, t0 + 2 * (1 - t0) / 3, w)
            else:
                u0 = _ss_norm_vanishing(lam, w)
                witness = (u0 / 3, 2 * u0 / 3, w)
        t, s, w = witness
        return fails(
            (t, s, w),
            f"op({t:g},{w:g}) = op({s:g},{w:g}) = {op(t, w):g}",
        )

    grid = degree_grid(resolution)
    inner = grid[grid < 1.0] if op.kind is Kind.CONORM else grid[grid > 0.0]
    ws = degree_grid(max(resolution, 0.01))
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
    return unknown("strictly increasing at the sampled resolution")


# ---------------------------------------------------------------------------
# collapse-implies-absorption (the uniqueness hypothesis for rule inducement)


def check_collapse_implies_absorption(op: BinaryOp, resolution: float = 0.01) -> TriState:
    """Whether S(t,w) = S(s,w) with t != s forces S(t,w) = w.

    Strictly increasing conorms satisfy this vacuously; the maximum satisfies
    it because any collapse happens at the absorbed value w itself.
    """

    if op.kind is not Kind.CONORM:
        raise ValueError("collapse/absorption is a conorm property")
    if op.is_builtin:
        fam = resolved_family(op)
        lam = op.parameter
        if fam in ("minimum", "product") or (
            fam == "schweizer_sklar" and ss_regime(lam) == "neg"
        ) or (fam == "hamacher" and lam != math.inf):
            return holds(f"collapses of {op.display_name} only happen at the absorbed value")
        if fam == "lukasiewicz":
            witness = (0.5, 0.6, 0.7)
        elif fam == "drastic":
            witness = (0.5, 0.3, 0.4)
        elif fam == "ordinal_sum_lukasiewicz_half":
            witness = (0.3, 0.4, 0.45)
        else:  # schweizer_sklar, finite lam > 0
            w = 0.5
            t0 = _ss_conorm_saturation(lam, w)
            witness = (w, t0 + (1 - t0) / 3, t0 + 2 * (1 - t0) / 3)
        w, t, s = witness
        return fails(
            (w, t, s),
            f"S({t:g},{w:g}) = S({s:g},{w:g}) = {op(t, w):g} > {w:g}",
        )

    g = degree_grid(max(resolution, 0.005))
    T, S_, W = np.meshgrid(g, g, g, indexing="ij")
    mask = T < S_
    vt = np.asarray(op.evaluator(T, W), dtype=float)
    vs = np.asarray(op.evaluator(S_, W), dtype=float)
    bad = mask & (np.abs(vt - vs) <= EPSILON) & (vt > W + EPSILON)
    if bad.any():
        i, j, k = np.argwhere(bad)[0]
        return fails(
            (float(g[k]), float(g[i]), float(g[j])),
            f"S({g[i]:g},{g[k]:g}) = S({g[j]:g},{g[k]:g}) = {vt[i, j, k]:g} > {g[k]:g}",
        )
    return unknown("no collapse above the absorbed value at the sampled resolution")


# ---------------------------------------------------------------------------
# strict increase near zero (the extra hypothesis for full strict-preference
# equivalence in decomposed preferences)


def check_strict_near_zero(op: BinaryOp, resolution: float = 1e-3) -> TriState:
    """Whether for every w in [0,1) the section t -> S(t,w) is strictly
    increasing on some [0, eps]."""

    if op.kind is not Kind.CONORM:
        raise ValueError("strict-near-zero is a conorm property")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if op.is_builtin:
        fam = resolved_family(op)
        lam = op.parameter
        if fam in ("lukasiewicz", "product") or (
            fam == "schweizer_sklar" and ss_regime(lam) in ("neg", "pos")
        ) or (fam == "hamacher" and lam != math.inf):
            return holds(f"{op.display_name} rises strictly from t=0 for every w < 1")
        if fam == "minimum":
            witness = (0.5, 0.0, 0.25)
        elif fam == "drastic":
            witness = (0.5, 0.1, 0.2)
        else:  # ordinal sum: sections at w >= 1/2 are flat near zero
            witness = (0.5, 0.0, 0.2)
        w, t, s = witness
        return fails(
            (w, t, s),
            f"S({t:g},{w:g}) = {op(t, w):g} and S({s:g},{w:g}) = {op(s, w):g}: flat near 0",
        )

    ws = degree_grid(max(resolution, 0.01))
    ws = ws[ws < 1.0]
    step = min(resolution, 0.01)
    for w in ws:
        # a flat stretch starting at t=0 refutes the claim outright
        if abs(op(0.0, w) - op(step, w)) <= 1e-15:
            return fails((float(w), 0.0, step), "section is flat on an initial segment")
    return unknown("no initial flatness found at the sampled resolution")
