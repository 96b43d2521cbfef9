"""One record per built-in operator family.

Every closed-form fact the package knows about a family lives in its
`Family` record: the norm and conorm formulas, the residual, the exponent
the divisor intervals derive from, the continuity, strictness, collapse and
strict-near-zero verdicts with their witnesses, the breakpoints and the
display names.
Schweizer-Sklar's record takes one of two shapes, for lambda < 0 and for
0 < lambda < +inf, because its formulas change shape at 0.

`resolve` picks the record of a (family, lambda) pair once, when an
operator is built; a parametric family's record is built for that lambda,
so no field takes a parameter.  A degenerate parameter maps onto the family
it reproduces: Schweizer-Sklar at -inf, 0 and +inf onto minimum, product
and drastic, Hamacher at +inf onto drastic; the record keeps the parametric
family's display names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

# A parameter this close to 0 is treated as 0.
LAMBDA_SNAP = 1e-12

# the witness of a failing property; None on a record: the property holds
Witness = Optional[Tuple[float, ...]]


def _plain(x):
    """An array with entries as it is; one value as a plain Python scalar."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def _shortest(x: float) -> str:
    """The shortest text that reads back as x, without a trailing '.0'."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


@dataclass(frozen=True)
class DegreeInterval:
    """A sub-interval of [0,1] with individually open or closed endpoints.

    Array fields hold one interval per entry (they broadcast against each
    other), and every method then works entry by entry; one interval keeps
    plain Python floats and bools."""

    lower: float = 0.0
    upper: float = 0.0
    lower_closed: bool = True
    upper_closed: bool = True
    empty: bool = False
    _FIELDS = ("lower", "upper", "lower_closed", "upper_closed", "empty")

    def __post_init__(self):
        fields = [np.asarray(getattr(self, n)) for n in self._FIELDS]
        if any(f.ndim for f in fields):
            fields = np.broadcast_arrays(*fields)
        else:
            fields = [f.item() for f in fields]
        lo, hi, lo_c, hi_c, empty = fields
        live = np.logical_not(empty)
        if np.count_nonzero(live & np.logical_not((0.0 <= lo) & (lo <= hi) & (hi <= 1.0))):
            raise ValueError("interval endpoints must satisfy 0 <= lower <= upper <= 1")
        if np.count_nonzero(live & (lo == hi) & np.logical_not(lo_c & hi_c)):
            raise ValueError("a degenerate interval must be closed (or empty)")
        for name, value in zip(self._FIELDS, fields):
            object.__setattr__(self, name, value)

    def __eq__(self, other):  # field by field: array intervals compare to one bool too
        if not isinstance(other, DegreeInterval):
            return NotImplemented
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in self._FIELDS)

    @staticmethod
    def closed(lower: float, upper: float) -> "DegreeInterval":
        return DegreeInterval(lower, upper, True, True)

    @staticmethod
    def singleton(value: float) -> "DegreeInterval":
        return DegreeInterval(value, value, True, True)

    def contains(self, t):
        above = (t > self.lower) | (self.lower_closed & (t == self.lower))
        below = (t < self.upper) | (self.upper_closed & (t == self.upper))
        return _plain(np.logical_not(self.empty) & above & below)

    @property
    def is_singleton(self):
        return _plain(np.logical_not(self.empty) & (self.lower == self.upper))

    def intersect(self, other: "DegreeInterval") -> "DegreeInterval":
        a, b = self, other
        # an inner end is open where an interval that reaches it leaves it open
        lo_c = (a.lower_closed | (a.lower < b.lower)) & (b.lower_closed | (b.lower < a.lower))
        hi_c = (a.upper_closed | (a.upper > b.upper)) & (b.upper_closed | (b.upper > a.upper))
        lo, hi = np.maximum(a.lower, b.lower), np.minimum(a.upper, b.upper)
        empty = a.empty | b.empty | (lo > hi) | ((lo == hi) & np.logical_not(lo_c & hi_c))
        live = np.logical_not(empty)
        return DegreeInterval(
            np.where(live, lo, 0.0), np.where(live, hi, 0.0), lo_c & live, hi_c & live, empty
        )

    def two_points(self) -> tuple:
        """Two distinct members (a, b), entry by entry; NaN for both where
        the interval has fewer than two."""
        lo, hi = self.lower, self.upper
        a = np.where(self.lower_closed, lo, lo + (hi - lo) / 4)
        b = np.where(self.upper_closed, hi, hi - (hi - lo) / 4)
        b = np.where(a == b, (a + hi) / 2, b)
        none = self.empty | (a == b)
        return _plain(np.where(none, np.nan, a)), _plain(np.where(none, np.nan, b))

    def __str__(self) -> str:
        if np.ndim(self.empty):  # one text per entry, each as the scalar interval prints
            entries = zip(*(np.ravel(getattr(self, n)).tolist() for n in self._FIELDS))
            return "; ".join(str(DegreeInterval(*entry)) for entry in entries)
        if self.empty:
            return "{}"
        lo, hi = (_shortest(v) for v in (self.lower, self.upper))
        if self.is_singleton:
            return f"{{{lo}}}"
        lb = "[" if self.lower_closed else "("
        rb = "]" if self.upper_closed else ")"
        return f"{lb}{lo}, {hi}{rb}"


@dataclass(frozen=True)
class Family:
    """The closed forms of one family at one parameter value.

    ``exponent`` is the p the divisor intervals `zero_interval` and
    `one_interval` derive from: p = 0 for the points {0} and {1}, +inf for
    the drastic [0,1) and (0,1], the power p of [0, (1-w^p)^(1/p)] otherwise.
    For p other than 1 the closed end moves into the interval until it
    replays in the record's own evaluator (`_replaying`), so T(upper, w) = 0
    and S(lower, w) = 1 hold in floats at every closed end.
    """

    names: Tuple[str, str]  # display names of the norm and the conorm
    norm: Callable  # (x, y) -> T(x, y)
    conorm: Callable  # (x, y) -> S(x, y)
    residual: Callable  # (i, r) -> inf{t : S(t, i) >= r}, read where r > i
    exponent: float
    jump: Witness = None  # (t0, t1, w): S(., w) jumps between t0 and t1; T at (1-t1, 1-t0, 1-w)
    strict_norm: Witness = None  # (t, s, w): T(t,w) = T(s,w) with w > 0
    strict_conorm: Witness = None  # (t, s, w): S(t,w) = S(s,w) with w < 1
    collapse: Witness = None  # (w, t, s): S(t,w) = S(s,w) > w
    flat_near_zero: Witness = None  # (w, t, s): S flat from t = 0 at w < 1
    breakpoints: Tuple[float, ...] = ()

    def zero_interval(self, w) -> DegreeInterval:
        """{t : T(t, w) = 0}, for one w or entry by entry for an array of w."""
        p, w = self.exponent, np.asarray(w, dtype=float)
        if p == 0.0:  # {0}; all of [0,1] at w = 0
            return DegreeInterval.closed(0.0, 1.0 * (w == 0.0))
        if p == math.inf:  # [0,1); all of [0,1] at w = 0, {0} at w = 1
            return DegreeInterval(0.0, 1.0 * (w != 1.0), True, (w == 0.0) | (w == 1.0))
        end = _zero_end(w, p)
        return DegreeInterval.closed(0.0, end if p == 1.0 else _replaying(self.norm, end, w, 0.0))

    def one_interval(self, w) -> DegreeInterval:
        """{t : S(t, w) = 1}, for one w or entry by entry for an array of w."""
        p, w = self.exponent, np.asarray(w, dtype=float)
        if p == 0.0:  # {1}; all of [0,1] at w = 1
            return DegreeInterval.closed(1.0 * (w != 1.0), 1.0)
        if p == math.inf:  # (0,1]; {1} at w = 0, all of [0,1] at w = 1
            return DegreeInterval(1.0 * (w == 0.0), 1.0, (w == 0.0) | (w == 1.0), True)
        # S is the dual of T: the zero-interval at 1 - w, reflected
        end = 1.0 - _zero_end(1.0 - w, p)
        return DegreeInterval.closed(end if p == 1.0 else _replaying(self.conorm, end, w, 1.0), 1.0)


def lifted(formula, *bases):
    """``formula(*bases)`` with every 0-d base lifted to one entry, the result
    back to 0-d when all bases were.  A 0-d operand decays to np.float64,
    whose ``**`` is the C library's pow; numpy's array power differs from it
    in the last bit for some x, so one value must take the array path to round
    as it does in an array.  Exponents stay Python floats: an array exponent
    skips numpy's square, sqrt and reciprocal fast paths."""
    bases = [np.asarray(b, dtype=float) for b in bases]
    out = formula(*[b if b.ndim else b[None] for b in bases])
    return out if any(b.ndim for b in bases) else np.asarray(out).reshape(())


def _zero_end(w, p):
    """(1 - w^p)^(1/p): the upper end of the zero-interval for exponent p."""
    return 1.0 - w if p == 1.0 else lifted(lambda w: (1.0 - w ** p) ** (1.0 / p), w)


def _copied(out, *rules):
    """``out``, a built-in evaluator's one fresh array, with each (value, where) rule copied in
    over it in turn, the last one winning, no cell gathered.  A 0-d array (a ufunc's scalar of
    0-d operands, made an array) takes a plain store, a third of what ``np.copyto`` costs there."""
    out = np.asarray(out)
    for value, where in rules:
        if out.ndim:
            np.copyto(out, value, where=where)
        elif where:
            out[()] = value
    return out


def _pinned(formula, absorbing: float):
    """Evaluator computing ``formula`` on `lifted` operands, clipped to [0,1],
    with the boundary rows pinned: a norm (absorbing 0) has T(x,0) = 0 and
    T(x,1) = x, a conorm (absorbing 1) S(x,1) = 1 and S(x,0) = x.  The
    absorbing value goes where an operand is absorbing, then y where x is the
    identity, x where y is, and +0.0 in a conorm's (+-0, +-0) cell.  Each cell
    rounds as alone; a NaN operand gives NaN unless its partner absorbs."""
    identity = 1.0 - absorbing

    def ev(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        with np.errstate(all="ignore"):
            out = lifted(formula, x, y)
        np.clip(out, 0.0, 1.0, out=out)
        rules = [(absorbing, (x == absorbing) | (y == absorbing)), (y, x == identity), (x, y == identity)]
        if absorbing == 1.0:  # the last rule copies x = -0.0 at y = +-0
            rules.append((0.0, (x == 0.0) & (y == 0.0)))
        return _copied(out, *rules)

    return ev


def _drastic(absorbing: float):
    """Drastic evaluator with absorbing value 0 (the norm) or 1 (the conorm):
    the absorbing value, except where an operand is the identity, where it
    is the other operand.  A NaN operand gives NaN unless its partner
    absorbs; operands without NaN, the usual blocks, skip that rule."""
    identity = 1.0 - absorbing
    fill = np.zeros if absorbing == 0.0 else np.ones

    def ev(x, y):
        out = _copied(fill(np.broadcast(x, y).shape), (y, x == identity), (x, y == identity))
        if np.isnan(np.max(x, initial=0.0)) or np.isnan(np.max(y, initial=0.0)):
            nan = x + y  # NaN where an operand is
            out = _copied(out, (nan, np.isnan(nan) & (x != absorbing) & (y != absorbing)))
        return out

    return ev


def _bisect(inside, lo, hi):
    """(lo, hi): the adjacent floats at the edge of a set, entry by entry, from lo outside and
    hi inside it (floats >= 0 in either order, ``inside`` monotone in floats between them), by
    bisecting the int64 bit patterns, which order floats >= 0 as their values do: one call of
    ``inside`` a halving, at most 62 from 0 to 1.  An entry with lo = hi stays."""
    lo, hi = (np.asarray(a, dtype=float).view(np.int64) for a in (lo, hi))
    # a halving leaves at most ceil(gap / 2) patterns between them
    for _ in range(int(np.max(np.abs(hi - lo), initial=1) - 1).bit_length()):
        mid = (lo + hi) >> 1
        ok = inside(mid.view(np.float64))
        hi, lo = np.where(ok, mid, hi), np.where(ok, lo, mid)
    return lo.view(np.float64), hi.view(np.float64)


def _replaying(op, t, w, absorbing: float):
    """The closed-form end t of {t : op(t, w) = absorbing} (op is monotone in
    t), moved into that set until it replays in floats; where it already
    does it is kept.  Schweizer-Sklar at lam > 1 misses by rounding, up to
    1e-8 at lam = 2, and a step or two ends the walk.  A norm's end steps
    down one float at a time, a conorm's up to the next float and at least
    one float of 1 - t (it reads t through 1 - t).  Where that end rounded
    up to 1 (lam near 0, w > 0; a strict degree of 1 breaks T(P, I) = 0 for
    every norm), the distance d below 1 doubles from one float until 1 - d
    does not saturate (S(0, w) = w < 1), then `_bisect` finds the edge."""
    t, w = (np.array(a) for a in np.broadcast_arrays(t, w))
    missed = (op(t, w) != absorbing) & (t == t)  # a NaN end (of a NaN w) stays, for the interval to refuse
    while missed.any():
        if absorbing:
            step = np.maximum(np.nextafter(t, 1.0), 1.0 - np.nextafter(1.0 - t, 0.0))
        else:
            step = np.nextafter(t, 0.0)
        t = np.where(missed, step, t)
        missed &= op(t, w) != absorbing
    top = (t == 1.0) & (w > 0.0)  # S(t, 0) = t saturates only at t = 1
    if absorbing and top.any():
        wt, d = w[top], np.full(int(top.sum()), 2.0 ** -53)
        while (more := op(1.0 - d, wt) == 1.0).any():
            d = np.where(more, 2.0 * d, d)
        # 1 - d/2 saturated (1 - 2^-54 rounds to 1.0)
        t[top] = _bisect(lambda t: op(t, wt) == 1.0, 1.0 - d, 1.0 - d / 2)[1]
    return t


def _least_addend(i, r):
    """The least float t >= 0 with t + i rounding to at least r: the residual
    of a conorm that adds its arguments, for r <= the sum's cap.  r - i is the
    real infimum; the float sum reaches r from up to half the float gap below
    r, so r - i can lie above the least such t (at i one float below r, the
    sum already rounds to r at t = half that gap).  The start r - i - gap/2
    is exact for i >= r/2; a step or two down or up ends the walk.  A step
    moves only the cells still walking, through t's bit pattern.  The walk
    works in place: each new block-sized array costs page faults as well as
    arithmetic."""

    def walk(i, r):
        # the gap below r, from the bits of |r| (-0.0's own bits step to a NaN)
        gap = np.abs(r)
        below = gap.view(np.int64) - 1
        np.maximum(below, 0, out=below)
        gap -= below.view(np.float64)
        gap *= 0.5
        t = r - i
        t -= gap
        np.maximum(t, 0.0, out=t)
        bits = t.view(np.int64)
        over = _reaches_below(bits, i, r)
        while over.any():
            bits -= over
            over &= _reaches_below(bits, i, r)
        short = t + i < r
        while short.any():
            bits += short
            short &= t + i < r
        return t

    return lifted(walk, i, r)


def _reaches_below(bits, i, r):
    """Whether the float below t (t >= 0, given by its bits) still reaches r
    when added to i."""
    below = bits - 1
    sums = below.view(np.float64)
    sums += i
    return (sums >= r) & (bits > 0)


MINIMUM = Family(
    names=("Minimum", "Maximum"),
    norm=np.minimum,
    conorm=np.maximum,
    residual=lambda i, r: r,
    exponent=0.0,
    strict_norm=(0.6, 0.7, 0.5),
    strict_conorm=(0.2, 0.3, 0.5),
    flat_near_zero=(0.5, 0.0, 0.25),
)

PRODUCT = Family(
    names=("Product", "Probabilistic sum"),
    norm=lambda x, y: x * y,
    # the plain formula rounds S(1,y) below 1 for some y; pin the boundary
    conorm=lambda x, y: _copied(x + y - x * y, (1.0, (x == 1.0) | (y == 1.0))),
    residual=lambda i, r: np.clip((r - i) / (1.0 - i), 0.0, 1.0),
    exponent=0.0,
)

LUKASIEWICZ = Family(
    names=("Lukasiewicz norm", "Lukasiewicz conorm"),
    norm=lambda x, y: np.maximum(x + y - 1.0, 0.0),
    conorm=lambda x, y: np.minimum(x + y, 1.0),
    residual=_least_addend,
    exponent=1.0,
    strict_norm=(0.1, 0.2, 0.5),
    strict_conorm=(0.8, 0.9, 0.5),
    collapse=(0.5, 0.6, 0.7),
)


DRASTIC = Family(
    names=("Drastic product", "Drastic sum"),
    norm=_drastic(0.0),
    conorm=_drastic(1.0),
    # for 0 < i < r the attaining set is (0,1]: infimum 0, not attained
    residual=lambda i, r: np.where(i == 0.0, r, 0.0),
    exponent=math.inf,
    jump=(0.0, 0.001, 0.5),
    strict_norm=(0.3, 0.4, 0.5),
    strict_conorm=(0.3, 0.4, 0.5),
    collapse=(0.5, 0.3, 0.4),
    flat_near_zero=(0.5, 0.1, 0.2),
)

ORDINAL_SUM = Family(
    names=(
        "Ordinal-sum norm (Lukasiewicz on [1/2,1])",
        "Ordinal-sum conorm (Lukasiewicz on [0,1/2])",
    ),
    norm=lambda x, y: _copied(np.minimum(x, y), (np.maximum(0.5, x + y - 1.0), (x >= 0.5) & (y >= 0.5))),
    conorm=lambda x, y: _copied(np.maximum(x, y), (np.minimum(0.5, x + y), (x <= 0.5) & (y <= 0.5))),
    residual=lambda i, r: np.where((r <= 0.5) & (i <= 0.5), _least_addend(i, r), r),
    exponent=0.0,
    strict_norm=(0.6, 0.65, 0.7),
    strict_conorm=(0.3, 0.4, 0.3),
    collapse=(0.3, 0.4, 0.45),
    # sections at w >= 1/2 are flat near zero
    flat_near_zero=(0.5, 0.0, 0.2),
    breakpoints=(0.5,),
)

_SS_NAMES = ("Schweizer-Sklar norm", "Schweizer-Sklar conorm")
_HAMACHER_NAMES = ("Hamacher norm", "Hamacher conorm")


# 2^-k for k = 2 .. 1074: toward 0 down to the least float, toward 1 up to k = 53
_DYADIC = 2.0 ** -np.arange(2, 1075)


def _flat_thirds(op, interval, absorbing: float, probes) -> Tuple[float, float, float]:
    """(t, s, w): the interior thirds t < s of the divisor interval
    ``interval(w)`` at the first w, 0.5 and then each of ``probes``, where
    both replay in floats: op(t, w) = op(s, w) = ``absorbing``.  The
    conorm's one-interval ends at the least saturating float where its
    closed form rounds to 1, so at small lambda it keeps two floats at
    w = 0.5, but thirds of two or three floats can round to one; a probe
    toward 1 then separates them.  The norm's zero-interval at w = 0.5
    rounds to {0} at small lambda; where no probe separates two of its
    points (lambda below about 0.00093), the thirds at w = 0.5 stay, t = s."""

    def thirds(w):
        iv = interval(w)
        return iv.lower + (iv.upper - iv.lower) / 3, iv.lower + 2 * (iv.upper - iv.lower) / 3

    t, s = thirds(0.5)  # one value alone first: far cheaper than the probe array
    if t < s and (op(np.array([t, s]), 0.5) == absorbing).all():
        return t, s, 0.5
    ts, ss = thirds(probes)
    ok = np.flatnonzero((ts < ss) & (op(ts, probes) == absorbing) & (op(ss, probes) == absorbing))
    if not ok.size:
        return t, s, 0.5
    return float(ts[ok[0]]), float(ss[ok[0]]), float(probes[ok[0]])


def _schweizer_sklar(lam: float) -> Family:
    """Schweizer-Sklar at a finite lambda != 0."""

    def closed_residual(i, r):
        """1 - A^(1/lam) with A = (1-r)^lam + 1 - (1-i)^lam."""
        return lifted(lambda i, r: 1.0 - ((1.0 - r) ** lam + 1.0 - (1.0 - i) ** lam) ** (1.0 / lam), i, r)

    # lambda < 0: the divisor intervals are the points {0} and {1}
    base = Family(
        names=_SS_NAMES,
        norm=_pinned(lambda x, y: np.maximum(x ** lam + y ** lam - 1.0, 0.0) ** (1.0 / lam), 0.0),
        conorm=_pinned(
            lambda x, y: 1.0 - np.maximum((1.0 - x) ** lam + (1.0 - y) ** lam - 1.0, 0.0) ** (1.0 / lam),
            1.0,
        ),
        residual=lambda i, r: np.clip(np.where(r == 1.0, 1.0, closed_residual(i, r)), 0.0, 1.0),
        exponent=0.0,
    )
    if lam < 0.0:
        return base

    def residual(i, r):
        # on the edge r = 1 the residual is the one-interval's lower end
        p = np.array(np.clip(closed_residual(i, r), 0.0, 1.0))
        edge = (r == 1.0) & (i < 1.0)
        if edge.any():
            p[edge] = powered.one_interval(np.broadcast_to(i, p.shape)[edge]).lower
        return p

    powered = replace(base, residual=residual, exponent=lam)
    strict_conorm = _flat_thirds(powered.conorm, powered.one_interval, 1.0, 1.0 - _DYADIC[:52])
    return replace(
        powered,
        strict_norm=_flat_thirds(powered.norm, powered.zero_interval, 0.0, _DYADIC),
        strict_conorm=strict_conorm,
        collapse=(strict_conorm[2], *strict_conorm[:2]),
    )


def _hamacher(lam: float) -> Family:
    """Hamacher at a finite lambda >= 0."""
    return Family(
        names=_HAMACHER_NAMES,
        norm=_pinned(lambda x, y: x * y / (lam + (1.0 - lam) * (x + y - x * y)), 0.0),
        conorm=_pinned(
            lambda x, y: (x + y - x * y - (1.0 - lam) * x * y) / (1.0 - (1.0 - lam) * x * y),
            1.0,
        ),
        residual=lambda i, r: np.clip(
            (r - i) / (1.0 - (2.0 - lam) * i + (1.0 - lam) * r * i), 0.0, 1.0
        ),
        exponent=0.0,
    )


FAMILIES = {
    "minimum": MINIMUM,
    "product": PRODUCT,
    "lukasiewicz": LUKASIEWICZ,
    "drastic": DRASTIC,
    "ordinal_sum_lukasiewicz_half": ORDINAL_SUM,
}

# lambda -> the record of a parametric family at a regular parameter
PARAMETRIC = {"schweizer_sklar": _schweizer_sklar, "hamacher": _hamacher}

# the parameter values at which a parametric family reproduces another one
_COLLAPSE = {
    ("schweizer_sklar", -math.inf): replace(MINIMUM, names=_SS_NAMES),
    ("schweizer_sklar", 0.0): replace(PRODUCT, names=_SS_NAMES),
    ("schweizer_sklar", math.inf): replace(DRASTIC, names=_SS_NAMES),
    ("hamacher", math.inf): replace(DRASTIC, names=_HAMACHER_NAMES),
}


def resolve(family: str, lam: Optional[float]) -> Tuple[Optional[float], Family]:
    """Validate ``lam`` for a canonical family name and return it, snapped to
    0 within LAMBDA_SNAP, together with the record whose formulas govern it."""

    if family in FAMILIES:
        if lam is not None:
            raise ValueError(f"family {family!r} takes no parameter")
        return None, FAMILIES[family]
    if lam is None:
        raise ValueError(f"family {family!r} requires a lambda parameter")
    lam = 0.0 if abs(float(lam)) <= LAMBDA_SNAP else float(lam)
    if math.isnan(lam):
        raise ValueError(f"{family} lambda must not be NaN")
    if family == "hamacher" and not lam >= 0.0:
        raise ValueError("hamacher lambda must lie in [0, +inf]")
    if (family, lam) in _COLLAPSE:
        return lam, _COLLAPSE[family, lam]
    return lam, PARAMETRIC[family](lam)
