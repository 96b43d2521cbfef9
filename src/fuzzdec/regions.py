"""Geometry of decomposable value pairs.

Whether a relation decomposes depends only on the unordered value pairs
(R(x,y), R(y,x)) it realises, so decomposability is a region of the unit
square: cell (a,b) is in the weak region of S when some t reconstructs the
pair (S(t, min) = max, with t forced to 0 if min = 1), and in the strong
region of (T,S) when such a t also satisfies T(t, min) = 0.

Regions are rasterised on uniform grids for figure reproduction, and power
restricted-domain tests: a transitivity bound on relations never changes
the decomposability verdict, while a connectedness bound confines value
pairs to the set where the connecting conorm reaches 1 and can rescue an
otherwise undecomposable conorm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .operators import EPSILON, BinaryOp, Kind, check_first_coordinate_continuity
from .decompose import residual_array
from .divisors import one_interval, zero_interval
from .relations import FuzzyRelation
from .verdicts import TriState, Verdict, fails, unknown, holds


@dataclass(frozen=True)
class RegionGrid:
    """Boolean rasterisation of a decomposability region over [0,1]^2."""

    resolution: float
    axis: np.ndarray
    membership: np.ndarray

    def __post_init__(self):
        n = self.membership.shape[0]
        if self.membership.shape != (n, n) or self.axis.shape != (n,):
            raise ValueError("membership must be square and match the axis")

    @property
    def cells_per_axis(self) -> int:
        return self.axis.size

    def member(self, a: float, b: float) -> bool:
        i = int(np.argmin(np.abs(self.axis - a)))
        j = int(np.argmin(np.abs(self.axis - b)))
        return bool(self.membership[i, j])

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.membership, self.membership.T))

    def to_csv(self) -> str:
        """``a,b,member`` lines, ``a`` outer, values to 17 significant digits."""
        values = [f"{v:.17g}" for v in self.axis.tolist()]
        tail0 = np.array([f"{b},0\n" for b in values], dtype=object)
        tail1 = np.array([f"{b},1\n" for b in values], dtype=object)
        rows = ["a,b,member\n"]
        for a, member_row in zip(values, self.membership):
            head = a + ","
            rows.append(head + head.join(np.where(member_row, tail1, tail0).tolist()))
        return "".join(rows)

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


def _axis(resolution: float) -> np.ndarray:
    if resolution < 1.0 / 2000.0:
        raise ValueError("resolution below 1/2000 is not supported")
    n = round(1.0 / resolution)
    return np.linspace(0.0, 1.0, n + 1)


def weak_region(S: BinaryOp, resolution: float = 1 / 200) -> RegionGrid:
    """Cells (a,b) whose value pair admits a weak decomposition under S.

    With i = min(a,b) and r = max(a,b) the pair decomposes when some t has
    S(t,i) = r exactly (t = 0 handles r = i, t = 1 handles r = 1, and in
    between the residual infimum must be attained).  For conorms continuous
    in the first coordinate this is all of the square.
    """

    if S.kind is not Kind.CONORM:
        raise ValueError("weak_region expects a conorm")
    ax = _axis(resolution)
    A, B = np.meshgrid(ax, ax, indexing="ij")
    i_m = np.minimum(A, B)
    r_m = np.maximum(A, B)
    res = residual_array(S, i_m, r_m)
    recon = np.asarray(S.evaluator(res, i_m), dtype=float)
    member = (r_m <= i_m + EPSILON) | (r_m >= 1.0 - EPSILON) | (
        np.abs(recon - r_m) <= EPSILON
    )
    return RegionGrid(resolution, ax, member)


def strong_region(T: BinaryOp, S: BinaryOp, resolution: float = 1 / 200) -> RegionGrid:
    """Cells (a,b) whose value pair admits a strong decomposition under
    (T,S): some t with S(t,i) = r and T(t,i) = 0.  On the r = 1 edge the
    attaining set is the divisor-interval intersection; elsewhere the
    residual is the only candidate that can also vanish under T.
    """

    if T.kind is not Kind.NORM or S.kind is not Kind.CONORM:
        raise ValueError("strong_region expects (norm, conorm)")
    ax = _axis(resolution)
    A, B = np.meshgrid(ax, ax, indexing="ij")
    i_m = np.minimum(A, B)
    r_m = np.maximum(A, B)
    res = residual_array(S, i_m, r_m)
    recon = np.asarray(S.evaluator(res, i_m), dtype=float)
    tval = np.asarray(T.evaluator(res, i_m), dtype=float)
    inner = (np.abs(recon - r_m) <= EPSILON) & (tval <= EPSILON)
    member = (r_m <= i_m + EPSILON) | inner

    # r = 1 edge, the last row and column (ax[-1] = 1 is the only axis value
    # within EPSILON of 1): check the divisor intervals, which catch attaining
    # values the unattained residual misses for discontinuous conorms
    nonempty = np.array(
        [not one_interval(S, w).intersect(zero_interval(T, w)).empty for w in ax]
    )
    member[-1, :] = nonempty
    member[:, -1] = nonempty
    # the diagonal always decomposes via t = 0
    member |= r_m <= i_m + EPSILON
    return RegionGrid(resolution, ax, member)


def pair_weakly_decomposable(S: BinaryOp, a: float, b: float) -> bool:
    i, r = min(a, b), max(a, b)
    if r <= i + EPSILON or r >= 1.0 - EPSILON:
        return True
    t = float(residual_array(S, i, r))
    return abs(S(t, i) - r) <= EPSILON


def relation_weakly_decomposes(R: FuzzyRelation, S: BinaryOp) -> bool:
    m = R.degrees
    return all(
        pair_weakly_decomposable(S, float(m[a, b]), float(m[b, a]))
        for a in range(R.size)
        for b in range(a, R.size)
    )


def restricted_decomposability(
    S_prime: BinaryOp,
    S: BinaryOp,
    T: Optional[BinaryOp] = None,
    resolution: float = 1 / 200,
) -> TriState:
    """Whether every value pair allowed by S'-connectedness lies in the
    (weak or strong) decomposability region: connected relations all
    decompose exactly when {S'(a,b) = 1} sits inside the region."""

    if S_prime.kind is not Kind.CONORM:
        raise ValueError("the connecting operator must be a conorm")
    region = weak_region(S, resolution) if T is None else strong_region(T, S, resolution)
    ax = region.axis
    A, B = np.meshgrid(ax, ax, indexing="ij")
    connected = np.asarray(S_prime.evaluator(A, B), dtype=float) >= 1.0 - EPSILON
    escaping = connected & ~region.membership
    if escaping.any():
        i, j = np.argwhere(escaping)[0]
        return fails(
            (float(ax[i]), float(ax[j])),
            f"pair ({ax[i]:g},{ax[j]:g}) is {S_prime.display_name}-connected "
            "but not decomposable",
        )
    return holds("every connected value pair is decomposable at this resolution")


# ---------------------------------------------------------------------------
# transitive closure and the transitivity-neutrality check


def t_transitive_closure(R: FuzzyRelation, T_prime: BinaryOp, max_iter: Optional[int] = None) -> FuzzyRelation:
    """Least T'-transitive relation above R via repeated sup-T' composition.
    Converges in at most |X| rounds because a norm never exceeds min, so
    cycles cannot strengthen a path."""

    if T_prime.kind is not Kind.NORM:
        raise ValueError("transitive closure expects a norm")
    m = R.degrees.copy()
    limit = max_iter if max_iter is not None else max(2, R.size)
    for _ in range(limit):
        comp = np.asarray(
            T_prime.evaluator(m[:, :, None], m[None, :, :]), dtype=float
        ).max(axis=1)
        new = np.maximum(m, comp)
        if np.all(np.abs(new - m) <= EPSILON):
            m = new
            break
        m = new
    return FuzzyRelation(R.universe, np.clip(m, 0.0, 1.0))


def transitivity_preserves_verdict(
    T_prime: BinaryOp,
    S: BinaryOp,
    samples: int = 40,
    size: int = 3,
    seed: int = 0,
) -> TriState:
    """Sampled check that restricting to T'-transitive relations never flips
    the decomposability verdict of S.

    When S decomposes everything, every sampled transitive relation must
    decompose.  When S does not, some transitive relation must fail too;
    a two-element witness with an interior asymmetric pair is tried along
    with the samples.  A pass is reported UNKNOWN_SAMPLED: the claim ranges
    over infinitely many relations.
    """

    from .preferences import sample_relations  # local import avoids a cycle

    unrestricted = check_first_coordinate_continuity(S).verdict is Verdict.HOLDS
    rng_relations = sample_relations(samples, size=size, grid_step=0.05, seed=seed)
    closures = [t_transitive_closure(R, T_prime) for R in rng_relations]

    if unrestricted:
        for R in closures:
            if not relation_weakly_decomposes(R, S):
                m = R.degrees
                for a in range(size):
                    for b in range(size):
                        if not pair_weakly_decomposable(S, m[a, b], m[b, a]):
                            return fails(
                                (float(m[a, b]), float(m[b, a])),
                                "transitive relation fails to decompose although "
                                "the unrestricted verdict is existence",
                            )
        return unknown(
            f"all {samples} sampled transitive relations decompose, matching "
            "the unrestricted verdict"
        )

    # unrestricted nonexistence: look for a transitive non-decomposable witness
    probe = FuzzyRelation(("x", "y"), np.array([[1.0, 0.6], [0.5, 1.0]]))
    candidates = closures + [t_transitive_closure(probe, T_prime)]
    for R in candidates:
        if not relation_weakly_decomposes(R, S):
            return unknown(
                "restriction keeps nonexistence: a transitive relation still "
                "fails to decompose"
            )
    return fails(
        (0.0,),
        "every sampled transitive relation decomposes although the "
        "unrestricted verdict is nonexistence",
    )
