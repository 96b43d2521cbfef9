"""Fuzzy preference triplets, the six structural axioms, and the
classification of decomposition rules.

A triplet (R, P, I) is a fuzzy preference when

  FP1  P is asymmetric,
  FP2  I is symmetric,
  FP3  P(x,y) <= R(x,y),
  FP4  R(x,y) > R(y,x)  iff  P(x,y) > 0,
  FP5  P(x,y) = 0  implies  R(x,y) = I(x,y),
  FP6  I(x,y) <= I(z,w) and P(x,y) <= P(z,w)  imply  R(x,y) <= R(z,w).

Every weak or strong decomposition delivers FP1, FP2, FP3, FP5, FP6 and the
forward half of FP4; the backward half can fail for non-canonical
decompositions unless the conorm rises strictly near zero.

The canonical rule yields FP1-FP6 on every relation in real arithmetic:
its outputs satisfy all six axioms whenever R = S(P, I) holds exactly and
S is monotone.  Floats can break R = S(P, I) where the residual is not
attained, so `classify_rule` runs the rule on `GRID_RELATION`,
R(x_a, x_b) = b/20 over 21 labels.  The canonical P and I of a cell depend
only on the pair i = min(R(x,y), R(y,x)) <= r = R(x,y), and this relation
holds every such pair of the 1/20 grid exactly once on and above its
diagonal (cells a < b give i < r, the diagonal gives i = r).  FP1-FP6 look
only at single cells and at pairs of cells, and `audit_fp` checks FP6 on
every pair of its 441 cells, so a pass on it is a pass on every relation
whose degrees lie on the 1/20 grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple

import numpy as np

from .operators import EPSILON, BinaryOp, Kind, check_collapse_implies_absorption
from .decompose import (
    Decomposition,
    DecompositionError,
    canonical_decompose,
    strong_decompose,
)
from .divisors import existence, uniqueness
from .reference import open_cell
from .relations import FuzzyRelation, asymmetry_violation, symmetry_violation
from .verdicts import TriState, Verdict, _first_cell, fails, holds, unknown

FP_AXIOMS = ("FP1", "FP2", "FP3", "FP4", "FP5", "FP6")

# quadruples of the FP6 sample above 21 elements
_FP6_SAMPLE = 100_000


@dataclass(frozen=True)
class PreferenceTriplet:
    """A candidate (weak, strict, indifference) triplet.  Holding a failing
    triplet is allowed: the axioms are audited, not enforced."""

    weak: FuzzyRelation
    strict: FuzzyRelation
    indifference: FuzzyRelation

    def __post_init__(self):
        if not (self.weak.universe == self.strict.universe == self.indifference.universe):
            raise ValueError("triplet components must share one universe")


def triplet_from_decomposition(R: FuzzyRelation, D: Decomposition) -> PreferenceTriplet:
    return PreferenceTriplet(R, D.strict, D.indifference)


@dataclass(frozen=True)
class FPReport:
    """The verdict of each axiom: HOLDS when checked exhaustively, FAILS
    with the universe labels of the first failing cells, UNKNOWN for a
    sampled FP6 pass (the detail names the sample)."""

    verdicts: Dict[str, TriState]

    @property
    def overall(self) -> bool:
        return all(v.passed for v in self.verdicts.values())

    def failed_axioms(self) -> Tuple[str, ...]:
        return tuple(k for k in FP_AXIOMS if not self.verdicts[k].passed)

    def __str__(self) -> str:
        lines = [f"{k}: {_fp_text(self.verdicts[k])}" for k in FP_AXIOMS]
        lines.append(f"overall: {'pass' if self.overall else 'fail'}")
        return "\n".join(lines)


def _fp_text(v: TriState) -> str:
    if v.verdict is Verdict.FAILS:
        return f"fail (witness {v.witness})"
    return "pass" + (f" ({v.detail})" if v.verdict is Verdict.UNKNOWN else "")


def audit_fp(t: PreferenceTriplet, seed: int = 0) -> FPReport:
    """Audit all six axioms.  FP1-FP5 are exhaustive over ordered pairs.
    FP6 is exhaustive over quadruples for universes of at most 21 elements
    and falls back to seeded random sampling above that; a sampled pass is
    UNKNOWN and names the sample size and the seed.

    Strict comparisons are exact; tolerant comparisons get the package
    epsilon.  Witnesses are the lexicographically first failing tuple in
    universe order.
    """

    R, P, I = t.weak.degrees, t.strict.degrees, t.indifference.degrees
    labels = t.weak.universe
    n = len(labels)
    out: Dict[str, TriState] = {}

    out["FP1"] = _pair_verdict(labels, asymmetry_violation(P))
    out["FP2"] = _pair_verdict(labels, symmetry_violation(I))
    out["FP3"] = _pair_verdict(labels, _first_cell(n, lambda s: P[s] > R[s] + EPSILON))
    out["FP4"] = _pair_verdict(labels, _first_cell(n, lambda s: (R[s] > R[:, s].T) != (P[s] > 0.0)))
    out["FP5"] = _pair_verdict(
        labels, _first_cell(n, lambda s: (P[s] == 0.0) & (np.abs(R[s] - I[s]) > EPSILON))
    )

    i_flat, p_flat, r_flat = I.ravel(), P.ravel(), R.ravel()

    def fp6_fails(a, b):  # where FP6 fails for the cells that a and b index
        return (i_flat[a] <= i_flat[b]) & (p_flat[a] <= p_flat[b]) & (r_flat[a] > r_flat[b] + EPSILON)

    exhaustive = n <= 21  # covers GRID_RELATION; the pair mask is built in row blocks
    if exhaustive:  # every pair of cells, row-major
        pair = _first_cell(n * n, lambda s: fp6_fails((s, None), slice(None)))
    else:
        rng = np.random.default_rng(seed)
        a = rng.integers(0, n * n, size=_FP6_SAMPLE)
        b = rng.integers(0, n * n, size=_FP6_SAMPLE)
        hits = np.flatnonzero(fp6_fails(a, b))
        pair = (int(a[hits[0]]), int(b[hits[0]])) if hits.size else None
    if pair is not None:
        a, b = pair
        out["FP6"] = fails((labels[a // n], labels[a % n], labels[b // n], labels[b % n]))
    else:
        out["FP6"] = holds() if exhaustive else unknown(f"sampled: {_FP6_SAMPLE} quadruples, seed {seed}")
    return FPReport(out)


def _pair_verdict(labels, cell: Optional[Tuple[int, int]]) -> TriState:
    if cell is None:
        return holds()
    return fails((labels[cell[0]], labels[cell[1]]))


# ---------------------------------------------------------------------------
# multiplicity witnesses


def mj_counterexample(
    S: BinaryOp, w: float, t: float, s: float
) -> Tuple[FuzzyRelation, Decomposition, Decomposition]:
    """Two distinct preference-inducing weak decompositions of one relation,
    built from a collapse witness S(t,w) = S(s,w) > w with t != s.

    The relation puts S(t,w) on (a,b), w on (b,a) and 1 on the diagonal;
    the two strict parts place t respectively s on (a,b).
    """

    if S.kind is not Kind.CONORM:
        raise ValueError("mj_counterexample expects a conorm")
    if t == s:
        raise ValueError("witness degrees t and s must differ")
    v1, v2 = S(t, w), S(s, w)
    if abs(v1 - v2) > EPSILON or not v1 > w + EPSILON:
        raise ValueError(
            f"precondition S(t,w) = S(s,w) > w violated: "
            f"S({t:g},{w:g}) = {v1:g}, S({s:g},{w:g}) = {v2:g}, w = {w:g}"
        )
    universe = ("a", "b")
    m = np.array([[1.0, v1], [w, 1.0]])
    R = FuzzyRelation(universe, m)
    I = np.minimum(m, m.T)

    def decomp(p_ab: float) -> Decomposition:
        P = np.zeros((2, 2))
        P[0, 1] = p_ab
        return Decomposition(FuzzyRelation(universe, P), FuzzyRelation(universe, I), S)

    return R, decomp(t), decomp(s)


# ---------------------------------------------------------------------------
# rule classification


# R(x_a, x_b) = b/20: every pair i <= r of the 1/20 grid (module docstring)
GRID_RELATION = FuzzyRelation(tuple(f"x{a}" for a in range(21)), np.tile(np.arange(21) / 20, (21, 1)))


class RuleClass(Enum):
    NOT_COMPATIBLE = "not-compatible"
    COMPATIBLE = "compatible"
    INDUCED = "induced"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class RuleClassification:
    verdict: RuleClass
    reason: str
    witness: Optional[tuple] = None
    oracle_verdict: Optional[RuleClass] = None  # set for undetermined cells

    def __str__(self) -> str:
        text = f"{self.verdict.value}: {self.reason}"
        if self.witness is not None:
            text += f" (witness {self.witness})"
        return text


# the rule class, and its reason per mode, for each verdict of the check that
# decides inducement (`_classify_computed`)
_RULE_CLASS = {
    Verdict.HOLDS: RuleClass.INDUCED, Verdict.FAILS: RuleClass.COMPATIBLE, Verdict.UNKNOWN: RuleClass.UNDETERMINED
}
_WEAK_REASONS = {
    Verdict.HOLDS: "canonical outputs are preferences and any collapse of the "
    "conorm is absorbed, so no second preference-inducing decomposition exists",
    Verdict.FAILS: "canonical outputs are preferences but a collapse witness "
    "yields a second preference-inducing decomposition",
    Verdict.UNKNOWN: "compatible on the 1/20-grid relation; inducement undecided for a custom conorm",
}
_STRONG_REASONS = {
    Verdict.HOLDS: "the strong decomposition is unique outright",
    Verdict.FAILS: "multiple strong decompositions exist and induce preferences",
    Verdict.UNKNOWN: "compatible on the 1/20-grid relation; uniqueness undecided",
}


def classify_rule(S: BinaryOp, T: Optional[BinaryOp] = None) -> RuleClassification:
    """Classify the canonical rule for S (weak) or (T, S) (strong).

    NOT_COMPATIBLE when decompositions can fail to exist, the canonical rule
    fails on `GRID_RELATION` or its output there fails the preference
    audit; INDUCED when additionally
    no second preference-inducing decomposition can exist (collapse forces
    absorption for weak rules, uniqueness for strong ones); COMPATIBLE in
    between; UNDETERMINED for the open cells of the reference classification
    and for custom operators whose inducement or uniqueness stays undecided.
    """

    computed = _classify_computed(S, T)
    if open_cell(T, S):
        return RuleClassification(
            RuleClass.UNDETERMINED,
            "reference classification leaves this operator family open",
            None,
            computed.verdict,
        )
    return computed


def _classify_computed(S: BinaryOp, T: Optional[BinaryOp]) -> RuleClassification:
    exist = existence(S, T)
    if exist.verdict is Verdict.FAILS:
        return RuleClassification(
            RuleClass.NOT_COMPATIBLE,
            f"{'weak' if T is None else 'strong'} decompositions do not always exist: {exist.detail}",
            exist.witness,
        )

    try:
        d = canonical_decompose(GRID_RELATION, S) if T is None else strong_decompose(GRID_RELATION, T, S)
    except DecompositionError as exc:
        # e.g. drastic x Schweizer-Sklar at lambda near 0: the pair exists
        # in real arithmetic but no float P satisfies S(P,I) = 1, T(P,I) = 0
        return RuleClassification(
            RuleClass.NOT_COMPATIBLE,
            f"the canonical rule fails in float arithmetic on the 1/20-grid relation: {exc}",
        )
    report = audit_fp(triplet_from_decomposition(GRID_RELATION, d))
    if not report.overall:
        axiom = report.failed_axioms()[0]
        return RuleClassification(
            RuleClass.NOT_COMPATIBLE,
            f"canonical output violates {axiom} on the 1/20-grid relation",
            report.verdicts[axiom].witness,
        )

    # inducement (no second preference-inducing decomposition): collapse
    # forces absorption (weak), or the decomposition is unique (strong)
    decider = check_collapse_implies_absorption(S) if T is None else uniqueness(S, T)
    reason = (_WEAK_REASONS if T is None else _STRONG_REASONS)[decider.verdict]
    return RuleClassification(_RULE_CLASS[decider.verdict], reason, decider.witness)
