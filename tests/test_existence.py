"""`divisors.existence` and `divisors.uniqueness` are the one place that
decides the paper's two characterisations: they reproduce Table 1, and every
caller that refuses a decomposition refuses exactly where existence FAILS."""

import json
from pathlib import Path

import numpy as np
import pytest

from fuzzdec import (
    DecompositionError,
    FuzzyRelation,
    Kind,
    RuleClass,
    Verdict,
    canonical_decompose,
    make_custom,
    make_norm,
    parse_op_spec,
    strong_decompose,
)
from fuzzdec.divisors import existence, uniqueness
from fuzzdec.preferences import _classify_computed
from fuzzdec.tables import CONORM_FAMILIES, LAMBDA_SAMPLES, ROWS, _declared, _lambdas, _ops_for

GOLDEN_REGIONS = Path(__file__).resolve().parents[1] / "perfbench" / "golden_regions.json"


def _regimes():
    for row in ROWS:
        for col in CONORM_FAMILIES:
            for label, expected, _ in _declared(row, col):
                for lam in _lambdas(row, col, label, LAMBDA_SAMPLES):
                    yield pytest.param(row, col, lam, expected, id=f"{row}-{col}-{label or 'all'}-{lam}")


@pytest.mark.parametrize("row, col, lam, expected", _regimes())
def test_existence_and_uniqueness_reproduce_table1(row, col, lam, expected):
    T, S = _ops_for(row, col, lam)
    exist, unique = existence(S, T), uniqueness(S, T)
    if expected == "none":
        assert exist.verdict is Verdict.FAILS and unique == exist
    else:
        assert exist.verdict is Verdict.HOLDS
        want = Verdict.HOLDS if expected == "unique" else Verdict.FAILS
        assert unique.verdict is want


def _benchmark_operators():
    """The 18 conorms of the benchmark's weak rasters and the 15 (norm,
    conorm) pairs of its strong ones, read off the golden region keys."""
    keys = [k.split("|")[1] for k in json.loads(GOLDEN_REGIONS.read_text(encoding="utf-8"))
            if k.startswith("region|")]
    weak = sorted({k for k in keys if "/" not in k})
    strong = sorted({tuple(k.split("/")) for k in keys if "/" in k})
    assert (len(weak), len(strong)) == (18, 15)
    return [(None, s) for s in weak] + strong


# the drastic sum as a custom conorm: its sweep finds the jump at t = 0
DRASTIC = make_custom(lambda x, y: np.where(np.minimum(x, y) == 0.0, np.maximum(x, y), 1.0), Kind.CONORM)
R = FuzzyRelation(("a", "b", "c"), np.array([[1.0, 0.5, 0.8], [0.25, 1.0, 1.0], [0.8, 0.4, 1.0]]))


def _operators():
    for t_spec, s_spec in _benchmark_operators():
        T = None if t_spec is None else parse_op_spec(t_spec, Kind.NORM)
        yield pytest.param(T, parse_op_spec(s_spec, Kind.CONORM), id=f"{t_spec}/{s_spec}")
    yield pytest.param(None, DRASTIC, id="custom-drastic")
    yield pytest.param(make_norm("lukasiewicz"), DRASTIC, id="lukasiewicz/custom-drastic")


def _refusal(call):
    try:
        call()
    except DecompositionError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("T, S", _operators())
def test_callers_refuse_exactly_where_existence_fails(T, S):
    exist = existence(S, T)
    if S.is_builtin:
        assert exist.verdict is not Verdict.UNKNOWN
    fails = exist.verdict is Verdict.FAILS
    kind = "weak" if T is None else "strong"

    computed = _classify_computed(S, T)
    refused = f"{kind} decompositions do not always exist: {exist.detail}"
    assert (computed.verdict is RuleClass.NOT_COMPATIBLE and computed.reason == refused) == fails
    decompose = (lambda: canonical_decompose(R, S)) if T is None else (lambda: strong_decompose(R, T, S))
    got = _refusal(decompose)
    assert got.endswith(exist.detail) if fails else got is None
