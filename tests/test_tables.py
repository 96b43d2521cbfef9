import pytest

from fuzzdec import (
    RuleClass,
    check_strictly_increasing_first,
    classify_rule,
    diff_against_reference,
    generate_table1,
    generate_table2,
    make_conorm,
    make_norm,
    render_table,
    tables,
)
from fuzzdec.divisors import strong_existence
from fuzzdec.operators import check_collapse_implies_absorption
from fuzzdec.tables import (
    CONORM_FAMILIES,
    LAMBDA_SAMPLES,
    ROWS,
    RegimeConsistencyError,
    _declared,
    oracle_evidence_for_open_cells,
)
from fuzzdec.verdicts import Verdict


@pytest.fixture(scope="module")
def table1():
    return generate_table1()


@pytest.fixture(scope="module")
def table2():
    return generate_table2()


def cell(cells, row, col):
    for c in cells:
        if c.row == row and c.col == col:
            return c
    raise KeyError((row, col))


def test_table1_matches_reference(table1):
    assert diff_against_reference(table1, 1) == []


def test_table1_spot_cells(table1):
    assert cell(table1, "lukasiewicz", "lukasiewicz").verdict_for() == "unique"
    for col in ("drastic", "minimum", "lukasiewicz", "product", "schweizer_sklar", "hamacher"):
        assert cell(table1, "minimum", col).verdict_for() == "none"
    weak_ss = cell(table1, "weak", "schweizer_sklar")
    assert weak_ss.verdict_for("-inf<lambda<=0") == "unique"
    assert weak_ss.verdict_for("lambda=+inf") == "none"


def test_table1_repaired_cell_backed_by_direct_witness(table1):
    # the strong (Lukasiewicz, Schweizer-Sklar) cell: decompositions exist
    # for lambda > 1 and fail to exist for 0 < lambda < 1 (the reference
    # listing transposed these two regimes against its own interval math)
    c = cell(table1, "lukasiewicz", "schweizer_sklar")
    assert c.verdict_for("1<lambda<+inf") == "exists"
    assert c.verdict_for("0<lambda<1") == "none"
    # direct witness for lambda = 2, value pair (1, 0.25): t = 0.5 works
    S = make_conorm("schweizer_sklar", 2.0)
    T = make_norm("lukasiewicz")
    assert S(0.5, 0.25) == 1.0 and T(0.5, 0.25) == 0.0
    # and for lambda = 0.5 the divisor intervals at w = 0.5 are disjoint
    v = strong_existence(T, make_conorm("schweizer_sklar", 0.5))
    assert v.verdict is Verdict.FAILS


def test_table2_matches_reference(table2):
    assert diff_against_reference(table2, 2) == []


def test_table2_repaired_cell_backed_by_direct_witness(table2):
    # the weak Schweizer-Sklar rule on -inf < lambda <= 0: the reference
    # listing says none, but these conorms rise strictly and induce their rule
    assert cell(table2, "weak", "schweizer_sklar").verdict_for("-inf<lambda<=0") == "induced"
    S = make_conorm("schweizer_sklar", -1.0)
    assert check_strictly_increasing_first(S).verdict is Verdict.HOLDS
    assert classify_rule(S).verdict is RuleClass.INDUCED


def test_table2_spot_cells(table2):
    assert cell(table2, "weak", "minimum").verdict_for() == "induced"
    assert cell(table2, "drastic", "lukasiewicz").verdict_for() == "compatible"
    assert cell(table2, "weak", "schweizer_sklar").verdict_for("0<lambda<+inf") == "undetermined"
    assert cell(table2, "lukasiewicz", "lukasiewicz").verdict_for() == "induced"


def test_table2_open_cells_all_undetermined(table2):
    open_cells = [
        ("drastic", "schweizer_sklar", "0<lambda<+inf"),
        ("lukasiewicz", "schweizer_sklar", "lambda=1"),
        ("lukasiewicz", "schweizer_sklar", "1<lambda<+inf"),
        ("schweizer_sklar", "schweizer_sklar", "lambda=1"),
        ("schweizer_sklar", "schweizer_sklar", "1<lambda<+inf"),
        ("weak", "schweizer_sklar", "0<lambda<+inf"),
    ]
    for row, col, regime in open_cells:
        assert cell(table2, row, col).verdict_for(regime) == "undetermined"


def test_unique_cells_with_absorbing_collapse_are_induced():
    # internal consistency: a conorm that decomposes uniquely and absorbs
    # collapses appears as an induced rule wherever the reference decides it;
    # each regime is represented by its first default lambda sample
    checked = 0
    for row in ROWS:
        for col in CONORM_FAMILIES:
            for label, verdict, t2 in _declared(row, col):
                if verdict != "unique" or t2 == "undetermined":
                    continue
                lam = tables._lambdas(row, col, label, LAMBDA_SAMPLES)[0]
                _, S = tables._ops_for(row, col, lam)
                if check_collapse_implies_absorption(S).verdict is Verdict.HOLDS:
                    assert t2 == "induced", (row, col, label)
                checked += 1
    assert checked >= 5


def test_uncovered_regime_raises():
    with pytest.raises(ValueError, match="do not cover regime 'lambda=1'"):
        tables._lambdas("lukasiewicz", "schweizer_sklar", "lambda=1", (-1.0, 2.0))  # nothing hits lambda=1


def test_table1_holds_with_a_small_positive_lambda():
    # drastic x Schweizer-Sklar at lambda = 0.1: the float one-interval at
    # w = 0.001 rounds to {1}, but the analytic verdict (existence) decides
    cells = tables._generate(1, LAMBDA_SAMPLES + (0.1,))
    assert diff_against_reference(cells, 1) == []


def test_regime_straddling_a_verdict_boundary_raises(monkeypatch):
    # merging lambda<1 (none) with lambda=1 (unique) declares a regime whose
    # samples disagree; the generator must refuse to summarise it
    monkeypatch.setitem(
        tables.CELLS,
        ("schweizer_sklar", "lukasiewicz"),
        (("lambda<=1", "none", "none"), ("lambda>1", "exists", "compatible")),
    )
    with pytest.raises(RegimeConsistencyError, match=r"regime 'lambda<=1': mixed verdicts"):
        generate_table1()


def test_regime_labels_read_as_their_ranges():
    inf = float("inf")
    assert all(tables.in_regime("", lam) for lam in (-inf, 0.0, inf, None))
    assert [tables.in_regime("-inf<lambda<=0", lam) for lam in (-inf, -1.0, 0.0, 0.5)] == [
        False, True, True, False,
    ]
    assert [tables.in_regime("0<=lambda<+inf", lam) for lam in (-0.5, 0.0, 2.0, inf)] == [
        False, True, True, False,
    ]
    assert tables.in_regime("lambda=+inf", inf) and not tables.in_regime("lambda>1", 1.0)


def test_render_formats(table1):
    text = render_table(table1, "text")
    assert "Weak decomposition" in text and "unique" in text
    csv = render_table(table1, "csv")
    assert csv.splitlines()[0] == "row,conorm,regime,verdict"
    assert len(csv.strip().splitlines()) == 1 + sum(len(c.entries) for c in table1)


def test_oracle_evidence_is_labelled_and_nonempty():
    lines = oracle_evidence_for_open_cells()
    assert len(lines) == 6
    assert all("oracle says" in line for line in lines)
