import numpy as np
import pytest

from fuzzdec import (
    DecompositionError,
    FuzzyRelation,
    RuleClass,
    Verdict,
    audit_fp,
    canonical_decompose,
    classify_rule,
    crisp_decompose,
    find_collapse_witness,
    make_conorm,
    make_norm,
    mj_counterexample,
    strong_decompose,
    triplet_from_decomposition,
    verify_weak,
)
from fuzzdec import divisors
from fuzzdec.divisors import strong_existence
from fuzzdec.preferences import GRID_RELATION, _classify_computed
from oracles import enumerate_decompositions, tie_strict_max_decomposition


def two_rel(r_xy, r_yx, diag=1.0):
    return FuzzyRelation(("x", "y"), np.array([[diag, r_xy], [r_yx, diag]], dtype=float))


def grid_relations(count, size, steps, seed, reflexive=False):
    """Seeded random relations with degrees k/steps."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = rng.integers(0, steps + 1, size=(size, size)) / steps
        if reflexive:
            np.fill_diagonal(m, 1.0)
        yield FuzzyRelation(tuple(f"x{k}" for k in range(size)), m)


# ---------------------------------------------------------------------------
# audits


def test_canonical_outputs_pass_all_axioms():
    for family, lam in (("product", None), ("minimum", None), ("lukasiewicz", None)):
        S = make_conorm(family, lam)
        for R in grid_relations(30, size=3, steps=20, seed=5):
            d = canonical_decompose(R, S)
            report = audit_fp(triplet_from_decomposition(R, d))
            assert report.overall, (family, report.failed_axioms())


def test_tie_promoting_rule_fails_exactly_fp4():
    R = two_rel(0.5, 0.5)
    d = tie_strict_max_decomposition(R)
    assert verify_weak(R, d).verdict is Verdict.HOLDS  # it is a weak decomposition
    report = audit_fp(triplet_from_decomposition(R, d))
    assert report.failed_axioms() == ("FP4",)
    x, y = report.verdicts["FP4"].witness
    assert d.strict.value(x, y) > 0 and R.value(x, y) == R.value(y, x)


def test_a_failing_report_prints_each_witness():
    R = two_rel(0.5, 0.5)
    report = audit_fp(triplet_from_decomposition(R, tie_strict_max_decomposition(R)))
    assert str(report) == (
        "FP1: pass\nFP2: pass\nFP3: pass\nFP4: fail (witness ('x', 'y'))\nFP5: pass\nFP6: pass\noverall: fail"
    )


def test_tie_promoting_rule_matches_plain_max_rule_off_ties():
    R = two_rel(0.9, 0.4)
    d = tie_strict_max_decomposition(R)
    canonical = canonical_decompose(R, make_conorm("max"))
    np.testing.assert_array_equal(d.strict.degrees, canonical.strict.degrees)


def test_crisp_preorder_audits_clean():
    R = FuzzyRelation(("a", "b", "c"), np.array([[1, 1, 1], [0, 1, 1], [0, 0, 1.0]]))
    P, I = crisp_decompose(R)
    report = audit_fp(PreferenceTripletShim(R, P, I))
    assert report.overall


def PreferenceTripletShim(R, P, I):
    from fuzzdec import PreferenceTriplet

    return PreferenceTriplet(R, P, I)


def test_audit_witnesses_are_lexicographically_first():
    R = two_rel(0.5, 0.5)
    P = FuzzyRelation(("x", "y"), np.array([[0.0, 0.4], [0.3, 0.0]]))
    I = FuzzyRelation(("x", "y"), np.minimum(R.degrees, R.degrees.T))
    report = audit_fp(PreferenceTripletShim(R, P, I))
    assert not report.verdicts["FP1"].passed
    assert report.verdicts["FP1"].witness == ("x", "y")


def test_audit_rejects_universe_mismatch():
    R = two_rel(1, 0.5)
    other = FuzzyRelation(("p", "q"), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PreferenceTripletShim(R, other, other)


def test_sampled_fp6_pass_is_labelled():
    rng = np.random.default_rng(8)
    R = FuzzyRelation(tuple(f"v{k}" for k in range(22)), rng.integers(0, 21, (22, 22)) / 20)
    report = audit_fp(triplet_from_decomposition(R, canonical_decompose(R, make_conorm("prob"))), seed=5)
    assert str(report.verdicts["FP6"]) == "UNKNOWN -- sampled: 100000 quadruples, seed 5"
    assert report.overall and str(report).endswith("\nFP6: pass (sampled: 100000 quadruples, seed 5)\noverall: pass")


@pytest.mark.parametrize("n", [1, 6, 21])
def test_exhaustive_fp6_report_is_unlabelled(n):
    rng = np.random.default_rng(n)
    R = FuzzyRelation(tuple(f"v{k}" for k in range(n)), rng.integers(0, 21, (n, n)) / 20)
    report = audit_fp(triplet_from_decomposition(R, canonical_decompose(R, make_conorm("prob"))), seed=5)
    assert str(report) == "FP1: pass\nFP2: pass\nFP3: pass\nFP4: pass\nFP5: pass\nFP6: pass\noverall: pass"


def test_fp6_sampled_path_agrees_on_large_universe():
    rng = np.random.default_rng(2)
    m = rng.uniform(size=(22, 22))
    R = FuzzyRelation(tuple(f"v{k}" for k in range(22)), m)
    d = canonical_decompose(R, make_conorm("prob"))
    report = audit_fp(triplet_from_decomposition(R, d), seed=4)
    assert report.verdicts["FP6"].passed


def test_every_weak_decomposition_satisfies_the_unconditional_axioms():
    # FP1, FP2, FP3, FP5, FP6 and the forward half of FP4 hold for any weak
    # decomposition, canonical or not: check the enumerated ones
    S = make_conorm("lukasiewicz")
    for R in grid_relations(10, size=2, steps=4, seed=9, reflexive=True):
        for d in enumerate_decompositions(R, S, grid_step=0.05):
            rep = audit_fp(triplet_from_decomposition(R, d))
            for axiom in ("FP1", "FP2", "FP3", "FP5", "FP6"):
                assert rep.verdicts[axiom].passed
            P, Rm = d.strict.degrees, R.degrees
            fwd_bad = (Rm > Rm.T) & ~(P > 0)
            assert not fwd_bad.any()


# ---------------------------------------------------------------------------
# rules


def test_canonical_rule_reproduces_known_formulas():
    R = two_rel(0.8, 0.3)

    def strict(spec):
        return canonical_decompose(R, make_conorm(spec)).strict.value("x", "y")

    assert strict("max") == 0.8
    assert strict("lukasiewicz") == pytest.approx(0.5, abs=1e-12)
    assert strict("prob") == pytest.approx(0.5 / 0.7, abs=1e-12)


def test_canonical_rule_refuses_discontinuous_conorm():
    with pytest.raises(DecompositionError):
        canonical_decompose(two_rel(0.8, 0.3), make_conorm("drastic"))


# ---------------------------------------------------------------------------
# collapse witnesses and multiplicity


def test_collapse_witness_sweep():
    assert find_collapse_witness(make_conorm("max")) is None
    assert find_collapse_witness(make_conorm("prob")) is None
    w, t, s = find_collapse_witness(make_conorm("lukasiewicz"))
    SL = make_conorm("lukasiewicz")
    assert SL(t, w) == SL(s, w) > w
    w, t, s = find_collapse_witness(make_conorm("ordinal_sum"))
    SO = make_conorm("ordinal_sum")
    assert SO(t, w) == SO(s, w) > w


def test_mj_counterexample_lukasiewicz():
    R, d1, d2 = mj_counterexample(make_conorm("lukasiewicz"), 0.5, 0.6, 0.7)
    assert R.value("a", "b") == 1.0 and R.value("b", "a") == 0.5
    for d in (d1, d2):
        assert verify_weak(R, d).verdict is Verdict.HOLDS
        assert audit_fp(triplet_from_decomposition(R, d)).overall
    assert d1.strict.value("a", "b") == 0.6 and d2.strict.value("a", "b") == 0.7


def test_mj_counterexample_ordinal_sum():
    S = make_conorm("ordinal_sum")
    assert S(0.4, 0.3) == S(0.45, 0.3) == 0.5
    R, d1, d2 = mj_counterexample(S, 0.3, 0.4, 0.45)
    for d in (d1, d2):
        assert verify_weak(R, d).verdict is Verdict.HOLDS
        assert audit_fp(triplet_from_decomposition(R, d)).overall


def test_mj_counterexample_rejects_nonwitnesses():
    with pytest.raises(ValueError):
        mj_counterexample(make_conorm("max"), 0.5, 0.6, 0.7)
    with pytest.raises(ValueError):
        mj_counterexample(make_conorm("prob"), 0.5, 0.6, 0.7)
    with pytest.raises(ValueError):
        mj_counterexample(make_conorm("lukasiewicz"), 0.5, 0.6, 0.6)


def test_unique_preference_decomposition_under_max():
    # among all enumerated weak decompositions under the maximum, exactly
    # the canonical one forms a preference
    for R in grid_relations(15, size=3, steps=20, seed=21):
        ds = enumerate_decompositions(R, make_conorm("max"), grid_step=0.05)
        passing = [d for d in ds if audit_fp(triplet_from_decomposition(R, d)).overall]
        assert len(passing) == 1
        canonical = canonical_decompose(R, make_conorm("max"))
        np.testing.assert_allclose(
            passing[0].strict.degrees, canonical.strict.degrees, atol=1e-9
        )


# ---------------------------------------------------------------------------
# classification


def test_classify_weak_rules():
    assert classify_rule(make_conorm("max")).verdict is RuleClass.INDUCED
    c = classify_rule(make_conorm("lukasiewicz"))
    assert c.verdict is RuleClass.COMPATIBLE
    w, t, s = c.witness
    SL = make_conorm("lukasiewicz")
    assert SL(t, w) == SL(s, w) > w
    assert classify_rule(make_conorm("drastic")).verdict is RuleClass.NOT_COMPATIBLE
    assert classify_rule(make_conorm("prob")).verdict is RuleClass.INDUCED
    assert classify_rule(make_conorm("ordinal_sum")).verdict is RuleClass.COMPATIBLE


def test_classify_strong_rules():
    assert (
        classify_rule(make_conorm("lukasiewicz"), make_norm("lukasiewicz")).verdict
        is RuleClass.INDUCED
    )
    assert (
        classify_rule(make_conorm("lukasiewicz"), make_norm("drastic")).verdict
        is RuleClass.COMPATIBLE
    )
    assert (
        classify_rule(make_conorm("max"), make_norm("min")).verdict
        is RuleClass.NOT_COMPATIBLE
    )


@pytest.mark.parametrize(
    "norm, conorm",
    [
        (("lukasiewicz",), ("lukasiewicz",)),
        (("lukasiewicz",), ("schweizer_sklar", 2.0)),
        (("drastic",), ("lukasiewicz",)),
    ],
)
def test_strong_classification_asks_strong_existence_twice(monkeypatch, norm, conorm):
    # its own existence check and uniqueness; the verified strong
    # decomposition of GRID_RELATION asks nothing
    calls = []

    def counted(T, S):
        calls.append((T, S))
        return strong_existence(T, S)

    monkeypatch.setattr(divisors, "strong_existence", counted)
    T, S = make_norm(*norm), make_conorm(*conorm)
    assert _classify_computed(S, T).verdict is not RuleClass.NOT_COMPATIBLE
    assert calls == [(T, S)] * 2


def test_classify_open_cells_stay_undetermined():
    c = classify_rule(make_conorm("schweizer_sklar", 0.5))
    assert c.verdict is RuleClass.UNDETERMINED
    assert c.oracle_verdict is RuleClass.COMPATIBLE  # evidence, not a verdict
    c = classify_rule(
        make_conorm("schweizer_sklar", 2.0), make_norm("schweizer_sklar", 2.0)
    )
    assert c.verdict is RuleClass.UNDETERMINED
    c = classify_rule(make_conorm("schweizer_sklar", 2.0), make_norm("drastic"))
    assert c.verdict is RuleClass.UNDETERMINED


@pytest.mark.parametrize("lam", [0.05, 0.1, 0.2, 0.22])
def test_drastic_schweizer_sklar_classifies_at_small_lambda(lam):
    # existence holds there; at lambda = 0.05 no float P < 1 has S(P, 0.05) = 1,
    # so the grid cell (i, r) = (0.05, 1) breaks T(P, I) = 0 in floats
    S, T = make_conorm("schweizer_sklar", lam), make_norm("drastic")
    c = classify_rule(S, T)
    assert c.verdict is RuleClass.UNDETERMINED
    if lam != 0.05:
        assert c.oracle_verdict is RuleClass.COMPATIBLE
    else:
        assert c.oracle_verdict is RuleClass.NOT_COMPATIBLE
        reason = _classify_computed(S, T).reason
        assert "in float arithmetic" in reason and reason.endswith("T(1,0.05) = 0.05 != 0 at (x1,x20)")


def test_grid_relation_holds_each_grid_pair_once():
    # cells on and above the diagonal carry each (i, r), i <= r, of the 1/20
    # grid exactly once; cells below it repeat diagonal pairs
    g = np.arange(21) / 20
    m = GRID_RELATION.degrees
    i = np.minimum(m, m.T)
    upper = np.triu_indices(21)
    assert sorted(zip(i[upper].tolist(), m[upper].tolist())) == [
        (g[a], g[b]) for a in range(21) for b in range(a, 21)
    ]
    assert (i == m)[np.tril_indices(21)].all()


def test_classify_reports_a_canonical_rule_that_fails_in_floats():
    # at lambda = 0.001 no float P < 1 has S(P, 0.45) = 1, so the canonical
    # pair of a grid cell breaks T(P, I) = 0 under the drastic norm
    S, T = make_conorm("schweizer_sklar", 0.001), make_norm("drastic")
    c = classify_rule(S, T)
    assert c.verdict is RuleClass.UNDETERMINED
    assert c.oracle_verdict is RuleClass.NOT_COMPATIBLE
    R = FuzzyRelation(("a", "b"), np.array([[1.0, 1.0], [0.45, 1.0]]))
    with pytest.raises(DecompositionError, match=r"^canonical pair fails the norm condition: T\(1,0.45\)"):
        strong_decompose(R, T, S)


