"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion report."""

import time

import numpy as np

from fuzzdec import (
    FuzzyRelation,
    Verdict,
    audit_fp,
    bisection_residual,
    canonical_decompose,
    crisp_decompose,
    diff_against_reference,
    find_collapse_witness,
    generate_table1,
    generate_table2,
    make_conorm,
    make_norm,
    mj_counterexample,
    residual_array,
    restricted_decomposability,
    strong_region,
    triplet_from_decomposition,
    verify_weak,
    weak_region,
)
from fuzzdec.divisors import (
    bisection_one_interval,
    bisection_zero_interval,
    one_interval,
    zero_interval,
)
from oracles import enumerate_decompositions, tie_strict_max_decomposition

CONTINUOUS_CONORMS = [
    ("minimum", None),
    ("lukasiewicz", None),
    ("product", None),
    ("schweizer_sklar", -1.0),
    ("schweizer_sklar", 0.5),
    ("schweizer_sklar", 2.0),
    ("hamacher", 0.0),
    ("hamacher", 2.0),
    ("ordinal_sum_lukasiewicz_half", None),
]


def report(criterion: str, ok: bool, extra: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"{tag} {criterion}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def seeded_relations(count, seed, size=3, levels=20):
    rng = np.random.default_rng(seed)
    labels = tuple("abc"[:size])
    return [
        FuzzyRelation(labels, rng.integers(0, levels + 1, size=(size, size)) / levels)
        for _ in range(count)
    ]


def test_criterion_1_table1_reproduction():
    t0 = time.monotonic()
    cells = generate_table1()
    mismatches = diff_against_reference(cells, 1)
    elapsed = time.monotonic() - t0
    report(
        "criterion 1: decomposability table matches on every determined cell",
        not mismatches and elapsed < 10.0,
        f"{len(mismatches)} mismatches, {elapsed:.2f}s",
    )


def test_criterion_2_table2_reproduction():
    cells = generate_table2()
    mismatches = diff_against_reference(cells, 2)
    open_ok = all(
        dict(c.entries).get(regime) == "undetermined"
        for c, regime in [
            (next(x for x in cells if (x.row, x.col) == ("drastic", "schweizer_sklar")), "0<lambda<+inf"),
            (next(x for x in cells if (x.row, x.col) == ("lukasiewicz", "schweizer_sklar")), "lambda=1"),
            (next(x for x in cells if (x.row, x.col) == ("lukasiewicz", "schweizer_sklar")), "1<lambda<+inf"),
            (next(x for x in cells if (x.row, x.col) == ("schweizer_sklar", "schweizer_sklar")), "lambda=1"),
            (next(x for x in cells if (x.row, x.col) == ("schweizer_sklar", "schweizer_sklar")), "1<lambda<+inf"),
            (next(x for x in cells if (x.row, x.col) == ("weak", "schweizer_sklar")), "0<lambda<+inf"),
        ]
    )
    report(
        "criterion 2: rule table matches with open cells undetermined",
        not mismatches and open_ok,
        f"{len(mismatches)} mismatches",
    )


def test_criterion_3_closed_form_residuals_vs_bisection():
    rng = np.random.default_rng(314159)
    u = rng.uniform(size=10_000)
    v = rng.uniform(size=10_000)
    i_vals, r_vals = np.minimum(u, v), np.maximum(u, v)
    worst = 0.0
    for family in ("minimum", "lukasiewicz", "product"):
        S = make_conorm(family)
        closed = residual_array(S, i_vals, r_vals)
        oracle = bisection_residual(S, i_vals, r_vals)
        worst = max(worst, float(np.max(np.abs(closed - oracle))))
    report(
        "criterion 3: closed-form residuals match bisection within 1e-9 on 10^4 pairs",
        worst <= 1e-9,
        f"worst gap {worst:.2e}",
    )


def test_criterion_4_indifference_pinned_to_minimum():
    conorms = [make_conorm("max"), make_conorm("lukasiewicz"), make_conorm("prob")]
    relations = seeded_relations(200, seed=2024)
    checked = 0
    ok = True
    for S in conorms:
        for R in relations:
            found = enumerate_decompositions(
                R, S, grid_step=0.05, search_indifference=True
            )
            expected = np.minimum(R.degrees, R.degrees.T)
            for d in found:
                checked += 1
                if not np.array_equal(d.indifference.degrees, expected):
                    ok = False
    report(
        "criterion 4: every brute-forced decomposition has I = min(R, R^t) exactly",
        ok and checked > 0,
        f"{checked} decompositions across 200 relations x 3 conorms",
    )


def test_criterion_5_unique_preference_inducing_decomposition_under_max():
    S = make_conorm("max")
    ok = True
    for R in seeded_relations(50, seed=777):
        ds = enumerate_decompositions(R, S, grid_step=0.05)
        passing = [d for d in ds if audit_fp(triplet_from_decomposition(R, d)).overall]
        if len(passing) != 1:
            ok = False
            break
    report(
        "criterion 5: exactly one enumerated weak decomposition per relation "
        "forms a preference under the maximum",
        ok,
    )


def test_criterion_6_collapse_witness_suite():
    ok = True
    for S, (w, t, s) in (
        (make_conorm("lukasiewicz"), (0.5, 0.6, 0.7)),
        (make_conorm("ordinal_sum"), (0.3, 0.4, 0.45)),
    ):
        R, d1, d2 = mj_counterexample(S, w, t, s)
        distinct = not np.array_equal(d1.strict.degrees, d2.strict.degrees)
        valid = all(
            verify_weak(R, d).verdict is Verdict.HOLDS
            and audit_fp(triplet_from_decomposition(R, d)).overall
            for d in (d1, d2)
        )
        ok = ok and distinct and valid
    unsat = (
        find_collapse_witness(make_conorm("max")) is None
        and find_collapse_witness(make_conorm("prob")) is None
    )
    report(
        "criterion 6: collapse witnesses give two valid preferences; "
        "maximum and probabilistic sum admit none on the section grid (t step 1e-3 by w step 0.01)",
        ok and unsat,
    )


def test_criterion_7_crisp_degeneration():
    ok = True
    count = 0
    for family, lam in CONTINUOUS_CONORMS:
        S = make_conorm(family, lam)
        for n, labels in ((2, ("x", "y")), (3, ("x", "y", "z"))):
            for bits in range(2 ** (n * n)):
                m = np.array(
                    [(bits >> k) & 1 for k in range(n * n)], dtype=float
                ).reshape(n, n)
                R = FuzzyRelation(labels, m)
                d = canonical_decompose(R, S)
                P, I = crisp_decompose(R)
                count += 1
                if not (
                    np.array_equal(d.strict.degrees, P.degrees)
                    and np.array_equal(d.indifference.degrees, I.degrees)
                ):
                    ok = False
    report(
        "criterion 7: all 16 + 512 crisp relations decompose to the crisp split, exactly",
        ok,
        f"{count} decompositions",
    )


def test_criterion_8_golden_regions():
    res = 1 / 200
    sd = make_conorm("drastic")
    grid = weak_region(sd, res)
    A, B = np.meshgrid(grid.axis, grid.axis, indexing="ij")
    edges = (A == 0) | (A == 1) | (B == 0) | (B == 1)
    diag = A == B
    # the reference figure draws the frame; the diagonal (trivially
    # decomposable: t = 0 reconstructs equal values) belongs as well and is
    # required by the subset check below, so the golden shape is frame+diagonal
    sd_ok = (
        bool(grid.membership[edges].all())
        and bool(np.diag(grid.membership).all())
        and np.array_equal(grid.membership, edges | diag)
    )

    tp_sl = strong_region(make_norm("product"), make_conorm("lukasiewicz"), res)
    axes_only = np.minimum(A, B) == 0
    tp_sl_ok = np.array_equal(tp_sl.membership, diag | axes_only)

    tl_sp = strong_region(make_norm("lukasiewicz"), make_conorm("prob"), res)
    mn, mx = np.minimum(A, B), np.maximum(A, B)
    # curve b = a^2 - a + 1 together with b = (1 +- sqrt(4a-3))/2 is exactly
    # the boundary of max <= min^2 - min + 1; allow one cell around it
    gap = mx - (mn * mn - mn + 1.0)
    cell = res
    inside, outside = gap <= -cell, gap >= cell
    tl_sp_ok = bool(tl_sp.membership[inside].all()) and not tl_sp.membership[outside].any()

    subset = restricted_decomposability(make_conorm("max"), sd, None, res)
    report(
        "criterion 8: golden region shapes at 1/200 and the connectedness subset check",
        sd_ok and tp_sl_ok and tl_sp_ok and subset.verdict is Verdict.HOLDS,
    )


def test_criterion_9_preference_audits():
    relations = seeded_relations(100, seed=99)
    sp_ok = all(
        audit_fp(
            triplet_from_decomposition(R, canonical_decompose(R, make_conorm("prob")))
        ).overall
        for R in relations
    )
    smax_ok = all(
        audit_fp(
            triplet_from_decomposition(R, canonical_decompose(R, make_conorm("max")))
        ).overall
        for R in relations
    )
    tie = FuzzyRelation(("x", "y"), np.array([[1.0, 0.5], [0.5, 1.0]]))
    rep = audit_fp(triplet_from_decomposition(tie, tie_strict_max_decomposition(tie)))
    tie_ok = rep.failed_axioms() == ("FP4",)
    report(
        "criterion 9: canonical decompositions audit clean; the tie-promoting "
        "variant fails exactly the strict-preference equivalence",
        sp_ok and smax_ok and tie_ok,
    )


def test_criterion_10_divisor_interval_formulas():
    worst = 0.0
    ws = [k / 10 for k in range(11)]
    for family in ("drastic", "minimum", "product", "lukasiewicz"):
        S = make_conorm(family)
        T = make_norm(family)
        for w in ws:
            a, b = one_interval(S, w), bisection_one_interval(S, w)
            worst = max(worst, abs(a.lower - b.lower), abs(a.upper - b.upper))
            a, b = zero_interval(T, w), bisection_zero_interval(T, w)
            worst = max(worst, abs(a.lower - b.lower), abs(a.upper - b.upper))
    report(
        "criterion 10: divisor-interval closed forms match bisection within 1e-9",
        worst <= 1e-9,
        f"worst gap {worst:.2e}",
    )
