"""From decompositions to preference structures.

A triplet (R, P, I) is a fuzzy preference when the six structural axioms
FP1-FP6 hold.  Every weak decomposition delivers all of them except
possibly the backward half of FP4 ("strictly better iff strictly
preferred"); decompositions can fail it, and whole conorms can admit
several preference-forming decompositions of one relation.  The collapse
condition S(t,w) = S(s,w) > w is the exact dividing line.
"""

import numpy as np

from fuzzdec import (
    Decomposition,
    FuzzyRelation,
    audit_fp,
    canonical_decompose,
    classify_rule,
    diff_against_reference,
    find_collapse_witness,
    generate_table2,
    make_conorm,
    make_norm,
    mj_counterexample,
    render_table,
    triplet_from_decomposition,
    verify_weak,
)

tie = FuzzyRelation(("x", "y"), np.array([[1.0, 0.5], [0.5, 1.0]]))

print("A perfectly symmetric relation, decomposed canonically under max:")
d = canonical_decompose(tie, make_conorm("max"))
print("  P(x,y) =", d.strict.value("x", "y"), "- nobody strictly preferred")
print("  audit:", "pass" if audit_fp(triplet_from_decomposition(tie, d)).overall else "fail")
print()

print("A flawed variant promotes the tie into a strict preference:")
# the maximum rule, except that a symmetric pair below 1 also enters the
# strict part (first direction in universe order, to keep P asymmetric)
m = tie.degrees
P_bad = np.where((m > m.T) | np.triu((m == m.T) & (m < 1.0), 1), m, 0.0)
d_bad = Decomposition(
    FuzzyRelation(tie.universe, P_bad), FuzzyRelation(tie.universe, np.minimum(m, m.T)), make_conorm("max")
)
print("  P(x,y) =", d_bad.strict.value("x", "y"))
print("  still a weak decomposition:", verify_weak(tie, d_bad).verdict.value)
rep = audit_fp(triplet_from_decomposition(tie, d_bad))
print("  failed axioms:", rep.failed_axioms(), "- strictly preferred without being better")
print()

print("Conorms that collapse above the absorbed value admit TWO valid preferences:")
w, t, s = 0.5, 0.6, 0.7
R, d1, d2 = mj_counterexample(make_conorm("lukasiewicz"), w, t, s)
print(f"  Lukasiewicz: S({t},{w}) = S({s},{w}) = 1 builds R(a,b)=1, R(b,a)={w}")
print("  P(a,b) =", d1.strict.value("a", "b"), "or", d2.strict.value("a", "b"),
      "- both audit:",
      audit_fp(triplet_from_decomposition(R, d1)).overall,
      audit_fp(triplet_from_decomposition(R, d2)).overall)
print("  maximum admits no such witness on the section grid (t step 1/1000, w step 1/100):",
      find_collapse_witness(make_conorm("max")))
print("  probabilistic sum neither:", find_collapse_witness(make_conorm("prob")))
print()

print("Rule classification (weak):")
for spec in ("max", "prob", "lukasiewicz", "drastic", "ordinal_sum"):
    print(f"  {spec:12s} ->", classify_rule(make_conorm(spec)).verdict.value)
print("Rule classification (strong):")
print("  (lukasiewicz, lukasiewicz) ->",
      classify_rule(make_conorm("lukasiewicz"), make_norm("lukasiewicz")).verdict.value)
print("  (drastic, lukasiewicz)     ->",
      classify_rule(make_conorm("lukasiewicz"), make_norm("drastic")).verdict.value)
print()

print("Full regenerated rule table (0 mismatches expected):")
cells = generate_table2()
print(render_table(cells))
print(f"{len(diff_against_reference(cells, 2))} mismatches against the reference")
