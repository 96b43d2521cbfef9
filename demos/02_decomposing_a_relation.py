"""Splitting a fuzzy weak preference into strict preference and indifference.

Any reconstruction R = S(P, I) with P asymmetric and I symmetric forces
I = min(R, R^t); the canonical strict part is the residual
P(x,y) = inf{t : S(t, I(x,y)) >= R(x,y)}.  This script walks through the
classic two-element example, shows the closed forms the main conorms give,
and checks the crisp degeneration.
"""

import numpy as np

from fuzzdec import (
    FuzzyRelation,
    canonical_decompose,
    crisp_decompose,
    make_conorm,
    make_norm,
    residual,
    strong_decompose,
    verify_strong,
)

# x beats y decisively; both compare to themselves fully
R = FuzzyRelation(("x", "y"), np.array([[1.0, 1.0], [0.5, 1.0]]))
print("R =")
print(R.degrees)
print()

for spec in ("max", "lukasiewicz", "prob"):
    S = make_conorm(spec)
    d = canonical_decompose(R, S)
    print(f"canonical decomposition under {S.display_name}:")
    print("  P(x,y) =", d.strict.value("x", "y"), "  I(x,y) =", d.indifference.value("x", "y"))
    print(" ", d.verification)  # verify_weak's verdict, which canonical_decompose carries
print()

print("The residual behind those numbers, P = inf{t : S(t, i) >= r}, reconstructs r:")
for spec, i, r, formula in (
    ("max", 0.5, 1.0, "r"),
    ("lukasiewicz", 0.3, 0.8, "r - i"),
    ("prob", 0.5, 0.75, "(r-i)/(1-i)"),
):
    S = make_conorm(spec)
    p = residual(S, i, r)
    print(f"  {S.display_name}, i = {i:g}, r = {r:g}: P = {formula} = {p:g}, S(P, i) = {S(p, i):g}")
print()

print("Strong decompositions additionally need T(P, I) = 0:")
d = canonical_decompose(R, make_conorm("max"))
check = verify_strong(R, d, make_norm("min"))
print(f"  under the maximum the parts overlap: {check}")
d = strong_decompose(R, make_norm("lukasiewicz"), make_conorm("lukasiewicz"))
print(
    "  under the Lukasiewicz pair: P(x,y) =", d.strict.value("x", "y"),
    "and T(P,I) =", make_norm("lukasiewicz")(d.strict.value("x", "y"), 0.5),
)
print()

print("Crisp relations decompose to their crisp split under every continuous conorm:")
crisp = FuzzyRelation(("x", "y"), np.array([[1.0, 1.0], [0.0, 1.0]]))
P, I = crisp_decompose(crisp)
for spec in ("max", "lukasiewicz", "prob", "ordinal_sum"):
    d = canonical_decompose(crisp, make_conorm(spec))
    same = np.array_equal(d.strict.degrees, P.degrees) and np.array_equal(
        d.indifference.degrees, I.degrees
    )
    print(f"  {spec:12s} reproduces the crisp split exactly: {same}")
