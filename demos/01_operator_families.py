"""Tour of the built-in t-norm and t-conorm families.

Builds each family, evaluates a few points, and runs the property checkers
that drive everything else in the package: axiom sweeps, first-coordinate
continuity, strictness, strict-increase near zero, and the
collapse-implies-absorption condition behind rule uniqueness.
"""

import numpy as np

from fuzzdec import (
    Verdict,
    check_collapse_implies_absorption,
    check_first_coordinate_continuity,
    check_norm_axioms,
    check_strict_near_zero,
    check_strictly_increasing_first,
    degree_grid,
    make_conorm,
    make_norm,
)

CONORMS = [
    ("max", None),
    ("lukasiewicz", None),
    ("prob", None),
    ("drastic", None),
    ("schweizer_sklar", -1.0),
    ("schweizer_sklar", 2.0),
    ("hamacher", 0.5),
    ("ordinal_sum", None),
]

print("A few point evaluations")
print("-" * 60)
SL = make_conorm("lukasiewicz")
print("Lukasiewicz conorm at (0.3, 0.9):", SL(0.3, 0.9))
print("Drastic sum at (0.4, 0.0):      ", make_conorm("drastic")(0.4, 0.0))
print("SS(0) norm (= product) at (0.5, 0.5):", make_norm("schweizer_sklar", 0)(0.5, 0.5))
osum = make_conorm("ordinal_sum")
print("Ordinal sum at (0.2, 0.2):", osum(0.2, 0.2), " at (0.3, 0.3):", osum(0.3, 0.3))
print()

print("Duality: S(x,y) = 1 - T(1-x, 1-y) on a 1/100 grid")
print("-" * 60)
g = degree_grid(0.01)
xx, yy = np.meshgrid(g, g, indexing="ij")
for family, lam in CONORMS:
    S = make_conorm(family, lam)
    T = make_norm(family, lam)
    gap = np.max(np.abs(S.evaluator(xx, yy) - (1.0 - T.evaluator(1.0 - xx, 1.0 - yy))))
    print(f"{S.display_name:45s} max dual gap {gap:.2e}")
print()

print("Property checker summary (conorms)")
print("-" * 60)
header = f"{'conorm':45s} {'axioms':8s} {'cont.':8s} {'strict':8s} {'near 0':8s} {'collapse':8s}"
print(header)


def short(v):
    return {Verdict.HOLDS: "yes", Verdict.FAILS: "NO", Verdict.UNKNOWN: "n/a"}[v.verdict]


for family, lam in CONORMS:
    S = make_conorm(family, lam)
    row = [
        short(check_norm_axioms(S, 0.02)),
        short(check_first_coordinate_continuity(S)),
        short(check_strictly_increasing_first(S)),
        short(check_strict_near_zero(S)),
        short(check_collapse_implies_absorption(S)),
    ]
    print(f"{S.display_name:45s} " + " ".join(f"{c:8s}" for c in row))
print()

print("Failing checks come with witnesses that reproduce the failure:")
v = check_strictly_increasing_first(make_conorm("lukasiewicz"))
t, s, w = v.witness
print(f"  Lukasiewicz strictness: S({t:g},{w:g}) = {SL(t, w):g} = S({s:g},{w:g})")
v = check_first_coordinate_continuity(make_conorm("drastic"))
t0, t1, w = v.witness
SD = make_conorm("drastic")
print(f"  Drastic continuity: S({t0:g},{w:g}) = {SD(t0, w):g} jumps to S({t1:g},{w:g}) = {SD(t1, w):g}")
