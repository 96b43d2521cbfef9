"""The geometry of decomposable value pairs.

Whether a relation decomposes depends only on the value pairs
(R(x,y), R(y,x)) it realises, so each operator pair carves a region out of
the unit square.  This script rasterises the three classic shapes, writes
them as CSV, sketches them in ASCII, and shows how domain restrictions
interact with the regions: connectedness can rescue an otherwise
undecomposable conorm, while a transitive relation can still fail.
"""

import numpy as np

from fuzzdec import (
    make_conorm,
    make_norm,
    restricted_decomposability,
    strong_region,
    t_transitive_closure,
    weak_region,
    FuzzyRelation,
)


def sketch(grid, title):
    print(title)
    n = grid.axis.size
    step = max(1, n // 33)
    idxs = list(range(0, n, step))
    if idxs[-1] != n - 1:
        idxs.append(n - 1)
    for j in reversed(idxs):  # b on the vertical axis, upward
        row = "".join("#" if grid.membership[i, j] else "." for i in idxs)
        print("   " + row)
    print()


res = 1 / 100

sd = weak_region(make_conorm("drastic"), res)
sd.save_csv("region_drastic_weak.csv")
sketch(sd, "weak region of the drastic sum (frame plus the trivial diagonal):")

tp_sl = strong_region(make_norm("product"), make_conorm("lukasiewicz"), res)
tp_sl.save_csv("region_product_lukasiewicz_strong.csv")
sketch(tp_sl, "strong region of (product, Lukasiewicz): diagonal and axes:")

tl_sp = strong_region(make_norm("lukasiewicz"), make_conorm("prob"), res)
tl_sp.save_csv("region_lukasiewicz_probabilistic_strong.csv")
sketch(tl_sp, "strong region of (Lukasiewicz, probabilistic): max <= min^2 - min + 1:")

print("CSV files written:",
      "region_drastic_weak.csv,",
      "region_product_lukasiewicz_strong.csv,",
      "region_lukasiewicz_probabilistic_strong.csv")
print()

print("Connectedness can rescue the drastic sum:")
print("  max-connected pairs all decompose:  ",
      restricted_decomposability(make_conorm("max"), make_conorm("drastic")).verdict.value)
print("  Lukasiewicz-connected pairs do not: ",
      restricted_decomposability(make_conorm("lukasiewicz"), make_conorm("drastic")))
print()

print("Transitivity keeps the drastic sum's nonexistence:")
R = FuzzyRelation(("x", "y"), np.array([[1.0, 0.6], [0.5, 1.0]]))
closed = t_transitive_closure(R, make_norm("min"))
print("  a min-transitive relation keeping the bad pair (0.6, 0.5):",
      closed.degrees[0, 1], closed.degrees[1, 0])
