"""When do ALL relations decompose, and uniquely?

Strong decomposability of every relation under (T, S) reduces to a geometric
condition on divisor intervals: {t : S(t,w) = 1} must meet {t : T(t,w) = 0}
for every w (with S continuous in its first coordinate); uniqueness asks the
intersection to be a single point.  Weak decomposability only needs the
continuity, and uniqueness of weak decompositions is exactly strict increase
in the first coordinate.

The summary table over the standard families is regenerated from these
predicates and diffed against the embedded reference verdicts.
"""

from fuzzdec import (
    diff_against_reference,
    generate_table1,
    make_conorm,
    make_norm,
    one_interval,
    render_table,
    strong_existence,
    strong_uniqueness,
    zero_interval,
)

TL, SL = make_norm("lukasiewicz"), make_conorm("lukasiewicz")

print("Divisor intervals for the Lukasiewicz pair at w = 0.3:")
print("  {t : S(t,0.3) = 1} =", one_interval(SL, 0.3))
print("  {t : T(t,0.3) = 0} =", zero_interval(TL, 0.3))
print("  intersection     =", one_interval(SL, 0.3).intersect(zero_interval(TL, 0.3)))
print()

print("Existence / uniqueness verdicts:")
print("  (T_L, S_L):   ", strong_existence(TL, SL).verdict.value, "/",
      strong_uniqueness(TL, SL).verdict.value)
TD = make_norm("drastic")
print("  (T_D, S_L):   ", strong_existence(TD, SL).verdict.value, "/",
      strong_uniqueness(TD, SL).verdict.value)
Tmin, Smax = make_norm("min"), make_conorm("max")
v = strong_existence(Tmin, Smax)
print("  (T_min, S_max):", v.verdict.value, "- witness w =", v.witness[0])
print()

print("Full regenerated table (0 mismatches expected):")
cells = generate_table1()
print(render_table(cells))
print(f"{len(diff_against_reference(cells, 1))} mismatches against the reference")
