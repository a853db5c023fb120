"""Upper bounds for twisted first cohomology of the complement.

A rank-one local system with monodromy exp(2*pi*i*e_j/N) about the j-th
line admits the bound dim H^1 <= min(N0, NInfinity), the multiplicities of
exp(2*pi*i/N) in the two characteristic polynomials built with weights e.
Either side can be the strictly smaller one; the two showcase inputs below
exhibit both directions.
"""

from pathlib import Path

from linemono import (
    LocalSystem,
    bound_from_summary,
    charpoly_infinity,
    charpoly_zero_closed,
    compute_combinatorics,
    delta_f,
    load_arrangement,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

cs = compute_combinatorics(load_arrangement(FIXTURES / "eight_line_normal_crossing.json"))
print("eight lines, only double points, cube root of unity on every line:")
report = bound_from_summary(cs, LocalSystem.create(3, [1] * cs.d))
print(f"  N0 = {report.n0} (no vertex weight sum divisible by 3: "
      f"shortcut={report.normal_crossing_shortcut})")
print(f"  NInfinity = {report.n_infinity} (every direction class has weight 6 short of 8)")
print(f"  bound = {report.bound}  -- the zero side wins")
print()

cs = compute_combinatorics(load_arrangement(FIXTURES / "concurrent_four.json"))
print("four lines, three through one point, cube root of unity:")
report = bound_from_summary(cs, LocalSystem.create(3, [1] * cs.d))
print(f"  N0 = {report.n0} (the triple point has weight sum 3)")
print(f"  NInfinity = {report.n_infinity}")
print(f"  bound = {report.bound}  -- the infinity side wins")
print()

cs = compute_combinatorics(load_arrangement(FIXTURES / "triangle.json"))
print("triangle with non-equimonodromical residues (1, 1, 2) at order 4:")
ls = LocalSystem.create(4, [1, 1, 2])
report = bound_from_summary(cs, ls)
print(f"  N0 = {report.n0}, NInfinity = {report.n_infinity}, bound = {report.bound}")
print(f"  same geometry, residues as weights: about zero "
      f"{charpoly_zero_closed(cs, ls.residues)}, "
      f"at infinity {charpoly_infinity(cs, ls.residues)}")
print(f"  vertex sum at infinity unavailable (4 divides the total weight): "
      f"{report.vertex_sum_infinity}")
print()

print("gcd of the two characteristic polynomials stores every bound at once:")
for name in ("triangle.json", "concurrent_four.json"):
    cs = compute_combinatorics(load_arrangement(FIXTURES / name))
    print(f"  {name}: {delta_f(cs)}")
