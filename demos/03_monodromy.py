"""Monodromy characteristic polynomials and the stratified zeta pipeline.

Two independent routes to the characteristic polynomial about the zero
fiber: the closed product formula, and the product of local zeta functions
over the strata (vertices and open line pieces) divided into (1 - t).
They must agree after refactoring over the cyclotomic basis, and their
degree equals b1 of the general fiber.
"""

from pathlib import Path

from linemono import (
    charpoly_infinity,
    charpoly_zero_closed,
    charpoly_zero_from_zeta,
    compute_combinatorics,
    invariant_report,
    load_arrangement,
    local_zeta,
    strata,
    zeta_at_zero,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

for name in ("triangle.json", "weighted_triangle.json", "eight_line_normal_crossing.json"):
    cs = compute_combinatorics(load_arrangement(FIXTURES / name))
    print(f"=== {name}")
    inf = charpoly_infinity(cs)
    zero = charpoly_zero_closed(cs)
    print(f"  at infinity: {inf}  (degree {inf.degree()})")
    print(f"  about zero:  {zero}  (degree {zero.degree()})")
    print(f"  b1(general fiber) = {invariant_report(cs).b1_fiber}")

    z = zeta_at_zero(cs)
    print(f"  zeta about zero: {z}")
    via_zeta = charpoly_zero_from_zeta(z)
    print(f"  (1-t)/zeta refactors to {via_zeta.to_cyclotomic()} "
          f"== {zero.to_cyclotomic()}: "
          f"{via_zeta.to_cyclotomic() == zero.to_cyclotomic()}")
    print()

# the local factors themselves, for the weighted triangle
cs = compute_combinatorics(load_arrangement(FIXTURES / "weighted_triangle.json"))
print("local zeta factors of the weighted triangle, stratum by stratum:")
for s in strata(cs):
    print(f"  {s.kind:16s} weight_sum={s.weight_sum} multiplicity={s.multiplicity} "
          f"euler={s.euler:+d}  local zeta = {local_zeta(s)}")
