"""Closed-form invariants: Euler characteristics, Betti numbers, genus.

The complement of the lines has Euler characteristic mu, which also counts
the 2-spheres in the bouquet the zero fiber retracts to.  The general
fiber of the defining polynomial has first Betti number b1 computable two
ways (vertex side and direction side), and for reduced arrangements a
genus.  The dicritic count always equals the number of lines, which makes
the fiber-irreducibility comparison an equality.
"""

from pathlib import Path

from linemono import compute_combinatorics, invariant_report, load_arrangement

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

for name in (
    "two_axes.json",
    "triangle.json",
    "weighted_triangle.json",
    "eight_line_normal_crossing.json",
):
    rep = invariant_report(compute_combinatorics(load_arrangement(FIXTURES / name)))
    print(f"=== {name}")
    print(f"  chi(complement) = mu = {rep.mu}")
    print(f"  b1(general fiber) = {rep.b1_fiber}")
    genus = "n/a (weighted)" if rep.genus is None else rep.genus
    print(f"  genus of smooth model = {genus}")
    print(f"  dicritics = {rep.dicritics} (= number of lines)")
    print(f"  irreducibility comparison: {rep.kaliman_lhs} = {rep.kaliman_rhs}")
    print(f"  Milnor numbers at infinity per direction: {list(rep.infinity_mu)}")
    print(f"  numerical-data identity holds: {rep.numbers_identity_holds}")
    print()
