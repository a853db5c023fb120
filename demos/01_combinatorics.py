"""Parse the bundled arrangements and walk through their combinatorics.

Everything downstream (characteristic polynomials, zeta functions, bounds)
is a function of the data printed here: vertices with incident lines,
direction classes, and the multiplicity histogram.  The summary stores no
weights beyond the weight vector; the weight sums below come from
`cs.class_sums(w)` and `cs.vertex_sums(w, incidences)`.  The formulas read
only the multiple points; every vertex, double points included, comes from
`cs.vertex_table`.  A vertex is its integer key
(x_re, x_im, y_re, y_im, n), the point ((x_re + x_im i)/n, (y_re + y_im i)/n),
written out here by the package's exact formatter.
"""

from pathlib import Path

from linemono import compute_combinatorics, load_arrangement
from linemono.exact import gaussian_text

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

for name in (
    "two_axes.json",
    "triangle.json",
    "weighted_triangle.json",
    "concurrent_four.json",
    "eight_line_normal_crossing.json",
    "complex_pencil.json",
):
    arr = load_arrangement(FIXTURES / name)
    cs = compute_combinatorics(arr)
    w = cs.weights
    print(f"=== {name}")
    print(f"  lines d={cs.d}, total weight d_e={sum(w)}, weights={list(w)}")
    print(f"  direction classes p={cs.p}: sizes {[g.count for g in cs.directions]}, "
          f"weight sums {cs.class_sums(w)}")
    print(f"  multiplicity histogram n_m = { {m: n for m, n in sorted(cs.histogram.items())} }")
    print(f"  vertices on each line v_j = {list(cs.line_vertex_counts)}")
    keys, incidences, multiplicities = cs.vertex_table
    rows = zip(keys[:4], incidences, multiplicities, cs.vertex_sums(w, incidences))
    for (x_re, x_im, y_re, y_im, n), incident, m, d_v in rows:
        x, y = gaussian_text(x_re, x_im, n), gaussian_text(y_re, y_im, n)
        print(f"    vertex ({x}, {y}): lines {sorted(incident)}, "
              f"multiplicity {m}, weight sum {d_v}")
    if len(keys) > 4:
        print(f"    ... and {len(keys) - 4} more vertices")
    # the incidence double count: per-line counts and multiplicities agree
    assert sum(cs.line_vertex_counts) == sum(multiplicities)
    print()
