"""Independent brute-force oracles used to freeze expected test values.

Nothing here imports the package under test.  Polynomials are ascending
Fraction coefficient lists; cyclotomic polynomials come from the Moebius
product (the package expands (t^m - 1) factors and never builds them);
arrangement combinatorics is redone from scratch over pairs of Fractions.
Integer vertex keys, line triples and direction keys are read back as
Fraction pairs, and written as text and COEF values by the rules over
Fractions that the package's integer formatter must match; from these
`summary_to_json` rebuilds the "combinatorics" object of `info`.  The
per-order vertex and class sums read a summary and a local system by
their attributes alone, one order at a time.
"""

from fractions import Fraction
from itertools import combinations


def ptrim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    return ptrim(out)


def pdivmod(num, den):
    """Long division over Q."""
    num = [Fraction(x) for x in ptrim(num)]
    den = [Fraction(x) for x in ptrim(den)]
    assert den, "division by zero polynomial"
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    rem = num
    while rem and len(rem) >= len(den):
        factor = rem[-1] / den[-1]
        shift = len(rem) - len(den)
        quot[shift] = factor
        rem = ptrim(
            [
                rem[i] - (factor * den[i - shift] if 0 <= i - shift < len(den) else 0)
                for i in range(len(rem))
            ]
        )
    return ptrim(quot), rem


def tpow_minus_one(m):
    out = [Fraction(0)] * (m + 1)
    out[0] = Fraction(-1)
    out[m] = Fraction(1)
    return out


def moebius(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def euler_phi(n):
    """Euler's totient, by trial-division factorization."""
    result = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def cyclotomic(n):
    """Phi_n by the Moebius product prod_{d|n} (t^d - 1)^{mu(n/d)}."""
    num = [Fraction(1)]
    den = [Fraction(1)]
    for d in range(1, n + 1):
        if n % d == 0:
            mu = moebius(n // d)
            if mu == 1:
                num = pmul(num, tpow_minus_one(d))
            elif mu == -1:
                den = pmul(den, tpow_minus_one(d))
    quot, rem = pdivmod(num, den)
    assert not rem
    return quot


def divmod_factored(factors):
    """(quotient, remainder) of prod (t^m - 1)^{c_m}: numerator by denominator."""
    num = [Fraction(1)]
    den = [Fraction(1)]
    for m, c in factors.items():
        for _ in range(abs(c)):
            if c > 0:
                num = pmul(num, tpow_minus_one(m))
            else:
                den = pmul(den, tpow_minus_one(m))
    return pdivmod(num, den)


def expand_factored(factors):
    """Expand prod (t^m - 1)^{c_m}, negative exponents via exact division."""
    quot, rem = divmod_factored(factors)
    assert not rem, "not a polynomial"
    return quot


def root_multiplicity(coeffs, order):
    """Multiplicity of a primitive order-th root by repeated division by Phi."""
    phi = cyclotomic(order)
    count = 0
    poly = [Fraction(x) for x in coeffs]
    while True:
        quot, rem = pdivmod(poly, phi)
        if rem:
            return count
        count += 1
        poly = quot


def poly_gcd(a, b):
    """Monic Euclidean gcd over Q."""
    a = [Fraction(x) for x in ptrim(a)]
    b = [Fraction(x) for x in ptrim(b)]
    while b:
        _, rem = pdivmod(a, b)
        a, b = b, rem
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


# Complex rationals as (re, im) Fraction pairs, for the geometry oracle.

def cadd(u, v):
    return (u[0] + v[0], u[1] + v[1])


def csub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def cmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def cdiv(u, v):
    norm = v[0] * v[0] + v[1] * v[1]
    assert norm != 0
    return (
        (u[0] * v[0] + u[1] * v[1]) / norm,
        (u[1] * v[0] - u[0] * v[1]) / norm,
    )


def as_complex(value):
    if isinstance(value, tuple):
        return (Fraction(value[0]), Fraction(value[1]))
    return (Fraction(value), Fraction(0))


# Integer keys read as exact values, and the old Fraction-based writing rules.

def key_point(key):
    """A vertex key (x_re, x_im, y_re, y_im, n) as its point, two (re, im) Fraction pairs."""
    x_re, x_im, y_re, y_im, n = key
    return ((Fraction(x_re, n), Fraction(x_im, n)), (Fraction(y_re, n), Fraction(y_im, n)))


def key_coefficients(key):
    """A line triple or direction key over its real lead: the canonical (re, im) pairs."""
    n = key[0] or key[2]
    return tuple((Fraction(key[k], n), Fraction(key[k + 1], n)) for k in range(0, len(key), 2))


def gaussian_text(re, im):
    """re + im i written as text, re and im Fractions."""
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{abs(im)}i"


def gaussian_coef(re, im):
    """re + im i in COEF wire form, re and im Fractions."""
    if im == 0:
        return str(re)
    return {"im": str(im), "re": str(re)}


def brute_combinatorics(lines, weights=None):
    """Recompute vertices, histogram and direction classes from raw triples.

    `lines` is a list of (a, b, c) with entries either Fractions/ints or
    (re, im) pairs.  Returns a dict with the fields the formulas consume.
    """
    lines = [tuple(as_complex(x) for x in line) for line in lines]
    d = len(lines)
    weights = list(weights) if weights is not None else [1] * d

    def canonical(line):
        a, b, c = line
        scale = a if a != (0, 0) else b
        return (cdiv(a, scale), cdiv(b, scale), cdiv(c, scale))

    canon = [canonical(line) for line in lines]
    assert len(set(canon)) == d, "duplicate lines in oracle input"

    points = {}
    for i, j in combinations(range(d), 2):
        a1, b1, c1 = canon[i]
        a2, b2, c2 = canon[j]
        det = csub(cmul(a1, b2), cmul(a2, b1))
        if det == (Fraction(0), Fraction(0)):
            continue
        x = cdiv(csub(cmul(c2, b1), cmul(c1, b2)), det)
        y = cdiv(csub(cmul(c1, a2), cmul(c2, a1)), det)
        points.setdefault((x, y), set()).update((i, j))

    histogram = {}
    for incident in points.values():
        histogram[len(incident)] = histogram.get(len(incident), 0) + 1

    direction_classes = {}
    for i, (a, b, _) in enumerate(canon):
        direction_classes.setdefault((a, b), set()).add(i)

    return {
        "d": d,
        "d_e": sum(weights),
        "vertices": {
            point: sorted(incident) for point, incident in points.items()
        },
        "vertex_weight_sums": {
            point: sum(weights[i] for i in incident)
            for point, incident in points.items()
        },
        "histogram": histogram,
        "p": len(direction_classes),
        "class_sizes": sorted(len(s) for s in direction_classes.values()),
        "class_weights": {
            direction: sum(weights[i] for i in members)
            for direction, members in direction_classes.items()
        },
        "class_members": {
            direction: sorted(members)
            for direction, members in direction_classes.items()
        },
        "line_vertex_counts": [
            sum(1 for incident in points.values() if i in incident) for i in range(d)
        ],
    }


def document_lines(document):
    """An arrangement document's lines as `brute_combinatorics` input, with their weights.

    Each COEF (an int, "p" or "p/q", or {"re": RAT, "im": RAT}) becomes an
    (re, im) Fraction pair; a missing weight "e" is 1.
    """

    def coef(value):
        if isinstance(value, dict):
            return (Fraction(value.get("re", 0)), Fraction(value.get("im", 0)))
        return (Fraction(value), Fraction(0))

    rows = document["lines"]
    return [tuple(coef(row[k]) for k in "abc") for row in rows], [row.get("e", 1) for row in rows]


def summary_to_json(lines, weights):
    """The "combinatorics" object `info` writes, rebuilt from `brute_combinatorics`.

    Direction classes and vertices, double points included, are listed in
    lexicographic order of their exact coordinates: the canonical (a, b),
    and the point (x, y), each part as (re, im).  Every number is written
    by the Fraction rules of `gaussian_coef`.
    """
    brute = brute_combinatorics(lines, weights)

    def coefs(pair):
        return [gaussian_coef(*z) for z in pair]

    return {
        "d": brute["d"],
        "dE": brute["d_e"],
        "directions": [
            {
                "count": len(members),
                "direction": coefs(direction),
                "members": members,
                "weightSum": brute["class_weights"][direction],
            }
            for direction, members in sorted(brute["class_members"].items())
        ],
        "histogram": {str(m): n for m, n in sorted(brute["histogram"].items())},
        "lineVertexCounts": brute["line_vertex_counts"],
        "p": brute["p"],
        "vertices": [
            {
                "incident": incident,
                "multiplicity": len(incident),
                "point": coefs(point),
                "weightSum": brute["vertex_weight_sums"][point],
            }
            for point, incident in sorted(brute["vertices"].items())
        ],
        "weights": list(weights),
    }


def vertex_mult_zero(cs, ls):
    """sum (m_v - 2) over every vertex, double points included, whose residue sum the order divides."""
    return sum(
        len(lines) - 2
        for _, lines in cs.all_vertices()
        if sum(ls.residues[i] for i in lines) % ls.order == 0
    )


def vertex_mult_infinity(cs, ls):
    """sum (k_j - 1) over direction classes with d_e - d_j divisible by the order.

    d_e and d_j are residue sums.  None when the order divides d_e: the
    monodromy about the line at infinity is then trivial and the sum
    misses the (t^{d_e} - 1)^{p-2} factor.
    """
    d_e = sum(ls.residues)
    if d_e % ls.order == 0:
        return None
    return sum(
        g.count - 1
        for g in cs.directions
        if (d_e - sum(ls.residues[i] for i in g.members)) % ls.order == 0
    )
