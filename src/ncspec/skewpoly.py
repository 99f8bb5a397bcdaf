"""Normal-form arithmetic for skew Laurent polynomials.

Variables x_1 < ... < x_n quasi-commute: x_i x_j = lam(i, j) x_j x_i for
i < j, with nonzero rational lam(i, j).  A term is stored as an integer
exponent vector a meaning the ordered word x_1^{a_1} ... x_n^{a_n}; a sum
of terms is a mapping from exponent vectors to nonzero coefficients.

Reordering the concatenation of two ordered words only transposes pairs
(x_i from the left factor, x_j from the right factor) with j < i, so

    x^a * x^b = twist(a, b) * x^(a+b),
    twist(a, b) = prod over j < i of lam(j, i) ** (-a_i * b_j).

Variables are 0-indexed here; lam is a mapping {(i, j): Fraction} for
i < j (0-based).
"""

from fractions import Fraction

ExpVec = tuple  # tuple of int, one slot per variable
Terms = dict    # ExpVec -> Fraction, no zero values


def twist(lam: dict, a: ExpVec, b: ExpVec):
    """Scalar picked up when normalizing x^a * x^b: the product over j < i
    of lam[(j, i)] ** (-a_i b_j), accumulated as one integer numerator and
    denominator and reduced once; an int when the denominator is 1."""
    num = den = 1
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(i):
            e = -ai * b[j]
            if e == 0:
                continue
            q = lam[(j, i)]
            if e > 0:
                num *= q.numerator ** e
                den *= q.denominator ** e
            else:
                num *= q.denominator ** -e
                den *= q.numerator ** -e
    return num if den == 1 else Fraction(num, den)


def term_mul(lam: dict, a: ExpVec, ca: Fraction, b: ExpVec, cb: Fraction):
    exp = tuple(x + y for x, y in zip(a, b))
    return exp, ca * cb * twist(lam, a, b)


def add(p: Terms, q: Terms) -> Terms:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def neg(p: Terms) -> Terms:
    return {e: -c for e, c in p.items()}


def mul(lam: dict, p: Terms, q: Terms) -> Terms:
    out: Terms = {}
    for a, ca in p.items():
        for b, cb in q.items():
            e, c = term_mul(lam, a, ca, b, cb)
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def monomial(nvars: int, exps, coeff=1) -> Terms:
    c = Fraction(coeff)
    if c == 0:
        return {}
    e = tuple(exps)
    if len(e) != nvars:
        raise ValueError(f"exponent {e} has {len(e)} entries, not {nvars}")
    return {e: c}


def variable(nvars: int, i: int) -> Terms:
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): Fraction(1)}


def total_degree_terms(p: Terms):
    """Set of total degrees present in p."""
    return {sum(e) for e in p}


def is_homogeneous(p: Terms) -> bool:
    return len(total_degree_terms(p)) <= 1


def degree(p: Terms):
    """Total degree of a homogeneous nonzero p."""
    ds = total_degree_terms(p)
    if len(ds) != 1:
        raise ValueError("not homogeneous")
    return ds.pop()


def in_cone(e: ExpVec, inverted: frozenset) -> bool:
    """Exponent vector lies in the cone where only inverted slots may be negative."""
    return all(v >= 0 or i in inverted for i, v in enumerate(e))


def canonical(p: Terms) -> tuple:
    """Hashable canonical form: sorted tuple of (exponents, coefficient)."""
    return tuple(sorted(p.items()))


def from_canonical(items) -> Terms:
    """The terms of a payload: a canonical tuple, or a dict read as its
    items; zero coefficients are dropped."""
    if isinstance(items, dict):
        items = items.items()
    return {tuple(e): Fraction(c) for e, c in items if Fraction(c) != 0}


def to_string(p: Terms) -> str:
    if not p:
        return "0"
    parts = []
    for e, c in sorted(p.items()):
        vs = [f"x{i + 1}^{v}" if v != 1 else f"x{i + 1}" for i, v in enumerate(e) if v]
        body = "*".join(vs)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts)
