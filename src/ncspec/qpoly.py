"""Dense univariate polynomials over the rationals.

Coefficients are ascending tuples of Fraction with no trailing zeros, so
structural equality is arithmetic equality.  The zero polynomial is the
empty tuple.  Only a function that makes a Fraction imports `fractions`,
so importing this module does not load it.
"""

Poly = tuple  # tuple of Fraction, ascending degree


def poly(coeffs) -> Poly:
    """Build a normalized polynomial from an iterable of rational-likes."""
    import fractions
    cs = [fractions.Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


ZERO: Poly = ()


def __getattr__(name):
    # ONE holds a Fraction, so it is made on first use: an int 1 would
    # turn the divisions of `divmod_` and `monic` into float ones
    if name == "ONE":
        global ONE
        ONE = poly([1])
        return ONE
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def deg(p: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return not p


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def scale(p: Poly, c) -> Poly:
    """p times the rational c; the coefficients of p keep the product exact."""
    if c == 0:
        return ZERO
    return tuple(a * c for a in p)


def divmod_(p: Poly, q: Poly):
    if is_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    quot = [0] * max(0, len(p) - len(q) + 1)
    dq, lead = deg(q), q[-1]
    while len(r) - 1 >= dq and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dq:
            break
        k = len(r) - 1 - dq
        c = r[-1] / lead
        quot[k] = c
        for i, b in enumerate(q):
            r[i + k] -= c * b
    return poly(quot), poly(r)


def divides(p: Poly, q: Poly) -> bool:
    """p | q in Q[x].  Zero divides only zero."""
    if is_zero(p):
        return is_zero(q)
    return is_zero(divmod_(q, p)[1])


def monic(p: Poly) -> Poly:
    if is_zero(p):
        return ZERO
    return scale(p, 1 / p[-1])


def gcd(p: Poly, q: Poly) -> Poly:
    while not is_zero(q):
        p, q = q, divmod_(p, q)[1]
    return monic(p)


def derivative(p: Poly) -> Poly:
    return poly([i * c for i, c in enumerate(p)][1:])


def squarefree_part(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p; 0 for p = 0.

    Units normalize to 1.  Computed as p / gcd(p, p'), which is exact over Q.
    """
    if is_zero(p):
        return ZERO
    if deg(p) == 0:
        return poly([1])
    g = gcd(p, derivative(p))
    q, r = divmod_(p, g)
    if not is_zero(r):
        raise ArithmeticError(f"gcd(p, p') = {g} leaves the remainder {r} on p = {p}")
    return monic(q)


def evaluate(p: Poly, x):
    import fractions
    acc = fractions.Fraction(0)
    for c in reversed(p):
        acc = acc * fractions.Fraction(x) + c
    return acc


def _divisors(n: int):
    n = abs(n)
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def rational_roots(p: Poly):
    """All rational roots of a nonzero polynomial, via the rational root bound."""
    import fractions
    if is_zero(p):
        raise ZeroDivisionError("zero polynomial")
    # strip trailing x factors
    shift = 0
    while p[shift] == 0:
        shift += 1
    roots = set()
    if shift:
        roots.add(fractions.Fraction(0))
        p = p[shift:]
    if deg(p) == 0:
        return sorted(roots)
    # clear denominators to integer coefficients
    from math import lcm
    den = lcm(*[c.denominator for c in p]) if len(p) > 1 else p[0].denominator
    ints = [int(c * den) for c in p]
    a0, an = ints[0], ints[-1]
    for num in _divisors(a0):
        for d in _divisors(an):
            for s in (1, -1):
                cand = fractions.Fraction(s * num, d)
                if evaluate(p, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def is_irreducible_low_degree(p: Poly) -> bool:
    """Irreducibility over Q for degree 1..3 (a factor would be linear)."""
    d = deg(p)
    if d == 1:
        return True
    if d in (2, 3):
        return not rational_roots(p)
    raise ValueError("only degrees 1..3 are decided here")


def to_string(p: Poly) -> str:
    if is_zero(p):
        return "0"
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("x" if c == 1 else f"{c}*x")
        else:
            parts.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
    return " + ".join(parts)
