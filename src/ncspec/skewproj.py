"""Skew Laurent Proj: charts, twists, global sections, and the unit map
from a graded module to the sections of its sheaf.

Everything is computed inside the ambient Laurent ring.  The degree-d
sections of the localization of a presented module at a variable set S are
modeled by monomial columns whose S-exponents reach down to a finite depth
(the box); genuine localized elements are the image of the depth-b space
inside the depth-(b+1) space, which kills phantom border classes of the
truncated colimit.  Global sections in degree d are the solutions of the
exact linear system forcing chart elements to agree in every pairwise
overlap; a stability re-run with a deeper box guards the truncation.
"""

from fractions import Fraction
from itertools import combinations, repeat
from operator import add, sub

from . import skewpoly
from .errors import (
    ArityMismatch,
    BoundInconclusive,
    BoxTooSmall,
    CocycleViolation,
    InhomogeneousRelation,
    UnsupportedClass,
)
from .linalg import Echelon, kernel_basis
from .records import private, record
from .rings import SkewLaurentRing, UnivariatePolyRing, skew_ring


# ---------------------------------------------------------------------------
# graded presentations

@record(frozen=True)
class GradedModulePresentation:
    """Generators with degrees and homogeneous relation rows (one skew
    polynomial per generator, padded with zero).

    Each row is read once: `rows` keeps every nonzero relation as its
    degree and its ((generator, exponent), coefficient) terms, the form
    the raw spaces multiply by monomials (`_shift`)."""

    ring: SkewLaurentRing
    gen_degrees: tuple
    relations: tuple   # rows; each row is a tuple of canonical skew payloads
    rows: tuple = private()

    def __post_init__(self):
        if self.ring.inverted:
            raise UnsupportedClass("presentations live over the uninverted ring")
        rows = []
        for row in self.relations:
            if len(row) != len(self.gen_degrees):
                raise ArityMismatch(f"relation row has {len(row)} entries for "
                                    f"{len(self.gen_degrees)} generators")
            degs, terms = set(), []
            for t, payload in enumerate(row):
                poly = skewpoly.from_canonical(payload)
                if not poly:
                    continue
                if not skewpoly.is_homogeneous(poly):
                    raise InhomogeneousRelation(f"entry {t} is not homogeneous")
                degs.add(skewpoly.degree(poly) + self.gen_degrees[t])
                terms.extend(((t, e), c) for e, c in poly.items())
            if len(degs) > 1:
                raise InhomogeneousRelation(f"row mixes degrees {sorted(degs)}")
            if terms:
                rows.append((degs.pop(), tuple(terms)))
        object.__setattr__(self, "rows", tuple(rows))


def free_presentation(r: SkewLaurentRing, degrees=(0,)) -> GradedModulePresentation:
    return GradedModulePresentation(r, tuple(degrees), ())


def presentation_from_rows(r: SkewLaurentRing, gen_degrees, rows) -> GradedModulePresentation:
    canon = tuple(tuple(skewpoly.canonical(skewpoly.from_canonical(entry)) for entry in row)
                  for row in rows)
    return GradedModulePresentation(r, tuple(gen_degrees), canon)


# ---------------------------------------------------------------------------
# monomial cones and the localized graded pieces

def _cone(n, S, total, box):
    """Exponent vectors with the given sum, in lexicographic order;
    coordinates in S may reach -box.

    Stars and bars: n - 1 bars among m + n - 1 slots split the
    m = total - sum(lows) units above the lower bounds, and `combinations`
    lists the bar positions c in lexicographic order.  The partial sums
    t_k = e_0 + ... + e_k = c_k - k + lows_0 + ... + lows_k are built a
    column at a time, and e_k = t_k - t_(k-1) zips back into vectors."""
    lows = [(-box if i in S else 0) for i in range(n)]
    m = total - sum(lows)
    if m < 0:
        return []
    bars = list(combinations(range(m + n - 1), n - 1))
    size = len(bars)
    sums, low = [[0] * size], 0
    for k, col in enumerate(zip(*bars)):
        low += lows[k]
        sums.append(list(map(add, col, repeat(low - k, size))))
    sums.append([total] * size)
    return list(zip(*(map(sub, hi, lo) for lo, hi in zip(sums, sums[1:]))))


@record
class RawSpace:
    """Degree-d monomial columns over a cone plus the relation echelon."""

    columns: tuple       # (generator index, exponent vector)
    index: dict
    ech: Echelon
    cones: dict          # degree e -> the cone of total d - e


def _shift(lam, b, terms, index):
    """x^b times an element given by its ((generator, exponent),
    coefficient) terms, as a vector over the columns of `index`; None when
    a product falls outside the truncation.  The terms hold distinct
    (generator, exponent) pairs, and x^b x^e has exponent b + e, so no two
    land on one column."""
    vec = {}
    for (t, e), c in terms:
        e2, x = skewpoly.term_mul(lam, b, 1, e, c)
        col = index.get((t, e2))
        if col is None:
            return None
        vec[col] = x
    return vec


def _raw_space(pres: GradedModulePresentation, S, d: int, box: int) -> RawSpace:
    n = pres.ring.nvars
    lam = pres.ring.lam_map
    # one cone per distinct generator or relation degree e, of total d - e
    degrees = {*pres.gen_degrees, *(D for D, _ in pres.rows)}
    cones = {e: _cone(n, S, d - e, box) for e in degrees}
    columns = tuple((t, a) for t, gdeg in enumerate(pres.gen_degrees) for a in cones[gdeg])
    index = {c: i for i, c in enumerate(columns)}
    ech = Echelon(len(columns))
    for D, terms in pres.rows:
        for b in cones[D]:
            vec = _shift(lam, b, terms, index)
            if vec is not None:
                ech.add(vec)
    return RawSpace(columns, index, ech, cones)


@record
class StablePiece:
    """Image of the depth-box space inside the deeper space at box + 1."""

    raw: RawSpace        # the big space at box + 1
    span: Echelon        # the image in reduced row echelon form over raw.columns

    @property
    def basis(self):
        return self.span.rows

    @property
    def dim(self):
        return self.span.rank


def _stable_piece(pres, S, d, box, cones=None) -> StablePiece:
    """The piece at depth `box`; `cones` are its depth-box cones by degree
    when the caller has them, as the `raw.cones` of the piece at `box - 1`."""
    big = _raw_space(pres, S, d, box + 1)
    img = Echelon(len(big.columns))
    if cones is None:
        n = pres.ring.nvars
        cones = {e: _cone(n, S, d - e, box) for e in set(pres.gen_degrees)}
    for t, gdeg in enumerate(pres.gen_degrees):
        for a in cones[gdeg]:
            img.add(big.ech.reduce({big.index[(t, a)]: 1}))
    return StablePiece(big, img)


def _map_into(piece_vec, src: RawSpace, dst: RawSpace):
    return dst.ech.reduce({dst.index[src.columns[ci]]: c for ci, c in piece_vec.items()})


# ---------------------------------------------------------------------------
# the Proj cover

@record
class ProjSpace:
    ring: SkewLaurentRing
    chart_rings: tuple  # descriptor per chart (the degree-zero subring)
    overlaps: tuple     # pairs (i, j), i < j
    triples: tuple      # triples (i, j, k), i < j < k

    @property
    def n(self):
        return self.ring.nvars


def chart_ring_descriptor(r: SkewLaurentRing, i: int):
    """The degree-zero subring after inverting x_i, generated by x_k/x_i."""
    gens = []
    for k in range(r.nvars):
        if k == i:
            continue
        e = [0] * r.nvars
        e[k], e[i] = 1, -1
        gens.append(tuple(e))
    if len(gens) == 1:
        return UnivariatePolyRing()
    lam = r.lam_map
    table = {}
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            ua, ub = gens[a], gens[b]
            ab = skewpoly.mul(lam, {ua: Fraction(1)}, {ub: Fraction(1)})
            ba = skewpoly.mul(lam, {ub: Fraction(1)}, {ua: Fraction(1)})
            (e1, c1), = ab.items()
            (e2, c2), = ba.items()
            if e1 != e2:
                raise UnsupportedClass(
                    f"chart generators {ua} and {ub} of {r!r} do not quasi-commute")
            table[(a, b)] = c1 / c2
    return skew_ring(len(gens), table)


def build_proj(r: SkewLaurentRing) -> ProjSpace:
    """Charts at each variable, pairwise overlaps and triples.

    The cocycle identities of the chart identifications hold on every
    ring, so the cover carries no report on them.  A product of monomials is the monomial of the summed exponents times a
    twist (`skewpoly.term_mul`), so x_k x_i^-1 re-expresses across overlap
    (i, j) as a scalar times (x_k x_j^-1)(x_j x_i^-1), the overlap
    generator x_j x_i^-1 inverts to a scalar times x_i x_j^-1, and a chain
    i -> j -> k lands on the exponent of x_v x_i^-1.  The twist is a
    bicharacter, so the product is associative and both bracketings of a
    triple agree.  `chart_ring_descriptor` keeps its quasi-commutation
    guard against a broken `skewpoly.mul`.
    """
    if r.inverted:
        raise UnsupportedClass("the Proj cover starts from the uninverted ring")
    n = r.nvars
    charts = tuple(chart_ring_descriptor(r, i) for i in range(n))
    overlaps = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    triples = tuple(
        (i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n))
    return ProjSpace(r, charts, overlaps, triples)


# ---------------------------------------------------------------------------
# quasicoherent data and twists over the Proj cover

@record
class SkewQcohDatum:
    """Chart modules identified through the ambient localization; the
    cocycles are rational multiples of that canonical identification."""

    proj: ProjSpace
    presentation: GradedModulePresentation
    scalars: dict          # (i, j) -> Fraction, including both orders
    box: int = 2


def module_sheaf(X: ProjSpace, M: GradedModulePresentation) -> SkewQcohDatum:
    scalars = {}
    n = X.n
    for i in range(n):
        for j in range(n):
            if i != j:
                scalars[(i, j)] = Fraction(1)
    datum = SkewQcohDatum(X, M, scalars)
    _require_cocycles(datum, 0)
    return datum


def _require_cocycles(d: SkewQcohDatum, degree: int):
    rep = qcoh_cocycle_check(d, degree=degree)
    if rep["status"] != "pass":
        raise CocycleViolation(f"degree {degree}: the chart data are not a qcoh datum",
                               witness=rep["failures"])


@record
class TwistedSheaf:
    base: SkewQcohDatum
    n: int

    def chart_piece(self, i: int) -> StablePiece:
        return _stable_piece(self.base.presentation, frozenset({i}), self.n, self.base.box)


def twist(d: SkewQcohDatum, n: int) -> TwistedSheaf:
    """Chart pieces move to degree n; the cocycle scalars are unchanged
    because rational multiples commute with the degree shift."""
    _require_cocycles(d, n)
    return TwistedSheaf(d, n)


def qcoh_cocycle_check(d: SkewQcohDatum, degree: int = 0) -> dict:
    """Identity/inverse/triple laws for the scalars, plus existence of the
    canonical identification: chart pieces span the same subspace of every
    pairwise overlap piece."""
    failures = []
    X, M = d.proj, d.presentation
    n = X.n
    for i in range(n):
        if d.scalars.get((i, i), Fraction(1)) != 1:
            failures.append({"condition": "identity", "chart": i})
    for (i, j) in X.overlaps:
        cij = d.scalars.get((i, j))
        cji = d.scalars.get((j, i))
        if cij is None or cji is None or cij * cji != 1:
            failures.append({"condition": "inverse", "pair": (i, j)})
    for (i, j, k) in X.triples:
        cij, cjk, cik = (d.scalars.get(p) for p in ((i, j), (j, k), (i, k)))
        if None in (cij, cjk, cik) or cij * cjk != cik:
            failures.append({"condition": "triple", "triple": (i, j, k)})

    pieces = [_stable_piece(M, frozenset({i}), degree, d.box) for i in range(n)]
    for (i, j) in X.overlaps:
        ov = _stable_piece(M, frozenset({i, j}), degree, d.box)
        span_i = _base_changed_span(M, pieces[i], ov, frozenset({i, j}), d.box)
        span_j = _base_changed_span(M, pieces[j], ov, frozenset({i, j}), d.box)
        # both sides must generate the stable overlap window (the two spans
        # also carry truncation fringe beyond the window, which may differ)
        covers = all(span_i.contains(r) for r in ov.basis) and all(
            span_j.contains(r) for r in ov.basis)
        if not covers:
            failures.append({"condition": "chart_identification", "pair": (i, j)})
    return {"status": "pass" if not failures else "fail", "failures": failures}


def _base_changed_span(M, piece: StablePiece, ov: StablePiece, S, box) -> Echelon:
    """Span of the chart piece under degree-zero overlap multipliers, inside
    the overlap space (products leaving the truncation are skipped; the
    reference comparison keeps that honest)."""
    lam = M.ring.lam_map
    n = M.ring.nvars
    span = Echelon(len(ov.raw.columns))
    multipliers = _cone(n, S, 0, box)
    for v in piece.basis:
        terms = [(piece.raw.columns[ci], c) for ci, c in v.items()]
        for w in multipliers:
            out = _shift(lam, w, terms, ov.raw.index)
            if out is not None:
                span.add(ov.raw.ech.reduce(out))
    return span


# ---------------------------------------------------------------------------
# global sections

@record
class SectionSpace:
    """Solutions of the overlap-compatibility system in one degree."""

    degree: int
    box: int
    chart_pieces: tuple
    chart_dims: tuple
    offsets: tuple
    vectors: tuple        # kernel basis, sparse over the concatenated chart coordinates

    @property
    def dim(self):
        return len(self.vectors)


def _sections_once(M: GradedModulePresentation, nvars, d, box, shallow=None) -> SectionSpace:
    """The sections at depth `box`; `shallow`, the sections at `box - 1`,
    has listed the depth-box cones of the chart pieces."""
    cones = [p.raw.cones for p in shallow.chart_pieces] if shallow else [None] * nvars
    pieces = [_stable_piece(M, frozenset({i}), d, box, cones[i]) for i in range(nvars)]
    dims = [p.dim for p in pieces]
    offsets = [0]
    for k in dims:
        offsets.append(offsets[-1] + k)
    rows = []
    for i in range(nvars):
        for j in range(i + 1, nvars):
            ov = _raw_space(M, frozenset({i, j}), d, box + 1)
            # one row per overlap column: chart i's coefficient minus chart j's
            by_col = {}
            for k, sign in ((i, 1), (j, -1)):
                for a, v in enumerate(pieces[k].basis):
                    for co, x in _map_into(v, pieces[k].raw, ov).items():
                        by_col.setdefault(co, {})[offsets[k] + a] = sign * x
            rows.extend(by_col[co] for co in sorted(by_col))
    vectors = kernel_basis(rows, offsets[-1])
    return SectionSpace(d, box, tuple(pieces), tuple(dims), tuple(offsets),
                        tuple(vectors))


def gamma(X: ProjSpace, M: GradedModulePresentation, window, box: int = 2) -> dict:
    """Per-degree dimensions of the global sections over the window.

    `box` bounds the negative-exponent depth of the truncation; honest
    classes are the images of the depth-box space in the space one step
    deeper (`_stable_piece`).  Every degree is always computed again
    with the box enlarged by one, and a drift in its dimension raises
    BoxTooSmall.
    """
    lo, hi = window
    dims = {}
    spaces = {}
    for d in range(lo, hi + 1):
        s = _sections_once(M, X.n, d, box)
        spaces[d] = s
        dims[d] = s.dim
        again = _sections_once(M, X.n, d, box + 1, s)
        if again.dim != s.dim:
            raise BoxTooSmall(f"degree {d}: dimension moved {s.dim} -> {again.dim}")
    return {"window": (lo, hi), "box": box, "dims": dims, "spaces": spaces}


# ---------------------------------------------------------------------------
# the unit map from the module to its sections

def _ambient_space(M: GradedModulePresentation, d: int) -> RawSpace:
    """The exact degree-d piece of the module itself (no truncation involved)."""
    return _raw_space(M, frozenset(), d, 0)


def _ambient_basis(space: RawSpace):
    return [i for i in range(len(space.columns)) if i not in space.ech.pivots]


def _gamma_image(amb: RawSpace, col: int, sec: SectionSpace) -> dict:
    """Coordinates of the section induced by an ambient basis column."""
    image = {}
    for i, (piece, off) in enumerate(zip(sec.chart_pieces, sec.offsets)):
        red = piece.raw.ech.reduce({piece.raw.index[amb.columns[col]]: 1})
        coords = piece.span.coordinates(red)
        if coords is None:
            raise BoxTooSmall(f"degree {sec.degree}: module column {amb.columns[col]} "
                              f"is not a stable section on chart {i}")
        image.update((off + a, x) for a, x in coords.items())
    return image


def serre_unit(X: ProjSpace, M: GradedModulePresentation, window,
               box: int = 2, torsion_bound: int = 3) -> dict:
    """Degree-wise kernel/cokernel data of the map module -> sections.

    Kernel elements are certified annihilated by high powers of every
    variable; cokernel representatives are pushed up by variable powers
    until they land in the image (within the window), else reported
    inconclusive.
    """
    lo, hi = window
    g = gamma(X, M, window, box)
    out = {"window": (lo, hi), "box": box, "torsion_bound": torsion_bound, "degrees": {}}
    # the image of every degree first: the cokernel probes of a degree
    # test membership in the images of the degrees above it
    parts = {}
    for d in range(lo, hi + 1):
        amb = _ambient_space(M, d)
        basis_cols = _ambient_basis(amb)
        images = [_gamma_image(amb, c, g["spaces"][d]) for c in basis_cols]
        img_ech = Echelon(sum(g["spaces"][d].chart_dims))
        for v in images:
            img_ech.add(v)
        parts[d] = (amb, basis_cols, images, img_ech)
    img_echs = {d: part[3] for d, part in parts.items()}
    for d in range(lo, hi + 1):
        amb, basis_cols, images, img_ech = parts[d]
        sec = g["spaces"][d]
        injective = img_ech.rank == len(basis_cols)
        surjective = img_ech.rank == sec.dim

        kernel_elts = []
        if not injective:
            coeff_rows = {}
            for m, v in enumerate(images):
                for c, x in v.items():
                    coeff_rows.setdefault(c, {})[m] = x
            for cv in kernel_basis(list(coeff_rows.values()), len(basis_cols)):
                kernel_elts.append([(amb.columns[basis_cols[m]], c) for m, c in cv.items()])

        kernel_torsion = all(_torsion(M, terms, d, torsion_bound, box) for terms in kernel_elts)

        cokernel_dim = sec.dim - img_ech.rank
        cok_torsion = None
        if cokernel_dim:
            cok_torsion = _cokernel_torsion(M, g, d, hi, img_echs)

        out["degrees"][d] = {
            "module_dim": len(basis_cols),
            "sections_dim": sec.dim,
            "injective": injective,
            "surjective": surjective,
            "kernel_dim": len(basis_cols) - img_ech.rank if not injective else 0,
            "kernel_torsion": kernel_torsion,
            "cokernel_dim": cokernel_dim,
            "cokernel_torsion": cok_torsion,
        }
    return out


def _element_terms(M: GradedModulePresentation, elt) -> list:
    """An element's ((generator, exponent), coefficient) terms, each checked
    to lie in the degree-d piece of the free module on the generators."""
    d, comps = elt["degree"], elt["components"]
    n, degs = M.ring.nvars, M.gen_degrees
    if len(comps) != len(degs):
        raise ArityMismatch(f"element has {len(comps)} components for {len(degs)} generators")
    terms = []
    for t, payload in enumerate(comps):
        for e, c in skewpoly.from_canonical(payload).items():
            if len(e) != n:
                raise ArityMismatch(f"exponent {e} of component {t} has {len(e)} entries, not {n}")
            if min(e) < 0 or sum(e) + degs[t] != d:
                raise InhomogeneousRelation(
                    f"term {e} of component {t} is not a monomial of degree {d - degs[t]}")
            terms.append(((t, e), c))
    return terms


def is_torsion(M: GradedModulePresentation, elt, bound: int, box: int = 2) -> bool:
    """True when x_i^bound kills the element for every i.

    If some power survives, the element's class in the localization at that
    variable decides: an image that is nonzero at depth `box` and again at
    `box + 1` (the stability rule of `gamma`) certifies non-torsion; any
    other outcome with surviving powers means the bound or the box was too
    small.  An element outside the module's degree-d piece raises
    ArityMismatch (component or exponent count) or InhomogeneousRelation.
    """
    return _torsion(M, _element_terms(M, elt), elt["degree"], bound, box)


def _torsion(M: GradedModulePresentation, terms, d: int, bound: int, box: int) -> bool:
    """`is_torsion` on the checked terms of a degree-d element."""
    lam = M.ring.lam_map
    n = M.ring.nvars
    amb = _ambient_space(M, d + bound)
    survivors = [i for i in range(n) if amb.ech.reduce(
        _shift(lam, tuple(bound if v == i else 0 for v in range(n)), terms, amb.index))]
    if not survivors:
        return True

    def alive(p):
        return p.raw.ech.reduce({p.raw.index[k]: c for k, c in terms})

    for i in survivors:
        S = frozenset({i})
        shallow = _stable_piece(M, S, d, box)
        if alive(shallow) and alive(_stable_piece(M, S, d, box + 1, shallow.raw.cones)):
            return False
    raise BoundInconclusive(
        f"powers up to {bound} neither kill the element nor show it alive")


def _cokernel_torsion(M, g, d, hi, img_echs):
    """Push cokernel representatives up by variable powers into the image."""
    sec = g["spaces"][d]
    reps = []
    probe = Echelon(sum(sec.chart_dims))
    for row in img_echs[d].rows:
        probe.add(row)
    for v in sec.vectors:
        if probe.add(v):
            reps.append(v)
    for rep_vec in reps:
        certified = False
        for target_deg in range(d + 1, hi + 1):
            sec_t = g["spaces"][target_deg]
            ok = True
            for i in range(M.ring.nvars):
                moved = _multiply_section(M, sec, rep_vec, i, target_deg - d, sec_t)
                if moved is None or not img_echs[target_deg].contains(moved):
                    ok = False
                    break
            if ok:
                certified = True
                break
        if not certified:
            return None
    return True


def _multiply_section(M, sec: SectionSpace, vec, i, k, sec_target):
    """x_i^k times a section, re-expressed in the target degree's coordinates."""
    lam = M.ring.lam_map
    n = M.ring.nvars
    power = tuple(k if v == i else 0 for v in range(n))
    coords = {}
    for piece, piece_t, off, off_t in zip(sec.chart_pieces, sec_target.chart_pieces,
                                          sec.offsets, sec_target.offsets):
        chart_vec = {}
        for a, bv in enumerate(piece.basis):
            c = vec.get(off + a)
            if c:
                for ci, x in bv.items():
                    chart_vec[ci] = chart_vec.get(ci, 0) + c * x
        lifted = _shift(lam, power, [(piece.raw.columns[ci], c)
                                     for ci, c in chart_vec.items() if c], piece_t.raw.index)
        if lifted is None:
            return None
        sol = piece_t.span.coordinates(piece_t.raw.ech.reduce(lifted))
        if sol is None:
            return None
        coords.update((off_t + a, x) for a, x in sol.items())
    return coords
