"""The structure sheaf on the localization semilattice, the sober ringed
space of a ring, induced morphisms, and the pushout-characterized maps.

A basic open is a principal upper set of the semilattice and carries the
localization at the cell's subset; restriction maps are the connecting
maps under the ring.  Sections over a non-basic open are the limit of the
basic sections inside it, read off in closed form: the product of the
local factors (the blocks, for a semisimple algebra) in the union of the
supports of its charts.
"""


from . import rings as rg
from .errors import (
    NotACover,
    NotComparable,
    NotIrreducibleCertificate,
    NotOpen,
    PresheafLawViolation,
    UnsupportedClass,
)
from .latspace import (
    AlexandrovSpace,
    LocalizationLattice,
    PidLattice,
    build_semilattice,
    is_completely_union_irreducible,
    sober_map_from_join_hom,
    soberify,
)
from .localization import (
    LocalizationSquare,
    _all_cyclic,
    canonical_modular_product,
    connecting_map,
    descend_by_local_maps,
    induced_map,
    is_pushout,
    localize,
)
from .records import field, record
from .rings import (
    RingHom,
    SemisimpleAlgebra,
    ZeroRing,
    hom_compose,
    hom_validate,
    to_zero_hom,
)


@record
class SheafOnBase:
    """Ring-valued sheaf data on the principal upper sets of a lattice."""

    lattice: LocalizationLattice
    assignment: tuple                 # cell index -> descriptor
    _res_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def restriction(self, i: int, j: int) -> RingHom:
        """res from the basic open at cell i into the smaller one at cell j >= i."""
        if not self.lattice.leq(i, j):
            raise NotComparable("restriction goes to a smaller basic open")
        key = (i, j)
        if key not in self._res_cache:
            self._res_cache[key] = connecting_map(
                self.lattice.ring,
                self.lattice.cells[i].representative,
                self.lattice.cells[j].representative,
            )
        return self._res_cache[key]

    def check_presheaf_laws(self):
        """res(i, j) . ins_i = ins_j for every cell i and every j >= i.

        The insertion ins_i: R -> R_i of a cell is a universal
        localization, hence a ring epimorphism (Cohn), so a map out of R_i
        is fixed by what it does after ins_i.  At j = i the condition says
        res(i, i) = id.  For i <= j <= k both res(j, k) . res(i, j) and
        res(i, k) give ins_k after ins_i, so they are equal.  One check
        per comparable pair thus implies both presheaf laws.
        """
        lat = self.lattice
        for i, cell in enumerate(lat.cells):
            ins_i = cell.localized.insertion
            for j in lat.space.up[i]:
                ins_j = lat.cells[j].localized.insertion
                if hom_compose(self.restriction(i, j), ins_i) != ins_j:
                    raise PresheafLawViolation(
                        f"restriction {i} -> {j} does not commute with the insertions")


@record
class NCSpecSpace:
    """The sober ringed space of a ring with its sheaf on the basic opens.

    `space` is the Alexandrov space of the lattice, which is its own
    soberification (see `latspace.AlexandrovSpace`)."""

    ring: object
    lattice: LocalizationLattice
    space: AlexandrovSpace
    sheaf: SheafOnBase

    @property
    def generic(self) -> int:
        g = self.space.generic()
        if g is None:
            raise NotIrreducibleCertificate("the space has no generic point")
        return g

    def basic_open(self, cell: int) -> frozenset:
        return self.space.up[cell]

    def all_opens(self):
        return self.space.all_open_sets()

    def point_count(self) -> int:
        return self.space.n


_ncspec_cache: dict = {}


def ncspec(r) -> "NCSpecSpace | PidNCSpec":
    if r in _ncspec_cache:
        return _ncspec_cache[r]
    lat = build_semilattice(r)
    if isinstance(lat, PidLattice):
        sp = PidNCSpec(r, lat)
        _ncspec_cache[r] = sp
        return sp
    X = soberify(lat.space)
    assignment = tuple(c.localized.result for c in lat.cells)
    sheaf = SheafOnBase(lat, assignment)
    sheaf.check_presheaf_laws()
    sp = NCSpecSpace(r, lat, X, sheaf)
    if assignment[lat.bottom] != r:
        raise PresheafLawViolation("global sections must be the ring itself")
    _ncspec_cache[r] = sp
    return sp


@record
class PidNCSpec:
    """Q[x]: the lazy lattice plus the symbolic point model of the sober space."""

    ring: object
    lattice: PidLattice

    def basic_sections(self, f) -> object:
        return localize(self.ring, (f,)).result


def sections(sp: NCSpecSpace, U):
    """Section ring over any open set of the space.

    A principal open is basic and returns its assigned localization.  On a
    non-basic open the section ring is the limit of the basic sections
    inside U.  Over a finite commutative ring R = prod R_l the basic open
    at the cell of an idempotent e carries eR, the product of the local
    factors R_l in the support of e, and two charts of U agree exactly on
    the factors in the overlap of their supports.  So the limit is the
    product of the local factors in the union of the supports: the cells
    of U just below the top.  For a semisimple algebra that is the block
    union; for a product of cyclic rings each local factor is Z/p^k.
    """
    U = frozenset(U)
    if not sp.space.is_open(U):
        raise NotOpen(f"{sorted(U)} is not open")
    if not U:
        return ZeroRing()
    mins = sp.space.minimal_elements(U)
    if len(mins) == 1:
        return sp.sheaf.assignment[mins[0]]
    if isinstance(sp.ring, SemisimpleAlgebra):
        union = frozenset()
        for c in U:
            union |= sp.lattice.cells[c].key
        return sp.lattice.cells[sp.lattice._key_index[union]].localized.result
    if rg.cyclic_moduli(sp.ring) is not None:
        top, up = sp.lattice.top, sp.space.up
        return canonical_modular_product(sorted(
            (rg.cardinality(sp.sheaf.assignment[c])
             for c in U if c != top and up[c] == {c, top}), reverse=True))
    raise UnsupportedClass(f"sections over non-basic opens of {sp.ring!r}")


# ---------------------------------------------------------------------------
# morphisms of the sober ringed spaces

@record
class RingedSpaceMorphism:
    """point_map sends points of the source space to the target's;
    comap[j] is the ring map on the basic open at target cell j."""

    source: NCSpecSpace
    target: NCSpecSpace
    point_map: dict     # source point index -> target point index
    comap: dict         # target cell index -> RingHom

    def preimage_base_open(self, target_open) -> frozenset:
        """The preimage of an open of the target, an open of the source."""
        target_open = frozenset(target_open)
        if not self.target.space.is_open(target_open):
            raise NotOpen(f"{sorted(target_open)} is not open in the target")
        U = frozenset(x for x, y in self.point_map.items() if y in target_open)
        if not self.source.space.is_open(U):
            raise NotOpen("preimage is not open; the point map is not continuous")
        return U

    def verify(self) -> bool:
        """Continuity plus compatibility of the comaps with restrictions.

        Only the squares (bottom, j) are checked, one per target cell.
        Let j1 <= j2, b the bottom cell, and write res for the
        restrictions of both spaces.  The presheaf laws, which `ncspec`
        has certified on both sides, give res(j1, j2) . res(b, j1) =
        res(b, j2), and likewise between the preimages.  So after
        res(b, j1), the route through comap[j1] is res . comap[b] by the
        square (b, j1), and the route through comap[j2] is res . comap[b]
        by the square (b, j2).  Now res(b, j1) is the insertion of the
        cell j1, a universal localization and hence an epimorphism
        (Cohn), so the square (j1, j2) commutes.
        """
        Y, X = self.target, self.source
        pre = {}
        for j in range(Y.lattice.n):
            pre[j] = self.preimage_base_open(Y.basic_open(j))
            h = self.comap[j]
            if h.source != Y.sheaf.assignment[j] or h.target != sections(X, pre[j]):
                return False
        squares = self.restriction_squares(pre, lows=(Y.lattice.bottom,))
        return all(sq.commutes() for _pair, sq in squares)

    def restriction_squares(self, pre: dict, lows=None):
        """((j1, j2), square) for each comparable pair j1 <= j2 of the cells of
        `pre` (target cell -> its preimage), in `pre` order, with j1 drawn
        from `lows` when given: comap[j1] on top, the target's restriction
        on the left, comap[j2] at the bottom and the source's restriction
        between the two preimages on the right.  The minimal cells of each
        preimage are computed once."""
        Y, X = self.target, self.source
        mins = {j: X.space.minimal_elements(U) for j, U in pre.items()}
        for j1 in (pre if lows is None else lows):
            pre1 = pre[j1]
            for j2, pre2 in pre.items():
                if Y.lattice.leq(j1, j2):
                    yield (j1, j2), LocalizationSquare(
                        top=self.comap[j1],
                        left=Y.sheaf.restriction(j1, j2),
                        bottom=self.comap[j2],
                        right=_restriction_at_minima(X, pre1, mins[j1], pre2, mins[j2]),
                    )

    def key(self):
        return (
            self.source.ring, self.target.ring,
            tuple(sorted(self.point_map.items())),
            tuple(sorted(self.comap.items(), key=lambda jh: jh[0])),
        )

    def __eq__(self, other):
        return isinstance(other, RingedSpaceMorphism) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def _restriction_at_minima(sp: NCSpecSpace, U, minsU, V, minsV) -> RingHom:
    """Restriction map of sp's sheaf between opens V <= U (principal or
    empty), given the minimal cells of each: between principal opens the
    restriction of their minima, into the empty open the zero hom."""
    if not V <= U:
        raise NotComparable("restriction goes to a smaller open")
    if len(minsU) == 1 and len(minsV) == 1:
        return sp.sheaf.restriction(minsU[0], minsV[0])
    SU = sp.sheaf.assignment[minsU[0]] if len(minsU) == 1 else sections(sp, U)
    if not V:
        return to_zero_hom(SU, ZeroRing())
    sections(sp, V)  # a non-basic open without section ring raises here first
    raise UnsupportedClass("restriction between non-principal opens")


def ncspec_morphism(theta: RingHom) -> RingedSpaceMorphism:
    """The induced morphism NCSpec(target) -> NCSpec(source) of a ring hom."""
    hom_validate(theta)
    Y = ncspec(theta.source)
    X = ncspec(theta.target)
    if isinstance(Y, PidNCSpec) or isinstance(X, PidNCSpec):
        raise UnsupportedClass("induced morphisms need materialized lattices")

    # the join-preserving cell map under theta, and its continuous point map
    t = _cell_map(theta, Y, X)
    point_map = sober_map_from_join_hom(Y.space, X.space, t)
    comap = {j: _comap(theta, Y, X, j, t[j]) for j in range(Y.lattice.n)}
    return RingedSpaceMorphism(X, Y, point_map, comap)


def _cell_map(theta: RingHom, Y: NCSpecSpace, X: NCSpecSpace) -> dict:
    """Each cell of Y to the cell of X of the image of its subset.

    Between products of cyclic rings theta is x -> x mod q^c from source
    local factor theta.local_map[l] into target local factor l, and
    reduction keeps units, so theta(f) is a unit at l exactly when f is
    a unit at local_map[l].  The cell that keeps the blocks K thus goes
    to the cell keeping {l : local_map[l] in K}, and nothing evaluates
    theta.  Otherwise the image of the subset is located by its elements.
    """
    if not _all_cyclic((theta.source, theta.target)):
        return {i: X.lattice.cell_of_subset(tuple(theta(a) for a in cell.representative))
                for i, cell in enumerate(Y.lattice.cells)}
    source = [(j, p) for j, p, _q in theta.source.local_factors]
    target = [(j, p) for j, p, _q in theta.target.local_factors]
    index = X.lattice._key_index
    return {i: index[frozenset(b for b, s in zip(target, theta.local_map) if source[s] in cell.key)]
            for i, cell in enumerate(Y.lattice.cells)}


def _comap(theta: RingHom, Y: NCSpecSpace, X: NCSpecSpace, j: int, tj: int) -> RingHom:
    """The induced map from the sections of cell j of Y into those of cell
    tj of X, which must close the square ins_tj . theta = comap . ins_j.

    Between products of cyclic rings it is read off the local maps of
    theta and the two insertions (`descend_by_local_maps`), which also
    compares both sides of the square; a square that no map closes
    raises PresheafLawViolation.
    """
    cell, image = Y.lattice.cells[j], X.lattice.cells[tj]
    if _all_cyclic((theta.source, theta.target)):
        ins = image.localized.insertion
        h = descend_by_local_maps(cell.localized.insertion,
                                  tuple(theta.local_map[s] for s in ins.local_map), ins.target)
    else:
        h = induced_map(theta, cell.representative)
        if h.target != image.localized.result:
            h = None
    if h is None:
        raise PresheafLawViolation(f"induced map at cell {j} must land in the sections of cell {tj}")
    return h


def recover_hom(m: RingedSpaceMorphism) -> RingHom:
    """The global-sections component of the comap."""
    return m.comap[m.target.lattice.bottom]


def check_functoriality(theta: RingHom, phi: RingHom) -> dict:
    """Compare the induced morphism of phi∘theta with the composite morphism."""
    composite = hom_compose(phi, theta)
    f = ncspec_morphism(theta)       # NCSpec(S) -> NCSpec(R)
    g = ncspec_morphism(phi)         # NCSpec(T) -> NCSpec(S)
    h = ncspec_morphism(composite)   # NCSpec(T) -> NCSpec(R)
    failures = []
    point_composite = {x: f.point_map[g.point_map[x]] for x in g.point_map}
    if point_composite != h.point_map:
        failures.append({"part": "point_map", "got": point_composite, "want": h.point_map})
    for j in range(f.target.lattice.n):
        pre_cell = _cell_of_preimage(f, j)
        lhs = hom_compose(g.comap[pre_cell], f.comap[j])
        if lhs != h.comap[j]:
            failures.append({"part": "comap", "basic_open": j})
    return {"status": "pass" if not failures else "fail", "failures": failures}


def _cell_of_preimage(m: RingedSpaceMorphism, j: int) -> int:
    pre = m.preimage_base_open(m.target.basic_open(j))
    mins = m.source.space.minimal_elements(pre)
    if len(mins) != 1:
        raise NotIrreducibleCertificate(
            f"the preimage of basic open {j} is not a basic open: {sorted(pre)}")
    return mins[0]


def default_prim_probes(m: RingedSpaceMorphism):
    probes = []
    for sp in (m.target, m.source):
        for d in sp.sheaf.assignment:
            if d not in probes:
                probes.append(d)
    if ZeroRing() not in probes:
        probes.append(ZeroRing())
    return tuple(probes)


def is_prim(m: RingedSpaceMorphism, probes=None) -> bool:
    """Preimages of completely union-irreducible opens stay so, and every
    nested pair of them yields a ring pushout."""
    return is_prim_report(m, probes)["prim"]


def is_prim_report(m: RingedSpaceMorphism, probes=None) -> dict:
    """Like is_prim, but a failing check names its witness."""
    if probes is None:
        probes = default_prim_probes(m)
    witness = _prim_witness(m, range(m.target.lattice.n), probes)
    return {"prim": witness is None, "witness": witness,
            "probes": [repr(p) for p in probes]}


def _prim_witness(m: RingedSpaceMorphism, cells, probes):
    Y, X = m.target, m.source
    pre = {}
    for j in cells:
        pre[j] = m.preimage_base_open(Y.basic_open(j))
        if not is_completely_union_irreducible(X.space, pre[j]):
            return {"condition": "preimage_not_union_irreducible",
                    "basic_open": j, "preimage": sorted(pre[j])}
    for pair, sq in m.restriction_squares(pre):
        if not is_pushout(sq, probes):
            return {"condition": "restriction_square_not_pushout", "pair": pair}
    return None


def prim_is_local_check(m: RingedSpaceMorphism, cover) -> bool:
    """is_prim agrees with primness of every restriction to a cover."""
    Y = m.target
    covered = frozenset().union(*[frozenset(U) for U in cover]) if cover else frozenset()
    for U in cover:
        if not Y.space.is_open(frozenset(U)):
            raise NotACover(f"{sorted(U)} is not open")
    if covered != Y.space.carrier():
        raise NotACover("the pieces do not cover the space")
    probes = default_prim_probes(m)
    whole = is_prim(m, probes)
    pieces = all(_prim_witness(m, sorted(frozenset(U)), probes) is None for U in cover)
    if whole != pieces:
        raise PresheafLawViolation(
            f"primness must be a local property: {whole} on the whole, {pieces} on the cover")
    return whole
