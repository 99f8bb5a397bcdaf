"""The structure sheaf on the localization semilattice, the sober ringed
space of a ring, induced morphisms, and the pushout-characterized maps.

A basic open is a principal upper set of the semilattice and carries the
localization at the cell's subset; restrictions and comaps come from one
descent (`localization.induced_between`) and are checked by their block
maps.  Sections over a non-basic open are the limit of the basic sections
inside it: the product of the blocks in the union of the keys of its cells.
"""


from functools import lru_cache
from types import MappingProxyType

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
    build_semilattice,
    is_completely_union_irreducible,
    sober_map_from_join_hom,
    soberify,
)
from .localization import (
    LocalizationSquare,
    _localize_cached,
    _localize_cell,
    induced_between,
    is_pushout,
    localize,
)
from .records import private, record
from .rings import (
    CACHE_BOUND,
    RingHom,
    ZeroRing,
    _quotient_hom,
    canonical_modular_product,
    hom_compose,
    hom_validate,
    to_zero_hom,
)


@record
class SheafOnBase:
    """Ring-valued sheaf data on the principal upper sets of a lattice."""

    lattice: LocalizationLattice
    assignment: tuple                 # cell index -> descriptor
    _res_cache: dict = private(dict)

    def restriction(self, i: int, j: int) -> RingHom:
        """res from the basic open at cell i into the smaller one at cell j >= i."""
        if not self.lattice.leq(i, j):
            raise NotComparable("restriction goes to a smaller basic open")
        if (i, j) not in self._res_cache:
            cells = self.lattice.cells
            # the bottom cell inverts units only: its insertion is the identity
            identity = cells[self.lattice.bottom].localized.insertion
            res = induced_between(identity, cells[i].localized, cells[j].localized)
            if res is None:
                raise PresheafLawViolation(f"no restriction from cell {i} to cell {j}")
            self._res_cache[i, j] = res
        return self._res_cache[i, j]

    def check_presheaf_laws(self):
        """res(i, j) . ins_i = ins_j for every cell i and every j >= i.

        The insertion ins_i: R -> R_i of a cell is a universal
        localization, hence a ring epimorphism (Cohn), so a map out of R_i
        is fixed by what it does after ins_i.  At j = i the condition says
        res(i, i) = id.  For i <= j <= k both res(j, k) . res(i, j) and
        res(i, k) give ins_k after ins_i, so they are equal.  One check
        per comparable pair thus implies both presheaf laws.
        Each hom here has a block map, which fixes it, so each check is a
        lookup; a restriction without one fails.
        """
        lat = self.lattice
        for i, cell in enumerate(lat.cells):
            ins_i = cell.localized.insertion
            for j in lat.space.up[i]:
                ins_j = lat.cells[j].localized.insertion
                res = self.restriction(i, j)
                outer, inner = res.block_map, ins_i.block_map
                if ((res.source, res.target) != (ins_i.target, ins_j.target)
                        or None in (outer, inner)
                        or tuple(inner[s] for s in outer) != ins_j.block_map):
                    raise PresheafLawViolation(
                        f"restriction {i} -> {j} does not commute with the insertions")


@record
class NCSpecSpace:
    """The sober ringed space of a ring with its sheaf on the basic opens.

    `space` is the Alexandrov space of the lattice, which is its own
    soberification (see `latspace.AlexandrovSpace`).  `_bridge` keeps the
    verdicts of the Spec bridge (`commbridge`), which depend on the ring
    only, so they live exactly as long as the space."""

    ring: object
    lattice: LocalizationLattice
    space: AlexandrovSpace
    sheaf: SheafOnBase
    _bridge: dict = private(dict)

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


# NCSpec memoized as a functor: spaces by ring, induced morphisms by their
# validated hom, each in a `functools.lru_cache` of at most CACHE_BOUND
# (`rings.CACHE_BOUND`, 32) entries.  The largest morphism the tests
# build, Z/30030 -> Z/2310, holds 0.17 MB after `verify` and
# `is_prim_report` (its 64 squares and its verdicts; tracemalloc, Python
# 3.11), and NCSpec(Z/30030) holds 1.1 MB.
# So 32 morphisms of that size keep about 5 MB of their own, and 32 spaces
# of that size about 35 MB; a morphism also keeps its two spaces alive.
# The Spec-bridge verdicts a space keeps (`NCSpecSpace._bridge`) add
# 0.13 MB on Z/30030 after all three checks, so about 4 MB over 32 spaces.
# A warm session over Z/12 and Z/30 touches 10 morphisms, 9 spaces and
# the 10 quotient homs of those morphisms (`rings.quotient_hom`, a memo of
# the same bound; a quotient hom with its two descriptors and their cached
# blocks holds 3-8 KB, for Z/12 -> Z/4 up to Z/30030 -> Z/2310).


@lru_cache(maxsize=CACHE_BOUND)
def ncspec(r) -> "NCSpecSpace | PidNCSpec":
    lat = build_semilattice(r)
    if not isinstance(lat, LocalizationLattice):
        return PidNCSpec(r, lat)
    X = soberify(lat.space)
    assignment = tuple(c.localized.result for c in lat.cells)
    sheaf = SheafOnBase(lat, assignment)
    sheaf.check_presheaf_laws()
    sp = NCSpecSpace(r, lat, X, sheaf)
    if assignment[lat.bottom] != r:
        raise PresheafLawViolation("global sections must be the ring itself")
    return sp


@record
class PidNCSpec:
    """Q[x]: the lazy lattice plus the symbolic point model of the sober space."""

    ring: object
    lattice: object               # a `qpoly.PidLattice`

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
    product of the blocks in the union of the keys of the cells of U: the
    ring's `keep` of that union for a matrix ring or a semisimple algebra,
    and those local factors Z/p^k, largest first, for cyclic rings.
    """
    U = frozenset(U)
    if not sp.space.is_open(U):
        raise NotOpen(f"{sorted(U)} is not open")
    if not U:
        return ZeroRing()
    mins = sp.space.minimal_elements(U)
    if len(mins) == 1:
        return sp.sheaf.assignment[mins[0]]
    cells = sp.lattice.cells
    union = frozenset().union(*(cells[c].key for c in U))
    if sp.ring.local_factors is None:
        return sp.ring.keep(union)
    blocks = sp.ring.blocks
    return canonical_modular_product(sorted((blocks[s] for s in union), reverse=True))


# ---------------------------------------------------------------------------
# morphisms of the sober ringed spaces

@record(frozen=True)
class RingedSpaceMorphism:
    """point_map sends points of the source space to the target's;
    comap[j] is the ring map on the basic open at target cell j.

    The record is frozen and keeps read-only copies of both maps, so what
    the walks of `verify` and the prim check cache on it cannot go stale:
    the preimage of each target cell with its minimal cells, the
    restriction square of each pair, which keeps its commutation verdict,
    and the results of `verify` and of the prim check.  Only returned
    values are kept, so a check that raises raises again when asked
    again.
    """

    source: NCSpecSpace
    target: NCSpecSpace
    point_map: MappingProxyType     # source point index -> target point index
    comap: MappingProxyType         # target cell index -> RingHom

    def __post_init__(self):
        put = object.__setattr__
        put(self, "point_map", MappingProxyType(dict(self.point_map)))
        put(self, "comap", MappingProxyType(dict(self.comap)))
        put(self, "_preimages", {})     # target cell -> (preimage, its minimal cells)
        put(self, "_squares", {})       # (j1, j2) -> restriction square
        put(self, "_verdicts", {})      # "verify", "prim" -> result

    def preimage_base_open(self, target_open) -> frozenset:
        """The preimage of an open of the target, an open of the source."""
        target_open = frozenset(target_open)
        if not self.target.space.is_open(target_open):
            raise NotOpen(f"{sorted(target_open)} is not open in the target")
        U = frozenset(x for x, y in self.point_map.items() if y in target_open)
        if not self.source.space.is_open(U):
            raise NotOpen("preimage is not open; the point map is not continuous")
        return U

    def preimage_of_cell(self, j: int):
        """(preimage of the basic open at target cell j, its minimal cells),
        computed once per cell."""
        got = self._preimages.get(j)
        if got is None:
            U = self.preimage_base_open(self.target.basic_open(j))
            got = self._preimages[j] = (U, self.source.space.minimal_elements(U))
        return got

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

        The walk runs once per morphism; later calls return its result.
        """
        verdict = self._verdicts.get("verify")
        if verdict is None:
            verdict = self._verdicts["verify"] = self._verify()
        return verdict

    def _verify(self) -> bool:
        Y, X = self.target, self.source
        cells = range(Y.lattice.n)
        for j in cells:
            U, mins = self.preimage_of_cell(j)
            h = self.comap[j]
            if h.source != Y.sheaf.assignment[j] or h.target != _sections_at_minima(X, U, mins):
                return False
        squares = self.restriction_squares(cells, (Y.lattice.bottom,))
        return all(sq.commutes() for _pair, sq in squares)

    def restriction_squares(self, cells, lows=None):
        """((j1, j2), square) for each comparable pair j1 <= j2 of the target
        cells `cells`, in their order, with j1 drawn from `lows` when given:
        comap[j1] on top, the target's restriction on the left, comap[j2]
        at the bottom and the source's restriction between the two
        preimages on the right.  Each square is built once per morphism."""
        cells = tuple(cells)
        leq = self.target.lattice.leq
        for j1 in (cells if lows is None else lows):
            for j2 in cells:
                if leq(j1, j2):
                    yield (j1, j2), self._square(j1, j2)

    def _square(self, j1: int, j2: int) -> LocalizationSquare:
        sq = self._squares.get((j1, j2))
        if sq is None:
            Y, X = self.target, self.source
            pre1, mins1 = self.preimage_of_cell(j1)
            pre2, mins2 = self.preimage_of_cell(j2)
            sq = self._squares[j1, j2] = LocalizationSquare(
                top=self.comap[j1],
                left=Y.sheaf.restriction(j1, j2),
                bottom=self.comap[j2],
                right=_restriction_at_minima(X, pre1, mins1, pre2, mins2),
            )
        return sq

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


def _sections_at_minima(sp: NCSpecSpace, U, mins):
    """sections(sp, U) of an open U with minimal cells mins."""
    return sp.sheaf.assignment[mins[0]] if len(mins) == 1 else sections(sp, U)


def _restriction_at_minima(sp: NCSpecSpace, U, minsU, V, minsV) -> RingHom:
    """Restriction map of sp's sheaf between opens V <= U (principal or
    empty), given the minimal cells of each: between principal opens the
    restriction of their minima, into the empty open the zero hom."""
    if not V <= U:
        raise NotComparable("restriction goes to a smaller open")
    if len(minsU) == 1 and len(minsV) == 1:
        return sp.sheaf.restriction(minsU[0], minsV[0])
    SU = _sections_at_minima(sp, U, minsU)
    if not V:
        return to_zero_hom(SU, ZeroRing())
    sections(sp, V)  # a non-basic open without section ring raises here first
    raise UnsupportedClass("restriction between non-principal opens")


def ncspec_morphism(theta: RingHom) -> RingedSpaceMorphism:
    """The induced morphism NCSpec(target) -> NCSpec(source) of a ring hom.

    theta is validated on every call, before any lookup.  The morphism is
    then memoized on theta, at most `CACHE_BOUND` (32) of them: validated
    homs are equal exactly when they have the same source, target and
    images of the generators, so equal homs share one immutable morphism
    together with the verdicts it keeps.  The largest morphism the tests
    build, Z/30030 -> Z/2310, holds 0.17 MB with its squares and verdicts.
    """
    hom_validate(theta)
    return _induced_morphism(theta)


@lru_cache(maxsize=CACHE_BOUND)
def _induced_morphism(theta: RingHom) -> RingedSpaceMorphism:
    Y = ncspec(theta.source)
    X = ncspec(theta.target)
    if isinstance(Y, PidNCSpec) or isinstance(X, PidNCSpec):
        raise UnsupportedClass("induced morphisms need materialized lattices")

    # the join-preserving cell map under theta, and its continuous point map
    t = _cell_map(theta, Y, X)
    point_map = sober_map_from_join_hom(Y.space, X.space, t)
    comap = {j: _comap(theta, Y, X, j, t[j]) for j in range(Y.lattice.n)}
    return RingedSpaceMorphism(X, Y, point_map, comap)


# private handles: tracing tools rebind the public names to wrappers
_CACHED = (ncspec, _induced_morphism, _localize_cached, _localize_cell, _quotient_hom)


def clear_caches():
    """Empty the memos of spaces, induced morphisms and quotient homs
    (`rings.quotient_hom`) and the caches of localizations, by subset and
    by cell of a block ring."""
    for cached in _CACHED:
        cached.cache_clear()


def _cell_map(theta: RingHom, Y: NCSpecSpace, X: NCSpecSpace) -> dict:
    """Each cell of Y to the cell of X of the image of its subset.

    A hom with a block map sends source block bmap[l] canonically onto
    target block l (x -> x mod q^c, or the identity of a matrix block),
    which keeps units, so theta(f) is a unit at l exactly when f is a unit
    at bmap[l].  The cell that keeps the blocks K thus goes to the cell
    keeping {l : bmap[l] in K}, and nothing evaluates theta.  Otherwise
    the image of the subset is located by its elements.
    """
    bmap = theta.block_map
    if bmap is None:
        return {i: X.lattice.cell_of_subset(tuple(theta(a) for a in cell.representative))
                for i, cell in enumerate(Y.lattice.cells)}
    index = X.lattice._key_index
    return {i: index[frozenset(l for l, s in enumerate(bmap) if s in cell.key)]
            for i, cell in enumerate(Y.lattice.cells)}


def _comap(theta: RingHom, Y: NCSpecSpace, X: NCSpecSpace, j: int, tj: int) -> RingHom:
    """The map from the sections of cell j of Y into those of cell tj of X
    closing ins_tj . theta = comap . ins_j (`induced_between`), or
    PresheafLawViolation when none does."""
    h = induced_between(theta, Y.lattice.cells[j].localized, X.lattice.cells[tj].localized)
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
    pre, mins = m.preimage_of_cell(j)
    if len(mins) != 1:
        raise NotIrreducibleCertificate(
            f"the preimage of basic open {j} is not a basic open: {sorted(pre)}")
    return mins[0]


def is_prim(m: RingedSpaceMorphism) -> bool:
    """Preimages of completely union-irreducible opens stay so, and every
    nested pair of them yields a ring pushout."""
    return is_prim_report(m)["prim"]


def is_prim_report(m: RingedSpaceMorphism) -> dict:
    """Like is_prim, but a failing check names its witness.

    The witness is found once per morphism, so a repeated call is a
    lookup; every call returns a fresh report."""
    if "prim" not in m._verdicts:
        m._verdicts["prim"] = _prim_witness(m, range(m.target.lattice.n))
    witness = m._verdicts["prim"]
    if witness is not None:     # a copy the caller may change
        witness = {k: list(v) if isinstance(v, list) else v for k, v in witness.items()}
    return {"prim": witness is None, "witness": witness}


def _prim_witness(m: RingedSpaceMorphism, cells):
    """The first failing prim condition on the target cells `cells`, or None.

    Every preimage must be completely union-irreducible, and then the
    restriction square of every comparable pair j1 <= j2 of cells must
    push out (`is_pushout`).  The full walk checks every pair in cell
    order, so a failure names the first failing pair.

    The pasting law for pushouts (Mac Lane, III.4) shortens the walk.
    Let l <= j1 <= j2 be cells, and let the square (l, j1) push out.
    Pasting (l, j1) on top of (j1, j2) gives the square (l, j2), by the
    presheaf laws on both sides, so (j1, j2) pushes out exactly when
    (l, j2) does.  Every cell lies above a minimal cell of `cells` (the
    lows), so all squares push out when the squares (l, j) with l a low
    do: 2^k squares instead of 3^k at k local factors over the whole
    space, whose one low is the bottom, and there they are the squares
    `verify` checks.  The law holds for the walk only where every square
    is decided, which `_pasting_decides` checks: every comap of the walk
    is validated and has the ends of its cell.  The left leg of every
    square is then a restriction, a block projection and so onto, and
    the kernel rule of `is_pushout` decides each square exactly and
    raises on none.  When a shortened walk fails, or the scope does not
    hold, the full walk runs, so a witness is always the full walk's.
    """
    Y, X = m.target, m.source
    cells = tuple(cells)
    for j in cells:
        U, _mins = m.preimage_of_cell(j)
        if not is_completely_union_irreducible(X.space, U):
            return {"condition": "preimage_not_union_irreducible",
                    "basic_open": j, "preimage": sorted(U)}
    if _pasting_decides(m, cells):
        lows = Y.space.minimal_elements(cells)
        if all(is_pushout(sq) for _pair, sq in m.restriction_squares(cells, lows)):
            return None
    for pair, sq in m.restriction_squares(cells):
        if not is_pushout(sq):
            return {"condition": "restriction_square_not_pushout", "pair": pair}
    return None


def _pasting_decides(m: RingedSpaceMorphism, cells) -> bool:
    """Whether every square of the walk over `cells` is decided, so that
    the pasting law applies (see `_prim_witness`); every preimage is
    principal."""
    Y, X = m.target, m.source
    for j in cells:
        h, (_U, mins) = m.comap[j], m.preimage_of_cell(j)
        if not (h.validated and h.source == Y.sheaf.assignment[j]
                and h.target == X.sheaf.assignment[mins[0]]):
            return False
    return True


def prim_is_local_check(m: RingedSpaceMorphism, cover) -> bool:
    """is_prim agrees with primness of every restriction to a cover."""
    Y = m.target
    covered = frozenset().union(*[frozenset(U) for U in cover]) if cover else frozenset()
    for U in cover:
        if not Y.space.is_open(frozenset(U)):
            raise NotACover(f"{sorted(U)} is not open")
    if covered != Y.space.carrier():
        raise NotACover("the pieces do not cover the space")
    whole = is_prim(m)
    pieces = all(_prim_witness(m, sorted(frozenset(U))) is None for U in cover)
    if whole != pieces:
        raise PresheafLawViolation(
            f"primness must be a local property: {whole} on the whole, {pieces} on the cover")
    return whole
