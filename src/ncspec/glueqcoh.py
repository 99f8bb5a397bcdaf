"""Ore certification, gluing of the sober ringed spaces, and quasicoherent
module data at desk scale.

Finite modules over Z/n are sums of cyclic groups Z/d_i with the integer
action.  Base change along a ring map into a product of cyclic rings is
read block by block: by CRT the target is the product of its blocks Z/q_l,
and M (x) Z/q_l = sum_i Z/gcd(d_i, q_l), since a ring map out of Z/n is
reduction, so the bilinearity relations span q_l M.  A tensor element is
one residue vector per block, and a restriction reduces the vector of the
block that feeds each target block.  The ring isos of a
glue are checked as homs, extended to the double overlaps by
`localization.induced_between` for the triple condition; module cocycle
data are lookup tables checked against the identity, inverse, triple,
and semilinearity conditions.
"""

from itertools import combinations, product as iproduct
from math import gcd, lcm, prod

from . import rings as rg
from .errors import (
    ArityMismatch,
    ClosureBoundExceeded,
    CocycleViolation,
    CompositionMismatch,
    ElementOwnershipMismatch,
    NotAHomomorphism,
    NotAModule,
    NotAPartialOrder,
    OreConditionFails,
    PresheafLawViolation,
    UnsupportedClass,
)
from .latspace import AlexandrovSpace
from .localization import (
    Localization,
    _hom_is_identity,
    _hom_is_iso,
    connecting_map,
    induced_between,
    localize,
)
from .records import record
from .rings import ModularRing, RingElement, RingHom, hom_compose, hom_validate
from .sheafspec import NCSpecSpace, ncspec, ncspec_morphism


# ---------------------------------------------------------------------------
# Ore certification

@record(frozen=True)
class OreCertificate:
    ring: object
    subset: tuple
    closure: tuple            # the multiplicative closure explored (finite case)
    bound: int
    witnesses: tuple          # ((r, s, r_prime, s_prime), ...) with r s' = s r'
    degenerate: bool          # zero crept into the closure
    structural: bool = False  # skew monomial case: witnesses come from the twist law


def _mult_closure(r, E, bound):
    """Words in E of length <= bound plus 1; raises if still growing at the bound."""
    closure = {rg.one(r)}
    layer = {rg.one(r)}
    for _ in range(bound):
        nxt = {x * e for x in layer for e in E} - closure
        if not nxt:
            return closure
        closure |= nxt
        layer = nxt
    if {x * e for x in layer for e in E} - closure:
        raise ClosureBoundExceeded(f"closure still growing at word length {bound}")
    return closure


def certify_ore(r, E, bound: int) -> OreCertificate:
    """Search right Ore witnesses: r*s' = s*r' with s' in the closure."""
    E = tuple(E)
    if not rg.is_finite(r):  # only an infinite ring can be skew
        return OreCertificate(r, E, (), bound, r.ore_witnesses(E),
                              degenerate=False, structural=True)
    closure = tuple(sorted(_mult_closure(r, E, bound), key=repr))
    sample = rg.enumerate_elements(r)
    witnesses = []
    for a in sample:
        for s in closure:
            found = next(((r2, s2) for s2 in closure for r2 in sample if a * s2 == s * r2), None)
            if found is None:
                raise OreConditionFails(
                    f"no witnesses for ({a!r}, {s!r})", witness=(a, s))
            witnesses.append((a, s, *found))
    return OreCertificate(r, E, closure, bound, tuple(witnesses),
                          degenerate=rg.zero(r) in closure)


# ---------------------------------------------------------------------------
# finite modules and base change

@record(frozen=True)
class FiniteModule:
    """A finite module over Z/n: a sum of cyclic groups Z/d_i with d_i | n.

    The checks below are all the module laws need.  Every abelian group is
    a Z-module under k.(a_i) = (k a_i mod d_i); when each d_i divides n, k
    and k + n act alike, so that action factors through Z/n, and it stays
    unital, associative and distributive.
    """

    ring: ModularRing
    orders: tuple

    def __post_init__(self):
        if not isinstance(self.ring, ModularRing):
            raise UnsupportedClass(f"finite modules are built over Z/n, not {self.ring!r}")
        for d in self.orders:
            if d < 2 or self.ring.n % d:
                raise NotAModule(f"cyclic orders must be divisors >= 2 of {self.ring.n}, got {d}")

    def elements(self):
        if not self.orders:
            return [()]
        return [tuple(t) for t in iproduct(*[range(d) for d in self.orders])]

    def zero(self):
        return (0,) * len(self.orders)

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def smul(self, k: int, x):
        return tuple((k * a) % d for a, d in zip(x, self.orders))

    def act(self, r: RingElement, x):
        if r.owner != self.ring:
            raise ElementOwnershipMismatch(f"scalar of {r.owner!r} on a module over {self.ring!r}")
        return self.smul(r.payload, x)

    def size(self):
        out = 1
        for d in self.orders:
            out *= d
        return out


def _reduce(x, orders):
    return tuple(a % g for a, g in zip(x, orders))


@record(frozen=True)
class ModuleHom:
    source: FiniteModule
    target: FiniteModule
    images: tuple   # image of each cyclic generator of the source

    def __post_init__(self):
        for d, img in zip(self.source.orders, self.images):
            if self.target.smul(d, img) != self.target.zero():
                raise NotAHomomorphism(
                    "generator image must be killed by the generator's order", witness=img)

    def __call__(self, x):
        acc = self.target.zero()
        for a, img in zip(x, self.images):
            acc = self.target.add(acc, self.target.smul(a, img))
        return acc


@record(frozen=True)
class TensorModule:
    """Base change of a finite module along a hom into a product of cyclics.

    Factor l is M / q_l M = sum_i Z/gcd(d_i, q_l) for block Z/q_l of the
    target (`Descriptor.blocks`), and an element holds one residue vector
    per block.
    """

    hom: RingHom          # theta: M.ring -> product of cyclic rings (or zero)
    module: FiniteModule
    orders: tuple         # per block q_l of the target: (gcd(d_i, q_l))_i

    def zero(self):
        return tuple((0,) * len(o) for o in self.orders)

    def elements(self):
        return list(iproduct(*(iproduct(*map(range, o)) for o in self.orders)))

    def pure(self, l: RingElement, m) -> tuple:
        """The class of the pure tensor l (x) m."""
        parts = l.owner.split(l.payload)
        return tuple(_reduce((c * a for a in m), o) for c, o in zip(parts, self.orders))

    def size(self):
        return prod(prod(o) for o in self.orders)

    def unit_map_is_iso(self) -> bool:
        """Whether m -> 1 (x) m is an isomorphism from the module onto this
        base change.  The map is additive, and coordinate i of its value
        reads m_i alone, so it is injective iff 1 (x) e_i has order d_i for
        every generator e_i.  That element is 1 mod gcd(d_i, q_l) in each
        block l, so its order is the lcm of those gcds.  With both sides of
        one size the map is then onto too."""
        return self.size() == self.module.size() and all(
            lcm(*[o[i] for o in self.orders]) == d for i, d in enumerate(self.module.orders))

    def add(self, x, y):
        return tuple(_reduce(map(sum, zip(a, b)), o) for a, b, o in zip(x, y, self.orders))

    def act(self, t: RingElement, x):
        parts = t.owner.split(t.payload)
        return tuple(_reduce((c * v for v in a), o) for c, a, o in zip(parts, x, self.orders))


def tensor_module(theta: RingHom, M: FiniteModule) -> TensorModule:
    """TensorModule for theta: R -> T with T a product of cyclic rings.

    A ring hom out of Z/n sends 1 to 1, so its part in block Z/q_l is
    reduction mod q_l, and the relations r m = theta_l(r) m span q_l M.
    """
    hom_validate(theta)
    if theta.source != M.ring:
        raise CompositionMismatch(f"base change along a hom out of {theta.source!r} "
                                  f"of a module over {M.ring!r}")
    if theta.target.local_factors is None:
        raise UnsupportedClass(f"{theta.target!r} is not a product of cyclic rings")
    return TensorModule(theta, M, tuple(tuple(gcd(d, q) for d in M.orders)
                                        for q in theta.target.blocks))


def tensor_restriction(T1: TensorModule, T2: TensorModule, p: RingHom):
    """The map p (x) 1 between base changes along theta and p∘theta.

    Block l of the target is fed by block s = p.block_map[l] of the source,
    which p reduces mod q_l, so the factor at l is the residue vector at s
    reduced mod T2.orders[l].  Returns the map as a function on elements.
    """
    if (p.source, p.target) != (T1.hom.target, T2.hom.target):
        raise CompositionMismatch(f"{p!r} does not map {T1.hom.target!r} to {T2.hom.target!r}")
    feeds = p.block_map
    return lambda x: tuple(_reduce(x[s], o) for s, o in zip(feeds, T2.orders))


def tensor_induced(T1: TensorModule, T2: TensorModule, f: ModuleHom):
    """1 (x) f for a module hom between the underlying modules."""
    if len(T1.orders) != len(T2.orders):
        raise ArityMismatch(f"{len(T1.orders)} cyclic factors against {len(T2.orders)}")
    return {x: tuple(_reduce(f(a), o) for a, o in zip(x, T2.orders))
            for x in T1.elements()}


# ---------------------------------------------------------------------------
# module sheaves on an affine space

@record
class ModuleSheaf:
    """The sheaf of base-changed modules on the basic opens of an affine space."""

    space: NCSpecSpace
    module: FiniteModule
    stalks: tuple        # TensorModule per lattice cell

    def restriction_map(self, i: int, j: int):
        p = self.space.sheaf.restriction(i, j)
        return tensor_restriction(self.stalks[i], self.stalks[j], p)


def tilde_module(r, M) -> "ModuleSheaf":
    """Sections over the basic open at a cell are loc (x) M.

    Only Z/n is supported; the sections are the cell-by-cell base change
    below.

    The presheaf laws are checked through q_i: M -> T_i, m -> 1 (x) m,
    which is onto T_i = M / m_i M.  Both q_i and the restriction maps
    (reductions of the kept blocks) are additive, so
    res(i, j) . q_i = q_j on the cyclic generators of M gives it on all of
    M.  Since q_i is onto, that fixes res(i, i) = id, and for i <= j <= k
    it makes res(j, k) . res(i, j) and res(i, k) agree, as both give q_k
    after q_i.
    """
    if not isinstance(r, ModularRing):
        raise UnsupportedClass("module sheaves are built over Z/n here")
    sp = ncspec(r)
    stalks = tuple(tensor_module(cell.localized.insertion, M) for cell in sp.lattice.cells)
    sheaf = ModuleSheaf(sp, M, stalks)
    n = len(M.orders)
    gens = [tuple(int(a == b) for b in range(n)) for a in range(n)]
    q = [[T.pure(rg.one(T.hom.target), g) for g in gens] for T in stalks]
    for i in range(sp.lattice.n):
        for j in sp.space.up[i]:
            res = sheaf.restriction_map(i, j)
            if [res(x) for x in q[i]] != q[j]:
                raise PresheafLawViolation(
                    f"restriction {i} -> {j} does not commute with m -> 1 (x) m")
    return sheaf


def global_sections_module(sheaf: ModuleSheaf) -> TensorModule:
    """Sections over the whole space: the bottom cell's base change."""
    return sheaf.stalks[sheaf.space.lattice.bottom]


def qcoh_roundtrip(r, M: FiniteModule) -> dict:
    """Gamma of the sheaf of M is M, and base-changing Gamma rebuilds the sheaf.

    The second half follows from the first: the stalk at a cell is
    loc (x) M, and base change along the cell's insertion is a functor, so
    an isomorphism Gamma -> M gives loc (x) Gamma = loc (x) M, every stalk.
    So `reconstruction` is the Gamma verdict.
    """
    sheaf = tilde_module(r, M)
    bottom = global_sections_module(sheaf)
    gamma_iso = bottom.unit_map_is_iso()
    return {
        "status": "pass" if gamma_iso else "fail",
        "global_sections_size": bottom.size(),
        "module_size": M.size(),
        "gamma_isomorphism": gamma_iso,
        "reconstruction": gamma_iso,
    }


def tensor_sequence_report(theta: RingHom, f: ModuleHom, g: ModuleHom) -> dict:
    """Exactness data of M' -> M -> M'' after base change along theta.

    Reports injectivity of the first induced map, exactness in the middle,
    and surjectivity of the second.
    """
    if f.target != g.source:
        raise CompositionMismatch("the first map must land in the source of the second")
    TA = tensor_module(theta, f.source)
    TB = tensor_module(theta, f.target)
    TC = tensor_module(theta, g.target)
    tf = tensor_induced(TA, TB, f)
    tg = tensor_induced(TB, TC, g)
    image_f = {tf[x] for x in TA.elements()}
    kernel_g = {x for x in TB.elements() if tg[x] == TC.zero()}
    return {
        "left_injective": len(image_f) == TA.size(),
        "middle_exact": image_f == kernel_g,
        "right_surjective": len({tg[x] for x in TB.elements()}) == TC.size(),
        "sizes": (TA.size(), TB.size(), TC.size()),
    }


# ---------------------------------------------------------------------------
# gluing along localization isomorphisms

@record
class ChartIso:
    """The basic open at a subset against the space of the localization."""

    ambient: NCSpecSpace
    localization: Localization
    chart: NCSpecSpace
    point_map: dict        # ambient point (inside the open) -> chart point
    report: dict


def ore_chart_iso(r, E) -> ChartIso:
    """Identify the basic open at E with the whole space of loc(r, E).

    The point map sends the cell of F to the cell of the image of F;
    bijectivity and the section-ring isomorphisms are verified cell by
    cell, the latter by `_hom_is_iso` (a lookup on block maps).  A ring
    with no finite space, such as a skew Laurent ring, raises
    `UnsupportedClass` from `ncspec`.
    """
    E = tuple(E)
    L = localize(r, E)
    sp = ncspec(r)
    spL = ncspec(L.result)
    lat, latL = sp.lattice, spL.lattice
    cE = lat.cell_of_subset(E)
    inside = sorted(sp.space.up[cE])

    cell_map = {}
    for i in inside:
        image = tuple(L.insertion(a) for a in lat.cells[i].representative)
        cell_map[i] = latL.cell_of_subset(image)
    bijective = sorted(set(cell_map.values())) == list(range(latL.n)) \
        and len(set(cell_map.values())) == len(cell_map)

    # ring-level comparison on every chart cell: the induced map of the
    # insertion must be an isomorphism onto the chart's assigned sections
    alpha_hat = ncspec_morphism(L.insertion)  # chart space -> ambient space
    rings_ok = all(_hom_is_iso(alpha_hat.comap[i]) for i in inside)

    # triangle: inclusion of the open equals the induced morphism after the
    # iso; points are cells, so the point map is the cell map
    triangle_ok = all(alpha_hat.point_map[cell_map[i]] == i for i in inside)

    status = "pass" if bijective and rings_ok and triangle_ok else "fail"
    report = {"status": status, "bijective": bijective,
              "section_isos": rings_ok, "triangle": triangle_ok,
              "chart_points": latL.n, "open_points": len(inside)}
    return ChartIso(sp, L, spL, cell_map, report)


@record
class GlueDatum:
    """Pieces with overlap subsets and ring isomorphisms between the
    localizations, in the style of gluing along Ore charts."""

    pieces: tuple            # ring descriptors
    overlaps: dict           # (a, b) -> tuple of elements of ring a
    ring_isos: dict          # (a, b) -> RingHom loc(R_a, E_ab) -> loc(R_b, E_ba)


@record
class GluedSpace:
    pieces: tuple            # NCSpecSpace per index
    classes: tuple           # frozensets of (piece index, point index)
    space: AlexandrovSpace   # the glued order on the class indices
    sections: tuple          # descriptor per class (basic open at that class)
    embeddings: tuple        # per piece: dict point -> class index


def glue(d: GlueDatum) -> GluedSpace:
    """Quotient of the disjoint union by the overlap identifications."""
    k = len(d.pieces)
    spaces = [ncspec(p) for p in d.pieces]
    locs = {
        (a, b): localize(d.pieces[a], tuple(E))
        for (a, b), E in d.overlaps.items() if a != b
    }
    _check_glue_cocycles(d, locs)

    # point-level identifications through the chart isomorphisms; a chart
    # depends only on its piece and subset, so each is built once
    pairs = set()
    charts = {}
    for (a, b), E in d.overlaps.items():
        if a == b:
            continue
        iso = d.ring_isos[(a, b)]
        sides = ((a, tuple(E)), (b, tuple(d.overlaps[(b, a)])))
        for key in sides:
            if key not in charts:
                charts[key] = ore_chart_iso(d.pieces[key[0]], key[1])
        ca, cb = (charts[key] for key in sides)
        for piece, chart in ((a, ca), (b, cb)):
            if chart.report["status"] != "pass":
                failed = sorted(key for key, ok in chart.report.items() if ok is False)
                raise CocycleViolation(
                    f"overlap ({a}, {b}): the chart of piece {piece} fails {failed}",
                    witness=(a, b))
        # point maps: chart_b -> chart_a, and each chart into its piece
        into_a, into_b = (ncspec_morphism(c.localization.insertion).point_map
                          for c in (ca, cb))
        for qb, qa in ncspec_morphism(iso).point_map.items():
            pairs.add(((a, into_a[qa]), (b, into_b[qb])))

    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for a in range(k):
        for pt in range(spaces[a].space.n):
            find((a, pt))
    for x, y in pairs:
        union(x, y)

    roots = sorted({find(x) for x in parent}, key=repr)
    class_of = {x: roots.index(find(x)) for x in parent}
    classes = tuple(
        frozenset(x for x in parent if class_of[x] == c) for c in range(len(roots)))

    # specialization order generated by the piece orders: the classes
    # reachable from c along the piece orders lie above c
    n = len(classes)
    succ = [set() for _ in range(n)]
    for a in range(k):
        space = spaces[a].space
        for p in range(space.n):
            succ[class_of[(a, p)]].update(class_of[(a, q)] for q in space.up[p])
    leq_sets = []
    for c in range(n):
        seen, stack = {c}, [c]
        while stack:
            fresh = succ[stack.pop()] - seen
            seen |= fresh
            stack.extend(fresh)
        leq_sets.append(frozenset(seen))
    try:
        glued = AlexandrovSpace(tuple(leq_sets))
    except NotAPartialOrder as exc:
        raise CocycleViolation("identifications destroy antisymmetry") from exc

    # sections at a class: the basic open of any member, via its own piece;
    # members are isomorphic through the isos, each of which passed the
    # inverse condition, and the charts, each of which passed `section_isos`
    sections = []
    for c in range(n):
        a, p = sorted(classes[c], key=repr)[0]
        sections.append(spaces[a].sheaf.assignment[p])

    embeddings = tuple({p: class_of[(a, p)] for p in range(spaces[a].space.n)}
                       for a in range(k))
    for a in range(k):
        image = set(embeddings[a].values())
        if len(image) != spaces[a].space.n:
            raise CocycleViolation(f"piece {a} fails to embed")
        if not glued.is_open(image):
            raise CocycleViolation(f"piece {a} is not open in the quotient")
    return GluedSpace(tuple(spaces), classes, glued, tuple(sections), embeddings)


def _check_glue_cocycles(d: GlueDatum, locs):
    """The identity, inverse and triple conditions, compared as validated homs."""
    k = len(d.pieces)
    for a in range(k):
        E_aa = d.overlaps.get((a, a))
        if E_aa is not None and localize(d.pieces[a], tuple(E_aa)).result != d.pieces[a]:
            raise CocycleViolation(f"self overlap of piece {a} is not everything")
    for (a, b) in d.overlaps:
        if a == b:
            continue
        if (b, a) not in d.overlaps:
            raise CocycleViolation(f"missing opposite overlap for ({a}, {b})")
        for s, t in ((a, b), (b, a)):
            iso = hom_validate(d.ring_isos[(s, t)])
            if iso.source != locs[(s, t)].result or iso.target != locs[(t, s)].result:
                raise CocycleViolation(f"iso endpoints wrong for ({s}, {t})")
        # decided on every piece: a ring with a finite space is a block
        # ring, and a hom between rings over Q has a block map
        if not _hom_is_identity(hom_compose(d.ring_isos[(b, a)], d.ring_isos[(a, b)])):
            raise CocycleViolation("inverse condition fails", witness=(a, b))
    # triple condition on the pushed isomorphisms: given the inverse
    # condition, one ordering of a triple implies the other five
    for a, b, c in combinations(range(k), 3):
        if not all(p in d.overlaps for p in [(a, b), (a, c), (b, c), (b, a), (c, a), (c, b)]):
            continue
        ab_c = _extend_iso(d, locs, a, b, c)
        bc_a = _extend_iso(d, locs, b, c, a)
        ac_b = _extend_iso(d, locs, a, c, b)
        if hom_compose(bc_a, ab_c) != ac_b:
            raise CocycleViolation("triple condition fails", witness=(a, b, c))


def _extend_iso(d: GlueDatum, locs, a, b, c) -> RingHom:
    """psi_ab extended to the double overlaps by `induced_between`: from
    loc(R_a, E_ab) at the image of E_ac to loc(R_b, E_ba) at that of E_bc."""
    ends = []
    for s, t, u in ((a, b, c), (b, a, c)):
        L = locs[(s, t)]
        ends.append(localize(L.result, tuple(L.insertion(x) for x in d.overlaps[(s, u)])))
    phi = induced_between(d.ring_isos[(a, b)], *ends)
    if phi is None:
        raise CocycleViolation("extension to the double overlap is inconsistent")
    return phi


# ---------------------------------------------------------------------------
# quasicoherent data over glued pieces

@record
class QcohDatum:
    """Chart modules with cocycle tables over the overlap localizations."""

    glue: GlueDatum
    modules: tuple        # FiniteModule per piece
    cocycles: dict        # (a, b) -> dict: tensor element -> tensor element


def qcoh_cocycle_check(d: QcohDatum) -> dict:
    """Identity, inverse, triple, and semilinearity conditions; report only."""
    failures = []
    k = len(d.glue.pieces)
    tensors = {}
    for (a, b), E in d.glue.overlaps.items():
        if a == b:
            continue
        L = localize(d.glue.pieces[a], tuple(E))
        tensors[(a, b)] = tensor_module(L.insertion, d.modules[a])

    for a in range(k):
        E_aa = d.glue.overlaps.get((a, a))
        if E_aa is None:
            continue
        phi = d.cocycles.get((a, a))
        if phi is not None:
            T = tensor_module(localize(d.glue.pieces[a], tuple(E_aa)).insertion,
                              d.modules[a])
            if any(phi[x] != x for x in T.elements()):
                failures.append({"condition": "identity", "pair": (a, a)})

    for (a, b) in list(d.cocycles):
        if a == b or (b, a) not in d.cocycles:
            continue
        phi = d.cocycles[(a, b)]
        phi_back = d.cocycles[(b, a)]
        Ta, Tb = tensors[(a, b)], tensors[(b, a)]
        for x in Ta.elements():
            if phi_back[phi[x]] != x:
                failures.append({"condition": "inverse", "pair": (a, b), "at": x})
                break
        # additivity and semilinearity over the overlap ring iso
        psi = d.glue.ring_isos[(a, b)]
        ring_a = tensors[(a, b)].hom.target
        for x in Ta.elements():
            for y in Ta.elements():
                if phi[Ta.add(x, y)] != Tb.add(phi[x], phi[y]):
                    failures.append({"condition": "additive", "pair": (a, b)})
                    break
            else:
                continue
            break
        for rv in rg.enumerate_elements(ring_a):
            for x in Ta.elements():
                if phi[Ta.act(rv, x)] != Tb.act(psi(rv), phi[x]):
                    failures.append({"condition": "semilinear", "pair": (a, b)})
                    break
            else:
                continue
            break

    # triple condition through the double-overlap base changes
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if len({a, b, c}) != 3:
                    continue
                needed = [(a, b), (b, c), (a, c), (b, a), (c, b), (c, a)]
                if not all(p in d.cocycles and p in d.glue.overlaps for p in needed):
                    continue
                try:
                    ab_c = _extend_cocycle(d, tensors, a, b, c)
                    bc_a = _extend_cocycle(d, tensors, b, c, a)
                    ac_b = _extend_cocycle(d, tensors, a, c, b)
                except CocycleViolation as exc:
                    failures.append({"condition": "triple", "pair": (a, b, c),
                                     "detail": str(exc)})
                    continue
                dom = _double_tensor(d, a, b, c)
                for x in dom.elements():
                    if bc_a[ab_c[x]] != ac_b[x]:
                        failures.append({"condition": "triple", "pair": (a, b, c)})
                        break
    return {"status": "pass" if not failures else "fail", "failures": failures}


def _double_tensor(d: QcohDatum, a, b, c) -> TensorModule:
    E = tuple(d.glue.overlaps[(a, b)]) + tuple(d.glue.overlaps[(a, c)])
    return tensor_module(localize(d.glue.pieces[a], E).insertion, d.modules[a])


def _extend_cocycle(d: QcohDatum, tensors, a, b, c) -> dict:
    """phi_ab pushed to the double overlap; surjective, so a table push works."""
    Ta, Tb = tensors[(a, b)], tensors[(b, a)]
    Da, Db = _double_tensor(d, a, b, c), _double_tensor(d, b, a, c)
    Ea = tuple(d.glue.overlaps[(a, b)]) + tuple(d.glue.overlaps[(a, c)])
    Eb = tuple(d.glue.overlaps[(b, a)]) + tuple(d.glue.overlaps[(b, c)])
    pa = connecting_map(d.glue.pieces[a], tuple(d.glue.overlaps[(a, b)]), Ea)
    pb = connecting_map(d.glue.pieces[b], tuple(d.glue.overlaps[(b, a)]), Eb)
    push_a = tensor_restriction(Ta, Da, pa)
    push_b = tensor_restriction(Tb, Db, pb)
    phi = d.cocycles[(a, b)]
    table = {}
    for y in Ta.elements():
        key, val = push_a(y), push_b(phi[y])
        if table.setdefault(key, val) != val:
            raise CocycleViolation("cocycle extension inconsistent")
    if len(table) != Da.size():
        raise CocycleViolation("cocycle extension not total")
    return table
