"""Prime spectra of finite commutative rings, their embedding into the
sober localization space, and the exponential completion of based spaces.

The exponential of a based T0 space collapses subsets with the same
base-membership signature; its points form a complete join-semilattice
where the join of classes is the class of the union.  For garden-variety
spectra this reproduces the sober localization space exactly, which is
what the bridge checks.

The bridge checks (`embed_phi`, `union_of_primes_bijection`,
`spec_exponential_iso`) depend on the ring only, so each runs once per
memoized space `ncspec(r)` and keeps its result on the space: the
spectrum, the point map or gamma, the check verdicts and the exponential,
as tuples and frozen records.  They live as long as the space does in the
`ncspec` memo, and `sheafspec.clear_caches()` drops them with it.  Every
call builds fresh dicts from them, so a caller that changes a report does
not change the next answer.  Only returned values are kept: a check that
raises raises again.  `spec` itself is not kept, so it builds no space.
"""

from functools import cached_property
from itertools import product as iproduct
from math import prod

from . import rings as rg
from .errors import (
    BaseNotMultiplicative,
    InfiniteRing,
    NotCommutative,
    NotIrreducibleCertificate,
    NotT0,
    NotTComplete,
)
from .localization import localize
from .records import record
from .rings import RingElement, RingHom, hom_validate
from .sheafspec import NCSpecSpace, ncspec


# ---------------------------------------------------------------------------
# prime spectra

@record(frozen=True)
class PrimeSpectrum:
    """The primes of a finite commutative ring, one per block.

    Prime i is m_i = {x : x*a_i + (1 - a_i) is not a unit}, where a_i is
    the unit of its block, a local factor (see `spec`).  The
    element sets `primes` and `elements` are built on first use, for
    reports; `distinguished` and `based_space` do not need them.
    """

    ring: object
    idempotents: tuple     # a_i, in the order of the primes

    @property
    def n(self):
        return len(self.idempotents)

    @cached_property
    def elements(self) -> tuple:
        return tuple(rg.enumerate_elements(self.ring))

    @cached_property
    def primes(self) -> tuple:
        """Each prime as a frozenset of RingElement."""
        return tuple(_prime_ideal(self.ring, a, self.elements) for a in self.idempotents)

    def distinguished(self, f: RingElement) -> frozenset:
        """D(f): indices of the primes not containing f."""
        one = rg.one(self.ring)
        return frozenset(i for i, a in enumerate(self.idempotents)
                         if rg.is_unit(self.ring, f * a + one - a))

    def based_space(self) -> "BasedSpace":
        """The distinguished opens D(f) of every f, as a based space.

        D(f) is the set of blocks where f is a unit, and the sum
        e_S of the a_i over a set S of primes is 1 on those blocks and 0
        on the others, so D(e_S) = S and every D(f) is D(e_{D(f)}).  The
        base is thus read off the 2^n sums e_S.
        """
        zero = rg.zero(self.ring)
        base = {self.distinguished(sum((a for i, a in enumerate(self.idempotents)
                                        if mask >> i & 1), zero))
                for mask in range(2 ** self.n)}
        return BasedSpace(self.n, tuple(sorted(base, key=lambda B: (len(B), sorted(B)))))


def _prime_ideal(r, a, elems) -> frozenset:
    one = rg.one(r)
    return frozenset(x for x in elems if not rg.is_unit(r, x * a + one - a))


def _require_finite_commutative(r):
    if not rg.is_finite(r):
        raise InfiniteRing(f"{r!r}")
    if not rg.is_commutative(r):
        raise NotCommutative(f"{r!r}")


def spec(r) -> PrimeSpectrum:
    """The prime ideals of a finite commutative ring, one per block.

    Lifting idempotents splits a finite commutative ring as R = prod R_l of
    local rings (Atiyah-Macdonald ch. 8), one factor per primitive
    idempotent.  Every prime of R is maximal, so the primes are the m_l,
    maximal ideal of R_l in factor l and everything in the others.  x*a +
    (1 - a) is x on the factor of a and 1 on the others, and a unit of R_l
    is exactly an element outside its maximal ideal, so
    m_a = {x : x*a + (1 - a) is not a unit}.

    Every finite commutative ring is a block ring whose blocks, Z/p^c and
    M1(F), are local, so a is the block unit u_l (`rings.block_units`),
    and m_a holds the |R| / k elements whose part in block l lies in its
    maximal ideal, k the block's `residue_order` (p on Z/p^c, |F| on
    M1(F)).  The primes are sorted by size and then by the sorted reprs of
    their elements' payloads.

    That tie order is the block index, so no element is built.  Two primes
    of one size |R| / k cut blocks l < l' of residue order k, which lie in
    different integer entries i < i' of the payload, as one Z/n entry has
    one block per prime.  A payload's repr sorts as the tuple of its
    entries' decimal strings (", " and ")" sort below every digit), and
    two sorted lists compare at the least element of their symmetric
    difference, which the list that holds it puts first.  Every element
    of the block-l' prime minus the other has a unit part in block l, so
    x_i != 0; putting 0 at i and a unit of block l' at i' gives an
    element of the other difference that sorts before it: that least
    element lies in the block-l prime.
    """
    _require_finite_commutative(r)
    size, blocks = rg.cardinality(r), r.block_rings
    idem = rg.block_units(r)
    return PrimeSpectrum(r, tuple(idem[l] for l in sorted(
        range(len(idem)), key=lambda l: size // blocks[l].residue_order)))


# ---------------------------------------------------------------------------
# based spaces and the exponential

@record(frozen=True)
class BasedSpace:
    """A finite T0 space presented by a multiplicative base of opens."""

    n: int
    base: tuple   # frozensets of point indices; must contain the carrier

    def __post_init__(self):
        carrier = frozenset(range(self.n))
        if carrier not in set(self.base):
            raise BaseNotMultiplicative("the whole carrier must be a base member")
        base_set = set(self.base)
        for B1 in self.base:
            for B2 in self.base:
                if B1 & B2 not in base_set:
                    raise BaseNotMultiplicative(f"{sorted(B1)} and {sorted(B2)}")
        sigs = {}
        for x in range(self.n):
            s = frozenset(i for i, B in enumerate(self.base) if x in B)
            if s in sigs.values():
                raise NotT0(f"points share every base membership: {x}")
            sigs[x] = s

    def signature(self, subset) -> frozenset:
        subset = frozenset(subset)
        return frozenset(i for i, B in enumerate(self.base) if subset <= B)


@record(frozen=True)
class ExponentialSpace:
    """The exponential of a based space: subsets modulo base signature."""

    base_space: BasedSpace
    sigs: tuple            # per point: frozenset of base indices
    reps: tuple            # per point: a representative subset
    base: tuple            # per base member of the input: frozenset of point indices

    @property
    def n(self):
        return len(self.sigs)

    def class_of(self, subset) -> int:
        s = self.base_space.signature(subset)
        return self.sigs.index(s)

    def leq(self, p: int, q: int) -> bool:
        """The join-semilattice order: the class of a union sits above its parts."""
        return self.sigs[q] <= self.sigs[p]

    def join(self, p: int, q: int) -> int:
        return self.sigs.index(self.sigs[p] & self.sigs[q])

    def bottom(self) -> int:
        """The class of the empty subset."""
        return self.class_of(frozenset())

    def embedding(self) -> dict:
        """x -> [{x}] on the underlying points."""
        return {x: self.class_of({x}) for x in range(self.base_space.n)}

    def as_based_space(self) -> BasedSpace:
        return BasedSpace(self.n, tuple(sorted(set(self.base), key=lambda B: (len(B), sorted(B)))))


def exponential(X: BasedSpace) -> ExponentialSpace:
    """The classes of subsets of X by signature.  sig(A u B) = sig(A) n
    sig(B), so the signatures are the closure of sig({}) under n with each
    sig({x}), in O(|E| n) intersections, and each class keeps the union
    that first reached it, not always its least member.  Any member does:
    gamma (`_spec_exponential_iso`), `exp_functor_map` and
    `exp_factorization` read off a representative only which base members
    hold it, and that is its signature, fixed by its class."""
    groups = {X.signature(()): frozenset()}
    for x in range(X.n):
        sx = X.signature((x,))
        for s, A in list(groups.items()):
            groups.setdefault(s & sx, A | {x})
    sigs = tuple(sorted(groups, key=lambda s: (-len(s), sorted(s))))
    reps = tuple(groups[s] for s in sigs)
    base_imgs = tuple(
        frozenset(p for p, s in enumerate(sigs) if bi in s)
        for bi in range(len(X.base))
    )
    E = ExponentialSpace(X, sigs, reps, base_imgs)
    _check_t_complete_semilattice(E)
    return E


def _check_t_complete_semilattice(E: ExponentialSpace):
    """Every family has a least upper bound lying in exactly the base members
    that contain the whole family.

    A point is a signature, p <= q means sigs[q] <= sigs[p], and a point
    lies in base member bi iff bi is in its signature.  So a join of p and
    q, if any, is the point whose signature is sigs[p] & sigs[q]: it is
    above both, below every common upper bound, and in exactly the base
    members holding both p and q.  The bottom is the class of the empty
    set.  What is left to check is that the signatures are closed under
    pairwise intersection.
    """
    sigs = set(E.sigs)
    for p in range(E.n):
        for q in range(p + 1, E.n):
            if E.sigs[p] & E.sigs[q] not in sigs:
                raise NotTComplete("two points have no join", witness=(p, q))


# ---------------------------------------------------------------------------
# bridging Spec and the sober localization space

@record
class SpecEmbedding:
    spectrum: PrimeSpectrum
    space: NCSpecSpace
    point_map: dict        # prime index -> point index
    report: dict


def _cell_elements(sp: NCSpecSpace) -> tuple:
    """One element f per cell of the lattice: the product of the cell's subset.

    The blocks of a commutative lattice are its local factors, and f is
    a unit at a block exactly when it avoids that block's prime.
    So D(f) is the key of f's cell, read through the primes: it depends
    on f only through its cell, and D of this f stands for every f there.
    """
    return tuple(prod(cell.representative, start=rg.one(sp.ring)) for cell in sp.lattice.cells)


def _cells_outside(supports: tuple, chosen) -> frozenset:
    """{cell of f : f outside the union of the chosen primes}: f avoids
    prime i exactly when i is in D(f), and `supports` holds D(f) per cell
    (see `_cell_elements`)."""
    chosen = frozenset(chosen)
    return frozenset(c for c, D in enumerate(supports) if chosen <= D)


def _dense_off_point(X, g: int, S) -> bool:
    """Whether S meets every open of X that holds a point other than g.

    Such an open holds some x != g, hence up[x], and x lies in
    up[x] - {g}; so the basic opens up[x] suffice.
    """
    return all((X.up[x] - {g}) & S for x in range(X.n) if x != g)


def _memoized(r, name, compute):
    """(ncspec(r), compute(r, ncspec(r))), computed once per memoized space
    and kept on it under `name` (see the module docstring).  The ring is
    checked as `spec` checks it before any space is built."""
    _require_finite_commutative(r)
    sp = ncspec(r)
    got = sp._bridge.get(name)
    if got is None:
        got = sp._bridge[name] = compute(r, sp)
    return sp, got


def embed_phi(r) -> SpecEmbedding:
    """The continuous one-to-one map P -> {cells inverted away from P},
    with all the comparison checks the bridge promises.

    The preimage formula, the homeomorphism check and the comap check
    compare objects of an element f that depend on f only through its
    cell: D(f) (see `_cell_elements`), the basic open of its cell, and
    loc(R, f), since Z/n[1/f] = Z/unit_part(n, f) keeps the factors
    where f is a unit.  So each runs on one f per cell.  They run once
    per memoized space; every call returns fresh dicts.
    """
    sp, (spectrum, points, checks) = _memoized(r, "embed_phi", _embed_phi)
    checks = dict(checks)
    report = {"status": "pass" if all(checks.values()) else "fail", "checks": checks}
    return SpecEmbedding(spectrum, sp, dict(enumerate(points)), report)


def _embed_phi(r, sp: NCSpecSpace) -> tuple:
    """(spectrum, the image of each prime, the (name, verdict) checks)."""
    spectrum = spec(r)
    up = sp.space.up
    elems = _cell_elements(sp)
    supports = tuple(map(spectrum.distinguished, elems))

    point_map = {pi: sp.space.point_of(_cells_outside(supports, {pi}))
                 for pi in range(spectrum.n)}

    checks = {}
    checks["injective"] = len(set(point_map.values())) == len(point_map)

    # preimage of every basic open is the distinguished open of the same element
    checks["preimage_formula"] = all(
        frozenset(pi for pi, x in point_map.items() if x in up[c]) == D
        for c, D in enumerate(supports))

    # homeomorphism onto the image: the image of D(g) is image-and-basic-open
    image = frozenset(point_map.values())
    checks["homeomorphism_onto_image"] = all(
        frozenset(point_map[pi] for pi in D) == image & up[c] for c, D in enumerate(supports))

    # the section rings over matching basic opens coincide (canonical comap)
    checks["comap_isomorphism"] = all(
        localize(r, (f,)).result == sp.sheaf.assignment[c] for c, f in enumerate(elems))

    checks["dense_in_complement_of_generic"] = _dense_off_point(sp.space, sp.generic, image)
    return spectrum, tuple(point_map.values()), tuple(checks.items())


def spec_functor_map(theta: RingHom):
    """Spec of a hom: the preimage map on primes of the target ring."""
    hom_validate(theta)
    sR = spec(theta.source)
    sS = spec(theta.target)
    out = {}
    for qi, Q in enumerate(sS.primes):
        pre = frozenset(x for x in sR.elements if theta(x) in Q)
        match = [pi for pi, P in enumerate(sR.primes) if P == pre]
        if len(match) != 1:
            raise NotIrreducibleCertificate(
                f"the preimage of prime {qi} matches {len(match)} primes, not one")
        out[qi] = match[0]
    return out, sS, sR


def union_of_primes_bijection(r) -> dict:
    """Unions of primes against irreducible closed subsets of the lattice.

    Whether f lies in a union of primes depends on f only through its
    cell (see `_cell_elements`), and every cell holds an element, so a
    union is fixed by the cells outside it, and two unions are equal
    exactly when those cell sets are.  Counted once per memoized space;
    every call returns a fresh dict.
    """
    _sp, items = _memoized(r, "union_of_primes_bijection", _union_of_primes_bijection)
    return dict(items)


def _union_of_primes_bijection(r, sp: NCSpecSpace) -> tuple:
    spectrum = spec(r)
    supports = tuple(map(spectrum.distinguished, _cell_elements(sp)))
    unions = {_cells_outside(supports, (i for i in range(spectrum.n) if mask >> i & 1))
              for mask in range(2 ** spectrum.n)}
    closed_sets = {sp.space.down(x) for x in range(sp.space.n)}
    bijection = unions <= closed_sets and len(unions) == len(closed_sets)
    return (("status", "pass" if bijection else "fail"),
            ("union_count", len(unions)),
            ("irreducible_closed_count", len(closed_sets)),
            ("bijection", bijection))


def spec_exponential_iso(r) -> dict:
    """E(Spec R) against the sober localization space, naturally.

    gamma sends the class of a set of primes to the sober point of its
    union; the check verifies a bijection matching base opens both ways.
    The base check depends on f only through D(f) and f's cell, so it
    runs on one f per cell (see `_cell_elements`).  The check runs once
    per memoized space; every call returns a fresh dict and `gamma`.
    """
    sp, (ok, gamma, E, spectrum) = _memoized(r, "spec_exponential_iso", _spec_exponential_iso)
    return {"status": "pass" if ok else "fail",
            "exponential_points": E.n, "sober_points": sp.space.n,
            "gamma": dict(enumerate(gamma)), "exponential": E, "space": sp, "spectrum": spectrum}


def _spec_exponential_iso(r, sp: NCSpecSpace) -> tuple:
    """(whether gamma is an isomorphism, gamma by class, E, spectrum)."""
    spectrum = spec(r)
    X = spectrum.based_space()
    E = exponential(X)
    supports = tuple(map(spectrum.distinguished, _cell_elements(sp)))

    gamma = {p: sp.space.point_of(_cells_outside(supports, E.reps[p])) for p in range(E.n)}

    ok = len(set(gamma.values())) == E.n == sp.space.n
    # base members correspond: the image of D(f)-tilde is U_f-tilde
    for c, Df in enumerate(supports):
        lhs = frozenset(gamma[p] for p in E.base[X.base.index(Df)])
        if lhs != sp.space.up[c]:
            ok = False
    # joins go to joins: the class of a union lands on the intersection of
    # the member sets (complements of unions of primes intersect)
    for p in range(E.n):
        for q in range(E.n):
            j = E.join(p, q)
            meet = sp.space.down(gamma[p]) & sp.space.down(gamma[q])
            if sp.space.down(gamma[j]) != meet:
                ok = False
    return ok, tuple(gamma.values()), E, spectrum


def exp_functor_map(f_points: dict, EX: ExponentialSpace, EY: ExponentialSpace) -> dict:
    """E on a morphism of based spaces: classes map through images of subsets."""
    out = {}
    for p in range(EX.n):
        img = frozenset(f_points[x] for x in EX.reps[p])
        out[p] = EY.class_of(img)
    return out


def exp_idempotence_check(X: BasedSpace) -> bool:
    """The canonical map E(X) -> E(E(X)) is an isomorphism of based spaces."""
    E1 = exponential(X)
    B1 = E1.as_based_space()
    E2 = exponential(B1)
    emb = E2.embedding()
    phi = {p: emb[p] for p in range(E1.n)}
    if len(set(phi.values())) != E1.n or E2.n != E1.n:
        return False
    # base members must correspond both ways under the bijection
    base1 = {frozenset(B) for B in B1.base}
    base2 = {frozenset(B) for B in E2.as_based_space().base}
    fwd = {frozenset(phi[p] for p in B) for B in base1}
    inv = {p: q for q, p in phi.items()}
    bwd = {frozenset(inv[p] for p in B) for B in base2}
    return fwd == base2 and bwd == base1


# ---------------------------------------------------------------------------
# the universal property of the exponential

@record(frozen=True)
class TCompleteLattice:
    """A finite T-complete join-semilattice: based space plus order."""

    n: int
    base: tuple    # frozensets of point indices, multiplicative, contains carrier
    leq: tuple     # leq[i] = frozenset of j >= i

    def join(self, i, j):
        return self.sup((i, j))

    def sup(self, points):
        points = list(points)
        cands = [k for k in range(self.n) if all(k in self.leq[p] for p in points)]
        least = [k for k in cands if all(m in self.leq[k] for m in cands)]
        if len(least) != 1:
            raise NotTComplete(f"no least upper bound for {points}", witness=points)
        return least[0]

    def verify(self):
        carrier = frozenset(range(self.n))
        if carrier not in set(self.base):
            raise NotTComplete("carrier missing from the base")
        for B1 in self.base:
            for B2 in self.base:
                if B1 & B2 not in set(self.base):
                    raise NotTComplete("base is not multiplicative")
        # sup axiom over all subsets (finite carrier)
        for mask in range(2 ** self.n):
            A = [i for i in range(self.n) if mask >> i & 1]
            s = self.sup(A)
            for B in self.base:
                if (set(A) <= B) != (s in B):
                    raise NotTComplete(
                        f"subset containment disagrees with sup membership",
                        witness=(A, sorted(B)))
        return True


def exp_factorization(X: BasedSpace, theta: dict, Y: TCompleteLattice) -> dict:
    """Extend a based map X -> Y through the exponential: class -> sup of images.

    Verifies the triangle, join preservation, and (on small carriers)
    uniqueness by exhausting every based map out of the exponential.
    """
    Y.verify()
    # theta must pull base members back to base members
    for C in Y.base:
        pre = frozenset(x for x in range(X.n) if theta[x] in C)
        if pre not in set(X.base):
            raise NotTComplete(f"preimage of a base member is not basic: {sorted(C)}")
    E = exponential(X)
    hat = {p: Y.sup(theta[x] for x in E.reps[p]) for p in range(E.n)}
    emb = E.embedding()
    bad = [x for x in range(X.n) if hat[emb[x]] != theta[x]]
    if bad:
        raise NotTComplete("the triangle fails", witness=bad)
    for p in range(E.n):
        for q in range(E.n):
            if hat[E.join(p, q)] != Y.join(hat[p], hat[q]):
                raise NotTComplete("binary joins break", witness=(p, q))
    if hat[E.bottom()] != Y.sup([]):
        raise NotTComplete("empty join breaks")

    unique = None
    if Y.n ** E.n <= 200_000:
        candidates = []
        for combo in iproduct(range(Y.n), repeat=E.n):
            g = dict(enumerate(combo))
            if any(g[emb[x]] != theta[x] for x in range(X.n)):
                continue
            if not _is_t_morphism(E, g, Y):
                continue
            candidates.append(g)
        unique = candidates == [hat]
    return {"map": hat, "unique": unique}


def _is_t_morphism(E: ExponentialSpace, g: dict, Y: TCompleteLattice) -> bool:
    base_E = {frozenset(B) for B in E.as_based_space().base}
    for C in Y.base:
        pre = frozenset(p for p in range(E.n) if g[p] in C)
        if pre not in base_E:
            return False
    return True
