"""The localization semilattice of a ring, its Alexandrov topology, and
soberification.

Cells of the lattice are localizations at finite subsets up to mutual
invertibility.  For finite commutative rings a cell is identified by the
idempotent power of the product of its subset, for semisimple algebras by
the index set of surviving blocks, and for matrix rings there are exactly
two cells.  Q[x] gets a lazy lattice driven by squarefree divisibility
plus the symbolic point model for its soberification.
"""

from dataclasses import dataclass

from . import qpoly
from . import rings as rg
from .errors import (
    NotIrreducibleCertificate,
    NotJoinPreserving,
    NotOpen,
    UnsupportedClass,
)
from .localization import Localization, idempotent_power, localize
from .rings import (
    MatrixRing,
    RingElement,
    SemisimpleAlgebra,
    UnivariatePolyRing,
    ZeroRing,
)


# ---------------------------------------------------------------------------
# finite posets with the Alexandrov topology

@dataclass(frozen=True)
class AlexandrovSpace:
    """A finite poset; opens are exactly the upper sets."""

    up: tuple      # up[i] = frozenset of j >= i (reflexive)
    labels: tuple

    def __post_init__(self):
        n = self.n
        for i in range(n):
            assert i in self.up[i], "order must be reflexive"
            for j in self.up[i]:
                assert self.up[j] <= self.up[i], "order must be transitive"
                if i != j:
                    assert i not in self.up[j], "order must be antisymmetric"

    @property
    def n(self) -> int:
        return len(self.up)

    def leq(self, i: int, j: int) -> bool:
        return j in self.up[i]

    def down(self, i: int) -> frozenset:
        return frozenset(j for j in range(self.n) if self.leq(j, i))

    def is_open(self, U) -> bool:
        U = frozenset(U)
        return all(self.up[i] <= U for i in U)

    def carrier(self) -> frozenset:
        return frozenset(range(self.n))

    def all_open_sets(self):
        """Every upper set; exponential in antichain width, use on small carriers."""
        opens = {frozenset()}
        for i in range(self.n):
            opens |= {U | self.up[i] for U in opens}
        return sorted(opens, key=lambda U: (len(U), sorted(U)))

    def minimal_elements(self, S):
        S = frozenset(S)
        return [i for i in S if not any(j != i and self.leq(j, i) for j in S)]

    def join(self, i: int, j: int) -> int:
        ubs = [k for k in self.up[i] if k in self.up[j]]
        least = [k for k in ubs if all(self.leq(k, m) for m in ubs)]
        if len(least) != 1:
            raise UnsupportedClass(f"no join for ({i}, {j})")
        return least[0]

    def hasse_edges(self):
        out = []
        for i in range(self.n):
            for j in self.up[i]:
                if j == i:
                    continue
                if any(k != i and k != j and self.leq(i, k) and self.leq(k, j)
                       for k in range(self.n)):
                    continue
                out.append((i, j))
        return out


def upper_set(X: AlexandrovSpace, seed) -> frozenset:
    out = frozenset()
    for i in seed:
        out |= X.up[i]
    return out


def lower_set(X: AlexandrovSpace, seed) -> frozenset:
    out = frozenset()
    for i in seed:
        out |= X.down(i)
    return out


def is_completely_union_irreducible(X: AlexandrovSpace, U) -> bool:
    """True exactly for the principal upper sets; the empty set is a union
    of the empty cover, hence excluded."""
    U = frozenset(U)
    if not X.is_open(U):
        raise NotOpen(f"{sorted(U)} is not an upper set")
    if not U:
        return False
    mins = X.minimal_elements(U)
    return len(mins) == 1 and X.up[mins[0]] == U


@dataclass(frozen=True)
class IrreducibleClosed:
    members: frozenset
    apex: int

    def __contains__(self, i):
        return i in self.members


def irreducible_closed_sets(X: AlexandrovSpace):
    """All nonempty directed lower sets; in a finite poset these are the
    principal down-sets, one per point."""
    out = []
    for x in range(X.n):
        C = X.down(x)
        for a in C:
            for b in C:
                if not any(X.leq(a, z) and X.leq(b, z) for z in C):
                    raise AssertionError("down-set not directed")
        out.append(IrreducibleClosed(C, x))
    return out


@dataclass(frozen=True)
class SoberSpace:
    """The soberification of a finite Alexandrov space.

    Points are the irreducible closed subsets; the open U of the base maps
    to {C : C meets U}, which here is {C : apex(C) in U}.
    """

    base: AlexandrovSpace
    points: tuple  # of IrreducibleClosed, indexed like the base carrier

    @property
    def n(self):
        return len(self.points)

    def q(self, x: int) -> int:
        """Closure of a base point, as a point index here."""
        target = self.base.down(x)
        for idx, p in enumerate(self.points):
            if p.members == target:
                return idx
        raise KeyError(x)

    def open_image(self, U) -> frozenset:
        """The open set of this space induced by the base open U."""
        U = frozenset(U)
        if not self.base.is_open(U):
            raise NotOpen(f"{sorted(U)} is not open downstairs")
        return frozenset(i for i, p in enumerate(self.points) if p.apex in U)

    def generic(self):
        """Index of the point whose closure is everything, if the carrier is directed."""
        whole = self.base.carrier()
        for i, p in enumerate(self.points):
            if p.members == whole:
                return i
        return None

    def specialization_up(self, i: int) -> frozenset:
        """Points whose closed set contains this one (the 'more generic' ones)."""
        return frozenset(
            j for j, p in enumerate(self.points) if self.points[i].members <= p.members)


def soberify(X: AlexandrovSpace) -> SoberSpace:
    pts = tuple(irreducible_closed_sets(X))
    S = SoberSpace(X, pts)
    assert S.n == X.n
    if X.n <= 14:
        for U in X.all_open_sets():
            img = S.open_image(U)
            back = frozenset(x for x in range(X.n) if S.q(x) in img)
            assert back == U, "q fails to pull the induced opens back"
    return S


def sober_map_from_join_hom(P: AlexandrovSpace, Q: AlexandrovSpace, f):
    """From a monotone join-preserving f: P -> Q, the continuous map
    S(Q) -> S(P), C -> f^{-1}(C).  Returns the point map as a dict
    index-of-S(Q) -> index-of-S(P)."""
    fmap = dict(f) if not callable(f) else {i: f(i) for i in range(P.n)}
    for i in range(P.n):
        for j in P.up[i]:
            if not Q.leq(fmap[i], fmap[j]):
                raise NotJoinPreserving(f"not monotone at ({i}, {j})", witness=(i, j))
    for i in range(P.n):
        for j in range(P.n):
            if Q.join(fmap[i], fmap[j]) != fmap[P.join(i, j)]:
                raise NotJoinPreserving(
                    f"join of ({i}, {j}) is not preserved", witness=(i, j))
    SP, SQ = soberify(P), soberify(Q)
    point_map = {}
    for ci, C in enumerate(SQ.points):
        pre = frozenset(x for x in range(P.n) if fmap[x] in C.members)
        match = [pi for pi, D in enumerate(SP.points) if D.members == pre]
        assert len(match) == 1, "preimage of an irreducible closed set must be one"
        point_map[ci] = match[0]
    # preimage formula on every basic open of S(P)
    for a in range(P.n):
        lhs = frozenset(ci for ci, pi in point_map.items() if pi in SP.open_image(P.up[a]))
        rhs = SQ.open_image(Q.up[fmap[a]])
        assert lhs == rhs, "basic-open preimage formula fails"
    return point_map


# ---------------------------------------------------------------------------
# the localization semilattice

@dataclass(frozen=True)
class LocalizationCell:
    representative: tuple      # subset E of the ambient ring
    localized: Localization
    label: str
    key: object                # canonical identity: idempotent payload / block set / 0-1


class LocalizationLattice:
    """Materialized localization semilattice of a finite-sided ring."""

    def __init__(self, ring, cells, leq_matrix, key_of_element):
        self.ring = ring
        self.cells = cells
        self._leq = leq_matrix
        self._key_of_element = key_of_element
        self._key_index = {c.key: i for i, c in enumerate(cells)}
        bottoms = [i for i in range(self.n) if all(self.leq(i, j) for j in range(self.n))]
        tops = [i for i in range(self.n) if all(self.leq(j, i) for j in range(self.n))]
        assert len(bottoms) == 1 and len(tops) == 1, "lattice must be bounded"
        self.bottom, self.top = bottoms[0], tops[0]
        self._check_laws()

    @property
    def n(self):
        return len(self.cells)

    def leq(self, i, j) -> bool:
        return self._leq[i][j]

    def join(self, i, j) -> int:
        cand = [k for k in range(self.n) if self.leq(i, k) and self.leq(j, k)]
        least = [k for k in cand if all(self.leq(k, m) for m in cand)]
        assert len(least) == 1
        return least[0]

    def cell_of_element(self, f: RingElement) -> int:
        return self._key_index[self._key_of_element(f)]

    def cell_of_subset(self, E) -> int:
        E = tuple(E)
        if not E:
            return self.bottom
        if rg.is_commutative(self.ring):
            f = rg.one(self.ring)
            for a in E:
                f = f * a
            return self.cell_of_element(f)
        idx = self.cell_of_element(E[0])
        for a in E[1:]:
            idx = self.join(idx, self.cell_of_element(a))
        return idx

    def alexandrov_space(self) -> AlexandrovSpace:
        up = tuple(
            frozenset(j for j in range(self.n) if self.leq(i, j)) for i in range(self.n))
        return AlexandrovSpace(up, tuple(c.label for c in self.cells))

    def hasse_edges(self):
        return self.alexandrov_space().hasse_edges()

    def _check_laws(self):
        n = self.n
        for i in range(n):
            assert self.leq(i, i)
            for j in range(n):
                if self.leq(i, j) and self.leq(j, i):
                    assert i == j
                for k in range(n):
                    if self.leq(i, j) and self.leq(j, k):
                        assert self.leq(i, k)
        for i in range(n):
            for j in range(n):
                J = self.join(i, j)
                union = tuple(self.cells[i].representative) + tuple(self.cells[j].representative)
                assert J == self.cell_of_subset(union), "join must be the union cell"
        assert all(self.leq(self.bottom, i) and self.leq(i, self.top) for i in range(n))


def build_semilattice(r):
    """The localization semilattice; lazy for Q[x], materialized otherwise."""
    if isinstance(r, ZeroRing) or (rg.is_finite(r) and rg.cardinality(r) == 1):
        cell = _cell(r, (), key=0)
        return LocalizationLattice(r, [cell], [[True]], lambda f: 0)

    if rg.cyclic_moduli(r) is not None:
        return _build_finite_commutative(r)

    if isinstance(r, SemisimpleAlgebra):
        return _build_semisimple(r)

    if isinstance(r, MatrixRing):
        bottom = _cell(r, (rg.one(r),), key=1)
        top = _cell(r, (rg.zero(r),), key=0)
        leq = [[True, True], [False, True]]

        def key_of(f):
            return 1 if rg.is_unit(r, f) or rg.mat_det(r.base, f.payload) != 0 else 0

        return LocalizationLattice(r, [bottom, top], leq, key_of)

    if isinstance(r, UnivariatePolyRing):
        return PidLattice(r)

    raise UnsupportedClass(f"no semilattice construction for {r!r}")


def _cell(r, E, key) -> LocalizationCell:
    loc = localize(r, E)
    label = "R[" + ",".join(rg.element_str(a) for a in E) + "]" if E else "R"
    return LocalizationCell(tuple(E), loc, label, key)


def _build_finite_commutative(r):
    idem_order = []
    seen = set()
    for f in rg.enumerate_elements(r):
        e = idempotent_power(r, f)
        if e.payload not in seen:
            seen.add(e.payload)
            idem_order.append(e)
    cells = [_cell(r, (e,), key=e.payload) for e in idem_order]
    n = len(cells)
    elems = {e.payload: e for e in idem_order}
    leq = [[(elems[cells[i].key] * elems[cells[j].key]).payload == cells[j].key
            for j in range(n)] for i in range(n)]

    def key_of(f):
        return idempotent_power(r, f).payload

    return LocalizationLattice(r, cells, leq, key_of)


def _build_semisimple(r):
    k = len(r.dims)
    subsets = []
    for mask in range(2 ** k):
        Z = frozenset(i for i in range(k) if mask >> i & 1)
        subsets.append(Z)
    subsets.sort(key=lambda Z: (-len(Z), sorted(Z)))

    def idem(Z):
        return RingElement(r, tuple(
            f.from_int(1 if i in Z else 0) for i, f in enumerate(r.factors)))

    cells = [_cell(r, (idem(Z),), key=Z) for Z in subsets]
    n = len(cells)
    leq = [[cells[j].key <= cells[i].key for j in range(n)] for i in range(n)]

    def key_of(f):
        return frozenset(
            j for j in range(k) if rg.mat_det(r.base, f.payload[j]) != 0)

    return LocalizationLattice(r, cells, leq, key_of)


# ---------------------------------------------------------------------------
# the lazy lattice and point model for Q[x]

class PidLattice:
    """Lazy localization semilattice of Q[x].

    A cell is named by the monic squarefree part of the product of its
    subset (1 for the bottom, the zero polynomial for the top); order is
    squarefree divisibility and joins multiply the squarefree parts.
    """

    def __init__(self, ring: UnivariatePolyRing):
        self.ring = ring

    def cell_key(self, f: RingElement):
        return qpoly.squarefree_part(f.payload)

    def cell_of_subset(self, E):
        f = rg.one(self.ring)
        for a in E:
            f = f * a
        return self.cell_key(f)

    def leq_keys(self, h, g) -> bool:
        if qpoly.is_zero(g):
            return True
        if qpoly.is_zero(h):
            return False
        return qpoly.divides(h, g)

    def leq(self, h: RingElement, g: RingElement) -> bool:
        return self.leq_keys(self.cell_key(h), self.cell_key(g))

    def join_keys(self, h, g):
        if qpoly.is_zero(h) or qpoly.is_zero(g):
            return qpoly.ZERO
        return qpoly.squarefree_part(qpoly.mul(h, g))

    def join(self, h: RingElement, g: RingElement):
        return self.join_keys(self.cell_key(h), self.cell_key(g))


@dataclass(frozen=True)
class PidPoint:
    """A point of the soberification of the Q[x] lattice.

    kind 'generic' is the empty set of primes; 'zero_ideal' is the point
    made of the zero ideal alone; 'prime_set' carries monic irreducibles
    cutting out maximal ideals.
    """

    kind: str                      # 'generic' | 'zero_ideal' | 'prime_set'
    primes: tuple = ()             # monic irreducible polynomials (qpoly tuples)

    def __post_init__(self):
        assert self.kind in ("generic", "zero_ideal", "prime_set")
        if self.kind == "prime_set":
            assert self.primes, "empty prime list is the generic point"
            seen = set()
            for p in self.primes:
                if qpoly.deg(p) < 1 or p[-1] != 1:
                    raise NotIrreducibleCertificate(
                        f"{qpoly.to_string(p)} is not monic nonconstant")
                if p in seen:
                    raise NotIrreducibleCertificate("duplicate prime listed")
                seen.add(p)
                if qpoly.deg(p) <= 3 and not qpoly.is_irreducible_low_degree(p):
                    raise NotIrreducibleCertificate(
                        f"{qpoly.to_string(p)} factors over Q")


def generic_pid_point() -> PidPoint:
    return PidPoint("generic")


def zero_ideal_point() -> PidPoint:
    return PidPoint("zero_ideal")


def prime_set_point(polys) -> PidPoint:
    return PidPoint("prime_set", tuple(qpoly.monic(qpoly.poly(p)) for p in polys))


def pid_point_in_open(p: PidPoint, f) -> bool:
    """Membership of the point in the basic open named by the polynomial f.

    For f = 0 the basic open is just the generic point; otherwise a point
    is inside iff none of its primes divides f.
    """
    f = qpoly.poly(f) if not isinstance(f, tuple) else f
    if qpoly.is_zero(f):
        return p.kind == "generic"
    if p.kind in ("generic", "zero_ideal"):
        return True
    return not any(qpoly.divides(q, f) for q in p.primes)
