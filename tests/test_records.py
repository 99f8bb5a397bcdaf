"""`ncspec.records` against a `dataclasses` oracle, on every library record class."""

import ast
import copy
import dataclasses
import importlib
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import dataclass_twin

from ncspec import rings as rg
from ncspec.records import _MISSING, FrozenInstanceError, private, record
from ncspec.rings import ModularRing, PrimeField, Rationals

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ncspec"


def record_classes():
    """(module, class name, frozen) of every `@record` class, read off the source."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                name = (call.func if call else dec)
                if isinstance(name, ast.Name) and name.id == "record":
                    frozen = any(k.arg == "frozen" and k.value.value for k in
                                 (call.keywords if call else []))
                    out.append((path.stem, node.name, frozen))
    return out


RECORDS = record_classes()

F2, Z2, Z3 = PrimeField(2), ModularRing(2), ModularRing(3)
X = (Fraction(0), Fraction(1))  # the monic irreducible x of Q[x]
# two valid argument tuples for each class whose __post_init__ checks its fields
VALID_ARGS = {
    "PrimeField": [(2,), (3,)],
    "ModularRing": [(6,), (4,)],
    "ProductRing": [((Z2, Z3),), ((Z2, Z2),)],
    "MatrixRing": [(F2, 2), (Rationals(), 2)],
    "SemisimpleAlgebra": [(F2, (1, 2)), (F2, (2,))],
    "SkewLaurentRing": [(2, (((0, 1), Fraction(2)),), frozenset()),
                        (2, (((0, 1), Fraction(2)),), frozenset({0}))],
    "TableRule": [(((0, 0), (1, 1)),), (((0, 0),),)],
    "AlexandrovSpace": [((frozenset({0, 1}), frozenset({1})),), ((frozenset({0}),),)],
    "PidPoint": [("prime_set", (X,)), ("zero_ideal",)],
    "BasedSpace": [(2, (frozenset({0, 1}), frozenset({1}))),
                   (2, (frozenset({0, 1}), frozenset({0})))],
    "FiniteModule": [(ModularRing(6), (6, 3)), (ModularRing(4), (2,))],
    "GradedModulePresentation": [(rg.skew_ring(2, {(0, 1): 2}), (0,), ()),
                                 (rg.skew_ring(2, {(0, 1): 2}), (0, 1), ())],
}


def _module_hom_args():
    from ncspec.glueqcoh import FiniteModule
    M = FiniteModule(ModularRing(6), (6,))
    return [(M, M, ((1,),)), (M, M, ((2,),))]


def _morphism_args():
    from ncspec.sheafspec import ncspec_morphism
    out = []
    for m in (3, 2):
        f = ncspec_morphism(rg.quotient_hom(6, m))
        out.append((f.source, f.target, f.point_map, f.comap))
    return out


def sample_args(cls):
    """Argument tuples for cls: two that differ in a compared field, then the
    first again with every defaulted field left out.  A class without
    checks gets placeholders that depend on the position only, so classes
    of equal arity get equal field values."""
    if cls.__name__ == "ModuleHom":
        return _module_hom_args()
    if cls.__name__ == "RingedSpaceMorphism":
        return _morphism_args()
    if cls.__name__ in VALID_ARGS:
        return VALID_ARGS[cls.__name__]
    specs = [v for v in cls.__record_fields__.values() if not isinstance(v, private)]
    a = tuple(("v", i) for i in range(len(specs)))
    b = a[:-1] + (("w", len(a) - 1),)
    required = specs.count(_MISSING)
    return [a, b, a[:required]] if a else [a]


def instance_pairs():
    """(record instance, twin instance) pairs over every library record class,
    each built twice positionally and once by keywords."""
    pairs = []
    for modname, name, frozen in RECORDS:
        cls = getattr(importlib.import_module(f"ncspec.{modname}"), name)
        twin = dataclass_twin(cls, frozen)
        names = [n for n, v in cls.__record_fields__.items() if not isinstance(v, private)]
        for args in sample_args(cls):
            pairs.append((cls(*args), twin(*args)))
            pairs.append((cls(*args), twin(*args)))
            kwargs = dict(zip(names, args))
            pairs.append((cls(**kwargs), twin(**kwargs)))
    return pairs


PAIRS = instance_pairs()


def test_every_record_class_is_found():
    # RingElement, the one other value class, is written out by hand
    assert len(RECORDS) == 47
    for modname, name, _ in RECORDS:
        cls = getattr(importlib.import_module(f"ncspec.{modname}"), name)
        assert list(cls.__record_fields__) == list(cls.__annotations__), name


def test_repr_and_hash_agree_with_dataclasses():
    for x, tx in PAIRS:
        assert repr(x) == repr(tx)
        if type(tx).__hash__ is None:
            assert type(x).__hash__ is None
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == hash(tx)


def test_equality_agrees_with_dataclasses_on_every_pair():
    # pairs across classes included: equal field values never make
    # instances of two classes equal.  A class's own __eq__ is its own
    # affair, so those classes are left out
    made = [(x, tx) for x, tx in PAIRS if "__eq__" not in vars(type(tx))]
    assert len(made) < len(PAIRS)
    for x, tx in made:
        for y, ty in made:
            assert (x == y) is (tx == ty), (x, y)
            assert (x != y) is (tx != ty), (x, y)


def test_equal_fields_in_different_classes_compare_unequal():
    assert rg.BlockRule(((0, 1),)) != rg.TableRule(((0, 1),))
    assert rg.BlockRule((0, 1)) == rg.BlockRule((0, 1))
    assert rg.IdentityRule() != rg.ToZeroRule()
    assert hash(rg.BlockRule(((0, 1),))) == hash(rg.TableRule(((0, 1),)))


def test_assignment_to_a_frozen_record_raises():
    for x, tx in instance_pairs():
        frozen = type(tx).__dataclass_params__.frozen
        names = list(type(x).__record_fields__) or ["extra"]
        if not frozen:
            setattr(x, names[0], 1)
            setattr(tx, names[0], 1)
            assert repr(x) == repr(tx)
            continue
        with pytest.raises(FrozenInstanceError):
            setattr(x, names[0], 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(tx, names[0], 1)
        with pytest.raises(FrozenInstanceError):
            delattr(x, names[0])
    assert issubclass(FrozenInstanceError, AttributeError)


def test_defaults_init_false_and_default_factories():
    from ncspec.latspace import AlexandrovSpace, PidPoint
    from ncspec.sheafspec import SheafOnBase

    assert PidPoint("generic").primes == () and PidPoint("generic") == PidPoint("generic", ())
    one, two = SheafOnBase("lat", (Z2,)), SheafOnBase("lat", (Z2,))
    assert one._res_cache == {} and one._res_cache is not two._res_cache
    one._res_cache[(0, 0)] = "cached"
    assert one == two and repr(one) == "SheafOnBase(lattice='lat', assignment=(Z/2,))"
    with pytest.raises(TypeError):
        SheafOnBase("lat", (Z2,), {})
    with pytest.raises(TypeError):
        rg.TableRule(((0, 0),), table={})
    assert rg.TableRule(((0, 1),)).table == {0: 1} and rg.IdentityRule().table is None
    space = AlexandrovSpace((frozenset({0, 1}), frozenset({1})))
    assert space._downs == (frozenset({0}), frozenset({0, 1}))


def test_constructor_arity_errors():
    with pytest.raises(TypeError):
        ModularRing()
    with pytest.raises(TypeError):
        ModularRing(2, 3)
    with pytest.raises(TypeError):
        ModularRing(2, n=2)
    with pytest.raises(TypeError):
        ModularRing(m=2)


def test_keyword_calls_build_what_positional_calls_build():
    """Every field by keyword, in any order, gives the record of the
    positional call, with the fields in declaration order as `dataclasses`
    sets them; a call that misses, repeats or misnames a field raises the
    TypeError that its dataclass twin raises."""
    @record(frozen=True)
    class Square:
        top: int
        left: int
        bottom: int = 0

    twin = dataclass_twin(Square, frozen=True)
    for kwargs in ({"top": 1, "left": 2, "bottom": 3}, {"bottom": 3, "left": 2, "top": 1},
                   {"left": 2, "top": 1}):
        got = Square(**kwargs)
        assert got == Square(kwargs["top"], kwargs["left"], kwargs.get("bottom", 0))
        assert list(vars(got)) == list(vars(twin(**kwargs))) == ["top", "left", "bottom"]
        assert (repr(got), hash(got)) == (repr(twin(**kwargs)), hash(twin(**kwargs)))
    bad = [((), {"top": 1}), ((1,), {"top": 1, "left": 2}),
           ((), {"top": 1, "left": 2, "bottom": 3, "right": 4}), ((), {"left": 2, "bottom": 3}),
           ((1, 2, 3, 4), {})]
    for args, kwargs in bad:
        with pytest.raises(TypeError):
            twin(*args, **kwargs)
        with pytest.raises(TypeError):
            Square(*args, **kwargs)
    # the library's squares are built by keyword
    from ncspec.localization import LocalizationSquare
    h = rg.identity_hom(Z2)
    sq = LocalizationSquare(right=h, bottom=h, left=h, top=h)
    assert sq == LocalizationSquare(h, h, h, h)
    assert list(vars(sq)) == ["top", "left", "bottom", "right"]


def test_ring_elements_agree_with_a_dataclass():
    @dataclasses.dataclass(frozen=True)
    class RingElement:
        owner: object
        payload: object
        __repr__ = rg.RingElement.__repr__

    elems = [rg.RingElement(Z2, 1), rg.RingElement(Z2, 1), rg.RingElement(Z3, 1),
             rg.RingElement(ModularRing(2), 0)]
    twins = [RingElement(x.owner, x.payload) for x in elems]
    for x, tx in zip(elems, twins):
        assert (repr(x), hash(x)) == (repr(tx), hash(tx))
        with pytest.raises(FrozenInstanceError):
            x.payload = 0
        for y, ty in zip(elems, twins):
            assert (x == y, x != y) == (tx == ty, tx != ty)
    assert pickle.loads(pickle.dumps(elems[2])) == elems[2] == copy.copy(elems[2])
    assert elems[0] != (Z2, 1)

