"""Value classes without generated code.

`@record` (or `@record(frozen=True)`) reads a class's fields from its
annotations, in order, and adds `__init__`, `__repr__` in the form
`Name(f=v, ...)` and `__eq__`, unless the class defines them.  A field
is an argument of `__init__`, optional when the class body gives it a
plain value as its default, unless it is marked `private()`: a private
field is left out of `__init__`, `repr` and `==`, and `private(factory)`
sets it to `factory()` before `__post_init__` runs, last in `__init__`.
`__eq__` needs the same class on both sides and compares the other
fields as a tuple, a frozen record hashes that tuple and raises
`FrozenInstanceError` on assignment, and any other record is
unhashable.  These are the semantics of `dataclasses.dataclass` for
such fields.  The methods are closures over the field names rather than
source passed to `exec`, so defining a record compiles nothing, and this
module imports only `operator`.
"""

from operator import attrgetter

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


class private:
    """Marks a field outside `__init__`, `repr` and `==`, set to
    `factory()` when a factory is given and else by `__post_init__`."""

    __slots__ = ("factory",)

    def __init__(self, factory=None):
        self.factory = factory


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _key(names):
    """self -> the tuple of the named attributes."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return lambda self: ()


def record(cls=None, /, *, frozen=False):
    """Make cls a value class (see the module docstring); returns cls."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    # the fields of this class body only: a record base adds none
    fields = {name: cls.__dict__.get(name, _MISSING)
              for name in cls.__dict__.get("__annotations__", {})}
    late = []
    for name, spec in fields.items():
        if isinstance(spec, private):
            delattr(cls, name)
            if spec.factory is not None:
                late.append((name, spec.factory))
    names = tuple(n for n, spec in fields.items() if not isinstance(spec, private))
    arity, name_set, key = len(names), frozenset(names), _key(names)
    post_init = hasattr(cls, "__post_init__")
    qualname = cls.__qualname__
    # a class body that defines __eq__ alone gets __hash__ = None from Python
    own_hash = cls.__dict__.get("__hash__", _MISSING)
    explicit_hash = not (own_hash is _MISSING or (own_hash is None and "__eq__" in cls.__dict__))

    def bind(args, kwargs):
        """The field values of a call, in declaration order."""
        if len(args) > arity:
            raise TypeError(f"{qualname}() takes {arity} arguments, got {len(args)}")
        for name in kwargs:
            if name not in name_set or name in names[:len(args)]:
                raise TypeError(f"{qualname}() got an unexpected or repeated argument {name!r}")
        values = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs[name]
            elif fields[name] is not _MISSING:
                values[name] = fields[name]
            else:
                raise TypeError(f"{qualname}() missing argument {name!r}")
        values.update((name, factory()) for name, factory in late)
        return values

    def __init__(self, *args, **kwargs):
        # every field given once, all by position or all by keyword, needs
        # no binding; anything else goes through `bind` and its errors
        if not late and not kwargs and len(args) == arity:
            values = zip(names, args)
        elif not late and not args and kwargs.keys() == name_set:
            values = [(name, kwargs[name]) for name in names]
        else:
            values = bind(args, kwargs)
        self.__dict__.update(values)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{n}={getattr(self, n)!r}" for n in names) + ")")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            # the tuples of one instance hold identical items, so compare equal
            return self is other or key(self) == key(other)
        return NotImplemented

    for name, method in (("__init__", __init__), ("__repr__", __repr__), ("__eq__", __eq__)):
        if name not in cls.__dict__:
            setattr(cls, name, method)
    if not explicit_hash:
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    if frozen:
        cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__record_fields__ = fields  # name -> default, _MISSING or its private spec
    return cls
