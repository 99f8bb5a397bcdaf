"""Value classes without generated code.

`@record` (or `@record(frozen=True)`) reads a class's fields from its
annotations, in order, and adds `__init__`, `__repr__` in the form
`Name(f=v, ...)` and `__eq__`, unless the class defines them.  These are
the semantics of `dataclasses.dataclass` with its defaults: a field may
have a default or a `field(...)` spec, `__post_init__` runs last in
`__init__`, `__eq__` needs the same class on both sides and compares the
compare-fields as a tuple, a frozen record hashes that tuple and raises
`FrozenInstanceError` on assignment, and any other record is unhashable.
The methods are closures over the field names rather than source passed
to `exec`, so defining a record compiles nothing, and this module
imports only `operator`.
"""

from operator import attrgetter

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


class Field:
    """How a field is set, shown and compared; a class attribute holding
    a plain value v is read as `field(default=v)`."""

    __slots__ = ("default", "default_factory", "init", "repr", "compare")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING,
                 init=True, repr=True, compare=True):
        self.default, self.default_factory = default, default_factory
        self.init, self.repr, self.compare = init, repr, compare


field = Field


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
    fields = {}
    for base in reversed(cls.__mro__[1:]):
        fields.update(base.__dict__.get("__record_fields__", {}))
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, Field):
            spec = Field(default=spec)
        if spec.default is _MISSING:
            if name in cls.__dict__:
                delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        fields[name] = spec
    init_names = tuple(n for n, f in fields.items() if f.init)
    arity, init_set = len(init_names), frozenset(init_names)
    late = tuple((n, f.default_factory) for n, f in fields.items()
                 if not f.init and f.default_factory is not _MISSING)
    shown = tuple(n for n, f in fields.items() if f.repr)
    key = _key(tuple(n for n, f in fields.items() if f.compare))
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
            if name not in init_set or name in init_names[:len(args)]:
                raise TypeError(f"{qualname}() got an unexpected or repeated argument {name!r}")
        values = dict(zip(init_names, args))
        for name in init_names[len(args):]:
            if name in kwargs:
                values[name] = kwargs[name]
                continue
            f = fields[name]
            if f.default_factory is not _MISSING:
                values[name] = f.default_factory()
            elif f.default is not _MISSING:
                values[name] = f.default
            else:
                raise TypeError(f"{qualname}() missing argument {name!r}")
        values.update((name, factory()) for name, factory in late)
        return values

    def __init__(self, *args, **kwargs):
        # every init field given once, all by position or all by keyword,
        # needs no binding; anything else goes through `bind` and its errors
        if not late and not kwargs and len(args) == arity:
            values = zip(init_names, args)
        elif not late and not args and kwargs.keys() == init_set:
            values = [(name, kwargs[name]) for name in init_names]
        else:
            values = bind(args, kwargs)
        self.__dict__.update(values)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{n}={getattr(self, n)!r}" for n in shown) + ")")

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
    cls.__record_fields__, cls.__match_args__ = fields, init_names
    return cls
