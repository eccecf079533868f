"""``frozen``: frozen dataclasses without generated code.

``dataclass(frozen=True)`` compiles six methods a class with ``exec`` on
every import, most of what importing the package cost.  ``frozen`` has
``dataclasses`` record the fields alone, so ``fields``, ``replace``,
``asdict`` and ``is_dataclass`` still work, and gives each class the same
methods built from closures: the fields by position or name with their
defaults, then ``__post_init__``; equality and hashing over the tuple of
the compared fields; a repr of the shown ones.  ``inspect.signature`` and
``help`` read the fields from ``__signature__``, built on first access.
Field features it does not build (``default_factory``, ``init=False``,
``kw_only``, ``hash``, ``InitVar``) raise ``TypeError`` when the class is
made.
"""

import dataclasses
import inspect
import operator

_MISSING = dataclasses.MISSING
_store = object.__setattr__


class _Signature:
    """``__signature__`` of a frozen class: its fields as ``__init__`` takes
    them, by position or name with their defaults, as the generated
    ``__init__`` of a dataclass shows them.  Built on first access."""

    def __get__(self, obj, cls) -> inspect.Signature:
        sig = vars(self).get("sig")
        if sig is None:
            kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
            sig = self.sig = inspect.Signature(
                [
                    inspect.Parameter(f.name, kind, default=f.default, annotation=f.type)
                    if f.default is not _MISSING
                    else inspect.Parameter(f.name, kind, annotation=f.type)
                    for f in dataclasses.fields(cls)
                ],
                return_annotation=None,
            )
        return sig


def frozen(cls=None, /, *, eq: bool = True):
    """Decorate ``cls`` as ``dataclass(frozen=True, eq=eq)`` would."""
    if cls is None:
        return lambda cls: frozen(cls, eq=eq)
    dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fs = dataclasses.fields(cls)
    if len(fs) != len(cls.__dataclass_fields__) or any(
        f.default_factory is not _MISSING or not f.init or f.kw_only or f.hash is not None
        for f in fs
    ):
        raise TypeError(f"frozen does not support the fields of {cls.__qualname__}")
    name = cls.__qualname__
    names = tuple(f.name for f in fs)
    n = len(names)
    known = frozenset(names)
    required = frozenset(f.name for f in fs if f.default is _MISSING)
    template = {f.name: f.default for f in fs}  # field order
    post_init = getattr(cls, "__post_init__", None)

    def check(args, kwargs):
        """Raise the ``TypeError`` of a call that does not give each field once."""
        given = set(names[: len(args)])
        if len(args) > n or not given.isdisjoint(kwargs):
            raise TypeError(f"{name}() got too many or repeated arguments")
        if not kwargs.keys() <= known:
            raise TypeError(f"{name}() got unknown fields {set(kwargs) - known}")
        if not required <= given.union(kwargs):
            raise TypeError(f"{name}() is missing fields {required - given.union(kwargs)}")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            # one dict update in field order: cheaper than a store a field
            # for the many-field records built by name
            state = vars(self)
            state.update(template)
            state.update(zip(names, args))
            state.update(kwargs)
            if args or len(state) != n or len(kwargs) != n:
                check(args, kwargs)
        else:
            # all by position, as the one-field wrappers every solve makes
            # are: values stored inline read faster than from a dict
            for field, value in zip(names, args):
                _store(self, field, value)
        if post_init is not None:
            post_init(self)

    def __setattr__(self, field, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {field!r}")

    shown = tuple(f.name for f in fs if f.repr)

    def __repr__(self):
        inner = ", ".join(f"{field}={getattr(self, field)!r}" for field in shown)
        return f"{type(self).__qualname__}({inner})"

    methods = [__init__, __setattr__, __delattr__, __repr__]
    if eq:
        compared = [f.name for f in fs if f.compare]
        get = operator.attrgetter(*compared)
        # a tuple for a single field too, as a dataclass compares
        key = get if len(compared) > 1 else lambda obj: (get(obj),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        methods += [__eq__, __hash__]
    for method in methods:
        method.__qualname__ = f"{name}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__signature__ = _Signature()
    return cls
