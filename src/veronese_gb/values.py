"""Plain-class bases for the package's value types and result records.

``Value.__init__`` stores a value's fields; a subclass writes ``__init__``
only for its signature, defaults, validation and derived attributes.  A
record's ``__init__`` sets its own attributes.  Nothing here generates code:
every CLI command starts a process, and the dataclass machinery (importing
``dataclasses`` and ``inspect``, then compiling methods for each class) cost
a fifth of a small command.
"""

from __future__ import annotations

# How a value's ``__init__`` sets its attributes, past ``Value.__setattr__``.
# A name bound once is cheaper than looking up ``object.__setattr__`` on each
# call.
init_attr = object.__setattr__


def _repr(obj, items):
    return "%s(%s)" % (type(obj).__qualname__, ", ".join(
        f"{name}={value!r}" for name, value in items))


class Value:
    """An immutable value, equal to another of its class with equal fields.

    A subclass names its fields, in constructor order, in ``_fields``, and
    its ``__init__`` hands their values to ``Value.__init__``, which sets
    each field and ``_values``, the tuple that equality, hashing and repr
    read, with ``init_attr``.  That keeps the attributes in the instance's
    inline storage, from which the order-key memo is read millions of times;
    writing to ``__dict__`` would make every later read slower.  Derived
    attributes, set after it with ``init_attr`` or filled by
    ``cached_property``, stay out of equality, hashing and repr.
    """

    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} has "
                            f"{len(self._fields)} fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            init_attr(self, name, value)
        init_attr(self, "_values", values)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __ne__(self, other):
        if self is other:
            return False
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values != other._values

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._values)
            init_attr(self, "_hash", h)
            return h

    def __repr__(self):
        return _repr(self, zip(self._fields, self._values))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__qualname__} is immutable")


class Record:
    """A mutable result whose fields are its instance attributes, set by
    ``__init__`` in constructor order.

    Equal to another of its class with equal fields; being mutable, it is
    not hashable.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __repr__(self):
        return _repr(self, self.__dict__.items())
