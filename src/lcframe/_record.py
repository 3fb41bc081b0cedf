"""The record base of lcframe's value classes.

A record class lists its fields, in order, as its __slots__.  A record
prints as ``Name(field=value, ...)``, equals only a record of its own
class whose fields are equal, hashes by its fields and refuses
assignment with an AttributeError.  A class declared with
``mutable=True`` takes assignment and has no hash.  Copies and pickles
carry the fields as they are, without calling __init__.

The base __init__ takes the fields positionally or by keyword, the last
ones defaulting to the class's _defaults; a list default is copied for
each record.  A class that checks its fields, or that is built once per
node, vector or sample, writes its own __init__ and sets each field with
_set, which builds no dict of arguments.

The module imports nothing: plain classes cost no import of
dataclasses, which loads inspect, ast, dis and tokenize, and no
generated code per class.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    #: the field names, in order: the class's __slots__
    _fields = ()
    #: the default values of the last len(_defaults) fields
    _defaults = ()

    def __init_subclass__(cls, mutable=False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = cls.__slots__
        if mutable:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields, defaults = self._fields, self._defaults
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            if field in values:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            values[field] = value
        first_default = len(fields) - len(defaults)
        for i, field in enumerate(fields):
            if field in values:
                value = values[field]
            elif i >= first_default:
                value = defaults[i - first_default]
                if type(value) is list:
                    value = value.copy()
            else:
                raise TypeError(f"{name}() missing required argument {field!r}")
            _set(self, field, value)

    def _astuple(self):
        return tuple([getattr(self, field) for field in self._fields])

    def __repr__(self):
        fields = ", ".join([f"{field}={getattr(self, field)!r}" for field in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return self._astuple()

    def __setstate__(self, state):
        for field, value in zip(self._fields, state):
            _set(self, field, value)
