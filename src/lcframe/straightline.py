"""Straight-line float code of the shared decisions.

classify._class_code, curvature._gauss_mean and curvature._packet_fields
are written once against a few operations, `ops` (where, not_, max,
hypot, sqrt, pow, div), so that lcframe.arrays runs them over the arrays
of a block.  For the floats of one point, float_code compiles each of
them, once per process on first use, into eager straight-line Python.

The function is traced: it runs once on symbolic values (the roots it
reads from `inv` and its other parameters besides `ops`), and each
operation on them is recorded, in the order it runs, as one assignment
to a new local.  A `where` becomes `a if cond else b` over its two arms,
both computed before it, as a call of a plain function computes its
arguments; pow and div compute only where their mask holds and give NaN
elsewhere.  So the code performs the operations the interpreted run
performs on floats, in the same order and on the same operands: its
values and its exceptions are that run's, bit for bit (but for the sign
of a NaN, which CPython's own float arithmetic does not keep from one
call to the next).  Nothing is folded or dropped.

A traced value takes part in arithmetic, comparisons, & and |, abs and
negation; it may be called (a parameter that is a function) and
unpacked into a pair (what such a call returns).  Anything that needs
its truth, such as `if`, `and` or `bool()`, raises TraceError while
tracing, since the code cannot branch on a value it does not know.

roots_read gives the roots a set of decisions reads, from their traces,
so a program of exactly those roots cannot drift from the decisions.
Importing lcframe traces and compiles nothing.
"""

from __future__ import annotations

import inspect
import math
from functools import cache
from types import CodeType, FunctionType
from typing import NamedTuple

from .surface import BasicInvariants

__all__ = ["TraceError", "float_code", "roots_read"]


class TraceError(TypeError):
    """A function cannot be traced into straight-line code."""


class _Value:
    """A value of the traced run: the local `name` of the code."""

    __slots__ = ("_code", "name")

    def __init__(self, code, name):
        self._code, self.name = code, name

    def _binary(template, reflected=False):
        if reflected:
            return lambda self, other: self._code.assign(template, other, self)
        return lambda self, other: self._code.assign(template, self, other)

    __add__, __radd__ = _binary("{0} + {1}"), _binary("{0} + {1}", True)
    __sub__, __rsub__ = _binary("{0} - {1}"), _binary("{0} - {1}", True)
    __mul__, __rmul__ = _binary("{0} * {1}"), _binary("{0} * {1}", True)
    __truediv__, __rtruediv__ = _binary("{0} / {1}"), _binary("{0} / {1}", True)
    __and__, __rand__ = _binary("{0} & {1}"), _binary("{0} & {1}", True)
    __or__, __ror__ = _binary("{0} | {1}"), _binary("{0} | {1}", True)
    # a reflected comparison is the mirrored one, as Python calls it
    __lt__, __le__ = _binary("{0} < {1}"), _binary("{0} <= {1}")
    __gt__, __ge__ = _binary("{0} > {1}"), _binary("{0} >= {1}")
    __eq__, __ne__ = _binary("{0} == {1}"), _binary("{0} != {1}")
    __hash__ = None
    del _binary

    def __neg__(self):
        return self._code.assign("-{0}", self)

    def __abs__(self):
        return self._code.assign("abs({0})", self)

    def __call__(self, *args):
        return self._code.assign(f"{{0}}({_fields(1, len(args))})", self, *args)

    def __iter__(self):
        """Unpacks the value into a pair, as `a, b = value` does."""
        first, second = self._code.new(), self._code.new()
        self._code.lines.append(f"{first.name}, {second.name} = {self.name}")
        return iter((first, second))

    def __bool__(self):
        raise TraceError(f"the traced code would branch on the value {self.name}")


class _Code:
    """The assignments of a traced run, in the order it performs them."""

    def __init__(self):
        self.lines = []
        self.reads = {}  # root name -> its value, in the order first read
        self.locals = 0

    def new(self):
        """A new local _t<n>."""
        self.locals += 1
        return _Value(self, f"_t{self.locals - 1}")

    def assign(self, template, *operands):
        value = self.new()
        self.lines.append(f"{value.name} = " + template.format(*map(_spell, operands)))
        return value


def _fields(first, n):
    """The replacement fields {first}, ..., {first + n - 1} of a template."""
    return ", ".join(f"{{{i}}}" for i in range(first, first + n))


def _spell(x):
    """The code of an operand: a traced value's name, or a constant."""
    if type(x) is _Value:
        return x.name
    if type(x) in (bool, int):
        return f"({x!r})" if x < 0 else repr(x)
    if type(x) is float:
        if math.isnan(x):
            raise TraceError("a NaN constant has no spelling that keeps its payload")
        text = repr(abs(x)) if math.isfinite(x) else "inf"
        return f"(-{text})" if math.copysign(1.0, x) < 0.0 else text
    raise TraceError(f"cannot spell a {type(x).__name__} in float code")


def _spell_result(x):
    """The code of a result: tuples and dicts of operands."""
    if type(x) is tuple:
        return "(" + "".join(f"{_spell_result(item)}, " for item in x) + ")"
    if type(x) is dict:
        return "{" + "".join(f"{k!r}: {_spell_result(item)}, " for k, item in x.items()) + "}"
    return _spell(x)


class _Roots:
    """The `inv` of a traced run: each root read is a value named as it."""

    __slots__ = ("_code",)

    def __init__(self, code):
        self._code = code

    def __getattr__(self, name):
        if name not in BasicInvariants._fields:
            raise TraceError(f"{name!r} is not a root")
        value = self._code.reads.get(name)
        if value is None:
            value = self._code.reads[name] = _Value(self._code, name)
        return value


class _Ops:
    """The operations of the shared decisions, recorded as code."""

    __slots__ = ("_code",)

    def __init__(self, code):
        self._code = code

    def where(self, cond, a, b):
        return self._code.assign("{1} if {0} else {2}", cond, a, b)

    def not_(self, x):
        return self._code.assign("not {0}", x)

    def max(self, *xs):
        return self._code.assign(f"max({_fields(0, len(xs))})", *xs)

    def hypot(self, x, y):
        return self._code.assign("hypot({0}, {1})", x, y)

    def sqrt(self, x):
        return self._code.assign("sqrt({0})", x)

    def pow(self, x, p, where):
        return self._code.assign("{0} ** {1} if {2} else nan", x, p, where)

    def div(self, a, b, where):
        return self._code.assign("{0} / {1} if {2} else nan", a, b, where)


#: The names the code reads besides its locals: what ops spells.
_NAMESPACE = {"__builtins__": {}, "abs": abs, "max": max, "hypot": math.hypot,
              "sqrt": math.sqrt, "nan": math.nan, "inf": math.inf}


class _Trace(NamedTuple):
    params: tuple  # fn's parameters besides inv and ops, in order
    reads: tuple  # the roots read, in the order first read
    lines: tuple  # the assignments
    result: str  # the code of the returned structure


@cache
def _trace(fn):
    """The trace of fn(inv, ..., ops=...) on symbolic values."""
    _, *rest = inspect.signature(fn).parameters
    params = tuple(p for p in rest if p != "ops")
    code = _Code()
    result = fn(_Roots(code), ops=_Ops(code), **{p: _Value(code, p) for p in params})
    return _Trace(params, tuple(code.reads), tuple(code.lines), _spell_result(result))


def roots_read(*fns):
    """The roots that the decisions fns read, in BasicInvariants order."""
    read = {name for fn in fns for name in _trace(fn).reads}
    return tuple(name for name in BasicInvariants._fields if name in read)


@cache
def float_code(fn, fields):
    """fn compiled for floats: a function (roots, *params) -> what
    fn(inv, *params, ops=...) returns on floats, where roots is a tuple
    of the values of the root names `fields`, in that order (a
    BasicInvariants, or a program's values), and params are fn's
    parameters besides inv and ops.  Compiled once per process for each
    fn and fields."""
    trace = _trace(fn)
    missing = [name for name in trace.reads if name not in fields]
    if missing:
        raise TraceError(f"{fn.__name__} reads {missing}, which are not among {fields}")
    unpack = "".join(f"{name if name in trace.reads else '_'}, " for name in fields)
    source = "\n".join([
        f"def {fn.__name__}(_roots{''.join(', ' + p for p in trace.params)}):",
        f"    {unpack}= _roots",
        *(f"    {line}" for line in trace.lines),
        f"    return {trace.result}",
    ])
    module = compile(source, f"<lcframe-float-code {fn.__name__}>", "exec")
    code = next(c for c in module.co_consts if isinstance(c, CodeType))
    return FunctionType(code, _NAMESPACE)
