"""Straight-line float code of the shared decisions.

classify._class_code, curvature._gauss_mean and curvature._packet_fields
are written once against a few operations, `ops` (where, not_, max,
hypot, sqrt, pow, div), so that lcframe.arrays runs them over the arrays
of a block.  For the floats of one point, float_code compiles each of
them, once per process on first use, into eager straight-line Python.
straight_code gives the statements of several decisions traced one
after the other, for a caller that compiles them into a loop of its
own: limits' ray kernel runs the class and the record of every sample
of a ray in one function.  compile_function compiles such generated
functions, and limits' fit kernel of numerics' straight-line fits, with
the names the code reads.

A function is traced: it runs once on symbolic values (the roots it
reads from `inv` and its other parameters besides `ops`), and each
operation on them is recorded in the order it runs.  A `where` becomes
`a if cond else b`; pow and div compute only where their mask holds and
give NaN elsewhere.  An operation that can raise (a division, pow, sqrt,
the call of a parameter, unpacking) is one assignment to a new local,
in that order.  A pure one (+, -, *, comparisons, &, |, not, abs, max,
hypot, where), which never raises and only computes, is written into
the operation that reads its value, in parentheses, when that is the
one read and no result reads it; otherwise it too is an assignment.  So
the code performs the operations the interpreted run performs on floats,
on the same operands, and raises where it raises: a pure operation may
run later, or not at all when it is the arm of a `where` not taken,
which changes no value.  Its values and its exceptions are that run's,
bit for bit (but for the sign of a NaN, which CPython's own float
arithmetic does not keep from one call to the next).  Nothing is folded.

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

import math
from collections import Counter
from functools import cache
from types import CodeType, FunctionType
from typing import NamedTuple

from .expr import _file_name
from .surface import BasicInvariants

__all__ = ["TraceError", "StraightCode", "compile_function", "float_code", "roots_read",
           "straight_code"]


class TraceError(TypeError):
    """A function cannot be traced into straight-line code."""


class _Value:
    """A value of the traced run: the local `name` of the code."""

    __slots__ = ("_code", "name")

    def __init__(self, code, name):
        self._code, self.name = code, name

    def _binary(template, reflected=False, pure=True):
        if reflected:
            return lambda self, other: self._code.assign(template, other, self, pure=pure)
        return lambda self, other: self._code.assign(template, self, other, pure=pure)

    __add__, __radd__ = _binary("{0} + {1}"), _binary("{0} + {1}", True)
    __sub__, __rsub__ = _binary("{0} - {1}"), _binary("{0} - {1}", True)
    __mul__, __rmul__ = _binary("{0} * {1}"), _binary("{0} * {1}", True)
    # a division by zero raises
    __truediv__ = _binary("{0} / {1}", pure=False)
    __rtruediv__ = _binary("{0} / {1}", True, pure=False)
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
        return self._code.assign(f"{{0}}({_fields(1, len(args))})", self, *args, pure=False)

    def __iter__(self):
        """Unpacks the value into a pair, as `a, b = value` does."""
        first, second = self._code.new(), self._code.new()
        self._code.steps.append(_Step((first.name, second.name), "{0}", (self,), False))
        return iter((first, second))

    def __bool__(self):
        raise TraceError(f"the traced code would branch on the value {self.name}")


class _Step(NamedTuple):
    """One operation of a traced run: targets = template(*operands)."""

    targets: tuple  # the names of the locals it assigns
    template: str
    operands: tuple
    pure: bool  # whether it never raises and does nothing but compute


class _Code:
    """The operations of a traced run, in the order it performs them."""

    def __init__(self):
        self.steps = []
        self.reads = {}  # root name -> its value, in the order first read
        self.locals = 0

    def new(self):
        """A new local _t<n>."""
        self.locals += 1
        return _Value(self, f"_t{self.locals - 1}")

    def assign(self, template, *operands, pure=True):
        value = self.new()
        self.steps.append(_Step((value.name,), template, operands, pure))
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


def _spelled(x):
    """The code of a result, as its structure: the tuples and dicts of x
    kept, with each operand spelled."""
    if type(x) is tuple:
        return tuple(map(_spelled, x))
    if type(x) is dict:
        return {k: _spelled(item) for k, item in x.items()}
    return _spell(x)


def _expression(spelled):
    """The expression that builds a spelled result."""
    if type(spelled) is tuple:
        return "(" + "".join(f"{_expression(item)}, " for item in spelled) + ")"
    if type(spelled) is dict:
        return "{" + "".join(f"{k!r}: {_expression(item)}, " for k, item in spelled.items()) + "}"
    return spelled


class _Roots:
    """The `inv` of a traced run: each name read is a root, a value named
    as it; straight_code checks that it is among the program's."""

    __slots__ = ("_code",)

    def __init__(self, code):
        self._code = code

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
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

    # these raise on a negative radicand, an overflow or a zero divisor
    def sqrt(self, x):
        return self._code.assign("sqrt({0})", x, pure=False)

    def pow(self, x, p, where):
        return self._code.assign("{0} ** {1} if {2} else nan", x, p, where, pure=False)

    def div(self, a, b, where):
        return self._code.assign("{0} / {1} if {2} else nan", a, b, where, pure=False)


#: The names the code reads besides its locals: what ops spells.
_NAMESPACE = {"__builtins__": {}, "abs": abs, "max": max, "hypot": math.hypot,
              "sqrt": math.sqrt, "nan": math.nan, "inf": math.inf}


class _Trace(NamedTuple):
    params: tuple  # the fns' parameters besides inv and ops, in order
    reads: tuple  # the roots read, in the order first read
    parts: tuple  # (statements, spelled result) of each fn


@cache
def _trace(fns):
    """The trace of the functions fns, each fn(inv, ..., ops=...), run
    one after the other on one set of symbolic roots, so that their
    locals are distinct; a parameter name they share is one value.  A
    fn's parameters are the names its code object lists first."""
    code = _Code()
    roots, ops, params, parts = _Roots(code), _Ops(code), {}, []
    for fn in fns:
        fn_code = fn.__code__
        _, *rest = fn_code.co_varnames[:fn_code.co_argcount + fn_code.co_kwonlyargcount]
        names = [p for p in rest if p != "ops"]
        for p in names:
            params.setdefault(p, _Value(code, p))
        start = len(code.steps)
        result = fn(roots, ops=ops, **{p: params[p] for p in names})
        parts.append((code.steps[start:], _spelled(result)))
    uses = Counter(x.name for step in code.steps for x in step.operands if type(x) is _Value)
    kept = set(_leaves([spelled for _, spelled in parts]))
    return _Trace(tuple(params), tuple(code.reads), tuple(
        (_statements(steps, uses, kept), spelled) for steps, spelled in parts))


def _statements(steps, uses, kept):
    """The code of steps: one assignment each, but for a pure step whose
    local one later step reads, once, and no result reads.  That step's
    expression is written, in parentheses, into the step that reads it,
    as its operand.  uses counts the reads of each local by the steps,
    and kept holds the names the results read."""
    inline, lines = {}, []
    for step in steps:
        text = step.template.format(*(
            f"({inline.pop(x.name)})" if type(x) is _Value and x.name in inline else _spell(x)
            for x in step.operands))
        name = step.targets[0]
        if step.pure and uses[name] == 1 and name not in kept:
            inline[name] = text
        else:
            lines.append(f"{', '.join(step.targets)} = {text}")
    return tuple(lines)


def _leaves(spelled):
    """The spellings in a structure of spelled results."""
    if type(spelled) in (tuple, list):
        return [leaf for item in spelled for leaf in _leaves(item)]
    if type(spelled) is dict:
        return _leaves(list(spelled.values()))
    return [spelled]


def roots_read(*fns):
    """The roots that the decisions fns read, in BasicInvariants order."""
    read = {name for fn in fns for name in _trace((fn,)).reads}
    return tuple(name for name in BasicInvariants._fields if name in read)


class StraightCode(NamedTuple):
    """The straight-line code of decisions run one after the other on
    the roots of one point.

    unpack is the target list of an assignment from a tuple of the
    values of `fields` (a program's values): it binds each root the
    decisions read to a local of its own name.  params are the
    decisions' parameters besides inv and ops, each a local of its own
    name.  parts holds (lines, result) of each decision: its
    assignments, to locals _t<n>, and what it returns, spelled as the
    same structure of tuples and dicts with each value a local's name
    or a constant's code."""

    unpack: str
    params: tuple
    parts: tuple


def straight_code(fns, fields):
    """The StraightCode of the decisions fns, in that order, over a tuple
    of the values of the root names `fields`."""
    trace = _trace(tuple(fns))
    missing = [name for name in trace.reads if name not in fields]
    if missing:
        names = ", ".join(fn.__name__ for fn in fns)
        raise TraceError(f"{names} reads {missing}, which are not among {fields}")
    unpack = "".join(f"{name if name in trace.reads else '_'}, " for name in fields)
    return StraightCode(unpack, trace.params, trace.parts)


def compile_function(source, names=None):
    """The function that source, one def statement, defines: its global
    names are those of the float code, plus `names` (name -> object),
    and its file name is its source's own (expr._file_name)."""
    module = compile(source, _file_name("float-code", source), "exec")
    code = next(c for c in module.co_consts if isinstance(c, CodeType))
    return FunctionType(code, _NAMESPACE if names is None else {**_NAMESPACE, **names})


@cache
def float_code(fn, fields):
    """fn compiled for floats: a function (roots, *params) -> what
    fn(inv, *params, ops=...) returns on floats, where roots is a tuple
    of the values of the root names `fields`, in that order (a
    BasicInvariants, or a program's values), and params are fn's
    parameters besides inv and ops.  Compiled once per process for each
    fn and fields."""
    code = straight_code((fn,), fields)
    (lines, result), = code.parts
    return compile_function("\n".join([
        f"def {fn.__name__}(_roots{''.join(', ' + p for p in code.params)}):",
        f"    {code.unpack}= _roots",
        *(f"    {line}" for line in lines),
        f"    return {_expression(result)}",
    ]))
