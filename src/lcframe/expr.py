"""A small expression language over the variables u and v.

Surface components are written in this language and differentiated
symbolically, so every invariant field downstream is built from exact
analytic derivatives rather than finite differences.

simplify and differentiate return DAGs: a derivation context (Dag)
interns every node it builds, so an equal subexpression is one shared
node, and it memoises both operations per node.  A derivation costs time
linear in its distinct subexpressions, and compile_program numbers each
shared node once.  The trees are only shared, not rewritten: the folds
are literal (zeros, ones, constant arithmetic, double negation), and a
derivative equals the chain rule's tree with those folds applied.

compile_program, compile_grid_program and compile_edge_kernels share
code by shape.  A program's shape is the value numbering of its trees
with each constant abstracted to a parameter _k<i>; the code of a shape
is compiled once per process (the SHAPES most recently used are kept),
and each program is that code with its own constants bound to those
parameters, which it reads as locals.  Trees that differ only in their
constants, such as a surface's and those of its images under X -> cX,
a Lorentz transformation or a parameter shift, compile once.  A
numbering's table and uses compute their hash once (_HashedTuple), and
the programs of one shape share them, so finding a known shape's code
hashes no table again.

A parse with slots shares what comes before the code too: each generic
constant is a Slot leaf, which no rule folds, so those trees are one
tree before they are derived, and the surfaces whose texts have one
token key derive and number it once per process (surface.SurfaceDef);
a numbering's slots are bound to each surface's values
(_Numbering.bound).  A value computed from constants alone, which a
literal derivation folds into one constant, is computed at run time
with the same operation on the same operands, so its bits are the
same.  Where it is 0.0 or +-1.0, on which the rules fold further,
_Numbering.folds_further says so, and the surface takes its literal
derivation, once, for that program and every later one.  Shared codes
and trees are never changed once made, so threads may share them;
threads racing on a miss make equal ones, and one is kept.

Source text is read by one regular expression (_TOKEN), whose classes
are those of str.isspace, isdigit, isalpha and isalnum.  A text's token
key (_token_key) is its tokens with each generic constant its slot
index, formed without parsing: texts with equal keys parse with slots
to equal trees, so a table keyed by it reads a known text's constants
from its tokens, and a miss parses (surface.SurfaceDef's shapes, which
it also derives, and constant_value's domain bounds).

A tree has three kinds of program, each compiled from its numbering:
the point program; the grid program, which samples the trees over a
tensor grid computing each value where its variables change; and, for
one tree, two bisection kernels, one per held variable (a u-edge holds
v, a v-edge holds u), which refine a sign change on an edge in one
frame with the point program's values and errors, calling that point
program only on a fault.  A surface keeps the programs of its roots in
one table (surface.SurfaceDef.program); CompiledField bundles the
three for a standalone tree.  Derivatives are trees (differentiate),
compiled like any other.
Every entry point that recurses once per tree level (parse, the Dag
operations, the compile functions) turns input nested too deeply into
an ExprError.

Grammar::

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)?
    exponent := ['-'] INT | '(' ['-'] INT ')'
    atom     := NUMBER | 'pi' | 'u' | 'v' | FUNC '(' expr ')' | '(' expr ')'

Binary +, -, *, / associate to the left; '^' takes an integer literal
exponent and binds tighter than unary minus.  FUNC is one of sin, cos,
tan, exp, log, sqrt, abs, sinh, cosh.
"""

from __future__ import annotations

import math
import re
import zlib
from functools import lru_cache, reduce
from itertools import compress
from operator import add, itemgetter, mul, neg, or_, sub
from types import CodeType, FunctionType
from typing import NamedTuple

from ._record import Record, _set
from .errors import LcframeError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "Dag",
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "EvalDomainError",
    "parse",
    "differentiate",
    "evaluate",
    "simplify",
    "to_source",
    "CompiledField",
    "compile_field",
    "compile_program",
    "compile_grid_program",
    "compile_edge_kernels",
    "HALVINGS",
    "MAX_NESTING",
    "NumberEnv",
    "SCALAR",
    "FUNCTION_NAMES",
]


class ExprError(LcframeError):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    """Malformed source text.

    Carries the byte offset, 1-based line/column, and the set of token
    kinds that would have been accepted at that point.
    """

    def __init__(self, message, source, offset, expected=()):
        self.source = source
        self.offset = offset
        self.line = source.count("\n", 0, offset) + 1
        self.column = offset - (source.rfind("\n", 0, offset) + 1) + 1
        self.expected = tuple(expected)
        loc = f"line {self.line}, column {self.column} (offset {offset})"
        if self.expected:
            message = f"{message}; expected one of: {', '.join(self.expected)}"
        super().__init__(f"{message} at {loc}")


class UnknownIdentifierError(ExprSyntaxError):
    def __init__(self, name, source, offset):
        self.name = name
        super().__init__(f"unknown identifier {name!r}", source, offset)


class EvalDomainError(ExprError):
    """Evaluation left the real domain (division by zero, log of a
    nonpositive number, sqrt of a negative number, overflow, ...)."""


def _too_deep(what, exc):
    """The ExprError of a tree nested too deeply for Python to what
    (simplify, differentiate, compile) it: exc is the RecursionError, or
    the SyntaxError of too many nested parentheses, that it raised."""
    return ExprError(f"expression nested too deeply to {what}: {exc}")


# ---------------------------------------------------------------------------
# AST


class Expr(Record):
    """Base class of expression nodes.

    A node is a record (lcframe._record): its fields are its __slots__,
    set once by its constructor, positionally or by keyword, and never
    assigned again (an AttributeError).  It prints as
    Name(field=value, ...), equals only a node of its own class with
    equal fields (so Add(a, b) != Sub(a, b)), hashes by its fields, and
    copies and pickles by them.  Const compares and hashes by the repr
    of its value."""

    __slots__ = ()


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        _set(self, "value", value)

    # by repr, as a Dag interns constants: 0.0 and -0.0 are two trees,
    # and Const(nan) is one
    def __eq__(self, other):
        return type(other) is Const and repr(self.value) == repr(other.value)

    def __hash__(self):
        return hash(repr(self.value))


class Slot(Expr):
    """The index-th generic constant of a parse with slots (parse): a
    leaf that no rule folds, whose value a program binds."""

    __slots__ = ("index",)

    def __init__(self, index):
        _set(self, "index", index)


class Var(Expr):
    __slots__ = ("name",)  # "u" or "v"

    def __init__(self, name):
        _set(self, "name", name)


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        _set(self, "arg", arg)


def _binary(self, left, right):
    _set(self, "left", left)
    _set(self, "right", right)


class Add(Expr):
    __slots__ = ("left", "right")
    __init__ = _binary


class Sub(Expr):
    __slots__ = ("left", "right")
    __init__ = _binary


class Mul(Expr):
    __slots__ = ("left", "right")
    __init__ = _binary


class Div(Expr):
    __slots__ = ("left", "right")
    __init__ = _binary


class Pow(Expr):
    __slots__ = ("base", "exponent")  # an Expr, an int

    def __init__(self, base, exponent):
        _set(self, "base", base)
        _set(self, "exponent", exponent)


class Call(Expr):
    __slots__ = ("fn", "arg")  # a name of FUNCTION_NAMES or "sign", an Expr

    def __init__(self, fn, arg):
        _set(self, "fn", fn)
        _set(self, "arg", arg)


# 'sign' is not part of the surface grammar; it only appears in
# derivatives of abs, where the result is non-smooth at the origin.
FUNCTION_NAMES = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "sinh", "cosh")

_CONSTANTS = {"pi": math.pi}
_VARIABLES = ("u", "v")


# ---------------------------------------------------------------------------
# Tokenizer / parser


_TOKEN_OPS = "+-*/^(),"

#: A number: digits and dots, led by a digit or by a dot before a digit,
#: then an exponent where digits follow e or E and its sign.
_NUMBER = r"(?:[0-9]|\.(?=[0-9]))[0-9.]*(?:[eE][+-]?[0-9]+)?"

#: One token after any whitespace, as the group: a number, an identifier,
#: or any other character (an operator, or an error).  \s and \w are
#: str.isspace and str.isalnum or "_"; the other classes are ASCII, so a
#: text that is not is read through _classes.
_TOKEN = re.compile(rf"\s*({_NUMBER}|[A-Za-z_]\w*|\S)")


def _classes(source):
    """source with each character that is not ASCII written as _TOKEN
    must read it: a digit (str.isdigit) as 0, a letter (str.isalpha) as
    a, and any other as itself.  Each keeps its offset."""
    if source.isascii():
        return source
    return "".join(c if c.isascii() else "0" if c.isdigit() else "a" if c.isalpha() else c
                   for c in source)


def _tokenize(source):
    tokens = []  # (kind, text_or_value, offset)
    classes = _classes(source)
    # to the last token: trailing whitespace is no token, and matching
    # it from each of its offsets would take time quadratic in its length
    for match in _TOKEN.finditer(classes, 0, len(classes.rstrip())):
        i, j = match.span(1)
        first, text = classes[i], source[i:j]
        if first in _TOKEN_OPS:
            tokens.append((first, first, i))
        elif first == "_" or first.isalpha():
            tokens.append(("ident", text, i))
        elif j - i > 1 or first.isdigit():
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {text!r}", source, i) from None
            tokens.append(("number", value, i))
        else:
            raise ExprSyntaxError(f"unexpected character {text!r}", source, i,
                                  expected=("number", "identifier", "operator"))
    tokens.append(("end", "", len(source)))
    return tokens


#: How deeply parentheses, calls and unary minus may nest in source
#: text.  Deeper input is a syntax error at the first token nested
#: deeper, so the error depends on the input alone, not on the caller's
#: stack or the recursion limit.
MAX_NESTING = 128


#: The constants a derivation's rules test for (Dag._fold): never a slot.
_FOLDED_VALUES = (0.0, 1.0, -1.0)


class _Parser:
    def __init__(self, source, slots=None):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0
        self.slots = slots

    def constant(self, value):
        """The leaf of a literal value: its Const, or with slots the
        Slot of a generic value, one per repr."""
        if self.slots is None or value in _FOLDED_VALUES:
            return Const(value)
        return self.slots.setdefault(repr(value), Slot(len(self.slots)))

    def enter(self):
        """Go one nesting level deeper, at the token here; the caller
        leaves the level by decrementing depth."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError("expression nested too deeply", self.source,
                                  self.peek()[2])
        self.depth += 1

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(
                f"unexpected {self._describe(tok)}", self.source, tok[2],
                expected=(kind,))
        return self.advance()

    @staticmethod
    def _describe(tok):
        kind, text, _ = tok
        if kind == "end":
            return "end of input"
        if kind == "number":
            return f"number {text!r}"
        if kind == "ident":
            return f"identifier {text!r}"
        return f"token {text!r}"

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(
                f"unexpected {self._describe(tok)}", self.source, tok[2],
                expected=("+", "-", "*", "/", "^", "end of input"))
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self):
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            # fold "-3" (a directly negated literal) into a constant;
            # "-(expr)" keeps its explicit negation node
            if self.peek()[0] == "number" and self.tokens[self.pos + 1][0] != "^":
                return self.constant(-float(self.advance()[1]))
            self.enter()
            e = Neg(self.unary())
            self.depth -= 1
            return e
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            exponent = self.exponent()
            return Pow(base, exponent)
        return base

    def exponent(self):
        tok = self.peek()
        if tok[0] == "(":
            self.advance()
            value = self._signed_int()
            self.expect(")")
            return value
        return self._signed_int()

    def _signed_int(self):
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if tok[0] != "number" or not tok[1].is_integer():
            raise ExprSyntaxError(
                f"power exponent must be an integer literal, got {self._describe(tok)}",
                self.source, tok[2], expected=("integer",))
        self.advance()
        return sign * int(tok[1])

    def atom(self):
        tok = self.peek()
        kind, text, offset = tok
        if kind == "number":
            self.advance()
            return self.constant(float(text))
        if kind == "(":
            self.advance()
            self.enter()
            e = self.expr()
            self.depth -= 1
            self.expect(")")
            return e
        if kind == "ident":
            self.advance()
            if text in _VARIABLES:
                return Var(text)
            if text in _CONSTANTS:
                return self.constant(_CONSTANTS[text])
            if text in FUNCTION_NAMES:
                self.expect("(")
                self.enter()
                arg = self.expr()
                self.depth -= 1
                self.expect(")")
                return Call(text, arg)
            raise UnknownIdentifierError(text, self.source, offset)
        raise ExprSyntaxError(
            f"unexpected {self._describe(tok)}", self.source, offset,
            expected=("number", "identifier", "'('", "'-'"))


def parse(source: str, slots: dict | None = None) -> Expr:
    """Parse source text into an expression tree.  Nesting deeper than
    MAX_NESTING is a syntax error at the first token nested deeper.

    With slots, a dict, each generic constant (a literal or pi, other
    than the values 0.0, -0.0, 1.0 and -1.0 that a derivation's rules
    test for; exponents are integers of the tree) is the Slot that slots
    maps its repr to, added in order of first appearance: equal
    constants are one Slot, and trees parsed with one dict number their
    slots together.  The values are float(repr) of slots' keys."""
    return _Parser(source, slots).parse()


#: The first characters of a constant token: a number's, and pi's.
_CONSTANT_FIRST = frozenset("0123456789.p")

#: The tokens after which a minus is unary: each operator but ")", as a
#: term ends with a number, an identifier or ")" before a binary minus.
_UNARY_AFTER = frozenset(_TOKEN_OPS) - {")"}


def _token_key(source, slots):
    """The token key of ASCII source text, or None for other text or a
    bad number literal: its tokens as _tokenize reads them, with each
    generic constant (a number or pi that parse with slots makes a Slot)
    its slot index, and each other number the repr of its value: an
    exponent's, and a constant 0.0, -0.0, 1.0 or -1.0.  A minus that
    parse folds into the number after it is folded in first, and is no
    token of the key.  slots, a dict shared by the texts keyed together,
    maps each generic constant's value to its index, added in order of
    first appearance; equal values are equal reprs there, as a slot is
    never 0.0 or -0.0 and a number never NaN.

    Texts with equal keys parse with slots to equal trees whatever their
    generic constants' values: each token the parser reads, and each
    decision it takes, is read from the key.  The key is formed without
    parsing, so a text that does not parse has one too, equal to no key
    of a text that does."""
    if not source.isascii():
        return None
    # to the last token, as in _tokenize
    tokens = _TOKEN.findall(source, 0, len(source.rstrip()))
    folded = []  # the offsets of minuses folded into the numbers after them
    for i in compress(range(len(tokens)),
                      map(_CONSTANT_FIRST.__contains__, map(itemgetter(0), tokens))):
        text = tokens[i]
        if text == "pi":
            value = math.pi
        elif text[0] == "p":
            continue
        else:
            try:
                value = float(text)
            except ValueError:
                return None
            prev = tokens[i - 1] if i else None
            if prev == "^" or (prev == "-" or prev == "(") and i > 1 and tokens[i - 2] == "^" or (
                    prev == "-" and i > 2 and tokens[i - 2] == "(" and tokens[i - 3] == "^"):
                tokens[i] = repr(value)  # an exponent (^n, ^-n, ^(n) or ^(-n)): an integer
                continue
            # parse's fold of a unary minus before a number (_Parser.unary)
            if prev == "-" and (i == 1 or tokens[i - 2] in _UNARY_AFTER) and (
                    i + 1 == len(tokens) or tokens[i + 1] != "^"):
                value = -value
                folded.append(i - 1)
        tokens[i] = (repr(value) if value in _FOLDED_VALUES
                     else slots.setdefault(value, len(slots)))
    for i in reversed(folded):
        del tokens[i]
    return tuple(tokens)


class _TokenKey(tuple):
    """A token key (_token_key) that carries the texts it was formed
    from, for a table keyed by it to parse them on a miss; it hashes and
    compares as the tuple alone."""

    def __new__(cls, key, sources):
        self = super().__new__(cls, key)
        self.sources = sources
        return self


# ---------------------------------------------------------------------------
# Simplification (literal zero/one folding only) and differentiation


_INFIX = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def _is_const(e, value):
    return type(e) is Const and e.value == value


class Dag:
    """A derivation context: simplify and differentiate over one shared DAG.

    Every node the context builds is interned, keyed by its class and its
    operands' ids (a constant by the repr of its value, so 0.0 and -0.0
    stay apart; a Slot by its index, and no rule folds a slot), and the
    table holds each node, so the ids stay valid.
    A node built by _fold is already simplified and is recorded as its
    own simplification.  simplify is memoised by node id and
    differentiate by (node id, variable), and each memo entry holds its
    node, so that no id is reused while the context lives.  The cost
    of a derivation is linear in the number of distinct subexpressions
    it meets, however often they are shared.

    A context only grows: build one per derivation job and drop it.  It
    is not safe to share between threads.
    """

    __slots__ = ("_nodes", "_simplified", "_derivatives", "_slotted")

    def __init__(self):
        self._nodes = {}  # intern key -> node
        self._simplified = {}  # id(e) -> (simplify(e), e)
        self._derivatives = {}  # (id(e), var) -> (differentiate(e, var), e)
        self._slotted = {}  # id(e) -> (whether e is a constant of slots, e)

    def _of_slots(self, e):
        """Whether e is a Slot, or a neg, +, - or * of Consts and such
        values with a slot among them: a value the rules fold into one
        Const once each Slot is a Const."""
        cls = type(e)
        if cls is Slot:
            return True
        if cls is not Neg and cls is not Add and cls is not Sub and cls is not Mul:
            return False
        hit = self._slotted.get(id(e))
        if hit is None:
            operands = (e.arg,) if cls is Neg else (e.left, e.right)
            others = [x for x in operands if type(x) is not Const]
            hit = self._slotted[id(e)] = (bool(others) and all(map(self._of_slots, others)), e)
        return hit[0]

    def _intern(self, key, cls, *operands, folded=True):
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = cls(*operands)
            if folded:
                self._simplified[id(node)] = (node, node)
        return node

    def node(self, cls, *operands):
        """The interned node of Neg or a binary operation over interned
        operands, as written: no rule is applied, so it may fold later."""
        return self._intern((cls, *map(id, operands)), cls, *operands, folded=False)

    def const(self, value):
        return self._intern((Const, repr(value)), Const, value)

    def _fold(self, cls, a, b=None):
        """The node cls(a[, b]) over simplified operands, with simplify's
        rules applied at its root: literal zeros, ones and constant
        arithmetic fold, and a double negation cancels.

        Neg takes (arg,), Pow (base, exponent), Call (fn, arg) and the
        binary operations (left, right).
        """
        if cls is Add:
            if _is_const(a, 0.0):
                return b
            if _is_const(b, 0.0):
                return a
            if type(a) is Const and type(b) is Const:
                return self.const(a.value + b.value)
        elif cls is Sub:
            if _is_const(b, 0.0):
                return a
            if _is_const(a, 0.0):
                return self._fold(Neg, b)
            if type(a) is Const and type(b) is Const:
                return self.const(a.value - b.value)
        elif cls is Mul:
            if _is_const(a, 0.0) or _is_const(b, 0.0):
                return self.const(0.0)
            if _is_const(a, 1.0):
                return b
            if _is_const(b, 1.0):
                return a
            if _is_const(a, -1.0):
                return self._fold(Neg, b)
            if _is_const(b, -1.0):
                return self._fold(Neg, a)
            if type(a) is Const and type(b) is Const:
                return self.const(a.value * b.value)
        elif cls is Div:
            if _is_const(a, 0.0):
                return self.const(0.0)
            if _is_const(b, 1.0):
                return a
        elif cls is Neg:
            if type(a) is Const:
                return self.const(-a.value)
            if type(a) is Neg:
                return a.arg
            return self._intern((Neg, id(a)), Neg, a)
        elif cls is Pow:
            if b == 0:
                return self.const(1.0)
            if b == 1:
                return a
            return self._intern((Pow, id(a), b), Pow, a, b)
        elif cls is Call:
            return self._intern((Call, a, id(b)), Call, a, b)
        return self._intern((cls, id(a), id(b)), cls, a, b)

    def simplify(self, e: Expr) -> Expr:
        """simplify(e), interned in this context."""
        try:
            return self._simplify(e)
        except RecursionError as exc:
            raise _too_deep("simplify", exc) from None

    def differentiate(self, e: Expr, var: str) -> Expr:
        """differentiate(e, var), interned in this context.

        Each case folds the chain rule's nodes as simplify would fold
        them, so the result is simplify of the chain rule's tree.
        """
        try:
            return self._differentiate(e, var)
        except RecursionError as exc:
            raise _too_deep("differentiate", exc) from None

    def _simplify(self, e):
        hit = self._simplified.get(id(e))
        if hit is not None:
            return hit[0]
        cls = type(e)
        if cls is Const:
            s = self.const(e.value)
        elif cls is Var:
            s = self._intern((Var, e.name), Var, e.name)
        elif cls is Slot:
            s = self._intern((Slot, e.index), Slot, e.index)
        elif cls is Neg:
            s = self._fold(Neg, self._simplify(e.arg))
        elif cls is Pow:
            s = self._fold(Pow, self._simplify(e.base), e.exponent)
        elif cls is Call:
            s = self._fold(Call, e.fn, self._simplify(e.arg))
        elif cls in _INFIX:
            s = self._fold(cls, self._simplify(e.left), self._simplify(e.right))
        else:
            raise ExprError(f"malformed expression node: {e!r}")
        self._simplified[id(e)] = (s, e)
        return s

    def _differentiate(self, e, var):
        key = (id(e), var)
        hit = self._derivatives.get(key)
        if hit is not None:
            return hit[0]
        if var not in _VARIABLES:
            raise ExprError(f"differentiation variable must be 'u' or 'v', got {var!r}")
        fold, S, D = self._fold, self._simplify, self._differentiate
        cls = type(e)
        if cls is Const or cls is Slot:
            d = self.const(0.0)
        elif cls is Var:
            d = self.const(1.0 if e.name == var else 0.0)
        elif cls is Neg:
            # a constant of slots differentiates as the Const it stands
            # for, to 0.0; the chain rule would give -0.0
            d = self.const(0.0) if self._of_slots(e.arg) else fold(Neg, D(e.arg, var))
        elif cls is Add or cls is Sub:
            d = fold(cls, D(e.left, var), D(e.right, var))
        elif cls is Mul or cls is Div:
            a, b = e.left, e.right
            # d(ab) = a'b + ab';  d(a/b) = (a'b - ab') / b^2
            d = fold(Add if cls is Mul else Sub,
                     fold(Mul, D(a, var), S(b)), fold(Mul, S(a), D(b, var)))
            if cls is Div:
                d = fold(Div, d, fold(Pow, S(b), 2))
        elif cls is Pow:
            n = e.exponent
            d = fold(Mul, fold(Mul, self.const(float(n)), fold(Pow, S(e.base), n - 1)),
                     D(e.base, var))
        elif cls is Call:
            d = fold(Mul, self._outer(e.fn, S(e.arg)), D(e.arg, var))
        else:
            raise ExprError(f"malformed expression node: {e!r}")
        self._derivatives[key] = (d, e)
        return d

    def _outer(self, fn, f):
        """The derivative of fn at the simplified argument f."""
        fold = self._fold
        if fn == "sin":
            return fold(Call, "cos", f)
        if fn == "cos":
            return fold(Neg, fold(Call, "sin", f))
        if fn == "tan":
            return fold(Div, self.const(1.0), fold(Pow, fold(Call, "cos", f), 2))
        if fn == "exp":
            return fold(Call, "exp", f)
        if fn == "log":
            return fold(Div, self.const(1.0), f)
        if fn == "sqrt":
            return fold(Div, self.const(0.5), fold(Call, "sqrt", f))
        if fn == "abs":
            # non-smooth at the origin of the argument; kept symbolic
            return fold(Call, "sign", f)
        if fn == "sinh":
            return fold(Call, "cosh", f)
        if fn == "cosh":
            return fold(Call, "sinh", f)
        if fn == "sign":
            return self.const(0.0)  # derivative away from the jump
        raise ExprError(f"unknown function {fn!r}")


def simplify(e: Expr) -> Expr:
    """Fold literal zeros, ones and constant arithmetic, bottom-up, and
    cancel double negations.  One pass reaches a fixed point.

    The result is a DAG: equal subexpressions are one shared node.  No
    algebraic rewriting happens here beyond the literal folds, so
    derivative trees stay faithful to the chain rule.  Runs in a fresh
    Dag; use one Dag for many related derivations.
    """
    return Dag().simplify(e)


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative with respect to 'u' or 'v'.

    The result equals the chain rule's tree with simplify's literal
    folds applied, built directly as a shared DAG in a fresh Dag.
    """
    return Dag().differentiate(e, var)


# ---------------------------------------------------------------------------
# Evaluation


def _sign(x):
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


def evaluate(e: Expr, u: float, v: float) -> float:
    """IEEE double evaluation of the tree at (u, v).

    Division by zero and out-of-domain function arguments raise
    EvalDomainError; results are checked finite so an overflow can never
    leak out as a silent infinity.
    """
    value = _eval(e, u, v)
    if not math.isfinite(value):
        raise EvalDomainError(f"non-finite result {value!r}")
    return value


def _eval(e, u, v):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return u if e.name == "u" else v
    if isinstance(e, Neg):
        return -_eval(e.arg, u, v)
    if isinstance(e, Add):
        return _eval(e.left, u, v) + _eval(e.right, u, v)
    if isinstance(e, Sub):
        return _eval(e.left, u, v) - _eval(e.right, u, v)
    if isinstance(e, Mul):
        return _eval(e.left, u, v) * _eval(e.right, u, v)
    if isinstance(e, Div):
        den = _eval(e.right, u, v)
        if den == 0.0:
            raise EvalDomainError("division by zero")
        return _eval(e.left, u, v) / den
    if isinstance(e, Pow):
        base = _eval(e.base, u, v)
        if base == 0.0 and e.exponent < 0:
            raise EvalDomainError("zero raised to a negative power")
        try:
            return base ** e.exponent
        except OverflowError:
            raise EvalDomainError("overflow in power") from None
    if isinstance(e, Call):
        x = _eval(e.arg, u, v)
        try:
            if e.fn == "log":
                if x <= 0.0:
                    raise EvalDomainError("log of a nonpositive argument")
                return math.log(x)
            if e.fn == "sqrt":
                if x < 0.0:
                    raise EvalDomainError("sqrt of a negative argument")
                return math.sqrt(x)
            if e.fn == "abs":
                return abs(x)
            if e.fn == "sign":
                return _sign(x)
            return getattr(math, e.fn)(x)
        except OverflowError:
            raise EvalDomainError(f"overflow in {e.fn}") from None
        except ValueError as exc:  # e.g. sin(inf) after 1/u overflowed
            raise EvalDomainError(str(exc)) from None
    raise ExprError(f"malformed expression node: {e!r}")


# ---------------------------------------------------------------------------
# Pretty-printing (round-trips through parse)


def _prec(e):
    if isinstance(e, (Const, Var, Call)):
        return 5
    if isinstance(e, Pow):
        return 4
    if isinstance(e, Neg):
        return 3
    if isinstance(e, (Mul, Div)):
        return 2
    return 1  # Add, Sub


def to_source(e: Expr) -> str:
    """Render the tree as source text; parse(to_source(e)) == e."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        # parenthesise so the result stays a Neg node when reparsed
        return f"-({to_source(e.arg)})"
    if isinstance(e, Add):
        return f"{_wrap(e.left, 1)} + {_wrap(e.right, 2)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.left, 1)} - {_wrap(e.right, 2)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, 2)}*{_wrap(e.right, 3)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, 2)}/{_wrap(e.right, 3)}"
    if isinstance(e, Pow):
        base = to_source(e.base)
        if not isinstance(e.base, (Var, Call)):
            base = f"({base})"
        exp = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
        return f"{base}^{exp}"
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    raise ExprError(f"malformed expression node: {e!r}")


def _wrap(e, min_prec):
    s = to_source(e)
    if _prec(e) < min_prec:
        return f"({s})"
    return s


# ---------------------------------------------------------------------------
# Compilation


def _non_finite(value):
    raise EvalDomainError(f"non-finite result {value!r}")


def _guarded_log(x):
    if x <= 0.0:
        raise EvalDomainError("log of a nonpositive argument")
    return math.log(x)


def _guarded_sqrt(x):
    if x < 0.0:
        raise EvalDomainError("sqrt of a negative argument")
    return math.sqrt(x)


_SCALAR_NAMESPACE = {
    "__builtins__": {},
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": _guarded_log,
    "sqrt": _guarded_sqrt,
    "_abs": abs,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "sign": _sign,
    "_isfinite": math.isfinite,
    "_non_finite": _non_finite,
}


def _scalar_program(fn):
    def program(u, v):
        try:
            return fn(u, v)
        except ZeroDivisionError:
            raise EvalDomainError("division by zero") from None
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(str(exc)) from None

    return program


class NumberEnv(NamedTuple):
    """How compile_program spells its program for one kind of number.

    `templates` maps each operation ("neg", "+", "-", "*", "/", "pow",
    "call") to code in which {0} and {1} stand for the operands and {p}
    for the exponent or the function name.  `root` spells the k-th root
    {k} computed by {text}, `params` the lambda's parameters, and `wrap`
    turns the lambda, evaluated in `namespace`, into the program.
    """

    namespace: dict
    templates: dict
    root: str
    params: str
    wrap: object


#: Python floats: every root is checked finite before the next starts,
#: and a fault raises EvalDomainError.
SCALAR = NumberEnv(
    namespace=_SCALAR_NAMESPACE,
    templates={"neg": "(-{0})", "+": "({0} + {1})", "-": "({0} - {1})",
               "*": "({0} * {1})", "/": "({0} / {1})",
               # parenthesised base: ** binds tighter than a leading minus
               "pow": "(({0}) ** ({p}))", "call": "{p}({0})"},
    root="_r{k} if _isfinite(_r{k} := {text}) else _non_finite(_r{k}), ",
    params="u, v",
    wrap=_scalar_program,
)


#: The operations of a numbering that a derivation computes when every
#: operand is a constant (Dag._fold), as it computes them.
_FOLDS = {"neg": neg, "+": add, "-": sub, "*": mul}


class _Numbering(NamedTuple):
    """A value numbering of trees, as _numbering gives it."""

    table: tuple
    uses: tuple
    roots: tuple
    constants: tuple

    def bound(self, values):
        """This numbering with each Slot among its constants replaced by
        values[slot index]: a program of it computes what the trees with
        those values as Consts compute, though a slot stays a value of
        its own beside an equal Const."""
        return _Numbering(self.table, self.uses, self.roots,
                          tuple([values[c.index] if type(c) is Slot else c for c in self.constants]))

    def folds(self):
        """The values that a derivation with each slot a Const would
        have folded into one constant: each neg, +, - or * of constants
        and such values, with a slot under it, as (n, op, *operands) in
        evaluation order.  (Div, pow and calls of constants do not fold.)"""
        slotted = {}  # n -> whether a slot is under constant value n
        out = []
        for n, (op, _, *operands) in enumerate(self.table):
            if not operands:
                if op not in _VARIABLES:
                    slotted[n] = type(self.constants[int(op[2:])]) is Slot
            elif op in _FOLDS and all(k in slotted for k in operands):
                slotted[n] = any(slotted[k] for k in operands)
                if slotted[n]:
                    out.append((n, op, *operands))
        return tuple(out)

    def folds_further(self, folds):
        """Whether one of folds (self.folds() of the numbering this one
        is bound from), computed from this numbering's constants with
        its own operation, is 0.0, -0.0, 1.0 or -1.0: a constant on
        which a derivation's rules (Dag._fold) fold further, so that the
        trees derived with each slot a Const may differ from these."""
        table, constants = self.table, self.constants
        values = {}  # n -> the value of fold n
        for n, op, *operands in folds:
            # an operand is a fold before n, or a constant _k<i>
            values[n] = _FOLDS[op](*(values[k] if k in values else constants[int(table[k][0][2:])]
                                     for k in operands))
            if values[n] in _FOLDED_VALUES:
                return True
        return False


class _HashedTuple(tuple):
    """A tuple that computes its hash once: a numbering's table and uses
    are hashed by every compile of their shape (_shared_code), and the
    numberings of the surfaces of one shape share them."""

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash


def _numbering(trees):
    """The value numbering of compile_program: (table, uses, roots,
    constants).

    table[n] is the entry of value n: (variable name, None), (_k<i>,
    None) for the i-th distinct constant, constants[i], which is the
    Slot itself for a slot (_Numbering.bound binds it), or (operation,
    exponent or function name, *operand numbers).  Values are numbered
    in evaluation order, post-order and left first, so every operand
    precedes its parents.  A subtree is keyed by its operation
    (constants by repr, so 0.0 and -0.0 stay apart) and its operands'
    numbers, so equal subtrees are one value.  uses[n] counts the
    distinct parents of n, plus one per root it is; roots are the
    trees' values, in order.  table, uses and roots are the program's
    shape: trees that differ only in their constants' values have the
    same shape.

    A numbering passed for trees is returned as it is, so that one
    caller numbers its trees once for all their programs.  A tree nested
    deeper than Python's recursion limit lets it be numbered is an
    ExprError.
    """
    if isinstance(trees, _Numbering):
        return trees
    ids, table, uses, constants = {}, [], [], []
    numbered = {}  # id(node) -> its number: a shared node is keyed once

    def number(e):
        n = numbered.get(id(e))
        if n is not None:
            return n
        cls = type(e)
        if cls is Const:
            key = (repr(e.value), None)
        elif cls is Slot:
            key = ("slot", e.index)
        elif cls is Var:
            key = (e.name, None)
        elif cls is Pow:
            key = ("pow", e.exponent, number(e.base))
        elif cls is Call:
            key = ("call", "_abs" if e.fn == "abs" else e.fn, number(e.arg))
        elif cls is Neg:
            key = ("neg", None, number(e.arg))
        elif cls in _INFIX:
            key = (_INFIX[cls], None, number(e.left), number(e.right))
        else:
            raise ExprError(f"malformed expression node: {e!r}")
        n = ids.get(key)
        if n is None:
            n = ids[key] = len(table)
            if cls is Const or cls is Slot:
                table.append((f"_k{len(constants)}", None))
                constants.append(e.value if cls is Const else e)
            else:
                table.append(key)
            uses.append(0)
            for k in key[2:]:  # one use per distinct parent
                uses[k] += 1
        numbered[id(e)] = n
        return n

    try:
        roots = [number(e) for e in trees]
    except RecursionError as exc:
        raise _too_deep("compile", exc) from None
    finally:
        # number's cell refers to number: freed by reference counting
        # once the cycle is cut, its tables do not wait for the cyclic
        # collector, which rarely runs where few containers are made
        number = None
    for n in roots:
        uses[n] += 1
    return _Numbering(_HashedTuple(table), _HashedTuple(uses), tuple(roots), tuple(constants))


class _Emitter:
    """A callable n -> the code of value n.  A variable or a constant
    parameter is itself and a value in named (number -> name) its name;
    any other value is computed in place, and one with more than one use
    is bound to _t<n> (and added to named) where it is first computed.

    A class, not a closure: a closure that recurses refers to itself
    through its cell, and each code it spelled would leave that cycle to
    the cyclic collector."""

    __slots__ = ("table", "uses", "templates", "named")

    def __init__(self, table, uses, templates, named):
        self.table, self.uses, self.templates, self.named = table, uses, templates, named

    def __call__(self, n):
        name = self.named.get(n)
        if name is not None:
            return name
        op, p, *operands = self.table[n]
        if not operands:
            return op
        text = self.templates[op].format(*map(self, operands), p=p)
        if self.uses[n] == 1:
            return text
        self.named[n] = f"_t{n}"
        return f"(_t{n} := {text})"


#: How many program codes a process keeps, one per shape, least recently
#: used first out: the programs of every catalog surface take about 100.
SHAPES = 256


@lru_cache(maxsize=SHAPES)
def _shared_code(spell, *shape):
    """The code of the function that the source spell(*shape) defines,
    compiled once per shape while it is among the SHAPES most recently
    used.  Every program of that shape is this code with its own
    constants bound."""
    try:
        source, kind = spell(*shape)
        module = compile(source, _file_name(kind, source), "exec")
    except (SyntaxError, RecursionError) as exc:  # too many nested parentheses or levels
        raise _too_deep("compile", exc) from None
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _file_name(kind, source):
    """The file name of generated code of a kind: the kind and the CRC-32
    of the source, so that a profile, which keys its rows by file, line
    and function, lists each code apart, under the same name in every
    process."""
    return f"<lcframe-{kind}-{zlib.crc32(source.encode()):08x}>"


def _constant_params(table):
    """The parameters _k0, _k1, ... of a shape's constants, each after a
    comma."""
    return "".join(f", {op}" for op, _, *operands in table
                   if not operands and op not in _VARIABLES)


def _point_source(table, uses, roots, params, root, templates):
    """The source and kind of compile_program's code for a shape,
    in the environment of params, root and templates."""
    emit = _Emitter(table, uses, dict(templates), {})
    body = "".join(root.format(k=k, text=emit(n)) for k, n in enumerate(roots))
    return (f"def _program({params}{_constant_params(table)}):\n    return ({body})",
            "program")


def compile_program(trees, env: NumberEnv = SCALAR):
    """Compile trees into one function (u, v) -> tuple of their values.

    The function is a single expression that computes each distinct
    subtree of _numbering once; one used again is bound to a temporary
    where it is first computed.  So operations run, and fail, in the
    order of evaluating the trees one after another; each tree is
    checked finite before the next starts.  In the SCALAR environment
    every failure is an EvalDomainError; another environment spells
    the same numbering for its own numbers.

    Programs share code by shape: the code spells constant i as the
    parameter _k<i>, is compiled once per shape and environment
    (_shared_code), and each program binds its own constants to it.
    The operations and operands are those of the literal spelling, so
    are the values and the errors.  trees may also be their numbering,
    as every compile function here takes it.
    """
    table, uses, roots, constants = _numbering(trees)
    code = _shared_code(_point_source, table, uses, roots, env.params, env.root,
                        tuple(env.templates.items()))
    # constant i is the default of the parameter _k<i>
    return env.wrap(FunctionType(code, env.namespace, None, constants))


#: The exceptions a fault raises inside the code of a SCALAR program,
#: before any wrapper words it as an EvalDomainError.
_FAULTS = (ArithmeticError, ValueError, EvalDomainError)

# What a value of a program depends on: bit _U for u, _V for v.
_U, _V = 1, 2


def _deps(table, mask=_U | _V):
    """The dependencies of each value of table, within mask."""
    deps = []
    for op, _, *operands in table:
        deps.append(reduce(or_, (deps[k] for k in operands)) if operands
                    else mask & (_U if op == "u" else _V if op == "v" else 0))
    return deps


def _hoisted(table, deps, roots, inner):
    """The values, in evaluation order, that a program whose innermost
    loop computes the values of dependencies inner computes outside it,
    each as _t<n>: each that a value of other dependencies reads, and
    each root not of inner; a constant or variable is spelled where it
    is read."""
    hoisted = {k for n, key in enumerate(table) for k in key[2:] if deps[k] != deps[n]}
    hoisted.update(n for n in roots if deps[n] != inner)
    return sorted(n for n in hoisted if len(table[n]) > 2)


def _assignments(table, uses, hoisted, names):
    """The statements _t<n> = ... of the values hoisted, in that order,
    each reading by name the values of names (number -> name) assigned
    before it."""
    emit = _Emitter(table, uses, SCALAR.templates, dict(names))
    out = []
    for n in hoisted:
        op, p, *operands = table[n]
        out.append(f"_t{n} = {SCALAR.templates[op].format(*map(emit, operands), p=p)}")
    return out


def _grid_source(table, uses, roots):
    """The source and kind of compile_grid_program's code for a
    shape."""
    deps = _deps(table)
    hoisted = _hoisted(table, deps, roots, _U | _V)
    names = {n: f"_t{n}" for n in hoisted}

    def statements(dep):
        return _assignments(table, uses, [n for n in hoisted if deps[n] == dep], names)

    columns = ", ".join(["v"] + [names[n] for n in hoisted if deps[n] == _V]) + ","
    emit = _Emitter(table, uses, SCALAR.templates, dict(names))
    point = "".join(SCALAR.root.format(k=k, text=emit(n)) for k, n in enumerate(roots))
    if len(roots) == 1:
        point = point.rstrip(", ")  # the value itself, not a 1-tuple
    return "\n".join([
        f"def _grid(us, vs{_constant_params(table)}):",
        *(f"    {line}" for line in statements(0)),
        "    _columns = []",
        "    for v in vs:",
        *(f"        {line}" for line in statements(_V)),
        f"        _columns.append(({columns}))",
        "    _rows = []",
        "    for u in us:",
        *(f"        {line}" for line in statements(_U)),
        "        _row = []",
        f"        for {columns} in _columns:",
        f"            _row.append(({point}))",
        "        _rows.append(_row)",
        "    return _rows",
    ]), "grid-program"


def compile_grid_program(trees):
    """Compile trees into one function (us, vs) -> a row per u of the
    trees' values at each v: rows[i][j] is the tuple the point program
    compile_program(trees) gives at (us[i], vs[j]), bit for bit (up to
    the sign of a NaN, which CPython 3.11 flips once it specialises float
    addition), or for one tree the value itself, not a 1-tuple.

    The function spells the point program's numbering (_numbering) with
    the SCALAR operations, but computes each value where its variables
    change: a value of constants alone once, one of u alone once per
    row, one of v alone once per column, and every other value once
    per point, where each tree is checked finite as in the point
    program.  Every operation gets the operands it gets there, so the
    values are the same.  Hoisting reorders the operations, so on a
    fault the point program runs at each point in row-major order and
    raises the point loop's own first error.  Grid programs share code
    by shape, with their constants bound, as point programs do.
    """
    numbering = _numbering(trees)
    table, uses, roots, constants = numbering
    grid = FunctionType(_shared_code(_grid_source, table, uses, roots), SCALAR.namespace,
                        None, constants)

    def program(us, vs):
        try:
            return grid(us, vs)
        except _FAULTS:
            point = compile_program(numbering)
            rows = [[point(u, v) for v in vs] for u in us]
            return [[x for x, in row] for row in rows] if len(roots) == 1 else rows

    return program


#: The most halvings of an edge's bisection.
HALVINGS = 30

#: The names an edge kernel reads besides those of the SCALAR programs.
_EDGE_NAMESPACE = {**_SCALAR_NAMESPACE, "_HALVINGS": range(HALVINGS), "_FAULTS": _FAULTS}


def _edge_source(table, uses, roots, moving):
    """The source and kind of compile_edge_kernels' code for a
    one-root shape, along edges in the variable moving."""
    held, bit = ("v", _U) if moving == "u" else ("u", _V)
    deps = _deps(table, bit)
    hoisted = _hoisted(table, deps, roots, bit)
    names = {n: f"_t{n}" for n in hoisted}
    root = _Emitter(table, uses, SCALAR.templates, dict(names))(roots[0])
    ends = ("a, h", "b, h") if moving == "u" else ("h, a", "h, b")
    return "\n".join([
        f"def _edge(h, a, b, fa, fb, tol, _point{_constant_params(table)}):",
        "    if fa == 0.0:",
        f"        return ({ends[0]}), 0.0",
        "    if fb == 0.0:",
        f"        return ({ends[1]}), 0.0",
        "    if _abs(fa) < _abs(fb):",
        f"        x, y, best = {ends[0]}, _abs(fa)",
        "    else:",
        f"        x, y, best = {ends[1]}, _abs(fb)",
        # every midpoint holds (h + h) / 2, which is h unless h + h overflows
        f"    {held} = (h + h) / 2.0",
        # the first midpoint, where a fault of a value computed once per
        # edge is raised
        f"    {moving} = (a + b) / 2.0",
        "    try:",
        *(f"        {line}" for line in _assignments(table, uses, hoisted, names)),
        "        for _ in _HALVINGS:",
        f"            {moving} = (a + b) / 2.0",
        f"            if not _isfinite(f := {root}):",
        "                _non_finite(f)",
        "            r = _abs(f)",
        "            if r < best:",
        "                x, y, best = u, v, r",
        "            if r <= tol:",
        "                return (u, v), r",
        "            if (f > 0.0) == (fa > 0.0):",
        f"                a, fa = {moving}, f",
        "            else:",
        f"                b, fb = {moving}, f",
        "    except _FAULTS:",
        "        _point(u, v)  # raises the point program's first error at this midpoint",
        "        raise",
        "    return (x, y), best",
    ]), "edge-kernel"


def compile_edge_kernels(trees, point):
    """Compile one tree into its bisection kernels (along_u, along_v):
    along_u refines a crossing on an edge from (a, h) to (b, h), which
    holds v = h, and along_v one on an edge from (h, a) to (h, b).

    kernel(h, a, b, fa, fb, tol), with fa and fb the tree's values at
    the edge's ends, returns (point, |value|): an end where the value is
    0.0, else the first midpoint where |value| <= tol, halving towards
    the sign change, else after HALVINGS midpoints the point of least
    |value| among the ends and the midpoints (the first of equals).
    The values are the point program's, bit for bit (up to the sign of
    a NaN, which CPython 3.11 flips once it specialises float addition):
    the code computes the values of constants and of the held variable
    once per edge and the others at each midpoint, in one frame.  On a
    fault it calls the tree's point program at that midpoint, so the
    point program's own first error is raised there.  Kernels share code
    by shape, with their constants bound, as point programs do.  point
    is the tree's point program, compile_program(trees); the kernels
    call it only on a fault and compile none of their own.
    """
    table, uses, roots, constants = _numbering(trees)
    if len(roots) != 1:
        raise ExprError(f"an edge kernel refines one tree, got {len(roots)}")
    return tuple(FunctionType(_shared_code(_edge_source, table, uses, roots, moving),
                              _EDGE_NAMESPACE, None, (point, *constants)) for moving in "uv")


class CompiledField:
    """A standalone field: a tree and its three programs, compiled
    together from one numbering of the tree as it is given
    (compile_field simplifies first).  program is the point program,
    (u, v) -> (value,); grid is the tensor-grid program
    (compile_grid_program), whose rows hold the values themselves;
    edges are the bisection kernels (along_u, along_v) of
    compile_edge_kernels, which call program on a fault.  A surface
    builds none: it keeps its programs in SurfaceDef.program.
    """

    __slots__ = ("expr", "program", "grid", "edges")

    def __init__(self, expr: Expr):
        numbering = _numbering([expr])
        self.expr = expr
        self.program = compile_program(numbering)
        self.grid = compile_grid_program(numbering)
        self.edges = compile_edge_kernels(numbering, self.program)

    def eval(self, u: float, v: float) -> float:
        return self.eval_derivative(0, 0, u, v)

    def eval_derivative(self, du: int, dv: int, u: float, v: float) -> float:
        """The field at (u, v); a field compiles no derivative, so any
        order but (0, 0) is an ExprError."""
        if du or dv:
            raise ExprError(f"derivative ({du},{dv}) beyond compiled order 0")
        return self.program(u, v)[0]


def compile_field(source_or_expr) -> CompiledField:
    """The traced field of source text (or an existing tree), simplified."""
    expr = parse(source_or_expr) if isinstance(source_or_expr, str) else source_or_expr
    return CompiledField(simplify(expr))


def constant_value(source: str) -> float:
    """Evaluate source that must not mention u or v (domain bounds),
    compiled so that a fault is worded as at a point.  A single
    constant, which the parser folds most bounds to, is returned as it
    is, checked finite as the compiled root checks it.

    source is looked up by its token key (_token_key) among the SHAPES
    most recently used, and parsed with slots only on a miss: a text
    whose tokens differ from an earlier one's only in generic constants
    reads its values from its tokens and binds them to that text's
    numbering."""
    slots = {}
    key = _token_key(source, slots)
    if key is None:
        return _constant(source)(())
    return _constant_by_tokens(_TokenKey(key, source))(tuple(slots))


@lru_cache(maxsize=SHAPES)
def _constant_by_tokens(key):
    return _constant(key.sources, {})


def _constant(source, slots=None):
    """values -> the value of the constant expression source parsed with
    slots, values[i] the value of slot i."""
    numbering = _numbering([parse(source, slots)])
    if _deps(numbering.table)[numbering.roots[0]]:
        raise ExprError(f"expected a constant expression, got {source!r}")
    if len(numbering.table) == 1:  # one constant, compiled into no program

        def value(values):
            x, = numbering.bound(values).constants
            return x if math.isfinite(x) else _non_finite(x)

        return value
    return lambda values: compile_program(numbering.bound(values))(0.0, 0.0)[0]
