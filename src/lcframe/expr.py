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
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import NamedTuple

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


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base class of expression nodes.  Nodes are immutable and compare
    structurally."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str  # "u" or "v"


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


# 'sign' is not part of the surface grammar; it only appears in
# derivatives of abs, where the result is non-smooth at the origin.
FUNCTION_NAMES = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "sinh", "cosh")
_ALL_FUNCTIONS = FUNCTION_NAMES + ("sign",)

_CONSTANTS = {"pi": math.pi}
_VARIABLES = ("u", "v")


# ---------------------------------------------------------------------------
# Tokenizer / parser


_TOKEN_OPS = "+-*/^(),"


def _tokenize(source):
    tokens = []  # (kind, text_or_value, offset)
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {text!r}", source, i) from None
            tokens.append(("number", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", source, i,
                              expected=("number", "identifier", "operator"))
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

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
                return Const(-float(self.advance()[1]))
            return Neg(self.unary())
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
            return Const(float(text))
        if kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if kind == "ident":
            self.advance()
            if text in _VARIABLES:
                return Var(text)
            if text in _CONSTANTS:
                return Const(_CONSTANTS[text])
            if text in FUNCTION_NAMES:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(text, arg)
            raise UnknownIdentifierError(text, self.source, offset)
        raise ExprSyntaxError(
            f"unexpected {self._describe(tok)}", self.source, offset,
            expected=("number", "identifier", "'('", "'-'"))


def parse(source: str) -> Expr:
    """Parse source text into an expression tree."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Simplification (literal zero/one folding only) and differentiation


_INFIX = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def _is_const(e, value):
    return type(e) is Const and e.value == value


class Dag:
    """A derivation context: simplify and differentiate over one shared DAG.

    Every node the context builds is interned, keyed by its class and its
    operands' ids (a constant by the repr of its value, so 0.0 and -0.0
    stay apart), and the table holds each node, so the ids stay valid.
    A node built by _fold is already simplified and is recorded as its
    own simplification.  simplify is memoised by node id and
    differentiate by (node id, variable), and each memo entry holds its
    node, so that no id is reused while the context lives.  The cost
    of a derivation is linear in the number of distinct subexpressions
    it meets, however often they are shared.

    A context only grows: build one per derivation job and drop it.  It
    is not safe to share between threads.
    """

    __slots__ = ("_nodes", "_simplified", "_derivatives")

    def __init__(self):
        self._nodes = {}  # intern key -> node
        self._simplified = {}  # id(e) -> (simplify(e), e)
        self._derivatives = {}  # (id(e), var) -> (differentiate(e, var), e)

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
        hit = self._simplified.get(id(e))
        if hit is not None:
            return hit[0]
        cls = type(e)
        if cls is Const:
            s = self.const(e.value)
        elif cls is Var:
            s = self._intern((Var, e.name), Var, e.name)
        elif cls is Neg:
            s = self._fold(Neg, self.simplify(e.arg))
        elif cls is Pow:
            s = self._fold(Pow, self.simplify(e.base), e.exponent)
        elif cls is Call:
            s = self._fold(Call, e.fn, self.simplify(e.arg))
        elif cls in _INFIX:
            s = self._fold(cls, self.simplify(e.left), self.simplify(e.right))
        else:
            raise ExprError(f"malformed expression node: {e!r}")
        self._simplified[id(e)] = (s, e)
        return s

    def differentiate(self, e: Expr, var: str) -> Expr:
        """differentiate(e, var), interned in this context.

        Each case folds the chain rule's nodes as simplify would fold
        them, so the result is simplify of the chain rule's tree.
        """
        key = (id(e), var)
        hit = self._derivatives.get(key)
        if hit is not None:
            return hit[0]
        if var not in _VARIABLES:
            raise ExprError(f"differentiation variable must be 'u' or 'v', got {var!r}")
        fold, S, D = self._fold, self.simplify, self.differentiate
        cls = type(e)
        if cls is Const:
            d = self.const(0.0)
        elif cls is Var:
            d = self.const(1.0 if e.name == var else 0.0)
        elif cls is Neg:
            d = fold(Neg, D(e.arg, var))
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
    "inf": math.inf,  # repr() of non-finite constants
    "nan": math.nan,
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


def _numbering(trees):
    """The value numbering of compile_program: (table, uses, roots).

    table[n] is the key of value n: (literal or variable name, None), or
    (operation, exponent or function name, *operand numbers).  Values
    are numbered in evaluation order, post-order and left first, so
    every operand precedes its parents.  A subtree is keyed by its
    operation (constants by repr, so 0.0 and -0.0 stay apart) and its
    operands' numbers, so equal subtrees are one value.  uses[n] counts
    the distinct parents of n, plus one per root it is; roots are the
    trees' values, in order.
    """
    ids, table, uses = {}, [], []
    numbered = {}  # id(node) -> its number: a shared node is keyed once

    def number(e):
        n = numbered.get(id(e))
        if n is not None:
            return n
        cls = type(e)
        if cls is Const:
            key = (repr(e.value), None)
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
            table.append(key)
            uses.append(0)
            for k in key[2:]:  # one use per distinct parent
                uses[k] += 1
        numbered[id(e)] = n
        return n

    roots = [number(e) for e in trees]
    for n in roots:
        uses[n] += 1
    return table, uses, roots


def _emitter(table, uses, templates, named):
    """A function n -> the code of value n.  A literal or a variable is
    itself and a value in named (number -> name) its name; any other
    value is computed in place, and one with more than one use is bound
    to _t<n> (and added to named) where it is first computed."""

    def emit(n):
        name = named.get(n)
        if name is not None:
            return name
        op, p, *operands = table[n]
        if not operands:
            return op
        text = templates[op].format(*map(emit, operands), p=p)
        if uses[n] == 1:
            return text
        named[n] = f"_t{n}"
        return f"(_t{n} := {text})"

    return emit


def compile_program(trees, env: NumberEnv = SCALAR):
    """Compile trees into one function (u, v) -> tuple of their values.

    The function is a single expression that computes each distinct
    subtree of _numbering once; one used again is bound to a temporary
    where it is first computed.  So operations run, and fail, in the
    order of evaluating the trees one after another; each tree is
    checked finite before the next starts.  In the SCALAR environment
    every failure is an EvalDomainError; another environment spells
    the same numbering for its own numbers.
    """
    table, uses, roots = _numbering(trees)
    emit = _emitter(table, uses, env.templates, {})
    body = "".join(env.root.format(k=k, text=emit(n)) for k, n in enumerate(roots))
    code = compile(f"lambda {env.params}: ({body})", "<lcframe-program>", "eval")
    return env.wrap(eval(code, env.namespace))


# What a value of the grid program depends on: bit _U for u, _V for v;
# a value with both is computed per point.
_U, _V = 1, 2


def compile_grid_program(trees):
    """Compile trees into one function (us, vs) -> a row per u of the
    trees' values at each v: rows[i][j] is the tuple the point program
    compile_program(trees) gives at (us[i], vs[j]), bit for bit.

    The function spells the point program's numbering (_numbering) with
    the SCALAR operations, but computes each value where its variables
    change: a value of constants alone once, one of u alone once per
    row, one of v alone once per column, and every other value once
    per point, where each tree is checked finite as in the point
    program.  Every operation gets the operands it gets there, so the
    values are the same.  Hoisting reorders the operations, so on a
    fault the point program runs at each point in row-major order and
    raises the point loop's own first error.
    """
    table, uses, roots = _numbering(trees)
    deps = []
    for op, _, *operands in table:
        deps.append(reduce(or_, (deps[k] for k in operands)) if operands
                    else _U if op == "u" else _V if op == "v" else 0)
    # the values computed outside the point loop, as _t<n>: each that a
    # value of other dependencies reads, and each root not computed per
    # point; a literal or variable is spelled where it is read
    handed = {k for n, key in enumerate(table) for k in key[2:] if deps[k] != deps[n]}
    handed.update(n for n in roots if deps[n] != _U | _V)
    handed = sorted(n for n in handed if len(table[n]) > 2)

    names = {n: f"_t{n}" for n in handed}

    def statements(dep):
        """The assignments of the handed values that depend on dep, in
        evaluation order, so each reads values assigned before it."""
        emit = _emitter(table, uses, SCALAR.templates, dict(names))
        out = []
        for n in handed:
            op, p, *operands = table[n]
            if deps[n] == dep:
                out.append(f"_t{n} = {SCALAR.templates[op].format(*map(emit, operands), p=p)}")
        return out

    columns = ", ".join(["v"] + [names[n] for n in handed if deps[n] == _V]) + ","
    emit = _emitter(table, uses, SCALAR.templates, dict(names))
    point = "".join(SCALAR.root.format(k=k, text=emit(n)) for k, n in enumerate(roots))
    source = "\n".join([
        "def _grid(us, vs):",
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
    ])
    namespace = dict(SCALAR.namespace)
    exec(compile(source, "<lcframe-grid-program>", "exec"), namespace)
    grid = namespace["_grid"]

    def program(us, vs):
        try:
            return grid(us, vs)
        except (ArithmeticError, ValueError, EvalDomainError):
            point = compile_program(trees)
            return [[point(u, v) for v in vs] for u in us]

    return program


class CompiledField:
    """An expression with its symbolic partial derivatives up to a
    requested order, each compiled as a one-tree compile_program.

    The table is closed under that order: entry (i, j) holds the
    expression and program for d^(i+j) / du^i dv^j.  The expression is
    simplified and differentiated in dag, the derivation context it was
    derived in if one is given, so a tree simplified there is not
    simplified again.  program is the expression's point program,
    (u, v) -> (value,), which eval calls.  grid evaluates the expression
    over a tensor grid with compile_grid_program, compiled on first use.
    """

    __slots__ = ("expr", "order", "program", "_table", "_grid")

    def __init__(self, expr: Expr, order: int = 0, dag: Dag | None = None):
        if order < 0:
            raise ExprError("derivative order must be nonnegative")
        dag = Dag() if dag is None else dag
        self.expr = dag.simplify(expr)
        self.order = order
        exprs = {(0, 0): self.expr}
        for i in range(1, order + 1):
            exprs[(i, 0)] = dag.differentiate(exprs[(i - 1, 0)], "u")
        for i in range(0, order + 1):
            for j in range(1, order + 1 - i):
                exprs[(i, j)] = dag.differentiate(exprs[(i, j - 1)], "v")
        self._table = {key: (ex, compile_program([ex])) for key, ex in exprs.items()}
        self.program = self._table[(0, 0)][1]
        self._grid = None

    def _entry(self, du, dv):
        try:
            return self._table[(du, dv)]
        except KeyError:
            raise ExprError(
                f"derivative ({du},{dv}) beyond compiled order {self.order}") from None

    def derivative_expr(self, du: int, dv: int) -> Expr:
        return self._entry(du, dv)[0]

    def eval(self, u: float, v: float) -> float:
        return self.eval_derivative(0, 0, u, v)

    def eval_derivative(self, du: int, dv: int, u: float, v: float) -> float:
        return self._entry(du, dv)[1](u, v)[0]

    def grid(self, us, vs) -> list:
        """The expression at every point of the grid us x vs, a row per
        u: grid(us, vs)[i][j] is eval(us[i], vs[j]), bit for bit, and a
        fault raises the error that evaluating the points in row-major
        order raises first."""
        if self._grid is None:
            # threads racing here compile equal programs
            self._grid = compile_grid_program([self.expr])
        return [[x for x, in row] for row in self._grid(us, vs)]


def compile_field(source_or_expr, order: int = 0) -> CompiledField:
    """Compile source text (or an existing tree) with derivatives up to
    the given order."""
    expr = parse(source_or_expr) if isinstance(source_or_expr, str) else source_or_expr
    return CompiledField(expr, order)


def constant_value(source: str) -> float:
    """Evaluate source that must not mention u or v (domain bounds),
    compiled so that a fault is worded as at a point.  A single
    constant, which the parser folds most bounds to, is returned as it
    is, checked finite as the compiled root checks it."""
    expr = parse(source)
    if type(expr) is Const:
        return expr.value if math.isfinite(expr.value) else _non_finite(expr.value)
    if _mentions_var(expr):
        raise ExprError(f"expected a constant expression, got {source!r}")
    return compile_program([expr])(0.0, 0.0)[0]


def _mentions_var(e):
    if isinstance(e, Var):
        return True
    if isinstance(e, Neg):
        return _mentions_var(e.arg)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return _mentions_var(e.left) or _mentions_var(e.right)
    if isinstance(e, Pow):
        return _mentions_var(e.base)
    if isinstance(e, Call):
        return _mentions_var(e.arg)
    return False
