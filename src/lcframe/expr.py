"""A small expression language over the variables u and v.

Surface components are written in this language and differentiated
symbolically, so every invariant field downstream is built from exact
analytic derivatives rather than finite differences.

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
        if tok[0] != "number" or tok[1] != int(tok[1]):
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


def _is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


def simplify(e: Expr) -> Expr:
    """Fold literal zeros, ones and constant arithmetic, bottom-up.

    No common-subexpression elimination or algebraic rewriting happens
    here; derivative trees stay faithful to the chain rule.
    """
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Neg):
        a = simplify(e.arg)
        if isinstance(a, Const):
            return Const(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return Neg(a)
    if isinstance(e, Add):
        a, b = simplify(e.left), simplify(e.right)
        if _is_const(a, 0.0):
            return b
        if _is_const(b, 0.0):
            return a
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value + b.value)
        return Add(a, b)
    if isinstance(e, Sub):
        a, b = simplify(e.left), simplify(e.right)
        if _is_const(b, 0.0):
            return a
        if _is_const(a, 0.0):
            return Const(-b.value) if isinstance(b, Const) else Neg(b)
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value - b.value)
        return Sub(a, b)
    if isinstance(e, Mul):
        a, b = simplify(e.left), simplify(e.right)
        if _is_const(a, 0.0) or _is_const(b, 0.0):
            return Const(0.0)
        if _is_const(a, 1.0):
            return b
        if _is_const(b, 1.0):
            return a
        if _is_const(a, -1.0):
            return Const(-b.value) if isinstance(b, Const) else Neg(b)
        if _is_const(b, -1.0):
            return Const(-a.value) if isinstance(a, Const) else Neg(a)
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value * b.value)
        return Mul(a, b)
    if isinstance(e, Div):
        a, b = simplify(e.left), simplify(e.right)
        if _is_const(a, 0.0):
            return Const(0.0)
        if _is_const(b, 1.0):
            return a
        return Div(a, b)
    if isinstance(e, Pow):
        a = simplify(e.base)
        if e.exponent == 0:
            return Const(1.0)
        if e.exponent == 1:
            return a
        return Pow(a, e.exponent)
    if isinstance(e, Call):
        return Call(e.fn, simplify(e.arg))
    raise ExprError(f"malformed expression node: {e!r}")


def _diff(e, var):
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return Neg(_diff(e.arg, var))
    if isinstance(e, Add):
        return Add(_diff(e.left, var), _diff(e.right, var))
    if isinstance(e, Sub):
        return Sub(_diff(e.left, var), _diff(e.right, var))
    if isinstance(e, Mul):
        return Add(Mul(_diff(e.left, var), e.right), Mul(e.left, _diff(e.right, var)))
    if isinstance(e, Div):
        num = Sub(Mul(_diff(e.left, var), e.right), Mul(e.left, _diff(e.right, var)))
        return Div(num, Pow(e.right, 2))
    if isinstance(e, Pow):
        return Mul(Mul(Const(float(e.exponent)), Pow(e.base, e.exponent - 1)),
                   _diff(e.base, var))
    if isinstance(e, Call):
        g = _diff(e.arg, var)
        f = e.arg
        if e.fn == "sin":
            outer = Call("cos", f)
        elif e.fn == "cos":
            outer = Neg(Call("sin", f))
        elif e.fn == "tan":
            outer = Div(Const(1.0), Pow(Call("cos", f), 2))
        elif e.fn == "exp":
            outer = Call("exp", f)
        elif e.fn == "log":
            outer = Div(Const(1.0), f)
        elif e.fn == "sqrt":
            outer = Div(Const(0.5), Call("sqrt", f))
        elif e.fn == "abs":
            # non-smooth at the origin of the argument; kept symbolic
            outer = Call("sign", f)
        elif e.fn == "sinh":
            outer = Call("cosh", f)
        elif e.fn == "cosh":
            outer = Call("sinh", f)
        elif e.fn == "sign":
            outer = Const(0.0)  # derivative away from the jump
        else:
            raise ExprError(f"unknown function {e.fn!r}")
        return Mul(outer, g)
    raise ExprError(f"malformed expression node: {e!r}")


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative with respect to 'u' or 'v'."""
    if var not in _VARIABLES:
        raise ExprError(f"differentiation variable must be 'u' or 'v', got {var!r}")
    return simplify(_diff(e, var))


def is_nonsmooth(e: Expr) -> bool:
    """True when the tree contains abs or sign (non-smooth at zeros of
    the argument)."""
    if isinstance(e, Call):
        return e.fn in ("abs", "sign") or is_nonsmooth(e.arg)
    if isinstance(e, Neg):
        return is_nonsmooth(e.arg)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return is_nonsmooth(e.left) or is_nonsmooth(e.right)
    if isinstance(e, Pow):
        return is_nonsmooth(e.base)
    return False


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


def _emit(e):
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{_emit(e.arg)})"
    if isinstance(e, Add):
        return f"({_emit(e.left)} + {_emit(e.right)})"
    if isinstance(e, Sub):
        return f"({_emit(e.left)} - {_emit(e.right)})"
    if isinstance(e, Mul):
        return f"({_emit(e.left)} * {_emit(e.right)})"
    if isinstance(e, Div):
        return f"({_emit(e.left)} / {_emit(e.right)})"
    if isinstance(e, Pow):
        # parenthesise the base: Python's ** binds tighter than a
        # leading minus in a negative literal
        return f"(({_emit(e.base)}) ** ({e.exponent}))"
    if isinstance(e, Call):
        name = "_abs" if e.fn == "abs" else e.fn
        return f"{name}({_emit(e.arg)})"
    raise ExprError(f"malformed expression node: {e!r}")


def _guarded_log(x):
    if x <= 0.0:
        raise EvalDomainError("log of a nonpositive argument")
    return math.log(x)


def _guarded_sqrt(x):
    if x < 0.0:
        raise EvalDomainError("sqrt of a negative argument")
    return math.sqrt(x)


_ENV = {
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
}


class CompiledField:
    """An expression compiled to a fast closure, together with its table
    of symbolic partial derivatives up to a requested order.

    The table is closed under that order: entry (i, j) holds the
    expression and closure for d^(i+j) / du^i dv^j.
    """

    __slots__ = ("expr", "order", "nonsmooth", "_table")

    def __init__(self, expr: Expr, order: int = 0):
        if order < 0:
            raise ExprError("derivative order must be nonnegative")
        self.expr = simplify(expr)
        self.order = order
        self.nonsmooth = is_nonsmooth(self.expr)
        self._table = {}
        self._build_table()

    def _build_table(self):
        exprs = {(0, 0): self.expr}
        for i in range(1, self.order + 1):
            exprs[(i, 0)] = differentiate(exprs[(i - 1, 0)], "u")
        for i in range(0, self.order + 1):
            for j in range(1, self.order + 1 - i):
                exprs[(i, j)] = differentiate(exprs[(i, j - 1)], "v")
        for key, ex in exprs.items():
            self._table[key] = (ex, _compile_closure(ex))

    def derivative_expr(self, du: int, dv: int) -> Expr:
        try:
            return self._table[(du, dv)][0]
        except KeyError:
            raise ExprError(
                f"derivative ({du},{dv}) beyond compiled order {self.order}") from None

    def eval(self, u: float, v: float) -> float:
        return self.eval_derivative(0, 0, u, v)

    def eval_derivative(self, du: int, dv: int, u: float, v: float) -> float:
        try:
            fn = self._table[(du, dv)][1]
        except KeyError:
            raise ExprError(
                f"derivative ({du},{dv}) beyond compiled order {self.order}") from None
        try:
            value = fn(u, v)
        except EvalDomainError:
            raise
        except ZeroDivisionError:
            raise EvalDomainError("division by zero") from None
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(str(exc)) from None
        if not math.isfinite(value):
            raise EvalDomainError(f"non-finite result {value!r}")
        return value

    def __call__(self, u: float, v: float) -> float:
        return self.eval_derivative(0, 0, u, v)


def _compile_closure(expr):
    src = f"lambda u, v: {_emit(expr)}"
    return eval(compile(src, "<lcframe-field>", "eval"), _ENV)


def compile_field(source_or_expr, order: int = 0) -> CompiledField:
    """Compile source text (or an existing tree) with derivatives up to
    the given order."""
    expr = parse(source_or_expr) if isinstance(source_or_expr, str) else source_or_expr
    return CompiledField(expr, order)


def constant_value(source: str) -> float:
    """Evaluate source that must not mention u or v (domain bounds)."""
    expr = parse(source)
    if _mentions_var(expr):
        raise ExprError(f"expected a constant expression, got {source!r}")
    return evaluate(expr, 0.0, 0.0)


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
