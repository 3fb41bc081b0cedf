"""Reference implementations that the tests compare lcframe against."""

import math
import operator
from types import SimpleNamespace

from lcframe.expr import HALVINGS, Dag, ExprSyntaxError, compile_program, parse

#: The operations of the shared decisions (curvature._gauss_mean,
#: curvature._packet_fields, classify._class_code) on floats, run as
#: written: the interpreted form that their compiled float code
#: (straightline.float_code) must match bit for bit.  where and not_
#: decide; pow and div compute only where their mask holds (NaN
#: elsewhere), so an untaken branch never faults, and a fault raises as
#: plain float code does.  lcframe.arrays spells the same operations
#: over numpy arrays.
FLOAT_OPS = SimpleNamespace(
    where=lambda cond, a, b: a if cond else b,
    not_=operator.not_,
    max=max,
    hypot=math.hypot,
    sqrt=math.sqrt,
    pow=lambda x, p, where: x ** p if where else math.nan,
    div=lambda a, b, where: a / b if where else math.nan,
)


def bisect_edge(f, p0, p1, f0, f1, refine_tol):
    """Refine a sign change along the segment p0-p1 to |f| <= refine_tol,
    halving at most HALVINGS times, as each step was first written; f is
    the field's point program, (u, v) -> (value,), and f0, f1 its values
    at p0, p1.  Returns (point, |value|): an end where the value is 0.0,
    the first midpoint within refine_tol, or else the point of least
    |value| seen."""
    if f0 == 0.0:
        return p0, 0.0
    if f1 == 0.0:
        return p1, 0.0
    best_p, best_f = (p0, abs(f0)) if abs(f0) < abs(f1) else (p1, abs(f1))
    for _ in range(HALVINGS):
        mid = ((p0[0] + p1[0]) / 2.0, (p0[1] + p1[1]) / 2.0)
        fm, = f(*mid)
        if abs(fm) < best_f:
            best_p, best_f = mid, abs(fm)
        if abs(fm) <= refine_tol:
            return mid, abs(fm)
        if (fm > 0.0) == (f0 > 0.0):
            p0, f0 = mid, fm
        else:
            p1, f1 = mid, fm
    return best_p, best_f


def partial_programs(source, order):
    """The point programs of the partial derivatives of source (text or
    a tree) up to order: {(du, dv): program}, program the one-tree
    compile_program of d^(du+dv) source / du^du dv^dv.  One Dag derives
    them all: the u partials from the simplified tree, and each v
    partial from the one before it."""
    dag = Dag()
    trees = {(0, 0): dag.simplify(parse(source) if isinstance(source, str) else source)}
    for i in range(1, order + 1):
        trees[(i, 0)] = dag.differentiate(trees[(i - 1, 0)], "u")
    for i in range(order + 1):
        for j in range(1, order + 1 - i):
            trees[(i, j)] = dag.differentiate(trees[(i, j - 1)], "v")
    return {key: compile_program([tree]) for key, tree in trees.items()}


def tokenize(source):
    """The tokens of source text, (kind, text or value, offset), read one
    character at a time with str.isspace, isdigit, isalpha and isalnum,
    as lcframe.expr first read them; ending in ("end", "", len(source)).
    Raises the ExprSyntaxError of the first bad character or number
    literal."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^(),":
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
