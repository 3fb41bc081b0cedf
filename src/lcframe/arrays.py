"""Grids as arrays: the invariant program, packets and classes over
blocks of points.

classify.grid_blocks evaluates a grid of at least
classify.ARRAY_MIN_POINTS points here, BLOCK points at a time in
row-major order, and classify.write_grid_csv formats the blocks as it
formats a smaller grid's point blocks.  Per block, one call of the
surface's array program gives the 23 invariants as arrays, and the
packet (curvature._packet_fields) and the class (classify._class_code)
are computed from them by the very code a point block runs: that code
is written once against a few operations (where, not_, max, hypot,
sqrt, pow, div), and _ArrayOps spells them over arrays, as the point
block's code traced from it (straightline.float_code) spells them over
floats.  Every branch becomes a mask.  Only this module imports numpy,
and lcframe imports it only for such a grid.

The values are bit-identical to a point block's by construction: numpy
computes only the operations IEEE 754 rounds exactly (+ - * /,
negation, abs and sqrt), and every other function (sin, cos, tan, exp,
log, sinh, cosh and powers) is the same math or Python function,
called once per distinct IEEE bit pattern of its argument in a call
and scattered back to every element that holds that pattern (hypot is
called per element).  The same function of the same bits gives the
same bits, so this changes no output; keying by bits, not by value,
keeps 0.0 and -0.0 apart, and NaN payloads too.  The one exception is
the sign of a NaN, which a point block itself does not keep: CPython
3.11 flips it once it specialises float addition.  Surfaces of
revolution, cones and troughs repeat their values along whole grid
lines, so most blocks hold few distinct values.  texts formats a CSV
column the same way: each distinct pattern once per chunk.

numpy does not raise, so a fault mask is kept instead.  It is set
wherever a point's evaluation would raise: at a zero divisor, a guarded
log or sqrt, a per-element call that raises, a non-finite root, a point
outside the domain, and a fault of the jet program (curvature._JetRoots),
evaluated at the points that take the 0/0 limit of kappa_til_1.  The
grid still fails as a whole: at the first faulted point in row-major
order the point program runs and raises that point's own error.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .classify import _FMT, _class_code
from .curvature import _jet_limit, _JetRoots, _packet_fields, _packet_record, curvature_packet
from .errors import LcframeError
from .expr import SCALAR, NumberEnv

__all__ = ["ARRAY", "BLOCK", "Block", "grid_blocks", "texts"]

#: Points per block: enough to amortise numpy's per-call overhead over
#: the invariant program, the packet masks and the class predicates.
BLOCK = 4096

_FAULTS = (ArithmeticError, ValueError)

#: The format of _FMT ('%.12g') and a newline.
_LINE = _FMT.__self__ + "\n"


# ---------------------------------------------------------------------------
# The array number environment of expr.compile_program


def _distinct(x):
    """The distinct IEEE bit patterns of the array x as floats, and for
    each element the index of its pattern among them."""
    bits, inverse = np.unique(np.asarray(x, np.float64).view(np.int64), return_inverse=True)
    return bits.view(np.float64), inverse


def _each(bad, fn, x):
    """fn applied per element as the point program applies it, called
    once per distinct bit pattern of x: equal bits give equal results.
    Every element whose argument raises is marked in bad.  A scalar x
    (a constant subtree) faults every point."""
    if np.ndim(x) == 0:
        try:
            return fn(float(x))
        except _FAULTS:
            bad |= True
            return math.nan
    values, inverse = _distinct(x)
    xs = values.tolist()
    try:
        out = np.fromiter(map(fn, xs), float, len(xs))
    except _FAULTS:
        out = np.empty(len(xs))
        faulted = np.zeros(len(xs), bool)
        for i, xi in enumerate(xs):
            try:
                out[i] = fn(xi)
            except _FAULTS:
                out[i] = math.nan
                faulted[i] = True
        bad |= faulted[inverse]
    return out[inverse]


def _elementwise(fn):
    return lambda bad, x: _each(bad, fn, x)


def _div(bad, a, b):
    bad |= b == 0.0
    return np.divide(a, b)


def _sqrt(bad, x):
    bad |= x < 0.0
    return np.sqrt(x)


def _root(bad, x):
    x = np.broadcast_to(x, bad.shape)
    bad |= ~np.isfinite(x)
    return x


def _array_program(fn):
    def program(u, v):
        bad = np.zeros(len(u), bool)
        with np.errstate(all="ignore"):
            values = fn(u, v, bad)
        return values, bad

    return program


#: Arrays of points: the program takes arrays u and v and returns
#: (tuple of root arrays, fault mask).  A faulted point's values are
#: meaningless.
ARRAY = NumberEnv(
    namespace={
        "__builtins__": {},
        "_div": _div,
        "_pow": lambda bad, x, n: _each(bad, partial(pow, exp=n), x),
        "_root": _root,
        "sqrt": _sqrt,
        "_abs": lambda bad, x: np.abs(x),
        "sign": lambda bad, x: (x > 0.0) * 1.0 - (x < 0.0) * 1.0,
        # math.log raises exactly where the point program's guard does
        **{name: _elementwise(getattr(math, name))
           for name in ("sin", "cos", "tan", "exp", "log", "sinh", "cosh")},
    },
    templates={**SCALAR.templates, "/": "_div(_bad, {0}, {1})",
               "pow": "_pow(_bad, {0}, {p})", "call": "{p}(_bad, {0})"},
    root="_root(_bad, {text}), ",
    params="u, v, _bad",
    wrap=_array_program,
)


# ---------------------------------------------------------------------------
# The operations of the shared decisions over a block


def _pymax(first, *rest):
    """max() of the builtin, per element: a later value wins only where
    it is greater, so a NaN stays or loses exactly as it does there."""
    for x in rest:
        first = np.where(x > first, x, first)
    return first


def _hypot(x, y):
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, len(x))


def _each_where(bad, where, fn, x):
    """fn per element where `where` holds (NaN elsewhere); faults go to bad."""
    out = np.full(len(x), math.nan)
    idx = np.flatnonzero(where)
    faults = np.zeros(len(idx), bool)
    out[idx] = _each(faults, fn, x[idx])
    bad[idx] |= faults
    return out


class _ArrayOps:
    """The operations of the shared decisions over arrays of points, as
    straightline spells them over floats.  pow and div compute where
    their mask holds and mark in the fault mask `bad` each point at
    which the float operation would raise there."""

    where = staticmethod(np.where)
    not_ = staticmethod(np.logical_not)
    max = staticmethod(_pymax)
    hypot = staticmethod(_hypot)
    sqrt = staticmethod(np.sqrt)

    def __init__(self, bad):
        self.bad = bad

    def pow(self, x, p, where):
        return _each_where(self.bad, where, partial(pow, exp=p), x)

    def div(self, a, b, where):
        self.bad |= where & (b == 0.0)
        return a / b


# ---------------------------------------------------------------------------
# Packets and classes over a block


class Block:
    """Curvature packets of up to BLOCK consecutive grid points.

    `start` is the first point's row-major index, `u` and `v` the
    points; `columns`, `defined` and `flags` are what
    curvature._packet_fields gives for them: the packet fields, named
    as in the curvature CSV, and c2; where each field that a packet may
    leave None is set; and the packet's three flags.  With a tolerance,
    column "class" holds the classes as indices into classify.CLASSES.
    The other invariants are dropped once the block is built, as a
    classify grid keeps all its blocks.
    """

    __slots__ = ("start", "u", "v", "columns", "defined", "flags")

    def __init__(self, s, start, u, v, tol=None):
        self.start, self.u, self.v = start, u, v
        inv, bad = s.invariant_arrays(u, v)
        bad |= ~s.domain.contains(u, v)
        ops = _ArrayOps(bad)

        def limit(where):
            kappa1, defined = np.full(len(u), math.nan), np.zeros(len(u), bool)
            if where.any():
                idx = np.flatnonzero(where)
                jets, faults = s.program(_JetRoots._fields, "arrays")(u[idx], v[idx])
                kappa1[idx], defined[idx] = _jet_limit(_JetRoots._make(jets), _ArrayOps(faults))
                bad[idx] |= faults
            return kappa1, defined

        with np.errstate(all="ignore"):
            self.columns, self.defined, self.flags = _packet_fields(inv, ops, limit)
            self.columns["Gtil"] = np.full(len(u), self.columns["Gtil"])
            if tol is not None:
                self.columns["class"] = _class_code(inv, tol, ops)
        if bad.any():
            i = int(np.argmax(bad))
            curvature_packet(s, float(u[i]), float(v[i]))  # raises the point's own error
            raise LcframeError(
                f"array evaluation faulted at ({u[i]!r}, {v[i]!r}) where the point does not")

    def values(self, name, part=slice(None)):
        """Column `name` at the points `part`, None where the packet has
        None."""
        out = self.columns[name][part].tolist()
        defined = self.defined.get(name)
        if defined is not None:
            for i in np.flatnonzero(~defined[part]).tolist():
                out[i] = None
        return out

    def packets(self):
        """The block's CurvaturePackets, equal to curvature_packet's."""
        cols = {name: self.values(name) for name in self.columns}
        flags = {name: where.tolist() for name, where in self.flags.items()}
        return [_packet_record(u, v, {name: values[i] for name, values in cols.items()},
                               {name: where[i] for name, where in flags.items()})
                for i, (u, v) in enumerate(zip(self.u.tolist(), self.v.tolist()))]

    def texts(self, name, part=slice(None)):
        """Column `name` at the points `part` formatted, with "" where
        the packet has None."""
        defined = self.defined.get(name)
        return texts(self.columns[name][part], None if defined is None else defined[part])


def texts(values, defined=None):
    """Each value formatted as the CSVs format it, "" where `defined`
    is False.  Each distinct bit pattern is formatted once and its text
    gathered to every element that holds it; equal bits format equally,
    so the texts are those of formatting each element."""
    distinct, inverse = _distinct(values)
    n = len(distinct)
    # one '%' formats them all; a formatted float holds no newline
    formatted = ((_LINE * n) % tuple(distinct.tolist())).split("\n")
    out = np.array(formatted[:n], object).take(inverse).tolist()
    if defined is not None:
        for i in np.flatnonzero(~defined).tolist():
            out[i] = ""
    return out


def grid_blocks(s, us, vs, tol=None):
    """The Blocks of the grid us x vs in row-major order (u outer),
    classified at tol when it is given.

    Each block is evaluated when it is reached, so the first block with
    a faulted point raises that point's error."""
    nv = len(vs)
    u_all = np.repeat(np.asarray(us, float), nv)
    v_all = np.tile(np.asarray(vs, float), len(us))
    for start in range(0, len(u_all), BLOCK):
        stop = start + BLOCK
        yield Block(s, start, u_all[start:stop], v_all[start:stop], tol)
