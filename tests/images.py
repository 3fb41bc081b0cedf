"""Images of a lightcone framed surface: the same surface written
otherwise, so its classes and its K and H verdicts must not change.

image(data, ...) writes the .surf data of data (or of the catalog surface
so named) under the maps given, applied in this order.  Each is listed
with what it makes of a1, b1 and c2 at an image point, in terms of the
base's at the point's pull-back, Image.pull(u, v):
- gauge rho, an expression of (u, v) positive on the domain: v -> rho*v
  and w -> w/rho, written (rho)*(x) and (x)/(rho); a1/rho, rho*b1, c2.
- swap: v <-> w; b1, a1 and -c2, as m -> -m.
- matrix L, a Lorentz matrix (lorentz): X, v, w -> LX, Lv, Lw, row i
  written " + ".join((L_ik)*(x_k)), c folded into X's L_ik; a1, b1, c2.
- c: X -> cX, written c*(x) when no matrix is given; c*a1, c*b1, c*c2.
- shift (du, dv): u is written (u - (du)) and v (v - (dv)), and the
  domain moves by +du and +dv; a1, b1, c2.
- scale (ku, kv), not with a shift: u is written (u/(ku)) and v
  (v/(kv)), and the domain bounds are multiplied by ku and kv; a1/ku,
  b1/ku, c2/kv.
Only the swap changes the L1/L2 branch, which Image.act applies to a
PointClass.  u and v are substituted through the parser's tokenizer
(expr._TOKEN), so an image finds its shape by tokens as any text does.
An image keeps data's name unless name is given.
"""

import json
import math
from collections import namedtuple

from lcframe import catalog
from lcframe.expr import _TOKEN, parse
from lcframe.surface import SurfaceDef
from lcframe.taxonomy import LightlikeBranch, PointClass

#: data, the .surf data; pull, (u, v) of the image -> (u, v) of the base;
#: act, a PointClass of the base -> the image's.
Image = namedtuple("Image", "data pull act")


def lorentz(rapidity, first, second):
    """A proper orthochronous Lorentz matrix in signature (-, +, +): a
    rotation about the time axis, a boost along x1 and another rotation."""
    def rotation(a):
        c, s = math.cos(a), math.sin(a)
        return ((1.0, 0.0, 0.0), (0.0, c, -s), (0.0, s, c))

    def product(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
                     for i in range(3))

    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    boost = ((ch, sh, 0.0), (sh, ch, 0.0), (0.0, 0.0, 1.0))
    return product(product(rotation(first), boost), rotation(second))


def image(data, matrix=None, c=None, shift=None, *, name=None, gauge=None, swap=False,
          scale=None):
    """The Image of data under the maps given (see the module)."""
    if isinstance(data, str):
        data = json.loads(catalog.surface_text(data))
    x, fv, fw, domain = data["X"], data["v"], data["w"], data["domain"]
    if gauge is not None:
        fv, fw = [f"({gauge})*({t})" for t in fv], [f"({t})/({gauge})" for t in fw]
    if swap:
        fv, fw = fw, fv
    if matrix is not None:
        x, fv, fw = ([" + ".join(f"({k * m!r})*({t})" for m, t in zip(row, texts))
                      for row in matrix]
                     for texts, k in ((x, 1.0 if c is None else c), (fv, 1.0), (fw, 1.0)))
    elif c is not None:
        x = [f"{c!r}*({t})" for t in x]
    names, pull = {}, lambda u, v: (u, v)
    if shift is not None:
        names = {p: f"({p} - ({d!r}))" for p, d in zip("uv", shift)}
        domain = {p: [f"{b} + ({d!r})" for b in domain[p]] for p, d in zip("uv", shift)}
        pull = lambda u, v: (u - shift[0], v - shift[1])
    if scale is not None:
        assert shift is None, "a shift and a scale are not composed"
        names = {p: f"({p}/({k!r}))" for p, k in zip("uv", scale)}
        domain = {p: [f"({b})*({k!r})" for b in domain[p]] for p, k in zip("uv", scale)}
        pull = lambda u, v: (u / scale[0], v / scale[1])
    # each token after its whitespace, or what names writes for it
    x, fv, fw = ([_TOKEN.sub(lambda m: m[0][:m.start(1) - m.start()] + names.get(m[1], m[1]),
                             t) for t in texts] for texts in (x, fv, fw))
    out = {"name": name or data["name"], "X": x, "v": fv, "w": fw, "domain": domain}
    return Image(out, pull, swapped if swap else lambda pc: pc)


def swapped(pc):
    """pc with L1 and L2 exchanged: the class after v <-> w."""
    branch = {LightlikeBranch.L1: LightlikeBranch.L2,
              LightlikeBranch.L2: LightlikeBranch.L1}.get(pc.lightlike_branch)
    return PointClass(pc.category, branch, pc.degenerate, pc.kind)


def literal(s, data):
    """s derived with every constant literal: its components as trees,
    which the parser gives no slots."""
    x, fv, fw = ([parse(c) for c in data[key]] for key in "Xvw")
    return SurfaceDef(s.name, x, fv, fw, s.domain)
