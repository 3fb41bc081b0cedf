"""Bundled demonstration surfaces.

Every entry is a .surf file shipped with the package, so loading a
catalog surface exercises the same loader as user files.  The catalog
covers all the regimes the analysis layers care about:

* ``sphere`` -- the round unit sphere carried by a lightcone frame: a
  mixed type surface with lightlike circles at u = +-pi/4 and second
  kind rank-one singular circles at the poles u = +-pi/2.
* ``mixed_bowl`` -- mixed type, first kind lightlike lines at u = +-1,
  no singular points.
* ``twisted_band`` -- mixed type with a u-dependent frame, curved
  lightlike loci and nonzero twist coefficient; no singular points.
* ``timelike_trough`` -- everywhere timelike with a first kind singular
  line (v = pi/2) on which the modified Gauss curvature vanishes.
* ``flared_trough`` -- first kind singular line with nonzero modified
  Gauss and mean curvature.
* ``parabolic_cone`` -- second kind singular line (u = 0) with nonzero
  modified curvatures.
* ``cubic_cone`` -- second kind singular line where the curvatures decay
  at finite positive order.
* ``flat_plane`` -- a planar patch: both modified curvatures vanish
  identically around its singular line.
* ``zero_mean_band`` -- zero mean curvature everywhere; its lightlike
  lines consist of second kind points.
"""

from __future__ import annotations

from .errors import LcframeError
from .surface import SurfaceDef

__all__ = ["names", "load", "surface_text"]

_NAMES = (
    "sphere",
    "mixed_bowl",
    "twisted_band",
    "timelike_trough",
    "flared_trough",
    "parabolic_cone",
    "cubic_cone",
    "flat_plane",
    "zero_mean_band",
)


def names() -> tuple:
    """Names of the bundled surfaces, in catalog order."""
    return _NAMES


def surface_text(name: str) -> str:
    """Raw .surf file contents for a bundled surface."""
    if name not in _NAMES:
        raise LcframeError(
            f"unknown catalog surface {name!r}; available: {', '.join(_NAMES)}")
    from importlib import resources  # imports inspect from Python 3.12 on

    return (resources.files("lcframe") / "catalog" / f"{name}.surf").read_text("utf-8")


def load(name: str) -> SurfaceDef:
    """Load a bundled surface by name."""
    import json

    return SurfaceDef.from_dict(json.loads(surface_text(name)))
