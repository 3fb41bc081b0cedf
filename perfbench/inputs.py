"""Seeded benchmark inputs, generated without calling lcframe.

The nine base surfaces are pinned here rather than read from the
package catalog, so both commits of a comparison see identical inputs
even if the catalog changes.  Locus targets come from closed forms of
the defining inner products (derived by hand and checked with sympy in
``selftest.py``); survey variants are text transformations of the base
definitions.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re

#: The nine catalog surfaces as .surf dictionaries.
BASE_SURFACES = {
    "sphere": {
        "X": ["sin(u)", "cos(u)*sin(v)", "cos(u)*cos(v)"],
        "v": ["1", "sin(v)", "cos(v)"], "w": ["1", "-sin(v)", "-cos(v)"],
        "domain": {"u": ["-pi/2", "pi/2"], "v": ["0", "2*pi"]}},
    "mixed_bowl": {
        "X": ["u", "-((u^2 + 2)/2)*sin(v)", "-((u^2 + 2)/2)*cos(v)"],
        "v": ["1", "sin(v)", "cos(v)"], "w": ["1", "-sin(v)", "-cos(v)"],
        "domain": {"u": ["-2", "2"], "v": ["0", "2*pi"]}},
    "twisted_band": {
        "X": ["u", "sin(u) - v*cos(u)", "v*sin(u)"],
        "v": ["1", "sin(u)", "cos(u)"], "w": ["1", "-sin(u)", "-cos(u)"],
        "domain": {"u": ["-pi", "pi"], "v": ["-2.5", "2.5"]}},
    "timelike_trough": {
        "X": ["u", "-(v/2 + sin(2*v)/4)", "sin(v)^2/2"],
        "v": ["1", "sin(v)", "cos(v)"], "w": ["1", "-sin(v)", "-cos(v)"],
        "domain": {"u": ["-1", "1"], "v": ["0", "pi"]}},
    "flared_trough": {
        "X": ["u", "-(1 + u^2)*(v/2 + sin(2*v)/4)", "(1 + u^2)*sin(v)^2/2"],
        "v": ["1", "sin(v)", "cos(v)"], "w": ["1", "-sin(v)", "-cos(v)"],
        "domain": {"u": ["0.6", "1.5"], "v": ["0", "pi"]}},
    "parabolic_cone": {
        "X": ["2*u + u^2", "-u*sin(v)", "-u*cos(v)"],
        "v": ["1", "sin(v)", "cos(v)"], "w": ["1", "-sin(v)", "-cos(v)"],
        "domain": {"u": ["-0.4", "0.6"], "v": ["0", "2*pi"]}},
    "cubic_cone": {
        "X": ["u^3", "-u*sin(v)", "-u*cos(v)"],
        "v": ["1", "sin(v)", "cos(v)"], "w": ["1", "-sin(v)", "-cos(v)"],
        "domain": {"u": ["-0.5", "0.5"], "v": ["0", "2*pi"]}},
    "flat_plane": {
        "X": ["1", "-u*sin(v)", "-u*cos(v)"],
        "v": ["1", "sin(v)", "cos(v)"], "w": ["1", "-sin(v)", "-cos(v)"],
        "domain": {"u": ["-1", "1"], "v": ["0", "2*pi"]}},
    "zero_mean_band": {
        "X": ["u", "-v*cos(u)", "v*sin(u)"],
        "v": ["1", "sin(u)", "cos(u)"], "w": ["1", "-sin(u)", "-cos(u)"],
        "domain": {"u": ["-pi", "pi"], "v": ["-2", "2"]}},
}

SURFACE_NAMES = tuple(BASE_SURFACES)

PI = math.pi

#: Documented loci as (surface, label, defining function, point(t), t range).
#: The defining function is the inner product whose zero set is the locus:
#: a1 = -<X_u, w>/2 and b1 = -<X_u, v>/2 (lightlike), X_v = 0 (singular).
LOCI = (
    ("sphere", "pole+", "c2", lambda t: (PI / 2, t), (0.2, 2 * PI - 0.2)),
    ("sphere", "pole-", "c2", lambda t: (-PI / 2, t), (0.2, 2 * PI - 0.2)),
    ("sphere", "circle+", "a1", lambda t: (PI / 4, t), (0.2, 2 * PI - 0.2)),
    ("sphere", "circle-", "b1", lambda t: (-PI / 4, t), (0.2, 2 * PI - 0.2)),
    ("mixed_bowl", "u=1", "a1", lambda t: (1.0, t), (0.2, 2 * PI - 0.2)),
    ("mixed_bowl", "u=-1", "b1", lambda t: (-1.0, t), (0.2, 2 * PI - 0.2)),
    ("twisted_band", "a1=0", "a1",
     lambda t: (t, -1.0 - math.sin(2 * t) / 2), (-2.9, 2.9)),
    ("twisted_band", "b1=0", "b1",
     lambda t: (t, 1.0 - math.sin(2 * t) / 2), (-2.9, 2.9)),
    ("timelike_trough", "v=pi/2", "c2", lambda t: (t, PI / 2), (-0.85, 0.85)),
    ("flared_trough", "v=pi/2", "c2", lambda t: (t, PI / 2), (0.7, 1.4)),
    ("flared_trough", "a1=0", "a1",
     lambda t: (1.0 / (t * math.sin(t)), t), (1.0, 1.6)),
    ("parabolic_cone", "u=0", "c2", lambda t: (0.0, t), (0.2, 2 * PI - 0.2)),
    ("cubic_cone", "u=0", "c2", lambda t: (0.0, t), (0.2, 2 * PI - 0.2)),
    ("flat_plane", "u=0", "c2", lambda t: (0.0, t), (0.2, 2 * PI - 0.2)),
    ("zero_mean_band", "v=-1", "a1", lambda t: (t, -1.0), (-2.9, 2.9)),
    ("zero_mean_band", "v=1", "b1", lambda t: (t, 1.0), (-2.9, 2.9)),
)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def surf_text(name: str, spec: dict) -> str:
    """Canonical .surf JSON text of a surface dictionary."""
    return json.dumps({"name": name, **spec}, indent=2) + "\n"


def base_surface_texts() -> dict:
    return {name: surf_text(name, spec) for name, spec in BASE_SURFACES.items()}


def dense_grid_jobs(seed: int, points: int = 128 * 128):
    """One classify and one curvature job per surface, in catalog order.

    The seed picks each job's grid shape: one side from 128 to 136 and
    the other just long enough for at least `points` points, so the work
    per job stays fixed while the sampled points differ from seed to
    seed.  The order is fixed because the process's peak memory depends
    on it.
    """
    rng = random.Random(f"dense_grid:{seed}")
    jobs = []
    for name in SURFACE_NAMES:
        for command in ("classify", "curvature"):
            side = rng.randint(128, 136)
            other = -(-points // side)
            grid = (side, other) if rng.random() < 0.5 else (other, side)
            jobs.append({"command": command, "surface": name, "grid": grid})
    return jobs


def _stratified(rng, lo, hi, k, n):
    """A uniform draw from the k-th of n equal strata of [lo, hi], so
    every seed covers the whole range evenly."""
    return lo + (hi - lo) * (k + rng.random()) / n


def locus_targets(seed: int, per_locus: int = 7):
    """Seeded targets on every documented locus, round-robin over loci.

    Each locus gets `per_locus` evenly spaced parameters under one seeded
    offset, so every seed probes the same spread of positions along it.
    """
    rng = random.Random(f"locus_probe:{seed}")
    offsets = [rng.random() for _ in LOCI]
    targets = []
    for k in range(per_locus):
        for (surface, label, _field, point, (lo, hi)), offset in zip(LOCI, offsets):
            u, v = point(lo + (hi - lo) * (k + offset) / per_locus)
            targets.append({"surface": surface, "locus": label, "at": (u, v)})
    return targets


def _lorentz(rng, phi):
    """A proper orthochronous Lorentz matrix in signature (-, +, +):
    a rotation about the time axis, a boost of rapidity phi, and another
    rotation."""
    def rot(a):
        c, s = math.cos(a), math.sin(a)
        return ((1.0, 0.0, 0.0), (0.0, c, -s), (0.0, s, c))

    boost = ((math.cosh(phi), math.sinh(phi), 0.0),
             (math.sinh(phi), math.cosh(phi), 0.0),
             (0.0, 0.0, 1.0))

    def mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3))
                           for j in range(3)) for i in range(3))

    return mul(mul(rot(rng.uniform(0, 2 * PI)), boost), rot(rng.uniform(0, 2 * PI)))


def _transform(components, matrix, scale, du, dv):
    shifted = [re.sub(r"\bv\b", f"(v-({dv!r}))",
                      re.sub(r"\bu\b", f"(u-({du!r}))", c)) for c in components]
    out = []
    for row in matrix:
        terms = " + ".join(f"({scale * coef!r})*({c})" for coef, c in zip(row, shifted))
        out.append(terms)
    return out


def survey_variants(seed: int, per_surface: int = 4):
    """Seeded variants of every base surface.

    Each applies one Lorentz transformation to (X, v, w), a homothety
    X -> cX with c log-uniform over [1e-6, 1e6], and a shift of both
    parameters (the domain moves with it).  The variants of one surface
    draw log c and the rapidity from separate strata.  Returns (name,
    text) pairs.
    """
    rng = random.Random(f"surface_survey:{seed}")
    variants = []
    for k in range(per_surface):
        for base, spec in BASE_SURFACES.items():
            matrix = _lorentz(rng, _stratified(rng, -0.8, 0.8, (k + 1) % per_surface,
                                               per_surface))
            c = 10.0 ** _stratified(rng, -6.0, 6.0, k, per_surface)
            du, dv = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            dom = spec["domain"]
            name = f"{base}-v{k}"
            variant = {
                "X": _transform(spec["X"], matrix, c, du, dv),
                "v": _transform(spec["v"], matrix, 1.0, du, dv),
                "w": _transform(spec["w"], matrix, 1.0, du, dv),
                "domain": {
                    "u": [f"{dom['u'][0]} + ({du!r})", f"{dom['u'][1]} + ({du!r})"],
                    "v": [f"{dom['v'][0]} + ({dv!r})", f"{dom['v'][1]} + ({dv!r})"],
                },
            }
            variants.append((name, surf_text(name, variant)))
    return variants
