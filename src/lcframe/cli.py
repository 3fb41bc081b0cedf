"""Command-line frontend.

Subcommands: validate, classify, curvature, trace, limits, demo.  All
CSV output prints floats with 12 significant digits and a '.' decimal
separator regardless of locale (classify._FMT, '%.12g', formats every
one), so identical configurations produce byte-identical artifacts.
classify and curvature evaluate a grid of 4096 points or more as arrays
(lcframe.arrays), a block of 1024 points at a time, and write the same
bytes as the point loop that smaller grids keep; numpy is imported only
for such a grid, so the demo, trace, limits and validate never load it.
The argument parser is built once per process, on the first call of
main, and reused by every later call; each call parses into a fresh
namespace, so no option carries over from one call to the next.
Exit codes: 0 success, 1 validation or comparison failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from importlib import resources
from pathlib import Path

from . import catalog
from .classify import ARRAY_MIN_POINTS, _fmt, classify_grid, trace_zero_set
from .curvature import _packet, _singular, curvature_packet
from .errors import LcframeError
from .expr import constant_value
from .limits import ApproachPath, Verdict, boundedness_report, limit_along
from .surface import SurfaceDef, basic_invariants_at, frame_at, validate_framed

__all__ = ["main"]


def _parse_grid(text):
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must look like 64x64, got {text!r}") from None


def _parse_point(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"point must look like U,V, got {text!r}")
    try:
        return constant_value(parts[0]), constant_value(parts[1])
    except LcframeError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_surface(spec: str) -> SurfaceDef:
    if spec in catalog.names():
        return catalog.load(spec)
    return SurfaceDef.from_file(spec)


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lcframe",
        description="Analyse lightcone framed surfaces: validation, point "
                    "classification, curvature fields, locus tracing and "
                    "curvature limits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, grid_default="32x32"):
        p.add_argument("surface",
                       help="surface file (.surf) or bundled catalog name "
                            f"({', '.join(catalog.names())})")
        p.add_argument("--grid", type=_parse_grid, default=_parse_grid(grid_default),
                       metavar="WxH", help=f"sample resolution (default {grid_default})")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory (default: current directory)")

    p = sub.add_parser("validate", help="check the framed-surface conditions")
    p.add_argument("surface")
    p.add_argument("--grid", type=_parse_grid, default=(16, 16), metavar="WxH")
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("classify", help="classify a sample grid to CSV")
    add_common(p)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="zero tolerance for sign tests (default 1e-9)")

    p = sub.add_parser("curvature", help="curvature packets over a grid to CSV")
    add_common(p)

    p = sub.add_parser("trace", help="trace the zero set of lambda_til or c2")
    add_common(p, grid_default="64x64")
    p.add_argument("--field", choices=("lambda_til", "c2"), default="lambda_til")
    p.add_argument("--refine-tol", type=float, default=1e-9)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="zero tolerance for classifying vertices (default 1e-9)")

    p = sub.add_parser("limits", help="curvature limits at a point")
    p.add_argument("surface")
    p.add_argument("--at", type=_parse_point, required=True, metavar="U,V",
                   help="target point; constant expressions allowed (pi/2,1)")
    p.add_argument("--quantity", choices=("K", "H", "c2K"),
                   help="single quantity along the locus-transversal "
                        "direction instead of the full report")
    p.add_argument("--directions", type=int, default=8)
    p.add_argument("--out", type=Path, default=None,
                   help="also write report and per-sample CSV here")

    p = sub.add_parser("demo", help="run the bundled sphere pipeline and "
                                    "compare against the golden artifacts")
    p.add_argument("--out", type=Path, default=Path("demo-out"))
    return parser


CURVATURE_HEADER = (
    "u", "v", "Etil", "Ftil", "Gtil", "Ltil", "Mtil", "Ntil", "lambda_til",
    "Ktil", "Htil", "K", "H", "kappa_til_1", "kappa_til_2",
    "V1_u", "V1_v", "V2_u", "V2_v", "ntil_1", "ntil_2", "ntil_3",
)


def _write_curvature_csv(s, grid, fh):
    us, vs = s.domain.grid(*grid)
    fh.write(",".join(CURVATURE_HEADER) + "\n")
    if len(us) * len(vs) < ARRAY_MIN_POINTS:
        _write_curvature_points(s, us, vs, fh)
        return
    from .arrays import grid_blocks, write_grid_csv

    write_grid_csv(fh, us, vs, grid_blocks(s, us, vs),
                   lambda block: map(block.texts, CURVATURE_HEADER[2:]))


def _write_curvature_points(s, us, vs, fh):
    """The curvature CSV rows of the grid us x vs, one point at a time."""
    for u in us:
        u_text = _fmt(u)
        for v in vs:
            p = curvature_packet(s, u, v)
            v1 = p.V1 or (None, None)
            v2 = p.V2 or (None, None)
            fh.write(",".join((
                u_text, _fmt(v), _fmt(p.Etil), _fmt(p.Ftil), _fmt(p.Gtil),
                _fmt(p.Ltil), _fmt(p.Mtil), _fmt(p.Ntil), _fmt(p.lambda_til),
                _fmt(p.Ktil), _fmt(p.Htil), _fmt(p.K), _fmt(p.H),
                _fmt(p.kappa_til_1), _fmt(p.kappa_til_2),
                _fmt(v1[0]), _fmt(v1[1]), _fmt(v2[0]), _fmt(v2[1]),
                _fmt(p.n_til.x1), _fmt(p.n_til.x2), _fmt(p.n_til.x3))) + "\n")


def _write_trace_csv(polylines, fh):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(("field", "polyline", "vertex", "u", "v", "residual",
                     "degenerate", "closed"))
    for pid, poly in enumerate(polylines):
        for k, ((u, v), res, deg) in enumerate(
                zip(poly.vertices, poly.residuals, poly.degenerate)):
            writer.writerow((
                poly.field, pid, k, _fmt(u), _fmt(v), _fmt(res),
                "" if deg is None else str(deg).lower(),
                str(poly.closed).lower(),
            ))


def _cmd_validate(args):
    s = _load_surface(args.surface)
    rep = validate_framed(s, args.grid, args.tol)
    print(f"surface: {s.name}")
    print(f"grid: {rep.grid[0]}x{rep.grid[1]}  tol: {_fmt(rep.tol)}")
    print(f"max wedge residual: {_fmt(rep.max_wedge_residual)}")
    print(f"max lightlike-pair residual: {_fmt(rep.max_delta4_residual)}")
    print(f"max |a2|: {_fmt(rep.max_abs_a2)}  max |b2|: {_fmt(rep.max_abs_b2)}")
    print(f"admitted: {str(rep.admitted).lower()}")
    if not rep.admitted:
        u, v, check, value = rep.witness
        print(f"witness: ({_fmt(u)}, {_fmt(v)}) failed {check} "
              f"with {_fmt(value)}", file=sys.stderr)
        return 1
    return 0


def _cmd_classify(args):
    s = _load_surface(args.surface)
    table = classify_grid(s, args.grid, args.tol)
    args.out.mkdir(parents=True, exist_ok=True)
    out = args.out / f"{s.name}-classify.csv"
    with open(out, "w", encoding="utf-8", newline="") as fh:
        table.write_csv(fh)
    print(f"wrote {out}")
    return 0


def _cmd_curvature(args):
    s = _load_surface(args.surface)
    args.out.mkdir(parents=True, exist_ok=True)
    out = args.out / f"{s.name}-curvature.csv"
    with open(out, "w", encoding="utf-8", newline="") as fh:
        _write_curvature_csv(s, args.grid, fh)
    print(f"wrote {out}")
    return 0


def _cmd_trace(args):
    s = _load_surface(args.surface)
    polylines = trace_zero_set(s, args.field, args.grid, args.refine_tol, args.tol)
    args.out.mkdir(parents=True, exist_ok=True)
    out = args.out / f"{s.name}-trace-{args.field}.csv"
    with open(out, "w", encoding="utf-8", newline="") as fh:
        _write_trace_csv(polylines, fh)
    print(f"wrote {out} ({len(polylines)} polylines)")
    return 0


def _cmd_limits(args):
    s = _load_surface(args.surface)
    u, v = args.at
    rep = boundedness_report(s, u, v, directions=args.directions)
    if args.quantity:
        lines = []
        for oc in rep.outcomes:
            if oc.error is not None:
                lines.append(f"{oc.label}: error: {oc.error}")
            elif args.quantity in oc.verdicts:
                ver = oc.verdicts[args.quantity]
                entry = f"{oc.label}: {args.quantity}: {ver.verdict.value}"
                if ver.value is not None:
                    entry += f" value={_fmt(ver.value)}"
                lines.append(entry)
        text = "\n".join(lines) + "\n"
    else:
        text = rep.to_text()
    sys.stdout.write(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{s.name}-limits.txt").write_text(text, encoding="utf-8")
        with open(args.out / f"{s.name}-limits-samples.csv", "w",
                  encoding="utf-8", newline="") as fh:
            rep.write_samples_csv(fh)
        print(f"wrote {args.out / (s.name + '-limits.txt')}")
    return 0


# ---------------------------------------------------------------------------
# Demo pipeline: recompute the bundled sphere artifacts and diff them
# against the goldens shipped with the package.


DEMO_CLASSIFY_GRID = (33, 32)
DEMO_CURVATURE_GRID = (9, 8)
DEMO_TRACE_GRID = (64, 64)

GOLDEN_FILES = (
    "sphere-values.csv",
    "sphere-classify.csv",
    "sphere-curvature.csv",
    "sphere-trace-lambda_til.csv",
    "sphere-limits.txt",
)


def _sphere_reference_rows(s):
    """Recompute the reference sheet: each row compares a computed
    quantity at a sample point against its closed form on the round
    sphere carried by the lightcone frame."""
    rows = []

    def add(name, u, v, computed, expected):
        rows.append((name, u, v, computed, expected, abs(computed - expected)))

    n_v = 16
    vs = [2.0 * math.pi * k / n_v for k in range(n_v)]
    us = [-1.2, -0.6, -0.3, 0.0, 0.35, 0.9, 1.25]

    for v in vs:
        for u in us:
            inv = basic_invariants_at(s, u, v)
            add("a1", u, v, inv.a1, -(math.sin(u) - math.cos(u)) / 2.0)
            add("b1", u, v, inv.b1, (math.sin(u) + math.cos(u)) / 2.0)
            add("c1", u, v, inv.c1, 0.0)
            add("c2", u, v, inv.c2, -math.cos(u))
            for name, val, want in (("e1", inv.e1, 0.0), ("f1", inv.f1, 0.0),
                                    ("g1", inv.g1, 0.0), ("e2", inv.e2, 0.0),
                                    ("f2", inv.f2, 0.5), ("g2", inv.g2, -0.5)):
                add(name, u, v, val, want)
            p = _packet(s, u, v, inv)
            add("lambda_til", u, v, p.lambda_til, -math.cos(2.0 * u))
            add("Ktil", u, v, p.Ktil, -math.cos(u))
            add("Htil", u, v, p.Htil, -math.sin(u) ** 2 * math.cos(u))
            fr = frame_at(s, u, v)
            add("m_1", u, v, fr.m.x1, 0.0)
            add("m_2", u, v, fr.m.x2, -math.cos(v))
            add("m_3", u, v, fr.m.x3, math.sin(v))
            add("ntil_1", u, v, p.n_til.x1, math.sin(u))
            add("ntil_2", u, v, p.n_til.x2, -math.cos(u) * math.sin(v))
            add("ntil_3", u, v, p.n_til.x3, -math.cos(u) * math.cos(v))
            add("K", u, v, p.K, 1.0 / math.cos(2.0 * u) ** 2)
            add("H", u, v, p.H, math.sin(u) ** 2 * abs(1.0 / math.cos(2.0 * u)) ** 1.5)

    for v in (0.5, 2.75):
        for u in (math.pi / 2, -math.pi / 2):
            inv = basic_invariants_at(s, u, v)
            p = _packet(s, u, v, inv)
            add("pole_Ktil", u, v, p.Ktil, 0.0)
            add("pole_Htil", u, v, p.Htil, 0.0)
            add("pole_kappa_til_1", u, v, p.kappa_til_1, 0.5)
            add("pole_c2u", u, v, inv.c2u, math.sin(u))
            add("pole_c2v", u, v, inv.c2v, 0.0)
            sc = _singular(inv)
            add("pole_kappa_v_til", u, v, sc.kappa_v_til, 1.0)
            add("pole_mu_c_til", u, v, sc.mu_c_til, 0.0)
            add("pole_mu_Pi_til", u, v, sc.mu_Pi_til, 0.0)

    for v in (1.0, 4.0):
        path = ApproachPath(target=(math.pi / 2, v), direction=(-1.0, 0.0))
        for q in ("K", "H"):
            ver = limit_along(s, path, q)
            value = ver.value if ver.verdict is Verdict.NONZERO_LIMIT else math.nan
            add(f"pole_limit_{q}", math.pi / 2, v, value, 1.0)
    return rows


def _write_values_csv(rows, fh):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(("check", "u", "v", "computed", "expected", "abs_error"))
    for name, u, v, computed, expected, err in rows:
        writer.writerow((name, _fmt(u), _fmt(v), _fmt(computed),
                         _fmt(expected), _fmt(err)))


DEMO_TOLERANCES = {
    "a1": 1e-10, "b1": 1e-10, "c1": 1e-10, "c2": 1e-10,
    "e1": 1e-10, "f1": 1e-10, "g1": 1e-10,
    "e2": 1e-10, "f2": 1e-10, "g2": 1e-10,
    "lambda_til": 1e-9, "Ktil": 1e-9, "Htil": 1e-9,
    "m_1": 1e-10, "m_2": 1e-10, "m_3": 1e-10,
    "ntil_1": 1e-9, "ntil_2": 1e-9, "ntil_3": 1e-9,
    "K": 1e-8, "H": 1e-8,
    "pole_Ktil": 1e-10, "pole_Htil": 1e-10,
    "pole_kappa_til_1": 1e-3,
    "pole_c2u": 1e-8, "pole_c2v": 1e-10,
    "pole_kappa_v_til": 1e-8, "pole_mu_c_til": 1e-10, "pole_mu_Pi_til": 1e-10,
    "pole_limit_K": 1e-4, "pole_limit_H": 1e-4,
}


def run_demo(out_dir: Path, golden_dir=None) -> int:
    """Recompute every demo artifact into out_dir and compare with the
    goldens; returns the number of mismatching files (0 = clean)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    s = catalog.load("sphere")

    rows = _sphere_reference_rows(s)
    failures = []
    for name, u, v, computed, expected, err in rows:
        tol = DEMO_TOLERANCES[name]
        relative = name in ("K", "H")
        bound = tol * (1.0 + abs(expected)) if relative else tol
        if not (err <= bound):
            failures.append((name, u, v, err))
    with open(out_dir / "sphere-values.csv", "w", encoding="utf-8", newline="") as fh:
        _write_values_csv(rows, fh)

    table = classify_grid(s, DEMO_CLASSIFY_GRID, 1e-9)
    with open(out_dir / "sphere-classify.csv", "w", encoding="utf-8", newline="") as fh:
        table.write_csv(fh)

    with open(out_dir / "sphere-curvature.csv", "w", encoding="utf-8", newline="") as fh:
        _write_curvature_csv(s, DEMO_CURVATURE_GRID, fh)

    polylines = trace_zero_set(s, "lambda_til", DEMO_TRACE_GRID, 1e-9)
    with open(out_dir / "sphere-trace-lambda_til.csv", "w", encoding="utf-8",
              newline="") as fh:
        _write_trace_csv(polylines, fh)

    rep = boundedness_report(s, math.pi / 2, 1.0)
    (out_dir / "sphere-limits.txt").write_text(rep.to_text(), encoding="utf-8")

    for name, u, v, err in failures:
        print(f"value check failed: {name} at ({_fmt(u)}, {_fmt(v)}) "
              f"error {_fmt(err)}", file=sys.stderr)

    mismatches = len(failures)
    for fname in GOLDEN_FILES:
        if golden_dir is not None:
            golden = Path(golden_dir) / fname
            golden_bytes = golden.read_bytes() if golden.is_file() else None
        else:
            res = resources.files("lcframe") / "golden" / fname
            golden_bytes = res.read_bytes() if res.is_file() else None
        if golden_bytes is None:
            print(f"golden file missing: {fname}", file=sys.stderr)
            mismatches += 1
            continue
        if (out_dir / fname).read_bytes() != golden_bytes:
            print(f"golden mismatch: {fname}", file=sys.stderr)
            mismatches += 1
        else:
            print(f"golden match: {fname}")
    return mismatches


def _cmd_demo(args):
    mismatches = run_demo(args.out)
    if mismatches:
        print(f"demo failed: {mismatches} mismatching checks", file=sys.stderr)
        return 1
    print("demo ok: all golden artifacts match")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "curvature": _cmd_curvature,
    "trace": _cmd_trace,
    "limits": _cmd_limits,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except LcframeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
