"""The three workloads: their jobs, point counts and output checks.

A job is one ``lcframe`` subcommand on one input, issued through
``cli.main([...])`` as a user would issue it.  Every job counts a fixed
number of requested points, set by its inputs: the grid of a grid
command, or rays x samples of a limits report.
"""

from __future__ import annotations

import csv
import io
import random

import inputs

#: Limits reports probe the default fan: 8 rays plus the two transversal
#: rays, each sampled 12 times.
LIMIT_RAYS = 8 + 2
LIMIT_SAMPLES = 12
SURVEY_GRID = (64, 64)
VALIDATE_GRID = (16, 16)

#: Rows per grid job checked against the textbook curvature route, and
#: the margin from the loci that route needs to be well conditioned.
CHECKED_ROWS = 24
CHECK_MARGIN = 0.05
CHECK_TOL = 1e-7


class Workload:
    """Jobs plus the .surf texts they read; ``surfaces`` maps file stem
    to text."""

    def __init__(self, surfaces, jobs, digests):
        self.surfaces = surfaces
        self.jobs = jobs
        self.input_digests = digests


def _grid_arg(grid):
    return f"{grid[0]}x{grid[1]}"


def build(name: str, seed: int) -> Workload:
    return _BUILDERS[name](seed)


def _dense_grid(seed):
    texts = inputs.base_surface_texts()
    jobs = []
    for k, spec in enumerate(inputs.dense_grid_jobs(seed)):
        nu, nv = spec["grid"]
        jobs.append({
            "id": f"{k:02d}-{spec['command']}-{spec['surface']}",
            "command": spec["command"], "surface": spec["surface"],
            "args": ["--grid", _grid_arg(spec["grid"])],
            "grid": spec["grid"], "points": nu * nv, "writes": True,
            "check_seed": f"{seed}:{k}",
        })
    return Workload(texts, jobs, _digests(texts))


def _locus_probe(seed):
    texts = inputs.base_surface_texts()
    targets = inputs.locus_targets(seed)
    jobs = []
    for k, t in enumerate(targets):
        u, v = t["at"]
        jobs.append({
            "id": f"{k:03d}-limits-{t['surface']}-{t['locus']}",
            "command": "limits", "surface": t["surface"],
            "args": [f"--at={u!r},{v!r}"],  # '=' keeps a negative U off the option parser
            "points": LIMIT_RAYS * LIMIT_SAMPLES, "writes": True,
        })
    digests = _digests(texts)
    digests["targets"] = inputs.sha256_text(
        "\n".join(f"{t['surface']} {t['locus']} {t['at'][0]!r} {t['at'][1]!r}"
                  for t in targets) + "\n")
    return Workload(texts, jobs, digests)


def _surface_survey(seed):
    variants = inputs.survey_variants(seed)
    texts = dict(variants)
    jobs = []
    for name, _ in variants:
        jobs.append({
            "id": f"{len(jobs):03d}-validate-{name}", "command": "validate",
            "surface": name, "args": ["--grid", _grid_arg(VALIDATE_GRID)],
            "points": VALIDATE_GRID[0] * VALIDATE_GRID[1], "writes": False,
        })
        for field in ("lambda_til", "c2"):
            jobs.append({
                "id": f"{len(jobs):03d}-trace-{field}-{name}", "command": "trace",
                "surface": name,
                "args": ["--field", field, "--grid", _grid_arg(SURVEY_GRID)],
                "points": SURVEY_GRID[0] * SURVEY_GRID[1], "writes": True,
            })
    return Workload(texts, jobs, _digests(texts))


_BUILDERS = {
    "dense_grid": _dense_grid,
    "locus_probe": _locus_probe,
    "surface_survey": _surface_survey,
}

NAMES = tuple(_BUILDERS)


def _digests(texts):
    return {f"{name}.surf": inputs.sha256_text(text) for name, text in texts.items()}


# ---------------------------------------------------------------------------
# Output checks.  Each returns None when the output is right, or the reason.


def check(job, stdout, files, surface_path):
    return _CHECKS[job["command"]](job, stdout, files, surface_path)


def _check_validate(job, stdout, files, surface_path):
    if "admitted: true" not in stdout.splitlines():
        return "validate did not admit the variant"
    return None


def _check_limits(job, stdout, files, surface_path):
    lines = stdout.splitlines()
    if not any(line in ("category: lightlike", "category: singular1") for line in lines):
        return "target does not classify lightlike or singular1"
    if not any(": K: " in line for line in lines):
        return "report has no completed ray"
    if not any(line.startswith("bounded H implies bounded K: ") for line in lines):
        return "report is incomplete"
    return None


def _check_trace(job, stdout, files, surface_path):
    data = _output(files, "-trace-")
    if data is None or next(_reader(data))[:4] != ["field", "polyline", "vertex", "u"]:
        return "trace CSV missing or malformed"
    return None


def _textbook_check(job, files, surface_path, marker, c2_column):
    """Check sampled rows against the textbook route:
    K c2 |lam~|^2 = K~ and H c2 |lam~|^1.5 = H~, with K and H from
    ``classical_curvatures`` and c2, lam~ from direct inner products.

    Rows are streamed twice rather than held, so the check adds little to
    the process's peak memory."""
    from lcframe.curvature import classical_curvatures
    from lcframe.minkowski import pseudo_dot
    from lcframe.surface import SurfaceDef

    data = _output(files, marker)
    if data is None:
        return f"{job['command']} CSV missing"
    nu, nv = job["grid"]
    reader = _reader(data)
    col = {name: i for i, name in enumerate(next(reader))}
    candidates, count = [], 0
    for count, row in enumerate(reader, 1):
        if row[col["K"]] and row[col["H"]]:
            candidates.append(count - 1)
    if count != nu * nv:
        return f"{job['command']} CSV has {count} rows, expected {nu * nv}"

    s = SurfaceDef.from_file(surface_path)
    us, vs = s.domain.grid(nu, nv)
    chosen = {}
    for k in random.Random(job["check_seed"]).sample(candidates, len(candidates)):
        if len(chosen) == CHECKED_ROWS:
            break
        u, v = us[k // nv], vs[k % nv]
        xu, m = s.x_u(u, v), s.frame_vec_m(u, v)
        c2 = pseudo_dot(s.x_v(u, v), m)
        lam = pseudo_dot(xu, xu) - pseudo_dot(xu, m) ** 2
        if abs(c2) >= CHECK_MARGIN and abs(lam) >= CHECK_MARGIN:
            chosen[k] = (u, v, c2, lam)
    if len(chosen) < CHECKED_ROWS:
        return f"only {len(chosen)} rows lie far enough from the loci to check"

    reader = _reader(data)
    next(reader)
    for k, row in enumerate(reader):
        if k not in chosen:
            continue
        u, v, c2, lam = chosen[k]
        c = classical_curvatures(s, u, v)
        if c2_column and not _close(float(row[col["c2"]]), c2):
            return f"row {k}: c2 differs from <X_v, m>"
        if not (_close(c.K * c2 * abs(lam) ** 2, float(row[col["Ktil"]]))
                and _close(c.H * c2 * abs(lam) ** 1.5, float(row[col["Htil"]]))):
            return f"row {k}: K~/H~ disagree with the textbook route at ({u!r}, {v!r})"
    return None


def _close(a, b):
    return abs(a - b) <= CHECK_TOL * (1.0 + max(abs(a), abs(b)))


def _check_classify(job, stdout, files, surface_path):
    return _textbook_check(job, files, surface_path, "-classify.csv", True)


def _check_curvature(job, stdout, files, surface_path):
    return _textbook_check(job, files, surface_path, "-curvature.csv", False)


def _output(files, marker):
    for fname, data in files.items():
        if marker in fname:
            return data
    return None


def _reader(data):
    return csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))


_CHECKS = {
    "validate": _check_validate,
    "limits": _check_limits,
    "trace": _check_trace,
    "classify": _check_classify,
    "curvature": _check_curvature,
}
