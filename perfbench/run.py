"""Benchmark of lcframe, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense_grid --seed 1 --seconds 20 --trace 0

Workloads are listed in BENCHMARK.json.  Each is a closed loop: one
caller issues ``lcframe`` subcommands through ``cli.main([...])``, one
job after the other, in one process on one thread.  A run repeats whole
passes over the workload's seeded job list until at least ``--seconds``
of job time has been measured, so every run sees the same mix of jobs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one
pass and runs every job twice, untraced and then traced through the
wrappers in ``tracer.py``; it reports the per-layer metrics, and fails a
job whose traced output differs from its untraced output.

On shared virtual CPUs the interpreter's speed can drift by 15-30% from
minute to minute (seen on a 2-vCPU x86-64 container), and a whole run
can land in a slow spell.  So every time metric
is scaled to a reference speed: a fixed pure-Python probe, much like
lcframe's own evaluation loop, runs before and after each job and every
100 ms during it (from a timer signal, its time left out of the job's),
and each job's time is multiplied by ``REFERENCE_PROBE_S`` over the mean
of those probe times.  Raw times are kept in the record.

Before any job runs, ``cli.run_demo`` must reproduce the five golden
sphere artifacts; otherwise the run stops with an error and no result.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, input and output SHA-256s, failures, per-job figures and
spans) is written under ``.perfbench/results``.
"""

import os

# One thread for any BLAS a later kernel may pull in; set before imports.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

#: Speed probe: a sample is taken before and after each measured interval
#: and every PROBE_EVERY_S during a job.  REFERENCE_PROBE_S is a sample's
#: typical time on an idle 2-CPU x86-64 container (Python 3.11); it only
#: fixes the unit of the scaled times.
PROBE_EVERY_S = 0.1
REFERENCE_PROBE_S = 1.5e-3


def _probe_closures(count=200, seed=20250418):
    """Distinct compiled closures, like lcframe's field table: a tight
    loop alone speeds up and slows down more than lcframe does."""
    rng = random.Random(seed)

    def expr(depth):
        if depth == 0:
            return rng.choice(["u", "v", repr(round(rng.uniform(-2.0, 2.0), 3))])
        op = rng.choice(["+", "-", "*", "sin", "cos"])
        if op in ("sin", "cos"):
            return f"{op}({expr(depth - 1)})"
        return f"({expr(depth - 1)} {op} {expr(depth - 1)})"

    env = {"__builtins__": {}, "sin": math.sin, "cos": math.cos}
    return [eval(compile(f"lambda u, v: {expr(4)}", "<probe>", "eval"), env)
            for _ in range(count)]


_PROBE_CLOSURES = _probe_closures()


def _probe_work():
    """Fixed pure-Python work that exercises what lcframe's loops do:
    closure calls, float math, dict lookups and small tuples."""
    first = _PROBE_CLOSURES[0]
    table = {"a": 0.5, "b": -0.25}
    acc = 0.0
    for i in range(1500):
        u = i * 1e-3
        x = first(u, 0.5) * table["a"] + first(0.5, u) * table["b"]
        pair = (x, abs(x))
        acc += pair[1] if x < 0.0 else pair[0]
    for k in range(3):
        for f in _PROBE_CLOSURES:
            acc += f(0.1 * k, 0.7)
    return acc


class SpeedMeter:
    """Samples the interpreter's speed around and during measured work.

    A sample is the best of three probe calls.  ``time_call`` also takes
    one every PROBE_EVERY_S while the call runs, from a SIGALRM handler,
    and leaves the handler's time out of the call's time.
    """

    def __init__(self):
        self.samples = []
        self._in_call = []
        self._probe_s = 0.0
        self._last = self._sample()

    def _sample(self):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            _probe_work()
            best = min(best, time.perf_counter() - start)
        self.samples.append(best)
        return best

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self._in_call.append(self._sample())
        self._probe_s += time.perf_counter() - start

    def _scale(self, seconds, during):
        before = self._last
        self._last = self._sample()
        return seconds * REFERENCE_PROBE_S / statistics.fmean([before, *during, self._last])

    def scaled(self, measured_s):
        """`measured_s`, measured just now elsewhere, at reference speed."""
        return self._scale(measured_s, [])

    def time_call(self, call):
        """Run `call`; return its seconds and its seconds at reference speed."""
        self._in_call, self._probe_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        start = time.perf_counter()
        try:
            call()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        seconds = elapsed - self._probe_s
        return seconds, self._scale(seconds, self._in_call)


def plain_time_call(call):
    start = time.perf_counter()
    call()
    seconds = time.perf_counter() - start
    return seconds, seconds


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def import_lcframe():
    """Import lcframe from this checkout's sources, never from elsewhere."""
    init = SRC / "lcframe" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"lcframe sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import lcframe
    import lcframe.cli  # noqa: F401  (not imported by the package itself)

    if Path(lcframe.__file__).resolve() != init.resolve():
        raise BenchError(f"lcframe was imported from {lcframe.__file__}, not {init}")


def measure_setup(paths):
    """Median seconds, at reference speed, to import lcframe and build
    every SurfaceDef the workload uses, each time in a fresh process."""
    times = []
    meter = SpeedMeter()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, paths)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
        times.append(meter.scaled(float(proc.stdout.split()[-1])))
    return statistics.median(times), times


def check_goldens(run_dir):
    from lcframe.cli import run_demo

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        mismatches = run_demo(run_dir / "demo")
    if mismatches != 0:
        raise BenchError(f"lcframe demo: {mismatches} golden mismatches\n{sink.getvalue()}")


class JobResult:
    __slots__ = ("seconds", "scaled_s", "rc", "error", "stdout", "files", "digest")


def run_job(main, job, surface_path, out_dir, time_call=plain_time_call):
    """Issue one subcommand; only the call into ``main`` is timed."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    argv = [job["command"], str(surface_path), *job["args"]]
    if job["writes"]:
        argv += ["--out", str(out_dir)]
    res = JobResult()
    res.error = None
    stdout, stderr = io.StringIO(), io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                res.rc = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            res.rc = exc.code
        except Exception:  # a failed job is counted and the loop goes on
            res.rc = None
            res.error = traceback.format_exc(limit=-2).strip()

    res.seconds, res.scaled_s = time_call(call)
    if res.error is None and res.rc != 0:
        res.error = f"exit code {res.rc}: {stderr.getvalue().strip()[-400:]}"
    res.stdout = stdout.getvalue().replace(str(out_dir), "<out>")
    res.files = ({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
                 if out_dir.is_dir() else {})
    h = hashlib.sha256(res.stdout.encode("utf-8"))
    for name, data in res.files.items():
        h.update(f"\0{name}\0{len(data)}\0".encode("utf-8"))
        h.update(data)
    res.digest = h.hexdigest()
    return res


class Runner:
    """Runs a workload's jobs, checks their outputs and keeps the tallies."""

    def __init__(self, workload, run_dir):
        self.workload = workload
        self.run_dir = run_dir
        self.inputs_dir = run_dir / "inputs"
        self.inputs_dir.mkdir(parents=True)
        self.paths = {}
        for stem, text in workload.surfaces.items():
            path = self.inputs_dir / f"{stem}.surf"
            path.write_text(text, encoding="utf-8")
            self.paths[stem] = path
        self.out_dir = run_dir / "out"
        self.first_digest = {}
        self.failures = []
        self.attempted = 0

    def run(self, job, main, compare_to=None, time_call=plain_time_call):
        """Run, then check the output (first run of a job) or compare its
        digest with the first run.  Returns (result, ok)."""
        path = self.paths[job["surface"]]
        res = run_job(main, job, path, self.out_dir, time_call)
        self.attempted += 1
        reason = res.error
        if reason is None:
            expected = compare_to or self.first_digest.get(job["id"])
            if expected is None:
                reason = workloads.check(job, res.stdout, res.files, path)
                self.first_digest[job["id"]] = res.digest
            elif res.digest != expected:
                reason = f"output digest {res.digest[:12]} differs from {expected[:12]}"
        if reason is not None:
            self.failures.append({"job": job["id"], "reason": reason})
            print(f"job {job['id']} failed: {reason}", file=sys.stderr)
        return res, reason is None


def cli_main():
    # Looked up on every call, so the traced run reaches the wrapper.
    return sys.modules["lcframe.cli"].main


def measure(runner, seconds):
    """Whole passes until at least `seconds` of job time; end-to-end metrics."""
    raw, latencies, points, passes = [], [], 0, 0
    meter = SpeedMeter()
    per_job = {job["id"]: [] for job in runner.workload.jobs}
    while sum(raw) < seconds:
        for job in runner.workload.jobs:
            res, ok = runner.run(job, cli_main(), time_call=meter.time_call)
            raw.append(res.seconds)
            latencies.append(res.scaled_s)
            per_job[job["id"]].append((res.seconds, latencies[-1]))
            if ok:
                points += job["points"]
        passes += 1
    setup_s, setup_samples = measure_setup(list(runner.paths.values()))
    busy = sum(latencies)
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "setup_s": setup_s,
        "points_per_s": points / busy,
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_deciles = statistics.quantiles(raw, n=10)
    detail = {"passes": passes, "jobs_timed": len(latencies), "busy_s": busy,
              "raw_busy_s": sum(raw), "probe_samples": len(meter.samples),
              "raw_job_p50_ms": 1e3 * statistics.median(raw),
              "raw_job_p90_ms": 1e3 * raw_deciles[8],
              "points_completed": points, "setup_samples_s": setup_samples,
              "fail_frac": len(runner.failures) / runner.attempted,
              "jobs": {k: {"raw_s": [r for r, _ in v], "scaled_s": [x for _, x in v]}
                       for k, v in per_job.items()}}
    return metrics, detail


def measure_traced(runner):
    """One pass, each job untraced then traced; per-layer metrics."""
    tracer = Tracer()
    plain_s = traced_s = 0.0
    points = trace_points = bytes_written = 0
    per_job = []
    for job in runner.workload.jobs:
        plain, _ = runner.run(job, cli_main())
        before = dict(tracer.counts)
        with tracer.installed():
            traced, _ = runner.run(job, cli_main(), compare_to=plain.digest)
        plain_s += plain.seconds
        traced_s += traced.seconds
        bytes_written += sum(len(d) for d in plain.files.values())
        delta = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
        per_job.append({"job": job["id"], "points": job["points"],
                        "plain_s": plain.seconds, "traced_s": traced.seconds,
                        "digest": plain.digest, "counts": delta})
        points += job["points"]
        if job["command"] == "trace":
            trace_points += job["points"]

    st, counts, res = tracer.stats, tracer.counts, tracer.results

    def total(name):
        return st[name].total_s if name in st else 0.0

    def self_s(name):
        return st[name].self_s if name in st else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    report = st.get("limits.boundedness_report")
    report_incl = report.inclusive if report else {}
    trace_stats = st.get("classify.trace_zero_set")
    metrics = {
        "expr.build_s": total("surface.SurfaceDef"),
        "expr.field_evals_per_point": ratio(counts["evals"], points),
        "expr.eval_errors": counts["eval_errors"],
        "surface.invariants_per_point": ratio(counts["surface.basic_invariants_at"], points),
        "surface.invariants_s": total("surface.basic_invariants_at"),
        "surface.validate_s": total("surface.validate_framed"),
        "curvature.packets_per_point": ratio(counts["curvature.curvature_packet"], points),
        "curvature.packet_self_s": self_s("curvature.curvature_packet"),
        "classify.grid_self_s": self_s("classify.classify_grid"),
        "classify.point_calls": counts["classify.classify"],
        "classify.trace_self_s": self_s("classify.trace_zero_set"),
        "classify.trace_refine_evals":
            (trace_stats.self_evals - trace_points) if trace_stats else 0,
        "classify.trace_vertices": res["trace_vertices"],
        "classify.trace_polylines": res["trace_polylines"],
        "limits.report_s": total("limits.boundedness_report"),
        "limits.limit_along_calls": counts["limits.limit_along"],
        "limits.invariants_per_sample": ratio(
            report_incl.get("surface.basic_invariants_at", 0), res["samples_completed"]),
        "limits.packets_per_sample": ratio(
            report_incl.get("curvature.curvature_packet", 0), res["samples_completed"]),
        "limits.rays_completed_ratio": ratio(res["rays_completed"], res["rays_attempted"]),
        "limits.inconclusive_frac": ratio(res["verdicts_inconclusive"], res["verdicts"]),
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_written": bytes_written,
        "bench.trace_overhead_frac": ratio(traced_s, plain_s) - 1.0,
        "bench.fail_frac": len(runner.failures) / runner.attempted,
    }
    detail = {"plain_s": plain_s, "traced_s": traced_s, "points": points,
              "jobs": per_job, "trace": tracer.summary()}
    return metrics, detail


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    try:
        numpy_version = metadata.version("numpy")  # no import: it would inflate RSS
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "commit": git_commit(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            "threads_env": {k: os.environ[k] for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_lcframe()
    workload = workloads.build(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"run-{tag}-{os.getpid()}"
    try:
        runner = Runner(workload, run_dir)
        check_goldens(run_dir)
        if args.trace:
            values, detail = measure_traced(runner)
        else:
            values, detail = measure(runner, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    listed = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures), "metrics": metrics}
    record = {"environment": environment(args), "inputs": workload.input_digests,
              "outputs": runner.first_digest, "failures": runner.failures,
              "detail": detail, "result": result}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"lcframe benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {runner.attempted} jobs, {len(runner.failures)} failed")
    for m in listed:
        note = ""
        if m["name"] in ("job_p50_ms", "job_p90_ms"):
            note = f"  (n={detail['jobs_timed']})"
        print(f"  {m['name']:30} {values[m['name']]:>14.6g} {m['unit']:6} "
              f"{m['better']} is better{note}")
    if not args.trace:
        print(f"  {'fail_frac':30} {detail['fail_frac']:>14.6g} {'ratio':6} lower is better")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
