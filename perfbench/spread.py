"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads dense_grid,locus_probe --seeds 1-10

Runs ``run.py`` once per workload and seed, one run at a time, and
prints for every end-to-end metric the median of the runs and the
distance between the first and third quartiles as a share of the
median, next to the metric's bound from BENCHMARK.json.  A spread above
a third of the bound is flagged.  The summary is also written to
``.perfbench/spread.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True, help="comma-separated names")
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                   help="inclusive range such as 1-10")
    args = p.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(contract["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=600, cwd=ROOT)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[workload][name] = {"median": med, "spread": spread, "values": vals}
            flag = "  > bound/3" if spread > bounds[name] / 3 else ""
            print(f"{workload:15} {name:14} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]}{flag}", flush=True)
    out = ROOT / ".perfbench" / "spread.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
