"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/baseline.py --seeds 0-9 --traced-seeds 0 \
        [--workloads table_numeric,calculus] [--out perfbench/baseline.json]

Each run is a fresh ``run.py`` process, one after another.  For every
end-to-end metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median (the spread), and flags a spread at or above a third of the bound.
Traced runs give the per-layer medians.  With ``--out`` the summary is
written as JSON; that is how baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n"
                         f"{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    p.add_argument("--traced-seeds", type=seeds, default=[])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--out")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            info, result = one_run(workload, seed, spec["run_seconds"], 0)
            summary["machine"] = info["machine"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        row = {"end_to_end": {}, "per_layer": {}}
        if len(args.seeds) >= 2:
            for name, vals in values.items():
                row["end_to_end"][name] = stats = spread(vals)
                flag = "" if stats["spread"] < bounds[name] / 3 else \
                    "  <-- at or above a third of the bound"
                print(f"  {name}: median {stats['median']:.4g}, spread "
                      f"{stats['spread']:.3f} (bound {bounds[name]}){flag}")
        traced = []
        for seed in args.traced_seeds:
            _, result = one_run(workload, seed, spec["run_seconds"], 1)
            traced.append(result["metrics"])
        for m in spec["per_layer"] if traced else []:
            vals = [t[m["name"]]["value"] for t in traced]
            if any(vals):
                row["per_layer"][m["name"]] = statistics.median(vals)
        summary["workloads"][workload] = row
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
