"""genimm benchmark: one workload, one seed, one run in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; genimm is imported from its ``src/``.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the machine, every timing sample and, when traced, every span.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import os

# one client on a 2-core box: pin every BLAS/OpenMP pool before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_PROBES = 5


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _import_genimm():
    if not (SRC / "genimm" / "__init__.py").is_file():
        raise BenchError(f"no genimm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import genimm
    if Path(genimm.__file__).resolve().parent != SRC / "genimm":
        raise BenchError(f"imported genimm from {genimm.__file__}, "
                         f"not from {SRC}")


def _config_path(workload: str) -> Path:
    return WORK / f"{workload}-{os.getpid()}.cfg"


def setup_probe(workload: str, seed: int) -> float:
    """Fresh-process set-up: import genimm.cli with numpy and scipy, load
    the Config, build the workload's inputs."""
    start = time.perf_counter()
    _import_genimm()
    import genimm.cli  # noqa: F401
    import workloads
    path = _config_path(workload)
    try:
        workloads.WORKLOADS[workload].build(seed, path)
        return time.perf_counter() - start
    finally:
        path.unlink(missing_ok=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def machine() -> dict:
    import numpy
    import scipy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return {"percentile": round(100.0 * (k + 1) / len(ordered), 1),
            "value": ordered[k]}


def run_passes(wl, inputs, seconds: float, passes: int | None = None,
               tracer=None):
    """Closed loop, one client: passes until the next would overrun
    ``seconds`` (at least one), or exactly ``passes`` of them."""
    walls, results, spans = [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        results.append(wl.run(inputs))
        walls.append(time.perf_counter() - t0)
        if tracer is not None:
            spans.append(tracer.snapshot())
        if passes is not None:
            if len(walls) >= passes:
                break
        elif time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return walls, results, spans


def layer_value(metric: str, snap: dict) -> float:
    span, stat = metric.rsplit(".", 1)
    row = snap.get(span, {})
    if stat == "points_per_call":
        return row.get("points", 0) / row["calls"] if row else 0.0
    return row.get(stat, 0)


def traced_checks(wl, spec, tracer, untraced, traced, inputs) -> list[str]:
    """Coverage check and self-test of a traced run; returns the errors."""
    from spans import COUNTS
    errors = []
    known = set(tracer.stats)
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace_overhead_s":
            continue
        span, stat = name.rsplit(".", 1)
        if span not in known:
            errors.append(f"metric {name}: no wrapped function {span}")
        elif stat not in ("self_s", "calls", "points_per_call",
                          COUNTS.get(span, ("",))[0]):
            errors.append(f"metric {name}: span {span} has no count {stat}")
    _, u_results, _ = untraced
    _, t_results, t_spans = traced
    for i, snap in enumerate(t_spans):
        for span in wl.spans:
            if not snap.get(span, {}).get("calls"):
                errors.append(f"coverage: span {span} did not fire on "
                              f"{wl.name} (traced pass {i})")
        for fact, value in t_results[i].facts.items():
            if layer_value(fact, snap) != value:
                errors.append(f"self-test: {fact} = {layer_value(fact, snap)}"
                              f" in the trace, {value} in the results")
    reference = u_results[0].fingerprint
    for i, res in enumerate(u_results + t_results):
        if res.fingerprint != reference:
            errors.append(f"self-test: pass {i} differs from the first "
                          "untraced pass")
    if hasattr(wl, "probe"):
        tracer.reset()
        facts = wl.probe(inputs)
        snap = tracer.snapshot()
        for fact, value in facts.items():
            if layer_value(fact, snap) != value:
                errors.append(f"self-test probe: {fact} = "
                              f"{layer_value(fact, snap)} traced, {value} "
                              "returned")
            span, stat = fact.rsplit(".", 1)
            if stat != "calls":
                for i, tsnap in enumerate(t_spans):
                    if layer_value(fact, tsnap) != value:
                        errors.append(f"self-test: {fact} = "
                                      f"{layer_value(fact, tsnap)} in traced "
                                      f"pass {i}, {value} by hand")
    return errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")

    _import_genimm()
    setup = measure_setup(args.workload, args.seed)
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    cfg_path = _config_path(args.workload)
    try:
        inputs = wl.build(args.seed, cfg_path)
        untraced = run_passes(wl, inputs, args.seconds)
        traced, errors = None, []
        if args.trace:
            from spans import Tracer
            with Tracer() as tracer:
                traced = run_passes(wl, inputs, args.seconds,
                                    passes=len(untraced[0]), tracer=tracer)
                errors = traced_checks(wl, spec, tracer, untraced, traced,
                                       inputs)
    finally:
        cfg_path.unlink(missing_ok=True)

    walls = untraced[0]
    items = [item for r in untraced[1] + (traced[1] if traced else [])
             for item in r.items]
    failures = [f"{label}: {why}" for label, why in items if why]
    info = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
            "machine": machine(),
            "wall_s": {"median": statistics.median(walls),
                       "samples": len(walls), "tail": tail(walls),
                       "all": walls},
            "setup_s": {"median": statistics.median(setup), "all": setup},
            "failed_frac": len(failures) / len(items),
            "failures": failures}
    if args.trace:
        t_walls, _, t_spans = traced
        overhead = statistics.median(t_walls) - statistics.median(walls)
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] == "trace_overhead_s":
                value = overhead
            else:
                value = statistics.median(layer_value(m["name"], s)
                                          for s in t_spans)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        info.update(traced_wall_s=t_walls, checks=errors, spans=t_spans[-1])
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct = not failures and not errors
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": len(items),
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
