"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads finetune,...]
                                  [--trace-seeds 1-3] [--out perfbench/baseline.json]

Each run is a fresh ``run.py`` process, one after another. For every
end-to-end metric the summary gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json. Traced runs add the median of every
per-layer metric. With ``--out`` the summary is also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    machine = json.loads(lines[0])["machine"]
    return {"result": result, "machine": machine}


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace-seeds", default="")
    p.add_argument("--workloads", default="")
    p.add_argument("--out")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    out = {"run_seconds": spec["run_seconds"], "python": platform.python_version(),
           "workloads": {}}
    ok = True
    for workload in workloads:
        runs = [run_once(spec, workload, seed, 0) for seed in parse_seeds(args.seeds)]
        entry = {"seeds": parse_seeds(args.seeds),
                 "correct": all(r["result"]["correct"] for r in runs),
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "blas_threads": sorted({r["machine"]["blas_threads"] for r in runs}),
                 "machine": runs[0]["machine"], "end_to_end": {}}
        for name, bound in bounds.items():
            s = summary([r["result"]["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            steady = s["spread"] < bound / 3
            ok &= steady or name == "setup_s"
            print(f"{workload:14s} {name:12s} median {s['median']:<14.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {bound}, {'ok' if steady else 'WIDE'})")
        trace_seeds = parse_seeds(args.trace_seeds) if args.trace_seeds else []
        if trace_seeds:
            traced = [run_once(spec, workload, seed, 1) for seed in trace_seeds]
            entry["trace_seeds"] = trace_seeds
            entry["traced_correct"] = all(r["result"]["correct"] for r in traced)
            entry["per_layer_median"] = {
                name: statistics.median(r["result"]["metrics"][name]["value"] for r in traced)
                for name in traced[0]["result"]["metrics"]}
            shares = {k: v for k, v in entry["per_layer_median"].items()
                      if k.endswith("_share") or k == "trace.overhead_frac"}
            print(f"{workload:14s} traced shares {json.dumps(shares)}")
        print(f"{workload:14s} correct {entry['correct']} failed {entry['failed']} of "
              f"{entry['attempted']}, BLAS threads {entry['blas_threads']}", flush=True)
        out["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
