"""rosita-mini benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload finetune --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``. The run generates its inputs from the seed, pins BLAS to one
thread (and aborts unless OpenBLAS reports exactly one), repeats the
workload's iteration until ``--seconds`` have passed, checks every
iteration's outputs, and prints as its last line one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run (see ``tracing.py``).

Files go to ``.bench_out/`` in the checkout: a record of each run, the
spans of traced runs, and the checkpoint digests of earlier runs, which a
later run of the same seed must reproduce.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["finetune", "kd_iterative", "one_step_svd"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "tiny"], default="full",
                   help="input sizes; 'tiny' is for the smoke test")
    p.add_argument("--setup-child", metavar="WORKDIR",
                   help=argparse.SUPPRESS)  # internal: one timed set-up, then exit
    return p.parse_args(argv)


def import_program():
    """Pin BLAS threads, then import the checkout's rosita_mini from src/."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    src = ROOT / "src"
    if not (src / "rosita_mini" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no rosita_mini sources under {src}")
    sys.path.insert(0, str(src))
    import rosita_mini
    if Path(rosita_mini.__file__).resolve().parent != (src / "rosita_mini").resolve():
        raise SystemExit(f"run.py: imported rosita_mini from {rosita_mini.__file__}, "
                         f"not from {src}")


def machine_block() -> dict:
    """Core count, versions, and the BLAS thread count read back from OpenBLAS."""
    import numpy as np

    libs = sorted({line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    threads = None
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_library": [Path(lib).name for lib in libs], "blas_threads": threads}


def setup_child(args) -> int:
    """One set-up as a user pays it: imports, task, starting checkpoint."""
    import_program()
    machine = machine_block()
    if machine["blas_threads"] != 1:
        raise SystemExit(f"run.py: BLAS reports {machine['blas_threads']} threads, not 1")
    import workloads

    workdir = Path(args.setup_child)
    task_dir = workdir / f"setup-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, workdir)
    try:
        wl.setup(task_dir)
        done = time.perf_counter()
    finally:
        shutil.rmtree(task_dir, ignore_errors=True)
    print(json.dumps({"setup_done": done}))
    return 0


def measure_setup(args, workdir: Path) -> list[float]:
    """Set-up time of fresh processes, from spawn to the first timed call.

    perf_counter is CLOCK_MONOTONIC on Linux, shared by every process, so
    the child's timestamp is comparable with the parent's.
    """
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--scale", args.scale,
           "--setup-child", str(workdir)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"run.py: set-up child failed:\n{proc.stderr}")
        done = json.loads(proc.stdout.strip().splitlines()[-1])["setup_done"]
        samples.append(done - start)
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_child:
        return setup_child(args)
    import_program()
    machine = machine_block()
    print(json.dumps({"machine": machine}), flush=True)
    if machine["blas_threads"] != 1:
        raise SystemExit(f"run.py: BLAS reports {machine['blas_threads']} threads, not 1")
    run_id = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{run_id}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, run_id, workdir, machine)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, run_id: str, workdir: Path, machine: dict) -> int:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, workdir)
    # set-up is traced as run 0; the untimed preparation is not traced
    setup_run = 0
    tracer.run = setup_run
    wl.load_task(workdir / "task")
    tracer.run = None
    wl.prepare()
    tracer.run = setup_run
    wl.load_start()
    tracer.run = None
    setup_samples = [] if args.trace else measure_setup(args, workdir)

    digests = workloads.DigestStore(OUT / "digests.json")
    digest_key = f"{args.workload}/{args.scale}/seed{args.seed}"
    ops = workloads.Ops()
    walls = {False: [], True: []}
    layer_samples = []
    outcome = None
    loop_start = time.perf_counter()
    iteration = 0
    while True:
        traced = bool(args.trace) and iteration % 2 == 1
        tracer.run = iteration + 1 if traced else None
        start = time.perf_counter()
        try:
            outcome = wl.iterate(ops)
        except workloads.OperationFailed:
            outcome = None
        wall = time.perf_counter() - start
        tracer.run = None
        walls[traced].append(wall)
        if outcome is not None:
            ops.check(wl.check(outcome) + digests.check(digest_key, outcome.digest()))
            if traced:
                layer_samples.append(tracer.layer_metrics(iteration + 1, setup_run, wall))
        iteration += 1
        enough = walls[False] and (walls[True] or not args.trace)
        if enough and time.perf_counter() - loop_start >= args.seconds:
            break

    record = {"run": run_id, "machine": machine, "iteration_wall_s": walls[False],
              "traced_wall_s": walls[True], "setup_s_samples": setup_samples,
              "problems": ops.problems}
    if args.trace:
        layer = {name: statistics.median(s[name] for s in layer_samples) if layer_samples
                 else 0.0 for name, _ in tracing.PER_LAYER if name != "trace.overhead_frac"}
        layer["trace.overhead_frac"] = \
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "spans" / f"{run_id}.tsv.gz")
    else:
        values = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "dev_acc": (outcome.dev_acc if outcome else 0.0, "fraction"),
            "model_bytes": (outcome.model_bytes if outcome else 0, "bytes"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    record["metrics"] = metrics
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{run_id}.json").write_text(json.dumps(record, indent=1))

    result = {"correct": ops.failed == 0 and outcome is not None,
              "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
