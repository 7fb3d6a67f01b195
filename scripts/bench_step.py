"""Time the three parts of a float64 training step (the forward with its
loss, the backward, and `Adam.step`) and the two forms of a linear input
gradient, and write the results as JSON.

    PYTHONPATH=src python3 scripts/bench_step.py --out BENCH_35.json

The shapes are the benchmark's `finetune` step (the README teacher, H8 L8
d_X64 d_I256, on batches of 32 rows of 6 tokens) and the README
quick-start step (the same model on the default task's 14 tokens). BLAS
is capped at one thread, as the benchmark caps it. Each shape trains
60 cross-entropy steps from a fresh model after 3 untimed ones,
with the step sequence `pipeline.run_stage` runs: `_batch_loss`,
`backward`, `Adam.step`. The file holds the median and quartiles of each
part, the minor page faults (`ru_minflt`) per step, and, for each weight
shape of the layer, the time of the per-sequence product `g @ w.T` that
numpy runs on a (B, S, n) gradient against that of one product over all
B*S rows, with the largest gap between them relative to the largest
entry. The machine block is `bench_eval`'s: core count, Python, numpy
and BLAS versions, and the BLAS thread count read back from OpenBLAS.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_eval import TEACHER, machine_block
from rosita_mini import pipeline as PL
from rosita_mini.data import generate_marker_task, iter_batches, load_task_dir
from rosita_mini.model import Model, ModelConfig
from rosita_mini.optim import Adam

BATCH = 32
SHAPES = {"finetune": {"seq_len": 4, "n_filler_words": 58},  # S = 6
          "quick_start": {"seq_len": 12}}                    # S = 14, the default task
WARMUP, STEPS, REPEATS = 3, 60, 201


def spread(times: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"median": med, "q1": q1, "q3": q3}


def time_steps(splits: dict, info: dict, steps: int, seed: int) -> dict:
    config = ModelConfig(**TEACHER, vocab_size=info["vocab_size"], max_len=info["max_len"],
                         n_classes=info["n_classes"])
    model = Model.init(config, np.random.default_rng(seed))
    params = model.parameters()
    optimizer = Adam(params)
    stage = PL.StageSpec(name="finetune", dataset="train", epochs=1)
    rng = np.random.default_rng(seed)
    batches = []
    while len(batches) < WARMUP + steps:
        batches += list(iter_batches(splits["train"], BATCH, rng))  # 256 rows: full batches
    parts = {"forward_s": [], "backward_s": [], "adam_step_s": []}
    faults = 0
    for i, (ids, mask, labels) in enumerate(batches[:WARMUP + steps]):
        model.zero_grad()
        flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        loss, _ = PL._batch_loss(model, None, stage, None, ids, mask, labels)
        t1 = time.perf_counter()
        loss.backward(leaves=params.values())
        t2 = time.perf_counter()
        optimizer.step(params, 1e-3)
        t3 = time.perf_counter()
        if i >= WARMUP:
            faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0
            for name, dt in zip(parts, (t1 - t0, t2 - t1, t3 - t2)):
                parts[name].append(dt)
    return {"seq_len": info["max_len"], "batch_size": BATCH, "steps": steps,
            **{name: spread(ts) for name, ts in parts.items()},
            "ru_minflt_per_step": faults / steps}


def time_input_gradient(seq_len: int, repeats: int, seed: int) -> dict:
    """Both forms of `linear`'s input gradient for each weight shape of the
    layer: the Q, K, V and output projections, and the two FFN weights."""
    rng = np.random.default_rng(seed)
    out = {}
    d_x, d_i = TEACHER["d_X"], TEACHER["d_I"]
    for k, n in ((d_x, d_x), (d_x, d_i), (d_i, d_x)):
        g, w = rng.normal(size=(BATCH, seq_len, n)), rng.normal(size=(k, n))
        forms = {"per_sequence": lambda: g @ w.T,
                 "one_product": lambda: (g.reshape(-1, n) @ w.T).reshape(BATCH, seq_len, k)}
        times = {name: [] for name in forms}
        for rep in range(repeats):
            for name in sorted(forms, reverse=bool(rep % 2)):
                start = time.perf_counter()
                forms[name]()
                times[name].append(time.perf_counter() - start)
        per, one = forms["per_sequence"](), forms["one_product"]()
        out[f"{k}x{n}"] = {**{f"{name}_s": spread(ts) for name, ts in times.items()},
                           "max_gap_over_max_entry": float(np.abs(one - per).max()
                                                           / np.abs(per).max())}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--quick", action="store_true",
                   help="5 steps and 5 product repeats per shape, to check that it runs")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    steps, repeats = (5, 5) if args.quick else (STEPS, REPEATS)
    blas = PL._openblas()
    if blas is not None:
        blas[0](1)
    result = {"machine": machine_block(), "seed": args.seed, "shapes": {}}
    for name, task in SHAPES.items():
        with tempfile.TemporaryDirectory() as tmp:
            info = generate_marker_task(tmp, n_dev=32, n_aug=0, seed=args.seed, **task)
            _, splits = load_task_dir(tmp, info["max_len"])
        entry = {"step": time_steps(splits, info, steps, args.seed),
                 "linear_input_gradient": time_input_gradient(info["max_len"], repeats,
                                                               args.seed)}
        result["shapes"][name] = entry
        print(name, json.dumps(entry, sort_keys=True), flush=True)
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
