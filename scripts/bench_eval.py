"""Time `pipeline.evaluate`, which runs a float32 copy of the model, against
the float64 forward it replaced, which builds no graph either, and write the
results as JSON.

    PYTHONPATH=src python3 scripts/bench_eval.py --out BENCH_21.json

The shapes are the dev evals of the benchmark's `finetune` workload (the
README teacher, H8 L8 d_X64 d_I256, fine-tuned for 10 epochs, on 256 dev
rows of 4 tokens) and of its `one_step_svd` workload (that teacher's shape
over 4,006 words, one-step pruned to H2 d_I64 r10, on 2,048 dev rows of 12
tokens). Each side runs `--repeats` times, alternating which goes first,
once with every CPU the process may use (where one is spare, `evaluate`
computes every other batch in a forked helper) and once with the process
pinned to one CPU. The file holds each side's median and quartiles, the
largest |float32 - float64| logit, the rows whose prediction differs, the
smallest float64 top-2 margin, and a machine block: core count, Python,
numpy and BLAS versions, and the BLAS thread count read back from OpenBLAS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from rosita_mini import pipeline as PL
from rosita_mini import tensor as T
from rosita_mini.data import generate_marker_task, iter_batches, load_task_dir
from rosita_mini.metrics import MetricsWriter, eval_metric
from rosita_mini.model import Model, ModelConfig
from rosita_mini.pruning import ArchitectureTarget

TEACHER = {"H": 8, "L": 8, "d_X": 64, "d_I": 256, "r": 0, "head_dim": 8}
SHAPES = {
    "finetune": {"task": {"n_train": 256, "n_dev": 256, "n_aug": 0, "seq_len": 4,
                          "n_filler_words": 58},
                 "epochs": 10, "target": None},
    "one_step_svd": {"task": {"n_train": 256, "n_dev": 2048, "n_aug": 0, "seq_len": 12,
                              "n_filler_words": 4000},
                     "epochs": 0, "target": {"H": 2, "d_I": 64, "r": 10}},
}


def machine_block() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = PL._openblas()
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": None if threads is None else threads[1]()}


def build_model(shape: dict, splits: dict, info: dict, seed: int) -> Model:
    """The model whose dev eval the workload times, built the way it builds it."""
    config = ModelConfig(**TEACHER, vocab_size=info["vocab_size"], max_len=info["max_len"],
                         n_classes=info["n_classes"])
    model = Model.init(config, np.random.default_rng(seed))
    if shape["epochs"]:
        stage = PL.StageSpec(name="finetune", dataset="train", epochs=shape["epochs"])
        with tempfile.TemporaryDirectory() as tmp, \
                MetricsWriter(Path(tmp) / "finetune.ndjson") as writer:
            PL.run_stage(stage, model, None, {"train": splits["train"]}, writer,
                         np.random.default_rng(seed))
    if shape["target"]:
        stage = PL.StageSpec(name="prune", dataset="train", epochs=1, prune=PL.PruneSpec(
            mode="one_step", target=ArchitectureTarget.from_dict(shape["target"])))
        PL.one_step_prune(model, None, stage, splits["train"], None)
    return model


def frozen(model: Model) -> Model:
    """A view of `model` that shares its float64 arrays and requires no grad,
    so its forwards build no graph."""
    return Model(model.config, {n: T.Tensor(p.data) for n, p in model.params.items()})


def float64_evaluate(model: Model, data, batch_size: int = 64) -> float:
    """`evaluate` without its float32 copy: the float64 model's own forward."""
    model = frozen(model)

    def predict(batch):
        return np.argmax(model.forward(batch[0], batch[1]).logits.data, axis=1)

    preds = list(PL._map_batches(predict, list(iter_batches(data, batch_size))))
    return eval_metric(np.concatenate(preds), data.labels, "accuracy")


def logit_gap(model: Model, data, batch_size: int = 64) -> dict:
    """Logits of the float32 copy against those of the float64 model."""
    batches = list(iter_batches(data, batch_size))
    f32, f64 = (np.concatenate([m.forward(ids, mask).logits.data for ids, mask, _ in batches])
                for m in (PL._float32(model), frozen(model)))
    top2 = np.sort(f64, axis=1)[:, -2:]
    return {"max_abs_logit_gap": float(np.abs(f32 - f64).max()),
            "flips": int((f32.argmax(axis=1) != f64.argmax(axis=1)).sum()),
            "min_float64_margin": float((top2[:, 1] - top2[:, 0]).min())}


def time_sides(model: Model, data, repeats: int) -> dict:
    sides = {"float32": lambda: PL.evaluate(model, data),
             "float64": lambda: float64_evaluate(model, data)}
    times = {name: [] for name in sides}
    metrics = {name: fn() for name, fn in sides.items()}  # also warms up
    for rep in range(repeats):
        for name in sorted(sides, reverse=bool(rep % 2)):
            start = time.perf_counter()
            sides[name]()
            times[name].append(time.perf_counter() - start)
    out = {"dev_acc": metrics}
    for name, ts in times.items():
        q1, med, q3 = statistics.quantiles(ts, n=4) if len(ts) > 1 else ts * 3
        out[f"{name}_s"] = {"median": med, "q1": q1, "q3": q3}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--repeats", type=int, default=21)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    result = {"machine": machine_block(), "repeats": args.repeats, "seed": args.seed,
              "cpu_spare": PL._cpu_spare(), "shapes": {}}
    cpus = os.sched_getaffinity(0)
    for name, shape in SHAPES.items():
        with tempfile.TemporaryDirectory() as tmp:
            info = generate_marker_task(tmp, seed=args.seed, **shape["task"])
            _, splits = load_task_dir(tmp, info["max_len"])
        model = build_model(shape, splits, info, args.seed)
        entry = {"config": model.config.to_dict(), "dev_rows": len(splits["dev"]),
                 **logit_gap(model, splits["dev"]),
                 "all_cpus": time_sides(model, splits["dev"], args.repeats)}
        os.sched_setaffinity(0, {min(cpus)})
        try:
            entry["one_cpu"] = time_sides(model, splits["dev"], args.repeats)
        finally:
            os.sched_setaffinity(0, cpus)
        result["shapes"][name] = entry
        print(name, json.dumps(entry, sort_keys=True), flush=True)
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
