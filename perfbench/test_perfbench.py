"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench -q

It checks that each workload keeps the property it was chosen for, that
every metric in BENCHMARK.json is printed with its unit, and that the
output checks reject a corrupted factor and a corrupted checkpoint.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from rosita_mini import checkpoint, factorization  # noqa: E402
from rosita_mini.model import Model, ModelConfig  # noqa: E402

import workloads  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = (json.loads(lines[0])["machine"], json.loads(lines[-1]))
    return out


def test_every_metric_is_printed_with_its_unit(results):
    for (workload, trace), (machine, result) in results.items():
        assert machine["blas_threads"] == 1
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in wanted}, (workload, trace)


def layer(results, workload: str, name: str) -> float:
    return results[workload, 1][1]["metrics"][name]["value"]


def test_finetune_has_no_teacher_rows_and_no_svd(results):
    assert layer(results, "finetune", "model.forward.teacher.rows") == 0
    assert layer(results, "finetune", "factorization.svd.calls") == 0


def test_kd_iterative_repeats_teacher_passes_and_prunes_ten_times(results):
    assert layer(results, "kd_iterative", "distillation.teacher_rows_per_example") >= 2
    assert layer(results, "kd_iterative", "pruning.apply_surgery.calls") == 10


def test_only_kd_iterative_runs_the_teacher(results):
    for workload in ("finetune", "one_step_svd"):
        assert layer(results, workload, "model.forward.teacher.calls") == 0
    assert layer(results, "kd_iterative", "model.forward.teacher.calls") > 0


def test_one_step_svd_runs_one_svd(results):
    assert layer(results, "one_step_svd", "factorization.svd.calls") == 1
    assert layer(results, "one_step_svd", "pruning.apply_surgery.calls") == 1


def test_svd_check_rejects_a_corrupted_factor():
    w = np.random.default_rng(0).normal(size=(60, 16))
    e_u, e_v = factorization.truncate(factorization.svd(w), 5)
    assert workloads.check_svd_factors(w, e_u, e_v) == []
    bad = e_u.copy()
    bad[7, 2] *= 1.0 + 1e-6
    assert workloads.check_svd_factors(w, bad, e_v)


def test_digest_check_rejects_a_corrupted_checkpoint(tmp_path):
    cfg = ModelConfig(H=2, L=1, d_X=8, d_I=8, r=0, vocab_size=10, max_len=6, n_classes=2)
    path = tmp_path / "m.rst"
    checkpoint.save_checkpoint(path, Model.init(cfg, 0))
    store_path = tmp_path / "digests.json"
    assert workloads.DigestStore(store_path).check("k", workloads.checkpoint_digest([path])) == []
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0x40
    path.write_bytes(bytes(blob))
    assert workloads.DigestStore(store_path).check("k", workloads.checkpoint_digest([path]))


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("finetune", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
