"""CLI surface: subcommand contracts, exit codes, artifact shapes."""

import argparse
import ast
import inspect
import json
import textwrap
from pathlib import Path

import pytest

from rosita_mini import cli
from rosita_mini import pipeline as PL
from rosita_mini.checkpoint import load_checkpoint
from rosita_mini.cli import _plan_from_file, build_parser, main
from rosita_mini.data import load_task_dir
from rosita_mini.metrics import read_ndjson
from rosita_mini.model import ModelConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main(["make-data", "--out", str(root / "data"), "--n-train", "48",
               "--n-dev", "32", "--n-aug", "64", "--seq-len", "6",
               "--n-words", "10", "--seed", "0"])
    assert rc == 0
    cfg = {"model": {"H": 2, "L": 2, "d_X": 16, "d_I": 32, "r": 0, "head_dim": 8},
           "train": {"epochs": 3, "batch_size": 16, "base_lr": 3e-3}}
    (root / "ft.json").write_text(json.dumps(cfg))
    rc = main(["finetune", "--config", str(root / "ft.json"), "--data",
               str(root / "data"), "--out", str(root / "run"), "--seed", "1"])
    assert rc == 0
    return root


def test_make_data_writes_all_files(workspace):
    data = workspace / "data"
    for name in ("train.tsv", "dev.tsv", "train_aug.tsv", "vocab.txt", "task.json"):
        assert (data / name).exists(), name


def test_finetune_writes_checkpoint_and_metrics(workspace):
    ck = load_checkpoint(workspace / "run" / "teacher.rst")
    assert ck.stage == "finetune"
    rows = read_ndjson(workspace / "run" / "finetune.ndjson")
    assert len(rows) == 9  # 48/16 batches x 3 epochs
    assert all("schema_version" in r for r in rows)


def test_finetune_dev_metric_is_last_record(workspace, capsys, monkeypatch):
    calls = workspace / "eval_calls"  # counted in a file: evals may run in a child

    def counted(real):
        def evaluate(*a, **k):
            with open(calls, "a") as fh:
                fh.write("x")
            return real(*a, **k)
        return evaluate

    for module in (PL, cli):
        monkeypatch.setattr(module, "evaluate", counted(module.evaluate))
    rc = main(["finetune", "--config", str(workspace / "ft.json"), "--data",
               str(workspace / "data"), "--out", str(workspace / "ft_again"),
               "--seed", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    rows = read_ndjson(workspace / "ft_again" / "finetune.ndjson")
    assert out["dev_metric"] == rows[-1]["eval_metric"]
    assert len(calls.read_text()) == sum("eval_metric" in r for r in rows)


def test_eval_subcommand(workspace, capsys):
    rc = main(["eval", "--checkpoint", str(workspace / "run" / "teacher.rst"),
               "--data", str(workspace / "data"), "--split", "dev"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["metric"] == "accuracy"
    assert 0.0 <= out["value"] <= 1.0


def test_eval_unlabeled_split_exits_1(workspace, capsys):
    rc = main(["eval", "--checkpoint", str(workspace / "run" / "teacher.rst"),
               "--data", str(workspace / "data"), "--split", "train_aug"])
    assert rc == 1
    assert "64 of 64 rows are unlabeled" in capsys.readouterr().err


def test_eval_mcc_flag(workspace, capsys):
    rc = main(["eval", "--checkpoint", str(workspace / "run" / "teacher.rst"),
               "--data", str(workspace / "data"), "--metric", "mcc"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["metric"] == "mcc"
    assert -1.0 <= out["value"] <= 1.0


def test_inspect_reports_importance_with_data(workspace, capsys):
    rc = main(["inspect", "--checkpoint", str(workspace / "run" / "teacher.rst"),
               "--data", str(workspace / "data")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["param_count"] > 0
    assert "layer0" in out["importance"]
    assert len(out["importance"]["layer0"]["heads"]) == 2


def test_prune_one_step_subcommand(workspace, capsys):
    rc = main(["prune-one-step", "--checkpoint", str(workspace / "run" / "teacher.rst"),
               "--target", '{"H":1,"L":1,"d_I":16,"r":4}',
               "--data", str(workspace / "data"),
               "--out", str(workspace / "pruned")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["config"]["H"] == 1 and out["config"]["r"] == 4
    ck = load_checkpoint(workspace / "pruned" / "pruned.rst")
    assert ck.config.L == 1


def test_prune_one_step_rejects_seed(workspace, capsys):
    # one_step_prune draws no RNG; the pruned checkpoint keeps the input's seed
    with pytest.raises(SystemExit) as exc:
        main(["prune-one-step", "--checkpoint", str(workspace / "run" / "teacher.rst"),
              "--target", '{"H":1}', "--data", str(workspace / "data"),
              "--out", str(workspace / "pruned_seed"), "--seed", "1"])
    assert exc.value.code == 2


def test_factorize_embedding_subcommand(workspace, capsys):
    rc = main(["factorize-embedding", "--checkpoint",
               str(workspace / "run" / "teacher.rst"), "--rank", "4",
               "--out", str(workspace / "fact")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["config"]["r"] == 4
    reloaded = load_checkpoint(workspace / "fact" / "factorized.rst").to_model()
    assert "emb.E_U" in reloaded.params


def test_run_plan_preset_file(workspace, capsys):
    plan = {"preset": "one_step_one_stage",
            "model": {"H": 2, "L": 2, "d_X": 16, "d_I": 32, "r": 0, "head_dim": 8},
            "target": {"H": 1, "L": 1, "d_I": 16, "r": 4},
            "hp": {"finetune_epochs": 1, "kd_epochs": 1, "batch_size": 16}}
    (workspace / "plan.json").write_text(json.dumps(plan))
    rc = main(["run-plan", "--plan", str(workspace / "plan.json"),
               "--data", str(workspace / "data"),
               "--out", str(workspace / "plan_out"), "--seed", "5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert [s["stage"] for s in out] == ["finetune", "kd_prune"]
    assert (workspace / "plan_out" / "stage1_kd_prune.rst").exists()


def test_run_plan_explicit_stages_fill_model_defaults(workspace, capsys):
    tiny = {"H": 2, "L": 2, "d_X": 16, "d_I": 32, "r": 0, "head_dim": 8}
    plan = {"version": 1, "model": tiny,
            "stages": [{"name": "ft", "dataset": "train", "epochs": 1, "batch_size": 16},
                       {"name": "small", "dataset": "train", "epochs": 1,
                        "batch_size": 16, "model": {**tiny, "L": 1}}]}
    (workspace / "explicit.json").write_text(json.dumps(plan))
    rc = main(["run-plan", "--plan", str(workspace / "explicit.json"),
               "--data", str(workspace / "data"),
               "--out", str(workspace / "explicit_out")])
    assert rc == 0, capsys.readouterr().err
    assert load_checkpoint(workspace / "explicit_out" / "stage1_small.rst").config.L == 1


@pytest.mark.parametrize("field", ["beta1", "beta2", "adam_eps", "eval_every"])
def test_run_plan_rejects_removed_stage_fields(workspace, capsys, field):
    plan = {"version": 1,
            "model": {"H": 2, "L": 2, "d_X": 16, "d_I": 32, "r": 0, "head_dim": 8},
            "stages": [{"name": "ft", "dataset": "train", "epochs": 1, field: 5}]}
    (workspace / "removed_field.json").write_text(json.dumps(plan))
    rc = main(["run-plan", "--plan", str(workspace / "removed_field.json"),
               "--data", str(workspace / "data"),
               "--out", str(workspace / "removed_field_out")])
    assert rc == 1
    assert field in capsys.readouterr().err


def test_run_plan_scratch_preset_uses_target(workspace, capsys):
    plan = {"preset": "scratch",
            "model": {"H": 2, "L": 2, "d_X": 16, "d_I": 32, "r": 0, "head_dim": 8},
            "target": {"H": 1, "L": 1, "d_I": 16, "r": 4},
            "hp": {"finetune_epochs": 1, "batch_size": 16}}
    (workspace / "scratch.json").write_text(json.dumps(plan))
    rc = main(["run-plan", "--plan", str(workspace / "scratch.json"),
               "--data", str(workspace / "data"),
               "--out", str(workspace / "scratch_out")])
    assert rc == 0, capsys.readouterr().err
    cfg = load_checkpoint(workspace / "scratch_out" / "stage0_scratch.rst").config
    assert (cfg.H, cfg.L, cfg.d_I, cfg.r, cfg.d_X) == (1, 1, 16, 4, 16)


def test_run_plan_rejects_unknown_hp_key(workspace, capsys):
    plan = {"preset": "scratch",
            "model": {"H": 2, "L": 2, "d_X": 16, "d_I": 32, "r": 0, "head_dim": 8},
            "target": {"H": 1, "L": 1, "d_I": 16},
            "hp": {"finetune_epoch": 1, "batch_size": 16}}
    (workspace / "hp_typo.json").write_text(json.dumps(plan))
    rc = main(["run-plan", "--plan", str(workspace / "hp_typo.json"),
               "--data", str(workspace / "data"),
               "--out", str(workspace / "hp_typo_out")])
    assert rc == 1
    assert "'finetune_epoch'" in capsys.readouterr().err
    assert not (workspace / "hp_typo_out").exists()


def test_finetune_rejects_unknown_train_keys(workspace, capsys):
    cfg = {"model": {"H": 2, "L": 2, "d_X": 16, "d_I": 32, "r": 0, "head_dim": 8},
           "train": {"epochs": 1, "eval_every": 5, "batchsize": 8}}
    (workspace / "ft_typo.json").write_text(json.dumps(cfg))
    rc = main(["finetune", "--config", str(workspace / "ft_typo.json"), "--data",
               str(workspace / "data"), "--out", str(workspace / "ft_typo_out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'batchsize'" in err and "'eval_every'" in err
    assert not (workspace / "ft_typo_out").exists()


def test_readme_plan_examples_load(workspace):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Plans\n", 1)[1].split("\n## ", 1)[0]
    blocks = [b.split("```", 1)[0] for b in section.split("```json\n")[1:]]
    assert any('"stages"' in b for b in blocks)  # the explicit stage list
    info = json.loads((workspace / "data" / "task.json").read_text())
    vocab, _ = load_task_dir(workspace / "data", info["max_len"])
    for block in blocks:
        (workspace / "readme_plan.json").write_text(block)
        plan = _plan_from_file(workspace / "readme_plan.json", vocab, info)
        assert ModelConfig.from_dict(plan.model).vocab_size == len(vocab)
        for stage in plan.stages:
            if stage.model is not None:
                ModelConfig.from_dict(stage.model)


def test_sweep_frequency_subcommand(workspace, capsys):
    cfg = {"model": {"H": 2, "L": 2, "d_X": 16, "d_I": 32, "r": 0, "head_dim": 8},
           "target": {"H": 1, "d_I": 16, "r": 4},
           "hp": {"finetune_epochs": 1, "kd_epochs": 2, "batch_size": 16,
                  "width_events": 1, "depth_events": 1, "prune_fraction": 0.5}}
    (workspace / "sweep.json").write_text(json.dumps(cfg))
    rc = main(["sweep-frequency", "--config", str(workspace / "sweep.json"),
               "--fractions", "0.5,1.0", "--lr-schedule", "linear",
               "--seeds", "0", "--data", str(workspace / "data"),
               "--out", str(workspace / "sweep_out")])
    assert rc == 0, capsys.readouterr().err
    rows = json.loads(capsys.readouterr().out.strip())
    assert len(rows) == 2
    files = sorted(p.name for p in (workspace / "sweep_out").glob("f*.ndjson"))
    assert files == ["f0.5_linear_decay_seed0.ndjson", "f1_linear_decay_seed0.ndjson"]
    for row, name in zip(rows, files):
        last = read_ndjson(workspace / "sweep_out" / name)[-1]
        assert row["eval_metric"] == last["eval_metric"]
    assert (workspace / "sweep_out" / "summary.tsv").exists()


def test_sweep_architectures_subcommand(workspace, capsys):
    spec = {"architectures": [
                {"name": "a", "target": {"H": 1, "L": 1, "d_I": 16, "r": 4}},
                {"name": "b", "target": {"H": 2, "L": 1, "d_I": 8, "r": 2}}],
            "hp": {"finetune_epochs": 1, "batch_size": 16}}
    (workspace / "archs.json").write_text(json.dumps(spec))
    rc = main(["sweep-architectures", "--teacher", str(workspace / "run" / "teacher.rst"),
               "--archs", str(workspace / "archs.json"),
               "--data", str(workspace / "data"),
               "--out", str(workspace / "archs_out")])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out.strip())
    assert [r["name"] for r in rows] == ["a", "b"]
    assert rows[0]["config"]["H"] == 1
    assert (workspace / "archs_out" / "arch_a.ndjson").exists()
    for row in rows:
        last = read_ndjson(workspace / "archs_out" / f"arch_{row['name']}.ndjson")[-1]
        assert row["eval_metric"] == last["eval_metric"]


def _args_reads(fn) -> set[str]:
    """`args.<name>` reads in fn and in the cli helpers it passes args to."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    reads = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "args"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args):
            reads |= _args_reads(getattr(cli, node.func.id))
    return reads


def test_every_cli_flag_is_read():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, parser in subparsers.choices.items():
        reads = _args_reads(parser.get_default("fn"))
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction):
                assert action.dest in reads, f"{name}: {action.dest} is never read"


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--nonsense"])
    assert exc.value.code == 2


def test_runtime_failure_exits_1(tmp_path, capsys):
    bad = tmp_path / "missing.rst"
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.rst"
    path.write_bytes(b"JUNKJUNKJUNK")
    rc = main(["inspect", "--checkpoint", str(path)])
    assert rc == 1
    assert "magic" in capsys.readouterr().err
