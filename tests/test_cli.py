"""CLI surface: subcommand contracts, exit codes, artifact shapes."""

import argparse
import ast
import dataclasses
import inspect
import json
import re
import shlex
import shutil
import textwrap
from pathlib import Path

import numpy as np
import pytest

from rosita_mini import cli
from rosita_mini import pipeline as PL
from rosita_mini.checkpoint import load_checkpoint
from rosita_mini.cli import _plan_from_dict, build_parser, main
from rosita_mini.data import generate_marker_task, load_task_dir
from rosita_mini.distillation import KDConfig
from rosita_mini.factorization import factorize_model_embedding
from rosita_mini.metrics import read_ndjson
from rosita_mini.model import ModelConfig
from rosita_mini.pipeline import StagePlan
from rosita_mini.presets import PRESETS, build_preset

README = Path(__file__).resolve().parents[1] / "README.md"
TINY_MODEL = {"H": 2, "L": 2, "d_X": 16, "d_I": 32, "r": 0, "head_dim": 8}


def _finetune_plan(**stage):
    """The one-stage plan that fine-tunes TINY_MODEL, as README step 2 does."""
    return {"model": TINY_MODEL, "stages": [{"name": "finetune", "dataset": "train", **stage}]}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main(["make-data", "--out", str(root / "data"), "--n-train", "48",
               "--n-dev", "32", "--n-aug", "64", "--seq-len", "6",
               "--n-words", "10", "--seed", "0"])
    assert rc == 0
    (root / "ft.json").write_text(json.dumps(
        _finetune_plan(epochs=3, batch_size=16, base_lr=3e-3)))
    rc = main(["run-plan", "--plan", str(root / "ft.json"), "--data",
               str(root / "data"), "--out", str(root / "run"), "--seed", "1"])
    assert rc == 0
    return root


def test_make_data_writes_all_files(workspace):
    data = workspace / "data"
    for name in ("train.tsv", "dev.tsv", "train_aug.tsv", "vocab.txt", "task.json"):
        assert (data / name).exists(), name


def test_finetune_writes_checkpoint_and_metrics(workspace):
    ck = load_checkpoint(workspace / "run" / "stage0_finetune.rst")
    assert ck.stage == "finetune"
    rows = read_ndjson(workspace / "run" / "stage0_finetune.ndjson")
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
    rc = main(["run-plan", "--plan", str(workspace / "ft.json"), "--data",
               str(workspace / "data"), "--out", str(workspace / "ft_again"),
               "--seed", "1"])
    assert rc == 0
    [out] = json.loads(capsys.readouterr().out)
    rows = read_ndjson(workspace / "ft_again" / "stage0_finetune.ndjson")
    assert out["eval_metric"] == rows[-1]["eval_metric"]
    assert len(calls.read_text()) == sum("eval_metric" in r for r in rows)


def test_eval_subcommand(workspace, capsys):
    rc = main(["eval", "--checkpoint", str(workspace / "run" / "stage0_finetune.rst"),
               "--data", str(workspace / "data"), "--split", "dev"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["metric"] == "accuracy"
    assert 0.0 <= out["value"] <= 1.0


def test_eval_unlabeled_split_exits_1(workspace, capsys):
    rc = main(["eval", "--checkpoint", str(workspace / "run" / "stage0_finetune.rst"),
               "--data", str(workspace / "data"), "--split", "train_aug"])
    assert rc == 1
    assert "64 of 64 rows are unlabeled" in capsys.readouterr().err


def test_eval_mcc_flag(workspace, capsys):
    rc = main(["eval", "--checkpoint", str(workspace / "run" / "stage0_finetune.rst"),
               "--data", str(workspace / "data"), "--metric", "mcc"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["metric"] == "mcc"
    assert -1.0 <= out["value"] <= 1.0


def test_inspect_reports_importance_with_data(workspace, capsys):
    rc = main(["inspect", "--checkpoint", str(workspace / "run" / "stage0_finetune.rst"),
               "--data", str(workspace / "data")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["param_count"] > 0
    assert "layer0" in out["importance"]
    assert len(out["importance"]["layer0"]["heads"]) == 2


def test_prune_one_step_subcommand(workspace, capsys):
    rc = main(["prune-one-step", "--checkpoint", str(workspace / "run" / "stage0_finetune.rst"),
               "--target", '{"H":1,"L":1,"d_I":16,"r":4}',
               "--data", str(workspace / "data"),
               "--out", str(workspace / "pruned")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["config"]["H"] == 1 and out["config"]["r"] == 4
    ck = load_checkpoint(workspace / "pruned" / "pruned.rst")
    assert ck.config.L == 1


@pytest.mark.parametrize("command, flags", [
    ("eval", []),
    ("prune-one-step", ["--target", '{"H": 1}']),
], ids=["eval", "prune_one_step"])
def test_a_dev_label_the_checkpoint_cannot_predict_exits_1(workspace, tmp_path, capsys,
                                                           monkeypatch, command, flags):
    """A binary checkpoint scored on a `dev.tsv` that holds label 2 is an
    error, not a metric, and `prune-one-step` fails before it prunes and
    writes nothing."""
    def no_prune(*args):
        raise AssertionError("pruned before dev was checked")

    monkeypatch.setattr(cli, "one_step_prune", no_prune)
    data = tmp_path / "data"
    data.mkdir()
    for f in (workspace / "data").iterdir():
        (data / f.name).write_bytes(f.read_bytes())
    header, first, *rows = (data / "dev.tsv").read_text().splitlines()
    (data / "dev.tsv").write_text("\n".join([header, first.rsplit("\t", 1)[0] + "\t2",
                                             *rows]) + "\n")
    out = ["--out", str(tmp_path / "out")] if command == "prune-one-step" else []
    rc = main([command, "--checkpoint", str(workspace / "run" / "stage0_finetune.rst"),
               "--data", str(data), *flags, *out])
    assert rc == 1
    captured = capsys.readouterr()
    where = "evaluate" if command == "eval" else "split 'dev'"
    assert captured.err == f"rosita-mini: error: {where}: label 2 >= n_classes 2\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_prune_one_step_rejects_seed(workspace, capsys):
    # one_step_prune draws no RNG; the pruned checkpoint keeps the input's seed
    with pytest.raises(SystemExit) as exc:
        main(["prune-one-step", "--checkpoint", str(workspace / "run" / "stage0_finetune.rst"),
              "--target", '{"H":1}', "--data", str(workspace / "data"),
              "--out", str(workspace / "pruned_seed"), "--seed", "1"])
    assert exc.value.code == 2


def test_factorize_embedding_subcommand(workspace, capsys):
    """`prune-one-step` with only an `r` target on a dense embedding is the
    SVD factorization: it writes the arrays `factorize_model_embedding` gives."""
    teacher = workspace / "run" / "stage0_finetune.rst"
    rc = main(["prune-one-step", "--checkpoint", str(teacher), "--target", '{"r": 4}',
               "--data", str(workspace / "data"), "--out", str(workspace / "fact")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["config"]["r"] == 4
    expected = load_checkpoint(teacher).to_model()
    factorize_model_embedding(expected, 4)
    written = load_checkpoint(workspace / "fact" / "pruned.rst")
    assert written.config == expected.config and "emb.E_U" in written.params
    assert list(written.params) == list(expected.params)
    for name, param in expected.params.items():
        np.testing.assert_array_equal(written.params[name], param.data.astype(np.float32),
                                      err_msg=name)


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


@pytest.mark.parametrize("field", ["beta1", "beta2", "adam_eps", "eval_every",
                                   "student_init", "use_cross"])
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


def test_run_plan_rejects_removed_plan_field(workspace, capsys):
    plan = {"version": 1, "allow_hidden_outside_final": True,
            "model": {"H": 2, "L": 2, "d_X": 16, "d_I": 32, "r": 0, "head_dim": 8},
            "stages": [{"name": "ft", "dataset": "train", "epochs": 1}]}
    (workspace / "removed_plan_field.json").write_text(json.dumps(plan))
    rc = main(["run-plan", "--plan", str(workspace / "removed_plan_field.json"),
               "--data", str(workspace / "data"),
               "--out", str(workspace / "removed_plan_field_out")])
    assert rc == 1
    assert "allow_hidden_outside_final" in capsys.readouterr().err


def _one_step(target, teacher="original"):
    return {"teacher": teacher, "prune": {"mode": "one_step", "target": target}}


@pytest.mark.parametrize("later, field", [
    ([{"lr_kind": "cosine"}], "lr_kind"),
    ([{"prune": {"mode": "iterative", "target": {"H": 1}, "prune_fraction": 1.5,
                 "n_events": 1}}], "prune_fraction"),
    ([{"dataset": "nope"}], "dataset"),
    ([{"dropout": 1.0}], "dropout"),
    ([{"prune": {"mode": "one_step", "target": {"H": 0}}}], "target"),
    # the fit of a target into a stage's events, T steps and student (48
    # train rows at batch size 32 make T = 2)
    ([{"teacher": "original", "prune": {"mode": "iterative", "target": {"H": 1},
                                        "prune_fraction": 1.0, "n_events": 2}}],
     "out: stage 1 'later1': cannot reach target: H delta 1 is not divisible by 2 events"),
    ([{"teacher": "original", "prune": {"mode": "iterative", "target": {"H": 1},
                                        "n_events": 1}}],
     "out: stage 1 'later1': floor(0.1 * 2) steps cannot hold 1 events"),
    ([_one_step({"H": 3})], "out: stage 1 'later1': target H = 3 must lie in [1, current 2]"),
    ([_one_step({"d_I": 8}), _one_step({"d_I": 16}, teacher="previous")],
     "out: stage 2 'later2': target d_I = 16 must lie in [1, current 8]"),
    ([{"prune": {"mode": "one_step"}}], "plan.json: stage 'later1': prune: missing keys "
                                        "['target']"),
    # a count must be an int, and a bool is not one
    ([{"teacher": "previous", "epochs": 1.5}],
     "plan.json: stage 'later1': epochs = 1.5 is not an int"),
    ([{"teacher": "previous", "epochs": True}],
     "plan.json: stage 'later1': epochs = True is not an int"),
    ([{"teacher": "previous", "batch_size": 16.5}],
     "plan.json: stage 'later1': batch_size = 16.5 is not an int"),
    ([{"teacher": "previous", "prune": {"mode": "iterative", "target": {"H": 1},
                                        "n_events": 2.5}}],
     "plan.json: stage 'later1': prune n_events = 2.5 is not an int"),
    ([{"batch_size": 0}], "plan.json: stage 'later1': epochs and batch_size must be >= 1"),
    # a loss switch must be a bool, and JSON 0 and 1 are not
    ([{"teacher": "original", "kd": {"use_pred": True, "use_hidden": "false"}}],
     "plan.json: stage 'later1': kd use_hidden = 'false' is not a bool"),
    ([{"teacher": "original", "kd": {"use_pred": 1}}],
     "plan.json: stage 'later1': kd use_pred = 1 is not a bool"),
    ([{"teacher": "original", "kd": {"use_pred": True, "use_hidden": 0}}],
     "plan.json: stage 'later1': kd use_hidden = 0 is not a bool"),
], ids=["lr_kind", "prune_fraction", "dataset", "dropout", "target", "indivisible_events",
        "short_window", "above_original", "above_previous", "prune_without_target",
        "epochs_float", "epochs_bool", "batch_size_float", "n_events_float",
        "batch_size_zero", "use_hidden_str", "use_pred_one", "use_hidden_zero"])
def test_run_plan_rejects_bad_later_stage_before_training(workspace, tmp_path, capsys, later,
                                                          field):
    plan = {"version": 1,
            "model": {"H": 2, "L": 2, "d_X": 16, "d_I": 32, "r": 0, "head_dim": 8},
            "stages": [{"name": "ft", "dataset": "train", "epochs": 1}] + [
                {"name": f"later{k}", "dataset": "train", "epochs": 1, **stage}
                for k, stage in enumerate(later, 1)]}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    out = tmp_path / "out"
    rc = main(["run-plan", "--plan", str(tmp_path / "plan.json"),
               "--data", str(workspace / "data"), "--out", str(out)])
    assert rc == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case, message", [
    ("one_step_target_float", "plan.json: stage 'cut': target H = 1.5 is not an int"),
    ("model_float", "out: stage 0 'ft': config field d_I = 32.0 is not an int"),
    # no head_dim, so the config would derive it as d_X // H
    ("model_str", "out: stage 0 'ft': config field H = '2' is not an int"),
    ("target_bool", "target H = True is not an int"),
], ids=["one_step_target_float", "model_float", "model_str", "target_bool"])
def test_a_dimension_that_is_not_an_int_is_named(workspace, tmp_path, capsys, case, message):
    """A model or target dimension must be an int, and a bool is not one;
    the failure names the field before anything trains or is written."""
    out = tmp_path / "out"
    if case == "target_bool":
        argv = ["prune-one-step", "--checkpoint",
                str(workspace / "run" / "stage0_finetune.rst"), "--target", '{"H": true}']
    else:
        model = {"model_float": {**TINY_MODEL, "d_I": 32.0},
                 "model_str": {**TINY_MODEL, "H": "2", "head_dim": 0}}.get(case, TINY_MODEL)
        stages = [{"name": "ft", "dataset": "train", "epochs": 1}]
        if case == "one_step_target_float":
            stages.append({"name": "cut", "dataset": "train", "epochs": 1,
                           **_one_step({"H": 1.5})})
        (tmp_path / "plan.json").write_text(json.dumps({"model": model, "stages": stages}))
        argv = ["run-plan", "--plan", str(tmp_path / "plan.json")]
    rc = main([*argv, "--data", str(workspace / "data"), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("rosita-mini: error: ") and err.endswith(f"{message}\n")
    assert not out.exists()


def test_run_plan_checks_a_hidden_loss_layer_map_before_training(workspace, tmp_path, capsys):
    """The drop rule maps 5 teacher layers onto 4, not 3: the walk of the plan
    fails at the hidden-loss stage, before stage 0 trains."""
    (tmp_path / "plan.json").write_text(json.dumps(
        {"preset": "one_step_one_stage", "model": {"H": 2, "L": 5, "d_X": 16, "d_I": 32, "r": 0},
         "target": {"L": 3}, "hp": {"finetune_epochs": 1, "kd_epochs": 1}}))
    out = tmp_path / "out"
    rc = main(["run-plan", "--plan", str(tmp_path / "plan.json"),
               "--data", str(workspace / "data"), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (f"rosita-mini: error: {out}: stage 1 'kd_prune': drop "
                                       f"rule keeps 4 of 5 teacher layers, student has 3\n")
    assert not out.exists()


def test_run_plan_names_the_stage_of_a_zero_head_model(workspace, capsys):
    # no head_dim, so the config would derive it as d_X // H
    plan = {"version": 1,
            "model": {"H": 2, "L": 2, "d_X": 16, "d_I": 32, "r": 0, "head_dim": 8},
            "stages": [{"name": "ft", "dataset": "train", "epochs": 1},
                       {"name": "fresh", "dataset": "train", "epochs": 1,
                        "model": {"H": 0, "L": 2, "d_X": 16, "d_I": 32, "r": 0}}]}
    (workspace / "zero_heads.json").write_text(json.dumps(plan))
    out = workspace / "zero_heads_out"
    rc = main(["run-plan", "--plan", str(workspace / "zero_heads.json"),
               "--data", str(workspace / "data"), "--out", str(out)])
    assert rc == 1
    assert "stage 1 'fresh': config needs H, L, d_I >= 1" in capsys.readouterr().err
    assert not out.exists()


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
    path = workspace / "ft_typo.json"
    path.write_text(json.dumps(_finetune_plan(epochs=1, eval_every=5, batchsize=8)))
    rc = main(["run-plan", "--plan", str(path), "--data", str(workspace / "data"),
               "--out", str(workspace / "ft_typo_out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{path}: stage 'finetune': unknown keys ['batchsize', 'eval_every']" in err
    assert not (workspace / "ft_typo_out").exists()


FT_STAGE = {"name": "ft", "dataset": "train", "epochs": 1}


@pytest.mark.parametrize("plan, where", [
    ({"stages": [FT_STAGE], "bogus": 1}, "plan"),
    ({"stages": [{**FT_STAGE, "bogus": 1}]}, "stage 'ft'"),
    ({"stages": [FT_STAGE, {**FT_STAGE, "name": "kd", "teacher": "original",
                            "kd": {"bogus": 1}}]}, "stage 'kd': kd"),
    ({"stages": [{**FT_STAGE, "prune": {"mode": "one_step", "target": {"H": 1},
                                        "bogus": 1}}]}, "stage 'ft': prune"),
    ({"preset": "scratch", "target": {"H": 1}, "bogus": 1}, "plan"),
], ids=["plan", "stage", "kd", "prune", "preset_plan"])
@pytest.mark.parametrize("command", ["run-plan", "run-arms"])
def test_an_unknown_plan_key_names_file_arm_and_stage(workspace, tmp_path, capsys, plan,
                                                      where, command):
    path = tmp_path / "plan.json"
    if command == "run-plan":
        path.write_text(json.dumps({"model": TINY_MODEL, **plan}))
    else:
        path.write_text(json.dumps({"model": TINY_MODEL, "arms": [{"name": "a", **plan}]}))
        where = f"arm 'a': {where}"
    flag = "--plan" if command == "run-plan" else "--spec"
    rc = main([command, flag, str(path), "--data", str(workspace / "data"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"rosita-mini: error: {path}: {where}: unknown keys ['bogus']" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, config, missing", [
    ("run-plan", "--plan", {"stages": _finetune_plan(epochs=1)["stages"]},
     "plan: missing keys ['model']"),
    ("run-arms", "--spec", {"model": {"H": 2}}, "missing keys ['arms']"),
    ("run-plan", "--plan", {"preset": "scratch"}, "plan: missing keys ['model', 'target']"),
    ("run-plan", "--plan", {"model": {"H": 2}}, "plan: missing keys ['stages']"),
    ("run-arms", "--spec", {"model": {"H": 2}, "arms": [{"name": "a", "preset": "scratch"}]},
     "plan: missing keys ['target']"),
], ids=["finetune", "spec", "preset_plan", "explicit_plan", "spec_arm"])
def test_missing_config_key_names_file_and_key(workspace, tmp_path, capsys, command,
                                               flag, config, missing):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = main([command, flag, str(path), "--data", str(workspace / "data"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    where = f"{path}: arm 'a'" if "arms" in config else path  # an arm's keys name the arm
    assert capsys.readouterr().err == f"rosita-mini: error: {where}: {missing}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("second, message", [
    ({"preset": "scratch", "target": {"H": 1}}, "missing keys ['name']"),
    ("b", "not a JSON object"),
], ids=["no_name", "not_an_object"])
def test_a_bad_arm_is_named_by_its_index(workspace, tmp_path, capsys, second, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"model": TINY_MODEL, "arms": [
        {"name": "a", "preset": "scratch", "target": {"H": 1}}, second]}))
    rc = main(["run-arms", "--spec", str(path), "--data", str(workspace / "data"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"rosita-mini: error: {path}: arm 1: {message}\n"
    assert not (tmp_path / "out").exists()


EXPLICIT_PLAN = {"model": TINY_MODEL, "stages": [FT_STAGE]}
PRESET_PLAN = {"preset": "scratch", "model": TINY_MODEL, "target": {"H": 1}}


@pytest.mark.parametrize("file, config, message", [
    ("plan.json", {**EXPLICIT_PLAN, "model": 5}, "plan.json: model: not a JSON object"),
    ("plan.json", {**EXPLICIT_PLAN, "model": {**TINY_MODEL, "foo": 1}},
     "plan.json: model: unknown keys ['foo']"),
    ("plan.json", {**EXPLICIT_PLAN, "model": {k: v for k, v in TINY_MODEL.items() if k != "r"}},
     "plan.json: model: missing keys ['r']"),
    ("plan.json", {**EXPLICIT_PLAN, "stages": [
        FT_STAGE, {**FT_STAGE, "name": "small", "model": {**TINY_MODEL, "foo": 1}}]},
     "plan.json: stage 'small': model: unknown keys ['foo']"),
    ("plan.json", {**EXPLICIT_PLAN, "stages": "x"}, "plan.json: plan: stages 'x' is not a list"),
    ("plan.json", {**EXPLICIT_PLAN, "stages": [5]}, "plan.json: stage 5: not a JSON object"),
    ("plan.json", {**EXPLICIT_PLAN, "stages": [
        FT_STAGE, {**FT_STAGE, "name": "kd", "teacher": "original", "kd": "abc"}]},
     "plan.json: stage 'kd': kd: not a JSON object"),
    ("plan.json", {**PRESET_PLAN, "hp": [1]},
     "plan.json: preset 'scratch': hp: not a JSON object"),
    ("plan.json", {**PRESET_PLAN, "target": [1]},
     "plan.json: preset 'scratch': target: not a JSON object"),
    ("--target", [1], "--target '[1]': target: not a JSON object"),
    ("plan.json", {**EXPLICIT_PLAN, "stages": [
        {**FT_STAGE, "prune": {"mode": "one_step", "target": 3}}]},
     "plan.json: stage 'ft': target: not a JSON object"),
    ("task.json", {"metrc": "mcc"}, "data/task.json: unknown keys ['metrc']"),
    ("spec.json", {"model": TINY_MODEL, "seeds": [1, 2], "arms": [
        {"name": "a", "preset": "scratch", "target": {"H": 1}}]},
     "spec.json: unknown keys ['seeds']"),
], ids=["model_int", "model_unknown_key", "model_without_r", "stage_model_unknown_key",
        "stages_str", "stage_int", "kd_str", "hp_list", "target_list", "target_literal_list",
        "prune_target_int", "task_json_typo", "spec_seeds"])
def test_a_malformed_object_names_its_file_stage_and_key(workspace, tmp_path, capsys, file,
                                                         config, message):
    """Every JSON object of a plan, spec, target or task file is checked before
    anything is written; the one error line names the file, any arm or stage,
    and the key or the object that is not a JSON object."""
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(PRESET_PLAN))
    argv = ["run-plan", "--plan", str(plan)]
    if file == "--target":
        argv = ["prune-one-step", "--checkpoint", str(workspace / "run" / "stage0_finetune.rst"),
                "--target", json.dumps(config)]
    elif file == "task.json":
        info = json.loads((data / "task.json").read_text())
        (data / "task.json").write_text(json.dumps({**info, **config}))
    elif file == "spec.json":
        (tmp_path / "spec.json").write_text(json.dumps(config))
        argv = ["run-arms", "--spec", str(tmp_path / "spec.json")]
    else:
        plan.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = main([*argv, "--data", str(data), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    prefix = "" if file == "--target" else f"{tmp_path}/"
    assert err.startswith(f"rosita-mini: error: {prefix}{message}") and err.count("\n") == 1
    assert not out.exists()


def _readme_heredoc(name: str) -> dict:
    return json.loads(README.read_text(encoding="utf-8")
                      .split(f"cat > {name} <<'EOF'\n", 1)[1].split("EOF\n", 1)[0])


def test_finetune_writes_the_bytes_of_a_plans_stage0(workspace, capsys):
    """README step 2's one-stage plan is step 3's preset plan cut to its stage
    0, so at one seed it writes that stage's files byte for byte; the bytes
    are compared here on the tiny model, at tiny hp."""
    step2, step3 = _readme_heredoc("ft.json"), _readme_heredoc("plan.json")
    preset = build_preset(step3["preset"], step3["model"], step3["target"], step3["hp"])
    assert StagePlan.from_dict(step2) == StagePlan(preset.model, preset.stages[:1])
    [stage] = step2["stages"]
    (workspace / "ft_stage0.json").write_text(json.dumps(
        {"model": TINY_MODEL, "stages": [{**stage, "epochs": 2, "batch_size": 16,
                                          "base_lr": 3e-3}]}))
    (workspace / "plan_stage0.json").write_text(json.dumps(
        {"preset": "one_step_one_stage", "model": TINY_MODEL,
         "target": {"H": 1, "L": 1, "d_I": 16, "r": 4},
         "hp": {"finetune_epochs": 2, "batch_size": 16, "finetune_lr": 3e-3,
                "kd_epochs": 1}}))
    assert main(["run-plan", "--plan", str(workspace / "ft_stage0.json"), "--data",
                 str(workspace / "data"), "--out", str(workspace / "ft_stage0"),
                 "--seed", "3"]) == 0
    [out] = json.loads(capsys.readouterr().out)
    assert out["stage"] == "finetune"
    assert main(["run-plan", "--plan", str(workspace / "plan_stage0.json"), "--data",
                 str(workspace / "data"), "--out", str(workspace / "plan_stage0"),
                 "--seed", "3"]) == 0
    for suffix in (".rst", ".ndjson"):
        name = "stage0_finetune" + suffix
        assert (workspace / "ft_stage0" / name).read_bytes() == \
            (workspace / "plan_stage0" / name).read_bytes(), name


def test_unknown_task_metric_fails_before_training(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for f in (workspace / "data").iterdir():
        (data / f.name).write_bytes(f.read_bytes())
    info = json.loads((data / "task.json").read_text())
    (data / "task.json").write_text(json.dumps({**info, "metric": "f1"}))
    (tmp_path / "plan.json").write_text(json.dumps(
        {"preset": "scratch", "target": {"H": 1},
         "model": {"H": 2, "L": 2, "d_X": 16, "d_I": 32, "r": 0, "head_dim": 8},
         "hp": {"finetune_epochs": 1, "batch_size": 16}}))
    rc = main(["run-plan", "--plan", str(tmp_path / "plan.json"), "--data", str(data),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'f1'" in err and "accuracy" in err and "mcc" in err
    assert not (tmp_path / "out").exists()


def test_readme_plan_examples_load(workspace):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Plans\n", 1)[1].split("\n## ", 1)[0]
    blocks = [b.split("```", 1)[0] for b in section.split("```json\n")[1:]]
    assert any('"stages"' in b for b in blocks)  # the explicit stage list
    info = json.loads((workspace / "data" / "task.json").read_text())
    vocab, _ = load_task_dir(workspace / "data", info["max_len"])
    for block in blocks:
        plan = _plan_from_dict(json.loads(block), "README.md", vocab, info)
        assert ModelConfig.from_dict(plan.model).vocab_size == len(vocab)
        for stage in plan.stages:
            if stage.model is not None:
                ModelConfig.from_dict(stage.model)


def test_readme_documents_every_plan_field():
    """README's "Plans" section names each plan field and no removed one."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Plans\n", 1)[1].split("\n## ", 1)[0]
    fields = [f.name for cls in (PL.StageSpec, PL.PruneSpec, KDConfig)
              for f in dataclasses.fields(cls)]
    assert [f for f in fields if not re.search(rf"[`\"]{f}[`\"]", section)] == []
    removed = ["student_init", "use_cross", "allow_hidden_outside_final"]
    assert [f for f in removed if f in section] == []


TINY_HP = {"finetune_epochs": 1, "kd_epochs": 1, "batch_size": 16, "width_events": 1,
           "depth_events": 1, "prune_fraction": 0.5}


def _arch_arm(name, target, **train):
    """The architecture-study arm `arch_{name}`: fine-tune, then a one-step
    prune of that teacher to `target`, fine-tuned with cross-entropy."""
    finetune = {"name": "finetune", "dataset": "train", "epochs": 1, "batch_size": 16,
                **train}
    return {"name": f"arch_{name}", "stages": [
        finetune, {**finetune, "name": f"arch_{name}", **_one_step(target)}]}


def _grid_arm(fractions, lr_kinds, preset="iterative_width_two_stage", **hp):
    return {"name": "freq", "preset": preset, "target": {"H": 1, "d_I": 16, "r": 4},
            "hp": {**TINY_HP, **hp}, "grid": {"prune_fraction": fractions, "lr_kind": lr_kinds}}


def _run_arms(workspace, tmp_path, arms, *flags):
    (tmp_path / "spec.json").write_text(json.dumps({"model": TINY_MODEL, "arms": arms}))
    return main(["run-arms", "--spec", str(tmp_path / "spec.json"), *flags,
                 "--data", str(workspace / "data"), "--out", str(tmp_path / "out")])


def test_run_arms_runs_a_grid_arm_as_cells(workspace, tmp_path, capsys):
    assert _run_arms(workspace, tmp_path, [_grid_arm([0.5, 1.0], ["linear_decay"],
                                                     kd_epochs=2)]) == 0
    rows = json.loads(capsys.readouterr().out.strip())
    assert [(r["arm"], r["prune_fraction"], r["lr_kind"], r["seed"]) for r in rows] == [
        ("freq_f0.5_linear_decay", 0.5, "linear_decay", 0),
        ("freq_f1_linear_decay", 1.0, "linear_decay", 0)]
    for row in rows:
        last = read_ndjson(tmp_path / "out" / f"{row['arm']}_seed0" / "stage2_kd_width.ndjson")
        assert row["eval_metric"] == last[-1]["eval_metric"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "freq_f0.5_linear_decay_seed0", "freq_f1_linear_decay_seed0", "summary.json",
        "summary.tsv"]


def test_the_summary_tsv_has_every_rows_columns(workspace, tmp_path, capsys):
    arms = [{"name": "plain", "preset": "scratch", "target": {"H": 1}, "hp": TINY_HP},
            _grid_arm([1.0], ["constant"])]
    assert _run_arms(workspace, tmp_path, arms) == 0
    rows = json.loads(capsys.readouterr().out.strip())
    header, *lines = (tmp_path / "out" / "summary.tsv").read_text().splitlines()
    assert header.split("\t") == ["arm", "seed", "param_count", "eval_metric_kind",
                                  "eval_metric", "prune_fraction", "lr_kind"]
    assert [line.split("\t")[:2] + line.split("\t")[5:] for line in lines] == [
        ["plain", "0", "", ""], ["freq_f1_constant", "0", "1.0", "constant"]]
    assert json.loads((tmp_path / "out" / "summary.json").read_text()) == rows
    assert not list((tmp_path / "out").glob("*.tmp"))


def test_run_arms_runs_the_architecture_study(workspace, tmp_path, capsys):
    arms = [_arch_arm("a", {"H": 1, "L": 1, "d_I": 16, "r": 4}),
            _arch_arm("b", {"H": 2, "L": 1, "d_I": 8, "r": 2})]
    assert _run_arms(workspace, tmp_path, arms, "--seeds", "0,1") == 0
    rows = json.loads(capsys.readouterr().out.strip())
    assert [(r["arm"], r["seed"]) for r in rows] == \
        [("arch_a", 0), ("arch_b", 0), ("arch_a", 1), ("arch_b", 1)]
    assert rows[0]["config"]["H"] == 1 and rows[1]["config"]["d_I"] == 8
    out = tmp_path / "out"
    for row in rows:
        arm = out / f"{row['arm']}_seed{row['seed']}"
        assert sorted(p.name for p in arm.iterdir()) == [
            "stage0_finetune.ndjson", "stage0_finetune.rst",
            f"stage1_{row['arm']}.ndjson", f"stage1_{row['arm']}.rst"]
        last = read_ndjson(arm / f"stage1_{row['arm']}.ndjson")[-1]
        assert row["eval_metric"] == last["eval_metric"]
    # the teacher is trained once per seed, and the other arms link it
    for seed in (0, 1):
        a, b = (out / f"arch_{n}_seed{seed}" / "stage0_finetune.rst" for n in "ab")
        assert a.stat().st_ino == b.stat().st_ino
    assert (out / "summary.tsv").read_text().splitlines()[0].split("\t") == \
        ["arm", "seed", "param_count", "eval_metric_kind", "eval_metric"]


def test_an_arch_arm_writes_the_bytes_of_its_explicit_plan(workspace, capsys):
    """A one-arm spec writes what `run-plan` writes of the arm's plan, and
    its stage 0 is what a one-stage plan of that stage writes at the seed."""
    target = {"H": 1, "L": 1, "d_I": 16, "r": 4}
    arm = _arch_arm("x", target, epochs=2, batch_size=16, base_lr=3e-3)
    configs = {
        "ft": {"model": TINY_MODEL, "stages": arm["stages"][:1]},
        "plan": {"version": 1, "model": TINY_MODEL, "stages": arm["stages"]},
        "archs": {"model": TINY_MODEL, "arms": [arm]},
    }
    for name, cfg in configs.items():
        (workspace / f"ident_{name}.json").write_text(json.dumps(cfg))

    def run(command, config_flag, name, seed_flag):
        return main([command, config_flag, str(workspace / f"ident_{name}.json"),
                     seed_flag, "3", "--data", str(workspace / "data"),
                     "--out", str(workspace / f"ident_{name}")])

    assert run("run-plan", "--plan", "ft", "--seed") == 0
    assert run("run-plan", "--plan", "plan", "--seed") == 0
    assert run("run-arms", "--spec", "archs", "--seeds") == 0
    capsys.readouterr()
    arm = workspace / "ident_archs" / "arch_x_seed3"
    plan = workspace / "ident_plan"
    names = ["stage0_finetune.ndjson", "stage0_finetune.rst",
             "stage1_arch_x.ndjson", "stage1_arch_x.rst"]
    assert sorted(p.name for p in arm.iterdir()) == names
    for name in names:
        assert (arm / name).read_bytes() == (plan / name).read_bytes(), name
    assert (arm / "stage0_finetune.rst").read_bytes() == \
        (workspace / "ident_ft" / "stage0_finetune.rst").read_bytes()


def _rejected_before_training(workspace, tmp_path, capsys, arms, seeds, message):
    assert _run_arms(workspace, tmp_path, arms, "--seeds", seeds) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("arms, message", [
    ([_arch_arm("a", {"H": 1}), _arch_arm("b", {"H": 9})],
     "arch_b_seed0: stage 1 'arch_b': target H = 9 must lie in [1, current 2]"),
    ([_arch_arm("a", {"H": 1}), _arch_arm("a", {"d_I": 8})], "arm 'arch_a' appears twice"),
], ids=["target_above_teacher", "duplicate_name"])
def test_sweep_architectures_checks_every_arch_before_training(workspace, tmp_path, capsys,
                                                               arms, message):
    _rejected_before_training(workspace, tmp_path, capsys, arms, "0", message)


@pytest.mark.parametrize("arms, seeds, message", [
    ([_grid_arm([1.0, 1], ["linear_decay"])], "0", "arm 'freq_f1_linear_decay' appears twice"),
    ([_grid_arm([0.5], ["constant"])], "0,1,0", "seed 0 appears twice"),
    ([_arch_arm("a", {"H": 1})], "2,2", "seed 2 appears twice"),
], ids=["frequency_cell", "frequency_seed", "architectures_seed"])
def test_sweeps_reject_a_repeated_cell_or_seed_before_training(workspace, tmp_path, capsys,
                                                               arms, seeds, message):
    _rejected_before_training(workspace, tmp_path, capsys, arms, seeds, message)


def test_sweep_frequency_rejects_bad_fraction_before_training(workspace, tmp_path, capsys):
    _rejected_before_training(workspace, tmp_path, capsys, [_grid_arm([0.5, 1.5], ["constant"])],
                              "0", "prune_fraction 1.5 outside (0, 1]")


@pytest.mark.parametrize("arms, message", [
    # the last arm's target cannot be reached: the first arm trains nothing
    ([_arch_arm("a", {"H": 1}), {"name": "iter", "preset": "iterative_width_two_stage",
                                 "target": {"d_I": 10}, "hp": {**TINY_HP, "width_events": 6}}],
     "iter_seed0: stage 2 'kd_width': cannot reach target: d_I delta 22 is not "
     "divisible by 6 events"),
    ([_grid_arm([0.5], ["constant"], preset="one_step_two_stage")],
     "arm 'freq': a grid takes the lists 'prune_fraction' and 'lr_kind', for an iterative "
     "last stage"),
    ([{**_arch_arm("a", {"H": 1}), "model": TINY_MODEL}],
     "arm 'arch_a' has a model; every arm takes the spec's"),
    ([{**_grid_arm([0.5], ["constant"]),
       "grid": {"prune_fraction": 0.5, "lr_kind": ["constant"]}}],
     "arm 'freq': a grid takes the lists 'prune_fraction' and 'lr_kind', for an iterative "
     "last stage, each with a value or more"),
    ([_grid_arm([], ["constant"])], "arm 'freq': a grid takes the lists"),
    ([_arch_arm("a", {"H": 1}), _grid_arm([0.5], ["cosine"])],
     "arm 'freq': stage 'kd_width': unknown lr_kind 'cosine'"),
    ([], "spec.json: 'arms' must be a list of one arm or more"),
], ids=["unreachable_in_the_last_arm", "grid_without_iterative_stage", "arm_model",
        "grid_value_not_a_list", "empty_grid_list", "grid_lr_kind", "no_arms"])
def test_run_arms_rejects_before_training(workspace, tmp_path, capsys, arms, message):
    _rejected_before_training(workspace, tmp_path, capsys, arms, "0", message)


def test_a_bad_seed_list_is_a_usage_error_that_names_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run-arms", "--spec", "spec.json", "--seeds", "0,,1", "--data", "data",
              "--out", "out"])
    assert exc.value.code == 2
    assert "argument --seeds: invalid int_list value: '0,,1'" in capsys.readouterr().err


def test_a_preset_arms_hp_reaches_every_stage_of_its_cells(workspace, tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps({"model": TINY_MODEL, "arms": [
        _grid_arm([0.5, 1.0], ["constant"], dropout=0.25)]}))
    info = json.loads((workspace / "data" / "task.json").read_text())
    vocab, _ = load_task_dir(workspace / "data", info["max_len"])
    cells = cli._arms_from_spec(tmp_path / "spec.json", vocab, info)
    assert [[(s.name, s.dropout) for s in plan.stages] for _, _, plan in cells] == 2 * [
        [("finetune", 0.25), ("kd_samesize", 0.25), ("kd_width", 0.25)]]
    assert [(plan.stages[-1].prune.prune_fraction, plan.stages[-1].lr_kind)
            for _, _, plan in cells] == [(0.5, "constant"), (1.0, "constant")]


def test_the_walked_configs_are_the_trained_ones(workspace, tmp_path, capsys):
    """`plan_configs` gives each stage the config its trained student has, for
    every preset and a grid cell."""
    target = {"H": 1, "L": 1, "d_I": 16, "r": 4}
    arms = [{"name": name, "preset": name, "target": target, "hp": TINY_HP}
            for name in sorted(PRESETS)]
    arms.append({**_grid_arm([1.0], ["constant"], "iterative_width_depth_three_stage"),
                 "target": target})
    assert _run_arms(workspace, tmp_path, arms) == 0
    capsys.readouterr()
    info = json.loads((workspace / "data" / "task.json").read_text())
    vocab, splits = load_task_dir(workspace / "data", info["max_len"])
    cells = cli._arms_from_spec(tmp_path / "spec.json", vocab, info)
    assert len(cells) == 6
    for name, _, plan in cells:
        trained = [load_checkpoint(tmp_path / "out" / f"{name}_seed0" / f"stage{k}_{s.name}.rst")
                   .config for k, s in enumerate(plan.stages)]
        assert PL.plan_configs(plan, splits) == trained, name
        assert (trained[-1].H, trained[-1].d_I, trained[-1].r) == (1, 16, 4)


@pytest.mark.parametrize("command, flags", [
    ("prune-one-step", ["--target", '{"H": 1}', "--out", "pruned"]),
    ("inspect", []),
], ids=["prune_one_step", "inspect"])
def test_a_data_dir_without_train_names_the_split(workspace, tmp_path, monkeypatch, capsys,
                                                  command, flags):
    data = tmp_path / "data"
    data.mkdir()
    for f in (workspace / "data").iterdir():
        if f.name != "train.tsv":
            (data / f.name).write_bytes(f.read_bytes())
    monkeypatch.chdir(tmp_path)
    rc = main([command, "--checkpoint", str(workspace / "run" / "stage0_finetune.rst"),
               "--data", str(data), *flags])
    assert rc == 1
    assert "dataset 'train' not loaded; loaded: ['dev', 'train_aug']" in \
        capsys.readouterr().err
    assert not (tmp_path / "pruned").exists()


def test_prune_one_step_names_a_target_that_is_neither_file_nor_json(workspace, tmp_path,
                                                                      capsys):
    rc = main(["prune-one-step", "--checkpoint",
               str(workspace / "run" / "stage0_finetune.rst"), "--target", "nothere.json",
               "--data", str(workspace / "data"), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--target 'nothere.json' is neither a file of JSON nor a JSON literal" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, text, char", [
    ("run-plan", "--plan", '{"model": {}, "stages": [{"name": "finetune", "epochs": \n', 57),
    ("run-plan", "--plan", '{"model": \n', 11), ("run-arms", "--spec", '{"model": \n', 11),
    ("prune-one-step", "--target", '{"model": \n', 11),
], ids=["finetune", "run_plan", "run_arms", "target"])
def test_a_file_that_is_not_json_is_named(workspace, tmp_path, capsys, command, flag, text,
                                          char):
    path = tmp_path / "bad.json"
    path.write_text(text)
    extra = {"prune-one-step": ["--checkpoint",
                                str(workspace / "run" / "stage0_finetune.rst")]}
    rc = main([command, flag, str(path), "--data", str(workspace / "data"),
               "--out", str(tmp_path / "out"), *extra.get(command, [])])
    assert rc == 1
    assert capsys.readouterr().err == (f"rosita-mini: error: {path}: not valid JSON "
                                       f"(Expecting value: line 2 column 1 (char {char}))\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["no_max_len", "task_json", "eval_split", "lr_schedule"])
def test_runtime_failures_carry_the_error_prefix(workspace, tmp_path, capsys, case):
    data = workspace / "data"
    if case == "no_max_len":  # a data dir without task.json, and a plan with no max_len
        data = tmp_path / "data"
        data.mkdir()
        for f in (workspace / "data").glob("*.t*"):
            (data / f.name).write_bytes(f.read_bytes())
        (tmp_path / "plan.json").write_text(json.dumps(
            {"model": TINY_MODEL, "stages": [{"name": "ft", "dataset": "train",
                                              "epochs": 1}]}))
        argv = ["run-plan", "--plan", str(tmp_path / "plan.json")]
        message = "no max_len available: pass a model config or keep task.json"
    elif case == "task_json":  # a truncated task.json
        data = tmp_path / "data"
        data.mkdir()
        for f in (workspace / "data").iterdir():
            (data / f.name).write_bytes(f.read_bytes())
        (data / "task.json").write_text('{"max_len":\n')
        argv = ["run-plan", "--plan", str(workspace / "ft.json")]
        message = (f"{data / 'task.json'}: not valid JSON "
                   "(Expecting value: line 2 column 1 (char 12))")
    elif case == "eval_split":
        argv = ["eval", "--checkpoint", str(workspace / "run" / "stage0_finetune.rst"),
                "--split", "test"]
        message = "split 'test' not in ['dev', 'train', 'train_aug']"
    else:
        (tmp_path / "spec.json").write_text(json.dumps(
            {"model": TINY_MODEL, "arms": [_grid_arm([0.5], ["linear_decay", "cosine"])]}))
        argv = ["run-arms", "--spec", str(tmp_path / "spec.json")]
        message = f"{tmp_path / 'spec.json'}: arm 'freq': stage 'kd_width': unknown " \
                  "lr_kind 'cosine'; choices: ['constant', 'linear_decay']"
    out = ["--out", str(tmp_path / "out")] if case != "eval_split" else []
    rc = main([*argv, "--data", str(data), *out])
    assert rc == 1
    assert capsys.readouterr().err == f"rosita-mini: error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_make_data_and_the_library_share_the_filler_word_default():
    library = inspect.signature(generate_marker_task).parameters["n_filler_words"].default
    assert build_parser().parse_args(["make-data", "--out", "x"]).n_words == library == 58


def test_readme_commands_parse():
    """Every `rosita-mini` command in a README code block, its backslash
    continuations joined, parses under the CLI's parser (nothing runs)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```")[1::2]
    commands = [line.strip() for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.strip().startswith("rosita-mini ")]
    assert any(c.split()[1] == "run-arms" for c in commands)
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


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


@pytest.mark.parametrize("command", ["finetune", "factorize-embedding"])
def test_a_removed_subcommand_exits_2(capsys, command):
    """Fine-tuning is `run-plan` of a one-stage plan, and factorizing is
    `prune-one-step` with an `r` target; the old commands are unknown."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


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
