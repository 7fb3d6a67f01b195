"""Schedules, Adam against a hand-stepped oracle, stage/plan execution,
optimizer surgery, and end-to-end determinism."""

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np
import pytest

from rosita_mini import pipeline as PL
from rosita_mini import presets, sweeps
from rosita_mini.checkpoint import load_checkpoint, save_checkpoint
from rosita_mini.data import generate_marker_task, load_task_dir
from rosita_mini.distillation import KDConfig
from rosita_mini.metrics import MetricsWriter, read_ndjson
from rosita_mini.model import Model, ModelConfig
from rosita_mini.optim import Adam
from rosita_mini.pipeline import (LRSchedule, PruneSchedule, PruneSpec, StagePlan,
                                  StageSpec, lr_at, run_plan, run_stage,
                                  schedule_events, schedule_for_target)
from rosita_mini.pruning import (ArchitectureTarget, RemovalAmounts, UnitId,
                                 apply_surgery)
from rosita_mini.tensor import Tensor


class TestLRSchedule:
    def test_constant(self):
        s = LRSchedule("constant", 3e-4, 100)
        assert lr_at(s, 0) == lr_at(s, 57) == lr_at(s, 100) == 3e-4

    def test_linear_endpoints(self):
        s = LRSchedule("linear_decay", 1e-3, 100)
        assert lr_at(s, 0) == 1e-3
        assert lr_at(s, 100) == 0.0

    def test_linear_midpoint(self):
        s = LRSchedule("linear_decay", 1e-3, 100)
        assert abs(lr_at(s, 50) - 5e-4) < 1e-18

    def test_step_beyond_total_rejected(self):
        with pytest.raises(ValueError):
            lr_at(LRSchedule("constant", 1e-3, 10), 11)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LRSchedule("cosine", 1e-3, 10)


class TestAdam:
    def test_zero_gradient_no_movement(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam({"p": p})
        opt.step({"p": p}, 1e-3)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude(self):
        # bias correction makes mhat/sqrt(vhat) = 1 on the first step
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([1.0])
        opt = Adam({"p": p})
        opt.step({"p": p}, 0.01)
        assert abs(p.data[0] + 0.01) < 1e-9

    def test_three_steps_match_hand_oracle(self):
        # f(w) = w^2 from w = 1, lr = 0.1
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": p})
        for _ in range(3):
            p.grad = 2.0 * p.data
            opt.step({"p": p}, 0.1)

        # independent hand-stepped implementation
        w, m, v = 1.0, 0.0, 0.0
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 4):
            g = 2.0 * w
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            w -= 0.1 * mh / (np.sqrt(vh) + eps)
        assert abs(p.data[0] - w) < 1e-10

    def test_nan_gradient_aborts_without_mutation(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        q = Tensor(np.array([2.0]), requires_grad=True)
        p.grad, q.grad = np.array([np.nan]), np.array([1.0])
        opt = Adam({"p": p, "q": q})
        with pytest.raises(FloatingPointError):
            opt.step({"p": p, "q": q}, 1e-3)
        assert p.data[0] == 1.0 and q.data[0] == 2.0
        assert opt.step_count == 0

    def test_inf_gradient_aborts_without_mutation(self):
        params = {"p": Tensor(np.array([1.0, -1.0]), requires_grad=True),
                  "q": Tensor(np.array([2.0]), requires_grad=True)}
        params["p"].grad, params["q"].grad = np.array([0.5, -0.5]), np.array([1.0])
        opt = Adam(params)
        opt.step(params, 1e-3)  # nonzero moments, so a mutation would show
        before = {n: (p.data.copy(), opt.m[n].copy(), opt.v[n].copy())
                  for n, p in params.items()}
        params["q"].grad = np.array([np.inf])
        with pytest.raises(FloatingPointError, match="q"):
            opt.step(params, 1e-3)
        assert opt.step_count == 1
        for n, (data, m, v) in before.items():
            np.testing.assert_array_equal(params[n].data, data)
            np.testing.assert_array_equal(opt.m[n], m)
            np.testing.assert_array_equal(opt.v[n], v)

    def test_state_out_of_sync_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": p})
        with pytest.raises(RuntimeError, match="sync"):
            opt.step({"p": p, "extra": p}, 1e-3)

    def test_surgery_slices_moments_in_lockstep(self):
        cfg = ModelConfig(H=3, L=1, d_X=12, d_I=6, r=4, vocab_size=9, max_len=6,
                          n_classes=2, head_dim=4)
        model = Model.init(cfg, 0)
        opt = Adam(model.parameters())
        rng = np.random.default_rng(1)
        for p in model.parameters().values():
            p.grad = rng.normal(size=p.shape)
        opt.step(model.parameters(), 1e-3)
        m_before = {k: v.copy() for k, v in opt.m.items()}

        units = [UnitId("attention_head", 1, 0), UnitId("ffn_neuron", 2, 0),
                 UnitId("embedding_rank", 0)]
        report = apply_surgery(model, units)
        opt.apply_surgery(report)
        # moments now shaped like the parameters, surviving entries unchanged
        for name, p in model.parameters().items():
            assert opt.m[name].shape == p.data.shape
        kept_cols = np.r_[0:4, 8:12]
        np.testing.assert_array_equal(opt.m["layer0.W_Q"],
                                      m_before["layer0.W_Q"][:, kept_cols])
        np.testing.assert_array_equal(opt.m["emb.E_U"],
                                      m_before["emb.E_U"][:, 1:])
        # and stepping still works
        for p in model.parameters().values():
            p.grad = np.zeros(p.shape)
        opt.step(model.parameters(), 1e-3)


class TestPruneScheduling:
    def test_reference_event_grid(self):
        # 10000 steps, fraction 0.1, 10 events -> steps 100, 200, ..., 1000
        sched = PruneSchedule(10000, 0.1, 10, RemovalAmounts(heads_per_layer=1))
        steps = [s for s, _ in schedule_events(sched)]
        assert steps == [100 * k for k in range(1, 11)]

    def test_single_event_degenerate(self):
        sched = PruneSchedule(100, 0.5, 1, RemovalAmounts(layers=1))
        assert [s for s, _ in schedule_events(sched)] == [50]

    def test_full_size_to_target_arithmetic(self):
        # (12 heads, 3072 neurons, 768 ranks) - 10 x (1, 256, 64) = (2, 512, 128)
        cfg = ModelConfig(H=12, L=12, d_X=768, d_I=3072, r=768, vocab_size=30522,
                          max_len=512, n_classes=2, head_dim=64)
        target = ArchitectureTarget(H=2, d_I=512, r=128)
        sched = schedule_for_target(cfg, target, total_steps=10000,
                                    prune_fraction=0.1, n_events=10)
        a = sched.amounts
        assert (a.heads_per_layer, a.neurons_per_layer, a.ranks) == (1, 256, 64)
        assert cfg.H - 10 * a.heads_per_layer == 2
        assert cfg.d_I - 10 * a.neurons_per_layer == 512
        assert cfg.r - 10 * a.ranks == 128

    def test_indivisible_target_rejected(self):
        cfg = ModelConfig(H=4, L=2, d_X=16, d_I=10, r=0, vocab_size=9, max_len=6,
                          n_classes=2, head_dim=4)
        with pytest.raises(ValueError, match="divisible"):
            schedule_for_target(cfg, ArchitectureTarget(H=1), 100, 0.5, 2)

    def test_window_too_small_rejected(self):
        with pytest.raises(ValueError):
            PruneSchedule(100, 0.05, 10, RemovalAmounts(layers=1))

    def test_events_strictly_increasing_odd_ratio(self):
        sched = PruneSchedule(97, 0.31, 7, RemovalAmounts(ranks=1))
        steps = [s for s, _ in schedule_events(sched)]
        assert all(b > a for a, b in zip(steps, steps[1:]))
        assert steps[-1] <= int(0.31 * 97)


class TestPlanValidation:
    def _stage(self, **over):
        base = dict(name="s", dataset="train", epochs=1)
        base.update(over)
        return StageSpec(**base)

    def test_hidden_outside_final_rejected(self):
        stages = [
            self._stage(name="finetune"),
            self._stage(name="mid", teacher="previous", student_init="copy_of_teacher",
                        kd=KDConfig(use_pred=True, use_hidden=True)),
            self._stage(name="last", teacher="previous", student_init="copy_of_teacher",
                        kd=KDConfig(use_pred=True)),
        ]
        with pytest.raises(ValueError, match="final"):
            StagePlan(model={}, stages=stages)
        StagePlan(model={}, stages=stages, allow_hidden_outside_final=True)

    def test_hidden_with_depth_pruning_rejected(self):
        prune = PruneSpec(mode="iterative", target=ArchitectureTarget(L=2),
                          n_events=2)
        stages = [
            self._stage(name="finetune"),
            self._stage(name="bad", teacher="previous", student_init="copy_of_teacher",
                        kd=KDConfig(use_pred=True, use_hidden=True), prune=prune),
        ]
        with pytest.raises(ValueError, match="depth"):
            StagePlan(model={}, stages=stages)

    def test_first_stage_with_teacher_rejected(self):
        with pytest.raises(ValueError, match="first stage"):
            StagePlan(model={}, stages=[
                self._stage(teacher="previous", student_init="copy_of_teacher",
                            kd=KDConfig(use_pred=True))])

    def test_kd_without_teacher_rejected(self):
        with pytest.raises(ValueError, match="teacher"):
            self._stage(kd=KDConfig(use_pred=True))

    def test_round_trip_through_json(self):
        plan = presets.plan_iterative_width_depth_three_stage(
            model=dict(H=4, L=4, d_X=16, d_I=32, r=0, vocab_size=20, max_len=10,
                       n_classes=2, head_dim=4),
            target=dict(H=2, L=2, d_I=16, r=4),
            hp=dict(width_events=2, depth_events=2))
        blob = json.dumps(asdict(plan))
        again = StagePlan.from_dict(json.loads(blob))
        assert again == plan


@pytest.fixture(scope="module")
def task_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("task")
    info = generate_marker_task(path, n_train=48, n_dev=32, n_aug=64, seq_len=6,
                                n_filler_words=10, seed=0)
    return path, info


def tiny_model_dict(info, **over):
    d = dict(H=2, L=2, d_X=16, d_I=32, r=0, vocab_size=info["vocab_size"],
             max_len=info["max_len"], n_classes=2, head_dim=8)
    d.update(over)
    return d


def test_thread_cap_warns_once_without_threadpoolctl(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import raises ImportError
    monkeypatch.setattr(PL, "_warned_uncapped", False)
    monkeypatch.setenv("ROSITA_MINI_THREADS", "3")
    assert PL.limit_worker_threads() == 3
    assert PL.limit_worker_threads() == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "threadpoolctl" in err[0] and "cap of 3" in err[0]


def test_evaluate_rejects_unlabeled_rows(task_dir):
    path, info = task_dir
    _, splits = load_task_dir(path, info["max_len"])
    model = Model.init(ModelConfig(**tiny_model_dict(info)), 0)
    with pytest.raises(ValueError, match="64 of 64 rows are unlabeled"):
        PL.evaluate(model, splits["train_aug"])
    dev = splits["dev"]
    dev.labels[3] = -1
    with pytest.raises(ValueError, match="1 of 32 rows"):
        PL.evaluate(model, dev)


class TestRunStage:
    def test_plain_finetune_reduces_to_cross_entropy(self, task_dir, tmp_path):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        stage = StageSpec(name="ft", dataset="train", epochs=2, batch_size=16,
                          base_lr=3e-3)
        model = Model.init(ModelConfig(**tiny_model_dict(info)), 0)
        with MetricsWriter(tmp_path / "m.ndjson") as metrics:
            run_stage(stage, model, None, splits, metrics, np.random.default_rng(0))
        rows = read_ndjson(tmp_path / "m.ndjson")
        assert len(rows) == 2 * 3  # 48 examples / 16 per batch * 2 epochs
        assert all(r["loss_pred"] is None and r["loss_hidden"] is None for r in rows)
        assert all(r["loss_cross"] is not None for r in rows)
        assert [r["step"] for r in rows] == list(range(1, 7))
        # learning happened on the training loss
        assert rows[-1]["loss_cross"] < rows[0]["loss_cross"]

    def test_iterative_stage_hits_target_exactly(self, task_dir, tmp_path):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        target = ArchitectureTarget(H=1, d_I=16, r=4)
        stage = StageSpec(
            name="iter", dataset="train", epochs=2, batch_size=16,
            prune=PruneSpec(mode="iterative", target=target, prune_fraction=0.5,
                            n_events=2))
        model = Model.init(ModelConfig(**tiny_model_dict(info, H=3, head_dim=4)), 1)
        with MetricsWriter(tmp_path / "m.ndjson") as metrics:
            run_stage(stage, model, None, splits, metrics, np.random.default_rng(1))
        assert model.config.H == 1
        assert model.config.d_I == 16
        assert model.config.r == 4
        rows = read_ndjson(tmp_path / "m.ndjson")
        # records show the config after the step's events: events land at
        # steps 1 and 3 (floor(0.5*6)*k/2), halving the deltas each time
        assert [r["H"] for r in rows] == [2, 2, 1, 1, 1, 1]
        assert [r["d_I"] for r in rows] == [24, 24, 16, 16, 16, 16]
        assert [r["r"] for r in rows] == [10, 10, 4, 4, 4, 4]

    def test_one_step_stage_prunes_before_training(self, task_dir, tmp_path):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        target = ArchitectureTarget(H=1, L=1, d_I=8, r=4)
        stage = StageSpec(name="os", dataset="train", epochs=1, batch_size=16,
                          prune=PruneSpec(mode="one_step", target=target))
        model = Model.init(ModelConfig(**tiny_model_dict(info)), 2)
        with MetricsWriter(tmp_path / "m.ndjson") as metrics:
            run_stage(stage, model, None, splits, metrics, np.random.default_rng(2))
        rows = read_ndjson(tmp_path / "m.ndjson")
        assert rows[0]["H"] == 1 and rows[0]["L"] == 1
        assert rows[0]["d_I"] == 8 and rows[0]["r"] == 4

    def test_non_finite_loss_names_stage_and_step(self, task_dir, tmp_path):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        stage = StageSpec(name="ft", dataset="train", epochs=1, batch_size=16)
        model = Model.init(ModelConfig(**tiny_model_dict(info)), 3)
        model.params["cls.b"].data[0] = np.nan
        before = {k: v.data.copy() for k, v in model.params.items()}
        with MetricsWriter(tmp_path / "m.ndjson") as metrics:
            with pytest.raises(FloatingPointError,
                               match=r"stage 'ft': training loss is nan at step 1$"):
                run_stage(stage, model, None, splits, metrics, np.random.default_rng(3))
        for k, v in model.params.items():
            np.testing.assert_array_equal(v.data, before[k])


def _wait_for(path, timeout=30.0) -> bool:
    """Poll for `path` to exist; the way a forked eval waits on its parent."""
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def _param_digest(model: Model) -> str:
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(model.params[name].data.tobytes())
    return h.hexdigest()


class TestOverlappedEval:
    """run_stage evaluates the dev split in a forked child, on the student
    of the eval's step, while training goes on; the records stay the ones
    an inline eval writes."""

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def iterative_stage():
        # 2 epochs x 3 batches = 6 steps, an eval at each; surgery at steps 1, 3
        return StageSpec(
            name="iter", dataset="train", epochs=2, batch_size=16,
            prune=PruneSpec(mode="iterative", target=ArchitectureTarget(H=1, d_I=16, r=4),
                            prune_fraction=0.5, n_events=2))

    def test_forks_only_with_cpus_for_two_capped_workers(self, monkeypatch):
        monkeypatch.delenv("ROSITA_MINI_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert not PL._fork_evals()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert PL._fork_evals()
        monkeypatch.setenv("ROSITA_MINI_THREADS", "2")
        assert not PL._fork_evals()

    def test_forked_and_inline_evals_write_the_same_bytes(self, task_dir, tmp_path,
                                                          monkeypatch):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        streams = []
        for fork in (True, False):
            monkeypatch.setattr(PL, "_fork_evals", lambda: fork)
            student = Model.init(ModelConfig(**tiny_model_dict(info, H=3, head_dim=4)), 1)
            with MetricsWriter(tmp_path / f"{fork}.ndjson") as metrics:
                run_stage(self.iterative_stage(), student, None, splits, metrics,
                          np.random.default_rng(1))
            streams.append((tmp_path / f"{fork}.ndjson").read_bytes())
        self.assert_no_child_left()
        assert streams[0] == streams[1]
        assert b'"eval_metric"' in streams[0]

    def test_eval_sees_the_student_of_its_step(self, task_dir, tmp_path, monkeypatch):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        student = Model.init(ModelConfig(**tiny_model_dict(info, H=3, head_dim=4)), 1)
        # count_params runs once per step in the parent, when the record is
        # built: after the optimizer step and any surgery
        at_step = []
        real_count = PL.count_params

        def count_params(config):
            at_step.append(_param_digest(student))
            (tmp_path / f"built{len(at_step)}").touch()
            return real_count(config)

        evals = []  # in the child, which serves every eval of the stage

        def evaluate(model, data, kind="accuracy"):
            # hold the step-k eval until the parent has built step k+1's record
            evals.append(1)
            waited = len(evals) == 6 or _wait_for(tmp_path / f"built{len(evals) + 1}")
            return [_param_digest(model), os.getpid(), waited]

        monkeypatch.setattr(PL, "_fork_evals", lambda: True)
        monkeypatch.setattr(PL, "count_params", count_params)
        monkeypatch.setattr(PL, "evaluate", evaluate)
        with MetricsWriter(tmp_path / "m.ndjson") as metrics:
            run_stage(self.iterative_stage(), student, None, splits, metrics,
                      np.random.default_rng(1))
        self.assert_no_child_left()
        rows = read_ndjson(tmp_path / "m.ndjson")
        assert [r["step"] for r in rows] == list(range(1, 7))
        assert [r["H"] for r in rows] == [2, 2, 1, 1, 1, 1]
        assert [r["eval_metric"][0] for r in rows] == at_step
        assert len(set(at_step)) == 6
        assert all(r["eval_metric"][1] != os.getpid() for r in rows)
        assert all(r["eval_metric"][2] for r in rows)

    def test_eval_error_comes_out_of_run_stage(self, task_dir, tmp_path, monkeypatch):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        stage = StageSpec(name="ft", dataset="train", epochs=2, batch_size=16)
        model = Model.init(ModelConfig(**tiny_model_dict(info)), 6)
        calls = []

        def evaluate(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("eval failed")
            return 0.5

        monkeypatch.setattr(PL, "_fork_evals", lambda: True)
        monkeypatch.setattr(PL, "evaluate", evaluate)
        with MetricsWriter(tmp_path / "m.ndjson") as metrics:
            with pytest.raises(ValueError) as excinfo:
                run_stage(stage, model, None, splits, metrics, np.random.default_rng(6))
        assert type(excinfo.value) is ValueError and excinfo.value.args == ("eval failed",)
        if sys.version_info >= (3, 11):
            assert "in evaluate" in excinfo.value.__notes__[0]
        self.assert_no_child_left()
        assert [r["step"] for r in read_ndjson(tmp_path / "m.ndjson")] == [1]

    def test_child_ending_without_a_result_is_an_error(self, task_dir, tmp_path,
                                                       monkeypatch):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        stage = StageSpec(name="ft", dataset="train", epochs=1, batch_size=16)
        model = Model.init(ModelConfig(**tiny_model_dict(info)), 6)
        monkeypatch.setattr(PL, "_fork_evals", lambda: True)
        monkeypatch.setattr(PL, "evaluate", lambda *args: os._exit(3))
        with MetricsWriter(tmp_path / "m.ndjson") as metrics:
            with pytest.raises(RuntimeError, match="ended without a result"):
                run_stage(stage, model, None, splits, metrics, np.random.default_rng(6))
        self.assert_no_child_left()

    def test_nan_loss_keeps_records_before_it(self, task_dir, tmp_path, monkeypatch):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        # 17 epochs x 3 batches = 51 steps: an eval every 2 steps
        stage = StageSpec(name="ft", dataset="train", epochs=17, batch_size=16)
        model = Model.init(ModelConfig(**tiny_model_dict(info)), 7)
        losses, evals, nan_seen = [], [], tmp_path / "nan_seen"
        real_loss, real_eval = PL._batch_loss, PL.evaluate

        def batch_loss(*args, **kwargs):
            loss, parts = real_loss(*args, **kwargs)
            losses.append(1)
            if len(losses) == 6:
                nan_seen.touch()
                loss = Tensor(np.nan)
            return loss, parts

        def evaluate(*args, **kwargs):
            evals.append(1)
            if len(evals) == 2:  # keep the step-4 eval in flight past step 6
                assert _wait_for(nan_seen)
            return real_eval(*args, **kwargs)

        monkeypatch.setattr(PL, "_fork_evals", lambda: True)
        monkeypatch.setattr(PL, "_batch_loss", batch_loss)
        monkeypatch.setattr(PL, "evaluate", evaluate)
        with MetricsWriter(tmp_path / "m.ndjson") as metrics:
            with pytest.raises(FloatingPointError, match="at step 6$"):
                run_stage(stage, model, None, splits, metrics, np.random.default_rng(7))
        self.assert_no_child_left()
        rows = read_ndjson(tmp_path / "m.ndjson")
        assert [r["step"] for r in rows] == [1, 2, 3, 4, 5]
        assert ["eval_metric" in r for r in rows] == [False, True, False, True, False]


class TestRunPlan:
    def test_three_stage_preset_end_to_end(self, task_dir, tmp_path):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        plan = presets.plan_iterative_width_depth_three_stage(
            model=tiny_model_dict(info, H=3, head_dim=4),
            target=dict(H=1, L=1, d_I=16, r=4),
            hp=dict(finetune_epochs=2, kd_epochs=2, batch_size=16,
                    width_events=2, depth_events=1, prune_fraction=0.5))
        summaries = run_plan(plan, splits, tmp_path / "out", seed=7)
        assert [s["stage"] for s in summaries] == \
            ["finetune", "kd_samesize", "kd_depth", "kd_width"]
        final = summaries[-1]
        assert final["config"]["H"] == 1 and final["config"]["L"] == 1
        assert final["config"]["d_I"] == 16 and final["config"]["r"] == 4
        # teacher chaining is bit-exact: stage files exist and load
        for k, s in enumerate(summaries):
            ck = load_checkpoint(s["checkpoint"])
            assert ck.stage == s["stage"]

    def test_fixed_seed_bit_identical_metrics(self, task_dir, tmp_path):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        plan = presets.plan_one_step_one_stage(
            model=tiny_model_dict(info),
            target=dict(H=1, L=1, d_I=16, r=4),
            hp=dict(finetune_epochs=1, kd_epochs=1, batch_size=16))
        run_plan(plan, splits, tmp_path / "r1", seed=13)
        run_plan(plan, splits, tmp_path / "r2", seed=13)
        files = sorted(p.name for p in (tmp_path / "r1").glob("*.ndjson"))
        assert files
        for name in files:
            assert (tmp_path / "r1" / name).read_bytes() == \
                (tmp_path / "r2" / name).read_bytes(), name
        for name in sorted(p.name for p in (tmp_path / "r1").glob("*.rst")):
            assert (tmp_path / "r1" / name).read_bytes() == \
                (tmp_path / "r2" / name).read_bytes(), name

    def test_summary_reuses_last_step_eval(self, task_dir, tmp_path, monkeypatch):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        plan = presets.plan_one_step_one_stage(
            model=tiny_model_dict(info),
            target=dict(H=1, L=1, d_I=16, r=4),
            hp=dict(finetune_epochs=1, kd_epochs=1, batch_size=16))
        calls = tmp_path / "eval_calls"  # counted in a file: evals may run in a child
        real = PL.evaluate

        def evaluate(*a, **k):
            with open(calls, "a") as fh:
                fh.write("x")
            return real(*a, **k)

        monkeypatch.setattr(PL, "evaluate", evaluate)
        summaries = run_plan(plan, splits, tmp_path / "out", seed=3)
        assert len(summaries) == 2
        evaluated = 0
        for k, summary in enumerate(summaries):
            rows = read_ndjson(tmp_path / "out" / f"stage{k}_{summary['stage']}.ndjson")
            evaluated += sum("eval_metric" in r for r in rows)
            assert summary["eval_metric"] == rows[-1]["eval_metric"]
            assert summary["eval_metric_kind"] == rows[-1]["eval_metric_kind"]
        assert len(calls.read_text()) == evaluated

    def test_different_seed_differs(self, task_dir, tmp_path):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        plan = presets.plan_scratch(tiny_model_dict(info), tiny_model_dict(info),
                                    hp=dict(finetune_epochs=1, batch_size=16))
        run_plan(plan, splits, tmp_path / "s1", seed=1)
        run_plan(plan, splits, tmp_path / "s2", seed=2)
        a = (tmp_path / "s1" / "stage0_scratch.ndjson").read_bytes()
        b = (tmp_path / "s2" / "stage0_scratch.ndjson").read_bytes()
        assert a != b


def test_sweep_architectures_keeps_hp_dropout(task_dir, tmp_path, monkeypatch):
    path, info = task_dir
    _, splits = load_task_dir(path, info["max_len"])
    teacher = tmp_path / "teacher.rst"
    save_checkpoint(teacher, Model.init(ModelConfig(**tiny_model_dict(info)), 4),
                    seed=4, stage="finetune")
    stages = []

    def capture(stage, *args, **kwargs):
        stages.append(stage)
        return run_stage(stage, *args, **kwargs)

    monkeypatch.setattr(sweeps, "run_stage", capture)
    archs = [{"name": "a", "target": {"H": 1}}, {"name": "b", "target": {"d_I": 16}}]
    sweeps.sweep_architectures(teacher, archs, splits, tmp_path / "out",
                               hp={"dropout": 0.25, "finetune_epochs": 1,
                                   "batch_size": 16})
    assert [s.dropout for s in stages] == [0.25, 0.25]
