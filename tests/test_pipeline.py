"""Schedules, Adam against a hand-stepped oracle, stage/plan execution,
optimizer surgery, and end-to-end determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from rosita_mini import pipeline as PL
from rosita_mini import presets
from rosita_mini import tensor as T
from rosita_mini.checkpoint import load_checkpoint, save_checkpoint
from rosita_mini.data import (EncodedDataset, batches_per_epoch, generate_marker_task,
                              iter_batches, load_task_dir)
from rosita_mini.distillation import KDConfig, build_layer_map
from rosita_mini.factorization import factorize_model_embedding
from rosita_mini.metrics import MetricsWriter, eval_metric, read_ndjson
from rosita_mini.model import Model, ModelConfig
from rosita_mini.optim import Adam
from rosita_mini.pipeline import (PruneSpec, StagePlan, StageSpec, lr_at, prune_events,
                                  run_plan, run_stage)
from rosita_mini.pruning import ArchitectureTarget, UnitId, apply_surgery, record_scores
from rosita_mini.tensor import Tensor
from support import clone


class TestLRSchedule:
    def test_constant(self):
        assert lr_at("constant", 3e-4, 100, 0) == lr_at("constant", 3e-4, 100, 57) \
            == lr_at("constant", 3e-4, 100, 100) == 3e-4

    def test_linear_endpoints(self):
        assert lr_at("linear_decay", 1e-3, 100, 0) == 1e-3
        assert lr_at("linear_decay", 1e-3, 100, 100) == 0.0

    def test_linear_midpoint(self):
        assert abs(lr_at("linear_decay", 1e-3, 100, 50) - 5e-4) < 1e-18

    def test_step_beyond_total_rejected(self):
        with pytest.raises(ValueError):
            lr_at("constant", 1e-3, 10, 11)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="lr_kind"):
            StageSpec(name="s", dataset="train", epochs=1, lr_kind="cosine")

    def test_negative_base_lr_rejected(self):
        with pytest.raises(ValueError, match="base_lr"):
            StageSpec(name="s", dataset="train", epochs=1, base_lr=-1e-3)


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


def _prune(target: ArchitectureTarget, fraction: float, n_events: int) -> PruneSpec:
    return PruneSpec(mode="iterative", target=target, prune_fraction=fraction,
                     n_events=n_events)


class TestPruneScheduling:
    full_size = ModelConfig(H=12, L=12, d_X=768, d_I=3072, r=768, vocab_size=30522,
                            max_len=512, n_classes=2, head_dim=64)

    def test_reference_event_grid(self):
        # 10000 steps, fraction 0.1, 10 events -> steps 100, 200, ..., 1000
        prune = _prune(ArchitectureTarget(H=2), 0.1, 10)
        steps, amounts = prune_events(self.full_size, prune, 10000)
        assert steps == [100 * k for k in range(1, 11)]
        assert amounts == {"H": 1, "L": 0, "d_I": 0, "r": 0}

    def test_single_event_degenerate(self):
        prune = _prune(ArchitectureTarget(L=11), 0.5, 1)
        steps, amounts = prune_events(self.full_size, prune, 100)
        assert steps == [50]
        assert amounts == {"H": 0, "L": 1, "d_I": 0, "r": 0}

    def test_full_size_to_target_arithmetic(self):
        # (12 heads, 3072 neurons, 768 ranks) - 10 x (1, 256, 64) = (2, 512, 128)
        cfg = self.full_size
        target = ArchitectureTarget(H=2, d_I=512, r=128)
        _, a = prune_events(cfg, _prune(target, 0.1, 10), total_steps=10000)
        assert (a["H"], a["d_I"], a["r"]) == (1, 256, 64)
        assert cfg.H - 10 * a["H"] == 2
        assert cfg.d_I - 10 * a["d_I"] == 512
        assert cfg.r - 10 * a["r"] == 128

    def test_indivisible_target_rejected(self):
        cfg = ModelConfig(H=4, L=2, d_X=16, d_I=10, r=0, vocab_size=9, max_len=6,
                          n_classes=2, head_dim=4)
        with pytest.raises(ValueError, match="divisible"):
            prune_events(cfg, _prune(ArchitectureTarget(H=1), 0.5, 2), 100)

    def test_window_too_small_rejected(self):
        with pytest.raises(ValueError, match="cannot hold"):
            prune_events(self.full_size, _prune(ArchitectureTarget(L=2), 0.05, 10), 100)

    @pytest.mark.parametrize("over, field", [({"prune_fraction": 0.0}, "prune_fraction"),
                                             ({"prune_fraction": 1.5}, "prune_fraction"),
                                             ({"n_events": 0}, "n_events")])
    def test_bad_spec_rejected_when_built(self, over, field):
        with pytest.raises(ValueError, match=field):
            PruneSpec(**{"mode": "iterative", "target": ArchitectureTarget(L=2), **over})

    def test_events_strictly_increasing_odd_ratio(self):
        prune = _prune(ArchitectureTarget(r=761), 0.31, 7)
        steps, _ = prune_events(self.full_size, prune, 97)
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
            self._stage(name="mid", teacher="previous",
                        kd=KDConfig(use_pred=True, use_hidden=True)),
            self._stage(name="last", teacher="previous", kd=KDConfig(use_pred=True)),
        ]
        with pytest.raises(ValueError, match="final"):
            StagePlan(model={}, stages=stages)

    def test_hidden_with_depth_pruning_rejected(self):
        prune = PruneSpec(mode="iterative", target=ArchitectureTarget(L=2),
                          n_events=2)
        with pytest.raises(ValueError, match="depth"):
            self._stage(name="bad", teacher="previous",
                        kd=KDConfig(use_pred=True, use_hidden=True), prune=prune)

    def test_first_stage_with_teacher_rejected(self):
        with pytest.raises(ValueError, match="first stage"):
            StagePlan(model={}, stages=[
                self._stage(teacher="previous", kd=KDConfig(use_pred=True))])

    def test_kd_without_teacher_rejected(self):
        with pytest.raises(ValueError, match="teacher"):
            self._stage(kd=KDConfig(use_pred=True))

    def test_model_config_with_teacher_rejected(self):
        with pytest.raises(ValueError, match="copy of its teacher"):
            self._stage(teacher="previous", model={"H": 1})

    def test_round_trip_through_json(self):
        plan = presets.build_preset(
            "iterative_width_depth_three_stage",
            model=dict(H=4, L=4, d_X=16, d_I=32, r=0, vocab_size=20, max_len=10,
                       n_classes=2, head_dim=4),
            target=dict(H=2, L=2, d_I=16, r=4),
            hp=dict(width_events=2, depth_events=2))
        blob = json.dumps(asdict(plan))
        again = StagePlan.from_dict(json.loads(blob))
        assert again == plan


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test leaves no child process behind: each forked one is reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def test_thread_cap_reads_back_from_openblas():
    blas = PL._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS is mapped into this process, so no thread count "
                    "can be set or read back")
    set_threads, get_threads = blas
    set_threads(2)
    PL._cap_blas_threads()
    assert get_threads() == 1


def test_import_caps_blas_threads_over_the_environment():
    if PL._openblas() is None:
        pytest.skip("no OpenBLAS is mapped into this process")
    src = Path(PL.__file__).resolve().parents[1]
    probe = "import rosita_mini.pipeline as PL; print(PL._openblas()[1]())"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "1"
    assert out.stderr == ""


def test_thread_cap_warns_when_it_does_not_apply(monkeypatch, capsys):
    monkeypatch.setattr(PL, "_openblas", lambda: None)
    PL._cap_blas_threads()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "no OpenBLAS" in err[0]
    assert not PL._cpu_spare()
    monkeypatch.setattr(PL, "_openblas", lambda: (lambda n: None, lambda: 2))
    PL._cap_blas_threads()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "reports 2 threads" in err[0]


def test_step_graph_is_freed_before_the_next_forward(task_dir, tmp_path, monkeypatch):
    """backward consumes each step's graph, so none of its activations is
    reachable when the next step's forward starts."""
    path, info = task_dir
    _, splits = load_task_dir(path, info["max_len"])
    forward = Model.forward
    earlier: list[weakref.ref] = []  # the activations of earlier steps
    live_at: list[int] = []  # the forwards that found some still reachable

    def watched(self, *args, **kwargs):
        if not any(p.requires_grad for p in self.params.values()):
            return forward(self, *args, **kwargs)
        if any(ref() is not None for ref in earlier):
            live_at.append(len(earlier))
        trace = forward(self, *args, **kwargs)
        earlier.extend(weakref.ref(t.data) for t in (trace.logits, *trace.hidden))
        return trace

    monkeypatch.setattr(Model, "forward", watched)
    stage = StageSpec(name="ft", dataset="train", epochs=2, batch_size=16)
    model = Model.init(ModelConfig(**tiny_model_dict(info)), 0)
    with MetricsWriter(tmp_path / "m.ndjson") as metrics:
        run_stage(stage, model, None, {"train": splits["train"]}, metrics,
                  np.random.default_rng(0))
    assert len(earlier) == 6 * 4  # 6 steps of logits and 3 hidden states
    assert live_at == []


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


def test_evaluate_checks_the_metric_kind_before_any_forward(task_dir, monkeypatch):
    path, info = task_dir
    _, splits = load_task_dir(path, info["max_len"])
    model = Model.init(ModelConfig(**tiny_model_dict(info)), 0)
    forwards = []
    monkeypatch.setattr(Model, "forward", lambda *args, **kwargs: forwards.append(1))
    with pytest.raises(ValueError, match="unknown metric kind 'f1'"):
        PL.evaluate(model, splits["dev"], "f1")
    assert forwards == []


def test_evaluate_rejects_an_empty_split(task_dir):
    path, info = task_dir
    _, splits = load_task_dir(path, info["max_len"])
    dev = splits["dev"]
    empty = EncodedDataset(dev.ids[:0], dev.mask[:0], dev.labels[:0])
    model = Model.init(ModelConfig(**tiny_model_dict(info)), 0)
    with pytest.raises(ValueError, match="^evaluate: the split has no rows$"):
        PL.evaluate(model, empty)


class TestFloat32Eval:
    """`evaluate` runs a float32 copy of the model. Against a float64
    forward of the same batches, no logit moves by more than MAX_GAP, and a
    row's prediction may change only where its float64 top-2 margin is
    below MARGIN."""

    MAX_GAP, MARGIN = 1e-5, 1e-4

    def trained(self, splits, info, path) -> Model:
        model = Model.init(ModelConfig(**tiny_model_dict(info)), 3)
        stage = StageSpec(name="ft", dataset="train", epochs=10, batch_size=16, base_lr=3e-3)
        with MetricsWriter(path) as metrics:
            run_stage(stage, model, None, {"train": splits["train"]}, metrics,
                      np.random.default_rng(0))
        return model

    @pytest.mark.parametrize("case", ["trained", "factorized", "two_lengths"])
    def test_predictions_change_only_within_the_margin(self, task_dir, tmp_path, monkeypatch,
                                                       case):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        model = self.trained(splits, info, tmp_path / "ft.ndjson")
        dev = splits["dev"]
        if case == "factorized":
            factorize_model_embedding(model, 4)
        if case == "two_lengths":  # every other row ends early: padded keys in each batch
            mask = dev.mask.copy()
            mask[1::2, 5:] = 0
            dev = EncodedDataset(np.where(mask > 0, dev.ids, 0), mask, dev.labels)
        batches = list(iter_batches(dev, 12))
        if case == "two_lengths":
            assert all({int(n) for n in b[1].sum(axis=1)} == {5, 8} for b in batches)
        oracle = np.concatenate([model.forward(ids, mask).logits.data
                                 for ids, mask, _ in batches])
        traces = []
        real_forward = Model.forward

        def forward(self, *args, **kwargs):
            traces.append(real_forward(self, *args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(PL, "_cpu_spare", lambda: False)  # every batch in this process
        monkeypatch.setattr(Model, "forward", forward)
        metric = PL.evaluate(model, dev, batch_size=12)
        assert len(traces) == len(batches) == 3
        for trace in traces:  # no float64 constant promoted the eval
            assert {t.data.dtype.name for t in [trace.logits, *trace.hidden]} == {"float32"}
        assert {p.data.dtype.name for p in model.params.values()} == {"float64"}
        logits = np.concatenate([t.logits.data for t in traces])
        assert np.abs(logits - oracle).max() <= self.MAX_GAP
        top2 = np.sort(oracle, axis=1)[:, -2:]
        flipped = logits.argmax(axis=1) != oracle.argmax(axis=1)
        assert (top2[flipped, 1] - top2[flipped, 0] < self.MARGIN).all()
        assert metric == eval_metric(logits.argmax(axis=1), dev.labels, "accuracy")
        assert abs(metric - eval_metric(oracle.argmax(axis=1), dev.labels, "accuracy")) \
            <= flipped.sum() / len(dev)


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

    def test_empty_dataset_rejected(self, task_dir, tmp_path):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        empty = EncodedDataset(splits["train"].ids[:0], splits["train"].mask[:0],
                               splits["train"].labels[:0])
        stage = StageSpec(name="ft", dataset="train", epochs=1)
        model = Model.init(ModelConfig(**tiny_model_dict(info)), 3)
        with MetricsWriter(tmp_path / "m.ndjson") as metrics:
            with pytest.raises(ValueError, match="^dataset 'train': the split has no rows$"):
                run_stage(stage, model, None, {"train": empty}, metrics,
                          np.random.default_rng(3))


def _wait_for(path, timeout=30.0) -> bool:
    """Poll for `path` to exist; the way a forked eval waits on its parent."""
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def _param_digest(model: Model) -> str:
    """A digest of the float32 values, which an eval request carries."""
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(model.params[name].data.astype(np.float32).tobytes())
    return h.hexdigest()


class TestOverlappedEval:
    """run_stage evaluates the dev split in a forked child, on the student
    of the eval's step, while training goes on; the records stay the ones
    an inline eval writes."""

    @staticmethod
    def iterative_stage():
        # 2 epochs x 3 batches = 6 steps, an eval at each; surgery at steps 1, 3
        return StageSpec(
            name="iter", dataset="train", epochs=2, batch_size=16,
            prune=PruneSpec(mode="iterative", target=ArchitectureTarget(H=1, d_I=16, r=4),
                            prune_fraction=0.5, n_events=2))

    def test_forks_only_with_cpus_for_two_capped_workers(self, monkeypatch):
        reported = [1]  # the thread count OpenBLAS reports
        monkeypatch.setattr(PL, "_openblas", lambda: (None, lambda: reported[0]))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert not PL._cpu_spare()
        assert list(PL._map_batches(lambda b: os.getpid(), [0, 1, 2])) == [os.getpid()] * 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert PL._cpu_spare()
        reported[0] = 2  # the reported count decides, not the requested one
        assert not PL._cpu_spare()
        monkeypatch.setattr(PL, "_openblas", lambda: None)  # the cap could not be applied
        reported[0] = 1
        assert not PL._cpu_spare()

    def test_forked_and_inline_evals_write_the_same_bytes(self, task_dir, tmp_path,
                                                          monkeypatch):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        streams = []
        for fork in (True, False):
            monkeypatch.setattr(PL, "_cpu_spare", lambda: fork)
            student = Model.init(ModelConfig(**tiny_model_dict(info, H=3, head_dim=4)), 1)
            with MetricsWriter(tmp_path / f"{fork}.ndjson") as metrics:
                run_stage(self.iterative_stage(), student, None, splits, metrics,
                          np.random.default_rng(1))
            streams.append((tmp_path / f"{fork}.ndjson").read_bytes())
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
            return [_param_digest(model), os.getpid(), waited,
                    sorted({p.data.dtype.name for p in model.params.values()})]

        monkeypatch.setattr(PL, "_cpu_spare", lambda: True)
        monkeypatch.setattr(PL, "count_params", count_params)
        monkeypatch.setattr(PL, "evaluate", evaluate)
        with MetricsWriter(tmp_path / "m.ndjson") as metrics:
            run_stage(self.iterative_stage(), student, None, splits, metrics,
                      np.random.default_rng(1))
        rows = read_ndjson(tmp_path / "m.ndjson")
        assert [r["step"] for r in rows] == list(range(1, 7))
        assert [r["H"] for r in rows] == [2, 2, 1, 1, 1, 1]
        assert [r["eval_metric"][0] for r in rows] == at_step
        assert len(set(at_step)) == 6
        assert all(r["eval_metric"][1] != os.getpid() for r in rows)
        assert all(r["eval_metric"][2] for r in rows)
        assert all(r["eval_metric"][3] == ["float32"] for r in rows)  # cast in the parent

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

        monkeypatch.setattr(PL, "_cpu_spare", lambda: True)
        monkeypatch.setattr(PL, "evaluate", evaluate)
        with MetricsWriter(tmp_path / "m.ndjson") as metrics:
            with pytest.raises(ValueError) as excinfo:
                run_stage(stage, model, None, splits, metrics, np.random.default_rng(6))
        assert type(excinfo.value) is ValueError and excinfo.value.args == ("eval failed",)
        if sys.version_info >= (3, 11):
            assert "in evaluate" in excinfo.value.__notes__[0]
        assert [r["step"] for r in read_ndjson(tmp_path / "m.ndjson")] == [1]

    def test_child_ending_without_a_result_is_an_error(self, task_dir, tmp_path,
                                                       monkeypatch):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        stage = StageSpec(name="ft", dataset="train", epochs=1, batch_size=16)
        model = Model.init(ModelConfig(**tiny_model_dict(info)), 6)
        monkeypatch.setattr(PL, "_cpu_spare", lambda: True)
        monkeypatch.setattr(PL, "evaluate", lambda *args: os._exit(3))
        with MetricsWriter(tmp_path / "m.ndjson") as metrics:
            with pytest.raises(RuntimeError, match="ended without a result"):
                run_stage(stage, model, None, splits, metrics, np.random.default_rng(6))

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

        monkeypatch.setattr(PL, "_cpu_spare", lambda: True)
        monkeypatch.setattr(PL, "_batch_loss", batch_loss)
        monkeypatch.setattr(PL, "evaluate", evaluate)
        with MetricsWriter(tmp_path / "m.ndjson") as metrics:
            with pytest.raises(FloatingPointError, match="at step 6$"):
                run_stage(stage, model, None, splits, metrics, np.random.default_rng(7))
        rows = read_ndjson(tmp_path / "m.ndjson")
        assert [r["step"] for r in rows] == [1, 2, 3, 4, 5]
        assert ["eval_metric" in r for r in rows] == [False, True, False, True, False]


class TestBatchHelper:
    """Where a CPU is spare, evaluate and the one-step Taylor scoring split
    their batches with a forked helper that computes every other batch;
    the results are the ones one core computes."""

    def test_results_come_back_in_batch_order(self, monkeypatch):
        monkeypatch.setattr(PL, "_cpu_spare", lambda: True)
        parent = os.getpid()
        for n in (1, 2, 5, 12):
            out = list(PL._map_batches(lambda b: (b, os.getpid()), list(range(n))))
            assert [b for b, _ in out] == list(range(n))
            assert all(pid == parent for _, pid in out[0::2])
            assert all(pid != parent for _, pid in out[1::2])

    def test_forked_and_inline_results_are_the_same(self, task_dir, monkeypatch):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        teacher = Model.init(ModelConfig(**tiny_model_dict(info)), 4)
        teacher.freeze()
        student = Model.init(ModelConfig(**tiny_model_dict(info)), 5)
        # 48 train rows in 20s: 3 batches, the last a partial one
        stages = [StageSpec(name="ce", dataset="train", epochs=1, batch_size=20),
                  StageSpec(name="kd", dataset="train", epochs=1, batch_size=20,
                            teacher="previous", kd=KDConfig(use_hidden=True))]
        layer_map = build_layer_map(teacher.config.L, student.config.L)
        runs = []
        for fork in (True, False):
            monkeypatch.setattr(PL, "_cpu_spare", lambda: fork)
            # 32 dev rows in 10s and in 7s: 4 and 5 batches, the last partial
            metrics = [PL.evaluate(student, splits["dev"], batch_size=b) for b in (10, 7)]
            recorded = []  # one entry per batch the parent adds into a ledger
            monkeypatch.setattr(PL, "record_scores",
                                lambda sums, s: recorded.append(record_scores(sums, s)))
            scores = [PL.collect_one_step_scores(student, teacher if stage.kd else None,
                                                 stage, splits["train"],
                                                 layer_map if stage.kd else None)
                      for stage in stages]
            runs.append((metrics, [{k: v.tobytes() for k, v in s.items()} for s in scores],
                         len(recorded)))
        assert runs[0] == runs[1]
        assert runs[0][2] == 3 + 3

    def test_scoring_an_empty_split_names_it(self, task_dir):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        train = splits["train"]
        empty = EncodedDataset(train.ids[:0], train.mask[:0], train.labels[:0])
        student = Model.init(ModelConfig(**tiny_model_dict(info)), 5)
        stage = StageSpec(name="prune", dataset="train", epochs=1,
                          prune=PruneSpec(mode="one_step", target=ArchitectureTarget(H=1)))
        message = "^stage 'prune': dataset 'train': the split has no rows$"
        with pytest.raises(ValueError, match=message):
            PL.collect_one_step_scores(student, None, stage, empty, None)
        with pytest.raises(ValueError, match=message):
            PL.one_step_prune(student, None, stage, empty, None)

    def test_helper_error_comes_out_of_evaluate(self, task_dir, monkeypatch):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        model = Model.init(ModelConfig(**tiny_model_dict(info)), 6)
        parent, real_forward = os.getpid(), Model.forward

        def forward(self, ids, *args, **kwargs):
            if os.getpid() != parent:
                raise IndexError("helper batch", len(ids))
            return real_forward(self, ids, *args, **kwargs)

        monkeypatch.setattr(PL, "_cpu_spare", lambda: True)
        monkeypatch.setattr(Model, "forward", forward)
        with pytest.raises(IndexError) as excinfo:
            PL.evaluate(model, splits["dev"], batch_size=10)
        assert excinfo.value.args == ("helper batch", 10)
        if sys.version_info >= (3, 11):
            assert "in forward" in excinfo.value.__notes__[0]

    def test_helper_is_reaped_when_this_side_stops(self, task_dir, monkeypatch):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        model = Model.init(ModelConfig(**tiny_model_dict(info)), 6)
        parent, real_forward = os.getpid(), Model.forward

        def forward(self, *args, **kwargs):
            if os.getpid() == parent:
                raise RuntimeError("parent batch")
            return real_forward(self, *args, **kwargs)

        monkeypatch.setattr(PL, "_cpu_spare", lambda: True)
        monkeypatch.setattr(Model, "forward", forward)
        with pytest.raises(RuntimeError, match="parent batch"):
            PL.evaluate(model, splits["dev"], batch_size=4)
        # the helper's first batch would outlast the test, were it not killed
        results = PL._map_batches(lambda b: b if os.getpid() == parent else time.sleep(60),
                                  list(range(6)))
        started = time.monotonic()
        assert next(results) == 0
        results.close()  # the consumer stops early
        assert time.monotonic() - started < 30

    def test_children_never_fork_again(self, task_dir, tmp_path, monkeypatch):
        def pids(_item=None):  # the processes that compute a 3-batch map
            return sorted(set(PL._map_batches(lambda b: os.getpid(), [0, 1, 2])))

        monkeypatch.setattr(PL, "_cpu_spare", lambda: True)
        parent = os.getpid()
        in_parent, in_helper = PL._map_batches(pids, [0, 1])
        assert len(in_parent) == 2 and parent in in_parent
        assert len(in_helper) == 1 and parent not in in_helper

        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        stage = StageSpec(name="ft", dataset="train", epochs=1, batch_size=16)
        model = Model.init(ModelConfig(**tiny_model_dict(info)), 6)
        monkeypatch.setattr(PL, "evaluate", lambda model, data, kind: pids())
        with MetricsWriter(tmp_path / "m.ndjson") as metrics:
            run_stage(stage, model, None, splits, metrics, np.random.default_rng(6))
        rows = read_ndjson(tmp_path / "m.ndjson")
        assert len(rows) == 3
        assert all(len(r["eval_metric"]) == 1 and parent not in r["eval_metric"]
                   for r in rows)


class TestRunPlan:
    def test_three_stage_preset_end_to_end(self, task_dir, tmp_path):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        plan = presets.build_preset(
            "iterative_width_depth_three_stage",
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
        plan = presets.build_preset(
            "one_step_one_stage", model=tiny_model_dict(info),
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
        plan = presets.build_preset(
            "one_step_one_stage", model=tiny_model_dict(info),
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

    def test_teacher_without_kd_fine_tunes_a_copy(self, task_dir, tmp_path):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        plan = StagePlan(model=tiny_model_dict(info), stages=[
            StageSpec(name="ft", dataset="train", epochs=1, batch_size=16),
            # lr 0: a student that starts as a copy of the teacher stays one
            StageSpec(name="copy", dataset="train", epochs=1, batch_size=16,
                      teacher="previous", lr_kind="constant", base_lr=0.0)])
        run_plan(plan, splits, tmp_path, seed=5)
        rows = read_ndjson(tmp_path / "stage1_copy.ndjson")
        assert all(r["loss_cross"] is not None and r["loss_pred"] is None for r in rows)
        teacher = load_checkpoint(tmp_path / "stage0_ft.rst").params
        student = load_checkpoint(tmp_path / "stage1_copy.rst").params
        assert teacher.keys() == student.keys()
        for name in teacher:
            np.testing.assert_array_equal(student[name], teacher[name])

    @pytest.mark.parametrize("later, eval_kind, message", [
        (dict(dataset="nope"), "accuracy", "'nope' not loaded"),
        (dict(model=dict(L=0)), "accuracy", "out: stage 1 'more': config needs H, L"),
        ({}, "bogus", "unknown metric kind 'bogus'"),
    ], ids=["dataset", "model", "eval_kind"])
    def test_bad_later_stage_or_kind_fails_before_stage_0(self, task_dir, tmp_path,
                                                          later, eval_kind, message):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        if "model" in later:
            later = {"model": tiny_model_dict(info, **later["model"])}
        plan = StagePlan(model=tiny_model_dict(info), stages=[
            StageSpec(name="ft", dataset="train", epochs=1),
            StageSpec(**{"name": "more", "dataset": "train", "epochs": 1, **later})])
        with pytest.raises(ValueError, match=message):
            run_plan(plan, splits, tmp_path / "out", eval_kind=eval_kind)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["vocab_size", "max_len", "n_classes"])
    def test_a_fresh_model_that_cannot_take_its_split_fails_before_stage_0(
            self, task_dir, tmp_path, field):
        """A fresh stage's model must take the largest token id, the longest
        row and the largest label of its dataset and of `dev`; one that does
        not fails before stage 0, naming the arm, stage, split and field."""
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        token = int(splits["train"].ids.max())
        longest = int(splits["train"].mask.sum(axis=1).max())
        later, k, stage, message = {
            "vocab_size": (dict(vocab_size=token), 1, "more",
                           f"dataset 'train': token id {token} >= vocab_size {token}"),
            "max_len": (dict(max_len=longest - 1), 1, "more",
                        f"dataset 'train': a row of {longest} tokens > max_len {longest - 1}"),
            "n_classes": ({}, 0, "ft", "split 'dev': label 2 >= n_classes 2"),
        }[field]
        if field == "n_classes":
            labels = splits["dev"].labels.copy()
            labels[0] = 2
            splits["dev"] = replace(splits["dev"], labels=labels)
        plan = StagePlan(model=tiny_model_dict(info), stages=[
            StageSpec(name="ft", dataset="train", epochs=1, batch_size=16),
            StageSpec(name="more", dataset="train", epochs=1, batch_size=16,
                      model=tiny_model_dict(info, **later))])
        out = tmp_path / "out"
        with pytest.raises(ValueError) as exc:
            run_plan(plan, splits, out)
        assert str(exc.value) == f"{out}: stage {k} {stage!r}: {message}"
        assert not out.exists()

    def test_different_seed_differs(self, task_dir, tmp_path):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        plan = presets.build_preset("scratch", tiny_model_dict(info), {},
                                hp=dict(finetune_epochs=1, batch_size=16))
        run_plan(plan, splits, tmp_path / "s1", seed=1)
        run_plan(plan, splits, tmp_path / "s2", seed=2)
        a = (tmp_path / "s1" / "stage0_scratch.ndjson").read_bytes()
        b = (tmp_path / "s2" / "stage0_scratch.ndjson").read_bytes()
        assert a != b


def dir_bytes(path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestRunArms:
    PRESETS = ("one_step_one_stage", "one_step_two_stage", "iterative_width_two_stage")

    def arms(self, info, root) -> dict:
        return {root / name: presets.build_preset(
                    name, tiny_model_dict(info), dict(H=1, d_I=16, r=4),
                    dict(finetune_epochs=1, kd_epochs=1, batch_size=16,
                         width_events=1, prune_fraction=0.5))
                for name in self.PRESETS}

    def test_shared_prefixes_train_once_and_each_arm_equals_its_lone_plan(
            self, task_dir, tmp_path, monkeypatch):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        arms = self.arms(info, tmp_path / "arms")
        trained = []

        def counting(stage, *args, **kwargs):
            trained.append(stage.name)
            return run_stage(stage, *args, **kwargs)

        monkeypatch.setattr(PL, "run_stage", counting)
        results = PL.run_arms(arms, splits, seed=11)
        # finetune and kd_samesize are shared: 5 stages of the 8
        assert sorted(trained) == ["finetune", "kd_prune", "kd_prune", "kd_samesize",
                                   "kd_width"]
        monkeypatch.undo()
        for out_dir, plan in arms.items():
            alone = tmp_path / "alone" / out_dir.name
            summaries = run_plan(plan, splits, alone, seed=11)
            assert dir_bytes(out_dir) == dir_bytes(alone), out_dir.name
            assert [{**s, "checkpoint": None} for s in results[out_dir]] == \
                [{**s, "checkpoint": None} for s in summaries]
            assert [s["checkpoint"] for s in results[out_dir]] == \
                [str(out_dir / f"stage{k}_{s.name}.rst") for k, s in enumerate(plan.stages)]

    def test_rewriting_one_arm_leaves_the_others_unchanged(self, task_dir, tmp_path):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        arms = self.arms(info, tmp_path)
        PL.run_arms(arms, splits, seed=2)
        before = {out_dir: dir_bytes(out_dir) for out_dir in arms}
        PL.run_arms(arms, splits, seed=2)  # links over the files already there
        assert {out_dir: dir_bytes(out_dir) for out_dir in arms} == before
        first, *others = arms
        run_plan(arms[first], splits, first, seed=3)
        assert dir_bytes(first)["stage0_finetune.ndjson"] != \
            before[first]["stage0_finetune.ndjson"]
        for out_dir in others:
            assert dir_bytes(out_dir) == before[out_dir], out_dir.name

    def test_bad_dataset_in_the_last_arm_fails_before_any_file(self, task_dir, tmp_path):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        arms = self.arms(info, tmp_path / "out")
        bad = StagePlan(model=tiny_model_dict(info), stages=[
            StageSpec(name="ft", dataset="train", epochs=1),
            StageSpec(name="more", dataset="nope", epochs=1)])
        with pytest.raises(ValueError, match="'nope' not loaded"):
            PL.run_arms({**arms, tmp_path / "out" / "bad": bad}, splits)
        assert not (tmp_path / "out").exists()

    def test_an_unknown_metric_kind_fails_before_any_arm(self, task_dir, tmp_path):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        with pytest.raises(ValueError, match="unknown metric kind 'bogus'"):
            PL.run_arms(self.arms(info, tmp_path / "out"), splits, eval_kind="bogus")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["one_step", "iterative"])
    def test_a_stage_without_a_teacher_prunes_from_the_plans_model(self, task_dir,
                                                                   tmp_path, mode):
        """Its student starts at the plan's model, not at the stage's end config."""
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        stage = StageSpec(name="cut", dataset="train", epochs=2, batch_size=16,
                          prune=PruneSpec(mode, ArchitectureTarget(H=1, d_I=8),
                                          prune_fraction=0.5, n_events=1))
        plan = StagePlan(tiny_model_dict(info), [stage])
        run_plan(plan, splits, tmp_path / "plan", seed=4)
        rng = PL.stage_rng(4, 0)
        student = Model.init(ModelConfig.from_dict(plan.model), rng)
        with MetricsWriter(tmp_path / "stage0_cut.ndjson") as metrics:
            out = run_stage(stage, student, None, splits, metrics, rng)
        save_checkpoint(tmp_path / "stage0_cut.rst", out, seed=4, stage="cut")
        assert (out.config.H, out.config.d_I) == (1, 8)
        for name in ("stage0_cut.ndjson", "stage0_cut.rst"):
            assert (tmp_path / "plan" / name).read_bytes() == (tmp_path / name).read_bytes()

    @pytest.mark.parametrize("case, message", [
        ("empty_dev", "stage 0 'ft': split 'dev': the split has no rows"),
        ("unlabeled_dev", "stage 0 'ft': split 'dev': 1 of 32 rows are unlabeled "
                          "(label -1), and this split needs labels"),
        ("no_labels_without_kd", "stage 1 'more': dataset 'train_aug': 64 of 64 rows are "
                                 "unlabeled (label -1), and this split needs labels"),
        ("unlabeled_train_row", "stage 0 'ft': dataset 'train': 1 of 48 rows are "
                                "unlabeled (label -1), and this split needs labels"),
        # a copy of its teacher is checked against the teacher's end config
        ("label_2_in_a_copy_stage", "stage 1 'more': dataset 'train_aug': label 2 >= "
                                    "n_classes 2"),
    ], ids=["empty_dev", "unlabeled_dev", "no_labels_without_kd", "unlabeled_train_row",
            "label_2_in_a_copy_stage"])
    def test_labels_are_checked_before_stage_0(self, task_dir, tmp_path, case, message):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        dev = splits["dev"]
        if case == "empty_dev":
            splits["dev"] = EncodedDataset(dev.ids[:0], dev.mask[:0], dev.labels[:0])
        elif case == "unlabeled_dev":
            labels = dev.labels.copy()
            labels[5] = -1
            splits["dev"] = EncodedDataset(dev.ids, dev.mask, labels)
        elif case == "unlabeled_train_row":
            train = splits["train"]
            labels = train.labels.copy()
            labels[3] = -1
            splits["train"] = EncodedDataset(train.ids, train.mask, labels)
        elif case == "label_2_in_a_copy_stage":
            train = splits["train"]
            labels = train.labels.copy()
            labels[0] = 2
            splits["train_aug"] = EncodedDataset(train.ids, train.mask, labels)
        plan = StagePlan(tiny_model_dict(info), [
            StageSpec(name="ft", dataset="train", epochs=1, batch_size=16),
            StageSpec(name="more", dataset="train_aug", epochs=1, batch_size=16,
                      teacher="previous", kd=None if case in (
                          "no_labels_without_kd", "label_2_in_a_copy_stage") else KDConfig())])
        with pytest.raises(ValueError) as exc:
            PL.run_arms({tmp_path / "out": plan}, splits)
        assert str(exc.value).startswith(f"{tmp_path / 'out'}: {message}")
        assert not (tmp_path / "out").exists()

    def test_a_kd_stage_does_not_check_labels_it_never_reads(self, task_dir, tmp_path):
        """A label 2 in a KD stage's dataset is no error: KD never reads labels."""
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        train = splits["train"]
        labels = train.labels.copy()
        labels[0] = 2
        splits["train_aug"] = EncodedDataset(train.ids, train.mask, labels)
        plan = StagePlan(tiny_model_dict(info), [
            StageSpec(name="ft", dataset="train", epochs=1, batch_size=16),
            StageSpec(name="kd", dataset="train_aug", epochs=1, batch_size=16,
                      teacher="previous", kd=KDConfig())])
        run_plan(plan, splits, tmp_path / "out", seed=0)
        assert (tmp_path / "out" / "stage1_kd.rst").exists()

    def test_results_do_not_depend_on_arm_order(self, task_dir, tmp_path):
        """Stage k of every arm draws `stage_rng(seed, k)`, wherever the arm sits."""
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        finetune = StageSpec(name="finetune", dataset="train", epochs=1, batch_size=16)

        def arch(name, **target):
            prune = PruneSpec("one_step", ArchitectureTarget(**target))
            return StagePlan(tiny_model_dict(info), [finetune, replace(
                finetune, name=f"arch_{name}", teacher="original", prune=prune)])

        plans = {"arch_a": arch("a", H=1), "arch_b": arch("b", d_I=16)}
        for order in ("ab", "ba"):
            PL.run_arms({tmp_path / order / f"arch_{x}": plans[f"arch_{x}"] for x in order},
                        splits, seed=5)
        for arm in plans:
            assert dir_bytes(tmp_path / "ab" / arm) == dir_bytes(tmp_path / "ba" / arm), arm


def test_a_grid_cell_rejects_an_lr_kind_it_does_not_know(task_dir):
    """A frequency-grid cell is the iterative preset's last stage with the
    cell's lr_kind; a kind it does not know fails there, naming those it knows."""
    _, info = task_dir
    plan = presets.build_preset("iterative_width_two_stage", tiny_model_dict(info), {"H": 1},
                                {"finetune_epochs": 1, "width_events": 1})
    with pytest.raises(ValueError, match=r"stage 'kd_width': unknown lr_kind 'cosine'; "
                                         r"choices: \['constant', 'linear_decay'\]"):
        replace(plan.stages[-1], lr_kind="cosine")


UNKNOWN_D_I = "target: unknown keys ['d_i']; known: ['H', 'L', 'd_I', 'r']"


@pytest.mark.parametrize("name, target, message", [
    ("iterative_width_two_stage", {"H": 1, "d_i": 4}, UNKNOWN_D_I),
    ("iterative_width_depth_three_stage", {"L": 1, "d_i": 4}, UNKNOWN_D_I),
    ("iterative_width_depth_three_stage", {"H": 1}, "its depth stage needs a target L"),
    ("scratch", {"d_I": 0}, "target dimensions must be >= 1, got {'d_I': 0}"),
    ("scratch", {"d_i": 4}, UNKNOWN_D_I),
], ids=["width_unknown_dim", "depth_unknown_dim", "depth_without_L", "scratch_zero",
        "scratch_unknown_dim"])
def test_every_preset_reads_its_target_through_from_dict(name, target, message):
    with pytest.raises(ValueError) as exc:
        presets.build_preset(name, {"H": 2, "L": 2, "d_X": 16, "d_I": 32}, target)
    assert str(exc.value) == f"preset {name!r}: {message}"


def test_a_scratch_preset_names_its_own_stage():
    with pytest.raises(ValueError) as exc:
        presets.build_preset("scratch", {"H": 2, "L": 2, "d_X": 16, "d_I": 32}, {},
                             hp={"finetune_lr": "x"})
    assert str(exc.value) == "preset 'scratch': stage 'scratch': base_lr = 'x' is not a number"


def test_every_preset_prunes_to_its_target():
    """Each pruning stage takes the target (its width part where depth has a
    stage of its own, or in the width-only preset); scratch trains at it."""
    model = {"H": 2, "L": 2, "d_X": 16, "d_I": 32, "r": 0}
    target = {"H": 1, "L": 1, "d_I": 16, "r": 4}
    full = ArchitectureTarget(**target)
    width = replace(full, L=None)
    plans = {name: presets.build_preset(name, model, target) for name in presets.PRESETS}
    assert {name: [s.prune.target for s in plan.stages if s.prune]
            for name, plan in plans.items()} == {
        "one_step_one_stage": [full], "one_step_two_stage": [full],
        "iterative_width_two_stage": [width],
        "iterative_width_depth_three_stage": [ArchitectureTarget(L=1), width],
        "scratch": []}
    assert plans["scratch"].stages[0].model == target


def test_scratch_ends_at_the_config_of_a_pruned_arm(task_dir):
    """A model without head_dim derives it from the base H; pruning keeps it,
    and so does scratch, so both arms end at one config of one size."""
    path, info = task_dir
    _, splits = load_task_dir(path, info["max_len"])
    model = tiny_model_dict(info, H=4)
    del model["head_dim"]
    ends = {name: PL.plan_configs(presets.build_preset(name, model, {"H": 2, "d_I": 16, "r": 4}),
                                  splits)[-1]
            for name in ("scratch", "one_step_one_stage")}
    assert ends["scratch"] == ends["one_step_one_stage"]
    assert (ends["scratch"].H, ends["scratch"].head_dim) == (2, 4)


EVERY_HP_KEY = dict(batch_size=8, lr_kind="constant", finetune_lr=2e-3, kd_lr=3e-4,
                    finetune_epochs=3, kd_epochs=5, prune_fraction=0.5, width_events=3,
                    depth_events=2, hidden_weight=0.25, temperature=2.0, dropout=0.1)


@pytest.mark.parametrize("hp", [None, EVERY_HP_KEY], ids=["default_hp", "every_hp_key"])
@pytest.mark.parametrize("name", ["one_step_one_stage", "one_step_two_stage",
                                  "iterative_width_two_stage",
                                  "iterative_width_depth_three_stage", "scratch"])
def test_every_preset_builds_its_full_stage_list(name, hp):
    """Each preset's stages, field by field: `finetune` on `train` from the
    fine-tune hp, then KD stages on `train_aug` from the KD hp, the first
    taught by the original model and each later one by the previous stage."""
    assert hp is None or set(hp) == set(presets.HP_DEFAULTS)
    h = hp or dict(batch_size=32, lr_kind="linear_decay", finetune_lr=1e-3, kd_lr=1e-3,
                   finetune_epochs=20, kd_epochs=4, prune_fraction=0.1, width_events=6,
                   depth_events=4, hidden_weight=1.0, temperature=1.0, dropout=0.0)
    model = {"H": 2, "L": 2, "d_X": 16, "d_I": 32, "r": 0}
    target = {"H": 1, "L": 1, "d_I": 16, "r": 4}
    full = ArchitectureTarget(**target)
    one_step = ("one_step", full, 10, 0.1)  # PruneSpec's defaults: one step ignores them
    width = ("iterative", replace(full, L=None), h["width_events"], h["prune_fraction"])
    depth = ("iterative", ArchitectureTarget(L=1), h["depth_events"], h["prune_fraction"])
    train = (h["batch_size"], h["lr_kind"], h["dropout"])

    def ft(stage="finetune", stage_model=None):
        return (stage, "train", None, None, None, stage_model,
                h["finetune_epochs"], h["finetune_lr"], *train)

    def kd(stage, teacher, use_hidden, prune=None):
        return (stage, "train_aug", teacher, (use_hidden, h["temperature"], h["hidden_weight"]),
                prune, None, h["kd_epochs"], h["kd_lr"], *train)

    samesize = kd("kd_samesize", "original", False)
    expected = {
        "one_step_one_stage": [ft(), kd("kd_prune", "original", True, one_step)],
        "one_step_two_stage": [ft(), samesize, kd("kd_prune", "previous", True, one_step)],
        "iterative_width_two_stage": [ft(), samesize, kd("kd_width", "previous", True, width)],
        "iterative_width_depth_three_stage": [ft(), samesize,
                                              kd("kd_depth", "previous", False, depth),
                                              kd("kd_width", "previous", True, width)],
        "scratch": [ft("scratch", target)],
    }[name]
    plan = presets.build_preset(name, model, target, hp)
    assert plan.model == model
    assert [(s.name, s.dataset, s.teacher,
             s.kd and (s.kd.use_hidden, s.kd.temperature, s.kd.hidden_weight),
             s.prune and (s.prune.mode, s.prune.target, s.prune.n_events,
                          s.prune.prune_fraction),
             s.model, s.epochs, s.base_lr, s.batch_size, s.lr_kind, s.dropout)
            for s in plan.stages] == expected
    assert all(s.kd is None or s.kd.use_pred for s in plan.stages)


def test_updates_assign_new_arrays_and_leave_the_old_ones_unchanged():
    """Adam, surgery and factorization give each parameter they change a new
    array and write into none, so whoever holds a parameter array sees it
    unchanged."""
    cfg = ModelConfig(H=3, L=2, d_X=12, d_I=6, r=0, vocab_size=9, max_len=6,
                      n_classes=2, head_dim=4)
    model = Model.init(cfg, 0)
    opt = Adam(model.parameters())

    def snapshot():
        return {name: (p.data, p.data.copy()) for name, p in model.params.items()}

    def changed_since(before) -> set[str]:
        for name, (old, copy) in before.items():
            assert old.tobytes() == copy.tobytes(), f"{name} was written in place"
        changed = {name for name, p in model.params.items()
                   if name not in before or p.data.shape != before[name][1].shape
                   or p.data.tobytes() != before[name][1].tobytes()}
        for name in changed & before.keys():
            assert model.params[name].data is not before[name][0], name
        return changed

    before = snapshot()
    rng = np.random.default_rng(1)
    for p in model.parameters().values():
        p.grad = rng.normal(size=p.shape)
    opt.step(model.parameters(), 1e-3)
    assert changed_since(before) == set(before)

    before = snapshot()
    report = apply_surgery(model, [UnitId("attention_head", 1, 0),
                                   UnitId("attention_head", 1, 1),
                                   UnitId("ffn_neuron", 2, 0), UnitId("ffn_neuron", 2, 1)])
    opt.apply_surgery(report)
    assert changed_since(before) == set(report.kept)

    before = snapshot()
    factorize_model_embedding(model, 4)
    assert changed_since(before) == {"emb.E_U", "emb.E_V"}
    assert "emb.W" not in model.params


def _training_forwards(monkeypatch) -> list:
    """Record each forward that builds a graph: a student's training pass."""
    forward = Model.forward
    calls = []

    def counted(self, *args, **kwargs):
        if any(p.requires_grad for p in self.params.values()):
            calls.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(Model, "forward", counted)
    return calls


class TestFixedPoint:
    """A KD stage whose student is its teacher's unpruned copy, without
    dropout, cannot move: it runs as teacher passes and one eval before its
    first step, forks no dev-eval child, and writes the bytes that training
    it writes."""

    KD = {"pred_t1": KDConfig(), "pred_t2": KDConfig(temperature=2.0),
          "pred_hidden": KDConfig(use_hidden=True)}

    @staticmethod
    def stage(**over) -> StageSpec:
        # 64 rows / 16 per batch x 2 epochs = 8 steps, an eval at each
        return StageSpec(**{"name": "same", "dataset": "train_aug", "epochs": 2,
                            "batch_size": 16, "teacher": "original", "kd": KDConfig(),
                            **over})

    @staticmethod
    def pair(info):
        teacher = Model.init(ModelConfig(**tiny_model_dict(info)), 5)
        return teacher, clone(teacher)

    @pytest.mark.parametrize("kd", list(KD))
    @pytest.mark.parametrize("dev, fork", [(True, True), (True, False), (False, True),
                                           (False, False)],
                             ids=["dev-fork", "dev-inline", "nodev-fork", "nodev-inline"])
    def test_writes_the_bytes_of_training(self, task_dir, tmp_path, monkeypatch, kd, dev,
                                          fork):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        if not dev:
            del splits["dev"]
        monkeypatch.setattr(PL, "_cpu_spare", lambda: fork)
        calls = tmp_path / "calls"  # "e" per eval, "s" per step: evals may run in a child
        workers = []
        real_evaluate, real_loss, real_worker = PL.evaluate, PL._batch_loss, PL._Worker

        def evaluate(*args, **kwargs):
            with open(calls, "a") as fh:
                fh.write("e")
            return real_evaluate(*args, **kwargs)

        def batch_loss(*args, **kwargs):
            with open(calls, "a") as fh:
                fh.write("s")
            return real_loss(*args, **kwargs)

        def worker(fn, name):
            workers.append(name)
            return real_worker(fn, name)

        monkeypatch.setattr(PL, "evaluate", evaluate)
        monkeypatch.setattr(PL, "_batch_loss", batch_loss)
        monkeypatch.setattr(PL, "_Worker", worker)
        forwards = _training_forwards(monkeypatch)
        runs = []
        for fast in (True, False):
            if not fast:
                monkeypatch.setattr(PL, "_is_fixed_point", lambda *args: False)
            calls.write_text("")
            forwards.clear()
            workers.clear()
            teacher, student = self.pair(info)
            with MetricsWriter(tmp_path / f"{fast}.ndjson") as metrics:
                out = run_stage(self.stage(kd=self.KD[kd]), student, teacher, splits,
                                metrics, np.random.default_rng(9))
            save_checkpoint(tmp_path / f"{fast}.rst", out, seed=9, stage="same")
            rows = read_ndjson(tmp_path / f"{fast}.ndjson")
            assert len(forwards) == (0 if fast else 8)
            if fast:  # one eval, before the first step, and no dev-eval child
                assert calls.read_text() == "e" * dev + "s" * 8
                assert "dev eval" not in workers
            else:
                assert sorted(calls.read_text()) == sorted("e" * 8 * dev + "s" * 8)
                assert workers.count("dev eval") == (dev and fork)
            assert sum("eval_metric" in r for r in rows) == (8 if dev else 0)
            runs.append(([(tmp_path / f"{fast}{suffix}").read_bytes()
                          for suffix in (".ndjson", ".rst")],
                         {name: p.data.tobytes() for name, p in out.params.items()}))
        assert runs[0] == runs[1]
        assert runs[0][1] == {name: p.data.tobytes() for name, p in teacher.params.items()}
        assert all(r["loss_pred"] is not None for r in rows)
        assert all((r["loss_hidden"] is not None) == (kd == "pred_hidden") for r in rows)

    @pytest.mark.parametrize("change", ["dropout", "prune", "no_kd", "config", "one_ulp"])
    def test_not_taken_where_the_student_can_move(self, task_dir, tmp_path, monkeypatch,
                                                  change):
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        teacher, student = self.pair(info)
        stage = self.stage(dataset="train")  # labeled, for the stage without kd
        assert PL._is_fixed_point(stage, student, teacher)
        if change == "dropout":
            stage = self.stage(dataset="train", dropout=0.1)
        elif change == "prune":
            stage = self.stage(dataset="train", prune=PruneSpec(
                mode="iterative", target=ArchitectureTarget(H=1), prune_fraction=0.5,
                n_events=1))
        elif change == "no_kd":
            stage = self.stage(dataset="train", kd=None)
        elif change == "config":
            student.config = replace(student.config, eps=1e-6)
        else:
            w = student.params["layer1.W_FO"].data.copy()
            w[3, 5] = np.nextafter(w[3, 5], np.inf)
            student.params["layer1.W_FO"].data = w
        assert not PL._is_fixed_point(stage, student, teacher)
        forwards = _training_forwards(monkeypatch)
        with MetricsWriter(tmp_path / "m.ndjson") as metrics:
            run_stage(stage, student, teacher, splits, metrics, np.random.default_rng(9))
        assert len(forwards) == 6  # 48 rows / 16 per batch x 2 epochs


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_samesize_kd_writes_its_teachers_arrays_without_dropout(task_dir, tmp_path,
                                                                monkeypatch, dropout):
    path, info = task_dir
    _, splits = load_task_dir(path, info["max_len"])
    plan = presets.build_preset(
        "iterative_width_depth_three_stage",
        model=tiny_model_dict(info, H=3, head_dim=4),
        target=dict(H=1, L=1, d_I=16, r=4),
        hp=dict(finetune_epochs=2, kd_epochs=2, batch_size=16, width_events=2,
                depth_events=1, prune_fraction=0.5, dropout=dropout))
    forwards = _training_forwards(monkeypatch)
    run_plan(plan, splits, tmp_path, seed=7)
    teacher = load_checkpoint(tmp_path / "stage0_finetune.rst").params
    samesize = load_checkpoint(tmp_path / "stage1_kd_samesize.rst").params
    same = all(samesize[name].tobytes() == teacher[name].tobytes() for name in teacher)
    assert same == (dropout == 0.0)
    steps = [s.epochs * batches_per_epoch(len(splits[s.dataset]), s.batch_size)
             for s in plan.stages]
    assert len(forwards) == sum(steps) - (steps[1] if dropout == 0.0 else 0)


def test_taylor_scores_are_recorded_only_while_a_later_event_ranks_them(
        task_dir, tmp_path, monkeypatch):
    """A depth-only stage drops layers without ranking units, so it records
    no score; a width stage records up to its last event, and no further."""
    path, info = task_dir
    _, splits = load_task_dir(path, info["max_len"])
    calls = []
    real = PL.record_batch_scores
    monkeypatch.setattr(PL, "record_batch_scores",
                        lambda *args: calls.append(1) or real(*args))
    targets = {"depth": (ArchitectureTarget(L=1), [4], 0),
               "width": (ArchitectureTarget(H=2, d_I=16), [2, 4], 4)}
    for name, (target, events, recorded) in targets.items():
        calls.clear()
        # 64 rows / 16 per batch x 2 epochs = 8 steps; events over the first half
        stage = StageSpec(name=name, dataset="train_aug", epochs=2, batch_size=16,
                          teacher="original", kd=KDConfig(),
                          prune=PruneSpec(mode="iterative", target=target,
                                          prune_fraction=0.5, n_events=len(events)))
        teacher = Model.init(ModelConfig(**tiny_model_dict(info, H=4, head_dim=4)), 5)
        student = clone(teacher)
        assert prune_events(student.config, stage.prune, 8)[0] == events
        with MetricsWriter(tmp_path / f"{name}.ndjson") as metrics:
            run_stage(stage, student, teacher, splits, metrics, np.random.default_rng(2))
        assert len(calls) == recorded, name


def test_a_frozen_models_rows_do_not_depend_on_their_batch():
    """The premise of the teacher-row memo: at one trimmed length, every
    hidden state of a row is bit-equal whatever batch it runs in, so only
    the classifier's product depends on the batch. Run at the README
    teacher's shape; if a numpy or BLAS build breaks this, this test says so."""
    cfg = ModelConfig(H=8, L=8, d_X=64, d_I=256, r=0, vocab_size=60, max_len=14,
                      n_classes=2)
    model = Model.init(cfg, 1)
    model.freeze()
    rng = np.random.default_rng(0)
    n, s = 64, 14
    ids = rng.integers(4, cfg.vocab_size, size=(n, s))
    lengths = rng.integers(5, s + 1, size=n)  # padded rows; every batch runs at s
    mask = (np.arange(s)[None, :] < lengths[:, None]).astype(np.float64)
    ids = np.where(mask > 0, ids, 0)
    ref = model.forward(ids, mask).hidden
    for size in (32, 17, 1):
        order = rng.permutation(n)
        for start in range(0, n, size):
            sel = order[start:start + size]
            trace = model.forward(ids[sel], mask[sel])
            for layer, (h, h_ref) in enumerate(zip(trace.hidden, ref)):
                assert h.data.tobytes() == h_ref.data[sel].tobytes(), (size, layer)
            rows = np.stack([ref[-1].data[i, 0] for i in sel])
            logits = T.linear(rows, model.params["cls.W"], model.params["cls.b"])
            assert logits.data.tobytes() == trace.logits.data.tobytes(), size


def _teacher_forwards(monkeypatch) -> list:
    """Record the batch size of each forward of a frozen float64 model: a
    teacher's pass."""
    forward = Model.forward
    calls = []

    def counted(self, ids, *args, **kwargs):
        # a float32 model is `evaluate`'s copy, not a teacher
        if not any(p.requires_grad or p.data.dtype != np.float64
                   for p in self.params.values()):
            calls.append(len(ids))
        return forward(self, ids, *args, **kwargs)

    monkeypatch.setattr(Model, "forward", counted)
    return calls


def _forget_rows(monkeypatch) -> None:
    """Force every lookup of the teacher-row memo to miss."""
    forward = PL._TeacherRows.forward

    def missing(self, *args, **kwargs):
        self.rows.clear()
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(PL._TeacherRows, "forward", missing)


@pytest.mark.parametrize("kd", [KDConfig(use_hidden=True), KDConfig()],
                         ids=["hidden_loss", "logit_memo"])
def test_a_kd_stage_never_records_a_teacher_graph(task_dir, tmp_path, monkeypatch, kd):
    """run_stage freezes its teacher before any forward, so no forward of a
    frozen model, direct or through the row memo, returns a tracked tensor."""
    path, info = task_dir
    _, splits = load_task_dir(path, info["max_len"])
    monkeypatch.setattr(PL, "_cpu_spare", lambda: False)  # dev evals run in this process
    monkeypatch.setattr(PL, "_memo", (None, {}))
    model_forward, rows_forward = Model.forward, PL._TeacherRows.forward
    frozen, student, hits = [], [], []  # per forward: whether any output is tracked

    def forward(self, *args, **kwargs):
        trace = model_forward(self, *args, **kwargs)
        tracked = any(t.tracked for t in (trace.logits, *trace.hidden))
        (student if any(p.requires_grad for p in self.params.values()) else frozen).append(
            tracked)
        return trace

    def memo_forward(self, *args, **kwargs):
        trace = rows_forward(self, *args, **kwargs)
        if not trace.hidden:  # every row hit: the teacher did not run
            hits.append(trace.logits.tracked)
        return trace

    monkeypatch.setattr(Model, "forward", forward)
    monkeypatch.setattr(PL._TeacherRows, "forward", memo_forward)
    teacher = Model.init(ModelConfig(**tiny_model_dict(info)), 5)
    # 64 rows / 16 per batch x 2 epochs = 8 steps; dropout keeps the student moving
    stage = StageSpec(name="kd", dataset="train_aug", epochs=2, batch_size=16,
                      teacher="original", kd=kd, dropout=0.1)
    with MetricsWriter(tmp_path / "kd.ndjson") as metrics:
        run_stage(stage, clone(teacher), teacher, splits, metrics, np.random.default_rng(9))
    assert len(student) == 8 and all(student)
    assert len(frozen) >= 4 and not any(frozen)  # teacher passes and float32 dev evals
    assert not any(hits)
    assert len(hits) == (0 if kd.use_hidden else 4)  # the second epoch's batches


class TestTeacherMemo:
    """A logit-only KD stage that looks its teacher up in the row memo
    writes the bytes of one whose teacher runs at every step."""

    CASES = {
        "fixed_t1": dict(kd=KDConfig()),
        "fixed_t2": dict(kd=KDConfig(temperature=2.0)),
        "moving_t1": dict(kd=KDConfig(), dropout=0.1),
        "moving_t2": dict(kd=KDConfig(temperature=2.0), dropout=0.1),
        # 64 rows / 17 per batch: batches of 17, 17, 17 and 13
        "two_lengths": dict(kd=KDConfig(temperature=2.0), dropout=0.1, batch_size=17),
        "one_step": dict(kd=KDConfig(), prune=PruneSpec(
            mode="one_step", target=ArchitectureTarget(H=1, d_I=16))),
    }

    @staticmethod
    def splits(task_dir, two_lengths: bool) -> dict:
        path, info = task_dir
        _, splits = load_task_dir(path, info["max_len"])
        if two_lengths:  # all but 4 rows one token shorter
            aug = splits["train_aug"]
            ids, mask = aug.ids.copy(), aug.mask.copy()
            ids[4:, -1], mask[4:, -1] = 0, 0.0
            splits["train_aug"] = EncodedDataset(ids=ids, mask=mask, labels=aug.labels)
        return splits

    @staticmethod
    def run(info, splits, out, teacher_seed=5, **over) -> tuple:
        stage = StageSpec(**{"name": "kd", "dataset": "train_aug", "epochs": 2,
                             "batch_size": 16, "teacher": "original", **over})
        teacher = Model.init(ModelConfig(**tiny_model_dict(info)), teacher_seed)
        student = clone(teacher)
        with MetricsWriter(out) as metrics:
            student = run_stage(stage, student, teacher, splits, metrics,
                                np.random.default_rng(9))
        return out.read_bytes(), {name: p.data.tobytes() for name, p in student.params.items()}

    @pytest.mark.parametrize("fork", [True, False], ids=["fork", "inline"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_writes_the_bytes_of_a_teacher_run_at_every_step(self, task_dir, tmp_path,
                                                              monkeypatch, case, fork):
        info = task_dir[1]
        splits = self.splits(task_dir, case == "two_lengths")
        monkeypatch.setattr(PL, "_cpu_spare", lambda: fork)
        monkeypatch.setattr(PL, "_memo", (None, {}))
        lengths = []
        real_batches = PL.iter_batches

        def batches(*args, **kwargs):
            for batch in real_batches(*args, **kwargs):
                lengths.append(batch[0].shape[1])
                yield batch

        monkeypatch.setattr(PL, "iter_batches", batches)
        forwards = _teacher_forwards(monkeypatch)
        runs, counts = {}, {}
        for mode in ("memo", "memo_again", "miss"):
            if mode == "miss":
                _forget_rows(monkeypatch)
            forwards.clear()
            runs[mode] = self.run(info, splits, tmp_path / f"{mode}.ndjson",
                                  **self.CASES[case])
            counts[mode] = len(forwards)
        assert runs["memo"] == runs["memo_again"] == runs["miss"]
        assert counts["miss"] >= 8  # 4 batches per epoch, and the one-step pass
        assert counts["memo_again"] == 0  # the same batches: every row hits
        if case == "two_lengths":  # so rows hit at either trimmed length
            assert set(lengths) == {7, 8}
        else:
            assert counts["memo"] < 8
        if case.startswith("fixed"):
            assert counts["memo"] == 4  # the first epoch's batches

    def test_a_second_teacher_replaces_the_memo(self, task_dir, tmp_path, monkeypatch):
        info = task_dir[1]
        splits = self.splits(task_dir, False)
        monkeypatch.setattr(PL, "_memo", (None, {}))
        forwards = _teacher_forwards(monkeypatch)
        runs, counts = {}, {}
        for mode in ("memo", "miss"):
            if mode == "miss":
                _forget_rows(monkeypatch)
            runs[mode], counts[mode] = [], []
            for k, seed in enumerate((5, 6, 5)):
                forwards.clear()
                runs[mode].append(self.run(info, splits, tmp_path / f"{mode}{k}.ndjson",
                                           teacher_seed=seed, kd=KDConfig()))
                counts[mode].append(len(forwards))
            if mode == "memo":
                digest, rows = PL._memo
                assert len(rows) == len(splits["train_aug"])  # the last teacher's only
                assert PL._TeacherRows(
                    Model.init(ModelConfig(**tiny_model_dict(info)), 5)).rows is rows
                assert PL._memo[0] == digest
        assert runs["memo"] == runs["miss"]
        assert runs["memo"][0] == runs["memo"][2] != runs["memo"][1]
        # each teacher empties the last one's rows, so each runs its first epoch
        assert counts == {"memo": [4, 4, 4], "miss": [8, 8, 8]}
