"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The training-trend
criteria 08 and 09 (iterative vs one-step pruning, multi-stage vs
single-stage KD, pruned+KD vs scratch, over several seeds) are not yet
implemented; ROADMAP item 2 plans them as an opt-in harness outside
this suite.
"""

import numpy as np

from rosita_mini import factorization as F
from rosita_mini import presets
from rosita_mini.checkpoint import load_checkpoint, save_checkpoint
from rosita_mini.data import generate_marker_task, load_task_dir
from rosita_mini.distillation import build_layer_map, hidden_mse, soft_cross_entropy
from rosita_mini.metrics import eval_metric
from rosita_mini.model import Model, ModelConfig, count_params, cross_entropy
from rosita_mini.pipeline import PruneSpec, prune_events, run_plan
from rosita_mini.pruning import ArchitectureTarget, UnitId, apply_surgery
from rosita_mini.tensor import Tensor
from support import clone, reconstruct, reconstruction_error


def report(num, label):
    print(f"\nACCEPTANCE {num:02d} PASS: {label}")


# ---------------------------------------------------------------------------


def _numeric_gradient(loss_fn, param, h=1e-4):
    numeric = np.zeros_like(param.data)
    flat, out = param.data.reshape(-1), numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        out[i] = (up - down) / (2 * h)
    return numeric


def _generic_position_init(model, rng):
    """Re-draw parameters at O(0.1) scale so layer norms sit away from their
    high-curvature region and h=1e-4 central differences are trustworthy."""
    for name, p in model.parameters().items():
        if name.endswith("_g"):
            p.data = 1.0 + 0.25 * rng.normal(size=p.shape)
        else:
            p.data = 0.25 * rng.normal(size=p.shape)


def test_criterion_01_gradient_correctness():
    """Analytic grads of L_cross, L_pred, L_hidden vs central differences."""
    cfg = ModelConfig(H=2, L=2, d_X=16, d_I=32, r=8, vocab_size=50, max_len=8,
                      n_classes=2, head_dim=8)
    student = Model.init(cfg, 17)
    teacher = Model.init(ModelConfig(H=2, L=4, d_X=16, d_I=32, r=0, vocab_size=50,
                                     max_len=8, n_classes=2, head_dim=8), 18)
    init_rng = np.random.default_rng(20)
    _generic_position_init(student, init_rng)
    _generic_position_init(teacher, init_rng)
    teacher.freeze()
    rng = np.random.default_rng(19)
    ids = rng.integers(0, 50, size=(2, 5))
    mask = np.ones_like(ids, dtype=float)
    labels = np.array([0, 1])
    layer_map = build_layer_map(4, 2)
    trace_t = teacher.forward(ids, mask)

    losses = {
        "L_cross": lambda: cross_entropy(student.forward(ids, mask).logits, labels),
        "L_pred": lambda: soft_cross_entropy(trace_t.logits,
                                             student.forward(ids, mask).logits),
        "L_hidden": lambda: hidden_mse(trace_t, student.forward(ids, mask),
                                       layer_map, mask),
    }
    worst = 0.0
    for loss_name, loss_fn in losses.items():
        student.zero_grad()
        loss_fn().backward(leaves=student.parameters().values())
        analytic = {n: p.grad.copy() for n, p in student.parameters().items()}
        for name, param in student.parameters().items():
            numeric = _numeric_gradient(lambda: loss_fn().item(), param)
            rel = np.abs(analytic[name] - numeric) / (np.abs(numeric) + 1e-8)
            worst = max(worst, float(rel.max()))
            assert rel.max() < 1e-4, \
                f"{loss_name}/{name}: max rel err {rel.max():.3e}"
    report(1, f"gradients of L_cross/L_pred/L_hidden match central differences "
              f"(worst rel err {worst:.2e} < 1e-4)")


def test_criterion_02_mask_equivalence():
    """20 random prune sets: surgery equals zero-masking within 1e-10."""
    rng = np.random.default_rng(23)
    worst = 0.0
    for trial in range(20):
        cfg = ModelConfig(H=int(rng.integers(2, 5)), L=int(rng.integers(1, 4)),
                          d_X=16, d_I=int(rng.integers(4, 10)),
                          r=int(rng.integers(2, 8)), vocab_size=21, max_len=10,
                          n_classes=2, head_dim=4)
        model = Model.init(cfg, int(rng.integers(10_000)))
        prune_set = []
        n_heads = int(rng.integers(0, cfg.H))
        n_neurons = int(rng.integers(0, cfg.d_I // 2 + 1))
        for layer in range(cfg.L):
            for h in rng.choice(cfg.H, size=n_heads, replace=False):
                prune_set.append(UnitId("attention_head", int(h), layer))
            for j in rng.choice(cfg.d_I, size=n_neurons, replace=False):
                prune_set.append(UnitId("ffn_neuron", int(j), layer))
        for i in rng.choice(cfg.r, size=int(rng.integers(0, cfg.r)), replace=False):
            prune_set.append(UnitId("embedding_rank", int(i)))

        masked = clone(model)
        hd = cfg.head_dim
        for u in prune_set:
            if u.kind == "attention_head":
                sl = slice(u.unit_index * hd, (u.unit_index + 1) * hd)
                for base in ("W_Q", "W_K", "W_V"):
                    masked.params[f"layer{u.layer_index}.{base}"].data[:, sl] = 0.0
                masked.params[f"layer{u.layer_index}.W_AO"].data[sl, :] = 0.0
            elif u.kind == "ffn_neuron":
                masked.params[f"layer{u.layer_index}.W_FI"].data[:, u.unit_index] = 0.0
                masked.params[f"layer{u.layer_index}.b_FI"].data[u.unit_index] = 0.0
                masked.params[f"layer{u.layer_index}.W_FO"].data[u.unit_index, :] = 0.0
            else:
                masked.params["emb.E_U"].data[:, u.unit_index] = 0.0
                masked.params["emb.E_V"].data[u.unit_index, :] = 0.0

        apply_surgery(model, prune_set)
        ids = rng.integers(0, 21, size=(3, 6))
        m = np.ones_like(ids, dtype=float)
        diff = np.abs(model.forward(ids, m).logits.data
                      - masked.forward(ids, m).logits.data).max()
        worst = max(worst, float(diff))
        assert diff <= 1e-10, f"trial {trial}: diff {diff:.2e}"
    report(2, f"20 random prune sets match the zero-mask oracle "
              f"(worst abs diff {worst:.2e} <= 1e-10)")


def test_criterion_03_svd_truncation():
    rng = np.random.default_rng(29)
    for trial in range(5):
        w = rng.normal(size=(50, 20))
        res = F.svd(w)
        full_err = np.linalg.norm(w - reconstruct(res))
        assert full_err <= 1e-8
        for r in (3, 11, 20):
            e_u, e_v = F.truncate(res, r)
            err = reconstruction_error(w, e_u, e_v)
            expect = np.sqrt((res.sigma[r:] ** 2).sum())
            assert abs(err - expect) <= 1e-8
    e_u, e_v = F.truncate(F.svd(np.diag([3.0, 2.0, 1.0])), 2)
    diag_err = reconstruction_error(np.diag([3.0, 2.0, 1.0]), e_u, e_v)
    assert abs(diag_err - 1.0) <= 1e-10
    report(3, "SVD reconstructs within 1e-8, truncation error equals the "
              "dropped-sigma norm, diag(3,2,1) at r=2 errs exactly 1.0")


def test_criterion_04_parameter_accounting():
    base = ModelConfig(H=12, L=12, d_X=768, d_I=3072, r=0, vocab_size=30522,
                       max_len=512, n_classes=2, head_dim=64)
    n_base = count_params(base)
    rel_base = abs(n_base - 109e6) / 109e6
    assert rel_base < 0.01

    arch_c = ModelConfig(H=2, L=8, d_X=768, d_I=512, r=128, vocab_size=30522,
                         max_len=512, n_classes=2, head_dim=64)
    n_c = count_params(arch_c)
    rel_c = abs(n_c - 14.5e6) / 14.5e6
    assert rel_c < 0.05
    report(4, f"full-size config counts {n_base / 1e6:.2f}M "
              f"(109M +- 1%), compressed counts {n_c / 1e6:.2f}M (14.5M +- 5%)")


def test_criterion_05_layer_mapping():
    assert build_layer_map(12, 4).g == [0, 3, 6, 9, 12]
    lm = build_layer_map(12, 8)
    kept_1idx = lm.g[1:]
    dropped = [t for t in range(1, 13) if t not in kept_1idx]
    assert dropped == [3, 6, 9, 12]
    assert len(kept_1idx) == 8
    report(5, "map(12->4) = {0,3,6,9,12}; map(12->8) drops teacher layers "
              "{3,6,9,12} and keeps exactly 8")


def test_criterion_06_scheduler_fidelity():
    cfg = ModelConfig(H=12, L=12, d_X=768, d_I=3072, r=768, vocab_size=30522,
                      max_len=512, n_classes=2, head_dim=64)
    prune = PruneSpec(mode="iterative", target=ArchitectureTarget(H=2, d_I=512, r=128),
                      prune_fraction=0.1, n_events=10)
    steps, a = prune_events(cfg, prune, total_steps=10000)
    assert steps == [100 * k for k in range(1, 11)]
    assert (a["H"], a["d_I"], a["r"]) == (1, 256, 64)
    h, d_i, r = cfg.H, cfg.d_I, cfg.r
    for _ in steps:
        h -= a["H"]
        d_i -= a["d_I"]
        r -= a["r"]
    assert (h, d_i, r) == (2, 512, 128)
    report(6, "10 events at steps 100..1000 with (1 head, 256 neurons, 64 ranks) "
              "each transform (12, 3072, 768) to exactly (2, 512, 128)")


def test_criterion_07_loss_oracles():
    sce = soft_cross_entropy(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]])).item()
    assert abs(sce - 1.0443) <= 1e-3
    ce = cross_entropy(Tensor([[0.0, 0.0]]), [0]).item()
    assert abs(ce - np.log(2)) <= 1e-6
    preds = [1, 1, 1, 0, 0, 0, 0, 1, 0, 0]
    labels = [1, 1, 1, 0, 0, 0, 0, 0, 1, 1]
    mcc = eval_metric(preds, labels, "mcc")
    assert abs(mcc - 0.40825) <= 1e-4
    report(7, f"soft CE {sce:.6f} (1.0443 +- 1e-3), uniform CE ln2 +- 1e-6, "
              f"mcc {mcc:.5f} (0.40825 +- 1e-4)")


def test_criterion_10_determinism_and_persistence(tmp_path):
    info = generate_marker_task(tmp_path / "data", n_train=48, n_dev=32, n_aug=64,
                                seq_len=6, n_filler_words=10, seed=5)
    _, splits = load_task_dir(tmp_path / "data", info["max_len"])
    model_dict = dict(H=2, L=2, d_X=16, d_I=32, r=0, head_dim=8,
                      vocab_size=info["vocab_size"], max_len=info["max_len"],
                      n_classes=2)
    plan = presets.build_preset(
        "one_step_one_stage", model_dict, dict(H=1, L=1, d_I=16, r=4),
        hp=dict(finetune_epochs=2, kd_epochs=1, batch_size=16))
    run_plan(plan, splits, tmp_path / "runA", seed=99)
    run_plan(plan, splits, tmp_path / "runB", seed=99)
    metric_files = sorted(p.name for p in (tmp_path / "runA").glob("*.ndjson"))
    assert metric_files
    for name in metric_files:
        assert (tmp_path / "runA" / name).read_bytes() == \
            (tmp_path / "runB" / name).read_bytes(), name

    # checkpoint byte-exactness and forward agreement after reload
    ckpt = sorted((tmp_path / "runA").glob("*.rst"))[0]
    loaded = load_checkpoint(ckpt)
    resaved = tmp_path / "resave.rst"
    save_checkpoint(resaved, loaded.to_model(), seed=loaded.seed, stage=loaded.stage)
    assert ckpt.read_bytes() == resaved.read_bytes()

    model = loaded.to_model()
    rng = np.random.default_rng(0)
    ids = rng.integers(0, info["vocab_size"], size=(4, 6))
    mask = np.ones_like(ids, dtype=float)
    before = model.forward(ids, mask).logits.data
    save_checkpoint(tmp_path / "again.rst", model)
    re_model = load_checkpoint(tmp_path / "again.rst").to_model()
    after = re_model.forward(ids, mask).logits.data
    assert np.abs(before - after).max() <= 1e-6
    report(10, "fixed seed gives bit-identical metrics streams; save->load->save "
               "is byte-identical; post-load forward matches within 1e-6")
