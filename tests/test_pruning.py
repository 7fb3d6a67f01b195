"""Importance scoring against summation/leave-one-out oracles, selection
tie rules, and surgery vs zero-masking equivalence."""

import numpy as np
import pytest

from rosita_mini import pruning as P
from rosita_mini import tensor as T
from rosita_mini.data import EncodedDataset
from rosita_mini.model import Model, ModelConfig, cross_entropy, count_params
from rosita_mini.pipeline import StageSpec, collect_one_step_scores
from rosita_mini.pruning import (UNIT_DIMS, UnitId, apply_surgery, record_batch_scores,
                                 select_prune_set, weight_taylor_scores)
from rosita_mini.tensor import Tensor
from support import clone, mul, num_params, sum_all


def small_config(**over):
    base = dict(H=3, L=2, d_X=12, d_I=8, r=5, vocab_size=13, max_len=9,
                n_classes=2, head_dim=4)
    base.update(over)
    return ModelConfig(**base)


def random_batch(cfg, rng, batch=4, seq=5):
    ids = rng.integers(0, cfg.vocab_size, size=(batch, seq))
    return ids, np.ones_like(ids, dtype=float), rng.integers(0, cfg.n_classes, size=batch)


def backprop_ce(model, ids, mask, labels):
    model.zero_grad()
    trace = model.forward(ids, mask)
    loss = cross_entropy(trace.logits, labels)
    loss.backward(leaves=model.parameters().values())
    return loss


def zero_masked_clone(model, prune_set):
    """Oracle: zero the units' weights instead of removing them."""
    copy = clone(model)
    hd = model.config.head_dim
    for u in prune_set:
        if u.kind == "attention_head":
            sl = slice(u.unit_index * hd, (u.unit_index + 1) * hd)
            for base in ("W_Q", "W_K", "W_V"):
                copy.params[f"layer{u.layer_index}.{base}"].data[:, sl] = 0.0
            copy.params[f"layer{u.layer_index}.W_AO"].data[sl, :] = 0.0
        elif u.kind == "ffn_neuron":
            copy.params[f"layer{u.layer_index}.W_FI"].data[:, u.unit_index] = 0.0
            copy.params[f"layer{u.layer_index}.b_FI"].data[u.unit_index] = 0.0
            copy.params[f"layer{u.layer_index}.W_FO"].data[u.unit_index, :] = 0.0
        elif u.kind == "embedding_rank":
            copy.params["emb.E_U"].data[:, u.unit_index] = 0.0
            copy.params["emb.E_V"].data[u.unit_index, :] = 0.0
        else:
            raise AssertionError("layer units have no zero-mask analogue")
    return copy


class TestWeightTaylorScores:
    def test_symbolic_quadratic_case(self):
        # L(w) = (w*1 - 2)^2 at w = 1: dL/dw = -2, so |dL/dw * w| = 2
        w = Tensor([[1.0]], requires_grad=True)
        x = Tensor([[1.0]])
        diff = T.add(T.matmul(x, w), Tensor([[-2.0]]))
        sum_all(mul(diff, diff)).backward(leaves=[w])
        assert abs(np.abs(w.grad * w.data)[0, 0] - 2.0) < 1e-12

    def test_zero_weight_scores_zero(self):
        cfg = small_config()
        model = Model.init(cfg, 0)
        model.params["layer0.W_FI"].data[:] = 0.0
        rng = np.random.default_rng(1)
        backprop_ce(model, *random_batch(cfg, rng))
        scores = weight_taylor_scores(model)
        np.testing.assert_array_equal(scores["layer0.W_FI"], 0.0)

    def test_loss_independent_of_weights_scores_zero(self):
        cfg = small_config()
        model = Model.init(cfg, 2)
        rng = np.random.default_rng(3)
        ids, mask, labels = random_batch(cfg, rng)
        model.zero_grad()
        trace = model.forward(ids, mask)
        # loss that ignores the logits entirely
        loss = sum_all(T.scale(trace.logits, 0.0))
        loss.backward(leaves=model.parameters().values())
        scores = weight_taylor_scores(model)
        assert all(np.all(s == 0) for s in scores.values())

    def test_scores_exactly_the_scored_slices(self):
        cfg = small_config()
        model = Model.init(cfg, 5)
        backprop_ce(model, *random_batch(cfg, np.random.default_rng(6)))
        expect = {"emb.E_U", "emb.E_V"}
        for i in range(cfg.L):
            expect |= {f"layer{i}.{n}" for n in ("W_AO", "W_FI", "b_FI", "W_FO")}
        scores = weight_taylor_scores(model)
        assert set(scores) == expect
        assert not any(n.endswith(("W_Q", "W_K", "W_V")) for n in scores)

    def test_missing_gradients_rejected(self):
        model = Model.init(small_config(), 4)
        with pytest.raises(RuntimeError, match="gradient"):
            weight_taylor_scores(model)


def filled_ledger(model, fill=lambda name, shape: 0.0):
    """A ledger of the model's scored parameters, each array fill(name, shape)."""
    shapes = {name: model.params[name].data.shape for name in P._prunable_names(model.config)}
    return {name: np.broadcast_to(fill(name, shape), shape).astype(float)
            for name, shape in shapes.items()}


class TestLedger:
    def test_single_batch_identity(self):
        cfg = small_config()
        model = Model.init(cfg, 5)
        rng = np.random.default_rng(6)
        backprop_ce(model, *random_batch(cfg, rng))
        expect = weight_taylor_scores(model)
        ledger = {}
        record_batch_scores(ledger, model)
        assert ledger.keys() == expect.keys()
        for name in expect:
            np.testing.assert_array_equal(ledger[name], expect[name])

    def test_average_of_identical_batches(self):
        cfg = small_config()
        model = Model.init(cfg, 7)
        rng = np.random.default_rng(8)
        ids, mask, labels = random_batch(cfg, rng)
        backprop_ce(model, ids, mask, labels)
        single = weight_taylor_scores(model)
        # the one-step pass over a split that holds the batch twice
        twice = EncodedDataset(np.tile(ids, (2, 1)), np.tile(mask, (2, 1)), np.tile(labels, 2))
        stage = StageSpec(name="score", dataset="train", epochs=1, batch_size=len(ids))
        average = collect_one_step_scores(model, None, stage, twice, None)
        assert average.keys() == single.keys()
        for name in single:
            np.testing.assert_allclose(average[name], single[name], atol=1e-15)

    def test_accumulate_mode_sums(self):
        cfg = small_config()
        model = Model.init(cfg, 9)
        rng = np.random.default_rng(10)
        ledger = {}
        total = None
        for _ in range(4):
            backprop_ce(model, *random_batch(cfg, rng))
            scores = weight_taylor_scores(model)
            record_batch_scores(ledger, model)
            if total is None:
                total = {k: v.copy() for k, v in scores.items()}
            else:
                for k in total:
                    total[k] += scores[k]
        # independent re-summation oracle
        for name in total:
            np.testing.assert_allclose(ledger[name], total[name], atol=1e-15)

    def test_shape_mismatch_after_surgery_rejected(self):
        cfg = small_config()
        model = Model.init(cfg, 13)
        rng = np.random.default_rng(14)
        ledger = {}
        backprop_ce(model, *random_batch(cfg, rng))
        record_batch_scores(ledger, model)
        apply_surgery(model, [UnitId("ffn_neuron", 0, l) for l in range(cfg.L)])
        backprop_ce(model, *random_batch(cfg, rng))
        with pytest.raises(RuntimeError, match="reset"):
            record_batch_scores(ledger, model)

    def test_parameter_set_mismatch_after_surgery_rejected(self):
        cfg = small_config()
        model = Model.init(cfg, 13)
        rng = np.random.default_rng(14)
        ledger = {}
        backprop_ce(model, *random_batch(cfg, rng))
        record_batch_scores(ledger, model)
        apply_surgery(model, [UnitId("layer", cfg.L - 1)])
        backprop_ce(model, *random_batch(cfg, rng))
        with pytest.raises(RuntimeError, match="parameter sets differ"):
            record_batch_scores(ledger, model)

    def test_scores_nonnegative(self):
        cfg = small_config()
        model = Model.init(cfg, 15)
        rng = np.random.default_rng(16)
        ledger = {}
        backprop_ce(model, *random_batch(cfg, rng))
        record_batch_scores(ledger, model)
        assert ledger and all((s >= 0).all() for s in ledger.values())


class TestNeuronImportance:
    def test_all_zero(self):
        model = Model.init(small_config(), 17)
        ledger = filled_ledger(model)
        np.testing.assert_array_equal(
            P.unit_importance(ledger, model, "ffn_neuron", 0), 0.0)

    def test_single_entry_hits_one_neuron(self):
        model = Model.init(small_config(), 18)
        ledger = filled_ledger(model)
        ledger["layer0.W_FI"][0, 3] = 2.5
        scores = P.unit_importance(ledger, model, "ffn_neuron", 0)
        assert scores[3] == 2.5
        assert (np.delete(scores, 3) == 0).all()

    def test_matches_per_neuron_loop(self):
        cfg = small_config()
        model = Model.init(cfg, 19)
        rng = np.random.default_rng(20)
        ledger = filled_ledger(model, lambda n, s: rng.random(s))
        scores = P.unit_importance(ledger, model, "ffn_neuron", 1)
        for j in range(cfg.d_I):
            expect = sum(ledger["layer1.W_FI"][i, j] for i in range(cfg.d_X))
            expect += sum(ledger["layer1.W_FO"][j, k] for k in range(cfg.d_X))
            expect += ledger["layer1.b_FI"][j]
            assert abs(scores[j] - expect) < 1e-12

    def test_permutation_equivariant(self):
        cfg = small_config()
        model = Model.init(cfg, 21)
        rng = np.random.default_rng(22)
        ledger = filled_ledger(model, lambda n, s: rng.random(s))
        base = P.unit_importance(ledger, model, "ffn_neuron", 0)
        perm = rng.permutation(cfg.d_I)
        ledger["layer0.W_FI"] = ledger["layer0.W_FI"][:, perm]
        ledger["layer0.b_FI"] = ledger["layer0.b_FI"][perm]
        ledger["layer0.W_FO"] = ledger["layer0.W_FO"][perm, :]
        np.testing.assert_allclose(P.unit_importance(ledger, model, "ffn_neuron", 0),
                                   base[perm], atol=1e-15)


class TestHeadImportance:
    def test_zero_ao_scores(self):
        model = Model.init(small_config(), 23)
        ledger = filled_ledger(model)
        np.testing.assert_array_equal(
            P.unit_importance(ledger, model, "attention_head", 0), 0.0)

    def test_single_entry_hits_one_head(self):
        cfg = small_config()
        model = Model.init(cfg, 24)
        ledger = filled_ledger(model)
        ledger["layer0.W_AO"][cfg.head_dim + 1, 2] = 4.0  # row in head 1's block
        scores = P.unit_importance(ledger, model, "attention_head", 0)
        assert scores[1] == 4.0
        assert scores[0] == 0.0 and scores[2] == 0.0

    def test_ranking_agrees_with_leave_one_out(self):
        """Taylor head scores vs actual loss increase when heads are masked.

        Heads get distinct output scales at init and the model trains to
        convergence on a learnable task, so removal deltas are genuinely
        separated and the ranking comparison is meaningful.
        """

        def spearman(a, b):
            ra = np.argsort(np.argsort(a)).astype(float)
            rb = np.argsort(np.argsort(b)).astype(float)
            ca, cb = ra - ra.mean(), rb - rb.mean()
            return float((ca * cb).sum() / np.sqrt((ca * ca).sum() * (cb * cb).sum()))

        rhos = []
        for seed in range(10):
            cfg = small_config(H=4, d_X=16, d_I=12, L=1, vocab_size=12, r=0)
            model = Model.init(cfg, seed)
            rng = np.random.default_rng(100 + seed)
            hd = cfg.head_dim
            for h, f in enumerate(rng.permutation([1.5, 1.0, 0.6, 0.25])):
                model.params["layer0.W_V"].data[:, h * hd:(h + 1) * hd] *= f
                model.params["layer0.W_AO"].data[h * hd:(h + 1) * hd, :] *= f
            ids = rng.integers(0, cfg.vocab_size, size=(64, 6))
            mask = np.ones_like(ids, dtype=float)
            labels = (ids == 1).any(axis=1).astype(int)
            for _ in range(400):
                backprop_ce(model, ids, mask, labels)
                for p in model.parameters().values():
                    p.data = p.data - 0.3 * p.grad
            ledger = {}
            backprop_ce(model, ids, mask, labels)
            record_batch_scores(ledger, model)
            scores = P.unit_importance(ledger, model, "attention_head", 0)

            base = cross_entropy(model.forward(ids, mask).logits, labels).item()
            deltas = []
            for h in range(cfg.H):
                masked = zero_masked_clone(model, [UnitId("attention_head", h, 0)])
                loss = cross_entropy(masked.forward(ids, mask).logits, labels).item()
                deltas.append(loss - base)
            rhos.append(spearman(scores, np.array(deltas)))
        assert np.mean(rhos) >= 0.8, f"mean Spearman {np.mean(rhos):.3f}, rhos={rhos}"


class TestRankImportance:
    def test_zero_gradient_taylor_scores_zero(self):
        cfg = small_config()
        model = Model.init(cfg, 26)
        ledger = filled_ledger(model)
        np.testing.assert_array_equal(
            P.unit_importance(ledger, model, "embedding_rank"), 0.0)

    def test_taylor_matches_summation_oracle(self):
        cfg = small_config()
        model = Model.init(cfg, 27)
        rng = np.random.default_rng(28)
        ledger = {}
        backprop_ce(model, *random_batch(cfg, rng))
        record_batch_scores(ledger, model)
        scores = P.unit_importance(ledger, model, "embedding_rank")
        for i in range(cfg.r):
            expect = ledger["emb.E_U"][:, i].sum() + ledger["emb.E_V"][i, :].sum()
            assert abs(scores[i] - expect) < 1e-12

    def test_unfactorized_rejected(self):
        model = Model.init(small_config(r=0), 29)
        ledger = {}
        with pytest.raises(RuntimeError, match="factorized"):
            P.unit_importance(ledger, model, "embedding_rank")


def random_ledger(model, seed=0):
    rng = np.random.default_rng(seed)
    return filled_ledger(model, lambda name, shape: rng.random(shape))


class TestSelectPruneSet:

    def test_zero_removals_empty(self):
        model = Model.init(small_config(), 30)
        assert select_prune_set(None, model, {}) == []

    def test_lowest_score_selected(self):
        cfg = small_config(H=3)
        model = Model.init(cfg, 31)
        ledger = random_ledger(model)
        for layer in range(cfg.L):
            ao = np.zeros_like(ledger[f"layer{layer}.W_AO"])
            for h, s in enumerate([5.0, 1.0, 3.0]):
                ao[h * cfg.head_dim, 0] = s
            ledger[f"layer{layer}.W_AO"] = ao
        units = select_prune_set(ledger, model, {"H": 1})
        assert units == [UnitId("attention_head", 1, 0), UnitId("attention_head", 1, 1)]

    def test_tie_breaks_to_lower_index(self):
        cfg = small_config(H=3, L=1)
        model = Model.init(cfg, 32)
        ledger = random_ledger(model)
        ao = np.zeros_like(ledger["layer0.W_AO"])
        for h, s in enumerate([2.0, 2.0, 7.0]):
            ao[h * cfg.head_dim, 0] = s
        ledger["layer0.W_AO"] = ao
        units = select_prune_set(ledger, model, {"H": 1})
        assert units == [UnitId("attention_head", 0, 0)]

    def test_emptying_layer_rejected(self):
        model = Model.init(small_config(H=2), 33)
        ledger = random_ledger(model)
        units = select_prune_set(ledger, model, {"H": 2})
        with pytest.raises(ValueError, match="empty"):
            apply_surgery(model, units)

    def test_deterministic(self):
        model = Model.init(small_config(), 34)
        ledger = random_ledger(model, seed=9)
        amounts = {"H": 1, "d_I": 2, "r": 2}
        assert select_prune_set(ledger, model, amounts) == \
            select_prune_set(ledger, model, amounts)

    def test_unknown_dimension_rejected(self):
        model = Model.init(small_config(), 34)
        with pytest.raises(ValueError, match="unknown removal dimensions"):
            select_prune_set(random_ledger(model), model, {"heads_per_layer": 1})

    def test_mixed_amounts_shrink_each_dimension_exactly(self):
        cfg = small_config(L=2)
        model = Model.init(cfg, 35)
        amounts = {"H": 1, "d_I": 2, "r": 2, "L": 1}
        report = apply_surgery(model, select_prune_set(random_ledger(model, seed=3),
                                                       model, amounts))
        for dim, count in amounts.items():
            assert getattr(model.config, dim) == getattr(cfg, dim) - count
        assert model.config == report.config
        assert (model.config.d_X, model.config.vocab_size) == (cfg.d_X, cfg.vocab_size)
        assert count_params(model.config) == num_params(model)


class TestRemovalBound:
    """apply_surgery is the one place that bounds a removal count."""

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("dim", [*UNIT_DIMS.values(), "L"])
    def test_removal_that_leaves_none_rejected(self, dim, extra):
        model = Model.init(small_config(), 36)
        before_config = model.config
        before = {k: v.data.tobytes() for k, v in model.params.items()}
        units = select_prune_set(random_ledger(model), model,
                                 {dim: getattr(model.config, dim) + extra})
        with pytest.raises(ValueError, match="leaves none"):
            apply_surgery(model, units)
        assert model.config == before_config
        assert {k: v.data.tobytes() for k, v in model.params.items()} == before


class TestApplySurgery:
    def test_empty_set_bit_identical(self):
        model = Model.init(small_config(), 35)
        before = {k: v.data.copy() for k, v in model.params.items()}
        apply_surgery(model, [])
        for k, v in model.params.items():
            assert (v.data == before[k]).all()

    def test_pruning_zero_head_keeps_forward(self):
        cfg = small_config(H=3, L=1)
        model = Model.init(cfg, 36)
        unit = UnitId("attention_head", 2, 0)
        masked = zero_masked_clone(model, [unit])  # zero weights in place
        rng = np.random.default_rng(37)
        ids, mask, _ = random_batch(cfg, rng)
        before = masked.forward(ids, mask).logits.data
        apply_surgery(masked, [unit])
        after = masked.forward(ids, mask).logits.data
        assert np.abs(before - after).max() <= 1e-12

    def test_mask_equivalence_property(self):
        rng = np.random.default_rng(38)
        for trial in range(8):
            cfg = small_config(H=int(rng.integers(2, 4)), d_I=int(rng.integers(4, 9)),
                               r=int(rng.integers(2, 6)), L=int(rng.integers(1, 3)),
                               d_X=12, head_dim=4)
            model = Model.init(cfg, int(rng.integers(1000)))
            n_heads = int(rng.integers(0, cfg.H))
            n_neurons = int(rng.integers(0, cfg.d_I // 2))
            n_ranks = int(rng.integers(0, cfg.r))
            prune_set = []
            for layer in range(cfg.L):
                heads = rng.choice(cfg.H, size=n_heads, replace=False)
                prune_set += [UnitId("attention_head", int(h), layer) for h in heads]
                neurons = rng.choice(cfg.d_I, size=n_neurons, replace=False)
                prune_set += [UnitId("ffn_neuron", int(j), layer) for j in neurons]
            ranks = rng.choice(cfg.r, size=n_ranks, replace=False)
            prune_set += [UnitId("embedding_rank", int(i)) for i in ranks]

            ids, mask, _ = random_batch(cfg, rng)
            masked = zero_masked_clone(model, prune_set)
            report = apply_surgery(model, prune_set)
            pruned_logits = model.forward(ids, mask).logits.data
            masked_logits = masked.forward(ids, mask).logits.data
            assert np.abs(pruned_logits - masked_logits).max() <= 1e-10, \
                f"trial {trial}: surgery diverged from zero-mask oracle"
            assert count_params(report.config) == num_params(model)

    def test_forward_backward_count_after_surgery(self):
        cfg = small_config()
        model = Model.init(cfg, 39)
        prune_set = [UnitId("attention_head", 0, l) for l in range(cfg.L)]
        prune_set += [UnitId("ffn_neuron", 3, l) for l in range(cfg.L)]
        prune_set += [UnitId("embedding_rank", 1)]
        apply_surgery(model, prune_set)
        rng = np.random.default_rng(40)
        ids, mask, labels = random_batch(model.config, rng)
        loss = backprop_ce(model, ids, mask, labels)
        assert np.isfinite(loss.item())
        assert count_params(model.config) == num_params(model)

    def test_nonuniform_head_removal_rejected(self):
        model = Model.init(small_config(L=2), 41)
        before = {k: v.data.copy() for k, v in model.params.items()}
        with pytest.raises(ValueError, match="uniform"):
            apply_surgery(model, [UnitId("attention_head", 0, 0)])
        # no partial mutation
        for k, v in model.params.items():
            assert (v.data == before[k]).all()
        assert model.config.H == 3

    def test_rank_surgery_on_unfactorized_rejected(self):
        model = Model.init(small_config(r=0), 42)
        with pytest.raises(RuntimeError):
            apply_surgery(model, [UnitId("embedding_rank", 0)])

    def test_adam_report_lists_kept_indices(self):
        cfg = small_config(H=3, L=1)
        model = Model.init(cfg, 43)
        report = apply_surgery(model, [UnitId("attention_head", 1, 0)])
        axes = dict(report.kept["layer0.W_Q"])
        kept = axes[1]
        np.testing.assert_array_equal(kept, np.r_[0:4, 8:12])
        axes_ao = dict(report.kept["layer0.W_AO"])
        np.testing.assert_array_equal(axes_ao[0], np.r_[0:4, 8:12])


def remove_last_layers(model, k):
    """Layer removal as the pipeline does it: keep-first selection + surgery."""
    return apply_surgery(model, select_prune_set(None, model, {"L": k}))


class TestDropLayers:
    def test_noop_at_full_depth(self):
        model = Model.init(small_config(L=3), 44)
        before = {k: v.data.copy() for k, v in model.params.items()}
        report = remove_last_layers(model, 0)
        assert report.removed == []
        for k, v in model.params.items():
            assert (v.data == before[k]).all()

    def test_prefix_property_of_hidden_states(self):
        cfg = small_config(L=4)
        model = Model.init(cfg, 45)
        rng = np.random.default_rng(46)
        ids, mask, _ = random_batch(cfg, rng)
        full = model.forward(ids, mask)
        remove_last_layers(model, 2)
        short = model.forward(ids, mask)
        assert len(short.hidden) == 3
        for a, b in zip(short.hidden, full.hidden[:3]):
            np.testing.assert_array_equal(a.data, b.data)

    def test_param_count_decrease_exact(self):
        cfg = small_config(L=4)
        model = Model.init(cfg, 47)
        per_layer = count_params(small_config(L=2)) - count_params(small_config(L=1))
        before = num_params(model)
        report = remove_last_layers(model, 3)
        assert before - num_params(model) == 3 * per_layer
        assert report.config.L == 1 and len(report.removed) == 3 * 13

    def test_out_of_range(self):
        model = Model.init(small_config(L=2), 48)
        with pytest.raises(ValueError, match="leaves none"):
            remove_last_layers(model, 2)
        with pytest.raises(ValueError, match="keeps the first layers"):
            apply_surgery(model, [UnitId("layer", 0)])
        assert model.config.L == 2
