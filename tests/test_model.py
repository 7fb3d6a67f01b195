"""Encoder blocks against direct numpy oracles, parameter counting, and
gradient checks on a small config."""

import math

import numpy as np
import pytest

from rosita_mini import model as M
from rosita_mini import tensor as T
from rosita_mini.model import Model, ModelConfig, count_params, cross_entropy
from rosita_mini.tensor import ShapeError, Tensor
from support import (count_params_formula, finite_diff_check, mul, num_params, padding_bias,
                     sum_all, unfused_attention, unfused_layer_norm, unfused_linear)


def tiny_config(**over):
    base = dict(H=2, L=2, d_X=8, d_I=12, r=0, vocab_size=11, max_len=10,
                n_classes=2, head_dim=4)
    base.update(over)
    return ModelConfig(**base)


def np_softmax(x):
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def full_mask(ids):
    return np.ones_like(ids, dtype=float)


def self_attention_head(x, W_Qi, W_Ki, W_Vi) -> np.ndarray:
    """Single attention head on a (seq, d_X) array, scaled by sqrt(head_dim);
    the plain-numpy oracle that multi_head is checked against."""
    if x.ndim != 2 or W_Qi.shape[0] != x.shape[-1]:
        raise ShapeError(f"self_attention_head: got x {x.shape}, W_Q {W_Qi.shape}")
    q, k, v = x @ W_Qi, x @ W_Ki, x @ W_Vi
    return np_softmax(q @ k.T / math.sqrt(W_Qi.shape[1])) @ v


class TestSelfAttentionHead:
    def test_single_token_softmax_is_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 8))
        wq, wk, wv = (rng.normal(size=(8, 4)) for _ in range(3))
        out = self_attention_head(x, wq, wk, wv)
        np.testing.assert_allclose(out, x @ wv, atol=1e-12)

    def test_zero_values_zero_output(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 8))
        wq, wk = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
        out = self_attention_head(x, wq, wk, np.zeros((8, 4)))
        np.testing.assert_array_equal(out, 0.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 8))
        wq, wk, wv = rng.normal(size=(8, 4)), rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
        out = self_attention_head(x, wq, wk, wv)
        q, k, v = x @ wq, x @ wk, x @ wv
        expect = np_softmax(q @ k.T / np.sqrt(4)) @ v
        assert np.abs(out - expect).max() < 1e-10


class TestMultiHead:
    def _layer(self, model, i=0):
        return M._layer_slice(model.params, i)

    def test_single_head_reduces(self):
        cfg = tiny_config(H=1)
        model = Model.init(cfg, 3)
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, 5, 8)))
        layer = self._layer(model)
        out = M.multi_head(x, layer, cfg)
        head = self_attention_head(
            x.data[0], layer["W_Q"].data, layer["W_K"].data, layer["W_V"].data)
        proj = head @ layer["W_AO"].data + layer["b_AO"].data
        expect = T.layer_norm(Tensor(x.data[0] + proj), layer["ln1_g"],
                              layer["ln1_b"], cfg.eps)
        np.testing.assert_allclose(out.data[0], expect.data, atol=1e-10)

    def test_zeroed_ao_rows_equal_head_removal(self):
        cfg = tiny_config(H=3, d_X=12, head_dim=4)
        model = Model.init(cfg, 5)
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(1, 4, 12)))
        layer = self._layer(model)
        drop = 1  # zero rows 4..8 of W_AO
        masked = dict(layer)
        ao = layer["W_AO"].data.copy()
        ao[drop * 4:(drop + 1) * 4, :] = 0.0
        masked["W_AO"] = Tensor(ao)
        out_masked = M.multi_head(x, masked, cfg)

        keep = [0, 2]
        cols = np.r_[0:4, 8:12]
        reduced = dict(layer)
        for name in ("W_Q", "W_K", "W_V"):
            reduced[name] = Tensor(layer[name].data[:, cols])
        reduced["W_AO"] = Tensor(layer["W_AO"].data[cols, :])
        cfg2 = tiny_config(H=2, d_X=12, head_dim=4)
        out_removed = M.multi_head(x, reduced, cfg2)
        np.testing.assert_allclose(out_masked.data, out_removed.data, atol=1e-10)

    def test_batched_heads_match_per_head_loop(self):
        cfg = tiny_config(H=2, d_X=8, head_dim=4)
        model = Model.init(cfg, 7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 5, 8))
        layer = self._layer(model)
        out = M.multi_head(Tensor(x), layer, cfg)
        # per-head loop oracle in plain numpy
        for b in range(2):
            heads = []
            for h in range(2):
                sl = slice(h * 4, (h + 1) * 4)
                q = x[b] @ layer["W_Q"].data[:, sl]
                k = x[b] @ layer["W_K"].data[:, sl]
                v = x[b] @ layer["W_V"].data[:, sl]
                heads.append(np_softmax(q @ k.T / 2.0) @ v)
            concat = np.concatenate(heads, axis=-1)
            proj = concat @ layer["W_AO"].data + layer["b_AO"].data
            pre = x[b] + proj
            mu = pre.mean(-1, keepdims=True)
            var = ((pre - mu) ** 2).mean(-1, keepdims=True)
            expect = layer["ln1_g"].data * (pre - mu) / np.sqrt(var + cfg.eps) \
                + layer["ln1_b"].data
            assert np.abs(out.data[b] - expect).max() < 1e-10


def unfused_encoder_layer(x, p, heads, eps, mask_bias):
    """multi_head then ffn, built from the per-op chains."""
    q, k, v = (unfused_linear(x, p[name]) for name in ("W_Q", "W_K", "W_V"))
    ctx = unfused_attention(q, k, v, heads, mask_bias)
    h = unfused_layer_norm(x, p["ln1_g"], p["ln1_b"], eps,
                           unfused_linear(ctx, p["W_AO"], p["b_AO"]))
    f = unfused_linear(T.relu(unfused_linear(h, p["W_FI"], p["b_FI"])), p["W_FO"], p["b_FO"])
    return unfused_layer_norm(h, p["ln2_g"], p["ln2_b"], eps, f)


@pytest.mark.parametrize("s", [6, 14])
@pytest.mark.parametrize("heads", [8, 2])
@pytest.mark.parametrize("masked", [False, True])
def test_encoder_layer_is_bitwise_the_unfused_chain(s, heads, masked):
    """Values and every gradient, including the four that sum into the
    layer input, in the same order as the per-op graph sums them."""
    cfg = tiny_config(H=heads, d_X=48, head_dim=6, d_I=24)
    model = Model.init(cfg, s + heads)
    rng = np.random.default_rng(s * heads)
    x0, weight = rng.normal(size=(3, s, 48)), rng.normal(size=(3, s, 48))
    bias = padding_bias(rng, 3, s) if masked else None

    def run(layer_fn):
        params = {name: Tensor(p.data, requires_grad=True)
                  for name, p in M._layer_slice(model.params, 0).items()}
        x = Tensor(x0, requires_grad=True)
        out = layer_fn(x, params)
        sum_all(mul(out, Tensor(weight))).backward()
        return {"out": out.data, "x": x.grad, **{n: p.grad for n, p in params.items()}}

    fused = run(lambda x, p: M.ffn(M.multi_head(x, p, cfg, bias), p, cfg))
    unfused = run(lambda x, p: unfused_encoder_layer(x, p, heads, cfg.eps, bias))
    for name, want in unfused.items():
        assert fused[name].tobytes() == want.tobytes(), name


class TestFFN:
    def test_zero_weights_give_layernormed_input(self):
        cfg = tiny_config()
        model = Model.init(cfg, 9)
        layer = M._layer_slice(model.params, 0)
        for name in ("W_FI", "W_FO", "b_FI", "b_FO"):
            layer[name] = Tensor(np.zeros_like(layer[name].data))
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(1, 3, 8)))
        out = M.ffn(x, layer, cfg)
        expect = T.layer_norm(x, layer["ln2_g"], layer["ln2_b"], cfg.eps)
        np.testing.assert_allclose(out.data, expect.data, atol=1e-12)

    def test_single_neuron_hand_computation(self):
        cfg = tiny_config(d_X=2, d_I=1, H=1, head_dim=2)
        model = Model.init(cfg, 11)
        layer = M._layer_slice(model.params, 0)
        layer["W_FI"] = Tensor(np.array([[1.0], [2.0]]))
        layer["b_FI"] = Tensor(np.array([0.5]))
        layer["W_FO"] = Tensor(np.array([[3.0, -1.0]]))
        layer["b_FO"] = Tensor(np.array([0.25, 0.5]))
        x = np.array([[[1.0, -1.0]]])  # h = relu(1 - 2 + 0.5) = 0
        out = M.ffn(Tensor(x), layer, cfg)
        pre = x[0, 0] + np.array([0.25, 0.5])
        mu, var = pre.mean(), pre.var()
        expect = (pre - mu) / np.sqrt(var + cfg.eps)
        np.testing.assert_allclose(out.data[0, 0], expect, atol=1e-10)

    def test_zeroed_neuron_equals_removal(self):
        cfg = tiny_config(d_I=4)
        model = Model.init(cfg, 12)
        layer = M._layer_slice(model.params, 0)
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(1, 3, 8)))
        j = 2
        masked = dict(layer)
        wfi = layer["W_FI"].data.copy(); wfi[:, j] = 0
        bfi = layer["b_FI"].data.copy(); bfi[j] = 0
        wfo = layer["W_FO"].data.copy(); wfo[j, :] = 0
        masked.update(W_FI=Tensor(wfi), b_FI=Tensor(bfi), W_FO=Tensor(wfo))
        out_masked = M.ffn(x, masked, cfg)

        keep = [0, 1, 3]
        reduced = dict(layer)
        reduced["W_FI"] = Tensor(layer["W_FI"].data[:, keep])
        reduced["b_FI"] = Tensor(layer["b_FI"].data[keep])
        reduced["W_FO"] = Tensor(layer["W_FO"].data[keep, :])
        out_removed = M.ffn(x, reduced, tiny_config(d_I=3))
        np.testing.assert_allclose(out_masked.data, out_removed.data, atol=1e-10)


class TestEmbed:
    def test_exact_factorization_reproduces_unfactorized(self):
        cfg = tiny_config(r=0)
        model = Model.init(cfg, 14)
        ids = np.array([[1, 4, 7]])
        base = M.embed(model, ids, np.arange(3))

        from rosita_mini import factorization as F
        res = F.svd(model.params["emb.W"].data)
        e_u, e_v = F.truncate(res, cfg.d_X)
        fac_cfg = tiny_config(r=cfg.d_X)
        fac = Model.init(fac_cfg, 14)
        fac.params["emb.E_U"] = Tensor(e_u, requires_grad=True)
        fac.params["emb.E_V"] = Tensor(e_v, requires_grad=True)
        for name in ("emb.P", "emb.ln_g", "emb.ln_b"):
            fac.params[name] = model.params[name]
        out = M.embed(fac, ids, np.arange(3))
        np.testing.assert_allclose(out.data, base.data, atol=1e-8)

    def test_zero_token_rows_leave_position_only(self):
        cfg = tiny_config()
        model = Model.init(cfg, 15)
        model.params["emb.W"] = Tensor(np.zeros((cfg.vocab_size, cfg.d_X)),
                                       requires_grad=True)
        out = M.embed(model, np.array([[0, 3]]), np.arange(2))
        expect = T.layer_norm(Tensor(model.params["emb.P"].data[:2]),
                              model.params["emb.ln_g"], model.params["emb.ln_b"], cfg.eps)
        np.testing.assert_allclose(out.data[0], expect.data, atol=1e-12)

    def test_factorized_lookup_matches_materialized(self):
        cfg = tiny_config(r=5)
        model = Model.init(cfg, 16)
        ids = np.array([[2, 9, 2], [0, 1, 10]])
        out = M.embed(model, ids, np.arange(3))
        w = model.params["emb.E_U"].data @ model.params["emb.E_V"].data
        mat = Model.init(tiny_config(r=0), 16)
        mat.params["emb.W"] = Tensor(w, requires_grad=True)
        for name in ("emb.P", "emb.ln_g", "emb.ln_b"):
            mat.params[name] = model.params[name]
        expect = M.embed(mat, ids, np.arange(3))
        np.testing.assert_allclose(out.data, expect.data, atol=1e-10)

    def test_id_out_of_range(self):
        model = Model.init(tiny_config(), 17)
        with pytest.raises(IndexError):
            M.embed(model, np.array([[11]]), np.array([0]))


class TestForward:
    def test_rejects_empty_batch(self):
        model = Model.init(tiny_config(), 18)
        with pytest.raises(ValueError):
            model.forward(np.zeros((0, 3), dtype=int), np.zeros((0, 3)))

    def test_config_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            tiny_config(L=0)

    def test_config_rejects_zero_heads_before_deriving_head_dim(self):
        with pytest.raises(ValueError, match="config needs H, L, d_I >= 1"):
            ModelConfig(H=0, L=2, d_X=16, d_I=32, r=0, vocab_size=16, max_len=8,
                        n_classes=2)

    def test_records_all_hidden_states(self):
        cfg = tiny_config(L=3)
        model = Model.init(cfg, 19)
        ids = np.array([[1, 2, 3], [4, 5, 6]])
        trace = model.forward(ids, full_mask(ids))
        assert len(trace.hidden) == 4
        assert all(h.shape == (2, 3, 8) for h in trace.hidden)
        assert trace.logits.shape == (2, 2)

    def test_batch_permutation_permutes_logits(self):
        model = Model.init(tiny_config(), 20)
        rng = np.random.default_rng(21)
        ids = rng.integers(0, 11, size=(4, 5))
        trace = model.forward(ids, full_mask(ids))
        perm = np.array([2, 0, 3, 1])
        trace_p = model.forward(ids[perm], full_mask(ids))
        np.testing.assert_allclose(trace_p.logits.data, trace.logits.data[perm],
                                   atol=1e-12)

    def test_single_example_matches_batched_row(self):
        model = Model.init(tiny_config(), 22)
        rng = np.random.default_rng(23)
        ids = rng.integers(0, 11, size=(3, 4))
        batched = model.forward(ids, full_mask(ids))
        solo = model.forward(ids[1:2], full_mask(ids[1:2]))
        np.testing.assert_allclose(solo.logits.data[0], batched.logits.data[1],
                                   atol=1e-10)

    def test_padding_mask_matches_trimmed_input(self):
        model = Model.init(tiny_config(), 24)
        ids_short = np.array([[1, 2, 3]])
        padded = np.array([[1, 2, 3, 0, 0]])
        mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
        a = model.forward(ids_short, full_mask(ids_short))
        b = model.forward(padded, mask)
        np.testing.assert_allclose(a.logits.data, b.logits.data, atol=1e-10)
        # unmasked hidden prefix identical too
        for ha, hb in zip(a.hidden, b.hidden):
            np.testing.assert_allclose(ha.data, hb.data[:, :3, :], atol=1e-10)


def philox_mask(shape, rate, key, counter) -> np.ndarray:
    """The inverted-dropout mask of Philox (key, counter), computed here."""
    gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
    return (gen.random(shape) >= rate) / (1.0 - rate)


@pytest.mark.parametrize("rate", [0.1, 0.5])
def test_dropout_masks_each_sublayer_output_before_its_residual_add(rate):
    """A forward at dropout `rate` is, bit for bit, the chain that masks the
    embedding with counter 0 and, as BERT does, layer i's attention
    projection with counter 2i + 1 and its FFN output with 2i + 2, each
    before the residual add: LN(x + dropout(sublayer(x)))."""
    cfg = tiny_config(L=2)
    model = Model.init(cfg, 40)
    ids = np.random.default_rng(41).integers(0, 11, size=(3, 5))
    mask = full_mask(ids)
    mask[0, 3:] = 0
    key = 7
    trace = model.forward(ids, mask, rate, key)

    def dropped(t, counter):
        return Tensor(t.data * philox_mask(t.shape, rate, key, counter))

    x = dropped(M.embed(model, ids, np.arange(5)), 0)
    hidden = [x]
    bias = np.where(mask[:, None, None, :] > 0, 0.0, -np.inf)
    for i in range(cfg.L):
        p = M._layer_slice(model.params, i)
        q, k, v = (T.linear(x, p[name]) for name in ("W_Q", "W_K", "W_V"))
        proj = T.linear(T.attention(q, k, v, cfg.H, bias), p["W_AO"], p["b_AO"])
        x = T.layer_norm(x, p["ln1_g"], p["ln1_b"], cfg.eps, dropped(proj, 2 * i + 1))
        out = T.linear(T.relu(T.linear(x, p["W_FI"], p["b_FI"])), p["W_FO"], p["b_FO"])
        x = T.layer_norm(x, p["ln2_g"], p["ln2_b"], cfg.eps, dropped(out, 2 * i + 2))
        hidden.append(x)
    logits = T.linear(T.first_token(x), model.params["cls.W"], model.params["cls.b"])
    assert len(trace.hidden) == len(hidden)
    for got, want in zip([trace.logits, *trace.hidden], [logits, *hidden]):
        assert got.data.tobytes() == want.data.tobytes()
    assert trace.logits.data.tobytes() != model.forward(ids, mask).logits.data.tobytes()


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy(Tensor([[0.0, 0.0]]), [0])
        assert abs(loss.item() - np.log(2)) < 1e-12

    def test_huge_margin_goes_to_zero(self):
        loss = cross_entropy(Tensor([[50.0, 0.0]]), [0])
        assert loss.item() < 1e-12

    def test_frozen_value(self):
        loss = cross_entropy(Tensor([[1.0, 0.0]]), [0])
        assert abs(loss.item() - 0.3132616875182228) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor([[0.0, 0.0]]), [2])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(25)
        labels = np.array([1, 0, 2])
        z = Tensor(rng.normal(size=(3, 3)))
        err = finite_diff_check(lambda t: cross_entropy(t, labels), z)
        assert err < 1e-6


class TestCountParams:
    def test_bert_base_size(self):
        cfg = ModelConfig(H=12, L=12, d_X=768, d_I=3072, r=0, vocab_size=30522,
                          max_len=512, n_classes=2, head_dim=64)
        n = count_params(cfg)
        assert abs(n - 109e6) / 109e6 < 0.01

    def test_architecture_c_size(self):
        cfg = ModelConfig(H=2, L=8, d_X=768, d_I=512, r=128, vocab_size=30522,
                          max_len=512, n_classes=2, head_dim=64)
        n = count_params(cfg)
        assert abs(n - 14.5e6) / 14.5e6 < 0.05

    def test_doubling_layers_doubles_layer_term(self):
        a = count_params(tiny_config(L=2))
        b = count_params(tiny_config(L=4))
        base = count_params(tiny_config(L=1))
        per_layer = a - base  # L=2 minus L=1
        assert b - a == 2 * per_layer

    def test_strictly_decreasing_in_each_dimension(self):
        base = tiny_config(H=2, L=2, d_I=12, r=5)
        n = count_params(base)
        assert count_params(tiny_config(H=1, L=2, d_I=12, r=5)) < n
        assert count_params(tiny_config(H=2, L=1, d_I=12, r=5)) < n
        assert count_params(tiny_config(H=2, L=2, d_I=11, r=5)) < n
        assert count_params(tiny_config(H=2, L=2, d_I=12, r=4)) < n

    def test_formula_matches_actual_store(self):
        for cfg in (tiny_config(), tiny_config(r=6), tiny_config(H=1, L=3, d_I=5)):
            model = Model.init(cfg, 0)
            assert count_params(cfg) == count_params_formula(cfg) == num_params(model)


class TestModelGradients:
    def check_cross_entropy_grads(self, dropout_rate: float) -> None:
        """Backprop against central differences; a dropout forward keeps its
        masks, fixed by the key, for every probe."""
        cfg = tiny_config(H=2, L=2, d_X=8, d_I=6, r=4, vocab_size=9, max_len=6,
                          head_dim=4)
        model = Model.init(cfg, 30)
        rng = np.random.default_rng(31)
        ids = rng.integers(0, 9, size=(2, 4))
        mask = full_mask(ids)
        labels = np.array([0, 1])

        def loss():
            return cross_entropy(model.forward(ids, mask, dropout_rate, 5).logits, labels)

        loss().backward(leaves=model.parameters().values())

        for name in ("layer0.W_Q", "layer1.W_FO", "emb.E_U", "cls.W", "layer0.ln1_g"):
            p = model.params[name]
            analytic = p.grad.copy()
            numeric = np.zeros_like(p.data)
            flat, num = p.data.reshape(-1), numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-4
                up = loss().item()
                flat[i] = orig - 1e-4
                down = loss().item()
                flat[i] = orig
                num[i] = (up - down) / 2e-4
            rel = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)
            assert rel.max() < 1e-4, f"{name}: max rel err {rel.max():.2e}"

    def test_cross_entropy_grads_match_finite_differences(self):
        self.check_cross_entropy_grads(0.0)

    def test_cross_entropy_grads_match_finite_differences_at_dropout(self):
        self.check_cross_entropy_grads(0.1)
