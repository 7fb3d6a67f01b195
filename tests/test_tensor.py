"""Tensor core: op values against independent oracles, gradients against
central finite differences, the fused nodes against the op chains they
replace, and the basic autodiff contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosita_mini import pipeline as PL
from rosita_mini import tensor as T
from rosita_mini.model import Model, ModelConfig, cross_entropy
from rosita_mini.optim import Adam
from rosita_mini.tensor import Tensor, ShapeError
from support import (finite_diff_check, mul, padding_bias, sum_all, unfused_attention,
                     unfused_layer_norm, unfused_linear)


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(eye, m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_scalar_case_backward():
    a = Tensor([[2.0]], requires_grad=True)
    b = Tensor([[3.0]], requires_grad=True)
    loss = sum_all(T.matmul(a, b))
    assert loss.item() == 6.0
    loss.backward()
    assert a.grad[0, 0] == 3.0
    assert b.grad[0, 0] == 2.0


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    out = T.matmul(Tensor(a), Tensor(b)).data
    # brute-force oracle
    expect = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expect[i, j] += a[i, k] * b[k, j]
    assert np.abs(out - expect).max() < 1e-12


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 3, 4))
    b = rng.normal(size=(4, 2))
    out = T.matmul(Tensor(a), Tensor(b)).data
    for i in range(5):
        np.testing.assert_allclose(out[i], a[i] @ b, atol=1e-12)


def test_matmul_batched_gradient():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    sum_all(T.matmul(a, b)).backward()
    # d(sum)/da = ones @ b^T per batch, d/db sums over the batch
    np.testing.assert_allclose(a.grad, np.ones((2, 3, 2)) @ b.data.T, atol=1e-12)
    np.testing.assert_allclose(b.grad, sum(a.data[i].T @ np.ones((3, 2)) for i in range(2)),
                               atol=1e-12)


def test_softmax_symmetry():
    out = T.softmax_rows(Tensor([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_softmax_frozen_value():
    # e^1 / (e^1 + e^0) evaluated directly
    out = T.softmax_rows(Tensor([[1.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.7310585786300049, 0.2689414213699951]],
                               atol=1e-12)


def test_softmax_stabilized_no_overflow():
    out = T.softmax_rows(Tensor([[1000.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[1.0, 0.0]])
    assert np.isfinite(out.data).all()


def test_softmax_nan_rejected():
    with pytest.raises(ValueError, match="NaN"):
        T.softmax_rows(Tensor([[np.nan, 0.0]]))


def test_softmax_neg_inf_mask_entries():
    out = T.softmax_rows(Tensor([[0.0, -np.inf, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.0, 0.5]])


@pytest.mark.parametrize("s", [1, 4, 14, 40])
def test_softmax_matches_max_reduction_formula_bitwise(s):
    """The column-wise max gives the same bits as the max(-1) formula,
    with masked (-inf) keys as the attention mask makes them."""
    rng = np.random.default_rng(s)
    x = rng.standard_normal((3, 2, s, s)) * 10
    x[:, :, :, 1:][rng.random((3, 2, s, s - 1)) < 0.4] = -np.inf
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    expected = e / e.sum(axis=-1, keepdims=True)
    assert np.array_equal(T.softmax_rows(Tensor(x)).data, expected)


def test_softmax_row_without_finite_entry_rejected():
    with pytest.raises(ValueError, match="no finite entry"):
        T.softmax_rows(Tensor([[0.0, 1.0], [-np.inf, -np.inf]]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=6),
                min_size=1, max_size=5).filter(lambda rows: len({len(r) for r in rows}) == 1))
def test_softmax_rows_sum_to_one(rows):
    out = T.softmax_rows(Tensor(rows))
    sums = out.data.sum(axis=-1)
    assert np.abs(sums - 1.0).max() <= 1e-12
    assert (out.data >= 0).all()


def test_layer_norm_constant_row_zero():
    x = Tensor(np.full((2, 4), 3.5))
    out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), 1e-12)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_hand_value():
    # ([1,2,3] - 2) / sqrt(2/3), population variance, eps = 0
    out = T.layer_norm(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)), 0.0)
    np.testing.assert_allclose(out.data, [[-1.224744871391589, 0.0, 1.224744871391589]],
                               atol=1e-12)


def test_layer_norm_gamma_zero_gives_beta():
    x = Tensor(np.random.default_rng(3).normal(size=(2, 5)))
    beta = Tensor(np.full(5, 7.25))
    out = T.layer_norm(x, Tensor(np.zeros(5)), beta, 1e-12)
    np.testing.assert_allclose(out.data, 7.25)


def test_layer_norm_zero_dim_rejected():
    with pytest.raises(ShapeError):
        T.layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)), 1e-12)


def test_relu_values():
    out = T.relu(Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_all_negative_zero_gradient():
    x = Tensor([-3.0, -1.0], requires_grad=True)
    sum_all(T.relu(x)).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])


def test_relu_gradient_matches_central_differences():
    err = finite_diff_check(lambda t: sum_all(T.relu(t)), Tensor([0.5, -0.5]))
    assert err < 1e-6


def test_backward_product():
    a = Tensor(2.0, requires_grad=True)
    b = Tensor(3.0, requires_grad=True)
    mul(a, b).backward()
    assert a.grad == 3.0 and b.grad == 2.0


def test_backward_unreached_leaf_is_zero():
    a = Tensor(2.0, requires_grad=True)
    w = Tensor(5.0, requires_grad=True)
    mul(a, a).backward(leaves=[a, w])
    np.testing.assert_array_equal(w.grad, 0.0)
    assert a.grad == 4.0


def test_float32_data_stays_float32_and_cannot_require_grad():
    assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
    for data in ([1, 2], np.ones(2, np.int64), np.ones(2, np.float16), 2.0):
        assert Tensor(data).data.dtype == np.float64
        assert Tensor(data, requires_grad=True).data.dtype == np.float64
    with pytest.raises(TypeError, match="requires grad must be float64"):
        Tensor(np.ones(2, np.float32), requires_grad=True)


def test_backward_rejects_non_scalar():
    a = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        T.add(a, a).backward()


def test_backward_visits_shared_node_once():
    # y = x + x reuses one node; d/dx must be exactly 2, not 4
    x = Tensor(3.0, requires_grad=True)
    h = mul(x, x)          # 9, dh/dx = 6
    out = T.add(h, h)        # 18, d/dx = 12
    out.backward()
    assert out.item() == 18.0
    assert x.grad == 12.0


def test_finite_diff_quadratic_exact():
    x = Tensor([1.0, 2.0])
    err = finite_diff_check(lambda t: sum_all(mul(t, t)), x)
    assert err < 1e-8


def test_finite_diff_softmax_pick_first():
    def f(t):
        return sum_all(mul(T.softmax_rows(t), Tensor([[1.0, 0.0]])))
    assert finite_diff_check(f, Tensor([[1.0, 0.0]])) < 1e-6


def test_finite_diff_constant_function():
    err = finite_diff_check(lambda t: sum_all(mul(t, 0.0)), Tensor([1.0, 2.0]))
    assert err == 0.0


def test_layer_norm_gradient():
    rng = np.random.default_rng(11)
    gamma = Tensor(rng.normal(size=4), requires_grad=True)
    beta = Tensor(rng.normal(size=4), requires_grad=True)
    x0 = Tensor(rng.normal(size=(3, 4)))

    def f_x(t):
        return sum_all(mul(T.layer_norm(t, gamma, beta, 1e-6), Tensor(rng2)))

    rng2 = rng.normal(size=(3, 4))
    assert finite_diff_check(f_x, x0) < 1e-5


def test_gather_rows_and_scatter_gradient():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    idx = np.array([[0, 2], [2, 1]])
    out = T.gather_rows(table, idx)
    assert out.shape == (2, 2, 3)
    np.testing.assert_array_equal(out.data[0, 1], [6.0, 7.0, 8.0])
    sum_all(out).backward()
    # row 2 gathered twice, row 3 never
    np.testing.assert_array_equal(table.grad, [[1, 1, 1], [1, 1, 1], [2, 2, 2], [0, 0, 0]])


def test_gather_rows_out_of_range():
    with pytest.raises(IndexError):
        T.gather_rows(Tensor(np.zeros((4, 3))), np.array([4]))


def test_dropout_identity_at_rate_zero():
    x = Tensor(np.ones((3, 3)), requires_grad=True)
    assert T.dropout(x, 0.0, 1, 0) is x


def test_dropout_deterministic_and_scaled():
    x = Tensor(np.ones((100, 100)))
    a = T.dropout(x, 0.5, key=9, counter=3)
    b = T.dropout(x, 0.5, key=9, counter=3)
    np.testing.assert_array_equal(a.data, b.data)
    kept = a.data[a.data > 0]
    assert np.allclose(kept, 2.0)  # inverted scaling
    assert 0.4 < (a.data > 0).mean() < 0.6


def test_an_op_records_a_graph_only_when_an_input_is_tracked():
    x, c = Tensor(2.0, requires_grad=True), Tensor(3.0)
    assert mul(c, c)._parents == () and not mul(c, c).tracked
    y = mul(x, c)
    assert y._parents == (x, c) and y.tracked
    assert mul(y, c).tracked  # y has parents of its own
    config = ModelConfig(H=2, L=2, d_X=8, d_I=16, r=0, vocab_size=9, max_len=5, n_classes=2,
                         head_dim=4)
    ids = np.array([[1, 2, 3, 4], [5, 6, 0, 0]])
    mask = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])

    def outputs(model):
        trace = model.forward(ids, mask)
        return [trace.logits, *trace.hidden]

    trainable, frozen = Model.init(config, 0), Model.init(config, 0)
    frozen.freeze()
    assert all(t.tracked for t in outputs(trainable))
    for model in (frozen, PL._float32(trainable)):
        assert all(t._parents == () and not t.tracked for t in outputs(model))


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
    r1 = T.matmul(Tensor(a), Tensor(b)).data
    r2 = T.matmul(Tensor(a.copy()), Tensor(b.copy())).data
    assert (r1 == r2).all()
    s1 = T.softmax_rows(Tensor(a)).data
    s2 = T.softmax_rows(Tensor(a.copy())).data
    assert (s1 == s2).all()


# ---------------------------------------------------------------------------
# fused nodes: bit-identical to the unfused chain, and correct gradients


def _value_and_grads(build, arrays, weight):
    """build(*leaves) and the gradient of sum(build(*leaves) * weight)
    with respect to every leaf."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*leaves)
    sum_all(mul(out, Tensor(weight))).backward()
    return [out.data] + [leaf.grad for leaf in leaves]


def assert_bitwise(fused, unfused, arrays, weight):
    got = _value_and_grads(fused, arrays, weight)
    want = _value_and_grads(unfused, arrays, weight)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), \
            "output differs" if i == 0 else f"gradient of input {i - 1} differs"


FUSED_CASES = [(s, heads, masked) for s in (6, 14) for heads in (8, 2)
               for masked in (False, True)]


@pytest.mark.parametrize("s,heads,masked", FUSED_CASES)
def test_attention_is_bitwise_the_unfused_chain(s, heads, masked):
    rng = np.random.default_rng(100 * s + heads)
    bsz, width = 3, 48  # head widths 6 and 24: 1/sqrt(hd) is not a power of 2
    qkv = [rng.normal(size=(bsz, s, width)) for _ in range(3)]
    bias = padding_bias(rng, bsz, s) if masked else None
    assert_bitwise(lambda q, k, v: T.attention(q, k, v, heads, bias),
                   lambda q, k, v: unfused_attention(q, k, v, heads, bias),
                   qkv, rng.normal(size=(bsz, s, width)))


@pytest.mark.parametrize("s", [6, 14])
@pytest.mark.parametrize("rows", [(3,), ()])
@pytest.mark.parametrize("bias", [True, False])
def test_linear_is_bitwise_matmul_then_add(s, rows, bias):
    rng = np.random.default_rng(s)
    arrays = [rng.normal(size=rows + (s, 32)), rng.normal(size=(32, 24))]
    if bias:
        arrays.append(rng.normal(size=24))
    assert_bitwise(T.linear, unfused_linear, arrays, rng.normal(size=rows + (s, 24)))


@pytest.mark.parametrize("s", [6, 14])
@pytest.mark.parametrize("y_shape", ["same", "broadcast"])
def test_two_input_layer_norm_is_bitwise_add_then_layer_norm(s, y_shape):
    rng = np.random.default_rng(s)
    x = rng.normal(size=(3, s, 32))
    y = rng.normal(size=x.shape if y_shape == "same" else (s, 32))
    gamma, beta = 1.0 + 0.1 * rng.normal(size=32), rng.normal(size=32)

    def build(norm):
        # both summands also feed a second node, whose backward adds into
        # their grads while they wait for their own backward
        def f(x, y, g, b):
            xs, ys = T.scale(x, 1.5), T.scale(y, 0.5)
            return T.add(norm(xs, g, b, 1e-12, ys), mul(xs, ys))
        return f

    assert_bitwise(build(T.layer_norm), build(unfused_layer_norm),
                   [x, y, gamma, beta], rng.normal(size=x.shape))


def test_attention_gradients_match_central_differences():
    rng = np.random.default_rng(21)
    q, k, v = (rng.normal(size=(2, 5, 8)) for _ in range(3))
    bias = padding_bias(rng, 2, 5)
    weight = Tensor(rng.normal(size=(2, 5, 8)))
    inputs = {"q": q, "k": k, "v": v}
    for name in inputs:
        def f(t, name=name):
            args = {n: Tensor(a) for n, a in inputs.items()}
            args[name] = t
            return sum_all(mul(T.attention(args["q"], args["k"], args["v"], 2, bias),
                                   weight))
        assert finite_diff_check(f, Tensor(inputs[name])) < 1e-6, name


def test_linear_gradients_match_central_differences():
    rng = np.random.default_rng(22)
    x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
    weight = Tensor(rng.normal(size=(2, 3, 5)))
    assert finite_diff_check(lambda t: sum_all(mul(T.linear(t, w, b), weight)),
                             Tensor(x)) < 1e-6
    assert finite_diff_check(lambda t: sum_all(mul(T.linear(x, t, b), weight)),
                             Tensor(w)) < 1e-6
    assert finite_diff_check(lambda t: sum_all(mul(T.linear(x, w, t), weight)),
                             Tensor(b)) < 1e-6


def test_two_input_layer_norm_gradients_match_central_differences():
    rng = np.random.default_rng(23)
    x, y = rng.normal(size=(2, 3, 4)), rng.normal(size=(3, 4))
    gamma, beta = Tensor(1.0 + 0.2 * rng.normal(size=4)), Tensor(rng.normal(size=4))
    weight = Tensor(rng.normal(size=(2, 3, 4)))
    assert finite_diff_check(
        lambda t: sum_all(mul(T.layer_norm(t, gamma, beta, 1e-6, y), weight)),
        Tensor(x)) < 1e-5
    assert finite_diff_check(
        lambda t: sum_all(mul(T.layer_norm(x, gamma, beta, 1e-6, t), weight)),
        Tensor(y)) < 1e-5


@pytest.mark.parametrize("rows, k, n", [((32, 6), 64, 256), ((32, 14), 256, 64),
                                         ((3, 5), 32, 24), ((5,), 32, 24)])
def test_input_gradient_is_one_product_within_its_tolerance(rows, k, n):
    """The input gradient of a batched input against a 2-D weight is one
    product over all the batch rows. It may differ from the per-sequence
    products only in the last bits: by at most 1e-13 of the largest entry.
    The weight and bias gradients are the products they always were."""
    rng = np.random.default_rng(k + n + len(rows))
    x, w, b = rng.normal(size=rows + (k,)), rng.normal(size=(k, n)), rng.normal(size=n)
    g = rng.normal(size=rows + (n,))
    per_sequence = np.stack([g[i] @ w.T for i in range(rows[0])])
    want_w = x.reshape(-1, k).T @ g.reshape(-1, n)
    want_b = g
    while want_b.ndim > 1:
        want_b = want_b.sum(axis=0)
    one_product = (g.reshape(-1, n) @ w.T).reshape(x.shape)
    for build, arrays in ((T.linear, [x, w, b]), (T.matmul, [x, w])):
        _, gx, gw, *gb = _value_and_grads(build, arrays, g)
        assert gx.tobytes() == one_product.tobytes()
        assert np.abs(gx - per_sequence).max() <= 1e-13 * np.abs(per_sequence).max()
        assert gw.tobytes() == want_w.tobytes()
        assert all(grad.tobytes() == want_b.tobytes() for grad in gb)


_MASK = padding_bias(np.random.default_rng(30), 2, 5)
_IDX, _LABELS = np.array([[0, 3, 3], [6, 0, 1]]), np.array([0, 2, 1, 2])
_ACT = [(2, 5, 8)]
# name -> (leaf shapes, the op over those leaves, the constant arrays it reads)
OWNERSHIP_CASES = {
    "linear": ([(2, 5, 8), (8, 6), (6,)], T.linear, []),
    "attention": (_ACT * 3, lambda q, k, v: T.attention(q, k, v, 2), []),
    "attention_masked": (_ACT * 3, lambda q, k, v: T.attention(q, k, v, 2, _MASK), [_MASK]),
    "layer_norm": (_ACT + [(8,), (8,)], lambda x, g, b: T.layer_norm(x, g, b, 1e-12), []),
    "layer_norm_of_a_sum": (_ACT * 2 + [(8,), (8,)],
                            lambda x, y, g, b: T.layer_norm(x, g, b, 1e-12, y), []),
    "relu": (_ACT, T.relu, []),
    "softmax_rows": (_ACT, T.softmax_rows, []),
    "gather_rows": ([(7, 8)], lambda t: T.gather_rows(t, _IDX), [_IDX]),
    "dropout": (_ACT, lambda a: T.dropout(a, 0.5, 3, 4), []),
    "cross_entropy": ([(4, 3)], lambda z: cross_entropy(z, _LABELS), [_LABELS]),
}


def _assert_owned(arrays, others):
    """No two of `arrays` share memory, nor any of them with `others`."""
    for i, a in enumerate(arrays):
        for other in arrays[i + 1:] + others:
            assert not np.shares_memory(a, other)


@pytest.mark.parametrize("name", OWNERSHIP_CASES)
def test_an_op_writes_only_into_arrays_it_owns(name):
    """Forward and backward leave every input's bytes as they were, and each
    leaf gets a gradient array of its own."""
    rng = np.random.default_rng(31)
    shapes, op, constants = OWNERSHIP_CASES[name]
    inputs = [rng.normal(size=shape) for shape in shapes]
    before = [a.tobytes() for a in inputs + constants]
    leaves = [Tensor(a, requires_grad=True) for a in inputs]
    out = op(*leaves)
    weight = rng.normal(size=out.shape)
    (out if out.data.size == 1 else sum_all(mul(out, Tensor(weight)))).backward()
    assert [a.tobytes() for a in inputs + constants] == before
    _assert_owned([leaf.grad for leaf in leaves], inputs + constants + [weight])


def test_adam_step_writes_only_into_its_moments():
    """Each step leaves the old parameter arrays and the gradients as they
    were and gives each parameter a new array; the moments are the
    optimizer's own."""
    rng = np.random.default_rng(32)
    params = {"w": Tensor(rng.normal(size=(4, 3)), requires_grad=True),
              "b": Tensor(rng.normal(size=3), requires_grad=True)}
    opt = Adam(params)
    for _ in range(2):
        for p in params.values():
            p.grad = rng.normal(size=p.shape)
        old = [a for p in params.values() for a in (p.data, p.grad)]
        before = [a.tobytes() for a in old]
        opt.step(params, 1e-2)
        assert [a.tobytes() for a in old] == before
        _assert_owned([p.data for p in params.values()] + list(opt.m.values())
                      + list(opt.v.values()), old)


def test_backward_consumes_the_graph():
    rng = np.random.default_rng(24)
    w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    gamma = Tensor(np.ones(4), requires_grad=True)
    beta = Tensor(np.zeros(4), requires_grad=True)
    x = Tensor(rng.normal(size=(2, 3, 4)))
    h = T.linear(x, w, b)
    out = T.layer_norm(x, gamma, beta, 1e-12, h)
    loss = sum_all(mul(out, out))
    loss.backward()
    for node in (h, out, loss):
        assert node.grad is None and node._parents == () and node._backward is None
    for leaf in (w, b, gamma, beta):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape
