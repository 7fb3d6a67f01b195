"""Tensor core: op values against independent oracles, gradients against
central finite differences, and the basic autodiff contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosita_mini import tensor as T
from rosita_mini.tensor import Tensor, ShapeError, finite_diff_check


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(eye, m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_scalar_case_backward():
    a = Tensor([[2.0]], requires_grad=True)
    b = Tensor([[3.0]], requires_grad=True)
    loss = T.sum_all(T.matmul(a, b))
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
    T.sum_all(T.matmul(a, b)).backward()
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
    T.sum_all(T.relu(x)).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])


def test_relu_gradient_matches_central_differences():
    err = finite_diff_check(lambda t: T.sum_all(T.relu(t)), Tensor([0.5, -0.5]))
    assert err < 1e-6


def test_backward_product():
    a = Tensor(2.0, requires_grad=True)
    b = Tensor(3.0, requires_grad=True)
    T.mul(a, b).backward()
    assert a.grad == 3.0 and b.grad == 2.0


def test_backward_unreached_leaf_is_zero():
    a = Tensor(2.0, requires_grad=True)
    w = Tensor(5.0, requires_grad=True)
    T.mul(a, a).backward(leaves=[a, w])
    np.testing.assert_array_equal(w.grad, 0.0)
    assert a.grad == 4.0


def test_backward_rejects_non_scalar():
    a = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        T.add(a, a).backward()


def test_backward_visits_shared_node_once():
    # y = x + x reuses one node; d/dx must be exactly 2, not 4
    x = Tensor(3.0, requires_grad=True)
    h = T.mul(x, x)          # 9, dh/dx = 6
    out = T.add(h, h)        # 18, d/dx = 12
    out.backward()
    assert out.item() == 18.0
    assert x.grad == 12.0


def test_finite_diff_quadratic_exact():
    x = Tensor([1.0, 2.0])
    err = finite_diff_check(lambda t: T.sum_all(T.mul(t, t)), x)
    assert err < 1e-8


def test_finite_diff_softmax_pick_first():
    def f(t):
        return T.sum_all(T.mul(T.softmax_rows(t), Tensor([[1.0, 0.0]])))
    assert finite_diff_check(f, Tensor([[1.0, 0.0]])) < 1e-6


def test_finite_diff_constant_function():
    err = finite_diff_check(lambda t: T.sum_all(T.mul(t, 0.0)), Tensor([1.0, 2.0]))
    assert err == 0.0


def test_layer_norm_gradient():
    rng = np.random.default_rng(11)
    gamma = Tensor(rng.normal(size=4), requires_grad=True)
    beta = Tensor(rng.normal(size=4), requires_grad=True)
    x0 = Tensor(rng.normal(size=(3, 4)))

    def f_x(t):
        return T.sum_all(T.mul(T.layer_norm(t, gamma, beta, 1e-6), Tensor(rng2)))

    rng2 = rng.normal(size=(3, 4))
    assert finite_diff_check(f_x, x0) < 1e-5


def test_gather_rows_and_scatter_gradient():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    idx = np.array([[0, 2], [2, 1]])
    out = T.gather_rows(table, idx)
    assert out.shape == (2, 2, 3)
    np.testing.assert_array_equal(out.data[0, 1], [6.0, 7.0, 8.0])
    T.sum_all(out).backward()
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


def test_no_grad_suppresses_graph():
    x = Tensor(2.0, requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert y._parents == ()
    assert not y.tracked


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
    r1 = T.matmul(Tensor(a), Tensor(b)).data
    r2 = T.matmul(Tensor(a.copy()), Tensor(b.copy())).data
    assert (r1 == r2).all()
    s1 = T.softmax_rows(Tensor(a)).data
    s2 = T.softmax_rows(Tensor(a.copy())).data
    assert (s1 == s2).all()


def test_swapaxes_reshape_roundtrip_gradient():
    x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 4)), requires_grad=True)
    y = T.reshape(T.swapaxes(x, 1, 2), (2, 12))
    T.sum_all(T.mul(y, y)).backward()
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)
