"""KD losses against frozen/direct oracles; layer-map enumeration cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosita_mini import distillation as D
from rosita_mini import pipeline as PL
from rosita_mini import tensor as T
from rosita_mini.model import Model, ModelConfig, ForwardTrace
from rosita_mini.pipeline import StageSpec
from rosita_mini.tensor import Tensor, ShapeError
from support import finite_diff_check, mul, sum_all


def make_trace(states, logits=None):
    b = states[0].shape[0]
    return ForwardTrace(
        logits=Tensor(logits if logits is not None else np.zeros((b, 2))),
        hidden=[Tensor(h) for h in states],
    )


class TestSoftCrossEntropy:
    def test_uniform(self):
        loss = D.soft_cross_entropy(Tensor([[0.0, 0.0]]), Tensor([[0.0, 0.0]]))
        assert abs(loss.item() - np.log(2)) < 1e-12

    def test_frozen_value(self):
        loss = D.soft_cross_entropy(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]))
        # direct high-precision evaluation: p = sigmoid(1), -(p*log q1 + (1-p)*log q2)
        assert abs(loss.item() - 1.0443202661482277) < 1e-12

    def test_matching_logits_zero_gradient(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(3, 4))
        zt = Tensor(z)

        def f(t):
            return D.soft_cross_entropy(zt, t)

        err = finite_diff_check(f, Tensor(z.copy()))
        # analytic gradient is exactly zero at z_S = z_T
        probe = Tensor(z.copy(), requires_grad=True)
        D.soft_cross_entropy(zt, probe).backward(leaves=[probe])
        assert np.abs(probe.grad).max() < 1e-12
        # and equals the entropy of softmax(z_T)
        p = np.exp(z - z.max(-1, keepdims=True))
        p /= p.sum(-1, keepdims=True)
        entropy = -(p * np.log(p)).sum(-1).mean()
        assert abs(D.soft_cross_entropy(zt, Tensor(z.copy())).item() - entropy) < 1e-12

    def test_gradient_flows_only_into_student(self):
        zt = Tensor(np.array([[1.0, 0.0]]), requires_grad=True)
        zs = Tensor(np.array([[0.0, 1.0]]), requires_grad=True)
        D.soft_cross_entropy(zt, zs).backward(leaves=[zt, zs])
        np.testing.assert_array_equal(zt.grad, 0.0)
        assert np.abs(zs.grad).max() > 0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        zt = Tensor(rng.normal(size=(4, 3)))
        zs = rng.normal(size=(4, 3))
        err = finite_diff_check(lambda t: D.soft_cross_entropy(zt, t, 2.0), Tensor(zs))
        assert err < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            D.soft_cross_entropy(Tensor([[0.0, 0.0]]), Tensor([[0.0, 0.0, 0.0]]))


class TestHiddenMse:
    def test_identical_traces_zero(self):
        rng = np.random.default_rng(2)
        states = [rng.normal(size=(2, 3, 4)) for _ in range(3)]
        lm = D.build_layer_map(2, 2)
        loss = D.hidden_mse(make_trace(states), make_trace([s.copy() for s in states]), lm)
        assert loss.item() == 0.0

    def test_constant_offset_single_layer(self):
        base = np.zeros((2, 3, 4))
        lm = D.LayerMap(1, 1, [0, 1])
        t = make_trace([base, base])
        s = make_trace([base, base + 0.5])
        loss = D.hidden_mse(t, s, lm)
        assert abs(loss.item() - 0.25) < 1e-12

    def test_matches_elementwise_loop_oracle(self):
        rng = np.random.default_rng(3)
        t_states = [rng.normal(size=(2, 3, 4)) for _ in range(5)]
        s_states = [rng.normal(size=(2, 3, 4)) for _ in range(3)]
        lm = D.build_layer_map(4, 2)
        loss = D.hidden_mse(make_trace(t_states), make_trace(s_states), lm)
        expect = 0.0
        for l_s, l_t in enumerate(lm.g):
            acc = 0.0
            for b in range(2):
                for pos in range(3):
                    for f in range(4):
                        acc += (s_states[l_s][b, pos, f] - t_states[l_t][b, pos, f]) ** 2
            expect += acc / (2 * 3 * 4)
        assert abs(loss.item() - expect) < 1e-10

    def test_symmetric_and_zero_iff_equal(self):
        rng = np.random.default_rng(4)
        a = [rng.normal(size=(1, 2, 3)) for _ in range(2)]
        b = [rng.normal(size=(1, 2, 3)) for _ in range(2)]
        lm = D.build_layer_map(1, 1)
        ab = D.hidden_mse(make_trace(a), make_trace(b), lm).item()
        ba = D.hidden_mse(make_trace(b), make_trace(a), lm).item()
        assert abs(ab - ba) < 1e-12
        assert ab > 1e-12

    def test_masked_positions_excluded(self):
        base = np.zeros((1, 3, 2))
        noisy = base.copy()
        noisy[0, 2, :] = 99.0  # only the masked position differs
        mask = np.array([[1.0, 1.0, 0.0]])
        lm = D.LayerMap(1, 1, [0, 1])
        loss = D.hidden_mse(make_trace([base, base]), make_trace([base, noisy]), lm, mask)
        assert loss.item() == 0.0

    def test_dx_mismatch(self):
        lm = D.LayerMap(1, 1, [0, 1])
        with pytest.raises(ShapeError):
            D.hidden_mse(make_trace([np.zeros((1, 2, 4))] * 2),
                         make_trace([np.zeros((1, 2, 3))] * 2), lm)

    def test_gradient_reaches_student_model(self):
        cfg = ModelConfig(H=2, L=2, d_X=8, d_I=6, r=0, vocab_size=7, max_len=5,
                          n_classes=2, head_dim=4)
        teacher = Model.init(cfg, 5)
        student = Model.init(cfg, 6)
        teacher.freeze()
        ids = np.array([[1, 2, 3]])
        mask = np.ones_like(ids, float)
        t_trace = teacher.forward(ids, mask)
        s_trace = student.forward(ids, mask)
        lm = D.build_layer_map(2, 2)
        loss = D.hidden_mse(t_trace, s_trace, lm, mask)
        loss.backward(leaves=student.parameters().values())
        assert np.abs(student.params["layer0.W_Q"].grad).max() > 0

    def test_one_node_with_the_bits_of_the_elementwise_chain(self):
        """One node whose parents are the student's states; through a model's
        backward it gives the loss and gradient bits of the chain of
        elementwise nodes, with the difference as an add of -teacher."""
        teacher = Model.init(ModelConfig(H=2, L=4, d_X=8, d_I=6, r=0, vocab_size=7,
                                         max_len=5, n_classes=2, head_dim=4), 5)
        teacher.freeze()
        student = Model.init(ModelConfig(H=2, L=2, d_X=8, d_I=6, r=3, vocab_size=7,
                                         max_len=5, n_classes=2, head_dim=4), 6)
        ids = np.array([[1, 2, 3, 4], [5, 6, 0, 0]])
        mask = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
        lm = D.build_layer_map(4, 2)
        t_trace = teacher.forward(ids, mask)
        weight = mask[:, :, None] / (mask.sum() * 8)

        def chain(t_trace, s_trace, lm, mask):
            total = None
            for l_s, l_t in enumerate(lm.g):
                diff = T.add(s_trace.hidden[l_s], Tensor(-t_trace.hidden[l_t].data))
                term = sum_all(T.scale(mul(diff, diff), weight))
                total = term if total is None else T.add(total, term)
            return total

        runs = []
        for hidden_loss in (D.hidden_mse, chain):
            student.zero_grad()
            s_trace = student.forward(ids, mask)
            hidden = hidden_loss(t_trace, s_trace, lm, mask)
            if hidden_loss is D.hidden_mse:
                assert hidden._parents == tuple(s_trace.hidden)
            loss = T.add(D.soft_cross_entropy(t_trace.logits, s_trace.logits, 2.0),
                         T.scale(hidden, 0.7))
            loss.backward(leaves=student.parameters().values())
            runs.append((hidden.data.tobytes(), {name: p.grad.tobytes()
                                                 for name, p in student.params.items()}))
        assert runs[0] == runs[1]


class TestBuildLayerMap:
    def test_paper_even_case(self):
        lm = D.build_layer_map(12, 4)
        assert lm.g == [0, 3, 6, 9, 12]

    def test_identity(self):
        assert D.build_layer_map(5, 5).g == [0, 1, 2, 3, 4, 5]

    def test_non_divisible_drop_case(self):
        # ratio 1.5: teacher layers 3, 6, 9, 12 (1-indexed) are its integer
        # multiples and get dropped; the kept eight map in order
        lm = D.build_layer_map(12, 8)
        assert lm.g == [0, 1, 2, 4, 5, 7, 8, 10, 11]

    def test_non_divisible_unresolvable_rejected(self):
        with pytest.raises(ValueError, match="keeps"):
            D.build_layer_map(12, 5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            D.build_layer_map(4, 0)
        with pytest.raises(ValueError):
            D.build_layer_map(4, 5)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24))
    def test_invariants_when_resolvable(self, teacher, student):
        if student > teacher:
            return
        try:
            lm = D.build_layer_map(teacher, student)
        except ValueError:
            assert teacher % student != 0  # divisible case always resolves
            return
        assert lm.g[0] == 0
        assert all(b > a for a, b in zip(lm.g, lm.g[1:]))
        assert lm.g[-1] <= teacher
        assert len(lm.g) == student + 1
        if teacher % student == 0:
            assert lm.g[-1] == teacher  # last student layer learns the last teacher layer


class TestKDTotalLoss:
    """The training loss composed by pipeline._batch_loss on tiny models."""

    def _loss(self, kd, seed=7):
        cfg = ModelConfig(H=2, L=2, d_X=8, d_I=6, r=0, vocab_size=9, max_len=5,
                          n_classes=2, head_dim=4)
        teacher, student = Model.init(cfg, seed), Model.init(cfg, seed + 1)
        teacher.freeze()
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, cfg.vocab_size, size=(3, 5))
        mask = np.ones((3, 5))
        mask[0, 3:] = 0.0
        labels = rng.integers(0, cfg.n_classes, size=3)
        stage = StageSpec(name="kd", dataset="train_aug", epochs=1,
                          teacher="original", kd=kd)
        lm = D.build_layer_map(2, 2)
        total, parts = PL._batch_loss(student, teacher, stage, lm, ids, mask, labels)
        t, s = teacher.forward(ids, mask), student.forward(ids, mask)
        return total, parts, t, s, lm, mask

    def test_pred_only(self):
        total, parts, t, s, _, _ = self._loss(D.KDConfig(use_pred=True, use_hidden=False))
        assert abs(total.item() - D.soft_cross_entropy(t.logits, s.logits).item()) < 1e-12
        assert parts["loss_cross"] is None and parts["loss_hidden"] is None

    def test_zero_weight_hidden(self):
        total, parts, t, s, _, _ = self._loss(
            D.KDConfig(use_pred=True, use_hidden=True, hidden_weight=0.0))
        assert parts["loss_hidden"] > 0
        assert abs(total.item() - parts["loss_pred"]) < 1e-12
        assert abs(total.item() - D.soft_cross_entropy(t.logits, s.logits).item()) < 1e-12

    def test_sum_of_components(self):
        total, parts, t, s, lm, mask = self._loss(
            D.KDConfig(use_pred=True, use_hidden=True, hidden_weight=1.0))
        assert abs(total.item() - (parts["loss_pred"] + parts["loss_hidden"])) < 1e-12
        assert abs(parts["loss_hidden"] - D.hidden_mse(t, s, lm, mask).item()) < 1e-12

    def test_no_loss_active_rejected(self):
        with pytest.raises(ValueError):
            D.KDConfig(use_pred=False, use_hidden=False)
