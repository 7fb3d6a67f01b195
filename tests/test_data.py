"""Tokenizer determinism, TSV round trips, metrics, synthetic task."""

import os

import numpy as np
import pytest

from rosita_mini import data as D
from rosita_mini.data import (CLS_ID, PAD_ID, SEP_ID, UNK_ID, EncodedDataset,
                              Example, Vocab, generate_marker_task,
                              iter_batches, load_task_dir, load_tsv, save_tsv,
                              tokenize)
from rosita_mini.metrics import MetricsWriter, eval_metric, read_ndjson
from support import build_vocab


def demo_vocab():
    return Vocab(list(D.RESERVED) + ["hello", "world", "x"], lowercase=True)


class TestTokenize:
    def test_empty_text(self):
        ids, mask = tokenize("", demo_vocab(), 5)
        assert ids == [CLS_ID, SEP_ID, PAD_ID, PAD_ID, PAD_ID]
        assert mask == [1, 1, 0, 0, 0]

    def test_unknown_becomes_unk(self):
        ids, _ = tokenize("hello zzz", demo_vocab(), 6)
        assert ids[1] == demo_vocab().id_of("hello")
        assert ids[2] == UNK_ID

    def test_idempotent(self):
        v = demo_vocab()
        assert tokenize("hello, world x", v, 8) == tokenize("hello, world x", v, 8)

    def test_pair_sequences(self):
        ids, mask = tokenize("hello", demo_vocab(), 8, text_b="world")
        v = demo_vocab()
        assert ids[:5] == [CLS_ID, v.id_of("hello"), SEP_ID, v.id_of("world"), SEP_ID]
        assert mask[:5] == [1] * 5 and mask[5:] == [0, 0, 0]

    def test_truncation(self):
        ids, mask = tokenize("hello world x hello world", demo_vocab(), 4)
        assert len(ids) == 4 and all(mask)

    def test_lowercasing(self):
        v = demo_vocab()
        assert v.id_of("HELLO") == v.id_of("hello")

    def test_punctuation_split(self):
        assert D.split_text("a,b.c") == ["a", ",", "b", ".", "c"]


class TestVocab:
    def test_reserved_prefix_enforced(self):
        with pytest.raises(ValueError):
            Vocab(["hello", "world"])

    def test_save_load_stable(self, tmp_path):
        v = build_vocab(["the cat sat", "the dog sat"], lowercase=True)
        v.save(tmp_path / "v.txt")
        loaded = Vocab.load(tmp_path / "v.txt")
        assert loaded.tokens == v.tokens
        assert loaded.lowercase == v.lowercase
        assert all(loaded.id_of(t) == v.id_of(t) for t in v.tokens)

    def test_frequency_then_alpha_order(self):
        v = build_vocab(["b b a a c"])
        # a and b tie at 2 -> alphabetical; c trails
        assert v.tokens[4:] == ["a", "b", "c"]


class TestTsv:
    def test_round_trip(self, tmp_path):
        examples = [Example("hello world", label=1), Example("x", label=0),
                    Example("aug row", label=None)]
        save_tsv(tmp_path / "d.tsv", examples)
        loaded = load_tsv(tmp_path / "d.tsv")
        assert [(e.text, e.label) for e in loaded] == \
            [(e.text, e.label) for e in examples]

    def test_text_b_round_trip(self, tmp_path):
        examples = [Example("a", "b", 1), Example("c", "d", None)]
        save_tsv(tmp_path / "p.tsv", examples, with_text_b=True)
        loaded = load_tsv(tmp_path / "p.tsv")
        assert loaded[0].text_b == "b" and loaded[1].text_b == "d"

    def test_bad_header_rejected(self, tmp_path):
        (tmp_path / "bad.tsv").write_text("foo\tbar\nx\t1\n")
        with pytest.raises(ValueError, match="header"):
            load_tsv(tmp_path / "bad.tsv")

    def test_ragged_row_rejected(self, tmp_path):
        (tmp_path / "bad.tsv").write_text("text\tlabel\nonly-text\n")
        with pytest.raises(ValueError, match="columns"):
            load_tsv(tmp_path / "bad.tsv")

    def test_a_label_that_is_not_an_integer_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("text\tlabel\na b\t1\nc d\tx\n")
        with pytest.raises(ValueError) as exc:
            load_tsv(path)
        assert str(exc.value) == f"{path}:3: label 'x' is not an integer"


class TestBatching:
    def test_shuffle_is_seed_deterministic(self):
        data = EncodedDataset(ids=np.arange(40).reshape(10, 4),
                              mask=np.ones((10, 4)), labels=np.arange(10))
        a = [b[0].copy() for b in iter_batches(data, 3, np.random.default_rng(5))]
        b = [b[0].copy() for b in iter_batches(data, 3, np.random.default_rng(5))]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_batches_trim_to_longest_row(self):
        mask = np.zeros((2, 6))
        mask[:, :3] = 1
        data = EncodedDataset(ids=np.ones((2, 6), dtype=int), mask=mask,
                              labels=np.zeros(2, dtype=int))
        (ids, m, _), = list(iter_batches(data, 2))
        assert ids.shape == (2, 3)

    def test_partial_trailing_batch_kept(self):
        data = EncodedDataset(ids=np.ones((7, 2), dtype=int), mask=np.ones((7, 2)),
                              labels=np.zeros(7, dtype=int))
        sizes = [b[0].shape[0] for b in iter_batches(data, 3)]
        assert sizes == [3, 3, 1]


class TestEvalMetric:
    def test_all_correct(self):
        assert eval_metric([1, 0, 1], [1, 0, 1], "accuracy") == 1.0
        assert eval_metric([1, 0, 1, 0], [1, 0, 1, 0], "mcc") == 1.0

    def test_constant_predictions_mcc_zero(self):
        assert eval_metric([1, 1, 1, 1], [1, 0, 1, 0], "mcc") == 0.0

    def test_mcc_hand_case(self):
        # (TP, TN, FP, FN) = (3, 4, 1, 2): (12 - 2) / sqrt(4*5*5*6)
        preds = [1, 1, 1, 0, 0, 0, 0, 1, 0, 0]
        labels = [1, 1, 1, 0, 0, 0, 0, 0, 1, 1]
        assert abs(eval_metric(preds, labels, "mcc") - 0.4082482904638630) < 1e-12

    def test_accuracy_is_one_minus_hamming(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 2, size=50)
        labels = rng.integers(0, 2, size=50)
        acc = eval_metric(preds, labels, "accuracy")
        assert abs(acc - (1 - np.mean(preds != labels))) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            eval_metric([1, 0], [1], "accuracy")

    def test_mcc_refuses_classes_outside_0_and_1(self):
        # class-2 rows count as neither positive nor negative, so the wrong
        # prediction in the last row would go unseen
        with pytest.raises(ValueError, match=r"the classes \[0, 1, 2\]"):
            eval_metric([0, 1, 2, 2], [0, 1, 2, 1], "mcc")
        with pytest.raises(ValueError, match=r"the classes \[-1, 0, 1\]"):
            eval_metric([0, 1, 1], [0, 1, -1], "mcc")
        assert eval_metric([0, 1, 2, 2], [0, 1, 2, 1], "accuracy") == 0.75


class TestMetricsWriter:
    def test_ndjson_lines_with_schema(self, tmp_path):
        path = tmp_path / "m.ndjson"
        with MetricsWriter(path) as w:
            w.write({"step": 1, "loss": 0.5})
            w.write({"step": 2, "loss": 0.25})
        rows = read_ndjson(path)
        assert [r["step"] for r in rows] == [1, 2]
        assert all(r["schema_version"] == 1 for r in rows)

    def test_identical_records_identical_bytes(self, tmp_path):
        for name in ("a", "b"):
            with MetricsWriter(tmp_path / name) as w:
                w.write({"x": 0.1, "y": [1, 2]})
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_rewrite_leaves_a_hard_link_to_the_old_file_alone(self, tmp_path):
        with MetricsWriter(tmp_path / "a") as w:
            w.write({"x": 1})
        os.link(tmp_path / "a", tmp_path / "b")
        with MetricsWriter(tmp_path / "b") as w:
            w.write({"x": 2})
        assert [r["x"] for r in read_ndjson(tmp_path / "a")] == [1]
        assert [r["x"] for r in read_ndjson(tmp_path / "b")] == [2]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]

    def test_failed_stream_is_left_at_its_path(self, tmp_path):
        with pytest.raises(RuntimeError), MetricsWriter(tmp_path / "m") as w:
            w.write({"step": 1})
            raise RuntimeError("stage failed")
        assert [r["step"] for r in read_ndjson(tmp_path / "m")] == [1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m"]


class TestMarkerTask:
    def test_generation_and_loading(self, tmp_path):
        info = generate_marker_task(tmp_path, n_train=20, n_dev=10, n_aug=15,
                                    seq_len=8, seed=3)
        vocab, splits = load_task_dir(tmp_path, info["max_len"])
        assert set(splits) == {"train", "dev", "train_aug"}
        assert len(splits["train"]) == 20
        assert (splits["train"].labels >= 0).all()
        assert (splits["train_aug"].labels == -1).all()
        assert len(vocab) == info["vocab_size"]

    def test_labels_match_marker_order(self, tmp_path):
        generate_marker_task(tmp_path, n_train=50, n_dev=1, n_aug=1, seq_len=10, seed=7)
        for ex in load_tsv(tmp_path / "train.tsv"):
            toks = ex.text.split()
            expect = int(toks.index("alpha") < toks.index("omega"))
            assert ex.label == expect

    def test_roughly_balanced(self, tmp_path):
        generate_marker_task(tmp_path, n_train=400, n_dev=1, n_aug=1, seq_len=10, seed=1)
        labels = [ex.label for ex in load_tsv(tmp_path / "train.tsv")]
        assert 0.4 < np.mean(labels) < 0.6

    def test_deterministic_given_seed(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_marker_task(a, n_train=10, n_dev=5, n_aug=5, seed=11)
        generate_marker_task(b, n_train=10, n_dev=5, n_aug=5, seed=11)
        for name in ("train.tsv", "dev.tsv", "train_aug.tsv", "vocab.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
