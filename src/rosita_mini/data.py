"""Dataset ingestion, deterministic tokenization, and synthetic tasks.

Files are UTF-8 TSV with a header; columns are text, optional text_b, and
label (empty label marks augmented unlabeled rows). The tokenizer is a
plain whitespace-and-punctuation splitter over a fixed vocabulary with
four reserved ids.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3
RESERVED = ("[PAD]", "[UNK]", "[CLS]", "[SEP]")
_VOCAB_HEADER = "#rosita-vocab v1 lowercase="
_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


class Vocab:
    """Ordered token list; ids are dense and stable across save/load."""

    def __init__(self, tokens: list[str], lowercase: bool = True):
        if list(tokens[:4]) != list(RESERVED):
            raise ValueError(f"vocabulary must start with the reserved tokens {RESERVED}")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary contains duplicate tokens")
        self.tokens = list(tokens)
        self.lowercase = lowercase
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        if self.lowercase:
            token = token.lower()
        return self._ids.get(token, UNK_ID)

    def save(self, path) -> None:
        lines = [_VOCAB_HEADER + ("1" if self.lowercase else "0")]
        lines += self.tokens
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines or not lines[0].startswith(_VOCAB_HEADER):
            raise ValueError(f"{path}: not a vocabulary file")
        lowercase = lines[0][len(_VOCAB_HEADER):].strip() == "1"
        return cls(lines[1:], lowercase=lowercase)


def split_text(text: str) -> list[str]:
    """Deterministic split into word and single-punctuation tokens."""
    return _TOKEN_RE.findall(text)


def tokenize(text: str, vocab: Vocab, max_len: int,
             text_b: str | None = None) -> tuple[list[int], list[int]]:
    """[CLS] tokens [SEP] (text_b tokens [SEP]) padded/truncated to max_len."""
    ids = [CLS_ID]
    ids += [vocab.id_of(t) for t in split_text(text)]
    ids.append(SEP_ID)
    if text_b is not None:
        ids += [vocab.id_of(t) for t in split_text(text_b)]
        ids.append(SEP_ID)
    ids = ids[:max_len]
    mask = [1] * len(ids) + [0] * (max_len - len(ids))
    ids += [PAD_ID] * (max_len - len(ids))
    return ids, mask


@dataclass
class Example:
    text: str
    text_b: str | None = None
    label: int | None = None


def load_tsv(path) -> list[Example]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    header = lines[0].split("\t")
    try:
        text_col = header.index("text")
        label_col = header.index("label")
    except ValueError as exc:
        raise ValueError(f"{path}: header must name 'text' and 'label' columns") from exc
    text_b_col = header.index("text_b") if "text_b" in header else None

    examples = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, "
                             f"got {len(cells)}")
        label = cells[label_col].strip()
        try:
            label = int(label) if label else None
        except ValueError:
            raise ValueError(f"{path}:{lineno}: label {label!r} is not an integer") from None
        examples.append(Example(
            text=cells[text_col],
            text_b=cells[text_b_col] if text_b_col is not None else None,
            label=label,
        ))
    return examples


def save_tsv(path, examples: list[Example], with_text_b: bool = False) -> None:
    header = ["text"] + (["text_b"] if with_text_b else []) + ["label"]
    rows = ["\t".join(header)]
    for ex in examples:
        cells = [ex.text]
        if with_text_b:
            cells.append(ex.text_b or "")
        cells.append("" if ex.label is None else str(ex.label))
        rows.append("\t".join(cells))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


@dataclass
class EncodedDataset:
    """Pre-tokenized split: ids (N, max_len), mask, labels (-1 = unlabeled)."""

    ids: np.ndarray
    mask: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.ids.shape[0]

    @classmethod
    def encode(cls, examples: list[Example], vocab: Vocab, max_len: int) -> "EncodedDataset":
        ids = np.zeros((len(examples), max_len), dtype=np.int64)
        mask = np.zeros((len(examples), max_len), dtype=np.float64)
        labels = np.full(len(examples), -1, dtype=np.int64)
        for i, ex in enumerate(examples):
            row_ids, row_mask = tokenize(ex.text, vocab, max_len, ex.text_b)
            ids[i], mask[i] = row_ids, row_mask
            if ex.label is not None:
                labels[i] = ex.label
        return cls(ids=ids, mask=mask, labels=labels)


def iter_batches(data: EncodedDataset, batch_size: int,
                 rng: np.random.Generator | None = None):
    """Yield (ids, mask, labels) batches, trimmed to the longest row.

    Order is shuffled when an rng is given (the run seed drives it); the
    trailing partial batch is kept.
    """
    n = len(data)
    order = rng.permutation(n) if rng is not None else np.arange(n)
    for start in range(0, n, batch_size):
        sel = order[start:start + batch_size]
        ids, mask, labels = data.ids[sel], data.mask[sel], data.labels[sel]
        seq = max(1, int(mask.sum(axis=1).max()))
        yield ids[:, :seq], mask[:, :seq], labels


def batches_per_epoch(n_examples: int, batch_size: int) -> int:
    return (n_examples + batch_size - 1) // batch_size


# ---------------------------------------------------------------------------
# built-in synthetic tasks


def _marker_sequences(n: int, seq_len: int, words: list[str], m1: str, m2: str,
                      rng: np.random.Generator, labeled: bool) -> list[Example]:
    out = []
    for _ in range(n):
        toks = [words[i] for i in rng.integers(0, len(words), size=seq_len)]
        i, j = rng.choice(seq_len, size=2, replace=False)
        first = int(rng.integers(0, 2))
        toks[i], toks[j] = (m1, m2) if first else (m2, m1)
        label = int((i < j) == bool(first)) if labeled else None
        out.append(Example(text=" ".join(toks), label=label))
    return out


N_FILLER_WORDS = 58  # a 64-word vocab: rank 64 -> 10 divides into the README's 6 events


def generate_marker_task(out_dir, n_train: int = 256, n_dev: int = 768,
                         n_aug: int = 4096, seq_len: int = 12,
                         n_filler_words: int = N_FILLER_WORDS, seed: int = 0) -> dict:
    """Binary order-of-markers task: which of two marker words comes first.

    Both markers appear exactly once per sequence at random positions among
    filler words; the label says whether marker one precedes marker two.
    Writes train/dev tsv, an unlabeled augmented split, and the vocabulary.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    words = [f"w{idx:02d}" for idx in range(n_filler_words)]
    m1, m2 = "alpha", "omega"

    splits = {
        "train": _marker_sequences(n_train, seq_len, words, m1, m2, rng, labeled=True),
        "dev": _marker_sequences(n_dev, seq_len, words, m1, m2, rng, labeled=True),
        "train_aug": _marker_sequences(n_aug, seq_len, words, m1, m2, rng, labeled=False),
    }
    for name, examples in splits.items():
        save_tsv(out_dir / f"{name}.tsv", examples)
    vocab = Vocab(list(RESERVED) + words + [m1, m2])
    vocab.save(out_dir / "vocab.txt")
    return {
        "dir": str(out_dir),
        "n_classes": 2,
        "max_len": seq_len + 2,  # [CLS] + tokens + [SEP]
        "vocab_size": len(vocab),
        "metric": "accuracy",
    }


def load_task_dir(data_dir, max_len: int) -> tuple[Vocab, dict[str, EncodedDataset]]:
    """Load vocab plus every *.tsv split present in a data directory."""
    data_dir = Path(data_dir)
    vocab = Vocab.load(data_dir / "vocab.txt")
    splits = {}
    for path in sorted(data_dir.glob("*.tsv")):
        splits[path.stem] = EncodedDataset.encode(load_tsv(path), vocab, max_len)
    if not splits:
        raise FileNotFoundError(f"{data_dir}: no .tsv splits found")
    return vocab, splits
