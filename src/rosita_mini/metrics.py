"""Evaluation metrics and the NDJSON metrics stream."""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1

METRIC_KINDS = ("accuracy", "mcc")


def check_metric_kind(kind: str) -> None:
    if kind not in METRIC_KINDS:
        raise ValueError(f"unknown metric kind {kind!r}; choices: {list(METRIC_KINDS)}")


def eval_metric(predictions, labels, kind: str) -> float:
    """accuracy = fraction correct; mcc = Matthews correlation (binary).

    mcc takes only the classes 0 and 1, and is 0 by convention when its
    denominator vanishes (e.g. constant predictions).
    """
    check_metric_kind(kind)
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(
            f"eval_metric: {predictions.shape} predictions vs {labels.shape} labels"
        )
    if kind == "accuracy":
        return float((predictions == labels).mean())
    if not set(seen := np.union1d(predictions, labels).tolist()) <= {0, 1}:
        raise ValueError(f"eval_metric: mcc is binary, but the labels and predictions "
                         f"hold the classes {seen}")
    tp = int(((predictions == 1) & (labels == 1)).sum())
    tn = int(((predictions == 0) & (labels == 0)).sum())
    fp = int(((predictions == 1) & (labels == 0)).sum())
    fn = int(((predictions == 0) & (labels == 1)).sum())
    denom = math.sqrt(float((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)))
    if denom == 0.0:
        return 0.0
    return (tp * tn - fp * fn) / denom


class MetricsWriter:
    """Append-only NDJSON stream; every line carries the schema version.

    Records are serialized with sorted keys so identical runs produce
    byte-identical files. `last` is the row written last (None before any).
    Lines go to a temporary sibling that `close` renames onto the path,
    after a failure too, so a file there is never rewritten in place.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._fh = open(self._tmp, "w", encoding="utf-8")
        self.last: dict | None = None

    def write(self, record: dict) -> None:
        row = {"schema_version": SCHEMA_VERSION, **record}
        self.last = row
        self._fh.write(json.dumps(row, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()
        os.replace(self._tmp, self.path)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_ndjson(path) -> list[dict]:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rows.append(json.loads(line))
    return rows
