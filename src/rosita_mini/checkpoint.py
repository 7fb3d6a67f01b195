"""Binary checkpoint container: magic "RSTA", versioned header, f32 payload.

Layout: 4 magic bytes, little-endian u32 format version (2), u32 header
length, UTF-8 JSON header (config, seed, stage id, parameter manifest),
then the parameter arrays in manifest order as little-endian float32,
row-major. Save -> load -> save is byte-identical. Version 1 files, which
also had an "adam" header key for an optimizer payload, are rejected.
Files are written to a temporary sibling and renamed into place, so a
failed save leaves any earlier file at the path untouched.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Model, ModelConfig, param_shapes
from .tensor import Tensor

MAGIC = b"RSTA"
FORMAT_VERSION = 2


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]  # float32 as stored
    seed: int
    stage: str

    def to_model(self) -> Model:
        params = {name: Tensor(arr.astype(np.float64), requires_grad=True)
                  for name, arr in self.params.items()}
        return Model(self.config, params)


def _f32(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype="<f4")


def save_checkpoint(path, model: Model, seed: int = 0, stage: str = "") -> None:
    names = list(param_shapes(model.config))  # canonical order
    header: dict = {
        "config": model.config.to_dict(),
        "seed": int(seed),
        "stage": str(stage),
        "params": [[name, list(model.params[name].shape)] for name in names],
    }
    payload = [_f32(model.params[name].data) for name in names]

    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", FORMAT_VERSION, len(header_bytes)))
            fh.write(header_bytes)
            for arr in payload:
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Checkpoint:
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes, not a checkpoint")
    version, header_len = struct.unpack("<II", blob[4:12])
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version}, reader supports {FORMAT_VERSION}"
        )
    if len(blob) < 12 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[12:12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc

    try:
        config = ModelConfig.from_dict(header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad config field: {exc}") from exc

    expected = param_shapes(config)
    manifest = header.get("params", [])
    if [name for name, _ in manifest] != list(expected):
        raise CheckpointError(f"{path}: parameter manifest does not match config")
    for name, shape in manifest:
        if tuple(shape) != expected[name]:
            raise CheckpointError(
                f"{path}: field {name} has shape {shape}, config requires "
                f"{list(expected[name])}"
            )

    offset = 12 + header_len

    def take(shape) -> np.ndarray:
        nonlocal offset
        count = int(np.prod(shape))
        nbytes = count * 4
        if offset + nbytes > len(blob):
            raise CheckpointError(f"{path}: truncated payload")
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        offset += nbytes
        return arr.reshape(shape).copy()

    params = {name: take(shape) for name, shape in manifest}
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} trailing bytes")
    return Checkpoint(config=config, params=params, seed=header.get("seed", 0),
                      stage=header.get("stage", ""))
