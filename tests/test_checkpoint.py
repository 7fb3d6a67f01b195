"""Checkpoint container: byte-exact round trips and corruption errors."""

import numpy as np
import pytest

from rosita_mini import checkpoint as C
from rosita_mini.checkpoint import (CheckpointError, load_checkpoint,
                                    save_checkpoint)
from rosita_mini.model import Model, ModelConfig


def make_model(seed=0, **over):
    base = dict(H=2, L=2, d_X=8, d_I=6, r=4, vocab_size=9, max_len=7,
                n_classes=2, head_dim=4)
    base.update(over)
    return Model.init(ModelConfig(**base), seed)


def test_save_load_save_byte_identical(tmp_path):
    model = make_model(1)
    p1, p2 = tmp_path / "a.rst", tmp_path / "b.rst"
    save_checkpoint(p1, model, seed=42, stage="teach")
    loaded = load_checkpoint(p1)
    save_checkpoint(p2, loaded.to_model(), seed=loaded.seed, stage=loaded.stage)
    assert p1.read_bytes() == p2.read_bytes()


def test_forward_matches_after_reload(tmp_path):
    model = make_model(4)
    rng = np.random.default_rng(5)
    ids = rng.integers(0, 9, size=(3, 5))
    mask = np.ones_like(ids, dtype=float)
    before = model.forward(ids, mask).logits.data
    save_checkpoint(tmp_path / "m.rst", model)
    reloaded = load_checkpoint(tmp_path / "m.rst").to_model()
    after = reloaded.forward(ids, mask).logits.data
    assert np.abs(before - after).max() <= 1e-6  # f32 storage tolerance


def test_metadata_round_trip(tmp_path):
    model = make_model(6)
    save_checkpoint(tmp_path / "m.rst", model, seed=123, stage="kd_width")
    ck = load_checkpoint(tmp_path / "m.rst")
    assert ck.seed == 123
    assert ck.stage == "kd_width"
    assert ck.config.to_dict() == model.config.to_dict()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.rst"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path):
    model = make_model(7)
    path = tmp_path / "m.rst"
    save_checkpoint(path, model)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_format_version_1_rejected(tmp_path):
    path = tmp_path / "m.rst"
    save_checkpoint(path, make_model(7))
    blob = bytearray(path.read_bytes())
    blob[4:8] = (1).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="format version 1, reader supports 2"):
        load_checkpoint(path)


def test_header_has_no_optimizer_key(tmp_path):
    path = tmp_path / "m.rst"
    save_checkpoint(path, make_model(7), seed=3, stage="s")
    import json
    import struct
    _, header_len = struct.unpack("<II", path.read_bytes()[4:12])
    header = json.loads(path.read_bytes()[12:12 + header_len])
    assert sorted(header) == ["config", "params", "seed", "stage"]


class _FailingArray(np.ndarray):
    writes = 0

    def tobytes(self, order="C"):
        _FailingArray.writes += 1
        if _FailingArray.writes == 3:
            raise OSError("disk full")
        return np.ndarray.tobytes(np.asarray(self), order)


def test_failed_save_keeps_existing_file(tmp_path, monkeypatch):
    path = tmp_path / "m.rst"
    save_checkpoint(path, make_model(12), seed=1, stage="old")
    before = path.read_bytes()

    monkeypatch.setattr(_FailingArray, "writes", 0)
    monkeypatch.setattr(C, "_f32", lambda arr: np.ascontiguousarray(
        arr, dtype="<f4").view(_FailingArray))
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, make_model(13), seed=2, stage="new")
    assert _FailingArray.writes == 3
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.rst"]


def test_truncated_payload_rejected(tmp_path):
    model = make_model(8)
    path = tmp_path / "m.rst"
    save_checkpoint(path, model)
    path.write_bytes(path.read_bytes()[:-17])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    model = make_model(9)
    path = tmp_path / "m.rst"
    save_checkpoint(path, model)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_shape_mismatch_names_field(tmp_path):
    model = make_model(10)
    path = tmp_path / "m.rst"
    save_checkpoint(path, model)
    blob = path.read_bytes()
    # corrupt the manifest: claim a different shape for one field
    import json
    import struct
    version, header_len = struct.unpack("<II", blob[4:12])
    header = json.loads(blob[12:12 + header_len])
    header["params"][0][1][0] += 1
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(blob[:4] + struct.pack("<II", version, len(hb)) + hb
                     + blob[12 + header_len:])
    with pytest.raises(CheckpointError, match="shape|manifest"):
        load_checkpoint(path)


def test_factorized_and_dense_configs(tmp_path):
    for r in (0, 4):
        model = make_model(11, r=r)
        path = tmp_path / f"m{r}.rst"
        save_checkpoint(path, model)
        reloaded = load_checkpoint(path).to_model()
        assert reloaded.config.r == r
        assert set(reloaded.params) == set(model.params)
