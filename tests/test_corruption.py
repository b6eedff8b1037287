"""Corruption sweeps over the two binary formats: a damaged feature cache or
checkpoint must load cleanly or raise DataError, never another exception."""

import struct

import numpy as np
import pytest

from gmtc import dsp, model
from gmtc.errors import DataError


def _sweep(good: bytes, path, load):
    for cut in range(len(good)):
        path.write_bytes(good[:cut])
        with pytest.raises(DataError):
            load(path)
    for off in range(len(good)):
        for value in (0x00, 0x80, 0xFF):
            raw = bytearray(good)
            raw[off] = value
            path.write_bytes(bytes(raw))
            try:
                load(path)
            except DataError:
                pass


def test_cache_corruption_sweep(tmp_path):
    rng = np.random.default_rng(0)
    features = [dsp.FeatureMatrix(frames=rng.standard_normal((3, 39)).astype(np.float32),
                                  true_len=2, clip_id=clip_id)
                for clip_id in ("a/ü.wav", "b.wav")]
    good = tmp_path / "good.cache"
    dsp.cache_write(good, features)
    _sweep(good.read_bytes(), tmp_path / "bad.cache", dsp.cache_read)


def test_checkpoint_corruption_sweep(tmp_path):
    cfg = model.ModelConfig(channels=2, kernel_size=1, n_gcb=1, gating_levels=1,
                            n_gscb=1, n_classes=2, seq_len=4)
    good = tmp_path / "good.ckpt"
    model.checkpoint_save(good, cfg, model.init_params(cfg, seed=0),
                          {"fold": "0", "seed": "1"})
    _sweep(good.read_bytes(), tmp_path / "bad.ckpt", model.checkpoint_load)
    # a stored shape whose element count overflows int64 (2**93 wraps to 0)
    raw = bytearray(good.read_bytes())
    dims = raw.index(b"entry.kernel") + len(b"entry.kernel") + 4  # past rank 3
    raw[dims : dims + 12] = struct.pack("<3I", 2**31, 2**31, 2**31)
    bad = tmp_path / "huge.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        model.checkpoint_load(bad)
    # entry.bias listed twice, with the tensor count raised to match
    raw = good.read_bytes()
    off = 8  # magic, version; then the config and meta texts
    for _ in range(2):
        off += 4 + struct.unpack_from("<I", raw, off)[0]
    (count,) = struct.unpack_from("<I", raw, off)
    start = raw.index(b"entry.bias") - 4  # name length, name, rank 1, dim, data
    (dim,) = struct.unpack_from("<I", raw, start + 4 + len(b"entry.bias") + 4)
    record = raw[start : start + 4 + len(b"entry.bias") + 8 + 4 * dim]
    bad.write_bytes(raw[:off] + struct.pack("<I", count + 1) + raw[off + 4 :] + record)
    with pytest.raises(DataError, match="repeats tensor entry.bias"):
        model.checkpoint_load(bad)
