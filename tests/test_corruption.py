"""Corruption sweeps over the binary formats: a damaged feature cache,
checkpoint or WAV file must load cleanly or raise DataError, never another
exception."""

import struct
import time

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


def test_checkpoint_config_beyond_its_bytes_is_refused_at_once(tmp_path):
    """A ~1 KB image whose config implies billions of parameters (or of
    tensors) is a DataError before any tensor name is built."""
    cfg = model.ModelConfig(channels=2, kernel_size=1, n_gcb=1, gating_levels=1,
                            n_gscb=1, n_classes=2, seq_len=4)
    path = tmp_path / "huge.ckpt"
    model.checkpoint_save(path, cfg, model.init_params(cfg, seed=0))
    good = path.read_bytes()
    cfg_text = model.config_text(cfg).encode()
    for huge in (dict(n_gscb=10**9), dict(n_gcb=10**9), dict(gating_levels=10**9)):
        big = model.config_text(model.ModelConfig(**{**vars(cfg), **huge})).encode()
        raw = good.replace(struct.pack("<I", len(cfg_text)) + cfg_text,
                           struct.pack("<I", len(big)) + big, 1)
        assert raw != good and len(raw) < 1024
        path.write_bytes(raw)
        start = time.perf_counter()
        with pytest.raises(DataError, match="too short for the"):
            model.checkpoint_load(path)
        assert time.perf_counter() - start < 1.0, huge


def _wav_sweep(good: bytes, path):
    images = [good[:cut] for cut in range(len(good))]
    for off in range(len(good)):
        for value in (0x00, 0x80, 0xFF):
            raw = bytearray(good)
            raw[off] = value
            images.append(bytes(raw))
    for image in images:
        path.write_bytes(image)
        try:
            clip = dsp.read_wav(path)
        except DataError:
            continue
        assert clip.samples.ndim == 1 and clip.samples.size > 0


def test_wav_corruption_sweep(tmp_path):
    import scipy.io.wavfile

    rng = np.random.default_rng(0)
    pcm = tmp_path / "pcm.wav"
    dsp.write_wav_pcm16(pcm, dsp.AudioClip(rng.uniform(-1, 1, 24), 16000))
    f32 = tmp_path / "f32.wav"  # fmt with cbSize and a fact chunk
    scipy.io.wavfile.write(f32, 8000, rng.uniform(-1, 1, 20).astype(np.float32))
    for good in (pcm, f32):
        _wav_sweep(good.read_bytes(), tmp_path / "bad.wav")


def test_wav_data_chunk_ending_early_keeps_whole_samples(tmp_path):
    path = tmp_path / "t.wav"
    dsp.write_wav_pcm16(path, dsp.AudioClip(np.linspace(-0.5, 0.5, 1000), 22050))
    good = path.read_bytes()
    assert len(good) == 44 + 2000
    path.write_bytes(good[:2043])
    assert dsp.read_wav(path).samples.size == 999
    path.write_bytes(good[:44])
    with pytest.raises(DataError, match="empty wav"):
        dsp.read_wav(path)


@pytest.mark.parametrize("tag,bits", [(1, 8), (1, 24), (1, 32), (3, 64)])
def test_wav_other_sample_formats_rejected(tmp_path, tag, bits):
    width = bits // 8
    fmt = struct.pack("<HHIIHH", tag, 1, 8000, 8000 * width, width, bits)
    payload = bytes(width * 50)
    body = (b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    path = tmp_path / "w.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(DataError, match="unsupported wav sample format"):
        dsp.read_wav(path)
