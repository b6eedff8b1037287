"""Audio loading and 39-dim MFCC features.

Pipeline, applied per utterance: resample to 22050 Hz, frame with a 0.05 s
window and 0.0125 s hop (no centering), Hamming-window each frame, power
spectrum over a 2048-point FFT, 128-band HTK-scale mel filterbank spanning
0..sr/2, natural log with a 1e-10 floor, orthonormal DCT-II keeping 13
coefficients (coefficient 0 is the log-energy term), then first and second
delta regressions (window width 2, edge-replicated). Output is (T, 39)
float32: 13 statics, 13 deltas, 13 delta-deltas.

Feature caches are a little-endian binary format, magic "GMTC", holding
padded (T, 39) matrices with their pre-padding lengths and clip ids.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.io.wavfile
import scipy.signal

from .errors import DataError, decode_utf8

SAMPLE_RATE = 22050
FRAME_SECONDS = 0.05
HOP_SECONDS = 0.0125
N_MELS = 128
N_CEPSTRA = 13
N_COEFFS = 39
LOG_FLOOR = 1e-10
DELTA_WIDTH = 2

CACHE_MAGIC = b"GMTC"
CACHE_VERSION = 1


@dataclass
class AudioClip:
    """Mono waveform with amplitudes in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise DataError("clip must be a non-empty 1-D signal")
        if self.sample_rate <= 0:
            raise DataError(f"bad sample rate {self.sample_rate}")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass
class FeatureMatrix:
    """Per-utterance features: frames (T, 39) float32, with the number of
    real (pre-padding) frames and the originating clip id."""

    frames: np.ndarray
    true_len: int
    clip_id: str

    def __post_init__(self):
        if self.frames.ndim != 2 or self.frames.shape[1] != N_COEFFS:
            raise DataError(f"features must be (T, {N_COEFFS}), got {self.frames.shape}")
        if not 1 <= self.true_len <= self.frames.shape[0]:
            raise DataError(f"true_len {self.true_len} out of range")


def read_wav(path) -> AudioClip:
    """Load a RIFF/WAVE file as a mono clip.

    Accepts 16-bit PCM and finite 32-bit float; stereo is averaged to mono.
    """
    try:
        rate, data = scipy.io.wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise DataError(f"unreadable wav {path}: {exc}") from exc
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
        if not np.isfinite(samples).all():
            raise DataError(f"non-finite samples in wav {path}")
    else:
        raise DataError(f"unsupported wav sample format {data.dtype} in {path}")
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    if samples.size == 0:
        raise DataError(f"empty wav {path}")
    return AudioClip(samples=samples, sample_rate=int(rate))


def write_wav_pcm16(path, clip: AudioClip) -> None:
    pcm = np.clip(np.round(clip.samples * 32767.0), -32768, 32767).astype(np.int16)
    scipy.io.wavfile.write(path, clip.sample_rate, pcm)


def resample(clip: AudioClip, target_rate: int = SAMPLE_RATE) -> AudioClip:
    """Band-limited resampling to target_rate (polyphase windowed sinc).

    Same-rate input is returned unchanged; duration is preserved to within
    one sample period.
    """
    if target_rate <= 0:
        raise DataError(f"bad target rate {target_rate}")
    if clip.sample_rate == target_rate:
        return clip
    g = math.gcd(clip.sample_rate, target_rate)
    up, down = target_rate // g, clip.sample_rate // g
    out = scipy.signal.resample_poly(clip.samples, up, down)
    return AudioClip(samples=out, sample_rate=target_rate)


def frame_signal(clip: AudioClip, frame_seconds: float = FRAME_SECONDS,
                 hop_seconds: float = HOP_SECONDS) -> np.ndarray:
    """Slice a clip into overlapping frames, no centering or end padding.

    Returns (n_frames, frame_len) with n_frames = 1 + (N - frame_len) // hop.
    A clip shorter than one frame is a DataError.
    """
    frame_len = int(clip.sample_rate * frame_seconds)
    hop = int(clip.sample_rate * hop_seconds)
    n = clip.samples.size
    if n < frame_len:
        raise DataError(
            f"clip too short: {n} samples < one {frame_len}-sample frame")
    n_frames = 1 + (n - frame_len) // hop
    idx = np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]
    return clip.samples[idx]


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(sr: int, n_fft: int, n_mels: int = N_MELS) -> np.ndarray:
    """Triangular mel filters (n_mels, n_fft//2 + 1), HTK scale, 0..sr/2."""
    mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(sr / 2.0), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_freqs = np.arange(n_fft // 2 + 1) * (sr / n_fft)
    fb = np.zeros((n_mels, bin_freqs.size))
    for m in range(n_mels):
        lo, ctr, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (bin_freqs - lo) / (ctr - lo)
        dn = (hi - bin_freqs) / (hi - ctr)
        fb[m] = np.maximum(0.0, np.minimum(up, dn))
    return fb


def delta(coeffs: np.ndarray, width: int = DELTA_WIDTH) -> np.ndarray:
    """Delta regression over time with edge-replicated padding.

    d[t] = sum_n n * (c[t+n] - c[t-n]) / (2 * sum_n n^2), n = 1..width.
    """
    padded = np.pad(coeffs, ((width, width), (0, 0)), mode="edge")
    denom = 2 * sum(n * n for n in range(1, width + 1))
    t = coeffs.shape[0]
    out = np.zeros_like(coeffs)
    for n in range(1, width + 1):
        out += n * (padded[width + n : width + n + t] - padded[width - n : width - n + t])
    return out / denom


def mfcc_39(clip: AudioClip, clip_id: str = "") -> FeatureMatrix:
    """Full MFCC+delta+delta-delta feature matrix for one clip.

    Args:
        clip: mono clip, normally at 22050 Hz (frame geometry follows the
            clip's rate; call resample first for other sources).
        clip_id: identifier stored alongside the features.

    Returns:
        FeatureMatrix with float32 (T, 39) frames, true_len = T.
    """
    frames = frame_signal(clip)
    window = np.hamming(frames.shape[1])
    n_fft = _next_pow2(frames.shape[1])
    spectrum = np.fft.rfft(frames * window, n=n_fft, axis=1)
    power = np.abs(spectrum) ** 2
    fb = mel_filterbank(clip.sample_rate, n_fft)
    mel_energy = power @ fb.T
    log_mel = np.log(np.maximum(mel_energy, LOG_FLOOR))
    ceps = scipy.fft.dct(log_mel, type=2, norm="ortho", axis=1)[:, :N_CEPSTRA]
    d1 = delta(ceps)
    d2 = delta(d1)
    feats = np.hstack([ceps, d1, d2]).astype(np.float32)
    return FeatureMatrix(frames=feats, true_len=feats.shape[0], clip_id=clip_id)


def standardize(fm: FeatureMatrix) -> FeatureMatrix:
    """Optional per-utterance, per-coefficient standardization (off by
    default everywhere; exposed behind a CLI flag)."""
    real = fm.frames[: fm.true_len].astype(np.float64)
    mu = real.mean(axis=0)
    sd = real.std(axis=0)
    sd[sd == 0] = 1.0
    out = fm.frames.copy()
    out[: fm.true_len] = ((real - mu) / sd).astype(np.float32)
    return FeatureMatrix(frames=out, true_len=fm.true_len, clip_id=fm.clip_id)


def pad_to(fm: FeatureMatrix, t_max: int) -> FeatureMatrix:
    """Zero-pad trailing frames out to t_max, preserving true_len.

    An utterance longer than t_max is truncated from the end and its
    true_len clamped to t_max.
    """
    if t_max < 1:
        raise DataError(f"bad t_max {t_max}")
    t = fm.frames.shape[0]
    if t > t_max:
        return FeatureMatrix(frames=fm.frames[:t_max].copy(),
                             true_len=min(fm.true_len, t_max), clip_id=fm.clip_id)
    if t == t_max:
        return fm
    padded = np.zeros((t_max, N_COEFFS), dtype=np.float32)
    padded[:t] = fm.frames
    return FeatureMatrix(frames=padded, true_len=fm.true_len, clip_id=fm.clip_id)


def unpad(fm: FeatureMatrix) -> np.ndarray:
    """The real frames, with trailing padding removed."""
    return fm.frames[: fm.true_len]


def round_up_multiple(n: int, base: int = 32) -> int:
    return ((n + base - 1) // base) * base


def cache_write(path, features: list[FeatureMatrix]) -> None:
    """Write a feature cache.

    Layout (little-endian): magic "GMTC", u32 version, u32 record count;
    per record u32 id length + UTF-8 id, u32 T, u32 true_len, u32 C, then
    T*C float32 values row-major.
    """
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<II", CACHE_VERSION, len(features)))
        for fm in features:
            ident = fm.clip_id.encode("utf-8")
            t, c = fm.frames.shape
            fh.write(struct.pack("<I", len(ident)))
            fh.write(ident)
            fh.write(struct.pack("<III", t, fm.true_len, c))
            fh.write(np.ascontiguousarray(fm.frames, dtype="<f4").tobytes())


def cache_read(path) -> list[FeatureMatrix]:
    """Read a feature cache written by cache_write; validates magic,
    version, column count, and record sizes."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read feature cache {path}: {exc}") from exc
    view = memoryview(blob)
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(blob):
            raise DataError(f"truncated cache file {path}")
        chunk = view[off : off + n]
        off += n
        return chunk

    if bytes(take(4)) != CACHE_MAGIC:
        raise DataError(f"{path} is not a feature cache (bad magic)")
    version, count = struct.unpack("<II", take(8))
    if version != CACHE_VERSION:
        raise DataError(f"unsupported cache version {version}")
    out = []
    for _ in range(count):
        (id_len,) = struct.unpack("<I", take(4))
        ident = decode_utf8(take(id_len), path)
        t, true_len, c = struct.unpack("<III", take(12))
        if c != N_COEFFS:
            raise DataError(f"cache record has {c} columns, expected {N_COEFFS}")
        data = np.frombuffer(take(4 * t * c), dtype="<f4").reshape(t, c).copy()
        out.append(FeatureMatrix(frames=data, true_len=true_len, clip_id=ident))
    if off != len(blob):
        raise DataError(f"trailing bytes in cache file {path}")
    return out
