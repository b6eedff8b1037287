"""Audio loading and 39-dim MFCC features.

Pipeline, applied per utterance: resample to 22050 Hz, frame with a 0.05 s
window and 0.0125 s hop (no centering), Hamming-window each frame, power
spectrum over a 2048-point FFT, 128-band HTK-scale mel filterbank spanning
0..sr/2, natural log with a 1e-10 floor, orthonormal DCT-II keeping 13
coefficients (coefficient 0 is the log-energy term), then first and second
delta regressions (window width 2, edge-replicated). Output is (T, 39)
float32: 13 statics, 13 deltas, 13 delta-deltas.

Everything runs on numpy and the standard library: a RIFF reader for PCM16
and float32 WAVs, stdlib `wave` for the PCM16 writer, a polyphase FIR
resampler with the filter design of `scipy.signal.resample_poly`'s
defaults, and the DCT-II as a constant matrix. The mel filterbank, its
band blocks (runs of 16 bands with the bins they weight, one small GEMM
each in place of the dense product), the resampling filter's band
matrices (runs of 32 filter phases with the input rows they weight, one
small GEMM each over all output blocks in place of a product per phase)
and the DCT matrix depend only on their sizes, so each is built once per
key by a private `functools.lru_cache` helper and handed out read-only.

Frames are a read-only strided view of the samples. `mfcc_39` windows,
transforms and projects them FFT_BLOCK frames at a time. `read_wav`,
`resample` and `mfcc_39` write into an `MfccWorkspace` that a caller may
pass to every clip of a batch; without one, each call allocates its own.
The features are the bits of the dense pipeline
(`np.abs(np.fft.rfft(frames * window, n_fft)) ** 2 @ fb.T`).

Feature caches hold padded (T, 39) matrices with their pre-padding
lengths and clip ids, in the `binfile` layout under magic "GMTC".
"""

from __future__ import annotations

import functools
import math
import os
import stat
import struct
import wave
from dataclasses import dataclass

import numpy as np

from . import binfile
from .errors import DataError

SAMPLE_RATE = 22050
FRAME_SECONDS = 0.05
HOP_SECONDS = 0.0125
N_MELS = 128
N_CEPSTRA = 13
N_COEFFS = 39
LOG_FLOOR = 1e-10
DELTA_WIDTH = 2
FRAME_MULTIPLE = 32  # default padded length: the longest clip, rounded up to this
# 8 MB of float64: every common rate from 8 to 384 kHz needs under 52k taps,
# a header rate with no small ratio to the target could ask for gigabytes
MAX_FILTER_TAPS = 1 << 20
# output samples per input sample: 22050 Hz from any rate down to 2757 Hz,
# far below the 8 kHz of telephone speech; a header that claims 1 Hz would
# otherwise turn a 10 MB PCM16 file into ~1.1e11 output samples
MAX_UPSAMPLING = 8

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


# bytes 4..15 of a WAVE_FORMAT_EXTENSIBLE subformat GUID whose first four
# bytes are a plain format tag
_SUBFORMAT_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _wav_fields(blob: memoryview):
    """(format tag, channels, rate, bytes per sample, bits, data bytes) of
    the first data chunk of a RIFF/WAVE image. Unknown chunks are skipped
    with their pad byte; a data chunk that ends early keeps what is there."""
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise DataError("not a RIFF/WAVE file")
    off, fmt = 12, None
    while off + 8 <= len(blob):
        chunk, size = struct.unpack_from("<4sI", blob, off)
        off += 8
        if chunk == b"fmt ":
            if size < 16 or off + size > len(blob):
                raise DataError("bad fmt chunk")
            tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", blob, off)
            if tag == 0xFFFE and size >= 40:  # WAVE_FORMAT_EXTENSIBLE
                guid = blob[off + 24 : off + 40]
                if guid[4:] == _SUBFORMAT_TAIL:
                    tag = struct.unpack_from("<I", guid)[0]
            if channels == 0:
                raise DataError("wav has no channels")
            fmt = (tag, channels, rate, block_align // channels, bits)
        elif chunk == b"data":
            if fmt is None:
                raise DataError("data chunk before fmt chunk")
            return (*fmt, blob[off : off + size])
        off += size + (size & 1)
    raise DataError("no data chunk")


def read_wav(path, work: MfccWorkspace | None = None) -> AudioClip:
    """Load a RIFF/WAVE file as a mono clip.

    Accepts 16-bit PCM and finite 32-bit float, also as
    WAVE_FORMAT_EXTENSIBLE subformats; stereo is averaged to mono. A path
    that cannot be opened or read is a DataError like a malformed file.
    A regular file is read into the workspace's byte buffer and a mono clip's
    samples are the leading part of its sample buffer, so they stay valid
    until the next read through the same workspace; without one, this call
    allocates its own.
    """
    if work is None:
        work = MfccWorkspace()
    try:
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            if stat.S_ISREG(st.st_mode):
                if len(work.wav) < st.st_size:
                    work.wav = bytearray(_grown(len(work.wav), st.st_size))
                blob = memoryview(work.wav)[: st.st_size]
                blob = blob[: fh.readinto(blob)]
            else:  # a pipe or device, whose size is known only at its end
                blob = memoryview(fh.read())
    except (OSError, UnicodeEncodeError) as exc:  # or a name the fs encoding cannot hold
        raise DataError(f"unreadable wav {path}: {exc}") from exc
    try:
        tag, channels, rate, width, bits, data = _wav_fields(blob)
    except DataError as exc:
        raise DataError(f"unreadable wav {path}: {exc}") from exc
    if tag == 1 and width == 2 and 8 < bits <= 16:
        dtype = "<i2"
    elif tag == 3 and width == 4 and bits == 32:
        dtype = "<f4"
    else:
        raise DataError(f"unsupported wav sample format (tag {tag}, {bits}-bit "
                        f"in {width}-byte samples) in {path}")
    n = len(data) // (width * channels)
    raw = np.frombuffer(data, dtype=dtype, count=n * channels)
    if tag == 3 and not np.isfinite(raw).all():
        raise DataError(f"non-finite samples in wav {path}")
    if n == 0:
        raise DataError(f"empty wav {path}")
    work.samples = _at_least(work.samples, raw.size)
    samples = work.samples[: raw.size]
    np.copyto(samples, raw)
    if tag == 1:
        samples /= 32768.0
    if channels > 1:
        samples = samples.reshape(n, channels).mean(axis=1)
    return AudioClip(samples=samples, sample_rate=rate)


def write_wav_pcm16(path, clip: AudioClip) -> None:
    pcm = np.clip(np.round(clip.samples * 32767.0), -32768, 32767).astype(np.int16)
    with open(path, "wb") as fh, wave.open(fh, "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(clip.sample_rate)
        out.writeframes(pcm.tobytes())


# filter values designed per block, so that the design's temporaries stay
# a few MB even for the longest filter MAX_FILTER_TAPS admits
FILTER_BLOCK = 1 << 16


def _polyphase_filter(up: int, down: int) -> tuple[np.ndarray, int]:
    """Kaiser-windowed (beta 5) sinc low-pass with cutoff 1/max(up, down) of
    Nyquist, half-length 10*max(up, down), unit DC gain times up: the filter
    `scipy.signal.resample_poly` designs by default. Returned split into its
    `up` phases, each reversed so a phase dots with a forward input window:
    row p holds h[p + up*q] for q = taps-1 .. 0.

    The taps are built FILTER_BLOCK at a time with np.kaiser's elementwise
    expression, and normalised by one sum over the whole filter, so they
    have the bits of the whole-array design."""
    max_rate = max(up, down)
    half_len = 10 * max_rate
    cutoff, beta = 1.0 / max_rate, 5.0
    size = 2 * half_len + 1
    taps = -(-size // up)
    flat = np.zeros(taps * up)
    h = flat[:size]
    for lo in range(0, size, FILTER_BLOCK):
        m = np.arange(lo, min(lo + FILTER_BLOCK, size)) - float(half_len)
        window = np.i0(beta * np.sqrt(1 - (m / half_len) ** 2.0)) / np.i0(beta)
        h[lo : lo + m.size] = cutoff * np.sinc(cutoff * m) * window
    h /= h.sum()
    h *= up
    phases = np.ascontiguousarray(flat.reshape(taps, up).T[:, ::-1])
    phases.setflags(write=False)
    return phases, half_len


# filter phases per resampling GEMM; a band reads only the input rows its
# phases weight
RESAMPLE_BAND = 32
# values per contiguous copy of a band's window rows (256 KB)
RESAMPLE_COPY = 1 << 15


# a corpus holds a few sample rates; the bound caps what odd rates can hold:
# at most about 21 MB a rate pair, at the worst rate MAX_FILTER_TAPS admits
@functools.lru_cache(maxsize=8)
def _resample_bands(up: int, down: int) -> tuple[int, int, int, tuple]:
    """The (up, down) filter as a banded (span, up) matrix M, cut into
    column bands: (taps, start, span, ((cols, rows, M[rows, cols]), ...)),
    with taps per filter phase.

    Output q*up + r is the dot of M[:, r] with the window of `span`
    samples at q*down + start of the input with taps - 1 zeros before it
    and zeros after it (see resample). Its phase, (r*down + half_len) % up,
    fills taps rows from a_r - start, with a_r = (r*down + half_len) // up
    and start = a_0. Each run of RESAMPLE_BAND columns keeps only the rows
    between its first column's first tap and its last column's last tap.
    The band matrices hold about RESAMPLE_BAND*down + up*taps entries,
    under 3 times the filter, which is not kept."""
    phases, half_len = _polyphase_filter(up, down)
    taps = phases.shape[1]
    t = np.arange(up) * down + half_len
    first, phase = t // up - half_len // up, t % up
    bands = []
    for c0 in range(0, up, RESAMPLE_BAND):
        cols = slice(c0, min(c0 + RESAMPLE_BAND, up))
        rows = slice(int(first[c0]), int(first[cols.stop - 1]) + taps)
        m = np.zeros((rows.stop - rows.start, cols.stop - c0))
        for j, r in enumerate(range(c0, cols.stop)):
            m[first[r] - rows.start : first[r] - rows.start + taps, j] = phases[phase[r]]
        m.setflags(write=False)
        bands.append((cols, rows, m))
    return taps, half_len // up, int(first[-1]) + taps, tuple(bands)


def _grown(size: int, n: int) -> int:
    """The size a workspace buffer of `size` grows to when it must hold n:
    at least 1.5 times the old size, so that clips that each run a little
    longer than the last regrow it a few times, not once a clip."""
    return max(n, size + size // 2)


def _at_least(buf: np.ndarray, n: int) -> np.ndarray:
    """buf when it holds n values, else a new buffer of _grown(buf.size, n)."""
    return buf if buf.size >= n else np.empty(_grown(buf.size, n))


def resample(clip: AudioClip, target_rate: int = SAMPLE_RATE,
             work: MfccWorkspace | None = None) -> AudioClip:
    """Band-limited resampling to target_rate (polyphase windowed sinc).

    Same-rate input is returned unchanged; duration is preserved to within
    one sample period. Output sample k is the filter centred on input
    position k*down/up: sum_j h[j] * x_up[k*down + half_len - j], with x_up
    the input with up-1 zeros after each sample and zeros past either end.
    Outputs k = q*up + r share block q, whose windows all lie in one span
    of the zero-padded input that starts q*down samples after block 0's.
    So all outputs are (blocks, span) @ (span, up) against the banded
    filter matrix of `_resample_bands`: for each column band, the rows it
    reads of every block's span are copied contiguous in runs of at most
    RESAMPLE_COPY values, and each run is one GEMM.

    The zero-padded input, the window copies and the output are written
    into the workspace's buffers, so the output stays valid until the next
    resample through it; without one, this call allocates its own. A rate
    ratio above MAX_UPSAMPLING, or one whose filter would pass
    MAX_FILTER_TAPS, is a DataError; both are checked before anything is
    built.
    """
    if target_rate <= 0:
        raise DataError(f"bad target rate {target_rate}")
    if clip.sample_rate == target_rate:
        return clip
    if target_rate > MAX_UPSAMPLING * clip.sample_rate:
        raise DataError(f"cannot resample {clip.sample_rate} Hz to {target_rate} Hz: "
                        f"more than {MAX_UPSAMPLING} output samples per input sample")
    g = math.gcd(clip.sample_rate, target_rate)
    up, down = target_rate // g, clip.sample_rate // g
    if 20 * max(up, down) + 1 > MAX_FILTER_TAPS:
        raise DataError(f"cannot resample {clip.sample_rate} Hz to {target_rate} Hz: "
                        f"the filter would need more than {MAX_FILTER_TAPS} taps")
    if work is None:
        work = MfccWorkspace()
    taps, start, span, bands = _resample_bands(up, down)
    lead = taps - 1  # zeros before the input
    n_in = clip.samples.size
    n_out = -(-n_in * up // down)
    n_blocks = -(-n_out // up)
    n_x = max(lead + n_in, (n_blocks - 1) * down + start + span)
    work.padded = _at_least(work.padded, n_x)
    x = work.padded[:n_x]
    x[:lead] = 0.0
    x[lead : lead + n_in] = clip.samples
    x[lead + n_in :] = 0.0
    blocks = np.lib.stride_tricks.sliding_window_view(x[start:], span)[::down][:n_blocks]
    work.resampled = _at_least(work.resampled, n_blocks * up)
    out = work.resampled[: n_blocks * up].reshape(n_blocks, up)
    for cols, rows, m in bands:
        # numpy multiplies overlapping strided rows without BLAS, so each
        # band's rows are copied contiguous, at most RESAMPLE_COPY values a run
        windows = blocks[:, rows]
        run = max(1, RESAMPLE_COPY // windows.shape[1])
        work.windows = _at_least(work.windows, max(RESAMPLE_COPY, windows.shape[1]))
        for r0 in range(0, n_blocks, run):
            part = windows[r0 : r0 + run]
            copy = work.windows[: part.size].reshape(part.shape)
            np.copyto(copy, part)
            np.matmul(copy, m, out=out[r0 : r0 + part.shape[0], cols])
    return AudioClip(samples=out.reshape(-1)[:n_out], sample_rate=target_rate)


def frame_signal(clip: AudioClip) -> np.ndarray:
    """Slice a clip into overlapping frames, no centering or end padding.

    Returns a read-only (n_frames, frame_len) view of the clip's samples,
    with n_frames = 1 + (N - frame_len) // hop. A rate too low for a hop of
    one sample, or a clip shorter than one frame, is a DataError.
    """
    frame_len = int(clip.sample_rate * FRAME_SECONDS)
    hop = int(clip.sample_rate * HOP_SECONDS)
    n = clip.samples.size
    if hop < 1:
        raise DataError(f"sample rate {clip.sample_rate} Hz too low: frames of "
                        f"{frame_len} samples with a hop of {hop} samples")
    if n < frame_len:
        raise DataError(
            f"clip too short: {n} samples < one {frame_len}-sample frame")
    n_frames = 1 + (n - frame_len) // hop
    windows = np.lib.stride_tricks.sliding_window_view(clip.samples, frame_len)
    return windows[::hop][:n_frames]


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(sr: int, n_fft: int) -> np.ndarray:
    """Triangular mel filters (N_MELS, n_fft//2 + 1), HTK scale, 0..sr/2.
    Built once per (sr, n_fft); the array is read-only."""
    return _mel_filterbank(sr, n_fft)


@functools.lru_cache(maxsize=8)
def _mel_filterbank(sr: int, n_fft: int) -> np.ndarray:
    mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(sr / 2.0), N_MELS + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_freqs = np.arange(n_fft // 2 + 1) * (sr / n_fft)
    fb = np.zeros((N_MELS, bin_freqs.size))
    for m in range(N_MELS):
        lo, ctr, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (bin_freqs - lo) / (ctr - lo)
        dn = (hi - bin_freqs) / (hi - ctr)
        fb[m] = np.maximum(0.0, np.minimum(up, dn))
    fb.setflags(write=False)
    return fb


# bands per mel-projection GEMM; a block reads only the bins its bands weight
MEL_BLOCK = 16
# frames per FFT: mfcc_39 windows, transforms and projects a clip this many
# frames at a time, through buffers whose size does not grow with the clip
FFT_BLOCK = 32


@functools.lru_cache(maxsize=8)
def _mel_blocks(sr: int, n_fft: int) -> tuple[tuple[slice, slice], ...]:
    """(bands, bins) slices of the (sr, n_fft) filterbank: each run of
    MEL_BLOCK consecutive bands, with the span of bins that any of them
    weights non-zero (empty where none does)."""
    fb = _mel_filterbank(sr, n_fft)
    blocks = []
    for b0 in range(0, fb.shape[0], MEL_BLOCK):
        bands = slice(b0, min(b0 + MEL_BLOCK, fb.shape[0]))
        touched = np.flatnonzero(fb[bands].any(axis=0))
        bins = slice(int(touched[0]), int(touched[-1]) + 1) if touched.size else slice(0, 0)
        blocks.append((bands, bins))
    return tuple(blocks)


def _mel_energy(power: np.ndarray, fb: np.ndarray, blocks, out: np.ndarray) -> np.ndarray:
    """power @ fb.T into `out`, as one small GEMM per band block over only
    the bins the block's bands weight; a block that weights no bin is 0.
    At 22050 Hz (n_fft 2048) 2,022 of the filterbank's 131,200 weights are
    non-zero, and the blocks multiply 17,168 of them a frame."""
    for bands, bins in blocks:
        if bins.stop > bins.start:
            np.matmul(power[:, bins], fb[bands, bins].T, out=out[:, bands])
        else:
            out[:, bands] = 0.0
    return out


@functools.lru_cache(maxsize=None)
def _dct_matrix(n: int, keep: int) -> np.ndarray:
    """(n, keep) orthonormal DCT-II: x @ D is the first keep coefficients of
    dct(x, type=2, norm="ortho") along the last axis."""
    k = np.arange(keep)
    d = np.cos(np.pi * np.outer(2 * np.arange(n) + 1, k) / (2 * n))
    d *= np.where(k == 0, math.sqrt(1.0 / n), math.sqrt(2.0 / n))
    d.setflags(write=False)
    return d


def delta(coeffs: np.ndarray) -> np.ndarray:
    """Delta regression over time with edge-replicated padding.

    d[t] = sum_n n * (c[t+n] - c[t-n]) / (2 * sum_n n^2), n = 1..DELTA_WIDTH.
    """
    w = DELTA_WIDTH
    padded = np.pad(coeffs, ((w, w), (0, 0)), mode="edge")
    denom = 2 * sum(n * n for n in range(1, w + 1))
    t = coeffs.shape[0]
    out = np.zeros_like(coeffs)
    for n in range(1, w + 1):
        out += n * (padded[w + n : w + n + t] - padded[w - n : w - n + t])
    return out / denom


class MfccWorkspace:
    """Buffers that read_wav, resample and mfcc_39 write a clip's data and
    float64 intermediates into instead of allocating them.

    read_wav: the file's bytes and the clip's samples. resample: the
    zero-padded input, a run of copied window rows and the output.
    mfcc_39: the Hamming window, a zero-padded (FFT_BLOCK, n_fft) FFT input
    whose first frame_len columns take one block of windowed frames at a
    time, that block's power spectrum, and the mel energies of the whole
    clip.

    The clip-sized buffers grow to hold the longest clip seen, each time to
    at least 1.5 times their old size (`_grown`), and a shorter clip uses
    their leading part; the FFT and power buffers do not depend
    on the clip length. The FFT padding columns are written only when the
    buffers are built, so they stay zero. Another frame length (another
    rate) rebuilds the FFT buffers. A `gmtc features` worker passes one
    workspace to every clip of its share, so that the allocator does not
    hand megabytes back to the kernel, and fault them in again, per clip.
    What read_wav and resample return lives in these buffers until the
    next call of the same function through the workspace."""

    def __init__(self):
        self.frame_len = 0
        self.window = self.fft_in = self.power = self.mel = np.zeros((0, 0))
        self.wav = bytearray()
        self.samples = self.padded = self.windows = self.resampled = np.zeros(0)

    def take(self, n_frames: int, frame_len: int) -> np.ndarray:
        """Fit the buffers to frames of frame_len samples; returns the
        leading n_frames rows of the mel buffer."""
        if frame_len != self.frame_len:
            n_fft = _next_pow2(frame_len)
            self.frame_len = frame_len
            self.window = np.hamming(frame_len)
            self.fft_in = np.zeros((FFT_BLOCK, n_fft))
            self.power = np.empty((FFT_BLOCK, n_fft // 2 + 1))
        if n_frames > self.mel.shape[0]:
            self.mel = np.empty((_grown(self.mel.shape[0], n_frames), N_MELS))
        return self.mel[:n_frames]


def mfcc_39(clip: AudioClip, clip_id: str = "",
            work: MfccWorkspace | None = None) -> FeatureMatrix:
    """Full MFCC+delta+delta-delta feature matrix for one clip.

    Args:
        clip: mono clip, normally at 22050 Hz (frame geometry follows the
            clip's rate; call resample first for other sources).
        clip_id: identifier stored alongside the features.
        work: workspace for the intermediates, reused across calls; one is
            allocated for this call when None.

    Returns:
        FeatureMatrix with float32 (T, 39) frames, true_len = T.
    """
    frames = frame_signal(clip)
    if work is None:
        work = MfccWorkspace()
    n, frame_len = frames.shape
    mel = work.take(n, frame_len)
    n_fft = work.fft_in.shape[1]
    fb = mel_filterbank(clip.sample_rate, n_fft)
    blocks = _mel_blocks(clip.sample_rate, n_fft)
    for start in range(0, n, FFT_BLOCK):
        rows = slice(start, min(start + FFT_BLOCK, n))
        fft_in = work.fft_in[: rows.stop - start]
        power = work.power[: rows.stop - start]
        np.multiply(frames[rows], work.window, out=fft_in[:, :frame_len])
        np.abs(np.fft.rfft(fft_in, axis=1), out=power)
        np.square(power, out=power)
        _mel_energy(power, fb, blocks, out=mel[rows])
    log_mel = np.log(np.maximum(mel, LOG_FLOOR, out=mel), out=mel)
    ceps = log_mel @ _dct_matrix(fb.shape[0], N_CEPSTRA)
    d1 = delta(ceps)
    d2 = delta(d1)
    feats = np.hstack([ceps, d1, d2]).astype(np.float32)
    return FeatureMatrix(frames=feats, true_len=feats.shape[0], clip_id=clip_id)


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


def stack_padded(features: list[FeatureMatrix]) -> np.ndarray:
    """The padded frames as one float32 (N, T, 39) batch; the records must
    share one padded length."""
    lengths = {fm.frames.shape[0] for fm in features}
    if len(lengths) > 1:
        raise DataError(f"features not padded to a common length: {sorted(lengths)}")
    return np.stack([fm.frames for fm in features], dtype=np.float32)


def round_up_multiple(n: int) -> int:
    return -(-n // FRAME_MULTIPLE) * FRAME_MULTIPLE


def cache_write(path, features: list[FeatureMatrix]) -> None:
    """Write a feature cache (`binfile` layout, magic "GMTC"): u32 record
    count; per record the clip id as text, u32 T, u32 true_len, u32 C,
    then the (T, C) float32 frames."""
    binfile.write(path, CACHE_MAGIC, CACHE_VERSION, binfile.u32(len(features)), (
        binfile.text(fm.clip_id) + binfile.u32(len(fm.frames), fm.true_len, fm.frames.shape[1])
        + binfile.f32(fm.frames) for fm in features))


def cache_read(path) -> list[FeatureMatrix]:
    """Read a feature cache written by cache_write; the column count must
    be 39 and the file must hold exactly its records."""
    r = binfile.Reader(path, "feature cache", CACHE_MAGIC, CACHE_VERSION)
    out = []
    for _ in range(*r.u32(1)):
        ident = r.text()
        t, true_len, c = r.u32(3)
        if c != N_COEFFS:
            raise DataError(f"cache record has {c} columns, expected {N_COEFFS}")
        out.append(FeatureMatrix(frames=r.f32((t, c)), true_len=true_len, clip_id=ident))
    r.close()
    return out
