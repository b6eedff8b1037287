import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from gmtc import corpus, dsp
from gmtc.errors import DataError


def tone(freq=440.0, seconds=1.0, rate=22050, amp=0.3, noise=0.0, seed=0):
    t = np.arange(int(seconds * rate)) / rate
    sig = amp * np.sin(2 * np.pi * freq * t)
    if noise:
        sig = sig + noise * np.random.default_rng(seed).standard_normal(t.size)
    return dsp.AudioClip(samples=sig, sample_rate=rate)


def test_frame_geometry_one_second():
    frames = dsp.frame_signal(tone(seconds=1.0))
    assert frames.shape == (77, 1102)


def test_frame_count_formula_random_lengths():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1102, 60000))
        clip = dsp.AudioClip(samples=rng.standard_normal(n) * 0.1, sample_rate=22050)
        frames = dsp.frame_signal(clip)
        assert frames.shape == (1 + (n - 1102) // 275, 1102)


def test_too_short_clip_raises():
    with pytest.raises(DataError):
        dsp.frame_signal(tone(seconds=0.04))


def test_rates_below_one_sample_hop_raise():
    # 80 Hz is the lowest rate with a hop of one sample (frames of 4)
    for rate in (8, 50, 79):
        clip = dsp.AudioClip(samples=np.ones(1000), sample_rate=rate)
        for stage in (dsp.frame_signal, dsp.mfcc_39):
            with pytest.raises(DataError, match=f"sample rate {rate} Hz too low: frames "
                               f"of {int(rate * 0.05)} samples with a hop of 0 samples"):
                stage(clip)
    clip = dsp.AudioClip(samples=np.random.default_rng(0).uniform(-1, 1, 80), sample_rate=80)
    assert dsp.frame_signal(clip).shape == (77, 4)
    fm = dsp.mfcc_39(clip)
    assert fm.frames.shape == (77, 39) and np.isfinite(fm.frames).all()


def test_frame_signal_is_a_read_only_view_of_the_samples():
    clip = tone(seconds=0.7, noise=0.1)
    frames = dsp.frame_signal(clip)
    assert np.shares_memory(frames, clip.samples)
    assert not frames.flags.writeable
    idx = np.arange(1102)[None, :] + 275 * np.arange(frames.shape[0])[:, None]
    assert np.array_equal(frames, clip.samples[idx])


def test_hamming_endpoint():
    w = np.hamming(1102)
    assert abs(w[0] - 0.08) < 1e-12
    assert abs(w[-1] - 0.08) < 1e-12


def test_mel_spot_value():
    assert abs(dsp.hz_to_mel(700.0) - 781.17) < 0.01


def test_mel_filterbank_shape_and_coverage():
    fb = dsp.mel_filterbank(22050, 2048)
    assert fb.shape == (128, 1025)
    assert np.all(fb >= 0)
    # every filter must touch at least one FFT bin
    assert np.all(fb.sum(axis=1) > 0)


def test_dct_of_flat_log_energy_is_dc_only():
    flat = np.full((1, 128), 3.7)
    ceps = flat @ dsp._dct_matrix(128, 13)
    assert abs(ceps[0, 0] - 3.7 * np.sqrt(128)) < 1e-9
    assert np.max(np.abs(ceps[0, 1:])) < 1e-9


def test_dct_matrix_matches_scipy():
    import scipy.fft

    x = np.random.default_rng(3).standard_normal((40, 128)) * 5
    want = scipy.fft.dct(x, type=2, norm="ortho", axis=1)[:, :13]
    assert np.max(np.abs(x @ dsp._dct_matrix(128, 13) - want)) < 1e-12


def test_filters_are_built_once_and_read_only():
    for build in (lambda: dsp.mel_filterbank(22050, 2048),
                  lambda: dsp._dct_matrix(128, 13),
                  lambda: dsp._polyphase_filter(441, 320)[0],
                  *(lambda i=i: dsp._resample_bands(441, 320)[3][i][2] for i in range(14))):
        a, b = build(), build()
        assert np.array_equal(a, b)
        assert not a.flags.writeable and not b.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    assert len(dsp._resample_bands(441, 320)[3]) == 14  # ceil(441 / 32) bands


def _whole_array_filter(up, down):
    """_polyphase_filter's design as one whole-array expression."""
    max_rate = max(up, down)
    half_len = 10 * max_rate
    cutoff = 1.0 / max_rate
    m = np.arange(2 * half_len + 1) - float(half_len)
    h = cutoff * np.sinc(cutoff * m) * np.kaiser(m.size, 5.0)
    h = h / h.sum() * up
    taps = -(-h.size // up)
    phases = np.zeros(taps * up)
    phases[: h.size] = h
    return np.ascontiguousarray(phases.reshape(taps, up).T[:, ::-1]), half_len


# 52427 Hz is the worst rate the tap cap admits: 20 * 52427 + 1 taps
@pytest.mark.parametrize("src", [16000, 48000, 52427])
def test_blocked_filter_design_has_the_whole_array_bits(src):
    g = np.gcd(src, dsp.SAMPLE_RATE)
    up, down = dsp.SAMPLE_RATE // g, src // g
    phases, half_len = dsp._polyphase_filter(up, down)
    want, want_half_len = _whole_array_filter(up, down)
    assert half_len == want_half_len
    assert phases.shape == want.shape and phases.tobytes() == want.tobytes()


def test_worst_filter_design_peaks_near_the_filter_it_keeps():
    """At the worst rate the design keeps 8.1 MiB of phases and peaks at
    17.2 MiB of traced allocations (108 MiB as one whole-array expression)."""
    up, down = dsp.SAMPLE_RATE, 52427
    assert np.gcd(up, down) == 1 and 20 * down + 1 <= dsp.MAX_FILTER_TAPS
    tracemalloc.start()
    try:
        phases, _ = dsp._polyphase_filter(up, down)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phases.nbytes < 8.5 * 2**20
    assert peak < 20 * 2**20, peak / 2**20


def test_public_dsp_stages_stay_traceable(monkeypatch):
    # the benchmark's layer tracer wraps plain public functions at their
    # module binding; a cached public name would drop out of its metrics
    for name in ("read_wav", "resample", "mel_filterbank", "frame_signal",
                 "delta", "mfcc_39"):
        assert type(getattr(dsp, name)) is types.FunctionType, name
    calls = []
    real = dsp.mel_filterbank
    monkeypatch.setattr(dsp, "mel_filterbank",
                        lambda *a: calls.append(a) or real(*a))
    dsp.mfcc_39(tone(seconds=0.2))
    dsp.mfcc_39(tone(seconds=0.2))
    assert calls == [(22050, 2048)] * 2


def _oracle_delta(c):
    padded = np.pad(c, ((2, 2), (0, 0)), mode="edge")
    t = c.shape[0]
    out = np.zeros_like(c)
    for n in (1, 2):
        out += n * (padded[2 + n : 2 + n + t] - padded[2 - n : 2 - n + t])
    return out / 10


def oracle_mfcc(clip):
    """The MFCC pipeline as a transcription of its first numpy form: frames
    copied by fancy indexing, a zero-padding rfft of the windowed copy, and
    the dense mel product."""
    frame_len = int(clip.sample_rate * 0.05)
    hop = int(clip.sample_rate * 0.0125)
    n_frames = 1 + (clip.samples.size - frame_len) // hop
    frames = clip.samples[np.arange(frame_len)[None, :]
                          + hop * np.arange(n_frames)[:, None]]
    n_fft = 1 << (frame_len - 1).bit_length()
    power = np.abs(np.fft.rfft(frames * np.hamming(frame_len), n=n_fft, axis=1)) ** 2
    mel = power @ dsp.mel_filterbank(clip.sample_rate, n_fft).T
    ceps = np.log(np.maximum(mel, 1e-10)) @ dsp._dct_matrix(128, 13)
    d1 = _oracle_delta(ceps)
    return np.hstack([ceps, d1, _oracle_delta(d1)]).astype(np.float32)


@pytest.fixture(scope="module")
def synth_clips(tmp_path_factory):
    """The CLI tests' pipeline corpus (synth seed 3, 5 a class), resampled."""
    root = tmp_path_factory.mktemp("synth")
    manifest = corpus.synth_generate(root, seed=3, n_per_class=5)
    return [dsp.resample(dsp.read_wav(root / e.path)) for e in manifest.entries]


def _random_clips(rate, count, seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(int(rate * 0.05), 4 * rate, count)
    return [dsp.AudioClip(samples=rng.uniform(-1, 1, n) * rng.uniform(0.01, 1),
                          sample_rate=rate) for n in lengths]


def test_mfcc_matches_the_oracle_bit_for_bit(synth_clips):
    clips = list(synth_clips)
    for seed, rate in enumerate((8000, 16000, 22050)):
        clips += _random_clips(rate, 20, seed)
    for i, clip in enumerate(clips):
        assert dsp.mfcc_39(clip).frames.tobytes() == oracle_mfcc(clip).tobytes(), i


def test_one_workspace_serves_clips_that_grow_shrink_and_change_rate():
    """Back-to-back clips that grow, shrink and change rate, down to 80 Hz
    (n_fft 4) and a 0.06 s clip, each give the oracle's features."""
    rng = np.random.default_rng(7)
    plan = [(22050, 1.0), (22050, 2.5), (22050, 0.3), (16000, 0.8), (16000, 3.0),
            (22050, 0.06), (8000, 1.7), (22050, 2.0), (80, 2.0), (22050, 3.1)]
    for rate, seconds in plan:
        clip = dsp.AudioClip(samples=rng.uniform(-1, 1, int(rate * seconds)),
                             sample_rate=rate)
        assert dsp.mfcc_39(clip).frames.tobytes() == oracle_mfcc(clip).tobytes(), rate


@pytest.mark.parametrize("rate", [80, 8000, 16000, 22050, 44100])
def test_banded_mel_projection_matches_the_dense_product(rate):
    n_fft = 1 << (int(rate * 0.05) - 1).bit_length()
    fb = dsp.mel_filterbank(rate, n_fft)
    power = np.random.default_rng(rate).exponential(1.0, (150, n_fft // 2 + 1)) ** 3
    got = dsp._mel_energy(power, fb, dsp._mel_blocks(rate, n_fft),
                          out=np.full((150, dsp.N_MELS), np.nan))
    want = power @ fb.T
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    if rate == 80:  # 3 bins for 128 bands: a band between bins gets no energy
        assert n_fft == 4
        empty = ~fb.any(axis=1)
        assert empty.sum() > dsp.N_MELS // 2
        assert np.all(got[:, empty] == 0) and np.all(want[:, empty] == 0)


def test_mfcc_shape_and_dtype():
    fm = dsp.mfcc_39(tone(seconds=1.0), clip_id="t")
    assert fm.frames.shape == (77, 39)
    assert fm.frames.dtype == np.float32
    assert fm.true_len == 77
    assert np.all(np.isfinite(fm.frames))


def test_mfcc_deterministic():
    a = dsp.mfcc_39(tone(noise=0.01))
    b = dsp.mfcc_39(tone(noise=0.01))
    assert np.array_equal(a.frames, b.frames)


def test_amplitude_scaling_shifts_only_c0():
    base = tone(noise=0.01)
    scaled = dsp.AudioClip(samples=base.samples * 2.0, sample_rate=22050)
    fa = dsp.mfcc_39(base).frames
    fb = dsp.mfcc_39(scaled).frames
    shift = fb[:, 0] - fa[:, 0]
    assert np.max(np.abs(shift - shift.mean())) < 1e-4  # constant across frames
    assert shift.mean() > 1.0  # log-energy term moved
    assert np.max(np.abs(fb[:, 1:13] - fa[:, 1:13])) < 1e-5
    # deltas of the shifted column are unchanged too
    assert np.max(np.abs(fb[:, 13:] - fa[:, 13:])) < 1e-5


def test_delta_of_constant_is_zero():
    d = dsp.delta(np.full((10, 3), 2.5))
    assert np.max(np.abs(d)) == 0


def test_resample_identity_same_rate():
    clip = tone()
    assert dsp.resample(clip, 22050) is clip


def test_resample_tone_peak_and_duration():
    for src_rate in (8000, 16000, 44100, 48000):
        clip = tone(freq=440.0, seconds=1.0, rate=src_rate)
        out = dsp.resample(clip, 22050)
        assert out.sample_rate == 22050
        assert abs(out.samples.size / 22050 - clip.samples.size / src_rate) <= 1.0 / 22050
        seg = out.samples[: 2048] * np.hamming(2048)
        spec = np.abs(np.fft.rfft(seg))
        peak_hz = np.argmax(spec) * 22050 / 2048
        assert abs(peak_hz - 440.0) <= 22050 / 2048  # within one bin


@pytest.mark.parametrize("src,dst", [(8000, 22050), (16000, 22050), (44100, 22050),
                                     (48000, 22050), (22050, 8000), (22050, 16000),
                                     (22050, 44100), (22050, 48000)])
def test_resample_matches_scipy(src, dst):
    import scipy.signal

    rng = np.random.default_rng(src + dst)
    g = np.gcd(src, dst)
    # 7 samples is shorter than every filter half-length here
    for n in (7, src // 3 + 1):
        x = rng.uniform(-1, 1, n)
        want = scipy.signal.resample_poly(x, dst // g, src // g)
        got = dsp.resample(dsp.AudioClip(samples=x, sample_rate=src), dst).samples
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12


def _phase_loop_resample(x, src, dst):
    """resample as its first numpy form: one matrix-vector product per
    filter phase, over the strided windows of the outputs it serves."""
    g = np.gcd(src, dst)
    up, down = dst // g, src // g
    phases, half_len = dsp._polyphase_filter(up, down)
    taps = phases.shape[1]
    n_out = -(-x.size * up // down)
    last = ((n_out - 1) * down + half_len) // up
    padded = np.zeros(taps - 1 + max(x.size, last + 1))
    padded[taps - 1 : taps - 1 + x.size] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, taps)
    out = np.empty(n_out)
    for r in range(min(up, n_out)):
        t = r * down + half_len
        out[r::up] = windows[t // up :: down][: len(range(r, n_out, up))] @ phases[t % up]
    return out


@pytest.mark.parametrize("src,dst", [(8000, 22050), (11025, 22050), (16000, 22050),
                                     (22049, 22050), (24000, 22050), (32000, 22050),
                                     (44100, 22050), (48000, 22050), (96000, 22050),
                                     (22050, 8000)])
def test_band_gemm_resample_matches_the_phase_loop(src, dst):
    rng = np.random.default_rng(src + dst)
    up = dst // np.gcd(src, dst)
    lengths = [1, 7, up - 1, up, up + 1, *rng.integers(2, 3 * src, 2)]
    for n in filter(None, lengths):
        x = rng.uniform(-1, 1, n)
        want = _phase_loop_resample(x, src, dst)
        got = dsp.resample(dsp.AudioClip(samples=x, sample_rate=src), dst)
        assert got.sample_rate == dst and got.samples.shape == want.shape, n
        assert np.max(np.abs(got.samples - want)) <= 1e-14, n


def test_band_matrices_stay_within_three_filters():
    # 52427 Hz is coprime to 22050 and has the longest filter under the cap
    # (52428 Hz shares a factor of 6 with 22050)
    up, down = 22050, 52427
    assert np.gcd(up, down) == 1 and 20 * (down + 1) + 1 <= dsp.MAX_FILTER_TAPS
    assert 20 * (down + 2) + 1 > dsp.MAX_FILTER_TAPS
    taps, start, span, bands = dsp._resample_bands(up, down)
    entries = sum(m.size for _, _, m in bands)
    assert entries <= 3 * (20 * max(up, down) + 1)
    assert [c.start for c, _, _ in bands] == list(range(0, up, dsp.RESAMPLE_BAND))
    assert all(r.stop <= span and m.shape == (r.stop - r.start, c.stop - c.start)
               for c, r, m in bands)


def test_wav_files_of_any_length_and_rate_resample_like_the_phase_loop(tmp_path):
    rng = np.random.default_rng(11)
    plan = [(16000, 1.0), (48000, 2.5), (16000, 0.3), (22050, 0.8), (8000, 3.0),
            (44100, 0.5), (11025, 1.2), (16000, 2.9), (48000, 0.01), (32000, 1.1)]
    for i, (rate, seconds) in enumerate(plan):
        path = tmp_path / f"{i}.wav"
        samples = rng.uniform(-1, 1, max(1, int(rate * seconds)))
        dsp.write_wav_pcm16(path, dsp.AudioClip(samples=samples, sample_rate=rate))
        read = dsp.read_wav(path)
        assert np.max(np.abs(read.samples - samples)) < 1e-4, (rate, seconds)
        got = dsp.resample(read)
        assert got.sample_rate == 22050
        if rate == 22050:
            assert got is read
        else:
            want = _phase_loop_resample(read.samples, rate, 22050)
            assert np.max(np.abs(got.samples - want)) <= 1e-14, (rate, seconds)


def test_resample_rejects_rates_whose_filter_passes_the_cap(tmp_path, monkeypatch):
    for rate in (8000, 11025, 16000, 22050, 24000, 32000, 44100, 48000, 88200,
                 96000, 192000, 384000):
        out = dsp.resample(dsp.AudioClip(samples=np.zeros(64), sample_rate=rate))
        assert out.sample_rate == 22050
    # a PCM16 header at the largest u32 rate: gcd 15 leaves down = 286331153,
    # a filter of ~5.7e9 taps
    rate = 2**32 - 1
    fmt = struct.pack("<HHIIHH", 1, 1, rate, rate, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", 8)
    path = tmp_path / "odd.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body) + 8) + body + bytes(8))
    clip = dsp.read_wav(path)
    assert clip.sample_rate == rate

    def no_filter(up, down):
        raise AssertionError(f"filter built for up={up}, down={down}")

    monkeypatch.setattr(dsp, "_polyphase_filter", no_filter)
    with pytest.raises(DataError, match=f"{rate} Hz to 22050 Hz"):
        dsp.resample(clip)


def test_resample_bounds_its_output_per_input_sample(tmp_path, monkeypatch):
    # every common rate passes (test_resample_rejects_rates_whose_filter_passes_the_cap);
    # 1 Hz would ask for 22050 outputs per input sample; the limit sits at
    # 22050 / MAX_UPSAMPLING Hz
    fmt = struct.pack("<HHIIHH", 1, 1, 1, 2, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", 8)
    path = tmp_path / "slow.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body) + 8) + body + bytes(8))
    clip = dsp.read_wav(path)
    assert clip.sample_rate == 1

    def no_filter(up, down):
        raise AssertionError(f"filter built for up={up}, down={down}")

    monkeypatch.setattr(dsp, "_polyphase_filter", no_filter)
    for rate in (1, 22050 // dsp.MAX_UPSAMPLING):
        with pytest.raises(DataError, match=f"cannot resample {rate} Hz to 22050 Hz"):
            dsp.resample(dsp.AudioClip(samples=np.zeros(4), sample_rate=rate))
    with pytest.raises(DataError, match="1 Hz to 22050 Hz"):
        dsp.resample(clip)


def test_write_wav_matches_scipy_bytes(tmp_path):
    import scipy.io.wavfile

    clip = tone(seconds=0.3, amp=1.2)  # clipped at full scale
    ours, ref = tmp_path / "ours.wav", tmp_path / "ref.wav"
    dsp.write_wav_pcm16(ours, clip)
    pcm = np.clip(np.round(clip.samples * 32767.0), -32768, 32767).astype(np.int16)
    scipy.io.wavfile.write(ref, clip.sample_rate, pcm)
    assert ours.read_bytes() == ref.read_bytes()


def test_import_loads_no_scipy():
    code = ("import sys, gmtc, gmtc.cli, gmtc.trainer, gmtc.analysis; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_wav_roundtrip_pcm16(tmp_path):
    clip = tone(seconds=0.2)
    path = tmp_path / "t.wav"
    dsp.write_wav_pcm16(path, clip)
    back = dsp.read_wav(path)
    assert back.sample_rate == 22050
    assert np.max(np.abs(back.samples - clip.samples)) < 1e-4
    assert np.max(np.abs(back.samples)) <= 1.0


def test_wav_read_through_a_fifo_matches_the_file(tmp_path):
    # a FIFO's size is 0 until its writer closes it
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    path, fifo = tmp_path / "t.wav", tmp_path / "t.fifo"
    dsp.write_wav_pcm16(path, tone(seconds=0.2))
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
    writer.start()
    try:
        back = dsp.read_wav(fifo)
    finally:
        writer.join()
    assert back.sample_rate == 22050
    assert back.samples.tobytes() == dsp.read_wav(path).samples.tobytes()


def _extensible_wav(tag, channels, rate, bits, payload, extra=b""):
    """A WAVE_FORMAT_EXTENSIBLE file whose subformat GUID carries `tag`,
    with an optional chunk image placed before the data chunk."""
    align = channels * bits // 8
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, channels, rate, rate * align, align,
                      bits, 22, bits, 0)
    fmt += struct.pack("<I", tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + extra
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_wav_stereo_averaged_and_float32(tmp_path):
    import scipy.io.wavfile

    rng = np.random.default_rng(4)
    pcm = (rng.uniform(-0.9, 0.9, size=(400, 2)) * 32767).astype(np.int16)
    f32 = rng.uniform(-0.9, 0.9, size=(300, 2)).astype(np.float32)
    cases = [(pcm[:, 0], pcm[:, 0] / 32768.0), (pcm, (pcm / 32768.0).mean(axis=1)),
             (f32[:, 0], f32[:, 0].astype(np.float64)),
             (f32, f32.astype(np.float64).mean(axis=1))]
    for i, (data, want) in enumerate(cases):
        p = tmp_path / f"s{i}.wav"
        scipy.io.wavfile.write(p, 16000, data)
        clip = dsp.read_wav(p)
        assert clip.sample_rate == 16000
        assert np.array_equal(clip.samples, want)
        channels = data.shape[1] if data.ndim == 2 else 1
        tag = 3 if data.dtype == np.float32 else 1
        # the same samples as an EXTENSIBLE file, behind an odd-size chunk
        odd = b"LIST" + struct.pack("<I", 3) + b"abc\x00"
        p.write_bytes(_extensible_wav(tag, channels, 16000, data.itemsize * 8,
                                      data.tobytes(), extra=odd))
        clip = dsp.read_wav(p)
        assert np.array_equal(clip.samples, want)


def test_wav_unsupported_format_rejected(tmp_path):
    import scipy.io.wavfile

    p = tmp_path / "bad.wav"
    scipy.io.wavfile.write(p, 8000, np.zeros(100, dtype=np.int32))
    with pytest.raises(DataError):
        dsp.read_wav(p)
    samples = np.zeros(4000, dtype=np.float32)
    samples[100] = np.nan
    scipy.io.wavfile.write(p, 16000, samples)
    with pytest.raises(DataError, match="non-finite"):
        dsp.read_wav(p)


def test_pad_unpad_roundtrip():
    fm = dsp.mfcc_39(tone(seconds=1.0), clip_id="x")
    padded = dsp.pad_to(fm, 96)
    assert padded.frames.shape == (96, 39)
    assert padded.true_len == 77
    assert np.array_equal(dsp.unpad(padded), fm.frames)
    assert np.all(padded.frames[77:] == 0)


def test_pad_truncates_and_counts():
    fm = dsp.mfcc_39(tone(seconds=1.0))
    cut = dsp.pad_to(fm, 64)
    assert cut.frames.shape == (64, 39)
    assert cut.true_len == 64
    assert np.array_equal(cut.frames, fm.frames[:64])


def test_round_up_multiple():
    assert dsp.round_up_multiple(77) == 96
    assert dsp.round_up_multiple(64) == 64
    assert dsp.round_up_multiple(1) == 32


def test_cache_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(2)
    feats = []
    for i in range(5):
        t = int(rng.integers(3, 40))
        frames = rng.standard_normal((t, 39)).astype(np.float32)
        feats.append(dsp.FeatureMatrix(frames=frames, true_len=t, clip_id=f"clip/{i}.wav"))
    path = tmp_path / "f.cache"
    dsp.cache_write(path, feats)
    back = dsp.cache_read(path)
    assert len(back) == 5
    for a, b in zip(feats, back):
        assert a.clip_id == b.clip_id
        assert a.true_len == b.true_len
        assert np.array_equal(a.frames, b.frames)
    # same write twice -> identical bytes
    path2 = tmp_path / "g.cache"
    dsp.cache_write(path2, feats)
    assert path.read_bytes() == path2.read_bytes()


def test_cache_byte_layout(tmp_path):
    frames = (np.arange(2 * 39, dtype=np.float32) / 7).reshape(2, 39)
    ident = "dir/ü.wav".encode("utf-8")
    want = (b"GMTC" + struct.pack("<II", 1, 1)  # magic, version, record count
            + struct.pack("<I", len(ident)) + ident
            + struct.pack("<III", 2, 1, 39)  # T, true_len, C
            + struct.pack("<78f", *frames.ravel()))
    path = tmp_path / "one.cache"
    dsp.cache_write(path, [dsp.FeatureMatrix(frames=frames, true_len=1, clip_id="dir/ü.wav")])
    assert path.read_bytes() == want
    (back,) = dsp.cache_read(path)
    assert (back.clip_id, back.true_len) == ("dir/ü.wav", 1)
    assert back.frames.dtype == np.float32 and np.array_equal(back.frames, frames)


def test_cache_rejects_corruption(tmp_path):
    fm = dsp.FeatureMatrix(frames=np.zeros((4, 39), np.float32), true_len=4, clip_id="a")
    path = tmp_path / "c.cache"
    dsp.cache_write(path, [fm])
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.cache"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        dsp.cache_read(bad)
    trunc = tmp_path / "trunc.cache"
    trunc.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataError):
        dsp.cache_read(trunc)
