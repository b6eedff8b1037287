import re

import numpy as np
import pytest

from gmtc import analysis, dsp, model, ops
from gmtc.errors import DataError, NumericError


def test_entropy_constant_map_is_zero():
    assert analysis.entropy_2d(np.full((7, 5), 9, dtype=np.uint8)) == 0.0


def test_entropy_checkerboard_hand_value():
    img = np.array([[0, 255], [255, 0]], dtype=np.uint8)
    assert abs(analysis.entropy_2d(img) - 1.0) < 1e-12


def test_entropy_transposition_invariant_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        w, h = int(rng.integers(2, 18)), int(rng.integers(2, 18))
        img = rng.integers(0, 256, size=(w, h)).astype(np.uint8)
        e = analysis.entropy_2d(img)
        assert abs(e - analysis.entropy_2d(img.T)) < 1e-12
        assert 0.0 <= e <= 16.0


def test_entropy_shift_invariant_without_clipping():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 200, size=(9, 11)).astype(np.uint8)
    shifted = (img + 50).astype(np.uint8)
    assert abs(analysis.entropy_2d(img) - analysis.entropy_2d(shifted)) < 1e-12


def test_entropy_rejects_bad_input():
    with pytest.raises(DataError):
        analysis.entropy_2d(np.zeros((1, 5), dtype=np.uint8))
    with pytest.raises(DataError):
        analysis.entropy_2d(np.zeros((4, 4), dtype=np.float32))
    with pytest.raises(DataError):
        analysis.entropy_2d(np.full((3, 3), 300, dtype=np.int32))


def test_normalize_u8():
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((6, 8)).astype(np.float32)
    u8 = analysis.normalize_u8(vals)
    assert u8.dtype == np.uint8
    assert u8.min() == 0 and u8.max() == 255
    assert u8[np.unravel_index(vals.argmax(), vals.shape)] == 255
    assert np.all(analysis.normalize_u8(np.full((4, 4), 3.3)) == 0)


def test_export_feature_maps_counts_and_tags():
    cfg = model.ModelConfig(n_gcb=3, gating_levels=1, n_gscb=1, n_classes=3, seq_len=32)
    params = model.init_params(cfg, seed=0)
    frames = np.random.default_rng(3).standard_normal((32, 39)).astype(np.float32)
    fm = dsp.FeatureMatrix(frames=frames, true_len=20, clip_id="c")
    maps = analysis.export_feature_maps(cfg, params, fm)
    assert len(maps) == cfg.n_gcb + 2
    assert [m.source for m in maps] == ["input", "gcb_1", "gcb_2", "gcb_3", "gtcm_output"]
    for m in maps:
        assert m.values.shape == (20, 39)  # padding removed
        assert m.u8.shape == (20, 39) and m.u8.dtype == np.uint8
    assert np.array_equal(maps[0].values, frames[:20])


def test_pgm_header_and_payload():
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    blob = analysis.pgm_bytes(img)
    assert blob.startswith(b"P5\n4 3\n255\n")
    assert blob[len(b"P5\n4 3\n255\n"):] == img.tobytes()


def test_map_csv_roundtrip():
    vals = np.random.default_rng(5).standard_normal((256, 39)).astype(np.float32)
    f32 = np.finfo(np.float32)
    # signed zeros, the smallest subnormal, the extremes, and values that
    # print in exponent form
    vals[0, :8] = [0.0, -0.0, f32.smallest_subnormal, -f32.smallest_subnormal,
                   f32.max, -f32.max, 1.0000001e-5, 3.0e12]
    text = analysis.map_csv(vals)
    lines = text.splitlines()
    assert text.endswith("\n") and len(lines) == 256
    assert "e-05" in lines[0] and "e+12" in lines[0] and "e-45" in lines[0]
    back = np.array([line.split(",") for line in lines], dtype=np.float32)
    assert np.array_equal(back.view(np.uint32), vals.view(np.uint32))


MAP_FIELD = re.compile(r"[+-]\d\.\d{8}e[+-]\d\d")


def test_map_csv_writes_fixed_width_fields():
    rng = np.random.default_rng(6)
    scales = 10.0 ** rng.integers(-44, 37, size=(40, 7))
    vals = (rng.standard_normal((40, 7)) * scales).astype(np.float32)
    f32 = np.finfo(np.float32)
    vals[0] = [0.0, -0.0, f32.smallest_subnormal, -f32.smallest_subnormal,
               f32.max, -f32.max, 1.0]
    text = analysis.map_csv(vals)
    lines = text.splitlines(keepends=True)
    assert len(lines) == 40
    for line in lines:
        assert len(line) == 16 * 7 and line.endswith("\n")
        assert all(MAP_FIELD.fullmatch(f) for f in line[:-1].split(",")), line
    # the same digits as Python's own formatting of each value
    assert text == "".join(",".join("%+.8e" % x for x in row) + "\n"
                           for row in vals.tolist())


def test_map_csv_roundtrips_next_to_every_power_of_ten():
    # log10 of a float32 next to a power of ten can land on the wrong side
    # of an integer; these values take the exponent correction both ways
    tens = np.array([float(f"1e{k}") for k in range(-45, 39)]).astype(np.float32)
    vals = np.stack([np.nextafter(tens, np.float32(0)), tens,
                     np.nextafter(tens, np.float32(np.inf))], axis=1)
    vals = np.concatenate([vals, -vals])
    lines = analysis.map_csv(vals).splitlines()
    fields = [line.split(",") for line in lines]
    assert all(MAP_FIELD.fullmatch(f) for row in fields for f in row)
    back = np.array(fields, dtype=np.float32)
    assert np.array_equal(back.view(np.uint32), vals.view(np.uint32))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_map_csv_refuses_non_finite_values(bad):
    vals = np.ones((3, 4), dtype=np.float32)
    vals[2, 1] = bad
    with pytest.raises(NumericError, match="non-finite"):
        analysis.map_csv(vals)


def pooled_clusters(n=24, seed=4):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((3, 39)) * 3
    rows = [centers[i % 3] + 0.2 * rng.standard_normal(39) for i in range(n)]
    return np.array(rows, dtype=np.float32)


def test_ae_shapes_and_determinism():
    data = pooled_clusters()
    m1 = analysis.ae_train(data, seed=5, epochs=30)
    m2 = analysis.ae_train(data, seed=5, epochs=30)
    p1 = analysis.ae_project(m1, data)
    p2 = analysis.ae_project(m2, data)
    assert p1.shape == (24, 2)
    assert np.array_equal(p1, p2)
    assert np.all(np.isfinite(p1))


def test_ae_training_reduces_mse():
    data = pooled_clusters().astype(np.float32)

    def mse(params):
        recon, _ = analysis._ae_forward(params, data)
        return float(np.mean((recon - data) ** 2))

    trained = analysis.ae_train(data, seed=6, epochs=60)
    assert mse(trained) < mse(analysis._ae_init(6))


def test_ae_layer_structure():
    params = analysis._ae_init(0)
    widths = [params[f"l{i}.w"].shape for i in range(8)]
    assert widths == [(64, 39), (16, 64), (8, 16), (2, 8),
                      (8, 2), (16, 8), (128, 16), (39, 128)]


def test_ae_rejects_bad_input():
    with pytest.raises(DataError):
        analysis.ae_train(np.zeros((5, 39), np.float32), seed=0)  # too few
    with pytest.raises(DataError):
        analysis.ae_train(np.zeros((20, 13), np.float32), seed=0)  # wrong width
    m = analysis.ae_train(pooled_clusters(), seed=0, epochs=2)
    with pytest.raises(DataError):
        analysis.ae_project(m, np.zeros((4, 12), np.float32))


def test_pooled_features_and_entropy():
    cfg = model.ModelConfig(n_gcb=2, gating_levels=1, n_gscb=1, n_classes=3, seq_len=32)
    params = model.init_params(cfg, seed=7)
    frames = np.random.default_rng(8).standard_normal((32, 39)).astype(np.float32)
    fm = dsp.FeatureMatrix(frames=frames, true_len=32, clip_id="c")
    vec = analysis.pooled_features(cfg, params, [fm])
    assert vec.shape == (1, 39)
    (e,) = analysis.utterance_entropy(cfg, params, [fm])
    assert 0.0 <= e <= 16.0


def test_batched_analysis_matches_per_clip_forward(monkeypatch):
    """One padded batch gives each clip what its own forward gives: the
    pooled vector of its padded frames, and the map of its real frames
    (convolutions are causal and padding trails). The maps of short clips
    may differ in the last bits, because OpenBLAS picks its GEMM kernel by
    the row count and a short clip alone has few rows; the entropy of a
    bit-equal map must be equal."""
    cfg = model.ModelConfig(n_gcb=3, gating_levels=2, n_gscb=2, n_classes=3,
                            seq_len=1024)
    params = model.init_params(cfg, seed=9)
    rng = np.random.default_rng(10)
    clips = []
    for i, n in enumerate([1024, 5, 700, 3, 8, 1000, 257, 64, 2, 900]):
        frames = np.zeros((1024, 39), np.float32)
        frames[:n] = rng.standard_normal((n, 39))
        clips.append(dsp.FeatureMatrix(frames=frames, true_len=n, clip_id=f"c{i}"))
    assert len(model.sequence_groups(len(clips), 1024)) == 3
    want_pooled = np.stack([ops.global_avg_pool(model.forward_with_maps(
        fm.frames, cfg, params)[1][-1]) for fm in clips])
    skips = [model.forward_with_maps(dsp.unpad(fm), cfg, params)[1][-1] for fm in clips]
    want_bits = [analysis.entropy_2d(analysis.normalize_u8(m)) for m in skips]
    for threads in ("1", "2"):
        monkeypatch.setenv("GMTC_THREADS", threads)
        assert analysis.pooled_features(cfg, params, clips).tobytes() == want_pooled.tobytes()
        bits = analysis.utterance_entropy(cfg, params, clips)
        batched = model.forward_groups(np.stack([fm.frames for fm in clips]), cfg, params,
                                       lambda rows, a: list(a))
        maps = [m[: fm.true_len] for m, fm in
                zip((m for group in batched for m in group), clips)]
        for m, skip, got, want in zip(maps, skips, bits, want_bits):
            assert np.allclose(m, skip, rtol=0, atol=1e-6)
            if m.tobytes() == skip.tobytes():
                assert got == want
        # the long clips, padded or not, run through the same kernels
        assert all(m.tobytes() == skip.tobytes()
                   for m, skip in zip(maps, skips) if len(skip) >= 257)


def test_batched_analysis_needs_one_padded_length():
    cfg = model.ModelConfig(n_gcb=1, gating_levels=1, n_gscb=1, n_classes=3, seq_len=32)
    params = model.init_params(cfg, seed=0)
    clips = [dsp.FeatureMatrix(frames=np.ones((t, 39), np.float32), true_len=t,
                               clip_id=str(t)) for t in (32, 16)]
    with pytest.raises(DataError, match="common length"):
        analysis.utterance_entropy(cfg, params, clips)
