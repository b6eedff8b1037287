"""Acceptance suite: ten checks covering structure, causality, gradients,
metrics, learning, entropy, multi-scale behavior, the MFCC pipeline, CLI
determinism, and an optional real-data soft check.

Each test prints one PASS line on success; pytest -v adds its own
per-criterion verdict. The real-data check (10) is skipped unless
GMTC_EMODB_DIR points at a local copy of that corpus, and is soft: it
reports, it never gates.
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from gmtc import analysis, dsp, ops, trainer
from gmtc.cli import main as cli_main
from gmtc.corpus import load_manifest_csv, make_splits
from gmtc.metrics import compute_report
from gmtc.model import (ModelConfig, backward, forward, forward_with_cache,
                        forward_with_maps, init_params, param_count,
                        param_specs)
from gmtc.trainer import TrainConfig

from helpers import central_diff, nearest_centroid_war, rel_err

TMAX = 128  # acceptance-corpus frame length: bounds runtime, keeps >1.5 s of signal


def run_cli(args):
    assert cli_main(args) == 0, f"cli failed: {args}"


@pytest.fixture(scope="session", autouse=True)
def _serial_workers():
    old = os.environ.get("GMTC_THREADS")
    os.environ["GMTC_THREADS"] = "2"
    yield
    if old is None:
        os.environ.pop("GMTC_THREADS", None)
    else:
        os.environ["GMTC_THREADS"] = old


@pytest.fixture(scope="session")
def corpus60(tmp_path_factory):
    """60-clip synthetic corpus with cached features, shared by the learning
    criteria."""
    root = tmp_path_factory.mktemp("acc60")
    run_cli(["synth", "--seed", "0", "--out", str(root / "corpus"),
             "--per-class", "10"])
    run_cli(["features", "--corpus", str(root / "corpus" / "manifest.csv"),
             "--tmax", str(TMAX), "--out", str(root / "cache.bin")])
    features = dsp.cache_read(root / "cache.bin")
    manifest = load_manifest_csv(str(root / "cache.bin") + ".manifest.csv")
    fold = make_splits(manifest, "holdout_80_20", seed=0).folds[0]
    return features, manifest, fold


# 1 ---------------------------------------------------------------------

def test_criterion_01_structural_param_oracle():
    table = [("ours", 7, 260_604, "0.261M"), ("ours", 6, 223_632, "0.224M"),
             ("raw", 7, 260_604, "0.261M"), ("raw", 8, 297_576, "0.298M")]
    for scheme, n_gcb, expect, rounded in table:
        cfg = ModelConfig(drd_scheme=scheme, n_gcb=n_gcb, n_classes=6)
        assert param_count(cfg) == expect, (scheme, n_gcb)
        params = init_params(cfg, seed=0)
        assert sum(p.size for p in params.values()) == expect
        assert f"{expect / 1e6:.3f}M" == rounded
    print("ACCEPTANCE 1 (structural param oracle): PASS")


# 2 ---------------------------------------------------------------------

def test_criterion_02_causality_suite():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        cfg = ModelConfig(
            channels=int(rng.integers(3, 7)),
            kernel_size=int(rng.choice([1, 2])),
            n_gcb=int(rng.integers(1, 5)),
            gating_levels=int(rng.integers(1, 4)),
            n_gscb=int(rng.integers(1, 4)),
            drd_scheme=str(rng.choice(["ours", "raw"])),
            skip_mode=str(rng.choice(["multi_scale", "max_scale"])),
            n_classes=3,
            seq_len=int(rng.integers(10, 21)),
        )
        params = init_params(cfg, seed=trial)
        x = rng.standard_normal((cfg.seq_len, cfg.channels)).astype(np.float32)
        t = int(rng.integers(1, cfg.seq_len))
        y = x.copy()
        y[t] += rng.standard_normal(cfg.channels).astype(np.float32)
        _, maps_a = forward_with_maps(x, cfg, params)
        _, maps_b = forward_with_maps(y, cfg, params)
        assert len(maps_a) == cfg.n_gcb + 2
        for m_a, m_b in zip(maps_a, maps_b):
            assert np.array_equal(m_a[:t], m_b[:t]), \
                f"trial {trial}: frames before {t} changed"
    print("ACCEPTANCE 2 (causality, 50 random configs): PASS")


# 3 ---------------------------------------------------------------------

def _op_gradchecks():
    rng = np.random.default_rng(3)
    worst = 0.0
    # dilated causal conv, both argument slots
    for dil in (1, 2, 4):
        x = rng.standard_normal((9, 3))
        p = ops.ConvParams(kernel=rng.standard_normal((2, 3, 2)) * 0.5,
                           bias=rng.standard_normal(2) * 0.1, dilation=dil)
        g = rng.standard_normal((9, 2))

        def f_x(v):
            return float(np.sum(ops.conv1d_causal(v, p) * g))

        gx, gk, gb = ops.conv1d_causal_backward(x, p, g)
        worst = max(worst, rel_err(gx, central_diff(f_x, x)))

        def f_k(v):
            q = ops.ConvParams(kernel=v, bias=p.bias, dilation=dil)
            return float(np.sum(ops.conv1d_causal(x, q) * g))

        worst = max(worst, rel_err(gk, central_diff(f_k, p.kernel)))

        def f_b(v):
            q = ops.ConvParams(kernel=p.kernel, bias=v, dilation=dil)
            return float(np.sum(ops.conv1d_causal(x, q) * g))

        worst = max(worst, rel_err(gb, central_diff(f_b, p.bias)))
    # activations / pool / dense / fused loss
    x = rng.uniform(0.1, 1.5, (6, 4)) * rng.choice([-1.0, 1.0], (6, 4))
    g = rng.standard_normal((6, 4))
    worst = max(worst, rel_err(ops.relu_backward(x, g),
                               central_diff(lambda v: float(np.sum(ops.relu(v) * g)), x)))
    worst = max(worst, rel_err(ops.leaky_relu_backward(x, 0.05, g),
                               central_diff(lambda v: float(np.sum(ops.leaky_relu(v, 0.05) * g)), x)))
    s = ops.sigmoid(x)
    worst = max(worst, rel_err(ops.sigmoid_backward(s, g),
                               central_diff(lambda v: float(np.sum(ops.sigmoid(v) * g)), x)))
    gp = rng.standard_normal(4)
    worst = max(worst, rel_err(ops.global_avg_pool_backward(x.shape, gp),
                               central_diff(lambda v: float(np.sum(ops.global_avg_pool(v) * gp)), x)))
    w = rng.standard_normal((3, 4)) * 0.5
    b = rng.standard_normal(3) * 0.1
    gd = rng.standard_normal(3)
    gxd, gwd, gbd = ops.dense_backward(x.mean(axis=0), w, gd)
    worst = max(worst, rel_err(gwd, central_diff(
        lambda v: float(np.sum(ops.dense(x.mean(axis=0), v, b) * gd)), w)))
    worst = max(worst, rel_err(gxd, central_diff(
        lambda v: float(np.sum(ops.dense(v, w, b) * gd)), x.mean(axis=0))))
    worst = max(worst, rel_err(gbd, central_diff(
        lambda v: float(np.sum(ops.dense(x.mean(axis=0), w, v) * gd)), b)))
    logits = rng.standard_normal((5, 3))
    labels = rng.integers(0, 3, 5)
    _, grad = ops.softmax_cross_entropy(logits, labels)
    worst = max(worst, rel_err(grad, central_diff(
        lambda v: float(ops.softmax_cross_entropy(v, labels)[0]), logits)))
    return worst


def _full_model_gradcheck():
    cfg = ModelConfig(channels=4, kernel_size=2, n_gcb=2, gating_levels=2,
                      n_gscb=2, n_classes=3, seq_len=7)
    params = {k: v.astype(np.float64) for k, v in init_params(cfg, seed=5).items()}
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, cfg.seq_len, cfg.channels))
    labels = np.array([0, 2])

    def loss_with(name, value):
        trial = dict(params)
        trial[name] = value
        logits, _ = forward_with_cache(x, cfg, trial)
        return float(ops.softmax_cross_entropy(logits, labels)[0])

    logits, cache = forward_with_cache(x, cfg, params)
    _, grad_logits = ops.softmax_cross_entropy(logits, labels)
    grads = backward(cfg, params, cache, grad_logits)
    worst = 0.0
    for name, _, _, _ in param_specs(cfg):
        fd = central_diff(lambda v: loss_with(name, v), params[name])
        worst = max(worst, rel_err(grads[name], fd))
    return worst


def test_criterion_03_gradient_suite():
    worst_ops = _op_gradchecks()
    assert worst_ops < 1e-4, worst_ops
    worst_model = _full_model_gradcheck()
    assert worst_model < 1e-3, worst_model
    print(f"ACCEPTANCE 3 (gradients: ops {worst_ops:.2e} < 1e-4, "
          f"model {worst_model:.2e} < 1e-3): PASS")


# 4 ---------------------------------------------------------------------

def test_criterion_04_metric_oracle():
    report = compute_report(["A", "A", "A", "B"], ["A", "A", "A", "A"],
                            ["A", "B"])
    assert report.war == 0.75 and report.uar == 0.5
    rng = np.random.default_rng(4)
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(1, 60))
        labels = [f"c{i}" for i in range(k)]
        true = [labels[i] for i in rng.integers(0, k, n)]
        pred = [labels[i] for i in rng.integers(0, k, n)]
        rep = compute_report(true, pred, labels)
        correct = sum(t == p for t, p in zip(true, pred))
        assert rep.war == correct / n  # exact
        recalls = []
        for lab in labels:
            hits = sum(1 for t, p in zip(true, pred) if t == lab and p == lab)
            total = sum(1 for t in true if t == lab)
            if total:
                recalls.append(hits / total)
        assert rep.uar == float(np.mean(recalls))
    print("ACCEPTANCE 4 (metric oracle, 1000 random sets): PASS")


# 5 ---------------------------------------------------------------------

def test_criterion_05_overfit_smoke(corpus60):
    features, manifest, fold = corpus60
    baseline = nearest_centroid_war(features, manifest, fold)
    cfg = ModelConfig(n_gcb=4, n_classes=6, seq_len=TMAX)
    tcfg = TrainConfig(max_epochs=120, patience=120, seed=0)
    t0 = time.perf_counter()
    result = trainer.train(features, manifest, fold, cfg, tcfg)
    elapsed = time.perf_counter() - t0
    first_full = next((h.epoch for h in result.history if h.train_war == 1.0),
                      None)
    assert first_full is not None, "train WAR never reached 100%"
    assert first_full <= 300
    report = trainer.evaluate(cfg, result.params, features, manifest, fold[1])
    assert report.war > baseline, (report.war, baseline)
    assert elapsed < 600, f"{elapsed:.0f}s exceeds the 10 min budget"
    print(f"ACCEPTANCE 5 (overfit smoke: train 100% at epoch {first_full}, "
          f"held-out {report.war:.3f} > centroid {baseline:.3f}, "
          f"{elapsed:.0f}s): PASS")


# 6 ---------------------------------------------------------------------

def test_criterion_06_entropy_oracle():
    assert analysis.entropy_2d(np.full((7, 9), 42, dtype=np.uint8)) == 0.0
    checker = np.array([[0, 255], [255, 0]], dtype=np.uint8)
    assert abs(analysis.entropy_2d(checker) - 1.0) < 1e-12
    rng = np.random.default_rng(6)
    for _ in range(100):
        img = rng.integers(0, 256, (int(rng.integers(2, 12)),
                                    int(rng.integers(2, 12)))).astype(np.uint8)
        assert abs(analysis.entropy_2d(img) -
                   analysis.entropy_2d(img.T)) < 1e-12
    print("ACCEPTANCE 6 (entropy oracle): PASS")


# 7 ---------------------------------------------------------------------

def test_criterion_07_multi_scale_property(corpus60):
    # The advantage of summing skips from every block over keeping only the
    # last block's shows up most clearly as faster convergence, so the
    # comparison runs at a short fixed horizon where that speed difference
    # is visible; both variants train identically per seed.
    features, manifest, fold = corpus60
    wins = 0
    details = []
    for seed in range(5):
        wars = {}
        for mode in ("multi_scale", "max_scale"):
            cfg = ModelConfig(n_gcb=3, n_gscb=2, n_classes=6, seq_len=TMAX,
                              skip_mode=mode)
            tcfg = TrainConfig(max_epochs=15, patience=15, seed=seed)
            wars[mode] = trainer.train(features, manifest, fold, cfg,
                                       tcfg).report.war
        wins += wars["multi_scale"] >= wars["max_scale"]
        details.append(f"s{seed}:{wars['multi_scale']:.2f}/{wars['max_scale']:.2f}")
    assert wins >= 4, f"multi_scale >= max_scale in only {wins}/5 seeds"
    # direction check only; the published +8.64% WAR gap is reference, not a gate
    print(f"ACCEPTANCE 7 (multi_scale >= max_scale in {wins}/5 seeds; "
          f"{' '.join(details)}): PASS")


# 8 ---------------------------------------------------------------------

def test_criterion_08_mfcc_pipeline():
    frames = dsp.frame_signal(dsp.AudioClip(samples=np.zeros(22050),
                                            sample_rate=22050))
    assert frames.shape == (77, 1102)
    assert abs(np.hamming(1102)[0] - 0.08) < 1e-4
    mel_700 = 2595.0 * np.log10(1.0 + 700.0 / 700.0)
    assert abs(mel_700 - 781.17) < 1e-2
    from scipy.fft import dct
    flat = dct(np.full(dsp.N_MELS, 3.7), type=2, norm="ortho")
    assert abs(flat[0] - 3.7 * np.sqrt(dsp.N_MELS)) < 1e-4
    assert np.max(np.abs(flat[1:])) < 1e-4
    t = np.arange(22050) / 22050.0
    clip = dsp.AudioClip(samples=(0.4 * np.sin(2 * np.pi * 440 * t)),
                         sample_rate=22050)
    fm = dsp.mfcc_39(clip, clip_id="tone")
    assert fm.frames.shape == (77, 39) and fm.frames.dtype == np.float32
    print("ACCEPTANCE 8 (MFCC pipeline spot values): PASS")


# 9 ---------------------------------------------------------------------

def test_criterion_09_cli_determinism(tmp_path):
    def digest(path):
        with open(path, "rb") as fh:
            return fh.read()

    run_cli(["synth", "--seed", "11", "--out", str(tmp_path / "corpus"),
             "--per-class", "5"])
    caches = []
    for tag in ("a", "b"):
        cache = tmp_path / f"cache_{tag}.bin"
        run_cli(["features", "--corpus", str(tmp_path / "corpus" / "manifest.csv"),
                 "--tmax", "96", "--out", str(cache)])
        caches.append(digest(cache))
    assert caches[0] == caches[1], "feature caches differ between runs"

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("n_gcb=1\ngating_levels=1\nn_gscb=1\nmax_epochs=2\n"
                   "batch_size=8\n")
    run_dirs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}"
        run_cli(["train", "--features", str(tmp_path / "cache_a.bin"),
                 "--config", str(cfg), "--seed", "3", "--out", str(out)])
        run_dirs.append(out)
    for name in ("fold_0.ckpt", "report_0.json", "confusion_0.csv",
                 "summary.json"):
        assert digest(run_dirs[0] / name) == digest(run_dirs[1] / name), name

    proj = []
    for tag in ("a", "b"):
        out = tmp_path / f"proj_{tag}"
        run_cli(["analyze", "project", "--ckpt",
                 str(run_dirs[0] / "fold_0.ckpt"), "--features",
                 str(tmp_path / "cache_a.bin"), "--seed", "4",
                 "--out", str(out)])
        proj.append(digest(out / "projections.csv"))
    assert proj[0] == proj[1]
    print("ACCEPTANCE 9 (CLI determinism, bit-identical artifacts): PASS")


# 10 --------------------------------------------------------------------

def test_criterion_10_emodb_soft_check(tmp_path):
    root = os.environ.get("GMTC_EMODB_DIR")
    if not root:
        pytest.skip("optional real-data check; set GMTC_EMODB_DIR to run")
    run_cli(["features", "--corpus", "emodb", "--root", root,
             "--out", str(tmp_path / "emodb.bin")])
    run_cli(["train", "--features", str(tmp_path / "emodb.bin"),
             "--split", "cv10", "--seed", "0",
             "--out", str(tmp_path / "emodb_run")])
    summary = json.loads((tmp_path / "emodb_run" / "summary.json").read_text())
    war_pct = 100.0 * summary["war_mean"]
    verdict = "within" if abs(war_pct - 91.06) <= 10.0 else "OUTSIDE"
    # soft check: reported, never gating
    print(f"ACCEPTANCE 10 (real-data 10-fold WAR {war_pct:.2f}% vs 91.06% "
          f"reference, {verdict} the 10-point band; soft): PASS")
