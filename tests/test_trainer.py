import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from gmtc import corpus, dsp, model, ops, trainer
from gmtc.errors import DataError, NumericError


def cluster_data(n_per_class=8, t=16, noise=0.3, seed=0):
    """Synthetic, well-separated FeatureMatrix clusters for three classes."""
    rng = np.random.default_rng(seed)
    classes = ["alpha", "beta", "gamma"]
    feats, entries = [], []
    for ci, lab in enumerate(classes):
        base = np.zeros(39, dtype=np.float32)
        base[ci * 5 : ci * 5 + 5] = 2.0
        for i in range(n_per_class):
            frames = base + noise * rng.standard_normal((t, 39)).astype(np.float32)
            path = f"/data/{lab}/{i}.wav"
            feats.append(dsp.FeatureMatrix(frames=frames.astype(np.float32),
                                           true_len=t, clip_id=path))
            entries.append(corpus.Entry(path=path, label=lab, speaker="s", corpus="test"))
    manifest = corpus.Manifest(entries=entries, label_set=classes)
    return feats, manifest


def small_cfg(**kw):
    base = dict(n_gcb=1, gating_levels=1, n_gscb=1, n_classes=3, seq_len=16)
    base.update(kw)
    return model.ModelConfig(**base)


def holdout(manifest, seed=0):
    return corpus.make_splits(manifest, "holdout_80_20", seed).folds[0]


def test_first_batch_loss_is_log_k_with_zero_head():
    feats, manifest = cluster_data()
    x, y = trainer.stack_features(feats, manifest, list(range(9)))
    cfg = small_cfg()
    params = model.init_params(cfg, seed=1)
    params["head.weight"][:] = 0
    params["head.bias"][:] = 0
    loss, _, _ = trainer.batch_loss(cfg, params, x, y)
    assert abs(loss - np.log(3)) < 1e-5


def _assert_close(got, want, what):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    err = float(np.max(np.abs(got - want))) / scale
    assert err <= 1e-12, f"{what}: relative error {err:.2e}"


def test_grouped_batch_loss_matches_whole_batch():
    """At T = CACHE_GROUP_FRAMES / 4 a batch of 10 runs as cached sequence
    groups of 4, 4 and 2; in float64 the summed group gradients equal one
    whole-batch pass."""
    t, b = model.CACHE_GROUP_FRAMES // 4, 10
    cfg = small_cfg(n_gcb=2, gating_levels=2, n_gscb=2, seq_len=t)
    params = {k: v.astype(np.float64) for k, v in model.init_params(cfg, seed=2).items()}
    rng = np.random.default_rng(5)
    x = rng.standard_normal((b, t, 39))
    y = rng.integers(0, 3, b)
    assert [g.stop - g.start for g in model.sequence_groups(b, t, cache=True)] == [4, 4, 2]
    loss, grads, preds = trainer.batch_loss(cfg, params, x, y)
    logits, cache = model.forward_with_cache(x, cfg, params)
    want_loss, grad_logits = ops.softmax_cross_entropy(logits, y)
    want = model.backward(cfg, params, cache, grad_logits)
    assert abs(loss - want_loss) <= 1e-12
    assert grads.keys() == want.keys()
    for name, g in want.items():
        _assert_close(grads[name], g, name)
    assert np.array_equal(preds, np.argmax(logits, axis=-1))


def test_batch_loss_memory_is_one_group_cache():
    """Training holds one sequence group's forward cache at a time, so four
    groups' worth of batch peaks no higher than one group's."""
    cfg = small_cfg(n_gcb=2, seq_len=model.CACHE_GROUP_FRAMES // 4)
    params = model.init_params(cfg, seed=0)
    per = model.CACHE_GROUP_FRAMES // cfg.seq_len
    rng = np.random.default_rng(0)

    def peak(b):
        x = rng.standard_normal((b, cfg.seq_len, 39)).astype(np.float32)
        y = rng.integers(0, 3, b)
        tracemalloc.start()
        try:
            trainer.batch_loss(cfg, params, x, y)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # warm-up outside the comparison
    one, four = peak(per), peak(4 * per)
    assert four <= 1.5 * one, (one, four)


def test_default_model_batch_loss_peak_memory():
    """A 64-sequence T=256 batch of the default model runs in cached groups
    of CACHE_GROUP_FRAMES, so batch_loss, its scratch included, peaks
    under 30 MB of traced allocations (72 MB with groups of GROUP_FRAMES)."""
    cfg = model.ModelConfig()
    params = model.init_params(cfg, seed=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((64, cfg.seq_len, cfg.channels)).astype(np.float32)
    y = rng.integers(0, cfg.n_classes, 64)
    tracemalloc.start()
    try:
        trainer.batch_loss(cfg, params, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20, peak / 2**20


def test_training_learns_separable_clusters():
    feats, manifest = cluster_data()
    fold = holdout(manifest)
    cfg = small_cfg()
    tcfg = trainer.TrainConfig(batch_size=8, max_epochs=60, patience=60, seed=3)
    result = trainer.train(feats, manifest, fold, cfg, tcfg)
    assert result.history[-1].train_war >= 0.9
    report = trainer.evaluate(cfg, result.params, feats, manifest, fold[1])
    assert report.war == result.report.war


def test_training_deterministic():
    feats, manifest = cluster_data()
    fold = holdout(manifest)
    cfg = small_cfg()
    tcfg = trainer.TrainConfig(batch_size=8, max_epochs=5, patience=50, seed=7)
    a = trainer.train(feats, manifest, fold, cfg, tcfg)
    b = trainer.train(feats, manifest, fold, cfg, tcfg)
    assert len(a.history) == len(b.history)
    for ra, rb in zip(a.history, b.history):
        assert (ra.epoch, ra.train_loss, ra.train_war, ra.val_war) == \
            (rb.epoch, rb.train_loss, rb.train_war, rb.val_war)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_zero_lr_keeps_params_at_init():
    feats, manifest = cluster_data()
    fold = holdout(manifest)
    cfg = small_cfg()
    tcfg = trainer.TrainConfig(batch_size=8, lr=0.0, max_epochs=3, patience=50, seed=9)
    result = trainer.train(feats, manifest, fold, cfg, tcfg)
    init = model.init_params(cfg, seed=9)
    for name in init:
        assert np.array_equal(result.params[name], init[name])


def test_early_stopping_stops_and_restores_best():
    feats, manifest = cluster_data()
    fold = holdout(manifest)
    cfg = small_cfg()
    tcfg = trainer.TrainConfig(batch_size=8, max_epochs=300, patience=5, seed=11)
    result = trainer.train(feats, manifest, fold, cfg, tcfg)
    assert len(result.history) < 300
    assert result.best_epoch < len(result.history)
    best_seen = max(r.val_war for r in result.history)
    assert result.report.war == best_seen == result.history[result.best_epoch - 1].val_war
    # the report is the best epoch's validation pass, field for field, though
    # training ran on past that epoch
    fresh = trainer.evaluate(cfg, result.params, feats, manifest, fold[1])
    got = result.report
    assert (got.war, got.uar, got.per_class_recall, got.n, got.label_set) == \
        (fresh.war, fresh.uar, fresh.per_class_recall, fresh.n, fresh.label_set)
    assert got.confusion.dtype == fresh.confusion.dtype
    assert got.confusion.tobytes() == fresh.confusion.tobytes()


def test_fit_fold_predicts_once_per_epoch(monkeypatch):
    """Each epoch's validation is the fold's only forward without a backward
    cache; scoring the fold runs none after training."""
    feats, manifest = cluster_data()
    calls = []
    real_predict = trainer.predict

    def spy(cfg, params, x):
        calls.append(x.shape[0])
        return real_predict(cfg, params, x)

    monkeypatch.setattr(trainer, "predict", spy)
    fold = holdout(manifest)
    tcfg = trainer.TrainConfig(batch_size=8, max_epochs=4, patience=50, seed=5)
    trainer.fit_fold(feats, manifest, tcfg, (0, fold, small_cfg()))
    assert calls == [len(fold[1])] * tcfg.max_epochs


def test_non_finite_loss_aborts():
    feats, manifest = cluster_data()
    # finite features whose forward overflows float32
    feats[0].frames[0, :] = 3e38
    fold = (list(range(len(feats))), [0])
    cfg = small_cfg()
    tcfg = trainer.TrainConfig(batch_size=64, max_epochs=2, patience=5, seed=0)
    with pytest.raises(NumericError), np.errstate(over="ignore", invalid="ignore"):
        trainer.train(feats, manifest, fold, cfg, tcfg)
    # a non-finite feature is bad data, rejected before the first step
    feats[0].frames[0, 0] = np.nan
    with pytest.raises(DataError, match=f"non-finite features for clip {feats[0].clip_id}"):
        trainer.train(feats, manifest, fold, cfg, tcfg)


def test_shape_and_coverage_validation():
    feats, manifest = cluster_data()
    cfg = small_cfg()
    tcfg = trainer.TrainConfig(batch_size=8, max_epochs=1, patience=1)
    with pytest.raises(DataError):
        trainer.train(feats, manifest, ([], [0]), cfg, tcfg)
    with pytest.raises(DataError):
        trainer.train(feats, manifest, holdout(manifest), small_cfg(n_classes=4), tcfg)
    with pytest.raises(DataError):
        trainer.train(feats, manifest, holdout(manifest), small_cfg(seq_len=32), tcfg)
    short = feats[:-1] + [dsp.FeatureMatrix(frames=np.zeros((8, 39), np.float32),
                                            true_len=8, clip_id=feats[-1].clip_id)]
    with pytest.raises(DataError):
        trainer.stack_features(short, manifest, list(range(len(feats))))
    with pytest.raises(DataError):
        trainer.stack_features(feats[:-1], manifest, list(range(len(feats))))


def test_run_cv_summary():
    feats, manifest = cluster_data(n_per_class=10)
    plan = corpus.make_splits(manifest, "cv5", seed=2)
    cfg = small_cfg()
    tcfg = trainer.TrainConfig(batch_size=8, max_epochs=8, patience=8, seed=1)
    results, summary = trainer.run_cv(feats, manifest, plan.folds, cfg, tcfg)
    assert len(results) == 5
    assert summary["folds"] == 5 and isinstance(summary["folds"], int)
    assert [r.seed for r in results] == [1, 2, 3, 4, 5]
    wars = [r.report.war for r in results]
    assert summary["war_mean"] == pytest.approx(np.mean(wars))
    assert summary["war_std"] == pytest.approx(np.std(wars))  # population std
    assert summary["war_max"] == pytest.approx(max(wars))
    assert summary["uar_max"] >= summary["uar_mean"]
    with pytest.raises(DataError):
        trainer.run_cv(feats, manifest, plan.folds[:1], cfg, tcfg)


def _cv_bits(results, summary):
    """Everything run_cv returns but the wall-clock history column."""
    return ([(sorted((k, v.dtype.str, v.tobytes()) for k, v in r.params.items()),
              r.best_epoch, r.seed,
              (r.report.war, r.report.uar, r.report.per_class_recall,
               r.report.confusion.tobytes(), r.report.n, r.report.label_set),
              [(h.epoch, h.train_loss, h.train_war, h.val_war) for h in r.history])
             for r in results],
            summary)


def test_run_cv_pooled_matches_serial(monkeypatch):
    feats, manifest = cluster_data(n_per_class=10)
    plan = corpus.make_splits(manifest, "cv5", seed=2)
    cfg = small_cfg()
    tcfg = trainer.TrainConfig(batch_size=8, max_epochs=4, patience=4, seed=3)
    runs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("GMTC_THREADS", threads)
        runs.append(_cv_bits(*trainer.run_cv(feats, manifest, plan.folds, cfg, tcfg)))
    assert runs[0] == runs[1]


def test_run_cv_pooled_names_failing_fold(monkeypatch):
    feats, manifest = cluster_data(n_per_class=10)
    folds = corpus.make_splits(manifest, "cv5", seed=2).folds
    folds[3] = ([], folds[3][1])  # fold 3 has nothing to train on
    monkeypatch.setenv("GMTC_THREADS", "3")
    tcfg = trainer.TrainConfig(batch_size=8, max_epochs=1, patience=1, seed=1)
    with pytest.raises(DataError, match=r"^fold 3: fold has an empty train"):
        trainer.run_cv(feats, manifest, folds, small_cfg(), tcfg)


def test_history_csv_format():
    rows = [trainer.HistoryRow(1, 1.0986122886681098, 0.5, 0.25, 0.101)]
    text = trainer.history_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "epoch,train_loss,train_war,val_war,seconds"
    assert lines[1].startswith("1,1.0986122886681098,0.5,0.25,")


def test_train_config_text_roundtrip():
    tcfg = trainer.TrainConfig(batch_size=16, lr=0.01, seed=4)
    text = model.config_text(tcfg)
    got, explicit = model.parse_config_text(text, trainer.TrainConfig)
    assert got == tcfg
    assert explicit == {f.name for f in fields(tcfg)}
    with pytest.raises(DataError):
        model.parse_config_text("warmup=5\n", trainer.TrainConfig)
