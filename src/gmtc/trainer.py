"""Deterministic training and evaluation loops.

One training run: seeded init, seeded per-epoch shuffles, mini-batches kept
whole-plus-remainder, Adam updates, early stopping on validation WAR with
best-parameter restore. Each epoch is scored by `evaluate` on the fold's
test side, and the best epoch's report is the fold's reported score: the
validation fold doubles as the test fold, which is optimistic model
selection; reported numbers carry that caveat.

Identical seeds and inputs reproduce bit-identical parameters and numeric
history (wall-clock seconds are excluded from that contract).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import ops, pool
from .corpus import Manifest
from .dsp import FeatureMatrix, stack_padded
from .errors import DataError, NumericError
from .metrics import EvalReport, compute_report
from .model import (ModelConfig, backward, forward, forward_with_cache, init_params,
                    sequence_groups)

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    batch_size: int = 64
    lr: float = 1e-3
    max_epochs: int = 300
    patience: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 0:
            raise DataError("bad training configuration")
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise DataError(f"lr must be finite and >= 0, got {self.lr!r}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


@dataclass
class HistoryRow:
    epoch: int
    train_loss: float
    train_war: float
    val_war: float
    seconds: float


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    best_epoch: int
    report: EvalReport  # the best epoch's validation report
    seed: int
    history: list[HistoryRow] = field(default_factory=list)


def manifest_features(features: list[FeatureMatrix], manifest: Manifest,
                      indices: list[int] | None = None) -> list[FeatureMatrix]:
    """The feature record of each given manifest row (default: every row),
    matched on clip id == path. A duplicate clip id, a row without a record
    or a record with a non-finite value is a DataError."""
    by_id = {fm.clip_id: fm for fm in features}
    if len(by_id) != len(features):
        raise DataError("duplicate clip ids in feature list")
    rows = manifest.entries if indices is None else [manifest.entries[i] for i in indices]
    try:
        out = [by_id[e.path] for e in rows]
    except KeyError as exc:
        raise DataError(f"no features for manifest entry {exc.args[0]}") from None
    for fm in out:
        if not np.isfinite(fm.frames).all():
            raise DataError(f"non-finite features for clip {fm.clip_id}")
    return out


def stack_features(features: list[FeatureMatrix], manifest: Manifest,
                   indices: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Dense (N, T, 39) batch plus int labels for the given manifest rows,
    whose records (`manifest_features`) must share one padded length."""
    label_index = {lab: k for k, lab in enumerate(manifest.label_set)}
    labels = [label_index[manifest.entries[i].label] for i in indices]
    return (stack_padded(manifest_features(features, manifest, indices)),
            np.array(labels, dtype=np.int64))


def batch_loss(cfg: ModelConfig, params: dict, x: np.ndarray,
               labels: np.ndarray) -> tuple[float, dict, np.ndarray]:
    """Mean cross-entropy of one batch plus parameter gradients and the
    argmax predictions.

    The batch runs in cached sequence_groups of about CACHE_GROUP_FRAMES
    frames: a group's logit gradient carries its share n_g / B of the batch
    mean, the group gradients are summed in group order, and only one
    group's forward cache is alive at a time."""
    b = x.shape[0]
    loss, grads, preds = 0.0, None, []
    for grp in sequence_groups(b, x.shape[1], cache=True):
        logits, cache = forward_with_cache(x[grp], cfg, params)
        loss_g, grad_logits = ops.softmax_cross_entropy(logits, labels[grp])
        share = logits.shape[0] / b
        grad_logits *= share
        group_grads = backward(cfg, params, cache, grad_logits)
        del cache
        loss += loss_g * share
        if grads is None:
            grads = group_grads
        else:
            for name, g in group_grads.items():
                grads[name] += g
        preds.append(np.argmax(logits, axis=-1))
    return loss, grads, np.concatenate(preds)


def predict(cfg: ModelConfig, params: dict, x: np.ndarray) -> np.ndarray:
    return np.argmax(forward(x, cfg, params), axis=-1)


def train(features: list[FeatureMatrix], manifest: Manifest,
          fold: tuple[list[int], list[int]], model_cfg: ModelConfig,
          train_cfg: TrainConfig) -> TrainResult:
    """Fit one model on the fold's train side, early-stopping on the WAR of
    `evaluate` over the fold's test side.

    Returns the best parameters (restored), the epoch they came from, that
    epoch's report, and the per-epoch history.
    """
    train_idx, val_idx = fold
    if not train_idx or not val_idx:
        raise DataError("fold has an empty train or validation side")
    if model_cfg.n_classes != len(manifest.label_set):
        raise DataError(f"model has {model_cfg.n_classes} classes, manifest "
                        f"has {len(manifest.label_set)}")
    x_train, y_train = stack_features(features, manifest, train_idx)
    if x_train.shape[1] != model_cfg.seq_len:
        raise DataError(f"features are {x_train.shape[1]} frames long, model "
                        f"config says seq_len={model_cfg.seq_len}")

    params = init_params(model_cfg, train_cfg.seed)
    state = ops.init_adam(params, lr=train_cfg.lr)
    shuffle_rng = np.random.default_rng(train_cfg.seed + 1)
    n = x_train.shape[0]
    best: EvalReport | None = None
    best_epoch = 0
    best_params = {k: v.copy() for k, v in params.items()}
    since_best = 0
    history: list[HistoryRow] = []
    for epoch in range(1, train_cfg.max_epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        hits = 0
        for lo in range(0, n, train_cfg.batch_size):
            sel = order[lo : lo + train_cfg.batch_size]
            loss, grads, preds = batch_loss(model_cfg, params, x_train[sel], y_train[sel])
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {lo // train_cfg.batch_size}")
            ops.adam_step(params, grads, state)
            loss_sum += loss * sel.size
            hits += int((preds == y_train[sel]).sum())
        report = evaluate(model_cfg, params, features, manifest, val_idx)
        row = HistoryRow(epoch=epoch, train_loss=loss_sum / n, train_war=hits / n,
                         val_war=report.war, seconds=time.perf_counter() - t0)
        history.append(row)
        if best is None or report.war > best.war:
            best = report
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= train_cfg.patience:
                log.info("early stop at epoch %d (best %.4f at %d)",
                         epoch, best.war, best_epoch)
                break
    return TrainResult(params=best_params, best_epoch=best_epoch, report=best,
                       seed=train_cfg.seed, history=history)


def evaluate(model_cfg: ModelConfig, params: dict, features: list[FeatureMatrix],
             manifest: Manifest, indices: list[int]) -> EvalReport:
    """Score a parameter set on the given manifest rows."""
    if not indices:
        raise DataError("nothing to evaluate")
    x, y = stack_features(features, manifest, indices)
    preds = predict(model_cfg, params, x)
    labs = manifest.label_set
    return compute_report([labs[i] for i in y], [labs[i] for i in preds], labs)


def fit_fold(features: list[FeatureMatrix], manifest: Manifest,
             train_cfg: TrainConfig,
             task: tuple[int, tuple[list[int], list[int]], ModelConfig]
             ) -> TrainResult:
    """Train model_cfg on fold f with seed train_cfg.seed + f, for task =
    (f, fold, model_cfg); the result's report, from the validation pass
    that chose its parameters, is the fold's score on its test side. The
    one path for a hold-out run, a cross-validation fold and an ablation
    variant; a data or numeric error names the fold."""
    f, fold, model_cfg = task
    try:
        return train(features, manifest, fold, model_cfg,
                     replace(train_cfg, seed=train_cfg.seed + f))
    except (DataError, NumericError) as exc:
        raise type(exc)(f"fold {f}: {exc}") from exc


def run_cv(features: list[FeatureMatrix], manifest: Manifest, folds,
           model_cfg: ModelConfig, train_cfg: TrainConfig
           ) -> tuple[list[TrainResult], dict]:
    """Train and score every fold through `fit_fold`; fold f uses seed
    train_cfg.seed + f. Folds run in parallel through `pool._pool_map`
    (serial under GMTC_THREADS=1) and give the same bits either way.

    Returns per-fold results, whose reports are the fold scores, and a
    summary with the fold count and the mean, population std, and max of
    WAR and UAR.
    """
    if len(folds) < 2:
        raise DataError("cross-validation needs at least two folds")
    results = pool._pool_map(partial(fit_fold, features, manifest, train_cfg),
                             [(f, fold, model_cfg) for f, fold in enumerate(folds)])
    wars = np.array([r.report.war for r in results])
    uars = np.array([r.report.uar for r in results])
    summary = {
        "folds": len(folds),
        "war_mean": float(wars.mean()), "war_std": float(wars.std()),
        "war_max": float(wars.max()),
        "uar_mean": float(uars.mean()), "uar_std": float(uars.std()),
        "uar_max": float(uars.max()),
    }
    return results, summary


def history_csv(history: list[HistoryRow]) -> str:
    lines = ["epoch,train_loss,train_war,val_war,seconds"]
    for row in history:
        lines.append(f"{row.epoch},{row.train_loss!r},{row.train_war!r},"
                     f"{row.val_war!r},{row.seconds:.3f}")
    return "\n".join(lines) + "\n"
