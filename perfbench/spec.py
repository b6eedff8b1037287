"""The benchmark's metrics: names, units, and where each one moves.

End-to-end metrics are printed for every workload (`--trace 0`); per-layer
metrics come from the separate traced run (`--trace 1`). Each per-layer
entry names the workloads on which it measures work; elsewhere it reads 0
and the prediction for it is no change. README.md has the same map with the
end-to-end metric each layer metric should move.
"""

WORKLOAD_WHY = {
    "extract": "dsp and the features worker pool (one BLAS thread a worker) do "
               "all the work and the model none; two thirds of the clips take the "
               "resample path",
    "train": "cv5 training of the default model: forward-with-cache, backward, "
             "conv kernels and Adam, with ~40% padded frames and a remainder batch",
    "infer": "model forward without a backward cache: batched evaluate, "
             "per-utterance entropy, projection and maps on long, barely padded clips",
}

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "ratio", "higher", 0.01),
    ("clips_per_s", "clips/s", "higher", 0.25),
]

_ALL = ("extract", "train", "infer")
_MODEL = ("train", "infer")


_UNIT = {"s": "s", "self_s": "s", "calls": "count", "p50_s": "s",
         "gflop": "GFLOP", "gflops_per_s": "GFLOP/s"}


def _fn(layer_fn, stats, active):
    return [(f"{layer_fn}.{stat}", _UNIT[stat], active) for stat in stats]

# name, unit, workloads on which the metric is non-zero
PER_LAYER = [
    *_fn("dsp.read_wav", ["s"], ("extract",)),
    *_fn("dsp.resample", ["s", "calls"], ("extract",)),
    ("dsp.resample.active_frac", "ratio", ("extract",)),
    *_fn("dsp.frame_signal", ["s"], ("extract",)),
    *_fn("dsp.mel_filterbank", ["s", "calls"], ("extract",)),
    *_fn("dsp.delta", ["s"], ("extract",)),
    *_fn("dsp.mfcc_39", ["self_s"], ("extract",)),
    *_fn("dsp.pad_to", ["s"], ("extract",)),
    # the extract clips are at most 3 s (240 frames), so none is truncated
    ("dsp.pad_to.truncated", "count", ()),
    *_fn("dsp.cache_write", ["s"], ("extract",)),
    ("dsp.cache_write.mb", "MB", ("extract",)),
    *_fn("dsp.cache_read", ["s"], _MODEL),
    *_fn("cli.features", ["self_s"], ("extract",)),
    ("cli.features.pool_speedup", "ratio", ("extract",)),
    *_fn("ops.conv1d_causal", ["s", "calls", "gflop", "gflops_per_s"], _MODEL),
    *_fn("ops.conv1d_causal_backward", ["s", "calls", "gflop", "gflops_per_s"],
         ("train",)),
    *_fn("ops.relu_backward", ["s"], ("train", "infer")),
    *_fn("ops.sigmoid_backward", ["s"], ("train",)),
    *_fn("ops.softmax_cross_entropy", ["s"], ("train",)),
    *_fn("ops.relu", ["s"], _MODEL),
    *_fn("ops.sigmoid", ["s"], _MODEL),
    *_fn("ops.adam_step", ["s", "calls"], ("train", "infer")),
    *_fn("model.forward_with_cache", ["s", "self_s"], ("train",)),
    ("model.forward_with_cache.cache_mb", "MB", ("train",)),
    *_fn("model.backward", ["s", "self_s"], ("train",)),
    ("model.padding_frac", "ratio", ("train", "infer")),
    *_fn("model.forward", ["s"], ("train", "infer")),
    *_fn("model.forward_with_maps", ["s"], ("infer",)),
    *_fn("model.checkpoint_load", ["s"], ("infer",)),
    *_fn("model.checkpoint_save", ["s"], ("train",)),
    *_fn("trainer.batch_loss", ["s", "calls", "p50_s"], ("train",)),
    *_fn("trainer.predict", ["s"], ("train", "infer")),
    *_fn("trainer.stack_features", ["s"], ("train", "infer")),
    *_fn("trainer.train", ["self_s"], ("train",)),
    ("trainer.train.final_loss", "nats", ("train",)),
    *_fn("trainer.evaluate", ["s"], ("train", "infer")),
    *_fn("corpus.make_splits", ["s"], ("train",)),
    *_fn("corpus.load_manifest_csv", ["s"], _ALL),
    *_fn("metrics.compute_report", ["s"], ("train", "infer")),
    *_fn("analysis.export_feature_maps", ["s", "calls"], ("infer",)),
    *_fn("analysis.normalize_u8", ["s"], ("infer",)),
    *_fn("analysis.map_csv", ["s"], ("infer",)),
    *_fn("analysis.pgm_bytes", ["s"], ("infer",)),
    ("cli.maps.mb_written", "MB", ("infer",)),
    *_fn("analysis.entropy_2d", ["s", "calls"], ("infer",)),
    *_fn("analysis.pooled_features", ["s"], ("infer",)),
    *_fn("analysis.ae_train", ["s"], ("infer",)),
    *_fn("analysis.ae_project", ["s"], ("infer",)),
    *_fn("cli.write_run_manifest", ["s"], _ALL),
    *_fn("cli.train", ["self_s"], ("train",)),
    *_fn("cli.analyze_maps", ["self_s"], ("infer",)),
    *_fn("cli.analyze_entropy", ["self_s"], ("infer",)),
    *_fn("cli.analyze_project", ["self_s"], ("infer",)),
    # traced wall / untraced wall - 1 at the same thread setting; may be < 0
    ("trace.overhead", "ratio", ()),
    # top-level program spans / traced wall
    ("trace.coverage", "ratio", _ALL),
]

_HIGHER = ("gflops_per_s", "pool_speedup", "coverage")


def better(name: str) -> str:
    """Direction of a per-layer metric: rates and coverage up, all else down."""
    return "higher" if name.rpartition(".")[2] in _HIGHER else "lower"
