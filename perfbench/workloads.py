"""Workload inputs, timed repetitions and output checks.

Every input is generated from the workload seed with the program's own
public functions; the program itself only ever sees the generated files.

- extract: a synthetic corpus where a third of the clips are rewritten at
  16 kHz and a third at 48 kHz, fed to `gmtc features` with the program's
  default worker count and thread environment.
- train: a T=256 feature cache of the stock synthetic corpus (clips of
  1-3 s, about 40% padding), fed to `gmtc train --split cv5` with the
  default model and a config that fixes the epoch count.
- infer: a default-model checkpoint and a cache of long clips (two
  same-class clips joined, 2-6 s, truncated at T=256), scored through
  `gmtc.evaluate`, `gmtc analyze entropy` and `gmtc analyze project`, then
  `gmtc analyze maps` on one clip per class. Maps are bound by text
  formatting and writes (about 60 ms a clip against a few ms of model
  forward), so on every clip they would hide a slower forward.

Clip durations are spread evenly over a fixed range and only their content
and order come from the seed, so every seed gives a run the same work.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

T_MAX = 256
TRAIN_EPOCHS = 1

# Set for the untraced run process unless the caller set them. Each
# `features` pool worker would otherwise start a BLAS thread per core, the
# threads outnumber the cores, and their spin-waits make clips_per_s swing
# with any other load on the host (README.md, Processes). The traced run
# keeps the environment as given, so `cli.features.pool_speedup` still
# shows that oversubscription.
TIMED_ENV = {"extract": {"OPENBLAS_NUM_THREADS": "1"}}


@dataclass(frozen=True)
class Size:
    """Clip counts per class for each workload; `tiny` is for the tests."""

    extract_per_class: int
    train_per_class: int
    infer_per_class: int
    t_max: int


SIZES = {
    # train: 90 clips leave cv5 train folds of 72 = one full batch of 64
    # plus a remainder batch
    "full": Size(extract_per_class=20, train_per_class=15, infer_per_class=10,
                 t_max=T_MAX),
    "tiny": Size(extract_per_class=2, train_per_class=5, infer_per_class=2,
                 t_max=T_MAX),
}


class Tally:
    """Attempted and failed work units plus output checks; failed / attempted
    is the workload's failure fraction."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def units(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{failed}/{attempted} {what}")

    def check(self, ok: bool, what: str) -> None:
        self.units(1, 0 if ok else 1, what)


@dataclass
class Rep:
    """One timed repetition: wall seconds per stage and what it produced."""

    stages: dict[str, float]
    units: int
    out: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.stages.values())


def _run_cli(cli, argv) -> int:
    return cli.main([str(a) for a in argv])


def _sha256(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ------------------------------------------------------------------ inputs

def _features(cli, manifest, cache, t_max) -> None:
    rc = _run_cli(cli, ["features", "--corpus", manifest, "--out", cache,
                        "--tmax", t_max])
    if rc != 0:
        raise RuntimeError(f"input generation: gmtc features exited {rc}")


def _fit_durations(dsp, paths: list[Path], lo: float, hi: float) -> None:
    """Spread the clips' durations evenly over [lo, hi] seconds, the i-th
    shortest clip taking the i-th duration (cropped, or extended by
    repeating its start). The seed still picks every clip's content and
    rank, but the total audio, and with it the work a run measures, is the
    same for every seed."""
    clips = [dsp.read_wav(p) for p in paths]
    order = sorted(range(len(clips)), key=lambda i: clips[i].samples.size)
    for rank, i in enumerate(order):
        seconds = lo + (hi - lo) * (rank + 0.5) / len(clips)
        rate = clips[i].sample_rate
        dsp.write_wav_pcm16(paths[i], dsp.AudioClip(
            samples=np.resize(clips[i].samples, int(seconds * rate)),
            sample_rate=rate))


def make_extract_inputs(gmtc, work: Path, seed: int, size: Size) -> dict:
    corpus, dsp = gmtc.corpus, gmtc.dsp
    root = work / "corpus"
    manifest = corpus.synth_generate(root, seed=seed,
                                     n_per_class=size.extract_per_class)
    paths = [root / e.path for e in manifest.entries]
    _fit_durations(dsp, paths, 1.0, 3.0)
    rates = (dsp.SAMPLE_RATE, 16000, 48000)
    for i, path in enumerate(paths):
        rate = rates[i % 3]
        if rate != dsp.SAMPLE_RATE:
            dsp.write_wav_pcm16(path, dsp.resample(dsp.read_wav(path), rate))
    return {"manifest": str(root / "manifest.csv"), "n": len(manifest.entries),
            "t_max": size.t_max}


def make_train_inputs(gmtc, work: Path, seed: int, size: Size) -> dict:
    root = work / "corpus"
    manifest = gmtc.corpus.synth_generate(root, seed=seed,
                                          n_per_class=size.train_per_class)
    _fit_durations(gmtc.dsp, [root / e.path for e in manifest.entries], 1.0, 3.0)
    cache = work / "train.bin"
    _features(gmtc.cli, root / "manifest.csv", cache, size.t_max)
    config = work / "train.cfg"
    # patience >= max_epochs: early stopping can never shorten the run
    config.write_text(f"max_epochs={TRAIN_EPOCHS}\npatience={TRAIN_EPOCHS}\n")
    return {"cache": str(cache), "config": str(config),
            "n": len(manifest.entries)}


def make_infer_inputs(gmtc, work: Path, seed: int, size: Size) -> dict:
    corpus, dsp, model = gmtc.corpus, gmtc.dsp, gmtc.model
    per_class, t_max = size.infer_per_class, size.t_max
    raw = work / "raw"
    short = corpus.synth_generate(raw, seed=seed, n_per_class=2 * per_class)
    root = work / "long"
    root.mkdir()
    entries = []
    for label in short.label_set:
        paths = [e.path for e in short.entries if e.label == label]
        for k in range(per_class):
            a, b = (dsp.read_wav(raw / p) for p in paths[2 * k : 2 * k + 2])
            name = f"{label}_{k:03d}.wav"
            dsp.write_wav_pcm16(root / name, dsp.AudioClip(
                samples=np.concatenate([a.samples, b.samples]),
                sample_rate=a.sample_rate))
            entries.append(corpus.Entry(path=name, label=label,
                                        speaker=f"spk{k % 4}", corpus="synth"))
    _fit_durations(dsp, [root / e.path for e in entries], 2.0, 6.0)
    caches = {}
    for name, subset in (("long", entries), ("maps", entries[::per_class])):
        manifest = root / f"{name}.csv"
        corpus.save_manifest_csv(manifest, corpus.Manifest(
            entries=subset, label_set=short.label_set))
        caches[name] = work / f"{name}.bin"
        _features(gmtc.cli, manifest, caches[name], t_max)
    cfg = model.ModelConfig(n_classes=len(short.label_set), seq_len=t_max)
    ckpt = work / "model.ckpt"
    model.checkpoint_save(ckpt, cfg, model.init_params(cfg, seed),
                          {"seed": str(seed)})
    shutil.rmtree(raw)
    return {"cache": str(caches["long"]), "maps_cache": str(caches["maps"]),
            "ckpt": str(ckpt), "n": len(entries),
            "n_maps": len(short.label_set), "n_gcb": cfg.n_gcb}


# ------------------------------------------------------------- repetitions

def rep_extract(gmtc, inp: dict, out: Path) -> Rep:
    cache = out / "features.bin"
    t0 = perf_counter()
    rc = _run_cli(gmtc.cli, ["features", "--corpus", inp["manifest"],
                             "--out", cache, "--tmax", inp["t_max"]])
    return Rep({"features": perf_counter() - t0}, inp["n"],
               {"rc": rc, "cache": cache})


def rep_train(gmtc, inp: dict, out: Path) -> Rep:
    t0 = perf_counter()
    rc = _run_cli(gmtc.cli, ["train", "--features", inp["cache"], "--split",
                             "cv5", "--config", inp["config"], "--out", out])
    wall = perf_counter() - t0
    # the check counts the clip-epochs, from the fold histories
    return Rep({"train": wall}, 0, {"rc": rc, "dir": out})


def rep_infer(gmtc, inp: dict, out: Path) -> Rep:
    cache = inp["cache"]
    t0 = perf_counter()
    cfg, params, _ = gmtc.checkpoint_load(inp["ckpt"])
    features = gmtc.dsp.cache_read(cache)
    manifest = gmtc.corpus.load_manifest_csv(cache + ".manifest.csv")
    report = gmtc.evaluate(cfg, params, features, manifest,
                           list(range(len(manifest.entries))))
    t1 = perf_counter()
    rc_entropy = _run_cli(gmtc.cli, ["analyze", "entropy", "--ckpt", inp["ckpt"],
                                     "--features", cache, "--out", out / "entropy"])
    t2 = perf_counter()
    rc_project = _run_cli(gmtc.cli, ["analyze", "project", "--ckpt", inp["ckpt"],
                                     "--features", cache, "--out", out / "project"])
    t3 = perf_counter()
    rc_maps = _run_cli(gmtc.cli, ["analyze", "maps", "--ckpt", inp["ckpt"],
                                  "--features", inp["maps_cache"], "--out", out])
    t4 = perf_counter()
    return Rep({"evaluate": t1 - t0, "entropy": t2 - t1, "project": t3 - t2,
                "maps": t4 - t3},
               inp["n"], {"report_n": report.n, "rc_entropy": rc_entropy,
                          "rc_project": rc_project, "rc_maps": rc_maps, "dir": out})


# ------------------------------------------------------------------ checks

def _finite_float(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def check_extract(gmtc, inp: dict, rep: Rep, tally: Tally) -> dict:
    """Cache reads back with one finite (T_MAX, 39) record per clip."""
    dsp = gmtc.dsp
    n = inp["n"]
    if rep.out["rc"] != 0:
        tally.units(n, n, f"clips: gmtc features exited {rep.out['rc']}")
        return {}
    try:
        records = dsp.cache_read(rep.out["cache"])
    except Exception as exc:  # a broken cache fails every clip
        tally.units(n, n, f"clips: cache unreadable ({exc})")
        return {}
    good = [r for r in records if r.frames.shape == (inp["t_max"], dsp.N_COEFFS)
            and np.isfinite(r.frames).all()]
    tally.units(n, n - len(good), "clips missing or non-finite in the cache")
    return {"hash": _sha256([rep.out["cache"]])}


def check_extract_serial(gmtc, inp: dict, cache: Path, tally: Tally) -> None:
    """Every record equals a serial dsp.mfcc_39 of its file, bit for bit."""
    corpus, dsp = gmtc.corpus, gmtc.dsp
    manifest = corpus.load_manifest_csv(inp["manifest"])
    base = Path(inp["manifest"]).parent
    by_id = {r.clip_id: r for r in dsp.cache_read(cache)}
    mismatched = 0
    for entry in manifest.entries:
        clip = dsp.resample(dsp.read_wav(base / entry.path))
        want = dsp.pad_to(dsp.mfcc_39(clip, clip_id=entry.path), inp["t_max"])
        got = by_id.get(entry.path)
        if got is None or not np.array_equal(got.frames, want.frames):
            mismatched += 1
    tally.units(len(manifest.entries), mismatched,
                "records differ from the serial mfcc_39")


def check_train(gmtc, inp: dict, rep: Rep, tally: Tally) -> dict:
    """Exit 0, a 5-fold summary.json, finite losses; returns the mean
    final-epoch loss over folds, the hash of the fold checkpoints and the
    number of clip-epochs trained."""
    folds = 5
    out = Path(rep.out["dir"])
    tally.check(rep.out["rc"] == 0, f"gmtc train exited {rep.out['rc']}")
    try:
        summary = json.loads((out / "summary.json").read_text())
        tally.check(summary.get("folds") == folds and summary.get("scheme") == "cv5",
                    "summary.json is not a 5-fold cv5 summary")
        losses, clip_epochs = [], 0
        for f in range(folds):
            with open(out / f"history_{f}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            n_test = json.loads((out / f"report_{f}.json").read_text())["n"]
            clip_epochs += len(rows) * (inp["n"] - n_test)
            losses.append(_finite_float(rows[-1]["train_loss"]))
        tally.units(folds, sum(v is None for v in losses),
                    "folds with a non-finite final loss")
        ckpt_hash = _sha256(out / f"fold_{f}.ckpt" for f in range(folds))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        tally.units(folds, folds, f"folds: train outputs unreadable ({exc})")
        return {}
    finite = [v for v in losses if v is not None]
    return {"hash": ckpt_hash, "units": clip_epochs,
            "train_loss": float(np.mean(finite)) if finite else float("nan")}


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_infer(gmtc, inp: dict, rep: Rep, tally: Tally) -> dict:
    """evaluate scores every clip; entropies finite in [0, 16] bits; one
    finite projection row per clip; 2 * (n_gcb + 2) non-empty map files
    (PGM + CSV) per mapped clip."""
    n = inp["n"]
    tally.units(n, n - min(n, rep.out["report_n"]), "clips unscored by evaluate")
    out = Path(rep.out["dir"])
    tally.check(rep.out["rc_entropy"] == 0,
                f"analyze entropy exited {rep.out['rc_entropy']}")
    tally.check(rep.out["rc_project"] == 0,
                f"analyze project exited {rep.out['rc_project']}")
    try:
        bits = [_finite_float(r["entropy_bits"])
                for r in _csv_rows(out / "entropy" / "entropy.csv")]
        tally.check(bool(bits) and all(b is not None and 0 <= b <= 16 for b in bits),
                    "entropies missing, non-finite or outside [0, 16] bits")
        rows = _csv_rows(out / "project" / "projections.csv")
        bad = sum(_finite_float(r["x"]) is None or _finite_float(r["y"]) is None
                  for r in rows)
        tally.units(n, n - len(rows) + bad, "clips without a finite projection row")
    except (OSError, KeyError) as exc:
        tally.check(False, f"analysis outputs unreadable ({exc})")
    tally.check(rep.out["rc_maps"] == 0, f"analyze maps exited {rep.out['rc_maps']}")
    n = inp["n_maps"]
    want = 2 * (inp["n_gcb"] + 2)
    maps = out / "maps"
    clip_dirs = [p for p in maps.iterdir() if p.is_dir()] if maps.is_dir() else []
    written = 0
    good = 0
    for d in clip_dirs:
        files = list(d.iterdir())
        sizes = [f.stat().st_size for f in files]
        written += sum(sizes)
        good += len(files) == want and all(sizes)
    tally.units(n, n - min(n, good), f"clips without {want} non-empty map files")
    return {"mb_written": written / 2**20}


WORKLOADS = {
    "extract": (make_extract_inputs, rep_extract, check_extract),
    "train": (make_train_inputs, rep_train, check_train),
    "infer": (make_infer_inputs, rep_infer, check_infer),
}


def remove(path: Path) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
