"""The `gmtc` command line tool.

Subcommands: synth (make a synthetic corpus), features (extract and cache
MFCCs), train (fit and evaluate), ablate (config sweeps), analyze
(interpretability artifacts). Each `cmd_*` returns its run manifest's path,
config text, seed and artifact paths; `main` times the command and writes
that run-manifest JSON (command, canonical config, seed, artifact paths,
wall-clock, git describe output). Every numeric artifact is reproducible
from (inputs, seed). Hold-out runs, cross-validation folds and ablation
variants all go through `trainer.fit_fold`, so their errors name the fold
(`fold 0:` for hold-out and ablation), and each is scored by the validation
pass of its best epoch, with no forward after training.

Exit codes: 0 success, 1 usage error, 2 data or OS error, 3 numeric failure.
GMTC_THREADS is one budget for processes × threads (`gmtc.pool`): it caps
the worker processes of feature extraction, the folds of `train --split
cv5|cv10` (and of the library's `run_cv`) and the variants of `ablate`,
each worker running one BLAS thread and no threads of its own; and the
threads over the sequence groups of every batched inference forward in this
process: `evaluate`, which validates every hold-out epoch, and `analyze
entropy`/`project`, which run one batched forward over all clips. A
training worker holds one sequence group's forward cache at a time (about
18 MB for the default model at T=256, in groups of
`model.CACHE_GROUP_FRAMES`), which each group allocates and frees. A
features worker takes one contiguous share of the clips (`pool._shares`)
and reads, resamples and featurizes it through one `dsp.MfccWorkspace`,
whose clip-sized buffers grow to hold the longest clip of the share.
`analyze maps` writes one clip's maps at a time in this process.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial

import numpy as np

from . import analysis, dsp, metrics, pool, trainer
from .corpus import (CLASS_SETS, Manifest, load_manifest_csv, make_splits,
                     save_manifest_csv, synth_generate)
from .errors import DataError, NumericError
from .model import (ModelConfig, checkpoint_load, checkpoint_save, config_text,
                    param_count, parse_config_text, receptive_field)
from .pool import worker_count  # noqa: F401  (read by perfbench/run.py)
from .trainer import TrainConfig

log = logging.getLogger(__name__)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


_positive_int, _seed = _int_at_least(1), _int_at_least(0)


def _git_describe() -> str:
    """`git describe` of the gmtc checkout this package runs from, whatever
    the working directory: the repository whose top level holds src/gmtc.
    "unknown" anywhere else, without starting git, also for a package
    installed into a venv that sits inside another repository."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_run_manifest(path, command, cfg_text, seed, artifacts, wall) -> None:
    payload = {
        "command": list(command),
        "config": cfg_text,
        "seed": seed,
        "artifacts": [str(a) for a in artifacts],
        "wall_seconds": round(wall, 3),
        "git_describe": _git_describe(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config_file(path) -> str:
    """The text of a flat key=value config file; no path reads as empty."""
    if not path:
        return ""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc


def _sanitize(name: str) -> str:
    """ASCII letters, digits and -._ kept, anything else as _, so the name
    is a valid path under any filesystem encoding."""
    return "".join(ch if ch.isascii() and ch.isalnum() or ch in "-._" else "_"
                   for ch in name)


# ---------------------------------------------------------------- features

def _extract_share(tasks):
    """(clip id, features or None, error or None) for each (path, clip id)
    task, read, resampled and featurized through one MFCC workspace for the
    whole share; a clip that fails fails alone."""
    work = dsp.MfccWorkspace()
    results = []
    for path, clip_id in tasks:
        try:
            clip = dsp.resample(dsp.read_wav(path, work), work=work)
            results.append((clip_id, dsp.mfcc_39(clip, clip_id=clip_id, work=work), None))
        except DataError as exc:
            results.append((clip_id, None, str(exc)))
    return results


def cmd_features(args):
    from .corpus import scan_corpus

    if args.corpus in CLASS_SETS:
        if not args.root:
            raise UsageError("--root is required when scanning a corpus kind")
        manifest, rejects = scan_corpus(args.root, args.corpus)
        for r in rejects:
            log.warning("undecodable filename skipped: %s", r)
        base = ""  # scanned paths already include the root
    else:
        manifest = load_manifest_csv(args.corpus)
        # relative manifest paths resolve against --root, else the manifest's
        # own directory; cache ids keep the paths as written so artifacts
        # stay relocatable
        base = args.root or os.path.dirname(os.path.abspath(args.corpus))

    tasks = [(e.path if os.path.isabs(e.path) or not base
              else os.path.join(base, e.path), e.path)
             for e in manifest.entries]
    results = [r for share in pool._pool_map(_extract_share, pool._shares(tasks))
               for r in share]
    features, failed = [], []
    for clip_id, fm, err in results:
        if fm is None:
            failed.append(clip_id)
            log.warning("feature extraction failed for %s: %s", clip_id, err)
        else:
            features.append(fm)
    if failed and len(failed) / len(tasks) > 0.01:
        raise DataError(f"{len(failed)}/{len(tasks)} files failed feature extraction")
    if not features:
        raise DataError("no features extracted")

    t_max = args.tmax or dsp.round_up_multiple(max(fm.true_len for fm in features))
    truncated = sum(fm.frames.shape[0] > t_max for fm in features)
    features = [dsp.pad_to(fm, t_max) for fm in features]
    if truncated:
        log.warning("%d utterances truncated to %d frames", truncated, t_max)

    ok_ids = {fm.clip_id for fm in features}
    kept = Manifest(entries=[e for e in manifest.entries if e.path in ok_ids],
                    label_set=manifest.label_set)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    dsp.cache_write(args.out, features)
    sidecar = args.out + ".manifest.csv"
    save_manifest_csv(sidecar, kept)
    cfg_text = f"corpus={args.corpus}\ntmax={t_max}\n"
    print(f"wrote {len(features)} feature records (T={t_max}) to {args.out}; "
          f"{len(failed)} failures, {truncated} truncated")
    return args.out + ".run.json", cfg_text, None, [args.out, sidecar]


# ------------------------------------------------------------------- train

def _load_cache_with_manifest(cache_path):
    features = dsp.cache_read(cache_path)
    if not features:
        raise DataError(f"feature cache {cache_path} has no records")
    sidecar = cache_path + ".manifest.csv"
    if not os.path.exists(sidecar):
        raise DataError(f"missing sidecar manifest {sidecar}")
    manifest = load_manifest_csv(sidecar)
    return features, manifest


def _resolve_configs(args, manifest, features):
    mcfg, tcfg, explicit = parse_config_text(load_config_file(args.config),
                                             ModelConfig, TrainConfig)
    n_classes = len(manifest.label_set)
    if "n_classes" in explicit and mcfg.n_classes != n_classes:
        raise DataError(f"config says n_classes={mcfg.n_classes} but the "
                        f"manifest has {n_classes} labels")
    t_len = features[0].frames.shape[0]
    if "seq_len" in explicit and mcfg.seq_len != t_len:
        raise DataError(f"config says seq_len={mcfg.seq_len} but cached "
                        f"features have {t_len} frames")
    mcfg = replace(mcfg, n_classes=n_classes, seq_len=t_len)
    if args.seed is not None:
        tcfg = replace(tcfg, seed=args.seed)
    return mcfg, tcfg


SPLIT_SCHEMES = {"holdout": "holdout_80_20", "cv5": "cv5", "cv10": "cv10"}


def _write_fold(out_dir, tag, mcfg, result):
    """Write one fold's checkpoint, history, report and confusion matrix."""
    meta = {"best_epoch": str(result.best_epoch),
            "best_val_war": repr(result.report.war),
            "seed": str(result.seed), "fold": tag}
    paths = [os.path.join(out_dir, f"{stem}_{tag}{ext}") for stem, ext in
             (("fold", ".ckpt"), ("history", ".csv"), ("report", ".json"),
              ("confusion", ".csv"))]
    checkpoint_save(paths[0], mcfg, result.params, meta)
    with open(paths[1], "w", encoding="utf-8") as fh:
        fh.write(trainer.history_csv(result.history))
    with open(paths[2], "w", encoding="utf-8") as fh:
        fh.write(metrics.report_to_json(result.report))
    with open(paths[3], "w", encoding="utf-8") as fh:
        fh.write(metrics.confusion_csv(result.report))
    return paths


def cmd_train(args):
    features, manifest = _load_cache_with_manifest(args.features)
    mcfg, tcfg = _resolve_configs(args, manifest, features)
    os.makedirs(args.out, exist_ok=True)
    plan = make_splits(manifest, SPLIT_SCHEMES[args.split], tcfg.seed)
    if args.split == "holdout":
        results = [trainer.fit_fold(features, manifest, tcfg, (0, plan.folds[0], mcfg))]
        report = results[0].report
        summary = {"war": report.war, "uar": report.uar, "n_test": report.n}
    else:
        results, summary = trainer.run_cv(features, manifest, plan.folds, mcfg, tcfg)
    summary["scheme"] = plan.scheme
    artifacts = [path for f, res in enumerate(results)
                 for path in _write_fold(args.out, str(f), mcfg, res)]
    summary_path = os.path.join(args.out, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    artifacts.append(summary_path)
    print(json.dumps(summary, sort_keys=True))
    return (os.path.join(args.out, "run_manifest.json"), config_text(mcfg, tcfg),
            tcfg.seed, artifacts)


# ------------------------------------------------------------------ ablate

def _ablation_variants(study: str, base: ModelConfig):
    if study == "gating":
        return [(f"levels_{l}", str(l), replace(base, gating_levels=l))
                for l in (1, 2, 3, 4)]
    if study == "gscb":
        return [(f"gscb_{j}", str(j), replace(base, n_gscb=j))
                for j in (1, 2, 3, 4, 5)]
    if study == "scale":
        return [(mode, mode, replace(base, skip_mode=mode))
                for mode in ("max_scale", "multi_scale")]
    if study == "drd":
        rows = []
        for scheme, n_gcb in (("ours", 7), ("ours", 6), ("raw", 7), ("raw", 8)):
            cfg = replace(base, drd_scheme=scheme, n_gcb=n_gcb)
            rows.append((f"{scheme}-{receptive_field(cfg)[0]}", scheme, cfg))
        return rows
    raise UsageError(f"unknown study {study!r}")


def cmd_ablate(args):
    features, manifest = _load_cache_with_manifest(args.features)
    base_m, tcfg = _resolve_configs(args, manifest, features)
    os.makedirs(args.out, exist_ok=True)
    fold = make_splits(manifest, "holdout_80_20", tcfg.seed).folds[0]
    variants = _ablation_variants(args.study, base_m)
    results = pool._pool_map(partial(trainer.fit_fold, features, manifest, tcfg),
                             [(0, fold, mcfg) for _, _, mcfg in variants])
    rows = []
    for (variant, axis_value, mcfg), result in zip(variants, results):
        report = result.report
        nominal, actual = receptive_field(mcfg)
        rows.append({"study": args.study, "variant": variant, "value": axis_value,
                     "params": param_count(mcfg), "nominal_rf": nominal,
                     "actual_rf": actual, "war": report.war, "uar": report.uar})
        log.info("ablate %s %s: war=%.4f uar=%.4f", args.study, variant,
                 report.war, report.uar)
    csv_path = os.path.join(args.out, f"ablation_{args.study}.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("study,variant,value,params,nominal_rf,actual_rf,war,uar\n")
        for r in rows:
            fh.write(f"{r['study']},{r['variant']},{r['value']},{r['params']},"
                     f"{r['nominal_rf']},{r['actual_rf']},{r['war']!r},{r['uar']!r}\n")
    print(f"wrote {len(rows)} {args.study} rows to {csv_path}")
    return (os.path.join(args.out, "run_manifest.json"),
            config_text(base_m, tcfg), tcfg.seed, [csv_path])


# ----------------------------------------------------------------- analyze

def _write_maps(clip_dir: str, clip: str, maps: list) -> None:
    """A PGM and a CSV per map. Each map's CSV text is made before either of
    its files is opened, so a non-finite map writes neither."""
    for m in maps:
        try:
            text = analysis.map_csv(m.values)
        except NumericError as exc:
            raise NumericError(f"clip {clip}, map {m.source}: {exc}") from None
        with open(os.path.join(clip_dir, f"{m.source}.pgm"), "wb") as fh:
            fh.write(analysis.pgm_bytes(m.u8))
        with open(os.path.join(clip_dir, f"{m.source}.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)


def cmd_analyze(args):
    cfg, params, _meta = checkpoint_load(args.ckpt)
    features, manifest = _load_cache_with_manifest(args.features)
    if cfg.n_classes != len(manifest.label_set):
        raise DataError(f"checkpoint has {cfg.n_classes} classes but the "
                        f"cache manifest has {len(manifest.label_set)}")
    clips = trainer.manifest_features(features, manifest)
    os.makedirs(args.out, exist_ok=True)
    artifacts = []

    if args.what == "maps":
        maps_root = os.path.join(args.out, "maps")
        for idx, (entry, fm) in enumerate(zip(manifest.entries, clips)):
            clip_dir = os.path.join(
                maps_root, f"{idx:04d}_{_sanitize(os.path.basename(entry.path))}")
            os.makedirs(clip_dir, exist_ok=True)
            _write_maps(clip_dir, entry.path,
                        analysis.export_feature_maps(cfg, params, fm))
        artifacts.append(maps_root)
        print(f"wrote {cfg.n_gcb + 2} maps for each of {len(clips)} clips")
    elif args.what == "entropy":
        bits = analysis.utterance_entropy(cfg, params, clips)
        groups: dict[tuple[str, str], list[float]] = {}
        for entry, e_bits in zip(manifest.entries, bits):
            groups.setdefault((entry.corpus, entry.label), []).append(e_bits)
        csv_path = os.path.join(args.out, "entropy.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("corpus,emotion,entropy_bits\n")
            for (corp, emo) in sorted(groups):
                fh.write(f"{corp},{emo},{float(np.mean(groups[(corp, emo)]))!r}\n")
        artifacts.append(csv_path)
        print(f"wrote entropy for {len(groups)} corpus/emotion groups")
    elif args.what == "project":
        for fm in clips:
            if fm.frames.shape[0] != cfg.seq_len:
                raise DataError(f"cache frames ({fm.frames.shape[0]}) do not "
                                f"match checkpoint seq_len ({cfg.seq_len})")
        pooled = analysis.pooled_features(cfg, params, clips)
        ae_params = analysis.ae_train(pooled, seed=args.seed)
        coords = analysis.ae_project(ae_params, pooled)
        csv_path = os.path.join(args.out, "projections.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("id,label,x,y\n")
            for entry, (x, y) in zip(manifest.entries, coords):
                fh.write(f"{entry.path},{entry.label},{float(x)!r},{float(y)!r}\n")
        artifacts.append(csv_path)
        print(f"wrote projections for {len(clips)} clips")
    return (os.path.join(args.out, "run_manifest.json"), config_text(cfg),
            args.seed, artifacts)


# ------------------------------------------------------------------- synth

def cmd_synth(args):
    manifest = synth_generate(args.out, seed=args.seed, n_per_class=args.per_class)
    print(f"wrote {len(manifest.entries)} clips across "
          f"{len(manifest.label_set)} classes to {args.out}")
    return (os.path.join(args.out, "run_manifest.json"),
            f"per_class={args.per_class}\n", args.seed,
            [os.path.join(args.out, "manifest.csv")])


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="gmtc", description="Speech emotion recognition with a "
                "gated multi-scale temporal convolutional network")
    sub = p.add_subparsers(dest="cmd", required=True)

    f = sub.add_parser("features", help="extract MFCC features into a cache")
    f.add_argument("--corpus", required=True,
                   help="corpus kind (emodb|ravdess|savee|casia) or manifest CSV path")
    f.add_argument("--root", help="corpus root directory")
    f.add_argument("--out", required=True, help="cache file to write")
    f.add_argument("--tmax", type=_positive_int,
                   help="pad/truncate to this many frames (default: longest, "
                        "rounded up to a multiple of 32)")

    t = sub.add_parser("train", help="train and evaluate")
    t.add_argument("--features", required=True, help="feature cache")
    t.add_argument("--split", choices=sorted(SPLIT_SCHEMES), default="holdout")
    t.add_argument("--seed", type=_seed)
    t.add_argument("--config", help="flat key=value config file")
    t.add_argument("--out", required=True, help="output directory")

    a = sub.add_parser("ablate", help="run a configuration sweep")
    a.add_argument("--study", choices=["gating", "gscb", "scale", "drd"],
                   required=True)
    a.add_argument("--features", required=True)
    a.add_argument("--seed", type=_seed)
    a.add_argument("--config", help="base config file")
    a.add_argument("--out", required=True)

    z = sub.add_parser("analyze", help="interpretability artifacts")
    z.add_argument("what", choices=["entropy", "maps", "project"])
    z.add_argument("--ckpt", required=True)
    z.add_argument("--features", required=True)
    z.add_argument("--out", required=True)
    z.add_argument("--seed", type=_seed, default=0, help="projector seed")

    s = sub.add_parser("synth", help="generate the synthetic corpus")
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--out", required=True)
    s.add_argument("--per-class", type=_positive_int, required=True)
    return p


_COMMANDS = {"features": cmd_features, "train": cmd_train, "ablate": cmd_ablate,
             "analyze": cmd_analyze, "synth": cmd_synth}


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO,
                            format="%(levelname)s %(name)s: %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        t0 = time.perf_counter()
        run_path, cfg_text, seed, artifacts = _COMMANDS[args.cmd](args)
        write_run_manifest(run_path, ["gmtc"] + argv, cfg_text, seed, artifacts,
                           time.perf_counter() - t0)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
