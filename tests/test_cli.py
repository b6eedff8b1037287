"""End-to-end tests for the gmtc command line tool."""

import json
import multiprocessing
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from gmtc import analysis, cli, dsp, pool, trainer
from gmtc.cli import main
from gmtc.corpus import (Entry, Manifest, load_manifest_csv, save_manifest_csv,
                         synth_generate)
from gmtc.errors import DataError
from gmtc.model import (ModelConfig, checkpoint_load, checkpoint_save,
                        forward_with_maps, init_params)

TINY_CFG = ("n_gcb=1\ngating_levels=1\nn_gscb=1\nmax_epochs=3\n"
            "batch_size=8\npatience=5\n")

# Python's preferred and filesystem encodings are ASCII under this environment
ASCII_ENV = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


@pytest.fixture(scope="session", autouse=True)
def _serial_workers():
    old = os.environ.get("GMTC_THREADS")
    os.environ["GMTC_THREADS"] = "1"
    yield
    if old is None:
        os.environ.pop("GMTC_THREADS", None)
    else:
        os.environ["GMTC_THREADS"] = old


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Shared synth corpus, feature cache, config file, and trained run."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    cache = root / "cache.bin"
    cfg = root / "tiny.cfg"
    run = root / "run1"
    assert main(["synth", "--seed", "3", "--out", str(corpus),
                 "--per-class", "5"]) == 0
    assert main(["features", "--corpus", str(corpus / "manifest.csv"),
                 "--out", str(cache)]) == 0
    cfg.write_text(TINY_CFG)
    assert main(["train", "--features", str(cache), "--config", str(cfg),
                 "--seed", "1", "--out", str(run)]) == 0
    return {"root": root, "corpus": corpus, "cache": cache, "cfg": cfg,
            "run": run}


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def run_gmtc(argv, env):
    """The CLI in a fresh interpreter with `env` added to this environment."""
    code = "import sys; from gmtc.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env})


# ------------------------------------------------------------------- synth

def test_synth_deterministic_and_manifested(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--seed", "7", "--out", str(a), "--per-class", "2"]) == 0
    assert main(["synth", "--seed", "7", "--out", str(b), "--per-class", "2"]) == 0
    wavs = sorted(p.name for p in a.glob("*.wav"))
    assert len(wavs) == 12
    for name in wavs + ["manifest.csv"]:
        assert read_bytes(a / name) == read_bytes(b / name)
    assert (a / "run_manifest.json").exists()


def test_synth_zero_per_class_is_usage_error(tmp_path):
    assert main(["synth", "--seed", "0", "--out", str(tmp_path / "z"),
                 "--per-class", "0"]) == 1


# ------------------------------------------------------------- usage errors

def test_usage_errors():
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["train", "--features", "x", "--out", "y", "--split", "cv7"]) == 1
    assert main(["ablate", "--study", "nope", "--features", "x", "--out", "y"]) == 1
    assert main(["features", "--corpus", "casia", "--out", "c"]) == 1  # no --root
    assert main(["features", "--corpus", "m.csv", "--out", "c", "--standardize"]) == 1
    for argv in (["synth", "--out", "s", "--per-class", "1"],
                 ["train", "--features", "x", "--out", "y"],
                 ["ablate", "--study", "gating", "--features", "x", "--out", "y"],
                 ["analyze", "project", "--ckpt", "k", "--features", "x", "--out", "y"]):
        assert main(argv + ["--seed", "-1"]) == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


# ---------------------------------------------------------------- features

def test_features_deterministic(pipeline, tmp_path):
    cache2 = tmp_path / "cache2.bin"
    assert main(["features", "--corpus", str(pipeline["corpus"] / "manifest.csv"),
                 "--out", str(cache2)]) == 0
    assert read_bytes(cache2) == read_bytes(pipeline["cache"])
    assert read_bytes(str(cache2) + ".manifest.csv") == \
        read_bytes(str(pipeline["cache"]) + ".manifest.csv")


def test_features_parallel_matches_serial(pipeline, tmp_path, monkeypatch):
    for threads in ("2", "3"):
        monkeypatch.setenv("GMTC_THREADS", threads)
        cache = tmp_path / f"cache_{threads}.bin"
        assert main(["features", "--corpus", str(pipeline["corpus"] / "manifest.csv"),
                     "--out", str(cache)]) == 0
        for suffix in ("", ".manifest.csv"):
            assert read_bytes(str(cache) + suffix) == \
                read_bytes(str(pipeline["cache"]) + suffix), (threads, suffix)


def test_features_share_reads_its_clips_through_one_workspace(pipeline, monkeypatch):
    entries = load_manifest_csv(str(pipeline["corpus"] / "manifest.csv")).entries
    tasks = [(str(pipeline["corpus"] / e.path), e.path) for e in entries[:4]]
    taken = []
    real = dsp.read_wav
    monkeypatch.setattr(dsp, "read_wav", lambda path, work: taken.append(work) or real(path, work))
    alone = cli._extract_share(tasks)
    assert len(taken) == 4 and all(work is taken[0] for work in taken)
    taken.clear()
    shared = cli._extract_share(tasks[:2]) + cli._extract_share(tasks[2:])
    assert len(taken) == 4 and taken[0] is taken[1] and taken[2] is taken[3]
    assert taken[1] is not taken[2]
    assert [(i, fm.frames.tobytes()) for i, fm, _ in shared] == \
        [(i, fm.frames.tobytes()) for i, fm, _ in alone]


def test_features_serial_run_frees_its_workspace(pipeline, tmp_path, monkeypatch):
    monkeypatch.setenv("GMTC_THREADS", "1")
    made = []
    real = dsp.MfccWorkspace

    def workspace():
        work = real()
        made.append(weakref.ref(work))
        return work

    monkeypatch.setattr(dsp, "MfccWorkspace", workspace)
    assert main(["features", "--corpus", str(pipeline["corpus"] / "manifest.csv"),
                 "--out", str(tmp_path / "c.bin")]) == 0
    assert len(made) == 1 and made[0]() is None


@pytest.mark.parametrize("bad", ["corrupt", "low_rate"])
def test_features_failed_clip_inside_a_chunk_matches_serial(tmp_path, monkeypatch, bad):
    """A clip that fails between good clips of one worker's share fails
    alone: the cache is the one its share-mates give without it, pooled or
    serial."""
    root = tmp_path / "corpus"
    manifest = synth_generate(root, seed=5, n_per_class=17)  # one failure stays under 1%
    if bad == "corrupt":
        (root / "bad.wav").write_bytes(b"RIFF" + bytes(40))
    else:  # too low a rate to resample to 22050 Hz
        dsp.write_wav_pcm16(root / "bad.wav", dsp.AudioClip(np.zeros(200), 50))
    at = 13
    entries = list(manifest.entries)
    entries.insert(at, Entry(path="bad.wav", label=entries[0].label, speaker="spk0",
                             corpus="synth"))
    save_manifest_csv(root / "with_bad.csv", Manifest(entries=entries,
                                                      label_set=manifest.label_set))
    for threads in ("2", "3"):
        monkeypatch.setenv("GMTC_THREADS", threads)
        share = next(s for s in pool._shares(list(range(len(entries)))) if at in s)
        assert share[0] < at < share[-1], threads
    outs = []
    for threads, csv in (("1", "with_bad.csv"), ("2", "with_bad.csv"), ("3", "with_bad.csv"),
                         ("2", "manifest.csv")):
        monkeypatch.setenv("GMTC_THREADS", threads)
        outs.append(tmp_path / f"{threads}_{csv}.bin")
        assert main(["features", "--corpus", str(root / csv), "--out", str(outs[-1])]) == 0
    for suffix in ("", ".manifest.csv"):
        assert len({read_bytes(str(out) + suffix) for out in outs}) == 1, suffix


def test_features_scans_corpus_tree(pipeline, tmp_path):
    tree = tmp_path / "tree"
    manifest = load_manifest_csv(pipeline["corpus"] / "manifest.csv")
    for entry in manifest.entries[:12]:
        dest = tree / "spk1" / entry.label
        dest.mkdir(parents=True, exist_ok=True)
        src = pipeline["corpus"] / entry.path if not os.path.isabs(entry.path) \
            else entry.path
        shutil.copy(src, dest / os.path.basename(entry.path))
    cache = tmp_path / "scan.bin"
    assert main(["features", "--corpus", "casia", "--root", str(tree),
                 "--out", str(cache)]) == 0
    assert len(dsp.cache_read(cache)) == 12


def test_features_failure_ratio_gates(pipeline, tmp_path):
    src = str(pipeline["cache"]) + ".manifest.csv"
    bad = tmp_path / "bad.csv"
    lines = open(src).read().splitlines()
    lines.append(f"{tmp_path}/missing.wav,angry,spk0,synth")
    bad.write_text("\n".join(lines) + "\n")
    assert main(["features", "--corpus", str(bad),
                 "--out", str(tmp_path / "c.bin")]) == 2


def test_features_tmax_truncates(pipeline, tmp_path, capsys):
    cache = tmp_path / "short.bin"
    capsys.readouterr()
    assert main(["features", "--corpus", str(pipeline["corpus"] / "manifest.csv"),
                 "--tmax", "64", "--out", str(cache)]) == 0
    # the pipeline cache is unclipped, so its true_len is each clip's length
    longer = sum(fm.true_len > 64 for fm in dsp.cache_read(pipeline["cache"]))
    assert longer > 0
    assert f"0 failures, {longer} truncated" in capsys.readouterr().out
    records = dsp.cache_read(cache)
    assert all(fm.frames.shape[0] == 64 for fm in records)
    assert all(fm.true_len <= 64 for fm in records)


def test_features_malformed_manifest_exits_2(tmp_path, capsys):
    # a byte that is not UTF-8, and a field past csv's 131072-character limit
    for name, path in (("binary", b"\xffa.wav"), ("huge", b"x" * 131073)):
        bad = tmp_path / f"{name}.csv"
        bad.write_bytes(b"path,label,speaker,corpus\n" + path + b",angry,spk0,synth\n")
        capsys.readouterr()
        assert main(["features", "--corpus", str(bad),
                     "--out", str(tmp_path / f"{name}.bin")]) == 2, name
        assert "data error:" in capsys.readouterr().err


def test_features_non_finite_wav_fails_clip(tmp_path, capsys):
    import scipy.io.wavfile

    samples = np.full(16000, 0.1, dtype=np.float32)
    samples[500] = np.nan
    scipy.io.wavfile.write(tmp_path / "nan.wav", 16000, samples)
    manifest = tmp_path / "nan.csv"
    manifest.write_text("path,label,speaker,corpus\nnan.wav,angry,spk0,synth\n")
    capsys.readouterr()
    assert main(["features", "--corpus", str(manifest),
                 "--out", str(tmp_path / "nan.bin")]) == 2
    assert "1/1 files failed" in capsys.readouterr().err


def test_features_low_header_rate_fails_clip(tmp_path, capsys):
    # a 1 Hz header: resampling it would need 22050 outputs per input sample
    fmt = struct.pack("<HHIIHH", 1, 1, 1, 2, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", 8)
    (tmp_path / "slow.wav").write_bytes(b"RIFF" + struct.pack("<I", len(body) + 8)
                                        + body + bytes(8))
    manifest = tmp_path / "slow.csv"
    manifest.write_text("path,label,speaker,corpus\nslow.wav,angry,spk0,synth\n")
    capsys.readouterr()
    assert main(["features", "--corpus", str(manifest),
                 "--out", str(tmp_path / "slow.bin")]) == 2
    err = capsys.readouterr().err
    assert "1/1 files failed" in err
    assert "Traceback" not in err


def test_features_unopenable_paths_fail_their_clips(pipeline, tmp_path):
    # a missing file, and a name the ASCII filesystem encoding cannot hold
    wav = next(pipeline["corpus"].glob("*.wav"))
    shutil.copy(wav, tmp_path / "good.wav")
    shutil.copy(wav, tmp_path / "ü_angry.wav")
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,speaker,corpus\ngood.wav,angry,spk0,synth\n"
                        "missing.wav,angry,spk0,synth\nü_angry.wav,angry,spk0,synth\n",
                        encoding="utf-8")
    out = run_gmtc(["features", "--corpus", str(manifest), "--out",
                    str(tmp_path / "c.bin")], ASCII_ENV)
    assert out.returncode == 2, out.stderr
    assert "2/3 files failed feature extraction" in out.stderr


def test_features_bad_threads_env(pipeline, tmp_path, monkeypatch):
    monkeypatch.setenv("GMTC_THREADS", "lots")
    assert main(["features", "--corpus", str(pipeline["corpus"] / "manifest.csv"),
                 "--out", str(tmp_path / "c.bin")]) == 2


def test_unwritable_output_exits_2(pipeline, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    out = str(blocker / "sub")
    for argv in (["synth", "--seed", "0", "--per-class", "1", "--out", out],
                 ["train", "--features", str(pipeline["cache"]), "--config",
                  str(pipeline["cfg"]), "--out", out]):
        res = run_gmtc(argv, {})
        assert res.returncode == 2, (argv[0], res.stderr)
        assert "data error:" in res.stderr and "Traceback" not in res.stderr, argv[0]


# ------------------------------------------------------------------- train

def test_train_artifacts(pipeline):
    run = pipeline["run"]
    for name in ("fold_0.ckpt", "history_0.csv", "report_0.json",
                 "confusion_0.csv", "summary.json", "run_manifest.json"):
        assert (run / name).exists(), name
    summary = json.loads((run / "summary.json").read_text())
    assert summary["scheme"] == "holdout_80_20"
    assert 0.0 <= summary["war"] <= 1.0
    rm = json.loads((run / "run_manifest.json").read_text())
    assert rm["seed"] == 1
    assert "n_gcb=1" in rm["config"]
    assert any(p.endswith("summary.json") for p in rm["artifacts"])


def test_train_rerun_bit_identical(pipeline, tmp_path):
    run2 = tmp_path / "run2"
    assert main(["train", "--features", str(pipeline["cache"]), "--config",
                 str(pipeline["cfg"]), "--seed", "1", "--out", str(run2)]) == 0
    for name in ("fold_0.ckpt", "report_0.json", "confusion_0.csv",
                 "summary.json"):
        assert read_bytes(run2 / name) == read_bytes(pipeline["run"] / name), name
    # history matches except the wall-clock column
    h1 = (pipeline["run"] / "history_0.csv").read_text().splitlines()
    h2 = (run2 / "history_0.csv").read_text().splitlines()
    assert [r.rsplit(",", 1)[0] for r in h1] == [r.rsplit(",", 1)[0] for r in h2]


def test_train_seed_changes_params(pipeline, tmp_path):
    run3 = tmp_path / "run3"
    assert main(["train", "--features", str(pipeline["cache"]), "--config",
                 str(pipeline["cfg"]), "--seed", "2", "--out", str(run3)]) == 0
    assert read_bytes(run3 / "fold_0.ckpt") != \
        read_bytes(pipeline["run"] / "fold_0.ckpt")


def test_train_cv5(pipeline, tmp_path):
    out = tmp_path / "cv"
    cfg = tmp_path / "cv.cfg"
    cfg.write_text(TINY_CFG.replace("max_epochs=3", "max_epochs=2"))
    assert main(["train", "--features", str(pipeline["cache"]), "--split",
                 "cv5", "--config", str(cfg), "--seed", "0",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["folds"] == 5
    for key in ("war_mean", "war_std", "war_max", "uar_mean", "uar_std",
                "uar_max"):
        assert key in summary
    assert all((out / f"fold_{k}.ckpt").exists() for k in range(5))


def _cv_artifacts(out):
    """Every file under `out` but the run manifest, with the wall-clock
    column cut from the histories."""
    files = _artifact_bytes(out)
    for name in [n for n in files if n.startswith("history_")]:
        files[name] = [row.rsplit(b",", 1)[0] for row in files[name].splitlines()]
    return files


def test_train_cv_parallel_matches_serial(pipeline, tmp_path, monkeypatch):
    cfg = tmp_path / "cv.cfg"
    cfg.write_text(TINY_CFG.replace("max_epochs=3", "max_epochs=2"))
    artifacts = []
    for threads in ("1", "3"):
        monkeypatch.setenv("GMTC_THREADS", threads)
        out = tmp_path / f"cv_{threads}"
        assert main(["train", "--features", str(pipeline["cache"]), "--split",
                     "cv5", "--config", str(cfg), "--seed", "4",
                     "--out", str(out)]) == 0
        artifacts.append(_cv_artifacts(out))
    assert len(artifacts[0]) == 5 * 4 + 1  # four files per fold plus the summary
    assert artifacts[0] == artifacts[1]


def test_train_cv_failing_fold_exits_2(pipeline, tmp_path, monkeypatch, capsys):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the patched trainer.train only when forked")
    real_train = trainer.train

    def train_failing_fold_2(features, manifest, fold, model_cfg, train_cfg):
        if train_cfg.seed == 2:  # fold 2 of a run seeded 0
            raise DataError("injected")
        return real_train(features, manifest, fold, model_cfg, train_cfg)

    monkeypatch.setattr(trainer, "train", train_failing_fold_2)
    monkeypatch.setenv("GMTC_THREADS", "3")
    cfg = tmp_path / "cv.cfg"
    cfg.write_text(TINY_CFG.replace("max_epochs=3", "max_epochs=1"))
    capsys.readouterr()
    assert main(["train", "--features", str(pipeline["cache"]), "--split",
                 "cv5", "--config", str(cfg), "--seed", "0",
                 "--out", str(tmp_path / "cv")]) == 2
    assert "data error: fold 2: injected" in capsys.readouterr().err


def test_train_missing_inputs(pipeline, tmp_path):
    assert main(["train", "--features", str(tmp_path / "nope.bin"),
                 "--out", str(tmp_path / "o")]) == 2
    orphan = tmp_path / "orphan.bin"
    shutil.copy(pipeline["cache"], orphan)
    assert main(["train", "--features", str(orphan),
                 "--out", str(tmp_path / "o2")]) == 2  # no sidecar manifest


def test_empty_cache_exits_2(pipeline, tmp_path, capsys):
    empty = tmp_path / "empty.bin"
    dsp.cache_write(empty, [])
    sidecar = open(str(pipeline["cache"]) + ".manifest.csv").read().splitlines()
    (tmp_path / "empty.bin.manifest.csv").write_text("\n".join(sidecar[:2]) + "\n")
    for argv in (["train"], ["ablate", "--study", "scale"]):
        capsys.readouterr()
        assert main(argv + ["--features", str(empty),
                            "--out", str(tmp_path / "o")]) == 2, argv
        assert "has no records" in capsys.readouterr().err


def test_train_holdout_error_names_fold(pipeline, tmp_path, monkeypatch, capsys):
    def train_failing(*args):
        raise DataError("injected")

    monkeypatch.setattr(trainer, "train", train_failing)
    capsys.readouterr()
    assert main(["train", "--features", str(pipeline["cache"]), "--config",
                 str(pipeline["cfg"]), "--out", str(tmp_path / "o")]) == 2
    assert "data error: fold 0: injected" in capsys.readouterr().err


def test_non_finite_cache_record_exits_2(pipeline, tmp_path, capsys):
    features = dsp.cache_read(pipeline["cache"])
    features[2].frames[5, 3] = np.nan
    cache = tmp_path / "nan.bin"
    dsp.cache_write(cache, features)
    shutil.copy(str(pipeline["cache"]) + ".manifest.csv", str(cache) + ".manifest.csv")
    ckpt = str(pipeline["run"] / "fold_0.ckpt")
    for argv in (["train", "--config", str(pipeline["cfg"])],
                 ["analyze", "entropy", "--ckpt", ckpt],
                 ["analyze", "maps", "--ckpt", ckpt],
                 ["analyze", "project", "--ckpt", ckpt]):
        capsys.readouterr()
        assert main(argv + ["--features", str(cache),
                            "--out", str(tmp_path / "o")]) == 2, argv
        assert (f"non-finite features for clip {features[2].clip_id}"
                in capsys.readouterr().err)


def test_analyze_non_finite_checkpoint_exits_2(pipeline, tmp_path, capsys):
    cfg, params, meta = checkpoint_load(pipeline["run"] / "fold_0.ckpt")
    params["head.bias"][1] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    checkpoint_save(ckpt, cfg, params, meta)
    capsys.readouterr()
    assert main(["analyze", "project", "--ckpt", str(ckpt), "--features",
                 str(pipeline["cache"]), "--out", str(tmp_path / "o")]) == 2
    assert "head.bias has non-finite values" in capsys.readouterr().err


def test_train_config_validation(pipeline, tmp_path):
    for text in ("n_classes=4\n", "mystery=1\n", "n_gcb=1\nn_gcb=2\n",
                 "n_gcb=abc\n", "lr=fast\n", "batch_size\n", "seed=-3\n",
                 "lr=nan\n", "lr=inf\n", "lr=-1\n", "beta1=0.9\n", "beta2=0.999\n",
                 "eps=1e-7\n", "shuffle=false\n"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["train", "--features", str(pipeline["cache"]),
                     "--config", str(cfg), "--out", str(tmp_path / "ob")]) == 2


# ------------------------------------------------------------------ ablate

def test_ablate_gating(pipeline, tmp_path):
    out = tmp_path / "abl"
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(TINY_CFG.replace("max_epochs=3", "max_epochs=1"))
    assert main(["ablate", "--study", "gating", "--features",
                 str(pipeline["cache"]), "--config", str(cfg), "--seed", "0",
                 "--out", str(out)]) == 0
    rows = (out / "ablation_gating.csv").read_text().splitlines()
    assert rows[0] == "study,variant,value,params,nominal_rf,actual_rf,war,uar"
    assert [r.split(",")[1] for r in rows[1:]] == \
        ["levels_1", "levels_2", "levels_3", "levels_4"]
    assert (out / "run_manifest.json").exists()


def test_ablate_scale(pipeline, tmp_path):
    out = tmp_path / "abl_scale"
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(TINY_CFG.replace("max_epochs=3", "max_epochs=1"))
    assert main(["ablate", "--study", "scale", "--features",
                 str(pipeline["cache"]), "--config", str(cfg), "--seed", "0",
                 "--out", str(out)]) == 0
    rows = (out / "ablation_scale.csv").read_text().splitlines()
    assert [r.split(",")[1] for r in rows[1:]] == ["max_scale", "multi_scale"]


def test_ablate_parallel_matches_serial(pipeline, tmp_path, monkeypatch):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(TINY_CFG.replace("max_epochs=3", "max_epochs=1"))
    tables = []
    for threads in ("1", "3"):
        monkeypatch.setenv("GMTC_THREADS", threads)
        out = tmp_path / f"abl_{threads}"
        assert main(["ablate", "--study", "gscb", "--features",
                     str(pipeline["cache"]), "--config", str(cfg), "--seed", "0",
                     "--out", str(out)]) == 0
        tables.append(read_bytes(out / "ablation_gscb.csv"))
    rows = tables[0].decode().splitlines()
    assert [r.split(",")[1] for r in rows[1:]] == [f"gscb_{j}" for j in range(1, 6)]
    assert tables[0] == tables[1]


# ----------------------------------------------------------------- analyze

def test_analyze_maps(pipeline, tmp_path):
    out = tmp_path / "maps"
    ckpt = pipeline["run"] / "fold_0.ckpt"
    assert main(["analyze", "maps", "--ckpt", str(ckpt),
                 "--features", str(pipeline["cache"]), "--out", str(out)]) == 0
    clip_dirs = sorted((out / "maps").iterdir())
    assert len(clip_dirs) == 30
    pgms = sorted(p.name for p in clip_dirs[0].glob("*.pgm"))
    assert pgms == ["gcb_1.pgm", "gtcm_output.pgm", "input.pgm"]  # n_gcb=1 -> 3 maps
    assert read_bytes(next(clip_dirs[0].glob("*.pgm"))).startswith(b"P5\n")
    # every CSV value parses back to the exact float32 of the clip's map
    cfg, params, _ = checkpoint_load(ckpt)
    manifest = load_manifest_csv(str(pipeline["cache"]) + ".manifest.csv")
    clips = trainer.manifest_features(dsp.cache_read(pipeline["cache"]), manifest)
    for clip_dir, fm in zip(clip_dirs, clips):
        _, maps = forward_with_maps(dsp.unpad(fm), cfg, params)
        for source, want in zip(["input", "gcb_1", "gtcm_output"], maps):
            lines = (clip_dir / f"{source}.csv").read_text().splitlines()
            got = np.array([line.split(",") for line in lines], dtype=np.float32)
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), clip_dir


def test_analyze_maps_non_finite_map_exits_3(pipeline, tmp_path, monkeypatch, capsys):
    export = analysis.export_feature_maps

    def poisoned(*args):
        maps = export(*args)
        maps[-1].values[0, 0] = np.inf
        return maps

    monkeypatch.setattr(analysis, "export_feature_maps", poisoned)
    capsys.readouterr()
    assert main(["analyze", "maps", "--ckpt", str(pipeline["run"] / "fold_0.ckpt"),
                 "--features", str(pipeline["cache"]), "--out", str(tmp_path / "m")]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "map gtcm_output" in err and "Traceback" not in err
    clip_dir = next((tmp_path / "m" / "maps").iterdir())
    assert sorted(p.name for p in clip_dir.iterdir()) == [
        "gcb_1.csv", "gcb_1.pgm", "input.csv", "input.pgm"]


def test_analyze_entropy(pipeline, tmp_path):
    out = tmp_path / "ent"
    assert main(["analyze", "entropy", "--ckpt",
                 str(pipeline["run"] / "fold_0.ckpt"),
                 "--features", str(pipeline["cache"]), "--out", str(out)]) == 0
    rows = (out / "entropy.csv").read_text().splitlines()
    assert rows[0] == "corpus,emotion,entropy_bits"
    emotions = [r.split(",")[1] for r in rows[1:]]
    assert emotions == sorted(emotions) and len(emotions) == 6
    for r in rows[1:]:
        assert 0.0 <= float(r.split(",")[2]) <= 16.0


def test_analyze_entropy_names_a_clip_of_one_frame(pipeline, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    short = load_manifest_csv(corpus / "manifest.csv").entries[0].path
    rng = np.random.default_rng(0)  # 0.055 s: one 50 ms frame
    dsp.write_wav_pcm16(corpus / short, dsp.AudioClip(samples=0.3 * rng.uniform(-1, 1, 1212),
                                                      sample_rate=22050))
    cache = tmp_path / "cache.bin"
    assert main(["features", "--corpus", str(corpus / "manifest.csv"),
                 "--out", str(cache)]) == 0
    assert main(["analyze", "maps", "--ckpt", str(pipeline["run"] / "fold_0.ckpt"),
                 "--features", str(cache), "--out", str(tmp_path / "maps")]) == 0
    capsys.readouterr()
    assert main(["analyze", "entropy", "--ckpt", str(pipeline["run"] / "fold_0.ckpt"),
                 "--features", str(cache), "--out", str(tmp_path / "ent")]) == 2
    assert f"clip {short} has 1 real frame(s)" in capsys.readouterr().err


def test_analyze_project_deterministic(pipeline, tmp_path):
    outs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        assert main(["analyze", "project", "--ckpt",
                     str(pipeline["run"] / "fold_0.ckpt"),
                     "--features", str(pipeline["cache"]), "--seed", "5",
                     "--out", str(out)]) == 0
        outs.append(read_bytes(out / "projections.csv"))
    assert outs[0] == outs[1]
    rows = outs[0].decode().splitlines()
    assert rows[0] == "id,label,x,y"
    assert len(rows) == 31


def test_analyze_artifacts_do_not_depend_on_locale(pipeline, tmp_path):
    features = dsp.cache_read(pipeline["cache"])
    manifest = load_manifest_csv(str(pipeline["cache"]) + ".manifest.csv")
    renamed = {e.path: os.path.join(os.path.dirname(e.path), "ü" + os.path.basename(e.path))
               for e in manifest.entries}
    for item in features:
        item.clip_id = renamed[item.clip_id]
    for e in manifest.entries:
        e.path = renamed[e.path]
    cache = tmp_path / "umlaut.bin"
    dsp.cache_write(cache, features)
    save_manifest_csv(str(cache) + ".manifest.csv", manifest)
    ckpt = str(pipeline["run"] / "fold_0.ckpt")
    args = ["--ckpt", ckpt, "--features", str(cache)]
    assert main(["analyze", "project", *args, "--out", str(tmp_path / "utf8")]) == 0
    for what in ("project", "maps"):
        out = run_gmtc(["analyze", what, *args, "--out", str(tmp_path / "ascii")], ASCII_ENV)
        assert out.returncode == 0, out.stderr
    assert read_bytes(tmp_path / "ascii" / "projections.csv") == \
        read_bytes(tmp_path / "utf8" / "projections.csv")
    assert "ü" in (tmp_path / "utf8" / "projections.csv").read_text(encoding="utf-8")
    assert len(list((tmp_path / "ascii" / "maps").iterdir())) == 30


def test_analyze_checkpoint_cache_mismatch(pipeline, tmp_path):
    cfg = ModelConfig(n_gcb=1, gating_levels=1, n_gscb=1, n_classes=4,
                      seq_len=256)
    ckpt = tmp_path / "wrong.ckpt"
    checkpoint_save(ckpt, cfg, init_params(cfg, seed=0), {})
    assert main(["analyze", "entropy", "--ckpt", str(ckpt), "--features",
                 str(pipeline["cache"]), "--out", str(tmp_path / "o")]) == 2


def test_ablate_drd_param_counts(pipeline, tmp_path):
    out = tmp_path / "abl_drd"
    cfg = tmp_path / "one.cfg"
    cfg.write_text("max_epochs=1\nbatch_size=8\n")
    assert main(["ablate", "--study", "drd", "--features",
                 str(pipeline["cache"]), "--config", str(cfg), "--seed", "0",
                 "--out", str(out)]) == 0
    rows = [r.split(",") for r in
            (out / "ablation_drd.csv").read_text().splitlines()[1:]]
    assert [r[1] for r in rows] == ["ours-256", "ours-128", "raw-128",
                                    "raw-256"]
    assert [int(r[3]) for r in rows] == [260_604, 223_632, 260_604, 297_576]


def test_analyze_maps_deep_model_emits_nine(pipeline, tmp_path):
    # untrained deep checkpoint is enough to exercise the map count; keep one
    # clip per class so the sidecar reload still sees all six labels
    manifest = load_manifest_csv(str(pipeline["cache"]) + ".manifest.csv")
    keep = {}
    for e in manifest.entries:
        keep.setdefault(e.label, e.path)
    manifest.entries = [e for e in manifest.entries if keep[e.label] == e.path]
    chosen = set(keep.values())
    features = [fm for fm in dsp.cache_read(pipeline["cache"])
                if fm.clip_id in chosen]
    cache2 = tmp_path / "six.bin"
    dsp.cache_write(cache2, features)
    from gmtc.corpus import save_manifest_csv
    save_manifest_csv(str(cache2) + ".manifest.csv", manifest)
    cfg = ModelConfig(n_gcb=7, n_classes=6, seq_len=features[0].frames.shape[0])
    ckpt = tmp_path / "deep.ckpt"
    checkpoint_save(ckpt, cfg, init_params(cfg, seed=0), {})
    out = tmp_path / "deep_maps"
    assert main(["analyze", "maps", "--ckpt", str(ckpt), "--features",
                 str(cache2), "--out", str(out)]) == 0
    for clip_dir in (out / "maps").iterdir():
        assert len(list(clip_dir.glob("*.pgm"))) == 9


def _artifact_bytes(out):
    """Every file under `out` but the run manifest, by relative path."""
    return {str(p.relative_to(out)): read_bytes(p) for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run_manifest.json"}


def test_analyze_parallel_matches_serial(pipeline, tmp_path, monkeypatch):
    for what in ("entropy", "maps", "project"):
        artifacts = []
        for threads in ("1", "3"):
            monkeypatch.setenv("GMTC_THREADS", threads)
            out = tmp_path / f"{what}_{threads}"
            assert main(["analyze", what, "--ckpt",
                         str(pipeline["run"] / "fold_0.ckpt"), "--features",
                         str(pipeline["cache"]), "--out", str(out)]) == 0
            artifacts.append(_artifact_bytes(out))
        assert artifacts[0] and artifacts[0] == artifacts[1], what


def test_analyze_keeps_no_module_state(pipeline, tmp_path):
    before = dict(vars(cli))
    assert main(["analyze", "entropy", "--ckpt",
                 str(pipeline["run"] / "fold_0.ckpt"), "--features",
                 str(pipeline["cache"]), "--out", str(tmp_path / "ent")]) == 0
    after = vars(cli)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_analyze_maps_runs_in_process_one_clip_at_a_time(pipeline, tmp_path, monkeypatch):
    def refuse(fn, items):
        raise AssertionError("analyze maps mapped work over a pool")

    monkeypatch.setattr(pool, "_pool_map", refuse)
    monkeypatch.setattr(pool, "_thread_map", refuse)
    monkeypatch.setenv("GMTC_THREADS", "3")
    # traced memory as each clip's export starts, and the size of its maps
    traced, clip_bytes = [], []
    export = analysis.export_feature_maps

    def spy(*args):
        traced.append(tracemalloc.get_traced_memory()[0])
        maps = export(*args)
        clip_bytes.append(sum(m.values.nbytes + m.u8.nbytes for m in maps))
        return maps

    monkeypatch.setattr(analysis, "export_feature_maps", spy)
    tracemalloc.start()
    try:
        assert main(["analyze", "maps", "--ckpt",
                     str(pipeline["run"] / "fold_0.ckpt"), "--features",
                     str(pipeline["cache"]), "--out", str(tmp_path / "maps")]) == 0
    finally:
        tracemalloc.stop()
    assert len(traced) == 30
    # what the previous clips left behind is less than one clip's maps
    assert traced[-1] - traced[0] < clip_bytes[-2]


def test_features_bad_root_fails(tmp_path):
    assert main(["features", "--corpus", "casia", "--root",
                 str(tmp_path / "missing"), "--out",
                 str(tmp_path / "c.bin")]) == 2


def test_every_command_writes_its_run_manifest(pipeline, tmp_path):
    ckpt = str(pipeline["run"] / "fold_0.ckpt")
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(TINY_CFG.replace("max_epochs=3", "max_epochs=1"))
    manifests = {"synth": pipeline["corpus"] / "run_manifest.json",
                 "features": pipeline["root"] / "cache.bin.run.json",
                 "train": pipeline["run"] / "run_manifest.json"}
    out = tmp_path / "abl"
    assert main(["ablate", "--study", "scale", "--features",
                 str(pipeline["cache"]), "--config", str(cfg), "--out", str(out)]) == 0
    manifests["ablate"] = out / "run_manifest.json"
    for what in ("maps", "entropy", "project"):
        out = tmp_path / what
        assert main(["analyze", what, "--ckpt", ckpt, "--features",
                     str(pipeline["cache"]), "--out", str(out)]) == 0
        manifests[f"analyze {what}"] = out / "run_manifest.json"
    for cmd, path in manifests.items():
        rm = json.loads(path.read_text())
        assert " ".join(rm["command"]).startswith(f"gmtc {cmd}"), cmd
        assert isinstance(rm["config"], str) and rm["config"], cmd
        assert "seed" in rm and rm["artifacts"], cmd
        assert all(os.path.exists(a) for a in rm["artifacts"]), cmd
        assert rm["wall_seconds"] >= 0 and rm["git_describe"], cmd


def test_run_manifest_describes_the_package_checkout_not_the_working_directory(
        tmp_path, monkeypatch):
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
           "-c", "commit.gpgsign=false"]
    subprocess.run(git + ["init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "other"],
                   cwd=tmp_path, check=True)
    other = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, check=True,
                           capture_output=True, text=True).stdout.strip()
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--seed", "1", "--out", "corpus", "--per-class", "1"]) == 0
    described = json.loads((tmp_path / "corpus" / "run_manifest.json").read_text())
    assert described["git_describe"]
    assert not other.startswith(described["git_describe"].split("-")[0])


def test_git_describe_is_unknown_for_a_package_inside_another_repository(
        tmp_path, monkeypatch):
    # a gmtc installed into a venv that sits inside some other project's
    # checkout must not record that project's commit
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
           "-c", "commit.gpgsign=false"]
    subprocess.run(git + ["init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "other"],
                   cwd=tmp_path, check=True)
    package = tmp_path / ".venv" / "lib" / "site-packages" / "gmtc"
    package.mkdir(parents=True)
    monkeypatch.setattr(cli, "__file__", str(package / "cli.py"))
    assert cli._git_describe() == "unknown"


def _spy_on_subprocess(monkeypatch):
    calls = []

    def run(argv, **kwargs):
        calls.append((argv, kwargs["cwd"]))
        return subprocess.CompletedProcess(argv, 0, stdout="v1-2-gabc\n", stderr="")

    monkeypatch.setattr(cli.subprocess, "run", run)
    return calls


def test_git_describe_starts_no_git_outside_a_checkout(tmp_path, monkeypatch):
    calls = _spy_on_subprocess(monkeypatch)
    package = tmp_path / "src" / "gmtc"
    package.mkdir(parents=True)
    monkeypatch.setattr(cli, "__file__", str(package / "cli.py"))
    assert cli._git_describe() == "unknown"
    assert calls == []


def test_git_describe_runs_one_git_at_the_checkout_root(tmp_path, monkeypatch):
    calls = _spy_on_subprocess(monkeypatch)
    package = tmp_path / "src" / "gmtc"
    package.mkdir(parents=True)
    (tmp_path / ".git").mkdir()
    monkeypatch.setattr(cli, "__file__", str(package / "cli.py"))
    monkeypatch.chdir(package)
    assert cli._git_describe() == "v1-2-gabc"
    assert calls == [(["git", "describe", "--always", "--dirty"], str(tmp_path))]
