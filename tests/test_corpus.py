import os
from collections import Counter

import numpy as np
import pytest

from gmtc import corpus
from gmtc.errors import DataError

EMODB_COUNTS = {"angry": 127, "boredom": 81, "disgust": 46, "fear": 69,
                "happy": 71, "neutral": 79, "sad": 62}
EMODB_LETTER = {"angry": "W", "boredom": "L", "disgust": "E", "fear": "A",
                "happy": "F", "sad": "T", "neutral": "N"}


def label_counts(manifest):
    return Counter(e.label for e in manifest.entries)


def build_fake_emodb(root):
    speakers = ["03", "08", "09", "10", "11", "12", "13", "14", "15", "16"]
    os.makedirs(root, exist_ok=True)
    for label, count in EMODB_COUNTS.items():
        letter = EMODB_LETTER[label]
        for n in range(count):
            spk = speakers[n % 10]
            name = f"{spk}a{n // 10:02d}{letter}a.wav"
            open(os.path.join(root, name), "w").close()


def build_fake_savee(root, flat=False):
    speakers = ["DC", "JE", "JK", "KL"]
    codes = ([f"a{i:02d}" for i in range(1, 16)] + [f"d{i:02d}" for i in range(1, 16)]
             + [f"f{i:02d}" for i in range(1, 16)] + [f"h{i:02d}" for i in range(1, 16)]
             + [f"n{i:02d}" for i in range(1, 31)] + [f"sa{i:02d}" for i in range(1, 16)]
             + [f"su{i:02d}" for i in range(1, 16)])
    for spk in speakers:
        for code in codes:
            if flat:
                path = os.path.join(root, f"{spk}_{code}.wav")
            else:
                os.makedirs(os.path.join(root, spk), exist_ok=True)
                path = os.path.join(root, spk, f"{code}.wav")
            open(path, "w").close()


def build_fake_ravdess(root):
    for actor in range(1, 25):
        adir = os.path.join(root, f"Actor_{actor:02d}")
        os.makedirs(adir, exist_ok=True)
        for emo in range(1, 9):
            intensities = ["01"] if emo == 1 else ["01", "02"]
            for inten in intensities:
                for stmt in ("01", "02"):
                    for rep in ("01", "02"):
                        name = f"03-01-{emo:02d}-{inten}-{stmt}-{rep}-{actor:02d}.wav"
                        open(os.path.join(adir, name), "w").close()


def test_scan_emodb_counts(tmp_path):
    build_fake_emodb(tmp_path)
    manifest, rejects = corpus.scan_corpus(tmp_path, "emodb")
    assert rejects == []
    assert len(manifest.entries) == 535
    assert label_counts(manifest) == EMODB_COUNTS
    assert manifest.label_set == corpus.CLASS_SETS["emodb"]
    paths = [e.path for e in manifest.entries]
    assert paths == sorted(paths)
    assert all(len(e.speaker) == 2 for e in manifest.entries)


def test_scan_savee_both_layouts(tmp_path):
    nested = tmp_path / "nested"
    build_fake_savee(nested)
    m1, r1 = corpus.scan_corpus(nested, "savee")
    assert r1 == [] and len(m1.entries) == 480
    counts = label_counts(m1)
    assert counts["neutral"] == 120
    assert all(counts[c] == 60 for c in counts if c != "neutral")
    assert sorted({e.speaker for e in m1.entries}) == ["DC", "JE", "JK", "KL"]

    flat = tmp_path / "flat"
    os.makedirs(flat)
    build_fake_savee(flat, flat=True)
    m2, r2 = corpus.scan_corpus(flat, "savee")
    assert r2 == [] and label_counts(m2) == counts


def test_scan_ravdess_counts(tmp_path):
    build_fake_ravdess(tmp_path)
    manifest, rejects = corpus.scan_corpus(tmp_path, "ravdess")
    assert rejects == []
    assert len(manifest.entries) == 1440
    counts = label_counts(manifest)
    assert counts["neutral"] == 96
    assert all(counts[c] == 192 for c in counts if c != "neutral")
    assert sorted({e.speaker for e in manifest.entries}) == [f"{i:02d}" for i in range(1, 25)]


def test_scan_casia_layout(tmp_path):
    for spk in ("wangzhe", "zhaoquanyin"):
        for emo in corpus.CLASS_SETS["casia"]:
            d = tmp_path / spk / emo
            d.mkdir(parents=True)
            for i in range(3):
                (d / f"{200 + i}.wav").touch()
    manifest, rejects = corpus.scan_corpus(tmp_path, "casia")
    assert rejects == []
    assert len(manifest.entries) == 36
    assert all(label_counts(manifest)[c] == 6 for c in corpus.CLASS_SETS["casia"])
    assert {e.speaker for e in manifest.entries} == {"wangzhe", "zhaoquanyin"}


def test_scan_collects_rejects(tmp_path):
    build_fake_emodb(tmp_path)
    (tmp_path / "notes.wav").touch()
    manifest, rejects = corpus.scan_corpus(tmp_path, "emodb")
    assert len(manifest.entries) == 535
    assert len(rejects) == 1 and rejects[0].endswith("notes.wav")


def test_scan_empty_and_bad_kind(tmp_path):
    with pytest.raises(DataError):
        corpus.scan_corpus(tmp_path / "missing", "emodb")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(DataError):
        corpus.scan_corpus(empty, "emodb")
    with pytest.raises(DataError):
        corpus.scan_corpus(tmp_path, "iemocap")


def test_manifest_csv_roundtrip(tmp_path):
    entries = [corpus.Entry(f"/d/{i}.wav", lab, f"s{i%2}", "synth")
               for i, lab in enumerate(["happy", "sad", "happy", "angry"])]
    m = corpus.Manifest(entries=entries, label_set=["angry", "happy", "sad"])
    path = tmp_path / "m.csv"
    corpus.save_manifest_csv(path, m)
    with open(path) as fh:
        assert fh.readline().strip() == "path,label,speaker,corpus"
    back = corpus.load_manifest_csv(path)
    assert back.label_set == ["angry", "happy", "sad"]
    assert [(e.path, e.label, e.speaker, e.corpus) for e in back.entries] == \
        [(e.path, e.label, e.speaker, e.corpus) for e in entries]


def test_manifest_csv_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("file,emotion\n/a.wav,happy\n")
    with pytest.raises(DataError):
        corpus.load_manifest_csv(bad)
    dup = tmp_path / "dup.csv"
    dup.write_text("path,label,speaker,corpus\n/a.wav,happy,s,c\n/a.wav,sad,s,c\n")
    with pytest.raises(DataError):
        corpus.load_manifest_csv(dup)
    with pytest.raises(DataError):
        corpus.load_manifest_csv(tmp_path / "absent.csv")


def test_manifest_rejects_label_outside_set():
    with pytest.raises(DataError):
        corpus.Manifest(entries=[corpus.Entry("a", "joy", "s", "c")],
                        label_set=["happy", "sad"])


def test_synth_deterministic(tmp_path):
    m1 = corpus.synth_generate(tmp_path / "a", seed=42, n_per_class=2)
    m2 = corpus.synth_generate(tmp_path / "b", seed=42, n_per_class=2)
    m3 = corpus.synth_generate(tmp_path / "c", seed=43, n_per_class=2)
    assert len(m1.entries) == 12
    assert m1.label_set == corpus.SYNTH_CLASSES
    # manifest paths are relative to the corpus directory
    assert all(not os.path.isabs(e.path) for e in m1.entries)
    for e1, e2 in zip(m1.entries, m2.entries):
        b1 = open(tmp_path / "a" / e1.path, "rb").read()
        b2 = open(tmp_path / "b" / e2.path, "rb").read()
        assert b1 == b2
    assert any(open(tmp_path / "a" / e1.path, "rb").read()
               != open(tmp_path / "c" / e3.path, "rb").read()
               for e1, e3 in zip(m1.entries, m3.entries))
    assert os.path.exists(tmp_path / "a" / "manifest.csv")
    back = corpus.load_manifest_csv(tmp_path / "a" / "manifest.csv")
    assert label_counts(back) == {c: 2 for c in corpus.SYNTH_CLASSES}


def test_synth_rejects_zero():
    with pytest.raises(DataError):
        corpus.synth_generate("/tmp/never", seed=0, n_per_class=0)


def uneven_manifest():
    sizes = {"angry": 23, "happy": 17, "sad": 40, "neutral": 11}
    entries = []
    for lab, n in sizes.items():
        for i in range(n):
            entries.append(corpus.Entry(f"/d/{lab}/{i}.wav", lab, "s", "c"))
    return corpus.Manifest(entries=entries, label_set=sorted(sizes)), sizes


def test_holdout_split_stratified():
    manifest, sizes = uneven_manifest()
    plan = corpus.make_splits(manifest, "holdout_80_20", seed=1)
    assert plan.scheme == "holdout_80_20" and len(plan.folds) == 1
    train, test = plan.folds[0]
    n = len(manifest.entries)
    assert sorted(train + test) == list(range(n))
    assert not set(train) & set(test)
    share = len(test) / n
    labels = [e.label for e in manifest.entries]
    for lab, n_c in sizes.items():
        got = sum(1 for i in test if labels[i] == lab)
        assert abs(got - share * n_c) <= 1.0


def test_cv_splits_partition_and_stratify():
    manifest, sizes = uneven_manifest()
    for scheme, k in (("cv5", 5), ("cv10", 10)):
        plan = corpus.make_splits(manifest, scheme, seed=3)
        assert len(plan.folds) == k
        n = len(manifest.entries)
        all_test = []
        labels = [e.label for e in manifest.entries]
        for train, test in plan.folds:
            assert sorted(train + test) == list(range(n))
            all_test.extend(test)
            share = len(test) / n
            for lab, n_c in sizes.items():
                got = sum(1 for i in test if labels[i] == lab)
                assert abs(got - share * n_c) <= 1.0
        assert sorted(all_test) == list(range(n))


def test_cv_rejects_small_class():
    entries = [corpus.Entry(f"/d/{i}.wav", "happy" if i < 3 else "sad", "s", "c")
               for i in range(20)]
    m = corpus.Manifest(entries=entries, label_set=["happy", "sad"])
    with pytest.raises(DataError):
        corpus.make_splits(m, "cv5", seed=0)


def test_splits_deterministic():
    manifest, _ = uneven_manifest()
    a = corpus.make_splits(manifest, "cv5", seed=9)
    b = corpus.make_splits(manifest, "cv5", seed=9)
    c = corpus.make_splits(manifest, "cv5", seed=10)
    assert a.folds == b.folds
    assert a.folds != c.folds


def test_split_unknown_scheme():
    manifest, _ = uneven_manifest()
    with pytest.raises(DataError):
        corpus.make_splits(manifest, "loocv", seed=0)


def test_synth_centroid_baseline_beats_60_percent(tmp_path):
    # pooled-MFCC nearest-centroid on a fresh 60-clip corpus: the corpus is
    # designed so a pooled classifier is strong but imperfect
    from gmtc import dsp
    from helpers import nearest_centroid_war

    manifest = corpus.synth_generate(tmp_path, seed=0, n_per_class=10)
    features = [dsp.mfcc_39(dsp.read_wav(os.path.join(tmp_path, e.path)),
                            clip_id=e.path) for e in manifest.entries]
    fold = corpus.make_splits(manifest, "holdout_80_20", seed=0).folds[0]
    war = nearest_centroid_war(features, manifest, fold)
    assert war > 0.6, war
    assert war < 1.0, "baseline saturated; corpus too easy"
