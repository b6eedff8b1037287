"""Corpus manifests, directory scanners, synthetic data, and splits.

A manifest is a list of (path, label, speaker, corpus) rows plus the ordered
label set; the CSV form uses exactly that header. Scanners understand the
on-disk conventions of four public emotion corpora; anything they cannot
decode lands in a rejects list instead of the manifest.

The synthetic corpus exists so training and evaluation can be exercised
end-to-end without licensed data: six acoustically separated classes of
harmonic tones with class-specific pitch contours, tremolo, and noise.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .dsp import SAMPLE_RATE, AudioClip, write_wav_pcm16
from .errors import DataError

MANIFEST_HEADER = ["path", "label", "speaker", "corpus"]

CLASS_SETS = {
    "casia": ["angry", "fear", "happy", "neutral", "sad", "surprise"],
    "emodb": ["angry", "boredom", "disgust", "fear", "happy", "neutral", "sad"],
    "ravdess": ["angry", "calm", "disgust", "fear", "happy", "neutral", "sad", "surprise"],
    "savee": ["angry", "disgust", "fear", "happy", "neutral", "sad", "surprise"],
}

EMODB_LETTERS = {"W": "angry", "L": "boredom", "E": "disgust", "A": "fear",
                 "F": "happy", "T": "sad", "N": "neutral"}
RAVDESS_CODES = {"01": "neutral", "02": "calm", "03": "happy", "04": "sad",
                 "05": "angry", "06": "fear", "07": "disgust", "08": "surprise"}
SAVEE_PREFIXES = [("sa", "sad"), ("su", "surprise"), ("a", "angry"), ("d", "disgust"),
                  ("f", "fear"), ("h", "happy"), ("n", "neutral")]

SYNTH_CLASSES = ["angry", "fear", "happy", "neutral", "sad", "surprise"]


@dataclass
class Entry:
    path: str
    label: str
    speaker: str
    corpus: str


@dataclass
class Manifest:
    entries: list[Entry]
    label_set: list[str]

    def __post_init__(self):
        allowed = set(self.label_set)
        for e in self.entries:
            if e.label not in allowed:
                raise DataError(f"label {e.label!r} of {e.path} not in label set")


@dataclass
class SplitPlan:
    """Train/test index folds over a manifest; hold-out is one fold."""

    scheme: str
    folds: list[tuple[list[int], list[int]]] = field(default_factory=list)


def _walk_wavs(root) -> list[str]:
    if not os.path.isdir(root):
        raise DataError(f"not a directory: {root}")
    hits = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.lower().endswith(".wav"):
                hits.append(os.path.join(dirpath, name))
    return hits


def _decode_emodb(path):
    stem = os.path.splitext(os.path.basename(path))[0]
    if len(stem) < 6 or stem[5] not in EMODB_LETTERS:
        return None
    return EMODB_LETTERS[stem[5]], stem[:2]


def _decode_ravdess(path):
    stem = os.path.splitext(os.path.basename(path))[0]
    parts = stem.split("-")
    if len(parts) != 7 or parts[2] not in RAVDESS_CODES:
        return None
    return RAVDESS_CODES[parts[2]], parts[6]


def _decode_savee(path):
    stem = os.path.splitext(os.path.basename(path))[0]
    if "_" in stem:
        speaker, _, code = stem.partition("_")
    else:
        speaker, code = os.path.basename(os.path.dirname(path)), stem
    for prefix, label in SAVEE_PREFIXES:
        if code.lower().startswith(prefix):
            return label, speaker
    return None


def _decode_casia(path):
    classes = set(CLASS_SETS["casia"])
    parts = os.path.normpath(path).split(os.sep)
    for depth in range(len(parts) - 2, -1, -1):
        name = parts[depth].lower()
        if name in classes:
            speaker = parts[depth - 1] if depth >= 1 else "unknown"
            return name, speaker
    return None


_DECODERS = {"emodb": _decode_emodb, "ravdess": _decode_ravdess,
             "savee": _decode_savee, "casia": _decode_casia}


def scan_corpus(root, kind: str) -> tuple[Manifest, list[str]]:
    """Build a manifest from a corpus directory tree.

    Args:
        root: corpus root directory.
        kind: one of emodb, ravdess, savee, casia.

    Returns:
        (manifest, rejects); rejects lists files whose naming could not be
        decoded. Zero decodable files is a DataError.
    """
    if kind not in _DECODERS:
        raise DataError(f"unknown corpus kind {kind!r}")
    decode = _DECODERS[kind]
    entries, rejects = [], []
    for path in _walk_wavs(root):
        got = decode(path)
        if got is None:
            rejects.append(path)
        else:
            label, speaker = got
            entries.append(Entry(path=path, label=label, speaker=speaker, corpus=kind))
    if not entries:
        raise DataError(f"no decodable wav files under {root} for {kind}")
    entries.sort(key=lambda e: e.path)
    return Manifest(entries=entries, label_set=list(CLASS_SETS[kind])), rejects


def save_manifest_csv(path, manifest: Manifest) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for e in manifest.entries:
            writer.writerow([e.path, e.label, e.speaker, e.corpus])


def load_manifest_csv(path) -> Manifest:
    """Read a manifest CSV; header must match exactly, duplicate paths are
    rejected, and the label set is the sorted labels present."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    if not rows or rows[0] != MANIFEST_HEADER:
        raise DataError(f"manifest {path} must start with header "
                        f"{','.join(MANIFEST_HEADER)}")
    entries = []
    seen = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise DataError(f"manifest {path} line {lineno}: expected 4 fields")
        p, label, speaker, corpus_name = row
        if p in seen:
            raise DataError(f"manifest {path} line {lineno}: duplicate path {p}")
        seen.add(p)
        entries.append(Entry(path=p, label=label, speaker=speaker, corpus=corpus_name))
    if not entries:
        raise DataError(f"manifest {path} has no entries")
    return Manifest(entries=entries, label_set=sorted({e.label for e in entries}))


# Per-class (pitch contour slope sign, tremolo Hz, f0 range, harmonic
# rolloff range, noise-floor range). Neutral and sad are separable from
# time-averaged spectra alone; angry/surprise share one spectral
# distribution and differ only in sweep direction, fear/happy share another
# and differ only in tremolo rate. A pooled-feature centroid classifier
# therefore lands well above chance but below a model that reads the frame
# sequence.
_SYNTH_SPEC = {
    "angry":    (+1.0, 7.0, (240.0, 310.0), (0.82, 0.92), (0.028, 0.036)),
    "surprise": (-1.0, 7.0, (240.0, 310.0), (0.82, 0.92), (0.028, 0.036)),
    "fear":     (0.0, 7.0, (225.0, 295.0), (0.70, 0.80), (0.016, 0.022)),
    "happy":    (0.0, 2.5, (225.0, 295.0), (0.70, 0.80), (0.016, 0.022)),
    "neutral":  (0.0, 2.5, (180.0, 240.0), (0.58, 0.68), (0.006, 0.010)),
    "sad":      (-0.7, 2.5, (150.0, 205.0), (0.48, 0.58), (0.010, 0.014)),
}


def _synth_signal(label: str, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """One synthetic utterance: harmonic tone with a class-specific pitch
    contour, tremolo rate, and noise level."""
    slope_sign, trem, f0_rng, roll_rng, noise_rng = _SYNTH_SPEC[label]
    n = int(seconds * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    f0 = float(rng.uniform(*f0_rng))
    slope = slope_sign * float(rng.uniform(0.20, 0.30))
    trem = trem * float(rng.uniform(0.9, 1.1))
    roll = float(rng.uniform(*roll_rng))
    noise = float(rng.uniform(*noise_rng))
    # contour symmetric around f0: rising and falling sweeps share the same
    # time-averaged spectrum
    freq = f0 * (1.0 + slope * (t / seconds - 0.5))
    phase = 2 * np.pi * np.cumsum(freq) / SAMPLE_RATE
    sig = np.zeros(n)
    amp = 1.0
    for h in range(1, 6):
        sig += amp * np.sin(h * phase)
        amp *= roll
    sig *= 1.0 - 0.45 * 0.5 * (1 + np.sin(2 * np.pi * trem * t))
    sig = 0.3 * sig / np.max(np.abs(sig))
    sig += noise * rng.standard_normal(n)
    return np.clip(sig, -0.99, 0.99)


def synth_generate(out_dir, seed: int, n_per_class: int) -> Manifest:
    """Write a deterministic synthetic corpus of WAV files plus manifest.

    Args:
        out_dir: directory to create files in (made if missing).
        seed: generator seed; same seed reproduces identical bytes.
        n_per_class: clips per class, >= 1.

    Returns:
        the manifest (also saved as manifest.csv in out_dir).
    """
    if n_per_class < 1:
        raise DataError("n_per_class must be >= 1")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    entries = []
    for label in SYNTH_CLASSES:
        for idx in range(n_per_class):
            seconds = float(rng.uniform(1.0, 3.0))
            sig = _synth_signal(label, seconds, rng)
            name = f"{label}_{idx:03d}.wav"
            write_wav_pcm16(os.path.join(out_dir, name),
                            AudioClip(samples=sig, sample_rate=SAMPLE_RATE))
            # relative paths keep the generated corpus relocatable
            entries.append(Entry(path=name, label=label,
                                 speaker=f"spk{idx % 4}", corpus="synth"))
    manifest = Manifest(entries=entries, label_set=list(SYNTH_CLASSES))
    save_manifest_csv(os.path.join(out_dir, "manifest.csv"), manifest)
    return manifest


def _per_class_indices(manifest: Manifest, rng: np.random.Generator) -> dict[str, list[int]]:
    byclass: dict[str, list[int]] = {c: [] for c in manifest.label_set}
    for i, e in enumerate(manifest.entries):
        byclass[e.label].append(i)
    for c in manifest.label_set:
        idx = np.array(byclass[c], dtype=int)
        rng.shuffle(idx)
        byclass[c] = idx.tolist()
    return byclass


def make_splits(manifest: Manifest, scheme: str, seed: int) -> SplitPlan:
    """Stratified, seeded train/test splits.

    holdout_80_20 draws ~20% of each class for test; cv5/cv10 deal each
    class round-robin into folds. Per-class test counts stay within one
    sample of the exact stratified share. A class with fewer samples than
    folds is a DataError.
    """
    rng = np.random.default_rng(seed)
    byclass = _per_class_indices(manifest, rng)
    plan = SplitPlan(scheme=scheme)
    if scheme == "holdout_80_20":
        test: list[int] = []
        for c in manifest.label_set:
            idx = byclass[c]
            n_test = int(round(0.2 * len(idx)))
            test.extend(idx[:n_test])
        test_set = set(test)
        train = [i for i in range(len(manifest.entries)) if i not in test_set]
        if not test or not train:
            raise DataError("hold-out split left an empty side; corpus too small")
        plan.folds.append((sorted(train), sorted(test)))
        return plan
    if scheme in ("cv5", "cv10"):
        k = 5 if scheme == "cv5" else 10
        for c in manifest.label_set:
            if len(byclass[c]) < k:
                raise DataError(f"class {c!r} has {len(byclass[c])} samples, "
                                f"fewer than {k} folds")
        fold_tests: list[list[int]] = [[] for _ in range(k)]
        for c in manifest.label_set:
            for pos, i in enumerate(byclass[c]):
                fold_tests[pos % k].append(i)
        for f in range(k):
            test_set = set(fold_tests[f])
            train = [i for i in range(len(manifest.entries)) if i not in test_set]
            plan.folds.append((sorted(train), sorted(fold_tests[f])))
        return plan
    raise DataError(f"unknown split scheme {scheme!r}")
