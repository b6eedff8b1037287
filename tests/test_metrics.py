import json

import numpy as np
import pytest

from gmtc import metrics
from gmtc.errors import DataError


def test_hand_case():
    rep = metrics.compute_report(["A", "A", "A", "B"], ["A", "A", "A", "A"], ["A", "B"])
    assert rep.war == pytest.approx(0.75)
    assert rep.uar == pytest.approx(0.5)
    assert rep.per_class_recall == {"A": 1.0, "B": 0.0}
    assert rep.confusion.tolist() == [[3, 0], [1, 0]]
    assert rep.n == 4


def test_war_equals_accuracy_random_sets():
    # brute-force oracle over random label sets
    rng = np.random.default_rng(0)
    labels = ["a", "b", "c", "d"]
    for _ in range(300):
        n = int(rng.integers(1, 60))
        true = [labels[i] for i in rng.integers(0, 4, n)]
        pred = [labels[i] for i in rng.integers(0, 4, n)]
        rep = metrics.compute_report(true, pred, labels)
        acc = sum(t == p for t, p in zip(true, pred)) / n
        assert rep.war == pytest.approx(acc, abs=1e-12)
        # independent per-class recall recomputation
        expected = {}
        for lab in labels:
            hits = sum(1 for t, p in zip(true, pred) if t == lab and p == lab)
            total = sum(1 for t in true if t == lab)
            if total:
                expected[lab] = hits / total
        assert rep.per_class_recall == pytest.approx(expected)
        assert rep.uar == pytest.approx(np.mean(list(expected.values())))
        assert rep.confusion.sum() == n


def test_perfect_predictions():
    true = ["x", "y", "z"] * 5
    rep = metrics.compute_report(true, true, ["x", "y", "z"])
    assert rep.war == 1.0 and rep.uar == 1.0
    assert np.all(np.diag(rep.confusion) == 5)


def test_absent_class_excluded_with_warning(caplog):
    with caplog.at_level("WARNING"):
        rep = metrics.compute_report(["A", "A"], ["A", "B"], ["A", "B", "C"])
    assert "C" in caplog.text
    assert rep.per_class_recall == {"A": 0.5}
    assert rep.uar == pytest.approx(0.5)


def test_error_cases():
    with pytest.raises(DataError):
        metrics.compute_report([], [], ["A"])
    with pytest.raises(DataError):
        metrics.compute_report(["A"], ["A", "A"], ["A"])
    with pytest.raises(DataError):
        metrics.compute_report(["Q"], ["A"], ["A"])
    with pytest.raises(DataError):
        metrics.compute_report(["A"], ["Q"], ["A"])
    with pytest.raises(DataError):
        metrics.compute_report(["A"], ["A"], ["A", "A"])


def test_json_roundtrip():
    rep = metrics.compute_report(["A", "B", "B"], ["A", "B", "A"], ["A", "B"])
    back = json.loads(metrics.report_to_json(rep))
    assert back["war"] == rep.war and back["uar"] == rep.uar
    assert back["per_class_recall"] == rep.per_class_recall
    assert back["confusion"] == rep.confusion.tolist()
    assert back["label_set"] == rep.label_set and back["n"] == rep.n


def test_confusion_csv_shape():
    rep = metrics.compute_report(["A", "B"], ["B", "B"], ["A", "B"])
    text = metrics.confusion_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "true\\pred,A,B"
    assert lines[1] == "A,0,1"
    assert lines[2] == "B,0,1"
