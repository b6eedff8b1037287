"""Recognition metrics: weighted and unweighted average recall.

WAR weights per-class recall by class frequency, which reduces exactly to
overall accuracy; UAR is the unweighted mean of per-class recalls. Classes
absent from the evaluated set are excluded from UAR with a logged warning.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)


@dataclass
class EvalReport:
    war: float
    uar: float
    per_class_recall: dict[str, float]
    confusion: np.ndarray  # rows true, cols predicted
    n: int
    label_set: list[str]

    def __post_init__(self):
        if not 0 <= self.war <= 1 or not 0 <= self.uar <= 1:
            raise DataError("war/uar out of [0, 1]")


def compute_report(true_labels, predicted_labels, label_set: list[str]) -> EvalReport:
    """Score predictions against ground truth.

    Args:
        true_labels / predicted_labels: equal-length label sequences drawn
            from label_set.
        label_set: ordered class list defining confusion-matrix axes.

    Returns:
        EvalReport with WAR, UAR, per-class recall, and the confusion matrix.
    """
    true_labels = list(true_labels)
    predicted_labels = list(predicted_labels)
    if not true_labels:
        raise DataError("cannot score an empty prediction set")
    if len(true_labels) != len(predicted_labels):
        raise DataError(f"length mismatch: {len(true_labels)} true vs "
                        f"{len(predicted_labels)} predicted")
    index = {lab: k for k, lab in enumerate(label_set)}
    if len(index) != len(label_set):
        raise DataError("label_set contains duplicates")
    k = len(label_set)
    confusion = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(true_labels, predicted_labels):
        if t not in index:
            raise DataError(f"true label {t!r} not in label set")
        if p not in index:
            raise DataError(f"predicted label {p!r} not in label set")
        confusion[index[t], index[p]] += 1
    n = len(true_labels)
    row_sums = confusion.sum(axis=1)
    recalls: dict[str, float] = {}
    for c, lab in enumerate(label_set):
        if row_sums[c] > 0:
            recalls[lab] = float(confusion[c, c] / row_sums[c])
    absent = [lab for c, lab in enumerate(label_set) if row_sums[c] == 0]
    if absent:
        log.warning("classes absent from evaluation, excluded from UAR: %s",
                    ", ".join(absent))
    if not recalls:
        raise DataError("no classes present in evaluation")
    # frequency-weighted recall collapses to correct/total; the single
    # division keeps it bit-exact against direct accuracy counting
    war = float(confusion.diagonal().sum() / n)
    uar = float(np.mean(list(recalls.values())))
    return EvalReport(war=war, uar=uar, per_class_recall=recalls,
                      confusion=confusion, n=n, label_set=list(label_set))


def report_to_json(report: EvalReport) -> str:
    return json.dumps({
        "war": report.war,
        "uar": report.uar,
        "n": report.n,
        "label_set": report.label_set,
        "per_class_recall": report.per_class_recall,
        "confusion": report.confusion.tolist(),
    }, indent=2, sort_keys=True) + "\n"


def confusion_csv(report: EvalReport) -> str:
    """Confusion matrix as CSV, first column true label, one column per
    predicted label."""
    lines = ["true\\pred," + ",".join(report.label_set)]
    for c, lab in enumerate(report.label_set):
        lines.append(lab + "," + ",".join(str(int(v)) for v in report.confusion[c]))
    return "\n".join(lines) + "\n"
