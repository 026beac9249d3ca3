"""Post-training analysis: one encoding pass over a corpus, frame
labeling, majority tagging, confusion matrices, agreement, and per-symbol
statistics.

`encode_corpus` streams a corpus one utterance at a time: it normalizes
and windows the utterance with the same scaling used in training
(normalization is idempotent, so already-normalized input is unchanged)
and runs each encoder once over its windows. Every corpus statistic,
here and in the trainer, is a reduction over that stream.

Frames are labeled by the symbol the confirm model assigns the highest
probability when a full window is centered on the frame; frames too close
to the utterance edges are excluded rather than padded. Symbols are then
tagged with the majority gold label of the frames they claim, and frame
accuracy is scored through those tags.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .corpus import Utterance, WindowGeometry, window_arrays
from .model import CONFIRM, PREDICT, EncoderParams

__all__ = [
    "EvaluationError",
    "FrameLabeling",
    "TagMap",
    "ConfusionMatrix",
    "SymbolStats",
    "encode_corpus",
    "entropy_bits_sum",
    "analyze_corpus",
    "majority_tag",
    "evaluate",
    "write_confusion_csv",
    "write_symbol_stats_csv",
]


class EvaluationError(Exception):
    pass


@dataclass
class FrameLabeling:
    """Per-frame symbol ids for one utterance; -1 where no full window fits."""

    utterance_id: str
    symbols: np.ndarray  # int64 [T], -1 = absent

    def labeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.symbols >= 0)


@dataclass
class TagMap:
    tags: dict[int, str]  # symbol id -> majority gold label
    counts: dict[int, dict[str, int]]  # symbol id -> gold label -> frames
    ties: list[int] = field(default_factory=list)  # symbols tagged by tie-break

    @property
    def tags_used(self) -> int:
        """Distinct gold labels serving as tags."""
        return len(set(self.tags.values()))


@dataclass
class ConfusionMatrix:
    predicted_labels: list[str]  # row order
    gold_labels: list[str]  # column order
    counts: np.ndarray  # [rows, cols] int64


@dataclass
class SymbolStats:
    avg_confirm: np.ndarray  # [Z] average confirm-side distribution
    avg_predict: np.ndarray  # [Z] average predict-side distribution
    mean_entropy_confirm_bits: float
    mean_entropy_predict_bits: float
    windows: int


def encode_corpus(
    ep: EncoderParams, corpus: list[Utterance], geometry: WindowGeometry, aligned: bool
) -> Iterator[tuple[Utterance, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (utterance, confirm [N, Z], predict [N, Z], centers [N]) per utterance.

    The windows come from `window_arrays` in the model's dtype; each
    encoder runs once over them, untaped, and the probabilities are cast
    to float64. An utterance shorter than one window yields N = 0 and
    calls no encoder.
    """
    for u in corpus:
        x, y, centers = window_arrays(u, geometry, aligned, ep.store.dtype)
        if centers.size == 0:
            empty = np.zeros((0, ep.alphabet_size))
            yield u, empty, empty, centers
            continue
        confirm = ep.encode_node(CONFIRM, y).value.astype(np.float64)
        predict = ep.encode_node(PREDICT, x).value.astype(np.float64)
        yield u, confirm, predict, centers


def entropy_bits_sum(probs: np.ndarray) -> float:
    """Summed entropy in bits of the rows of `probs`; zero entries add nothing."""
    logs = np.log2(np.clip(probs, 1e-30, None))
    return float(-(np.where(probs > 0, probs * logs, 0.0)).sum())


def analyze_corpus(
    ep: EncoderParams, corpus: list[Utterance], geometry: WindowGeometry
) -> tuple[list[FrameLabeling], float, SymbolStats]:
    """Frame labels, agreement rate and symbol statistics over every
    stride-1 window, from one encoding pass.

    A frame's label is the argmax confirm-side symbol of the window
    centered on it, ties going to the smallest symbol id; the agreement
    rate is the fraction of windows where both encoders pick the same
    symbol; the statistics average each model's output distribution and
    entropy over windows.
    """
    z = ep.alphabet_size
    labelings = []
    sums = {CONFIRM: np.zeros(z), PREDICT: np.zeros(z)}
    entropy = {CONFIRM: 0.0, PREDICT: 0.0}
    agree = total = 0
    for u, confirm, predict, centers in encode_corpus(ep, corpus, geometry, aligned=False):
        symbols = np.full(u.frames.shape[0], -1, dtype=np.int64)
        symbols[centers] = confirm.argmax(axis=1)
        labelings.append(FrameLabeling(u.id, symbols))
        for side, probs in ((CONFIRM, confirm), (PREDICT, predict)):
            sums[side] += probs.sum(axis=0)
            entropy[side] += entropy_bits_sum(probs)
        agree += int((confirm.argmax(axis=1) == predict.argmax(axis=1)).sum())
        total += centers.size
    if total == 0:
        raise EvaluationError("no full windows in the corpus")
    stats = SymbolStats(
        avg_confirm=sums[CONFIRM] / total,
        avg_predict=sums[PREDICT] / total,
        mean_entropy_confirm_bits=entropy[CONFIRM] / total,
        mean_entropy_predict_bits=entropy[PREDICT] / total,
        windows=total,
    )
    return labelings, agree / total, stats


def majority_tag(labelings: list[FrameLabeling], gold: list[list[str]]) -> TagMap:
    """Tag each predicted symbol with the majority gold label of its frames.

    Ties break toward the lexicographically smaller label and are recorded.
    Symbols never predicted stay untagged.
    """
    if len(labelings) != len(gold):
        raise EvaluationError("labelings and gold label lists must pair up")
    counts: dict[int, dict[str, int]] = {}
    for labeling, labels in zip(labelings, gold):
        if labels is None:
            continue
        if len(labels) != labeling.symbols.shape[0]:
            raise EvaluationError(
                f"utterance {labeling.utterance_id!r}: "
                f"{len(labels)} gold labels for {labeling.symbols.shape[0]} frames"
            )
        for t in labeling.labeled_indices():
            z = int(labeling.symbols[t])
            counts.setdefault(z, {})
            counts[z][labels[t]] = counts[z].get(labels[t], 0) + 1
    tags: dict[int, str] = {}
    ties: list[int] = []
    for z, label_counts in sorted(counts.items()):
        best = max(label_counts.values())
        winners = sorted(label for label, c in label_counts.items() if c == best)
        tags[z] = winners[0]
        if len(winners) > 1:
            ties.append(z)
    return TagMap(tags=tags, counts=counts, ties=ties)


def evaluate(
    labelings: list[FrameLabeling], tagmap: TagMap, gold: list[list[str]]
) -> tuple[ConfusionMatrix, float, float, float]:
    """Frame accuracy through the tag map.

    Returns (confusion, overall_acc, covered_acc, coverage): overall over
    every evaluable frame; covered restricted to frames whose gold label
    is itself among the used tags; coverage is that restriction's share.
    """
    if len(labelings) != len(gold):
        raise EvaluationError("labelings and gold label lists must pair up")
    tag_label_set = set(tagmap.tags.values())
    pair_counts: dict[tuple[str, str], int] = {}
    evaluable = correct = covered = covered_correct = 0
    for labeling, labels in zip(labelings, gold):
        if labels is None:
            continue
        for t in labeling.labeled_indices():
            z = int(labeling.symbols[t])
            if z not in tagmap.tags:
                continue  # never-predicted symbol (foreign tag map)
            predicted = tagmap.tags[z]
            actual = labels[t]
            evaluable += 1
            pair_counts[(predicted, actual)] = pair_counts.get((predicted, actual), 0) + 1
            hit = predicted == actual
            correct += hit
            if actual in tag_label_set:
                covered += 1
                covered_correct += hit
    if evaluable == 0:
        raise EvaluationError("no evaluable frames (no labeled frame carries a gold label)")
    predicted_labels = sorted({p for p, _ in pair_counts})
    gold_labels = sorted({g for _, g in pair_counts})
    counts = np.zeros((len(predicted_labels), len(gold_labels)), dtype=np.int64)
    for (p, g), c in pair_counts.items():
        counts[predicted_labels.index(p), gold_labels.index(g)] = c
    confusion = ConfusionMatrix(predicted_labels, gold_labels, counts)
    overall_acc = correct / evaluable
    covered_acc = covered_correct / covered if covered else 0.0
    coverage = covered / evaluable
    return confusion, overall_acc, covered_acc, coverage


def write_confusion_csv(confusion: ConfusionMatrix, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["predicted"] + confusion.gold_labels)
        for i, label in enumerate(confusion.predicted_labels):
            writer.writerow([label] + confusion.counts[i].tolist())


def write_symbol_stats_csv(stats: SymbolStats, path: Path, live_mask: Optional[np.ndarray] = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["symbol", "avg_prob_psi", "avg_prob_phi"]
        if live_mask is not None:
            header.append("live")
        writer.writerow(header)
        for z in range(stats.avg_confirm.shape[0]):
            row = [z, repr(float(stats.avg_confirm[z])), repr(float(stats.avg_predict[z]))]
            if live_mask is not None:
                row.append(int(live_mask[z]))
            writer.writerow(row)
