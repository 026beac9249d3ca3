"""Post-training analysis: one encoding pass over a corpus, then frame
scoring from one count table, agreement, and per-symbol statistics.

`encode_corpus` streams a corpus one utterance at a time: it normalizes
and windows the utterance with the same scaling used in training
(normalization is idempotent, so already-normalized input is unchanged)
and runs each encoder once over its windows. Every corpus statistic,
here and in the trainer, is a reduction over that stream.

A frame's symbol is the one the confirm model assigns the highest
probability when a full window is centered on the frame; frames too close
to the utterance edges are excluded rather than padded. `analyze_corpus`
pairs each such symbol with its frame's gold label, and `score` counts
the pairs once into a symbol-by-gold table: each symbol is tagged with
the majority gold label of its frames, and frame accuracy is scored
through those tags, all as reductions of that table.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .corpus import Utterance, WindowGeometry, window_arrays
from .model import CONFIRM, PREDICT, EncoderParams

__all__ = [
    "EvaluationError",
    "NO_EVALUABLE_FRAMES",
    "ConfusionMatrix",
    "SymbolStats",
    "encode_corpus",
    "entropy_bits_sum",
    "analyze_corpus",
    "score",
    "write_confusion_csv",
    "write_symbol_stats_csv",
]

NO_EVALUABLE_FRAMES = "no evaluable frames (no labeled frame carries a gold label)"


class EvaluationError(Exception):
    pass


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
) -> tuple[tuple[np.ndarray, np.ndarray], float, SymbolStats]:
    """Labeled frames, agreement rate and symbol statistics over every
    stride-1 window, from one encoding pass.

    A frame's symbol is the argmax confirm-side symbol of the window
    centered on it, ties going to the smallest symbol id. The labeled
    frames are (symbols [M] int64, gold [M] str): the symbol and the gold
    label of every such frame in an utterance that has gold labels. The
    agreement rate is the fraction of windows where both encoders pick
    the same symbol; the statistics average each model's output
    distribution and entropy over windows.
    """
    z = ep.alphabet_size
    symbols, gold = [np.zeros(0, np.int64)], [np.zeros(0, str)]
    sums = {CONFIRM: np.zeros(z), PREDICT: np.zeros(z)}
    entropy = {CONFIRM: 0.0, PREDICT: 0.0}
    agree = total = 0
    for u, confirm, predict, centers in encode_corpus(ep, corpus, geometry, aligned=False):
        winners = confirm.argmax(axis=1)
        if u.gold_labels is not None:
            symbols.append(winners)
            gold.append(np.asarray(u.gold_labels)[centers])
        for side, probs in ((CONFIRM, confirm), (PREDICT, predict)):
            sums[side] += probs.sum(axis=0)
            entropy[side] += entropy_bits_sum(probs)
        agree += int((winners == predict.argmax(axis=1)).sum())
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
    return (np.concatenate(symbols), np.concatenate(gold)), agree / total, stats


def score(
    symbols: np.ndarray, gold: np.ndarray
) -> tuple[ConfusionMatrix, float, float, float, int]:
    """Frame accuracy of `symbols` through their majority gold tags.

    Counts the frames once into a [Z, G] symbol-by-gold table, with the
    gold labels sorted. Each claimed symbol is tagged with its row's first
    maximum, so a tie goes to the lexicographically smaller label. Returns
    (confusion, overall_acc, covered_acc, coverage, tags_used): the
    confusion matrix has a row per tag used and a column per gold label;
    overall accuracy is over every frame, covered accuracy over the frames
    whose gold label is itself a tag, and coverage is their share.
    """
    if symbols.size == 0:
        raise EvaluationError(NO_EVALUABLE_FRAMES)
    names, gold_index = np.unique(gold, return_inverse=True)
    g = names.size
    table = np.bincount(symbols * g + gold_index, minlength=(symbols.max() + 1) * g).reshape(-1, g)
    claimed = table[table.any(axis=1)]
    used, row = np.unique(claimed.argmax(axis=1), return_inverse=True)
    counts = np.zeros((used.size, g), np.int64)
    np.add.at(counts, row, claimed)
    evaluable = int(counts.sum())
    correct = int(counts[np.arange(used.size), used].sum())
    covered = int(counts[:, used].sum())
    confusion = ConfusionMatrix(names[used].tolist(), names.tolist(), counts)
    return confusion, correct / evaluable, correct / covered, covered / evaluable, int(used.size)


def write_confusion_csv(confusion: ConfusionMatrix, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["predicted"] + confusion.gold_labels)
        for i, label in enumerate(confusion.predicted_labels):
            writer.writerow([label] + confusion.counts[i].tolist())


def write_symbol_stats_csv(stats: SymbolStats, path: Path, live_mask: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["symbol", "avg_prob_psi", "avg_prob_phi", "live"])
        for z in range(stats.avg_confirm.shape[0]):
            row = [z, repr(float(stats.avg_confirm[z])), repr(float(stats.avg_predict[z]))]
            writer.writerow(row + [int(live_mask[z])])
