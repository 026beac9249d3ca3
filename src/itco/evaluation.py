"""Post-training analysis: one reduction over a corpus's windows, then
frame scoring from one count table.

`reduce_corpus` streams a corpus in runs of consecutive utterances that
have the same window count, up to `STACK_WINDOWS` windows a run. Each run
is cut by `corpus.window_pairs`, as training cuts each utterance (with
the same normalization, which is idempotent, so already-normalized input
is unchanged), into one window view of the run's stacked frames. Each
encoder runs once over it, and every utterance's [2, N, Z] outputs fold,
in corpus order, into one `CorpusReduction` of [2, ...] per-side arrays.
Stacking changes no bit: a run of one and a run of many reach the GRU in
the same layout (a sliding view at stride 1), so each batch runs the
GEMMs of its own encoder call, and each utterance's outputs are those of
its own call as a run of one. Every corpus statistic, here and in the
trainer, is read from that record.

A frame's symbol is the one the confirm model assigns the highest
probability when a full window is centered on the frame; frames too close
to the utterance edges are excluded rather than padded. The reduction
pairs each such symbol with its frame's gold code, and `score` counts
the pairs once into a symbol-by-gold table: each symbol is tagged with
the majority gold label of its frames, and frame accuracy is scored
through those tags, all as reductions of that table. Label names enter
only there, to name the confusion matrix's rows and columns.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .corpus import Utterance, WindowGeometry, replace_file, window_count, window_pairs
from .model import SIDES, EncoderParams
from .objective import LOG_FLOOR, ObjectiveTerms, utterance_loss

__all__ = [
    "EvaluationError",
    "NO_EVALUABLE_FRAMES",
    "ConfusionMatrix",
    "CorpusReduction",
    "STACK_WINDOWS",
    "entropy_bits_sum",
    "reduce_corpus",
    "score",
    "write_confusion_csv",
    "write_symbol_stats_csv",
]

NO_EVALUABLE_FRAMES = "no evaluable frames (no labeled frame carries a gold label)"

# Most windows one stacked encoder call holds; an utterance with more runs
# alone. With 18 aligned windows per utterance, a stack holds 14
# utterances: enough that arithmetic rather than numpy's per-call dispatch
# sets the time, while a stack holds fewer windows than one 596-window
# stride-1 utterance.
STACK_WINDOWS = 256


class EvaluationError(Exception):
    pass


@dataclass
class ConfusionMatrix:
    predicted_labels: list[str]  # row order
    gold_labels: list[str]  # column order
    counts: np.ndarray  # [rows, cols] int64


@dataclass
class CorpusReduction:
    """What one encoding pass over a corpus's windows adds up to.

    `sums` and `maxima` [2, Z] hold each side's summed and largest
    probabilities, and `entropy_bits` [2] its summed row entropy in bits,
    over every window, confirm first. `terms` holds the
    objective of each utterance that has a window, in corpus order.
    `symbols` [M] int64 and `gold` [M] int pair the confirm argmax of each
    window center with its gold code, for the utterances that have gold
    labels.
    """

    windows: int
    sums: np.ndarray
    maxima: np.ndarray
    entropy_bits: np.ndarray
    agree: int  # windows where both encoders pick the same symbol
    terms: list[ObjectiveTerms]
    symbols: np.ndarray
    gold: np.ndarray

    def mean(self) -> np.ndarray:
        return self.sums / self.windows

    def mean_entropy_bits(self) -> np.ndarray:
        return self.entropy_bits / self.windows

    @property
    def agreement(self) -> float:
        return self.agree / self.windows


def entropy_bits_sum(probs: np.ndarray) -> np.ndarray:
    """Summed entropy in bits of the rows of `probs` [..., N, Z], per [N, Z].

    A zero entry meets the clipped log as 0 * log2(LOG_FLOOR), which is a
    signed zero and leaves the sum unchanged, so zero entries add nothing.
    """
    return -(probs * np.log2(np.clip(probs, LOG_FLOOR, None))).sum(axis=(-2, -1))


def _runs(
    corpus: list[Utterance], geometry: WindowGeometry, aligned: bool
) -> Iterator[list[Utterance]]:
    """Runs of consecutive utterances with one window count.

    A run holds at most STACK_WINDOWS windows, or one utterance. The count
    comes from the frame count, so an utterance without a full window is
    skipped before it is normalized; it does not end a run.
    """
    run, count = [], 0
    for u in corpus:
        n = window_count(u.frames.shape[0], geometry, aligned)
        if n == 0:
            continue
        if run and (n != count or (len(run) + 1) * n > STACK_WINDOWS):
            yield run
            run = []
        run.append(u)
        count = n
    if run:
        yield run


def reduce_corpus(
    ep: EncoderParams, corpus: list[Utterance], geometry: WindowGeometry, aligned: bool
) -> CorpusReduction:
    """Encode every window of `corpus` once per side and reduce the outputs.

    An utterance without a full window is skipped. Each run of
    consecutive utterances with one window count (see `_runs`) is cut by
    `corpus.window_pairs` into [B, N, L, d] windows of the model's dtype
    and encoded by one untaped call per side, confirm first, and the
    probabilities are cast to float64 into one [2, B, N, Z] array. Every
    utterance's [2, N, Z] slice is then reduced in corpus order, exactly
    as if it had been encoded alone.
    A window's symbol is its argmax, ties going to the smallest symbol id.
    Raises EvaluationError when the corpus has no full window.
    """
    sums, maxima = np.zeros((2, len(SIDES), ep.alphabet_size))
    entropy = np.zeros(len(SIDES))
    agree = windows = 0
    terms, symbols, gold = [], [np.zeros(0, np.int64)], [np.zeros(0, np.int32)]
    for run in _runs(corpus, geometry, aligned):
        batches, centers = window_pairs(run, geometry, aligned, ep.store.dtype)
        # one untaped call per side, each cast as it returns: the order of least peak RSS
        pairs = np.stack([ep.encode_node(side, batch).value.astype(np.float64)
                          for side, batch in zip(SIDES, batches)])
        del batches  # the run's frames, freed before its outputs are reduced
        for u, pair in zip(run, pairs.swapaxes(0, 1)):
            winners = pair.argmax(axis=2)
            if u.gold is not None:
                symbols.append(winners[0])
                gold.append(u.gold[centers])
            sums += pair.sum(axis=1)
            np.maximum(maxima, pair.max(axis=1), out=maxima)
            entropy += entropy_bits_sum(pair)
            agree += int((winners[0] == winners[1]).sum())
            windows += centers.size
            terms.append(utterance_loss(pair)[1])
        del pairs, pair  # freed before the next run is encoded
    if windows == 0:
        raise EvaluationError("no full windows in the corpus")
    return CorpusReduction(
        windows, sums, maxima, entropy, agree, terms, np.concatenate(symbols), np.concatenate(gold)
    )


def score(
    symbols: np.ndarray, gold: np.ndarray, labels: tuple[str, ...]
) -> tuple[ConfusionMatrix, float, float, float, int]:
    """Frame accuracy of `symbols` through their majority gold tags.

    `gold` holds codes into the sorted label names `labels`. The frames are
    counted once into a [Z, G] symbol-by-gold table, one column per code,
    and the columns of labels no frame carries are dropped. Each claimed
    symbol is tagged with its row's first maximum; codes follow the sorted
    names, so a tie goes to the lexicographically smaller label. Returns
    (confusion, overall_acc, covered_acc, coverage, tags_used): the
    confusion matrix has a row per tag used and a column per gold label;
    overall accuracy is over every frame, covered accuracy over the frames
    whose gold label is itself a tag, and coverage is their share.
    """
    if symbols.size == 0:
        raise EvaluationError(NO_EVALUABLE_FRAMES)
    g = len(labels)
    table = np.bincount(symbols * g + gold, minlength=(symbols.max() + 1) * g).reshape(-1, g)
    carried = table.any(axis=0)  # the labels some frame carries
    names = [name for name, c in zip(labels, carried) if c]
    claimed = table[table.any(axis=1)][:, carried]
    used, row = np.unique(claimed.argmax(axis=1), return_inverse=True)
    counts = np.zeros((used.size, len(names)), np.int64)
    np.add.at(counts, row, claimed)
    evaluable = int(counts.sum())
    correct = int(counts[np.arange(used.size), used].sum())
    covered = int(counts[:, used].sum())
    confusion = ConfusionMatrix([names[i] for i in used], names, counts)
    return confusion, correct / evaluable, correct / covered, covered / evaluable, int(used.size)


def _write_csv(path: Path, rows) -> None:
    """`rows` as CSV (``\r\n`` line ends), written through `replace_file`."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    replace_file(path, text.getvalue().encode("utf-8"))


def write_confusion_csv(confusion: ConfusionMatrix, path: Path) -> None:
    labelled = zip(confusion.predicted_labels, confusion.counts.tolist())
    rows = [[label, *counts] for label, counts in labelled]
    _write_csv(path, [["predicted", *confusion.gold_labels], *rows])


def write_symbol_stats_csv(reduction: CorpusReduction, path: Path, live_mask: np.ndarray) -> None:
    avg_confirm, avg_predict = reduction.mean()
    columns = zip(avg_confirm.tolist(), avg_predict.tolist(), live_mask)
    rows = [[z, repr(c), repr(p), int(live)] for z, (c, p, live) in enumerate(columns)]
    _write_csv(path, [["symbol", "avg_prob_psi", "avg_prob_phi", "live"], *rows])
