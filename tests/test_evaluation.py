"""Frame labeling, tagging, scoring, agreement, and symbol statistics."""

import os
import tracemalloc
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itco.corpus import (
    SyntheticSpec,
    Utterance,
    WindowGeometry,
    cut_windows,
    normalize_utterance,
    synth_corpus,
    window_count,
    window_pairs,
)
from itco.evaluation import (
    NO_EVALUABLE_FRAMES,
    STACK_WINDOWS,
    ConfusionMatrix,
    CorpusReduction,
    EvaluationError,
    entropy_bits_sum,
    reduce_corpus,
    score,
    write_confusion_csv,
    write_symbol_stats_csv,
)
from itco.model import CONFIRM, PREDICT, EncoderParams
from itco.numerics import stream_rng
from itco.objective import utterance_loss

GEOM = WindowGeometry(total=7, past=3, gap=1, future=3)


def small_params(seed: int = 0, zero: bool = False, alphabet: int = 8) -> EncoderParams:
    ep = EncoderParams.fresh(input_dim=4, alphabet_size=alphabet, hidden_dim=5, seed=seed)
    if zero:
        for _, p in ep.store.items():
            p.value[...] = 0.0
    return ep


def random_utterance(seed: int, frames: int, dim: int = 4, uid: str = "u0") -> Utterance:
    rng = stream_rng(seed, 909)
    return Utterance(uid, rng.normal(size=(frames, dim)).astype(np.float64))


def with_gold(corpus: list[Utterance], gold: list) -> tuple[list[Utterance], tuple[str, ...]]:
    """`corpus` with each utterance's label list (or None) as codes, and
    the sorted names the codes index: what `load_corpus` returns, built
    here from strings without it."""
    labels = tuple(sorted({name for names in gold if names is not None for name in names}))
    code = {name: c for c, name in enumerate(labels)}
    return [
        u if names is None else replace(u, gold=np.array([code[n] for n in names], np.int32))
        for u, names in zip(corpus, gold)
    ], labels


def stride1_windows(u: Utterance, geometry: WindowGeometry) -> list:
    """Reference windows: (center, x, y) for every start, sliced one at a
    time out of the normalized frames."""
    frames = normalize_utterance(u).frames
    g = geometry
    return [
        (t + g.total // 2, frames[t : t + g.past], frames[t + g.past + g.gap : t + g.total])
        for t in range(frames.shape[0] - g.total + 1)
    ]


def reduce_stride1(ep: EncoderParams, corpus: list[Utterance], geometry: WindowGeometry = GEOM):
    """The reduction `itco eval` reads: every stride-1 window."""
    return reduce_corpus(ep, corpus, geometry, aligned=False)


def row_entropy_bits(p: np.ndarray) -> float:
    """Reference entropy in bits of one distribution, zero entries skipped."""
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def frame_symbols(ep: EncoderParams, corpus: list[Utterance], geometry: WindowGeometry) -> dict:
    """Each utterance's per-frame symbols (-1 where no full window fits),
    read back from the labeled frames of a stride-1 reduction.

    Every frame gets a gold label of its own, so each (symbol, gold) pair
    is one nonzero cell of the symbol-by-gold count table and names the
    frame it came from.
    """
    tagged, labels = with_gold(corpus, [[f"{u.id}/{t}" for t in range(len(u.frames))] for u in corpus])
    reduction = reduce_stride1(ep, tagged, geometry)
    symbols, gold = reduction.symbols, reduction.gold
    assert len(set(gold.tolist())) == gold.size
    out = {u.id: np.full(len(u.frames), -1, dtype=np.int64) for u in corpus}
    for z, code in zip(symbols.tolist(), gold.tolist()):
        uid, t = labels[code].rsplit("/", 1)
        out[uid][int(t)] = z
    return out


def labeling_of(ep: EncoderParams, u: Utterance, geometry: WindowGeometry) -> np.ndarray:
    """One utterance's frame symbols from a one-utterance reduction."""
    return frame_symbols(ep, [u], geometry)[u.id]


class TestLabelFrames:
    def test_exact_fit_labels_single_center_frame(self):
        # T == total leaves exactly one placement, centered at total // 2.
        ep = small_params()
        u = random_utterance(1, GEOM.total)
        symbols = labeling_of(ep, u, GEOM)
        assert symbols.shape == (GEOM.total,)
        assert np.flatnonzero(symbols >= 0).tolist() == [GEOM.total // 2]

    def test_short_utterance_labels_nothing(self):
        ep = small_params()
        short = random_utterance(2, GEOM.total - 1, uid="short")
        symbols = frame_symbols(ep, [short, random_utterance(3, 12)], GEOM)
        assert (symbols["short"] == -1).all()
        assert (symbols["u0"] >= 0).sum() == 12 - GEOM.total + 1

    def test_uniform_model_ties_break_to_symbol_zero(self):
        # All-zero weights emit the uniform distribution everywhere, so the
        # smallest-id rule labels every evaluable frame with symbol 0.
        ep = small_params(zero=True)
        u = random_utterance(3, 20)
        symbols = labeling_of(ep, u, GEOM)
        labeled = np.flatnonzero(symbols >= 0)
        assert labeled.size == 20 - GEOM.total + 1
        assert (symbols[labeled] == 0).all()

    def test_labeled_span_matches_window_placements(self):
        ep = small_params()
        u = random_utterance(4, 31)
        symbols = labeling_of(ep, u, GEOM)
        centers = [center for center, _, _ in stride1_windows(u, GEOM)]
        assert np.flatnonzero(symbols >= 0).tolist() == centers

    def test_matches_per_window_argmax(self):
        ep = small_params(seed=5)
        u = random_utterance(6, 18)
        symbols = labeling_of(ep, u, GEOM)
        for center, _, y in stride1_windows(u, GEOM):
            probs = ep.encode_node(CONFIRM, y[None].astype(np.float32)).value
            assert symbols[center] == int(np.argmax(probs))

    def test_prenormalized_input_gives_identical_labels(self):
        ep = small_params(seed=7)
        u = random_utterance(8, 25)
        raw = labeling_of(ep, u, GEOM)
        pre = labeling_of(ep, normalize_utterance(u), GEOM)
        assert (raw == pre).all()

    def test_unlabeled_utterances_add_no_frames(self):
        # frames of an utterance without gold labels are not scored, but its
        # windows still count toward agreement and the symbol statistics
        ep = small_params(seed=9)
        corpus, labels = with_gold(
            [random_utterance(10, 15, uid="a"), random_utterance(11, 20, uid="b")], [["g"] * 15, None]
        )
        unlabeled = corpus[1]
        reduction = reduce_stride1(ep, corpus)
        assert reduction.symbols.dtype == np.int64 and reduction.gold.dtype == np.int32
        assert reduction.symbols.size == reduction.gold.size == 15 - GEOM.total + 1
        assert labels == ("g",) and set(reduction.gold.tolist()) == {0}
        assert reduction.windows == (15 - GEOM.total + 1) + (20 - GEOM.total + 1)
        none = reduce_stride1(ep, [unlabeled])
        assert none.symbols.size == none.gold.size == 0


def reduce_corpus_oracle(
    ep: EncoderParams,
    corpus: list[Utterance],
    geometry: WindowGeometry,
    aligned: bool,
    labels: tuple[str, ...] = (),
) -> CorpusReduction:
    """The per-utterance loop `reduce_corpus` stacks: one encoder call per
    utterance and side, each utterance's whole normalized frames cast and
    cut alone, kept as its oracle.
    Its `gold` holds each center's label name, read through `labels`: the
    string path, kept as the oracle of the reduction's codes."""
    z = ep.alphabet_size
    sums, maxima = np.zeros((2, 2, z))
    entropy = np.zeros(2)
    agree = windows = 0
    terms, symbols, gold = [], [np.zeros(0, np.int64)], [np.zeros(0, str)]
    for u in corpus:
        frames = normalize_utterance(u).frames.astype(ep.store.dtype)
        (y, x), centers = cut_windows(frames, geometry, aligned)
        if centers.size == 0:
            continue
        confirm = ep.encode_node(CONFIRM, y).value.astype(np.float64)
        predict = ep.encode_node(PREDICT, x).value.astype(np.float64)
        winners = confirm.argmax(axis=1)
        if u.gold is not None:
            symbols.append(winners)
            gold.append(np.asarray([labels[c] for c in u.gold])[centers])
        for s, probs in enumerate((confirm, predict)):
            sums[s] += probs.sum(axis=0)
            np.maximum(maxima[s], probs.max(axis=0), out=maxima[s])
            entropy[s] += entropy_bits_sum(probs)
        agree += int((winners == predict.argmax(axis=1)).sum())
        windows += centers.size
        terms.append(utterance_loss(np.stack((confirm, predict)))[1])
    if windows == 0:
        raise EvaluationError("no full windows in the corpus")
    return CorpusReduction(
        windows, sums, maxima, entropy, agree, terms, np.concatenate(symbols), np.concatenate(gold)
    )


def assert_same_reduction(
    got: CorpusReduction, want: CorpusReduction, labels: tuple[str, ...]
) -> None:
    """Every field equal, compared with ==, arrays in dtype and shape too;
    `got`'s gold codes read as names through `labels`."""
    assert got.windows == want.windows and got.agree == want.agree
    assert got.terms == want.terms
    for name in ("entropy_bits", "sums", "maxima", "symbols"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all(), name
    assert got.gold.dtype == np.int32
    assert [labels[c] for c in got.gold] == want.gold.tolist()


# Frame counts that make runs split on the window count and on the stack
# ceiling in both modes: GEOM.total - 1 frames is too short for a window,
# GEOM.total gives one window, 18 * GEOM.total gives 18 aligned windows (and
# 120 at stride 1, so three in a row pass 256), 19 * GEOM.total gives 19.
RUN_FRAMES = [GEOM.total - 1, GEOM.total, 18 * GEOM.total, 19 * GEOM.total]


class TestReduceCorpus:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_the_per_utterance_oracle(self, data):
        aligned = data.draw(st.booleans(), "aligned")
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), "dtype")
        # at d=13 and H=8 some OpenBLAS kernels round a GEMM row by the row count
        dim = data.draw(st.sampled_from([4, 13]), "d")
        blocks = data.draw(st.lists(
            st.tuples(
                st.one_of(st.sampled_from(RUN_FRAMES), st.integers(1, 20 * GEOM.total)),
                st.integers(1, 16),  # repeats, so equal counts run together
                st.booleans(),  # gold labels
            ),
            min_size=1, max_size=4,
        ), "blocks")
        corpus, gold = [], []
        for frames, repeats, labeled in blocks:
            for _ in range(repeats):
                i = len(corpus)
                corpus.append(random_utterance(i, frames, dim=dim, uid=f"u{i}"))
                # non-ASCII names; a short utterance lacks some of them
                gold.append(["Zaé"[(t + i) % 3] for t in range(frames)] if labeled else None)
        corpus, labels = with_gold(corpus, gold)
        ep = EncoderParams.fresh(input_dim=dim, alphabet_size=8, hidden_dim=8, seed=len(corpus), dtype=dtype)
        try:
            want = reduce_corpus_oracle(ep, corpus, GEOM, aligned, labels)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                reduce_corpus(ep, corpus, GEOM, aligned)
            return
        assert_same_reduction(reduce_corpus(ep, corpus, GEOM, aligned), want, labels)

    def test_stride1_peak_memory_is_no_higher_than_the_oracle(self):
        # 630-frame utterances have 596 stride-1 windows, more than one stack
        # holds, so each runs alone: no copy of its windows, and nothing of
        # the previous utterance's windows alive while the next is cut
        geometry = WindowGeometry()
        ep = EncoderParams.fresh(input_dim=8, alphabet_size=16, hidden_dim=16, seed=1)
        corpus = [random_utterance(i, 630, dim=8, uid=f"u{i}") for i in range(3)]
        assert window_count(630, geometry, aligned=False) == 596 > STACK_WINDOWS
        peaks = {}
        for name, reduce in (("oracle", reduce_corpus_oracle), ("stacked", reduce_corpus)):
            reduce(ep, corpus, geometry, False)  # first-call allocations out of the way
            tracemalloc.start()
            try:
                reduce(ep, corpus, geometry, False)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["stacked"] <= peaks["oracle"], peaks

    @pytest.mark.parametrize("aligned", [False, True])
    def test_encodes_each_utterance_once_per_side(self, aligned, monkeypatch):
        # every field equals the same sums taken, utterance by utterance,
        # over separately encoded float64 outputs; the short utterance is
        # skipped without an encoder call
        ep = small_params(seed=12)
        corpus, labels = with_gold(
            [random_utterance(40, 30, uid="a"), random_utterance(41, GEOM.total - 1, uid="short"),
             random_utterance(42, 16, uid="b")],
            [[f"g{t % 3}" for t in range(30)], None, None],
        )
        outputs, symbols, gold = [], [], []
        for u in corpus:
            if window_count(u.frames.shape[0], GEOM, aligned) == 0:
                continue
            (y, x), centers = window_pairs([u], GEOM, aligned, np.float32)
            confirm = ep.encode_node(CONFIRM, y[0]).value.astype(np.float64)
            outputs.append((confirm, ep.encode_node(PREDICT, x[0]).value.astype(np.float64)))
            if u.gold is not None:
                symbols += confirm.argmax(axis=1).tolist()
                gold += [labels[u.gold[c]] for c in centers]
        calls = []
        encode = EncoderParams.encode_node

        def counting(self, side, frames, tape=None):
            calls.append((side, tape))
            return encode(self, side, frames, tape)

        monkeypatch.setattr(EncoderParams, "encode_node", counting)
        got = reduce_corpus(ep, corpus, GEOM, aligned)
        assert calls == [(CONFIRM, None), (PREDICT, None)] * 2
        assert got.windows == sum(c.shape[0] for c, _ in outputs)
        assert got.sums.shape == got.maxima.shape == (2, ep.alphabet_size)
        assert got.entropy_bits.shape == (2,)
        for s in range(2):
            sides = [pair[s] for pair in outputs]
            assert np.array_equal(got.sums[s], sum(p.sum(axis=0) for p in sides))
            assert np.array_equal(got.maxima[s], np.max([p.max(axis=0) for p in sides], axis=0))
            assert got.entropy_bits[s] == sum(entropy_bits_sum(p) for p in sides)
        assert np.array_equal(got.mean(), got.sums / got.windows)
        assert got.agree == sum(int((c.argmax(1) == p.argmax(1)).sum()) for c, p in outputs)
        assert got.terms == [utterance_loss(np.stack(pair))[1] for pair in outputs]
        assert got.symbols.tolist() == symbols and [labels[c] for c in got.gold] == gold

    def test_entropy_bits_sum_adds_row_entropies(self):
        rows = np.array([[0.5, 0.5, 0.0, 0.0], [0.25] * 4, [1.0, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4]])
        per_row = sum(row_entropy_bits(r) for r in rows)
        assert entropy_bits_sum(rows) == pytest.approx(per_row, abs=1e-12)
        assert entropy_bits_sum(rows[:3]) == 3.0
        assert entropy_bits_sum(np.zeros((0, 4))) == 0.0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_entropy_bits_sum_matches_masked_oracle(self, data):
        # the earlier form masked zero entries out with np.where; dropping
        # the mask must not move a bit, exact zeros included
        n, z = data.draw(st.integers(0, 12)), data.draw(st.integers(1, 9))
        cells = st.one_of(st.just(0.0), st.floats(1e-40, 1.0))
        probs = np.array(data.draw(st.lists(cells, min_size=n * z, max_size=n * z))).reshape(n, z)
        probs = probs / np.maximum(probs.sum(axis=1, keepdims=True), 1e-300)
        logs = np.log2(np.clip(probs, 1e-30, None))
        assert entropy_bits_sum(probs) == float(-(np.where(probs > 0, probs * logs, 0.0)).sum())


# The per-frame tagging and scoring that `score` replaced, kept as its
# oracle: one dict of per-symbol label counts, then a second walk over the
# frames.


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
) -> tuple:
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
    confusion = (predicted_labels, gold_labels, counts)
    overall_acc = correct / evaluable
    covered_acc = covered_correct / covered if covered else 0.0
    coverage = covered / evaluable
    return confusion, overall_acc, covered_acc, coverage


def make_labeling(symbols: list[int], uid: str = "u0") -> FrameLabeling:
    return FrameLabeling(uid, np.array(symbols, dtype=np.int64))


def labeled_names(labelings: list[FrameLabeling], gold: list) -> tuple[np.ndarray, np.ndarray]:
    """(symbols, gold names) of the labeled frames of utterances with gold
    labels, in corpus order."""
    symbols, names = [np.zeros(0, np.int64)], [np.zeros(0, str)]
    for labeling, labels in zip(labelings, gold):
        if labels is not None:
            keep = labeling.labeled_indices()
            symbols.append(labeling.symbols[keep])
            names.append(np.asarray(labels)[keep])
    return np.concatenate(symbols), np.concatenate(names)


def labeled_frames(
    labelings: list[FrameLabeling], gold: list
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """(symbols, gold codes, label names) of the labeled frames: what a
    reduction and its corpus hand to `score`. The names are every label of
    every frame, scored or not, as a corpus's names are."""
    symbols, names = labeled_names(labelings, gold)
    labels = tuple(sorted({name for labels in gold if labels is not None for name in labels}))
    code = {name: c for c, name in enumerate(labels)}
    return symbols, np.array([code[n] for n in names.tolist()], np.int32), labels


def score_on_names(symbols: np.ndarray, gold: np.ndarray) -> tuple:
    """`score` on [M] gold names, kept as the oracle of its codes: the
    names are sorted by `np.unique`, and only the names some frame carries
    are columns."""
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


def assert_same_score(got: tuple, want: tuple) -> None:
    assert got[0].predicted_labels == want[0].predicted_labels
    assert got[0].gold_labels == want[0].gold_labels
    assert got[0].counts.dtype == want[0].counts.dtype == np.int64
    assert got[0].counts.tolist() == want[0].counts.tolist()
    assert got[1:] == want[1:]


def score_of(symbols: list[int], gold: list[str]):
    """`score` of one utterance's frames; -1 frames are not scored."""
    return score(*labeled_frames([make_labeling(symbols)], [gold]))


class TestMajorityTag:
    def test_majority_label_wins(self):
        confusion, *_, tags_used = score_of([-1, 2, 2, 2, -1], ["a", "a", "b", "a", "a"])
        assert confusion.predicted_labels == ["a"]
        assert confusion.gold_labels == ["a", "b"]
        assert confusion.counts.tolist() == [[2, 1]]
        assert tags_used == 1

    def test_tie_breaks_lexicographically_and_is_recorded(self):
        # the tie stays visible as equal counts in the tag's confusion row
        confusion, overall, *_ = score_of([3, 3, 3, 3], ["b", "a", "b", "a"])
        assert confusion.predicted_labels == ["a"]
        assert confusion.counts.tolist() == [[2, 2]]
        assert overall == 0.5

    def test_unpredicted_symbols_stay_untagged(self):
        # symbols 0 and 2 claim no frame; their empty rows would tag "a"
        # (column 0) if unclaimed symbols were tagged
        confusion, *_, tags_used = score_of([1, 1, 1, 3, 3, -1], ["x", "x", "a", "x", "x", "a"])
        assert confusion.predicted_labels == ["x"]
        assert tags_used == 1

    def test_counts_pool_across_utterances(self):
        a = make_labeling([0, 0], uid="a")
        b = make_labeling([0, -1], uid="b")
        confusion, *_ = score(*labeled_frames([a, b], [["p", "q"], ["q", "q"]]))
        assert confusion.predicted_labels == ["q"]
        assert confusion.counts.tolist() == [[1, 2]]

    def test_tags_used_counts_distinct_labels(self):
        confusion, *_, tags_used = score_of([0, 1, 2], ["x", "y", "x"])
        assert confusion.predicted_labels == ["x", "y"]
        assert tags_used == 2


class TestEvaluate:
    def test_perfect_labeling_scores_one(self):
        confusion, overall, covered, coverage, _ = score_of([-1, 0, 1, 0, -1], ["a", "a", "b", "a", "b"])
        assert overall == 1.0 and covered == 1.0 and coverage == 1.0
        assert confusion.predicted_labels == ["a", "b"]
        assert confusion.gold_labels == ["a", "b"]
        assert confusion.counts.tolist() == [[2, 0], [0, 1]]
        assert confusion.counts.sum() == 3

    def test_constant_predictor_on_balanced_labels_scores_chance(self):
        # One symbol for every frame of a 4-way balanced corpus: the tag
        # covers a single class, so accuracy is the 0.25 class share.
        confusion, overall, covered, coverage, _ = score_of([0] * 100, ["a", "b", "c", "d"] * 25)
        assert overall == 0.25
        assert covered == 1.0  # the covered frames are exactly the "a" frames
        assert coverage == 0.25
        assert confusion.counts.sum() == 100

    def test_covered_accuracy_restricts_to_tagged_gold_labels(self):
        # "c" never becomes a tag
        confusion, overall, covered, coverage, tags_used = score_of([0, 0, 1, 1], ["a", "a", "a", "c"])
        assert confusion.predicted_labels == ["a"] and tags_used == 1
        assert overall == 0.75
        assert covered == 1.0
        assert coverage == 0.75
        assert confusion.gold_labels == ["a", "c"]

    def test_no_evaluable_frames_is_an_error(self):
        with pytest.raises(EvaluationError, match=r"^no evaluable frames \(no labeled frame carries a gold label\)$"):
            score_of([-1, -1], ["a", "a"])

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_covered_accuracy_never_below_overall(self, data):
        n = data.draw(st.integers(min_value=1, max_value=40))
        symbols = data.draw(
            st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
        )
        gold = data.draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=n, max_size=n))
        _, overall, covered, coverage, _ = score_of(symbols, gold)
        assert covered >= overall - 1e-12
        assert 0.0 <= coverage <= 1.0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_score_matches_per_frame_oracle(self, data):
        # few names and few symbols, so ties and unclaimed symbols are common;
        # in about half the examples the last name may sit only on unscored
        # (-1) frames, so a label that is no column is common too
        names = data.draw(st.lists(st.sampled_from(["a", "b", "ab", "B", "", "Z", "é"]),
                                   min_size=1, max_size=3, unique=True))
        scored_names = names[:-1] if len(names) > 1 and data.draw(st.booleans()) else names
        labelings, gold = [], []
        for i in range(data.draw(st.integers(min_value=1, max_value=4))):
            n = data.draw(st.integers(min_value=1, max_value=12))
            symbols = data.draw(st.lists(st.integers(min_value=-1, max_value=5), min_size=n, max_size=n))
            labelings.append(make_labeling(symbols, uid=f"u{i}"))
            has_gold = data.draw(st.booleans())
            gold.append(
                [data.draw(st.sampled_from(names if s < 0 else scored_names)) for s in symbols]
                if has_gold else None
            )
        try:
            tagmap = majority_tag(labelings, gold)
            want = evaluate(labelings, tagmap, gold)
        except EvaluationError as exc:
            with pytest.raises(EvaluationError) as got:
                score(*labeled_frames(labelings, gold))
            assert str(got.value) == str(exc)
            return
        got = score(*labeled_frames(labelings, gold))
        assert_same_score(got, score_on_names(*labeled_names(labelings, gold)))
        confusion, overall, covered, coverage, tags_used = got
        (want_rows, want_cols, want_counts), *want_rates = want
        assert confusion.predicted_labels == want_rows
        assert confusion.gold_labels == want_cols
        assert confusion.counts.dtype == np.int64
        assert confusion.counts.tolist() == want_counts.tolist()
        assert [overall, covered, coverage] == want_rates
        assert tags_used == tagmap.tags_used


class TestScoreOnCodes:
    """`score` on codes against its two oracles on names: the string
    `score_on_names` and the per-frame `majority_tag`/`evaluate`."""

    # "Z" < "a" < "é" in code-point order; "é" is on no scored frame of the
    # second utterance and on no frame at all of the third
    GOLD = [["é", "Z", "a", "é", "Z", "a"], ["a", "Z", "é"], ["Z", "a"]]
    SYMBOLS = [[0, 0, 0, 0, 0, 0], [1, 1, -1], [2, 2]]

    def both(self, symbols, gold):
        labelings = [make_labeling(s, uid=f"u{i}") for i, s in enumerate(symbols)]
        got = score(*labeled_frames(labelings, gold))
        assert_same_score(got, score_on_names(*labeled_names(labelings, gold)))
        tagmap = majority_tag(labelings, gold)
        (rows, cols, counts), *rates = evaluate(labelings, tagmap, gold)
        assert (got[0].predicted_labels, got[0].gold_labels) == (rows, cols)
        assert got[0].counts.tolist() == counts.tolist() and list(got[1:4]) == rates
        return got, tagmap

    def test_ties_go_to_the_smaller_code_point(self):
        (confusion, *_), tagmap = self.both(self.SYMBOLS, self.GOLD)
        assert tagmap.ties == [0, 1, 2]
        assert tagmap.tags == {0: "Z", 1: "Z", 2: "Z"}
        assert confusion.predicted_labels == ["Z"]
        assert confusion.gold_labels == ["Z", "a", "é"]
        assert confusion.counts.tolist() == [[4, 4, 2]]

    def test_a_label_on_no_scored_frame_is_no_column(self):
        # "é" is in the corpus's names (frame 2 of u1), but only on a frame
        # without a symbol, so it is neither a column nor a tag
        symbols, gold = [[0, 0, 1], [1, 0, -1]], [["Z", "a", "a"], ["a", "Z", "é"]]
        (confusion, *_), _ = self.both(symbols, gold)
        assert labeled_frames([make_labeling(s) for s in symbols], gold)[2] == ("Z", "a", "é")
        assert confusion.gold_labels == ["Z", "a"]
        assert confusion.predicted_labels == ["Z", "a"]

    def test_a_missing_label_moves_no_code_of_the_others(self):
        # the same frames scored with and without an extra name that no
        # frame carries give the same result
        symbols, codes, labels = labeled_frames(
            [make_labeling(s) for s in self.SYMBOLS], self.GOLD
        )
        wider = ("A",) + labels  # "A" sorts first, so every code moves up one
        assert_same_score(score(symbols, codes + 1, wider), score(symbols, codes, labels))


class TestAgreementRate:
    def test_mirrored_models_on_mirrored_windows_agree_fully(self):
        # With past == future, gap == 0, constant frames, and the predict
        # side copying the confirm side, x and y are identical and so are
        # the argmaxes.
        geom = WindowGeometry(total=6, past=3, gap=0, future=3)
        ep = small_params(seed=11)
        arrays = ep.named_arrays()
        for name, array in arrays.items():
            if name.startswith("confirm."):
                arrays["predict." + name[len("confirm.") :]][...] = array
        u = Utterance("const", np.ones((20, 4), dtype=np.float64))
        assert reduce_stride1(ep, [u], geom).agreement == 1.0

    def test_independent_models_agree_near_chance(self):
        # Two independently drawn encoders over noise windows: agreement
        # should match the product-of-marginals chance rate, far below 1.
        geom = GEOM
        ep = EncoderParams.fresh(input_dim=4, alphabet_size=64, hidden_dim=8, seed=0)
        other = EncoderParams.fresh(input_dim=4, alphabet_size=64, hidden_dim=8, seed=999)
        mine, theirs = ep.named_arrays(), other.named_arrays()
        for name, array in mine.items():
            if name.startswith("predict."):
                array[...] = theirs[name]
        corpus = [random_utterance(100 + i, 80, uid=f"u{i}") for i in range(20)]
        rate = reduce_stride1(ep, corpus, geom).agreement

        winners_c: list[int] = []
        winners_p: list[int] = []
        for u in corpus:
            windows = stride1_windows(u, geom)
            y = np.stack([y for _, _, y in windows]).astype(np.float32)
            x = np.stack([x for _, x, _ in windows]).astype(np.float32)
            winners_c.extend(ep.encode_node(CONFIRM, y).value.argmax(axis=1).tolist())
            winners_p.extend(ep.encode_node(PREDICT, x).value.argmax(axis=1).tolist())
        pc = np.bincount(winners_c, minlength=64) / len(winners_c)
        pp = np.bincount(winners_p, minlength=64) / len(winners_p)
        chance = float((pc * pp).sum())
        assert rate < 0.25
        assert abs(rate - chance) < 0.05

    def test_empty_corpus_is_an_error(self):
        ep = small_params()
        with pytest.raises(EvaluationError, match="no full windows"):
            reduce_stride1(ep, [random_utterance(0, 3)])


class TestSymbolStats:
    def test_uniform_models_report_uniform_averages(self):
        ep = small_params(zero=True)
        reduction = reduce_stride1(ep, [random_utterance(20, 15)])
        z = ep.alphabet_size
        np.testing.assert_allclose(reduction.mean(), np.full((2, z), 1 / z), atol=1e-7)
        np.testing.assert_allclose(reduction.mean_entropy_bits(), np.log2(z), atol=1e-6)

    def test_averages_are_distributions(self):
        ep = small_params(seed=21)
        corpus = [random_utterance(22 + i, 12 + i, uid=f"u{i}") for i in range(3)]
        reduction = reduce_stride1(ep, corpus)
        np.testing.assert_allclose(reduction.mean().sum(axis=1), 1.0, atol=1e-6)
        assert (reduction.mean() >= 0).all()
        assert reduction.windows == sum(12 + i - GEOM.total + 1 for i in range(3))

    def test_entropy_bounds(self):
        ep = small_params(seed=23)
        reduction = reduce_stride1(ep, [random_utterance(24, 30)])
        entropy = reduction.mean_entropy_bits()
        assert ((0.0 <= entropy) & (entropy <= np.log2(ep.alphabet_size) + 1e-9)).all()

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(EvaluationError, match="no full windows"):
            reduce_stride1(small_params(), [])


class TestCsvWriters:
    def test_confusion_round_trip(self, tmp_path):
        confusion, *_ = score_of([0, 0, 1], ["a", "b", "b"])
        path = tmp_path / "confusion.csv"
        write_confusion_csv(confusion, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "predicted,a,b"
        body = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
        assert body["a"] == ["1", "1"]
        assert body["b"] == ["0", "1"]

    def test_symbol_stats_csv_layout(self, tmp_path):
        ep = small_params(zero=True, alphabet=4)
        reduction = reduce_stride1(ep, [random_utterance(30, 10)])
        path = tmp_path / "symbols.csv"
        live = np.array([True, True, False, True])
        write_symbol_stats_csv(reduction, path, live_mask=live)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "symbol,avg_prob_psi,avg_prob_phi,live"
        assert len(lines) == 5
        assert lines[3].split(",")[-1] == "0"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.25, abs=1e-7)

    @pytest.mark.parametrize("name", ["confusion.csv", "symbol_stats.csv"])
    def test_a_failed_rename_leaves_the_earlier_csv_whole(self, tmp_path, monkeypatch, name):
        # each CSV is written under a temporary name and renamed into place,
        # as checkpoints and the JSON files are
        reduction = reduce_stride1(small_params(zero=True, alphabet=4), [random_utterance(30, 10)])

        def write(k):
            if name == "confusion.csv":
                write_confusion_csv(score_of([0, k, 1], ["a", "b", "b"])[0], path)
            else:
                write_symbol_stats_csv(reduction, path, live_mask=np.arange(4) != k)

        def refuse(src, dst):
            raise OSError("rename refused")

        path = tmp_path / name
        write(1)
        before = path.read_bytes()
        assert before.endswith(b"\r\n") and before.count(b"\r\n") == before.count(b"\n")
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write(0)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [name]
        monkeypatch.undo()
        write(0)
        assert path.read_bytes() != before


class TestEndToEnd:
    def test_synthetic_pipeline_is_deterministic(self):
        spec = SyntheticSpec(
            num_latent=2,
            x_channel=np.eye(2),
            y_channel=np.eye(2),
            latent_prior=np.full(2, 0.5),
            frames_per_side=3,
            gap=1,
            num_utterances=6,
            windows_per_utterance=2,
            seed=5,
        )
        corpus, _ = synth_corpus(spec)
        ep = EncoderParams.fresh(input_dim=2, alphabet_size=8, hidden_dim=5, seed=3)
        geom = WindowGeometry(total=7, past=3, gap=1, future=3)

        def run():
            reduction = reduce_stride1(ep, corpus, geom)
            return score(reduction.symbols, reduction.gold, spec.labels)

        first = run()
        second = run()
        assert first[1:] == second[1:]
        assert (first[0].counts == second[0].counts).all()
        assert first[0].counts.sum() == sum(len(stride1_windows(u, geom)) for u in corpus)

        # the same scores as the per-frame oracle on the frames' symbols
        labelings = [make_labeling(s, uid) for uid, s in frame_symbols(ep, corpus, geom).items()]
        gold = [[spec.labels[c] for c in u.gold] for u in corpus]
        (rows, cols, counts), *rates = evaluate(labelings, majority_tag(labelings, gold), gold)
        assert (first[0].predicted_labels, first[0].gold_labels) == (rows, cols)
        assert first[0].counts.tolist() == counts.tolist()
        assert list(first[1:4]) == rates
