"""Frame labeling, tagging, scoring, agreement, and symbol statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itco.corpus import (
    SyntheticSpec,
    Utterance,
    WindowGeometry,
    normalize_utterance,
    synth_corpus,
    window_arrays,
)
from itco.evaluation import (
    EvaluationError,
    FrameLabeling,
    analyze_corpus,
    encode_corpus,
    entropy_bits_sum,
    evaluate,
    majority_tag,
    write_confusion_csv,
    write_symbol_stats_csv,
)
from itco.model import CONFIRM, PREDICT, EncoderParams
from itco.numerics import stream_rng

GEOM = WindowGeometry(total=7, past=3, gap=1, future=3)


def small_params(seed: int = 0, zero: bool = False, alphabet: int = 8) -> EncoderParams:
    ep = EncoderParams(input_dim=4, alphabet_size=alphabet, hidden_dim=5, seed=seed)
    if zero:
        for _, p in ep.store.items():
            p.value[...] = 0.0
    return ep


def random_utterance(seed: int, frames: int, dim: int = 4, uid: str = "u0") -> Utterance:
    rng = stream_rng(seed, 909)
    return Utterance(uid, rng.normal(size=(frames, dim)).astype(np.float64))


def stride1_windows(u: Utterance, geometry: WindowGeometry) -> list:
    """Reference windows: (center, x, y) for every start, sliced one at a
    time out of the normalized frames."""
    frames = normalize_utterance(u).frames
    g = geometry
    return [
        (t + g.total // 2, frames[t : t + g.past], frames[t + g.past + g.gap : t + g.total])
        for t in range(frames.shape[0] - g.total + 1)
    ]


def row_entropy_bits(p: np.ndarray) -> float:
    """Reference entropy in bits of one distribution, zero entries skipped."""
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def labeling_of(ep: EncoderParams, u: Utterance, geometry: WindowGeometry) -> FrameLabeling:
    """One utterance's frame labels from a one-utterance analyze_corpus pass."""
    return analyze_corpus(ep, [u], geometry)[0][0]


class TestLabelFrames:
    def test_exact_fit_labels_single_center_frame(self):
        # T == total leaves exactly one placement, centered at total // 2.
        ep = small_params()
        u = random_utterance(1, GEOM.total)
        labeling = labeling_of(ep, u, GEOM)
        assert labeling.symbols.shape == (GEOM.total,)
        assert labeling.labeled_indices().tolist() == [GEOM.total // 2]

    def test_short_utterance_labels_nothing(self):
        ep = small_params()
        short = random_utterance(2, GEOM.total - 1, uid="short")
        labelings, _, stats = analyze_corpus(ep, [short, random_utterance(3, 12)], GEOM)
        assert labelings[0].utterance_id == "short"
        assert labelings[0].labeled_indices().size == 0
        assert (labelings[0].symbols == -1).all()
        assert stats.windows == 12 - GEOM.total + 1

    def test_uniform_model_ties_break_to_symbol_zero(self):
        # All-zero weights emit the uniform distribution everywhere, so the
        # smallest-id rule labels every evaluable frame with symbol 0.
        ep = small_params(zero=True)
        u = random_utterance(3, 20)
        labeling = labeling_of(ep, u, GEOM)
        labeled = labeling.labeled_indices()
        assert labeled.size == 20 - GEOM.total + 1
        assert (labeling.symbols[labeled] == 0).all()

    def test_labeled_span_matches_window_placements(self):
        ep = small_params()
        u = random_utterance(4, 31)
        labeling = labeling_of(ep, u, GEOM)
        centers = [center for center, _, _ in stride1_windows(u, GEOM)]
        assert labeling.labeled_indices().tolist() == centers

    def test_matches_per_window_argmax(self):
        ep = small_params(seed=5)
        u = random_utterance(6, 18)
        labeling = labeling_of(ep, u, GEOM)
        for center, _, y in stride1_windows(u, GEOM):
            probs = ep.encode_node(CONFIRM, y.astype(np.float32)).value
            assert labeling.symbols[center] == int(np.argmax(probs))

    def test_prenormalized_input_gives_identical_labels(self):
        ep = small_params(seed=7)
        u = random_utterance(8, 25)
        raw = labeling_of(ep, u, GEOM)
        pre = labeling_of(ep, normalize_utterance(u), GEOM)
        assert (raw.symbols == pre.symbols).all()


class TestEncodeCorpus:
    @pytest.mark.parametrize("aligned", [False, True])
    def test_yields_each_utterance_encoded_once_per_side(self, aligned, monkeypatch):
        ep = small_params(seed=12)
        corpus = [
            random_utterance(40, 30, uid="a"),
            random_utterance(41, GEOM.total - 1, uid="short"),
            random_utterance(42, 16, uid="b"),
        ]
        expected = []
        for u in corpus:
            x, y, centers = window_arrays(u, GEOM, aligned, np.float32)
            if centers.size:
                expected.append((ep.encode_node(CONFIRM, y).value, ep.encode_node(PREDICT, x).value))
            else:
                expected.append(None)
        calls = []
        encode = EncoderParams.encode_node

        def counting(self, side, frames, tape=None):
            calls.append(side)
            return encode(self, side, frames, tape)

        monkeypatch.setattr(EncoderParams, "encode_node", counting)
        got = list(encode_corpus(ep, corpus, GEOM, aligned))
        assert [u.id for u, _, _, _ in got] == ["a", "short", "b"]
        assert calls == [CONFIRM, PREDICT] * 2
        for (u, confirm, predict, centers), want in zip(got, expected):
            assert confirm.dtype == predict.dtype == np.float64
            assert np.array_equal(centers, window_arrays(u, GEOM, aligned, np.float32)[2])
            if want is None:
                assert confirm.shape == predict.shape == (0, ep.alphabet_size)
            else:
                assert np.array_equal(confirm, want[0]) and np.array_equal(predict, want[1])

    def test_entropy_bits_sum_adds_row_entropies(self):
        rows = np.array([[0.5, 0.5, 0.0, 0.0], [0.25] * 4, [1.0, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4]])
        per_row = sum(row_entropy_bits(r) for r in rows)
        assert entropy_bits_sum(rows) == pytest.approx(per_row, abs=1e-12)
        assert entropy_bits_sum(rows[:3]) == 3.0
        assert entropy_bits_sum(np.zeros((0, 4))) == 0.0


def make_labeling(symbols: list[int], uid: str = "u0") -> FrameLabeling:
    return FrameLabeling(uid, np.array(symbols, dtype=np.int64))


class TestMajorityTag:
    def test_majority_label_wins(self):
        labeling = make_labeling([-1, 2, 2, 2, -1])
        gold = [["a", "a", "b", "a", "a"]]
        tm = majority_tag([labeling], gold)
        assert tm.tags == {2: "a"}
        assert tm.counts[2] == {"a": 2, "b": 1}
        assert tm.ties == []

    def test_tie_breaks_lexicographically_and_is_recorded(self):
        labeling = make_labeling([3, 3, 3, 3])
        gold = [["b", "a", "b", "a"]]
        tm = majority_tag([labeling], gold)
        assert tm.tags == {3: "a"}
        assert tm.ties == [3]

    def test_unpredicted_symbols_stay_untagged(self):
        labeling = make_labeling([1, 1, -1])
        tm = majority_tag([labeling], [["x", "x", "x"]])
        assert set(tm.tags) == {1}

    def test_counts_pool_across_utterances(self):
        a = make_labeling([0, 0], uid="a")
        b = make_labeling([0, -1], uid="b")
        tm = majority_tag([a, b], [["p", "q"], ["q", "q"]])
        assert tm.counts[0] == {"p": 1, "q": 2}
        assert tm.tags[0] == "q"

    def test_tags_used_counts_distinct_labels(self):
        a = make_labeling([0, 1, 2])
        tm = majority_tag([a], [["x", "y", "x"]])
        assert tm.tags == {0: "x", 1: "y", 2: "x"}
        assert tm.tags_used == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvaluationError, match="gold labels"):
            majority_tag([make_labeling([0, 0])], [["a"]])


class TestEvaluate:
    def test_perfect_labeling_scores_one(self):
        labeling = make_labeling([-1, 0, 1, 0, -1])
        gold = [["a", "a", "b", "a", "b"]]
        tm = majority_tag([labeling], gold)
        confusion, overall, covered, coverage = evaluate([labeling], tm, gold)
        assert overall == 1.0 and covered == 1.0 and coverage == 1.0
        assert confusion.predicted_labels == ["a", "b"]
        assert confusion.gold_labels == ["a", "b"]
        assert confusion.counts.tolist() == [[2, 0], [0, 1]]
        assert confusion.counts.sum() == 3

    def test_constant_predictor_on_balanced_labels_scores_chance(self):
        # One symbol for every frame of a 4-way balanced corpus: the tag
        # covers a single class, so accuracy is the 0.25 class share.
        gold = [["a", "b", "c", "d"] * 25]
        labeling = make_labeling([0] * 100)
        tm = majority_tag([labeling], gold)
        confusion, overall, covered, coverage = evaluate([labeling], tm, gold)
        assert overall == 0.25
        assert covered == 1.0  # the covered frames are exactly the "a" frames
        assert coverage == 0.25
        assert confusion.counts.sum() == 100

    def test_covered_accuracy_restricts_to_tagged_gold_labels(self):
        labeling = make_labeling([0, 0, 1, 1])
        gold = [["a", "a", "a", "c"]]  # "c" never becomes a tag
        tm = majority_tag([labeling], gold)
        assert tm.tags == {0: "a", 1: "a"}
        confusion, overall, covered, coverage = evaluate([labeling], tm, gold)
        assert overall == 0.75
        assert covered == 1.0
        assert coverage == 0.75
        assert confusion.gold_labels == ["a", "c"]

    def test_rows_are_predictions_columns_are_gold(self):
        labeling = make_labeling([0, 1])
        gold = [["a", "a"]]
        tm = majority_tag([make_labeling([0, 1])], [["p", "q"]])
        confusion, _, _, _ = evaluate([labeling], tm, gold)
        assert confusion.predicted_labels == ["p", "q"]
        assert confusion.gold_labels == ["a"]
        assert confusion.counts.tolist() == [[1], [1]]

    def test_foreign_tagmap_skips_untagged_symbols(self):
        tm = majority_tag([make_labeling([5, 5])], [["a", "a"]])
        labeling = make_labeling([5, 9])  # 9 has no tag
        confusion, overall, _, _ = evaluate([labeling], tm, [["a", "b"]])
        assert confusion.counts.sum() == 1
        assert overall == 1.0

    def test_no_evaluable_frames_is_an_error(self):
        tm = majority_tag([make_labeling([1])], [["a"]])
        with pytest.raises(EvaluationError, match="no evaluable"):
            evaluate([make_labeling([-1, -1])], tm, [["a", "a"]])

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_covered_accuracy_never_below_overall(self, data):
        n = data.draw(st.integers(min_value=1, max_value=40))
        symbols = data.draw(
            st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
        )
        gold = [
            data.draw(
                st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=n, max_size=n)
            )
        ]
        labeling = make_labeling(symbols)
        tm = majority_tag([labeling], gold)
        _, overall, covered, coverage = evaluate([labeling], tm, gold)
        assert covered >= overall - 1e-12
        assert 0.0 <= coverage <= 1.0


class TestAgreementRate:
    def test_mirrored_models_on_mirrored_windows_agree_fully(self):
        # With past == future, gap == 0, constant frames, and the predict
        # side copying the confirm side, x and y are identical and so are
        # the argmaxes.
        geom = WindowGeometry(total=6, past=3, gap=0, future=3)
        ep = small_params(seed=11)
        for slot, _ in ep.store.items():
            if slot.startswith("confirm."):
                ep.store["predict." + slot[len("confirm.") :]].value[...] = ep.store[
                    slot
                ].value
        u = Utterance("const", np.ones((20, 4), dtype=np.float64))
        assert analyze_corpus(ep, [u], geom)[1] == 1.0

    def test_independent_models_agree_near_chance(self):
        # Two independently drawn encoders over noise windows: agreement
        # should match the product-of-marginals chance rate, far below 1.
        geom = GEOM
        ep = EncoderParams(input_dim=4, alphabet_size=64, hidden_dim=8, seed=0)
        other = EncoderParams(input_dim=4, alphabet_size=64, hidden_dim=8, seed=999)
        for slot, _ in ep.store.items():
            if slot.startswith("predict."):
                ep.store[slot].value[...] = other.store[slot].value
        corpus = [random_utterance(100 + i, 80, uid=f"u{i}") for i in range(20)]
        rate = analyze_corpus(ep, corpus, geom)[1]

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
            analyze_corpus(ep, [random_utterance(0, 3)], GEOM)


class TestSymbolStats:
    def test_uniform_models_report_uniform_averages(self):
        ep = small_params(zero=True)
        corpus = [random_utterance(20, 15)]
        stats = analyze_corpus(ep, corpus, GEOM)[2]
        z = ep.alphabet_size
        np.testing.assert_allclose(stats.avg_confirm, np.full(z, 1 / z), atol=1e-7)
        np.testing.assert_allclose(stats.avg_predict, np.full(z, 1 / z), atol=1e-7)
        assert stats.mean_entropy_confirm_bits == pytest.approx(np.log2(z), abs=1e-6)
        assert stats.mean_entropy_predict_bits == pytest.approx(np.log2(z), abs=1e-6)

    def test_averages_are_distributions(self):
        ep = small_params(seed=21)
        corpus = [random_utterance(22 + i, 12 + i, uid=f"u{i}") for i in range(3)]
        stats = analyze_corpus(ep, corpus, GEOM)[2]
        assert abs(stats.avg_confirm.sum() - 1.0) < 1e-6
        assert abs(stats.avg_predict.sum() - 1.0) < 1e-6
        assert (stats.avg_confirm >= 0).all() and (stats.avg_predict >= 0).all()
        assert stats.windows == sum(12 + i - GEOM.total + 1 for i in range(3))

    def test_entropy_bounds(self):
        ep = small_params(seed=23)
        stats = analyze_corpus(ep, [random_utterance(24, 30)], GEOM)[2]
        for h in (stats.mean_entropy_confirm_bits, stats.mean_entropy_predict_bits):
            assert 0.0 <= h <= np.log2(ep.alphabet_size) + 1e-9

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(EvaluationError, match="no full windows"):
            analyze_corpus(small_params(), [], GEOM)


class TestCsvWriters:
    def test_confusion_round_trip(self, tmp_path):
        labeling = make_labeling([0, 0, 1])
        gold = [["a", "b", "b"]]
        tm = majority_tag([labeling], gold)
        confusion, _, _, _ = evaluate([labeling], tm, gold)
        path = tmp_path / "confusion.csv"
        write_confusion_csv(confusion, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "predicted,a,b"
        body = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
        assert body["a"] == ["1", "1"]
        assert body["b"] == ["0", "1"]

    def test_symbol_stats_csv_layout(self, tmp_path):
        ep = small_params(zero=True, alphabet=4)
        stats = analyze_corpus(ep, [random_utterance(30, 10)], GEOM)[2]
        path = tmp_path / "symbols.csv"
        live = np.array([True, True, False, True])
        write_symbol_stats_csv(stats, path, live_mask=live)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "symbol,avg_prob_psi,avg_prob_phi,live"
        assert len(lines) == 5
        assert lines[3].split(",")[-1] == "0"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.25, abs=1e-7)


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
        ep = EncoderParams(input_dim=2, alphabet_size=8, hidden_dim=5, seed=3)
        geom = spec.geometry()

        def run():
            labelings = analyze_corpus(ep, corpus, geom)[0]
            gold = [u.gold_labels for u in corpus]
            tm = majority_tag(labelings, gold)
            return evaluate(labelings, tm, gold)

        first = run()
        second = run()
        assert first[1:] == second[1:]
        assert (first[0].counts == second[0].counts).all()
        assert first[0].counts.sum() == sum(len(stride1_windows(u, geom)) for u in corpus)
