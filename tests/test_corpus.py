"""Corpus ingestion, windowing, synthesis, and the exact MI oracle."""

import hashlib
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itco import corpus as cp


def make_spec(**overrides):
    base = dict(
        num_latent=4,
        x_channel=np.eye(4),
        y_channel=np.eye(4),
        latent_prior=np.full(4, 0.25),
        num_utterances=2,
        windows_per_utterance=3,
        seed=0,
        frames_per_side=3,
        gap=2,
        jitter_sigma=0.0,
    )
    base.update(overrides)
    return cp.SyntheticSpec(**base)


# ---------------------------------------------------------------------------
# feature files and manifests


def one_utterance_corpus(tmp_path, frames, uid="u0"):
    """Write a corpus of one utterance; returns its feature file."""
    cp.write_corpus(tmp_path, [cp.Utterance(uid, frames)])
    return tmp_path / "features" / f"{uid}.itcf"


def test_feature_file_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((10, 39)).astype(np.float32)
    one_utterance_corpus(tmp_path, frames)
    back = cp.load_corpus(tmp_path).utterances[0].frames
    assert back.dtype == np.float32
    assert np.array_equal(back, frames)


def test_feature_file_header_layout(tmp_path):
    path = tmp_path / "u.itcf"
    cp.write_features(path, np.zeros((2, 3), dtype=np.float32))
    raw = path.read_bytes()
    assert raw[:4] == b"ITCF"
    assert np.frombuffer(raw[4:16], dtype="<u4").tolist() == [1, 2, 3]
    assert len(raw) == 16 + 2 * 3 * 4


def test_read_features_rejects_bad_magic_and_short_payload(tmp_path):
    path = one_utterance_corpus(tmp_path, np.zeros((4, 2), dtype=np.float32))
    raw = path.read_bytes()
    path.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(cp.CorpusError, match="bad magic"):
        cp.load_corpus(tmp_path)
    path.write_bytes(raw[:-4])
    with pytest.raises(cp.CorpusError, match="header promises 32"):
        cp.load_corpus(tmp_path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_features_rejects_non_finite_values_naming_the_frame(tmp_path, bad):
    frames = np.ones((6, 3), dtype=np.float32)
    frames[4, 1] = bad
    frames[5, 0] = bad
    # write_corpus refuses such frames, so the feature file is replaced after
    path = one_utterance_corpus(tmp_path, np.ones_like(frames), "u7")
    cp.write_features(path, frames)
    with pytest.raises(cp.CorpusError) as err:
        cp.load_corpus(tmp_path)
    assert "u7" in str(err.value) and "frame 4" in str(err.value) and str(path) in str(err.value)


def test_load_corpus_single_utterance_shape(tmp_path):
    u = cp.Utterance("u0", np.arange(390, dtype=np.float32).reshape(10, 39))
    cp.write_corpus(tmp_path, [u])
    loaded = cp.load_corpus(tmp_path / "manifest.tsv").utterances
    assert len(loaded) == 1
    assert loaded[0].id == "u0"
    assert loaded[0].frames.shape == (10, 39)
    assert loaded[0].gold is None


def test_write_load_round_trip_preserves_floats_labels_speaker(tmp_path):
    rng = np.random.default_rng(3)
    utts = [
        cp.Utterance("a", rng.standard_normal((7, 4)).astype(np.float32),
                     np.arange(7), speaker="spk1"),
        cp.Utterance("b", rng.standard_normal((5, 4)).astype(np.float32)),
    ]
    labels = tuple(f"l{i}" for i in range(7))
    cp.write_corpus(tmp_path, utts, labels, metadata={"kind": "test"})
    assert (tmp_path / "labels" / "a.txt").read_text() == "".join(f"{n}\n" for n in labels)
    corpus = cp.load_corpus(tmp_path / "manifest.tsv")
    loaded = corpus.utterances
    assert [u.id for u in loaded] == ["a", "b"]
    assert np.array_equal(loaded[0].frames, utts[0].frames)
    assert corpus.labels == labels
    assert loaded[0].gold.dtype == np.int32 and loaded[0].gold.tolist() == list(range(7))
    assert loaded[0].speaker == "spk1"
    assert loaded[1].gold is None and loaded[1].speaker is None
    assert corpus.metadata == {"kind": "test"}


def test_corpus_hash_covers_manifest_then_each_row_files_in_order(tmp_path):
    # a labeled row, an unlabeled one, then another labeled one
    utts = [
        cp.Utterance("b", np.ones((3, 2), dtype=np.float32), [1, 2, 3]),
        cp.Utterance("a", np.full((2, 2), 2.0, dtype=np.float32)),
        cp.Utterance("c", np.full((1, 2), 3.0, dtype=np.float32), [0]),
    ]
    manifest = cp.write_corpus(tmp_path, utts, ("w", "x", "y", "z"), metadata={"kind": "test"})
    read = lambda rel: (tmp_path / rel).read_bytes()  # noqa: E731
    expected = hashlib.sha256(
        manifest.read_bytes()
        + read("features/b.itcf") + read("labels/b.txt")
        + read("features/a.itcf")
        + read("features/c.itcf") + read("labels/c.txt")
    ).hexdigest()
    by_dir, by_manifest = cp.load_corpus(tmp_path), cp.load_corpus(manifest)
    assert by_dir.hash == by_manifest.hash == expected
    assert by_dir.manifest == by_manifest.manifest == manifest
    # any byte of a listed file moves the hash
    (tmp_path / "labels" / "c.txt").write_text("v\n")
    assert cp.load_corpus(tmp_path).hash != expected


def test_load_corpus_label_length_mismatch_names_utterance(tmp_path):
    u = cp.Utterance("short-labels", np.zeros((10, 2), dtype=np.float32), np.zeros(10, int))
    cp.write_corpus(tmp_path, [u], ("x",))
    label_file = tmp_path / "labels" / "short-labels.txt"
    label_file.write_text("\n".join(["x"] * 9) + "\n")
    with pytest.raises(cp.CorpusError) as err:
        cp.load_corpus(tmp_path / "manifest.tsv")
    assert "short-labels" in str(err.value)


def test_load_corpus_missing_feature_file_names_utterance(tmp_path):
    (tmp_path / "manifest.tsv").write_text("ghost\tfeatures/ghost.itcf\n")
    with pytest.raises(cp.CorpusError) as err:
        cp.load_corpus(tmp_path / "manifest.tsv")
    assert "ghost" in str(err.value)


def test_repeated_utterance_id_names_the_id_and_both_lines(tmp_path):
    manifest = cp.write_corpus(
        tmp_path, [cp.Utterance(uid, np.ones((2, 2))) for uid in ("u0", "u1")]
    )
    lines = manifest.read_text(encoding="utf-8").splitlines()
    rows = [i + 1 for i, line in enumerate(lines) if line and not line.startswith("#")]
    manifest.write_text("\n".join(lines + [lines[rows[0] - 1]]) + "\n", encoding="utf-8")
    with pytest.raises(cp.CorpusError) as err:
        cp.load_corpus(tmp_path)
    assert str(err.value) == (
        f"utterance 'u0': manifest line {len(lines) + 1} repeats the id of line {rows[0]}"
    )


def test_non_utf8_label_file_names_the_file_and_utterance(tmp_path):
    cp.write_corpus(tmp_path, [cp.Utterance("u3", np.ones((2, 2)), [0, 1])], ("a", "b"))
    label_file = tmp_path / "labels" / "u3.txt"
    label_file.write_bytes(label_file.read_bytes() + b"\xff\xfe")
    with pytest.raises(cp.CorpusError) as err:
        cp.load_corpus(tmp_path)
    assert str(err.value) == f"utterance 'u3': {label_file} is not UTF-8 text (byte 4)"


def test_non_utf8_manifest_names_it(tmp_path):
    manifest = cp.write_corpus(tmp_path, [cp.Utterance("u0", np.ones((2, 2)))])
    manifest.write_bytes(manifest.read_bytes() + b"# junk=\xff\n")
    with pytest.raises(cp.CorpusError) as err:
        cp.load_corpus(tmp_path)
    assert f"{manifest} is not UTF-8 text" in str(err.value)


def test_load_corpus_codes_are_ranks_in_the_sorted_names(tmp_path):
    # "Z" < "a" < "é" by code point; the first name read ("é") is the last
    # in order, the second file brings "Z", which sorts before both names
    # of the first, and u2 has no labels
    files = {"u0": ["é", "a", "é", "a"], "u1": ["Z", "é"]}
    for uid, names in files.items():
        (tmp_path / f"{uid}.txt").write_text("\n".join(names) + "\n", encoding="utf-8")
        cp.write_features(tmp_path / f"{uid}.itcf", np.ones((len(names), 2)))
    cp.write_features(tmp_path / "u2.itcf", np.ones((3, 2)))
    (tmp_path / "manifest.tsv").write_text(
        "u0\tu0.itcf\tu0.txt\nu1\tu1.itcf\tu1.txt\nu2\tu2.itcf\n", encoding="utf-8"
    )
    corpus = cp.load_corpus(tmp_path)
    assert corpus.labels == ("Z", "a", "é")
    u0, u1, u2 = corpus.utterances
    assert u0.gold.dtype == u1.gold.dtype == np.int32
    assert u0.gold.tolist() == [2, 1, 2, 1] and u1.gold.tolist() == [0, 2]
    assert u2.gold is None
    # written back, every label file is byte-identical
    again = cp.write_corpus(tmp_path / "again", corpus.utterances, corpus.labels)
    for uid in files:
        assert (again.parent / "labels" / f"{uid}.txt").read_bytes() == (tmp_path / f"{uid}.txt").read_bytes()


@pytest.mark.parametrize("column", [1, 2])
def test_nul_byte_in_a_manifest_path_names_the_row(tmp_path, column):
    manifest = cp.write_corpus(
        tmp_path, [cp.Utterance(uid, np.ones((2, 2)), [0, 0]) for uid in ("u0", "u1")], ("a",)
    )
    lines = manifest.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split("\t")
    fields[column] = fields[column][:3] + "\0" + fields[column][3:]
    lines[1] = "\t".join(fields)
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(cp.CorpusError) as err:
        cp.load_corpus(tmp_path)
    assert str(err.value) == "utterance 'u1': manifest line 2 names a path that holds a NUL byte"


def test_loaded_labels_cost_at_most_8_bytes_a_frame_beyond_the_frames(tmp_path):
    # 40 utterances of 630 frames (d = 4) with 4 label names: one int32
    # code per frame plus each utterance's objects. One Python str per
    # frame held about 59 bytes a frame.
    spec = make_spec(num_utterances=40, windows_per_utterance=18, frames_per_side=15, gap=5)
    utterances, _ = cp.synth_corpus(spec)
    cp.write_corpus(tmp_path, utterances, spec.labels)
    cp.load_corpus(tmp_path)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        corpus = cp.load_corpus(tmp_path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    frames = sum(u.frames.shape[0] for u in corpus.utterances)
    assert frames == 40 * 630
    beyond = held - sum(u.frames.nbytes for u in corpus.utterances)
    assert beyond / frames <= 8.0, beyond / frames


@pytest.mark.parametrize(
    "uid, speaker, label, problem",
    [
        ("#b", None, "a", "an id starting with '#' makes its manifest row a comment"),
        ("u", "x\ty", "a", "its speaker holds a tab or a line break"),
        ("a\tb", None, "a", "its id holds a tab or a line break"),
        ("u/v", None, "a", "an id holding '/'"),
        ("u", "", "a", "an empty speaker reads back as no speaker"),
        *[("u", None, f"a{c}b", "label name") for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"],
    ],
)
def test_write_corpus_refuses_what_would_not_read_back(tmp_path, uid, speaker, label, problem):
    # each used to be written and then dropped, cut short, shifted or miscounted by load_corpus
    utterances = [cp.Utterance("ok", np.ones((1, 2))),
                  cp.Utterance(uid, np.ones((3, 2)), [0, 1, 0], speaker)]
    with pytest.raises(cp.CorpusError, match="^" + re.escape(f"utterance {uid!r}: cannot write: {problem}")):
        cp.write_corpus(tmp_path, utterances, (label, "z"))
    assert list(tmp_path.iterdir()) == []


# characters the corpus format gives a meaning to, drawn as often as all the others
FORMAT_CHARS = "\t\n\r\x0b\x1c\x85\u2028#=/\0 é"
TEXT = st.text(
    st.one_of(st.sampled_from(FORMAT_CHARS), st.characters(exclude_categories=("Cs",))), max_size=4
)
# half the fields are plain, so that corpora that read back are common too
FIELD = st.text("ab1", min_size=1, max_size=2) | TEXT


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_a_written_corpus_reads_back_or_is_refused(tmp_path_factory, data):
    # write_corpus raises CorpusError naming an utterance (or the metadata)
    # before it writes a file, or load_corpus reads back the same ids,
    # speakers, label names, codes and metadata
    labels = tuple(data.draw(st.lists(FIELD, min_size=1, max_size=3, unique=True), "labels"))
    metadata = data.draw(st.just({}) | st.dictionaries(FIELD, FIELD, max_size=1), "metadata")
    utterances = []
    for _ in range(data.draw(st.integers(1, 3), "utterances")):
        n = data.draw(st.integers(1, 3))
        gold = data.draw(st.none() | st.lists(st.integers(-1, len(labels)), min_size=n, max_size=n))
        value = data.draw(st.sampled_from([1.0, -2.5, 0.5, np.nan, 1e39]))  # 1e39 overflows float32
        utterances.append(
            cp.Utterance(data.draw(FIELD, "id"), np.full((n, 2), value), gold, data.draw(st.none() | FIELD))
        )
    root = tmp_path_factory.mktemp("written")
    try:
        cp.write_corpus(root, utterances, labels, metadata)
    except cp.CorpusError as exc:
        assert exc.utterance_id in {u.id for u in utterances} or str(exc).startswith("metadata")
        assert list(root.iterdir()) == []
        return
    corpus = cp.load_corpus(root)
    assert corpus.metadata == metadata
    assert [(u.id, u.speaker) for u in corpus.utterances] == [(u.id, u.speaker) for u in utterances]
    for u, back in zip(utterances, corpus.utterances):
        if u.gold is None:
            assert back.gold is None
        else:
            assert [corpus.labels[c] for c in back.gold] == [labels[c] for c in u.gold]


def fuzz_corpus_files() -> dict[str, bytes]:
    """The bytes of a 3-utterance labelled corpus, by path in its directory."""
    rng = np.random.default_rng(17)
    labels = ("Z", "a", "é")
    utterances = [
        cp.Utterance(f"u{i}", rng.standard_normal((4 + i, 2)).astype(np.float32),
                     rng.integers(0, 3, 4 + i) if i < 2 else None, speaker="s" if i else None)
        for i in range(3)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        cp.write_corpus(tmp, utterances, labels, metadata={"kind": "fuzz"})
        root = Path(tmp)
        return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


FUZZ_FILES = fuzz_corpus_files()
# bytes that mean something to the format, drawn as often as all the others
FUZZ_BYTES = st.one_of(st.sampled_from(list(b"\x00\t\n\r#=/.\xff\xc3")), st.integers(0, 255))


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_corpus_byte_fuzz_raises_only_corpus_error(tmp_path_factory, data):
    # bytes of the manifest, a feature file or a label file are replaced,
    # inserted or deleted; loading gives a corpus or a CorpusError, nothing
    # else, and every code of a corpus it gives indexes its names and reads
    # back as its label file's line
    root = tmp_path_factory.getbasetemp() / "fuzzed-corpus"
    name = data.draw(st.sampled_from(sorted(FUZZ_FILES)), "file")
    raw = bytearray(FUZZ_FILES[name])
    for _ in range(data.draw(st.integers(1, 3), "edits")):
        at = data.draw(st.integers(0, len(raw)), "at")
        kind = data.draw(st.sampled_from(["replace", "insert", "delete"]), "kind")
        if kind == "insert" or at == len(raw):
            raw.insert(at, data.draw(FUZZ_BYTES, "byte"))
        elif kind == "replace":
            raw[at] = data.draw(FUZZ_BYTES, "byte")
        else:
            del raw[at]
    for rel, content in FUZZ_FILES.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(bytes(raw) if rel == name else content)
    try:
        corpus = cp.load_corpus(root)
    except cp.CorpusError:
        return
    assert list(corpus.labels) == sorted(set(corpus.labels))
    rows = [line.split("\t") for line in (root / "manifest.tsv").read_text("utf-8").splitlines()]
    label_files = {row[0]: row[2] for row in rows if len(row) > 2 and row[2] and row[0][:1] != "#"}
    for u in corpus.utterances:
        if u.gold is not None:
            assert u.gold.shape == (u.frames.shape[0],)
            assert 0 <= u.gold.min() and u.gold.max() < len(corpus.labels)
            lines = (root / label_files[u.id]).read_text("utf-8").splitlines()
            assert [corpus.labels[c] for c in u.gold] == lines


def test_utterance_invariants():
    with pytest.raises(cp.CorpusError):
        cp.Utterance("empty", np.zeros((0, 3)))
    with pytest.raises(cp.CorpusError, match="2 labels for 4 frames"):
        cp.Utterance("bad-labels", np.zeros((4, 3)), [0, 1])
    with pytest.raises(cp.CorpusError, match="int label codes"):
        cp.Utterance("names", np.zeros((2, 3)), ["a", "b"])


# ---------------------------------------------------------------------------
# normalization


def test_normalize_constant_norm_divides_by_that_norm():
    # every frame has squared norm 4, so normalization divides by 2
    frames = np.tile(np.array([2.0, 0.0]), (6, 1))
    out = cp.normalize_utterance(cp.Utterance("u", frames))
    assert np.allclose(out.frames, frames / 2.0)


def test_normalize_sets_mean_squared_norm_to_one():
    rng = np.random.default_rng(5)
    out = cp.normalize_utterance(cp.Utterance("u", rng.standard_normal((5, 3))))
    mean_sq = np.mean(np.sum(out.frames**2, axis=1))
    assert abs(mean_sq - 1.0) < 1e-9


def test_normalize_is_idempotent():
    rng = np.random.default_rng(6)
    once = cp.normalize_utterance(cp.Utterance("u", rng.standard_normal((8, 4))))
    twice = cp.normalize_utterance(once)
    assert np.allclose(twice.frames, once.frames, atol=1e-9)


def test_normalize_rejects_all_zero_utterance():
    with pytest.raises(cp.CorpusError):
        cp.normalize_utterance(cp.Utterance("z", np.zeros((3, 2))))


@given(st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=30, deadline=None)
def test_normalize_ignores_positive_scaling(c):
    rng = np.random.default_rng(9)
    frames = rng.standard_normal((6, 3))
    a = cp.normalize_utterance(cp.Utterance("u", frames))
    b = cp.normalize_utterance(cp.Utterance("u", c * frames))
    assert np.allclose(a.frames, b.frames, atol=1e-9)


# ---------------------------------------------------------------------------
# windowing


def loop_windows(run, g, aligned, dtype):
    """Reference for window_pairs: slice one window per start out of each
    utterance's normalized frames, stack, then cast."""
    ys, xs = [], []
    for u in run:
        frames = cp.normalize_utterance(u).frames
        starts = range(0, frames.shape[0] - g.total + 1, g.total if aligned else 1)
        xs.append([frames[t : t + g.past] for t in starts])
        ys.append([frames[t + g.past + g.gap : t + g.total] for t in starts])
    centers = np.array([t + g.total // 2 for t in starts], dtype=np.int64)
    return (np.array(ys).astype(dtype), np.array(xs).astype(dtype)), centers


def base_of(a: np.ndarray) -> np.ndarray:
    """The array that owns `a`'s memory."""
    while a.base is not None:
        a = a.base
    return a


def assert_same_windows(got, want):
    """window_pairs' ((y, x), centers) equals `want`'s in dtype, shape and
    values, as read-only views of one array."""
    (y, x), centers = got
    for a, b in zip((y, x, centers), (*want[0], want[1])):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
    assert not y.flags.writeable and not x.flags.writeable
    assert base_of(y) is base_of(x)


def test_windows_exact_fit_yields_one_window():
    g = cp.WindowGeometry()
    u = cp.Utterance("u", np.arange(1, 35 * 2 + 1, dtype=float).reshape(35, 2))
    (y, x), centers = cp.window_pairs([u], g, False, np.float64)
    frames = cp.normalize_utterance(u).frames
    assert x.shape == (1, 1, 15, 2) and y.shape == (1, 1, 15, 2)
    assert np.array_equal(x[0, 0], frames[0:15])
    assert np.array_equal(y[0, 0], frames[20:35])
    assert centers.tolist() == [17]


def test_windows_count_matches_average_utterance():
    g = cp.WindowGeometry()
    u = cp.Utterance("u", np.ones((304, 3)))
    (y, x), centers = cp.window_pairs([u], g, False, np.float32)
    assert x.shape == (1, 270, 15, 3) and y.shape == (1, 270, 15, 3)
    assert centers.shape == (270,)


def test_windows_too_short_gives_empty_list():
    g = cp.WindowGeometry()
    for aligned in (False, True):
        (y, x), centers = cp.cut_windows(np.ones((2, 34, 3), np.float32), g, aligned)
        assert x.shape == (2, 0, 15, 3) and y.shape == (2, 0, 15, 3) and centers.shape == (0,)
        assert x.dtype == y.dtype == np.float32


@given(st.integers(min_value=1, max_value=120))
@settings(max_examples=40, deadline=None)
def test_window_count_formula(t):
    g = cp.WindowGeometry(total=9, past=4, gap=1, future=4)
    frames = np.ones((t, 2), np.float32)
    assert cp.cut_windows(frames, g, False)[1].size == max(0, t - 9 + 1)
    assert cp.cut_windows(frames, g, True)[1].size == t // 9
    for aligned in (False, True):
        assert cp.window_count(t, g, aligned) == cp.cut_windows(frames, g, aligned)[1].size


def test_window_slices_respect_geometry():
    g = cp.WindowGeometry(total=9, past=4, gap=1, future=4)
    u = cp.Utterance("u", np.arange(1, 13, dtype=float).reshape(12, 1))
    (y, x), centers = cp.window_pairs([u], g, False, np.float64)
    assert centers.tolist() == [4, 5, 6, 7]
    scale = cp.normalize_utterance(u).frames[0, 0]  # frame 0 holds 1.0
    # the window starting at frame 2 holds frames 2..10 (values 3..11)
    assert np.allclose(x[0, 2].ravel() / scale, [3, 4, 5, 6])
    assert np.allclose(y[0, 2].ravel() / scale, [8, 9, 10, 11])


def test_geometry_invariants():
    with pytest.raises(ValueError):
        cp.WindowGeometry(total=35, past=15, gap=6, future=15)
    with pytest.raises(ValueError):
        cp.WindowGeometry(total=2, past=1, gap=1, future=0)


def test_aligned_starts_walk_back_to_back_blocks():
    g = cp.WindowGeometry(total=8, past=3, gap=2, future=3)
    for frames, starts in ((24, [0, 8, 16]), (23, [0, 8])):
        u = cp.Utterance("u", np.ones((frames, 2)))
        centers = cp.window_pairs([u], g, True, np.float32)[1]
        assert centers.tolist() == [t + 4 for t in starts]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_an_aligned_run_reads_only_its_windows_of_each_utterance(dtype):
    # 630 and 640 frames both hold 18 aligned 35-frame windows; each is
    # normalized over all its frames, and the stack holds the 630 its windows read
    g = cp.WindowGeometry()
    rng = np.random.default_rng(5)
    run = [cp.Utterance(f"u{t}", rng.standard_normal((t, 3))) for t in (630, 640)]
    got = cp.window_pairs(run, g, True, dtype)
    assert got[0][0].shape == (2, 18, 15, 3) and base_of(got[0][0]).shape == (2, 630, 3)
    assert_same_windows(got, loop_windows(run, g, True, dtype))


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
    st.sampled_from([np.float32, np.float64]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_window_pairs_match_per_start_loop(n, b, past, gap, future, d, aligned, dtype, seed):
    # a run of b utterances of n windows each; aligned, each has its own
    # leftover frames past its last window
    g = cp.WindowGeometry(total=past + gap + future, past=past, gap=gap, future=future)
    rng = np.random.default_rng(seed)
    lengths = [n * g.total + int(rng.integers(g.total)) if aligned else n + g.total - 1
               for _ in range(b)]
    run = [cp.Utterance(f"u{i}", rng.standard_normal((t, d)) + 0.1) for i, t in enumerate(lengths)]
    assert_same_windows(cp.window_pairs(run, g, aligned, dtype), loop_windows(run, g, aligned, dtype))


# ---------------------------------------------------------------------------
# synthesis


def test_synth_identity_channels_joint_is_quarter_diagonal():
    _, joint = cp.synth_corpus(make_spec())
    assert np.allclose(joint, np.diag(np.full(4, 0.25)))


def test_synth_uniform_channels_joint_is_outer_product():
    uniform = np.full((4, 4), 0.25)
    _, joint = cp.synth_corpus(make_spec(x_channel=uniform, y_channel=uniform))
    assert np.allclose(joint, np.full((4, 4), 1 / 16))


def test_synth_symmetric_flip_channel_matches_brute_force():
    # flip probability 0.1 spread over the three wrong symbols
    k = 4
    channel = np.full((k, k), 0.1 / 3)
    np.fill_diagonal(channel, 0.9)
    prior = np.array([0.1, 0.2, 0.3, 0.4])
    spec = make_spec(x_channel=channel, y_channel=channel, latent_prior=prior)
    _, joint = cp.synth_corpus(spec)
    brute = np.zeros((k, k))
    for s in range(k):
        for a in range(k):
            for b in range(k):
                brute[a, b] += prior[s] * channel[s, a] * channel[s, b]
    assert np.allclose(joint, brute, atol=1e-15)


def test_synth_window_layout_and_labels():
    spec = make_spec()
    utts, _ = cp.synth_corpus(spec)
    assert len(utts) == 2
    total = spec.window_total
    for u in utts:
        assert u.frames.shape == (3 * total, 4)
        assert u.gold.shape == (3 * total,)
        for w in range(3):
            block = u.frames[w * total : (w + 1) * total]
            x_part, gap_part, y_part = block[:3], block[3:5], block[5:]
            # identity channels + zero jitter: clean one-hot rows, zero gap
            assert np.array_equal(gap_part, np.zeros((2, 4)))
            for part in (x_part, y_part):
                assert np.allclose(part.sum(axis=1), 1.0)
                assert np.array_equal(part[0], part[1])
            # one label per window, shared by every frame in the block
            labels = {spec.labels[c] for c in u.gold[w * total : (w + 1) * total]}
            assert len(labels) == 1
            # identity channels make the x symbol equal the latent class
            s = int(np.argmax(x_part[0]))
            assert labels == {cp.latent_label(s)}
            assert np.array_equal(x_part[0], y_part[0])


def test_synth_codes_rank_the_latent_names_as_strings():
    # with 12 classes the names sort k0, k1, k10, k11, k2, ...: a latent
    # class's code is its name's rank, not its index
    spec = make_spec(num_latent=12, x_channel=np.eye(12), y_channel=np.eye(12),
                     latent_prior=np.full(12, 1 / 12), num_utterances=4, windows_per_utterance=20)
    assert spec.labels == ("k0", "k1", "k10", "k11") + tuple(f"k{s}" for s in range(2, 10))
    utts, _ = cp.synth_corpus(spec)
    total = spec.window_total
    for u in utts:
        assert u.gold.dtype == np.int32
        for w in range(20):
            s = int(np.argmax(u.frames[w * total]))  # identity channel: x symbol = latent
            assert set(u.gold[w * total : (w + 1) * total].tolist()) == {spec.labels.index(f"k{s}")}


def test_synth_is_deterministic_per_seed():
    a, _ = cp.synth_corpus(make_spec(seed=42))
    b, _ = cp.synth_corpus(make_spec(seed=42))
    c, _ = cp.synth_corpus(make_spec(seed=43))
    assert all(np.array_equal(x.frames, y.frames) for x, y in zip(a, b))
    assert any(not np.array_equal(x.frames, y.frames) for x, y in zip(a, c))


def test_synth_jitter_lands_on_symbol_frames_only():
    spec = make_spec(jitter_sigma=0.05)
    utts, _ = cp.synth_corpus(spec)
    block = utts[0].frames[: spec.window_total]
    assert np.array_equal(block[3:5], np.zeros((2, 4)))
    assert not np.allclose(block[:3].sum(axis=1), 1.0)


def test_synthetic_spec_validates_channels_and_prior():
    with pytest.raises(ValueError):
        make_spec(x_channel=np.ones((4, 4)))
    with pytest.raises(ValueError):
        make_spec(latent_prior=np.array([0.5, 0.5, 0.0, 0.1]))
    with pytest.raises(ValueError):
        make_spec(latent_prior=np.array([0.5, 0.5, 0.25, -0.25]))


def test_synthetic_spec_json_round_trip():
    spec = make_spec(jitter_sigma=0.2)
    again = cp.SyntheticSpec.from_json_dict(spec.to_json_dict())
    assert np.array_equal(again.x_channel, spec.x_channel)
    assert again.windows_per_utterance == spec.windows_per_utterance
    assert again.jitter_sigma == 0.2


# ---------------------------------------------------------------------------
# exact MI oracle


def test_oracle_independent_table_is_zero_bits():
    px = np.array([0.2, 0.3, 0.5])
    py = np.array([0.6, 0.4])
    assert abs(cp.true_mi_oracle(np.outer(px, py))) < 1e-12


def test_oracle_identity_quarter_diagonal_is_two_bits():
    assert abs(cp.true_mi_oracle(np.diag(np.full(4, 0.25))) - 2.0) < 1e-12


def test_oracle_known_2x2_table():
    # direct evaluation of the formula gives 0.27807 bits
    table = np.array([[0.4, 0.1], [0.1, 0.4]])
    assert abs(cp.true_mi_oracle(table) - 0.2781) < 1e-4


def test_oracle_rejects_bad_tables():
    with pytest.raises(ValueError):
        cp.true_mi_oracle(np.array([[0.5, 0.1], [0.1, 0.4]]))
    with pytest.raises(ValueError):
        cp.true_mi_oracle(np.array([[0.5, -0.1], [0.2, 0.4]]))


@st.composite
def random_joint_tables(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    table = rng.uniform(0.0, 1.0, size=(rows, cols))
    # sprinkle structural zeros
    table *= rng.uniform(0.0, 1.0, size=table.shape) > 0.2
    if table.sum() == 0:
        table[0, 0] = 1.0
    return table / table.sum()


@given(random_joint_tables())
@settings(max_examples=60, deadline=None)
def test_oracle_symmetry_nonnegativity_and_marginal_bound(table):
    mi = cp.true_mi_oracle(table)
    assert mi >= -1e-12
    assert abs(mi - cp.true_mi_oracle(table.T)) < 1e-9

    def entropy(p):
        p = p[p > 0]
        return float(-(p * np.log2(p)).sum())

    assert mi <= min(entropy(table.sum(1)), entropy(table.sum(0))) + 1e-9
