"""Corpus ingestion, windowing, and synthetic ground truth.

Utterances are [T, d] float feature matrices with optional per-frame gold
labels. A corpus holds its label names once, as one sorted tuple, and each
labelled utterance holds one int code per frame: the rank of the frame's
label in that tuple, so code order is the names' code-point order.
`window_pairs` cuts every encoder input, for training and evaluation:
windows that slide over each utterance with stride 1 (or step over its
back-to-back generated placements) and never cross utterance boundaries.
The synthetic generator draws (latent, x symbol, y symbol) triples
through a pair of row-stochastic channels and emits one-hot frame blocks,
together with the exact joint table over observed symbol pairs so the
true mutual information is known in closed form.

`load_corpus` is the only reader of the corpus format. It reads the
manifest and every file it lists once, and hashes the bytes it read, so
the utterances, the label names, the manifest metadata and the corpus
hash come from one pass. `write_corpus` writes each code back as its
name, one per line.

Every scalar input field, here and in the trainer's `TrainConfig`, is
declared once with `rule` (type and range, or the values it allows),
checked by `check_fields` and read from JSON by `from_json_fields`.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .numerics import stream_rng

__all__ = [
    "CorpusError",
    "Utterance",
    "WindowGeometry",
    "SyntheticSpec",
    "fits",
    "rule",
    "check_fields",
    "from_json_fields",
    "Corpus",
    "replace_file",
    "write_features",
    "load_corpus",
    "write_corpus",
    "normalize_utterance",
    "window_count",
    "window_pairs",
    "cut_windows",
    "synth_corpus",
    "true_mi_oracle",
    "latent_label",
]

MANIFEST = "manifest.tsv"
FEATURE_MAGIC = b"ITCF"
FEATURE_VERSION = 1

# random-stream tag for synthesis (model/trainer use their own tags)
TAG_SYNTH = 404


class CorpusError(Exception):
    """Corpus file or invariant problem, carrying the utterance id when known."""

    def __init__(self, message: str, utterance_id: Optional[str] = None):
        if utterance_id is not None:
            message = f"utterance {utterance_id!r}: {message}"
        super().__init__(message)
        self.utterance_id = utterance_id


@dataclass
class Utterance:
    id: str
    frames: np.ndarray  # [T, d]
    gold: Optional[np.ndarray] = None  # [T] int codes into its corpus's label names
    speaker: Optional[str] = None

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise CorpusError(
                f"frames must be a [T, d] matrix with T >= 1, got shape {self.frames.shape}",
                self.id,
            )
        if self.gold is not None:
            self.gold = np.asarray(self.gold)
            if self.gold.ndim != 1 or self.gold.dtype.kind not in "iu":
                raise CorpusError(
                    f"gold must be a [T] array of int label codes, got {self.gold.dtype} "
                    f"of shape {self.gold.shape}",
                    self.id,
                )
            if self.gold.size != self.frames.shape[0]:
                raise CorpusError(
                    f"{self.gold.size} labels for {self.frames.shape[0]} frames", self.id
                )


def fits(value, kind: type, lo=None, hi=None) -> bool:
    """Whether `value` is a `kind` inside [lo, hi]. An int takes only an int
    (not a bool or 3.0, which JSON lets through to fail later as an index or
    a size), a float an int or a finite float, and a bool only a bool."""
    if kind is float:
        # false for NaN, the infinities and an int too large for a float
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        ok = type(value) is kind
    return ok and (lo is None or value >= lo) and (hi is None or value <= hi)


def rule(kind: type, lo=None, hi=None, default=MISSING, choices=None):
    """A dataclass field that `check_fields` holds to `fits(value, kind, lo, hi)`
    and, given `choices`, to one of those values."""
    return field(default=default, metadata={"rule": (kind, lo, hi, choices)})


def check_fields(obj, error: type) -> None:
    """Raise `error` naming the first field of `obj` that breaks its `rule`."""
    for f in (f for f in fields(obj) if "rule" in f.metadata):
        kind, lo, hi, choices = f.metadata["rule"]
        value = getattr(obj, f.name)
        if choices is not None and not (fits(value, kind) and value in choices):
            raise error(f"{f.name} must be one of {', '.join(map(repr, choices))}, got {value!r}")
        if not fits(value, kind, lo, hi):
            span = f" in [{lo}, {hi}]" if hi is not None else f" >= {lo}" if lo is not None else ""
            what = "a finite float" if kind is float else f"an {kind.__name__}"
            raise error(f"{f.name} must be {what}{span}, got {value!r}")


def from_json_fields(cls, doc, error: type, name: str = ""):
    """`cls(**doc)` for the dataclass `cls`, or `error` naming (after `name`,
    the key `doc` sits under) each unknown key, with the fields allowed, or
    else each missing field that has no default."""
    if not isinstance(doc, dict):
        raise error(f"{name or cls.__name__} must be a JSON object, got {doc!r}")
    allowed = [f.name for f in fields(cls)]
    unknown = [repr(key) for key in doc if key not in allowed]
    missing = [repr(f.name) for f in fields(cls)
               if f.name not in doc and f.default is MISSING and f.default_factory is MISSING]
    if unknown or missing:
        what = (f"unknown field(s) {', '.join(unknown)}; the fields are {', '.join(allowed)}"
                if unknown else f"missing field(s) {', '.join(missing)}")
        raise error(f"{name}: {what}" if name else what)
    return cls(**doc)


@dataclass(frozen=True)
class WindowGeometry:
    total: int = rule(int, 2, default=35)
    past: int = rule(int, 1, default=15)
    gap: int = rule(int, 0, default=5)
    future: int = rule(int, 1, default=15)

    def __post_init__(self):
        check_fields(self, ValueError)
        if self.past + self.gap + self.future != self.total:
            raise ValueError(
                f"past + gap + future must equal total "
                f"({self.past}+{self.gap}+{self.future} != {self.total})"
            )


@dataclass
class SyntheticSpec:
    """Ground-truth generator settings.

    Latent classes are drawn from ``latent_prior``; each class emits an
    observed x symbol and y symbol through its row of the respective
    channel matrix. ``gap`` zero frames separate the two one-hot blocks so
    one generated window spans exactly 2*frames_per_side + gap frames.
    """

    num_latent: int = rule(int, 1)
    x_channel: np.ndarray  # [K, A], rows sum to 1
    y_channel: np.ndarray  # [K, A], rows sum to 1
    latent_prior: np.ndarray  # [K], sums to 1
    num_utterances: int = rule(int, 1)
    windows_per_utterance: int = rule(int, 1)
    seed: int = rule(int, 0)
    frames_per_side: int = rule(int, 1, default=15)
    gap: int = rule(int, 0, default=5)
    jitter_sigma: float = rule(float, 0, default=0.0)

    def __post_init__(self):
        check_fields(self, ValueError)
        self.x_channel = np.asarray(self.x_channel, dtype=np.float64)
        self.y_channel = np.asarray(self.y_channel, dtype=np.float64)
        self.latent_prior = np.asarray(self.latent_prior, dtype=np.float64)
        k = self.num_latent
        if self.x_channel.shape[0] != k or self.y_channel.shape[0] != k:
            raise ValueError("channel matrices must have num_latent rows")
        if self.x_channel.shape != self.y_channel.shape:
            raise ValueError("x_channel and y_channel must share one alphabet size")
        if self.latent_prior.shape != (k,):
            raise ValueError("latent_prior must have num_latent entries")
        # written so that a NaN entry fails each comparison
        for name, mat in (("x_channel", self.x_channel), ("y_channel", self.y_channel)):
            if not (np.all(mat >= 0) and np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-12):
                raise ValueError(f"{name} rows must be probability vectors (1e-12)")
        if not (np.all(self.latent_prior >= 0) and abs(self.latent_prior.sum() - 1.0) <= 1e-12):
            raise ValueError("latent_prior must be a probability vector (1e-12)")

    @property
    def alphabet_size(self) -> int:
        return self.x_channel.shape[1]

    @property
    def window_total(self) -> int:
        return 2 * self.frames_per_side + self.gap

    @property
    def labels(self) -> tuple[str, ...]:
        """The sorted names of the latent classes, which the gold codes index."""
        return tuple(sorted(map(latent_label, range(self.num_latent))))

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        for name in ("x_channel", "y_channel", "latent_prior"):
            doc[name] = doc[name].tolist()
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SyntheticSpec":
        return from_json_fields(cls, doc, ValueError)


def latent_label(s: int) -> str:
    return f"k{s}"


# ---------------------------------------------------------------------------
# feature file and manifest IO


def replace_file(path: Path, data: bytes) -> None:
    """Write `data` to `path` under a temporary name in the same directory,
    then rename it over `path`: a write cut short leaves the earlier file
    whole, and the temporary file is removed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.tmp")
    try:
        temporary.write_bytes(data)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)  # gone already once renamed


def write_features(path: Path, frames: np.ndarray) -> None:
    frames = np.asarray(frames)
    t, d = frames.shape
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, t, d))
        fh.write(np.ascontiguousarray(frames, dtype="<f4").tobytes())


def _parse_features(raw: bytes, path: Path, utterance_id: str) -> np.ndarray:
    if len(raw) < 16 or raw[:4] != FEATURE_MAGIC:
        raise CorpusError(f"not a feature file (bad magic): {path}", utterance_id)
    version, t, d = struct.unpack("<III", raw[4:16])
    if version != FEATURE_VERSION:
        raise CorpusError(f"unsupported feature file version {version}", utterance_id)
    payload = raw[16:]
    if len(payload) != t * d * 4:
        raise CorpusError(
            f"feature payload holds {len(payload)} bytes, header promises {t * d * 4}",
            utterance_id,
        )
    frames = np.frombuffer(payload, dtype="<f4").reshape(t, d).copy()
    bad = np.flatnonzero(~np.isfinite(frames).all(axis=1))
    if bad.size:
        raise CorpusError(
            f"feature file {path} holds a NaN or infinity at frame {int(bad[0])}",
            utterance_id,
        )
    return frames


def _one_line(text: str) -> bool:
    """Whether `text` holds no character that `str.splitlines` breaks at."""
    return "".join(text.splitlines()) == text


def _unreadable(u: Utterance, labels: tuple[str, ...], ids: set[str]) -> Optional[str]:
    """Why `load_corpus` would not read `u` back as `write_corpus` writes it, or None."""
    if u.id in ids:
        return "its id names an earlier utterance too"
    if u.id.startswith("#"):
        return "an id starting with '#' makes its manifest row a comment"
    if "/" in u.id or "\0" in u.id:
        return "an id holding '/' or a NUL byte does not name one feature file"
    for what, text in (("id", u.id), ("speaker", u.speaker or "")):
        if "\t" in text or not _one_line(text):
            return f"its {what} holds a tab or a line break, which split its manifest row"
    if u.speaker == "":
        return "an empty speaker reads back as no speaker"
    if not np.all(np.abs(u.frames) <= np.finfo(np.float32).max):  # NaN fails too
        return "its frames hold a value that is not a finite float32"
    codes = () if u.gold is None else np.unique(u.gold).tolist()
    if any(c < 0 or c >= len(labels) for c in codes):
        return f"its gold codes do not all index the {len(labels)} label names"
    bad = [labels[c] for c in codes if not _one_line(labels[c])]
    return f"label name {bad[0]!r} holds a line break, which splits its label file" if bad else None


def write_corpus(
    corpus_dir: Path,
    utterances: list[Utterance],
    labels: tuple[str, ...] = (),
    metadata: Optional[dict[str, str]] = None,
) -> Path:
    """Write features/labels plus a manifest.tsv; returns the manifest path.

    A labelled utterance's label file holds `labels[code]` for each of its
    codes, one per line. Metadata key=value pairs land as '#'-prefixed
    comment lines at the top of the manifest and come back as
    `load_corpus`'s metadata. What `load_corpus` would read back otherwise,
    or not at all, raises CorpusError naming the utterance before any write.
    """
    for key, value in (metadata or {}).items():
        if "=" in key or not all(_one_line(t) and t == t.strip() for t in (key, value)):
            raise CorpusError(f"metadata {key!r}={value!r} does not read back from a manifest line")
    ids: set[str] = set()
    for u in utterances:
        problem = _unreadable(u, labels, ids)
        if problem is not None:
            raise CorpusError(f"cannot write: {problem}", u.id)
        ids.add(u.id)
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}={value}")
    for u in utterances:
        feat_rel = f"features/{u.id}.itcf"
        write_features(corpus_dir / feat_rel, u.frames)
        label_rel = ""
        if u.gold is not None:
            label_rel = f"labels/{u.id}.txt"
            label_path = corpus_dir / label_rel
            label_path.parent.mkdir(parents=True, exist_ok=True)
            names = "\n".join(map(labels.__getitem__, u.gold.tolist()))
            label_path.write_text(names + "\n", encoding="utf-8")
        lines.append("\t".join([u.id, feat_rel, label_rel, u.speaker or ""]))
    manifest = corpus_dir / MANIFEST
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


@dataclass(frozen=True)
class Corpus:
    """What one pass over a corpus's files yields.

    ``labels`` holds the sorted names of every gold label in the corpus's
    label files, each once; every labelled utterance's ``gold`` codes index
    it. ``metadata`` holds the manifest's ``# key=value`` lines. ``hash`` is
    the SHA-256 hex digest of the manifest bytes, then of each row's
    feature file and, when the row names one, its label file, in row order.
    """

    manifest: Path
    utterances: list[Utterance]
    labels: tuple[str, ...]
    metadata: dict[str, str]
    hash: str


def load_corpus(path: Path) -> Corpus:
    """Read a corpus directory, or its manifest, reading each file once.

    Manifest rows are ``id<TAB>features[<TAB>labels[<TAB>speaker]]``, paths
    relative to the manifest; blank lines and ``#`` lines are not rows. An
    id may name one row only. A label file holds one label per frame, one
    per line; each utterance's labels become one int32 array of codes into
    the corpus's sorted label names, so each name is held once per corpus.
    """
    path = Path(path)
    manifest = path / MANIFEST if path.is_dir() else path
    digest = hashlib.sha256()

    def read(file: Path, what: str, uid: Optional[str] = None) -> bytes:
        try:
            raw = file.read_bytes()
        except OSError as exc:
            raise CorpusError(f"cannot read {what} {file}: {exc.strerror}", uid)
        digest.update(raw)
        return raw

    def lines(file: Path, raw: bytes, uid: Optional[str] = None) -> list[str]:
        try:
            return raw.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{file} is not UTF-8 text (byte {exc.start})", uid)

    metadata: dict[str, str] = {}
    utterances = []
    seen: dict[str, int] = {}  # id -> the manifest line that lists it
    index: dict[str, int] = {}  # label name -> code, in the order first read
    for lineno, line in enumerate(lines(manifest, read(manifest, "manifest")), 1):
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            if eq:
                metadata[key.strip()] = value.strip()
            continue
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise CorpusError(f"manifest line {lineno} needs at least id and feature path")
        uid = parts[0]
        if uid in seen:
            raise CorpusError(f"manifest line {lineno} repeats the id of line {seen[uid]}", uid)
        seen[uid] = lineno
        if any("\0" in p for p in parts[1:3]):
            raise CorpusError(f"manifest line {lineno} names a path that holds a NUL byte", uid)
        feature_path = manifest.parent / parts[1]
        frames = _parse_features(read(feature_path, "feature file", uid), feature_path, uid)
        gold = None
        if len(parts) > 2 and parts[2]:
            label_path = manifest.parent / parts[2]
            names = lines(label_path, read(label_path, "label file", uid), uid)
            for name in sorted(set(names).difference(index)):
                index[name] = len(index)
            # the lookups run in C: no Python-level loop over the frames
            gold = np.fromiter(map(index.__getitem__, names), np.int32, len(names))
        speaker = parts[3] if len(parts) > 3 and parts[3] else None
        utterances.append(Utterance(uid, frames, gold, speaker))
    if not utterances:
        raise CorpusError(f"manifest lists no utterances: {manifest}")
    labels = tuple(sorted(index))
    if labels != tuple(index):  # a later file brought a name that sorts earlier
        rank = np.empty(len(labels), np.int32)  # code in reading order -> code in sorted order
        rank[[index[name] for name in labels]] = np.arange(len(labels))
        for u in utterances:
            if u.gold is not None:
                u.gold = rank[u.gold]
    return Corpus(manifest, utterances, labels, metadata, digest.hexdigest())


# ---------------------------------------------------------------------------
# normalization and windowing


def normalize_utterance(u: Utterance) -> Utterance:
    """Scale frames so the mean squared frame norm is 1.

    The divisor is sqrt(mean_t ||frame_t||^2), computed in float64. The
    output therefore satisfies mean_t ||frame_t||^2 = 1 within 1e-9, and
    renormalizing a normalized utterance is an identity up to rounding.
    """
    frames = np.asarray(u.frames, dtype=np.float64)
    mean_sq = float(np.mean(np.sum(frames * frames, axis=1)))
    if mean_sq == 0.0:
        raise CorpusError("all-zero utterance, normalization scale undefined", u.id)
    return replace(u, frames=frames / np.sqrt(mean_sq))


def _step(g: WindowGeometry, aligned: bool) -> int:
    return g.total if aligned else 1  # frames from one window's start to the next's


def window_count(frames: int, g: WindowGeometry, aligned: bool) -> int:
    """How many windows `cut_windows` cuts from an utterance of `frames` frames."""
    return 0 if frames < g.total else (frames - g.total) // _step(g, aligned) + 1


def window_pairs(
    run: list[Utterance], g: WindowGeometry, aligned: bool, dtype
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The window pair of a run of B utterances that share one window count N >= 1.

    Each utterance's normalized frames, trimmed to the span its N windows
    read (aligned utterances of one count may differ in length), are cast
    once into one [B, F, d] stack of `dtype`. Returns `cut_windows`' views
    of it: the (y [B, N, future, d], x [B, N, past, d]) pair, in ``SIDES``
    order, and the N centers.
    """
    span = (window_count(run[0].frames.shape[0], g, aligned) - 1) * _step(g, aligned) + g.total
    frames = np.empty((len(run), span, run[0].frames.shape[1]), dtype)
    for stacked, u in zip(frames, run):
        stacked[...] = normalize_utterance(u).frames[:span]
    return cut_windows(frames, g, aligned)


def cut_windows(
    frames: np.ndarray, g: WindowGeometry, aligned: bool
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Cut frames [..., F, d] into the pair (y [..., N, future, d],
    x [..., N, past, d]) of read-only views, no copy, and centers [N].

    The window starting at frame t covers [t, t+total), x its first `past`
    frames and y its last `future`, and centers on t + total//2. Windows
    start at every frame, or with ``aligned`` only at the back-to-back
    generated placements 0, total, 2*total, ...; N is 0 when F is shorter
    than one window. At stride 1, each window starts one frame after the
    previous one: a sliding view, whose N+L-1 distinct frames
    ``numerics.gru_sequence`` projects once.
    """
    step = _step(g, aligned)
    if frames.shape[-2] >= g.total:
        # [..., N, d, total]
        view = np.lib.stride_tricks.sliding_window_view(frames, g.total, axis=-2)[..., ::step, :, :]
    else:
        view = np.zeros(frames.shape[:-2] + (0, frames.shape[-1], g.total), frames.dtype)
    x = view[..., : g.past].swapaxes(-1, -2)
    y = view[..., g.past + g.gap :].swapaxes(-1, -2)
    centers = np.arange(view.shape[-3]) * step + g.total // 2
    return (y, x), centers


# ---------------------------------------------------------------------------
# synthesis and the exact oracle


def synth_corpus(spec: SyntheticSpec) -> tuple[list[Utterance], np.ndarray]:
    """Generate utterances of back-to-back windows plus the exact joint table.

    Every window draws latent s ~ prior, x symbol ~ x_channel[s], y symbol
    ~ y_channel[s]; its frames are one-hot(x) repeated frames_per_side
    times, `gap` zero frames, then one-hot(y) repeated. Gaussian jitter of
    scale jitter_sigma lands on the one-hot frames only. Every frame of the
    window carries its latent class as its gold code: the rank of
    `latent_label(s)` in `spec.labels` (names sort as strings, so k10
    comes before k2).

    joint_table[a, b] = sum_s prior[s] * x_channel[s, a] * y_channel[s, b].
    """
    rng = stream_rng(spec.seed, TAG_SYNTH)
    k = spec.num_latent
    a = spec.alphabet_size
    fps = spec.frames_per_side
    total = spec.window_total
    eye = np.eye(a, dtype=np.float64)
    codes = [spec.labels.index(latent_label(s)) for s in range(k)]

    utterances = []
    width = max(4, len(str(spec.num_utterances - 1)))
    for i in range(spec.num_utterances):
        frames = np.zeros((spec.windows_per_utterance * total, a), dtype=np.float64)
        gold = np.empty(spec.windows_per_utterance * total, np.int32)
        for w in range(spec.windows_per_utterance):
            s = int(rng.choice(k, p=spec.latent_prior))
            x_sym = int(rng.choice(a, p=spec.x_channel[s]))
            y_sym = int(rng.choice(a, p=spec.y_channel[s]))
            base = w * total
            frames[base : base + fps] = eye[x_sym]
            frames[base + fps + spec.gap : base + total] = eye[y_sym]
            if spec.jitter_sigma > 0:
                frames[base : base + fps] += rng.normal(0.0, spec.jitter_sigma, (fps, a))
                frames[base + fps + spec.gap : base + total] += rng.normal(
                    0.0, spec.jitter_sigma, (fps, a)
                )
            gold[base : base + total] = codes[s]
        utterances.append(Utterance(f"synth-{i:0{width}d}", frames, gold))

    joint_table = spec.x_channel.T @ (spec.latent_prior[:, None] * spec.y_channel)
    return utterances, joint_table


def true_mi_oracle(joint_table: np.ndarray) -> float:
    """Exact mutual information of a joint symbol table, in bits.

    I = sum_{a,b} p(a,b) * log2(p(a,b) / (p(a) p(b))), zero-probability
    cells contributing zero.
    """
    p = np.asarray(joint_table, dtype=np.float64)
    if np.any(p < 0):
        raise ValueError("joint table entries must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"joint table sums to {p.sum()!r}, not 1 (tolerance 1e-9)")
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    mask = p > 0
    ratio = np.ones_like(p)
    np.divide(p, px * py, out=ratio, where=mask)
    return float(np.sum(p[mask] * np.log2(ratio[mask])))
