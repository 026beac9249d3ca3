"""Training loop: schedule, per-utterance minibatches, symbol death and
cloning, checkpointing, metrics emission.

Each utterance is one minibatch: the (y, x) pair of its windows, which
`window_pairs` cuts once per run (a run of one) as read-only views of the
utterance's one normalized copy (so a run holds one copy of its corpus,
however many windows it has), passed whole to one taped ``encode_node(
SIDES, (y, x), tape)`` call: both sides' probabilities as one [2, N, Z].
The learning rate is a step function of hundreds of utterances processed.
A single cloning event copies the output-layer rows of high-marginal live
symbols onto dead slots once the configured point in the schedule is
crossed. Death detection and dev evaluation read the untaped
`evaluation.reduce_corpus` pass; training minibatches are the only other
place the encoders run. Each fact is held once: the metrics stream is
the only copy of the records, and the state's `processed` count is also
the step number of its minibatch records.

Determinism: utterance order, initialization, and clone noise all come
from named random streams derived from (seed, tag, counters), so a run
can be interrupted at any minibatch, resumed from the checkpoint, and
reproduce the uninterrupted metrics stream byte for byte. A run has one
start, `check_inputs`, which gives the state it continues from, and one
loop, one step per pass, which ends at the budget, at ``stop_after``, or
after the step in progress when SIGINT or SIGTERM arrives.
"""

from __future__ import annotations

import json
import logging
import math
import os
import signal
import threading
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import objective as ob
from .corpus import (
    Utterance, WindowGeometry, check_fields, fits, from_json_fields, replace_file, rule,
    window_count, window_pairs,
)
from .evaluation import reduce_corpus
from .model import SIDES, EncoderParams, param_shapes
from .numerics import NonFiniteError, Tape, sgd_apply, stream_rng

__all__ = [
    "TrainerError",
    "Interrupted",
    "TrainConfig",
    "TrainState",
    "train",
    "check_inputs",
    "detect_dead_symbols",
    "clone_symbols",
    "save_checkpoint",
    "load_checkpoint",
    "evaluate_on_corpus",
]

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"ITCK"
CHECKPOINT_VERSION = 1

TAG_SHUFFLE = 202
TAG_CLONE = 303

DEFAULT_SCHEDULE = ((432, 0.4), (540, 0.2), (900, 0.1), (1080, 0.05))

# objective terms each epoch record averages over its minibatches
MEAN_TERMS = ("cross_entropy_bits", "marginal_entropy_bits", "mi_bound_bits", "loss")


class TrainerError(Exception):
    pass


class Interrupted(Exception):
    """SIGINT or SIGTERM stopped `train` after a step, whose state is saved
    as ``interrupted.itck`` when a checkpoint directory is given."""

    def __init__(self, signum: int, step: int):
        super().__init__(f"interrupted by {signal.Signals(signum).name} after step {step}")
        self.signum = signum


@dataclass
class TrainConfig:
    """Everything that determines a training run besides the corpus bytes.

    ``lr_schedule`` lists (end, lr) segments over hundreds of utterances
    processed: the first segment applies until `end` hundreds, the next
    from there, and so on; training stops at the last end. ``clone_at``
    is in the same unit.
    """

    geometry: WindowGeometry = field(default_factory=WindowGeometry)
    alphabet_size: int = rule(int, 2, default=64)
    hidden_dim: int = rule(int, 1, default=64)
    lr_schedule: tuple = DEFAULT_SCHEDULE
    clone_at: int = rule(int, 0, default=216)
    dead_threshold: float = rule(float, 0, 1, default=1e-3)
    clone_noise_sigma: float = rule(float, 0, default=0.01)
    seed: int = rule(int, 0, default=0)
    entropy_mode: str = rule(str, choices=("per_utterance", "global"), default="per_utterance")
    aligned_windows: bool = rule(bool, default=False)  # only generated placements (synthetic)
    # global mode: the latest confirm rows, whose mean is the fixed reference
    entropy_buffer_windows: int = rule(int, 1, default=1024)
    detect_sample_utterances: int = rule(int, 1, default=100)  # prefix scanned by death detection

    def __post_init__(self):
        check_fields(self, TrainerError)
        segments = self.lr_schedule if isinstance(self.lr_schedule, (list, tuple)) else [None]
        if not segments or not all(isinstance(s, (list, tuple)) and len(s) == 2 for s in segments):
            raise TrainerError(f"lr_schedule must list [end, lr] pairs, got {self.lr_schedule!r}")
        prev = 0
        for end, lr in self.lr_schedule:
            if not (fits(end, int, prev + 1) and fits(lr, float) and lr > 0):
                raise TrainerError(
                    f"lr_schedule segment [{end!r}, {lr!r}] needs an int end above {prev} "
                    f"and a finite lr > 0"
                )
            prev = end
        self.lr_schedule = tuple((end, float(lr)) for end, lr in self.lr_schedule)
        if self.clone_at >= self.lr_schedule[-1][0]:
            raise TrainerError("clone_at must fall inside the schedule")

    @property
    def budget_utterances(self) -> int:
        return self.lr_schedule[-1][0] * 100

    def lr_at(self, processed: int) -> float:
        hundreds = processed // 100
        for end, lr in self.lr_schedule:
            if hundreds < end:
                return lr
        return self.lr_schedule[-1][1]

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        doc["lr_schedule"] = [list(segment) for segment in self.lr_schedule]
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrainConfig":
        geometry = doc.get("geometry", {})  # only an absent key means the default geometry
        geometry = from_json_fields(WindowGeometry, geometry, TrainerError, "geometry")
        return from_json_fields(cls, {**doc, "geometry": geometry}, TrainerError)


class TrainState:
    """Mutable training-in-progress record; the checkpoint serializes it.

    `epoch_max` [2, Z] holds the epoch's running max probability of each
    symbol under each model, confirm first; the checkpoint stores its rows
    as ``epoch_max_confirm`` and ``epoch_max_predict``. `epoch_accum` sums
    the objective terms of the epoch's first `pos_in_epoch` minibatches.
    """

    def __init__(self, config: TrainConfig, ep: EncoderParams, corpus_hash=None):
        self.config = config
        self.ep = ep
        z = config.alphabet_size
        self.live_mask = np.ones(z, dtype=bool)
        self.epoch = 0
        self.pos_in_epoch = 0
        self.processed = 0  # also the step number of the last minibatch
        self.clone_history: list[dict] = []
        self.epoch_max = np.zeros((len(SIDES), z), dtype=np.float32)
        self.epoch_accum = _fresh_accum()
        self.entropy_buffer = np.zeros((0, z), dtype=np.float32)
        self.corpus_hash = corpus_hash  # of the corpus the run trains on

    @classmethod
    def fresh(cls, config: TrainConfig, input_dim: int, corpus_hash=None, dtype=np.float32):
        """The state a new run starts from: a freshly drawn model."""
        ep = EncoderParams.fresh(
            input_dim, config.alphabet_size, config.hidden_dim, config.seed, dtype
        )
        return cls(config, ep, corpus_hash)

    def live(self, maxima: np.ndarray) -> np.ndarray:
        """A symbol is live iff its max probability in `maxima` [2, Z]
        reaches dead_threshold under either model."""
        return (maxima >= self.config.dead_threshold).any(axis=0)


def _fresh_accum() -> dict:
    return {**dict.fromkeys(MEAN_TERMS, 0.0), "saturation_count": 0}


# ---------------------------------------------------------------------------
# usable utterances


def _usable(corpus: list[Utterance], config: TrainConfig) -> list[Utterance]:
    usable = []
    for u in corpus:
        if window_count(u.frames.shape[0], config.geometry, config.aligned_windows) > 0:
            usable.append(u)
        else:
            log.warning(
                "skipping utterance %s: %d frames < window total %d",
                u.id, u.frames.shape[0], config.geometry.total,
            )
    return usable


def check_inputs(
    corpus: list[Utterance],
    config: TrainConfig,
    dev_corpus: Optional[list[Utterance]] = None,
    resume: Optional[TrainState] = None,
    corpus_hash: Optional[str] = None,
) -> tuple[TrainState, list[Utterance], Optional[list[Utterance]]]:
    """The state a run continues from, and the usable utterances of the
    training and the dev corpus, once they can train `config`. The state is
    `resume`, or a fresh `TrainState` at step 0 carrying `corpus_hash`,
    allocated once every check below has passed.

    Raises TrainerError when either corpus has no usable utterance, or when
    a usable utterance's feature dimension is not the run's or its frames
    are all zero (its normalization scale is undefined). With `resume`,
    the run's dimension is the checkpoint's, and the checkpoint must carry
    the same config and corpus hash and must have stopped inside an epoch
    of the usable utterances.
    """
    usable = _usable(corpus, config)
    if not usable:
        raise TrainerError("no usable utterances (all shorter than one window)")
    if dev_corpus is not None:
        dev_corpus = _usable(dev_corpus, config)
        if not dev_corpus:
            raise TrainerError("dev corpus has no usable utterances (all shorter than one window)")
    input_dim = usable[0].frames.shape[1]
    if resume is not None:
        if resume.config.to_json_dict() != config.to_json_dict():
            raise TrainerError("resume checkpoint was trained under a different config")
        if resume.corpus_hash != corpus_hash:
            raise TrainerError(
                f"resume checkpoint was trained on corpus {resume.corpus_hash}, "
                f"not on this corpus {corpus_hash}"
            )
        if resume.pos_in_epoch >= len(usable):
            raise TrainerError(
                f"resume checkpoint stopped {resume.pos_in_epoch} utterances into an epoch "
                f"of a corpus with only {len(usable)} usable utterances"
            )
        input_dim = resume.ep.input_dim
    for role, utterances in (("utterance", usable), ("dev utterance", dev_corpus or [])):
        for u in utterances:
            if u.frames.shape[1] != input_dim:
                raise TrainerError(f"{role} {u.id!r} has dimension {u.frames.shape[1]}, "
                                   f"expected {input_dim}")
            if not u.frames.any():
                raise TrainerError(f"{role} {u.id!r} has all-zero frames, so its "
                                   f"normalization scale is undefined")
    state = resume if resume is not None else TrainState.fresh(config, input_dim, corpus_hash)
    return state, usable, dev_corpus


# ---------------------------------------------------------------------------
# symbol death and cloning


def detect_dead_symbols(state: TrainState, sample: list[Utterance]) -> tuple[np.ndarray, np.ndarray]:
    """(live [Z] bool, marginal [Z]) from fresh forward passes over the
    sample, leaving the state alone: a symbol is live iff it is
    `TrainState.live` on the sample's per-symbol maxima, and `marginal`,
    the sample-average confirm distribution, ranks the live symbols for
    `clone_symbols`. The numbers are only meaningful once training has
    shaped the models (normally at least one full epoch); that is a caller
    obligation, not a checked error, so constructed states can be probed.
    """
    config = state.config
    reduction = reduce_corpus(state.ep, sample, config.geometry, config.aligned_windows)
    return state.live(reduction.maxima), reduction.mean()[0]


def clone_symbols(state: TrainState, live_mask: np.ndarray, marginal: np.ndarray) -> TrainState:
    """Copy output rows of top-marginal live symbols onto dead slots.

    `live_mask` and `marginal` are what `detect_dead_symbols` returns.
    Pairs live symbols (descending `marginal`, index as tie break) with
    dead slots (ascending index), copying the output-layer row and bias in
    both encoders, then perturbing the copies with
    Gaussian noise of scale clone_noise_sigma. With zero noise each pair
    splits its probability mass exactly in half. The state's live mask
    becomes `live_mask` with the filled slots live. Every call appends its
    event to `clone_history`, with no pairs when no symbol is dead.
    """
    dead = np.flatnonzero(~live_mask)
    live = np.flatnonzero(live_mask)
    if dead.size == 0:
        log.warning("clone requested but no symbols are dead; copying nothing")
    # stable sort on index then reorder by descending marginal keeps the
    # index tie-break deterministic
    live_ranked = live[np.argsort(-marginal[live], kind="stable")]
    n_pairs = min(dead.size, live_ranked.size)
    pairs = [(int(live_ranked[i]), int(dead[i])) for i in range(n_pairs)]

    arrays = state.ep.named_arrays()
    targets = [arrays[f"{side}.out.{key}"] for side in SIDES for key in "wb"]
    for src, dst in pairs:
        for arr in targets:
            arr[dst] = arr[src]
    sigma = state.config.clone_noise_sigma
    if sigma > 0:
        rng = stream_rng(state.config.seed, TAG_CLONE, len(state.clone_history))
        for _, dst in pairs:
            for arr in targets:
                noise = rng.normal(0.0, sigma, size=np.shape(arr[dst]))
                arr[dst] = arr[dst] + noise.astype(arr.dtype)
    state.live_mask = np.array(live_mask, dtype=bool)
    state.live_mask[[dst for _, dst in pairs]] = True
    state.clone_history.append(
        {
            "step": state.processed,
            "dead_before": int(dead.size),
            "live_before": int(live.size),
            "pairs": pairs,
            "sigma": sigma,
        }
    )
    return state


# ---------------------------------------------------------------------------
# checkpoints


def _state_arrays(state: TrainState) -> list[tuple[str, np.ndarray]]:
    arrays = list(state.ep.named_arrays().items())
    arrays += [(f"epoch_max_{side}", row) for side, row in zip(SIDES, state.epoch_max)]
    arrays.append(("entropy_buffer", state.entropy_buffer))
    return arrays


def save_checkpoint(state: TrainState, path: Path) -> None:
    """ITCK container: magic, version, JSON header, f32 arrays, CRC32,
    written through `replace_file`."""
    arrays = _state_arrays(state)
    header = {
        "config": state.config.to_json_dict(),
        "input_dim": state.ep.input_dim,
        "counters": {
            "epoch": state.epoch,
            "pos_in_epoch": state.pos_in_epoch,
            "processed": state.processed,
        },
        "epoch_accum": state.epoch_accum,
        "live_mask": [int(b) for b in state.live_mask],
        "clone_history": state.clone_history,
        "corpus_hash": state.corpus_hash,
        "arrays": [
            {"name": name, "shape": list(arr.shape)} for name, arr in arrays
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = bytearray()
    body += CHECKPOINT_MAGIC
    body += np.asarray([CHECKPOINT_VERSION, len(header_bytes)], dtype="<u4").tobytes()
    body += header_bytes
    for _, arr in arrays:
        body += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    body += np.asarray([zlib.crc32(bytes(body))], dtype="<u4").tobytes()
    replace_file(path, bytes(body))


def load_checkpoint(path: Path) -> TrainState:
    """Read an ITCK file; any file this program did not write raises TrainerError.

    Every header field is type-checked, and the array table is checked
    against the config and the payload before any state is allocated, so
    a header that claims a huge model is refused, not allocated. An older
    checkpoint's ``step`` and ``cloned`` counters, ``epoch_accum.count``,
    ``rng`` block, ``detect_mean_confirm`` array and clone events'
    ``processed`` are ignored. An older checkpoint whose config names a
    ``mode`` loads without it and without its ``marginal.logits`` array if
    it trained the objective that remains (``base`` with per-utterance
    entropy), and is refused otherwise.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != CHECKPOINT_MAGIC:
        raise TrainerError(f"not a checkpoint file (bad magic): {path}")
    if zlib.crc32(raw[:-4]) != int(np.frombuffer(raw[-4:], dtype="<u4")[0]):
        raise TrainerError(f"checkpoint checksum mismatch: {path}")
    version, header_len = np.frombuffer(raw[4:12], dtype="<u4")
    if version != CHECKPOINT_VERSION:
        raise TrainerError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(raw[12 : 12 + int(header_len)].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TrainerError(f"checkpoint header is not valid JSON: {path}: {exc}") from None
    try:
        doc = dict(header["config"])
        mode = doc.pop("mode", None)
        config = TrainConfig.from_json_dict(doc)
        input_dim = header["input_dim"]
        counters = {key: header["counters"][key] for key in ("epoch", "pos_in_epoch", "processed")}
        accum = dict(header["epoch_accum"])
        accum.pop("count", None)  # an older checkpoint's copy of pos_in_epoch
        live = header["live_mask"]
        history = header["clone_history"]
        corpus_hash = header.get("corpus_hash")  # absent from older checkpoints
        table = [(entry["name"], entry["shape"]) for entry in header["arrays"]]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise TrainerError(f"checkpoint header is malformed: {path}: {exc!r}") from None
    except TrainerError as exc:  # the config's own checks name the field
        raise TrainerError(f"checkpoint config is invalid: {path}: {exc}") from None
    z, fresh = config.alphabet_size, _fresh_accum()
    valid = {
        "input_dim": fits(input_dim, int, 1),
        "counters": all(fits(v, int, 0) for v in counters.values()),
        "epoch_accum": accum.keys() == fresh.keys()
        and all(fits(value, type(fresh[key])) for key, value in accum.items()),
        "live_mask": isinstance(live, list) and len(live) == z and all(fits(b, int, 0, 1) for b in live),
        "clone_history": isinstance(history, list) and all(isinstance(e, dict) for e in history),
        "corpus_hash": corpus_hash is None or isinstance(corpus_hash, str),
        "arrays": all(
            isinstance(name, str) and isinstance(shape, list) and all(fits(n, int, 0) for n in shape)
            for name, shape in table
        ),
    }
    invalid = [name for name, ok in valid.items() if not ok]
    if invalid:
        raise TrainerError(f"checkpoint header has invalid {', '.join(invalid)}: {path}")
    if mode is not None and (mode, config.entropy_mode) != ("base", "per_utterance"):
        raise TrainerError(
            f"checkpoint was trained under mode {mode!r} with entropy_mode "
            f"{config.entropy_mode!r}, an objective that no longer exists: {path}"
        )

    # every array but the entropy buffer, whose row count varies, has one shape
    expected = dict(param_shapes(input_dim, z, config.hidden_dim))
    required = [*expected, "epoch_max_confirm", "epoch_max_predict", "entropy_buffer"]
    expected.update(epoch_max_confirm=(z,), epoch_max_predict=(z,), detect_mean_confirm=(z,))
    expected["marginal.logits"] = (z,)  # an older checkpoint's fitted marginal, ignored
    offset, end = 12 + int(header_len), len(raw) - 4
    loaded: dict[str, np.ndarray] = {}
    for name, shape in table:
        shape = tuple(shape)
        if name == "entropy_buffer":
            ok, want = len(shape) == 2 and shape[1] == z, f"[rows, {z}]"
        elif name in expected:
            ok, want = shape == expected[name], list(expected[name])
        else:
            raise TrainerError(f"checkpoint has an unknown array {name}: {path}")
        if not ok:
            raise TrainerError(f"checkpoint array {name} has shape {list(shape)}, expected {want}")
        count = math.prod(shape)
        if offset + 4 * count > end:
            raise TrainerError(f"checkpoint array {name} runs past the end of the file: {path}")
        arr = np.frombuffer(raw[offset : offset + 4 * count], dtype="<f4")
        loaded[name] = arr.reshape(shape).copy()
        offset += 4 * count
    if offset != end:
        raise TrainerError(f"checkpoint has {end - offset} bytes after its last array: {path}")
    for name in required:
        if name not in loaded:
            raise TrainerError(f"checkpoint missing array {name}")

    state = TrainState(config, EncoderParams(loaded), corpus_hash)
    for key, value in counters.items():
        setattr(state, key, value)
    state.epoch_accum = accum
    state.live_mask = np.asarray(live, dtype=bool)
    # an older checkpoint's clone events also hold `processed`, a copy of `step`
    state.clone_history = [{k: v for k, v in e.items() if k != "processed"} for e in history]
    state.epoch_max = np.array([loaded[f"epoch_max_{side}"] for side in SIDES])
    state.entropy_buffer = loaded["entropy_buffer"]
    return state


# ---------------------------------------------------------------------------
# evaluation on a held-out corpus (used for per-epoch dev metrics)


def evaluate_on_corpus(state: TrainState, corpus: list[Utterance]) -> dict:
    """Deterministic held-out metrics under the current parameters.

    Cross entropy, batch-mean entropy, and the bound are computed per
    utterance (matching the per-utterance objective) and averaged; output
    entropies and the argmax agreement rate are averaged over windows.
    """
    config = state.config
    reduction = reduce_corpus(state.ep, corpus, config.geometry, config.aligned_windows)
    terms = reduction.terms
    entropy_psi, entropy_phi = reduction.mean_entropy_bits().tolist()
    return {
        "dev_cross_entropy_bits": float(np.mean([t.cross_entropy_bits for t in terms])),
        "dev_marginal_entropy_bits": float(np.mean([t.marginal_entropy_bits for t in terms])),
        "dev_mi_bound_bits": float(np.mean([t.mi_bound_bits for t in terms])),
        "dev_mean_entropy_psi_bits": entropy_psi,
        "dev_mean_entropy_phi_bits": entropy_phi,
        "dev_agreement": reduction.agreement,
        "dev_utterances": len(terms),
    }


# ---------------------------------------------------------------------------
# the loop


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    return stream_rng(seed, TAG_SHUFFLE, epoch).permutation(n)


def _open_stream(path: Optional[Path], step: int):
    """The metrics stream of a run at training step `step` (os.devnull without a path).

    A run at step 0 starts the file empty. A run resumed at a later step
    keeps the lines the file already holds up to that step and appends
    after them, so resuming into the interrupted run's directory leaves the
    same bytes as the uninterrupted run.
    """
    if not path:
        return open(os.devnull, "w")
    if step and os.path.exists(path):
        os.truncate(path, _stream_length_through(path, step))
    return open(path, "a" if step else "w", encoding="utf-8")


def _stream_length_through(path: Path, step: int) -> int:
    """Bytes of the complete lines written through training step `step`.

    A checkpoint is saved after the clone and epoch records of its step, so
    the stream is cut at the first minibatch record past `step`, or at the
    first line that is cut short or is not a record.
    """
    length = 0
    with open(path, "rb") as fh:
        for line in fh:
            try:
                record = json.loads(line)
                past = record["type"] == "minibatch" and record["step"] > step
            except (ValueError, TypeError, KeyError):
                break
            if past or not line.endswith(b"\n"):
                break
            length += len(line)
    return length


def _train_minibatch(state: TrainState, pair: tuple, lr: float) -> ob.ObjectiveTerms:
    """One SGD step on one utterance's (y, x) pair of training windows. In
    the global entropy mode the marginal term scores the confirm side
    against the mean of the buffered earlier confirm rows, held fixed; the
    step's own rows join the buffer after it."""
    config = state.config
    tape = Tape()
    probs = state.ep.encode_node(SIDES, pair, tape)
    buffered = config.entropy_mode == "global" and len(state.entropy_buffer) > 0
    marginal = state.entropy_buffer.mean(axis=0) if buffered else None
    loss, terms = ob.utterance_loss(probs, tape, marginal)
    tape.backward(loss)
    sgd_apply(state.ep.store, lr)

    state.epoch_max = np.maximum(state.epoch_max, probs.value.max(axis=1))
    if config.entropy_mode == "global":
        state.entropy_buffer = np.concatenate([state.entropy_buffer, probs.value[0]])[
            -config.entropy_buffer_windows :
        ]
    return terms


# a diverging run overflows in numpy before the NaN check names its step;
# that error is the report, so numpy's own warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def train(
    corpus: list[Utterance],
    config: TrainConfig,
    dev_corpus: Optional[list[Utterance]] = None,
    metrics_path: Optional[Path] = None,
    checkpoint_dir: Optional[Path] = None,
    resume: Optional[TrainState] = None,
    stop_after: Optional[int] = None,
    corpus_hash: Optional[str] = None,
) -> tuple[TrainState, Optional[dict]]:
    """Run the schedule (or resume inside it); returns the final state and
    the last epoch record this call wrote, or None when it wrote none.

    Every record goes to ``metrics_path`` and none is kept: the file is the
    run's one record. The run continues from ``resume``, or from a fresh
    state carrying ``corpus_hash`` (see `check_inputs`). ``stop_after``
    pauses once that many utterances have been processed in total, saving
    `interrupted.itck` when a checkpoint directory is given; resuming from
    it reproduces the uninterrupted run's remaining metrics exactly. A
    ``stop_after`` at or below the count the run starts from raises
    TrainerError before the metrics file is opened; a resumed run's file is
    cut back to its step (see `_open_stream`). A NaN or infinity, a
    saturated divergence (a minibatch whose bound is below
    -log2(alphabet_size) with cells at the log floor, written to the stream
    first), or a MemoryError raises TrainerError naming the step and the
    utterance.

    On the main thread, SIGINT and SIGTERM are only recorded while the run
    goes: the step in progress finishes (with its epoch record and epoch
    checkpoint if it closes an epoch), `interrupted.itck` is saved as for
    ``stop_after``, and `Interrupted` is raised. A signal that arrives once
    the run has reached its end changes nothing. The previous handlers are
    restored on return.
    """
    state, usable, dev_corpus = check_inputs(corpus, config, dev_corpus, resume, corpus_hash)
    if stop_after is not None and stop_after <= state.processed:
        raise TrainerError(
            f"stop_after {stop_after} does not exceed the {state.processed} "
            f"utterances already processed"
        )

    dtype = state.ep.store.dtype
    cut = (window_pairs([u], config.geometry, config.aligned_windows, dtype)[0] for u in usable)
    batches = [(y[0], x[0]) for y, x in cut]  # each utterance's (y, x) windows [N, L, d]
    stream = _open_stream(metrics_path, state.processed)

    def emit(record: dict) -> None:
        # one JSON line per record, flushed as it is written and not kept
        stream.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        stream.flush()

    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
    budget = config.budget_utterances
    end = budget if stop_after is None else min(budget, stop_after)
    # a bound below this predicts worse than a uniform guess over the alphabet
    uniform_floor = -math.log2(config.alphabet_size)
    where = f"step {state.processed}"
    last_epoch = None
    order = None
    received: list[int] = []
    handlers = {}

    try:
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                handlers[signum] = signal.signal(signum, lambda got, _: received.append(got))
        while state.processed < end and not received:
            if state.pos_in_epoch == 0:
                state.epoch_max[...] = 0
                state.epoch_accum = _fresh_accum()
            if state.pos_in_epoch == 0 or order is None:
                order = _epoch_order(config.seed, state.epoch, len(usable))
            idx = order[state.pos_in_epoch]
            lr = config.lr_at(state.processed)
            where = f"step {state.processed + 1} (utterance {usable[idx].id!r}, lr {lr:g})"
            terms = _train_minibatch(state, batches[idx], lr)
            state.pos_in_epoch += 1
            state.processed += 1
            # every objective term but the loss (the reference's once global mode has one)
            terms_written = {k: v for k, v in vars(terms).items() if k != "loss" and v is not None}
            emit({"type": "minibatch", "utterance_id": usable[idx].id, "step": state.processed,
                  "lr": lr, **terms_written})
            if terms.saturation_count > 0 and terms.mi_bound_bits < uniform_floor:
                raise TrainerError(
                    f"training diverged at {where}: mi_bound_bits {terms.mi_bound_bits:.4f} "
                    f"< {uniform_floor:g} = -log2(alphabet_size) with {terms.saturation_count} "
                    f"cells at the log floor"
                )
            for key in (*MEAN_TERMS, "saturation_count"):
                state.epoch_accum[key] += getattr(terms, key)

            if not state.clone_history and state.processed >= config.clone_at * 100:
                sample = usable[: config.detect_sample_utterances]
                clone_symbols(state, *detect_dead_symbols(state, sample))
                emit({"type": "clone", **state.clone_history[-1]})

            epoch_done = state.pos_in_epoch == len(usable)
            if epoch_done or state.processed >= budget:
                live = state.live(state.epoch_max)
                record = {
                    "type": "epoch",
                    "epoch": state.epoch,
                    "utterances": state.pos_in_epoch,
                    "lr": lr,
                    "live_symbols": int(live.sum()),
                    "saturation_total": state.epoch_accum["saturation_count"],
                }
                for key in MEAN_TERMS:
                    record[f"mean_{key}"] = state.epoch_accum[key] / state.pos_in_epoch
                if dev_corpus is not None:
                    record.update(evaluate_on_corpus(state, dev_corpus))
                emit(record)
                last_epoch = record
                if epoch_done:
                    state.epoch += 1
                    state.pos_in_epoch = 0
                if checkpoint_dir is not None:
                    save_checkpoint(state, checkpoint_dir / f"epoch_{record['epoch']:04d}.itck")
        if checkpoint_dir is not None:
            name = "final.itck" if state.processed >= budget else "interrupted.itck"
            save_checkpoint(state, checkpoint_dir / name)
    except NonFiniteError as exc:
        # a dev or clone pass that fails runs on the parameters `where` wrote
        raise TrainerError(f"training hit a non-finite value at {where}: {exc}") from None
    except MemoryError:
        raise TrainerError(f"training ran out of memory at {where}") from None
    finally:
        stream.close()
        for signum, handler in handlers.items():
            signal.signal(signum, signal.SIG_DFL if handler is None else handler)
    if received and state.processed < end:
        raise Interrupted(received[0], state.processed)
    return state, last_epoch
