"""Training loop: schedule, per-utterance minibatches, symbol death and
cloning, checkpointing, metrics emission.

Each utterance is one minibatch. The learning rate is a step function of
hundreds of utterances processed. A single cloning event copies the
output-layer rows of high-marginal live symbols onto dead slots once the
configured point in the schedule is crossed.

Determinism: utterance order, initialization, and clone noise all come
from named random streams derived from (seed, tag, counters), so a run
can be interrupted at any minibatch, resumed from the checkpoint, and
reproduce the uninterrupted metrics stream byte for byte.
"""

from __future__ import annotations

import json
import logging
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import objective as ob
from .corpus import Utterance, WindowGeometry, normalize_utterance, windows_of
from .model import CONFIRM, PREDICT, EncoderParams
from .numerics import NonFiniteError, Tape, sgd_apply, stream_rng

__all__ = [
    "TrainerError",
    "TrainConfig",
    "TrainState",
    "train",
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


class TrainerError(Exception):
    pass


@dataclass
class TrainConfig:
    """Everything that determines a training run besides the corpus bytes.

    ``lr_schedule`` lists (end, lr) segments over hundreds of utterances
    processed: the first segment applies until `end` hundreds, the next
    from there, and so on; training stops at the last end. ``clone_at``
    is in the same unit.
    """

    geometry: WindowGeometry = field(default_factory=WindowGeometry)
    alphabet_size: int = 64
    hidden_dim: int = 64
    lr_schedule: tuple = DEFAULT_SCHEDULE
    clone_at: int = 216
    dead_threshold: float = 1e-3
    clone_noise_sigma: float = 0.01
    seed: int = 0
    mode: str = "base"  # base | adversarial
    entropy_mode: str = "per_utterance"  # per_utterance | global
    aligned_windows: bool = False  # restrict to generated placements (synthetic corpora)
    entropy_buffer_windows: int = 1024  # global mode: cross-utterance sliding buffer
    detect_sample_utterances: int = 100  # corpus prefix scanned by death detection

    def __post_init__(self):
        self.lr_schedule = tuple((int(end), float(lr)) for end, lr in self.lr_schedule)
        if not self.lr_schedule:
            raise TrainerError("lr_schedule needs at least one segment")
        prev = 0
        for end, lr in self.lr_schedule:
            if end <= prev:
                raise TrainerError("lr_schedule segment ends must increase")
            if lr <= 0:
                raise TrainerError("learning rates must be positive")
            prev = end
        if not 0 <= self.clone_at < self.lr_schedule[-1][0]:
            raise TrainerError("clone_at must fall inside the schedule")
        if self.mode not in ("base", "adversarial"):
            raise TrainerError(f"unknown mode {self.mode!r}")
        if self.entropy_mode not in ("per_utterance", "global"):
            raise TrainerError(f"unknown entropy_mode {self.entropy_mode!r}")
        if self.alphabet_size < 2 or self.hidden_dim < 1:
            raise TrainerError("need alphabet_size >= 2 and hidden_dim >= 1")

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
        return {
            "geometry": {
                "total": self.geometry.total,
                "past": self.geometry.past,
                "gap": self.geometry.gap,
                "future": self.geometry.future,
            },
            "alphabet_size": self.alphabet_size,
            "hidden_dim": self.hidden_dim,
            "lr_schedule": [[end, lr] for end, lr in self.lr_schedule],
            "clone_at": self.clone_at,
            "dead_threshold": self.dead_threshold,
            "clone_noise_sigma": self.clone_noise_sigma,
            "seed": self.seed,
            "mode": self.mode,
            "entropy_mode": self.entropy_mode,
            "aligned_windows": self.aligned_windows,
            "entropy_buffer_windows": self.entropy_buffer_windows,
            "detect_sample_utterances": self.detect_sample_utterances,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrainConfig":
        doc = dict(doc)
        geo = doc.pop("geometry", None)
        geometry = WindowGeometry(**geo) if geo else WindowGeometry()
        schedule = doc.pop("lr_schedule", None)
        kwargs = dict(doc)
        if schedule is not None:
            kwargs["lr_schedule"] = tuple((int(e), float(l)) for e, l in schedule)
        return cls(geometry=geometry, **kwargs)


class TrainState:
    """Mutable training-in-progress record; the checkpoint serializes it."""

    def __init__(self, config: TrainConfig, input_dim: int, dtype=np.float32):
        self.config = config
        self.input_dim = input_dim
        self.ep = EncoderParams(
            input_dim=input_dim,
            alphabet_size=config.alphabet_size,
            hidden_dim=config.hidden_dim,
            seed=config.seed,
            dtype=dtype,
        )
        z = config.alphabet_size
        self.live_mask = np.ones(z, dtype=bool)
        self.epoch = 0
        self.pos_in_epoch = 0
        self.processed = 0
        self.step = 0
        self.cloned = False
        self.clone_history: list[dict] = []
        # per-epoch running max probability per symbol under each model
        self.epoch_max_confirm = np.zeros(z, dtype=np.float32)
        self.epoch_max_predict = np.zeros(z, dtype=np.float32)
        self.epoch_accum = _fresh_accum()
        self.entropy_buffer = np.zeros((0, z), dtype=np.float32)
        self.detect_mean_confirm: Optional[np.ndarray] = None

    def epoch_live_count(self) -> int:
        thr = self.config.dead_threshold
        return int(((self.epoch_max_confirm >= thr) | (self.epoch_max_predict >= thr)).sum())


def _fresh_accum() -> dict:
    return {
        "cross_entropy_bits": 0.0,
        "marginal_entropy_bits": 0.0,
        "mi_bound_bits": 0.0,
        "loss": 0.0,
        "saturation_count": 0,
        "count": 0,
    }


# ---------------------------------------------------------------------------
# window batching


def _usable(corpus: list[Utterance], geometry: WindowGeometry) -> list[Utterance]:
    usable = []
    for u in corpus:
        if u.frames.shape[0] >= geometry.total:
            usable.append(u)
        else:
            log.warning(
                "skipping utterance %s: %d frames < window total %d",
                u.id, u.frames.shape[0], geometry.total,
            )
    return usable


def _utterance_windows(u: Utterance, config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Normalize and cut one utterance into f32 batches (x [N,past,d], y [N,future,d])."""
    pairs = windows_of(normalize_utterance(u), config.geometry)
    if config.aligned_windows:
        pairs = pairs[:: config.geometry.total]
    x = np.stack([p.x for p in pairs]).astype(np.float32)
    y = np.stack([p.y for p in pairs]).astype(np.float32)
    return x, y


# ---------------------------------------------------------------------------
# symbol death and cloning


def detect_dead_symbols(state: TrainState, corpus_sample: list[Utterance]) -> np.ndarray:
    """Fresh forward passes over the sample; a symbol is dead iff its max
    probability stays below dead_threshold under BOTH models.

    Also records the sample-average confirm distribution on the state,
    which clone_symbols uses to rank live symbols by marginal mass. The
    numbers are only meaningful once training has shaped the models
    (normally at least one full epoch); that is a caller obligation, not
    a checked error, so constructed states can be probed directly.
    """
    usable = _usable(corpus_sample, state.config.geometry)
    if not usable:
        raise TrainerError("corpus sample has no usable utterances")
    z = state.config.alphabet_size
    max_confirm = np.zeros(z, dtype=np.float64)
    max_predict = np.zeros(z, dtype=np.float64)
    mean_confirm = np.zeros(z, dtype=np.float64)
    total_windows = 0
    for u in usable:
        x, y = _utterance_windows(u, state.config)
        confirm = state.ep.encode_node(CONFIRM, y).value.astype(np.float64)
        predict = state.ep.encode_node(PREDICT, x).value.astype(np.float64)
        max_confirm = np.maximum(max_confirm, confirm.max(axis=0))
        max_predict = np.maximum(max_predict, predict.max(axis=0))
        mean_confirm += confirm.sum(axis=0)
        total_windows += confirm.shape[0]
    thr = state.config.dead_threshold
    live = (max_confirm >= thr) | (max_predict >= thr)
    state.live_mask = live
    state.detect_mean_confirm = mean_confirm / total_windows
    return live


def clone_symbols(state: TrainState) -> TrainState:
    """Copy output rows of top-marginal live symbols onto dead slots.

    Pairs live symbols (descending sample-average marginal, index as tie
    break) with dead slots (ascending index), copying the output-layer row
    and bias in both encoders plus the marginal logit, then perturbing the
    copies with Gaussian noise of scale clone_noise_sigma. With zero noise
    each pair splits its probability mass exactly in half.
    """
    if state.detect_mean_confirm is None:
        raise TrainerError("run detect_dead_symbols before cloning")
    dead = np.flatnonzero(~state.live_mask)
    live = np.flatnonzero(state.live_mask)
    if dead.size == 0:
        log.warning("clone requested but no symbols are dead; skipping")
        return state
    marginal = state.detect_mean_confirm
    # stable sort on index then reorder by descending marginal keeps the
    # index tie-break deterministic
    live_ranked = live[np.argsort(-marginal[live], kind="stable")]
    n_pairs = min(dead.size, live_ranked.size)
    pairs = [(int(live_ranked[i]), int(dead[i])) for i in range(n_pairs)]

    store = state.ep.store
    targets = [
        store[f"{CONFIRM}.out.w"].value,
        store[f"{CONFIRM}.out.b"].value,
        store[f"{PREDICT}.out.w"].value,
        store[f"{PREDICT}.out.b"].value,
        store["marginal.logits"].value,
    ]
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
    for _, dst in pairs:
        state.live_mask[dst] = True
    state.clone_history.append(
        {
            "processed": state.processed,
            "step": state.step,
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
    arrays = [(name, param.value) for name, param in state.ep.store.items()]
    arrays.append(("epoch_max_confirm", state.epoch_max_confirm))
    arrays.append(("epoch_max_predict", state.epoch_max_predict))
    arrays.append(("entropy_buffer", state.entropy_buffer))
    if state.detect_mean_confirm is not None:
        arrays.append(("detect_mean_confirm", state.detect_mean_confirm.astype(np.float32)))
    return arrays


def save_checkpoint(state: TrainState, path: Path) -> None:
    """ITCK container: magic, version, JSON header, f32 arrays, CRC32."""
    arrays = _state_arrays(state)
    header = {
        "config": state.config.to_json_dict(),
        "input_dim": state.input_dim,
        "counters": {
            "epoch": state.epoch,
            "pos_in_epoch": state.pos_in_epoch,
            "processed": state.processed,
            "step": state.step,
            "cloned": state.cloned,
        },
        "epoch_accum": state.epoch_accum,
        "live_mask": [int(b) for b in state.live_mask],
        "clone_history": state.clone_history,
        "rng": {"scheme": "streams derived from (seed, tag, counters)", "seed": state.config.seed},
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(bytes(body))


def load_checkpoint(path: Path) -> TrainState:
    """Read an ITCK file; any file this program did not write raises TrainerError."""
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
        config = TrainConfig.from_json_dict(header["config"])
        state = TrainState(config, input_dim=int(header["input_dim"]))
        table = [
            (str(entry["name"]), tuple(int(n) for n in entry["shape"]))
            for entry in header["arrays"]
        ]
        counters = header["counters"]
        state.epoch = int(counters["epoch"])
        state.pos_in_epoch = int(counters["pos_in_epoch"])
        state.processed = int(counters["processed"])
        state.step = int(counters["step"])
        state.cloned = bool(counters["cloned"])
        state.epoch_accum = {
            key: (int(value) if key in ("saturation_count", "count") else float(value))
            for key, value in header["epoch_accum"].items()
        }
        state.live_mask = np.asarray(header["live_mask"], dtype=bool)
        state.clone_history = header["clone_history"]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise TrainerError(f"checkpoint header is malformed: {path}: {exc!r}") from None
    z = config.alphabet_size
    if state.live_mask.shape != (z,):
        raise TrainerError(f"checkpoint live_mask has {state.live_mask.size} entries, expected {z}")

    # every array but the entropy buffer, whose row count varies, has one shape
    expected = {name: param.value.shape for name, param in state.ep.store.items()}
    expected.update(epoch_max_confirm=(z,), epoch_max_predict=(z,), detect_mean_confirm=(z,))
    offset, end = 12 + int(header_len), len(raw) - 4
    loaded: dict[str, np.ndarray] = {}
    for name, shape in table:
        if name == "entropy_buffer":
            ok, want = len(shape) == 2 and shape[0] >= 0 and shape[1] == z, f"[rows, {z}]"
        elif name in expected:
            ok, want = shape == expected[name], list(expected[name])
        else:
            raise TrainerError(f"checkpoint has an unknown array {name}: {path}")
        if not ok:
            raise TrainerError(f"checkpoint array {name} has shape {list(shape)}, expected {want}")
        count = int(np.prod(shape))
        if offset + 4 * count > end:
            raise TrainerError(f"checkpoint array {name} runs past the end of the file: {path}")
        arr = np.frombuffer(raw[offset : offset + 4 * count], dtype="<f4")
        loaded[name] = arr.reshape(shape).copy()
        offset += 4 * count
    if offset != end:
        raise TrainerError(f"checkpoint has {end - offset} bytes after its last array: {path}")
    required = [*state.ep.store.names(), "epoch_max_confirm", "epoch_max_predict", "entropy_buffer"]
    for name in required:
        if name not in loaded:
            raise TrainerError(f"checkpoint missing array {name}")

    for name, param in state.ep.store.items():
        param.value[...] = loaded[name]
    state.epoch_max_confirm = loaded["epoch_max_confirm"]
    state.epoch_max_predict = loaded["epoch_max_predict"]
    state.entropy_buffer = loaded["entropy_buffer"]
    if "detect_mean_confirm" in loaded:
        state.detect_mean_confirm = loaded["detect_mean_confirm"].astype(np.float64)
    return state


# ---------------------------------------------------------------------------
# evaluation on a held-out corpus (used for per-epoch dev metrics)


def evaluate_on_corpus(state: TrainState, corpus: list[Utterance]) -> dict:
    """Deterministic held-out metrics under the current parameters.

    Cross entropy, batch-mean entropy, and the bound are computed per
    utterance (matching the per-utterance objective) and averaged; output
    entropies and the argmax agreement rate are averaged over windows.
    """
    usable = _usable(corpus, state.config.geometry)
    if not usable:
        raise TrainerError("evaluation corpus has no usable utterances")
    ce_vals, me_vals, mi_vals = [], [], []
    entropy_sums = {CONFIRM: 0.0, PREDICT: 0.0}
    agree = 0
    total_windows = 0
    for u in usable:
        x, y = _utterance_windows(u, state.config)
        confirm = state.ep.encode_node(CONFIRM, y).value.astype(np.float64)
        predict = state.ep.encode_node(PREDICT, x).value.astype(np.float64)
        _, terms = ob.utterance_loss(confirm, predict)
        ce_vals.append(terms.cross_entropy_bits)
        me_vals.append(terms.marginal_entropy_bits)
        mi_vals.append(terms.mi_bound_bits)
        for side, probs in ((CONFIRM, confirm), (PREDICT, predict)):
            clipped = np.clip(probs, 1e-30, None)
            entropy_sums[side] += float(
                -(np.where(probs > 0, probs * np.log2(clipped), 0.0)).sum()
            )
        agree += int((confirm.argmax(axis=1) == predict.argmax(axis=1)).sum())
        total_windows += confirm.shape[0]
    return {
        "dev_cross_entropy_bits": float(np.mean(ce_vals)),
        "dev_marginal_entropy_bits": float(np.mean(me_vals)),
        "dev_mi_bound_bits": float(np.mean(mi_vals)),
        "dev_mean_entropy_psi_bits": entropy_sums[CONFIRM] / total_windows,
        "dev_mean_entropy_phi_bits": entropy_sums[PREDICT] / total_windows,
        "dev_agreement": agree / total_windows,
        "dev_utterances": len(usable),
    }


# ---------------------------------------------------------------------------
# the loop


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    return stream_rng(seed, TAG_SHUFFLE, epoch).permutation(n)


class _MetricsWriter:
    """The metrics stream: one JSON line per record, flushed as it is written.

    A fresh run starts the file empty. A resumed run keeps the lines the
    file already holds up to the checkpoint's step and appends after them,
    so resuming into the interrupted run's directory leaves the same bytes
    as the uninterrupted run.
    """

    def __init__(self, path: Optional[Path], resume_step: Optional[int] = None):
        self.records: list[dict] = []
        self._fh = None
        if path:
            if resume_step is not None and os.path.exists(path):
                os.truncate(path, _stream_length_through(path, resume_step))
            self._fh = open(path, "w" if resume_step is None else "a", encoding="utf-8")

    def emit(self, record: dict) -> None:
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


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


def _train_minibatch(state: TrainState, x: np.ndarray, y: np.ndarray, lr: float) -> ob.ObjectiveTerms:
    config = state.config
    tape = Tape()
    confirm = state.ep.encode_node(CONFIRM, y, tape)
    predict = state.ep.encode_node(PREDICT, x, tape)
    extra = None
    if config.entropy_mode == "global" and state.entropy_buffer.shape[0] > 0:
        extra = state.entropy_buffer
    if config.mode == "base":
        loss, terms = ob.utterance_loss(confirm, predict, tape, extra_entropy_rows=extra)
        tape.backward(loss)
        sgd_apply(state.ep.store, lr)
    else:
        marginal = state.ep.marginal_node(tape)
        encoder_loss, _, terms = ob.adversarial_loss(confirm, predict, marginal, tape)
        tape.backward(encoder_loss)
        sgd_apply(state.ep.store, lr)
        # alternate: refresh the confirm pass (gradient-free, it only
        # supplies frozen targets), then step the marginal alone
        confirm2 = state.ep.encode_node(CONFIRM, y)
        tape2 = Tape()
        marginal_loss = ob.marginal_fit_loss(confirm2, state.ep.marginal_node(tape2), tape2)
        tape2.backward(marginal_loss)
        sgd_apply(state.ep.store, lr)

    probs_confirm = confirm.value
    probs_predict = predict.value
    state.epoch_max_confirm = np.maximum(state.epoch_max_confirm, probs_confirm.max(axis=0))
    state.epoch_max_predict = np.maximum(state.epoch_max_predict, probs_predict.max(axis=0))
    if config.entropy_mode == "global":
        state.entropy_buffer = np.concatenate([state.entropy_buffer, probs_confirm])[
            -config.entropy_buffer_windows :
        ]
    return terms


def train(
    corpus: list[Utterance],
    config: TrainConfig,
    dev_corpus: Optional[list[Utterance]] = None,
    metrics_path: Optional[Path] = None,
    checkpoint_dir: Optional[Path] = None,
    resume: Optional[TrainState] = None,
    stop_after: Optional[int] = None,
) -> tuple[TrainState, list[dict]]:
    """Run the schedule (or resume inside it); returns final state + records.

    ``stop_after`` pauses once that many utterances have been processed in
    total, saving `interrupted.itck` when a checkpoint directory is given;
    resuming from it reproduces the uninterrupted run's remaining metrics
    exactly. When resuming into an existing ``metrics_path``, the file is
    cut back to the checkpoint's step and continued. A NaN or infinity met
    on the way raises TrainerError naming the step and the utterance.
    """
    usable = _usable(corpus, config.geometry)
    if not usable:
        raise TrainerError("no usable utterances (all shorter than one window)")
    if resume is not None:
        state = resume
        if state.config.to_json_dict() != config.to_json_dict():
            raise TrainerError("resume checkpoint was trained under a different config")
    else:
        state = TrainState(config, input_dim=usable[0].frames.shape[1])
    for u in usable:
        if u.frames.shape[1] != state.input_dim:
            raise TrainerError(f"utterance {u.id!r} has dimension {u.frames.shape[1]}, "
                               f"expected {state.input_dim}")

    batches = [_utterance_windows(u, config) for u in usable]
    writer = _MetricsWriter(metrics_path, resume_step=state.step if resume is not None else None)
    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
    budget = config.budget_utterances
    stopped = False
    where = f"step {state.step}"

    try:
        while state.processed < budget and not stopped:
            order = _epoch_order(config.seed, state.epoch, len(usable))
            if state.pos_in_epoch == 0:
                state.epoch_max_confirm[...] = 0
                state.epoch_max_predict[...] = 0
                state.epoch_accum = _fresh_accum()
            for idx in order[state.pos_in_epoch :]:
                x, y = batches[idx]
                lr = config.lr_at(state.processed)
                where = f"step {state.step + 1} (utterance {usable[idx].id!r}, lr {lr:g})"
                terms = _train_minibatch(state, x, y, lr)
                state.pos_in_epoch += 1
                state.processed += 1
                state.step += 1
                record = {
                    "type": "minibatch",
                    "utterance_id": usable[idx].id,
                    "step": state.step,
                    "lr": lr,
                    "cross_entropy_bits": terms.cross_entropy_bits,
                    "marginal_entropy_bits": terms.marginal_entropy_bits,
                    "mi_bound_bits": terms.mi_bound_bits,
                    "saturation_count": terms.saturation_count,
                }
                if terms.adversarial_marginal_bits is not None:
                    record["adversarial_marginal_bits"] = terms.adversarial_marginal_bits
                writer.emit(record)
                accum = state.epoch_accum
                accum["cross_entropy_bits"] += terms.cross_entropy_bits
                accum["marginal_entropy_bits"] += terms.marginal_entropy_bits
                accum["mi_bound_bits"] += terms.mi_bound_bits
                accum["loss"] += terms.loss
                accum["saturation_count"] += terms.saturation_count
                accum["count"] += 1

                if not state.cloned and state.processed >= config.clone_at * 100:
                    sample = usable[: config.detect_sample_utterances]
                    detect_dead_symbols(state, sample)
                    clone_symbols(state)
                    state.cloned = True
                    event = state.clone_history[-1] if state.clone_history else None
                    writer.emit(
                        {
                            "type": "clone",
                            "step": state.step,
                            "processed": state.processed,
                            "dead_before": event["dead_before"] if event else 0,
                            "live_before": event["live_before"] if event else config.alphabet_size,
                            "pairs": event["pairs"] if event else [],
                            "sigma": config.clone_noise_sigma,
                        }
                    )
                if state.processed >= budget:
                    break
                if stop_after is not None and state.processed >= stop_after:
                    stopped = True
                    break

            epoch_done = state.pos_in_epoch == len(usable)
            if epoch_done or state.processed >= budget:
                record = {
                    "type": "epoch",
                    "epoch": state.epoch,
                    "utterances": state.epoch_accum["count"],
                    "lr": config.lr_at(state.processed - 1),
                    "live_symbols": state.epoch_live_count(),
                    "saturation_total": state.epoch_accum["saturation_count"],
                }
                n = max(1, state.epoch_accum["count"])
                for key in ("cross_entropy_bits", "marginal_entropy_bits", "mi_bound_bits", "loss"):
                    record[f"mean_{key}"] = state.epoch_accum[key] / n
                if dev_corpus is not None:
                    record.update(evaluate_on_corpus(state, dev_corpus))
                writer.emit(record)
                completed_epoch = state.epoch
                if epoch_done:
                    state.epoch += 1
                    state.pos_in_epoch = 0
                if checkpoint_dir is not None:
                    save_checkpoint(state, checkpoint_dir / f"epoch_{completed_epoch:04d}.itck")
        if stopped and checkpoint_dir is not None:
            save_checkpoint(state, checkpoint_dir / "interrupted.itck")
        if not stopped and checkpoint_dir is not None:
            save_checkpoint(state, checkpoint_dir / "final.itck")
    except NonFiniteError as exc:
        # a dev or clone pass that fails runs on the parameters `where` wrote
        raise TrainerError(f"training hit a non-finite value at {where}: {exc}") from None
    finally:
        writer.close()
    return state, writer.records
