"""Training loop behavior: schedule, death/cloning, checkpoints, determinism."""

import dataclasses
import functools
import hashlib
import json
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itco import cli
from itco import numerics as nm
from itco import objective as ob
from itco import trainer as tr
from itco.corpus import SyntheticSpec, Utterance, WindowGeometry, synth_corpus, window_pairs
from itco.evaluation import STACK_WINDOWS
from itco.model import CONFIRM, PREDICT, SIDES, EncoderParams
from runs import read_records


def tiny_corpus(seed=0, n_utts=10, windows=4, k=2):
    spec = SyntheticSpec(
        num_latent=k,
        x_channel=np.eye(k),
        y_channel=np.eye(k),
        latent_prior=np.full(k, 1.0 / k),
        num_utterances=n_utts,
        windows_per_utterance=windows,
        seed=seed,
        frames_per_side=2,
        gap=1,
    )
    utts, _ = synth_corpus(spec)
    return utts, spec


def tiny_config(**overrides):
    base = dict(
        geometry=WindowGeometry(total=5, past=2, gap=1, future=2),
        alphabet_size=8,
        hidden_dim=4,
        lr_schedule=((1, 0.4),),
        clone_at=0,
        seed=0,
        aligned_windows=True,
        detect_sample_utterances=4,
    )
    base.update(overrides)
    return tr.TrainConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_config_defaults_match_reference_schedule():
    config = tr.TrainConfig()
    assert config.lr_schedule == ((432, 0.4), (540, 0.2), (900, 0.1), (1080, 0.05))
    assert config.clone_at == 216
    assert config.alphabet_size == 64
    assert config.hidden_dim == 64
    assert config.dead_threshold == 1e-3
    assert config.clone_noise_sigma == 0.01
    assert config.budget_utterances == 108000


def test_config_lr_is_a_step_function_of_hundreds():
    config = tr.TrainConfig()
    assert config.lr_at(0) == 0.4
    assert config.lr_at(43199) == 0.4
    assert config.lr_at(43200) == 0.2
    assert config.lr_at(53999) == 0.2
    assert config.lr_at(54000) == 0.1
    assert config.lr_at(90000) == 0.05
    assert config.lr_at(107999) == 0.05


def test_config_single_segment_is_constant_lr():
    config = tiny_config(lr_schedule=((3, 0.7),), clone_at=1)
    for processed in (0, 100, 299):
        assert config.lr_at(processed) == 0.7


def test_config_rejects_bad_schedules():
    with pytest.raises(tr.TrainerError):
        tiny_config(lr_schedule=())
    with pytest.raises(tr.TrainerError):
        tiny_config(lr_schedule=((2, 0.4), (2, 0.2)))
    with pytest.raises(tr.TrainerError):
        tiny_config(lr_schedule=((2, 0.0),))
    with pytest.raises(tr.TrainerError):
        tiny_config(lr_schedule=((2, 0.4),), clone_at=2)


@pytest.mark.parametrize(
    "field, value",
    [("seed", -1), ("alphabet_size", 8.0), ("dead_threshold", "x"), ("aligned_windows", 1),
     ("entropy_buffer_windows", 0), ("detect_sample_utterances", 0), ("dead_threshold", 2.0),
     ("clone_noise_sigma", -1.0), ("clone_noise_sigma", float("nan")),
     ("entropy_mode", "windowed"), ("entropy_mode", "per-utterance")],
)
def test_config_rejects_wrong_types_and_ranges(field, value):
    with pytest.raises(tr.TrainerError, match=field):
        tiny_config(**{field: value})


def test_a_choice_field_names_the_values_it_allows():
    with pytest.raises(tr.TrainerError) as refused:
        tiny_config(entropy_mode="per-utterance")
    assert str(refused.value) == "entropy_mode must be one of 'per_utterance', 'global', got 'per-utterance'"


@pytest.mark.parametrize("cls", [WindowGeometry, SyntheticSpec, tr.TrainConfig])
def test_every_scalar_field_declares_a_rule(cls):
    # fields without a rule keep their own cross-field checks
    exempt = {"x_channel", "y_channel", "latent_prior", "lr_schedule", "geometry"}
    undeclared = [f.name for f in dataclasses.fields(cls)
                  if f.name not in exempt and "rule" not in f.metadata]
    assert undeclared == []


def test_config_json_round_trip():
    for config in (tiny_config(), tiny_config(entropy_mode="global")):
        again = tr.TrainConfig.from_json_dict(config.to_json_dict())
        assert again.to_json_dict() == config.to_json_dict()
        assert again.geometry == config.geometry


# ---------------------------------------------------------------------------
# death detection and cloning


def test_forced_negative_logit_is_detected_dead():
    utts, _ = tiny_corpus()
    config = tiny_config()
    state = tr.TrainState.fresh(config, input_dim=2)
    for side in (CONFIRM, PREDICT):
        state.ep.named_arrays()[f"{side}.out.b"][3] = -1000.0
    live, _ = tr.detect_dead_symbols(state, utts[:4])
    assert not live[3]
    assert live.sum() == 7


def test_uniform_models_have_no_dead_symbols():
    utts, _ = tiny_corpus()
    config = tiny_config()
    state = tr.TrainState.fresh(config, input_dim=2)
    for name, param in state.ep.store.items():
        param.value[...] = 0  # uniform outputs: 1/8 each, above 1e-3
    live, _ = tr.detect_dead_symbols(state, utts[:4])
    assert live.all()


def test_dead_needs_both_models_below_threshold():
    utts, _ = tiny_corpus()
    config = tiny_config()
    state = tr.TrainState.fresh(config, input_dim=2)
    state.ep.named_arrays()[f"{CONFIRM}.out.b"][2] = -1000.0  # predict side still lives
    live, _ = tr.detect_dead_symbols(state, utts[:4])
    assert live[2]


def frozen_state_with_dead_slots(z=8, live=(0, 1), dtype=np.float64):
    """f64 state whose non-live symbols carry exactly zero probability."""
    config = tiny_config(alphabet_size=z)
    state = tr.TrainState.fresh(config, input_dim=2, dtype=dtype)
    for side in (CONFIRM, PREDICT):
        bias = state.ep.named_arrays()[f"{side}.out.b"]
        for sym in range(z):
            if sym not in live:
                bias[sym] = -2000.0  # exp underflows to exactly 0 in f64
    return state


def batch_terms(state, utts):
    # every utterance's windows, as one [B * N, L, d] batch a side
    config = state.config
    (y, x), _ = window_pairs(utts, config.geometry, config.aligned_windows, np.float32)
    y, x = (side.reshape(-1, *side.shape[2:]).astype(state.ep.store.dtype) for side in (y, x))
    confirm = state.ep.encode_node(CONFIRM, y).value
    predict = state.ep.encode_node(PREDICT, x).value
    _, terms = ob.utterance_loss(np.stack((confirm, predict)))
    return terms


def test_clone_with_zero_noise_adds_exactly_one_bit_to_both_terms():
    utts, _ = tiny_corpus(n_utts=4)
    state = frozen_state_with_dead_slots()
    state.config.clone_noise_sigma = 0.0
    before = batch_terms(state, utts)
    live, marginal = tr.detect_dead_symbols(state, utts)
    assert live.sum() == 2
    tr.clone_symbols(state, live, marginal)
    after = batch_terms(state, utts)
    assert abs(after.marginal_entropy_bits - before.marginal_entropy_bits - 1.0) < 1e-9
    assert abs(after.cross_entropy_bits - before.cross_entropy_bits - 1.0) < 1e-9
    assert abs(after.mi_bound_bits - before.mi_bound_bits) < 1e-9


def test_clone_pairs_high_marginal_live_symbols_first():
    utts, _ = tiny_corpus(n_utts=4)
    state = frozen_state_with_dead_slots(live=(0, 1))
    state.config.clone_noise_sigma = 0.0
    live, _ = tr.detect_dead_symbols(state, utts)
    # make symbol 1 the heavier live symbol in the sample average
    tr.clone_symbols(state, live, np.array([0.3, 0.7, 0, 0, 0, 0, 0, 0.0]))
    event = state.clone_history[-1]
    assert tuple(event["pairs"][0]) == (1, 2)
    assert tuple(event["pairs"][1]) == (0, 3)
    assert event["dead_before"] == 6
    assert state.live_mask[2] and state.live_mask[3]
    # copies are exact with zero noise
    w = state.ep.named_arrays()[f"{CONFIRM}.out.w"]
    assert np.array_equal(w[2], w[1])
    assert np.array_equal(w[3], w[0])


def test_clone_noise_perturbs_only_the_copies():
    utts, _ = tiny_corpus(n_utts=4)
    state = frozen_state_with_dead_slots()
    state.config.clone_noise_sigma = 0.05
    detected = tr.detect_dead_symbols(state, utts)
    w_before = state.ep.named_arrays()[f"{CONFIRM}.out.w"].copy()
    tr.clone_symbols(state, *detected)
    w_after = state.ep.named_arrays()[f"{CONFIRM}.out.w"]
    (src0, dst0), (src1, dst1) = state.clone_history[-1]["pairs"]
    assert np.array_equal(w_after[src0], w_before[src0])
    assert np.array_equal(w_after[src1], w_before[src1])
    assert not np.array_equal(w_after[dst0], w_before[src0])
    assert np.allclose(w_after[dst0], w_before[src0], atol=0.5)


def test_clone_without_dead_symbols_is_a_noop():
    utts, _ = tiny_corpus()
    config = tiny_config()
    state = tr.TrainState.fresh(config, input_dim=2)
    for _, param in state.ep.store.items():
        param.value[...] = 0
    detected = tr.detect_dead_symbols(state, utts[:4])
    before = {name: array.copy() for name, array in state.ep.named_arrays().items()}
    tr.clone_symbols(state, *detected)
    assert all(np.array_equal(state.ep.named_arrays()[name], array) for name, array in before.items())
    # the event is recorded all the same, and is what the metrics stream emits
    assert state.clone_history == [
        {"step": 0, "dead_before": 0, "live_before": 8, "pairs": [],
         "sigma": config.clone_noise_sigma}
    ]


def test_detection_leaves_the_state_alone():
    # what detection finds reaches the state only through clone_symbols
    utts, _ = tiny_corpus(n_utts=4)
    state = frozen_state_with_dead_slots()
    before = dict(vars(state))
    live, marginal = tr.detect_dead_symbols(state, utts)
    assert live.tolist() == [True, True] + [False] * 6
    assert marginal.shape == (8,) and abs(marginal.sum() - 1.0) < 1e-9
    assert vars(state).keys() == before.keys()
    assert all(vars(state)[key] is value for key, value in before.items())
    assert state.live_mask.all()
    tr.clone_symbols(state, live, marginal)
    assert state.live_mask.sum() == 4 and live.sum() == 2


def test_the_state_holds_each_fact_once():
    # the step is `processed`, a clone happened iff `clone_history` is
    # non-empty, and the input dimension is the encoders'
    state = tr.TrainState.fresh(tiny_config(), input_dim=3)
    assert {"step", "cloned", "input_dim", "detect_mean_confirm"}.isdisjoint(vars(state))
    assert state.ep.input_dim == 3


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    utts, _ = tiny_corpus()
    config = tiny_config(lr_schedule=((1, 0.4),), clone_at=0)
    state, _ = tr.train(utts, config)
    path = tmp_path / "state.itck"
    tr.save_checkpoint(state, path)
    loaded = tr.load_checkpoint(path)
    arrays = loaded.ep.named_arrays()
    for name, array in state.ep.named_arrays().items():
        assert np.array_equal(arrays[name], array), name
    assert loaded.epoch == state.epoch
    assert loaded.pos_in_epoch == state.pos_in_epoch
    assert loaded.processed == state.processed
    assert loaded.ep.input_dim == state.ep.input_dim
    assert np.array_equal(loaded.live_mask, state.live_mask)
    assert loaded.epoch_accum == state.epoch_accum
    assert loaded.clone_history and loaded.clone_history == json.loads(
        json.dumps(state.clone_history)
    )


# SHA-256 of two checkpoints of the tiny config. Neither path runs a matrix
# product, so the bytes are the same on every platform; they pin the init
# draw order, the clone noise order and the per-side array table. The header
# holds each fact once, so it has no `rng` block (the seed is the config's),
# no count of the epoch's minibatches beside `pos_in_epoch`, and no clone
# event's `processed` beside its `step`.
FRESH_CHECKPOINT_SHA256 = "bc4f0110a8dc5f7315b7aaf97cebe1c6df79a7cb1fee69357aca061f89425358"
CLONED_CHECKPOINT_SHA256 = "833b1e9507ddc6a8f1b1ab704bfe5b7ca547458d9a9cad4fa11cbab83261b3f1"


def test_checkpoint_bytes_are_pinned(tmp_path):
    state = tr.TrainState.fresh(tiny_config(clone_noise_sigma=0.05), input_dim=2)
    path = tmp_path / "state.itck"
    tr.save_checkpoint(state, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FRESH_CHECKPOINT_SHA256
    cloned_state(state)
    tr.save_checkpoint(state, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CLONED_CHECKPOINT_SHA256


def cloned_state(state):
    """`state` after the clone of `test_checkpoint_bytes_are_pinned`."""
    live = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=bool)
    return tr.clone_symbols(state, live, np.array([0.1, 0.0, 0.4, 0.2, 0.0, 0.0, 0.3, 0.0]))


# `test_checkpoint_bytes_are_pinned`'s clone case as written before the state
# held each fact once: its header counts `step` and `cloned` besides
# `processed`, and it stores the detection's `detect_mean_confirm` array.
# Its config names the `base` mode, with per-utterance entropy, and it
# stores that mode's unused `marginal.logits` array, as the older
# mid-epoch checkpoint below does too.
LEGACY_CLONED_CHECKPOINT = Path(__file__).parent / "data" / "legacy_cloned.itck"
LEGACY_CLONED_CHECKPOINT_SHA256 = "3e7f9610f603ab535bd6f504b61b4ae16ab399f38e185d657a5e3522c38ce4b7"


def header_of(raw: bytes) -> dict:
    """The JSON header of a checkpoint's bytes."""
    return json.loads(raw[12 : 12 + int(np.frombuffer(raw[8:12], dtype="<u4")[0])])


def test_a_checkpoint_of_the_older_layout_loads_and_resumes_alike(tmp_path):
    raw = LEGACY_CLONED_CHECKPOINT.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == LEGACY_CLONED_CHECKPOINT_SHA256
    header = header_of(raw)
    assert {"step", "cloned"} <= header["counters"].keys()
    assert (header["config"]["mode"], header["config"]["entropy_mode"]) == ("base", "per_utterance")
    names = [entry["name"] for entry in header["arrays"]]
    assert {"detect_mean_confirm", "marginal.logits"} <= set(names)
    legacy = tr.load_checkpoint(LEGACY_CLONED_CHECKPOINT)
    assert legacy.config.to_json_dict() == tiny_config(clone_noise_sigma=0.05).to_json_dict()
    # cloning draws no noise for a marginal logit any more, so pairs after
    # the first get other noise than the older file's: the same clone gives
    # the same event but not the same arrays
    current = cloned_state(tr.TrainState.fresh(tiny_config(clone_noise_sigma=0.05), input_dim=2))
    assert json.loads(json.dumps(current.clone_history)) == legacy.clone_history
    # the older state and that state saved again in the current layout,
    # which drops the two arrays, resume to the same stream, without a
    # second clone
    tr.save_checkpoint(legacy, tmp_path / "current.itck")
    resaved = tr.load_checkpoint(tmp_path / "current.itck")
    assert not {"detect_mean_confirm", "marginal.logits"} & {
        entry["name"] for entry in header_of((tmp_path / "current.itck").read_bytes())["arrays"]
    }
    utts, _ = tiny_corpus(n_utts=4)
    streams = []
    for name, state in (("legacy", legacy), ("current", resaved)):
        metrics = tmp_path / f"{name}.jsonl"
        tr.train(utts, state.config, metrics_path=metrics, resume=state)
        streams.append(metrics.read_bytes())
    assert streams[0] == streams[1]
    assert b'"type":"clone"' not in streams[0] and streams[0].count(b"\n") == 100 + 25


# the tiny config's run on `tiny_corpus()` stopped at step 37, 7 utterances
# into its fourth epoch and after the clone, as written while the header
# still held the `rng` block and `epoch_accum.count`. Its arrays come from
# matrix products, which the FMA kernels (Haswell, SkylakeX, Zen) round alike.
LEGACY_MID_EPOCH_CHECKPOINT = Path(__file__).parent / "data" / "legacy_mid_epoch.itck"
LEGACY_MID_EPOCH_CHECKPOINT_SHA256 = "b54961d0eb79b7298871a7dd2bb109c7285e3fa0b74d00c8dca397312c23a981"


def test_a_mid_epoch_checkpoint_of_the_older_layout_resumes_exactly(tmp_path):
    raw = LEGACY_MID_EPOCH_CHECKPOINT.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == LEGACY_MID_EPOCH_CHECKPOINT_SHA256
    header = header_of(raw)
    assert header["config"]["mode"] == "base"
    assert "marginal.logits" in [entry["name"] for entry in header["arrays"]]
    assert header["epoch_accum"]["count"] == header["counters"]["pos_in_epoch"] == 7
    assert header["rng"]["seed"] == 0 and header["clone_history"]
    legacy = tr.load_checkpoint(LEGACY_MID_EPOCH_CHECKPOINT)
    assert (legacy.epoch, legacy.pos_in_epoch, legacy.processed) == (3, 7, 37)
    assert legacy.config.to_json_dict() == tiny_config().to_json_dict()
    assert "count" not in legacy.epoch_accum and legacy.epoch_accum["cross_entropy_bits"] > 0
    utts, _ = tiny_corpus()
    full = tmp_path / "full.jsonl"
    tr.train(utts, legacy.config, metrics_path=full)
    # the interrupted run's stream: 37 minibatches, the clone and three epochs
    interrupted = tmp_path / "interrupted.jsonl"
    interrupted.write_bytes(b"".join(full.read_bytes().splitlines(keepends=True)[:41]))
    tr.train(utts, legacy.config, metrics_path=interrupted, resume=legacy)
    assert interrupted.read_bytes() == full.read_bytes()


def with_header_config(raw: bytes, path: Path, **fields) -> Path:
    """`path` holding the checkpoint `raw` with `fields` set in its header's
    config, under a valid CRC."""
    header = header_of(raw)
    header["config"].update(fields)
    path.write_bytes(_with_header(raw, header))
    return path


def refusal_of_older_checkpoint(tmp_path, mode: str, entropy_mode: str) -> str:
    """The TrainerError that loading the older mid-epoch checkpoint raises
    once its header config names `mode` and `entropy_mode`."""
    raw = LEGACY_MID_EPOCH_CHECKPOINT.read_bytes()
    path = with_header_config(raw, tmp_path / "older.itck", mode=mode, entropy_mode=entropy_mode)
    with pytest.raises(tr.TrainerError) as refused:
        tr.load_checkpoint(path)
    return str(refused.value)


@pytest.mark.parametrize("mode, entropy_mode", [("adversarial", "per_utterance"), ("base", "global")])
def test_a_checkpoint_of_a_removed_objective_is_refused(tmp_path, mode, entropy_mode):
    # an older checkpoint's config names its mode; only base with
    # per-utterance entropy trained an objective that remains
    message = refusal_of_older_checkpoint(tmp_path, mode, entropy_mode)
    assert f"trained under mode {mode!r} with entropy_mode {entropy_mode!r}" in message


def test_global_entropy_is_refused_under_the_adversarial_mode(tmp_path):
    message = refusal_of_older_checkpoint(tmp_path, "adversarial", "global")
    assert "trained under mode 'adversarial' with entropy_mode 'global'" in message


@pytest.mark.parametrize("name", ["state.itck", "run_manifest.json"])
def test_a_write_cut_short_leaves_the_earlier_file_whole(tmp_path, monkeypatch, name):
    # checkpoints and the CLI's JSON files are written under a temporary name
    # and renamed into place; a write that fails midway leaves the earlier
    # file byte for byte and no temporary file behind
    state = tr.TrainState.fresh(tiny_config(), input_dim=2)

    def write(path):
        if name.endswith(".itck"):
            tr.save_checkpoint(state, path)
        else:
            cli._dump_json({"processed": state.processed}, path)

    path = tmp_path / name
    write(path)
    before = path.read_bytes()
    state.processed += 1
    write_bytes = Path.write_bytes

    def cut_short(self, data):
        write_bytes(self, data[: len(data) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_bytes", cut_short)
    with pytest.raises(OSError, match="no space"):
        write(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_checkpoint_rejects_bad_magic_and_corruption(tmp_path):
    state = tr.TrainState.fresh(tiny_config(), input_dim=2)
    path = tmp_path / "state.itck"
    tr.save_checkpoint(state, path)
    raw = bytearray(path.read_bytes())
    bad_magic = tmp_path / "bad.itck"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(tr.TrainerError):
        tr.load_checkpoint(bad_magic)
    raw[30] ^= 0xFF
    corrupt = tmp_path / "corrupt.itck"
    corrupt.write_bytes(bytes(raw))
    with pytest.raises(tr.TrainerError):
        tr.load_checkpoint(corrupt)


def test_checkpoint_rejects_wrong_version(tmp_path):
    state = tr.TrainState.fresh(tiny_config(), input_dim=2)
    path = tmp_path / "state.itck"
    tr.save_checkpoint(state, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = np.asarray([99], dtype="<u4").tobytes()
    body = bytes(raw[:-4])
    import zlib

    versioned = tmp_path / "versioned.itck"
    versioned.write_bytes(body + np.asarray([zlib.crc32(body)], dtype="<u4").tobytes())
    with pytest.raises(tr.TrainerError):
        tr.load_checkpoint(versioned)


def _with_header(raw: bytes, header: object) -> bytes:
    """`raw` with its JSON header replaced and its CRC recomputed."""
    header_len = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = (
        raw[:4]
        + np.asarray([tr.CHECKPOINT_VERSION, len(header_bytes)], dtype="<u4").tobytes()
        + header_bytes
        + raw[12 + header_len : -4]
    )
    return body + np.asarray([zlib.crc32(body)], dtype="<u4").tobytes()


FUZZ_CORPUS_HASH = "c0ffee"


@functools.lru_cache(maxsize=None)
def mid_run_checkpoint() -> bytes:
    # global mode, stopped after the clone: every header field and array is set
    utts, _ = tiny_corpus(n_utts=4)
    config = tiny_config(entropy_mode="global", entropy_buffer_windows=6, dead_threshold=0.13)
    with tempfile.TemporaryDirectory() as tmp:
        state, _ = tr.train(
            utts, config, checkpoint_dir=Path(tmp), stop_after=6, corpus_hash=FUZZ_CORPUS_HASH
        )
        assert state.clone_history and state.clone_history[0]["pairs"]
        return (Path(tmp) / "interrupted.itck").read_bytes()


def header_paths(node, prefix=()):
    """The path of every dict key and list index under `node`."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield prefix + (key,)
        yield from header_paths(child, prefix + (key,))


JSON_VALUES = [None, True, "x", 2.5, 3, [], {}]


@given(st.data())
@settings(max_examples=2000, deadline=None)  # about 1,800 distinct cases: all of them
def test_checkpoint_header_fuzz_raises_only_trainer_error(tmp_path_factory, data):
    # one field of a valid header is dropped, retyped, negated or made huge,
    # with a valid CRC; loading gives a state or a TrainerError, nothing
    # else, and a state it gives resumes a minibatch or raises TrainerError
    raw = mid_run_checkpoint()
    header_len = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    header = json.loads(raw[12 : 12 + header_len])
    path = data.draw(st.sampled_from(list(header_paths(header))))
    kind = data.draw(st.sampled_from(["drop", "type", "negative", "large"]))
    parent = header
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "type":
        parent[path[-1]] = data.draw(
            st.sampled_from([v for v in JSON_VALUES if type(v) is not type(value)])
        )
    elif kind == "negative":
        parent[path[-1]] = -value if number and value > 0 else -1
    else:
        parent[path[-1]] = 1e300 if isinstance(value, float) else 2**40
    file = tmp_path_factory.getbasetemp() / "fuzzed.itck"
    file.write_bytes(_with_header(raw, header))
    try:
        state = tr.load_checkpoint(file)
        utts, _ = tiny_corpus(n_utts=4)
        tr.train(utts, state.config, resume=state, stop_after=state.processed + 1,
                 corpus_hash=FUZZ_CORPUS_HASH)
    except tr.TrainerError:
        pass


def test_resume_refuses_another_corpus(tmp_path):
    utts, _ = tiny_corpus(n_utts=4)
    config = tiny_config()
    tr.train(utts, config, checkpoint_dir=tmp_path, stop_after=2, corpus_hash="aaa")
    state = tr.load_checkpoint(tmp_path / "interrupted.itck")
    assert state.corpus_hash == "aaa"
    with pytest.raises(tr.TrainerError, match="trained on corpus aaa, not on this corpus bbb"):
        tr.train(utts, config, resume=state, corpus_hash="bbb")
    tr.train(utts, config, resume=state, stop_after=3, corpus_hash="aaa")


# ---------------------------------------------------------------------------
# the loop


def tape_lengths(monkeypatch, config):
    """Nodes on each tape of two training steps on one utterance (the
    second global-mode step scores against the first's rows), and the state."""
    tapes, lengths = [], []

    class RecordedTape(tr.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(tr, "Tape", RecordedTape)
    utts, _ = tiny_corpus()
    state = tr.TrainState.fresh(config, input_dim=utts[0].frames.shape[1])
    (y, x), _ = window_pairs(utts[:1], config.geometry, config.aligned_windows, np.float32)
    frames = (y[0], x[0])
    for _ in range(2):
        tapes.clear()
        tr._train_minibatch(state, frames, 0.1)
        lengths.append([len(tape._nodes) for tape in tapes])
    return lengths, state


@pytest.mark.parametrize("entropy_mode", ["per_utterance", "global"])
def test_minibatch_tapes_record_one_node_per_loss(monkeypatch, entropy_mode):
    # one tape per step: both encoder sides tape one GRU sequence, one
    # paired affine map and one paired softmax, and the loss is one node more
    lengths, state = tape_lengths(monkeypatch, tiny_config(entropy_mode=entropy_mode))
    assert lengths == [[4], [4]]
    assert state.entropy_buffer.shape[0] == (2 * 4 if entropy_mode == "global" else 0)


def test_unequal_lengths_tape_a_gru_pass_per_side_and_their_join(monkeypatch):
    # past != future: two GRU passes and the join take the one sequence's place
    config = tiny_config(geometry=WindowGeometry(total=5, past=1, gap=1, future=3))
    assert tape_lengths(monkeypatch, config)[0] == [[6], [6]]


@pytest.mark.parametrize("geometry, sides", [((2, 1, 2), 2), ((1, 1, 3), 1)])
def test_taped_gru_pairs_the_sides_only_when_their_lengths_match(
    tmp_path, monkeypatch, geometry, sides
):
    # past == future: one paired GRU call per minibatch; past != future:
    # one single-side call per side, on its row of the parameters
    taped = []
    sequence = nm.gru_sequence

    def recording(tape, p, frames, side=None):
        if tape is not None:
            taped.append(frames.shape[0] if side is None else side)
        return sequence(tape, p, frames, side=side)

    monkeypatch.setattr(nm, "gru_sequence", recording)
    utts, _ = tiny_corpus()
    past, gap, future = geometry
    config = tiny_config(geometry=WindowGeometry(total=5, past=past, gap=gap, future=future))
    tr.train(utts, config, metrics_path=tmp_path / "metrics.jsonl")
    minibatches = [r for r in read_records(tmp_path / "metrics.jsonl") if r["type"] == "minibatch"]
    assert len(minibatches) == 100
    assert taped == ([2] * 100 if sides == 2 else [0, 1] * 100)
    assert all(np.isfinite(r["mi_bound_bits"]) for r in minibatches)


def test_stop_after_at_or_below_the_start_trains_nothing(tmp_path):
    # refused before the metrics file is opened: a fresh run at 0, and a run
    # resumed at 5 processed utterances at 3 or 5
    utts, _ = tiny_corpus()
    config = tiny_config()
    metrics = tmp_path / "metrics.jsonl"
    with pytest.raises(tr.TrainerError, match="stop_after 0 does not exceed the 0"):
        tr.train(utts, config, metrics_path=metrics, stop_after=0)
    assert not metrics.exists()
    tr.train(utts, config, metrics_path=metrics, checkpoint_dir=tmp_path, stop_after=5)
    written = metrics.read_bytes()
    state = tr.load_checkpoint(tmp_path / "interrupted.itck")
    for stop in (3, 5):
        with pytest.raises(tr.TrainerError, match=f"stop_after {stop} does not exceed the 5"):
            tr.train(utts, config, metrics_path=metrics, resume=state, stop_after=stop)
        assert state.processed == 5
        assert metrics.read_bytes() == written


def test_every_kind_of_stop_point_resumes_exactly(tmp_path):
    # the clone step (1), steps inside an epoch (5, 37, 99) and every epoch
    # boundary before the budget of 100: resumed into the same directory,
    # each leaves the uninterrupted run's stream and checkpoints byte for byte
    utts, _ = tiny_corpus(n_utts=10)
    config = tiny_config()

    def outputs(run: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(run.iterdir()) if p.name != "interrupted.itck"}

    whole = tmp_path / "whole"
    whole.mkdir()
    tr.train(utts, config, metrics_path=whole / "metrics.jsonl", checkpoint_dir=whole)
    expected = outputs(whole)
    assert len(expected) == 1 + 10 + 1  # metrics, epoch_0000 ... epoch_0009, final
    for stop in (1, 5, 37, 99, *range(10, 100, 10)):
        run = tmp_path / f"stop_{stop}"
        run.mkdir()
        tr.train(utts, config, metrics_path=run / "metrics.jsonl", checkpoint_dir=run,
                 stop_after=stop)
        state = tr.load_checkpoint(run / "interrupted.itck")
        assert state.processed == stop
        tr.train(utts, config, metrics_path=run / "metrics.jsonl", checkpoint_dir=run,
                 resume=state)
        assert outputs(run) == expected, stop


def test_stride1_training_memory_grows_with_the_corpus_not_its_windows():
    # a 630-frame utterance has 596 stride-1 windows of 15 + 15 frames, so a
    # copy of every window would hold about 28 times the corpus; the run
    # holds its windows as views of one float32 copy of each utterance
    config = tiny_config(geometry=WindowGeometry(), aligned_windows=False,
                         lr_schedule=((2, 0.4),), clone_at=1)
    rng = np.random.default_rng(0)
    corpus = [Utterance(f"u{i}", rng.normal(size=(630, 4))) for i in range(40)]
    tr.train(corpus[:4], config, stop_after=1)  # first-call allocations out of the way
    peaks = {}
    for n in (4, 40):
        tracemalloc.start()
        try:
            tr.train(corpus[:n], config, stop_after=1)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    added_frame_bytes = 36 * 630 * 4 * np.dtype(np.float32).itemsize
    assert peaks[40] - peaks[4] < 3 * added_frame_bytes, peaks


def test_the_memory_train_holds_on_return_does_not_grow_with_its_minibatches(tmp_path):
    # every record goes to the metrics file and none is kept, so a run of
    # 600 minibatches returns holding what a run of 100 does: its state and
    # one epoch record (a list of every record held about 0.44 KB each)
    utts, _ = tiny_corpus(n_utts=4)
    tr.train(utts, tiny_config(), stop_after=1)  # first-call allocations out of the way
    held = {}
    for hundreds in (1, 6):
        metrics = tmp_path / f"metrics_{hundreds}.jsonl"
        tracemalloc.start()
        try:
            result = tr.train(utts, tiny_config(lr_schedule=((hundreds, 0.4),)), metrics_path=metrics)
            held[hundreds] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert result[0].processed == 100 * hundreds
        del result
    assert held[6] - held[1] < 25_000, held


def test_train_rejects_empty_and_unusably_short_corpora():
    config = tiny_config()
    with pytest.raises(tr.TrainerError):
        tr.train([], config)
    short = [Utterance("s", np.zeros((3, 2)))]
    with pytest.raises(tr.TrainerError):
        tr.train(short, config)


def test_train_skips_short_utterances_with_warning(tmp_path, caplog):
    utts, _ = tiny_corpus(n_utts=4)
    # a short all-zero utterance is skipped too, not refused as all-zero
    utts += [Utterance("stub", np.ones((2, 2))), Utterance("zero_stub", np.zeros((2, 2)))]
    config = tiny_config(lr_schedule=((1, 0.4),))
    with caplog.at_level("WARNING"):
        tr.train(utts, config, metrics_path=tmp_path / "metrics.jsonl")
    records = read_records(tmp_path / "metrics.jsonl")
    names = {r["utterance_id"] for r in records if r["type"] == "minibatch"}
    for stub in ("stub", "zero_stub"):
        assert any(f"skipping utterance {stub}:" in message for message in caplog.messages)
        assert stub not in names


def test_metrics_stream_shapes_and_lr_schedule(tmp_path):
    utts, _ = tiny_corpus(n_utts=10)
    config = tiny_config(lr_schedule=((1, 0.4), (2, 0.2)), clone_at=1)
    metrics_path = tmp_path / "metrics.jsonl"
    state, last_epoch = tr.train(utts, config, metrics_path=metrics_path)
    assert state.processed == 200
    records = read_records(metrics_path)
    minibatches = [r for r in records if r["type"] == "minibatch"]
    epochs = [r for r in records if r["type"] == "epoch"]
    clones = [r for r in records if r["type"] == "clone"]
    assert len(minibatches) == 200
    assert len(epochs) == 20  # 10 utterances per epoch, budget 200
    assert len(clones) == 1
    assert clones[0]["step"] == 100
    assert all(r["lr"] == 0.4 for r in minibatches[:100])
    assert all(r["lr"] == 0.2 for r in minibatches[100:])
    for r in minibatches:
        for key in ("utterance_id", "step", "cross_entropy_bits",
                    "marginal_entropy_bits", "mi_bound_bits", "saturation_count"):
            assert key in r
    # train returns the last epoch record it wrote, and keeps no other
    assert last_epoch == epochs[-1]


def test_epoch_aggregates_average_the_minibatches(tmp_path):
    utts, _ = tiny_corpus(n_utts=6)
    config = tiny_config(lr_schedule=((1, 0.4),))  # budget 100: 16 epochs of 6, then 4
    tr.train(utts, config, metrics_path=tmp_path / "metrics.jsonl")
    epochs, minibatches = [], []
    for r in read_records(tmp_path / "metrics.jsonl"):
        if r["type"] == "minibatch":
            minibatches.append(r)
        elif r["type"] == "epoch":
            want = np.mean([m["mi_bound_bits"] for m in minibatches])
            assert abs(r["mean_mi_bound_bits"] - want) < 1e-12
            assert r["utterances"] == len(minibatches)
            epochs.append(r)
            minibatches = []
    assert [r["utterances"] for r in epochs] == [6] * 16 + [4]
    assert "live_symbols" in epochs[0]


def test_training_makes_progress_on_easy_synthetic_task(tmp_path):
    utts, _ = tiny_corpus(n_utts=10, windows=6)
    config = tiny_config(lr_schedule=((3, 0.4),), clone_at=2)
    tr.train(utts, config, metrics_path=tmp_path / "metrics.jsonl")
    epochs = [r for r in read_records(tmp_path / "metrics.jsonl") if r["type"] == "epoch"]
    assert epochs[-1]["mean_mi_bound_bits"] > epochs[0]["mean_mi_bound_bits"]


def test_two_runs_with_same_seed_are_byte_identical(tmp_path):
    utts, _ = tiny_corpus(n_utts=6)
    config = tiny_config(lr_schedule=((1, 0.4),))
    _, last_a = tr.train(utts, config, metrics_path=tmp_path / "a.jsonl")
    _, last_b = tr.train(utts, config, metrics_path=tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert last_a == last_b
    tr.train(utts, tiny_config(lr_schedule=((1, 0.4),), seed=1), metrics_path=tmp_path / "c.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "c.jsonl").read_bytes()


def test_resume_reproduces_uninterrupted_run_exactly(tmp_path):
    utts, _ = tiny_corpus(n_utts=7)
    # clone fires at processed=100, stop straddles epochs and the clone
    config = tiny_config(lr_schedule=((2, 0.4),), clone_at=1)
    tr.train(utts, config, dev_corpus=utts[:2], metrics_path=tmp_path / "full.jsonl")

    ck = tmp_path / "ck"
    tr.train(utts, config, dev_corpus=utts[:2], metrics_path=tmp_path / "prefix.jsonl",
             checkpoint_dir=ck, stop_after=108)
    resumed_state = tr.load_checkpoint(ck / "interrupted.itck")
    tr.train(utts, config, dev_corpus=utts[:2], metrics_path=tmp_path / "suffix.jsonl",
             resume=resumed_state)

    stitched = read_records(tmp_path / "prefix.jsonl") + read_records(tmp_path / "suffix.jsonl")
    full = read_records(tmp_path / "full.jsonl")
    assert len(stitched) == len(full)
    for a, b in zip(stitched, full):
        assert a == b


def test_resume_with_different_config_is_rejected(tmp_path):
    utts, _ = tiny_corpus(n_utts=4)
    config = tiny_config(lr_schedule=((1, 0.4),))
    ck = tmp_path / "ck"
    tr.train(utts, config, checkpoint_dir=ck, stop_after=10)
    state = tr.load_checkpoint(ck / "interrupted.itck")
    other = tiny_config(lr_schedule=((1, 0.4),), seed=5)
    with pytest.raises(tr.TrainerError):
        tr.train(utts, other, resume=state)


def test_resume_past_the_end_of_a_smaller_corpus_is_rejected(tmp_path):
    utts, _ = tiny_corpus(n_utts=6)
    config = tiny_config(lr_schedule=((1, 0.4),))
    tr.train(utts, config, checkpoint_dir=tmp_path, stop_after=5)
    state = tr.load_checkpoint(tmp_path / "interrupted.itck")
    with pytest.raises(tr.TrainerError, match="5 utterances into an epoch"):
        tr.train(utts[:5], config, resume=state)


def test_final_checkpoint_written_and_loadable(tmp_path):
    utts, _ = tiny_corpus(n_utts=5)
    config = tiny_config(lr_schedule=((1, 0.4),))
    ck = tmp_path / "ck"
    state, _ = tr.train(utts, config, checkpoint_dir=ck)
    final = tr.load_checkpoint(ck / "final.itck")
    assert final.processed == state.processed == 100
    assert (ck / "epoch_0000.itck").exists()


def test_global_entropy_mode_runs_and_checkpoints_buffer(tmp_path):
    utts, _ = tiny_corpus(n_utts=5)
    config = tiny_config(lr_schedule=((1, 0.4),), entropy_mode="global", entropy_buffer_windows=12)
    ck = tmp_path / "ck"
    state, _ = tr.train(utts, config, metrics_path=tmp_path / "metrics.jsonl", checkpoint_dir=ck)
    assert state.entropy_buffer.shape == (12, 8)
    assert np.array_equal(tr.load_checkpoint(ck / "final.itck").entropy_buffer, state.entropy_buffer)
    assert any(r["type"] == "minibatch" for r in read_records(tmp_path / "metrics.jsonl"))


def test_global_mode_emits_reference_term_and_resumes(tmp_path):
    # the first step has no earlier rows, so it scores against its own batch
    # mean; every later one reports its cross entropy against the buffer's.
    # Stopped mid-epoch and resumed into its directory, the run leaves the
    # uninterrupted run's stream and final checkpoint byte for byte
    utts, _ = tiny_corpus(n_utts=6)
    config = tiny_config(lr_schedule=((1, 0.4),), entropy_mode="global", entropy_buffer_windows=12)
    whole, run = tmp_path / "whole", tmp_path / "run"
    whole.mkdir()
    run.mkdir()
    tr.train(utts, config, metrics_path=whole / "metrics.jsonl", checkpoint_dir=whole)
    minibatches = [r for r in read_records(whole / "metrics.jsonl") if r["type"] == "minibatch"]
    assert ["reference_cross_entropy_bits" in r for r in minibatches] == [False] + [True] * 99
    tr.train(utts, config, metrics_path=run / "metrics.jsonl", checkpoint_dir=run, stop_after=33)
    state = tr.load_checkpoint(run / "interrupted.itck")
    tr.train(utts, config, metrics_path=run / "metrics.jsonl", checkpoint_dir=run, resume=state)
    for name in ("metrics.jsonl", "final.itck"):
        assert (run / name).read_bytes() == (whole / name).read_bytes(), name


def test_evaluate_on_corpus_is_deterministic_and_complete():
    utts, _ = tiny_corpus(n_utts=6)
    config = tiny_config(lr_schedule=((1, 0.4),))
    state, _ = tr.train(utts, config)
    a = tr.evaluate_on_corpus(state, utts[:3])
    b = tr.evaluate_on_corpus(state, utts[:3])
    assert a == b
    for key in (
        "dev_cross_entropy_bits",
        "dev_marginal_entropy_bits",
        "dev_mi_bound_bits",
        "dev_mean_entropy_psi_bits",
        "dev_mean_entropy_phi_bits",
        "dev_agreement",
    ):
        assert key in a
    assert 0.0 <= a["dev_agreement"] <= 1.0


def test_aligned_windows_restrict_to_generated_placements(monkeypatch):
    utts, spec = tiny_corpus(n_utts=2, windows=4)
    short = Utterance("short", utts[0].frames[: spec.window_total - 1])
    calls = []
    encode = EncoderParams.encode_node

    def counting(self, side, frames, tape=None):
        # a stacked call [B, N, L, d] holds B * N windows, a paired call
        # (y, x) N windows of each side
        batches = frames if side == SIDES else (frames,)
        calls.append((side, sum(int(np.prod(b.shape[:-2])) for b in batches), tape is None))
        return encode(self, side, frames, tape)

    monkeypatch.setattr(EncoderParams, "encode_node", counting)
    stride1 = utts[0].frames.shape[0] - spec.window_total + 1
    # training minibatches, dev evaluation and death detection all follow the
    # flag; the last two encode each window once per side, untaped, confirm
    # first, in calls no larger than the stack ceiling or one utterance, and
    # call no encoder for an utterance without a window
    for aligned, n in ((True, 4), (False, stride1)):  # 4: one per generated window
        calls.clear()
        state, _ = tr.train(utts[:1], tiny_config(aligned_windows=aligned), stop_after=1)
        # one taped paired minibatch, then the clone's detection
        assert calls == [(SIDES, 2 * n, False), (CONFIRM, n, True), (PREDICT, n, True)]
        for reader in (tr.evaluate_on_corpus, tr.detect_dead_symbols):
            calls.clear()
            reader(state, [utts[0], short, utts[1]])
            assert [side for side, _, _ in calls] == [CONFIRM, PREDICT] * (len(calls) // 2)
            for side in (CONFIRM, PREDICT):
                assert sum(rows for s, rows, _ in calls if s == side) == 2 * n
            assert all(untaped for _, _, untaped in calls)
            assert max(rows for _, rows, _ in calls) <= max(STACK_WINDOWS, n)
