"""End-to-end command tests: exit codes, artifacts, determinism."""

import builtins
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

import itco
from itco import gradcheck
from itco import numerics as nm
from itco import trainer
from itco.cli import main
from itco.corpus import Utterance, load_corpus, true_mi_oracle, write_corpus
from itco.trainer import TrainConfig, TrainState, load_checkpoint, save_checkpoint
from itco.corpus import WindowGeometry
from itco.evaluation import STACK_WINDOWS
from itco.model import EncoderParams
from test_trainer import LEGACY_MID_EPOCH_CHECKPOINT, with_header_config


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


def identity_spec(k: int = 2, seed: int = 7, utterances: int = 30) -> dict:
    eye = np.eye(k).tolist()
    return {
        "num_latent": k,
        "x_channel": eye,
        "y_channel": eye,
        "latent_prior": [1.0 / k] * k,
        "frames_per_side": 3,
        "gap": 1,
        "jitter_sigma": 0.0,
        "num_utterances": utterances,
        "windows_per_utterance": 4,
        "seed": seed,
    }


def train_config(seed: int = 3) -> dict:
    return {
        "geometry": {"total": 7, "past": 3, "gap": 1, "future": 3},
        "alphabet_size": 8,
        "hidden_dim": 8,
        "lr_schedule": [[1, 0.4], [2, 0.2]],
        "clone_at": 1,
        "seed": seed,
    }


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("corpus")
    spec = write_json(root / "spec.json", identity_spec())
    out = root / "data"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_dir) -> Path:
    root = tmp_path_factory.mktemp("run")
    cfg = write_json(root / "train.json", train_config())
    out = root / "out"
    code = main(
        ["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(out)]
    )
    assert code == 0
    return out


EVAL_FILES = ("summary.json", "confusion.csv", "symbol_stats.csv")


def with_older_mode(run_dir: Path, path: Path, mode: str, entropy_mode: str) -> Path:
    """`path` holding the run's final checkpoint, its header config naming
    `mode` and `entropy_mode` as an older checkpoint's does."""
    raw = (run_dir / "checkpoints" / "final.itck").read_bytes()
    return with_header_config(raw, path, mode=mode, entropy_mode=entropy_mode)


def module_env() -> dict[str, str]:
    """The environment in which ``python -m itco`` imports this checkout."""
    src = str(Path(itco.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.fixture(scope="module")
def long_run(tmp_path_factory, corpus_dir) -> tuple[Path, Path]:
    """The config of a run of 8,000 minibatches, long enough (at least 3 s)
    for a signal sent after its third minibatch to arrive while it goes, and
    that run's directory."""
    root = tmp_path_factory.mktemp("long")
    cfg = write_json(root / "train.json", dict(train_config(), lr_schedule=[[80, 0.4]]))
    out = root / "out"
    assert main(["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out


def files_under(root: Path) -> dict[str, bytes]:
    """Every file under `root`, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def corpus_with_bad_value(src: Path, dst: Path, value: float = np.nan) -> str:
    """Copy a corpus and write `value` into frame 5 of its first utterance;
    returns that utterance's id."""
    import shutil

    shutil.copytree(src, dst)
    victim = sorted((dst / "features").iterdir())[0]
    raw = bytearray(victim.read_bytes())
    d = int(np.frombuffer(bytes(raw[12:16]), dtype="<u4")[0])
    offset = 16 + 4 * 5 * d
    raw[offset : offset + 4] = np.asarray([value], dtype="<f4").tobytes()
    victim.write_bytes(bytes(raw))
    return victim.stem


class TestSynth:
    def test_identity_channel_oracle(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", identity_spec(k=4, utterances=4))
        out = tmp_path / "c"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        oracle = json.loads((out / "oracle.json").read_text())
        assert oracle["true_mi_bits"] == pytest.approx(2.0, abs=1e-12)

    def test_independent_channels_oracle_zero(self, tmp_path):
        doc = identity_spec(k=2, utterances=4)
        doc["y_channel"] = [[0.5, 0.5], [0.5, 0.5]]  # y carries nothing about s
        spec = write_json(tmp_path / "spec.json", doc)
        out = tmp_path / "c"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        oracle = json.loads((out / "oracle.json").read_text())
        assert oracle["true_mi_bits"] == pytest.approx(0.0, abs=1e-12)

    def test_noisy_channel_matches_oracle_function(self, tmp_path):
        doc = identity_spec(k=2, utterances=4)
        doc["y_channel"] = [[0.8, 0.2], [0.2, 0.8]]
        spec = write_json(tmp_path / "spec.json", doc)
        out = tmp_path / "c"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        oracle = json.loads((out / "oracle.json").read_text())
        joint = np.array(oracle["joint_table"])
        assert oracle["true_mi_bits"] == pytest.approx(true_mi_oracle(joint), abs=1e-12)

    def test_layout_and_manifest_flag(self, corpus_dir):
        assert (corpus_dir / "manifest.tsv").exists()
        assert (corpus_dir / "run_manifest.json").exists()
        assert sorted(p.name for p in (corpus_dir / "features").iterdir())[0].endswith(".itcf")
        assert load_corpus(corpus_dir).metadata["aligned_windows"] == "1"

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", identity_spec(seed=1, utterances=3))
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["synth", "--spec", str(spec), "--out", str(a)]) == 0
        assert main(["synth", "--spec", str(spec), "--out", str(b), "--seed", "99"]) == 0
        assert main(["synth", "--spec", str(spec), "--out", str(c), "--seed", "99"]) == 0
        feat = "features/synth-0000.itcf"
        assert (b / feat).read_bytes() == (c / feat).read_bytes()
        assert (a / feat).read_bytes() != (b / feat).read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", identity_spec(utterances=3))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--spec", str(spec), "--out", str(a)]) == 0
        assert main(["synth", "--spec", str(spec), "--out", str(b)]) == 0
        assert (a / "manifest.tsv").read_bytes() == (b / "manifest.tsv").read_bytes()
        assert (a / "oracle.json").read_bytes() == (b / "oracle.json").read_bytes()

    def test_bad_spec_json_is_data_error(self, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text("{not json")
        assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "c")]) == 2

    @pytest.mark.parametrize(
        "doc, flags, named",
        [
            (dict(identity_spec(), frames_per_side=3.0), ["--seed", "1"], "frames_per_side"),
            (dict(identity_spec(), num_utterances=2.5), ["--seed", "1"], "num_utterances"),
            ([identity_spec()], ["--seed", "1"], "JSON object"),
            (dict(identity_spec(), num_utterances=0), ["--seed", "1"], "num_utterances"),
            (dict(identity_spec(), windows_per_utterance=0), ["--seed", "1"], "windows_per_utterance"),
            # the spec's own seed, so no --seed flag replaces it
            (dict(identity_spec(), seed=-1), [], "seed"),
            (dict(identity_spec(), jitter_sigma=float("nan")), ["--seed", "1"], "jitter_sigma"),
            (dict(identity_spec(), x_channel=[[float("nan"), 1.0], [0.0, 1.0]]), ["--seed", "1"],
             "x_channel"),
            (dict(identity_spec(), stride=1), ["--seed", "1"], "unknown field(s) 'stride'"),
            ({k: v for k, v in identity_spec().items() if k not in ("x_channel", "seed")}, [],
             "missing field(s) 'x_channel', 'seed'"),
        ],
        ids=["float_frames_per_side", "float_num_utterances", "json_array", "zero_num_utterances",
             "zero_windows_per_utterance", "negative_seed", "nan_jitter_sigma", "nan_channel",
             "unknown_field", "missing_fields"],
    )
    def test_malformed_spec_is_data_error_before_any_output(self, tmp_path, capsys, doc, flags, named):
        spec = write_json(tmp_path / "spec.json", doc)
        out = tmp_path / "c"
        assert main(["synth", "--spec", str(spec), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert "bad synthetic spec" in err and named in err
        assert "__init__" not in err
        assert not out.exists()

    def test_unallocatable_spec_is_data_error_before_any_output(self, tmp_path, capsys, monkeypatch):
        def unallocatable(spec):
            raise MemoryError("Unable to allocate 102. TiB")

        monkeypatch.setattr("itco.cli.synth_corpus", unallocatable)
        spec = write_json(tmp_path / "spec.json", dict(identity_spec(), windows_per_utterance=10**12))
        out = tmp_path / "c"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad synthetic spec: num_utterances 30 and windows_per_utterance 1000000000000" in err
        assert not out.exists()

    def test_missing_spec_is_usage_error(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["synth", "--spec", str(missing), "--out", str(tmp_path / "c")]) == 1


class TestTrain:
    def test_accepts_manifest_path_for_corpus(self, tmp_path, corpus_dir):
        cfg = write_json(tmp_path / "t.json", train_config())
        out = tmp_path / "out"
        code = main(
            [
                "train",
                "--corpus",
                str(corpus_dir / "manifest.tsv"),
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--stop-after",
                "5",
            ]
        )
        assert code == 0
        assert (out / "metrics.jsonl").exists()

    def test_emits_metrics_checkpoints_manifest(self, run_dir):
        assert (run_dir / "metrics.jsonl").exists()
        assert (run_dir / "checkpoints" / "final.itck").exists()
        manifest = json.loads((run_dir / "run_manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["tool_version"]
        assert manifest["corpus_hash"]
        assert manifest["config"]["alphabet_size"] == 8

    def test_one_epoch_record_per_epoch(self, run_dir):
        records = [
            json.loads(line) for line in (run_dir / "metrics.jsonl").read_text().splitlines()
        ]
        epochs = [r for r in records if r["type"] == "epoch"]
        assert [r["epoch"] for r in epochs] == list(range(len(epochs)))
        assert len(epochs) >= 2

    def test_schedule_from_config_shows_in_lr_field(self, tmp_path, corpus_dir):
        doc = train_config()
        doc["lr_schedule"] = [[1, 0.3]]
        doc["clone_at"] = 0
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        assert main(
            ["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(out)]
        ) == 0
        records = [
            json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()
        ]
        assert {r["lr"] for r in records if r["type"] == "minibatch"} == {0.3}

    def test_seed_flag_overrides_config(self, tmp_path, corpus_dir):
        # the entropy mode comes from the config file, as every option but the seed does
        doc = dict(train_config(seed=3), entropy_mode="global")
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        code = main(
            ["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(out), "--seed", "11"]
        )
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["config"]["entropy_mode"] == "global"
        records = [
            json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()
        ]
        # every step after the first scores against the buffered rows
        minibatches = [r for r in records if r["type"] == "minibatch"]
        assert all("reference_cross_entropy_bits" in r for r in minibatches[1:])

    def test_same_seed_runs_are_byte_identical(self, tmp_path, corpus_dir):
        cfg = write_json(tmp_path / "cfg.json", train_config())
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(
                ["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(out)]
            ) == 0
        assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()
        assert (a / "checkpoints" / "final.itck").read_bytes() == (
            b / "checkpoints" / "final.itck"
        ).read_bytes()

    def test_resume_reproduces_uninterrupted_metrics(self, tmp_path, corpus_dir):
        cfg = write_json(tmp_path / "cfg.json", train_config())
        full, part, rest = tmp_path / "full", tmp_path / "part", tmp_path / "rest"
        base = ["train", "--corpus", str(corpus_dir), "--config", str(cfg)]
        assert main(base + ["--out", str(full)]) == 0
        assert main(base + ["--out", str(part), "--stop-after", "130"]) == 0
        interrupted = part / "checkpoints" / "interrupted.itck"
        assert interrupted.exists()
        assert main(
            base + ["--out", str(rest), "--resume", str(interrupted)]
        ) == 0
        stitched = (
            (part / "metrics.jsonl").read_text() + (rest / "metrics.jsonl").read_text()
        )
        assert stitched == (full / "metrics.jsonl").read_text()

    def test_resume_into_same_out_continues_metrics(self, tmp_path, corpus_dir, run_dir):
        # the file on disk, not only the records in memory, must match the
        # uninterrupted run, also when resuming from a checkpoint the stream
        # has already run past
        cfg = write_json(tmp_path / "cfg.json", train_config())
        out = tmp_path / "out"
        base = ["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(out)]
        assert main(base + ["--stop-after", "130"]) == 0
        for checkpoint in ("interrupted.itck", "epoch_0002.itck"):
            assert main(base + ["--resume", str(out / "checkpoints" / checkpoint)]) == 0
            assert (out / "metrics.jsonl").read_bytes() == (run_dir / "metrics.jsonl").read_bytes()
            assert (out / "checkpoints" / "final.itck").read_bytes() == (
                run_dir / "checkpoints" / "final.itck"
            ).read_bytes()

    def test_resume_into_same_out_keeps_every_leg_in_manifest(self, tmp_path, corpus_dir, run_dir):
        cfg = write_json(tmp_path / "cfg.json", train_config())
        out = tmp_path / "out"
        base = ["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(out)]
        assert main(base + ["--stop-after", "130"]) == 0
        first = json.loads((out / "run_manifest.json").read_text())
        interrupted = out / "checkpoints" / "interrupted.itck"
        assert main(base + ["--resume", str(interrupted)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["earlier_legs"] == [first]
        assert "resumed_from" not in first["config"]
        assert manifest["config"]["resumed_from"] == str(interrupted)
        assert manifest["corpus_hash"] == first["corpus_hash"]
        assert (out / "metrics.jsonl").read_bytes() == (run_dir / "metrics.jsonl").read_bytes()
        # a third leg keeps both earlier ones, oldest first
        assert main(base + ["--resume", str(out / "checkpoints" / "epoch_0002.itck")]) == 0
        third = json.loads((out / "run_manifest.json").read_text())
        assert third["earlier_legs"] == [first, {k: v for k, v in manifest.items() if k != "earlier_legs"}]

    def test_diverging_lr_is_data_error(self, tmp_path, corpus_dir, capsys):
        # the error names the step and the utterance; earlier records stay on
        # disk; numpy's overflow warnings do not come before it
        doc = train_config()
        doc["lr_schedule"] = [[1, 1e30]]
        doc["clone_at"] = 0
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(out)]
            )
        assert code == 2
        err = capsys.readouterr().err
        match = re.search(r"non-finite value at step (\d+) \(utterance '([^']+)'", err)
        assert match, "error must name the step and the utterance"
        step, utterance = int(match.group(1)), match.group(2)
        assert (corpus_dir / "features" / f"{utterance}.itcf").exists()
        records = [
            json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()
        ]
        steps = [r["step"] for r in records if r["type"] == "minibatch"]
        assert steps == list(range(1, len(steps) + 1))
        assert len(steps) in (step - 1, step)

    def test_saturated_divergence_is_data_error(self, tmp_path, corpus_dir, capsys):
        # at lr 1e9 the outputs saturate at the log floor and stay finite;
        # the run stops at the first minibatch that predicts worse than a
        # uniform guess, once its record is written
        doc = dict(train_config(), lr_schedule=[[1, 1e9]], clone_at=0)
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        code = main(["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        match = re.search(r"diverged at step (\d+) \(utterance '([^']+)', lr 1e\+09\)", err)
        assert match, "error must name the step, the utterance and the lr"
        records = [
            json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()
        ]
        last = [r for r in records if r["type"] == "minibatch"][-1]
        assert (last["step"], last["utterance_id"]) == (int(match.group(1)), match.group(2))
        assert last["saturation_count"] > 0 and last["mi_bound_bits"] < -np.log2(8)

    def test_out_of_memory_in_training_is_data_error_naming_the_step(
        self, tmp_path, corpus_dir, capsys, monkeypatch
    ):
        minibatch, calls = trainer._train_minibatch, []

        def third_runs_out(state, pair, lr):
            calls.append(lr)
            if len(calls) == 3:
                raise MemoryError("Unable to allocate 16.0 TiB")
            return minibatch(state, pair, lr)

        monkeypatch.setattr(trainer, "_train_minibatch", third_runs_out)
        cfg = write_json(tmp_path / "cfg.json", train_config())
        out = tmp_path / "out"
        assert main(["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.search(r"training ran out of memory at step 3 \(utterance '[^']+', lr 0.4\)", err)
        assert "Traceback" not in err
        # the records written before it stay
        assert [json.loads(line)["step"] for line in (out / "metrics.jsonl").read_text().splitlines()] == [1, 2]

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    def test_a_signal_stops_the_run_after_a_step_and_its_resume_is_exact(
        self, tmp_path, corpus_dir, long_run, signum
    ):
        cfg, uninterrupted = long_run
        out = tmp_path / "out"
        argv = ["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(out)]
        proc = subprocess.Popen([sys.executable, "-m", "itco", *argv], env=module_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        metrics = out / "metrics.jsonl"
        deadline = time.monotonic() + 60
        while not (metrics.exists() and metrics.read_text().count('"type":"minibatch"') >= 3):
            assert proc.poll() is None and time.monotonic() < deadline, proc.communicate()
            time.sleep(0.01)
        proc.send_signal(signum)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 128 + signum, err
        assert "Traceback" not in err
        checkpoint = out / "checkpoints" / "interrupted.itck"
        assert re.fullmatch(
            rf"interrupted by {signum.name} after step \d+; resume with --resume "
            rf"{re.escape(str(checkpoint))}\n", err
        )
        assert main([*argv, "--resume", str(checkpoint)]) == 0
        for name in ("metrics.jsonl", "checkpoints/final.itck"):
            assert (out / name).read_bytes() == (uninterrupted / name).read_bytes(), name

    def test_ctrl_c_outside_the_training_loop_exits_130_with_one_line(
        self, tmp_path, corpus_dir, capsys, monkeypatch
    ):
        def interrupted(path):
            raise KeyboardInterrupt

        monkeypatch.setattr("itco.cli.load_corpus", interrupted)
        cfg = write_json(tmp_path / "cfg.json", train_config())
        out = tmp_path / "out"
        assert main(["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(out)]) == 130
        assert capsys.readouterr().err == "interrupted by SIGINT\n"
        assert not out.exists()

    def test_bad_config_is_usage_error(self, tmp_path, corpus_dir):
        doc = train_config()
        doc["lr_schedule"] = []
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(
            ["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(tmp_path / "o")]
        ) == 1

    @pytest.mark.parametrize(
        "doc, named",
        [
            ([train_config()], "JSON object"),
            (dict(train_config(), geometry={"total": 7.0, "past": 3.0, "gap": 1.0, "future": 3.0}),
             "total"),
            # clone_at 0 keeps each schedule otherwise valid
            (dict(train_config(), lr_schedule=[[1.5, 0.1]], clone_at=0), "lr_schedule"),
            (dict(train_config(), lr_schedule=[[1, float("nan")]], clone_at=0), "lr_schedule"),
            # an integer too large for a float
            (dict(train_config(), lr_schedule=[[1, 10**400]], clone_at=0), "lr_schedule"),
            (dict(train_config(), dead_threshold=2.0), "dead_threshold"),
            (dict(train_config(), dead_threshold=float("nan")), "dead_threshold"),
            (dict(train_config(), clone_noise_sigma=-1.0), "clone_noise_sigma"),
            # only an absent geometry means the default one
            (dict(train_config(), geometry=0), "geometry"),
            (dict(train_config(), geometry=[]), "geometry"),
            (dict(train_config(), geometry=False), "geometry"),
            (dict(train_config(), entropy_mode="per-utterance"), "entropy_mode"),
            # a config has no mode field: the adversarial objective is gone
            (dict(train_config(), mode="adversarial", entropy_mode="global"), "'mode'"),
            ({"mode": "adversarial"}, "'mode'"),
            (dict(train_config(), geometry={"total": 7, "stride": 1}), "geometry: unknown field(s) 'stride'"),
            (dict(train_config(), lr_schedule=[[1, 0.4, 3]], clone_at=0), "lr_schedule"),
            (dict(train_config(), lr_schedule=5), "lr_schedule"),
            (dict(train_config(), lr_schedule={"1": 0.4}), "lr_schedule"),
            (dict(train_config(), lr_schedule=[]), "lr_schedule"),
        ],
        ids=["json_array", "float_geometry", "float_schedule_end", "nan_lr", "huge_int_lr", "dead_threshold_above_1",
             "nan_dead_threshold", "negative_clone_noise_sigma", "zero_geometry", "empty_list_geometry",
             "false_geometry", "dashed_entropy_mode", "global_entropy_under_adversarial",
             "adversarial_mode", "unknown_geometry_field", "schedule_triple", "int_schedule",
             "object_schedule", "empty_schedule"],
    )
    def test_malformed_config_is_usage_error_before_any_output(
        self, tmp_path, corpus_dir, capsys, doc, named
    ):
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "o"
        assert main(["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "bad train config" in err and named in err
        assert "TypeError" not in err and "__init__" not in err
        assert not out.exists()

    def test_unallocatable_config_is_usage_error_before_any_output(
        self, tmp_path, corpus_dir, capsys, monkeypatch
    ):
        def unallocatable(self, *args, **kwargs):
            raise MemoryError("Unable to allocate 16.0 TiB")

        monkeypatch.setattr(EncoderParams, "__init__", unallocatable)
        cfg = write_json(tmp_path / "cfg.json", dict(train_config(), hidden_dim=1048576))
        out = tmp_path / "o"
        assert main(["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "bad train config: hidden_dim 1048576 and alphabet_size 8" in err
        assert not out.exists()

    def test_missing_corpus_is_data_error(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", train_config())
        assert main(
            ["train", "--corpus", str(tmp_path / "nope"), "--config", str(cfg), "--out", str(tmp_path / "o")]
        ) == 2

    def test_corrupt_feature_file_is_data_error(self, tmp_path, corpus_dir):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(corpus_dir, broken)
        victim = sorted((broken / "features").iterdir())[0]
        victim.write_bytes(b"XXXX" + victim.read_bytes()[4:])
        cfg = write_json(tmp_path / "cfg.json", train_config())
        assert main(
            ["train", "--corpus", str(broken), "--config", str(cfg), "--out", str(tmp_path / "o")]
        ) == 2


    @pytest.mark.parametrize("role", ["corpus", "dev_corpus"])
    def test_aligned_window_size_mismatch_is_data_error(self, tmp_path, corpus_dir, capsys, role):
        # a corpus generated with 10 + 5 + 10 = 25-frame windows
        spec = dict(identity_spec(utterances=3), frames_per_side=10, gap=5)
        wide = tmp_path / "wide"
        assert main(["synth", "--spec", str(write_json(tmp_path / "s.json", spec)), "--out", str(wide)]) == 0
        assert load_corpus(wide).metadata["window_total"] == "25"
        if role == "corpus":
            # no geometry in the config: the 35-frame default
            doc = {k: v for k, v in train_config().items() if k != "geometry"}
            argv, config_total = ["--corpus", str(wide)], 35
        else:
            doc = train_config()
            argv, config_total = ["--corpus", str(corpus_dir), "--dev-corpus", str(wide)], 7
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "o"
        assert main(["train", *argv, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{wide / 'manifest.tsv'}: corpus window_total 25" in err
        assert f"geometry total {config_total}" in err
        assert not (out / "metrics.jsonl").exists()
        # without aligned windows any window size may train on the corpus
        cfg = write_json(tmp_path / "cfg.json", dict(doc, aligned_windows=False))
        assert main(["train", *argv, "--config", str(cfg), "--out", str(out), "--stop-after", "1"]) == 0

    def test_dev_corpus_dimension_mismatch_fails_before_training(self, tmp_path, corpus_dir, capsys):
        # corpus_dir holds 2-dim features; the dev corpus has 3
        dev = tmp_path / "dev"
        spec = write_json(tmp_path / "spec.json", identity_spec(k=3, utterances=2))
        assert main(["synth", "--spec", str(spec), "--out", str(dev)]) == 0
        cfg = write_json(tmp_path / "cfg.json", train_config())
        out = tmp_path / "o"
        assert main(
            ["train", "--corpus", str(corpus_dir), "--dev-corpus", str(dev), "--config", str(cfg),
             "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        rows = (dev / "manifest.tsv").read_text().splitlines()
        first_dev = next(row for row in rows if not row.startswith("#")).split("\t")[0]
        assert f"dev utterance '{first_dev}' has dimension 3, expected 2" in err
        assert "Traceback" not in err
        assert not (out / "metrics.jsonl").exists()

    def test_resume_on_another_corpus_is_data_error(self, tmp_path, corpus_dir, capsys):
        other = tmp_path / "other"
        spec = write_json(tmp_path / "spec.json", identity_spec(seed=8))
        assert main(["synth", "--spec", str(spec), "--out", str(other)]) == 0
        cfg = write_json(tmp_path / "cfg.json", train_config())
        base = ["train", "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(base + ["--corpus", str(corpus_dir), "--stop-after", "10"]) == 0
        resume = ["--resume", str(tmp_path / "o" / "checkpoints" / "interrupted.itck")]
        manifest = tmp_path / "o" / "run_manifest.json"
        before = manifest.read_bytes()
        capsys.readouterr()
        assert main(base + ["--corpus", str(other)] + resume) == 2
        err = capsys.readouterr().err
        trained, refused = load_corpus(corpus_dir).hash, load_corpus(other).hash
        assert f"trained on corpus {trained}, not on this corpus {refused}" in err
        # the refusal comes before the manifest would name the refused leg
        assert manifest.read_bytes() == before

    @pytest.mark.parametrize(
        "refusal", ["dev_dimension", "dev_too_short", "corpus_too_short", "dev_all_zero",
                    "corpus_all_zero"],
    )
    def test_refused_rerun_leaves_the_run_directory_as_it_was(
        self, tmp_path, corpus_dir, capsys, refusal
    ):
        cfg = write_json(tmp_path / "cfg.json", train_config())
        out = tmp_path / "o"
        argv = ["train", "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--corpus", str(corpus_dir), "--stop-after", "10"]) == 0
        before = files_under(out)
        short = tmp_path / "short"  # no utterance holds a 7-frame window
        write_corpus(short, [Utterance(f"s{i}", np.ones((3, 2), np.float32)) for i in range(2)])
        other_dim = tmp_path / "dim3"
        write_corpus(other_dim, [Utterance("d0", np.ones((9, 3), np.float32))])
        # a short all-zero utterance is skipped as too short; a usable one is refused
        zero = tmp_path / "zero"
        write_corpus(zero, [Utterance(uid, np.full((n, 2), v, np.float32))
                            for uid, n, v in (("n0", 9, 1.0), ("s0", 3, 0.0), ("z0", 9, 0.0))])
        corpus, dev, message = {
            "dev_dimension": (corpus_dir, other_dim, "dev utterance 'd0' has dimension 3, expected 2"),
            "dev_too_short": (corpus_dir, short, "dev corpus has no usable utterances"),
            "corpus_too_short": (short, corpus_dir, "no usable utterances"),
            "dev_all_zero": (corpus_dir, zero, "dev utterance 'z0' has all-zero frames"),
            "corpus_all_zero": (zero, corpus_dir, "utterance 'z0' has all-zero frames"),
        }[refusal]
        capsys.readouterr()
        rerun = argv + ["--corpus", str(corpus), "--dev-corpus", str(dev), "--seed", "9"]
        assert main(rerun) == 2
        assert message in capsys.readouterr().err
        assert files_under(out) == before

    @pytest.mark.parametrize("stop_after", ["5", "20"])
    def test_resume_stopping_at_or_before_its_checkpoint_is_usage_error(
        self, tmp_path, corpus_dir, capsys, stop_after
    ):
        cfg = write_json(tmp_path / "cfg.json", train_config())
        out = tmp_path / "o"
        argv = ["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--stop-after", "20"]) == 0
        before = files_under(out)
        capsys.readouterr()
        resume = ["--resume", str(out / "checkpoints" / "interrupted.itck")]
        assert main(argv + resume + ["--stop-after", stop_after]) == 1
        err = capsys.readouterr().err
        assert f"--stop-after {stop_after} does not pass the 20 utterances" in err
        assert files_under(out) == before

    def test_non_finite_feature_value_is_data_error(self, tmp_path, corpus_dir, capsys):
        uid = corpus_with_bad_value(corpus_dir, tmp_path / "nan", np.inf)
        cfg = write_json(tmp_path / "cfg.json", train_config())
        assert main(
            ["train", "--corpus", str(tmp_path / "nan"), "--config", str(cfg), "--out", str(tmp_path / "o")]
        ) == 2
        err = capsys.readouterr().err
        assert uid in err and "frame 5" in err and "Traceback" not in err


class TestEval:
    def test_trained_checkpoint_beats_chance(self, tmp_path, corpus_dir, run_dir):
        out = tmp_path / "eval"
        code = main(
            [
                "eval",
                "--corpus",
                str(corpus_dir),
                "--checkpoint",
                str(run_dir / "checkpoints" / "final.itck"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {
            "overall_acc",
            "covered_acc",
            "coverage",
            "agreement_rate",
            "mean_entropy_psi_bits",
            "mean_entropy_phi_bits",
            "live_symbols",
            "tags_used",
        }
        assert summary["overall_acc"] > 0.6  # 2 balanced classes, trained model
        assert summary["covered_acc"] >= summary["overall_acc"]
        lines = (out / "confusion.csv").read_text().splitlines()
        assert lines[0].startswith("predicted,")
        stats_lines = (out / "symbol_stats.csv").read_text().splitlines()
        assert stats_lines[0] == "symbol,avg_prob_psi,avg_prob_phi,live"
        assert len(stats_lines) == 1 + 8

    def test_eval_draws_no_random_initialization(self, tmp_path, corpus_dir, run_dir):
        # a loaded checkpoint's arrays are the model's values: nothing is
        # drawn, so numpy loads no random module
        argv = ["eval", "--corpus", str(corpus_dir), "--checkpoint",
                str(run_dir / "checkpoints" / "final.itck"), "--out", str(tmp_path / "eval")]
        code = (f"import sys; from itco import cli; assert cli.main({argv!r}) == 0; "
                "sys.exit('numpy.random' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code], env=module_env()).returncode == 0

    def test_uniform_checkpoint_scores_chance(self, tmp_path, corpus_dir):
        config = TrainConfig.from_json_dict(train_config())
        state = TrainState.fresh(config, input_dim=2)
        for _, p in state.ep.store.items():
            p.value[...] = 0.0
        ckpt = tmp_path / "uniform.itck"
        save_checkpoint(state, ckpt)
        out = tmp_path / "eval"
        assert main(
            ["eval", "--corpus", str(corpus_dir), "--checkpoint", str(ckpt), "--out", str(out)]
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        # one symbol everywhere -> accuracy is that tag's class share (~1/2)
        assert summary["overall_acc"] == pytest.approx(0.5, abs=0.15)
        assert summary["tags_used"] == 1
        assert summary["mean_entropy_psi_bits"] == pytest.approx(3.0, abs=1e-5)

    def test_encodes_each_window_once_per_side(self, tmp_path, corpus_dir, run_dir, monkeypatch):
        calls = []
        encode = EncoderParams.encode_node

        def counting(self, side, frames, tape=None):
            # a stacked call [B, N, L, d] holds B * N windows
            calls.append((side, int(np.prod(frames.shape[:-2])), tape is None))
            return encode(self, side, frames, tape)

        monkeypatch.setattr(EncoderParams, "encode_node", counting)
        assert main(
            ["eval", "--corpus", str(corpus_dir), "--checkpoint",
             str(run_dir / "checkpoints" / "final.itck"), "--out", str(tmp_path / "o")]
        ) == 0
        # 30 utterances of 4 * 7 frames, each with 28 - 7 + 1 stride-1 windows
        assert sum(rows for _, rows, _ in calls) == 2 * 30 * 22
        assert sum(rows for side, rows, _ in calls if side == "confirm") == 30 * 22
        assert all(untaped for _, _, untaped in calls)
        assert max(rows for _, rows, _ in calls) <= max(STACK_WINDOWS, 22)

    def test_corpus_without_gold_labels_fails_before_encoding(
        self, tmp_path, corpus_dir, run_dir, monkeypatch, capsys
    ):
        import shutil

        unlabeled = tmp_path / "unlabeled"
        shutil.copytree(corpus_dir, unlabeled)
        manifest = unlabeled / "manifest.tsv"

        def without_labels(line):
            fields = line.split("\t")
            return line if line.startswith("#") else "\t".join(fields[:2] + [""] + fields[3:])

        manifest.write_text("\n".join(map(without_labels, manifest.read_text().splitlines())) + "\n")
        assert "labels/" not in manifest.read_text()
        calls = []
        monkeypatch.setattr(EncoderParams, "encode_node", lambda *a, **k: calls.append(a))
        out = tmp_path / "o"
        assert main(
            ["eval", "--corpus", str(unlabeled), "--checkpoint",
             str(run_dir / "checkpoints" / "final.itck"), "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert "no evaluable frames (no labeled frame carries a gold label)" in err
        assert not (out / "summary.json").exists()
        assert calls == []

    def test_corpus_without_a_full_window_leaves_no_manifest(self, tmp_path, run_dir, capsys):
        short = tmp_path / "short"
        frames = np.eye(2)[np.arange(5) % 2]  # 5 frames; a window needs 7
        write_corpus(short, [Utterance("u0", frames, np.zeros(5, np.int32))], ("a",))
        out = tmp_path / "o"
        assert main(
            ["eval", "--corpus", str(short), "--checkpoint",
             str(run_dir / "checkpoints" / "final.itck"), "--out", str(out)]
        ) == 2
        assert "no full windows in the corpus" in capsys.readouterr().err
        assert not (out / "run_manifest.json").exists()

    def test_non_finite_feature_value_is_data_error(self, tmp_path, corpus_dir, run_dir, capsys):
        uid = corpus_with_bad_value(corpus_dir, tmp_path / "nan")
        assert main(
            ["eval", "--corpus", str(tmp_path / "nan"), "--checkpoint",
             str(run_dir / "checkpoints" / "final.itck"), "--out", str(tmp_path / "o")]
        ) == 2
        err = capsys.readouterr().err
        assert uid in err and "frame 5" in err and "Traceback" not in err

    def test_dimension_mismatch_is_data_error(self, tmp_path, corpus_dir):
        config = TrainConfig(
            geometry=WindowGeometry(total=7, past=3, gap=1, future=3),
            alphabet_size=8,
            hidden_dim=8,
            lr_schedule=((1, 0.4),),
            clone_at=0,
        )
        state = TrainState.fresh(config, input_dim=5)  # corpus features have d=2
        ckpt = tmp_path / "wide.itck"
        save_checkpoint(state, ckpt)
        assert main(
            ["eval", "--corpus", str(corpus_dir), "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")]
        ) == 2

    @pytest.mark.parametrize("case", ["overflowing", "nan"])
    def test_non_finite_checkpoint_is_data_error_naming_it(self, tmp_path, capsys, case):
        corpus = tmp_path / "corpus"
        spec = write_json(tmp_path / "spec.json", identity_spec(seed=0, utterances=1))
        assert main(["synth", "--spec", str(spec), "--out", str(corpus)]) == 0
        doc = {"geometry": {"total": 7, "past": 3, "gap": 1, "future": 3}, "alphabet_size": 4,
               "hidden_dim": 4, "lr_schedule": [[2, 1e30]], "clone_at": 1, "seed": 0}
        if case == "overflowing":
            # step 2 diverges, after step 1's update is saved as the epoch checkpoint:
            # finite parameters whose logits overflow float32
            cfg = write_json(tmp_path / "cfg.json", doc)
            run = tmp_path / "run"
            assert main(["train", "--corpus", str(corpus), "--config", str(cfg), "--out", str(run)]) == 2
            ckpt = run / "checkpoints" / "epoch_0000.itck"
            arrays = np.concatenate([a.ravel() for a in load_checkpoint(ckpt).ep.named_arrays().values()])
            assert np.isfinite(arrays).all() and np.abs(arrays).max() > 1e20
        else:
            state = TrainState.fresh(TrainConfig.from_json_dict(doc), input_dim=2)
            state.ep.store["out.b"].value[0, 1] = np.nan
            ckpt = tmp_path / "nan.itck"
            save_checkpoint(state, ckpt)
        capsys.readouterr()
        out = tmp_path / "eval"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings would only repeat the error
            assert main(["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt), "--out", str(out)]) == 2
        assert f"checkpoint {ckpt} gives a non-finite value" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_with_global_entropy_under_the_adversarial_mode_is_data_error(
        self, tmp_path, corpus_dir, run_dir, capsys
    ):
        # an older checkpoint's config names its mode, and this pair trained
        # an objective that no longer exists
        ckpt = with_older_mode(run_dir, tmp_path / "pair.itck", "adversarial", "global")
        out = tmp_path / "o"
        assert main(["eval", "--corpus", str(corpus_dir), "--checkpoint", str(ckpt), "--out", str(out)]) == 2
        assert "trained under mode 'adversarial' with entropy_mode 'global'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, entropy_mode", [("adversarial", "per_utterance"), ("base", "global")])
    def test_checkpoint_of_a_removed_objective_is_data_error(
        self, tmp_path, corpus_dir, run_dir, capsys, mode, entropy_mode
    ):
        # refused by eval, and by a resumed train before it writes anything
        ckpt = with_older_mode(run_dir, tmp_path / "older.itck", mode, entropy_mode)
        cfg = write_json(tmp_path / "cfg.json", dict(train_config(), entropy_mode=entropy_mode))
        out = tmp_path / "o"
        for argv in (["eval", "--checkpoint", str(ckpt)],
                     ["train", "--config", str(cfg), "--resume", str(ckpt)]):
            assert main([*argv, "--corpus", str(corpus_dir), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"trained under mode {mode!r} with entropy_mode {entropy_mode!r}" in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "fields, named",
        [({"stride": 1}, "unknown field(s) 'stride'"),
         ({"geometry": {"total": 7, "stride": 1}}, "geometry: unknown field(s) 'stride'"),
         ({"lr_schedule": [[2, 0.4, 3]]}, "lr_schedule")],
        ids=["unknown_field", "unknown_geometry_field", "schedule_triple"],
    )
    def test_checkpoint_with_a_refused_config_is_data_error_naming_the_field(
        self, tmp_path, corpus_dir, run_dir, capsys, fields, named
    ):
        raw = (run_dir / "checkpoints" / "final.itck").read_bytes()
        ckpt = with_header_config(raw, tmp_path / "refused.itck", **fields)
        out = tmp_path / "o"
        assert main(["eval", "--corpus", str(corpus_dir), "--checkpoint", str(ckpt), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"checkpoint config is invalid: {ckpt}: " in err and named in err
        assert not out.exists()

    def test_a_base_checkpoint_of_the_older_layout_evaluates_as_in_the_current_one(
        self, tmp_path, corpus_dir
    ):
        # its config names the base mode and it holds a marginal.logits array;
        # saved again, it holds neither, and eval writes the same bytes
        current = tmp_path / "current.itck"
        save_checkpoint(load_checkpoint(LEGACY_MID_EPOCH_CHECKPOINT), current)
        written = []
        for ckpt in (LEGACY_MID_EPOCH_CHECKPOINT, current):
            out = tmp_path / ckpt.stem
            argv = ["eval", "--corpus", str(corpus_dir), "--checkpoint", str(ckpt), "--out", str(out)]
            assert main(argv) == 0
            written.append([(out / name).read_bytes() for name in EVAL_FILES])
        assert written[0] == written[1]

    def test_corrupt_checkpoint_is_data_error(self, tmp_path, corpus_dir, run_dir):
        good = (run_dir / "checkpoints" / "final.itck").read_bytes()
        bad = tmp_path / "bad.itck"
        bad.write_bytes(good[:-1] + bytes([good[-1] ^ 0xFF]))
        assert main(
            ["eval", "--corpus", str(corpus_dir), "--checkpoint", str(bad), "--out", str(tmp_path / "o")]
        ) == 2


    @pytest.mark.parametrize(
        "case, named",
        [
            ("swapped_shape", "confirm.gru.w_r"),
            ("missing_epoch_max_confirm", "epoch_max_confirm"),
            ("missing_entropy_buffer", "entropy_buffer"),
            ("header_not_json", "not valid JSON"),
        ],
    )
    def test_foreign_checkpoint_with_valid_crc_is_data_error(
        self, tmp_path, corpus_dir, run_dir, capsys, case, named
    ):
        raw = (run_dir / "checkpoints" / "final.itck").read_bytes()
        header_len = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
        header = json.loads(raw[12 : 12 + header_len])
        offset, blobs = 12 + header_len, {}
        for entry in header["arrays"]:
            size = 4 * int(np.prod(entry["shape"]))
            blobs[entry["name"]] = raw[offset : offset + size]
            offset += size
        if case == "swapped_shape":
            entry = next(e for e in header["arrays"] if e["name"] == named)
            entry["shape"] = entry["shape"][::-1]
        elif case.startswith("missing_"):
            header["arrays"] = [e for e in header["arrays"] if e["name"] != named]
        header_bytes = b"{not json" if case == "header_not_json" else json.dumps(header).encode()
        body = (
            raw[:4]
            + np.asarray([1, len(header_bytes)], dtype="<u4").tobytes()
            + header_bytes
            + b"".join(blobs[e["name"]] for e in header["arrays"])
        )
        foreign = tmp_path / "foreign.itck"
        foreign.write_bytes(body + np.asarray([zlib.crc32(body)], dtype="<u4").tobytes())
        assert main(
            ["eval", "--corpus", str(corpus_dir), "--checkpoint", str(foreign),
             "--out", str(tmp_path / "o")]
        ) == 2
        assert named in capsys.readouterr().err


def test_empty_manifest_is_data_error_naming_it(tmp_path, corpus_dir, run_dir, capsys):
    # a manifest holding only comments fails before any work, as train,
    # as a train dev corpus and as eval
    empty = tmp_path / "empty" / "manifest.tsv"
    empty.parent.mkdir()
    empty.write_text("# aligned_windows=1\n\n")
    cfg = write_json(tmp_path / "cfg.json", train_config())
    checkpoint = run_dir / "checkpoints" / "final.itck"
    commands = {
        "train": ["train", "--corpus", str(empty), "--config", str(cfg)],
        "train_dev": ["train", "--corpus", str(corpus_dir), "--dev-corpus", str(empty.parent),
                      "--config", str(cfg)],
        "eval": ["eval", "--corpus", str(empty), "--checkpoint", str(checkpoint)],
    }
    for name, argv in commands.items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 2, name
        err = capsys.readouterr().err
        assert f"manifest lists no utterances: {empty}" in err, name
        metrics = out / "metrics.jsonl"
        assert not metrics.exists() or metrics.read_text() == "", name


@pytest.mark.parametrize("victim", ["label_file", "manifest"])
def test_non_utf8_corpus_text_is_data_error_naming_the_file(
    tmp_path, corpus_dir, run_dir, capsys, victim
):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(corpus_dir, broken)
    if victim == "label_file":
        path = sorted((broken / "labels").iterdir())[0]
        path.write_bytes(path.read_bytes() + b"\xff\xfe")
    else:
        path = broken / "manifest.tsv"
        path.write_bytes(path.read_bytes() + b"# junk=\xff\n")
    cfg = write_json(tmp_path / "cfg.json", train_config())
    checkpoint = run_dir / "checkpoints" / "final.itck"
    for argv in (["train", "--config", str(cfg)], ["eval", "--checkpoint", str(checkpoint)]):
        out = tmp_path / argv[0]
        assert main(argv + ["--corpus", str(broken), "--out", str(out)]) == 2, argv[0]
        err = capsys.readouterr().err
        assert f"{path} is not UTF-8 text" in err and "Traceback" not in err, argv[0]
        assert not out.exists(), argv[0]


@pytest.mark.parametrize("column", [1, 2])
def test_nul_byte_in_a_manifest_path_is_data_error_naming_the_row(
    tmp_path, corpus_dir, run_dir, capsys, column
):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(corpus_dir, broken)
    manifest = broken / "manifest.tsv"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if not line.startswith("#"))
    fields = lines[lineno - 1].split("\t")
    fields[column] = "\0" + fields[column]
    lines[lineno - 1] = "\t".join(fields)
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = write_json(tmp_path / "cfg.json", train_config())
    checkpoint = run_dir / "checkpoints" / "final.itck"
    for argv in (["train", "--config", str(cfg)], ["eval", "--checkpoint", str(checkpoint)]):
        out = tmp_path / argv[0]
        assert main(argv + ["--corpus", str(broken), "--out", str(out)]) == 2, argv[0]
        err = capsys.readouterr().err
        assert err == (
            f"error: utterance {fields[0]!r}: manifest line {lineno} names a path "
            f"that holds a NUL byte\n"
        ), argv[0]
        assert not out.exists(), argv[0]


def test_train_and_eval_read_each_corpus_file_once(tmp_path, corpus_dir, run_dir, monkeypatch):
    dev = tmp_path / "dev"
    assert main(["synth", "--spec", str(write_json(tmp_path / "s.json", identity_spec(utterances=3))),
                 "--out", str(dev)]) == 0
    # the manifest and every feature and label file it lists
    listed = {
        p.resolve()
        for root in (corpus_dir, dev)
        for p in [root / "manifest.tsv", *root.glob("features/*"), *root.glob("labels/*")]
    }
    opened = []
    path_open, builtin_open = Path.open, builtins.open

    def counting_path_open(self, *args, **kwargs):
        opened.append(self.resolve())
        return path_open(self, *args, **kwargs)

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(Path(file).resolve())
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_path_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    cfg = write_json(tmp_path / "cfg.json", train_config())
    assert main(["train", "--corpus", str(corpus_dir), "--dev-corpus", str(dev), "--config", str(cfg),
                 "--out", str(tmp_path / "t"), "--stop-after", "1"]) == 0
    reads = [p for p in opened if p in listed]
    assert sorted(reads) == sorted(listed)
    opened.clear()
    assert main(["eval", "--corpus", str(corpus_dir), "--checkpoint",
                 str(run_dir / "checkpoints" / "final.itck"), "--out", str(tmp_path / "e")]) == 0
    reads = [p for p in opened if p in listed]
    assert sorted(reads) == sorted(p for p in listed if p.is_relative_to(corpus_dir.resolve()))


def test_every_gru_pass_starts_inside_encode_node(tmp_path, corpus_dir, run_dir, monkeypatch):
    # the benchmark's set-up probe stops the clock at the first
    # EncoderParams.encode_node call, so no GRU pass of train (minibatches,
    # cloning's detection, dev evaluation) in either entropy mode or of
    # eval may run outside one
    depth, inside, outside = [0], [], []
    encode, sequence = EncoderParams.encode_node, nm.gru_sequence

    def entered(self, *args, **kwargs):
        depth[0] += 1
        try:
            return encode(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    def counted(tape, p, frames, **side):
        (inside if depth[0] else outside).append(tape is not None)
        return sequence(tape, p, frames, **side)

    monkeypatch.setattr(EncoderParams, "encode_node", entered)
    monkeypatch.setattr(nm, "gru_sequence", counted)
    dev = tmp_path / "dev"
    assert main(["synth", "--spec", str(write_json(tmp_path / "s.json", identity_spec(utterances=3))),
                 "--out", str(dev)]) == 0
    for mode in ("per_utterance", "global"):
        cfg = write_json(tmp_path / f"{mode}.json", {**train_config(), "entropy_mode": mode})
        assert main(["train", "--corpus", str(corpus_dir), "--dev-corpus", str(dev), "--config", str(cfg),
                     "--out", str(tmp_path / mode), "--stop-after", "120"]) == 0
    assert main(["eval", "--corpus", str(corpus_dir), "--checkpoint",
                 str(run_dir / "checkpoints" / "final.itck"), "--out", str(tmp_path / "e")]) == 0
    assert outside == []
    assert True in inside and False in inside


def test_corpus_hash_is_sha256_of_manifest_then_listed_files(corpus_dir, run_dir):
    # the manifest bytes, then each row's feature file and label file
    manifest = corpus_dir / "manifest.tsv"
    digest = hashlib.sha256(manifest.read_bytes())
    for row in manifest.read_text().splitlines():
        if row and not row.startswith("#"):
            for rel in row.split("\t")[1:3]:
                if rel:
                    digest.update((corpus_dir / rel).read_bytes())
    expected = digest.hexdigest()
    assert load_corpus(corpus_dir).hash == expected
    assert json.loads((run_dir / "run_manifest.json").read_text())["corpus_hash"] == expected
    assert load_checkpoint(run_dir / "checkpoints" / "final.itck").corpus_hash == expected


class TestGradcheck:
    def test_fresh_build_passes(self):
        assert main(["gradcheck", "--seed", "0"]) == 0

    def test_only_the_gradcheck_command_imports_it(self):
        # so `itco train` and `itco eval` do not load the module at start-up
        code = "import sys, itco.cli; sys.exit('itco.gradcheck' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=module_env()).returncode == 0

    def test_corrupted_gradient_fails(self, monkeypatch, capsys):
        # a tanh whose backward is 1.5 times too large must fail the check
        def broken_tanh(tape, a):
            value = np.tanh(a.value)
            out = nm.Node(value)
            if tape is not None:
                tape._record(out, lambda g: nm._acc(a, 1.5 * g * (1.0 - value * value)))
            return out

        cases = gradcheck.gradcheck_cases
        monkeypatch.setattr(
            gradcheck,
            "gradcheck_cases",
            lambda seed: cases(seed) + [gradcheck.simple_case(seed, "broken_tanh", broken_tanh, (6,))],
        )
        assert main(["gradcheck", "--seed", "0"]) == 3
        assert "gradcheck FAILED: broken_tanh" in capsys.readouterr().out

    def test_report_written_when_out_given(self, tmp_path):
        out = tmp_path / "report"
        assert main(["gradcheck", "--seed", "1", "--out", str(out)]) == 0
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["failed"] == []
        assert {"utterance_loss", "utterance_loss_global"} <= set(
            report["results"]
        )
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"] == {"tolerance": 1e-3}


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["gradcheck", "--seed", "-1"],
            ["synth", "--spec", "spec.json", "--seed", "-1"],
            ["train", "--corpus", "data", "--seed", "-1"],
            ["train", "--corpus", "data", "--stop-after", "0"],
            ["train", "--corpus", "data", "--stop-after", "-3"],
        ],
        ids=["gradcheck_seed", "synth_seed", "train_seed", "stop_after_zero", "stop_after_negative"],
    )
    def test_out_of_range_integer_flag_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 1
        assert "must be an integer >= " in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_flag(self):
        assert main(["synth", "--out", "/tmp/x"]) == 1

    @pytest.mark.parametrize("argv", [["--mode", "adversarial"], ["--entropy-mode", "global"]])
    def test_train_takes_its_modes_only_from_the_config(self, tmp_path, capsys, corpus_dir, argv):
        assert main(["train", "--help"]) == 0
        assert argv[0] not in capsys.readouterr().out
        out = tmp_path / "o"
        assert main(["train", "--corpus", str(corpus_dir), "--out", str(out), *argv]) == 1
        assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err
        assert not out.exists()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "itco" in capsys.readouterr().out

    def test_runs_as_a_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "itco", "--help"], env=module_env(), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "usage: itco" in proc.stdout
