"""End-to-end command tests: exit codes, artifacts, determinism."""

import json
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from itco.cli import main, run_gradcheck
from itco.corpus import read_manifest_metadata, true_mi_oracle
from itco.trainer import TrainConfig, TrainState, save_checkpoint
from itco.corpus import WindowGeometry


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
        meta = read_manifest_metadata(corpus_dir / "manifest.tsv")
        assert meta["aligned_windows"] == "1"

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

    def test_seed_and_mode_flags_override_config(self, tmp_path, corpus_dir):
        cfg = write_json(tmp_path / "cfg.json", train_config(seed=3))
        out = tmp_path / "out"
        code = main(
            [
                "train",
                "--corpus",
                str(corpus_dir),
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--seed",
                "11",
                "--mode",
                "adversarial",
                "--entropy-mode",
                "global",
            ]
        )
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["config"]["mode"] == "adversarial"
        assert manifest["config"]["entropy_mode"] == "global"
        records = [
            json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()
        ]
        assert all(
            "adversarial_marginal_bits" in r for r in records if r["type"] == "minibatch"
        )

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_diverging_lr_is_data_error(self, tmp_path, corpus_dir, capsys):
        # the error names the step and the utterance; earlier records stay on disk
        doc = train_config()
        doc["lr_schedule"] = [[1, 1e30]]
        doc["clone_at"] = 0
        cfg = write_json(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        assert main(
            ["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(out)]
        ) == 2
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

    def test_bad_config_is_usage_error(self, tmp_path, corpus_dir):
        doc = train_config()
        doc["lr_schedule"] = []
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(
            ["train", "--corpus", str(corpus_dir), "--config", str(cfg), "--out", str(tmp_path / "o")]
        ) == 1

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

    def test_uniform_checkpoint_scores_chance(self, tmp_path, corpus_dir):
        config = TrainConfig.from_json_dict(train_config())
        state = TrainState(config, input_dim=2)
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

    def test_dimension_mismatch_is_data_error(self, tmp_path, corpus_dir):
        config = TrainConfig(
            geometry=WindowGeometry(total=7, past=3, gap=1, future=3),
            alphabet_size=8,
            hidden_dim=8,
            lr_schedule=((1, 0.4),),
            clone_at=0,
        )
        state = TrainState(config, input_dim=5)  # corpus features have d=2
        ckpt = tmp_path / "wide.itck"
        save_checkpoint(state, ckpt)
        assert main(
            ["eval", "--corpus", str(corpus_dir), "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")]
        ) == 2

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


class TestGradcheck:
    def test_fresh_build_passes(self):
        assert main(["gradcheck", "--seed", "0"]) == 0

    def test_corrupted_gradient_fails(self):
        assert main(["gradcheck", "--seed", "0", "--inject-fault"]) == 3

    def test_linear_case_is_nearly_exact(self):
        # curvature-free ops leave only floating-point rounding in the
        # central difference, orders of magnitude below the tolerance
        results = dict(run_gradcheck(seed=0))
        assert results["linear"] < 1e-8
        assert results["add"] < 1e-8

    def test_report_written_when_out_given(self, tmp_path):
        out = tmp_path / "report"
        assert main(["gradcheck", "--seed", "1", "--out", str(out)]) == 0
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["failed"] == []
        assert "utterance_loss" in report["results"]
        assert (out / "run_manifest.json").exists()


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["synth", "--out", "/tmp/x"]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "itco" in capsys.readouterr().out
