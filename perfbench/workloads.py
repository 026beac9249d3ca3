"""The benchmark's workloads: their inputs, the command each one times, and
the checks on that command's outputs.

Every corpus is a synthetic identity corpus: 4 latent classes seen through
identity channels as 4-dimensional one-hot frames, so the true mutual
information is exactly 2 bits. Each utterance is 18 generated windows of
35 frames (630 frames), which gives 18 aligned or 596 stride-1 windows.
The model is the paper's size: hidden 64, alphabet 64. ``tiny`` shrinks
every workload so that the self-tests run in seconds.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable

TRUE_MI_BITS = 2.0
DPI_SLACK_BITS = 0.05  # optimizer noise allowed above the true MI
GEOMETRY = {"total": 35, "past": 15, "gap": 5, "future": 15}
FRAMES_PER_UTTERANCE = 18 * GEOMETRY["total"]
STRIDE1_WINDOWS = FRAMES_PER_UTTERANCE - GEOMETRY["total"] + 1  # 596
ALIGNED_WINDOWS = len(range(0, STRIDE1_WINDOWS, GEOMETRY["total"]))  # 18
CORPUS_SEED_OFFSET = {"train": 1, "dev": 2, "eval": 3, "fit": 4}

# runs one itco CLI command (outside any timing) and raises if it fails
RunItco = Callable[[list], None]


class InputError(Exception):
    """The generated inputs are not what the workload needs."""


def synth_spec(num_utterances: int, seed: int) -> dict:
    eye = [[float(i == j) for j in range(4)] for i in range(4)]
    return {
        "num_latent": 4,
        "x_channel": eye,
        "y_channel": eye,
        "latent_prior": [0.25] * 4,
        "frames_per_side": 15,
        "gap": 5,
        "jitter_sigma": 0.0,
        "num_utterances": num_utterances,
        "windows_per_utterance": 18,
        "seed": seed,
    }


def make_corpus(itco: RunItco, work: Path, role: str, utterances: int, seed: int) -> str:
    """Synthesize one corpus; returns its manifest path."""
    spec = work / f"spec.{role}.json"
    spec.write_text(json.dumps(synth_spec(utterances, seed * 8 + CORPUS_SEED_OFFSET[role])))
    out = work / f"corpus.{role}"
    itco(["synth", "--spec", str(spec), "--out", str(out)])
    oracle = json.loads((out / "oracle.json").read_text(encoding="utf-8"))
    if oracle["true_mi_bits"] != TRUE_MI_BITS:
        raise InputError(f"{role} corpus oracle gives {oracle['true_mi_bits']!r} bits, not 2.0")
    return str(out / "manifest.tsv")


def write_config(work: Path, name: str, seed: int, tiny: bool, **fields) -> str:
    doc = {
        "geometry": GEOMETRY,
        "alphabet_size": 8 if tiny else 64,
        "hidden_dim": 8 if tiny else 64,
        "seed": seed,
        **fields,
    }
    path = work / f"config.{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _records(out: Path) -> list[dict]:
    lines = (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


def _finite(record: dict) -> bool:
    return all(
        math.isfinite(v) for v in record.values()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    )


class TrainWorkload:
    """``itco train`` on aligned windows over one corpus, with a dev corpus;
    each utterance is one minibatch.

    Sizes and schedules are (full, tiny) pairs, indexed by the tiny flag.
    """

    compared = ("metrics.jsonl",)
    labels_frames = False

    def __init__(self, name, why, utterances, tiny_utterances, dev_utterances,
                 tiny_dev_utterances, schedule, tiny_schedule, clone_at):
        self.name, self.why = name, why
        self.utterances = (utterances, tiny_utterances)
        self.dev_utterances = (dev_utterances, tiny_dev_utterances)
        self.schedule = (schedule, tiny_schedule)
        self.clone_at = clone_at

    def prepare(self, itco: RunItco, work: Path, seed: int, tiny: bool) -> dict:
        schedule = self.schedule[tiny]
        n = self.utterances[tiny]
        budget = schedule[-1][0] * 100
        return {
            "corpus.train": make_corpus(itco, work, "train", n, seed),
            "corpus.dev": make_corpus(itco, work, "dev", self.dev_utterances[tiny], seed),
            "config": write_config(
                work, "train", seed, tiny, aligned_windows=True, lr_schedule=schedule,
                clone_at=0 if tiny else self.clone_at,
            ),
            "budget": budget,
            "epochs": math.ceil(budget / n),
        }

    def argv(self, inputs: dict, out: Path) -> list[str]:
        return ["train", "--corpus", inputs["corpus.train"], "--config", inputs["config"],
                "--dev-corpus", inputs["corpus.dev"], "--out", str(out)]

    def minibatches(self, out: Path) -> int:
        return sum(r["type"] == "minibatch" for r in _records(out))

    def windows(self, inputs: dict, out: Path) -> int:
        """Windows fed to minibatches."""
        return self.minibatches(out) * ALIGNED_WINDOWS

    def check(self, inputs: dict, out: Path) -> list[str]:
        problems = []
        records = _records(out)
        minibatches = sum(r["type"] == "minibatch" for r in records)
        if minibatches != inputs["budget"]:
            problems.append(f"{minibatches} minibatch records, expected {inputs['budget']}")
        epochs = [r for r in records if r["type"] == "epoch"]
        if len(epochs) != inputs["epochs"]:
            problems.append(f"{len(epochs)} epoch records, expected {inputs['epochs']}")
        for r in epochs:
            if not _finite(r):
                problems.append(f"epoch {r.get('epoch')} record has a non-finite value")
            bound = r.get("dev_mi_bound_bits")
            if bound is None or not bound <= TRUE_MI_BITS + DPI_SLACK_BITS:
                problems.append(f"epoch {r.get('epoch')}: dev_mi_bound_bits {bound} "
                                f"exceeds the true MI {TRUE_MI_BITS} + {DPI_SLACK_BITS}")
        if sum(r["type"] == "clone" for r in records) != 1:
            problems.append("expected exactly one clone record")
        expected = [f"epoch_{e:04d}.itck" for e in range(inputs["epochs"])] + ["final.itck"]
        missing = [name for name in expected if not (out / "checkpoints" / name).is_file()]
        if missing:
            problems.append(f"missing checkpoints {missing}")
        return problems


class EvalWorkload:
    """``itco eval`` with a checkpoint trained while the inputs are prepared.

    Sizes are (full, tiny) pairs, indexed by the tiny flag.
    """

    name = "eval-stride1"
    why = ("itco eval over all stride-1 windows of 40 labeled utterances: forward-only, "
           "no tape; shows a training-only gain that costs inference")
    compared = ("summary.json", "confusion.csv", "symbol_stats.csv")
    labels_frames = True
    utterances = (40, 3)
    fit_utterances = (100, 4)

    def prepare(self, itco: RunItco, work: Path, seed: int, tiny: bool) -> dict:
        fit_corpus = make_corpus(itco, work, "fit", self.fit_utterances[tiny], seed)
        config = write_config(work, "fit", seed, tiny, aligned_windows=True,
                              lr_schedule=[[1, 0.4]], clone_at=0)
        fit_out = work / "fit"
        itco(["train", "--corpus", fit_corpus, "--config", config, "--out", str(fit_out)])
        return {
            "corpus.eval": make_corpus(itco, work, "eval", self.utterances[tiny], seed),
            "checkpoint": str(fit_out / "checkpoints" / "final.itck"),
            "utterances": self.utterances[tiny],
        }

    def argv(self, inputs: dict, out: Path) -> list[str]:
        return ["eval", "--corpus", inputs["corpus.eval"], "--checkpoint", inputs["checkpoint"],
                "--out", str(out)]

    def minibatches(self, out: Path) -> int:
        return 0

    def windows(self, inputs: dict, out: Path) -> int:
        """Distinct windows labeled: every stride-1 window of the corpus."""
        return inputs["utterances"] * STRIDE1_WINDOWS

    def check(self, inputs: dict, out: Path) -> list[str]:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        problems = [
            f"summary {key} = {summary.get(key)!r} is not a share"
            for key in ("overall_acc", "covered_acc", "coverage", "agreement_rate")
            if not (isinstance(summary.get(key), float) and 0.0 <= summary[key] <= 1.0)
        ]
        for key in ("mean_entropy_psi_bits", "mean_entropy_phi_bits"):
            value = summary.get(key)
            if not (isinstance(value, float) and math.isfinite(value) and value >= 0.0):
                problems.append(f"summary {key} = {value!r} is not an entropy")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        # 200 utterances are 4 epochs of 50; cloning happens at 100. A quarter
        # of the acceptance shape (200 utterances, 100 dev, 600 minibatches)
        # keeps one command near 3 s, so that a run holds enough of them for
        # its fastest tenth to catch the host's undisturbed speed (see run._fast)
        TrainWorkload(
            "train-aligned",
            "acceptance shape at a quarter of its size, N=18 windows per minibatch: "
            "dispatch-bound; 4 epochs with dev eval, symbol detection, cloning and "
            "per-epoch checkpoints",
            utterances=50, tiny_utterances=10, dev_utterances=25, tiny_dev_utterances=4,
            schedule=[[1, 0.4], [2, 0.2]], tiny_schedule=[[1, 0.4]], clone_at=1,
        ),
        EvalWorkload(),
    )
}
