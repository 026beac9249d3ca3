"""Command-line entry point: synth, train, eval, and gradcheck subcommands.

Every command that writes files drops a run_manifest.json into its output
directory before any of its outputs (config snapshot, seed, input corpus
hash, planned artifact paths, tool version) so any output can be
reproduced byte-for-byte from the manifest alone. ``train --resume`` into
a directory that holds an earlier leg's train manifest keeps every earlier
leg, oldest first, under ``earlier_legs``.

``train`` and ``eval`` take each corpus from one ``corpus.load_corpus``
call, which reads every corpus file once and yields the corpus hash along
with the utterances, their label names and the manifest metadata.

Exit codes: 0 success, 1 usage error, 2 data error, 3 check failure, and
128 + the signal number (130 SIGINT, 143 SIGTERM) for an interrupted run.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .corpus import (
    Corpus,
    CorpusError,
    SyntheticSpec,
    load_corpus,
    replace_file,
    synth_corpus,
    true_mi_oracle,
    write_corpus,
)
from .evaluation import (
    NO_EVALUABLE_FRAMES,
    EvaluationError,
    reduce_corpus,
    score,
    write_confusion_csv,
    write_symbol_stats_csv,
)
from .numerics import NonFiniteError
from .trainer import (
    Interrupted, TrainConfig, TrainerError, check_inputs, load_checkpoint, train
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3
EXIT_SIGNAL = 128  # plus the signal number, as a shell reports a death by that signal

GRADCHECK_TOLERANCE = 1e-3


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = EXIT_DATA):
        super().__init__(message)
        self.exit_code = exit_code


def _load_json(path: Path, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {what} {path}: {exc}", EXIT_USAGE)
    except json.JSONDecodeError as exc:
        raise CliError(f"{what} {path} is not valid JSON: {exc}", EXIT_DATA)


def _dump_json(doc: dict, path: Path) -> None:
    replace_file(path, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def write_run_manifest(
    out_dir: Path,
    command: str,
    config_snapshot: dict,
    seed: Optional[int],
    input_corpus_hash: Optional[str],
    artifact_paths: list[str],
    earlier_legs: Optional[list[dict]] = None,
) -> Path:
    doc = {
        "command": command,
        "config": config_snapshot,
        "seed": seed,
        "corpus_hash": input_corpus_hash,
        "artifacts": sorted(artifact_paths),
        "tool_version": __version__,
    }
    if earlier_legs:
        doc["earlier_legs"] = earlier_legs
    path = Path(out_dir) / "run_manifest.json"
    _dump_json(doc, path)
    return path


def _train_legs(out_dir: Path) -> list[dict]:
    """Every leg an existing train manifest in ``out_dir`` records, oldest first."""
    path = Path(out_dir) / "run_manifest.json"
    if not path.exists():
        return []
    doc = _load_json(path, "run manifest")
    if not isinstance(doc, dict) or doc.get("command") != "train":
        return []
    return [*doc.pop("earlier_legs", []), doc]


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    spec_doc = _load_json(Path(args.spec), "synthetic spec")
    if not isinstance(spec_doc, dict):
        raise CliError(f"bad synthetic spec: {args.spec} holds no JSON object", EXIT_DATA)
    if args.seed is not None:
        spec_doc["seed"] = args.seed
    try:
        spec = SyntheticSpec.from_json_dict(spec_doc)
    except (TypeError, ValueError, KeyError) as exc:
        raise CliError(f"bad synthetic spec: {exc}", EXIT_DATA)

    try:
        utterances, joint_table = synth_corpus(spec)
    except MemoryError:
        raise CliError(
            f"bad synthetic spec: num_utterances {spec.num_utterances} and windows_per_utterance "
            f"{spec.windows_per_utterance} ({spec.window_total} frames a window) need more "
            f"memory than can be allocated", EXIT_DATA
        ) from None

    # written once synthesis has succeeded, so a refused spec leaves no output
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_run_manifest(
        out,
        "synth",
        spec.to_json_dict(),
        spec.seed,
        None,
        ["manifest.tsv", "oracle.json", "features/", "labels/"],
    )
    write_corpus(
        out,
        utterances,
        spec.labels,
        metadata={
            "generator": "synthetic",
            "aligned_windows": "1",
            "window_total": str(spec.window_total),
            "seed": str(spec.seed),
        },
    )
    mi = true_mi_oracle(joint_table)
    _dump_json(
        {"true_mi_bits": mi, "joint_table": joint_table.tolist()},
        out / "oracle.json",
    )
    print(
        f"synth: {len(utterances)} utterances, alphabet {spec.alphabet_size}, "
        f"true_mi_bits={mi:.6f} -> {out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def _train_config_from_args(args, manifest_meta: dict[str, str]) -> TrainConfig:
    doc = _load_json(Path(args.config), "train config") if args.config else {}
    if not isinstance(doc, dict):
        raise CliError(f"bad train config: {args.config} holds no JSON object", EXIT_USAGE)
    if args.seed is not None:
        doc["seed"] = args.seed
    if "aligned_windows" not in doc:
        # synthetic corpora mark their generated placements in the manifest
        doc["aligned_windows"] = manifest_meta.get("aligned_windows") == "1"
    try:
        return TrainConfig.from_json_dict(doc)
    except (TrainerError, TypeError, ValueError) as exc:
        raise CliError(f"bad train config: {exc}", EXIT_USAGE)


def _check_window_total(corpus: Corpus, config: TrainConfig) -> None:
    # aligned windows start every geometry.total frames, so they fall on a
    # synthetic corpus's generated placements only if its windows are that long
    total = corpus.metadata.get("window_total")
    if config.aligned_windows and total is not None and total != str(config.geometry.total):
        raise CliError(
            f"{corpus.manifest}: corpus window_total {total} differs from the config's "
            f"geometry total {config.geometry.total}, so aligned windows would "
            f"straddle the generated placements",
            EXIT_DATA,
        )


def cmd_train(args) -> int:
    corpus = load_corpus(args.corpus)
    config = _train_config_from_args(args, corpus.metadata)
    _check_window_total(corpus, config)
    dev = load_corpus(args.dev_corpus) if args.dev_corpus else None
    if dev is not None:
        _check_window_total(dev, config)

    resume_state = load_checkpoint(Path(args.resume)) if args.resume else None
    if resume_state and args.stop_after is not None and args.stop_after <= resume_state.processed:
        raise CliError(f"--stop-after {args.stop_after} does not pass the {resume_state.processed} "
                       f"utterances the resume checkpoint has already processed", EXIT_USAGE)
    # a refused run, an unallocatable fresh state included, leaves the run directory as it was
    try:
        state, usable, dev_usable = check_inputs(
            corpus.utterances, config, dev.utterances if dev else None, resume_state, corpus.hash
        )
    except MemoryError:
        raise CliError(
            f"bad train config: hidden_dim {config.hidden_dim} and alphabet_size "
            f"{config.alphabet_size} need more memory than can be allocated", EXIT_USAGE
        ) from None

    out = Path(args.out)
    checkpoint_dir = out / "checkpoints"
    metrics_path = out / "metrics.jsonl"
    out.mkdir(parents=True, exist_ok=True)
    snapshot = config.to_json_dict()
    if dev is not None:
        snapshot["dev_corpus_hash"] = dev.hash
    if args.resume:
        snapshot["resumed_from"] = str(args.resume)
    artifacts = ["metrics.jsonl", "checkpoints/"]
    legs = _train_legs(out) if args.resume else None
    write_run_manifest(out, "train", snapshot, config.seed, corpus.hash, artifacts, legs)

    try:
        state, last_epoch = train(
            usable,
            config,
            dev_corpus=dev_usable,
            metrics_path=metrics_path,
            checkpoint_dir=checkpoint_dir,
            resume=state,
            stop_after=args.stop_after,
            corpus_hash=corpus.hash,
        )
    except Interrupted as exc:
        print(f"{exc}; resume with --resume {checkpoint_dir / 'interrupted.itck'}", file=sys.stderr)
        return EXIT_SIGNAL + exc.signum
    line = (f"train: processed {state.processed} utterances over {state.epoch} epochs, "
            f"live symbols {int(state.live_mask.sum())}")
    if last_epoch is not None:
        line += f", last epoch mi_bound {last_epoch['mean_mi_bound_bits']:.4f} bits"
    print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    state = load_checkpoint(Path(args.checkpoint))
    corpus = load_corpus(args.corpus)
    dims = {u.frames.shape[1] for u in corpus.utterances}
    if dims != {state.ep.input_dim}:
        raise CliError(
            f"corpus feature dimension {sorted(dims)} does not match "
            f"checkpoint input dimension {state.ep.input_dim}",
            EXIT_DATA,
        )
    if all(u.gold is None for u in corpus.utterances):
        raise EvaluationError(NO_EVALUABLE_FRAMES)

    # parameters that overflow make numpy warn before softmax refuses the
    # logits; the error below is the report, so the warnings would only repeat it
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            reduction = reduce_corpus(state.ep, corpus.utterances, state.config.geometry, aligned=False)
    except NonFiniteError as exc:
        raise CliError(f"checkpoint {args.checkpoint} gives a non-finite value: {exc}", EXIT_DATA) from None
    confusion, overall_acc, covered_acc, coverage, tags_used = score(
        reduction.symbols, reduction.gold, corpus.labels
    )

    # written only once the reduction and the scoring have succeeded, so a
    # refused corpus leaves no manifest listing outputs that do not exist
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_run_manifest(
        out,
        "eval",
        {"checkpoint": str(args.checkpoint), "train_config": state.config.to_json_dict()},
        state.config.seed,
        corpus.hash,
        ["summary.json", "confusion.csv", "symbol_stats.csv"],
    )

    entropy_psi, entropy_phi = reduction.mean_entropy_bits().tolist()
    summary = {
        "overall_acc": overall_acc,
        "covered_acc": covered_acc,
        "coverage": coverage,
        "agreement_rate": reduction.agreement,
        "mean_entropy_psi_bits": entropy_psi,
        "mean_entropy_phi_bits": entropy_phi,
        "live_symbols": int(state.live_mask.sum()),
        "tags_used": tags_used,
    }
    _dump_json(summary, out / "summary.json")
    write_confusion_csv(confusion, out / "confusion.csv")
    write_symbol_stats_csv(reduction, out / "symbol_stats.csv", live_mask=state.live_mask)
    print(
        f"eval: overall_acc={overall_acc:.4f} covered_acc={covered_acc:.4f} "
        f"coverage={coverage:.4f} agreement={reduction.agreement:.4f} -> {out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args) -> int:
    # imported here, so `train` and `eval` do not load it at start-up
    from .gradcheck import run_gradcheck

    results = run_gradcheck(args.seed)
    failed = [name for name, err in results if not err < GRADCHECK_TOLERANCE]
    for name, err in results:
        status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{status:4s} {name:24s} max_rel_err={err:.3e}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_run_manifest(
            out,
            "gradcheck",
            {"tolerance": GRADCHECK_TOLERANCE},
            args.seed,
            None,
            ["gradcheck.json"],
        )
        _dump_json(
            {
                "tolerance": GRADCHECK_TOLERANCE,
                "results": {name: err for name, err in results},
                "failed": failed,
            },
            out / "gradcheck.json",
        )
    if failed:
        print(f"gradcheck FAILED: {', '.join(failed)}")
        return EXIT_CHECK
    print(f"gradcheck passed: {len(results)} cases under {GRADCHECK_TOLERANCE:g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage problems; the contract reserves
    # 2 for data errors, so usage failures are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(lo: int):
    """An argparse ``type=`` taking an integer >= lo, so a bad one is a usage error."""
    def integer(text: str) -> int:  # argparse names the type when int() refuses the text
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {text}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="itco", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"itco {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus with its oracle")
    p_synth.add_argument("--spec", required=True, help="synthetic spec JSON")
    p_synth.add_argument("--out", required=True, help="corpus output directory")
    p_synth.add_argument(
        "--seed", type=_int_at_least(0), default=None, help="override the spec seed"
    )
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="co-train the paired encoders")
    p_train.add_argument("--corpus", required=True, help="corpus directory or manifest.tsv path")
    p_train.add_argument("--config", default=None, help="train config JSON")
    p_train.add_argument("--out", required=True, help="run output directory")
    p_train.add_argument("--dev-corpus", default=None, help="held-out corpus directory or manifest.tsv path")
    p_train.add_argument("--seed", type=_int_at_least(0), default=None)
    p_train.add_argument("--resume", default=None, help="checkpoint to resume from")
    p_train.add_argument(
        "--stop-after", type=_int_at_least(1), default=None, help="pause after this many utterances"
    )
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="label, tag, and score a corpus with a checkpoint")
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of every primitive")
    p_grad.add_argument("--seed", type=_int_at_least(0), default=0)
    p_grad.add_argument("--out", default=None, help="optional report directory")
    p_grad.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (CorpusError, TrainerError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:
        print("interrupted by SIGINT", file=sys.stderr)
        return EXIT_SIGNAL + signal.SIGINT


if __name__ == "__main__":
    sys.exit(main())
