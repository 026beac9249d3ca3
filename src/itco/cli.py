"""Command-line entry point: synth, train, eval, and gradcheck subcommands.

Every command that writes files drops a run_manifest.json into its output
directory first (config snapshot, seed, input corpus hash, planned
artifact paths, tool version) so any output can be reproduced
byte-for-byte from the manifest alone.

Exit codes: 0 success, 1 usage error, 2 data error, 3 check failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import numerics as nm
from . import objective as ob
from .corpus import (
    CorpusError,
    SyntheticSpec,
    load_corpus,
    read_manifest_metadata,
    synth_corpus,
    true_mi_oracle,
    write_corpus,
)
from .evaluation import (
    EvaluationError,
    agreement_rate,
    evaluate,
    label_frames,
    majority_tag,
    symbol_stats,
    write_confusion_csv,
    write_symbol_stats_csv,
)
from .model import EncoderParams
from .trainer import TrainConfig, TrainerError, load_checkpoint, train

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3

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
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def corpus_hash(manifest_path: Path) -> str:
    """SHA-256 over the manifest bytes and every file it lists, in row order."""
    manifest_path = Path(manifest_path)
    digest = hashlib.sha256()
    data = manifest_path.read_bytes()
    digest.update(data)
    base = manifest_path.parent
    for line in data.decode("utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        for rel in line.split("\t")[1:3]:
            if rel:
                digest.update((base / rel).read_bytes())
    return digest.hexdigest()


def write_run_manifest(
    out_dir: Path,
    command: str,
    config_snapshot: dict,
    seed: Optional[int],
    input_corpus_hash: Optional[str],
    artifact_paths: list[str],
) -> Path:
    doc = {
        "command": command,
        "config": config_snapshot,
        "seed": seed,
        "corpus_hash": input_corpus_hash,
        "artifacts": sorted(artifact_paths),
        "tool_version": __version__,
    }
    path = Path(out_dir) / "run_manifest.json"
    _dump_json(doc, path)
    return path


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    spec_doc = _load_json(Path(args.spec), "synthetic spec")
    if args.seed is not None:
        spec_doc["seed"] = args.seed
    try:
        spec = SyntheticSpec.from_json_dict(spec_doc)
    except (TypeError, ValueError, KeyError) as exc:
        raise CliError(f"bad synthetic spec: {exc}", EXIT_DATA)

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

    utterances, joint_table = synth_corpus(spec)
    write_corpus(
        out,
        utterances,
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


def _train_config_from_args(args, manifest_path: Path) -> TrainConfig:
    doc = _load_json(Path(args.config), "train config") if args.config else {}
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.mode is not None:
        doc["mode"] = args.mode
    if args.entropy_mode is not None:
        doc["entropy_mode"] = args.entropy_mode.replace("-", "_")
    if "aligned_windows" not in doc:
        # synthetic corpora mark their generated placements in the manifest
        meta = read_manifest_metadata(manifest_path)
        doc["aligned_windows"] = meta.get("aligned_windows") == "1"
    try:
        return TrainConfig.from_json_dict(doc)
    except (TrainerError, TypeError, ValueError) as exc:
        raise CliError(f"bad train config: {exc}", EXIT_USAGE)


def _resolve_manifest(corpus_arg: str) -> Path:
    """Accept either a corpus directory or a direct path to its manifest."""
    path = Path(corpus_arg)
    if path.is_file():
        return path
    manifest = path / "manifest.tsv"
    if not manifest.exists():
        raise CliError(f"no manifest.tsv under {corpus_arg}", EXIT_DATA)
    return manifest


def cmd_train(args) -> int:
    manifest_path = _resolve_manifest(args.corpus)
    config = _train_config_from_args(args, manifest_path)
    corpus = load_corpus(manifest_path)

    dev_corpus = None
    dev_hashes = {}
    if args.dev_corpus:
        dev_manifest = _resolve_manifest(args.dev_corpus)
        dev_corpus = load_corpus(dev_manifest)
        dev_hashes["dev_corpus_hash"] = corpus_hash(dev_manifest)

    resume_state = None
    if args.resume:
        resume_state = load_checkpoint(Path(args.resume))

    out = Path(args.out)
    checkpoint_dir = out / "checkpoints"
    metrics_path = out / "metrics.jsonl"
    out.mkdir(parents=True, exist_ok=True)
    snapshot = dict(config.to_json_dict(), **dev_hashes)
    if args.resume:
        snapshot["resumed_from"] = str(args.resume)
    write_run_manifest(
        out,
        "train",
        snapshot,
        config.seed,
        corpus_hash(manifest_path),
        ["metrics.jsonl", "checkpoints/"],
    )

    state, records = train(
        corpus,
        config,
        dev_corpus=dev_corpus,
        metrics_path=metrics_path,
        checkpoint_dir=checkpoint_dir,
        resume=resume_state,
        stop_after=args.stop_after,
    )
    epochs = [r for r in records if r["type"] == "epoch"]
    tail = epochs[-1] if epochs else {}
    print(
        f"train: processed {state.processed} utterances over {state.epoch} epochs, "
        f"live symbols {int(state.live_mask.sum())}"
        + (
            f", last epoch mi_bound {tail['mean_mi_bound_bits']:.4f} bits"
            if "mean_mi_bound_bits" in tail
            else ""
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    state = load_checkpoint(Path(args.checkpoint))
    manifest_path = _resolve_manifest(args.corpus)
    corpus = load_corpus(manifest_path)
    dims = {u.frames.shape[1] for u in corpus}
    if dims != {state.input_dim}:
        raise CliError(
            f"corpus feature dimension {sorted(dims)} does not match "
            f"checkpoint input dimension {state.input_dim}",
            EXIT_DATA,
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_run_manifest(
        out,
        "eval",
        {"checkpoint": str(args.checkpoint), "train_config": state.config.to_json_dict()},
        state.config.seed,
        corpus_hash(manifest_path),
        ["summary.json", "confusion.csv", "symbol_stats.csv"],
    )

    geometry = state.config.geometry
    ep = state.ep
    labelings = [label_frames(ep, u, geometry) for u in corpus]
    gold = [u.gold_labels for u in corpus]
    tagmap = majority_tag(labelings, gold)
    confusion, overall_acc, covered_acc, coverage = evaluate(labelings, tagmap, gold)
    agreement = agreement_rate(ep, corpus, geometry)
    stats = symbol_stats(ep, corpus, geometry)

    summary = {
        "overall_acc": overall_acc,
        "covered_acc": covered_acc,
        "coverage": coverage,
        "agreement_rate": agreement,
        "mean_entropy_psi_bits": stats.mean_entropy_confirm_bits,
        "mean_entropy_phi_bits": stats.mean_entropy_predict_bits,
        "live_symbols": int(state.live_mask.sum()),
        "tags_used": tagmap.tags_used,
    }
    _dump_json(summary, out / "summary.json")
    write_confusion_csv(confusion, out / "confusion.csv")
    write_symbol_stats_csv(stats, out / "symbol_stats.csv", live_mask=state.live_mask)
    print(
        f"eval: overall_acc={overall_acc:.4f} covered_acc={covered_acc:.4f} "
        f"coverage={coverage:.4f} agreement={agreement:.4f} -> {out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def _projected(tape, node, r: np.ndarray):
    """Random fixed projection to a scalar so sign errors cannot cancel."""
    return nm.sum_(tape, nm.mul(tape, node, nm.constant(r)))


def _gradcheck_cases(seed: int):
    """(name, store, loss_fn) triples covering every differentiable primitive."""
    rng = nm.stream_rng(seed, 777)

    def vec(shape):
        return rng.normal(size=shape)

    cases = []

    def simple(name, build, *shapes):
        store = nm.ParamStore(dtype=np.float64)
        params = [store.add(f"p{i}", vec(s)) for i, s in enumerate(shapes)]
        r = None

        def loss_fn(tape):
            nonlocal r
            nodes = [nm.watch(tape, p) for p in params]
            out = build(tape, *nodes)
            if r is None:
                r = rng.normal(size=out.value.shape)
            return _projected(tape, out, r)

        cases.append((name, store, loss_fn))

    simple("add", lambda t, a, b: nm.add(t, a, b), (3, 4), (3, 4))
    simple("add_broadcast", lambda t, a, b: nm.add(t, a, b), (3, 4), (4,))
    simple("sub", lambda t, a, b: nm.sub(t, a, b), (5,), (5,))
    simple("mul", lambda t, a, b: nm.mul(t, a, b), (3, 4), (3, 4))
    simple("mul_broadcast", lambda t, a, b: nm.mul(t, a, b), (3, 4), (4,))
    simple("scale", lambda t, a: nm.scale(t, a, -1.7), (6,))
    simple("one_minus", lambda t, a: nm.one_minus(t, a), (4,))
    simple("affine_vector", lambda t, w, b, v: nm.affine(t, w, b, v), (3, 4), (3,), (4,))
    simple("affine_batch", lambda t, w, b, v: nm.affine(t, w, b, v), (3, 4), (3,), (5, 4))
    simple("linear", lambda t, w, h: nm.linear(t, w, h), (3, 4), (4,))
    simple("sigmoid", lambda t, a: nm.sigmoid(t, a), (7,))
    simple("tanh", lambda t, a: nm.tanh(t, a), (7,))
    simple(
        "log_clamped",
        lambda t, a: nm.log_clamped(t, nm.add(t, nm.mul(t, a, a), nm.constant(np.full(5, 0.5)))),
        (5,),
    )
    simple("softmax", lambda t, a: nm.softmax(t, a), (6,))
    simple("softmax_batch", lambda t, a: nm.softmax(t, a), (4, 6))
    simple("sum_axis", lambda t, a: nm.sum_(t, a, axis=0), (3, 4))
    simple("mean_axis", lambda t, a: nm.mean_(t, a, axis=1), (3, 4))
    simple("mean_all", lambda t, a: nm.mean_(t, a), (3, 4))

    hidden, d = 4, 3

    def gru_store(h0_shape):
        store = nm.ParamStore(dtype=np.float64)
        scale_w = 1.0 / np.sqrt(d)
        scale_u = 1.0 / np.sqrt(hidden)
        for slot in nm.GRU_SLOTS:
            if slot.startswith("w_"):
                store.add(slot, rng.uniform(-scale_w, scale_w, size=(hidden, d)))
            elif slot.startswith("u_"):
                store.add(slot, rng.uniform(-scale_u, scale_u, size=(hidden, hidden)))
            else:
                store.add(slot, rng.normal(size=hidden) * 0.1)
        store.add("h0", rng.normal(size=h0_shape) * 0.1)
        return store

    store = gru_store(hidden)
    h_in = vec(hidden) * 0.2
    v_in = vec(d)
    r_cell = rng.normal(size=hidden)

    def gru_cell_loss(tape):
        p = {name: nm.watch(tape, param) for name, param in store.items()}
        h = nm.add(tape, p.pop("h0"), nm.constant(h_in))
        return _projected(tape, nm.gru_cell(tape, p, h, nm.constant(v_in)), r_cell)

    cases.append(("gru_cell", store, gru_cell_loss))

    # one window, a batch, a per-window initial state, one window in a
    # batch, and one step
    for case, frames_shape, h0_shape in (
        ("gru_sequence_window", (5, d), hidden),
        ("gru_sequence", (2, 5, d), hidden),
        ("gru_sequence_h0_batch", (2, 5, d), (2, hidden)),
        ("gru_sequence_n1", (1, 5, d), hidden),
        ("gru_sequence_l1", (2, 1, d), hidden),
    ):
        store_seq = gru_store(h0_shape)
        frames = vec(frames_shape)
        r_seq = rng.normal(size=frames_shape[:-2] + (hidden,))

        def gru_sequence_loss(tape, store_seq=store_seq, frames=frames, r_seq=r_seq):
            p = {name: nm.watch(tape, param) for name, param in store_seq.items()}
            return _projected(tape, nm.gru_sequence(tape, p, frames), r_seq)

        cases.append((case, store_seq, gru_sequence_loss))

    def toy_encoders():
        ep = EncoderParams(
            input_dim=3, alphabet_size=4, hidden_dim=4, seed=seed, dtype=np.float64
        )
        x = rng.normal(size=(2, 4, 3))
        y = rng.normal(size=(2, 4, 3))
        return ep, x, y

    ep_ce, x_ce, y_ce = toy_encoders()

    def ce_loss(tape):
        confirm = ep_ce.encode_node("confirm", y_ce, tape)
        predict = ep_ce.encode_node("predict", x_ce, tape)
        return ob.cross_entropy_term(confirm, predict, tape)

    cases.append(("cross_entropy_term", ep_ce.store, ce_loss))

    ep_em, _, y_em = toy_encoders()

    def em_loss(tape):
        confirm = ep_em.encode_node("confirm", y_em, tape)
        return ob.entropy_of_mean(confirm, tape)

    cases.append(("entropy_of_mean", ep_em.store, em_loss))

    ep_full, x_full, y_full = toy_encoders()

    def full_loss(tape):
        confirm = ep_full.encode_node("confirm", y_full, tape)
        predict = ep_full.encode_node("predict", x_full, tape)
        loss, _ = ob.utterance_loss(confirm, predict, tape)
        return loss

    cases.append(("utterance_loss", ep_full.store, full_loss))

    ep_adv, _, y_adv = toy_encoders()

    def marginal_loss(tape):
        confirm = ep_adv.encode_node("confirm", y_adv)
        return ob.marginal_fit_loss(confirm, ep_adv.marginal_node(tape), tape)

    cases.append(("marginal_fit_loss", ep_adv.store, marginal_loss))

    return cases


def _broken_tanh(tape, a):
    # tanh forward with a deliberately wrong backward; gradcheck must flag it
    value = np.tanh(a.value)
    out = nm.Node(value)
    if tape is not None:

        def bw(g):
            nm._acc(a, 1.5 * g * (1.0 - value * value))

        tape._record(out, bw)
    return out


def run_gradcheck(seed: int, inject_fault: bool = False) -> list[tuple[str, float]]:
    cases = _gradcheck_cases(seed)
    if inject_fault:
        rng = nm.stream_rng(seed, 778)
        store = nm.ParamStore(dtype=np.float64)
        p = store.add("p0", rng.normal(size=6))
        r = rng.normal(size=6)
        cases.append(
            ("corrupted_tanh", store, lambda t: _projected(t, _broken_tanh(t, nm.watch(t, p)), r))
        )
    results = []
    for name, store, loss_fn in cases:
        results.append((name, nm.finite_diff_check(loss_fn, store, epsilon=1e-5)))
    return results


def cmd_gradcheck(args) -> int:
    results = run_gradcheck(args.seed if args.seed is not None else 0, args.inject_fault)
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
            {"tolerance": GRADCHECK_TOLERANCE, "inject_fault": bool(args.inject_fault)},
            args.seed if args.seed is not None else 0,
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="itco", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"itco {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus with its oracle")
    p_synth.add_argument("--spec", required=True, help="synthetic spec JSON")
    p_synth.add_argument("--out", required=True, help="corpus output directory")
    p_synth.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="co-train the paired encoders")
    p_train.add_argument("--corpus", required=True, help="corpus directory or manifest.tsv path")
    p_train.add_argument("--config", default=None, help="train config JSON")
    p_train.add_argument("--out", required=True, help="run output directory")
    p_train.add_argument("--dev-corpus", default=None, help="held-out corpus directory or manifest.tsv path")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--mode", choices=("base", "adversarial"), default=None)
    p_train.add_argument(
        "--entropy-mode", choices=("per-utterance", "global"), default=None
    )
    p_train.add_argument("--resume", default=None, help="checkpoint to resume from")
    p_train.add_argument(
        "--stop-after", type=int, default=None, help="pause after this many utterances"
    )
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="label, tag, and score a corpus with a checkpoint")
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of every primitive")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--out", default=None, help="optional report directory")
    p_grad.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
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


if __name__ == "__main__":
    sys.exit(main())
