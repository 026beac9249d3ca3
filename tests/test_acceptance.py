"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they complete).

The training-based criteria are deterministic for the fixed seeds used
here, so their outcomes are stable on a given platform.
"""

import contextlib
import dataclasses
import math
import os
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from itco import corpus
from itco import objective as ob
from itco import trainer as tr
from itco.gradcheck import run_gradcheck
from itco.corpus import (
    SyntheticSpec,
    WindowGeometry,
    cut_windows,
    load_corpus,
    synth_corpus,
    true_mi_oracle,
    window_pairs,
)
from itco.model import CONFIRM, PREDICT
from itco.numerics import stream_rng
from itco.trainer import TrainConfig, TrainState, detect_dead_symbols, train
from runs import map_seeds, read_records

GRADCHECK_SEEDS = 20
TRAIN_SEEDS = (0, 1, 2)


def report(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {number} [{label}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} [{label}]: {detail}"


def identity_spec(
    k: int,
    seed: int,
    num_utterances: int,
    windows_per_utterance: int = 18,
    jitter: float = 0.0,
    frames_per_side: int = 15,
    gap: int = 5,
) -> SyntheticSpec:
    eye = np.eye(k)
    return SyntheticSpec(
        num_latent=k,
        x_channel=eye,
        y_channel=eye,
        latent_prior=np.full(k, 1.0 / k),
        frames_per_side=frames_per_side,
        gap=gap,
        jitter_sigma=jitter,
        num_utterances=num_utterances,
        windows_per_utterance=windows_per_utterance,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def worst_gradcheck_case(seed: int) -> tuple[float, str]:
    """One seed's worst relative gradient error and the case that made it."""
    return max((err, name) for name, err in run_gradcheck(seed))


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    worst_err, worst_name = max(map_seeds(worst_gradcheck_case, range(GRADCHECK_SEEDS)))
    elapsed = time.time() - t0
    ok = worst_err < 1e-3 and elapsed < 60.0
    report(
        1,
        "gradient correctness",
        ok,
        f"{GRADCHECK_SEEDS} seeds, worst rel err {worst_err:.2e} ({worst_name}), "
        f"{elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# criteria 2 and 5 share three full training runs on the zero-jitter task


def bound_config(seed: int) -> TrainConfig:
    """The training run of criteria 2, 5 and 9."""
    return TrainConfig(
        geometry=WindowGeometry(total=35, past=15, gap=5, future=15),
        alphabet_size=64,
        hidden_dim=64,
        lr_schedule=((24, 0.4), (28, 0.2), (32, 0.1), (36, 0.05)),
        clone_at=12,
        seed=seed,
        aligned_windows=True,
    )


def bound_corpora():
    """The zero-jitter training and dev corpora of criteria 2 and 5, and the
    training corpus's joint table."""
    corpus, joint = synth_corpus(identity_spec(4, seed=1000, num_utterances=200))
    dev, _ = synth_corpus(identity_spec(4, seed=2000, num_utterances=100))
    return corpus, dev, joint


def epoch_records(corpus, config, **kwargs) -> list[dict]:
    """The epoch records of one training run, read back from its metrics file."""
    with tempfile.TemporaryDirectory() as tmp:
        metrics = Path(tmp) / "metrics.jsonl"
        train(corpus, config, metrics_path=metrics, **kwargs)
        return [r for r in read_records(metrics) if r["type"] == "epoch"]


def bound_run(seed: int) -> dict:
    """One seed's run of criteria 2 and 5, timed in the process that runs it."""
    corpus, dev, _ = bound_corpora()
    t0 = time.time()
    epochs = epoch_records(corpus, bound_config(seed), dev_corpus=dev)
    return {
        "seed": seed,
        "seconds": time.time() - t0,
        "dev_bounds": [r["dev_mi_bound_bits"] for r in epochs],
        "psi_entropy": epochs[-1]["dev_mean_entropy_psi_bits"],
        "phi_entropy": epochs[-1]["dev_mean_entropy_phi_bits"],
    }


@pytest.fixture(scope="module")
def bound_runs():
    assert true_mi_oracle(bound_corpora()[2]) == pytest.approx(2.0, abs=1e-12)
    return map_seeds(bound_run, TRAIN_SEEDS)


def test_criterion_2_dpi_bound_respected(bound_runs):
    cap = 2.0 + 0.05
    max_bound = max(max(r["dev_bounds"]) for r in bound_runs)
    never_exceeds = max_bound <= cap
    finals = [r["dev_bounds"][-1] for r in bound_runs]
    reached = sum(b >= 1.6 for b in finals)
    slowest = max(r["seconds"] for r in bound_runs)
    ok = never_exceeds and reached >= 2 and slowest < 15 * 60
    report(
        2,
        "DPI bound respected",
        ok,
        f"max held-out bound {max_bound:.4f} <= {cap}, final bounds "
        f"{[f'{b:.3f}' for b in finals]} (>=1.6 for {reached}/3 seeds), "
        f"slowest seed {slowest:.0f}s < 900s",
    )


def test_criterion_5_confirm_model_sharper(bound_runs):
    sharper = sum(r["psi_entropy"] < r["phi_entropy"] for r in bound_runs)
    pairs = ", ".join(
        f"seed {r['seed']}: {r['psi_entropy']:.4f} vs {r['phi_entropy']:.4f}"
        for r in bound_runs
    )
    report(
        5,
        "confirm-side entropy asymmetry",
        sharper >= 2,
        f"held-out mean entropy confirm < predict for {sharper}/3 seeds ({pairs})",
    )


# ---------------------------------------------------------------------------
# criterion 9: the DPI cap on a noisy channel, which a past/future leak breaks
#
# On the identity corpus I(x;y) = H(y symbols) = 2 bits, so a predictor that
# sees the future half is capped there too. A symmetric noisy channel on both
# sides keeps H(y symbols) at 2 bits but lowers I(x;y) to about 1 bit, so the
# cap of criterion 2's run (seed 0) tells the honest model from a leak. The
# global entropy mode trains against a fixed reference, the mean of earlier
# confirm rows; it must respect the cap too, and must learn: its final bound
# clears a floor. Over seeds 0-4 its final dev bounds were 0.885, 0.883,
# 0.322, 0.883 and 0.342 bits (two seeds settle on fewer classes), so the
# floor sits below the worst of them and far above the 0.000 bits of a
# model that learns nothing. The leak test runs under the per-utterance
# entropy only: under the global mode the leaking run's bound (0.963 at
# seed 0) stays inside the cap.

NOISY_DIAGONAL = 0.9
DPI_SLACK_BITS = 0.05
GLOBAL_FLOOR_BITS = 0.25
NOISY_CHANNEL_RUNS = ("honest", "leaking", "global")


def noisy_channel_spec(seed: int, num_utterances: int) -> SyntheticSpec:
    channel = np.full((4, 4), (1.0 - NOISY_DIAGONAL) / 3)
    np.fill_diagonal(channel, NOISY_DIAGONAL)
    spec = identity_spec(4, seed=seed, num_utterances=num_utterances)
    return dataclasses.replace(spec, x_channel=channel, y_channel=channel)


def leaking_cut_windows(frames, geometry, aligned):
    """`cut_windows` with the future half in place of the past one."""
    (y, _), centers = cut_windows(frames, geometry, aligned)
    return (y, y.copy()), centers


def noisy_channel_run(case: str) -> dict:
    """Every epoch's dev bound of one of `NOISY_CHANNEL_RUNS` on the noisy
    channel, and I(x;y). The leaking run patches `corpus.cut_windows`, which
    `window_pairs` calls for every window batch, training's and
    evaluation's, while it runs."""
    train_corpus, joint = synth_corpus(noisy_channel_spec(1000, 200))
    dev, _ = synth_corpus(noisy_channel_spec(2000, 100))
    true_mi = true_mi_oracle(joint)
    assert true_mi == pytest.approx(1.0097, abs=1e-4)
    config = bound_config(0)
    if case == "global":
        config = dataclasses.replace(config, entropy_mode="global")
    with contextlib.ExitStack() as patches:
        if case == "leaking":
            patches.enter_context(mock.patch.object(corpus, "cut_windows", leaking_cut_windows))
        epochs = epoch_records(train_corpus, config, dev_corpus=dev)
    return {"bounds": [r["dev_mi_bound_bits"] for r in epochs], "true_mi": true_mi}


@pytest.fixture(scope="module")
def noisy_channel_runs():
    return dict(zip(NOISY_CHANNEL_RUNS, map_seeds(noisy_channel_run, NOISY_CHANNEL_RUNS)))


def noisy_channel_gate(run: dict) -> tuple[bool, str]:
    """Whether every epoch's dev bound of `run` stays within DPI_SLACK_BITS
    of I(x;y), and the line that reports it."""
    bounds, true_mi = run["bounds"], run["true_mi"]
    return max(bounds) <= true_mi + DPI_SLACK_BITS, (
        f"max held-out bound {max(bounds):.4f} <= I(x;y) {true_mi:.4f} + {DPI_SLACK_BITS} "
        f"over {len(bounds)} epochs, final {bounds[-1]:.4f}"
    )


def test_criterion_9_dpi_bound_on_a_noisy_channel(noisy_channel_runs):
    report(9, "DPI bound on a noisy channel", *noisy_channel_gate(noisy_channel_runs["honest"]))


def test_criterion_9_fails_when_the_predictor_sees_the_future(noisy_channel_runs):
    within, line = noisy_channel_gate(noisy_channel_runs["leaking"])
    assert not within, line


def test_criterion_9_dpi_bound_under_the_global_entropy_mode(noisy_channel_runs):
    run = noisy_channel_runs["global"]
    within, line = noisy_channel_gate(run)
    learned = run["bounds"][-1] >= GLOBAL_FLOOR_BITS
    report(9, "DPI bound under the global entropy mode", within and learned,
           f"{line} >= {GLOBAL_FLOOR_BITS}")


# ---------------------------------------------------------------------------
# criterion 3: cloning 1-bit law on a frozen batch


def test_criterion_3_cloning_one_bit_law():
    spec = identity_spec(
        2, seed=500, num_utterances=4, windows_per_utterance=3, frames_per_side=2, gap=1
    )
    utts, _ = synth_corpus(spec)
    config = TrainConfig(
        geometry=WindowGeometry(total=5, past=2, gap=1, future=2),
        alphabet_size=8,
        hidden_dim=4,
        lr_schedule=((1, 0.4),),
        clone_at=0,
        clone_noise_sigma=0.0,
        aligned_windows=True,
    )
    state = TrainState.fresh(config, input_dim=2, dtype=np.float64)
    for side in (CONFIRM, PREDICT):
        bias = state.ep.named_arrays()[f"{side}.out.b"]
        bias[2:] = -2000.0  # exp underflow: exactly zero probability in f64

    def frozen_batch_terms():
        # every utterance's windows, as one [B * N, L, d] batch a side
        (y, x), _ = window_pairs(utts, config.geometry, config.aligned_windows, np.float32)
        confirm = state.ep.encode_node(CONFIRM, y.reshape(-1, *y.shape[2:])).value
        predict = state.ep.encode_node(PREDICT, x.reshape(-1, *x.shape[2:])).value
        _, terms = ob.utterance_loss(np.stack((confirm, predict)))
        return terms

    before = frozen_batch_terms()
    live, marginal = detect_dead_symbols(state, utts)
    assert int(live.sum()) == 2
    tr.clone_symbols(state, live, marginal)
    after = frozen_batch_terms()

    d_entropy = after.marginal_entropy_bits - before.marginal_entropy_bits
    d_cross = after.cross_entropy_bits - before.cross_entropy_bits
    d_bound = after.mi_bound_bits - before.mi_bound_bits
    ok = abs(d_entropy - 1.0) < 1e-6 and abs(d_cross - 1.0) < 1e-6 and abs(d_bound) < 1e-6
    report(
        3,
        "cloning 1-bit law",
        ok,
        f"marginal entropy +{d_entropy:.9f}, cross entropy +{d_cross:.9f}, "
        f"mi_bound delta {d_bound:.2e} (tolerance 1e-6)",
    )


# ---------------------------------------------------------------------------
# criterion 4: symbol death


def dead_after_six_epochs(seed: int) -> int:
    """Criterion 4's run of one seed: the dead symbols on a 100-utterance
    sample after six epochs."""
    # The zero-jitter corpus cannot exhibit death: solutions that spread a
    # class over several exactly-coordinated symbols score identically to
    # concentrated ones, so no gradient ever drains the tails. Frame jitter
    # breaks the tie (the predict side cannot see the confirm side's noise),
    # which is the regime where the death-and-clone dynamic exists at all.
    corpus, _ = synth_corpus(identity_spec(4, seed=1000, num_utterances=1000, jitter=0.3))
    config = TrainConfig(
        geometry=WindowGeometry(total=35, past=15, gap=5, future=15),
        alphabet_size=64,
        hidden_dim=64,
        lr_schedule=((40, 0.4), (60, 1.0)),
        clone_at=0,  # fires at start, before anything is dead: a no-op
        seed=seed,
        aligned_windows=True,
    )
    state, _ = train(corpus, config, stop_after=6 * len(corpus))
    live, _ = detect_dead_symbols(state, corpus[:100])
    return 64 - int(live.sum())


def test_criterion_4_symbol_death():
    dead_counts = map_seeds(dead_after_six_epochs, TRAIN_SEEDS)
    passed = sum(d >= 40 for d in dead_counts)
    report(
        4,
        "symbol death",
        passed >= 2,
        f"dead symbols after 6 epochs: {dead_counts} (>=40 for {passed}/3 seeds, "
        f"|Z|=64, K=4 identity channels, frame jitter 0.3)",
    )


# ---------------------------------------------------------------------------
# criterion 6: oracle equivalence against independent brute-force sums


def brute_force_cross_entropy_bits(confirm: np.ndarray, predict: np.ndarray) -> float:
    total = 0.0
    for i in range(confirm.shape[0]):
        for z in range(confirm.shape[1]):
            total += confirm[i, z] * math.log2(predict[i, z])
    return -total / confirm.shape[0]


def brute_force_entropy_of_mean_bits(confirm: np.ndarray) -> float:
    n, z = confirm.shape
    total = 0.0
    for sym in range(z):
        q = sum(confirm[i, sym] for i in range(n)) / n
        if q > 0.0:
            total += q * math.log2(q)
    return -total


def brute_force_mi_bits(joint: np.ndarray) -> float:
    a, b = joint.shape
    row = [sum(joint[i, j] for j in range(b)) for i in range(a)]
    col = [sum(joint[i, j] for i in range(a)) for j in range(b)]
    total = 0.0
    for i in range(a):
        for j in range(b):
            p = joint[i, j]
            if p > 0.0:
                total += p * math.log2(p / (row[i] * col[j]))
    return total


def test_criterion_6_oracle_equivalence():
    rng = stream_rng(31337, 606)
    worst = 0.0
    instances = 1000
    for _ in range(instances):
        n = int(rng.integers(1, 7))
        z = int(rng.integers(2, 9))
        confirm = rng.dirichlet(np.ones(z), size=n)
        predict = rng.dirichlet(np.ones(z), size=n)
        terms = ob.utterance_loss(np.stack((confirm, predict)))[1]
        worst = max(
            worst,
            abs(terms.cross_entropy_bits - brute_force_cross_entropy_bits(confirm, predict)),
            abs(terms.marginal_entropy_bits - brute_force_entropy_of_mean_bits(confirm)),
        )
        a = int(rng.integers(2, 6))
        b = int(rng.integers(2, 6))
        joint = rng.dirichlet(np.ones(a * b)).reshape(a, b)
        worst = max(worst, abs(true_mi_oracle(joint) - brute_force_mi_bits(joint)))
    report(
        6,
        "oracle equivalence",
        worst < 1e-9,
        f"{instances} instances, worst |difference| {worst:.2e} < 1e-9 "
        f"(the utterance loss's two terms, true_mi_oracle)",
    )


# ---------------------------------------------------------------------------
# criterion 7: determinism and resume


def test_criterion_7_determinism_and_resume(tmp_path):
    corpus, _ = synth_corpus(
        identity_spec(2, seed=900, num_utterances=30, windows_per_utterance=4,
                      frames_per_side=3, gap=1)
    )

    def config():
        return TrainConfig(
            geometry=WindowGeometry(total=7, past=3, gap=1, future=3),
            alphabet_size=8,
            hidden_dim=8,
            lr_schedule=((1, 0.4), (2, 0.2)),
            clone_at=1,
            seed=5,
            aligned_windows=True,
        )

    paths = [tmp_path / f"m{i}.jsonl" for i in range(4)]
    train(corpus, config(), metrics_path=paths[0])
    train(corpus, config(), metrics_path=paths[1])
    whole = paths[0].read_bytes()
    identical = whole == paths[1].read_bytes()

    ckpt_dir = tmp_path / "ck"
    train(corpus, config(), metrics_path=paths[2], checkpoint_dir=ckpt_dir, stop_after=130)
    resumed = tr.load_checkpoint(ckpt_dir / "interrupted.itck")
    train(corpus, config(), metrics_path=paths[3], resume=resumed)
    resume_exact = paths[2].read_bytes() + paths[3].read_bytes() == whole

    ok = identical and resume_exact
    report(
        7,
        "determinism and resume",
        ok,
        f"dual runs bit-identical: {identical} ({len(whole.splitlines())} records); "
        f"stop-at-130/resume stitches to the uninterrupted stream: {resume_exact}",
    )


# ---------------------------------------------------------------------------
# criterion 8: optional full-scale reproduction on user-supplied data


def test_criterion_8_timit_recorded_not_gated():
    data_dir = os.environ.get("ITCO_TIMIT_DIR")
    if not data_dir:
        pytest.skip(
            "criterion 8 [timit]: SKIP - optional; set ITCO_TIMIT_DIR to a directory "
            "holding train/manifest.tsv and dev/manifest.tsv (licensed data, prepared "
            "in the corpus feature format) to record the full-scale numbers"
        )
    train_corpus = load_corpus(Path(data_dir) / "train").utterances
    dev_corpus = load_corpus(Path(data_dir) / "dev").utterances
    state, last = train(train_corpus, TrainConfig(), dev_corpus=dev_corpus)
    detail = (
        f"recorded (not gated): dev confirm entropy {last['dev_mean_entropy_psi_bits']:.2f} "
        f"bits (target 5.0 +/- 0.5), agreement {100 * last['dev_agreement']:.1f} "
        f"(target 78.6 +/- 5), live symbols {int(state.live_mask.sum())}"
    )
    report(8, "full-scale reproduction", True, detail)
