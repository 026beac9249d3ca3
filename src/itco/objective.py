"""The co-training loss and its diagnostic decomposition.

One minibatch is one utterance's worth of window pairs. The confirm
model's distribution over symbols scores the predict model through an
exact expectation over the alphabet (no sampling), which keeps the whole
objective differentiable:

    cross entropy   (1/N) sum_i sum_z confirm_i[z] * (-log2 predict_i[z])
    marginal term   H(mean_i confirm_i)   (not averaged; one entropy of
                                           the batch-mean distribution)
    loss            cross entropy - marginal term

The gap between the batch-mean entropy and the cross entropy is the
reported mutual-information lower bound. An adversarial variant replaces
the marginal term with a cross entropy against a standalone trainable
marginal, updated in alternation.

Everything is reported in bits; gradients flow through natural logs with
one conversion constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import numerics as nm

__all__ = [
    "ObjectiveTerms",
    "cross_entropy_term",
    "entropy_of_mean",
    "utterance_loss",
    "marginal_fit_loss",
    "adversarial_loss",
    "LOG2E",
]

LOG2E = float(np.log2(np.e))

Dists = Union[nm.Node, np.ndarray]  # [N, Z], one distribution per window


@dataclass
class ObjectiveTerms:
    cross_entropy_bits: float
    marginal_entropy_bits: float
    mi_bound_bits: float
    loss: float
    saturation_count: int
    adversarial_marginal_bits: Optional[float] = None


def _as_batch_node(dists: Dists) -> nm.Node:
    """Coerce a [N, Z] node or array to a node; N must be at least 1."""
    node = dists if isinstance(dists, nm.Node) else nm.constant(dists)
    if node.value.ndim != 2:
        raise ValueError(f"distributions must form a [N, Z] matrix, got shape {node.value.shape}")
    if node.value.shape[0] == 0:
        raise ValueError("need at least one distribution")
    return node


def _paired(confirm_dists: Dists, predict_dists: Dists) -> tuple[nm.Node, nm.Node]:
    """Both sides as [N, Z] nodes; row i of each comes from window i."""
    confirm, predict = _as_batch_node(confirm_dists), _as_batch_node(predict_dists)
    if confirm.value.shape != predict.value.shape:
        raise ValueError(
            f"window-paired batches differ in shape: {confirm.value.shape} vs {predict.value.shape}"
        )
    return confirm, predict


def _cross_entropy_node(tape: Optional[nm.Tape], weights: nm.Node, scored: nm.Node) -> nm.Node:
    """(1/N) sum_i sum_z weights_i[z] * (-log2 scored[z]), in bits.

    `scored` may be [N, Z] (per-window) or [Z] (one marginal broadcast over
    the batch). Logs are clamped at 1e-30 so zero probabilities contribute
    a large finite penalty instead of infinity.
    """
    logp = nm.log_clamped(tape, scored)
    per_cell = nm.mul(tape, weights, logp)
    per_window = nm.sum_(tape, per_cell, axis=1)
    return nm.scale(tape, nm.mean_(tape, per_window), -LOG2E)


def count_saturation(weights: np.ndarray, scored: np.ndarray) -> int:
    """Cells clamped by the log floor while carrying confirm-side mass."""
    return int(np.count_nonzero((scored < nm.LOG_FLOOR) & (weights > 0)))


def cross_entropy_term(
    confirm_dists: Dists, predict_dists: Dists, tape: Optional[nm.Tape] = None
) -> nm.Node:
    """Exact-expectation cross entropy in bits, averaged over windows."""
    confirm, predict = _paired(confirm_dists, predict_dists)
    return _cross_entropy_node(tape, confirm, predict)


def entropy_of_mean(
    confirm_dists: Dists,
    tape: Optional[nm.Tape] = None,
    extra_rows: Optional[np.ndarray] = None,
) -> nm.Node:
    """Entropy (bits) of the batch-average confirm distribution.

    ``extra_rows`` mixes in detached rows from earlier utterances (the
    sliding-buffer global mode); gradients flow only through the current
    batch, weighted by its share of the combined mean.
    """
    confirm = _as_batch_node(confirm_dists)
    n = confirm.value.shape[0]
    q = nm.mean_(tape, confirm, axis=0)
    if extra_rows is not None and len(extra_rows) > 0:
        extra_rows = np.asarray(extra_rows, dtype=confirm.value.dtype)
        m = extra_rows.shape[0]
        buffered = nm.constant(extra_rows.mean(axis=0))
        q = nm.add(
            tape,
            nm.scale(tape, q, n / (n + m)),
            nm.scale(tape, buffered, m / (n + m)),
        )
    plogp = nm.mul(tape, q, nm.log_clamped(tape, q))
    return nm.scale(tape, nm.sum_(tape, plogp), -LOG2E)


def utterance_loss(
    confirm_dists: Dists,
    predict_dists: Dists,
    tape: Optional[nm.Tape] = None,
    extra_entropy_rows: Optional[np.ndarray] = None,
) -> tuple[nm.Node, ObjectiveTerms]:
    """Training loss for one utterance: cross entropy minus marginal entropy.

    The cross entropy is averaged over the minibatch's windows; the
    marginal term is one entropy of the batch mean and is deliberately not
    averaged. Gradients reach the confirm side through both terms and the
    predict side through the first only.
    """
    confirm, predict = _paired(confirm_dists, predict_dists)
    ce = _cross_entropy_node(tape, confirm, predict)
    me = entropy_of_mean(confirm, tape, extra_rows=extra_entropy_rows)
    loss = nm.sub(tape, ce, me)
    terms = ObjectiveTerms(
        cross_entropy_bits=float(ce.value),
        marginal_entropy_bits=float(me.value),
        mi_bound_bits=float(me.value) - float(ce.value),
        loss=float(loss.value),
        saturation_count=count_saturation(confirm.value, predict.value),
    )
    return loss, terms


def marginal_fit_loss(
    confirm_dists: Dists, marginal: nm.Node, tape: Optional[nm.Tape] = None
) -> nm.Node:
    """Cross entropy (bits) of the frozen confirm batch against the marginal.

    This is the marginal model's own training loss; gradients reach only
    the marginal.
    """
    confirm = _as_batch_node(confirm_dists)
    return _cross_entropy_node(tape, nm.detach(confirm), marginal)


def adversarial_loss(
    confirm_dists: Dists,
    predict_dists: Dists,
    marginal: nm.Node,
    tape: Optional[nm.Tape] = None,
) -> tuple[nm.Node, ObjectiveTerms]:
    """The encoders' loss against a fixed (untaped) marginal.

    Returns (encoder_loss, terms). The encoder loss is the predict-side
    cross entropy minus the confirm side's cross entropy against the
    marginal, so the confirm side pushes its average away from the
    marginal's reach. That second cross entropy is also the marginal's own
    loss, `marginal_fit_loss`, with the confirm side frozen instead; its
    value is reported as ``adversarial_marginal_bits``.
    """
    confirm, predict = _paired(confirm_dists, predict_dists)
    ce = _cross_entropy_node(tape, confirm, predict)
    marginal_ce = _cross_entropy_node(tape, confirm, marginal)
    encoder_loss = nm.sub(tape, ce, marginal_ce)
    me = entropy_of_mean(nm.Node(confirm.value), None)
    terms = ObjectiveTerms(
        cross_entropy_bits=float(ce.value),
        marginal_entropy_bits=float(me.value),
        mi_bound_bits=float(me.value) - float(ce.value),
        loss=float(encoder_loss.value),
        saturation_count=count_saturation(confirm.value, predict.value),
        adversarial_marginal_bits=float(marginal_ce.value),
    )
    return encoder_loss, terms
