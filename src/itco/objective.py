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
reported mutual-information lower bound. The adversarial variant, the same
loss given a ``marginal``, replaces the marginal term with a cross entropy
against a standalone trainable marginal, updated in alternation.

Everything is reported in bits; gradients flow through natural logs with
one conversion constant. Logs are clamped at ``LOG_FLOOR``, so a zero
probability costs a large finite penalty instead of infinity and passes
no gradient.

The encoders' losses take a window pair's probabilities as one
[2, N, Z] node or array, confirm row first, as ``EncoderParams.encode_node``
gives them for both sides. Each loss computes its terms in plain numpy
and records one tape node whose backward is their closed-form gradient,
taken in the order of the elementwise steps (log, product, row sum, mean,
scale to bits) the terms are made of, so that it rounds as those steps'
chain rule does; the pair's gradient is formed whole and handed on once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import numerics as nm

__all__ = [
    "ObjectiveTerms",
    "utterance_loss",
    "marginal_fit_loss",
    "LOG2E",
]

LOG2E = float(np.log2(np.e))
LOG_FLOOR = 1e-30

Dists = Union[nm.Node, np.ndarray]  # [N, Z], one distribution per window; a pair [2, N, Z]


@dataclass
class ObjectiveTerms:
    cross_entropy_bits: float
    marginal_entropy_bits: float
    mi_bound_bits: float
    loss: float
    saturation_count: int
    adversarial_marginal_bits: Optional[float] = None


def _as_node(dists: Dists, pair: bool) -> nm.Node:
    """Coerce one side's [N, Z] distributions, or a window pair's [2, N, Z]
    (confirm, then predict; row i of each from window i), to a node; N must
    be at least 1."""
    node = dists if isinstance(dists, nm.Node) else nm.Node(np.asarray(dists))
    shape = node.value.shape
    if len(shape) != 2 + pair or (pair and shape[0] != 2):
        want = "[2, N, Z]" if pair else "[N, Z]"
        raise ValueError(f"distributions must form a {want} array, got shape {shape}")
    if shape[-2] == 0:
        raise ValueError("need at least one distribution")
    return node


def _clamped_log(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max(p, LOG_FLOOR) and its natural log."""
    clamped = np.maximum(p, LOG_FLOOR)
    return clamped, np.log(clamped)


def _log_grad(g: np.ndarray, p: np.ndarray, clamped: np.ndarray) -> np.ndarray:
    """Gradient `g` of log(clamped) carried back to `p`; 0 at the floor."""
    return np.where(p > LOG_FLOOR, g / clamped, 0.0)


def _cross_entropy_bits(weights: np.ndarray, log_scored: np.ndarray):
    """(1/N) sum_i sum_z weights_i[z] * (-log2 scored[z]) from the natural
    log of `scored`, which is [N, Z] (per window) or [Z] (one marginal)."""
    return (weights * log_scored).sum(axis=1).mean() * -LOG2E


def count_saturation(weights: np.ndarray, scored: np.ndarray) -> int:
    """Cells clamped by the log floor while carrying confirm-side mass."""
    return int(np.count_nonzero((scored < LOG_FLOOR) & (weights > 0)))


def _terms(ce, marginal_entropy, loss, probs: nm.Node, **extra):
    return ObjectiveTerms(
        cross_entropy_bits=float(ce),
        marginal_entropy_bits=float(marginal_entropy),
        mi_bound_bits=float(marginal_entropy) - float(ce),
        loss=float(loss.value),
        saturation_count=count_saturation(*probs.value),
        **extra,
    )


def utterance_loss(
    probs: Dists,
    tape: Optional[nm.Tape] = None,
    extra_entropy_rows: Optional[np.ndarray] = None,
    marginal: Optional[nm.Node] = None,
) -> tuple[nm.Node, ObjectiveTerms]:
    """The encoders' loss for one utterance: cross entropy minus the marginal term.

    The cross entropy is averaged over the minibatch's windows; the
    marginal term is one entropy of the batch mean and is deliberately not
    averaged. ``extra_entropy_rows`` mixes fixed rows from earlier
    utterances into that mean (the sliding-buffer global mode); gradients
    flow only through the current batch, weighted by its share of the
    combined mean. Given a fixed (untaped) [Z] ``marginal`` instead, the
    marginal term is the confirm side's cross entropy against it, reported
    as ``adversarial_marginal_bits``: the confirm side pushes its average
    away from the marginal's reach, and the marginal gets no gradient (its
    own loss is `marginal_fit_loss`). Gradients reach the confirm side
    through both terms and the predict side through the first only.
    """
    if extra_entropy_rows is not None and marginal is not None:
        raise ValueError("an entropy buffer and an adversarial marginal exclude each other")
    probs = _as_node(probs, pair=True)
    c, p = probs.value
    n = c.shape[0]
    p_clamped, log_p = _clamped_log(p)
    ce = _cross_entropy_bits(c, log_p)
    q, share = c.mean(axis=0), None
    if extra_entropy_rows is not None and len(extra_entropy_rows) > 0:
        buffered = np.asarray(extra_entropy_rows, dtype=c.dtype)
        m = buffered.shape[0]
        share = n / (n + m)
        q = q * share + buffered.mean(axis=0) * (m / (n + m))
    q_clamped, log_q = _clamped_log(q)
    marginal_entropy = (q * log_q).sum() * -LOG2E
    extra, marginal_term = {}, marginal_entropy
    if marginal is not None:
        log_m = _clamped_log(marginal.value)[1]
        marginal_term = _cross_entropy_bits(c, log_m)
        extra["adversarial_marginal_bits"] = float(marginal_term)
    loss = nm.Node(ce - marginal_term)
    if tape is not None:
        def backward(g):
            grad = np.empty_like(probs.value)
            to_bits = -g * -LOG2E  # the marginal term enters the loss negated
            if marginal is None:
                dq = to_bits * log_q + _log_grad(to_bits * q, q, q_clamped)
                if share is not None:
                    dq = dq * share
                grad[0] = dq / n
            else:
                grad[0] = (to_bits / n) * log_m
            per_cell = (g * -LOG2E) / n
            grad[0] += per_cell * log_p
            grad[1] = _log_grad(per_cell * c, p, p_clamped)
            nm._acc(probs, grad)

        tape._record(loss, backward)
    return loss, _terms(ce, marginal_entropy, loss, probs, **extra)


def marginal_fit_loss(
    confirm_dists: Dists, marginal: nm.Node, tape: Optional[nm.Tape] = None
) -> nm.Node:
    """Cross entropy (bits) of the frozen confirm batch against the [Z] marginal.

    This is the marginal model's own training loss; gradients reach only
    the marginal.
    """
    c = _as_node(confirm_dists, pair=False).value
    clamped, log_m = _clamped_log(marginal.value)
    loss = nm.Node(_cross_entropy_bits(c, log_m))
    if tape is not None:
        def backward(g):
            per_cell = (g * -LOG2E) / c.shape[0]
            nm._acc(marginal, _log_grad((per_cell * c).sum(axis=0), marginal.value, clamped))

        tape._record(loss, backward)
    return loss
