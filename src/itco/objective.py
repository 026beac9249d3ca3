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
reported mutual-information lower bound. Given a fixed reference
``marginal`` (the global entropy mode's mean of earlier confirm rows), the
same loss replaces the marginal term with the confirm side's cross entropy
against that reference.

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
    "LOG2E",
]

LOG2E = float(np.log2(np.e))
LOG_FLOOR = 1e-30

Dists = Union[nm.Node, np.ndarray]  # [2, N, Z]: a window pair's distributions, one per window


@dataclass
class ObjectiveTerms:
    cross_entropy_bits: float
    marginal_entropy_bits: float
    mi_bound_bits: float
    loss: float
    saturation_count: int
    reference_cross_entropy_bits: Optional[float] = None


def _as_node(dists: Dists) -> nm.Node:
    """Coerce a window pair's distributions [2, N, Z] (confirm, then
    predict; row i of each from window i) to a node; N must be at least 1."""
    node = dists if isinstance(dists, nm.Node) else nm.Node(np.asarray(dists))
    shape = node.value.shape
    if len(shape) != 3 or shape[0] != 2 or shape[1] == 0:
        raise ValueError(f"distributions must form a [2, N, Z] array, N >= 1, got shape {shape}")
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
    log of `scored`, which is [N, Z] (per window) or [Z] (one reference)."""
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
    probs: Dists, tape: Optional[nm.Tape] = None, marginal: Optional[np.ndarray] = None
) -> tuple[nm.Node, ObjectiveTerms]:
    """The encoders' loss for one utterance: cross entropy minus the marginal term.

    The cross entropy is averaged over the minibatch's windows; the
    marginal term is one entropy of the batch mean and is deliberately not
    averaged. Given a fixed [Z] reference ``marginal`` instead, the marginal
    term is the confirm side's cross entropy against it, reported as
    ``reference_cross_entropy_bits``: the confirm side pushes its average
    away from the reference, which gets no gradient. Gradients reach the
    confirm side through both terms and the predict side through the first
    only.
    """
    probs = _as_node(probs)
    c, p = probs.value
    n = c.shape[0]
    p_clamped, log_p = _clamped_log(p)
    ce = _cross_entropy_bits(c, log_p)
    q = c.mean(axis=0)
    q_clamped, log_q = _clamped_log(q)
    marginal_entropy = (q * log_q).sum() * -LOG2E
    extra, marginal_term = {}, marginal_entropy
    if marginal is not None:
        log_m = _clamped_log(marginal)[1]
        marginal_term = _cross_entropy_bits(c, log_m)
        extra["reference_cross_entropy_bits"] = float(marginal_term)
    loss = nm.Node(ce - marginal_term)
    if tape is not None:
        def backward(g):
            grad = np.empty_like(probs.value)
            to_bits = -g * -LOG2E  # the marginal term enters the loss negated
            if marginal is None:
                grad[0] = (to_bits * log_q + _log_grad(to_bits * q, q, q_clamped)) / n
            else:
                grad[0] = (to_bits / n) * log_m
            per_cell = (g * -LOG2E) / n
            grad[0] += per_cell * log_p
            grad[1] = _log_grad(per_cell * c, p, p_clamped)
            nm._acc(probs, grad)

        tape._record(loss, backward)
    return loss, _terms(ce, marginal_entropy, loss, probs, **extra)
