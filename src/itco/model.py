"""The three parametric models over the symbol alphabet.

Two independent window encoders share one architecture: a GRU folded over
the window's frames followed by a linear layer and softmax. The confirm
side reads the later half (y) of a window pair and produces the
distribution whose samples act as training targets; the predict side
reads the earlier half (x) and tries to match it. A third model is a bare
logit vector giving a trainable marginal over symbols for the adversarial
objective.

All three live in one float ``ParamStore``, laid out by
``param_shapes``, whose ``Param``s enter the graph directly as tape
leaves. ``encode_node`` maps a batch of windows [N, L, d], and only a
batch, to symbol probabilities [N, Z]; a single window is a batch of one,
``frames[None]``. An untaped call also takes a stack of equal-sized
batches [B, N, L, d], giving [B, N, Z] whose every [N, Z] slice is
bit-identical to that batch's own call. ``marginal_node`` gives the
marginal's [Z] probabilities. With a tape the reverse sweep fills the
``Param`` gradients; without one the pass is forward only.

The two encoders share no parameters; perturbing one side never changes
the other side's outputs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import numerics as nm

__all__ = [
    "EncoderParams",
    "param_shapes",
    "CONFIRM",
    "PREDICT",
    "SIDES",
]

CONFIRM = "confirm"  # consumes y, the window's future frames
PREDICT = "predict"  # consumes x, the window's past frames
SIDES = (CONFIRM, PREDICT)

TAG_INIT = 101


def param_shapes(input_dim: int, alphabet_size: int, hidden_dim: int) -> list[tuple[str, tuple]]:
    """(name, shape) of every parameter, in store order."""
    h, d, z = hidden_dim, input_dim, alphabet_size
    gru = {"w": (h, d), "u": (h, h), "b": (h,)}
    shapes = []
    for side in SIDES:
        shapes += [(f"{side}.gru.{slot}", gru[slot[0]]) for slot in nm.GRU_SLOTS]
        shapes += [(f"{side}.gru.h0", (h,)), (f"{side}.out.w", (z, h)), (f"{side}.out.b", (z,))]
    return shapes + [("marginal.logits", (z,))]


class EncoderParams:
    """Parameter store for both encoders plus the marginal logit vector.

    GRU weights draw from U(-a, a) with a = 1/sqrt(fan-in); biases, the
    trainable initial hidden state, and the marginal logits start at zero,
    so freshly initialized models emit the uniform distribution.
    """

    def __init__(
        self,
        input_dim: int,
        alphabet_size: int = 64,
        hidden_dim: int = 64,
        seed: int = 0,
        dtype=np.float32,
    ):
        self.input_dim = input_dim
        self.alphabet_size = alphabet_size
        self.store = nm.ParamStore(dtype=dtype)
        rng = nm.stream_rng(seed, TAG_INIT)
        for name, shape in param_shapes(input_dim, alphabet_size, hidden_dim):
            if len(shape) == 2:  # a weight matrix; its fan-in is its column count
                value = rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(shape[1])
            else:
                value = np.zeros(shape)
            self.store.add(name, value)

    def encode_node(
        self, side: str, frames: np.ndarray, tape: Optional[nm.Tape] = None
    ) -> nm.Node:
        """Symbol probabilities [N, Z] for a batch of windows [N, L, d].

        Untaped, a stack of batches [B, N, L, d] gives [B, N, Z].
        """
        if side not in SIDES:
            raise ValueError(f"unknown side {side!r}")
        frames = np.asarray(frames, dtype=self.store.dtype)
        ranks = (3,) if tape is not None else (3, 4)
        if frames.ndim not in ranks or frames.shape[-1] != self.input_dim:
            raise ValueError(
                f"encode_node takes windows [N, L, {self.input_dim}] (untaped also "
                f"[B, N, L, {self.input_dim}]), got shape {frames.shape}"
            )
        gru = {slot: self.store[f"{side}.gru.{slot}"] for slot in (*nm.GRU_SLOTS, "h0")}
        hidden = nm.gru_sequence(tape, gru, frames)
        logits = nm.affine(tape, self.store[f"{side}.out.w"], self.store[f"{side}.out.b"], hidden)
        return nm.softmax(tape, logits)

    def marginal_node(self, tape: Optional[nm.Tape] = None) -> nm.Node:
        return nm.softmax(tape, self.store["marginal.logits"])
