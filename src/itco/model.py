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
leaves. Each GRU parameter of the two encoders is a row of one stacked
[2, ...] array, confirm first, and each named ``Param`` is a view of its
row, so both sides run as one GRU step loop without stacking their
weights per call, and checkpoints keep one array per name.

``encode_node`` maps one side's batch of windows [N, L, d] to symbol
probabilities [N, Z]; a single window is a batch of one, ``frames[None]``.
Given both sides, ``SIDES``, it maps their batches stacked as
[2, N, L, d], confirm first, to a (confirm, predict) pair of [N, Z]
nodes: one ``gru_sequence`` call runs both GRUs, and each side's values
and gradients are bit-identical to its own call. Untaped, a side also
takes a stack of equal-sized batches [B, N, L, d] (both sides
[2, B, N, L, d]), giving [B, N, Z] whose every [N, Z] slice is
bit-identical to that batch's own call. ``marginal_node`` gives the
marginal's [Z] probabilities. With a tape the reverse sweep fills the
``Param`` gradients; without one the pass is forward only.

The two encoders share no parameters; perturbing one side never changes
the other side's outputs.
"""

from __future__ import annotations

from typing import Optional, Union

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
        shapes = param_shapes(input_dim, alphabet_size, hidden_dim)
        stacked = {
            name.split(".")[-1]: np.empty((len(SIDES),) + shape, self.store.dtype)
            for name, shape in shapes
            if name.startswith(f"{CONFIRM}.gru.")
        }
        for name, shape in shapes:
            if len(shape) == 2:  # a weight matrix; its fan-in is its column count
                value = rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(shape[1])
            else:
                value = np.zeros(shape)
            side, layer, *slot = name.split(".")
            if layer == "gru":
                row = stacked[slot[0]][SIDES.index(side)]
                row[...] = value
                value = row
            self.store.add(name, value)
        # the GRU parameter stacks of each side alone and of both sides
        self._gru = {}
        for key, rows in ((CONFIRM, slice(0, 1)), (PREDICT, slice(1, 2)), (SIDES, slice(0, 2))):
            self._gru[key] = {
                slot: nm.ParamStack(
                    value[rows], [self.store[f"{side}.gru.{slot}"] for side in SIDES[rows]]
                )
                for slot, value in stacked.items()
            }

    def encode_node(
        self, side: Union[str, tuple], frames: np.ndarray, tape: Optional[nm.Tape] = None
    ) -> Union[nm.Node, tuple[nm.Node, ...]]:
        """Symbol probabilities [N, Z] for one side's batch of windows
        [N, L, d]; for ``SIDES``, the (confirm, predict) pair for both
        sides' batches stacked as [2, N, L, d].

        Untaped, a stack of batches per side, [B, N, L, d] (both sides
        [2, B, N, L, d]), gives [B, N, Z] per side.
        """
        stacks = self._gru.get(side) if isinstance(side, (str, tuple)) else None
        if stacks is None:
            raise ValueError(f"unknown side {side!r}")
        single = isinstance(side, str)
        sides = (side,) if single else side
        given = np.asarray(frames, dtype=self.store.dtype)
        frames = given[None] if single else given
        ranks = (4,) if tape is not None else (4, 5)
        if frames.ndim not in ranks or len(frames) != len(sides) or frames.shape[-1] != self.input_dim:
            batch = "" if single else f"{len(sides)}, "
            raise ValueError(
                f"encode_node takes windows [{batch}N, L, {self.input_dim}] (untaped also "
                f"[{batch}B, N, L, {self.input_dim}]), got shape {given.shape}"
            )
        hidden = nm.gru_sequence(tape, stacks, frames)
        probs = tuple(
            nm.softmax(tape, nm.affine(tape, self.store[f"{s}.out.w"], self.store[f"{s}.out.b"], h))
            for s, h in zip(sides, nm.unstack(tape, hidden))
        )
        return probs[0] if single else probs

    def marginal_node(self, tape: Optional[nm.Tape] = None) -> nm.Node:
        return nm.softmax(tape, self.store["marginal.logits"])
