"""The three parametric models over the symbol alphabet.

Two independent window encoders share one architecture: a GRU folded over
the window's frames followed by a linear layer and softmax. The confirm
side reads the later half (y) of a window pair and produces the
distribution whose samples act as training targets; the predict side
reads the earlier half (x) and tries to match it. A third model is a bare
logit vector giving a trainable marginal over symbols for the adversarial
objective.

All three live in one float ``ParamStore`` whose ``Param``s enter the
graph directly as tape leaves. Each encoder parameter is one stacked
[2, ...] ``Param`` (``gru.w_r`` ... ``gru.h0``, ``out.w``, ``out.b``), row 0
confirm and row 1 predict; ``named_arrays`` gives each side's rows under
the per-side names of ``param_shapes``, the checkpoint's arrays.

``encode_node(SIDES, frames, tape)`` is the one taped encoder call: both
sides' windows stacked as [2, N, L, d], confirm first, give symbol
probabilities [2, N, Z] through one GRU pass, one affine map and one
softmax, each side's values and gradients bit-identical to a model of that
side alone. Windows whose two lengths differ come as a (y, x) pair of
[N, L, d] batches: one GRU pass per side on its parameter row, joined
before the paired head. One side, ``encode_node(CONFIRM or PREDICT,
frames)``, runs untaped only, [N, L, d] to [N, Z]. Untaped, each side also
takes a stack of equal-sized batches [B, N, L, d] (both sides
[2, B, N, L, d]), giving [B, N, Z] whose every [N, Z] slice is
bit-identical to that batch's own call. ``marginal_node`` gives the
marginal's [Z] probabilities.

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
MARGINAL = "marginal.logits"

TAG_INIT = 101


def param_shapes(input_dim: int, alphabet_size: int, hidden_dim: int) -> list[tuple[str, tuple]]:
    """(name, shape) of every parameter array a checkpoint holds, in its order."""
    h, d, z = hidden_dim, input_dim, alphabet_size
    gru = {"w": (h, d), "u": (h, h), "b": (h,)}
    shapes = []
    for side in SIDES:
        shapes += [(f"{side}.gru.{slot}", gru[slot[0]]) for slot in nm.GRU_SLOTS]
        shapes += [(f"{side}.gru.h0", (h,)), (f"{side}.out.w", (z, h)), (f"{side}.out.b", (z,))]
    return shapes + [(MARGINAL, (z,))]


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
        for name, shape in param_shapes(input_dim, alphabet_size, hidden_dim):
            side, slot = name.split(".", 1)
            if side == CONFIRM:
                self.store.add(slot, np.zeros((len(SIDES),) + shape))
            elif side not in SIDES:
                self.store.add(name, np.zeros(shape))
        self._gru = {slot: self.store[f"gru.{slot}"] for slot in (*nm.GRU_SLOTS, "h0")}
        # the draws fill the checkpoint's arrays in its order
        rng = nm.stream_rng(seed, TAG_INIT)
        for array in self.named_arrays().values():
            if array.ndim == 2:  # a weight matrix; its fan-in is its column count
                array[...] = rng.uniform(-1.0, 1.0, size=array.shape) / np.sqrt(array.shape[1])

    def named_arrays(self) -> dict[str, np.ndarray]:
        """Every parameter array under its ``param_shapes`` name, in that
        order: each side's row of each encoder parameter, then the marginal
        logits. The arrays are views: writing one writes the parameter."""
        params = dict(self.store.items())
        marginal = params.pop(MARGINAL)
        arrays = {
            f"{side}.{slot}": param.value[s]
            for s, side in enumerate(SIDES)
            for slot, param in params.items()
        }
        arrays[MARGINAL] = marginal.value
        return arrays

    def encode_node(
        self, side: Union[str, tuple], frames, tape: Optional[nm.Tape] = None
    ) -> nm.Node:
        """Symbol probabilities [2, N, Z] for ``SIDES``' windows, stacked as
        [2, N, L, d] or paired as (y, x); [N, Z] for one side's batch of
        windows [N, L, d], untaped.

        Untaped, a stack of batches per side, [B, N, L, d] (both sides
        [2, B, N, L, d]), gives [B, N, Z] per side.
        """
        if side == SIDES:
            if isinstance(frames, tuple):
                hidden = self._join(tape, frames)
            else:
                hidden = nm.gru_sequence(tape, self._gru, self._windows(frames, 4, tape))
            logits = nm.affine(tape, self.store["out.w"], self.store["out.b"], hidden)
            return nm.softmax(tape, logits)
        if side not in SIDES:
            raise ValueError(f"unknown side {side!r}")
        if tape is not None:
            raise ValueError("one side alone runs untaped; a taped call takes both SIDES")
        s = SIDES.index(side)
        hidden = nm.gru_sequence(None, self._gru, self._windows(frames, 3, tape)[None], side=s)
        w, b = (nm.Node(self.store[name].value[s : s + 1]) for name in ("out.w", "out.b"))
        return nm.Node(nm.softmax(None, nm.affine(None, w, b, hidden)).value[0])

    def _windows(self, frames, rank: int, tape: Optional[nm.Tape]) -> np.ndarray:
        """`frames` in the store's dtype, once they are one side's batch of
        windows [N, L, d] (`rank` 3) or both sides' [2, N, L, d] (`rank` 4);
        untaped, each side may hold a stack of batches, one axis more."""
        given = np.asarray(frames, dtype=self.store.dtype)
        lead = f"{len(SIDES)}, " if rank == 4 else ""
        if (given.ndim not in (rank, rank + (tape is None)) or given.shape[-1] != self.input_dim
                or (rank == 4 and len(given) != len(SIDES))):
            raise ValueError(
                f"encode_node takes windows [{lead}N, L, {self.input_dim}] (untaped also "
                f"[{lead}B, N, L, {self.input_dim}]), got shape {given.shape}"
            )
        return given

    def _join(self, tape: Optional[nm.Tape], pair: tuple) -> nm.Node:
        """One GRU pass per side of a (y, x) pair of batches whose window
        lengths may differ, each on its side's parameter row, joined as the
        [2, N, H] hidden state."""
        parts = [
            nm.gru_sequence(tape, self._gru, self._windows(frames, 3, tape)[None], side=s)
            for s, frames in enumerate(pair)
        ]
        joined = nm.Node(np.concatenate([part.value for part in parts]))
        if tape is not None:
            def backward(g):
                for s, part in enumerate(parts):
                    nm._acc(part, g[s : s + 1])

            tape._record(joined, backward)
        return joined

    def marginal_node(self, tape: Optional[nm.Tape] = None) -> nm.Node:
        return nm.softmax(tape, self.store[MARGINAL])
