"""The two parametric models over the symbol alphabet.

Two independent window encoders share one architecture: a GRU folded over
the window's frames followed by a linear layer and softmax. The confirm
side reads the later half (y) of a window pair and produces the
distribution whose samples act as training targets; the predict side
reads the earlier half (x) and tries to match it.

Both live in one float ``ParamStore`` whose nodes enter the graph
directly as tape leaves. Each encoder parameter is one stacked [2, ...]
node (``gru.w_r`` ... ``gru.h0``, ``out.w``, ``out.b``), row 0
confirm and row 1 predict; ``named_arrays`` gives each side's rows under
the per-side names of ``param_shapes``, the checkpoint's arrays.

``encode_node(SIDES, (y, x), tape)`` is the one taped encoder call: both
sides' windows as the (y, x) pair of [N, L, d] batches that
``corpus.window_pairs`` cuts from one utterance give probabilities
[2, N, Z], confirm first, each side's values and gradients bit-identical
to a model of that side alone. Only this module puts the two sides on one
axis: windows of one length are stacked once per call for one GRU pass;
windows whose lengths differ run one GRU pass per side, joined before the
paired head. Untaped, each batch may be a stack of equal-sized batches
[B, N, L, d], as ``window_pairs`` cuts a run of B utterances, giving
[2, B, N, Z] whose every [2, N, Z] slice is bit-identical to that batch's
own call. One side, ``encode_node(CONFIRM or PREDICT, frames)``, runs
untaped only, giving [N, Z] (or [B, N, Z]).

The two encoders share no parameters; perturbing one side never changes
the other side's outputs.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

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
    """(name, shape) of every parameter array a checkpoint holds, in its order."""
    h, d, z = hidden_dim, input_dim, alphabet_size
    gru = {"w": (h, d), "u": (h, h), "b": (h,)}
    shapes = []
    for side in SIDES:
        shapes += [(f"{side}.gru.{slot}", gru[slot[0]]) for slot in nm.GRU_SLOTS]
        shapes += [(f"{side}.gru.h0", (h,)), (f"{side}.out.w", (z, h)), (f"{side}.out.b", (z,))]
    return shapes


class EncoderParams:
    """Parameter store for both encoders.

    It holds the arrays it is given, under their ``param_shapes`` names
    (what ``named_arrays`` returns, or a checkpoint holds), cast to
    `dtype`. ``fresh`` draws a new model's.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray], dtype=np.float32):
        self.input_dim = arrays[f"{CONFIRM}.gru.w_r"].shape[1]
        self.alphabet_size = arrays[f"{CONFIRM}.out.b"].shape[0]
        hidden_dim = arrays[f"{CONFIRM}.gru.h0"].shape[0]
        self.store = nm.ParamStore(dtype=dtype)
        for name, _ in param_shapes(self.input_dim, self.alphabet_size, hidden_dim):
            side, slot = name.split(".", 1)
            if side == CONFIRM:
                self.store.add(slot, np.stack([arrays[f"{s}.{slot}"] for s in SIDES]))
        self._gru = {slot: self.store[f"gru.{slot}"] for slot in (*nm.GRU_SLOTS, "h0")}

    @classmethod
    def fresh(
        cls, input_dim: int, alphabet_size: int = 64, hidden_dim: int = 64, seed: int = 0,
        dtype=np.float32,
    ) -> "EncoderParams":
        """A newly initialized model. GRU weights draw from U(-a, a) with
        a = 1/sqrt(fan-in), in the checkpoint's array order; biases and the
        trainable initial hidden state start at zero, so a fresh model emits
        the uniform distribution."""
        rng = nm.stream_rng(seed, TAG_INIT)
        arrays = {
            # a weight matrix's fan-in is its column count
            name: rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(shape[1])
            if len(shape) == 2 else np.zeros(shape)
            for name, shape in param_shapes(input_dim, alphabet_size, hidden_dim)
        }
        return cls(arrays, dtype)

    def named_arrays(self) -> dict[str, np.ndarray]:
        """Every parameter array under its ``param_shapes`` name, in that
        order: each side's row of each encoder parameter. The arrays are
        views: writing one writes the parameter."""
        return {
            f"{side}.{slot}": param.value[s]
            for s, side in enumerate(SIDES)
            for slot, param in self.store.items()
        }

    def encode_node(
        self, side: Union[str, tuple], frames, tape: Optional[nm.Tape] = None
    ) -> nm.Node:
        """Symbol probabilities [2, N, Z] for ``SIDES``' windows, given as the
        (y, x) pair of [N, L, d] batches; [N, Z] for one side's batch of
        windows [N, L, d], untaped.

        Untaped, each batch may be a stack of batches [B, N, L, d], giving
        [2, B, N, Z] for the pair and [B, N, Z] for one side.
        """
        if side == SIDES:
            y, x = (self._windows(batch, tape) for batch in frames)
            if y.shape == x.shape:
                hidden = nm.gru_sequence(tape, self._gru, np.stack((y, x)))
            else:
                hidden = self._join(tape, (y, x))
            logits = nm.affine(tape, self.store["out.w"], self.store["out.b"], hidden)
            return nm.softmax(tape, logits)
        if side not in SIDES:
            raise ValueError(f"unknown side {side!r}")
        if tape is not None:
            raise ValueError("one side alone runs untaped; a taped call takes both SIDES")
        s = SIDES.index(side)
        hidden = nm.gru_sequence(None, self._gru, self._windows(frames, tape)[None], side=s)
        w, b = (nm.Node(self.store[name].value[s : s + 1]) for name in ("out.w", "out.b"))
        return nm.Node(nm.softmax(None, nm.affine(None, w, b, hidden)).value[0])

    def _windows(self, frames, tape: Optional[nm.Tape]) -> np.ndarray:
        """One side's batch of windows [N, L, d] in the store's dtype;
        untaped, also a stack of batches [B, N, L, d]."""
        given = np.asarray(frames, dtype=self.store.dtype)
        if given.ndim not in (3, 3 + (tape is None)) or given.shape[-1] != self.input_dim:
            raise ValueError(
                f"encode_node takes windows [N, L, {self.input_dim}] (untaped also "
                f"[B, N, L, {self.input_dim}]), got shape {given.shape}"
            )
        return given

    def _join(self, tape: Optional[nm.Tape], pair: tuple) -> nm.Node:
        """One GRU pass per side of a (y, x) pair of batches whose window
        lengths differ, each on its side's parameter row, joined as the
        [2, N, H] hidden state."""
        parts = [
            nm.gru_sequence(tape, self._gru, frames[None], side=s) for s, frames in enumerate(pair)
        ]
        joined = nm.Node(np.concatenate([part.value for part in parts]))
        if tape is not None:
            def backward(g):
                for s, part in enumerate(parts):
                    nm._acc(part, g[s : s + 1])

            tape._record(joined, backward)
        return joined
