"""The three parametric models over the symbol alphabet.

Two independent window encoders share one architecture: a GRU folded over
the window's frames followed by a linear layer and softmax. The confirm
side reads the later half (y) of a window pair and produces the
distribution whose samples act as training targets; the predict side
reads the earlier half (x) and tries to match it. A third model is a bare
logit vector giving a trainable marginal over symbols for the adversarial
objective.

The two encoders share no parameters; perturbing one side never changes
the other side's outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics as nm

__all__ = [
    "SymbolDistribution",
    "EncoderParams",
    "CONFIRM",
    "PREDICT",
    "SIDES",
]

CONFIRM = "confirm"  # consumes y, the window's future frames
PREDICT = "predict"  # consumes x, the window's past frames
SIDES = (CONFIRM, PREDICT)

TAG_INIT = 101


@dataclass(frozen=True)
class SymbolDistribution:
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs))
        p = self.probs
        if p.ndim != 1 or np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError("probs must be a probability vector (sum 1 within 1e-9)")

    def entropy_bits(self) -> float:
        p = self.probs[self.probs > 0]
        return float(-(p * np.log2(p)).sum())


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
        if alphabet_size < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        self.input_dim = input_dim
        self.alphabet_size = alphabet_size
        self.hidden_dim = hidden_dim
        self.store = nm.ParamStore(dtype=dtype)
        rng = nm.stream_rng(seed, TAG_INIT)
        h, d, z = hidden_dim, input_dim, alphabet_size
        for side in SIDES:
            for slot in nm.GRU_SLOTS:
                if slot.startswith("b"):
                    value = np.zeros(h)
                elif slot.startswith("w"):
                    value = rng.uniform(-1.0, 1.0, size=(h, d)) / np.sqrt(d)
                else:
                    value = rng.uniform(-1.0, 1.0, size=(h, h)) / np.sqrt(h)
                self.store.add(f"{side}.gru.{slot}", value)
            self.store.add(f"{side}.gru.h0", np.zeros(h))
            self.store.add(f"{side}.out.w", rng.uniform(-1.0, 1.0, size=(z, h)) / np.sqrt(h))
            self.store.add(f"{side}.out.b", np.zeros(z))
        self.store.add("marginal.logits", np.zeros(z))

    def side_param_names(self, side: str) -> list[str]:
        if side not in SIDES:
            raise ValueError(f"unknown side {side!r}")
        return [f"{side}.gru.{slot}" for slot in (*nm.GRU_SLOTS, "h0")] + [
            f"{side}.out.w",
            f"{side}.out.b",
        ]

    def _gru_nodes(self, side: str, tape: Optional[nm.Tape]) -> dict[str, nm.Node]:
        nodes = {
            slot: nm.watch(tape, self.store[f"{side}.gru.{slot}"])
            for slot in nm.GRU_SLOTS
        }
        nodes["h0"] = nm.watch(tape, self.store[f"{side}.gru.h0"])
        return nodes

    def encode_node(
        self, side: str, frames: np.ndarray, tape: Optional[nm.Tape] = None
    ) -> nm.Node:
        """Symbol probabilities for one window [L, d] or a batch [N, L, d]."""
        if side not in SIDES:
            raise ValueError(f"unknown side {side!r}")
        frames = np.asarray(frames, dtype=self.store.dtype)
        if frames.shape[-1] != self.input_dim:
            raise ValueError(
                f"window frames have dimension {frames.shape[-1]}, "
                f"model expects {self.input_dim}"
            )
        hidden = nm.gru_sequence(tape, self._gru_nodes(side, tape), frames)
        logits = nm.affine(
            tape,
            nm.watch(tape, self.store[f"{side}.out.w"]),
            nm.watch(tape, self.store[f"{side}.out.b"]),
            hidden,
        )
        return nm.softmax(tape, logits)

    def encode(self, side: str, frames: np.ndarray) -> SymbolDistribution:
        probs = self.encode_node(side, frames).value
        if probs.ndim != 1:
            raise ValueError("encode takes a single [L, d] window; use encode_node for batches")
        # renormalize in f64 so float32 rounding cannot break the
        # SymbolDistribution sum invariant
        probs = probs.astype(np.float64)
        return SymbolDistribution(probs / probs.sum())

    def marginal_node(self, tape: Optional[nm.Tape] = None) -> nm.Node:
        return nm.softmax(tape, nm.watch(tape, self.store["marginal.logits"]))

    def marginal_theta(self) -> SymbolDistribution:
        probs = self.marginal_node().value.astype(np.float64)
        return SymbolDistribution(probs / probs.sum())
