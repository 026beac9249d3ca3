"""Finite-difference check of every differentiable primitive the program
runs, the fused GRU sequence, the encoders and the training loss: small
float64 cases, each brought to a scalar by its loss or by a random
projection, scored by their worst relative gradient error.

Every case draws its inputs from its own random stream, keyed by the seed
and the case's name, so no case's inputs depend on which other cases exist
or in what order they are built.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import numerics as nm
from . import objective as ob
from .model import SIDES, EncoderParams

TAG_GRADCHECK = 777
HIDDEN, INPUT = 4, 3  # GRU cases: hidden width and frame width


def case_rng(seed: int, name: str) -> np.random.Generator:
    """The random stream of one named case."""
    return nm.stream_rng(seed, TAG_GRADCHECK, zlib.crc32(name.encode()))


def projected(tape, node, r):
    """sum(node * r): a random fixed projection to a scalar, so sign errors
    cannot cancel, as one tape node."""
    out = nm.Node((node.value * r).sum())
    if tape is not None:
        tape._record(out, lambda g: nm._acc(node, g * r))
    return out


def simple_case(seed: int, name: str, build, *shapes):
    """(name, store, loss_fn) for ``build(tape, *params)`` on normal float64
    parameters of ``shapes``, projected by a normal vector of its output's
    shape."""
    rng = case_rng(seed, name)
    store = nm.ParamStore(dtype=np.float64)
    params = [store.add(f"p{i}", rng.normal(size=s)) for i, s in enumerate(shapes)]
    r = rng.normal(size=build(None, *params).value.shape)
    return name, store, lambda tape: projected(tape, build(tape, *params), r)


def gru_store(rng: np.random.Generator, sides: tuple = ()) -> nm.ParamStore:
    """GRU parameters of the cases' widths with an [H] h0, fan-in scaled,
    each with the leading `sides` axes."""
    store = nm.ParamStore(dtype=np.float64)
    scale_w = 1.0 / np.sqrt(INPUT)
    scale_u = 1.0 / np.sqrt(HIDDEN)
    for slot in nm.GRU_SLOTS:
        if slot.startswith("w_"):
            store.add(slot, rng.uniform(-scale_w, scale_w, size=sides + (HIDDEN, INPUT)))
        elif slot.startswith("u_"):
            store.add(slot, rng.uniform(-scale_u, scale_u, size=sides + (HIDDEN, HIDDEN)))
        else:
            store.add(slot, rng.normal(size=sides + (HIDDEN,)) * 0.1)
    store.add("h0", rng.normal(size=sides + (HIDDEN,)) * 0.1)
    return store


def _gru_sequence_case(seed: int, name: str, frames_shape):
    # one side: its [N, L, d] frames and its parameters, each an S=1 stack
    rng = case_rng(seed, name)
    store = gru_store(rng, (1,))
    frames = rng.normal(size=frames_shape)
    r = rng.normal(size=frames_shape[:-2] + (HIDDEN,))

    def loss_fn(tape):
        return projected(tape, nm.gru_sequence(tape, store, frames[None]), r[None])

    return name, store, loss_fn


def _encoder_pair_case(seed: int, name: str, lengths):
    """Both encoders in one paired call on a (y, x) pair of window
    `lengths`, every parameter of each side drawn apart, each side's
    probabilities projected by its own weights."""
    rng = case_rng(seed, name)
    ep = EncoderParams.fresh(
        input_dim=INPUT, alphabet_size=4, hidden_dim=HIDDEN, seed=seed, dtype=np.float64
    )
    for array in ep.named_arrays().values():
        array[...] = rng.uniform(-1.0, 1.0, size=array.shape) / np.sqrt(HIDDEN)
    pair = tuple(rng.normal(size=(2, steps, INPUT)) for steps in lengths)
    r = rng.normal(size=(len(SIDES), 2, 4))

    return name, ep.store, lambda tape: projected(tape, ep.encode_node(SIDES, pair, tape), r)


def _objective_case(seed: int, name: str, loss, draw=None):
    """``loss(tape, ep, pair, fixed)`` on toy float64 encoders and the
    (y, x) pair of one batch of windows; ``fixed = draw(rng)`` takes any
    further fixed input from the case's stream."""
    rng = case_rng(seed, name)
    ep = EncoderParams.fresh(
        input_dim=INPUT, alphabet_size=4, hidden_dim=HIDDEN, seed=seed, dtype=np.float64
    )
    x = rng.normal(size=(2, 4, INPUT))
    y = rng.normal(size=(2, 4, INPUT))
    fixed = draw(rng) if draw is not None else None
    return name, ep.store, lambda tape: loss(tape, ep, (y, x), fixed)


def _utterance_loss(tape, ep, pair, marginal):
    return ob.utterance_loss(ep.encode_node(SIDES, pair, tape), tape, marginal)[0]


def _buffered_reference(rng):
    # global entropy mode: the mean of earlier utterances' confirm rows, held fixed
    return rng.dirichlet(np.ones(4), size=6).mean(axis=0)


def gradcheck_cases(seed: int):
    """(name, store, loss_fn) for every primitive the program tapes, the GRU
    sequence node at three shapes, both encoders in a paired call at equal
    and at unequal window lengths, and the training loss in both entropy
    modes."""
    cases = [
        simple_case(seed, name, build, *shapes)
        for name, build, *shapes in (
            ("affine_batch", nm.affine, (2, 3, 4), (2, 3), (2, 5, 4)),
            ("softmax", nm.softmax, (6,)),
            ("softmax_batch", nm.softmax, (4, 6)),
        )
    ]
    # a batch, one window in a batch, and one step
    cases += [
        _gru_sequence_case(seed, name, frames_shape)
        for name, frames_shape in (
            ("gru_sequence", (2, 5, INPUT)),
            ("gru_sequence_n1", (1, 5, INPUT)),
            ("gru_sequence_l1", (2, 1, INPUT)),
        )
    ]
    cases += [
        _encoder_pair_case(seed, name, lengths)
        for name, lengths in (("encoder_pair", (5, 5)), ("encoder_pair_unequal", (5, 3)))
    ]
    cases += [
        _objective_case(seed, name, loss, draw)
        for name, loss, draw in (
            ("utterance_loss", _utterance_loss, None),
            ("utterance_loss_global", _utterance_loss, _buffered_reference),
        )
    ]
    return cases


def run_gradcheck(seed: int) -> list[tuple[str, float]]:
    return [
        (name, nm.finite_diff_check(loss_fn, store, epsilon=1e-5))
        for name, store, loss_fn in gradcheck_cases(seed)
    ]
