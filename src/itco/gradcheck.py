"""Finite-difference check of every differentiable primitive, the fused GRU
sequence, the encoders and each objective term: small float64 cases, each
projected to a scalar, scored by their worst relative gradient error."""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from . import objective as ob
from .model import EncoderParams


def _projected(tape, node, r: np.ndarray):
    """Random fixed projection to a scalar so sign errors cannot cancel."""
    return nm.sum_(tape, nm.mul(tape, node, nm.constant(r)))


def _gradcheck_cases(seed: int):
    """(name, store, loss_fn) triples covering every differentiable primitive."""
    rng = nm.stream_rng(seed, 777)

    def vec(shape):
        return rng.normal(size=shape)

    cases = []

    def simple(name, build, *shapes):
        store = nm.ParamStore(dtype=np.float64)
        params = [store.add(f"p{i}", vec(s)) for i, s in enumerate(shapes)]
        r = None

        def loss_fn(tape):
            nonlocal r
            out = build(tape, *params)
            if r is None:
                r = rng.normal(size=out.value.shape)
            return _projected(tape, out, r)

        cases.append((name, store, loss_fn))

    simple("add", lambda t, a, b: nm.add(t, a, b), (3, 4), (3, 4))
    simple("add_broadcast", lambda t, a, b: nm.add(t, a, b), (3, 4), (4,))
    simple("sub", lambda t, a, b: nm.sub(t, a, b), (5,), (5,))
    simple("mul", lambda t, a, b: nm.mul(t, a, b), (3, 4), (3, 4))
    simple("mul_broadcast", lambda t, a, b: nm.mul(t, a, b), (3, 4), (4,))
    simple("scale", lambda t, a: nm.scale(t, a, -1.7), (6,))
    simple("one_minus", lambda t, a: nm.one_minus(t, a), (4,))
    simple("affine_vector", lambda t, w, b, v: nm.affine(t, w, b, v), (3, 4), (3,), (4,))
    simple("affine_batch", lambda t, w, b, v: nm.affine(t, w, b, v), (3, 4), (3,), (5, 4))
    simple("linear", lambda t, w, h: nm.linear(t, w, h), (3, 4), (4,))
    simple("sigmoid", lambda t, a: nm.sigmoid(t, a), (7,))
    simple("tanh", lambda t, a: nm.tanh(t, a), (7,))
    simple(
        "log_clamped",
        lambda t, a: nm.log_clamped(t, nm.add(t, nm.mul(t, a, a), nm.constant(np.full(5, 0.5)))),
        (5,),
    )
    simple("softmax", lambda t, a: nm.softmax(t, a), (6,))
    simple("softmax_batch", lambda t, a: nm.softmax(t, a), (4, 6))
    simple("sum_axis", lambda t, a: nm.sum_(t, a, axis=0), (3, 4))
    simple("mean_axis", lambda t, a: nm.mean_(t, a, axis=1), (3, 4))
    simple("mean_all", lambda t, a: nm.mean_(t, a), (3, 4))

    hidden, d = 4, 3

    def gru_store(h0_shape):
        store = nm.ParamStore(dtype=np.float64)
        scale_w = 1.0 / np.sqrt(d)
        scale_u = 1.0 / np.sqrt(hidden)
        for slot in nm.GRU_SLOTS:
            if slot.startswith("w_"):
                store.add(slot, rng.uniform(-scale_w, scale_w, size=(hidden, d)))
            elif slot.startswith("u_"):
                store.add(slot, rng.uniform(-scale_u, scale_u, size=(hidden, hidden)))
            else:
                store.add(slot, rng.normal(size=hidden) * 0.1)
        store.add("h0", rng.normal(size=h0_shape) * 0.1)
        return store

    store = gru_store(hidden)
    h_in = vec(hidden) * 0.2
    v_in = vec(d)
    r_cell = rng.normal(size=hidden)

    def gru_cell_loss(tape):
        p = dict(store.items())
        h = nm.add(tape, p.pop("h0"), nm.constant(h_in))
        return _projected(tape, nm.gru_cell(tape, p, h, nm.constant(v_in)), r_cell)

    cases.append(("gru_cell", store, gru_cell_loss))

    # a batch, one window in a batch, and one step; the None rows are the
    # one-window and per-window-h0 shapes, which the program never runs
    # (their checks live with the reference sequences in the tests) but
    # whose draws keep every later case's inputs as they were
    for case, frames_shape, h0_shape in (
        (None, (5, d), hidden),
        ("gru_sequence", (2, 5, d), hidden),
        (None, (2, 5, d), (2, hidden)),
        ("gru_sequence_n1", (1, 5, d), hidden),
        ("gru_sequence_l1", (2, 1, d), hidden),
    ):
        store_seq = gru_store(h0_shape)
        frames = vec(frames_shape)
        r_seq = rng.normal(size=frames_shape[:-2] + (hidden,))
        if case is None:
            continue

        def gru_sequence_loss(tape, store_seq=store_seq, frames=frames, r_seq=r_seq):
            out = nm.gru_sequence(tape, dict(store_seq.items()), frames)
            return _projected(tape, out, r_seq)

        cases.append((case, store_seq, gru_sequence_loss))

    def toy_encoders():
        ep = EncoderParams(
            input_dim=3, alphabet_size=4, hidden_dim=4, seed=seed, dtype=np.float64
        )
        x = rng.normal(size=(2, 4, 3))
        y = rng.normal(size=(2, 4, 3))
        return ep, x, y

    ep_ce, x_ce, y_ce = toy_encoders()

    def ce_loss(tape):
        confirm = ep_ce.encode_node("confirm", y_ce, tape)
        predict = ep_ce.encode_node("predict", x_ce, tape)
        return ob.cross_entropy_term(confirm, predict, tape)

    cases.append(("cross_entropy_term", ep_ce.store, ce_loss))

    ep_em, _, y_em = toy_encoders()

    def em_loss(tape):
        confirm = ep_em.encode_node("confirm", y_em, tape)
        return ob.entropy_of_mean(confirm, tape)

    cases.append(("entropy_of_mean", ep_em.store, em_loss))

    ep_full, x_full, y_full = toy_encoders()

    def full_loss(tape):
        confirm = ep_full.encode_node("confirm", y_full, tape)
        predict = ep_full.encode_node("predict", x_full, tape)
        loss, _ = ob.utterance_loss(confirm, predict, tape)
        return loss

    cases.append(("utterance_loss", ep_full.store, full_loss))

    ep_adv, _, y_adv = toy_encoders()

    def marginal_loss(tape):
        confirm = ep_adv.encode_node("confirm", y_adv)
        return ob.marginal_fit_loss(confirm, ep_adv.marginal_node(tape), tape)

    cases.append(("marginal_fit_loss", ep_adv.store, marginal_loss))

    return cases


def _broken_tanh(tape, a):
    # tanh forward with a deliberately wrong backward; gradcheck must flag it
    value = np.tanh(a.value)
    out = nm.Node(value)
    if tape is not None:

        def bw(g):
            nm._acc(a, 1.5 * g * (1.0 - value * value))

        tape._record(out, bw)
    return out


def run_gradcheck(seed: int, inject_fault: bool = False) -> list[tuple[str, float]]:
    cases = _gradcheck_cases(seed)
    if inject_fault:
        rng = nm.stream_rng(seed, 778)
        store = nm.ParamStore(dtype=np.float64)
        p = store.add("p0", rng.normal(size=6))
        r = rng.normal(size=6)
        cases.append(
            ("corrupted_tanh", store, lambda t: _projected(t, _broken_tanh(t, p), r))
        )
    results = []
    for name, store, loss_fn in cases:
        results.append((name, nm.finite_diff_check(loss_fn, store, epsilon=1e-5)))
    return results
