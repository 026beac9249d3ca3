"""Reference GRU sequences the runtime ``numerics.gru_sequence`` must match.

``composed_sequence`` folds ``gru_cell`` over time, one tape node per
elementary primitive. The primitives only this cell uses live here, not in
the program: ``add`` and ``mul`` (which broadcast, summing each gradient
back to its input's shape with ``_unbroadcast``), ``one_minus``,
``linear``, ``sigmoid``, ``tanh`` and an ``affine`` that also takes a
single vector. ``fused_sequence`` is the
earlier all-shapes fused node, kept verbatim: it takes one window [L, d]
or a batch [N, L, d], with an [H] or a per-window [N, H] initial state,
allocates fresh arrays at every step and stacks the saved state in its
backward. The runtime path must reproduce its forward values and
gradients bit for bit on the one shape the program runs: [N, L, d] frames
with an [H] h0.
"""

from __future__ import annotations

import numpy as np

from itco import numerics as nm


def _times(w, v):
    # w @ v for one vector, v @ w.T for a batch of row vectors
    return w @ v if v.ndim == 1 else v @ w.T


def _sigmoid(a):
    # tanh form is overflow-free for large |x|
    return 0.5 * (np.tanh(0.5 * a) + 1.0)


def _unbroadcast(g, shape):
    # Sum g down to `shape` after numpy broadcasting.
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


def add(tape, a, b):
    out = nm.Node(a.value + b.value)
    if tape is not None:
        ash, bsh = a.value.shape, b.value.shape

        def bw(g):
            nm._acc(a, _unbroadcast(g, ash))
            nm._acc(b, _unbroadcast(g, bsh))

        tape._record(out, bw)
    return out


def mul(tape, a, b):
    out = nm.Node(a.value * b.value)
    if tape is not None:
        av, bv = a.value, b.value

        def bw(g):
            nm._acc(a, _unbroadcast(g * bv, av.shape))
            nm._acc(b, _unbroadcast(g * av, bv.shape))

        tape._record(out, bw)
    return out


def one_minus(tape, a):
    out = nm.Node(1.0 - a.value)
    if tape is not None:
        def bw(g):
            nm._acc(a, -g)

        tape._record(out, bw)
    return out


def affine(tape, w, b, v):
    """w @ v + b for a single vector v, or v @ w.T + b for a batch [N, n]."""
    wv, bv, vv = w.value, b.value, v.value
    if wv.ndim != 2 or bv.shape != (wv.shape[0],) or vv.shape[-1] != wv.shape[1] or vv.ndim > 2:
        raise ValueError(f"affine shape mismatch: w{wv.shape} b{bv.shape} v{vv.shape}")
    out = nm.Node(_times(wv, vv) + bv)
    if tape is not None:
        def bw(g):
            if vv.ndim == 1:
                nm._acc(w, np.outer(g, vv))
                nm._acc(b, g)
            else:
                nm._acc(w, g.T @ vv)
                nm._acc(b, g.sum(axis=0))
            nm._acc(v, g @ wv)

        tape._record(out, bw)
    return out


def linear(tape, w, h):
    """Bias-free affine: w @ h, batched as h @ w.T for [N, n] inputs."""
    wv, hv = w.value, h.value
    if wv.ndim != 2 or hv.shape[-1] != wv.shape[1]:
        raise ValueError(f"linear shape mismatch: w{wv.shape} h{hv.shape}")
    out = nm.Node(_times(wv, hv))
    if tape is not None:
        def bw(g):
            if hv.ndim == 1:
                nm._acc(w, np.outer(g, hv))
            else:
                nm._acc(w, g.T @ hv)
            nm._acc(h, g @ wv)

        tape._record(out, bw)
    return out


def sigmoid(tape, a):
    s = _sigmoid(a.value)
    out = nm.Node(s)
    if tape is not None:
        def bw(g):
            nm._acc(a, g * s * (1.0 - s))

        tape._record(out, bw)
    return out


def tanh(tape, a):
    t = np.tanh(a.value)
    out = nm.Node(t)
    if tape is not None:
        def bw(g):
            nm._acc(a, g * (1.0 - t * t))

        tape._record(out, bw)
    return out


def gru_cell(tape, p, h, v):
    """One GRU step.

    r = sig(W_r v + U_r h + b_r), u = sig(W_u v + U_u h + b_u),
    c = tanh(W_c v + U_c (r*h) + b_c), h' = u*h + (1-u)*c.
    The reset gate multiplies the hidden state before the candidate's
    recurrent matrix. ``h`` may be a single [H] vector (it broadcasts over
    a batched input) or a [N, H] batch.
    """
    r = sigmoid(tape, add(tape, affine(tape, p["w_r"], p["b_r"], v), linear(tape, p["u_r"], h)))
    u = sigmoid(tape, add(tape, affine(tape, p["w_u"], p["b_u"], v), linear(tape, p["u_u"], h)))
    rh = mul(tape, r, h)
    c = tanh(tape, add(tape, affine(tape, p["w_c"], p["b_c"], v), linear(tape, p["u_c"], rh)))
    return add(tape, mul(tape, u, h), mul(tape, one_minus(tape, u), c))


def composed_sequence(tape, p, frames):
    h = p["h0"]
    for t in range(frames.shape[-2]):
        h = gru_cell(tape, p, h, nm.Node(frames[..., t, :]))
    return h


def fused_sequence(tape, p, frames):
    frames = np.asarray(frames)
    if frames.ndim not in (2, 3):
        raise ValueError(f"frames must be [L, d] or [N, L, d], got shape {frames.shape}")
    steps = frames.shape[-2]
    if steps < 1:
        raise ValueError("gru_sequence requires at least one frame")
    w_r, u_r, b_r, w_u, u_u, b_u, w_c, u_c, b_c = (p[slot].value for slot in nm.GRU_SLOTS)
    h = p["h0"].value
    saved = []
    for t in range(steps):
        v = frames[..., t, :]
        r = _sigmoid(_times(w_r, v) + b_r + _times(u_r, h))
        u = _sigmoid(_times(w_u, v) + b_u + _times(u_u, h))
        rh = r * h
        c = np.tanh(_times(w_c, v) + b_c + _times(u_c, rh))
        if tape is not None:
            # an [H] h0 is the only state narrower than the gates
            saved.append((h if t else np.broadcast_to(h, r.shape), r, u, rh, c))
        h = u * h + (1.0 - u) * c
    out = nm.Node(h)
    if tape is not None:
        tape._record(out, _fused_backward(p, frames, saved))
    return out


def _fused_backward(p, frames, saved):
    def bw(g):
        steps = len(saved)
        hidden = g.shape[-1]
        rows = frames.shape[0] if frames.ndim == 3 else 1
        shape = (steps, rows, hidden)  # time-major; a single window is one row
        h_prev, r, u, rh, c = (np.stack(field).reshape(shape) for field in zip(*saved))
        k_c = (1.0 - u) * (1.0 - c * c)  # dh/da_c
        k_u = (h_prev - c) * (u * (1.0 - u))  # dh/da_u
        k_r = h_prev * (r * (1.0 - r))  # d(r*h_prev)/da_r
        u_r, u_u, u_c = p["u_r"].value, p["u_u"].value, p["u_c"].value
        da_r, da_u, da_c = np.empty_like(r), np.empty_like(u), np.empty_like(c)
        gh = g.reshape(rows, hidden)
        for t in reversed(range(steps)):
            np.multiply(gh, k_c[t], out=da_c[t])
            np.multiply(gh, k_u[t], out=da_u[t])
            drh = da_c[t] @ u_c
            np.multiply(drh, k_r[t], out=da_r[t])
            gh = gh * u[t] + drh * r[t] + da_r[t] @ u_r + da_u[t] @ u_u

        flat = steps * rows
        x = frames.reshape(rows, steps, -1).swapaxes(0, 1).reshape(flat, -1)
        h_prev, rh = h_prev.reshape(flat, hidden), rh.reshape(flat, hidden)
        for gate, da, h_in in (("r", da_r, h_prev), ("u", da_u, h_prev), ("c", da_c, rh)):
            da = da.reshape(flat, hidden)
            nm._acc(p[f"w_{gate}"], da.T @ x)
            nm._acc(p[f"u_{gate}"], da.T @ h_in)
            nm._acc(p[f"b_{gate}"], da.sum(axis=0))
        nm._acc(p["h0"], _unbroadcast(gh, p["h0"].value.shape))

    return bw


def runtime_sequence(tape, p, frames):
    """``numerics.gru_sequence`` on one side, as the references take it: the
    side's parameters as [1, ...] views, its [N, L, d] frames as
    [1, N, L, d], and its row of the output as a node of its own. Taped,
    each view's gradient is a view of its parameter's, zero-filled first,
    so the sequence's backward adds into the parameter's own gradient."""
    stacks = {}
    for slot in (*nm.GRU_SLOTS, "h0"):
        stacks[slot] = nm.Node(p[slot].value[None])
        if tape is not None:
            if p[slot].grad is None:
                p[slot].grad = np.zeros_like(p[slot].value)
            stacks[slot].grad = p[slot].grad[None]
    out = nm.gru_sequence(tape, stacks, np.asarray(frames)[None])
    row = nm.Node(out.value[0])
    if tape is not None:
        tape._record(row, lambda g: nm._acc(out, g[None]))
    return row
