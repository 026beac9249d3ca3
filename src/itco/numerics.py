"""Minimal reverse-mode differentiable core.

Forward evaluation plus exact gradients for the primitives the window
encoders run: a batched affine map, GRU sequences and softmax. Values are
numpy arrays; a forward pass over an optional Tape records one backward
closure per primitive, and the reverse sweep replays them in exact
reverse creation order (creation order is a topological order, so fan-out
accumulates additively). A module may define a node of its own the same
way: the losses in ``objective`` each record one node with
``Tape._record`` whose backward adds into its inputs' gradients with
``_acc``.

A ``Param`` is itself a graph node: primitives take parameters directly
as leaves, and the reverse sweep accumulates straight into ``Param.grad``.

A whole GRU sequence is one fused primitive: ``gru_sequence`` runs the
steps itself and records a single tape node whose backward is a
hand-written backpropagation through time. It takes the shapes the
program runs, a batch of windows [N, L, d] with an [H] initial state and,
untaped, a stack of such batches [B, N, L, d] whose products run as one
GEMM per batch (so each batch's values are those of its own call), and
works on preallocated memory: each call's forward writes its gates in
place into per-call [N, H] buffers, a taped call saves its state in five
time-major [L, N, H] arrays, and every backward draws its temporaries
from one module-level scratch buffer, grown on demand and reused by all
calls (so the numerics are not thread-safe). The tests hold its oracles
in ``tests/gru_oracle.py``: the same step composed from elementary taped
primitives, and the earlier all-shapes fused node, which the workspace
path reproduces bit for bit.

Training arithmetic runs in float32 by default; gradient checking uses a
float64 ParamStore so central differences stay sharp.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

import numpy as np

__all__ = [
    "NonFiniteError",
    "Node",
    "Tape",
    "Param",
    "ParamStore",
    "stream_rng",
    "affine",
    "softmax",
    "gru_sequence",
    "sgd_apply",
    "finite_diff_check",
]


class NonFiniteError(ValueError):
    """A primitive met NaN or infinity in its input."""


class Node:
    """One value in the computation graph, with a lazily allocated gradient."""

    __slots__ = ("value", "grad", "_backward")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Node(shape={np.shape(self.value)}, dtype={np.asarray(self.value).dtype})"


class Tape:
    """Ordered record of one forward pass.

    Nodes are appended at creation, so iterating in reverse visits every
    primitive after all of its consumers; gradients accumulate with "+=".
    Parameters are the leaves: a ``Param`` used many times (e.g. GRU
    weights across time steps) fans in to its own ``grad``, which the
    update drops between steps.
    """

    def __init__(self):
        self._nodes: list[Node] = []

    def _record(self, node: Node, backward: Callable[[np.ndarray], None]) -> None:
        node._backward = backward
        self._nodes.append(node)

    def backward(self, root: Node) -> None:
        if np.shape(root.value) != ():
            raise ValueError("backward requires a scalar root")
        root.grad = np.ones((), dtype=np.asarray(root.value).dtype)
        for node in reversed(self._nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)


class Param(Node):
    """A named parameter array, used directly as a graph leaf.

    As for any node, ``grad`` is None (a zero gradient) until a gradient
    reaches it; it then accumulates across tapes until ``sgd_apply`` or
    ``zero_grads`` drops it.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, value: np.ndarray):
        super().__init__(value)
        self.name = name


class ParamStore:
    """Named flat parameter arrays.

    Iteration order is insertion order and is relied on for deterministic
    updates, checkpoints and finite-difference sweeps.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._entries: dict[str, Param] = {}

    def add(self, name: str, value: np.ndarray) -> Param:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name}")
        param = Param(name, np.ascontiguousarray(value, dtype=self.dtype))
        self._entries[name] = param
        return param

    def __getitem__(self, name: str) -> Param:
        return self._entries[name]

    def items(self):
        return self._entries.items()

    def zero_grads(self) -> None:
        for param in self._entries.values():
            param.grad = None


def stream_rng(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic generator for one named random stream.

    Streams are derived statelessly from (seed, tags), so shuffles, clone
    noise, and synthesis never share draws and any step of a run can be
    reproduced without replaying the steps before it.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *tags))))


# ---------------------------------------------------------------------------
# primitives


def _acc(node: Node, g: np.ndarray) -> None:
    """Add `g` into the node's gradient, allocating it at the first gradient."""
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad += g


def affine(tape: Optional[Tape], w: Node, b: Node, v: Node) -> Node:
    """v @ w.T + b for a batch of row vectors [N, n].

    An untaped call also takes a stack of batches [B, N, n], one GEMM per
    batch.
    """
    wv, bv, vv = w.value, b.value, v.value
    if wv.ndim != 2 or bv.shape != (wv.shape[0],) or vv.shape[-1] != wv.shape[1]:
        raise ValueError(
            f"affine shape mismatch: w{wv.shape} b{bv.shape} v{vv.shape}"
        )
    if vv.ndim not in ((2,) if tape is not None else (2, 3)):
        raise ValueError(f"affine input must be 2-d (untaped also 3-d), got {vv.ndim}-d")
    out = Node(vv @ wv.T + bv)
    if tape is not None:
        def bw(g):
            _acc(w, g.T @ vv)
            _acc(b, g.sum(axis=0))
            _acc(v, g @ wv)

        tape._record(out, bw)
    return out


def softmax(tape: Optional[Tape], logits: Node) -> Node:
    """Max-shifted softmax along the last axis; rejects non-finite logits."""
    lv = logits.value
    if not np.all(np.isfinite(lv)):
        raise NonFiniteError("softmax input contains NaN or infinity")
    shifted = lv - lv.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Node(p)
    if tape is not None:
        def bw(g):
            inner = (g * p).sum(axis=-1, keepdims=True)
            _acc(logits, p * (g - inner))

        tape._record(out, bw)
    return out


# ---------------------------------------------------------------------------
# recurrent cell

GRU_SLOTS = ("w_r", "u_r", "b_r", "w_u", "u_u", "b_u", "w_c", "u_c", "b_c")


def gru_sequence(tape: Optional[Tape], p: Mapping[str, Node], frames: np.ndarray) -> Node:
    """Fold the GRU over a batch of windows from the trainable initial state.

    ``frames`` is [N, L, d] and ``p["h0"]`` an [H] state shared by every
    window, both of the parameters' dtype; returns the final hidden states
    [N, H]. An untaped call also takes a stack of such batches,
    [B, N, L, d] to [B, N, H]: every product then runs as one GEMM per
    batch, the same [N, K] x [K, H] product a separate call runs, so each
    batch's values are bit-identical to its own call. Other shapes raise
    ``ValueError``.

    One step is

        r = sig(W_r v + U_r h + b_r), u = sig(W_u v + U_u h + b_u),
        c = tanh(W_c v + U_c (r*h) + b_c), h' = u*h + (1-u)*c,

    with sig(a) = 0.5 * (tanh(0.5 * a) + 1), which cannot overflow; the
    reset gate multiplies the hidden state before the candidate's recurrent
    matrix. Each step computes these gate by gate in the order of the
    composed cell in ``tests/gru_oracle.py``, so the forward values are
    bit-identical to folding that cell. The gates are written in place into
    buffers allocated once per call. Step 0's recurrent products stay
    matrix-vector products on the [H] ``h0``: broadcasting it to [N, H]
    first would change the bits. A taped call writes (h_prev, r, u,
    r*h_prev, c) of every step straight into five time-major [L, N, H]
    arrays and records one tape node whose backward is a hand-written
    backpropagation through time (see ``_gru_sequence_backward``).
    """
    frames = np.asarray(frames)
    h0 = p["h0"].value
    ranks = (3,) if tape is not None else (3, 4)
    if frames.ndim not in ranks or h0.ndim != 1 or frames.dtype != h0.dtype:
        raise ValueError(
            f"gru_sequence takes [N, L, d] frames (untaped also [B, N, L, d]) and an [H] "
            f"h0 of one dtype, got frames {frames.shape} {frames.dtype} and h0 "
            f"{h0.shape} {h0.dtype}"
        )
    steps = frames.shape[-2]
    if steps < 1:
        raise ValueError("gru_sequence requires at least one frame")
    w_r, u_r, b_r, w_u, u_u, b_u, w_c, u_c, b_c = (p[slot].value for slot in GRU_SLOTS)
    shape = frames.shape[:-2] + h0.shape
    tmp = np.empty(shape, h0.dtype)
    out = np.empty(shape, h0.dtype)
    if tape is None:
        r, u, rh, c = np.empty((4,) + shape, h0.dtype)
    else:
        saved = tuple(np.empty((steps,) + shape, h0.dtype) for _ in range(5))
        h_prev, r_all, u_all, rh_all, c_all = saved
        h_prev[0] = h0

    def gate(a, v, w, b, w_rec, h):
        # a = v @ w.T + b + h @ w_rec.T, summed in the composed cell's order
        np.matmul(v, w.T, out=a)
        a += b
        if h.ndim == 1:
            a += w_rec @ h
        else:
            np.matmul(h, w_rec.T, out=tmp)
            a += tmp

    def sigmoid_(a):
        # 0.5 * (tanh(0.5 * a) + 1), in place
        a *= 0.5
        np.tanh(a, out=a)
        a += 1.0
        a *= 0.5

    h = h0
    for t in range(steps):
        if tape is None:
            h_next = out
        else:
            r, u, rh, c = r_all[t], u_all[t], rh_all[t], c_all[t]
            h_next = h_prev[t + 1] if t + 1 < steps else out
        v = frames[..., t, :]
        gate(r, v, w_r, b_r, u_r, h)
        sigmoid_(r)
        gate(u, v, w_u, b_u, u_u, h)
        sigmoid_(u)
        np.multiply(r, h, out=rh)
        gate(c, v, w_c, b_c, u_c, rh)
        np.tanh(c, out=c)
        # h' = u*h + (1-u)*c
        np.multiply(u, h, out=h_next)
        np.subtract(1.0, u, out=tmp)
        tmp *= c
        h_next += tmp
        h = h_next
    node = Node(out)
    if tape is not None:
        tape._record(node, _gru_sequence_backward(p, frames, saved))
    return node


# Backward temporaries, shared by every call: one byte buffer, replaced by
# a larger one when a call needs more, viewed as the dtype of the call at
# hand. A backward sweep writes each region before it reads it, so nothing
# carries over between calls.
_scratch = [np.empty(0, dtype=np.uint8)]


def _scratch_array(dtype: np.dtype, size: int) -> np.ndarray:
    nbytes = size * dtype.itemsize
    if _scratch[0].nbytes < nbytes:
        _scratch[0] = np.empty(nbytes, dtype=np.uint8)
    return _scratch[0][:nbytes].view(dtype)


def _gru_sequence_backward(
    p: Mapping[str, Node], frames: np.ndarray, saved: tuple
) -> Callable[[np.ndarray], None]:
    """Backpropagation through time for one ``gru_sequence`` call.

    ``saved`` holds the time-major [L, N, H] arrays (h_prev, r, u,
    r*h_prev, c). The pointwise factors that do not depend on the incoming
    gradient are formed for all steps at once; the reverse loop then does
    only the recurrent part, and each weight gradient is one matmul over
    all N*L rows at the end, as in cuDNN's RNN backward. Every temporary
    is a view of the shared scratch.
    """
    h_prev, r, u, rh, c = saved

    def bw(g):
        steps, rows, hidden = r.shape
        block, step, d = r.size, rows * hidden, frames.shape[2]
        work = _scratch_array(r.dtype, 6 * block + 3 * step + steps * rows * d)
        k_c, k_u, k_r, da_r, da_u, da_c = work[: 6 * block].reshape((6,) + r.shape)
        gh, drh, tmp = work[6 * block : 6 * block + 3 * step].reshape(3, rows, hidden)
        x = work[6 * block + 3 * step :].reshape(steps, rows, d)

        # da_r is free until the reverse loop: it holds the factors' second terms
        np.subtract(1.0, u, out=k_c)
        np.multiply(c, c, out=da_r)
        np.subtract(1.0, da_r, out=da_r)
        k_c *= da_r  # dh/da_c = (1-u) * (1-c*c)
        np.subtract(h_prev, c, out=k_u)
        np.subtract(1.0, u, out=da_r)
        np.multiply(u, da_r, out=da_r)
        k_u *= da_r  # dh/da_u = (h_prev-c) * (u*(1-u))
        np.subtract(1.0, r, out=da_r)
        np.multiply(r, da_r, out=da_r)
        np.multiply(h_prev, da_r, out=k_r)  # d(r*h_prev)/da_r = h_prev * (r*(1-r))

        u_r, u_u, u_c = p["u_r"].value, p["u_u"].value, p["u_c"].value
        np.copyto(gh, g)
        for t in reversed(range(steps)):
            np.multiply(gh, k_c[t], out=da_c[t])
            np.multiply(gh, k_u[t], out=da_u[t])
            np.matmul(da_c[t], u_c, out=drh)
            np.multiply(drh, k_r[t], out=da_r[t])
            # gh = gh*u + drh*r + da_r @ u_r + da_u @ u_u, summed left to right
            gh *= u[t]
            np.multiply(drh, r[t], out=tmp)
            gh += tmp
            np.matmul(da_r[t], u_r, out=tmp)
            gh += tmp
            np.matmul(da_u[t], u_u, out=tmp)
            gh += tmp

        flat = steps * rows
        np.copyto(x, frames.swapaxes(0, 1))
        x = x.reshape(flat, d)
        for gate, da, h_in in (("r", da_r, h_prev), ("u", da_u, h_prev), ("c", da_c, rh)):
            da = da.reshape(flat, hidden)
            _acc(p[f"w_{gate}"], da.T @ x)
            _acc(p[f"u_{gate}"], da.T @ h_in.reshape(flat, hidden))
            _acc(p[f"b_{gate}"], da.sum(axis=0))
        _acc(p["h0"], gh.sum(axis=0))

    return bw


# ---------------------------------------------------------------------------
# optimization and checking


def sgd_apply(store: ParamStore, lr: float) -> None:
    """Vanilla SGD: p <- p - lr * grad(p), then drop every gradient."""
    for param in store._entries.values():
        if param.grad is not None:
            param.value -= lr * param.grad
            param.grad = None


def finite_diff_check(
    loss_fn: Callable[[Optional[Tape]], Node],
    store: ParamStore,
    epsilon: float = 1e-5,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss_fn(tape)`` must rebuild the forward pass from the store's current
    values and return a scalar node. Every coordinate of every parameter is
    perturbed by +/- epsilon. Relative error uses a 1e-6 denominator floor so
    coordinates with effectively-zero gradient are compared absolutely.
    """
    store.zero_grads()
    tape = Tape()
    tape.backward(loss_fn(tape))

    worst = 0.0
    for _, param in store.items():
        flat = param.value.reshape(-1)
        gflat = np.zeros(flat.size) if param.grad is None else param.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = float(loss_fn(None).value)
            flat[i] = orig - epsilon
            f_minus = float(loss_fn(None).value)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            analytic = float(gflat[i])
            denom = max(abs(analytic), abs(numeric), 1e-6)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst
