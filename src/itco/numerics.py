"""Minimal reverse-mode differentiable core.

Forward evaluation plus exact gradients for the handful of primitives the
window encoders and losses need: affine maps, GRU sequences, softmax,
clamped logs and axis reductions. Values are numpy arrays; a forward pass
over an optional Tape records one backward closure per primitive, and the
reverse sweep replays them in exact reverse creation order (creation order
is a topological order, so fan-out accumulates additively).

A whole GRU sequence is one fused primitive: ``gru_sequence`` runs the
steps itself and records a single tape node whose backward is a
hand-written backpropagation through time. ``gru_cell``, the same step
composed from the elementary primitives, is kept as the test oracle the
fused path must match.

Training arithmetic runs in float32 by default; gradient checking uses a
float64 ParamStore so central differences stay sharp.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "NonFiniteError",
    "Node",
    "Tape",
    "Param",
    "ParamStore",
    "stream_rng",
    "constant",
    "watch",
    "add",
    "sub",
    "mul",
    "scale",
    "one_minus",
    "detach",
    "affine",
    "linear",
    "sigmoid",
    "tanh",
    "log_clamped",
    "softmax",
    "sum_",
    "mean_",
    "gru_cell",
    "gru_sequence",
    "sgd_apply",
    "finite_diff_check",
]

LOG_FLOOR = 1e-30


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
    Parameters enter the graph through :meth:`watch`, which returns one
    shared leaf per parameter so repeated use (e.g. GRU weights across
    time steps) fans in correctly. ``backward`` harvests leaf gradients
    into the owning ``Param`` slots.
    """

    def __init__(self):
        self._nodes: list[Node] = []
        self._watched: dict[int, tuple["Param", Node]] = {}

    def _record(self, node: Node, backward: Callable[[np.ndarray], None]) -> None:
        node._backward = backward
        self._nodes.append(node)

    def watch(self, param: "Param") -> Node:
        entry = self._watched.get(id(param))
        if entry is None:
            entry = (param, Node(param.value))
            self._watched[id(param)] = entry
        return entry[1]

    def backward(self, root: Node) -> None:
        if np.shape(root.value) != ():
            raise ValueError("backward requires a scalar root")
        root.grad = np.ones((), dtype=np.asarray(root.value).dtype)
        for node in reversed(self._nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)
        for param, leaf in self._watched.values():
            if leaf.grad is not None:
                param.grad += leaf.grad


class Param:
    """A named parameter array with a same-shaped gradient slot."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Param({self.name!r}, shape={self.value.shape})"


class ParamStore:
    """Named flat parameter arrays with matching gradient slots.

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

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()

    def names(self) -> list[str]:
        return list(self._entries)

    def zero_grads(self) -> None:
        for param in self._entries.values():
            param.grad[...] = 0


def stream_rng(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic generator for one named random stream.

    Streams are derived statelessly from (seed, tags), so shuffles, clone
    noise, and synthesis never share draws and any step of a run can be
    reproduced without replaying the steps before it.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *tags))))


# ---------------------------------------------------------------------------
# primitives


def constant(x) -> Node:
    return Node(np.asarray(x))


def watch(tape: Optional[Tape], param: Param) -> Node:
    """Parameter leaf for this forward pass (plain value node when tape is None)."""
    if tape is None:
        return Node(param.value)
    return tape.watch(param)


def _acc(node: Node, g: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Sum g down to `shape` after numpy broadcasting.
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


def add(tape: Optional[Tape], a: Node, b: Node) -> Node:
    out = Node(a.value + b.value)
    if tape is not None:
        ash, bsh = a.value.shape, b.value.shape

        def bw(g):
            _acc(a, _unbroadcast(g, ash))
            _acc(b, _unbroadcast(g, bsh))

        tape._record(out, bw)
    return out


def sub(tape: Optional[Tape], a: Node, b: Node) -> Node:
    out = Node(a.value - b.value)
    if tape is not None:
        ash, bsh = a.value.shape, b.value.shape

        def bw(g):
            _acc(a, _unbroadcast(g, ash))
            _acc(b, _unbroadcast(-g, bsh))

        tape._record(out, bw)
    return out


def mul(tape: Optional[Tape], a: Node, b: Node) -> Node:
    out = Node(a.value * b.value)
    if tape is not None:
        av, bv = a.value, b.value

        def bw(g):
            _acc(a, _unbroadcast(g * bv, av.shape))
            _acc(b, _unbroadcast(g * av, bv.shape))

        tape._record(out, bw)
    return out


def scale(tape: Optional[Tape], a: Node, c: float) -> Node:
    out = Node(a.value * c)
    if tape is not None:
        def bw(g):
            _acc(a, g * c)

        tape._record(out, bw)
    return out


def one_minus(tape: Optional[Tape], a: Node) -> Node:
    out = Node(1.0 - a.value)
    if tape is not None:
        def bw(g):
            _acc(a, -g)

        tape._record(out, bw)
    return out


def detach(a: Node) -> Node:
    """Same value, no gradient path."""
    return Node(a.value)


def _times(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    # w @ v for one vector, v @ w.T for a batch of row vectors
    return w @ v if v.ndim == 1 else v @ w.T


def affine(tape: Optional[Tape], w: Node, b: Node, v: Node) -> Node:
    """w @ v + b for a single vector v, or v @ w.T + b for a batch [N, n]."""
    wv, bv, vv = w.value, b.value, v.value
    if wv.ndim != 2 or bv.shape != (wv.shape[0],) or vv.shape[-1] != wv.shape[1]:
        raise ValueError(
            f"affine shape mismatch: w{wv.shape} b{bv.shape} v{vv.shape}"
        )
    if vv.ndim > 2:
        raise ValueError(f"affine input must be 1- or 2-d, got {vv.ndim}-d")
    out = Node(_times(wv, vv) + bv)
    if tape is not None:
        def bw(g):
            if vv.ndim == 1:
                _acc(w, np.outer(g, vv))
                _acc(b, g)
                _acc(v, g @ wv)
            else:
                _acc(w, g.T @ vv)
                _acc(b, g.sum(axis=0))
                _acc(v, g @ wv)

        tape._record(out, bw)
    return out


def linear(tape: Optional[Tape], w: Node, h: Node) -> Node:
    """Bias-free affine: w @ h, batched as h @ w.T for [N, n] inputs."""
    wv, hv = w.value, h.value
    if wv.ndim != 2 or hv.shape[-1] != wv.shape[1]:
        raise ValueError(f"linear shape mismatch: w{wv.shape} h{hv.shape}")
    out = Node(_times(wv, hv))
    if tape is not None:
        def bw(g):
            if hv.ndim == 1:
                _acc(w, np.outer(g, hv))
            else:
                _acc(w, g.T @ hv)
            _acc(h, g @ wv)

        tape._record(out, bw)
    return out


def _sigmoid(a: np.ndarray) -> np.ndarray:
    # tanh form is overflow-free for large |x|
    return 0.5 * (np.tanh(0.5 * a) + 1.0)


def sigmoid(tape: Optional[Tape], a: Node) -> Node:
    s = _sigmoid(a.value)
    out = Node(s)
    if tape is not None:
        def bw(g):
            _acc(a, g * s * (1.0 - s))

        tape._record(out, bw)
    return out


def tanh(tape: Optional[Tape], a: Node) -> Node:
    t = np.tanh(a.value)
    out = Node(t)
    if tape is not None:
        def bw(g):
            _acc(a, g * (1.0 - t * t))

        tape._record(out, bw)
    return out


def log_clamped(tape: Optional[Tape], a: Node, floor: float = LOG_FLOOR) -> Node:
    """log(max(a, floor)); gradient is 1/a above the floor and 0 below it."""
    clamped = np.maximum(a.value, floor)
    out = Node(np.log(clamped))
    if tape is not None:
        av = a.value

        def bw(g):
            _acc(a, np.where(av > floor, g / clamped, 0.0))

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


def sum_(tape: Optional[Tape], a: Node, axis: Optional[int] = None) -> Node:
    out = Node(a.value.sum(axis=axis))
    if tape is not None:
        shape = a.value.shape

        def bw(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            _acc(a, np.broadcast_to(g, shape))

        tape._record(out, bw)
    return out


def mean_(tape: Optional[Tape], a: Node, axis: Optional[int] = None) -> Node:
    out = Node(a.value.mean(axis=axis))
    if tape is not None:
        shape = a.value.shape
        count = a.value.size if axis is None else shape[axis]

        def bw(g):
            g = g / count
            if axis is not None:
                g = np.expand_dims(g, axis)
            _acc(a, np.broadcast_to(g, shape))

        tape._record(out, bw)
    return out


# ---------------------------------------------------------------------------
# recurrent cell

GRU_SLOTS = ("w_r", "u_r", "b_r", "w_u", "u_u", "b_u", "w_c", "u_c", "b_c")


def gru_cell(tape: Optional[Tape], p: Mapping[str, Node], h: Node, v: Node) -> Node:
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


def gru_sequence(tape: Optional[Tape], p: Mapping[str, Node], frames: np.ndarray) -> Node:
    """Fold the GRU over time from the trainable initial state p["h0"].

    ``frames`` is [L, d] for one window or [N, L, d] for a batch of windows;
    ``p["h0"]`` is [H], shared by every window, or [N, H]. Returns the final
    hidden state ([H] or [N, H]).

    Each step computes exactly what ``gru_cell`` computes, gate by gate and
    in the same order, so the forward values are bit-identical to folding
    ``gru_cell``; the tests keep that fold as the oracle. The whole sequence
    records one tape node whose backward is a hand-written backpropagation
    through time (see ``_gru_sequence_backward``).
    """
    frames = np.asarray(frames)
    if frames.ndim not in (2, 3):
        raise ValueError(f"frames must be [L, d] or [N, L, d], got shape {frames.shape}")
    steps = frames.shape[-2]
    if steps < 1:
        raise ValueError("gru_sequence requires at least one frame")
    w_r, u_r, b_r, w_u, u_u, b_u, w_c, u_c, b_c = (p[slot].value for slot in GRU_SLOTS)
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
    out = Node(h)
    if tape is not None:
        tape._record(out, _gru_sequence_backward(p, frames, saved))
    return out


def _gru_sequence_backward(
    p: Mapping[str, Node], frames: np.ndarray, saved: list
) -> Callable[[np.ndarray], None]:
    """Backpropagation through time for one ``gru_sequence`` call.

    ``saved`` holds (h_prev, r, u, r*h_prev, c) for every step. The
    pointwise factors that do not depend on the incoming gradient are
    formed for all steps at once; the reverse loop then does only the
    recurrent part, and each weight gradient is one matmul over all N*L
    rows at the end, as in cuDNN's RNN backward.
    """

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
            _acc(p[f"w_{gate}"], da.T @ x)
            _acc(p[f"u_{gate}"], da.T @ h_in)
            _acc(p[f"b_{gate}"], da.sum(axis=0))
        _acc(p["h0"], _unbroadcast(gh, p["h0"].value.shape))

    return bw


# ---------------------------------------------------------------------------
# optimization and checking


def sgd_apply(store: ParamStore, lr: float) -> None:
    """Vanilla SGD: p <- p - lr * grad(p), then zero every gradient."""
    for param in store._entries.values():
        param.value -= lr * param.grad
        param.grad[...] = 0


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
        gflat = param.grad.reshape(-1)
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
