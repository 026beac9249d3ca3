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

Each parameter is a plain graph node: primitives take parameters directly
as leaves, and the reverse sweep accumulates straight into their ``grad``.

Every primitive runs over a side axis S (2 for the two encoder sides):
each parameter is one [S, ...] array, and each product runs as one GEMM
per side through batched ``np.matmul``, so each side's values are those of
its own S=1 call.

A whole GRU sequence is one fused primitive: ``gru_sequence`` runs the
steps itself and records a single tape node whose backward is a
hand-written backpropagation through time. It folds the S GRUs in one
step loop, or runs one side on its row of the parameters. Sigmoid's 0.5
factors are folded into the r and u gates' weights once per call. On a
sliding view of stride-1 windows it projects each distinct frame once per
gate; every other layout runs one input GEMM per gate and step. It works
on preallocated memory: each call's forward writes its gates in place into
per-call [S, N, H] buffers, a taped call saves its state in one block of
four time-major [L, S, N, H] arrays, and every backward draws its
temporaries from one module-level scratch buffer, grown on demand and
reused by all calls (so the numerics are not thread-safe). The tests hold
its oracles in ``tests/gru_oracle.py``: the same step composed from
elementary taped primitives, and the earlier all-shapes fused node, which
runs one input GEMM per step and which each side reproduces bit for bit
on the per-step route (and on the sliding route wherever the OpenBLAS
kernel rounds a GEMM row alike at any row count; see ``gru_sequence``).

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
    Parameters are the leaves: a parameter node used many times (e.g. GRU
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


class ParamStore:
    """Parameter nodes by name, each a graph leaf.

    Iteration order is insertion order and is relied on for deterministic
    updates, checkpoints and finite-difference sweeps. A node's ``grad`` is
    None (a zero gradient) until a gradient reaches it; it then accumulates
    across tapes until ``sgd_apply`` or ``zero_grads`` drops it.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._entries: dict[str, Node] = {}

    def add(self, name: str, value: np.ndarray) -> Node:
        """Register a node holding `value`, cast to the store's dtype, under `name`."""
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name}")
        node = Node(np.ascontiguousarray(value, dtype=self.dtype))
        self._entries[name] = node
        return node

    def __getitem__(self, name: str) -> Node:
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


def _acc(node: Node, g: np.ndarray, rows=...) -> None:
    """Add `g` into the node's gradient, or into its `rows`; a first
    gradient of the whole node is copied in.

    The copy is never an alias: callers pass read-only ``broadcast_to``
    views and views of the shared backward scratch, which later writes
    would change. Copying differs from adding into zeros in one case only:
    a copied -0.0 stays -0.0, where 0 + (-0.0) is +0.0. Either zero leaves
    a parameter that is not itself -0.0 unchanged under the SGD update.
    A first gradient of some rows is added into zeros.
    """
    if node.grad is None and rows is ...:
        node.grad = np.empty_like(node.value)
        np.copyto(node.grad, g)  # broadcasts and casts as "+=" does
        return
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad[rows] += g


def affine(tape: Optional[Tape], w: Node, b: Node, v: Node) -> Node:
    """v @ w.T + b on each side: w [S, m, n], b [S, m] and a batch of row
    vectors per side, v [S, N, n], to [S, N, m].

    An untaped call also takes a stack of batches per side [S, B, N, n],
    one GEMM per side and batch.
    """
    wv, bv, vv = w.value, b.value, v.value
    ranks = (3,) if tape is not None else (3, 4)
    if (wv.ndim != 3 or bv.shape != wv.shape[:2] or vv.ndim not in ranks
            or vv.shape[0] != wv.shape[0] or vv.shape[-1] != wv.shape[2]):
        raise ValueError(
            f"affine takes w [S, m, n], b [S, m] and v [S, N, n] (untaped also "
            f"[S, B, N, n]), got w{wv.shape} b{bv.shape} v{vv.shape}"
        )
    lead = wv.shape[:1] + (1,) * (vv.ndim - 3)
    out = Node(vv @ wv.reshape(lead + wv.shape[1:]).swapaxes(-1, -2) + bv.reshape(lead + (1, -1)))
    if tape is not None:
        def bw(g):
            _acc(w, g.swapaxes(1, 2) @ vv)
            _acc(b, g.sum(axis=1))
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


def gru_sequence(
    tape: Optional[Tape], p: Mapping[str, Node], frames: np.ndarray, side: Optional[int] = None
) -> Node:
    """Fold S independent GRUs, one per side, over their windows in one
    step loop.

    ``p`` maps each of ``GRU_SLOTS`` and ``"h0"`` to the S sides' stacked
    parameter: weights [S, H, d] and [S, H, H], biases and the trainable
    initial states [S, H]. ``frames`` is [S, N, L, d], one batch of windows
    per side, of the parameters' dtype; returns the final hidden states
    [S, N, H]. An untaped call also takes a stack of batches per side,
    [S, B, N, L, d] to [S, B, N, H]. With ``side`` given, the call runs
    that side alone (S=1) on its row of each parameter, and its backward
    adds into that row of each gradient. Every product is one GEMM per
    side (and batch), the product that side (and batch) runs alone, so
    each side's values are bit-identical to its own S=1 call. Other shapes
    raise ``ValueError``.

    One step is

        r = sig(W_r v + U_r h + b_r), u = sig(W_u v + U_u h + b_u),
        c = tanh(W_c v + U_c (r*h) + b_c), h' = u*h + (1-u)*c,

    with sig(a) = 0.5 * (tanh(0.5 * a) + 1), which cannot overflow; the
    reset gate multiplies the hidden state before the candidate's recurrent
    matrix. Each step computes these gate by gate in the order of the
    composed cell in ``tests/gru_oracle.py``. The 0.5 * a of the r and u
    gates comes from operands halved once per call (0.5 * W, 0.5 * U,
    0.5 * b); an untaped call keeps 2r = tanh + 1 and gives the candidate
    0.5 * U_c, while a taped call forms r itself, the value its backward
    reads. Halving is exact in binary floating point and commutes with the
    rounding of every product and sum, so the fold changes no bit while no
    operand or product is subnormal (halving a subnormal rounds: with
    float32 input weights and biases of 1e-39 and h0 = 0 the untaped
    values move by a few units of the smallest subnormal).

    The input products take one of two routes, picked by the layout of
    ``frames``:

    - *Sliding*: when window i+1 starts one frame after window i
      (``frames.strides[-3] == frames.strides[-2]``) and N >= 2, as
      ``corpus.cut_windows`` cuts stride-1 windows, a side's (and batch's)
      N windows of L frames read only N+L-1 distinct frames. Each gate
      projects those once, [N+L-1, d] @ W.T, then adds its bias; step t
      reads rows t..t+N-1 of that table in place of its own input GEMM and
      bias add.
    - *Per step*: every other layout (aligned windows, copied stacks, the
      taped (y, x) stack, a single window) runs one [N, d] @ W.T GEMM per
      gate and step, then adds the bias.

    Both routes sum v @ W.T + b + recurrent in the composed cell's order.
    The per-step route is bit-identical to folding that cell. The sliding
    route is too, as long as a GEMM row's value does not depend on the
    GEMM's row count, which is a property of the OpenBLAS kernel. Measured
    at d in {4, 13, 39, 64} and N = 1-69, 100, 200, 596 and 1000, the
    hoisted rows differ from the per-step rows:

        kernel        where the rows differ
        SkylakeX      N=1; and 5 <= N <= 18 for d >= 39
        Haswell       nearly every N for d >= 13
        Sandybridge   N=1 only

    At d=4 with N >= 2 they match on all three; elsewhere the two routes
    agree to float32 rounding. The gates are written in place into buffers
    allocated once per call: four [S, N, H] buffers untaped (r, u, a
    scratch and the output; r*h and the candidate reuse the spent r). Step
    0's recurrent products stay one matrix-vector product per side on its
    [H] h0 ([S, H, H] @ [S, H, 1]): broadcasting h0 to [N, H] first would
    change the bits. A taped call writes (h_prev, r, u, c) of every step
    straight into four time-major [L, S, N, H] arrays (r*h passes through
    the step's c) and records one tape node whose backward is a
    hand-written backpropagation through time (see
    ``_gru_sequence_backward``).
    """
    frames = np.asarray(frames)
    rows = ... if side is None else slice(side, side + 1)
    values = {slot: p[slot].value[rows] for slot in (*GRU_SLOTS, "h0")}
    h0 = values["h0"]
    ranks = (4,) if tape is not None else (4, 5)
    if (frames.ndim not in ranks or h0.ndim != 2 or frames.shape[0] != h0.shape[0]
            or frames.dtype != h0.dtype):
        raise ValueError(
            f"gru_sequence takes [S, N, L, d] frames (untaped also [S, B, N, L, d]) and an "
            f"[S, H] h0 of one dtype, got frames {frames.shape} {frames.dtype} and h0 "
            f"{h0.shape} {h0.dtype}"
        )
    steps, n = frames.shape[-2], frames.shape[-3]
    if steps < 1:
        raise ValueError("gru_sequence requires at least one frame")
    # sigmoid's 0.5 factors folded into the r and u gates' operands; untaped,
    # the candidate takes 0.5 * U_c, as the reset gate keeps 2r
    halved = ("w_r", "u_r", "b_r", "w_u", "u_u", "b_u") + (("u_c",) if tape is None else ())
    for slot in halved:
        values[slot] = 0.5 * values[slot]
    # each side's operands, weights transposed for the row products v @ W.T,
    # with a unit axis over an untaped stack's batches
    lead = frames.shape[:1] + (1,) * (frames.ndim - 4)
    w_r, u_r, w_u, u_u, w_c, u_c = (
        values[slot].swapaxes(1, 2).reshape(lead + values[slot].shape[:0:-1])
        for slot in ("w_r", "u_r", "w_u", "u_u", "w_c", "u_c")
    )
    b_r, b_u, b_c, h = (values[key].reshape(lead + (1, -1)) for key in ("b_r", "b_u", "b_c", "h0"))
    inputs = ((w_r, b_r), (w_u, b_u), (w_c, b_c))
    # a sliding view (window i+1 starts one frame after window i) has N+L-1
    # distinct frames: each gate projects them once, into a table whose rows
    # t..t+N-1 are step t's input rows
    tables = ()
    if n >= 2 and frames.strides[-3] == frames.strides[-2]:
        distinct = np.lib.stride_tricks.as_strided(
            frames, frames.shape[:-3] + (n + steps - 1, frames.shape[-1]),
            frames.strides[:-3] + frames.strides[-2:], writeable=False,
        )
        tables = tuple(np.matmul(distinct, w) for w, _ in inputs)
        for table, (_, b) in zip(tables, inputs):
            table += b
    shape = frames.shape[:-2] + h0.shape[1:]
    if tape is None:
        # the candidate and r*h take the spent r
        r, u, tmp, out = np.empty((4,) + shape, h0.dtype)
    else:
        tmp = np.empty(shape, h0.dtype)
        out = np.empty(shape, h0.dtype)
        # one block: four separate arrays of this size (138 KB each at S=2,
        # N=18, L=15, H=64) were each mapped and unmapped by the C allocator
        # at every call, page faults included
        saved = np.empty((4, steps) + shape, h0.dtype)
        h_prev, r_all, u_all, c_all = saved
        h_prev[0] = h

    def gate(a, g, t, recurrent):
        # a = v @ W.T + b + recurrent, summed in the composed cell's order
        if tables:
            np.add(tables[g][..., t : t + n, :], recurrent, out=a)
        else:
            np.matmul(frames[..., t, :], inputs[g][0], out=a)
            a += inputs[g][1]
            a += recurrent

    # step 0's recurrent products, one matrix-vector product per side on its h0
    first_r, first_u = ((values[slot] @ h0[..., None]).reshape(h.shape) for slot in ("u_r", "u_u"))
    for t in range(steps):
        if tape is None:
            h_next, c = out, r
        else:
            r, u, c = r_all[t], u_all[t], c_all[t]
            h_next = h_prev[t + 1] if t + 1 < steps else out
        # r = sig(a_r) = 0.5 * (tanh(0.5 * a_r) + 1), the 0.5 * a_r formed by
        # the folded operands; untaped, r holds 2r
        gate(r, 0, t, first_r if t == 0 else np.matmul(h, u_r, out=tmp))
        np.tanh(r, out=r)
        r += 1.0
        if tape is not None:
            r *= 0.5
        gate(u, 1, t, first_u if t == 0 else np.matmul(h, u_u, out=tmp))
        np.tanh(u, out=u)
        u += 1.0
        u *= 0.5
        np.multiply(r, h, out=c)
        gate(c, 2, t, np.matmul(c, u_c, out=tmp))
        np.tanh(c, out=c)
        # h' = u*h + (1-u)*c
        np.multiply(u, h, out=h_next)
        np.subtract(1.0, u, out=tmp)
        tmp *= c
        h_next += tmp
        h = h_next
    node = Node(out)
    if tape is not None:
        tape._record(node, _gru_sequence_backward(p, rows, frames, saved))
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
    p: Mapping[str, Node], rows, frames: np.ndarray, saved: np.ndarray
) -> Callable[[np.ndarray], None]:
    """Backpropagation through time for one ``gru_sequence`` call.

    ``saved`` holds the time-major [L, S, N, H] arrays (h_prev, r, u, c).
    The pointwise factors that do not depend on the incoming gradient are
    formed for all steps at once; one reverse loop then does only the
    recurrent part, for every side at once, turning each step's factors
    into that step's gate gradients in place. Each weight gradient is then
    one matmul per side over that side's N*L rows, as in cuDNN's RNN
    backward: the side's rows are first copied together (r*h_prev formed
    again, as the forward formed it), so the product is the one a call on
    that side alone runs. The sweep consumes ``saved``: the spent u and c
    hold those copies. Every other temporary, the products included, is a
    view of the shared scratch; each parameter's [S, ...] gradient is
    gathered there, and ``_acc`` adds it into the parameter's ``rows``.
    """
    h_prev, r, u, c = saved

    def bw(g):
        steps, sides, n, hidden = r.shape
        d = frames.shape[-1]
        flat = steps * n
        sizes = (3 * r.size, 3 * g.size, flat * d, 3 * sides * hidden * d,
                 3 * sides * hidden * hidden, 4 * sides * hidden)
        ends = np.cumsum(sizes)
        work = _scratch_array(r.dtype, int(ends[-1]))
        # the reverse loop turns each factor k_* into its gate's gradient da_*
        factors = work[: ends[0]].reshape((3,) + r.shape)
        k_c, k_u, k_r = factors
        gh, drh, tmp = work[ends[0] : ends[1]].reshape((3,) + g.shape)
        x = work[ends[1] : ends[2]].reshape(steps, n, d)
        # per gate, then h0 among the biases
        grad_w = work[ends[2] : ends[3]].reshape(3, sides, hidden, d)
        grad_u = work[ends[3] : ends[4]].reshape(3, sides, hidden, hidden)
        grad_b = work[ends[4] :].reshape(4, sides, hidden)

        # k_r is free until its own turn: it holds the factors' second terms
        np.subtract(1.0, u, out=k_c)
        np.multiply(c, c, out=k_r)
        np.subtract(1.0, k_r, out=k_r)
        k_c *= k_r  # dh/da_c = (1-u) * (1-c*c)
        np.subtract(h_prev, c, out=k_u)
        np.subtract(1.0, u, out=k_r)
        np.multiply(u, k_r, out=k_r)
        k_u *= k_r  # dh/da_u = (h_prev-c) * (u*(1-u))
        np.subtract(1.0, r, out=k_r)
        np.multiply(r, k_r, out=k_r)
        k_r *= h_prev  # d(r*h_prev)/da_r = h_prev * (r*(1-r))

        u_r, u_u, u_c = (p[slot].value[rows] for slot in ("u_r", "u_u", "u_c"))
        da_r, da_u, da_c = k_r, k_u, k_c
        np.copyto(gh, g)
        for t in reversed(range(steps)):
            factors[:2, t] *= gh  # da_c and da_u at once
            np.matmul(da_c[t], u_c, out=drh)
            da_r[t] *= drh
            # gh = gh*u + drh*r + da_r @ u_r + da_u @ u_u, summed left to right
            gh *= u[t]
            np.multiply(drh, r[t], out=tmp)
            gh += tmp
            np.matmul(da_r[t], u_r, out=tmp)
            gh += tmp
            np.matmul(da_u[t], u_u, out=tmp)
            gh += tmp

        # one side's rows at a time, in the memory of the spent u and c
        da_s, h_s = saved[2:].reshape(-1)[: 2 * flat * hidden].reshape(2, steps, n, hidden)
        for s in range(sides):
            np.copyto(x, frames[s].swapaxes(0, 1))
            np.copyto(h_s, h_prev[:, s])
            for i, da in enumerate((da_r, da_u, da_c)):
                if i == 2:
                    h_s *= r[:, s]  # the candidate's input: the forward's r*h_prev
                np.copyto(da_s, da[:, s])
                a, v, h_in = (m.reshape(flat, -1) for m in (da_s, x, h_s))
                np.matmul(a.T, v, out=grad_w[i, s])
                np.matmul(a.T, h_in, out=grad_u[i, s])
                a.sum(axis=0, out=grad_b[i, s])
            gh[s].sum(axis=0, out=grad_b[3, s])
        for i, gate in enumerate("ruc"):
            _acc(p[f"w_{gate}"], grad_w[i], rows)
            _acc(p[f"u_{gate}"], grad_u[i], rows)
            _acc(p[f"b_{gate}"], grad_b[i], rows)
        _acc(p["h0"], grad_b[3], rows)

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
