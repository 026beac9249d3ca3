"""Unit tests for the differentiable core.

Hand-derived oracle values are frozen inline with their derivations;
gradient correctness is checked against central finite differences in
float64.
"""

import ast
import inspect
import tracemalloc
from pathlib import Path

import gru_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itco import gradcheck as gc
from itco import numerics as nm
from itco import objective as ob
from itco.gradcheck import projected, run_gradcheck


def make_store(dtype=np.float64):
    return nm.ParamStore(dtype=dtype)


def test_affine_identity_passthrough():
    store = make_store()
    w = store.add("w", np.eye(3)[None])
    b = store.add("b", np.zeros((1, 3)))
    tape = nm.Tape()
    v = nm.Node(np.array([[[1.5, -2.0, 0.25]]]))
    out = nm.affine(tape, w, b, v)
    assert np.array_equal(out.value, v.value)


def test_affine_zero_map_gives_zeros():
    store = make_store()
    w = store.add("w", np.zeros((2, 2, 3)))
    b = store.add("b", np.zeros((2, 2)))
    out = nm.affine(None, nm.Node(w.value), nm.Node(b.value), nm.Node(np.ones((2, 4, 3))))
    assert np.array_equal(out.value, np.zeros((2, 4, 2)))


def test_affine_forward_and_grads_match_hand_arithmetic():
    # side 0: W=[[1,2],[3,4]], b=[0.5,-0.5], rows v=[1,-1] and v'=[0,1]:
    #   Wv+b = [1-2+0.5, 3-4-0.5] = [-0.5, -1.5], Wv'+b = [2.5, 3.5]
    # d(sum)/dW = outer([1,1], v+v'), d/db = [2,2], d/dv = [1,1]@W = [4,6];
    # side 1 is -W, -b on the same rows: every value and the v gradient negate
    store = make_store()
    w = store.add("w", np.array([[[1.0, 2.0], [3.0, 4.0]], [[-1.0, -2.0], [-3.0, -4.0]]]))
    b = store.add("b", np.array([[0.5, -0.5], [-0.5, 0.5]]))
    tape = nm.Tape()
    v = nm.Node(np.array([[[1.0, -1.0], [0.0, 1.0]]] * 2))
    out = nm.affine(tape, w, b, v)
    assert np.allclose(out.value, [[[-0.5, -1.5], [2.5, 3.5]], [[0.5, 1.5], [-2.5, -3.5]]])
    tape.backward(projected(tape, out, 1.0))
    assert np.allclose(w.grad, [[[1.0, 0.0], [1.0, 0.0]]] * 2)
    assert np.allclose(b.grad, [[2.0, 2.0]] * 2)
    assert np.allclose(v.grad, [[[4.0, 6.0], [4.0, 6.0]], [[-4.0, -6.0], [-4.0, -6.0]]])


def test_affine_batched_matches_per_row():
    # each side's batch, and each batch of an untaped stack, runs the product
    # its own call runs
    rng = np.random.default_rng(7)
    wv = rng.standard_normal((2, 4, 3))
    bv = rng.standard_normal((2, 4))
    stack = rng.standard_normal((2, 3, 5, 3))
    out = nm.affine(None, nm.Node(wv), nm.Node(bv), nm.Node(stack))
    for s in range(2):
        one = nm.affine(None, nm.Node(wv[s : s + 1]), nm.Node(bv[s : s + 1]), nm.Node(stack[s : s + 1, 0]))
        assert np.array_equal(out.value[s, 0], one.value[0])
        for i in range(5):
            assert np.allclose(out.value[s, 1, i], wv[s] @ stack[s, 1, i] + bv[s])


def test_affine_rejects_shape_mismatch():
    w = nm.Node(np.zeros((1, 2, 3)))
    b = nm.Node(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        nm.affine(None, w, b, nm.Node(np.zeros((1, 1, 4))))
    with pytest.raises(ValueError):
        nm.affine(None, w, nm.Node(np.zeros((1, 3))), nm.Node(np.zeros((1, 1, 3))))
    # more sides of input than of parameters, and parameters without a side axis
    with pytest.raises(ValueError):
        nm.affine(None, w, b, nm.Node(np.zeros((2, 1, 3))))
    with pytest.raises(ValueError):
        nm.affine(None, nm.Node(np.zeros((2, 3))), nm.Node(np.zeros(2)), nm.Node(np.zeros((1, 3))))
    # a batch is [S, N, n]: a single vector per side is a batch of one
    with pytest.raises(ValueError):
        nm.affine(None, w, b, nm.Node(np.zeros((1, 3))))
    # a stack of batches [S, B, N, n] runs untaped only
    with pytest.raises(ValueError):
        nm.affine(nm.Tape(), w, b, nm.Node(np.zeros((1, 2, 1, 3))))
    assert nm.affine(None, w, b, nm.Node(np.zeros((1, 2, 1, 3)))).value.shape == (1, 2, 1, 2)


def test_fan_out_accumulates_additively():
    # loss = sum(w*a) + sum(w*b) => dloss/dw = a + b
    store = make_store()
    w = store.add("w", np.array([1.0, 2.0]))
    tape = nm.Tape()
    lhs = gru_oracle.mul(tape, w, nm.Node(np.array([3.0, 5.0])))
    rhs = gru_oracle.mul(tape, w, nm.Node(np.array([7.0, 11.0])))
    tape.backward(projected(tape, gru_oracle.add(tape, lhs, rhs), 1.0))
    assert np.allclose(w.grad, [10.0, 16.0])


def test_first_gradient_is_copied_never_aliased():
    # a read-only broadcast view and a view of the backward scratch are
    # copied in, so changing their source afterwards leaves the gradient as
    # it was; later gradients add into the copy
    source = np.array([1.0, -2.0, 3.0])
    node = nm.Node(np.zeros((2, 3)))
    nm._acc(node, np.broadcast_to(source, (2, 3)))
    source[...] = 7.0
    assert np.array_equal(node.grad, [[1.0, -2.0, 3.0]] * 2)
    nm._acc(node, np.ones((2, 3)))
    assert np.array_equal(node.grad, [[2.0, -1.0, 4.0]] * 2)
    scratch = nm._scratch_array(np.dtype(np.float32), 4)
    scratch[...] = [1.0, 2.0, 3.0, 4.0]
    node = nm.Node(np.zeros(4, np.float32))
    nm._acc(node, scratch)
    scratch[...] = 0.0
    assert node.grad.dtype == np.float32 and np.array_equal(node.grad, [1.0, 2.0, 3.0, 4.0])
    assert not np.shares_memory(node.grad, nm._scratch[0])
    # the one way a copy differs from adding into zeros: -0.0 stays -0.0
    node = nm.Node(np.zeros(1))
    nm._acc(node, np.array([-0.0]))
    assert np.signbit(node.grad[0])
    # a first gradient of some rows adds into zeros, and later ones add in
    node = nm.Node(np.zeros((2, 3)))
    nm._acc(node, np.full((1, 3), -0.0), slice(1, 2))
    assert np.array_equal(node.grad, np.zeros((2, 3))) and not np.signbit(node.grad).any()
    nm._acc(node, np.ones((1, 3)), slice(0, 1))
    nm._acc(node, np.broadcast_to(source, (1, 3)), slice(0, 1))
    assert np.array_equal(node.grad, [[8.0] * 3, [0.0] * 3])


def test_param_leaf_accumulates_across_tapes_until_dropped():
    # backward adds into the parameter node's own grad, across tapes, until
    # the caller drops it; a parameter no loss reaches has no gradient
    store = make_store()
    w = store.add("w", np.array([1.0, 2.0]))
    unused = store.add("unused", np.ones(3))
    assert type(w) is nm.Node and w.grad is None
    for _ in range(2):
        tape = nm.Tape()
        tape.backward(projected(tape, w, np.array([3.0, 5.0])))
    assert np.array_equal(w.grad, [6.0, 10.0])
    assert unused.grad is None
    store.zero_grads()
    assert w.grad is None


def test_linear_loss_gradient_is_exact():
    # loss = sum(c*w) is linear, so central differences are exact up to
    # rounding; the check should come back at ~1e-10 or better.
    store = make_store()
    store.add("w", np.array([0.3, -0.7, 1.1]))
    c = np.array([2.0, -1.0, 0.5])

    def loss_fn(tape):
        return projected(tape, store["w"], c)

    assert nm.finite_diff_check(loss_fn, store, epsilon=1e-5) < 1e-10


def test_backward_requires_scalar_root():
    tape = nm.Tape()
    vec = nm.softmax(tape, nm.Node(np.zeros(2)))
    with pytest.raises(ValueError):
        tape.backward(vec)


def test_sigmoid_tanh_values():
    x = nm.Node(np.array([0.0, 2.0, -2.0]))
    s = gru_oracle.sigmoid(None, x)
    t = gru_oracle.tanh(None, x)
    assert np.allclose(s.value, 1.0 / (1.0 + np.exp(-x.value)))
    assert np.allclose(t.value, np.tanh(x.value))


def test_sigmoid_extreme_inputs_stay_finite():
    s = gru_oracle.sigmoid(None, nm.Node(np.array([-1e4, 1e4])))
    assert np.all(np.isfinite(s.value))
    assert np.allclose(s.value, [0.0, 1.0])
    # the program's in-place gates: biases of +1e4 open both gates and keep
    # h, biases of -1e4 shut them and pin h to the saturated candidate, -1
    h = np.array([0.4, -0.8])
    for bias, expected in ((1e4, h), (-1e4, -np.ones(2))):
        out = gru_oracle.runtime_sequence(None, _single_step_params(h, bias), np.ones((1, 1, 2)))
        assert np.all(np.isfinite(out.value))
        assert np.allclose(out.value[0], expected)


def test_softmax_uniform_logits_give_uniform_probabilities():
    p = nm.softmax(None, nm.Node(np.zeros(8)))
    assert np.allclose(p.value, np.full(8, 0.125))


def test_softmax_is_shift_invariant_and_overflow_safe():
    logits = np.array([1.0, 2.0, 3.0])
    big = nm.softmax(None, nm.Node(logits + 5000.0))
    small = nm.softmax(None, nm.Node(logits))
    assert np.all(np.isfinite(big.value))
    assert np.allclose(big.value, small.value)


def test_softmax_rejects_non_finite_logits():
    with pytest.raises(ValueError):
        nm.softmax(None, nm.Node(np.array([0.0, np.nan])))
    with pytest.raises(ValueError):
        nm.softmax(None, nm.Node(np.array([0.0, np.inf])))


def test_softmax_gradient_matches_finite_differences():
    store = make_store()
    store.add("logits", np.array([0.2, -1.0, 0.7, 0.1]))
    target = np.array([0.1, 0.2, 0.3, 0.4])

    def loss_fn(tape):
        p = nm.softmax(tape, store["logits"])
        return projected(tape, p, target)

    assert nm.finite_diff_check(loss_fn, store, epsilon=1e-5) < 1e-8


def _single_step_params(h, bias=0.0, **biases):
    # zero weights, every bias at `bias` unless named, and h0 = h: one step
    # of gru_sequence is then one cell step from h
    params = {name: nm.Node(np.zeros((len(h), len(h)))) for name in nm.GRU_SLOTS}
    for name in ("b_r", "b_u", "b_c"):
        params[name] = nm.Node(np.full(len(h), biases.get(name, bias)))
    params["h0"] = nm.Node(np.asarray(h, dtype=np.float64))
    return params


def test_gru_cell_all_zero_parameters_halves_hidden_state():
    # With zero weights and biases both gates sit at sigmoid(0)=0.5 and the
    # candidate is tanh(0)=0, so h' = 0.5*h + 0.5*0, in the oracle cell and
    # in the program's sequence node alike.
    store = make_store()
    params = {}
    for name in nm.GRU_SLOTS:
        shape = (2,) if name.startswith("b") else (2, 2)
        params[name] = nm.Node(store.add(name, np.zeros(shape)).value)
    h = nm.Node(np.array([0.4, -0.8]))
    v = nm.Node(np.array([1.0, 1.0]))
    out = gru_oracle.gru_cell(None, params, h, v)
    assert np.allclose(out.value, [0.2, -0.4])
    seq = gru_oracle.runtime_sequence(None, _single_step_params(h.value), v.value.reshape(1, 1, 2))
    assert np.allclose(seq.value, [[0.2, -0.4]])


def test_gru_cell_saturated_gates_pin_output():
    # b_u = -50 shuts the update gate, b_c = -50 saturates the candidate at
    # tanh(-50) = -1, so h' lands within 1e-6 of -1 regardless of h or v.
    params = {}
    for name in nm.GRU_SLOTS:
        if name in ("b_u", "b_c"):
            params[name] = nm.Node(np.full(3, -50.0))
        elif name.startswith("b"):
            params[name] = nm.Node(np.zeros(3))
        else:
            params[name] = nm.Node(np.zeros((3, 3)))
    h = nm.Node(np.array([0.9, -0.3, 0.5]))
    v = nm.Node(np.array([0.1, 0.2, 0.3]))
    out = gru_oracle.gru_cell(None, params, h, v)
    assert np.allclose(out.value, -np.ones(3), atol=1e-6)
    seq_params = _single_step_params(h.value, b_u=-50.0, b_c=-50.0)
    seq = gru_oracle.runtime_sequence(None, seq_params, v.value.reshape(1, 1, 3))
    assert np.allclose(seq.value, -np.ones((1, 3)), atol=1e-6)


def _gru_store(rng, d, hdim, h0_shape, dtype=np.float64):
    store = nm.ParamStore(dtype=dtype)
    for name in nm.GRU_SLOTS:
        if name.startswith("b"):
            val = rng.standard_normal(hdim) * 0.1
        elif name.startswith("w"):
            val = rng.standard_normal((hdim, d)) * 0.3
        else:
            val = rng.standard_normal((hdim, hdim)) * 0.3
        store.add(name, val)
    store.add("h0", rng.standard_normal(h0_shape) * 0.1)
    return store


def _value_nodes(store):
    return {name: nm.Node(param.value) for name, param in store.items()}


def test_gru_sequence_batched_matches_single_windows():
    rng = np.random.default_rng(11)
    d, hdim = 3, 4
    for n, steps in ((5, 6), (1, 6), (5, 1)):
        params = _value_nodes(_gru_store(rng, d, hdim, (hdim,)))
        frames = rng.standard_normal((n, steps, d))
        batched = gru_oracle.runtime_sequence(None, params, frames)
        assert batched.value.shape == (n, hdim)
        for i in range(n):
            single = gru_oracle.runtime_sequence(None, params, frames[i : i + 1])
            assert np.allclose(batched.value[i], single.value[0], atol=1e-12)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-9), (np.float32, 1e-3)])
@pytest.mark.parametrize(
    "frames_shape, h0_shape",
    [((6, 3), (4,)), ((5, 6, 3), (4,)), ((5, 6, 3), (5, 4)), ((1, 6, 3), (4,)), ((5, 1, 3), (4,))],
)
def test_gru_sequence_fused_matches_composed_oracle(frames_shape, h0_shape, dtype, tol):
    # The fused nodes repeat the composed cell's forward arithmetic exactly
    # and sum the same gradients in another order. The runtime node takes
    # only batches with an [H] h0 per side, and tapes the side's row of its
    # output as a second node; the reference fused node covers the rest.
    rng = np.random.default_rng(23)
    store = _gru_store(rng, frames_shape[-1], 4, h0_shape, dtype)
    frames = rng.standard_normal(frames_shape).astype(dtype)
    out_shape = h0_shape if len(h0_shape) == 2 else frames_shape[:-2] + (4,)
    weights = rng.standard_normal(out_shape).astype(dtype)

    def run(sequence):
        store.zero_grads()
        tape = nm.Tape()
        params = dict(store.items())
        out = sequence(tape, params, frames)
        nodes = len(tape._nodes)
        tape.backward(projected(tape, out, weights))
        return out.value, nodes, {name: param.grad.copy() for name, param in store.items()}

    composed, _, composed_grads = run(gru_oracle.composed_sequence)
    sequences = [gru_oracle.fused_sequence]
    if len(frames_shape) == 3 and len(h0_shape) == 1:
        sequences.append(gru_oracle.runtime_sequence)
    else:
        with pytest.raises(ValueError):
            gru_oracle.runtime_sequence(None, _value_nodes(store), frames)
    for sequence in sequences:
        fused, fused_nodes, fused_grads = run(sequence)
        assert fused_nodes == (2 if sequence is gru_oracle.runtime_sequence else 1)
        assert fused.dtype == composed.dtype == dtype
        assert np.array_equal(fused, composed)
        assert np.array_equal(sequence(None, _value_nodes(store), frames).value, composed)
        assert len(fused_grads) == 10
        for name, grad in composed_grads.items():
            assert np.abs(grad).max() > 0, name
            np.testing.assert_allclose(fused_grads[name], grad, rtol=tol, atol=tol, err_msg=name)


def _zero_gru_stacks(sides=1, h0_shape=(2,)):
    shapes = {"w": (2, 2), "u": (2, 2), "b": (2,), "h": h0_shape}
    return {slot: nm.Node(np.zeros((sides,) + shapes[slot[0]])) for slot in (*nm.GRU_SLOTS, "h0")}


def test_gru_sequence_rejects_empty_input():
    with pytest.raises(ValueError):
        nm.gru_sequence(None, _zero_gru_stacks(), np.zeros((1, 1, 0, 2)))
    with pytest.raises(ValueError):
        nm.gru_sequence(None, _zero_gru_stacks(), np.zeros(3))


def test_gru_sequence_rejects_shapes_the_program_never_runs():
    # one side's batch without its side axis, frames of another dtype, more
    # sides of frames than of parameters, a per-window [S, N, H] h0
    params = _zero_gru_stacks()
    for frames in (np.zeros((1, 3, 2)), np.zeros((1, 1, 3, 2), np.float32), np.zeros((2, 1, 3, 2))):
        with pytest.raises(ValueError):
            nm.gru_sequence(None, params, frames)
    with pytest.raises(ValueError):
        nm.gru_sequence(None, _zero_gru_stacks(h0_shape=(1, 2)), np.zeros((1, 1, 3, 2)))
    # a stack of batches per side [S, B, N, L, d] runs untaped only
    for sides in (1, 2):
        params = _zero_gru_stacks(sides)
        with pytest.raises(ValueError):
            nm.gru_sequence(nm.Tape(), params, np.zeros((sides, 2, 1, 3, 2)))
        assert nm.gru_sequence(None, params, np.zeros((sides, 2, 1, 3, 2))).value.shape == (sides, 2, 1, 2)
    # one side's row runs one side's frames
    params = _zero_gru_stacks(2)
    with pytest.raises(ValueError):
        nm.gru_sequence(None, params, np.zeros((2, 1, 3, 2)), side=1)
    assert nm.gru_sequence(None, params, np.zeros((1, 1, 3, 2)), side=1).value.shape == (1, 1, 2)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("frames_shape, h0_shape", [((5, 3), (4,)), ((2, 5, 3), (2, 4))])
def test_reference_gru_sequence_gradcheck(frames_shape, h0_shape, seed):
    # the one-window and per-window-h0 shapes of the reference fused node,
    # which the runtime node does not take, against central differences
    rng = np.random.default_rng(seed)
    store = _gru_store(rng, frames_shape[-1], 4, h0_shape)
    frames = rng.standard_normal(frames_shape)
    weights = rng.standard_normal(h0_shape if len(h0_shape) == 2 else frames_shape[:-2] + (4,))

    def loss_fn(tape):
        out = gru_oracle.fused_sequence(tape, dict(store.items()), frames)
        return projected(tape, out, weights)

    assert nm.finite_diff_check(loss_fn, store, epsilon=1e-5) < 1e-3


def _taped_grads(sequence, store, frames, weights):
    store.zero_grads()
    tape = nm.Tape()
    out = sequence(tape, dict(store.items()), frames)
    tape.backward(projected(tape, out, weights))
    return out.value, {name: param.grad for name, param in store.items()}


def _nonzero_gru_store(rng, d, hdim, dtype):
    # fan-in scaled weights, with biases and h0 well away from zero
    store = nm.ParamStore(dtype=dtype)
    for name in nm.GRU_SLOTS:
        shape = {"b": (hdim,), "w": (hdim, d), "u": (hdim, hdim)}[name[0]]
        store.add(name, rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(shape[-1]))
    store.add("h0", rng.uniform(-1.0, 1.0, size=hdim))
    return store


@given(
    n=st.integers(1, 40),
    steps=st.integers(1, 8),
    d=st.sampled_from([1, 4, 64]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_gru_sequence_bit_identical_to_reference(n, steps, d, dtype, seed):
    # the workspace node reproduces the reference fused node's forward
    # value and every parameter gradient bit for bit
    rng = np.random.default_rng(seed)
    store = _nonzero_gru_store(rng, d, 8, dtype)
    frames = rng.standard_normal((n, steps, d)).astype(dtype)
    weights = rng.standard_normal((n, 8)).astype(dtype)
    out, grads = _taped_grads(gru_oracle.runtime_sequence, store, frames, weights)
    ref_out, ref_grads = _taped_grads(gru_oracle.fused_sequence, store, frames, weights)
    assert out.dtype == dtype
    assert np.array_equal(out, ref_out)
    assert np.array_equal(gru_oracle.runtime_sequence(None, dict(store.items()), frames).value, ref_out)
    for name, grad in ref_grads.items():
        assert np.array_equal(grads[name], grad), name


def _sliding_windows(rng, lead, n, steps, d, dtype):
    """[*lead, N, L, d] windows, window i+1 starting one frame after window
    i: a read-only view of [*lead, N+L-1, d] frames, as stride-1
    ``cut_windows`` cuts them."""
    frames = rng.standard_normal(lead + (n + steps - 1, d)).astype(dtype)
    windows = np.lib.stride_tricks.sliding_window_view(frames, steps, axis=-2).swapaxes(-1, -2)
    assert windows.strides[-3] == windows.strides[-2]
    return windows


def _side_stores(rng, sides, d, hdim, dtype):
    """Each side's parameters apart, and all of them as [S, ...] nodes."""
    stores = [_nonzero_gru_store(rng, d, hdim, dtype) for _ in range(sides)]
    stacked = {name: nm.Node(np.stack([s[name].value for s in stores]))
               for name in (*nm.GRU_SLOTS, "h0")}
    return stores, stacked


def _per_step_oracle(stores, windows):
    """The reference fused node, on each side's (and batch's) own copy of
    its windows [S, (B,) N, L, d]."""
    out = np.empty(windows.shape[:-2] + stores[0]["h0"].value.shape, windows.dtype)
    for index in np.ndindex(windows.shape[:-3]):
        params = dict(stores[index[0]].items())
        out[index] = gru_oracle.fused_sequence(None, params, np.ascontiguousarray(windows[index])).value
    return out


def _input_projections(monkeypatch, d):
    """Count, from here on, the products of frames with an input weight: the
    np.matmul calls whose left operand has d columns (d is not H)."""
    calls = []
    matmul = np.matmul

    def counting(a, *args, **kwargs):
        if np.shape(a)[-1] == d:
            calls.append(np.shape(a))
        return matmul(a, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    return calls


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [2, 18, 596])
def test_sliding_windows_match_the_per_step_oracle_bit_for_bit(n, dtype):
    # At d=4 a GEMM row's value does not depend on the row count (N >= 2) on
    # the OpenBLAS kernels measured, so projecting the N+L-1 distinct frames
    # once per gate gives the per-step route's bits: one side taped, with
    # every gradient, and an untaped [S, B, N, L, d] stack of two sides
    rng = np.random.default_rng(n)
    steps, d, hdim = 15, 4, 16
    (store,), _ = _side_stores(rng, 1, d, hdim, dtype)
    windows = _sliding_windows(rng, (), n, steps, d, dtype)
    weights = rng.standard_normal((n, hdim)).astype(dtype)
    out, grads = _taped_grads(gru_oracle.runtime_sequence, store, windows, weights)
    copied = np.ascontiguousarray(windows)
    ref_out, ref_grads = _taped_grads(gru_oracle.fused_sequence, store, copied, weights)
    assert np.array_equal(out, ref_out)
    assert np.array_equal(gru_oracle.runtime_sequence(None, dict(store.items()), windows).value, ref_out)
    for name, grad in ref_grads.items():
        assert np.array_equal(grads[name], grad), name

    stores, stacked = _side_stores(rng, 2, d, hdim, dtype)
    windows = _sliding_windows(rng, (2, 3), n, steps, d, dtype)
    got = nm.gru_sequence(None, stacked, windows).value
    assert np.array_equal(got, _per_step_oracle(stores, windows))


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("d", [13, 64])
@pytest.mark.parametrize("n", [2, 18, 596])
def test_sliding_windows_match_the_per_step_oracle_closely(n, d, dtype, tol):
    # at d >= 13 some OpenBLAS kernels (Haswell) round a GEMM row by the row
    # count, so the hoisted rows may differ from the per-step rows in their
    # last bit
    rng = np.random.default_rng(1000 * d + n)
    stores, stacked = _side_stores(rng, 2, d, 16, dtype)
    for lead in ((2,), (2, 3)):
        windows = _sliding_windows(rng, lead, n, 15, d, dtype)
        got = nm.gru_sequence(None, stacked, windows).value
        want = _per_step_oracle(stores, windows)
        assert np.abs(got - want).max() <= tol * np.abs(want).max()


@pytest.mark.parametrize("d", [4, 13, 64])
def test_sliding_view_projects_each_frame_once(d, monkeypatch):
    # three input GEMMs per call on a sliding view of N >= 2 windows, one per
    # gate over its N+L-1 frames; one window, copied windows and aligned
    # windows take the per-step route, three GEMMs of N rows per step, and a
    # single window matches the oracle bit for bit on every kernel
    rng = np.random.default_rng(d)
    steps = 15
    stores, stacked = _side_stores(rng, 1, d, 16, np.float32)
    sliding = _sliding_windows(rng, (1,), 18, steps, d, np.float32)
    aligned = _sliding_windows(rng, (1,), 18 * steps, steps, d, np.float32)[:, ::steps]
    single = _sliding_windows(rng, (1,), 1, steps, d, np.float32)
    calls = _input_projections(monkeypatch, d)
    nm.gru_sequence(None, stacked, sliding)
    assert calls == [(1, 18 + steps - 1, d)] * 3
    for windows in (np.ascontiguousarray(sliding), aligned, single):
        calls.clear()
        nm.gru_sequence(None, stacked, windows)
        assert calls == [(1, windows.shape[1], d)] * 3 * steps
    assert np.array_equal(nm.gru_sequence(None, stacked, single).value, _per_step_oracle(stores, single))


def test_the_sigmoid_fold_with_subnormal_weights():
    # Halving a subnormal rounds, so the folded 0.5 factors are exact only
    # while no operand or product is subnormal. With input weights of 1e-39
    # (float32 subnormals) and h0 = 0, the hidden state is subnormal: the
    # taped forward, which keeps r and the full U_c, still equals the oracle
    # with every gradient, and the untaped 2r * h and 0.5 * U_c stay within
    # a few subnormal units of it.
    rng = np.random.default_rng(7)
    n, steps, d, hdim = 5, 6, 4, 8
    store = _nonzero_gru_store(rng, d, hdim, np.float32)
    for name in ("w_r", "w_u", "w_c", "b_r", "b_u", "b_c"):
        store[name].value[...] = rng.uniform(-1.0, 1.0, store[name].value.shape) * 1e-39
    store["h0"].value[...] = 0.0
    frames = rng.standard_normal((n, steps, d)).astype(np.float32)
    weights = rng.standard_normal((n, hdim)).astype(np.float32)
    out, grads = _taped_grads(gru_oracle.runtime_sequence, store, frames, weights)
    ref_out, ref_grads = _taped_grads(gru_oracle.fused_sequence, store, frames, weights)
    subnormal = np.finfo(np.float32).smallest_subnormal
    assert 0 < np.abs(ref_out).max() < np.finfo(np.float32).tiny
    assert np.array_equal(out, ref_out)
    for name, grad in ref_grads.items():
        assert np.array_equal(grads[name], grad), name
    untaped = gru_oracle.runtime_sequence(None, dict(store.items()), frames).value
    assert np.abs(untaped - ref_out).max() <= 16 * subnormal


def test_gru_sequence_interleaved_calls_share_no_state():
    # Between one side's taped forward and its backward, the same side runs
    # untaped and the other side runs a whole taped step, at batch sizes and
    # lengths that grow and shrink the shared backward scratch; every
    # gradient still equals the reference's.
    rng = np.random.default_rng(5)
    hdim, d = 16, 4
    sides = [_nonzero_gru_store(rng, d, hdim, np.float32) for _ in range(2)]
    shapes = [(3, 2), (40, 8), (1, 1), (17, 5), (40, 8), (2, 3), (25, 1)]
    for i, (n, steps) in enumerate(shapes):
        this, other = sides[i % 2], sides[1 - i % 2]
        frames = rng.standard_normal((n, steps, d)).astype(np.float32)
        weights = rng.standard_normal((n, hdim)).astype(np.float32)
        ref_out, ref_grads = _taped_grads(gru_oracle.fused_sequence, this, frames, weights)
        ref_grads = {name: grad.copy() for name, grad in ref_grads.items()}

        this.zero_grads()
        tape = nm.Tape()
        out = gru_oracle.runtime_sequence(tape, dict(this.items()), frames)
        root = projected(tape, out, weights)
        n2, steps2 = shapes[(i + 3) % len(shapes)]
        frames2 = rng.standard_normal((n2, steps2, d)).astype(np.float32)
        gru_oracle.runtime_sequence(None, dict(this.items()), frames2)
        _taped_grads(gru_oracle.runtime_sequence, other, frames2, rng.standard_normal((n2, hdim)).astype(np.float32))
        tape.backward(root)
        assert np.array_equal(out.value, ref_out)
        for name, grad in ref_grads.items():
            assert np.array_equal(this[name].grad, grad), (i, name)


def test_gru_backward_reuses_its_scratch():
    # After a first backward has grown the shared scratch, a same-shaped
    # backward allocates less than one saved [L, N, H] field: numpy reports
    # its buffers to tracemalloc, and the stacked and per-call temporaries
    # this replaced came to about 170 [N, H] units.
    rng = np.random.default_rng(3)
    n, steps, hdim = 596, 15, 64
    store = _nonzero_gru_store(rng, 4, hdim, np.float32)
    frames = rng.standard_normal((n, steps, 4)).astype(np.float32)

    def taped_forward():
        store.zero_grads()
        tape = nm.Tape()
        return tape, projected(tape, gru_oracle.runtime_sequence(tape, dict(store.items()), frames), 1.0)

    tape, root = taped_forward()
    tape.backward(root)
    tape, root = taped_forward()
    tracemalloc.start()
    try:
        tape.backward(root)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < steps * n * hdim * 4


def _random_gru_store(seed, d=2, hdim=3, z=4):
    # both sides' parameters, stacked
    rng = np.random.default_rng(seed)
    sides = 2
    store = nm.ParamStore(dtype=np.float64)
    for name in nm.GRU_SLOTS:
        if name.startswith("b"):
            val = np.zeros((sides, hdim))
        elif name.startswith("w"):
            val = rng.uniform(-0.5, 0.5, size=(sides, hdim, d))
        else:
            val = rng.uniform(-0.5, 0.5, size=(sides, hdim, hdim))
        store.add(f"gru.{name}", val)
    store.add("gru.h0", rng.uniform(-0.1, 0.1, size=(sides, hdim)))
    store.add("out.w", rng.uniform(-0.5, 0.5, size=(sides, z, hdim)))
    store.add("out.b", np.zeros((sides, z)))
    return store, rng


@pytest.mark.parametrize("seed", range(5))
def test_gru_softmax_pipeline_gradcheck(seed):
    # End-to-end through every primitive the encoders run: fold both sides'
    # GRUs over a small batch of windows each, map them to symbol
    # probabilities through the paired head, and score the pair with the
    # utterance loss.
    store, rng = _random_gru_store(seed)
    frames = rng.uniform(-1.0, 1.0, size=(2, 2, 3, 2))

    def loss_fn(tape):
        gru = {name: store[f"gru.{name}"] for name in (*nm.GRU_SLOTS, "h0")}
        h = nm.gru_sequence(tape, gru, frames)
        logits = nm.affine(tape, store["out.w"], store["out.b"], h)
        return ob.utterance_loss(nm.softmax(tape, logits), tape)[0]

    assert nm.finite_diff_check(loss_fn, store, epsilon=1e-5) < 1e-3


def test_every_primitive_gradient_across_100_seeds():
    # One randomized instance per primitive per seed, all against central
    # finite differences in f64; the oracle cell's own primitives included.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        store = nm.ParamStore(dtype=np.float64)
        a = store.add("a", rng.uniform(-1.0, 1.0, size=(2, 3)))
        b = store.add("b", rng.uniform(0.05, 1.0, size=3))
        w = store.add("w", rng.uniform(-1.0, 1.0, size=(4, 3)))
        bias = store.add("bias", rng.uniform(-0.5, 0.5, size=4))
        # the program's affine map, on two sides' parameters and batches
        side_w = store.add("side_w", rng.uniform(-1.0, 1.0, size=(2, 4, 3)))
        side_b = store.add("side_b", rng.uniform(-0.5, 0.5, size=(2, 4)))
        side_v = store.add("side_v", rng.uniform(-1.0, 1.0, size=(2, 2, 3)))
        checks = {
            "affine_vector": lambda t: projected(t, gru_oracle.affine(t, w, bias, b), 1.0),
            "affine_batched": lambda t: projected(t, nm.affine(t, side_w, side_b, side_v), 1.0),
            "linear": lambda t: projected(t, gru_oracle.linear(t, w, a), 1.0),
            "add": lambda t: projected(t, gru_oracle.add(t, a, b), 1.0),
            "mul": lambda t: projected(t, gru_oracle.mul(t, a, b), 1.0),
            "one_minus": lambda t: projected(t, gru_oracle.one_minus(t, a), 1.0),
            "sigmoid": lambda t: projected(t, gru_oracle.sigmoid(t, a), 1.0),
            "tanh": lambda t: projected(t, gru_oracle.tanh(t, a), 1.0),
            "softmax": lambda t: projected(t, nm.softmax(t, a), np.arange(3.0)),
        }
        for name, fn in checks.items():
            err = nm.finite_diff_check(fn, store, epsilon=1e-5)
            assert err < 1e-4, f"{name} failed at seed {seed}: {err}"


def _oracle_gradcheck_cases(seed):
    """The gradient-check cases of the oracle cell and its own primitives, on
    the program's case shapes and per-case random streams."""
    cases = [
        gc.simple_case(seed, name, build, *shapes)
        for name, build, *shapes in (
            ("one_minus", gru_oracle.one_minus, (4,)),
            ("affine_vector", gru_oracle.affine, (3, 4), (3,), (4,)),
            ("linear", gru_oracle.linear, (3, 4), (4,)),
            ("sigmoid", gru_oracle.sigmoid, (7,)),
            ("tanh", gru_oracle.tanh, (7,)),
        )
    ]
    rng = gc.case_rng(seed, "gru_cell")
    store = gc.gru_store(rng)
    h_in = rng.normal(size=gc.HIDDEN) * 0.2
    v_in = rng.normal(size=gc.INPUT)
    r = rng.normal(size=gc.HIDDEN)

    def gru_cell_loss(tape):
        p = dict(store.items())
        h = gru_oracle.add(tape, p.pop("h0"), nm.Node(h_in))
        out = gru_oracle.gru_cell(tape, p, h, nm.Node(v_in))
        return projected(tape, out, r)

    return cases + [("gru_cell", store, gru_cell_loss)]


@pytest.mark.parametrize("seed", range(20))
def test_oracle_gradcheck_cases(seed):
    # the gradient check's bound, over its 20 seeds, for the primitives
    # that only the oracle cell runs
    for name, store, loss_fn in _oracle_gradcheck_cases(seed):
        err = nm.finite_diff_check(loss_fn, store, epsilon=1e-5)
        assert err < 1e-3, f"{name} at seed {seed}: {err:.3e}"


def test_linear_case_is_nearly_exact():
    # curvature-free ops leave only floating-point rounding in the
    # central difference, orders of magnitude below the tolerance
    cases = {name: (store, loss_fn) for name, store, loss_fn in _oracle_gradcheck_cases(0)}
    store, loss_fn = cases["linear"]
    assert nm.finite_diff_check(loss_fn, store, epsilon=1e-5) < 1e-8
    assert dict(run_gradcheck(seed=0))["affine_batch"] < 1e-8


def test_numerics_exports_only_what_the_program_runs():
    # every exported function has a caller in a program module other than
    # numerics itself and the gradient check, which exists to call them;
    # finite_diff_check is the gradient check's own tool
    called = set()
    for path in Path(nm.__file__).parent.glob("*.py"):
        if path.name in ("numerics.py", "gradcheck.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "numerics":
                called.update(alias.name for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("nm", "numerics")
            ):
                called.add(node.attr)
    exported = {name for name in nm.__all__ if inspect.isfunction(getattr(nm, name))}
    assert exported - called - {"finite_diff_check"} == set()


def test_softmax_strictly_positive_for_moderate_logits():
    rng = np.random.default_rng(13)
    p = nm.softmax(None, nm.Node(rng.uniform(-30, 30, size=64))).value
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) < 1e-12


def test_sgd_apply_hand_arithmetic():
    store = nm.ParamStore(dtype=np.float64)
    p = store.add("p", np.array([1.0, 2.0]))
    untouched = store.add("untouched", np.array([3.0]))
    p.grad = np.array([0.5, -0.5])
    nm.sgd_apply(store, lr=0.1)
    assert np.allclose(p.value, [0.95, 2.05])
    assert p.grad is None
    assert untouched.value.tolist() == [3.0] and untouched.grad is None


def test_sgd_descends_convex_quadratic_monotonically():
    # f(p) = sum((p - t)^2) decreases every step under a small enough lr.
    store = nm.ParamStore(dtype=np.float64)
    target = np.array([1.0, -2.0, 0.5])
    store.add("p", np.zeros(3))

    def loss(tape):
        diff = gru_oracle.add(tape, store["p"], nm.Node(-target))
        return projected(tape, gru_oracle.mul(tape, diff, diff), 1.0)

    prev = float(loss(None).value)
    for _ in range(25):
        store.zero_grads()
        tape = nm.Tape()
        tape.backward(loss(tape))
        nm.sgd_apply(store, lr=0.1)
        cur = float(loss(None).value)
        assert cur < prev
        prev = cur
    assert prev < 1e-3


def test_param_store_rejects_duplicates_and_keeps_order():
    store = nm.ParamStore()
    store.add("a", np.zeros(1))
    store.add("b", np.zeros(1))
    with pytest.raises(ValueError):
        store.add("a", np.zeros(1))
    assert [name for name, _ in store.items()] == ["a", "b"]
    assert store.dtype == np.float32
    assert store["a"].value.dtype == np.float32


def test_stream_rng_is_deterministic_and_tag_separated():
    a = nm.stream_rng(7, 1).standard_normal(4)
    b = nm.stream_rng(7, 1).standard_normal(4)
    c = nm.stream_rng(7, 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# properties

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@given(st.lists(finite_floats, min_size=1, max_size=16))
@settings(max_examples=50, deadline=None)
def test_softmax_normalizes_for_any_finite_logits(logits):
    p = nm.softmax(None, nm.Node(np.array(logits))).value
    assert np.all(np.isfinite(p))
    assert np.all(p >= 0)
    assert abs(p.sum() - 1.0) < 1e-9


@given(st.lists(finite_floats, min_size=1, max_size=16))
@settings(max_examples=50, deadline=None)
def test_sigmoid_and_tanh_stay_bounded(xs):
    x = nm.Node(np.array(xs))
    s = gru_oracle.sigmoid(None, x).value
    assert np.all((s >= 0) & (s <= 1))
    assert np.all(np.abs(gru_oracle.tanh(None, x).value) <= 1)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_broadcast_mul_gradients_match_finite_differences(seed):
    # the oracle's mul with a [N, n] batch against a [n] vector exercises
    # its unbroadcast
    rng = np.random.default_rng(seed)
    store = nm.ParamStore(dtype=np.float64)
    store.add("vec", rng.uniform(-1.0, 1.0, size=3))
    batch = rng.uniform(-1.0, 1.0, size=(4, 3))

    def loss_fn(tape):
        prod = gru_oracle.mul(tape, nm.Node(batch), store["vec"])
        return projected(tape, prod, 1.0 / len(batch))

    assert nm.finite_diff_check(loss_fn, store, epsilon=1e-5) < 1e-8
