"""Unit tests for the differentiable core.

Hand-derived oracle values are frozen inline with their derivations;
gradient correctness is checked against central finite differences in
float64.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itco import numerics as nm


def make_store(dtype=np.float64):
    return nm.ParamStore(dtype=dtype)


def test_affine_identity_passthrough():
    store = make_store()
    w = store.add("w", np.eye(3))
    b = store.add("b", np.zeros(3))
    tape = nm.Tape()
    v = nm.constant(np.array([1.5, -2.0, 0.25]))
    out = nm.affine(tape, tape.watch(w), tape.watch(b), v)
    assert np.array_equal(out.value, v.value)


def test_affine_zero_map_gives_zeros():
    store = make_store()
    w = store.add("w", np.zeros((2, 3)))
    b = store.add("b", np.zeros(2))
    out = nm.affine(None, nm.Node(w.value), nm.Node(b.value), nm.constant(np.ones(3)))
    assert np.array_equal(out.value, np.zeros(2))


def test_affine_forward_and_grads_match_hand_arithmetic():
    # W=[[1,2],[3,4]], b=[0.5,-0.5], v=[1,-1]:
    #   Wv+b = [1-2+0.5, 3-4-0.5] = [-0.5, -1.5]
    # d(sum)/dW = outer([1,1], v), d/db = [1,1], d/dv = [1,1]@W = [4,6]
    store = make_store()
    w = store.add("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = store.add("b", np.array([0.5, -0.5]))
    tape = nm.Tape()
    v = nm.constant(np.array([1.0, -1.0]))
    out = nm.affine(tape, tape.watch(w), tape.watch(b), v)
    assert np.allclose(out.value, [-0.5, -1.5])
    tape.backward(nm.sum_(tape, out))
    assert np.allclose(w.grad, [[1.0, -1.0], [1.0, -1.0]])
    assert np.allclose(b.grad, [1.0, 1.0])
    assert np.allclose(v.grad, [4.0, 6.0])


def test_affine_batched_matches_per_row():
    rng = np.random.default_rng(7)
    wv = rng.standard_normal((4, 3))
    bv = rng.standard_normal(4)
    batch = rng.standard_normal((5, 3))
    out = nm.affine(None, nm.Node(wv), nm.Node(bv), nm.constant(batch))
    for i in range(5):
        row = nm.affine(None, nm.Node(wv), nm.Node(bv), nm.constant(batch[i]))
        assert np.allclose(out.value[i], row.value)


def test_affine_rejects_shape_mismatch():
    w = nm.Node(np.zeros((2, 3)))
    b = nm.Node(np.zeros(2))
    with pytest.raises(ValueError):
        nm.affine(None, w, b, nm.constant(np.zeros(4)))
    with pytest.raises(ValueError):
        nm.affine(None, w, nm.Node(np.zeros(3)), nm.constant(np.zeros(3)))


def test_fan_out_accumulates_additively():
    # loss = sum(w*a) + sum(w*b) => dloss/dw = a + b
    store = make_store()
    w = store.add("w", np.array([1.0, 2.0]))
    tape = nm.Tape()
    leaf = tape.watch(w)
    lhs = nm.mul(tape, leaf, nm.constant(np.array([3.0, 5.0])))
    rhs = nm.mul(tape, leaf, nm.constant(np.array([7.0, 11.0])))
    tape.backward(nm.sum_(tape, nm.add(tape, lhs, rhs)))
    assert np.allclose(w.grad, [10.0, 16.0])


def test_watch_returns_same_leaf_per_param():
    store = make_store()
    w = store.add("w", np.ones(2))
    tape = nm.Tape()
    assert tape.watch(w) is tape.watch(w)


def test_linear_loss_gradient_is_exact():
    # loss = sum(c*w) is linear, so central differences are exact up to
    # rounding; the check should come back at ~1e-10 or better.
    store = make_store()
    store.add("w", np.array([0.3, -0.7, 1.1]))
    c = np.array([2.0, -1.0, 0.5])

    def loss_fn(tape):
        leaf = nm.watch(tape, store["w"])
        return nm.sum_(tape, nm.mul(tape, leaf, nm.constant(c)))

    assert nm.finite_diff_check(loss_fn, store, epsilon=1e-5) < 1e-10


def test_detach_blocks_gradient():
    store = make_store()
    w = store.add("w", np.array([2.0]))
    tape = nm.Tape()
    leaf = tape.watch(w)
    blocked = nm.detach(nm.mul(tape, leaf, leaf))
    live = nm.mul(tape, leaf, nm.constant(np.array([3.0])))
    tape.backward(nm.sum_(tape, nm.add(tape, nm.mul(tape, blocked, nm.constant(np.array([100.0]))), live)))
    assert np.allclose(w.grad, [3.0])


def test_backward_requires_scalar_root():
    tape = nm.Tape()
    vec = nm.add(tape, nm.constant(np.zeros(2)), nm.constant(np.ones(2)))
    with pytest.raises(ValueError):
        tape.backward(vec)


def test_log_clamped_floors_value_and_zeroes_gradient_below_floor():
    tape = nm.Tape()
    a = nm.constant(np.array([0.5, 0.0, 1e-40]))
    out = nm.log_clamped(tape, a, floor=1e-30)
    assert np.allclose(out.value, [np.log(0.5), np.log(1e-30), np.log(1e-30)])
    tape.backward(nm.sum_(tape, out))
    assert np.allclose(a.grad, [2.0, 0.0, 0.0])


def test_sigmoid_tanh_values():
    x = nm.constant(np.array([0.0, 2.0, -2.0]))
    s = nm.sigmoid(None, x)
    t = nm.tanh(None, x)
    assert np.allclose(s.value, 1.0 / (1.0 + np.exp(-x.value)))
    assert np.allclose(t.value, np.tanh(x.value))


def test_sigmoid_extreme_inputs_stay_finite():
    s = nm.sigmoid(None, nm.constant(np.array([-1e4, 1e4])))
    assert np.all(np.isfinite(s.value))
    assert np.allclose(s.value, [0.0, 1.0])


def test_softmax_uniform_logits_give_uniform_probabilities():
    p = nm.softmax(None, nm.constant(np.zeros(8)))
    assert np.allclose(p.value, np.full(8, 0.125))


def test_softmax_is_shift_invariant_and_overflow_safe():
    logits = np.array([1.0, 2.0, 3.0])
    big = nm.softmax(None, nm.constant(logits + 5000.0))
    small = nm.softmax(None, nm.constant(logits))
    assert np.all(np.isfinite(big.value))
    assert np.allclose(big.value, small.value)


def test_softmax_rejects_non_finite_logits():
    with pytest.raises(ValueError):
        nm.softmax(None, nm.constant(np.array([0.0, np.nan])))
    with pytest.raises(ValueError):
        nm.softmax(None, nm.constant(np.array([0.0, np.inf])))


def test_softmax_gradient_matches_finite_differences():
    store = make_store()
    store.add("logits", np.array([0.2, -1.0, 0.7, 0.1]))
    target = np.array([0.1, 0.2, 0.3, 0.4])

    def loss_fn(tape):
        leaf = nm.watch(tape, store["logits"])
        p = nm.softmax(tape, leaf)
        return nm.sum_(tape, nm.mul(tape, nm.log_clamped(tape, p), nm.constant(target)))

    assert nm.finite_diff_check(loss_fn, store, epsilon=1e-5) < 1e-8


def test_gru_cell_all_zero_parameters_halves_hidden_state():
    # With zero weights and biases both gates sit at sigmoid(0)=0.5 and the
    # candidate is tanh(0)=0, so h' = 0.5*h + 0.5*0.
    store = make_store()
    params = {}
    for name in nm.GRU_SLOTS:
        shape = (2,) if name.startswith("b") else (2, 2)
        params[name] = nm.Node(store.add(name, np.zeros(shape)).value)
    h = nm.constant(np.array([0.4, -0.8]))
    v = nm.constant(np.array([1.0, 1.0]))
    out = nm.gru_cell(None, params, h, v)
    assert np.allclose(out.value, [0.2, -0.4])


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
    h = nm.constant(np.array([0.9, -0.3, 0.5]))
    v = nm.constant(np.array([0.1, 0.2, 0.3]))
    out = nm.gru_cell(None, params, h, v)
    assert np.allclose(out.value, -np.ones(3), atol=1e-6)


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


def _composed_sequence(tape, p, frames):
    # the oracle: gru_cell folded over time, one tape node per elementary primitive
    h = p["h0"]
    for t in range(frames.shape[-2]):
        h = nm.gru_cell(tape, p, h, nm.constant(frames[..., t, :]))
    return h


def test_gru_sequence_batched_matches_single_windows():
    rng = np.random.default_rng(11)
    d, hdim = 3, 4
    for n, steps, batched_h0 in ((5, 6, False), (5, 6, True), (1, 6, False), (5, 1, False)):
        store = _gru_store(rng, d, hdim, (n, hdim) if batched_h0 else (hdim,))
        params = _value_nodes(store)
        h0 = params["h0"].value

        frames = rng.standard_normal((n, steps, d))
        batched = nm.gru_sequence(None, params, frames)
        assert batched.value.shape == (n, hdim)
        for i in range(n):
            h0_i = nm.Node(h0[i] if batched_h0 else h0)
            single = nm.gru_sequence(None, dict(params, h0=h0_i), frames[i])
            assert np.allclose(batched.value[i], single.value, atol=1e-12)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-9), (np.float32, 1e-3)])
@pytest.mark.parametrize(
    "frames_shape, h0_shape",
    [((6, 3), (4,)), ((5, 6, 3), (4,)), ((5, 6, 3), (5, 4)), ((1, 6, 3), (4,)), ((5, 1, 3), (4,))],
)
def test_gru_sequence_fused_matches_composed_oracle(frames_shape, h0_shape, dtype, tol):
    # The fused node repeats the composed cell's forward arithmetic exactly
    # and sums the same gradients in another order.
    rng = np.random.default_rng(23)
    store = _gru_store(rng, frames_shape[-1], 4, h0_shape, dtype)
    frames = rng.standard_normal(frames_shape).astype(dtype)
    out_shape = h0_shape if len(h0_shape) == 2 else frames_shape[:-2] + (4,)
    weights = rng.standard_normal(out_shape).astype(dtype)

    def run(sequence):
        store.zero_grads()
        tape = nm.Tape()
        params = {name: tape.watch(param) for name, param in store.items()}
        out = sequence(tape, params, frames)
        nodes = len(tape._nodes)
        tape.backward(nm.sum_(tape, nm.mul(tape, out, nm.constant(weights))))
        return out.value, nodes, {name: param.grad.copy() for name, param in store.items()}

    fused, fused_nodes, fused_grads = run(nm.gru_sequence)
    composed, _, composed_grads = run(_composed_sequence)
    assert fused_nodes == 1
    assert fused.dtype == composed.dtype == dtype
    assert np.array_equal(fused, composed)
    assert np.array_equal(nm.gru_sequence(None, _value_nodes(store), frames).value, composed)
    assert len(fused_grads) == 10
    for name, grad in composed_grads.items():
        assert np.abs(grad).max() > 0, name
        np.testing.assert_allclose(fused_grads[name], grad, rtol=tol, atol=tol, err_msg=name)


def test_gru_sequence_rejects_empty_input():
    params = {name: nm.Node(np.zeros((2, 2)) if not name.startswith("b") else np.zeros(2))
              for name in nm.GRU_SLOTS}
    params["h0"] = nm.Node(np.zeros(2))
    with pytest.raises(ValueError):
        nm.gru_sequence(None, params, np.zeros((0, 2)))
    with pytest.raises(ValueError):
        nm.gru_sequence(None, params, np.zeros(3))


def _random_gru_store(seed, d=2, hdim=3, z=4):
    rng = np.random.default_rng(seed)
    store = nm.ParamStore(dtype=np.float64)
    for name in nm.GRU_SLOTS:
        if name.startswith("b"):
            val = np.zeros(hdim)
        elif name.startswith("w"):
            val = rng.uniform(-0.5, 0.5, size=(hdim, d))
        else:
            val = rng.uniform(-0.5, 0.5, size=(hdim, hdim))
        store.add(f"gru.{name}", val)
    store.add("gru.h0", rng.uniform(-0.1, 0.1, size=hdim))
    store.add("out.w", rng.uniform(-0.5, 0.5, size=(z, hdim)))
    store.add("out.b", np.zeros(z))
    return store, rng


@pytest.mark.parametrize("seed", range(5))
def test_gru_softmax_pipeline_gradcheck(seed):
    # End-to-end through every primitive: fold a GRU over a small batch of
    # windows, map to symbol probabilities, and score a weighted log loss.
    store, rng = _random_gru_store(seed)
    frames = rng.uniform(-1.0, 1.0, size=(2, 3, 2))
    weights = rng.uniform(0.1, 1.0, size=(2, 4))

    def loss_fn(tape):
        gru = {name: nm.watch(tape, store[f"gru.{name}"]) for name in nm.GRU_SLOTS}
        gru["h0"] = nm.watch(tape, store["gru.h0"])
        h = nm.gru_sequence(tape, gru, frames)
        logits = nm.affine(tape, nm.watch(tape, store["out.w"]), nm.watch(tape, store["out.b"]), h)
        logp = nm.log_clamped(tape, nm.softmax(tape, logits))
        per_window = nm.sum_(tape, nm.mul(tape, logp, nm.constant(weights)), axis=1)
        return nm.scale(tape, nm.mean_(tape, per_window), -1.0)

    assert nm.finite_diff_check(loss_fn, store, epsilon=1e-5) < 1e-3


def test_every_primitive_gradient_across_100_seeds():
    # One randomized instance per primitive per seed, all against central
    # finite differences in f64.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        store = nm.ParamStore(dtype=np.float64)
        a = store.add("a", rng.uniform(-1.0, 1.0, size=(2, 3)))
        b = store.add("b", rng.uniform(0.05, 1.0, size=3))
        w = store.add("w", rng.uniform(-1.0, 1.0, size=(4, 3)))
        bias = store.add("bias", rng.uniform(-0.5, 0.5, size=4))
        checks = {
            "affine": lambda t: nm.sum_(t, nm.affine(t, nm.watch(t, w), nm.watch(t, bias), nm.watch(t, b))),
            "affine_batched": lambda t: nm.sum_(t, nm.affine(t, nm.watch(t, w), nm.watch(t, bias), nm.watch(t, a))),
            "linear": lambda t: nm.sum_(t, nm.linear(t, nm.watch(t, w), nm.watch(t, a))),
            "add": lambda t: nm.sum_(t, nm.add(t, nm.watch(t, a), nm.watch(t, b))),
            "sub": lambda t: nm.sum_(t, nm.sub(t, nm.watch(t, a), nm.watch(t, b))),
            "mul": lambda t: nm.sum_(t, nm.mul(t, nm.watch(t, a), nm.watch(t, b))),
            "scale": lambda t: nm.sum_(t, nm.scale(t, nm.watch(t, a), -0.7)),
            "one_minus": lambda t: nm.sum_(t, nm.one_minus(t, nm.watch(t, a))),
            "sigmoid": lambda t: nm.sum_(t, nm.sigmoid(t, nm.watch(t, a))),
            "tanh": lambda t: nm.sum_(t, nm.tanh(t, nm.watch(t, a))),
            "log_clamped": lambda t: nm.sum_(t, nm.log_clamped(t, nm.watch(t, b))),
            "softmax": lambda t: nm.sum_(t, nm.mul(t, nm.softmax(t, nm.watch(t, a)), nm.constant(np.arange(3.0)))),
            "mean_axis": lambda t: nm.sum_(t, nm.mean_(t, nm.watch(t, a), axis=0)),
            "mean_all": lambda t: nm.mean_(t, nm.watch(t, a)),
        }
        for name, fn in checks.items():
            err = nm.finite_diff_check(fn, store, epsilon=1e-5)
            assert err < 1e-4, f"{name} failed at seed {seed}: {err}"


def test_softmax_strictly_positive_for_moderate_logits():
    rng = np.random.default_rng(13)
    p = nm.softmax(None, nm.constant(rng.uniform(-30, 30, size=64))).value
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) < 1e-12


def test_sgd_apply_hand_arithmetic():
    store = nm.ParamStore(dtype=np.float64)
    p = store.add("p", np.array([1.0, 2.0]))
    p.grad[...] = [0.5, -0.5]
    nm.sgd_apply(store, lr=0.1)
    assert np.allclose(p.value, [0.95, 2.05])
    assert np.array_equal(p.grad, np.zeros(2))


def test_sgd_descends_convex_quadratic_monotonically():
    # f(p) = sum((p - t)^2) decreases every step under a small enough lr.
    store = nm.ParamStore(dtype=np.float64)
    target = np.array([1.0, -2.0, 0.5])
    store.add("p", np.zeros(3))

    def loss(tape):
        diff = nm.sub(tape, nm.watch(tape, store["p"]), nm.constant(target))
        return nm.sum_(tape, nm.mul(tape, diff, diff))

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
    assert store.names() == ["a", "b"]
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
    p = nm.softmax(None, nm.constant(np.array(logits))).value
    assert np.all(np.isfinite(p))
    assert np.all(p >= 0)
    assert abs(p.sum() - 1.0) < 1e-9


@given(st.lists(finite_floats, min_size=1, max_size=16))
@settings(max_examples=50, deadline=None)
def test_sigmoid_and_tanh_stay_bounded(xs):
    x = nm.constant(np.array(xs))
    assert np.all((nm.sigmoid(None, x).value >= 0) & (nm.sigmoid(None, x).value <= 1))
    assert np.all(np.abs(nm.tanh(None, x).value) <= 1)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_broadcast_mul_gradients_match_finite_differences(seed):
    # mul with a [N, n] batch against a [n] vector exercises unbroadcast.
    rng = np.random.default_rng(seed)
    store = nm.ParamStore(dtype=np.float64)
    store.add("vec", rng.uniform(-1.0, 1.0, size=3))
    batch = rng.uniform(-1.0, 1.0, size=(4, 3))

    def loss_fn(tape):
        leaf = nm.watch(tape, store["vec"])
        prod = nm.mul(tape, nm.constant(batch), leaf)
        return nm.sum_(tape, nm.mean_(tape, prod, axis=0))

    assert nm.finite_diff_check(loss_fn, store, epsilon=1e-5) < 1e-8
