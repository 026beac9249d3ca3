"""Encoder model behavior."""

import numpy as np
import pytest

from itco import numerics as nm
from itco.gradcheck import projected
from itco.model import CONFIRM, PREDICT, SIDES, EncoderParams, param_shapes


def tiny_params(seed=0, dtype=np.float64):
    return EncoderParams.fresh(input_dim=3, alphabet_size=4, hidden_dim=5, seed=seed, dtype=dtype)


def side_arrays(ep, side):
    return {name: array for name, array in ep.named_arrays().items() if name.startswith(f"{side}.")}


def zero_all(ep):
    for _, param in ep.store.items():
        param.value[...] = 0
    return ep


def test_zeroed_parameters_emit_uniform():
    ep = zero_all(tiny_params())
    window = np.random.default_rng(0).standard_normal((1, 4, 3))
    probs = ep.encode_node(CONFIRM, window).value
    assert np.allclose(probs, 0.25)


def test_encode_output_is_a_distribution_for_random_params():
    ep = tiny_params(seed=3)
    window = np.random.default_rng(1).standard_normal((1, 6, 3))
    for side in (CONFIRM, PREDICT):
        probs = ep.encode_node(side, window).value
        assert probs.shape == (1, 4)
        assert np.all(probs > 0)
        assert abs(probs.sum() - 1.0) < 1e-9


def test_encode_is_deterministic():
    ep = tiny_params(seed=5)
    window = np.random.default_rng(2).standard_normal((1, 4, 3))
    a = ep.encode_node(CONFIRM, window).value
    b = ep.encode_node(CONFIRM, window).value
    assert np.array_equal(a, b)


def test_encode_batched_agrees_with_single_windows():
    ep = tiny_params(seed=9)
    windows = np.random.default_rng(3).standard_normal((5, 4, 3))
    batch = ep.encode_node(PREDICT, windows).value
    for i in range(5):
        single = ep.encode_node(PREDICT, windows[i][None]).value
        assert np.allclose(batch[i], single[0], atol=1e-12)


def test_sides_share_no_parameters():
    ep = tiny_params(seed=7)
    window = np.random.default_rng(4).standard_normal((1, 4, 3))
    before = ep.encode_node(CONFIRM, window).value
    for array in side_arrays(ep, PREDICT).values():
        array += 0.37
    after = ep.encode_node(CONFIRM, window).value
    assert np.array_equal(before, after)
    arrays_c, arrays_p = side_arrays(ep, CONFIRM), side_arrays(ep, PREDICT)
    assert len(arrays_c) == len(arrays_p) == 12
    assert not arrays_c.keys() & arrays_p.keys()
    assert not any(np.shares_memory(a, b) for a in arrays_c.values() for b in arrays_p.values())


def test_named_arrays_are_the_checkpoint_layout():
    # param_shapes' names, shapes and order, as writable views of the rows
    ep = tiny_params()
    arrays = ep.named_arrays()
    assert [(name, array.shape) for name, array in arrays.items()] == param_shapes(3, 4, 5)
    arrays["predict.out.b"][2] = 7.0
    assert ep.store["out.b"].value[1, 2] == 7.0


def test_encode_rejects_wrong_dimension_and_side():
    ep = tiny_params()
    with pytest.raises(ValueError):
        ep.encode_node(CONFIRM, np.zeros((1, 4, 2)))
    with pytest.raises(ValueError):
        ep.encode_node("backward", np.zeros((1, 4, 3)))


def test_encode_takes_only_a_batch_of_windows():
    ep = tiny_params()
    window = np.random.default_rng(6).standard_normal((4, 3))
    with pytest.raises(ValueError, match=r"\[N, L, 3\]"):
        ep.encode_node(CONFIRM, window)
    assert ep.encode_node(CONFIRM, window[None]).value.shape == (1, 4)
    # a stack of batches only untaped, and no deeper stacks
    with pytest.raises(ValueError):
        ep.encode_node(CONFIRM, window[None, None], nm.Tape())
    with pytest.raises(ValueError):
        ep.encode_node(CONFIRM, window[None, None, None])
    assert ep.encode_node(CONFIRM, window[None, None]).value.shape == (1, 1, 4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 18, 19, 40])
def test_stacked_calls_equal_separate_calls_bit_for_bit(dtype, b, n):
    # each batch of a [B, N, L, d] stack runs its own [N, K] x [K, H] GEMMs,
    # the products of its separate call; one [B*N, K] GEMM would not do:
    # OpenBLAS can round rows of an M <= 18 product apart from M >= 19
    rng = np.random.default_rng(100 * b + n)
    ep = EncoderParams.fresh(input_dim=64, alphabet_size=16, hidden_dim=64, seed=n, dtype=dtype)
    for _, param in ep.store.items():  # nonzero biases and h0 too
        param.value += (0.1 * rng.standard_normal(param.value.shape)).astype(dtype)
    frames = rng.standard_normal((b, n, 4, 64)).astype(dtype)
    gru = {slot: ep.store[f"gru.{slot}"] for slot in (*nm.GRU_SLOTS, "h0")}
    for s, side in enumerate(SIDES):
        hidden = nm.gru_sequence(None, gru, frames[None], side=s).value[0]
        probs = ep.encode_node(side, frames).value
        assert hidden.shape == (b, n, 64) and probs.shape == (b, n, 16)
        assert hidden.dtype == probs.dtype == dtype
        for i in range(b):
            assert np.array_equal(hidden[i], nm.gru_sequence(None, gru, frames[i][None], side=s).value[0])
            assert np.array_equal(probs[i], ep.encode_node(side, frames[i]).value)


def _distinct_params(dtype, seed):
    # every parameter drawn apart, so no bias or h0 of one side equals the other's
    rng = np.random.default_rng(seed)
    ep = EncoderParams.fresh(input_dim=4, alphabet_size=16, hidden_dim=64, seed=seed, dtype=dtype)
    for array in ep.named_arrays().values():
        array[...] = rng.uniform(-1.0, 1.0, array.shape) / np.sqrt(array.shape[-1])
    return ep, rng


def side_alone(ep, side):
    """One side as an S=1 model of its own: copies of its rows of the
    encoder parameters, in a store of their own."""
    s = SIDES.index(side)
    store = nm.ParamStore(ep.store.dtype)
    for name, param in ep.store.items():
        store.add(name, param.value[s : s + 1].copy())
    return store


def encode_alone(store, frames, tape):
    """A `side_alone` model's [1, N, Z] probabilities for [N, L, d] windows."""
    gru = {slot: store[f"gru.{slot}"] for slot in (*nm.GRU_SLOTS, "h0")}
    hidden = nm.gru_sequence(tape, gru, frames[None])
    return nm.softmax(tape, nm.affine(tape, store["out.w"], store["out.b"], hidden))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("steps", [1, 15])
@pytest.mark.parametrize("n", [1, 18, 596])
def test_paired_call_is_bit_identical_to_two_single_side_calls(dtype, steps, n):
    # the oracle is each side alone, an S=1 model of copies of its rows: the
    # paired call on the (y, x) pair gives the same forward values and every
    # gradient (GRU, h0, paired head) bit for bit
    ep, rng = _distinct_params(dtype, 1000 * steps + n)
    frames = rng.standard_normal((2, n, steps, 4)).astype(dtype)
    weights = rng.standard_normal((2, n, 16)).astype(dtype)
    want, want_grads = [], []
    for s, side in enumerate(SIDES):
        store = side_alone(ep, side)
        tape = nm.Tape()
        probs = encode_alone(store, frames[s], tape)
        tape.backward(projected(tape, probs, weights[s : s + 1]))
        want.append(probs.value[0])
        want_grads.append({name: param.grad[0] for name, param in store.items()})
        assert np.array_equal(ep.encode_node(side, frames[s]).value, want[s])

    tape = nm.Tape()
    probs = ep.encode_node(SIDES, (frames[0], frames[1]), tape)
    tape.backward(projected(tape, probs, weights))
    assert probs.value.dtype == dtype
    for s in range(len(SIDES)):
        assert np.array_equal(probs.value[s], want[s])
        for name, grad in want_grads[s].items():
            assert np.array_equal(ep.store[name].grad[s], grad), (name, s)
    # after an update, untaped: the pair alone, and a stack of two batches per side
    nm.sgd_apply(ep.store, 0.5)
    stacked = np.stack([frames, rng.standard_normal(frames.shape).astype(dtype)], axis=1)
    for batch in (frames, stacked):
        paired = ep.encode_node(SIDES, (batch[0], batch[1])).value
        for s, side in enumerate(SIDES):
            assert np.array_equal(paired[s], ep.encode_node(side, batch[s]).value)
    assert not np.array_equal(ep.encode_node(CONFIRM, frames[0]).value, want[0])


@pytest.mark.parametrize("steps", [(4, 2), (1, 3)])
def test_unequal_lengths_join_two_single_side_passes(steps):
    # past != future: each side alone is the oracle of its row, values and
    # gradients; the tape holds a GRU pass per side, the join and the head
    ep, rng = _distinct_params(np.float32, 7)
    y, x = (rng.standard_normal((18, length, 4)).astype(np.float32) for length in steps)
    weights = rng.standard_normal((2, 18, 16)).astype(np.float32)
    tape = nm.Tape()
    probs = ep.encode_node(SIDES, (y, x), tape)
    assert len(tape._nodes) == 5
    tape.backward(projected(tape, probs, weights))
    for s, (side, frames) in enumerate(zip(SIDES, (y, x))):
        store = side_alone(ep, side)
        alone = nm.Tape()
        want = encode_alone(store, frames, alone)
        alone.backward(projected(alone, want, weights[s : s + 1]))
        assert np.array_equal(probs.value[s], want.value[0])
        assert np.array_equal(ep.encode_node(side, frames).value, want.value[0])
        for name, param in store.items():
            assert np.array_equal(ep.store[name].grad[s], param.grad[0]), (name, s)


def test_paired_call_takes_the_y_x_pair():
    ep = tiny_params()
    windows = np.zeros((2, 3, 4, 3))
    y, x = windows
    assert ep.encode_node(SIDES, (y, x)).value.shape == (2, 3, 4)
    assert ep.encode_node(SIDES, (y, x[:, :2])).value.shape == (2, 3, 4)
    # two batches of one N, each [N, L, d] (untaped also a stack of batches)
    with pytest.raises(ValueError, match=r"\[N, L, 3\]"):
        ep.encode_node(SIDES, (y[0], x[0]))
    for pair in ((y, x[:2]), (y,), (y, x, x), (y, x[:, :, :2]), (windows, x)):
        with pytest.raises(ValueError):
            ep.encode_node(SIDES, pair)
    with pytest.raises(ValueError):
        ep.encode_node(SIDES, (windows, windows), nm.Tape())
    assert ep.encode_node(SIDES, (windows, windows[:, :, :1])).value.shape == (2, 2, 3, 4)
    for side in ((PREDICT, CONFIRM), [CONFIRM, PREDICT]):
        with pytest.raises(ValueError, match="unknown side"):
            ep.encode_node(side, (y, x))
    # one side alone runs untaped only
    with pytest.raises(ValueError, match="untaped"):
        ep.encode_node(CONFIRM, y, nm.Tape())


def test_same_seed_same_init_different_seed_differs():
    a = tiny_params(seed=1)
    b = tiny_params(seed=1)
    c = tiny_params(seed=2)
    a, b, c = (ep.named_arrays()["confirm.out.w"] for ep in (a, b, c))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_init_scales_and_zero_starts():
    ep = EncoderParams.fresh(input_dim=9, alphabet_size=16, hidden_dim=4, seed=0)
    arrays = ep.named_arrays()
    w = arrays["confirm.gru.w_r"]
    u = arrays["confirm.gru.u_r"]
    assert np.max(np.abs(w)) <= 1 / 3 + 1e-6  # fan-in 9
    assert np.max(np.abs(u)) <= 0.5 + 1e-6  # fan-in 4
    for name in ("confirm.gru.b_r", "confirm.gru.h0", "confirm.out.b"):
        assert np.array_equal(arrays[name], np.zeros_like(arrays[name]))
    assert ep.store.dtype == np.float32


def test_encode_gradients_flow_through_tape():
    ep = tiny_params(seed=11)
    y, x = np.random.default_rng(5).standard_normal((2, 1, 3, 3))
    tape = nm.Tape()
    probs = ep.encode_node(SIDES, (y, x), tape)
    # only the confirm side's probabilities reach the loss
    tape.backward(projected(tape, probs, np.stack((np.arange(4.0)[None], np.zeros((1, 4))))))
    grads = [param.grad for _, param in ep.store.items()]
    assert len(grads) == 12
    assert sum(np.abs(grad[0]).sum() for grad in grads) > 0
    for grad in grads:
        assert not grad[1].any()

