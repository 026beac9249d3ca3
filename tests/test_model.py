"""Encoder and marginal model behavior."""

import numpy as np
import pytest

from itco import numerics as nm
from itco.gradcheck import projected
from itco.model import CONFIRM, PREDICT, SIDES, EncoderParams


def tiny_params(seed=0, dtype=np.float64):
    return EncoderParams(input_dim=3, alphabet_size=4, hidden_dim=5, seed=seed, dtype=dtype)


def side_names(ep, side):
    return [name for name, _ in ep.store.items() if name.startswith(f"{side}.")]


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
    for name in side_names(ep, PREDICT):
        ep.store[name].value += 0.37
    after = ep.encode_node(CONFIRM, window).value
    assert np.array_equal(before, after)
    names_c = set(side_names(ep, CONFIRM))
    names_p = set(side_names(ep, PREDICT))
    assert len(names_c) == len(names_p) == 12
    assert not names_c & names_p


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
    ep = EncoderParams(input_dim=64, alphabet_size=16, hidden_dim=64, seed=n, dtype=dtype)
    for _, param in ep.store.items():  # nonzero biases and h0 too
        param.value += (0.1 * rng.standard_normal(param.value.shape)).astype(dtype)
    frames = rng.standard_normal((b, n, 4, 64)).astype(dtype)
    for side in (CONFIRM, PREDICT):
        gru = {slot: nm.ParamStack.of(ep.store[f"{side}.gru.{slot}"]) for slot in (*nm.GRU_SLOTS, "h0")}
        hidden = nm.gru_sequence(None, gru, frames[None]).value[0]
        probs = ep.encode_node(side, frames).value
        assert hidden.shape == (b, n, 64) and probs.shape == (b, n, 16)
        assert hidden.dtype == probs.dtype == dtype
        for i in range(b):
            assert np.array_equal(hidden[i], nm.gru_sequence(None, gru, frames[i][None]).value[0])
            assert np.array_equal(probs[i], ep.encode_node(side, frames[i]).value)


def _distinct_params(dtype, seed):
    # every parameter drawn apart, so no bias or h0 of one side equals the other's
    rng = np.random.default_rng(seed)
    ep = EncoderParams(input_dim=4, alphabet_size=16, hidden_dim=64, seed=seed, dtype=dtype)
    for _, param in ep.store.items():
        param.value[...] = rng.uniform(-1.0, 1.0, param.value.shape) / np.sqrt(param.value.shape[-1])
    return ep, rng


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("steps", [1, 15])
@pytest.mark.parametrize("n", [1, 18, 596])
def test_paired_call_is_bit_identical_to_two_single_side_calls(dtype, steps, n):
    # the oracle is one S=1 call per side: the paired call must give the same
    # forward values and every gradient (GRU, h0, output layer) bit for bit
    ep, rng = _distinct_params(dtype, 1000 * steps + n)
    frames = rng.standard_normal((2, n, steps, 4)).astype(dtype)
    weights = rng.standard_normal((2, n, 16)).astype(dtype)

    def taped(encode):
        ep.store.zero_grads()
        tape = nm.Tape()
        pair = encode(tape)
        tape.backward(projected(tape, pair, weights))
        return [node.value for node in pair], {name: p.grad for name, p in ep.store.items()}

    paired, paired_grads = taped(lambda tape: ep.encode_node(SIDES, frames, tape))
    single, single_grads = taped(
        lambda tape: (ep.encode_node(CONFIRM, frames[0], tape), ep.encode_node(PREDICT, frames[1], tape))
    )
    for got, want in zip(paired, single):
        assert got.dtype == dtype and np.array_equal(got, want)
    assert paired_grads["marginal.logits"] is None is single_grads["marginal.logits"]
    for name, grad in single_grads.items():
        if name != "marginal.logits":
            assert np.array_equal(paired_grads[name], grad), name
    # an update of the named parameters shows through the paired call's stacks
    nm.sgd_apply(ep.store, 0.5)
    # untaped: the pair alone, and a stack of two batches per side
    stacked = np.stack([frames, rng.standard_normal(frames.shape).astype(dtype)], axis=1)
    for batch in (frames, stacked):
        for side, node in zip(SIDES, ep.encode_node(SIDES, batch)):
            assert np.array_equal(node.value, ep.encode_node(side, batch[SIDES.index(side)]).value)
    assert not np.array_equal(ep.encode_node(CONFIRM, frames[0]).value, paired[0])


def test_paired_call_takes_both_sides_stacked():
    ep = tiny_params()
    windows = np.zeros((2, 3, 4, 3))
    assert [node.value.shape for node in ep.encode_node(SIDES, windows)] == [(3, 4), (3, 4)]
    for frames in (windows[0], windows[:1], np.zeros((3, 3, 4, 3))):
        with pytest.raises(ValueError, match=r"\[2, N, L, 3\]"):
            ep.encode_node(SIDES, frames)
    with pytest.raises(ValueError):
        ep.encode_node(SIDES, windows[:, None], nm.Tape())
    for side in ((PREDICT, CONFIRM), [CONFIRM, PREDICT]):
        with pytest.raises(ValueError, match="unknown side"):
            ep.encode_node(side, windows)


def test_same_seed_same_init_different_seed_differs():
    a = tiny_params(seed=1)
    b = tiny_params(seed=1)
    c = tiny_params(seed=2)
    assert np.array_equal(a.store["confirm.out.w"].value, b.store["confirm.out.w"].value)
    assert not np.array_equal(a.store["confirm.out.w"].value, c.store["confirm.out.w"].value)


def test_init_scales_and_zero_starts():
    ep = EncoderParams(input_dim=9, alphabet_size=16, hidden_dim=4, seed=0)
    w = ep.store["confirm.gru.w_r"].value
    u = ep.store["confirm.gru.u_r"].value
    assert np.max(np.abs(w)) <= 1 / 3 + 1e-6  # fan-in 9
    assert np.max(np.abs(u)) <= 0.5 + 1e-6  # fan-in 4
    for name in ("confirm.gru.b_r", "confirm.gru.h0", "confirm.out.b", "marginal.logits"):
        assert np.array_equal(ep.store[name].value, np.zeros_like(ep.store[name].value))
    assert ep.store.dtype == np.float32


def test_marginal_zero_logits_uniform():
    ep = tiny_params()
    assert np.allclose(ep.marginal_node().value, 0.25)


def test_marginal_log_target_recovers_target():
    ep = tiny_params()
    target = np.array([0.1, 0.2, 0.3, 0.4])
    ep.store["marginal.logits"].value[...] = np.log(target)
    assert np.allclose(ep.marginal_node().value, target, atol=1e-12)


def test_encode_gradients_flow_through_tape():
    ep = tiny_params(seed=11)
    window = np.random.default_rng(5).standard_normal((1, 3, 3))
    tape = nm.Tape()
    probs = ep.encode_node(CONFIRM, window, tape)
    tape.backward(projected(tape, probs, np.arange(4.0)))
    total = sum(np.abs(ep.store[n].grad).sum() for n in side_names(ep, CONFIRM))
    assert total > 0
    for name in side_names(ep, PREDICT):
        assert ep.store[name].grad is None

