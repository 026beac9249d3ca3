"""Encoder and marginal model behavior."""

import numpy as np
import pytest

from itco import numerics as nm
from itco.model import CONFIRM, PREDICT, EncoderParams, SymbolDistribution


def tiny_params(seed=0, dtype=np.float64):
    return EncoderParams(input_dim=3, alphabet_size=4, hidden_dim=5, seed=seed, dtype=dtype)


def zero_all(ep):
    for _, param in ep.store.items():
        param.value[...] = 0
    return ep


def test_zeroed_parameters_emit_uniform():
    ep = zero_all(tiny_params())
    window = np.random.default_rng(0).standard_normal((4, 3))
    dist = ep.encode(CONFIRM, window)
    assert np.allclose(dist.probs, 0.25)


def test_encode_output_is_a_distribution_for_random_params():
    ep = tiny_params(seed=3)
    window = np.random.default_rng(1).standard_normal((6, 3))
    for side in (CONFIRM, PREDICT):
        dist = ep.encode(side, window)
        assert np.all(dist.probs > 0)
        assert abs(dist.probs.sum() - 1.0) < 1e-9


def test_encode_is_deterministic():
    ep = tiny_params(seed=5)
    window = np.random.default_rng(2).standard_normal((4, 3))
    a = ep.encode(CONFIRM, window)
    b = ep.encode(CONFIRM, window)
    assert np.array_equal(a.probs, b.probs)


def test_encode_batched_agrees_with_single_windows():
    ep = tiny_params(seed=9)
    windows = np.random.default_rng(3).standard_normal((5, 4, 3))
    batch = ep.encode_node(PREDICT, windows).value
    for i in range(5):
        single = ep.encode_node(PREDICT, windows[i]).value
        assert np.allclose(batch[i], single, atol=1e-12)


def test_sides_share_no_parameters():
    ep = tiny_params(seed=7)
    window = np.random.default_rng(4).standard_normal((4, 3))
    before = ep.encode(CONFIRM, window).probs
    for name in ep.side_param_names(PREDICT):
        ep.store[name].value += 0.37
    after = ep.encode(CONFIRM, window).probs
    assert np.array_equal(before, after)
    names_c = set(ep.side_param_names(CONFIRM))
    names_p = set(ep.side_param_names(PREDICT))
    assert not names_c & names_p


def test_encode_rejects_wrong_dimension_and_side():
    ep = tiny_params()
    with pytest.raises(ValueError):
        ep.encode(CONFIRM, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        ep.encode("backward", np.zeros((4, 3)))


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
    assert np.allclose(ep.marginal_theta().probs, 0.25)


def test_marginal_log_target_recovers_target():
    ep = tiny_params()
    target = np.array([0.1, 0.2, 0.3, 0.4])
    ep.store["marginal.logits"].value[...] = np.log(target)
    assert np.allclose(ep.marginal_theta().probs, target, atol=1e-12)


def test_encode_gradients_flow_through_tape():
    ep = tiny_params(seed=11)
    window = np.random.default_rng(5).standard_normal((3, 3))
    tape = nm.Tape()
    probs = ep.encode_node(CONFIRM, window, tape)
    tape.backward(nm.sum_(tape, nm.mul(tape, probs, nm.constant(np.arange(4.0)))))
    total = sum(np.abs(ep.store[n].grad).sum() for n in ep.side_param_names(CONFIRM))
    assert total > 0
    for name in ep.side_param_names(PREDICT):
        assert np.array_equal(ep.store[name].grad, np.zeros_like(ep.store[name].grad))


def test_symbol_distribution_invariants():
    SymbolDistribution(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        SymbolDistribution(np.array([0.6, 0.5]))
    with pytest.raises(ValueError):
        SymbolDistribution(np.array([1.1, -0.1]))
    assert SymbolDistribution(np.array([0.5, 0.5])).entropy_bits() == 1.0
