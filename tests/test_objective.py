"""The co-training objective: values against hand oracles, gradients
against finite differences, and the information inequalities it must obey."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itco import numerics as nm
from itco import objective as ob
from itco.model import CONFIRM, PREDICT, SIDES, EncoderParams


def one_hots(symbols, size):
    """[N, size] batch with row i one-hot at symbols[i]."""
    return np.eye(size)[list(symbols)]


def uniform(n, size):
    return np.full((n, size), 1.0 / size)


def dirichlet_batch(rng, n, z):
    return np.stack([rng.dirichlet(np.ones(z)) for _ in range(n)])


def row_entropy_bits(p):
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def side_grads(ep, side):
    """Each encoder parameter's gradient row of `side`."""
    return [param.grad[SIDES.index(side)] for _, param in ep.store.items()]


def terms_of(confirm, predict=None, **kwargs):
    """The utterance loss's terms; `predict` defaults to `confirm`."""
    pair = np.stack((confirm, confirm if predict is None else predict))
    return ob.utterance_loss(pair, **kwargs)[1]


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_one_hot_vs_uniform_64_is_six_bits():
    ce = terms_of(one_hots([17], 64), uniform(1, 64)).cross_entropy_bits
    assert abs(ce - 6.0) < 1e-12


def test_cross_entropy_equal_batches_equals_mean_entropy():
    rng = np.random.default_rng(0)
    batch = dirichlet_batch(rng, 5, 8)
    ce = terms_of(batch).cross_entropy_bits
    mean_h = np.mean([row_entropy_bits(p) for p in batch])
    assert abs(ce - mean_h) < 1e-9


def test_cross_entropy_two_symbol_hand_case():
    ce = terms_of(one_hots([0], 2), np.array([[0.5, 0.5]])).cross_entropy_bits
    assert abs(ce - 1.0) < 1e-12


def test_cross_entropy_length_mismatch_rejected():
    # a pair is one [2, N, Z] array: one side alone, more than two sides, no
    # window, or a single distribution per side are refused
    for probs in (uniform(1, 4), np.stack([uniform(1, 4)] * 3), np.stack([uniform(0, 4)] * 2),
                  np.stack([uniform(1, 4)[0]] * 2)):
        with pytest.raises(ValueError):
            ob.utterance_loss(probs)
        with pytest.raises(ValueError):
            ob.utterance_loss(probs, marginal=nm.Node(uniform(1, 4)[0]))


def test_cross_entropy_clamps_zeros_and_counts_saturation():
    confirm = np.array([[1.0, 0.0]])
    predict = np.array([[0.0, 1.0]])
    ce = terms_of(confirm, predict).cross_entropy_bits
    assert np.isfinite(ce)
    # clamped at 1e-30: -log2(1e-30) = 30*log2(10)
    assert abs(ce - 30 * np.log2(10)) < 1e-9
    assert ob.count_saturation(confirm, predict) == 1
    assert ob.count_saturation(confirm, np.array([[0.5, 0.5]])) == 0


def test_log_clamped_floors_value_and_zeroes_gradient_below_floor():
    # predict cells at 0 and below the 1e-30 floor cost -log2(1e-30) bits
    # per unit of confirm mass and pass no gradient; the cell at 0.5 passes
    # d/dp of -c*log2(p), which is -c/(p ln 2)
    probs = nm.Node(np.array([[[0.5, 0.25, 0.25]], [[0.5, 0.0, 1e-40]]]))
    tape = nm.Tape()
    loss, terms = ob.utterance_loss(probs, tape)
    assert abs(terms.cross_entropy_bits - (0.5 + 0.5 * 30 * np.log2(10))) < 1e-9
    assert terms.saturation_count == 2
    tape.backward(loss)
    assert np.allclose(probs.grad[1], [[-ob.LOG2E, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# entropy of the batch mean


def test_entropy_of_mean_64_one_hots_covering_alphabet():
    batch = one_hots(range(64), 64)
    assert abs(terms_of(batch).marginal_entropy_bits - 6.0) < 1e-12


def test_entropy_of_mean_identical_one_hots_is_zero():
    batch = one_hots([3] * 10, 64)
    assert abs(terms_of(batch).marginal_entropy_bits) < 1e-12


# ---------------------------------------------------------------------------
# utterance loss


def test_utterance_loss_uniform_pair_is_zero():
    loss, terms = ob.utterance_loss(np.stack((uniform(1, 64), uniform(1, 64))))
    assert abs(float(loss.value)) < 1e-12
    assert abs(terms.cross_entropy_bits - 6.0) < 1e-12
    assert abs(terms.marginal_entropy_bits - 6.0) < 1e-12
    assert abs(terms.mi_bound_bits) < 1e-12


def test_utterance_loss_perfect_agreement_reaches_optimum():
    batch = one_hots(range(64), 64)
    loss, terms = ob.utterance_loss(np.stack((batch, batch)))
    assert abs(float(loss.value) + 6.0) < 1e-9
    assert abs(terms.mi_bound_bits - 6.0) < 1e-9
    assert terms.saturation_count == 0


def test_loss_value_is_ce_minus_marginal_entropy():
    rng = np.random.default_rng(2)
    confirm = dirichlet_batch(rng, 6, 5)
    predict = dirichlet_batch(rng, 6, 5)
    loss, terms = ob.utterance_loss(np.stack((confirm, predict)))
    assert abs(terms.loss - (terms.cross_entropy_bits - terms.marginal_entropy_bits)) < 1e-12
    assert abs(float(loss.value) - terms.loss) < 1e-15


def build_toy_encoders(seed):
    ep = EncoderParams.fresh(input_dim=3, alphabet_size=4, hidden_dim=4, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1000)
    x = rng.uniform(-1, 1, size=(2, 2, 3))  # 2 windows, 2 past frames
    y = rng.uniform(-1, 1, size=(2, 3, 3))  # 2 windows, 3 future frames
    return ep, x, y


@pytest.mark.parametrize("seed", range(3))
def test_full_objective_gradient_matches_finite_differences(seed):
    # the whole pipeline on a 2-window toy batch: both encoders, softmax,
    # exact-expectation cross entropy, batch-mean entropy
    ep, x, y = build_toy_encoders(seed)

    def loss_fn(tape):
        loss, _ = ob.utterance_loss(ep.encode_node(SIDES, (y, x), tape), tape)
        return loss

    assert nm.finite_diff_check(loss_fn, ep.store, epsilon=1e-5) < 1e-3


def test_objective_gradient_with_entropy_buffer():
    # the global entropy mode's reference: the mean of buffered confirm rows
    ep, x, y = build_toy_encoders(4)
    reference = np.random.default_rng(9).dirichlet(np.ones(4), size=7).mean(axis=0)

    def loss_fn(tape):
        probs = ep.encode_node(SIDES, (y, x), tape)
        loss, _ = ob.utterance_loss(probs, tape, reference)
        return loss

    assert nm.finite_diff_check(loss_fn, ep.store, epsilon=1e-5) < 1e-3


def test_predict_side_gets_no_gradient_from_entropy_term():
    # the predict side's gradient is the cross entropy's alone,
    # d/dp of -(1/N) sum c*log2(p) = -c/(N p ln 2), in both entropy modes
    ep, x, y = build_toy_encoders(5)
    buffer = np.random.default_rng(10).dirichlet(np.ones(4), size=3)
    for reference in (None, buffer.mean(axis=0)):
        tape = nm.Tape()
        probs = ep.encode_node(SIDES, (y, x), tape)
        loss, _ = ob.utterance_loss(probs, tape, reference)
        tape.backward(loss)
        (confirm, predict), (confirm_grad, predict_grad) = probs.value, probs.grad
        n = confirm.shape[0]
        assert np.allclose(predict_grad, -ob.LOG2E * confirm / (n * predict), rtol=1e-12)
        assert np.abs(confirm_grad).sum() > 0


# ---------------------------------------------------------------------------
# a fixed reference marginal: the adversarial form of the marginal term, a
# cross entropy against a marginal, here held fixed as the global entropy
# mode holds the mean of its buffered confirm rows


def test_adversarial_uniform_marginal_costs_log_alphabet():
    rng = np.random.default_rng(3)
    confirm = dirichlet_batch(rng, 5, 64)
    predict = dirichlet_batch(rng, 5, 64)
    _, terms = ob.utterance_loss(np.stack((confirm, predict)), marginal=np.full(64, 1 / 64))
    assert abs(terms.reference_cross_entropy_bits - 6.0) < 1e-9


def test_adversarial_marginal_at_batch_average_hits_entropy_of_mean():
    rng = np.random.default_rng(4)
    confirm = dirichlet_batch(rng, 8, 6)
    predict = dirichlet_batch(rng, 8, 6)
    _, terms = ob.utterance_loss(np.stack((confirm, predict)), marginal=confirm.mean(axis=0))
    assert abs(terms.reference_cross_entropy_bits - terms.marginal_entropy_bits) < 1e-9
    assert abs(terms.loss - (terms.cross_entropy_bits - terms.marginal_entropy_bits)) < 1e-9


def test_adversarial_gradient_separation():
    # the loss against the fixed reference reaches both encoders and leaves
    # the reference as it was
    ep, x, y = build_toy_encoders(6)
    reference = np.random.default_rng(6).dirichlet(np.ones(4))
    before = reference.copy()
    tape = nm.Tape()
    probs = ep.encode_node(SIDES, (y, x), tape)
    tape.backward(ob.utterance_loss(probs, tape, reference)[0])
    assert sum(np.abs(grad).sum() for grad in side_grads(ep, CONFIRM)) > 0
    assert sum(np.abs(grad).sum() for grad in side_grads(ep, PREDICT)) > 0
    assert np.array_equal(reference, before)


def test_adversarial_gradient_is_the_closed_form():
    # against a fixed marginal m, the confirm side's gradient is
    # LOG2E * (ln m - ln p) / N and the predict side's is the base loss's
    ep, x, y = build_toy_encoders(11)
    marginal = np.random.default_rng(11).dirichlet(np.ones(4))
    grads = {}
    for name, kwargs in (("base", {}), ("reference", {"marginal": marginal})):
        tape = nm.Tape()
        probs = ep.encode_node(SIDES, (y, x), tape)
        tape.backward(ob.utterance_loss(probs, tape, **kwargs)[0])
        grads[name] = probs.grad
    (confirm, predict), n = probs.value, probs.value.shape[1]
    expected = ob.LOG2E * (np.log(marginal) - np.log(predict)) / n
    assert np.allclose(grads["reference"][0], expected, rtol=1e-12, atol=0)
    assert np.allclose(grads["reference"][1], grads["base"][1], rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# inequalities (properties)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_gibbs_inequality_and_ranges(seed):
    rng = np.random.default_rng(seed)
    n, z = int(rng.integers(1, 6)), int(rng.integers(2, 7))
    confirm = rng.dirichlet(np.ones(z), size=n)
    predict = rng.dirichlet(np.ones(z), size=n)
    terms = terms_of(confirm, predict)
    ce, me = terms.cross_entropy_bits, terms.marginal_entropy_bits
    mean_h = float(np.mean([-(p[p > 0] * np.log2(p[p > 0])).sum() for p in confirm]))
    assert ce >= mean_h - 1e-9  # Gibbs
    assert me >= mean_h - 1e-9  # concavity of entropy
    assert -1e-12 <= me <= np.log2(z) + 1e-9
    assert ce >= -1e-12


def test_gibbs_equality_iff_equal():
    rng = np.random.default_rng(7)
    batch = rng.dirichlet(np.ones(5), size=4)
    ce_equal = terms_of(batch).cross_entropy_bits
    mean_h = float(np.mean([-(p * np.log2(p)).sum() for p in batch]))
    assert abs(ce_equal - mean_h) < 1e-9
    other = rng.dirichlet(np.ones(5), size=4)
    assert terms_of(batch, other).cross_entropy_bits > mean_h + 1e-6


# ---------------------------------------------------------------------------
# brute-force equivalence (spot check; the acceptance suite runs 1000)


def brute_cross_entropy(confirm, predict):
    n = len(confirm)
    total = 0.0
    for i in range(n):
        for z in range(len(confirm[i])):
            p = max(predict[i][z], 1e-30)
            total += confirm[i][z] * (-np.log2(p))
    return total / n


def brute_entropy_of_mean(confirm):
    z_size = len(confirm[0])
    q = [sum(row[z] for row in confirm) / len(confirm) for z in range(z_size)]
    return sum(-q[z] * np.log2(q[z]) for z in range(z_size) if q[z] > 0)


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n, z = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        confirm = rng.dirichlet(np.ones(z), size=n)
        predict = rng.dirichlet(np.ones(z), size=n)
        terms = terms_of(confirm, predict)
        assert abs(terms.cross_entropy_bits - brute_cross_entropy(confirm, predict)) < 1e-9
        assert abs(terms.marginal_entropy_bits - brute_entropy_of_mean(confirm)) < 1e-9
