"""Model core: gradients against finite differences, data generation, IO."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decentsim import (
    ConfigurationError,
    Dataset,
    ModelSpec,
    ParseError,
    ShapeError,
    class_centers,
    cross_gradient,
    evaluate,
    finite_difference_gradient,
    generate_synthetic,
    init_params,
    load_csv,
    loss_and_gradient,
    unflatten,
)
from decentsim.models import _log_softmax_


def rel_err(a, b):
    denom = max(np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


@pytest.mark.parametrize("spec", [
    ModelSpec(4, 3),
    ModelSpec(2, 3, hidden_dim=8),
    ModelSpec(2, 3, hidden_dim=8, activation="relu"),
    ModelSpec(5, 2, hidden_dim=4),
])
def test_analytic_gradient_matches_central_differences(spec):
    rng = np.random.default_rng(11)
    data = generate_synthetic(spec.num_classes, spec.input_dim, 20, 0.4, 5)
    for _ in range(5):
        params = rng.standard_normal(spec.param_count) * 0.5
        batch = rng.choice(data.n, size=8, replace=False)
        _, grad = loss_and_gradient(spec, params, data, batch)
        fd = finite_difference_gradient(spec, params, data, batch, h=1e-4)
        assert rel_err(grad, fd) <= 1e-5


def test_zero_params_two_class_loss_is_ln2():
    data = generate_synthetic(2, 3, 10, 0.2, 0)
    spec = ModelSpec(3, 2)
    loss, _ = loss_and_gradient(spec, np.zeros(spec.param_count), data,
                                np.arange(data.n))
    assert abs(loss - np.log(2.0)) < 1e-15


def test_uniform_logits_loss_is_log_num_classes():
    data = generate_synthetic(5, 6, 8, 0.2, 1)
    spec = ModelSpec(6, 5)
    loss, _ = loss_and_gradient(spec, np.zeros(spec.param_count), data,
                                np.arange(data.n))
    assert abs(loss - np.log(5.0)) < 1e-12


def test_gradient_is_deterministic():
    spec = ModelSpec(3, 4, hidden_dim=5)
    data = generate_synthetic(4, 3, 12, 0.3, 9)
    params = init_params(spec, np.random.default_rng(2))
    batch = np.arange(10)
    out1 = loss_and_gradient(spec, params, data, batch)
    out2 = loss_and_gradient(spec, params, data, batch)
    assert out1[0] == out2[0]
    assert (out1[1] == out2[1]).all()


def test_one_small_step_decreases_the_loss_on_its_batch():
    spec = ModelSpec(4, 3, hidden_dim=6)
    data = generate_synthetic(3, 4, 20, 0.3, 3)
    params = init_params(spec, np.random.default_rng(0))
    batch = np.arange(16)
    loss, grad = loss_and_gradient(spec, params, data, batch)
    loss2, _ = loss_and_gradient(spec, params - 1e-3 * grad, data, batch)
    assert loss2 < loss


def test_cross_gradient_equals_gradient_at_foreign_params():
    spec = ModelSpec(4, 3)
    data = generate_synthetic(3, 4, 15, 0.3, 4)
    foreign = init_params(spec, np.random.default_rng(5))
    batch = np.arange(12)
    _, direct = loss_and_gradient(spec, foreign, data, batch)
    assert (cross_gradient(spec, foreign, data, batch) == direct).all()


def test_finite_difference_rejects_nonpositive_step():
    spec = ModelSpec(2, 2)
    data = generate_synthetic(2, 2, 5, 0.2, 0)
    with pytest.raises(ConfigurationError):
        finite_difference_gradient(spec, np.zeros(spec.param_count), data,
                                   np.arange(4), h=0.0)


def test_evaluate_breaks_argmax_ties_toward_lowest_class():
    # Zero params give identical logits for every class.
    feats = np.array([[1.0, 2.0], [3.0, -1.0]])
    data = Dataset(feats, np.array([0, 2]), num_classes=3)
    spec = ModelSpec(2, 3)
    _, acc = evaluate(spec, np.zeros(spec.param_count), data)
    assert acc == 0.5  # the label-0 row counts, the label-2 row cannot


def test_evaluate_perfect_memorization_of_two_points():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    data = Dataset(feats, np.array([0, 1]), num_classes=2)
    spec = ModelSpec(2, 2, hidden_dim=4)
    params = init_params(spec, np.random.default_rng(1))
    for _ in range(400):
        _, grad = loss_and_gradient(spec, params, data, np.array([0, 1]))
        params = params - 0.5 * grad
    loss, acc = evaluate(spec, params, data)
    assert acc == 1.0
    assert loss < 0.05


# ------------------------------------------- the kernel against its plain form
# The plain form below is the kernel as first written: every step allocates
# a fresh array and the gradient is a concatenate of per-layer blocks. The
# in-place kernel performs the same operations in the same order, so it
# must agree with this form bit for bit.


def _plain_forward(spec, params, x):
    layers = unflatten(spec, params)
    if spec.hidden_dim == 0:
        w, b = layers[0]
        return x @ w + b, (x,)
    (w1, b1), (w2, b2) = layers
    pre = x @ w1 + b1
    hid = np.tanh(pre) if spec.activation == "tanh" else np.maximum(pre, 0.0)
    return hid @ w2 + b2, (x, pre, hid, w2)


def _plain_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _plain_loss_and_gradient(spec, params, data, batch):
    x = data.features[batch]
    y = data.labels[batch]
    logits, cache = _plain_forward(spec, params, x)
    logp = _plain_log_softmax(logits)
    n = x.shape[0]
    loss = -logp[np.arange(n), y].mean()
    dlogits = np.exp(logp)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    if spec.hidden_dim == 0:
        (xc,) = cache
        return float(loss), np.concatenate([(xc.T @ dlogits).ravel(), dlogits.sum(axis=0)])
    xc, pre, hid, w2 = cache
    dw2 = hid.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dhid = dlogits @ w2.T
    if spec.activation == "tanh":
        dpre = dhid * (1.0 - hid * hid)
    else:
        dpre = dhid * (pre > 0.0)
    dw1 = xc.T @ dpre
    db1 = dpre.sum(axis=0)
    return float(loss), np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])


def _plain_evaluate(spec, params, data):
    logits, _ = _plain_forward(spec, params, data.features)
    logp = _plain_log_softmax(logits)
    loss = -logp[np.arange(data.n), data.labels].mean()
    acc = float((logits.argmax(axis=1) == data.labels).mean())
    return float(loss), acc


def _bits(*values):
    return b"".join(np.asarray(v, dtype=np.float64).tobytes() for v in values)


# Label dtypes the kernel must index by: a uint64 label does not add into
# an int64 index under numpy's default casting.
LABEL_DTYPES = [np.int64, np.int8, np.int32, np.uint8, np.uint64]


@st.composite
def kernel_cases(draw):
    """A spec, a dataset, params up to saturated softmax, and a batch.

    Batches reach 600 rows, past the 200 of the paper's reference run,
    where the softmax's per-row costs dominate.
    """
    kind = draw(st.sampled_from(["logistic", "tanh", "relu"]))
    input_dim = draw(st.integers(1, 6))
    num_classes = draw(st.integers(2, 17))
    hidden = 0 if kind == "logistic" else draw(st.integers(1, 9))
    spec = ModelSpec(input_dim, num_classes, hidden_dim=hidden,
                     activation="tanh" if kind == "logistic" else kind)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 600))
    features = rng.standard_normal((n, input_dim)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    features[rng.random(features.shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    labels = rng.integers(0, num_classes, n).astype(draw(st.sampled_from(LABEL_DTYPES)))
    data = Dataset(features, labels, num_classes)
    params = rng.standard_normal(spec.param_count) * draw(
        st.sampled_from([0.0, 1e-3, 1.0, 30.0, 1e3]))
    params[rng.random(spec.param_count) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    batch = rng.choice(n, size=draw(st.integers(1, n)), replace=False)
    return spec, data, params, batch


@given(kernel_cases())
@settings(max_examples=150, deadline=None)
def test_kernel_is_bitwise_the_plain_form(case):
    spec, data, params, batch = case
    loss, grad = loss_and_gradient(spec, params, data, batch)
    ref_loss, ref_grad = _plain_loss_and_gradient(spec, params, data, batch)
    assert _bits(loss) == _bits(ref_loss)
    assert grad.dtype == ref_grad.dtype and grad.tobytes() == ref_grad.tobytes()
    assert _bits(*evaluate(spec, params, data)) == _bits(*_plain_evaluate(spec, params, data))


@given(kernel_cases())
@settings(max_examples=150, deadline=None)
def test_evaluate_on_a_batchs_rows_is_bitwise_the_kernels_loss(case):
    # The run's first metrics row scores each agent's shard this way.
    spec, data, params, batch = case
    before = params.tobytes()
    rows = Dataset(data.features[batch], data.labels[batch], data.num_classes)
    assert _bits(evaluate(spec, params, rows)[0]) == _bits(
        loss_and_gradient(spec, params, data, batch)[0])
    assert params.tobytes() == before


@given(kernel_cases())
@settings(max_examples=40, deadline=None)
def test_kernel_writes_no_input_and_returns_fresh_memory(case):
    spec, data, params, batch = case
    before = (params.tobytes(), data.features.tobytes(), data.labels.tobytes(),
              batch.tobytes())
    _, grad = loss_and_gradient(spec, params, data, batch)
    evaluate(spec, params, data)
    after = (params.tobytes(), data.features.tobytes(), data.labels.tobytes(),
             batch.tobytes())
    assert after == before
    assert not np.shares_memory(grad, params)
    assert not np.shares_memory(grad, data.features)
    # With out, the same bits go straight into the caller's row.
    rows = np.full((2, spec.param_count), np.nan)
    row = rows[1]
    assert loss_and_gradient(spec, params, data, batch, out=row)[1] is row
    assert row.tobytes() == grad.tobytes() and np.isnan(rows[0]).all()


# Values at the log-softmax's edges: signed zeros, subnormals, a logit
# whose exp underflows, and infinities. Rows drawn from the non-positive
# ones mostly hold a max that ties +0.0 and -0.0.
EDGE_LOGITS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -800.0, -1.0, 3.0, np.inf, -np.inf]
NON_POSITIVE = [0.0, -0.0, -5e-324, -800.0, -1.0, -np.inf]


@given(rows=st.integers(1, 600), classes=st.integers(2, 17), seed=st.integers(0, 2**32 - 1),
       nan_share=st.sampled_from([0.0, 0.01]))
@settings(max_examples=80, deadline=None)
def test_log_softmax_is_bitwise_the_plain_form_at_its_edges(rows, classes, seed, nan_share):
    # The kernel takes each row's max in another order than the plain form.
    # A max is exact in any order; a row whose max ties +0.0 and -0.0 may
    # subtract the other zero, but it then holds two exp(0) = 1 terms, so
    # log(norm) >= log 2, no log-probability is zero and no bit moves.
    rng = np.random.default_rng(seed)
    logits = rng.choice(EDGE_LOGITS, size=(rows, classes))
    tied = rng.random(rows) < 0.5
    logits[tied] = rng.choice(NON_POSITIVE, size=(np.count_nonzero(tied), classes))
    # NaNs with payloads. A row that holds one comes out all NaN in both
    # forms, but the payloads may differ, so those rows compare as NaN only.
    nan = rng.random(logits.shape) < nan_share
    payload = rng.integers(1, 2**51, np.count_nonzero(nan), dtype=np.uint64)
    logits[nan] = (payload | np.uint64(0x7FF8_0000_0000_0000)).view(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        got = logits.copy()
        _log_softmax_(got)
        want = _plain_log_softmax(logits)
    nan_rows = nan.any(axis=1)
    assert np.isnan(got[nan_rows]).all() and np.isnan(want[nan_rows]).all()
    assert got[~nan_rows].tobytes() == want[~nan_rows].tobytes()


def test_labels_of_more_classes_than_the_model_has_outputs_are_rejected():
    # A label past the model's C outputs would index the next row's entry.
    spec = ModelSpec(2, 3)
    data = generate_synthetic(4, 2, 2, 0.3, 0)
    params = init_params(spec, np.random.default_rng(0))
    for call in (lambda: loss_and_gradient(spec, params, data, np.arange(data.n)),
                 lambda: evaluate(spec, params, data)):
        with pytest.raises(ShapeError, match="4 classes of labels for 3 outputs"):
            call()


@pytest.mark.parametrize("bias, label, acc", [
    # Tied maximal logits: the lowest class wins.
    ([0.5, 0.5, 0.0], 0, 1.0),
    ([0.5, 0.5, 0.0], 1, 0.0),
    # Distinct logits that the log-softmax rounds to a tie: class 1 is the
    # true argmax, so the accuracy must come from the logits themselves.
    ([0.0, 1e-20, -1.0], 1, 1.0),
])
def test_evaluate_parity_at_ties(bias, label, acc):
    spec = ModelSpec(2, 3)
    data = Dataset(np.array([[1.0, -2.0]]), np.array([label]), num_classes=3)
    params = np.concatenate([np.zeros(6), bias])
    assert evaluate(spec, params, data)[1] == acc
    assert _bits(*evaluate(spec, params, data)) == _bits(*_plain_evaluate(spec, params, data))


@pytest.mark.parametrize("batch", [
    np.array([0.5, 1.0]),               # float: used to escape as an IndexError
    np.array([True, False]),            # short bool mask
    np.array([True, True, False, False, False, True]),  # length-n bool: a row mask
])
def test_batch_must_hold_integer_indices(batch):
    spec = ModelSpec(2, 3, hidden_dim=4)
    data = generate_synthetic(3, 2, 2, 0.3, 0)
    params = init_params(spec, np.random.default_rng(0))
    with pytest.raises(ShapeError, match="integer"):
        loss_and_gradient(spec, params, data, batch)
    with pytest.raises(ShapeError, match="integer"):
        cross_gradient(spec, params, data, batch)


@pytest.mark.parametrize("batch", [np.array([], dtype=np.int64), np.array([[0, 1]])],
                         ids=["empty", "2-D"])
def test_batch_must_be_a_non_empty_1d_array(batch):
    spec = ModelSpec(2, 3, hidden_dim=4)
    data = generate_synthetic(3, 2, 2, 0.3, 0)
    params = init_params(spec, np.random.default_rng(0))
    with pytest.raises(ShapeError, match="^batch must be a non-empty 1-D index array$"):
        loss_and_gradient(spec, params, data, batch)


@pytest.mark.parametrize("features, labels, classes, error, message", [
    (np.zeros(3), np.zeros(3, dtype=int), 2, ShapeError, r"features must be 2-D, got 1-D"),
    (np.zeros((3, 2)), np.zeros(2, dtype=int), 2, ShapeError,
     r"labels length must match feature rows"),
    (np.zeros((3, 2)), np.zeros(3, dtype=int), 1, ConfigurationError,
     r"need at least two classes"),
    (np.zeros((2, 2)), np.array([0, 2]), 2, ConfigurationError,
     r"labels must lie in \[0, num_classes\)"),
    (np.zeros((2, 2)), np.array([-1, 0]), 2, ConfigurationError,
     r"labels must lie in \[0, num_classes\)"),
], ids=["1-D-features", "short-labels", "one-class", "label-too-high", "negative-label"])
def test_dataset_rejects_inconsistent_arrays(features, labels, classes, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        Dataset(features, labels, classes)


@pytest.mark.parametrize("kwargs, message", [
    (dict(input_dim=0, num_classes=3), "bad model dimensions"),
    (dict(input_dim=2, num_classes=1), "bad model dimensions"),
    (dict(input_dim=2, num_classes=3, hidden_dim=-1), "bad model dimensions"),
    (dict(input_dim=2, num_classes=3, hidden_dim=4, activation="gelu"),
     "unknown activation 'gelu'"),
], ids=["no-input", "one-class", "negative-hidden", "unknown-activation"])
def test_model_spec_rejects_bad_dimensions_and_activations(kwargs, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        ModelSpec(**kwargs)


def test_integer_features_and_params_are_computed_in_float64():
    # The in-place forward pass cannot hold floats in an integer array.
    spec = ModelSpec(2, 3, hidden_dim=4)
    feats = np.array([[1, 2], [3, -4]])
    labels = np.array([0, 2])
    data = Dataset(feats, labels, 3)
    assert data.features.dtype == np.float64
    params = np.arange(spec.param_count) % 3 - 1
    batch = np.array([0, 1])
    loss, grad = loss_and_gradient(spec, params, data, batch)
    ref_loss, ref_grad = _plain_loss_and_gradient(
        spec, params.astype(float), Dataset(feats.astype(float), labels, 3), batch)
    assert _bits(loss) == _bits(ref_loss) and grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("batch", [
    np.array([-1, 0]),
    np.array([0, 6]),
    np.array([-128], dtype=np.int8),
    np.array([6, 0], dtype=np.uint8),
    np.array([np.iinfo(np.int64).min]),
])
def test_batch_indices_must_lie_in_the_dataset(batch):
    spec = ModelSpec(2, 3, hidden_dim=4)
    data = generate_synthetic(3, 2, 2, 0.3, 0)
    params = init_params(spec, np.random.default_rng(0))
    with pytest.raises(ShapeError, match="out of range"):
        loss_and_gradient(spec, params, data, batch)
    assert loss_and_gradient(spec, params, data, batch.astype(np.int64) % data.n)[1].shape == (
        spec.param_count,)


def test_batch_check_keeps_a_non_native_byte_order():
    # The range check views the batch as unsigned of the same item size;
    # the view must keep the batch's byte order, or [5, 0] reads as huge.
    spec = ModelSpec(2, 3, hidden_dim=4)
    data = generate_synthetic(3, 2, 2, 0.3, 0)
    params = init_params(spec, np.random.default_rng(0))
    with pytest.raises(ShapeError, match="out of range"):
        loss_and_gradient(spec, params, data, np.array([-1, 0], dtype=">i4"))
    swapped = np.array([5, 0, 3], dtype=">i8")
    assert not swapped.dtype.isnative
    got = loss_and_gradient(spec, params, data, swapped)[1]
    want = loss_and_gradient(spec, params, data, swapped.astype(np.int64))[1]
    assert got.tobytes() == want.tobytes()


@given(
    input_dim=st.integers(1, 6),
    num_classes=st.integers(2, 5),
    hidden=st.sampled_from([0, 1, 4, 9]),
)
@settings(max_examples=40, deadline=None)
def test_unflatten_layers_reassemble_to_the_flat_vector(input_dim, num_classes, hidden):
    spec = ModelSpec(input_dim, num_classes, hidden_dim=hidden)
    params = np.random.default_rng(0).standard_normal(spec.param_count)
    layers = unflatten(spec, params)
    flat_again = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])
    assert (flat_again == params).all()
    k, h, c = input_dim, hidden, num_classes
    shapes = [((k, h), (h,)), ((h, c), (c,))] if hidden else [((k, c), (c,))]
    assert [(w.shape, b.shape) for w, b in layers] == shapes


def _plain_init_params(spec, rng):
    """init_params as first written: one concatenate of per-layer blocks."""
    k, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    if h == 0:
        w = rng.standard_normal((k, c)) / np.sqrt(k)
        return np.concatenate([w.ravel(), np.zeros(c)])
    w1 = rng.standard_normal((k, h)) / np.sqrt(k)
    w2 = rng.standard_normal((h, c)) / np.sqrt(h)
    return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(c)])


@given(
    input_dim=st.integers(1, 40),
    num_classes=st.integers(2, 12),
    hidden=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_init_params_is_bitwise_the_concatenate_form(input_dim, num_classes, hidden, seed):
    spec = ModelSpec(input_dim, num_classes, hidden_dim=hidden)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    params = init_params(spec, rng)
    ref = _plain_init_params(spec, ref_rng)
    assert params.dtype == ref.dtype and params.tobytes() == ref.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_init_params_draws_each_weight_block_in_place():
    spec = ModelSpec(320, 10, hidden_dim=305)  # d = 100,965; w1 is 780 KiB
    init_params(spec, np.random.default_rng(0))
    tracemalloc.start()
    try:
        params = init_params(spec, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= params.nbytes + 320 * 305 * params.itemsize // 8


def test_unflatten_rejects_wrong_length():
    spec = ModelSpec(3, 2)
    with pytest.raises(ShapeError):
        unflatten(spec, np.zeros(spec.param_count + 1))


def test_param_count_examples():
    assert ModelSpec(2, 3, hidden_dim=8).param_count == 2 * 8 + 8 + 8 * 3 + 3
    assert ModelSpec(16, 10, hidden_dim=32).param_count == 16 * 32 + 32 + 32 * 10 + 10
    assert ModelSpec(19, 5).param_count == 100


# ------------------------------------------------------------- synthetic data


def test_synthetic_is_deterministic_and_class_major():
    a = generate_synthetic(4, 3, 10, 0.2, 42)
    b = generate_synthetic(4, 3, 10, 0.2, 42)
    assert (a.features == b.features).all()
    assert (a.labels == b.labels).all()
    assert (a.labels == np.repeat(np.arange(4), 10)).all()


def test_synthetic_seeds_give_different_draws():
    a = generate_synthetic(3, 4, 10, 0.2, 1)
    b = generate_synthetic(3, 4, 10, 0.2, 2)
    assert not (a.features == b.features).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_synthetic_features_that_overflow_are_a_configuration_error():
    # A CSV with a non-finite feature is rejected, and so is synthetic data
    # whose spread overflows a feature to inf, without a numpy warning.
    with pytest.raises(ConfigurationError, match="spread 1e\\+308 overflows"):
        generate_synthetic(3, 4, 50, 1e308, 0)
    assert np.isfinite(generate_synthetic(3, 4, 50, 1e300, 0).features).all()


def test_synthetic_tight_spread_clusters_near_distinct_centers():
    data = generate_synthetic(2, 2, 50, 1e-4, 0)
    c0 = data.features[data.labels == 0].mean(axis=0)
    c1 = data.features[data.labels == 1].mean(axis=0)
    assert np.allclose(c0, [1.0, 0.0], atol=1e-3)
    assert np.allclose(c1, [-1.0, 0.0], atol=1e-3)


def test_synthetic_low_dim_centers_stay_on_unit_circle():
    data = generate_synthetic(6, 2, 400, 1e-5, 3)
    for c in range(6):
        center = data.features[data.labels == c].mean(axis=0)
        assert abs(np.linalg.norm(center) - 1.0) < 1e-3


def test_high_dim_centers_use_an_evenly_spaced_circle():
    # Adjacent classes sit 2*sin(pi/C) apart regardless of the ambient dim,
    # so class confusability is controlled by C and spread alone.
    centers = class_centers(10, 16)
    assert centers.shape == (10, 16)
    assert np.allclose(np.linalg.norm(centers, axis=1), 1.0)
    assert np.allclose(centers[:, 2:], 0.0)
    gaps = np.linalg.norm(centers - np.roll(centers, 1, axis=0), axis=1)
    assert np.allclose(gaps, 2.0 * np.sin(np.pi / 10))


def test_synthetic_is_learnable_by_a_central_baseline():
    # Four classes in two dimensions, moderate noise: plain SGD on the pooled
    # data should separate almost everything.
    data = generate_synthetic(4, 2, 500, 0.15, 3)
    spec = ModelSpec(2, 4)
    params = np.zeros(spec.param_count)
    rng = np.random.default_rng(0)
    for _ in range(300):
        batch = rng.choice(data.n, size=64, replace=False)
        _, grad = loss_and_gradient(spec, params, data, batch)
        params -= 0.5 * grad
    _, acc = evaluate(spec, params, data)
    assert acc >= 0.95


def _plain_generate_synthetic(num_classes, dim, per_class, spread, seed):
    """generate_synthetic's features and labels as first written: one expression per block."""
    centers = class_centers(num_classes, dim)
    rng = np.random.default_rng(seed)
    feats = np.empty((num_classes * per_class, dim))
    for c in range(num_classes):
        rows = slice(c * per_class, (c + 1) * per_class)
        feats[rows] = centers[c] + spread * rng.standard_normal((per_class, dim))
    return feats, np.repeat(np.arange(num_classes, dtype=np.int64), per_class)


@given(
    num_classes=st.integers(2, 8),
    dim=st.integers(2, 12),
    per_class=st.integers(1, 40),
    spread=st.floats(1e-300, 1e300),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_synthetic_is_bitwise_the_one_expression_form(num_classes, dim, per_class, spread, seed):
    data = generate_synthetic(num_classes, dim, per_class, spread, seed)
    feats, labels = _plain_generate_synthetic(num_classes, dim, per_class, spread, seed)
    assert data.features.dtype == feats.dtype and data.features.tobytes() == feats.tobytes()
    assert data.labels.dtype == labels.dtype and data.labels.tobytes() == labels.tobytes()


def _per_class_generate_synthetic(num_classes, dim, per_class, spread, seed):
    """generate_synthetic as a per-class loop, each class block drawn and shifted in place."""
    centers = class_centers(num_classes, dim)
    rng = np.random.default_rng(seed)
    feats = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        rows = slice(c * per_class, (c + 1) * per_class)
        block = rng.standard_normal(out=feats[rows])
        block *= spread
        block += centers[c]
        labels[rows] = c
    return feats, labels


@given(
    shape=st.one_of(st.just((2, 1)), st.tuples(st.integers(2, 12), st.integers(2, 40))),
    per_class=st.integers(1, 60),
    spread=st.floats(1e-300, 1e300),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_synthetic_is_bitwise_the_per_class_loop(shape, per_class, spread, seed):
    # One draw over every class fills in C order, so each class block gets the loop's draws.
    num_classes, dim = shape
    data = generate_synthetic(num_classes, dim, per_class, spread, seed)
    feats, labels = _per_class_generate_synthetic(num_classes, dim, per_class, spread, seed)
    assert data.features.shape == feats.shape and data.features.tobytes() == feats.tobytes()
    assert data.labels.dtype == labels.dtype and data.labels.tobytes() == labels.tobytes()


def test_synthetic_draws_each_class_block_without_temporaries():
    # The first call in a process imports numpy.random; only a later call
    # shows the steady set-up cost. One class block here is 800 KiB, and
    # the features are drawn, scaled and shifted where they lie.
    generate_synthetic(10, 16, 64, 0.15, 3)
    tracemalloc.start()
    try:
        data = generate_synthetic(10, 16, 6400, 0.15, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 6400 * 16 * data.features.itemsize
    assert peak <= data.features.nbytes + data.labels.nbytes + block // 8


def test_synthetic_rejects_bad_arguments():
    with pytest.raises(ConfigurationError):
        generate_synthetic(1, 2, 10, 0.2, 0)
    with pytest.raises(ConfigurationError):
        generate_synthetic(3, 2, 0, 0.2, 0)
    with pytest.raises(ConfigurationError):
        generate_synthetic(3, 2, 10, 0.0, 0)
    with pytest.raises(ConfigurationError):
        generate_synthetic(3, 1, 10, 0.2, 0)  # dim 1 fits two classes only


# ------------------------------------------------------------------ CSV input


def test_load_csv_roundtrip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("0,1.5,-2.0\n1,0.25,3.5\n0,0.0,1.0\n")
    data = load_csv(str(path))
    assert data.n == 3
    assert data.num_classes == 2
    assert data.features[1, 1] == 3.5
    assert (data.labels == [0, 1, 0]).all()


def test_load_csv_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("0,1.5,-2.0\n1,0.25,3.5\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    data = load_csv(str(path))
    assert (data.labels == [0, 1]).all()
    assert (data.features == [[1.5, -2.0], [0.25, 3.5]]).all()


def test_load_csv_errors_name_the_line(tmp_path):
    bad_width = tmp_path / "w.csv"
    bad_width.write_text("0,1.0,2.0\n1,3.0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_csv(str(bad_width))

    bad_value = tmp_path / "v.csv"
    bad_value.write_text("0,1.0\n1,abc\n")
    with pytest.raises(ParseError, match="line 2"):
        load_csv(str(bad_value))

    bad_label = tmp_path / "l.csv"
    bad_label.write_text("-1,1.0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_csv(str(bad_label))

    empty = tmp_path / "e.csv"
    empty.write_text("\n\n")
    with pytest.raises(ParseError):
        load_csv(str(empty))

    for cell in ("nan", "inf", "-inf"):
        non_finite = tmp_path / "n.csv"
        non_finite.write_text(f"0,1.0,2.0\n\n1,3.0,{cell}\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(str(non_finite))

    with pytest.raises(ConfigurationError, match="missing.csv"):
        load_csv(str(tmp_path / "missing.csv"))
