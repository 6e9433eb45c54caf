"""Datasets and differentiable classifiers with flat parameter vectors.

Two model families are supported: multinomial logistic regression and a
one-hidden-layer MLP (tanh or relu). Parameters live in a single flat
float64 vector so that gossip averaging, momentum and compression can
treat every model as an ndarray of length d. The flat layout is defined
once, on `ModelSpec`: layer by layer, the weights (row-major, fan-in by
fan-out) and then the bias. Logistic regression is the one-layer case,
so the gradient kernel has one path: an optional hidden layer, then the
output layer. All math is 64-bit and deterministic. Two entry points run
it: `loss_and_gradient` trains (`cross_gradient` wraps it) and `evaluate`
scores every row of a Dataset, with the kernel's loss bit for bit.

The gradient kernel runs at numpy's per-call floor, so it keeps a buffer
discipline: the forward pass and the log-softmax work in place on arrays
the call itself allocated, each gradient block is written through
`unflatten` straight into one output vector, and reductions call the
ufuncs (`np.add.reduce`, `np.maximum.reduce`) rather than the array
methods that wrap them. Nor does it pay numpy's per-row overhead, which
grows with the batch: each row's max comes from a transposed (C, rows)
copy, and the label entries go through one flat index row * C + label.
Inputs are never written. Every operation and its operand order is the
plain form's (`x @ w + b`, `logits - max`, a `concatenate` of per-layer
blocks), so losses, gradients and accuracies are bitwise equal to it;
tests/test_models.py keeps that form as the reference. A max is exact in
any order: a row whose max ties +0.0 and -0.0 may subtract the other
zero, but it then holds two exp(+-0) = 1 terms, so log(norm) >= log 2,
no log-probability is zero and no bit moves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParseError, ShapeError

ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, k) float64 with integer labels in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        # The gradient kernel writes its forward pass in place, which needs
        # float arrays even when both features and params are integers.
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        if self.features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got {self.features.ndim}-D")
        if self.labels.shape != (self.features.shape[0],):
            raise ShapeError("labels length must match feature rows")
        if self.num_classes < 2:
            raise ConfigurationError("need at least two classes")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ConfigurationError("labels must lie in [0, num_classes)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; hidden_dim 0 means plain logistic regression.

    `layout` is the flat parameter layout, computed once here: for each
    layer in order (the hidden layer, if any, then the output layer), the
    slice and shape of its weights and the slice of its bias. `param_count`
    is d, the flat vector's length.
    """

    input_dim: int
    num_classes: int
    hidden_dim: int = 0
    activation: str = "tanh"

    def __post_init__(self):
        if self.input_dim < 1 or self.num_classes < 2 or self.hidden_dim < 0:
            raise ConfigurationError("bad model dimensions")
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        # hidden_dim 0 drops the hidden layer; the other widths are positive.
        widths = [w for w in (self.input_dim, self.hidden_dim, self.num_classes) if w]
        layout, start = [], 0
        for fan_in, fan_out in zip(widths, widths[1:]):
            bias = start + fan_in * fan_out
            layout.append((slice(start, bias), (fan_in, fan_out), slice(bias, bias + fan_out)))
            start = bias + fan_out
        object.__setattr__(self, "layout", tuple(layout))
        object.__setattr__(self, "param_count", start)


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Gaussian weights scaled by 1/sqrt(fan_in), zero biases, flat float64."""
    params = np.zeros(spec.param_count)
    for w, _ in unflatten(spec, params):
        rng.standard_normal(out=w)
        w /= np.sqrt(w.shape[0])
    return params


def unflatten(spec: ModelSpec, params: np.ndarray):
    """Split a flat vector into per-layer (weights, bias) views."""
    if params.shape != (spec.param_count,):
        raise ShapeError(f"expected {spec.param_count} params, got {params.shape}")
    layers = []  # a plain loop: before Python 3.12 a comprehension is one more call
    for w, shape, b in spec.layout:
        layers.append((params[w].reshape(shape), params[b]))
    return layers


def _forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """Return (logits, hid, w_out): hid is the output layer's input.

    hid is the hidden activation, or x itself when there is no hidden
    layer. The logits and a hidden activation belong to this call, so
    callers may overwrite them; params and x are only read.
    """
    *hidden, (w_out, b_out) = unflatten(spec, params)
    hid = x
    for w, b in hidden:  # at most one
        hid = hid @ w
        hid += b
        if spec.activation == "tanh":
            np.tanh(hid, out=hid)
        else:
            np.maximum(hid, 0.0, out=hid)
    logits = hid @ w_out
    logits += b_out
    return logits, hid, w_out


def _log_softmax_(logits: np.ndarray) -> np.ndarray:
    """Turn logits into log-probabilities in place; return the exp buffer."""
    # Each row's max over a (classes, rows) copy: every pass runs over contiguous rows.
    logits -= np.maximum.reduce(logits.T.copy(), axis=0)[:, None]
    expd = np.exp(logits)
    norm = np.add.reduce(expd, axis=1, keepdims=True)
    logits -= np.log(norm, out=norm)
    return expd


def _label_index(spec: ModelSpec, data: Dataset, labels: np.ndarray) -> np.ndarray:
    """Flat index row * C + label of each row's label (any integer dtype) in (rows, C) logits."""
    if data.num_classes > spec.num_classes:  # a label past C would index the next row
        raise ShapeError(f"{data.num_classes} classes of labels for {spec.num_classes} outputs")
    at = np.arange(0, labels.size * spec.num_classes, spec.num_classes)
    return np.add(at, labels, out=at, casting="unsafe")  # exact: labels lie in [0, C)


def _mean_nll(logp: np.ndarray, at: np.ndarray):
    """Mean cross-entropy: minus the mean log-probability at each row's label index."""
    return -(np.add.reduce(logp.reshape(-1).take(at)) / at.size)


# Unsigned dtypes by item size, for the batch range check's view.
_UNSIGNED = {size: np.dtype(f"u{size}") for size in (1, 2, 4, 8)}


def _check_batch(data: Dataset, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch)
    if batch.ndim != 1 or batch.size == 0:
        raise ShapeError("batch must be a non-empty 1-D index array")
    # A float batch would fail as a raw IndexError, a bool one as a row mask.
    if batch.dtype.kind not in "iu":
        raise ShapeError(f"batch must hold integer indices, got dtype {batch.dtype}")
    # Viewed as unsigned, a negative index is huge: one max checks both ends.
    unsigned = _UNSIGNED[batch.dtype.itemsize]
    if not batch.dtype.isnative:
        unsigned = unsigned.newbyteorder()
    if np.maximum.reduce(batch.view(unsigned)) >= data.n:
        raise ShapeError("batch indices out of range")
    return batch


def loss_and_gradient(spec: ModelSpec, params: np.ndarray, data: Dataset,
                      batch: np.ndarray, out: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its exact analytic gradient (into out if given)."""
    batch = _check_batch(data, batch)
    x = data.features.take(batch, axis=0)
    at = _label_index(spec, data, data.labels.take(batch))
    n = x.shape[0]
    logp, hid, w_out = _forward(spec, params, x)
    dlogits = _log_softmax_(logp)
    loss = _mean_nll(logp, at)

    np.exp(logp, out=dlogits)
    dlogits.reshape(-1)[at] -= 1.0
    dlogits /= n
    grad = np.empty(spec.param_count) if out is None else out
    *hidden, (dw_out, db_out) = unflatten(spec, grad)
    np.matmul(hid.T, dlogits, out=dw_out)
    np.add.reduce(dlogits, axis=0, out=db_out)
    for dw, db in hidden:  # back-propagate into the hidden layer, if any
        dpre = dlogits @ w_out.T
        if spec.activation == "tanh":
            np.multiply(hid, hid, out=hid)
            np.subtract(1.0, hid, out=hid)
            dpre *= hid
        else:
            dpre *= hid > 0.0
        np.matmul(x.T, dpre, out=dw)
        np.add.reduce(dpre, axis=0, out=db)
    return float(loss), grad


def cross_gradient(spec: ModelSpec, foreign_params: np.ndarray, data: Dataset,
                   batch: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of this data's batch loss evaluated at another agent's params."""
    _, grad = loss_and_gradient(spec, foreign_params, data, batch, out)
    return grad


def finite_difference_gradient(spec: ModelSpec, params: np.ndarray, data: Dataset,
                               batch: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient; test oracle, O(d) loss evaluations."""
    if h <= 0:
        raise ConfigurationError("step h must be positive")
    grad = np.zeros_like(params, dtype=float)
    probe = params.astype(float).copy()
    for i in range(params.size):
        orig = probe[i]
        probe[i] = orig + h
        hi, _ = loss_and_gradient(spec, probe, data, batch)
        probe[i] = orig - h
        lo, _ = loss_and_gradient(spec, probe, data, batch)
        probe[i] = orig
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def evaluate(spec: ModelSpec, params: np.ndarray, data: Dataset) -> tuple[float, float]:
    """Full-dataset mean cross-entropy and top-1 accuracy (ties -> lowest class)."""
    logits, _, _ = _forward(spec, params, data.features)
    # Argmax before the in-place log-softmax, whose rounding can tie
    # distinct logits and so move a "ties -> lowest class" pick.
    hits = np.count_nonzero(np.argmax(logits, axis=1) == data.labels)
    _log_softmax_(logits)
    return float(_mean_nll(logits, _label_index(spec, data, data.labels))), hits / data.n


def class_centers(num_classes: int, dim: int) -> np.ndarray:
    """Deterministic class centers, evenly spaced on a unit great circle.

    Adjacent classes sit 2*sin(pi/C) apart, so the pairwise margins shrink
    as the class count grows and boundary placement stays non-trivial even
    in high-dimensional feature spaces. At dim 1, which check_synthetic
    allows two classes only, the centers are -1 and 1.
    """
    if dim == 1:
        check_synthetic(num_classes, dim, 1, 1.0)
        return np.array([[-1.0], [1.0]])
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    centers = np.zeros((num_classes, dim))
    centers[:, 0] = np.cos(angles)
    centers[:, 1] = np.sin(angles)
    return centers


def check_synthetic(num_classes: int, dim: int, per_class: int, spread: float):
    """Raise ConfigurationError unless generate_synthetic can draw with these arguments."""
    if num_classes < 2:
        raise ConfigurationError("need at least two classes")
    if per_class < 1:
        raise ConfigurationError("per_class must be positive")
    if not 0 < spread < math.inf:
        raise ConfigurationError(f"spread must be positive and finite, got {spread}")
    if dim < 1:
        raise ConfigurationError("dim must be positive")
    if dim == 1 and num_classes > 2:
        raise ConfigurationError("dim 1 supports only two classes")


def generate_synthetic(num_classes: int, dim: int, per_class: int, spread: float,
                       seed: int) -> Dataset:
    """Gaussian mixture, one isotropic cluster per class, class-major, drawn in one call."""
    check_synthetic(num_classes, dim, per_class, spread)
    centers = class_centers(num_classes, dim)
    feats = np.empty((num_classes, per_class, dim))
    # The generator fills in C order, so each class block gets the draws
    # a per-class loop would give it.
    np.random.default_rng(seed).standard_normal(out=feats)
    try:
        with np.errstate(over="raise"):  # an overflow is the one way to a non-finite feature
            feats *= spread
            feats += centers[:, None, :]
    except FloatingPointError:
        raise ConfigurationError(f"spread {spread} overflows the synthetic features") from None
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return Dataset(feats.reshape(-1, dim), labels, num_classes)


def numbered_lines(path: str, what: str, open_error: type, decode_error: type) -> list:
    """A UTF-8 file's non-blank lines as (number, stripped line); open_error or decode_error.

    A leading byte-order mark is dropped.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return [(n, line.strip()) for n, line in enumerate(fh, start=1)
                    if not line.isspace()]
    except UnicodeDecodeError as exc:
        raise decode_error(f"{path}: not UTF-8 text ({exc.reason})") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise open_error(f"cannot open {what}: {exc}") from None


def load_csv(path: str) -> Dataset:
    """Read `label,f1,...,fk` rows of UTF-8 text; parse errors name the offending line."""
    rows = []
    labels = []
    width = None
    for lineno, line in numbered_lines(path, "dataset", ConfigurationError, ParseError):
        parts = line.split(",")
        if width is None:
            width = len(parts)
            if width < 2:
                raise ParseError(f"line {lineno}: need a label and at least one feature")
        elif len(parts) != width:
            raise ParseError(f"line {lineno}: expected {width} fields, got {len(parts)}")
        try:
            label = int(parts[0])
            feats = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if label < 0:
            raise ParseError(f"line {lineno}: negative label {label}")
        if not all(map(math.isfinite, feats)):
            raise ParseError(f"line {lineno}: non-finite feature value")
        labels.append(label)
        rows.append(feats)
    if not rows:
        raise ParseError("no data rows found")
    labels_arr = np.asarray(labels, dtype=np.int64)
    return Dataset(np.asarray(rows, dtype=float), labels_arr, int(labels_arr.max()) + 1)
