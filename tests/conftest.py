"""Shared test doubles, parameter oracles, artifact readers and fast
experiment configs."""

import numpy as np
import pytest

from densemble.calibration import TraceRow
from densemble.classifiers import _softmax_upstream_to_logits, _views
from densemble.datasets import _read_columns
from densemble.density import GMM_VARIANCE_FLOOR, GmmModel, GmmStack, _gmm_resp, _logsumexp
from densemble.harness import ExperimentConfig, config_from_dict


class ConstantClassifier:
    """Returns the same posterior row for every query; no parameters."""

    def __init__(self, probs, label_space):
        self.probs = np.asarray(probs, dtype=np.float64)
        self.label_space = tuple(sorted(label_space))
        self.dim = 2

    def posterior(self, x):
        P = np.tile(self.probs, (len(np.atleast_2d(x)), 1))
        return P[0] if np.asarray(x).ndim == 1 else P


def set_params(model, flat):
    """Overwrite a model's parameters with the flat vector ``flat`` in its
    ``params`` layout: a classifier's buffer takes a copy, and a mixture is
    rebuilt from its means, log-variances (exp'd and floored) and weight
    logits (softmaxed), as a ``GmmStack`` step would leave it."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != model.params.shape:
        raise ValueError(f"expected {model.params.size} parameters, got {flat.shape}")
    if not isinstance(model, GmmModel):
        model._flat[...] = flat
        return
    m, d = model.means.shape
    model.means = flat[: m * d].reshape(m, d).copy()
    model.variances = np.maximum(np.exp(flat[m * d : 2 * m * d].reshape(m, d)), GMM_VARIANCE_FLOOR)
    logits = flat[2 * m * d :]
    model.weights = np.exp(logits - _logsumexp(logits, axis=0))


def posterior_grad(model, x, upstream):
    """A classifier's flat gradient of ``sum(upstream * posterior(x))``: the
    family's ``_backward`` of a fresh ``_forward``, run on the classifier's
    own arrays, which have no stack axis, into a new buffer."""
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    U = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
    H, P = model._forward(model._params, X)
    g = np.empty_like(model._flat)
    gz = _softmax_upstream_to_logits(P, U)
    model._backward(model._params, X, H, gz, _views(g, model._layout))
    return g


def responsibilities(model, X):
    """(n, m) posterior component memberships of a mixture, from the
    ``forward`` state of a stack of one."""
    state, _ = GmmStack([model]).forward(X)
    return _gmm_resp(*state[2:])[:, 0]


class LinearDensity:
    """log p(x) = a . x + b; query-dependent but analytically simple."""

    def __init__(self, a, b=0.0):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = float(b)

    def log_density(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return X @ self.a + self.b


class ConstantDensity:
    """Same log-density everywhere."""

    def __init__(self, value):
        self.value = float(value)

    def log_density(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.full(X.shape[0], self.value)


def random_simplex(rng, shape):
    v = rng.random(shape) + 1e-3
    return v / v.sum(axis=-1, keepdims=True)


def _predictions_header(header: str) -> list:
    names = header.split(",")
    if names[:2] != ["query_index", "label"]:
        raise ValueError(f"line 1: unexpected predictions header {names}")
    return [int, int]


def read_predictions(path) -> np.ndarray:
    """The label column of a ``write_predictions`` file, whose query indices
    must count up from 0."""
    linenos, (index, labels) = _read_columns(path, _predictions_header)
    for lineno, got, want in zip(linenos, index, range(len(index))):
        if got != want:
            raise ValueError(f"line {lineno}: query_index out of order")
    return np.array(labels, dtype=np.int64)


def _trace_step(cell: str) -> int:
    """A step cell. Not ``int`` itself, so a malformed one is reported as a
    ``non-numeric cell``, as every malformed trace cell is."""
    return int(cell)


def _trace_accuracy(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _trace_header(header: str) -> list:
    if header != "step,loss,test_accuracy":
        raise ValueError(f"line 1: unexpected trace header {header!r}")
    return [_trace_step, float, _trace_accuracy]


def read_trace(path) -> list[TraceRow]:
    _, columns = _read_columns(path, _trace_header)
    return [TraceRow(*row) for row in zip(*columns)]


def fast_experiment_doc() -> dict:
    """Three-party blob setup small enough for per-test pipeline runs."""
    return {
        "seed": 0,
        "data": {"n": 500, "num_classes": 5, "train_ratio": 0.7},
        "partition": {
            "seed": 0,
            "parties": [
                {"classes": [0, 1], "fraction": 1.0},
                {"classes": [2, 3], "fraction": 0.5},
                {"classes": [3, 4], "fraction": 0.5},
            ],
        },
        "parties": [
            {
                "classifier": {"type": "softmax_regression", "lr": 0.1, "epochs": 60, "batch": 32},
                "estimator": {"type": "kde", "bandwidth": 0.1},
            },
            {
                "classifier": {"type": "mlp", "hidden": 16, "lr": 0.05, "epochs": 60, "batch": 32},
                "estimator": {"type": "kde", "bandwidth": 0.1},
            },
            {
                "classifier": {"type": "mlp", "hidden": 16, "lr": 0.05, "epochs": 60, "batch": 32},
                "estimator": {"type": "kde", "bandwidth": 0.1},
            },
        ],
    }


@pytest.fixture
def fast_config() -> ExperimentConfig:
    return config_from_dict(fast_experiment_doc())
