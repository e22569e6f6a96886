"""Shared test doubles, parameter oracles and fast experiment configs."""

import numpy as np
import pytest

from densemble.density import GMM_VARIANCE_FLOOR, GmmModel, _gmm_resp, _logsumexp
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
    logits (softmaxed), as a step of ``apply_grad`` would leave it."""
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
    unfused ``backward`` of a fresh ``forward``."""
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return model.backward(X, model.forward(X), upstream)


def responsibilities(model, X):
    """(n, m) posterior component memberships of a mixture."""
    return _gmm_resp(*model._joint(X)[2:])[:, 0]


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
