"""Shared test doubles and fast experiment configs."""

import numpy as np
import pytest

from densemble.harness import ExperimentConfig, config_from_dict


class ConstantClassifier:
    """Returns the same posterior row for every query; no parameters."""

    def __init__(self, probs, label_space):
        self.probs = np.asarray(probs, dtype=np.float64)
        self.label_space = tuple(sorted(label_space))
        self.dim = 2

    def forward(self, X):
        return None, np.tile(self.probs, (len(X), 1))

    def backward(self, X, state, upstream):
        return np.zeros(0)

    def posterior(self, x):
        X = np.atleast_2d(np.asarray(x, dtype=np.float64))
        _, P = self.forward(X)
        return P[0] if np.asarray(x).ndim == 1 else P

    def posterior_grad(self, x, upstream):
        X = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return self.backward(X, self.forward(X), upstream)

    @property
    def params(self):
        return np.zeros(0)

    def set_params(self, flat):
        pass

    def apply_grad(self, g, lr):
        pass


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
