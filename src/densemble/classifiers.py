"""Per-party probabilistic classifiers with hand-derived gradients.

Two families are provided: softmax regression and a one-hidden-layer tanh
MLP. Both expose the same duck-typed surface:

    posterior(X)            -> (n, m) simplex rows over the local label space
    posterior_grad(X, U)    -> flat J^T u, summed over the batch
    params / set_params     -> flat parameter vector view

The module function ``global_posterior(model, X, K)`` embeds either family's
posterior into the K-class simplex, zero-filled outside its label space.

``posterior_grad`` is the workhorse for end-to-end calibration: given an
upstream gradient on the local posterior it backpropagates to a flat
parameter gradient without any autodiff machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import LocalDataset


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def _softmax_upstream_to_logits(P: np.ndarray, U: np.ndarray) -> np.ndarray:
    # d loss / d logits given d loss / d softmax: P*(U - <P, U>)
    return P * (U - np.sum(P * U, axis=1, keepdims=True))


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


class _LocalIndex:
    """Maps global labels into a classifier's contiguous local index range."""

    def __init__(self, label_space: tuple[int, ...]):
        self.label_space = tuple(sorted(label_space))
        self._lookup = {c: i for i, c in enumerate(self.label_space)}

    def to_local(self, labels: np.ndarray) -> np.ndarray:
        try:
            return np.array([self._lookup[int(v)] for v in labels], dtype=np.int64)
        except KeyError as err:
            raise ValueError(
                f"label {err.args[0]} outside label_space {self.label_space}"
            ) from None


@dataclass
class SoftmaxRegression:
    """Linear logits with a softmax head over the local label space."""

    W: np.ndarray
    b: np.ndarray
    label_space: tuple[int, ...]

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.label_space = tuple(sorted(int(c) for c in self.label_space))
        m = len(self.label_space)
        if self.W.shape[0] != m or self.b.shape != (m,):
            raise ValueError(
                f"shape mismatch: W {self.W.shape}, b {self.b.shape}, {m} classes"
            )
        if not (np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.b))):
            raise ValueError("parameters must be finite")
        self._index = _LocalIndex(self.label_space)

    @classmethod
    def init_random(cls, dim: int, label_space, rng: np.random.Generator) -> "SoftmaxRegression":
        m = len(label_space)
        return cls(0.25 * rng.standard_normal((m, dim)), np.zeros(m), tuple(label_space))

    @property
    def dim(self) -> int:
        return self.W.shape[1]

    @property
    def num_classes_local(self) -> int:
        return len(self.label_space)

    @property
    def params(self) -> np.ndarray:
        return np.concatenate([self.W.ravel(), self.b])

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        nw = self.W.size
        if flat.shape != (nw + self.b.size,):
            raise ValueError(f"expected {nw + self.b.size} parameters, got {flat.shape}")
        self.W = flat[:nw].reshape(self.W.shape).copy()
        self.b = flat[nw:].copy()

    def posterior(self, x: np.ndarray) -> np.ndarray:
        X, single = _as_batch(x)
        P = softmax(X @ self.W.T + self.b)
        return P[0] if single else P

    def posterior_grad(self, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        X, _ = _as_batch(x)
        U = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
        P = softmax(X @ self.W.T + self.b)
        gz = _softmax_upstream_to_logits(P, U)
        return np.concatenate([(gz.T @ X).ravel(), gz.sum(axis=0)])

    def apply_grad(self, flat_grad: np.ndarray, lr: float) -> None:
        self.set_params(self.params - lr * np.asarray(flat_grad, dtype=np.float64))


@dataclass
class MlpClassifier:
    """tanh-hidden-layer perceptron with a softmax head."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    label_space: tuple[int, ...]

    def __post_init__(self):
        self.W1 = np.asarray(self.W1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.W2 = np.asarray(self.W2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        self.label_space = tuple(sorted(int(c) for c in self.label_space))
        h = self.W1.shape[0]
        m = len(self.label_space)
        if self.b1.shape != (h,) or self.W2.shape != (m, h) or self.b2.shape != (m,):
            raise ValueError("layer dimensions do not chain")
        for p in (self.W1, self.b1, self.W2, self.b2):
            if not np.all(np.isfinite(p)):
                raise ValueError("parameters must be finite")
        self._index = _LocalIndex(self.label_space)

    @classmethod
    def init_random(
        cls, dim: int, label_space, hidden: int, rng: np.random.Generator
    ) -> "MlpClassifier":
        m = len(label_space)
        # modest first-layer scale keeps tanh unsaturated for inputs of order 5
        W1 = 0.25 * rng.standard_normal((hidden, dim))
        W2 = rng.standard_normal((m, hidden)) / np.sqrt(hidden)
        return cls(W1, np.zeros(hidden), W2, np.zeros(m), tuple(label_space))

    @property
    def dim(self) -> int:
        return self.W1.shape[1]

    @property
    def hidden(self) -> int:
        return self.W1.shape[0]

    @property
    def num_classes_local(self) -> int:
        return len(self.label_space)

    @property
    def params(self) -> np.ndarray:
        return np.concatenate(
            [self.W1.ravel(), self.b1, self.W2.ravel(), self.b2]
        )

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        sizes = [self.W1.size, self.b1.size, self.W2.size, self.b2.size]
        if flat.shape != (sum(sizes),):
            raise ValueError(f"expected {sum(sizes)} parameters, got {flat.shape}")
        parts = np.split(flat, np.cumsum(sizes)[:-1])
        self.W1 = parts[0].reshape(self.W1.shape).copy()
        self.b1 = parts[1].copy()
        self.W2 = parts[2].reshape(self.W2.shape).copy()
        self.b2 = parts[3].copy()

    def _forward(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        H = np.tanh(X @ self.W1.T + self.b1)
        return H, softmax(H @ self.W2.T + self.b2)

    def posterior(self, x: np.ndarray) -> np.ndarray:
        X, single = _as_batch(x)
        _, P = self._forward(X)
        return P[0] if single else P

    def posterior_grad(self, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        X, _ = _as_batch(x)
        U = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
        H, P = self._forward(X)
        gz = _softmax_upstream_to_logits(P, U)
        gW2 = gz.T @ H
        gb2 = gz.sum(axis=0)
        gpre = (gz @ self.W2) * (1.0 - H**2)
        gW1 = gpre.T @ X
        gb1 = gpre.sum(axis=0)
        return np.concatenate([gW1.ravel(), gb1, gW2.ravel(), gb2])

    def apply_grad(self, flat_grad: np.ndarray, lr: float) -> None:
        self.set_params(self.params - lr * np.asarray(flat_grad, dtype=np.float64))


def global_posterior(model, x: np.ndarray, K: int) -> np.ndarray:
    """Embed the local posterior into the K-class simplex, zeros elsewhere.

    Entries for classes outside the model's label space are identically 0 so
    absent classes stay silent in any downstream weighted sum.
    """
    space = model.label_space
    if K < len(space) or (space and K <= max(space)):
        raise ValueError(f"K={K} cannot hold label_space {space}")
    X, single = _as_batch(x)
    P = model.posterior(X)
    out = np.zeros((X.shape[0], K))
    out[:, list(space)] = P
    return out[0] if single else out


def train(
    model,
    ds: LocalDataset,
    lr: float = 1e-4,
    epochs: int = 1,
    batch: int = 32,
    seed: int = 0,
):
    """Mini-batch SGD on the local cross-entropy; mutates and returns model.

    Deterministic for a fixed seed: per-epoch shuffles come from a private
    generator seeded here.
    """
    if len(ds) == 0:
        raise ValueError("cannot train on an empty dataset")
    if batch < 1:
        raise ValueError("batch must be at least 1")
    y_local = model._index.to_local(ds.labels)
    X = ds.features
    rng = np.random.default_rng(seed)
    n = len(ds)
    m = model.num_classes_local
    onehot = np.eye(m)[y_local]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            sel = order[start : start + batch]
            P = model.posterior(X[sel])
            # dCE/dP = -onehot/P; chaining through softmax gives (P - onehot)
            upstream = -onehot[sel] / np.maximum(P, 1e-300)
            g = model.posterior_grad(X[sel], upstream) / len(sel)
            model.apply_grad(g, lr)
    return model


def cross_entropy(model, ds: LocalDataset) -> float:
    """Mean negative log posterior of the true local class."""
    y_local = model._index.to_local(ds.labels)
    P = model.posterior(ds.features)
    picked = np.maximum(P[np.arange(len(ds)), y_local], 1e-300)
    return float(-np.mean(np.log(picked)))


def accuracy(model, ds: LocalDataset) -> float:
    """Fraction of samples whose argmax posterior matches the label."""
    if len(ds) == 0:
        raise ValueError("accuracy of an empty dataset is undefined")
    P = model.posterior(ds.features)
    pred_local = np.argmax(P, axis=1)
    space = np.array(model.label_space)
    return float(np.mean(space[pred_local] == ds.labels))
