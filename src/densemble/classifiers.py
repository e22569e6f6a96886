"""Per-party probabilistic classifiers with hand-derived gradients.

Two families are provided: softmax regression and a one-hidden-layer tanh
MLP. Both derive from ``FlatClassifier``, which keeps every weight of a model
in one contiguous float64 buffer. A subclass lists its arrays in ``_names``
(``("W", "b")`` or ``("W1", "b1", "W2", "b2")``) and each named attribute is a
reshaped view of that buffer, so the flat vector and the arrays never drift
apart:

    forward(X)              -> state (H, P): hidden activations and the
                               (n, m) local posterior of a batch
    backward(X, state, U)   -> flat J^T u, summed over the batch, from that state
    posterior(X)            -> P alone: (n, m) simplex rows over the local label space
    posterior_grad(X, U)    -> backward(X, forward(X), U)
    params / set_params     -> copy of / copy into the flat buffer
    apply_grad(g, lr)       -> buffer -= lr * g

A subclass supplies only its shape check, its forward pass (hidden
activations and posterior) and its backward pass
``_backward(X, H, gz, out)``: from the (n, m) logit gradient ``gz`` it writes
each parameter's gradient block, summed over the batch, into ``out``, the
``_views`` of a flat gradient buffer in ``_names`` order, with
``np.matmul(..., out=)`` and ``np.add.reduce(..., out=)``; it allocates no
flat vector. The module function ``global_posterior(model, X, K)`` embeds
either family's posterior into the K-class simplex, zero-filled outside its
label space.

End-to-end calibration saves for backward by hand, as autodiff frameworks
do: each step runs ``forward`` once per party, forms the objective from the
state's ``P``, and hands the same state to ``backward`` with the upstream
gradient on the local posterior, so no forward pass is repeated.
``posterior_grad`` is the unfused composition, the reference the fused step
is tested against.

Local training (``train``) runs ``_forward`` once per minibatch and takes
the cross-entropy's logit gradient directly: ``P - onehot``, formed in place
in the posterior, with no softmax Jacobian and no floor on ``P``. The
Jacobian chain stays in ``backward``, whose upstream is not one-hot.

Both paths write through the same views: each classifier owns one scratch
flat gradient, viewed once when it is built (and again when it is copied or
unpickled, since those rebuild each array on its own). ``train`` divides the
scratch by the batch size and hands it to ``apply_grad``; ``backward``
returns a copy of it. Neither allocates a gradient per block or concatenates
blocks.
"""

from __future__ import annotations

import numpy as np

from .datasets import LocalDataset


def softmax(z: np.ndarray) -> np.ndarray:
    # in place after the first subtraction, and the ufunc reductions that
    # ndarray.max and .sum wrap: the same bits, fewer temporaries and calls
    e = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _softmax_upstream_to_logits(P: np.ndarray, U: np.ndarray) -> np.ndarray:
    # d loss / d logits given d loss / d softmax: P*(U - <P, U>)
    return P * (U - (P * U).sum(axis=1, keepdims=True))


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


class _LocalIndex:
    """Maps global labels into a classifier's contiguous local index range."""

    def __init__(self, label_space: tuple[int, ...]):
        self.label_space = tuple(sorted(label_space))
        # the trailing +inf keeps every searchsorted position a valid index
        self._sorted = np.array(self.label_space + (np.inf,))

    def positions(self, labels: np.ndarray) -> np.ndarray:
        """Local index of each label, -1 where it lies outside the space."""
        labels = np.asarray(labels)
        pos = np.searchsorted(self._sorted, labels)
        return np.where(self._sorted[pos] == labels, pos, -1)

    def to_local(self, labels: np.ndarray) -> np.ndarray:
        pos = self.positions(labels)
        if np.any(pos < 0):
            bad = int(np.asarray(labels)[pos < 0][0])
            raise ValueError(f"label {bad} outside label_space {self.label_space}")
        return pos


class FlatClassifier:
    """Softmax-headed classifier whose weights live in one flat buffer.

    Subclasses name their arrays in ``_names``, take them positionally in
    that order followed by ``label_space``, tag themselves with ``type_tag``
    and list their stored order in ``file_fields`` (``label_space``, then the
    arrays) for serialization, and implement ``_check_shapes``, ``_forward``
    and ``_backward``. The named attributes are views of the buffer: modify
    them in place, never rebind them.
    """

    _names: tuple[str, ...]
    type_tag: str

    def __init__(self, arrays, label_space):
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        if any(a.ndim == 0 for a in arrays):
            raise ValueError("parameters must be arrays, not scalars")
        self.label_space = tuple(sorted(int(c) for c in label_space))
        self._check_shapes(*arrays)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValueError("parameters must be finite")
        self._flat = np.concatenate([a.ravel() for a in arrays])
        ends = np.cumsum([a.size for a in arrays]).tolist()
        self._layout = [(i, j, a.shape) for i, j, a in zip([0] + ends, ends, arrays)]
        # backward's scratch gradient, viewed once; each call returns a copy
        self._grad = np.empty_like(self._flat)
        self._bind_views()
        self._index = _LocalIndex(self.label_space)

    def _bind_views(self) -> None:
        for name, view in zip(self._names, self._views(self._flat)):
            setattr(self, name, view)
        self._grad_views = self._views(self._grad)

    def __setstate__(self, state: dict) -> None:
        # copy and pickle rebuild each array on its own; view the buffers again
        self.__dict__.update(state)
        self._bind_views()

    @property
    def num_classes_local(self) -> int:
        return len(self.label_space)

    @property
    def params(self) -> np.ndarray:
        return self._flat.copy()

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self._flat.shape:
            raise ValueError(f"expected {self._flat.size} parameters, got {flat.shape}")
        self._flat[...] = flat

    def _views(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views of a flat buffer of ``params`` length, shaped like the named
        arrays and in ``_names`` order: the arrays themselves over the
        parameter buffer, or the blocks ``_backward`` fills over a gradient."""
        return tuple(flat[i:j].reshape(shape) for i, j, shape in self._layout)

    def apply_grad(self, flat_grad: np.ndarray, lr: float) -> None:
        self._flat -= lr * np.asarray(flat_grad, dtype=np.float64)

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """State ``(H, P)`` of one forward pass over an (n, dim) batch: the
        hidden activations and the (n, m) local posterior."""
        return self._forward(X)

    def backward(self, X: np.ndarray, state: tuple, upstream: np.ndarray) -> np.ndarray:
        """Flat gradient of ``sum(upstream * P)``, summed over the batch, from
        the ``forward(X)`` state of the same batch, as a new vector."""
        H, P = state
        U = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
        self._backward(X, H, _softmax_upstream_to_logits(P, U), self._grad_views)
        return self._grad.copy()

    def posterior(self, x: np.ndarray) -> np.ndarray:
        X, single = _as_batch(x)
        _, P = self.forward(X)
        return P[0] if single else P

    def posterior_grad(self, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        X, _ = _as_batch(x)
        return self.backward(X, self.forward(X), upstream)


class SoftmaxRegression(FlatClassifier):
    """Linear logits with a softmax head over the local label space."""

    _names = ("W", "b")
    file_fields = ("label_space", *_names)
    type_tag = "softmax_regression"

    def __init__(self, W, b, label_space):
        super().__init__((W, b), label_space)

    def _check_shapes(self, W, b) -> None:
        m = len(self.label_space)
        if W.shape[0] != m or b.shape != (m,):
            raise ValueError(f"shape mismatch: W {W.shape}, b {b.shape}, {m} classes")

    @classmethod
    def init_random(cls, dim: int, label_space, rng: np.random.Generator) -> "SoftmaxRegression":
        m = len(label_space)
        return cls(0.25 * rng.standard_normal((m, dim)), np.zeros(m), tuple(label_space))

    @property
    def dim(self) -> int:
        return self.W.shape[1]

    def _forward(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        Z = X @ self.W.T
        Z += self.b
        return X, softmax(Z)

    def _backward(self, X: np.ndarray, H: np.ndarray, gz: np.ndarray, out: tuple) -> None:
        gW, gb = out
        np.matmul(gz.T, X, out=gW)
        np.add.reduce(gz, axis=0, out=gb)


class MlpClassifier(FlatClassifier):
    """tanh-hidden-layer perceptron with a softmax head."""

    _names = ("W1", "b1", "W2", "b2")
    file_fields = ("label_space", *_names)
    type_tag = "mlp"

    def __init__(self, W1, b1, W2, b2, label_space):
        super().__init__((W1, b1, W2, b2), label_space)

    def _check_shapes(self, W1, b1, W2, b2) -> None:
        h = W1.shape[0]
        m = len(self.label_space)
        if b1.shape != (h,) or W2.shape != (m, h) or b2.shape != (m,):
            raise ValueError("layer dimensions do not chain")

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

    def _forward(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        H = X @ self.W1.T
        H += self.b1
        np.tanh(H, out=H)
        Z = H @ self.W2.T
        Z += self.b2
        return H, softmax(Z)

    def _backward(self, X: np.ndarray, H: np.ndarray, gz: np.ndarray, out: tuple) -> None:
        gW1, gb1, gW2, gb2 = out
        gpre = gz @ self.W2
        gpre *= 1.0 - H**2
        np.matmul(gpre.T, X, out=gW1)
        np.add.reduce(gpre, axis=0, out=gb1)
        np.matmul(gz.T, H, out=gW2)
        np.add.reduce(gz, axis=0, out=gb2)


def global_posterior(model, x: np.ndarray, K: int, P: np.ndarray | None = None) -> np.ndarray:
    """Embed the local posterior into the K-class simplex, zeros elsewhere.

    Entries for classes outside the model's label space are identically 0 so
    absent classes stay silent in any downstream weighted sum. ``P`` is the
    model's posterior for the batch x when the caller already holds it (a
    ``forward`` state's); otherwise it is computed here.
    """
    space = model.label_space
    if K < len(space) or (space and K <= max(space)):
        raise ValueError(f"K={K} cannot hold label_space {space}")
    X, single = _as_batch(x)
    if P is None:
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

    Each step runs one forward pass, takes the logit gradient ``P - onehot``
    in place of the posterior, has ``_backward`` write the batch-summed
    gradient into the model's scratch gradient, divides that by the batch
    size and applies it. Deterministic for a fixed seed: per-epoch shuffles
    come from a private generator seeded here.
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
    g, views = model._grad, model._grad_views
    for _ in range(epochs):
        order = rng.permutation(n)
        X_epoch, Y_epoch = X[order], onehot[order]
        for start in range(0, n, batch):
            Xb = X_epoch[start : start + batch]
            H, P = model._forward(Xb)
            P -= Y_epoch[start : start + batch]
            model._backward(Xb, H, P, views)
            g /= len(Xb)
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
