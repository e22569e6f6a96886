"""Per-party probabilistic classifiers with hand-derived gradients.

Two families are provided: softmax regression and a one-hidden-layer tanh
MLP. ``FAMILIES`` maps each one's ``type_tag`` to its class, and is the only
list of classifier families: config validation, ``harness.build_parties``
and ``serialize`` all read it, and each class builds itself from its config
block and its party's shard with ``from_config(cfg, shard, seed)``. Both
derive from ``FlatClassifier``, which keeps every weight of a model in one
contiguous float64 buffer. A subclass lists its arrays in ``_names``
(``("W", "b")`` or ``("W1", "b1", "W2", "b2")``) and each named attribute is a
reshaped view of that buffer, so the flat vector and the arrays never drift
apart. A lone classifier only holds parameters and scores. Only a
``ClassifierStack``, of one classifier or several, has backward and step
methods; ``train`` calls the family's static functions itself:

    FlatClassifier.posterior(X)   -> (n, m) simplex rows over the local label space
    FlatClassifier.params         -> copy of the flat buffer
    ClassifierStack.forward(X)    -> state (H, P): what backward takes back and
                                     the (S, n, m) local posteriors of a batch
    ClassifierStack.backward(X, state, U)
                                  -> (S, P) J^T u, each summed over its batch,
                                     from that state
    ClassifierStack.apply_grad(G, lr)
                                  -> buffer -= lr * G

The arithmetic is written once, for S classifiers of one family and one set
of parameter shapes stacked along a leading axis. A family supplies its
shape check and two static functions over its named arrays:
``_forward(params, X)`` returns the hidden activations and the local
posteriors, and ``_backward(params, X, H, gz, out)`` writes, from the logit
gradient ``gz``, each parameter's gradient block, summed over the batch,
into ``out``, the views of a gradient buffer, with ``np.matmul(..., out=)``
and ``np.add.reduce(..., out=)``; it allocates no flat vector. Both take a
stack's arrays with the leading axis, (S, *shape), and a batch the stack
shares, (n, dim), or one batch per classifier, (S, n, dim); no other
layout runs them. A lone ``FlatClassifier`` computes as a stack of one:
``posterior`` views its buffer with a stack axis of length 1, and ``train``
builds a ``ClassifierStack`` of it. ``ClassifierStack`` holds its
classifiers' parameters as one (S, P) buffer, and each member's flat buffer
and named arrays become views of its row. Stacked ``np.matmul`` makes the
same BLAS call for each slice as for that slice alone, and the reductions
over the batch axis add each slice's rows in the same order, so every row of
a stack keeps the bits of its classifier alone.

The module function ``global_posterior(model, X, K)`` embeds either family's
posterior into the K-class simplex, zero-filled outside its label space.

End-to-end calibration saves for backward by hand, as autodiff frameworks
do: each step runs ``forward`` once per stack, forms the objective from the
state's ``P``, and hands the same state to the stack's ``backward`` with the
upstream gradient on the local posteriors, so no forward pass is repeated.

Local training (``train``) runs ``_forward`` once per minibatch and takes
the cross-entropy's logit gradient directly: ``P - onehot``, formed in place
in the posterior, with no softmax Jacobian and no floor on ``P``. The
Jacobian chain stays in ``backward``, whose upstream is not one-hot.
Classifiers of one family and parameter shapes whose datasets have one size
train in lockstep, as one stack: each keeps its own seeded shuffle, and a
minibatch step is one stacked forward pass, backward pass and update for
all of them.

Both paths have ``_backward`` write into views of the stack's one scratch
gradient, (S, P), made and viewed when the stack is built and overwritten
by every step: ``backward`` returns a copy of it, and ``train`` divides it
by the batch size and subtracts it from the parameters in place. Neither
allocates a gradient per block or concatenates blocks. A classifier's own
views are its named arrays only, viewed again when it is copied or
unpickled, since those rebuild each array on its own.
"""

from __future__ import annotations

import numpy as np

from ._reduce import reduce_last
from .datasets import LocalDataset


def softmax(z: np.ndarray) -> np.ndarray:
    # in place after the first subtraction; over a local label space of
    # fewer than 8 classes, reduce_last forms the max and the sum of a large
    # batch as chains of elementwise ops over its columns, which combine them
    # in numpy's own order: the bits of ndarray.max and .sum, at a fraction
    # of the cost
    e = z - reduce_last(np.maximum, z, keepdims=True)
    np.exp(e, out=e)
    e /= reduce_last(np.add, e, keepdims=True)
    return e


def _softmax_upstream_to_logits(P: np.ndarray, U: np.ndarray) -> np.ndarray:
    # d loss / d logits given d loss / d softmax, row by row: P*(U - <P, U>)
    return P * (U - reduce_last(np.add, P * U, keepdims=True))


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def _views(buf: np.ndarray, layout, rows: bool = False) -> tuple[np.ndarray, ...]:
    """Views of a parameter or gradient buffer, one per named array in
    ``_names`` order: a classifier's (P,) buffer gives each array its own
    shape (the named attributes), a stack's (S, P) buffer gives (S, *shape),
    as the arithmetic takes them. With ``rows``, a stack's biases (its 1-D
    arrays) get a row axis, (S, 1, k), so that they broadcast over each
    batch's rows."""
    lead = buf.shape[:-1]
    return tuple(
        buf[..., i:j].reshape(*lead, *((1,) if rows and len(shape) == 1 else ()), *shape)
        for i, j, shape in layout
    )


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
    that order followed by ``label_space``, tag themselves with ``type_tag``,
    map each stored field to its kind in ``file_fields`` for ``jsonconfig``
    (``label_space``, a tuple of ints, then the arrays, in file order), and
    implement ``from_config``, ``_check_shapes``, ``_forward`` and
    ``_backward``; a subclass is a family once it is in ``FAMILIES``. The
    named attributes are views of the buffer: modify them in place, never
    rebind them. A label space is a nonempty tuple of non-negative, strictly
    increasing ints, column i of the posterior being class ``label_space[i]``;
    any other raises ValueError.
    """

    _names: tuple[str, ...]
    type_tag: str

    def __init__(self, arrays, label_space):
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        if any(a.ndim == 0 for a in arrays):
            raise ValueError("parameters must be arrays, not scalars")
        space = self.label_space = tuple(int(c) for c in label_space)
        if not space or list(space) != sorted(set(space)) or space[0] < 0:
            raise ValueError(
                f"label_space {space}: labels must be nonempty, >= 0 and strictly increasing"
            )
        self._check_shapes(*arrays)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValueError("parameters must be finite")
        self._flat = np.concatenate([a.ravel() for a in arrays])
        ends = np.cumsum([a.size for a in arrays]).tolist()
        self._layout = [(i, j, a.shape) for i, j, a in zip([0] + ends, ends, arrays)]
        self._bind_views()
        self._index = _LocalIndex(self.label_space)

    def _bind_views(self) -> None:
        for name, view in zip(self._names, _views(self._flat, self._layout)):
            setattr(self, name, view)

    def __setstate__(self, state: dict) -> None:
        # copy and pickle rebuild each array on its own; view the buffer again
        self.__dict__.update(state)
        self._bind_views()

    @property
    def num_classes_local(self) -> int:
        return len(self.label_space)

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        """Shape of each named array, in ``_names`` order."""
        return tuple(shape for _, _, shape in self._layout)

    @property
    def dim(self) -> int:
        return self._layout[0][2][1]

    @property
    def params(self) -> np.ndarray:
        return self._flat.copy()

    def posterior(self, x: np.ndarray) -> np.ndarray:
        # scored as a stack of one: views of the buffer with a stack axis
        X, single = _as_batch(x)
        P = self._forward(_views(self._flat[None], self._layout, rows=True), X)[1]
        return P[0, 0] if single else P[0]


class SoftmaxRegression(FlatClassifier):
    """Linear logits with a softmax head over the local label space."""

    _names = ("W", "b")
    file_fields = {"label_space": tuple[int, ...], **dict.fromkeys(_names, np.ndarray)}
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

    @classmethod
    def from_config(cls, cfg, shard: LocalDataset, seed: int) -> "SoftmaxRegression":
        return cls.init_random(shard.dim, shard.label_space, np.random.default_rng(seed))

    @staticmethod
    def _forward(params, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        W, b = params
        Z = X @ W.swapaxes(-1, -2)
        Z += b
        return X, softmax(Z)

    @staticmethod
    def _backward(params, X: np.ndarray, H: np.ndarray, gz: np.ndarray, out: tuple) -> None:
        gW, gb = out
        np.matmul(gz.swapaxes(-1, -2), X, out=gW)
        np.add.reduce(gz, axis=-2, out=gb)


class MlpClassifier(FlatClassifier):
    """tanh-hidden-layer perceptron with a softmax head."""

    _names = ("W1", "b1", "W2", "b2")
    file_fields = {"label_space": tuple[int, ...], **dict.fromkeys(_names, np.ndarray)}
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

    @classmethod
    def from_config(cls, cfg, shard: LocalDataset, seed: int) -> "MlpClassifier":
        return cls.init_random(
            shard.dim, shard.label_space, cfg.hidden, np.random.default_rng(seed)
        )

    @staticmethod
    def _forward(params, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        W1, b1, W2, b2 = params
        H = X @ W1.swapaxes(-1, -2)
        H += b1
        np.tanh(H, out=H)
        Z = H @ W2.swapaxes(-1, -2)
        Z += b2
        return H, softmax(Z)

    @staticmethod
    def _backward(params, X: np.ndarray, H: np.ndarray, gz: np.ndarray, out: tuple) -> None:
        gW1, gb1, gW2, gb2 = out
        gpre = gz @ params[2]
        gpre *= 1.0 - H**2
        np.matmul(gpre.swapaxes(-1, -2), X, out=gW1)
        np.add.reduce(gpre, axis=-2, out=gb1)
        np.matmul(gz.swapaxes(-1, -2), H, out=gW2)
        np.add.reduce(gz, axis=-2, out=gb2)


FAMILIES = {c.type_tag: c for c in (SoftmaxRegression, MlpClassifier)}


class ClassifierStack:
    """S classifiers of one family and parameter shapes, stepped together.

    The stack holds the classifiers' parameters as one (S, P) buffer, and a
    scratch gradient of the same shape; row s belongs to ``models[s]``, whose
    flat buffer and named arrays become views of that row when the stack is
    built. A classifier therefore belongs to the last stack built over it.
    ``forward`` runs the family's arithmetic once for all S classifiers, on
    a batch they share, (n, dim), or on one batch each, (S, n, dim);
    ``backward`` forms all S gradients in one pass, and ``apply_grad`` steps
    all S buffers with one update. Every element goes through the same
    operations as for a lone classifier, so each row keeps its bits.
    """

    def __init__(self, models):
        self.models = list(models)
        if len({(type(m), m.shapes) for m in self.models}) != 1:
            raise ValueError("a classifier stack needs classifiers of one family and shape")
        first = self.models[0]
        self._forward, self._backward = first._forward, first._backward
        self._flat = np.stack([m._flat for m in self.models])
        self._grad = np.empty_like(self._flat)
        for model, flat in zip(self.models, self._flat):
            model._flat = flat
            model._bind_views()
        self._params = _views(self._flat, first._layout, rows=True)
        self._grad_views = _views(self._grad, first._layout)

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """State ``(H, P)`` of one forward pass: what ``backward`` takes back
        and the (S, n, m) local posteriors."""
        return self._forward(self._params, X)

    def backward(self, X: np.ndarray, state: tuple, upstream: np.ndarray) -> np.ndarray:
        """(S, P) gradients of ``sum(upstream * P)``, each summed over its
        batch, from the ``forward(X)`` state of the same batch; ``upstream``
        is (S, n, m)."""
        H, P = state
        gz = _softmax_upstream_to_logits(P, upstream)
        self._backward(self._params, X, H, gz, self._grad_views)
        return self._grad.copy()

    def apply_grad(self, grad: np.ndarray, lr: float) -> None:
        """One step of -lr * grad, (S, P), on every member."""
        self._flat -= lr * grad


def global_posterior(model, x: np.ndarray, K: int) -> np.ndarray:
    """Embed the local posterior into the K-class simplex, zeros elsewhere.

    Entries for classes outside the model's label space are identically 0 so
    absent classes stay silent in any downstream weighted sum.
    """
    space = model.label_space
    if K < len(space) or (space and K <= max(space)):
        raise ValueError(f"K={K} cannot hold label_space {space}")
    X, single = _as_batch(x)
    # the posterior first, so that its forward pass's temporaries are freed
    # before the output is allocated
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

    ``model``, ``ds`` and ``seed`` may instead be lists of one length:
    classifiers of one family and parameter shapes, datasets of one size and
    one seed per classifier. They then train in lockstep, and the list of
    classifiers is returned; each ends with the bits it would have trained
    to alone. Either way the classifiers train as one ``ClassifierStack``,
    a lone one as a stack of one. Each step runs one forward pass, takes the
    logit gradient ``P - onehot`` in place of the posterior, has
    ``_backward`` write the batch-summed gradients into the stack's scratch
    gradient, divides that by the batch size and applies it.
    Deterministic for fixed seeds: each classifier's per-epoch shuffles come
    from a private generator seeded with its seed.
    """
    lone = isinstance(model, FlatClassifier)
    models, datasets, seeds = ([model], [ds], [seed]) if lone else (model, ds, seed)
    if not (len(models) == len(datasets) == len(seeds) > 0):
        raise ValueError("lockstep training needs one dataset and one seed per classifier")
    n = len(datasets[0])
    if any(len(d) != n for d in datasets):
        raise ValueError("lockstep training needs datasets of one size")
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if batch < 1:
        raise ValueError("batch must be at least 1")
    # every dataset's rows, one dataset after another: row i of dataset s is
    # row s * n + i
    X = np.concatenate([d.features for d in datasets])
    onehot = np.concatenate(
        [np.eye(m.num_classes_local)[m._index.to_local(d.labels)] for m, d in zip(models, datasets)]
    )
    first = n * np.arange(len(models))[:, None]
    stack = ClassifierStack(models)
    batches = [np.s_[:, start : start + batch] for start in range(0, n, batch)]
    forward, backward = stack._forward, stack._backward
    params, flat, g, views = stack._params, stack._flat, stack._grad, stack._grad_views
    rngs = [np.random.default_rng(s) for s in seeds]
    for _ in range(epochs):
        order = np.stack([rng.permutation(n) for rng in rngs]) + first
        X_epoch, Y_epoch = np.take(X, order, axis=0), np.take(onehot, order, axis=0)
        for b in batches:
            Xb = X_epoch[b]
            H, P = forward(params, Xb)
            P -= Y_epoch[b]
            backward(params, Xb, H, P, views)
            g /= Xb.shape[-2]
            flat -= lr * g
    return model if lone else models

