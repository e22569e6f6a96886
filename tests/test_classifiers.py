"""Classifier posteriors, zero-fill embedding, and manual gradients."""

import copy
import pickle

import numpy as np
import pytest

from densemble.classifiers import (
    MlpClassifier,
    SoftmaxRegression,
    accuracy,
    cross_entropy,
    global_posterior,
    train,
)
from densemble.datasets import LocalDataset, generate_toy, partition, PartitionSpec, PartyRule


def random_softmax(rng, dim=3, classes=(0, 1)):
    return SoftmaxRegression(
        rng.normal(size=(len(classes), dim)), rng.normal(size=len(classes)), classes
    )


def random_mlp(rng, dim=3, classes=(0, 1, 2), hidden=6):
    return MlpClassifier(
        rng.normal(size=(hidden, dim)) * 0.5,
        rng.normal(size=hidden) * 0.1,
        rng.normal(size=(len(classes), hidden)) * 0.5,
        rng.normal(size=len(classes)) * 0.1,
        classes,
    )


def test_posterior_simplex_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        clf = random_softmax(rng)
        mlp = random_mlp(rng)
        X = rng.normal(size=(8, 3))
        for model in (clf, mlp):
            P = model.posterior(X)
            assert np.all(P >= 0)
            assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)


def test_global_posterior_zero_fill_exact():
    # local posterior (0.7, 0.3) on classes {1, 3} embeds into K=5 with
    # exact zeros at the absent classes
    clf = SoftmaxRegression(
        np.zeros((2, 2)), np.log(np.array([0.7, 0.3])), (1, 3)
    )
    out = global_posterior(clf, np.zeros(2), 5)
    assert out[0] == 0.0 and out[2] == 0.0 and out[4] == 0.0
    assert np.allclose(out[[1, 3]], [0.7, 0.3], atol=1e-12)
    assert np.isclose(out.sum(), 1.0, atol=1e-12)


def test_global_posterior_full_space_identity():
    rng = np.random.default_rng(1)
    clf = random_softmax(rng, classes=(0, 1, 2))
    x = rng.normal(size=3)
    assert np.array_equal(global_posterior(clf, x, 3), clf.posterior(x))


def test_global_posterior_uniform_two_of_five():
    clf = SoftmaxRegression(np.zeros((2, 2)), np.zeros(2), (1, 3))
    out = global_posterior(clf, np.zeros(2), 5)
    assert np.array_equal(out, np.array([0.0, 0.5, 0.0, 0.5, 0.0]))


def test_global_posterior_k_too_small():
    clf = SoftmaxRegression(np.zeros((2, 2)), np.zeros(2), (1, 3))
    with pytest.raises(ValueError):
        global_posterior(clf, np.zeros(2), 3)


def test_train_separable_points_perfect_accuracy():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    ds = LocalDataset(X, y, (0, 1), 2)
    clf = SoftmaxRegression(np.zeros((2, 2)), np.zeros(2), (0, 1))
    train(clf, ds, lr=0.5, epochs=500, batch=4, seed=0)
    assert accuracy(clf, ds) == 1.0


def test_train_zero_epochs_unchanged():
    rng = np.random.default_rng(2)
    clf = random_softmax(rng, dim=2)
    before = clf.params.copy()
    ds = LocalDataset(rng.normal(size=(10, 2)), rng.integers(0, 2, 10), (0, 1), 2)
    train(clf, ds, lr=0.1, epochs=0, batch=4, seed=0)
    assert np.array_equal(clf.params, before)


def test_train_label_outside_space_rejected():
    rng = np.random.default_rng(3)
    clf = random_softmax(rng, dim=2, classes=(0, 1))
    ds = LocalDataset(rng.normal(size=(4, 2)), np.array([0, 1, 2, 2]), (0, 1, 2), 3)
    with pytest.raises(ValueError, match="label"):
        train(clf, ds, lr=0.1, epochs=1, batch=2, seed=0)


def test_train_toy_party_shard_high_local_accuracy():
    full = generate_toy(0, 800, 5)
    spec = PartitionSpec(parties=[PartyRule((0, 1), 1.0), PartyRule((2, 3, 4), 1.0)], seed=0)
    shard = partition(full, spec)[0]
    rng = np.random.default_rng(0)
    clf = SoftmaxRegression.init_random(2, (0, 1), rng)
    train(clf, shard, lr=0.1, epochs=120, batch=32, seed=0)
    assert accuracy(clf, shard) >= 0.95


def test_train_reduces_cross_entropy():
    rng = np.random.default_rng(4)
    full = generate_toy(1, 400, 5)
    spec = PartitionSpec(parties=[PartyRule((2, 3, 4), 1.0), PartyRule((0, 1), 1.0)], seed=0)
    shard = partition(full, spec)[0]
    mlp = MlpClassifier.init_random(2, (2, 3, 4), 16, rng)
    before = cross_entropy(mlp, shard)
    train(mlp, shard, lr=0.05, epochs=80, batch=32, seed=1)
    assert cross_entropy(mlp, shard) < before


def test_train_deterministic():
    full = generate_toy(2, 200, 3)
    spec = PartitionSpec(parties=[PartyRule((0, 1, 2), 1.0)], seed=0)
    shard = partition(full, spec)[0]
    params = []
    for _ in range(2):
        clf = MlpClassifier.init_random(2, (0, 1, 2), 8, np.random.default_rng(5))
        train(clf, shard, lr=0.05, epochs=10, batch=16, seed=7)
        params.append(clf.params)
    assert np.array_equal(params[0], params[1])


def reference_train(model, ds, lr, epochs, batch, seed):
    """The unfused SGD loop: per batch a forward pass, the cross-entropy
    logit gradient P - onehot, ``_backward`` into a fresh flat buffer, then
    ``apply_grad``."""
    y_local = model._index.to_local(ds.labels)
    rng = np.random.default_rng(seed)
    onehot = np.eye(model.num_classes_local)[y_local]
    for _ in range(epochs):
        order = rng.permutation(len(ds))
        for start in range(0, len(ds), batch):
            sel = order[start : start + batch]
            H, P = model.forward(ds.features[sel])
            g = np.empty(len(model.params))
            model._backward(ds.features[sel], H, P - onehot[sel], model._views(g))
            model.apply_grad(g / len(sel), lr)
    return model


def jacobian_chain_train(model, ds, lr, epochs, batch, seed):
    """SGD that chains dCE/dP = -onehot/P through the softmax Jacobian with
    ``posterior_grad``: algebraically the same step as ``train``."""
    y_local = model._index.to_local(ds.labels)
    rng = np.random.default_rng(seed)
    onehot = np.eye(model.num_classes_local)[y_local]
    for _ in range(epochs):
        order = rng.permutation(len(ds))
        for start in range(0, len(ds), batch):
            sel = order[start : start + batch]
            P = model.posterior(ds.features[sel])
            upstream = -onehot[sel] / np.maximum(P, 1e-300)
            model.apply_grad(model.posterior_grad(ds.features[sel], upstream) / len(sel), lr)
    return model


def _train_fixture(family):
    full = generate_toy(3, 300, 5)
    spec = PartitionSpec(parties=[PartyRule((0, 2, 3), 1.0), PartyRule((1, 4), 1.0)], seed=0)
    shard = partition(full, spec)[0]
    rng = np.random.default_rng(11)
    if family == "softmax":
        return SoftmaxRegression.init_random(2, (0, 2, 3), rng), shard
    return MlpClassifier.init_random(2, (0, 2, 3), 12, rng), shard


@pytest.mark.parametrize("family", ["softmax", "mlp"])
def test_train_bitwise_equals_unfused_reference(family):
    # batch 23 leaves a short last batch in every epoch
    got = train(*_train_fixture(family), lr=0.1, epochs=15, batch=23, seed=4).params
    want = reference_train(*_train_fixture(family), lr=0.1, epochs=15, batch=23, seed=4).params
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("family", ["softmax", "mlp"])
def test_train_agrees_with_jacobian_chain_loop(family):
    got = train(*_train_fixture(family), lr=0.1, epochs=15, batch=23, seed=4).params
    chained = jacobian_chain_train(*_train_fixture(family), lr=0.1, epochs=15, batch=23, seed=4)
    assert np.allclose(got, chained.params, rtol=1e-12, atol=0.0)


def _fd_posterior_grad(model, x, u, eps=1e-5):
    """Central finite differences of posterior(x) . u over flat parameters."""
    flat = model.params.copy()
    fd = np.zeros_like(flat)
    for i in range(len(flat)):
        bump = flat.copy()
        bump[i] += eps
        model.set_params(bump)
        hi = float(model.posterior(x) @ u)
        bump[i] -= 2 * eps
        model.set_params(bump)
        lo = float(model.posterior(x) @ u)
        fd[i] = (hi - lo) / (2 * eps)
    model.set_params(flat)
    return fd


def test_softmax_posterior_grad_matches_finite_differences():
    rng = np.random.default_rng(6)
    for trial in range(110):
        clf = random_softmax(rng, dim=int(rng.integers(1, 4)))
        x = rng.normal(size=clf.dim)
        u = rng.normal(size=2)
        got = clf.posterior_grad(x, u)
        fd = _fd_posterior_grad(clf, x, u)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(got - fd) / denom < 1e-5, f"trial {trial}"


def test_mlp_posterior_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    for trial in range(110):
        mlp = random_mlp(rng, dim=2, classes=(0, 1, 2), hidden=int(rng.integers(2, 6)))
        x = rng.normal(size=2)
        u = rng.normal(size=3)
        got = mlp.posterior_grad(x, u)
        fd = _fd_posterior_grad(mlp, x, u)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(got - fd) / denom < 1e-4, f"trial {trial}"


def test_zero_upstream_zero_gradient():
    rng = np.random.default_rng(8)
    clf = random_softmax(rng)
    mlp = random_mlp(rng)
    x = rng.normal(size=3)
    assert np.array_equal(clf.posterior_grad(x, np.zeros(2)), np.zeros(clf.params.size))
    assert np.array_equal(mlp.posterior_grad(x, np.zeros(3)), np.zeros(mlp.params.size))


def test_batched_posterior_grad_sums_singles():
    rng = np.random.default_rng(9)
    mlp = random_mlp(rng)
    X = rng.normal(size=(5, 3))
    U = rng.normal(size=(5, 3))
    batched = mlp.posterior_grad(X, U)
    summed = sum(mlp.posterior_grad(X[i], U[i]) for i in range(5))
    assert np.allclose(batched, summed, atol=1e-12)


def test_params_round_trip():
    rng = np.random.default_rng(10)
    for model in (random_softmax(rng), random_mlp(rng)):
        flat = model.params.copy()
        model.set_params(flat * 2.0)
        assert np.allclose(model.params, flat * 2.0)
        model.set_params(flat)
        assert np.array_equal(model.params, flat)


def test_parameter_validation():
    with pytest.raises(ValueError):
        SoftmaxRegression(np.zeros((2, 3)), np.zeros(3), (0, 1))
    with pytest.raises(ValueError, match="finite"):
        SoftmaxRegression(np.full((2, 3), np.nan), np.zeros(2), (0, 1))
    with pytest.raises(ValueError):
        MlpClassifier(np.zeros((4, 2)), np.zeros(3), np.zeros((2, 4)), np.zeros(2), (0, 1))
    clf = SoftmaxRegression(np.zeros((2, 3)), np.zeros(2), (0, 1))
    with pytest.raises(ValueError, match="parameters"):
        clf.set_params(np.zeros(5))


def test_init_random_shapes_and_scales():
    rng = np.random.default_rng(11)
    clf = SoftmaxRegression.init_random(4, (2, 5), rng)
    assert clf.W.shape == (2, 4) and np.array_equal(clf.b, np.zeros(2))
    mlp = MlpClassifier.init_random(2, (0, 1, 2), 32, rng)
    assert mlp.W1.shape == (32, 2) and mlp.W2.shape == (3, 32)
    assert np.array_equal(mlp.b1, np.zeros(32))
    assert np.array_equal(mlp.b2, np.zeros(3))


@pytest.mark.parametrize("make", [random_softmax, random_mlp], ids=["softmax", "mlp"])
def test_params_never_alias_and_apply_grad_is_exact(make):
    rng = np.random.default_rng(12)
    proto = make(rng)
    cls, space = type(proto), proto.label_space
    arrays = [getattr(proto, name).copy() for name in proto._names]
    model = cls(*arrays, space)
    before = model.params
    for a in arrays:
        a += 1.0  # the constructor copied the caller's arrays
    assert model.params.tobytes() == before.tobytes()

    p = model.params
    g = rng.normal(size=p.size)
    model.apply_grad(g, 0.3)
    assert p.tobytes() == before.tobytes()  # params handed out a copy
    twin = cls(*arrays, space)
    twin.set_params(before)
    twin.set_params(twin.params - 0.3 * g)
    assert model.params.tobytes() == twin.params.tobytes()

    flat = rng.normal(size=p.size)
    model.set_params(flat)
    flat[:] = 0.0  # set_params copied its argument
    assert not np.any(model.params == 0.0)
    # the named arrays are views of the flat buffer, in _names order
    views = np.concatenate([getattr(model, name).ravel() for name in model._names])
    assert views.tobytes() == model.params.tobytes()


@pytest.mark.parametrize("make", [random_softmax, random_mlp], ids=["softmax", "mlp"])
def test_copies_view_their_own_buffers(make):
    # a copy's named arrays and scratch gradient follow its own flat buffers
    rng = np.random.default_rng(13)
    model = make(rng)
    X = rng.normal(size=(4, 3))
    U = rng.normal(size=(4, model.num_classes_local))
    for twin in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        flat = rng.normal(size=model.params.size)
        twin.set_params(flat)
        model.set_params(flat)
        assert twin.posterior(X).tobytes() == model.posterior(X).tobytes()
        assert twin.posterior_grad(X, U).tobytes() == model.posterior_grad(X, U).tobytes()
