"""Exact results at the edges with real classifiers and estimators."""

import numpy as np

from densemble.classifiers import MlpClassifier, SoftmaxRegression, train
from densemble.datasets import LocalDataset
from densemble.density import LOG_DENSITY_FLOOR, kde_fit
from densemble.ensemble import PartyModel, build_ensemble, decide, evaluate_objective
from densemble.serialize import load_ensemble, save_ensemble


def _shard(rng, center, label, n=20):
    X = rng.normal(size=(n, 2)) * 0.3 + center
    return LocalDataset(X, np.full(n, label), (label,), 4)


def test_one_class_parties_posterior_one_and_zero_gradient(tmp_path):
    rng = np.random.default_rng(0)
    shards = [_shard(rng, (0.0, 0.0), 1), _shard(rng, (3.0, 3.0), 3)]
    models = [
        SoftmaxRegression.init_random(2, (1,), rng),
        MlpClassifier.init_random(2, (3,), 5, rng),
    ]
    parties = []
    for clf, shard in zip(models, shards):
        before = clf.params
        P = clf.posterior(shard.features)
        assert np.array_equal(P, np.ones((len(shard), 1)))
        # the cross-entropy gradient train() takes is exactly zero
        g = clf.posterior_grad(shard.features, -1.0 / P)
        assert np.array_equal(g, np.zeros_like(before))
        train(clf, shard, lr=0.5, epochs=3, batch=8, seed=0)
        assert clf.params.tobytes() == before.tobytes()
        parties.append(PartyModel(clf, kde_fit(shard.features, 0.3), len(shard)))
    ens = load_ensemble(save_ensemble(build_ensemble(parties, num_classes=4), tmp_path))
    for back, party in zip(ens.parties, parties):
        assert back.classifier.params.tobytes() == party.classifier.params.tobytes()
    X = np.vstack([s.features for s in shards])
    om = evaluate_objective(ens, X)
    assert np.array_equal(om.posteriors[:, 0], np.tile([0.0, 1.0, 0.0, 0.0], (len(X), 1)))
    assert np.array_equal(om.posteriors[:, 1], np.tile([0.0, 0.0, 0.0, 1.0], (len(X), 1)))
    assert np.array_equal(decide(om), np.concatenate([s.labels for s in shards]))


def test_all_floored_batch_weights_are_priors():
    rng = np.random.default_rng(1)
    shards = [
        LocalDataset(rng.normal(size=(30, 2)), rng.integers(0, 2, 30), (0, 1), 3),
        LocalDataset(rng.normal(size=(10, 2)) + 2.0, rng.integers(1, 3, 10), (1, 2), 3),
    ]
    models = [
        SoftmaxRegression.init_random(2, (0, 1), rng),
        MlpClassifier.init_random(2, (1, 2), 6, rng),
    ]
    parties = []
    for clf, shard in zip(models, shards):
        train(clf, shard, lr=0.1, epochs=5, batch=8, seed=0)
        parties.append(PartyModel(clf, kde_fit(shard.features, 0.1), len(shard)))
    ens = build_ensemble(parties, num_classes=3)
    X = np.array([[1e3, 1e3], [-1e3, 5e2], [0.0, -2e3]])
    om = evaluate_objective(ens, X)
    assert np.all(om.loglik == LOG_DENSITY_FLOOR)
    assert np.array_equal(om.weights, np.tile(ens.priors, (len(X), 1)))
    weighted = np.einsum("njk,j->nk", om.posteriors, ens.priors)
    assert np.array_equal(decide(om), np.argmax(weighted, axis=1))
