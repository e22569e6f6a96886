"""Objective evaluation, decisions, party weights, and the max-model baseline."""

import numpy as np
import pytest

from conftest import (
    ConstantClassifier,
    ConstantDensity,
    LinearDensity,
    decide_with_weights,
    random_simplex,
)
from densemble import ensemble
from densemble.classifiers import MlpClassifier, SoftmaxRegression
from densemble.density import gmm_fit, kde_fit
from densemble.ensemble import (
    EnsembleModel,
    PartyModel,
    build_ensemble,
    decide,
    evaluate_objective,
    lambda_weights,
    max_model_decide,
    posterior,
    score_chunks,
)


def two_party_example():
    """Two parties, two classes, densities fixed at log 1 and log e^-1."""
    parties = [
        PartyModel(ConstantClassifier([0.9, 0.1], (0, 1)), ConstantDensity(0.0), 1),
        PartyModel(ConstantClassifier([0.2, 0.8], (0, 1)), ConstantDensity(-1.0), 1),
    ]
    return build_ensemble(parties, num_classes=2)


def test_build_ensemble_priors():
    mk = lambda size: PartyModel(ConstantClassifier([1.0], (0,)), ConstantDensity(0.0), size)
    assert np.allclose(build_ensemble([mk(1000), mk(1000)]).priors, [0.5, 0.5])
    assert np.allclose(build_ensemble([mk(600), mk(200), mk(200)]).priors, [0.6, 0.2, 0.2])
    assert np.allclose(build_ensemble([mk(7)]).priors, [1.0])


def test_build_ensemble_empty_rejected():
    with pytest.raises(ValueError):
        build_ensemble([])
    with pytest.raises(ValueError):
        PartyModel(ConstantClassifier([1.0], (0,)), ConstantDensity(0.0), 0)


def test_objective_two_party_frozen_values():
    # hand evaluation: J0 = 0.5*1*0.9 + 0.5*e^-1*0.2, J1 = 0.5*1*0.1 + 0.5*e^-1*0.8
    ens = two_party_example()
    om = evaluate_objective(ens, np.zeros((1, 2)))
    e1 = np.exp(-1.0)
    assert np.isclose(om.objective[0, 0], 0.45 + 0.1 * e1, atol=1e-12)
    assert np.isclose(om.objective[0, 1], 0.05 + 0.4 * e1, atol=1e-12)
    # five-decimal values: (0.48679, 0.19715)
    assert round(float(om.objective[0, 0]), 5) == 0.48679
    assert round(float(om.objective[0, 1]), 5) == 0.19715
    assert decide(om)[0] == 0


@pytest.mark.parametrize("N", [1, 3, 7, 8, 11])
def test_objective_weights_use_numpy_row_max_bitwise(N):
    # the chained row max over fewer than 8 parties, and numpy's own from 8
    # on, give the bits of ndarray.max, -inf rows (no party has mass) too
    rng = np.random.default_rng(N)
    parties = [
        PartyModel(ConstantClassifier([0.5, 0.5], (0, 1)), ConstantDensity(0.0), int(size))
        for size in rng.integers(1, 50, N)
    ]
    ens = build_ensemble(parties, num_classes=2)
    L = rng.normal(size=(300, N)) * 100.0
    L[:4] = -np.inf
    with np.errstate(invalid="ignore"):
        om = evaluate_objective(ens, np.zeros((300, 2)), loglik=L)
        want = ens.priors[None, :] * np.exp(L - L.max(axis=1)[:, None])
    assert om.weights.tobytes() == want.tobytes()


def test_objective_weight_invariants():
    rng = np.random.default_rng(0)
    parties = [
        PartyModel(
            ConstantClassifier(random_simplex(rng, 3), (0, 1, 2)),
            LinearDensity(rng.normal(size=2)),
            int(rng.integers(1, 50)),
        )
        for _ in range(4)
    ]
    ens = build_ensemble(parties, num_classes=3)
    X = rng.normal(size=(50, 2))
    om = evaluate_objective(ens, X)
    assert np.all(om.weights >= 0)
    assert np.all(om.weights <= ens.priors[None, :] + 1e-15)
    best = np.argmax(om.loglik, axis=1)
    assert np.array_equal(om.weights[np.arange(50), best], ens.priors[best])
    want = np.einsum("njk,nj->nk", om.posteriors, om.weights)
    assert np.allclose(om.objective, want, atol=1e-15)


def test_single_party_degeneracy():
    rng = np.random.default_rng(1)
    probs = random_simplex(rng, 3)
    party = PartyModel(ConstantClassifier(probs, (0, 1, 2)), LinearDensity([1.0, -2.0]), 5)
    ens = build_ensemble([party], num_classes=3)
    X = rng.normal(size=(20, 2))
    om = evaluate_objective(ens, X)
    assert np.allclose(om.objective, np.tile(probs, (20, 1)), atol=1e-15)
    assert np.array_equal(decide(om), np.full(20, int(np.argmax(probs))))
    assert np.array_equal(decide(om), max_model_decide(om))


def test_shift_invariance_of_objective_and_decisions():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 2))
    for c in (-100.0, 0.0, 37.0, 700.0):
        parties_a, parties_b = [], []
        for j in range(3):
            probs = random_simplex(rng, 4)
            a = rng.normal(size=2)
            b = float(rng.normal())
            size = int(rng.integers(1, 30))
            parties_a.append(
                PartyModel(ConstantClassifier(probs, (0, 1, 2, 3)), LinearDensity(a, b), size)
            )
            parties_b.append(
                PartyModel(ConstantClassifier(probs, (0, 1, 2, 3)), LinearDensity(a, b + c), size)
            )
        ens_a = build_ensemble(parties_a, num_classes=4)
        ens_b = build_ensemble(parties_b, num_classes=4)
        Ja = evaluate_objective(ens_a, X).objective
        Jb = evaluate_objective(ens_b, X).objective
        assert np.allclose(Ja, Jb, atol=1e-12)
        assert np.array_equal(
            decide(evaluate_objective(ens_a, X)), decide(evaluate_objective(ens_b, X))
        )


def test_prior_scale_invariance():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 2))
    specs = [(random_simplex(rng, 3), rng.normal(size=2)) for _ in range(3)]
    sizes = [2, 5, 13]
    builds = []
    for mult in (1, 10):
        parties = [
            PartyModel(ConstantClassifier(p, (0, 1, 2)), LinearDensity(a), s * mult)
            for (p, a), s in zip(specs, sizes)
        ]
        builds.append(build_ensemble(parties, num_classes=3))
    assert np.allclose(builds[0].priors, builds[1].priors, atol=1e-15)
    assert np.array_equal(
        decide(evaluate_objective(builds[0], X)), decide(evaluate_objective(builds[1], X))
    )


def test_missing_class_never_wins():
    rng = np.random.default_rng(4)
    parties = [
        PartyModel(ConstantClassifier(random_simplex(rng, 2), (0, 1)), LinearDensity(rng.normal(size=2)), 3),
        PartyModel(ConstantClassifier(random_simplex(rng, 2), (1, 2)), LinearDensity(rng.normal(size=2)), 4),
    ]
    ens = build_ensemble(parties, num_classes=4)
    X = rng.normal(size=(300, 2))
    om = evaluate_objective(ens, X)
    assert np.all(om.objective[:, 3] == 0.0)
    assert np.all(decide(om) != 3)


def test_lambda_weights_uniform_when_symmetric():
    parties = [
        PartyModel(ConstantClassifier([1.0, 0.0], (0, 1)), ConstantDensity(-2.0), 10),
        PartyModel(ConstantClassifier([0.0, 1.0], (0, 1)), ConstantDensity(-2.0), 10),
    ]
    ens = build_ensemble(parties, num_classes=2)
    lam = lambda_weights(evaluate_objective(ens, np.zeros(2)))[0]
    assert np.allclose(lam, [0.5, 0.5], atol=1e-15)


def test_lambda_weights_frozen_example():
    # softmax of (0, -1): 1/(1+e^-1) = 0.73106 to five decimals
    ens = two_party_example()
    lam = lambda_weights(evaluate_objective(ens, np.zeros(2)))[0]
    want = 1.0 / (1.0 + np.exp(-1.0))
    assert np.isclose(lam[0], want, atol=1e-12)
    assert round(float(lam[0]), 5) == 0.73106
    assert round(float(lam[1]), 5) == 0.26894


def test_lambda_weights_floor_dominance():
    parties = [
        PartyModel(ConstantClassifier([1.0, 0.0], (0, 1)), ConstantDensity(-745.0), 1),
        PartyModel(ConstantClassifier([0.0, 1.0], (0, 1)), ConstantDensity(-1.0), 1),
    ]
    ens = build_ensemble(parties, num_classes=2)
    lam = lambda_weights(evaluate_objective(ens, np.zeros(2)))[0]
    assert lam[1] > 1.0 - 1e-12
    assert lam[0] < 1e-300


def test_lambda_weights_simplex_property():
    rng = np.random.default_rng(5)
    parties = [
        PartyModel(
            ConstantClassifier(random_simplex(rng, 3), (0, 1, 2)),
            LinearDensity(rng.normal(size=2), float(rng.normal())),
            int(rng.integers(1, 20)),
        )
        for _ in range(5)
    ]
    ens = build_ensemble(parties, num_classes=3)
    lam = lambda_weights(evaluate_objective(ens, rng.normal(size=(1000, 2))))
    assert np.all(lam >= 0)
    assert np.allclose(lam.sum(axis=1), 1.0, atol=1e-12)


def test_normalized_posterior_rows_sum_to_one():
    rng = np.random.default_rng(6)
    parties = [
        PartyModel(
            ConstantClassifier(random_simplex(rng, 4), (0, 1, 2, 3)),
            LinearDensity(rng.normal(size=2)),
            int(rng.integers(1, 9)),
        )
        for _ in range(3)
    ]
    ens = build_ensemble(parties, num_classes=4)
    P = posterior(evaluate_objective(ens, rng.normal(size=(100, 2))))
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(P >= 0)


def test_decide_tie_breaks_to_lowest_class():
    party = PartyModel(ConstantClassifier([0.5, 0.5], (0, 1)), ConstantDensity(0.0), 1)
    ens = build_ensemble([party], num_classes=2)
    assert decide(evaluate_objective(ens, np.zeros((3, 2))))[0] == 0


def test_max_model_two_party_example():
    # first party has the higher density (0 > -1); it alone labels the query
    ens = two_party_example()
    assert max_model_decide(evaluate_objective(ens, np.zeros((1, 2))))[0] == 0


def test_max_model_matches_delta_weights():
    rng = np.random.default_rng(7)
    parties = [
        PartyModel(
            ConstantClassifier(random_simplex(rng, 2), tuple(sorted(rng.choice(4, size=2, replace=False)))),
            LinearDensity(rng.normal(size=2), float(rng.normal())),
            int(rng.integers(1, 40)),
        )
        for _ in range(4)
    ]
    ens = build_ensemble(parties, num_classes=4)
    X = rng.normal(size=(1000, 2))
    om = evaluate_objective(ens, X)
    best = np.argmax(om.loglik, axis=1)
    delta = np.zeros((1000, 4))
    delta[np.arange(1000), best] = 1.0
    assert np.array_equal(decide_with_weights(om, delta), max_model_decide(om))


def test_agreeing_parties_decide_their_class():
    parties = [
        PartyModel(ConstantClassifier([0.0, 0.0, 1.0], (0, 1, 2)), LinearDensity([1.0, 0.0]), 2),
        PartyModel(ConstantClassifier([0.0, 0.0, 1.0], (0, 1, 2)), LinearDensity([-1.0, 0.5]), 3),
    ]
    ens = build_ensemble(parties, num_classes=3)
    X = np.random.default_rng(8).normal(size=(20, 2))
    assert np.all(decide(evaluate_objective(ens, X)) == 2)


def test_queries_must_be_finite():
    ens = two_party_example()
    with pytest.raises(ValueError, match="finite"):
        evaluate_objective(ens, np.array([[np.nan, 0.0]]))


def test_ensemble_model_validation():
    party = PartyModel(ConstantClassifier([1.0], (0,)), ConstantDensity(0.0), 1)
    with pytest.raises(ValueError):
        EnsembleModel([party], np.array([0.5]), 1)
    with pytest.raises(ValueError):
        EnsembleModel([party], np.array([0.5, 0.5]), 1)
    with pytest.raises(ValueError, match="label_space"):
        EnsembleModel([party], np.array([1.0]), 0)


def mixed_ensemble(rng):
    """A softmax party with a KDE and an MLP party with a GMM, three classes."""
    parties = [
        PartyModel(
            SoftmaxRegression.init_random(2, (0, 1), rng),
            kde_fit(rng.normal(size=(30, 2)), 0.4),
            30,
        ),
        PartyModel(
            MlpClassifier.init_random(2, (1, 2), 8, rng),
            gmm_fit(rng.normal(size=(40, 2)) + 1.0, 2, seed=0),
            40,
        ),
    ]
    return build_ensemble(parties, num_classes=3)


def test_score_chunks_match_one_evaluation(monkeypatch):
    # 2 x 7 + 3 rows in chunks of 7: every rule, table and row of one
    # whole-batch evaluation, the objective to rounding
    rng = np.random.default_rng(11)
    ens = mixed_ensemble(rng)
    X = rng.normal(size=(17, 2)) * 2.0
    whole = evaluate_objective(ens, X)
    monkeypatch.setattr(ensemble, "SCORE_CHUNK_ROWS", 7)
    chunks = list(score_chunks(ens, X))
    assert [(rows.start, rows.stop) for rows, _ in chunks] == [(0, 7), (7, 14), (14, 17)]
    assert [len(om.objective) for _, om in chunks] == [7, 7, 3]
    joined = {
        name: np.concatenate([getattr(om, name) for _, om in chunks])
        for name in ("posteriors", "loglik", "weights", "objective")
    }
    assert np.array_equal(joined["loglik"], whole.loglik)
    for name in ("posteriors", "weights", "objective"):
        np.testing.assert_allclose(joined[name], getattr(whole, name), rtol=1e-12, atol=0)
    assert np.array_equal(np.concatenate([decide(om) for _, om in chunks]), decide(whole))
    assert np.array_equal(
        np.concatenate([max_model_decide(om) for _, om in chunks]), max_model_decide(whole)
    )


def test_score_chunks_of_one_chunk_is_one_evaluation():
    rng = np.random.default_rng(12)
    ens = mixed_ensemble(rng)
    X = rng.normal(size=(50, 2))
    ((rows, om),) = score_chunks(ens, X)
    whole = evaluate_objective(ens, X)
    assert (rows.start, rows.stop) == (0, 50)
    for name in ("posteriors", "loglik", "weights", "objective"):
        assert np.array_equal(getattr(om, name), getattr(whole, name))


def test_score_chunks_reject_non_finite_queries_before_scoring():
    ens = mixed_ensemble(np.random.default_rng(13))
    X = np.zeros((3, 2))
    X[2, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        next(score_chunks(ens, X))
