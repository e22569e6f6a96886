"""Calibration loss, gradient flow, clipping, and the training loop."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    ConstantClassifier,
    ConstantDensity,
    LinearDensity,
    mpce_loss,
    posterior_grad,
    random_simplex,
    set_params,
)
from densemble.calibration import (
    PROBABILITY_FLOOR,
    CalibrationConfig,
    ClipConfig,
    TraceRow,
    calibrate,
    clip_and_noise,
    ensemble_accuracy,
    _label_positions,
    _plan,
    _step_grad,
    mpce_grad,
)
from densemble.classifiers import (
    ClassifierStack,
    FlatClassifier,
    MlpClassifier,
    SoftmaxRegression,
)
from densemble.datasets import LocalDataset, generate_toy
from densemble.density import GMM_VARIANCE_FLOOR, GmmModel, GmmStack, KdeModel, gmm_fit, kde_fit
from densemble.ensemble import PartyModel, build_ensemble, evaluate_objective
from densemble.harness import load_config, prepare_data, stream_seeds


def softmax(z):
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def _batch_rows(plan, ens, y, scope):
    """``_step_grad``'s label positions and mixture masks for labels y."""
    pos = _label_positions(ens, y)
    return pos, plan.masks(pos, scope)


def make_party(rng, classes, kind="softmax", dim=2, hidden=5, center=None):
    if kind == "softmax":
        clf = SoftmaxRegression(
            rng.normal(size=(len(classes), dim)), rng.normal(size=len(classes)), classes
        )
    else:
        clf = MlpClassifier(
            0.5 * rng.normal(size=(hidden, dim)),
            0.1 * rng.normal(size=hidden),
            0.5 * rng.normal(size=(len(classes), hidden)),
            0.1 * rng.normal(size=len(classes)),
            classes,
        )
    pts = rng.normal(size=(12, dim))
    if center is not None:
        pts = pts + np.asarray(center)
    est = kde_fit(pts, 0.8)
    return PartyModel(clf, est, int(rng.integers(1, 30)))


def all_params(ens):
    return [p.classifier.params.copy() for p in ens.parties]


def set_all_params(ens, blocks):
    for party, block in zip(ens.parties, blocks):
        set_params(party.classifier, block)


def test_loss_two_party_frozen_value():
    parties = [
        PartyModel(ConstantClassifier([0.9, 0.1], (0, 1)), ConstantDensity(0.0), 1),
        PartyModel(ConstantClassifier([0.2, 0.8], (0, 1)), ConstantDensity(-1.0), 1),
    ]
    ens = build_ensemble(parties, num_classes=2)
    got = mpce_loss(ens, np.zeros(2), 0)
    want = -np.log(0.45 + 0.1 * np.exp(-1.0))
    assert np.isclose(got.value, want, atol=1e-12)
    assert round(got.value, 5) == 0.71993
    assert np.allclose(got.weights, [0.5, 0.5 * np.exp(-1.0)], atol=1e-15)


def test_single_party_loss_is_cross_entropy():
    rng = np.random.default_rng(0)
    for _ in range(100):
        clf = SoftmaxRegression(rng.normal(size=(3, 2)), rng.normal(size=3), (0, 1, 2))
        party = PartyModel(clf, LinearDensity(rng.normal(size=2)), 4)
        ens = build_ensemble([party], num_classes=3)
        x = rng.normal(size=2)
        y = int(rng.integers(0, 3))
        want = -np.log(softmax(clf.W @ x + clf.b)[y])
        assert abs(mpce_loss(ens, x, y).value - want) < 1e-12


def test_loss_unseen_class_hits_floor():
    party = PartyModel(ConstantClassifier([1.0, 0.0], (0, 1)), ConstantDensity(0.0), 1)
    ens = build_ensemble([party], num_classes=3)
    got = mpce_loss(ens, np.zeros(2), 2)
    assert got.value == -np.log(PROBABILITY_FLOOR)


def test_loss_nonnegative_random():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        parties = [
            PartyModel(
                ConstantClassifier(random_simplex(rng, 3), (0, 1, 2)),
                ConstantDensity(float(rng.uniform(-5, 0))),
                int(rng.integers(1, 20)),
            )
            for _ in range(int(rng.integers(1, 4)))
        ]
        ens = build_ensemble(parties, num_classes=3)
        val = mpce_loss(ens, rng.normal(size=2), int(rng.integers(0, 3))).value
        assert val >= 0.0


def test_loss_label_validation():
    party = PartyModel(ConstantClassifier([1.0], (0,)), ConstantDensity(0.0), 1)
    ens = build_ensemble([party], num_classes=1)
    with pytest.raises(ValueError):
        mpce_loss(ens, np.zeros(2), 1)


@pytest.mark.parametrize("label", [-1, 5])
def test_grad_label_validation(label):
    ens, _ = _small_trained_setup()
    with pytest.raises(ValueError, match=f"label {label} outside"):
        mpce_grad(ens, np.zeros(2), label)


def _fd_mpce_grad(ens, x, y, eps=1e-5):
    """Central finite differences over all classifier parameters."""
    saved = all_params(ens)
    fd_blocks = []
    for j, party in enumerate(ens.parties):
        flat = saved[j].copy()
        fd = np.zeros_like(flat)
        for i in range(len(flat)):
            bump = flat.copy()
            bump[i] += eps
            set_params(party.classifier, bump)
            hi = mpce_loss(ens, x, y).value
            bump[i] -= 2 * eps
            set_params(party.classifier, bump)
            lo = mpce_loss(ens, x, y).value
            fd[i] = (hi - lo) / (2 * eps)
        set_params(party.classifier, flat)
        fd_blocks.append(fd)
    set_all_params(ens, saved)
    return np.concatenate(fd_blocks)


def test_grad_matches_finite_differences_softmax_parties():
    rng = np.random.default_rng(2)
    for trial in range(100):
        parties = [make_party(rng, (0, 1), "softmax"), make_party(rng, (1, 2), "softmax")]
        ens = build_ensemble(parties, num_classes=3)
        x = rng.normal(size=2)
        y = int(rng.integers(0, 3))
        got = mpce_grad(ens, x, y)
        fd = _fd_mpce_grad(ens, x, y)
        denom = max(np.linalg.norm(fd), 1e-8)
        assert np.linalg.norm(got - fd) / denom < 1e-5, f"trial {trial}"


def test_grad_matches_finite_differences_mlp_parties():
    rng = np.random.default_rng(3)
    for trial in range(30):
        parties = [make_party(rng, (0, 1), "mlp"), make_party(rng, (1, 2), "mlp")]
        ens = build_ensemble(parties, num_classes=3)
        x = rng.normal(size=2)
        y = int(rng.integers(0, 3))
        got = mpce_grad(ens, x, y)
        fd = _fd_mpce_grad(ens, x, y)
        denom = max(np.linalg.norm(fd), 1e-8)
        assert np.linalg.norm(got - fd) / denom < 1e-4, f"trial {trial}"


def test_single_party_grad_is_cross_entropy_grad():
    rng = np.random.default_rng(4)
    for _ in range(50):
        clf = SoftmaxRegression(rng.normal(size=(3, 2)), rng.normal(size=3), (0, 1, 2))
        party = PartyModel(clf, LinearDensity(rng.normal(size=2)), 4)
        ens = build_ensemble([party], num_classes=3)
        x = rng.normal(size=2)
        y = int(rng.integers(0, 3))
        got = mpce_grad(ens, x, y)
        # standard softmax cross-entropy gradient, derived independently:
        # dL/dz = p - onehot; dW = outer(dz, x); db = dz
        p = softmax(clf.W @ x + clf.b)
        dz = p.copy()
        dz[y] -= 1.0
        want = np.concatenate([np.outer(dz, x).ravel(), dz])
        assert np.allclose(got, want, atol=1e-10)


def test_floored_party_gets_zero_gradient():
    # the far party's log-density sits at the floor, hundreds of nats below
    # the near party's, so its weight underflows to an exact zero
    rng = np.random.default_rng(5)
    near_clf = SoftmaxRegression(rng.normal(size=(2, 2)), rng.normal(size=2), (0, 1))
    far_clf = SoftmaxRegression(rng.normal(size=(2, 2)), rng.normal(size=2), (0, 1))
    near = PartyModel(near_clf, ConstantDensity(1.0), 10)
    far = PartyModel(far_clf, ConstantDensity(-745.0), 10)
    ens = build_ensemble([near, far], num_classes=2)
    x = np.zeros(2)
    om = evaluate_objective(ens, x[None, :])
    assert om.weights[0, 1] == 0.0
    g = mpce_grad(ens, x, 0)
    n0 = len(near_clf.params)
    assert np.any(g[:n0] != 0.0)
    assert np.all(g[n0:] == 0.0)


def test_higher_weight_same_function_larger_gradient():
    # two parties with identical classifiers; the denser one must update
    # at least as fast on every sample
    rng = np.random.default_rng(6)
    clf_a = SoftmaxRegression(rng.normal(size=(2, 2)), rng.normal(size=2), (0, 1))
    clf_b = SoftmaxRegression(clf_a.W.copy(), clf_a.b.copy(), (0, 1))
    a = PartyModel(clf_a, ConstantDensity(-1.0), 10)
    b = PartyModel(clf_b, ConstantDensity(-3.0), 10)
    ens = build_ensemble([a, b], num_classes=2)
    n0 = len(clf_a.params)
    for _ in range(50):
        x = rng.normal(size=2)
        y = int(rng.integers(0, 2))
        om = evaluate_objective(ens, x[None, :])
        assert om.weights[0, 0] > om.weights[0, 1]
        g = mpce_grad(ens, x, y)
        assert np.linalg.norm(g[:n0]) >= np.linalg.norm(g[n0:])


def test_density_blocks_appended_when_enabled():
    rng = np.random.default_rng(7)
    gmm = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
    clf = SoftmaxRegression(rng.normal(size=(2, 2)), rng.normal(size=2), (0, 1))
    party = PartyModel(clf, gmm, 3)
    ens = build_ensemble([party], num_classes=2)
    x = rng.normal(size=2)
    plain = mpce_grad(ens, x, 0)
    with_mu = mpce_grad(ens, x, 0, update_density=True)
    assert len(with_mu) == len(plain) + len(gmm.params)
    one = GmmStack([gmm])
    want = one.nll_grad(one.forward(x[None, :])[0])[0]
    assert np.allclose(with_mu[-len(gmm.params):], want, atol=1e-12)


def test_density_scope_matching_skips_foreign_labels():
    rng = np.random.default_rng(8)
    gmm = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
    clf = SoftmaxRegression(rng.normal(size=(2, 2)), rng.normal(size=2), (0, 1))
    other = ConstantClassifier([1.0], (2,))
    ens = build_ensemble(
        [PartyModel(clf, gmm, 3), PartyModel(other, ConstantDensity(0.0), 3)],
        num_classes=3,
    )
    x = rng.normal(size=2)
    g_match = mpce_grad(ens, x, 2, update_density=True, density_scope="matching")
    g_all = mpce_grad(ens, x, 2, update_density=True, density_scope="all")
    mu_len = len(gmm.params)
    # label 2 is outside the first party's space: matching scope zeroes its
    # density block (the second party has no density parameters at all)
    assert np.all(g_match[-mu_len:] == 0.0)
    assert np.any(g_all[-mu_len:] != 0.0)


def test_clip_norm_bound():
    rng = np.random.default_rng(9)
    cfg = ClipConfig(clip_norm=1.0)
    for _ in range(1000):
        g = rng.normal(size=int(rng.integers(1, 30))) * float(rng.uniform(0.01, 50))
        out = clip_and_noise(g, cfg)
        assert np.linalg.norm(out) <= 1.0 * (1 + 1e-12)


def test_clip_exact_cases():
    g = np.array([6.0, 8.0])
    out = clip_and_noise(g, ClipConfig(clip_norm=1.0))
    assert np.isclose(np.linalg.norm(out), 1.0, rtol=1e-12)
    assert np.allclose(out, g / 10.0, atol=1e-15)
    small = np.array([0.3, 0.4])
    assert np.array_equal(clip_and_noise(small, ClipConfig(clip_norm=1.0)), small)


def test_clip_noise_standard_deviation():
    cfg = ClipConfig(clip_norm=1.0, noise_sigma=0.5, seed=123)
    out = clip_and_noise(np.zeros(10000), cfg)
    assert abs(out.std() - 0.5) / 0.5 < 0.03
    assert abs(out.mean()) < 0.02


def test_clip_noise_deterministic_per_seed():
    cfg = ClipConfig(clip_norm=2.0, noise_sigma=0.1, seed=7)
    g = np.ones(50)
    assert np.array_equal(clip_and_noise(g, cfg), clip_and_noise(g, cfg))


def test_clip_config_validation():
    with pytest.raises(ValueError):
        ClipConfig(clip_norm=0.0)
    with pytest.raises(ValueError):
        ClipConfig(clip_norm=1.0, noise_sigma=-0.1)
    with pytest.raises(ValueError, match="finite"):
        clip_and_noise(np.array([np.inf]), ClipConfig(clip_norm=1.0))


def _small_trained_setup(rng_seed=0):
    full = generate_toy(rng_seed, 300, 3)
    rng = np.random.default_rng(rng_seed)
    shard_a = full.subset(np.where(np.isin(full.labels, [0, 1]))[0], (0, 1))
    shard_b = full.subset(np.where(np.isin(full.labels, [1, 2]))[0], (1, 2))
    parties = []
    for shard in (shard_a, shard_b):
        clf = SoftmaxRegression.init_random(2, shard.label_space, rng)
        est = kde_fit(shard.features, 0.3)
        parties.append(PartyModel(clf, est, len(shard)))
    return build_ensemble(parties, num_classes=3), full


def test_calibrate_zero_steps_noop():
    ens, data = _small_trained_setup()
    before = all_params(ens)
    _, trace = calibrate(ens, data, CalibrationConfig(steps=0), seed=0)
    assert trace == []
    for prev, now in zip(before, all_params(ens)):
        assert np.array_equal(prev, now)


def test_calibrate_improves_loss_and_accuracy():
    ens, data = _small_trained_setup()
    acc0 = ensemble_accuracy(ens, data)
    cfg = CalibrationConfig(lr=0.05, batch=32, steps=200, eval_every=200)
    _, trace = calibrate(ens, data, cfg, seed=1, test=data)
    first = np.mean([r.loss for r in trace[:20]])
    last = np.mean([r.loss for r in trace[-20:]])
    assert last < first
    assert trace[-1].test_accuracy is not None
    assert trace[-1].test_accuracy >= acc0


def test_calibrate_deterministic():
    traces = []
    for _ in range(2):
        ens, data = _small_trained_setup()
        _, trace = calibrate(ens, data, CalibrationConfig(steps=25, batch=16), seed=3)
        traces.append([(r.step, r.loss) for r in trace])
    assert traces[0] == traces[1]


def test_calibrate_huge_clip_norm_identical_to_disabled():
    runs = []
    for clip in (None, ClipConfig(clip_norm=1e18)):
        ens, data = _small_trained_setup()
        cfg = CalibrationConfig(steps=30, batch=16, clip=clip)
        _, trace = calibrate(ens, data, cfg, seed=5)
        runs.append(([r.loss for r in trace], all_params(ens)))
    assert runs[0][0] == runs[1][0]
    for a, b in zip(runs[0][1], runs[1][1]):
        assert np.array_equal(a, b)


def test_calibrate_with_noise_changes_trajectory_but_stays_finite():
    ens, data = _small_trained_setup()
    cfg = CalibrationConfig(
        steps=30, batch=16, clip=ClipConfig(clip_norm=1.0, noise_sigma=0.3, seed=11)
    )
    _, trace = calibrate(ens, data, cfg, seed=5)
    assert all(np.isfinite(r.loss) for r in trace)


def test_calibrate_updates_gmm_when_enabled():
    rng = np.random.default_rng(12)
    full = generate_toy(12, 200, 2)
    gmm = GmmModel(np.array([0.5, 0.5]), rng.normal(size=(2, 2)), np.ones((2, 2)))
    clf = SoftmaxRegression.init_random(2, (0, 1), rng)
    ens = build_ensemble([PartyModel(clf, gmm, len(full))], num_classes=2)
    before = gmm.params.copy()
    cfg = CalibrationConfig(lr=0.01, steps=20, batch=16, update_density=True)
    calibrate(ens, full, cfg, seed=0)
    after = ens.parties[0].estimator.params
    assert not np.array_equal(before, after)
    assert np.all(np.isfinite(after))


def test_calibrate_validation():
    ens, data = _small_trained_setup()
    empty = LocalDataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), (), 3)
    with pytest.raises(ValueError):
        calibrate(ens, empty, CalibrationConfig(steps=1))
    bad = LocalDataset(np.zeros((2, 2)), np.array([0, 7]), (0, 7), 8)
    with pytest.raises(ValueError):
        calibrate(ens, bad, CalibrationConfig(steps=1))
    with pytest.raises(ValueError):
        CalibrationConfig(lr=0.0)
    with pytest.raises(ValueError):
        CalibrationConfig(batch=0)
    with pytest.raises(ValueError):
        CalibrationConfig(density_scope="sometimes")


def test_theta_grads_match_per_sample_loop_reference():
    rng = np.random.default_rng(21)
    ens = build_ensemble(
        [make_party(rng, (0, 1)), make_party(rng, (1, 3), kind="mlp"), make_party(rng, (2,))],
        num_classes=4,
    )
    X = rng.normal(size=(16, 2))
    y = rng.integers(0, 4, 16)
    plan = _plan(ens, update_density=False)
    got_score, got = _step_grad(ens, plan, X, y, *_batch_rows(plan, ens, y, "matching"))
    om = evaluate_objective(ens, X)
    score = np.maximum(om.objective[np.arange(len(y)), y], PROBABILITY_FLOOR)
    assert got_score.tobytes() == score.tobytes()
    coeff = om.weights / score[:, None]
    start = 0
    for j, party in enumerate(ens.parties):
        space = party.classifier.label_space
        U = np.zeros((len(y), len(space)))
        for i, label in enumerate(y):
            if label in space:
                U[i, space.index(label)] = -coeff[i, j]
        want = posterior_grad(party.classifier, X, U)
        assert got[start : start + len(want)].tobytes() == want.tobytes()
        start += len(want)
    assert start == len(got)


def _count_test_set_scoring(monkeypatch, cls, test):
    """Count ``cls.log_density`` calls on the held-out set's rows."""
    calls = []
    original = cls.log_density

    def counted(self, X):
        if np.shape(X) == test.features.shape and np.array_equal(X, test.features):
            calls.append(id(self))
        return original(self, X)

    monkeypatch.setattr(cls, "log_density", counted)
    return calls


def test_calibrate_scores_fixed_test_densities_once(monkeypatch):
    ens, data = _small_trained_setup()
    test = data.subset(np.arange(0, len(data), 3), data.label_space)
    cfg = CalibrationConfig(steps=10, batch=16, eval_every=2)
    calls = _count_test_set_scoring(monkeypatch, KdeModel, test)
    _, trace = calibrate(ens, data, cfg, seed=2, test=test)
    assert sum(r.test_accuracy is not None for r in trace) == 5
    assert sorted(calls) == sorted(id(p.estimator) for p in ens.parties)


def test_calibrate_rescores_updated_gmm_test_densities(monkeypatch):
    rng = np.random.default_rng(12)
    full = generate_toy(12, 200, 2)
    test = full.subset(np.arange(0, len(full), 4), full.label_space)
    gmm = GmmModel(np.array([0.5, 0.5]), rng.normal(size=(2, 2)), np.ones((2, 2)))
    clf = SoftmaxRegression.init_random(2, (0, 1), rng)
    ens = build_ensemble([PartyModel(clf, gmm, len(full))], num_classes=2)
    calls = _count_test_set_scoring(monkeypatch, GmmModel, test)
    stacked = _count_test_set_scoring(monkeypatch, GmmStack, test)
    cfg = CalibrationConfig(lr=0.01, steps=10, batch=16, eval_every=2, update_density=True)
    calibrate(ens, full, cfg, seed=0, test=test)
    # one stacked scoring per evaluation; the mixture's own method never runs
    assert len(stacked) == 5 and calls == []
    stacked.clear()
    calibrate(ens, full, replace(cfg, update_density=False), seed=0, test=test)
    # fixed densities: the mixture's own method scores the held-out set once,
    # and the one stacked scoring is the stack of one that method runs
    assert calls == [id(gmm)] and len(stacked) == 1


def _count_scoring(monkeypatch, cls, name="log_density"):
    """Record the row count of every ``cls.<name>`` call."""
    rows = []
    original = getattr(cls, name)

    def counted(self, X):
        rows.append(len(X))
        return original(self, X)

    monkeypatch.setattr(cls, name, counted)
    return rows


def test_calibrate_scores_fixed_train_densities_once(monkeypatch):
    ens, data = _small_trained_setup()
    test = data.subset(np.arange(0, len(data), 3), data.label_space)
    rows = _count_scoring(monkeypatch, KdeModel)
    calibrate(ens, data, CalibrationConfig(steps=0), seed=2, test=test)
    assert rows == []
    calibrate(ens, data, CalibrationConfig(steps=10, batch=16, eval_every=2), seed=2, test=test)
    assert sorted(rows) == sorted([len(data), len(test)] * ens.num_parties)


def test_calibrate_rescores_updated_gmm_train_batches(monkeypatch):
    rng = np.random.default_rng(12)
    full = generate_toy(12, 200, 2)
    gmm = GmmModel(np.array([0.5, 0.5]), rng.normal(size=(2, 2)), np.ones((2, 2)))
    clf = SoftmaxRegression.init_random(2, (0, 1), rng)
    ens = build_ensemble([PartyModel(clf, gmm, len(full))], num_classes=2)
    rows = _count_scoring(monkeypatch, GmmModel)
    stacked = _count_scoring(monkeypatch, GmmStack, "forward")
    cfg = CalibrationConfig(lr=0.01, steps=10, batch=16, update_density=True)
    calibrate(ens, full, cfg, seed=0)
    assert stacked == [16] * 10 and rows == []
    stacked.clear()
    calibrate(ens, full, replace(cfg, update_density=False), seed=0)
    # scored once, as a stack of one, and never again per batch
    assert rows == [len(full)] and stacked == [len(full)]


def _fresh_scoring_calibrate(ens, train, cfg, seed, test=None):
    """``calibrate`` without clipping, scoring every batch's and every
    held-out evaluation's log-densities afresh and stepping one model at a
    time, as a stack of one; returns the trace."""
    rng = np.random.default_rng(seed)
    trace = []
    for step in range(1, cfg.steps + 1):
        sel = rng.choice(len(train), size=min(cfg.batch, len(train)), replace=False)
        X, y = train.features[sel], train.labels[sel]
        plan = _plan(ens, cfg.update_density)
        score, grad = _step_grad(ens, plan, X, y, *_batch_rows(plan, ens, y, cfg.density_scope))
        flat = grad / len(sel)
        blocks = np.arange(len(flat))
        for cols, stack, block in plan.classifiers + plan.mixtures:
            for model, rows in zip(stack.models, blocks[block].reshape(len(cols), -1)):
                type(stack)([model]).apply_grad(flat[rows][None], cfg.lr)
        acc = None
        if test is not None and (step % cfg.eval_every == 0 or step == cfg.steps):
            acc = ensemble_accuracy(ens, test)
        trace.append(TraceRow(step, float(np.mean(-np.log(score))), acc))
    return trace


@pytest.mark.parametrize("preset", ["toy3", "splitA"])
def test_cached_train_densities_match_fresh_scoring_bitwise(preset):
    cfg = load_config(preset)
    train, _, shards = prepare_data(cfg, stream_seeds(0, len(cfg.parties)))

    def raw_ensemble():
        rng = np.random.default_rng(0)
        return build_ensemble(
            [
                PartyModel(
                    SoftmaxRegression.init_random(2, shard.label_space, rng),
                    kde_fit(shard.features, pcfg.estimator.bandwidth),
                    len(shard),
                )
                for pcfg, shard in zip(cfg.parties, shards)
            ],
            num_classes=cfg.data.num_classes,
        )

    cal = CalibrationConfig(lr=0.05, batch=64, steps=40)
    cached, trace = calibrate(raw_ensemble(), train, cal, seed=4)
    fresh = raw_ensemble()
    assert trace == _fresh_scoring_calibrate(fresh, train, cal, seed=4)
    for a, b in zip(all_params(cached), all_params(fresh)):
        assert a.tobytes() == b.tobytes()


def test_calibrate_scores_kde_parties_once_under_update_density(monkeypatch):
    # toy3 with party 2 on a 4-component GMM: only the mixture trains, so
    # the two KDE parties score the train and the held-out set once each
    cfg = load_config("toy3")
    train, test, shards = prepare_data(cfg, stream_seeds(0, len(cfg.parties)))

    def mixed_ensemble():
        rng = np.random.default_rng(0)
        parties = []
        for j, (pcfg, shard) in enumerate(zip(cfg.parties, shards)):
            est = (
                gmm_fit(shard.features, 4, seed=j)
                if j == 2
                else kde_fit(shard.features, pcfg.estimator.bandwidth)
            )
            clf = SoftmaxRegression.init_random(2, shard.label_space, rng)
            parties.append(PartyModel(clf, est, len(shard)))
        return build_ensemble(parties, num_classes=cfg.data.num_classes)

    cal = CalibrationConfig(lr=0.05, batch=64, steps=20, eval_every=5, update_density=True)
    fresh = mixed_ensemble()
    want = _fresh_scoring_calibrate(fresh, train, cal, seed=4, test=test)
    cached = mixed_ensemble()
    rows = _count_scoring(monkeypatch, KdeModel)
    _, trace = calibrate(cached, train, cal, seed=4, test=test)
    assert sorted(rows) == sorted([len(train), len(test)] * 2)
    assert trace == want
    assert sum(r.test_accuracy is not None for r in trace) == 4
    for a, b in zip(all_params(cached), all_params(fresh)):
        assert a.tobytes() == b.tobytes()
    gmm, ref = cached.parties[2].estimator, fresh.parties[2].estimator
    assert gmm.params.tobytes() == ref.params.tobytes()


def _mixed_kde_gmm_setup():
    """Three parties (softmax on a KDE, an MLP on a GMM, a one-class softmax
    on a GMM) and a one-sample train set whose label only the first two
    parties can see."""
    rng = np.random.default_rng(31)
    kde_party = make_party(rng, (0, 1))
    mlp = make_party(rng, (1, 2), kind="mlp").classifier
    other = make_party(rng, (3,)).classifier
    # 0.25 and 0.03 do not survive the log/exp round trip of set_params
    variances = np.array([[0.03, 1.3], [3.7, 0.9]])
    gmms = [
        GmmModel(np.array([0.25, 0.75]), rng.normal(size=(2, 2)), variances) for _ in range(2)
    ]
    parties = [kde_party, PartyModel(mlp, gmms[0], 20), PartyModel(other, gmms[1], 10)]
    ens = build_ensemble(parties, num_classes=4)
    x, y = rng.normal(size=2), 1
    train = LocalDataset(x[None, :], np.array([y]), (y,), 4)
    cfg = CalibrationConfig(lr=0.05, batch=1, steps=1, update_density=True, clip=None)
    return ens, train, cfg


def test_calibrate_step_applies_mpce_grad_blocks_bitwise():
    ens, train, cfg = _mixed_kde_gmm_setup()
    x, y = train.features[0], int(train.labels[0])
    flat = mpce_grad(ens, x, y, update_density=True)
    models = [p.classifier for p in ens.parties]
    models += [p.estimator for p in ens.parties if isinstance(p.estimator, GmmModel)]
    assert len(flat) == sum(len(m.params) for m in models)
    expected = []
    start = 0
    for m in models:
        block = flat[start : start + len(m.params)]
        start += len(m.params)
        ref = copy.deepcopy(m)
        set_params(ref, m.params - cfg.lr * block)
        expected.append(ref)
    calibrate(ens, train, cfg, seed=0)
    for m, ref in zip(models, expected):
        names = ("weights", "means", "variances") if isinstance(m, GmmModel) else ("params",)
        for name in names:
            assert getattr(m, name).tobytes() == getattr(ref, name).tobytes(), name


def test_calibrate_gmm_without_matching_sample_takes_zero_step():
    ens, train, cfg = _mixed_kde_gmm_setup()
    gmm = ens.parties[2].estimator
    ref = copy.deepcopy(gmm)
    set_params(ref, gmm.params - cfg.lr * np.zeros(len(gmm.params)))
    # the zero step is not a bitwise identity
    assert ref.variances.tobytes() != gmm.variances.tobytes()
    assert ref.weights.tobytes() != gmm.weights.tobytes()
    calibrate(ens, train, cfg, seed=0)
    for name in ("weights", "means", "variances"):
        assert getattr(gmm, name).tobytes() == getattr(ref, name).tobytes(), name


def _unfused_step_grad(ens, X, y, scope):
    """The step from public pieces, one party at a time, each scoring its
    rows afresh: the objective, every classifier's ``posterior_grad`` on its
    own arrays (a classifier without parameters has no block), then every
    mixture's ``nll_grad`` over the rows in ``scope``, as a stack of one."""
    om = evaluate_objective(ens, X)
    score = np.maximum(om.objective[np.arange(len(y)), y], PROBABILITY_FLOOR)
    coeff = om.weights / score[:, None]
    blocks = []
    for j, party in enumerate(ens.parties):
        if not isinstance(party.classifier, FlatClassifier):
            continue
        space = party.classifier.label_space
        U = np.zeros((len(y), len(space)))
        for i, label in enumerate(y):
            if label in space:
                U[i, space.index(label)] = -coeff[i, j]
        blocks.append(posterior_grad(party.classifier, X, U))
    for party in ens.parties:
        est = party.estimator
        if isinstance(est, GmmModel):
            space = party.classifier.label_space
            rows = [i for i, label in enumerate(y) if scope == "all" or label in space]
            if rows:
                one = GmmStack([est])
                blocks.append(one.nll_grad(one.forward(X[rows])[0])[0])
            else:
                blocks.append(np.zeros(len(est.params)))
    return score, blocks


@pytest.mark.parametrize("scope", ["matching", "all"])
def test_fused_step_matches_unfused_oracle_bitwise(scope):
    ens, _, _ = _mixed_kde_gmm_setup()
    rng = np.random.default_rng(41)
    plan = _plan(ens, update_density=True)
    X = rng.normal(size=(24, 2))
    # a mixed batch, then one only the first party can see (zero GMM blocks)
    for y in (rng.integers(0, 4, 24), np.zeros(24, dtype=np.int64)):
        got_score, got = _step_grad(ens, plan, X, y, *_batch_rows(plan, ens, y, scope))
        want_score, want = _unfused_step_grad(ens, X, y, scope)
        assert got_score.tobytes() == want_score.tobytes()
        assert len(want) == 5
        assert got.tobytes() == np.concatenate(want).tobytes()


def _interleaved_shapes_setup():
    """A softmax party on a KDE, then four GMM parties whose component
    counts alternate 3, 4, 3, 4, so the two stacks interleave in the flat
    gradient; labels 0 and 4 are seen only by the first and the last party.
    The classifiers form three stacks that interleave too: two-class softmax
    regressions (parties 0 and 4), MLPs (1 and 3) and a one-class softmax
    regression (2)."""
    rng = np.random.default_rng(33)
    parties = [make_party(rng, (0, 1))]
    for space, m in (((1, 2), 3), ((3,), 4), ((2, 3), 3), ((0, 4), 4)):
        clf = make_party(rng, space, kind="mlp" if m == 3 else "softmax").classifier
        w = rng.random(m) + 0.2
        gmm = GmmModel(w / w.sum(), rng.normal(size=(m, 2)), rng.uniform(0.03, 3.0, (m, 2)))
        parties.append(PartyModel(clf, gmm, int(rng.integers(5, 30))))
    return build_ensemble(parties, num_classes=5)


@pytest.mark.parametrize("scope", ["matching", "all"])
def test_stacked_step_matches_per_model_oracle_bitwise(scope):
    ens = _interleaved_shapes_setup()
    plan = _plan(ens, update_density=True)
    assert [cols for cols, _, _ in plan.classifiers] == [[0, 4], [1, 3], [2]]
    assert [cols for cols, _, _ in plan.mixtures] == [[1, 3], [2, 4]]
    models = [p.classifier for p in ens.parties] + [p.estimator for p in ens.parties[1:]]
    rng = np.random.default_rng(43)
    X = rng.normal(size=(24, 2))
    # a mixed batch, then one only parties 0 and 4 can see: in the matching
    # scope the GMMs of parties 1-3 have no rows and take a zero step
    for first, y in ((True, rng.integers(0, 5, 24)), (False, np.zeros(24, dtype=np.int64))):
        score, grad = _step_grad(ens, plan, X, y, *_batch_rows(plan, ens, y, scope))
        want_score, want = _unfused_step_grad(ens, X, y, scope)
        assert score.tobytes() == want_score.tobytes()
        assert grad.tobytes() == np.concatenate(want).tobytes()
        # the first step is large enough that the steepest log-variance falls
        # 20 nats, below the floor
        lr = 0.05
        if first:
            lr = 20.0 / max(
                b[g.means.size : 2 * g.means.size].max() for g, b in zip(models[5:], want[5:])
            )
        refs = []
        for model, block in zip(models, want):
            ref = copy.deepcopy(model)
            set_params(ref, model.params - lr * block)
            refs.append(ref)
        plan.step(grad, lr)
        for model, ref in zip(models, refs):
            gmm = isinstance(model, GmmModel)
            for name in ("weights", "means", "variances") if gmm else ("params",):
                assert getattr(model, name).tobytes() == getattr(ref, name).tobytes(), name
        if first:
            assert any(np.any(g.variances == GMM_VARIANCE_FLOOR) for g in models[5:])
        elif scope == "matching":
            assert all(not b.any() for b in want[5:8])


@pytest.mark.parametrize("update_density", [True, False])
def test_stacked_step_with_parameterless_party_matches_unfused_oracle_bitwise(update_density):
    # a party whose classifier has no parameters sits between the stacks:
    # it is scored through its posterior and has no gradient block
    ens = _interleaved_shapes_setup()
    rng = np.random.default_rng(44)
    clf = ConstantClassifier([0.3, 0.7], (1, 4))
    constant = PartyModel(clf, kde_fit(rng.normal(size=(9, 2)), 0.7), 6)
    ens = build_ensemble(ens.parties[:2] + [constant] + ens.parties[2:], num_classes=5)
    plan = _plan(ens, update_density)
    assert [cols for cols, _, _ in plan.classifiers] == [[0, 5], [1, 4], [3]]
    assert plan.frozen == [2]
    X = rng.normal(size=(24, 2))
    for y in (rng.integers(0, 5, 24), np.full(24, 4)):
        score, grad = _step_grad(ens, plan, X, y, *_batch_rows(plan, ens, y, "matching"))
        want_score, want = _unfused_step_grad(ens, X, y, "matching")
        if not update_density:
            want = want[:5]
        assert score.tobytes() == want_score.tobytes()
        assert grad.tobytes() == np.concatenate(want).tobytes()


@pytest.mark.parametrize("scope", ["matching", "all"])
def test_calibration_step_runs_one_forward_pass_per_party(monkeypatch, scope):
    # every party's classifier and mixture is scored once per step, through
    # its stack: one forward and one backward pass per classifier stack and
    # one forward pass per mixture stack; only the held-out evaluations score
    # the classifiers one party at a time, through their posteriors
    ens = _interleaved_shapes_setup()
    rng = np.random.default_rng(42)
    space = (0, 1, 2, 3, 4)
    train = LocalDataset(rng.normal(size=(40, 2)), rng.integers(0, 5, 40), space, 5)
    test = LocalDataset(rng.normal(size=(10, 2)), rng.integers(0, 5, 10), space, 5)
    calls = []

    def counting(cls, name):
        original = getattr(cls, name)

        def counted(self, X, *rest):
            calls.append((cls.__name__, name, id(self), len(X)))
            return original(self, X, *rest)

        monkeypatch.setattr(cls, name, counted)

    counting(FlatClassifier, "posterior")
    counting(ClassifierStack, "forward")
    counting(ClassifierStack, "backward")
    counting(GmmStack, "forward")
    counting(GmmModel, "log_density")
    cfg = CalibrationConfig(
        lr=0.01, batch=8, steps=7, eval_every=3, update_density=True, density_scope=scope
    )
    _, trace = calibrate(ens, train, cfg, seed=0, test=test)
    evals = sum(r.test_accuracy is not None for r in trace)
    assert evals == 3

    def rows(kind, name):
        """Sorted row counts of every ``kind.name`` call, per instance."""
        out = {}
        for k, nm, i, n in calls:
            if (k, nm) == (kind, name):
                out.setdefault(i, []).append(n)
        return {i: sorted(ns) for i, ns in out.items()}

    per_step = [8] * cfg.steps
    assert list(rows("ClassifierStack", "forward").values()) == [per_step] * 3
    assert list(rows("ClassifierStack", "backward").values()) == [per_step] * 3
    assert rows("FlatClassifier", "posterior") == {
        id(p.classifier): [len(test)] * evals for p in ens.parties
    }
    per_pass = sorted(per_step + [len(test)] * evals)
    assert list(rows("GmmStack", "forward").values()) == [per_pass] * 2
    assert not any(kind == "GmmModel" for kind, *_ in calls)


def _reference_calibrate(ens, train, cfg, seed, test):
    """``calibrate`` as a loop over public pieces, one model at a time: each
    step's blocks from ``_unfused_step_grad`` (every party scored afresh),
    ``clip_and_noise`` on their mean, then a ``set_params`` step per model,
    classifiers and then mixtures in party order; returns the trace and
    each step's gradient norm before clipping."""
    rng = np.random.default_rng(seed)
    noise_rng = np.random.default_rng(cfg.clip.seed)
    models = [p.classifier for p in ens.parties if isinstance(p.classifier, FlatClassifier)]
    models += [p.estimator for p in ens.parties if isinstance(p.estimator, GmmModel)]
    trace, norms = [], []
    for step in range(1, cfg.steps + 1):
        sel = rng.choice(len(train), size=min(cfg.batch, len(train)), replace=False)
        X, y = train.features[sel], train.labels[sel]
        score, blocks = _unfused_step_grad(ens, X, y, cfg.density_scope)
        flat = np.concatenate(blocks) / len(sel)
        norms.append(np.linalg.norm(flat))
        flat = clip_and_noise(flat, cfg.clip, noise_rng)
        start = 0
        for model in models:
            stop = start + model.params.size
            set_params(model, model.params - cfg.lr * flat[start:stop])
            start = stop
        acc = None
        if step % cfg.eval_every == 0 or step == cfg.steps:
            acc = ensemble_accuracy(ens, test)
        trace.append(TraceRow(step, float(np.mean(-np.log(score))), acc))
    return trace, norms


@pytest.mark.parametrize("scope", ["matching", "all"])
def test_calibrate_run_matches_model_by_model_reference_loop_bitwise(scope):
    # a whole run carries state from step to step: mixtures stepped in place,
    # per-run masks and label tables gathered by batch, the stacks' scratch
    # gradients. Parties: a softmax regression on a KDE, then GMMs of 3, 3,
    # 4 and 3 components under two MLPs, a one-class and a two-class softmax
    # regression, so adjacent members' blocks (the MLPs) and blocks apart
    # (the two-class softmax regressions; the 3-component mixtures) both
    # occur; labels 0 and 4 are seen by one party each
    rng = np.random.default_rng(51)
    parties = [make_party(rng, (0, 1))]
    for space, m, kind in (((1, 2), 3, "mlp"), ((2, 3), 3, "mlp"), ((3,), 4, "softmax"),
                           ((1, 4), 3, "softmax")):
        clf = make_party(rng, space, kind=kind).classifier
        w = rng.random(m) + 0.2
        gmm = GmmModel(w / w.sum(), rng.normal(size=(m, 2)), rng.uniform(0.05, 2.0, (m, 2)))
        parties.append(PartyModel(clf, gmm, int(rng.integers(5, 30))))
    ens = build_ensemble(parties, num_classes=5)
    ref = copy.deepcopy(ens)
    space = (0, 1, 2, 3, 4)
    train = LocalDataset(rng.normal(size=(60, 2)), rng.integers(0, 5, 60), space, 5)
    test = LocalDataset(rng.normal(size=(25, 2)), rng.integers(0, 5, 25), space, 5)
    cfg = CalibrationConfig(
        lr=0.05, batch=16, steps=11, eval_every=4, update_density=True,
        density_scope=scope, clip=ClipConfig(clip_norm=1.2, noise_sigma=0.05, seed=9),
    )
    plan = _plan(ens, update_density=True)
    assert [cols for cols, _, _ in plan.classifiers] == [[0, 4], [1, 2], [3]]
    assert [cols for cols, _, _ in plan.mixtures] == [[1, 2, 4], [3]]
    assert [isinstance(block, slice) for _, _, block in plan.classifiers + plan.mixtures] == [
        False, True, True, False, True,
    ]
    _, trace = calibrate(ens, train, cfg, seed=7, test=test)
    want, norms = _reference_calibrate(ref, train, cfg, 7, test)
    assert trace == want
    assert [r.step for r in trace if r.test_accuracy is not None] == [4, 8, 11]
    # the clip scaled some steps and left others
    assert min(norms) < cfg.clip.clip_norm < max(norms)
    for party, twin in zip(ens.parties, ref.parties):
        assert party.classifier.params.tobytes() == twin.classifier.params.tobytes()
        if isinstance(party.estimator, GmmModel):
            for name in ("weights", "means", "variances"):
                got, exp = getattr(party.estimator, name), getattr(twin.estimator, name)
                assert got.tobytes() == exp.tobytes(), name


@pytest.mark.parametrize("which", ["train", "test"])
def test_calibrate_rejects_non_finite_features_before_the_first_step(monkeypatch, which):
    # the rows are checked once per run, not in every step: a NaN written
    # into a dataset after it was built still stops the run up front
    ens = _interleaved_shapes_setup()
    rng = np.random.default_rng(52)
    space = (0, 1, 2, 3, 4)
    sets = {
        "train": LocalDataset(rng.normal(size=(30, 2)), rng.integers(0, 5, 30), space, 5),
        "test": LocalDataset(rng.normal(size=(10, 2)), rng.integers(0, 5, 10), space, 5),
    }
    bad = sets[which].features.copy()
    bad[7, 1] = np.nan
    sets[which].features = bad

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr("densemble.calibration._step_grad", no_step)
    cfg = CalibrationConfig(lr=0.05, batch=8, steps=3, update_density=True)
    name = {"train": "training features", "test": "held-out features"}[which]
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        calibrate(ens, sets["train"], cfg, seed=0, test=sets["test"])


def _toy3_raw_ensemble():
    cfg = load_config("toy3")
    train, test, shards = prepare_data(cfg, stream_seeds(0, len(cfg.parties)))
    rng = np.random.default_rng(0)
    parties = [
        PartyModel(
            SoftmaxRegression.init_random(2, shard.label_space, rng),
            kde_fit(shard.features, pcfg.estimator.bandwidth),
            len(shard),
        )
        for pcfg, shard in zip(cfg.parties, shards)
    ]
    return build_ensemble(parties, num_classes=cfg.data.num_classes), train, test


@pytest.mark.parametrize(
    "setup,which,width",
    [
        ("softmax+gmm", "train", 1),
        ("softmax+gmm", "train", 3),
        ("softmax+gmm", "test", 3),
        ("toy3", "train", 3),
        ("toy3", "test", 3),
    ],
)
def test_calibrate_rejects_features_of_another_width_before_scoring(
    monkeypatch, setup, which, width
):
    # the trainable models score their rows unchecked, so the run checks
    # both sets against their width before anything is scored
    rng = np.random.default_rng(55)
    if setup == "toy3":
        ens, train, test = _toy3_raw_ensemble()
    else:
        train = test = generate_toy(12, 60, 2)
        gmm = GmmModel(np.array([0.5, 0.5]), rng.normal(size=(2, 2)), np.ones((2, 2)))
        clf = SoftmaxRegression.init_random(2, (0, 1), rng)
        ens = build_ensemble([PartyModel(clf, gmm, len(train))], num_classes=2)
    sets = {"train": train, "test": test}
    ds = sets[which]
    sets[which] = LocalDataset(
        rng.normal(size=(len(ds), width)), ds.labels, ds.label_space, ds.num_classes
    )

    def params():
        models = [m for p in ens.parties for m in (p.classifier, p.estimator)]
        return [m.params.tobytes() for m in models if not isinstance(m, KdeModel)]

    before = params()

    def scored(*args, **kwargs):
        raise AssertionError("a set was scored")

    monkeypatch.setattr("densemble.calibration._step_grad", scored)
    monkeypatch.setattr("densemble.calibration.log_density_table", scored)
    cfg = CalibrationConfig(lr=0.05, batch=8, steps=3, eval_every=1, update_density=True)
    name = {"train": "training features", "test": "held-out features"}[which]
    with pytest.raises(ValueError, match=f"^{name}: query dim {width} != model dim 2$"):
        calibrate(ens, sets["train"], cfg, seed=0, test=sets["test"])
    assert params() == before


def test_objective_rejects_non_finite_queries_whenever_it_scores_them():
    ens = _interleaved_shapes_setup()
    X = np.random.default_rng(53).normal(size=(6, 2))
    whole = evaluate_objective(ens, X)
    X[4, 0] = np.nan
    for tables in ({}, {"posteriors": whole.posteriors}, {"loglik": whole.loglik}):
        with pytest.raises(ValueError, match="queries must be finite"):
            evaluate_objective(ens, X, **tables)
    # with both tables given no query is read, and the caller checks them
    both = evaluate_objective(ens, X, whole.loglik, whole.posteriors)
    assert both.objective.tobytes() == whole.objective.tobytes()
    with pytest.raises(ValueError, match="queries must be finite"):
        mpce_grad(ens, X[4], 1, update_density=True)
