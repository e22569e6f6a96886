"""Acceptance gate: one test per shipped correctness and performance target.

Each test states its threshold in the assertion so a failure reports the
measured value next to the required one. The two sweep fixtures are shared
across criteria so the whole gate stays inside its runtime budgets.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import ConstantDensity, posterior_grad, random_simplex, set_params

from densemble.calibration import (
    CalibrationConfig,
    ClipConfig,
    clip_and_noise,
    mpce_grad,
    mpce_loss,
)
from densemble.classifiers import MlpClassifier, SoftmaxRegression
from densemble.density import gmm_fit, kde_fit
from densemble.ensemble import (
    PartyModel,
    build_ensemble,
    decide_with_weights,
    evaluate_objective,
    max_model_decide,
)
from densemble.harness import (
    PRESET_NAMES,
    build_parties,
    load_config,
    prepare_data,
    run_experiment,
    stream_seeds,
    sweep,
)

NUM_SEEDS = 20


@pytest.fixture(scope="module")
def zero_shot_sweep():
    """toy3 across 20 seeds with pre-trained parties; used by criteria 1 and 2."""
    cfg = load_config("toy3")
    t0 = time.perf_counter()
    reports = sweep(cfg, NUM_SEEDS)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def raw_calibration_runs(zero_shot_sweep):
    """toy3 across 20 seeds, classifiers left at random init, then calibrated."""
    cfg = load_config("toy3")
    cal = CalibrationConfig(lr=1e-3, batch=64, steps=2000, eval_every=100)
    t0 = time.perf_counter()
    reports = []
    for seed in range(NUM_SEEDS):
        run_cfg = replace(
            cfg, seed=seed, calibration=cal, calibrate_from_raw=True, out_dir=None
        )
        reports.append(run_experiment(run_cfg))
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def toy_ensemble():
    """One trained toy3 ensemble (seed 0) for query-level equivalence checks."""
    cfg = load_config("toy3")
    seeds = stream_seeds(cfg.seed, len(cfg.parties))
    _, _, shards = prepare_data(cfg, seeds)
    parties = build_parties(cfg.parties, shards, seeds, pretrain=True)
    return build_ensemble(parties, num_classes=cfg.data.num_classes)


def test_criterion_01_toy3_zero_shot_accuracy(zero_shot_sweep):
    reports, elapsed = zero_shot_sweep
    mean_acc = float(np.mean([r.ensemble_accuracy for r in reports]))
    assert mean_acc >= 0.97, (
        f"mean zero-shot ensemble accuracy {mean_acc:.4f} over {NUM_SEEDS} seeds, "
        f"needed >= 0.97"
    )
    assert elapsed < 60.0, f"sweep took {elapsed:.1f} s, budget 60 s"


def test_criterion_02_ensemble_beats_max_model_by_ten_points(zero_shot_sweep):
    reports, _ = zero_shot_sweep
    ens = np.array([r.ensemble_accuracy for r in reports])
    mm = np.array([r.max_model_accuracy for r in reports])
    gap = float(np.mean(ens) - np.mean(mm))
    wins = int(np.sum(ens >= mm))
    assert gap >= 0.10 and wins >= NUM_SEEDS - 2, (
        f"mean ensemble {np.mean(ens):.4f} vs max-model {np.mean(mm):.4f}: "
        f"gap {gap * 100:+.2f} points (needed >= +10), ensemble >= max-model on "
        f"{wins}/{NUM_SEEDS} seeds (needed >= {NUM_SEEDS - 2}). Density "
        f"delegation and density-weighted averaging nearly coincide on this "
        f"preset, so the required gap does not materialize; see the repository "
        f"notes on this known-failing target."
    )


def test_criterion_03_delta_weights_reproduce_max_model(toy_ensemble):
    rng = np.random.default_rng(303)
    X = rng.uniform(-8.0, 8.0, size=(1000, 2))
    om = evaluate_objective(toy_ensemble, X)
    delta = np.zeros((len(X), toy_ensemble.num_parties))
    delta[np.arange(len(X)), np.argmax(om.loglik, axis=1)] = 1.0
    forced = decide_with_weights(om, delta)
    delegated = max_model_decide(om)
    mismatches = int(np.sum(forced != delegated))
    assert mismatches == 0, f"{mismatches}/1000 label mismatches"


def test_criterion_04_single_party_loss_is_cross_entropy():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        K = int(rng.integers(2, 6))
        clf = SoftmaxRegression(
            rng.normal(size=(K, d)), rng.normal(size=K), tuple(range(K))
        )
        ens = build_ensemble(
            [PartyModel(clf, ConstantDensity(float(rng.normal())), int(rng.integers(1, 50)))],
            num_classes=K,
        )
        x = rng.normal(size=d)
        y = int(rng.integers(K))
        got = mpce_loss(ens, x, y).value
        z = clf.W @ x + clf.b
        ce = float(np.log(np.sum(np.exp(z - z.max()))) + z.max() - z[y])
        worst = max(worst, abs(got - ce))
    assert worst <= 1e-12, f"worst |loss - cross_entropy| = {worst:.3e}"


def _fd_grad(fn, flat, eps):
    fd = np.zeros_like(flat)
    for i in range(len(flat)):
        bump = flat.copy()
        bump[i] += eps
        hi = fn(bump)
        bump[i] -= 2 * eps
        lo = fn(bump)
        fd[i] = (hi - lo) / (2 * eps)
    return fd


def _random_classifier(rng, kind, d, labels):
    if kind == "softmax":
        return SoftmaxRegression(
            0.5 * rng.normal(size=(len(labels), d)), 0.1 * rng.normal(size=len(labels)), labels
        )
    return MlpClassifier.init_random(d, labels, hidden=int(rng.integers(2, 7)), rng=rng)


def _check_posterior_grads(kind, tol, trials, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(2, 5))
        clf = _random_classifier(rng, kind, d, tuple(range(m)))
        x = rng.normal(size=d)
        u = rng.normal(size=m)

        def value(flat, clf=clf, x=x, u=u):
            set_params(clf, flat)
            return float(clf.posterior(x) @ u)

        got = posterior_grad(clf, x, u)
        fd = _fd_grad(value, clf.params.copy(), 1e-6)
        worst = max(worst, np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-12))
    assert worst < tol, f"worst relative gradient error {worst:.3e}, needed < {tol}"


def _check_mpce_grads(kind, tol, trials, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(1, 4))
        K = int(rng.integers(2, 5))
        parties = [
            PartyModel(
                _random_classifier(rng, kind, d, tuple(range(K))),
                ConstantDensity(float(rng.normal())),
                int(rng.integers(1, 30)),
            )
        ]
        for _ in range(int(rng.integers(0, 3))):
            m = int(rng.integers(1, K + 1))
            labels = tuple(sorted(rng.choice(K, size=m, replace=False).tolist()))
            parties.append(
                PartyModel(
                    _random_classifier(rng, kind, d, labels),
                    ConstantDensity(float(rng.normal())),
                    int(rng.integers(1, 30)),
                )
            )
        ens = build_ensemble(parties, num_classes=K)
        x = rng.normal(size=d)
        y = int(rng.integers(K))
        sizes = [len(p.classifier.params) for p in parties]
        bounds = np.concatenate([[0], np.cumsum(sizes)])

        def value(flat, ens=ens, bounds=bounds, x=x, y=y):
            for j, party in enumerate(ens.parties):
                set_params(party.classifier, flat[bounds[j] : bounds[j + 1]])
            return mpce_loss(ens, x, y).value

        got = mpce_grad(ens, x, y)
        flat0 = np.concatenate([p.classifier.params for p in parties])
        fd = _fd_grad(value, flat0, 1e-6)
        worst = max(worst, np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-12))
    assert worst < tol, f"worst relative gradient error {worst:.3e}, needed < {tol}"


def test_criterion_05_gradients_match_finite_differences():
    _check_posterior_grads("softmax", 1e-5, 100, seed=505)
    _check_posterior_grads("mlp", 1e-4, 100, seed=506)
    _check_mpce_grads("softmax", 1e-5, 100, seed=507)
    _check_mpce_grads("mlp", 1e-4, 100, seed=508)


class _Shifted:
    """Wraps an estimator, adding a constant to every log-density."""

    def __init__(self, base, c):
        self.base = base
        self.c = c

    def log_density(self, X):
        return self.base.log_density(X) + self.c


def test_criterion_06_log_density_shift_invariance(toy_ensemble):
    rng = np.random.default_rng(606)
    X = rng.uniform(-8.0, 8.0, size=(1000, 2))
    base = evaluate_objective(toy_ensemble, X)
    base_labels = np.argmax(base.objective, axis=1)
    for c in (-100.0, 0.0, 37.0, 700.0):
        shifted = build_ensemble(
            [
                PartyModel(p.classifier, _Shifted(p.estimator, c), p.shard_size)
                for p in toy_ensemble.parties
            ],
            num_classes=toy_ensemble.num_classes,
        )
        om = evaluate_objective(shifted, X)
        dev = float(np.max(np.abs(om.objective - base.objective)))
        assert dev <= 1e-12, f"c={c}: max objective deviation {dev:.3e}"
        assert np.array_equal(np.argmax(om.objective, axis=1), base_labels), f"c={c}"


def test_criterion_07_density_oracles():
    rng = np.random.default_rng(707)

    # kernel estimator vs direct probability-domain summation
    for _ in range(30):
        d = int(rng.integers(1, 4))
        pts = rng.normal(size=(int(rng.integers(5, 40)), d))
        h = float(rng.uniform(0.05, 2.0))
        model = kde_fit(pts, h)
        queries = pts[rng.integers(len(pts), size=5)] + rng.normal(scale=h, size=(5, d))
        got = model.log_density(queries)
        for i, q in enumerate(queries):
            norm = len(pts) * (2.0 * np.pi * h * h) ** (d / 2.0)
            direct = float(np.sum(np.exp(-np.sum((pts - q) ** 2, axis=1) / (2 * h * h))) / norm)
            if direct > 1e-300:
                assert np.isclose(got[i], np.log(direct), rtol=1e-10, atol=1e-12)

    # mixture model vs direct weighted Gaussian summation
    for _ in range(30):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        model = gmm_fit(rng.normal(scale=3.0, size=(60, d)), m, seed=int(rng.integers(1 << 16)))
        queries = model.means[rng.integers(m, size=5)] + rng.normal(scale=0.5, size=(5, d))
        got = model.log_density(queries)
        for i, q in enumerate(queries):
            comp = np.exp(-0.5 * np.sum((q - model.means) ** 2 / model.variances, axis=1))
            comp /= np.sqrt(np.prod(2.0 * np.pi * model.variances, axis=1))
            direct = float(np.sum(model.weights * comp))
            if direct > 1e-300:
                assert np.isclose(got[i], np.log(direct), rtol=1e-10, atol=1e-12)

    # EM ascent: per-iteration mean log-likelihood never decreases
    for _ in range(20):
        d = int(rng.integers(1, 4))
        centers = rng.normal(scale=4.0, size=(int(rng.integers(1, 4)), d))
        X = np.concatenate(
            [c + rng.normal(scale=rng.uniform(0.3, 1.0), size=(int(rng.integers(15, 50)), d)) for c in centers]
        )
        trace: list = []
        gmm_fit(X, int(rng.integers(1, 5)), seed=int(rng.integers(1 << 16)), loglik_trace=trace)
        diffs = np.diff(trace)
        assert len(trace) >= 1
        assert np.all(diffs >= -1e-10), f"log-likelihood dropped by {-diffs.min():.3e}"


def test_criterion_08_clip_bound_and_noise_scale():
    rng = np.random.default_rng(808)
    for _ in range(1000):
        dim = int(rng.integers(1, 60))
        g = rng.normal(size=dim) * 10.0 ** int(rng.integers(-3, 4))
        c = float(10.0 ** rng.uniform(-2.0, 2.0))
        out = clip_and_noise(g, ClipConfig(clip_norm=c))
        # exact bound up to the rounding of the rescale itself
        assert float(np.linalg.norm(out)) <= c * (1.0 + 1e-12)

    noise = clip_and_noise(
        np.zeros(10_000), ClipConfig(clip_norm=1.0, noise_sigma=0.5, seed=88)
    )
    std = float(np.std(noise))
    assert abs(std - 0.5) <= 0.03 * 0.5, f"noise std {std:.4f}, wanted 0.5 +/- 3%"


def test_criterion_09_calibration_from_raw_recovers_zero_shot(
    raw_calibration_runs, zero_shot_sweep
):
    cal_reports, elapsed = raw_calibration_runs
    zs_reports, _ = zero_shot_sweep
    ok = 0
    for cal, zs in zip(cal_reports, zs_reports):
        acc = cal.calibrated_accuracy
        if acc >= 0.90 and acc >= zs.ensemble_accuracy - 0.02:
            ok += 1
    mean_cal = float(np.mean([r.calibrated_accuracy for r in cal_reports]))
    assert ok >= NUM_SEEDS - 2, (
        f"calibration from random init reached the target on {ok}/{NUM_SEEDS} "
        f"seeds (needed >= {NUM_SEEDS - 2}); mean calibrated accuracy {mean_cal:.4f}"
    )
    assert elapsed < 300.0, f"calibration runs took {elapsed:.1f} s, budget 300 s"


def test_criterion_10_image_benchmarks_out_of_scope():
    # published image-classification numbers need datasets and conv stacks this
    # package does not ship; the shipped presets keep the partition topologies
    # of those experiments on synthetic blobs instead
    party_counts = [len(load_config(name).parties) for name in PRESET_NAMES]
    assert party_counts == [3, 2, 3, 3, 7]
