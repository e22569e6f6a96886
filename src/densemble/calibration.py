"""End-to-end calibration of a composed ensemble.

The calibration loss for a labelled sample (x, y) is the negative log of the
ensemble's density-weighted true-class score,

    loss = -log( sum_j w_j * P_j[y] ),   w_j = p_j * exp(L_j - max_j L_j),

with the weights w_j treated as constants during differentiation: each
party's classifier receives upstream gradient -(w_j / score) on its local
posterior entry for y, so high-density parties update fastest. With a single
party this is exactly softmax cross-entropy.

One calibration step updates one list of trainable models: every
classifier, then, when ``update_density`` is on, each estimator that has
``nll_grad`` (a mixture; a kernel estimator has no parameters). Each model
contributes one gradient block, the blocks are flattened into one vector so
the optional clip-and-noise mechanism (norm clipping plus Gaussian noise)
treats the composite model as a single unit, and each model takes its slice
through its own ``apply_grad(g, lr)``. The mechanism clips the batch-mean
gradient, not each example's gradient, so it carries no differential-privacy
(epsilon, delta) guarantee.

A step runs one forward pass per party and keeps it for the backward pass:
each classifier's ``forward`` state feeds both ``evaluate_objective`` and the
classifier's ``backward``, and a training mixture's component table, saved
by its ``log_density``, feeds its ``nll_grad`` through the rows in the
density scope. Every mode takes this one path (``mpce_grad``, either scope,
clipping with or without noise), and it gives the bits of the unfused
``posterior_grad``/``nll_grad`` composition. What a run never changes is
computed once per run: each party's local label positions over the training
labels, the flat gradient's block layout, and the log-densities of the
training and held-out sets under every estimator that does not train.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import _LocalIndex
from .datasets import LocalDataset
from .ensemble import EnsembleModel, evaluate_objective, decide, log_density_table

PROBABILITY_FLOOR = 1e-12


@dataclass
class MpceLossValue:
    """Loss value with the per-party weights that produced it."""

    value: float
    weights: np.ndarray


@dataclass
class ClipConfig:
    """Gradient post-processing: norm clip to ``clip_norm``, Gaussian noise.

    Applied to the batch-mean gradient, not per example, so this is not
    DP-SGD and no privacy bound follows from it.
    """

    clip_norm: float
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (self.clip_norm > 0):
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")


@dataclass
class CalibrationConfig:
    """Loop hyperparameters for ``calibrate``.

    ``update_density`` turns on gradient steps for differentiable density
    estimators (mixtures; kernel estimators have no parameters and are
    skipped). ``density_scope`` selects which samples feed a party's density
    gradient: "matching" restricts to samples whose label the party can see,
    "all" uses the whole batch.
    """

    lr: float = 1e-3
    batch: int = 64
    steps: int = 2000
    update_density: bool = False
    density_scope: str = "matching"
    eval_every: int = 50
    clip: ClipConfig | None = None

    def __post_init__(self):
        if not (self.lr > 0):
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.batch < 1:
            raise ValueError(f"batch must be at least 1, got {self.batch}")
        if self.steps < 0:
            raise ValueError(f"steps must be nonnegative, got {self.steps}")
        if self.density_scope not in ("matching", "all"):
            raise ValueError(f"density_scope must be 'matching' or 'all', got {self.density_scope!r}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be at least 1, got {self.eval_every}")


@dataclass
class TraceRow:
    """One calibration step: loss always, held-out accuracy when evaluated."""

    step: int
    loss: float
    test_accuracy: float | None = None


def _batch_scores(
    ens: EnsembleModel, X: np.ndarray, y: np.ndarray, loglik=None, states=None
):
    """Objective intermediates plus floored true-class scores for a batch;
    ``loglik`` and ``states`` as in ``evaluate_objective``."""
    om = evaluate_objective(ens, X, loglik, states)
    return om, np.maximum(om.objective[np.arange(len(y)), y], PROBABILITY_FLOOR)


def _label_positions(ens: EnsembleModel, y: np.ndarray) -> np.ndarray:
    """(n, N) local index of each label in each party's label space, -1
    where the party cannot see it."""
    return np.stack(
        [_LocalIndex(p.classifier.label_space).positions(y) for p in ens.parties], axis=1
    )


def _check_label(ens: EnsembleModel, y: int) -> None:
    if not (0 <= y < ens.num_classes):
        raise ValueError(f"label {y} outside [0, {ens.num_classes})")


def mpce_loss(ens: EnsembleModel, x: np.ndarray, y: int) -> MpceLossValue:
    """Negative log density-weighted true-class score for one sample."""
    _check_label(ens, y)
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    om, score = _batch_scores(ens, X, np.array([y]))
    return MpceLossValue(float(-np.log(score[0])), om.weights[0])


def _theta_grads(
    ens: EnsembleModel, states: list, om, X: np.ndarray, pos: np.ndarray, score: np.ndarray
) -> list[np.ndarray]:
    """Per-party flat classifier gradients, summed over the batch, each the
    classifier's backward pass from its ``forward(X)`` state; ``pos`` is
    ``_label_positions`` of the batch labels."""
    grads = []
    coeff = om.weights / score[:, None]
    for j, (party, state) in enumerate(zip(ens.parties, states)):
        clf = party.classifier
        rows = np.flatnonzero(pos[:, j] >= 0)
        U = np.zeros((len(X), len(clf.label_space)))
        U[rows, pos[rows, j]] = -coeff[rows, j]
        grads.append(clf.backward(X, state, U))
    return grads


def _trainable(ens: EnsembleModel, update_density: bool) -> list:
    """(party index, model) for each model a step updates, in flat-gradient
    order: every classifier, then, with ``update_density``, each estimator
    that has ``nll_grad`` (kernel estimators have no parameters)."""
    models = list(enumerate(p.classifier for p in ens.parties))
    if update_density:
        models += [
            (j, p.estimator) for j, p in enumerate(ens.parties) if hasattr(p.estimator, "nll_grad")
        ]
    return models


def _step_grad(ens: EnsembleModel, trainable: list, X, y, pos, scope: str, loglik=None):
    """Floored true-class scores and one loss-gradient block per
    ``trainable`` model, each summed over the batch, from one forward pass
    per party. An estimator's block is its NLL gradient over the batch rows
    in ``scope``. ``pos`` is ``_label_positions`` of y. ``loglik``, when
    given, is an (n, N) table whose columns for the estimators that do not
    train already hold the batch's log-densities; the training mixtures are
    scored into their columns here. Otherwise every party is scored."""
    states = [p.classifier.forward(X) for p in ens.parties]
    saved = {j: {} for j, _ in trainable[ens.num_parties :]}
    if loglik is None:
        loglik = log_density_table(ens, X, saved)
    elif saved:
        log_density_table(ens, X, saved, parties=list(saved), out=loglik)
    om, score = _batch_scores(ens, X, y, loglik, states)
    blocks = _theta_grads(ens, states, om, X, pos, score)
    for j, est in trainable[ens.num_parties :]:
        rows = slice(None) if scope == "all" else np.flatnonzero(pos[:, j] >= 0)
        Xs = X[rows]
        if len(Xs):
            blocks.append(est.nll_grad(Xs, {k: v[rows] for k, v in saved[j].items()}))
        else:
            blocks.append(np.zeros(len(est.params)))
    return score, blocks


def mpce_grad(
    ens: EnsembleModel,
    x: np.ndarray,
    y: int,
    update_density: bool = False,
    density_scope: str = "matching",
) -> np.ndarray:
    """Flat loss gradient: classifier blocks in party order, then the blocks
    of the estimators that have ``nll_grad``."""
    _check_label(ens, y)
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    trainable = _trainable(ens, update_density)
    y = np.array([y])
    _, blocks = _step_grad(ens, trainable, X, y, _label_positions(ens, y), density_scope)
    return np.concatenate(blocks)


def clip_and_noise(
    g: np.ndarray, cfg: ClipConfig, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Scale g to norm at most clip_norm, then add N(0, (sigma*clip_norm)^2) noise."""
    g = np.asarray(g, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient must be finite")
    norm = float(np.linalg.norm(g))
    out = g / max(1.0, norm / cfg.clip_norm)
    if cfg.noise_sigma > 0:
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        out = out + cfg.noise_sigma * cfg.clip_norm * rng.standard_normal(g.shape)
    return out


def ensemble_accuracy(
    ens: EnsembleModel, ds: LocalDataset, loglik: np.ndarray | None = None
) -> float:
    """Share of ``ds`` the ensemble labels correctly; ``loglik`` as in
    ``evaluate_objective``."""
    return float(np.mean(decide(evaluate_objective(ens, ds.features, loglik)) == ds.labels))


def calibrate(
    ens: EnsembleModel,
    train: LocalDataset,
    cfg: CalibrationConfig,
    seed: int = 0,
    test: LocalDataset | None = None,
    test_loglik: np.ndarray | None = None,
) -> tuple[EnsembleModel, list[TraceRow]]:
    """Run mini-batch gradient calibration in place; returns (ens, trace).

    Each step samples a batch, averages per-sample gradients into one flat
    vector, optionally clips and noises it, and applies -lr * grad to every
    trainable model. Held-out accuracy is recorded every ``eval_every``
    steps and at the final step. Deterministic for fixed seeds. When there
    is a step to take, every estimator that does not train (all of them
    unless ``update_density`` is on; kernel estimators always) scores the
    training set and the held-out set once, before the first step: every
    batch takes its rows of the training table, and every evaluation the
    whole held-out table. Only the training mixtures are rescored, on each
    batch and at each evaluation. A row of a table is bitwise the row a
    fresh batch would score, so caching moves no bits. ``test_loglik`` is
    ``log_density_table(ens, test.features)`` when the caller already holds
    it; its columns for the estimators that do not train are used as the
    held-out table's.
    """
    if len(train) == 0:
        raise ValueError("calibration needs a nonempty training set")
    if train.labels.size and int(train.labels.max()) >= ens.num_classes:
        raise ValueError("training labels exceed the ensemble's class count")
    rng = np.random.default_rng(seed)
    noise_rng = (
        np.random.default_rng(cfg.clip.seed)
        if cfg.clip is not None and cfg.clip.noise_sigma > 0
        else None
    )
    n = len(train)
    trainable = _trainable(ens, cfg.update_density)
    # each model's slice of the flat gradient
    ends = np.cumsum([len(model.params) for _, model in trainable]).tolist()
    layout = [slice(a, b) for a, b in zip([0] + ends, ends)]
    train_pos = _label_positions(ens, train.labels)
    # score each set once under the estimators that never change; the
    # training mixtures' columns are scored afresh before every use
    moving = [j for j, _ in trainable[ens.num_parties :]]
    fixed = [j for j in range(ens.num_parties) if j not in moving]
    if cfg.steps > 0:
        train_loglik = log_density_table(ens, train.features, parties=fixed)
        if test is not None and test_loglik is None:
            test_loglik = log_density_table(ens, test.features, parties=fixed)
        elif test is not None:
            test_loglik = np.array(test_loglik, dtype=np.float64)  # written below
    trace: list[TraceRow] = []
    for step in range(1, cfg.steps + 1):
        sel = rng.choice(n, size=min(cfg.batch, n), replace=False)
        X, y = train.features[sel], train.labels[sel]
        score, blocks = _step_grad(
            ens, trainable, X, y, train_pos[sel], cfg.density_scope, train_loglik[sel]
        )
        loss = float(np.mean(-np.log(score)))
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite calibration loss {loss} at step {step}")
        flat = np.concatenate(blocks) / len(sel)
        if cfg.clip is not None:
            flat = clip_and_noise(flat, cfg.clip, noise_rng)
        for (_, model), part in zip(trainable, layout):
            model.apply_grad(flat[part], cfg.lr)
        acc = None
        if test is not None and (step % cfg.eval_every == 0 or step == cfg.steps):
            log_density_table(ens, test.features, parties=moving, out=test_loglik)
            acc = ensemble_accuracy(ens, test, test_loglik)
        trace.append(TraceRow(step, loss, acc))
    return ens, trace
