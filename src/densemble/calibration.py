"""End-to-end calibration of a composed ensemble.

The calibration loss for a labelled sample (x, y) is the negative log of the
ensemble's density-weighted true-class score,

    loss = -log( sum_j w_j * P_j[y] ),   w_j = p_j * exp(L_j - max_j L_j),

with the weights w_j treated as constants during differentiation: each
party's classifier receives upstream gradient -(w_j / score) on its local
posterior entry for y, so high-density parties update fastest. With a single
party this is exactly softmax cross-entropy.

One calibration step updates every classifier with parameters, then, when
``update_density`` is on, every mixture (a kernel estimator has no
parameters). Each model contributes one gradient block, and the blocks lie
in one flat vector, classifiers and then mixtures in party order, so the
optional clip-and-noise mechanism (norm clipping plus Gaussian noise) treats
the composite model as a single unit. The mechanism clips the batch-mean
gradient, not each example's gradient, so it carries no differential-privacy
(epsilon, delta) guarantee.

The trainable models are grouped into stacks once per run, by one rule for
both kinds: models of one family and parameter shapes share a stack, a
``ClassifierStack`` for classifiers and a ``GmmStack`` for mixtures. A step
runs one forward pass per stack and keeps it for the backward pass. Each
classifier stack scores the batch for all its members at once, and one
indexed assignment puts the (S, n, m) posteriors into the (n, N, K)
posterior table that ``evaluate_objective`` takes; the same state feeds the
stack's ``backward``, whose (S, n, m) upstream is built by one scatter. A
classifier without parameters joins no stack: it is scored through its
``posterior``, as an estimator that does not train is, and has no gradient
block. Each mixture stack scores the batch into its columns of the
log-density table, and the same pass feeds its ``nll_grad``, which forms
every mixture's gradient block at once; the density scope is an (n, S) 0/1
row mask on the stack's responsibilities. Each stack then takes its
members' blocks of the flat vector through one ``apply_grad``, which leaves
every member's arrays as views of its row of the stack. Every mode takes
this one path (``mpce_grad``, either scope, clipping with or without noise),
and it gives the bits of the unfused per-party composition, each model's
backward pass over a fresh forward pass of its rows alone, and of each
model stepped alone as a stack of one. What a run never changes is computed
once per run: each party's local label positions over the training labels,
the flat gradient's block layout and stacks, and the log-densities of the
training and held-out sets under every estimator that does not train.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import ClassifierStack, FlatClassifier, _LocalIndex, global_posterior
from .datasets import LocalDataset
from .density import GmmModel, GmmStack
from .ensemble import EnsembleModel, evaluate_objective, decide, log_density_table

PROBABILITY_FLOOR = 1e-12


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
    ens: EnsembleModel, X: np.ndarray, y: np.ndarray, loglik=None, posteriors=None
):
    """Objective intermediates plus floored true-class scores for a batch;
    ``loglik`` and ``posteriors`` as in ``evaluate_objective``."""
    om = evaluate_objective(ens, X, loglik, posteriors)
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


@dataclass
class _Plan:
    """What every step of a run updates, worked out once per run.

    The flat gradient holds every classifier's block in party order, then,
    with ``update_density``, every mixture's block in party order. The
    trainable models are grouped into stacks by family and parameter
    shapes: ``classifiers`` holds a ``ClassifierStack`` per group and
    ``mixtures`` a ``GmmStack``, each as (party indices, stack, the (S, P)
    index of its members' blocks in the flat gradient). ``slots`` indexes,
    per classifier stack, the (party, class) cells of the (n, N, K)
    posterior table that its (S, n, m) posteriors fill: an (S, 1) party
    column and the (S, m) label spaces. ``frozen`` lists the parties whose
    classifier has no parameters, and ``fixed`` those whose estimator never
    changes.
    """

    size: int
    classifiers: list[tuple[list[int], ClassifierStack, np.ndarray]]
    mixtures: list[tuple[list[int], GmmStack, np.ndarray]]
    slots: list[tuple[np.ndarray, np.ndarray]]
    frozen: list[int]
    fixed: list[int]

    def step(self, flat: np.ndarray, lr: float) -> None:
        """Step every trainable model by -lr times its part of ``flat``."""
        for _, stack, idx in self.classifiers + self.mixtures:
            stack.apply_grad(flat[idx], lr)


def _stacks(members, key, make, start: int) -> tuple[list, int]:
    """Stacks of the (party index, model) pairs ``members``, whose blocks
    lie from ``start`` on in the flat gradient in that order. Models of equal
    ``(type_tag, key(model))`` share one stack, ``make(models)``, in order of
    first appearance. Returns (party indices, stack, (S, P) block index) per
    stack, and the end of the blocks."""
    starts, groups = {}, {}
    for j, model in members:
        starts[j] = start
        start += model.params.size
        groups.setdefault((model.type_tag, key(model)), []).append(j)
    models = dict(members)
    stacks = []
    for cols in groups.values():
        width = models[cols[0]].params.size
        idx = np.array([starts[j] for j in cols])[:, None] + np.arange(width)
        stacks.append((cols, make(models[j] for j in cols), idx))
    return stacks, start


def _plan(ens: EnsembleModel, update_density: bool) -> _Plan:
    """The step plan: every classifier with parameters, then, with
    ``update_density``, each mixture (kernel estimators have no
    parameters)."""
    clfs = [(j, p.classifier) for j, p in enumerate(ens.parties)]
    trained = [(j, c) for j, c in clfs if isinstance(c, FlatClassifier)]
    classifiers, size = _stacks(trained, lambda c: c.shapes, ClassifierStack, 0)
    gmms = [(j, p.estimator) for j, p in enumerate(ens.parties)]
    gmms = [(j, g) for j, g in gmms if update_density and isinstance(g, GmmModel)]
    mixtures, size = _stacks(gmms, lambda g: g.means.shape, GmmStack, size)
    slots = [
        (np.array(cols)[:, None], np.array([ens.parties[j].classifier.label_space for j in cols]))
        for cols, _, _ in classifiers
    ]
    frozen = [j for j, c in clfs if not isinstance(c, FlatClassifier)]
    moving = {j for j, _ in gmms}
    fixed = [j for j in range(ens.num_parties) if j not in moving]
    return _Plan(size, classifiers, mixtures, slots, frozen, fixed)


def _step_grad(ens: EnsembleModel, plan: _Plan, X, y, pos, scope: str, loglik=None):
    """Floored true-class scores and the flat loss gradient, summed over the
    batch, from one forward pass per stack: each classifier stack's backward
    pass, then each mixture stack's NLL gradients over the batch rows in
    ``scope``. A classifier without parameters is scored through its
    ``posterior`` and takes no gradient. ``pos`` is ``_label_positions`` of
    y. ``loglik``, when given, is an (n, N) table whose columns for the
    estimators that do not train already hold the batch's log-densities; the
    mixture stacks are scored into the others here. Otherwise every party is
    scored."""
    n, K = len(X), ens.num_classes
    post = np.zeros((n, ens.num_parties, K))
    states = []
    for (_, stack, _), (rows, spaces) in zip(plan.classifiers, plan.slots):
        state = stack.forward(X)
        post[:, rows, spaces] = state[1].transpose(1, 0, 2)
        states.append(state)
    for j in plan.frozen:
        post[:, j] = global_posterior(ens.parties[j].classifier, X, K)
    if loglik is None:
        loglik = log_density_table(ens.estimators, X, parties=plan.fixed)
    mixture_states = []
    for cols, stack, _ in plan.mixtures:
        state, loglik[:, cols] = stack.forward(X)
        mixture_states.append(state)
    om, score = _batch_scores(ens, X, y, loglik, post)
    grad = np.empty(plan.size)
    coeff = om.weights / score[:, None]
    batch = np.arange(n)
    for (cols, stack, idx), state in zip(plan.classifiers, states):
        # upstream -coeff at each row's label, where the classifier sees it;
        # rows it cannot see write into a spare last column, dropped after
        m = state[1].shape[2]
        U = np.zeros((len(cols), n, m + 1))
        U[np.arange(len(cols))[:, None], batch, pos[:, cols].T] = -coeff[:, cols].T
        grad[idx] = stack.backward(X, state, U[..., :m])
    for (cols, stack, idx), state in zip(plan.mixtures, mixture_states):
        mask = None if scope == "all" else (pos[:, cols] >= 0).astype(np.float64)
        grad[idx] = stack.nll_grad(state, mask)
    return score, grad


def mpce_grad(
    ens: EnsembleModel,
    x: np.ndarray,
    y: int,
    update_density: bool = False,
    density_scope: str = "matching",
) -> np.ndarray:
    """Flat loss gradient: classifier blocks in party order, then the blocks
    of the mixtures."""
    _check_label(ens, y)
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.array([y])
    plan = _plan(ens, update_density)
    return _step_grad(ens, plan, X, y, _label_positions(ens, y), density_scope)[1]


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
    whole held-out table. Only the training mixtures are rescored, one
    stack at a time, on each batch and at each evaluation. A row of a table
    is bitwise the row a fresh batch would score, so caching moves no bits.
    ``test_loglik`` is ``log_density_table(ens.estimators, test.features)``
    when the caller already holds it; its columns for the estimators that
    do not train are used as the held-out table's.
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
    plan = _plan(ens, cfg.update_density)
    train_pos = _label_positions(ens, train.labels)
    # score each set once under the estimators that never change; the
    # training mixtures' columns are scored afresh before every use
    if cfg.steps > 0:
        train_loglik = log_density_table(ens.estimators, train.features, parties=plan.fixed)
        if test is not None and test_loglik is None:
            test_loglik = log_density_table(ens.estimators, test.features, parties=plan.fixed)
        elif test is not None:
            test_loglik = np.array(test_loglik, dtype=np.float64)  # written below
    trace: list[TraceRow] = []
    for step in range(1, cfg.steps + 1):
        sel = rng.choice(n, size=min(cfg.batch, n), replace=False)
        X, y = train.features[sel], train.labels[sel]
        score, grad = _step_grad(
            ens, plan, X, y, train_pos[sel], cfg.density_scope, train_loglik[sel]
        )
        loss = float(np.mean(-np.log(score)))
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite calibration loss {loss} at step {step}")
        flat = grad / len(sel)
        if cfg.clip is not None:
            flat = clip_and_noise(flat, cfg.clip, noise_rng)
        plan.step(flat, cfg.lr)
        acc = None
        if test is not None and (step % cfg.eval_every == 0 or step == cfg.steps):
            for cols, stack, _ in plan.mixtures:
                test_loglik[:, cols] = stack.log_density(test.features)
            acc = ensemble_accuracy(ens, test, test_loglik)
        trace.append(TraceRow(step, loss, acc))
    return ens, trace
