"""Density-weighted combination of per-party classifiers.

The global decision rule scores class k for query x as

    J[k] = sum_j p_j * P_j[k] * exp(L_j - max_j L_j)

where P_j is party j's zero-filled posterior, L_j its log-density at x, and
p_j its shard-size prior. Subtracting the per-query max log-density before
exponentiating keeps every weight in [0, 1] without moving the argmax, so
parties whose density underflows simply drop out of the sum.

``evaluate_objective`` is the only function here that forms J, and
``log_density_table`` the only one that runs the parties' density
estimators one party at a time. Every decision rule below is a reduction of
the ``ObjectiveMatrix`` that ``evaluate_objective`` returns, so one
evaluation per query set feeds them all. A caller whose estimators cannot
change may pass a query set's log-density table back in instead of scoring
it again, or the rows of a larger set's table: a row's log-densities do not
depend on the rows scored with it. A calibration step passes in the
posterior table that its classifier stacks' ``forward`` passes filled and a
log-density table whose training mixtures' columns its mixture stacks
filled, and runs each backward pass on the same forward states: one forward
pass per stack per step. Scoring runs the classifiers here and keeps only
their posteriors, never the hidden activations a backward pass would need.
``max_model_decide`` is the degenerate baseline that hands each query to the
single highest-density party; forcing the ensemble's lambda weights to a
one-hot at that party reproduces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import global_posterior


@dataclass
class PartyModel:
    """One party's contribution: classifier, density estimator, shard size."""

    classifier: object
    estimator: object
    shard_size: int

    def __post_init__(self):
        if self.shard_size < 1:
            raise ValueError(f"shard_size must be at least 1, got {self.shard_size}")


@dataclass
class EnsembleModel:
    """Parties plus their shard-size priors and the global class count."""

    parties: list[PartyModel]
    priors: np.ndarray
    num_classes: int

    def __post_init__(self):
        if not self.parties:
            raise ValueError("ensemble needs at least one party")
        p = np.asarray(self.priors, dtype=np.float64)
        if p.shape != (len(self.parties),):
            raise ValueError("one prior per party required")
        if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("priors must be positive and sum to 1")
        for i, party in enumerate(self.parties):
            space = party.classifier.label_space
            if space and max(space) >= self.num_classes:
                raise ValueError(
                    f"parties[{i}] label_space {space} exceeds num_classes {self.num_classes}"
                )
        self.priors = p

    @property
    def num_parties(self) -> int:
        return len(self.parties)


@dataclass
class ObjectiveMatrix:
    """All intermediates of one batched objective evaluation.

    Shapes for n queries, N parties, K classes:
        posteriors (n, N, K), loglik (n, N), weights (n, N), objective (n, K).
    """

    posteriors: np.ndarray
    loglik: np.ndarray
    weights: np.ndarray
    objective: np.ndarray


def build_ensemble(parties: list[PartyModel], num_classes: int | None = None) -> EnsembleModel:
    """Normalize shard sizes into priors; infer K from label spaces if absent."""
    if not parties:
        raise ValueError("ensemble needs at least one party")
    sizes = np.array([p.shard_size for p in parties], dtype=np.float64)
    if num_classes is None:
        num_classes = 1 + max(
            max(p.classifier.label_space) for p in parties if p.classifier.label_space
        )
    return EnsembleModel(parties, sizes / sizes.sum(), num_classes)


def log_density_table(
    ens: EnsembleModel, X: np.ndarray, parties: list[int] | None = None
) -> np.ndarray:
    """(n, N) log-density of every query under every party's estimator.

    ``parties`` limits scoring to those party indices; the other columns are
    left unset, for a caller that scores those estimators another way.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty((len(X), ens.num_parties))
    for j in range(ens.num_parties) if parties is None else parties:
        out[:, j] = ens.parties[j].estimator.log_density(X)
    return out


def evaluate_objective(
    ens: EnsembleModel,
    queries: np.ndarray,
    loglik: np.ndarray | None = None,
    posteriors: np.ndarray | None = None,
) -> ObjectiveMatrix:
    """Score every query against every class; pure given frozen parties.

    ``loglik`` is ``log_density_table(ens, queries)`` when the caller already
    holds it for these queries and estimators; otherwise it is computed here.
    ``posteriors`` is the (n, N, K) table of every party's zero-filled
    posterior when the caller already holds it, from the forward passes it
    keeps for a backward pass; otherwise each classifier's posterior is
    computed here and nothing else of its forward pass is kept.
    """
    X = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if not np.all(np.isfinite(X)):
        raise ValueError("queries must be finite")
    K = ens.num_classes
    P = posteriors
    if P is None:
        P = np.stack([global_posterior(p.classifier, X, K) for p in ens.parties], axis=1)
    L = log_density_table(ens, X) if loglik is None else loglik
    rowmax = L.max(axis=1)
    W = ens.priors[None, :] * np.exp(L - rowmax[:, None])
    J = np.einsum("njk,nj->nk", P, W)
    return ObjectiveMatrix(P, L, W, J)


def decide(om: ObjectiveMatrix) -> np.ndarray:
    """Global labels: argmax_k J[i][k], ties toward the lowest class index."""
    return np.argmax(om.objective, axis=1)


def lambda_weights(om: ObjectiveMatrix) -> np.ndarray:
    """Per-query posterior over parties: normalized density-prior weights."""
    return om.weights / om.weights.sum(axis=1, keepdims=True)


def posterior(om: ObjectiveMatrix) -> np.ndarray:
    """Normalized global posterior: lambda-weighted sum of party posteriors."""
    return om.objective / om.weights.sum(axis=1, keepdims=True)


def decide_with_weights(om: ObjectiveMatrix, lam: np.ndarray) -> np.ndarray:
    """Decision under externally supplied per-query party weights.

    Used to state the max-model equivalence as an executable check: passing a
    one-hot at the argmax-density party must reproduce ``max_model_decide``.
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=np.float64))
    return np.argmax(np.einsum("njk,nj->nk", om.posteriors, lam), axis=1)


def max_model_decide(om: ObjectiveMatrix) -> np.ndarray:
    """Delegate each query to its highest-density party, ignoring priors.

    Ties go to the lowest party index, then the lowest class index.
    """
    best = np.argmax(om.loglik, axis=1)
    return np.argmax(om.posteriors[np.arange(len(best)), best], axis=1)
