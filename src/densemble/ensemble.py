"""Density-weighted combination of per-party classifiers.

The global decision rule scores class k for query x as

    J[k] = sum_j p_j * P_j[k] * exp(L_j - max_j L_j)

where P_j is party j's zero-filled posterior, L_j its log-density at x, and
p_j its shard-size prior. Subtracting the per-query max log-density before
exponentiating keeps every weight in [0, 1] without moving the argmax, so
parties whose density underflows simply drop out of the sum.

``evaluate_objective`` is the only function here that forms J, and
``log_density_table`` the only one in the package that calls an
estimator's ``log_density``. Every decision rule below is a reduction of
the ``ObjectiveMatrix`` that ``evaluate_objective`` returns, so one
evaluation per query set feeds them all. The posteriors form one (n, N, K)
table, allocated as zeros: party j's posterior fills the cells
``[:, j, label_space]`` of its label space and every other cell of the
party stays an exact zero, so an absent class adds nothing to J. A caller
whose estimators cannot change may pass a query set's log-density table
back in instead of scoring it again, or the rows of a larger set's table: a
row's log-densities do not depend on the rows scored with it. A calibration
step passes in the posterior table that its classifier stacks' ``forward``
passes filled the same way and a log-density table whose training
mixtures' columns its mixture stacks filled, and runs each backward pass on
the same forward states: one forward pass per stack per step.
``evaluate_objective`` reads the queries, and checks them with
``density.as_queries``, only to score a table it is not given, so such a
step reads none; calibration checks its sets once per run. Scoring runs
the classifiers here and keeps only their posteriors, never the hidden
activations a backward pass would need.
``score_chunks`` scores a query batch of any size in bounded memory: it
scores the whole (n, N) log-density table once, then evaluates the objective
on fixed runs of ``SCORE_CHUNK_ROWS`` rows, so a caller holds one chunk's
posteriors and objective at a time and every decision rule of a chunk still
reads one evaluation. A batch of at most one chunk takes exactly the calls of
``evaluate_objective(ens, X)``. Density rows do not depend on their batch;
the classifiers' matrix products may round a row differently when the
number of rows around it changes, and a fixed chunk size keeps that
independent of the batch's length.
A log-density table of at least ``_FORK_ROWS`` rows is scored as jobs on
``workers.forked``, under the contract (when it forks, how children exit
and errors return) stated in that module. A job is one estimator on one
contiguous span of rows: each of the N columns is cut into
max(1, cpu_count // N) spans, so a lone estimator (a density plot) still
uses every CPU, and W = ``workers.job_count(jobs)`` workers share the jobs,
worker w taking jobs w, w + W, w + 2W, ... The caller scores worker 0's
jobs and copies every other worker's columns back from its child. A row's
log-density does not depend on its batch, so W and the spans move no bit.
A smaller table (a calibration batch, a preset's training or test set) is
scored here, one whole column at a time.
``max_model_decide`` is the degenerate baseline that hands each query to the
single highest-density party; forcing the ensemble's lambda weights to a
one-hot at that party reproduces it exactly.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import workers
from ._reduce import reduce_last
from .density import as_queries

# Rows of a query batch that ``score_chunks`` evaluates at once: under 1 MB
# of posteriors, weights and objective for toy3's three parties and five
# classes.
SCORE_CHUNK_ROWS = 4096
# Rows from which ``log_density_table`` forks its jobs: below it, a fork
# costs more than the table's scoring.
_FORK_ROWS = 4096


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

    @property
    def estimators(self) -> list:
        return [p.estimator for p in self.parties]


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
    estimators: list, X: np.ndarray, parties: list[int] | None = None
) -> np.ndarray:
    """(n, N) log-density of every query under each of the N estimators,
    as forked jobs from ``_FORK_ROWS`` rows on (module docstring).

    ``parties`` limits scoring to those columns; the other columns are left
    unset, for a caller that scores those estimators another way.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = len(X)
    cols = range(len(estimators)) if parties is None else parties
    fork = n >= _FORK_ROWS
    spans = max(1, workers.cpu_count() // max(1, len(cols))) if fork else 1
    jobs = [(j, n * s // spans, n * (s + 1) // spans) for j in cols for s in range(spans)]
    W = workers.job_count(len(jobs)) if fork else 1

    def score(w: int) -> list[np.ndarray]:
        return [estimators[j].log_density(X[lo:hi]) for j, lo, hi in jobs[w::W]]

    out = np.empty((n, len(estimators)))
    for w, share in enumerate(workers.forked(score, W)):
        for (j, lo, hi), column in zip(jobs[w::W], share):
            out[lo:hi, j] = column
    return out


def evaluate_objective(
    ens: EnsembleModel,
    queries: np.ndarray,
    loglik: np.ndarray | None = None,
    posteriors: np.ndarray | None = None,
) -> ObjectiveMatrix:
    """Score every query against every class; pure given frozen parties.

    ``loglik`` is ``log_density_table(ens.estimators, queries)`` when the
    caller already holds it for these queries and estimators; otherwise it
    is computed here.
    ``posteriors`` is the (n, N, K) table of every party's posterior, zero
    outside its label space, when the caller already holds it, from the
    forward passes it keeps for a backward pass; otherwise the table is
    allocated here as zeros, each classifier's posterior is written into
    its label space's cells, and nothing else of its forward pass is kept.
    The queries are checked to be finite when either table is computed
    here; a caller that passes both reads no query here, and checks its
    rows itself.
    """
    P, L = posteriors, loglik
    if P is None or L is None:
        X = as_queries(queries)
        if P is None:
            # the posteriors before the table, so that no forward pass's
            # temporaries are alive next to it
            local = [p.classifier.posterior(X) for p in ens.parties]
            P = np.zeros((len(X), ens.num_parties, ens.num_classes))
            for j, (party, post) in enumerate(zip(ens.parties, local)):
                P[:, j, list(party.classifier.label_space)] = post
        if L is None:
            L = log_density_table(ens.estimators, X)
    # the weights p_j * exp(L_j - max_j L_j), formed in one buffer
    W = L - reduce_last(np.maximum, L)[:, None]
    np.exp(W, out=W)
    W *= ens.priors
    J = np.einsum("njk,nj->nk", P, W)
    return ObjectiveMatrix(P, L, W, J)


def score_chunks(
    ens: EnsembleModel, queries: np.ndarray
) -> Iterator[tuple[slice, ObjectiveMatrix]]:
    """``(rows, evaluate_objective(ens, queries[rows]))`` for consecutive runs
    of ``SCORE_CHUNK_ROWS`` rows, the last one shorter.

    The log-density table is scored once for the whole batch, before the
    first chunk, and each chunk reads its rows of it.
    """
    X = as_queries(queries)
    L = log_density_table(ens.estimators, X)
    for start in range(0, len(X), SCORE_CHUNK_ROWS):
        rows = slice(start, min(start + SCORE_CHUNK_ROWS, len(X)))
        yield rows, evaluate_objective(ens, X[rows], loglik=L[rows])


def decide(om: ObjectiveMatrix) -> np.ndarray:
    """Global labels: argmax_k J[i][k], ties toward the lowest class index."""
    return np.argmax(om.objective, axis=1)


def lambda_weights(om: ObjectiveMatrix) -> np.ndarray:
    """Per-query posterior over parties: normalized density-prior weights."""
    return om.weights / om.weights.sum(axis=1, keepdims=True)


def posterior(om: ObjectiveMatrix) -> np.ndarray:
    """Normalized global posterior: lambda-weighted sum of party posteriors."""
    return om.objective / om.weights.sum(axis=1, keepdims=True)


def max_model_decide(om: ObjectiveMatrix) -> np.ndarray:
    """Delegate each query to its highest-density party, ignoring priors.

    Ties go to the lowest party index, then the lowest class index.
    """
    best = np.argmax(om.loglik, axis=1)
    return np.argmax(om.posteriors[np.arange(len(best)), best], axis=1)
