"""Per-party density estimators: Gaussian KDE and diagonal-covariance GMM.

Both estimators expose ``log_density(X) -> (n,)`` so downstream code can mix
estimator families freely. Like the classifiers, both carry a ``type_tag``
and ``file_fields`` for ``serialize`` and build themselves from their config
block and their party's shard with ``from_config(cfg, shard, seed)``, and
``FAMILIES`` maps each tag to its class: it is the only list of estimator
families that config validation, ``harness.build_parties`` and ``serialize``
read. Log-densities are floored at ``LOG_DENSITY_FLOOR`` so a query far
from every shard exponentiates to a clean zero instead of underflowing into
NaN arithmetic. Every estimator rejects non-finite parameters when it is
built, so a party file holding a NaN fails to load instead of scoring NaN or
silently dropping a point.

The mixture arithmetic is written once, for S mixtures of one shape (m, d)
stacked along a leading axis: the component table, the joint table and its
logsumexp, the NLL gradient and the parameter step (``_gmm_*``).
``GmmStack`` is the only object that runs it: on all the mixtures a
calibration run trains, so a step scores its batch, forms every mixture's
gradient and moves every mixture's parameters in one pass, not one per
party, and on a stack of one when a lone ``GmmModel`` scores. Every element
passes through the same operations either way, so a stacked row has the
bits of its mixture alone. ``forward`` hands back the component table with
the floored densities, and ``nll_grad`` takes it back, as a classifier
stack's ``backward`` takes its ``forward`` state; its 0/1 row mask selects
each mixture's rows.

``KdeModel.log_density`` is exact to the bit with respect to the plain
formula ``logsumexp(-sum_c (x_c - p_c)^2 / 2h^2) - norm`` over the whole
query batch, and cheap in memory:

- There is no GEMM. Squared distances are summed one dimension at a time,
  ``(x_0 - p_0)^2 + (x_1 - p_1)^2 + ...``, in that order; a sum of squares
  needs no clamp at 0, unlike the Gram form ``|x|^2 + |p|^2 - 2 x.p^T``.
  The sum is divided by ``-2h^2`` in one step: IEEE division rounds the
  magnitude alone, so this has the bits of negating it and dividing by
  ``2h^2``.
- Every step is elementwise or a per-row reduction, so the whole kernel runs
  on row blocks of about ``_BLOCK_BYTES`` in two reused buffers per worker
  (below), and no (queries x points) array is formed. Blocking cannot move
  the bits of such steps, and neither can the batch: a batch's rows are
  bitwise the same rows of a full-table call, so callers may score a query
  set once and gather rows from the result.
- ``exp(x)`` is exactly ``0.0`` in double precision for every
  ``x < -745.14``. Kernel terms below ``_EXP_CUTOFF`` are written as that
  zero instead of being passed to ``np.exp``, whose vector path is about
  ten times slower on underflowing inputs.
- The kept terms are gathered into one contiguous run, exp'd there and
  scattered back over a zeroed block. A masked ``np.exp(..., where=)``
  over the scattered mask runs the vector loop once per short run, about
  9 ns per element; the contiguous run costs about 1 ns per value, with
  the same bits per value. The run lives in the second block buffer, spent
  once the distances are summed, so the only extra memory is its
  8-byte-per-term index. Every addend of each row sum keeps its bits, so
  the sums do too.
- Queries must be finite: a NaN or infinite query row would otherwise
  come out as a floored density instead of NaN.

Large batches are scored on several threads; numpy releases the GIL inside
each ufunc, so the row blocks run in parallel. The worker count is the
number of CPUs in the process's affinity mask (``taskset -c 0`` gives one),
capped so that each worker has at least ``_BLOCKS_PER_WORKER`` (8) row
blocks, several ms of kernel work: a batch of fewer than 16 blocks
(toy3's training and test sets, or a calibration batch) starts no thread.
The calling thread scores blocks too, every worker takes the next block
from one shared counter, and every thread is joined before
``log_density`` returns. Each worker has its own block buffers, which the
calling thread allocates, so peak memory is a few blocks per worker plus
O(queries). Each row goes through the same operations in the same order on
whichever thread takes it, and each thread writes only its own rows, so the
result has the same bits for any worker count.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

# exp(-745) is the smallest positive normal double; anything lower is 0 anyway.
LOG_DENSITY_FLOOR = -745.0
GMM_VARIANCE_FLOOR = 1e-6
# EM stops after this many iterations, or once the mean log-likelihood
# improves by less than the tolerance.
GMM_MAX_ITER = 200
GMM_TOL = 1e-6
# Byte budget of each of the two row blocks that the KDE kernel works in (the
# block's kept-term index can take as much again), and of each (rows, S, m, d)
# table of a mixture row block.
_BLOCK_BYTES = 1 << 19
# Below this, exp underflows to exactly 0.0 in double precision.
_EXP_CUTOFF = -750.0
# A KDE batch gets one more scoring thread per this many row blocks (several
# ms of kernel work), up to one thread per CPU.
_BLOCKS_PER_WORKER = 8


def _queries(X: np.ndarray, dim: int) -> np.ndarray:
    """Queries as a finite (n, dim) float64 matrix, or ValueError."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != dim:
        raise ValueError(f"query dim {X.shape[1]} != model dim {dim}")
    if not np.isfinite(X).all():
        raise ValueError("queries must be finite")
    return X


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))


@dataclass
class KdeModel:
    """Isotropic Gaussian kernel density estimate over a training shard."""

    points: np.ndarray
    bandwidth: float

    type_tag = "kde"
    file_fields = ("bandwidth", "points")

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("KDE needs a nonempty (n, d) point matrix")
        if not (np.isfinite(self.bandwidth) and np.isfinite(pts).all()):
            raise ValueError("parameters must be finite")
        if not (self.bandwidth > 0.0):
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        self.points = pts

    @classmethod
    def from_config(cls, cfg, shard, seed: int) -> "KdeModel":
        return kde_fit(shard.features, cfg.bandwidth)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def log_density(self, X: np.ndarray) -> np.ndarray:
        """Mean-of-kernels log-density, evaluated batched and floored.

        Every step runs on row blocks and is elementwise or per-row, and only
        the terms that do not underflow are exp'd, as one contiguous run
        (module docstring): a row's bits never depend on its batch, nor on
        the number of threads that score the blocks.
        """
        X = _queries(X, self.dim)
        n, m = X.shape[0], len(self.points)
        h2 = self.bandwidth**2
        pts = self.points.T.copy()  # (d, m): each dimension's row contiguous
        rows = max(1, _BLOCK_BYTES // (8 * m))
        blocks = -(-n // rows)
        workers = max(1, min(_cpu_count(), blocks // _BLOCKS_PER_WORKER))
        # every worker's buffers come from the calling thread, before any
        # thread starts: buffers allocated in a worker land in its own
        # malloc arena and raise peak RSS
        shape = (min(rows, n), m)
        buffers = [
            (np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool))
            for _ in range(workers)
        ]
        lse = np.empty(n)
        starts = iter(range(0, n, rows))
        lock = threading.Lock()

        def work(buf, tmp, kept):
            # numpy's error state is per thread: a huge finite query's
            # distances overflow to inf and its kernel sum is 0, so its
            # log is -inf, floored below, without a warning
            with np.errstate(over="ignore", divide="ignore"):
                while True:
                    with lock:
                        r0 = next(starts, None)
                    if r0 is None:
                        return
                    rs = slice(r0, r0 + rows)
                    _kde_block(X[rs], pts, -2.0 * h2, buf, tmp, kept, lse[rs])

        _run_on_threads(work, buffers)
        norm = np.log(m) + 0.5 * self.dim * np.log(2.0 * np.pi * h2)
        return np.maximum(lse - norm, LOG_DENSITY_FLOOR)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_on_threads(work, args: list) -> None:
    """Run ``work(*a)`` for each ``a`` in ``args``, the first on this thread.

    Every other call gets its own thread, and all of them are joined before
    this returns. An exception raised in a thread is raised here once every
    thread has joined, so nothing is left running either way.
    """
    errors = []

    def guarded(*a):
        try:
            work(*a)
        except BaseException as e:  # re-raised on the calling thread
            errors.append(e)

    threads = [threading.Thread(target=guarded, args=a) for a in args[1:]]
    for t in threads:
        t.start()
    try:
        work(*args[0])
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def _kde_block(x, pts, scale, buf, tmp, kept, out) -> None:
    """Write the kernel logsumexp of each row of ``x`` to ``out``.

    ``pts`` is the (d, m) point table, ``scale`` is ``-2h^2``, and ``buf``,
    ``tmp`` and ``kept`` are (rows, m) buffers with at least ``len(x)`` rows,
    which this overwrites.
    """
    b, t, k = buf[: len(x)], tmp[: len(x)], kept[: len(x)]
    # squared distances, summed one dimension at a time
    np.subtract(x[:, :1], pts[0], out=b)
    np.square(b, out=b)
    for c in range(1, len(pts)):
        np.subtract(x[:, c : c + 1], pts[c], out=t)
        np.square(t, out=t)
        np.add(b, t, out=b)
    np.divide(b, scale, out=b)
    # logsumexp along rows, as _logsumexp computes it
    top = np.max(b, axis=1)
    top = np.where(np.isfinite(top), top, 0.0)
    np.subtract(b, top[:, None], out=b)
    np.greater_equal(b, _EXP_CUTOFF, out=k)
    # exp the kept terms as one contiguous run, gathered into the scratch
    # block (spent once the distances are summed), then scatter them back
    # over the 0.0 that exp returns below _EXP_CUTOFF
    idx = np.flatnonzero(k)
    flat = b.ravel()
    vals = t.ravel()[: len(idx)]
    # mode="clip": the default "raise" buffers out in a temporary
    np.take(flat, idx, out=vals, mode="clip")
    np.exp(vals, out=vals)
    b.fill(0.0)
    flat[idx] = vals
    out[:] = top + np.log(np.sum(b, axis=1))


def kde_fit(X: np.ndarray, bandwidth: float) -> KdeModel:
    return KdeModel(np.asarray(X, dtype=np.float64).copy(), bandwidth)


def _gmm_table(X: np.ndarray, means: np.ndarray, variances: np.ndarray):
    """Component table of S stacked mixtures of one shape (m, d) at the rows
    of X: ``diff`` (x - mu) and ``scaled`` ((x - mu)**2 / var), both
    (n, S, m, d), and log N(x | mu, diag(var)), (n, S, m)."""
    diff = X[:, None, None, :] - means[None]
    scaled = diff**2 / variances[None]
    mahal = np.sum(scaled, axis=3)
    log_norm = 0.5 * (means.shape[2] * np.log(2.0 * np.pi) + np.sum(np.log(variances), axis=2))
    return diff, scaled, -0.5 * mahal - log_norm[None]


def _gmm_joint(table: np.ndarray, weights: np.ndarray):
    """The joint table ``logj`` (log w + log N(x | component)) and its
    unfloored logsumexp over components, ``lse``."""
    logj = table + np.log(weights)
    return logj, _logsumexp(logj, axis=-1)


def _gmm_resp(logj: np.ndarray, lse: np.ndarray) -> np.ndarray:
    """Posterior component memberships from ``_gmm_joint``'s tables."""
    return np.exp(logj - lse[..., None])


def _gmm_nll_grad(diff, scaled, logj, lse, weights, variances, mask=None) -> np.ndarray:
    """(S, 2md + m) gradients of -log p(x), summed over rows, in ``params``
    layout (means, log-variances, weight logits), one row per mixture.

    ``mask`` is an (n, S) 0/1 table of the rows each mixture sums over, or
    None for every row. A masked row enters each sum as a signed zero, and
    numpy starts every sum at +0.0, so the sum keeps the bits of the sum over
    the mixture's own rows alone; a mixture with no rows gets +0.0.
    """
    resp = _gmm_resp(logj, lse)
    count = len(resp)
    if mask is not None:
        resp *= mask[:, :, None]
        count = np.sum(mask, axis=0)[:, None]
    w = resp[..., None]
    S, m, d = variances.shape
    grad = np.empty((S, 2 * m * d + m))
    grad[:, : m * d] = -np.sum(w * diff / variances[None], axis=0).reshape(S, m * d)
    grad[:, m * d : 2 * m * d] = -0.5 * np.sum(w * (scaled - 1.0), axis=0).reshape(S, m * d)
    grad[:, 2 * m * d :] = count * weights - np.sum(resp, axis=0)
    if mask is not None:
        grad[count[:, 0] == 0] = 0.0
    return grad


def _gmm_step(weights, means, variances, grad: np.ndarray, lr: float):
    """(weights, means, variances) after one step of -lr * grad on S stacked
    mixtures, ``grad`` (S, 2md + m) in ``params`` layout: means and
    log-variances move, variances are floored at ``GMM_VARIANCE_FLOOR`` and
    weights are the softmax of the moved logits."""
    S, m, d = means.shape
    if grad.shape != (S, 2 * m * d + m):
        raise ValueError(f"expected {S} x {2 * m * d + m} gradients, got {grad.shape}")
    step = lr * grad
    means = means - step[:, : m * d].reshape(S, m, d)
    log_var = np.log(variances) - step[:, m * d : 2 * m * d].reshape(S, m, d)
    variances = np.maximum(np.exp(log_var), GMM_VARIANCE_FLOOR)
    logits = np.log(weights) - step[:, 2 * m * d :]
    weights = np.exp(logits - _logsumexp(logits, axis=-1)[:, None])
    return weights, means, variances


@dataclass
class GmmModel:
    """Gaussian mixture with diagonal covariances.

    Attributes:
        weights: (m,) mixture weights summing to 1.
        means: (m, d) component means.
        variances: (m, d) per-dimension variances, floored away from zero.

    A mixture holds parameters and scores: ``log_density`` runs
    ``GmmStack.log_density`` on a stack of one, and ``component_log_densities``,
    which EM uses, the component table alone. Gradients and steps run on a
    ``GmmStack``, whose layout ``params`` follows.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    type_tag = "gmm"
    file_fields = ("weights", "means", "variances")

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        var = np.asarray(self.variances, dtype=np.float64)
        if mu.ndim != 2 or w.shape != (mu.shape[0],) or var.shape != mu.shape:
            raise ValueError("inconsistent GMM parameter shapes")
        if not (np.isfinite(w).all() and np.isfinite(mu).all() and np.isfinite(var).all()):
            raise ValueError("parameters must be finite")
        if np.any(w < 0) or not np.isclose(w.sum(), 1.0):
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        if np.any(var <= 0):
            raise ValueError("variances must be positive")
        self.weights, self.means, self.variances = w, mu, var

    @classmethod
    def from_config(cls, cfg, shard, seed: int) -> "GmmModel":
        return gmm_fit(shard.features, cfg.components, seed=seed)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def component_log_densities(self, X: np.ndarray) -> np.ndarray:
        """(n, m) log N(x | mu_m, diag(var_m)) for each component."""
        X = _queries(X, self.dim)
        return _gmm_table(X, self.means[None], self.variances[None])[2][:, 0]

    def log_density(self, X: np.ndarray) -> np.ndarray:
        """Floored log p(x) per row, scored as a stack of one."""
        return GmmStack([self]).log_density(X)[:, 0]

    @property
    def params(self) -> np.ndarray:
        """Flat parameter vector in the layout of ``GmmStack``'s gradients
        and steps: means, log-variances, weight logits."""
        return np.concatenate(
            [self.means.ravel(), np.log(self.variances).ravel(), np.log(self.weights)]
        )


class GmmStack:
    """S mixtures of one shape (m, d) as stacked arrays, stepped together.

    ``weights`` is (S, m), ``means`` and ``variances`` (S, m, d); row s holds
    the parameters of ``models[s]``. Calibration scores a batch for all S
    mixtures in one ``forward``, forms all S gradients in one ``nll_grad``
    and takes one ``apply_grad`` step, where a mixture at a time would repeat
    each of those numpy calls S times. Every element goes through the same
    operations as in a stack of one, so each row keeps its bits.
    """

    def __init__(self, models):
        self.models = list(models)
        if len({g.means.shape for g in self.models}) != 1:
            raise ValueError("a GMM stack needs mixtures of one shape")
        self.weights = np.stack([g.weights for g in self.models])
        self.means = np.stack([g.means for g in self.models])
        self.variances = np.stack([g.variances for g in self.models])

    def forward(self, X: np.ndarray):
        """(state, L): what ``nll_grad`` takes back for these rows, and the
        (n, S) floored log-densities."""
        X = _queries(X, self.means.shape[2])
        # a huge finite query's table overflows to -inf and so does its
        # logsumexp, floored below, without a warning
        with np.errstate(over="ignore", divide="ignore"):
            diff, scaled, table = _gmm_table(X, self.means, self.variances)
            logj, lse = _gmm_joint(table, self.weights)
        return (diff, scaled, logj, lse), np.maximum(lse, LOG_DENSITY_FLOOR)

    def log_density(self, X: np.ndarray) -> np.ndarray:
        """(n, S) floored log p(x) under every mixture.

        The rows are scored in blocks whose (rows, S, m, d) tables stay
        within ``_BLOCK_BYTES``, so memory does not grow with the query
        count. Every step of ``forward`` is elementwise or a reduction within
        a row, so the blocks give the bits of one whole-batch ``forward``.
        """
        X = _queries(X, self.means.shape[2])
        rows = max(1, _BLOCK_BYTES // (8 * self.means.size))
        out = np.empty((len(X), len(self.models)))
        for r0 in range(0, len(X), rows):
            out[r0 : r0 + rows] = self.forward(X[r0 : r0 + rows])[1]
        return out

    def nll_grad(self, state, mask: np.ndarray | None = None) -> np.ndarray:
        """(S, P) gradients of -log p(x) from a ``forward`` state, each row
        summed over its mixture's rows of ``mask`` (n, S), or over every row."""
        return _gmm_nll_grad(*state, self.weights, self.variances, mask)

    def apply_grad(self, grad: np.ndarray, lr: float) -> None:
        """One step of -lr * grad, (S, P); each model's arrays become views of
        its row of the new stack."""
        stepped = _gmm_step(self.weights, self.means, self.variances, grad, lr)
        self.weights, self.means, self.variances = stepped
        for s, model in enumerate(self.models):
            model.weights, model.means, model.variances = (a[s] for a in stepped)


def _seed_means(X: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Pick spread-out initial means: each next point is sampled with
    probability proportional to its squared distance from the chosen set."""
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((X - X[chosen[0]]) ** 2, axis=1)
    for _ in range(1, m):
        total = d2.sum()
        if total <= 0.0:
            chosen.append(int(rng.integers(n)))
        else:
            chosen.append(int(rng.choice(n, p=d2 / total)))
        d2 = np.minimum(d2, np.sum((X - X[chosen[-1]]) ** 2, axis=1))
    return X[chosen].copy()


def gmm_fit(
    X: np.ndarray,
    num_components: int,
    seed: int = 0,
    loglik_trace: list | None = None,
) -> GmmModel:
    """Fit a diagonal-covariance GMM by EM.

    Means initialise to distance-weighted random training points; iteration
    stops after ``GMM_MAX_ITER`` iterations, or when the mean log-likelihood
    improves by less than ``GMM_TOL``. Passing a list as ``loglik_trace``
    collects the per-iteration mean log-likelihood.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("GMM needs a nonempty (n, d) data matrix")
    n, d = X.shape
    m = min(num_components, n)
    if m < 1:
        raise ValueError("num_components must be at least 1")
    rng = np.random.default_rng(seed)
    means = _seed_means(X, m, rng)
    global_var = np.maximum(X.var(axis=0), GMM_VARIANCE_FLOOR)
    variances = np.tile(global_var, (m, 1))
    weights = np.full(m, 1.0 / m)
    model = GmmModel(weights, means, variances)
    prev = -np.inf
    for _ in range(GMM_MAX_ITER):
        logj, log_px = _gmm_joint(model.component_log_densities(X), model.weights)
        ll = float(np.mean(log_px))
        if loglik_trace is not None:
            loglik_trace.append(ll)
        resp = _gmm_resp(logj, log_px)
        mass = resp.sum(axis=0)
        mass = np.maximum(mass, 1e-12)
        means = (resp.T @ X) / mass[:, None]
        sq = resp.T @ (X**2) / mass[:, None] - means**2
        variances = np.maximum(sq, GMM_VARIANCE_FLOOR)
        weights = mass / mass.sum()
        model = GmmModel(weights, means, variances)
        if ll - prev < GMM_TOL:
            break
        prev = ll
    return model


FAMILIES = {c.type_tag: c for c in (KdeModel, GmmModel)}
