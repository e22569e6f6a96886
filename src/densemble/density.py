"""Per-party density estimators: Gaussian KDE and diagonal-covariance GMM.

Both estimators expose ``log_density(X) -> (n,)`` so downstream code can mix
estimator families freely. Like the classifiers, both carry a ``type_tag``
and ``file_fields`` (each stored field and its kind, read and written by
``jsonconfig``) and
build themselves from their config block and their party's shard with
``from_config(cfg, shard, seed)``, and
``FAMILIES`` maps each tag to its class: it is the only list of estimator
families that config validation, ``harness.build_parties`` and ``serialize``
read. Log-densities are floored at ``LOG_DENSITY_FLOOR`` so a query far
from every shard exponentiates to a clean zero instead of underflowing into
NaN arithmetic. Every estimator rejects non-finite parameters when it is
built, so a party file holding a NaN fails to load instead of scoring NaN or
silently dropping a point.

The mixture arithmetic is written once, for S mixtures of one shape (m, d)
stacked along a leading axis: the component table, the joint table and its
logsumexp (``_gmm_*``, which EM shares), and the NLL gradient and the
parameter step (``GmmStack.nll_grad`` and ``apply_grad``). ``GmmStack`` is
the only object that scores, differentiates or steps a mixture: on all the
mixtures a calibration run trains, so a step scores its batch, forms every
mixture's gradient and moves every mixture's parameters in one pass, not
one per party, and on a stack of one when a lone ``GmmModel`` scores. Every
element passes through the same operations either way, so a stacked row
has the bits of its mixture alone. ``forward`` hands back the component
table with the floored densities, and ``nll_grad`` takes it back, as a
classifier stack's ``backward`` takes its ``forward`` state; its 0/1 row
mask selects each mixture's rows. ``forward`` takes rows that were
already checked. ``as_queries`` is the package's one check of a query
batch: a float64 matrix of finite entries and, when given a width, of that
width. Each estimator's ``log_density`` checks a batch with it once, at the
estimator's own width; ``ensemble`` checks the queries it scores with it,
and ``calibration`` its sets, once per run, at the width of the models it
trains. ``apply_grad`` steps the stacked arrays in place. The tables are
built from the queries tiled to (n, S*m*d), and the responsibilities
repeated over d (a take on an index made with the stack), so no op runs an
inner loop of d elements. The sums over d and the max and
sum over the m components are ``_reduce.reduce_last``: under 8 elements, on
all but a small table, a chain of elementwise ops over the slices, which
adds them in numpy's own order (from +0.0, index by index) and so gives the
bits of ``np.sum``; otherwise numpy's reduction itself. Every sum over the batch
rows is still numpy's reduction over the leading axis, which adds the rows
in order.

``KdeModel.log_density`` computes the plain formula
``logsumexp(-sum_c (x_c - p_c)^2 / 2h^2) - norm`` over the whole query
batch, except that a kernel term whose input, less the row max, is below
``_EXP_CLAMP`` (-700) counts as ``exp(_EXP_CLAMP)``, about 9.9e-305. A row
with a finite max sums its top term, exactly 1.0. Every term the clamp
changes is below 1e-304 before and after it, and a partial sum of such
terms is far under half an ulp of 1.0, so it is absorbed exactly when it
meets a partial sum of at least 1. A row's bits can therefore differ from
the plain formula only through exact rounding ties among the smaller
partial sums; none has been seen, and the tests compare rows with the
plain formula bit for bit. The kernel is cheap in memory:

- There is no GEMM. Squared distances are summed one dimension at a time,
  ``(p_0 - x_0)^2 + (p_1 - x_1)^2 + ...``, in that order; a sum of squares
  needs no clamp at 0, unlike the Gram form ``|x|^2 + |p|^2 - 2 x.p^T``.
  ``p - x`` is exactly ``-(x - p)``, so each square has the bits of the
  formula's. The sum is divided by ``-2h^2`` in one step: IEEE division
  rounds the magnitude alone, so this has the bits of negating it and
  dividing by ``2h^2``.
- Every step is elementwise or a per-row reduction, so the whole kernel runs
  on row blocks of about ``_BLOCK_BYTES``, one after another in two reused
  buffers, and no (queries x points) array is formed. Blocking cannot move
  the bits of such steps, and neither can the batch: a batch's rows are
  bitwise the same rows of a full-table call, so callers may score a query
  set once and gather rows from the result.
- The whole block is clamped at ``_EXP_CLAMP`` and exp'd in place, so every
  input is on numpy's fast vector path: a vector holding any input below
  about -707.7 (a subnormal or zero result) takes a path several times
  slower. ``exp(_EXP_CLAMP)`` is a normal double. A huge query's kernel
  exponent can overflow to -inf; it is clamped like any other. A row whose
  every exponent overflows has the max -inf: it is shifted by 0, and its
  log-sum is added to that -inf max, so it comes out -inf and is floored.
  Every bandwidth takes this one path, and the two blocks are the only
  memory it uses.
- Queries must be finite: a NaN or infinite query row would otherwise
  come out as a floored density instead of NaN.

Both estimators score a batch in the calling process.
``ensemble.log_density_table`` shares a large table's parties and row spans
among forked workers, which a row's independence of its batch allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._reduce import reduce_last

# exp(-745) is about 4.9e-324, the smallest positive subnormal double; anything
# lower is 0 anyway. (The smallest normal double is about exp(-708.40).)
LOG_DENSITY_FLOOR = -745.0
GMM_VARIANCE_FLOOR = 1e-6
# EM stops after this many iterations, or once the mean log-likelihood
# improves by less than the tolerance.
GMM_MAX_ITER = 200
GMM_TOL = 1e-6
# Byte budget of each of the two row blocks that the KDE kernel works in, and
# of each (rows, S, m, d) table of a mixture row block.
_BLOCK_BYTES = 1 << 19
# The KDE kernel clamps each exp input, less its row max, at this: exp(-700)
# is a normal double, about 9.9e-305, so every input stays on numpy's fast
# exp path, and a clamped term is far under half an ulp of the row's 1.0.
_EXP_CLAMP = -700.0


def as_queries(X: np.ndarray, dim: int | None = None, name: str | None = None) -> np.ndarray:
    """Queries as a float64 matrix of one row per query, or ValueError if
    its width is not ``dim`` (when given) or any entry is not finite. The
    message names the set ``name`` when given."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if dim is not None and X.shape[1] != dim:
        prefix = f"{name}: " if name else ""
        raise ValueError(f"{prefix}query dim {X.shape[1]} != model dim {dim}")
    if not np.isfinite(X).all():
        raise ValueError(f"{name or 'queries'} must be finite")
    return X


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """logsumexp over the last axis, shifted by its finite max."""
    m = reduce_last(np.maximum, a, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return m[..., 0] + np.log(reduce_last(np.add, np.exp(a - m)))


@dataclass
class KdeModel:
    """Isotropic Gaussian kernel density estimate over a training shard."""

    points: np.ndarray
    bandwidth: float

    type_tag = "kde"
    file_fields = {"bandwidth": float, "points": np.ndarray}

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("KDE needs a nonempty (n, d) point matrix")
        if not (np.isfinite(self.bandwidth) and np.isfinite(pts).all()):
            raise ValueError("parameters must be finite")
        if not (self.bandwidth > 0.0):
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        # log_density divides by h**2, which must neither underflow nor overflow
        h2 = float(self.bandwidth) * float(self.bandwidth)
        if not (0.0 < h2 < np.inf):
            raise ValueError(
                f"bandwidth {self.bandwidth}: its square {h2} is not finite and positive"
            )
        self.points = pts

    @classmethod
    def from_config(cls, cfg, shard, seed: int) -> "KdeModel":
        return kde_fit(shard.features, cfg.bandwidth)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def log_density(self, X: np.ndarray) -> np.ndarray:
        """Mean-of-kernels log-density, evaluated batched and floored.

        Every step runs on row blocks and is elementwise or per-row, and a
        term whose exp input is below ``_EXP_CLAMP`` counts as
        ``exp(_EXP_CLAMP)`` (module docstring): a row's bits never depend on
        its batch.
        """
        X = as_queries(X, self.dim)
        n, m = X.shape[0], len(self.points)
        h2 = self.bandwidth**2
        pts = self.points.T.copy()  # (d, m): each dimension's row contiguous
        rows = max(1, _BLOCK_BYTES // (8 * m))
        buf, tmp = np.empty((min(rows, n), m)), np.empty((min(rows, n), m))
        lse = np.empty(n)
        # a huge finite query's kernel exponents overflow to -inf, and so
        # does its row's logsumexp, floored below, without a warning
        with np.errstate(over="ignore"):
            for r0 in range(0, n, rows):
                rs = slice(r0, r0 + rows)
                _kde_block(X[rs], pts, -2.0 * h2, buf, tmp, lse[rs])
        norm = np.log(m) + 0.5 * self.dim * np.log(2.0 * np.pi * h2)
        return np.maximum(lse - norm, LOG_DENSITY_FLOOR)


def _kde_block(x, pts, scale, buf, tmp, out) -> None:
    """Write the kernel logsumexp of each row of ``x`` to ``out``.

    ``pts`` is the (d, m) point table, ``scale`` is ``-2h^2``, and ``buf``
    and ``tmp`` are (rows, m) buffers with at least ``len(x)`` rows, which
    this overwrites. On return, ``buf``'s first ``len(x)`` rows hold the
    terms each row sums, ``exp(max(shifted, _EXP_CLAMP))``, where
    ``shifted`` is each input less its row's max (less 0 where that max is
    -inf); ``out`` is that max plus the log of the row's sum.
    """
    b, t = buf[: len(x)], tmp[: len(x)]
    # squared distances, summed one dimension at a time; p - x is exactly
    # -(x - p), so its square has the same bits, and subtracting a column
    # from a copied row is the cheaper broadcast
    np.copyto(b, pts[0])
    np.subtract(b, x[:, :1], out=b)
    np.square(b, out=b)
    for c in range(1, len(pts)):
        np.copyto(t, pts[c])
        np.subtract(t, x[:, c : c + 1], out=t)
        np.square(t, out=t)
        np.add(b, t, out=b)
    np.divide(b, scale, out=b)
    # logsumexp along rows, shifted by the finite row max; a row whose every
    # exponent overflowed is shifted by 0 and keeps its -inf max below, so
    # its log is -inf (floored) whatever the clamped terms sum to
    top = np.max(b, axis=1)
    np.subtract(b, np.where(np.isfinite(top), top, 0.0)[:, None], out=b)
    # clamped, every exp input is on numpy's fast vector path
    np.maximum(b, _EXP_CLAMP, out=b)
    np.exp(b, out=b)
    np.add(top, np.log(np.sum(b, axis=1)), out=out)


def kde_fit(X: np.ndarray, bandwidth: float) -> KdeModel:
    return KdeModel(np.asarray(X, dtype=np.float64).copy(), bandwidth)


def _gmm_table(X: np.ndarray, means: np.ndarray, variances: np.ndarray):
    """Component table of S stacked mixtures of one shape (m, d) at the rows
    of X: ``diff`` (x - mu) and ``scaled`` ((x - mu)**2 / var), both
    (n, S, m, d), and log N(x | mu, diag(var)), (n, S, m)."""
    n, (S, m, d) = len(X), means.shape
    # X tiled to (n, S*m*d), so that each op runs over whole rows, not over
    # runs of d elements
    diff = np.tile(X, S * m).reshape(n, S, m, d)
    diff -= means
    scaled = diff**2 / variances
    mahal = reduce_last(np.add, scaled)
    log_norm = 0.5 * (d * np.log(2.0 * np.pi) + reduce_last(np.add, np.log(variances)))
    return diff, scaled, -0.5 * mahal - log_norm


def _gmm_joint(table: np.ndarray, weights: np.ndarray):
    """The joint table ``logj`` (log w + log N(x | component)) and its
    unfloored logsumexp over components, ``lse``."""
    logj = table + np.log(weights)
    return logj, _logsumexp(logj)


def _gmm_resp(logj: np.ndarray, lse: np.ndarray) -> np.ndarray:
    """Posterior component memberships from ``_gmm_joint``'s tables."""
    return np.exp(logj - lse[..., None])


@dataclass
class GmmModel:
    """Gaussian mixture with diagonal covariances.

    Attributes:
        weights: (m,) mixture weights summing to 1.
        means: (m, d) component means.
        variances: (m, d) per-dimension variances, floored away from zero.

    A mixture holds parameters and scores: ``log_density`` runs
    ``GmmStack.log_density`` on a stack of one. Gradients and steps run on a
    ``GmmStack``, whose layout ``params`` follows.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    type_tag = "gmm"
    file_fields = dict.fromkeys(("weights", "means", "variances"), np.ndarray)

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
        S, m, d = self.means.shape
        # each of the S*m components' index, once per dimension
        self._repeat = np.repeat(np.arange(S * m), d)
        self._bound = False

    def forward(self, X: np.ndarray):
        """(state, L): what ``nll_grad`` takes back for these rows, and the
        (n, S) floored log-densities. X is not checked: it must be an (n, d)
        float64 matrix of finite rows, as ``log_density`` and calibration
        check them, once per call and once per run."""
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
        X = as_queries(X, self.means.shape[2])
        rows = max(1, _BLOCK_BYTES // (8 * self.means.size))
        out = np.empty((len(X), len(self.models)))
        for r0 in range(0, len(X), rows):
            out[r0 : r0 + rows] = self.forward(X[r0 : r0 + rows])[1]
        return out

    def nll_grad(self, state, mask: np.ndarray | None = None) -> np.ndarray:
        """(S, 2md + m) gradients of -log p(x) from a ``forward`` state, in
        ``params`` layout (means, log-variances, weight logits), one row per
        mixture.

        ``mask`` is an (n, S) 0/1 table of the rows each mixture sums over,
        or None for every row. A masked row enters each sum as a signed zero,
        and numpy starts every sum at +0.0, so the sum keeps the bits of the
        sum over the mixture's own rows alone; a mixture with no rows gets
        +0.0.
        """
        diff, scaled, logj, lse = state
        resp = _gmm_resp(logj, lse)
        count = len(resp)
        if mask is not None:
            resp *= mask[:, :, None]
            count = np.sum(mask, axis=0)[:, None]
        n, (S, m, d) = len(resp), self.variances.shape
        # every table flattened to (n, S*m*d), resp repeated over each
        # component's d dims: one inner loop per row; the sums over the
        # batch still add its rows in order
        w = np.take(resp.reshape(n, S * m), self._repeat, axis=1)
        g = w * diff.reshape(n, -1)
        g /= self.variances.reshape(-1)
        grad = np.empty((S, 2 * m * d + m))
        grad[:, : m * d] = -np.add.reduce(g, axis=0).reshape(S, m * d)
        np.subtract(scaled.reshape(n, -1), 1.0, out=g)
        g *= w
        grad[:, m * d : 2 * m * d] = -0.5 * np.add.reduce(g, axis=0).reshape(S, m * d)
        grad[:, 2 * m * d :] = count * self.weights - np.sum(resp, axis=0)
        if mask is not None:
            grad[count[:, 0] == 0] = 0.0
        return grad

    def apply_grad(self, grad: np.ndarray, lr: float) -> None:
        """One step of -lr * grad, (S, 2md + m) in ``params`` layout, or
        ValueError for any other shape: means and log-variances move,
        variances are floored at ``GMM_VARIANCE_FLOOR`` and weights are the
        softmax of the moved logits. The stacked arrays are updated in
        place. The first step makes each model's arrays views of its row,
        which every later step moves; a stack that only scores
        (``GmmModel.log_density``) never rebinds a model."""
        S, m, d = self.means.shape
        if grad.shape != (S, 2 * m * d + m):
            raise ValueError(f"expected {S} x {2 * m * d + m} gradients, got {grad.shape}")
        step = lr * grad
        self.means -= step[:, : m * d].reshape(S, m, d)
        log_var = np.log(self.variances)
        log_var -= step[:, m * d : 2 * m * d].reshape(S, m, d)
        np.exp(log_var, out=log_var)
        np.maximum(log_var, GMM_VARIANCE_FLOOR, out=self.variances)
        logits = np.log(self.weights)
        logits -= step[:, 2 * m * d :]
        logits -= _logsumexp(logits)[:, None]
        np.exp(logits, out=self.weights)
        if not self._bound:
            for model, *arrays in zip(self.models, self.weights, self.means, self.variances):
                model.weights, model.means, model.variances = arrays
            self._bound = True


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
    prev = -np.inf
    for _ in range(GMM_MAX_ITER):
        table = _gmm_table(X, means[None], variances[None])[2][:, 0]
        logj, log_px = _gmm_joint(table, weights)
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
        if ll - prev < GMM_TOL:
            break
        prev = ll
    # validated once, as the fitted model, not at every iteration
    return GmmModel(weights, means, variances)


FAMILIES = {c.type_tag: c for c in (KdeModel, GmmModel)}
