"""Density estimator correctness against probability-domain oracles."""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import responsibilities, set_params
from densemble import density
from densemble.density import (
    GMM_VARIANCE_FLOOR,
    LOG_DENSITY_FLOOR,
    GmmModel,
    GmmStack,
    KdeModel,
    gmm_fit,
    kde_fit,
)
from densemble.harness import load_config, prepare_data, stream_seeds


def brute_kde_log(points, h, x):
    """Direct probability-domain mean of Gaussian kernels."""
    d = points.shape[1]
    sq = np.sum((points - x) ** 2, axis=1)
    vals = np.exp(-sq / (2.0 * h * h)) / (2.0 * np.pi * h * h) ** (d / 2.0)
    return np.log(np.mean(vals))


def brute_gmm_log(model, x):
    """Direct probability-domain mixture sum with per-dimension normal pdfs."""
    total = 0.0
    for w, mu, var in zip(model.weights, model.means, model.variances):
        pdf = np.prod(np.exp(-((x - mu) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var))
        total += w * pdf
    return np.log(total)


def test_kde_single_point_peak_value():
    # at its own single point the density is the kernel normalizer:
    # -(d/2) log(2 pi h^2); frozen for d=2
    model = kde_fit(np.zeros((1, 2)), 1.0)
    assert np.isclose(model.log_density(np.zeros(2))[0], -1.8378770664093453, atol=1e-12)
    model = kde_fit(np.zeros((1, 2)), 0.1)
    assert np.isclose(model.log_density(np.zeros(2))[0], 2.767293119578746, atol=1e-12)


def test_kde_matches_brute_force_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(2, 40)
        d = rng.integers(1, 4)
        pts = rng.normal(size=(n, d))
        h = float(rng.uniform(0.2, 2.0))
        model = kde_fit(pts, h)
        X = rng.normal(size=(5, d))
        got = model.log_density(X)
        for i in range(5):
            want = brute_kde_log(pts, h, X[i])
            assert np.isclose(got[i], want, rtol=1e-10, atol=1e-12)


def test_kde_batch_equals_per_query():
    rng = np.random.default_rng(1)
    model = kde_fit(rng.normal(size=(30, 2)), 0.5)
    X = rng.normal(size=(10, 2))
    batch = model.log_density(X)
    singles = np.array([model.log_density(X[i])[0] for i in range(10)])
    assert_bitwise_equal(batch, singles)


def test_kde_far_query_floored():
    model = kde_fit(np.zeros((3, 2)), 0.1)
    val = model.log_density(np.array([1e4, 1e4]))[0]
    assert val == LOG_DENSITY_FLOOR


def reference_sq_dist(model, X):
    """(n, m) squared distances, summed over dimensions in order."""
    sq = (X[:, 0, None] - model.points[None, :, 0]) ** 2
    for c in range(1, model.dim):
        sq = sq + (X[:, c, None] - model.points[None, :, c]) ** 2
    return sq


def gram_sq_dist(model, X):
    """(n, m) squared distances by |x|^2 + |p|^2 - 2 x.p^T, clamped at 0:
    the kernel's arithmetic before it summed one dimension at a time."""
    sq = (
        np.sum(X**2, axis=1)[:, None]
        + np.sum(model.points**2, axis=1)[None, :]
        - 2.0 * X @ model.points.T
    )
    return np.maximum(sq, 0.0)


def reference_exp_inputs(model, X, sq_dist=reference_sq_dist):
    """(n, m) kernel terms minus their row max: what the formula exps."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    log_kernels = -sq_dist(model, X) / (2.0 * model.bandwidth**2)
    top = np.max(log_kernels, axis=1, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    return log_kernels - top, np.squeeze(top, axis=1)


def reference_kde_log_density(model, X, sq_dist=reference_sq_dist):
    """The unblocked formula: whole-batch temporaries, exp on every term."""
    shifted, top = reference_exp_inputs(model, X, sq_dist)
    lse = top + np.log(np.sum(np.exp(shifted), axis=1))
    h2 = model.bandwidth**2
    norm = np.log(len(model.points)) + 0.5 * model.dim * np.log(2.0 * np.pi * h2)
    return np.maximum(lse - norm, LOG_DENSITY_FLOOR)


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_kde_block_of_one_row_matches_reference():
    # m > _BLOCK_BYTES / 8 points leave room for a single row per block
    rng = np.random.default_rng(0)
    m = density._BLOCK_BYTES // 8 + 37
    model = kde_fit(rng.normal(size=(m, 2)), 0.3)
    X = rng.normal(size=(5, 2)) * 2.0
    assert max(1, density._BLOCK_BYTES // (8 * m)) == 1
    assert_bitwise_equal(model.log_density(X), reference_kde_log_density(model, X))


def test_kde_ragged_last_block_matches_reference():
    rng = np.random.default_rng(1)
    for d, m, h in [(2, 560, 0.1), (3, 701, 0.05), (1, 33, 1.0), (5, 900, 0.4)]:
        model = kde_fit(rng.normal(size=(m, d)) * 2.0, h)
        rows = density._BLOCK_BYTES // (8 * m)
        n = 3 * rows + 17
        # near, mid-range and far queries: most kernel terms underflow
        X = rng.normal(size=(n, d)) * rng.choice([0.5, 3.0, 12.0], size=(n, 1))
        assert_bitwise_equal(model.log_density(X), reference_kde_log_density(model, X))


def test_kde_all_floored_matches_reference():
    rng = np.random.default_rng(2)
    model = kde_fit(rng.normal(size=(300, 2)), 0.1)
    X = rng.normal(size=(50, 2)) + 500.0
    got = model.log_density(X)
    assert np.all(got == LOG_DENSITY_FLOOR)
    assert_bitwise_equal(got, reference_kde_log_density(model, X))


def subnormal_model_and_queries():
    """Points on a line, 0.5 h apart, from 37 h to 39 h from the queries:
    relative to the nearest point, the far terms' exp inputs reach -745 to
    -708, where exp returns subnormals."""
    h = 0.1
    near = np.zeros((1, 2))
    far = np.stack([np.linspace(37.0 * h, 39.0 * h, 400), np.zeros(400)], axis=1)
    model = kde_fit(np.concatenate([near, far]), h)
    X = np.random.default_rng(4).normal(size=(30, 2)) * 0.01
    return model, X


def test_kde_flushed_subnormal_terms_match_reference():
    # the kernel counts the subnormal terms as 0; each is below half an ulp
    # of the row's top term, 1.0, so the row keeps the plain formula's bits
    model, X = subnormal_model_and_queries()
    shifted, _ = reference_exp_inputs(model, X)
    sub = (shifted >= -745.13) & (shifted <= -708.4)
    assert sub.sum() > 1000
    assert np.all(np.exp(shifted[sub]) < np.finfo(np.float64).tiny)
    assert_bitwise_equal(model.log_density(X), reference_kde_log_density(model, X))


def test_kde_block_keeps_normal_exps_and_zeroes_the_rest():
    # buffers with more rows than the block, as a ragged last block has
    model, X = subnormal_model_and_queries()
    X = np.concatenate([X, np.random.default_rng(5).normal(size=(20, 2))])
    n, m = len(X), len(model.points)
    buf, tmp, kept = np.empty((n + 7, m)), np.empty((n + 7, m)), np.empty((n + 7, m), bool)
    out = np.empty(n)
    scale = -2.0 * model.bandwidth**2
    density._kde_block(X, model.points.T.copy(), scale, buf, tmp, kept, out)
    shifted, top = reference_exp_inputs(model, X)
    terms = buf[:n]
    keep = terms != 0.0
    # every entry is a normal exp or +0.0, and the dropped ones include
    # every subnormal or zero exp
    assert np.all(terms[keep] >= np.finfo(np.float64).tiny)
    assert np.all(terms[~keep].view(np.int64) == 0)
    assert np.all(np.exp(shifted[~keep]) < np.finfo(np.float64).tiny)
    assert np.any((np.exp(shifted) > 0.0) & ~keep)
    assert_bitwise_equal(terms[keep], np.exp(shifted[keep]))
    assert_bitwise_equal(out, top + np.log(np.sum(np.exp(shifted), axis=1)))


def test_kde_overflowed_distance_beside_finite_ones_matches_reference():
    # (1e154, 0) is 1e154 from the first point, a squared distance of 1e308,
    # and 2e154 from the second, whose square overflows to inf: the row's
    # kernel term for it is -inf, which must come out as a 0 term, not NaN
    model = kde_fit(np.array([[0.0, 0.0], [-1e154, 0.0]]), 1.0)
    X = np.array([[1e154, 0.0], [-1e154, 0.0], [0.5, 0.0], [1e154, 1e154]])
    with np.errstate(over="ignore", divide="ignore"):
        want = reference_kde_log_density(model, X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.log_density(X)
    assert not np.isnan(want).any()
    assert_bitwise_equal(got, want)


def test_kde_only_row_max_kept_matches_reference():
    # points 10 apart with h = 0.1: every other term is below -5000
    rng = np.random.default_rng(5)
    pts = np.stack([10.0 * np.arange(200), np.zeros(200)], axis=1)
    model = kde_fit(pts, 0.1)
    X = pts[rng.integers(0, 200, size=150)] + rng.normal(size=(150, 2)) * 0.05
    shifted, _ = reference_exp_inputs(model, X)
    assert np.all(np.sum(shifted >= density._EXP_CUTOFF, axis=1) == 1)
    assert_bitwise_equal(model.log_density(X), reference_kde_log_density(model, X))


def test_kde_every_term_kept_matches_reference():
    rng = np.random.default_rng(6)
    model = kde_fit(rng.normal(size=(700, 3)), 1.0)
    X = rng.normal(size=(400, 3))
    shifted, _ = reference_exp_inputs(model, X)
    assert np.all(shifted >= density._EXP_CUTOFF)
    assert_bitwise_equal(model.log_density(X), reference_kde_log_density(model, X))


def test_kde_random_shapes_match_reference():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 1500))
        m = int(rng.integers(1, 1200))
        h = float(rng.uniform(0.02, 1.0))
        model = kde_fit(rng.normal(size=(m, d)), h)
        X = rng.normal(size=(n, d)) * rng.choice([0.3, 1.0, 3.0], size=(n, 1))
        assert_bitwise_equal(model.log_density(X), reference_kde_log_density(model, X))


def test_kde_within_1e_11_of_gram_formula():
    # the kernel once formed squared distances as |x|^2 + |p|^2 - 2 x.p^T;
    # summing (x_c - p_c)^2 per dimension moved the bits, by this much
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 1500))
        m = int(rng.integers(1, 1200))
        h = float(rng.uniform(0.02, 1.0))
        model = kde_fit(rng.normal(size=(m, d)), h)
        X = rng.normal(size=(n, d)) * rng.choice([0.3, 1.0, 3.0], size=(n, 1))
        gram = reference_kde_log_density(model, X, gram_sq_dist)
        assert np.max(np.abs(model.log_density(X) - gram)) <= 1e-11


@pytest.mark.parametrize("preset", ["toy3", "splitA", "splitB", "splitC"])
def test_kde_batch_rows_equal_full_table_rows(preset):
    # calibration gathers batch rows from a table scored once over the
    # training set; that is exact only if a row's bits ignore its batch
    cfg = load_config(preset)
    rng = np.random.default_rng(9)
    for seed in range(3):
        train, _, shards = prepare_data(cfg, stream_seeds(seed, len(cfg.parties)))
        kde = [(p.estimator, s) for p, s in zip(cfg.parties, shards) if p.estimator.type == "kde"]
        assert kde
        for ec, shard in kde:
            model = kde_fit(shard.features, ec.bandwidth)
            full = model.log_density(train.features)
            for _ in range(50):
                sel = rng.choice(len(train), size=64, replace=False)
                assert_bitwise_equal(model.log_density(train.features[sel]), full[sel])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_log_density_rejects_non_finite_queries(bad):
    kde = kde_fit(np.zeros((3, 2)), 0.1)
    gmm = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
    X = np.zeros((4, 2))
    X[2, 1] = bad
    for model in (kde, gmm):
        with pytest.raises(ValueError, match="queries must be finite"):
            model.log_density(X)


def test_kde_peak_memory_is_one_product():
    n, m = 20000, 560
    rng = np.random.default_rng(3)
    model = kde_fit(rng.normal(size=(m, 2)), 0.1)
    X = rng.normal(size=(n, 2)) * 4.0
    tracemalloc.start()
    try:
        model.log_density(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * m * 8, peak / (n * m * 8)


def test_kde_peak_memory_is_a_few_blocks(monkeypatch):
    monkeypatch.setattr(density, "_cpu_count", lambda: 1)
    # the distance block, its scratch twin and the kept mask are each at most
    # _BLOCK_BYTES; the output and the finite check are O(n). No
    # (queries x points) array is formed.
    n, m = 20000, 560
    rng = np.random.default_rng(3)
    model = kde_fit(rng.normal(size=(m, 2)), 0.1)
    X = rng.normal(size=(n, 2)) * 4.0
    tracemalloc.start()
    try:
        model.log_density(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * density._BLOCK_BYTES + 16 * n, peak / density._BLOCK_BYTES


@pytest.mark.parametrize("workers", [2, 3])
def test_kde_peak_memory_is_a_few_blocks_per_worker(monkeypatch, workers):
    # each worker has its own blocks (see above); the output and the
    # finite check stay O(n), whatever the worker count
    monkeypatch.setattr(density, "_cpu_count", lambda: workers)
    started = count_threads(monkeypatch)
    n, m = 20000, 560
    rng = np.random.default_rng(3)
    model = kde_fit(rng.normal(size=(m, 2)), 0.1)
    X = rng.normal(size=(n, 2)) * 4.0
    tracemalloc.start()
    try:
        model.log_density(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(started) == workers - 1
    bound = workers * 4 * density._BLOCK_BYTES + 16 * n
    assert peak <= bound, peak / density._BLOCK_BYTES


def count_threads(monkeypatch):
    """Record every thread the density module starts; returns the list."""
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(density.threading, "Thread", CountingThread)
    return started


def blocks_of(m, n_blocks, extra):
    """Rows in a batch of ``n_blocks`` full row blocks plus ``extra`` rows."""
    return n_blocks * (density._BLOCK_BYTES // (8 * m)) + extra


@pytest.mark.parametrize(
    "d, m, h, n, threads",
    [
        # ragged last block, three workers, wide and narrow kernels
        (2, 560, 0.3, blocks_of(560, 30, 17), 2),
        (2, 560, 0.03, blocks_of(560, 30, 17), 2),
        # 18 blocks give two shares of 8: the third CPU gets no worker
        (3, 701, 0.3, blocks_of(701, 17, 5), 1),
        (3, 701, 0.03, blocks_of(701, 17, 5), 1),
    ],
)
def test_kde_bits_equal_for_any_worker_count(monkeypatch, d, m, h, n, threads):
    rng = np.random.default_rng(10)
    model = kde_fit(rng.normal(size=(m, d)) * 2.0, h)
    X = rng.normal(size=(n, d)) * rng.choice([0.5, 3.0, 12.0], size=(n, 1))
    started = count_threads(monkeypatch)
    monkeypatch.setattr(density, "_cpu_count", lambda: 1)
    serial = model.log_density(X)
    assert started == []
    monkeypatch.setattr(density, "_cpu_count", lambda: 3)
    threaded = model.log_density(X)
    assert len(started) == threads
    assert_bitwise_equal(threaded, serial)
    assert_bitwise_equal(serial, reference_kde_log_density(model, X))


def test_kde_threads_take_every_block_once_under_fast_switching(monkeypatch):
    # more workers than cores, switching every microsecond: a block taken
    # twice or skipped would leave its rows of the output uninitialised
    rng = np.random.default_rng(11)
    model = kde_fit(rng.normal(size=(4000, 2)), 0.2)
    X = rng.normal(size=(blocks_of(4000, 160, 3), 2)) * 2.0
    monkeypatch.setattr(density, "_cpu_count", lambda: 8)
    started = count_threads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = model.log_density(X)
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 7
    monkeypatch.setattr(density, "_cpu_count", lambda: 1)
    assert_bitwise_equal(got, model.log_density(X))


@pytest.mark.parametrize("n_blocks, threads", [(15, 0), (16, 1)])
def test_kde_starts_a_thread_per_eight_blocks(monkeypatch, n_blocks, threads):
    monkeypatch.setattr(density, "_cpu_count", lambda: 4)
    started = count_threads(monkeypatch)
    rng = np.random.default_rng(12)
    model = kde_fit(rng.normal(size=(560, 2)), 0.1)
    model.log_density(rng.normal(size=(blocks_of(560, n_blocks, 0), 2)))
    assert len(started) == threads


@pytest.mark.parametrize("raiser", ["worker", "caller"])
def test_kde_error_on_any_thread_is_raised_after_every_join(monkeypatch, raiser):
    monkeypatch.setattr(density, "_cpu_count", lambda: 3)
    worker_ran = threading.Event()
    score = density._kde_block

    def flaky_block(*args):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker:
            worker_ran.set()
        else:
            # the caller waits until a worker has taken a block
            assert worker_ran.wait(timeout=10.0)
        if on_worker == (raiser == "worker"):
            raise RuntimeError(f"{raiser} failed")
        score(*args)

    monkeypatch.setattr(density, "_kde_block", flaky_block)
    rng = np.random.default_rng(13)
    model = kde_fit(rng.normal(size=(560, 2)), 0.1)
    X = rng.normal(size=(blocks_of(560, 40, 1), 2))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{raiser} failed"):
        model.log_density(X)
    assert threading.active_count() == before


def test_kde_empty_batch():
    model = kde_fit(np.random.default_rng(14).normal(size=(560, 3)), 0.1)
    assert model.log_density(np.zeros((0, 3))).shape == (0,)


def test_kde_validation():
    with pytest.raises(ValueError):
        kde_fit(np.zeros((0, 2)), 0.1)
    with pytest.raises(ValueError):
        kde_fit(np.zeros((3, 2)), 0.0)
    # h**2 underflows to 0 or overflows to inf
    for bandwidth in (1e-200, 1e200):
        with pytest.raises(ValueError, match="bandwidth"):
            kde_fit(np.zeros((3, 2)), bandwidth)
    model = kde_fit(np.zeros((3, 2)), 0.1)
    with pytest.raises(ValueError, match="dim"):
        model.log_density(np.zeros((1, 3)))


@pytest.mark.parametrize("bandwidth", [1e-150, 1e150])
def test_kde_extreme_bandwidth_with_finite_square_scores_finite(bandwidth):
    model = kde_fit(np.array([[0.0, 0.0], [1.0, 1.0]]), bandwidth)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logd = model.log_density(np.array([[0.0, 0.0], [0.5, 0.5]]))
    assert np.all(np.isfinite(logd))


def test_gmm_single_component_is_gaussian():
    model = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
    # standard normal at its mean in 2D: -log(2 pi)
    assert np.isclose(model.log_density(np.zeros(2))[0], -1.8378770664093453, atol=1e-12)


def test_gmm_matches_brute_force_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        w = rng.random(m) + 0.1
        w /= w.sum()
        model = GmmModel(w, rng.normal(size=(m, d)), rng.uniform(0.2, 2.0, size=(m, d)))
        X = rng.normal(size=(5, d))
        got = model.log_density(X)
        for i in range(5):
            want = brute_gmm_log(model, X[i])
            assert np.isclose(got[i], want, rtol=1e-10, atol=1e-12)


def test_gmm_responsibilities_simplex():
    rng = np.random.default_rng(3)
    model = GmmModel(
        np.array([0.3, 0.7]), rng.normal(size=(2, 2)), np.ones((2, 2))
    )
    R = responsibilities(model, rng.normal(size=(20, 2)))
    assert np.all(R >= 0)
    assert np.allclose(R.sum(axis=1), 1.0, atol=1e-12)


def test_gmm_em_loglik_nondecreasing(monkeypatch):
    monkeypatch.setattr(density, "GMM_MAX_ITER", 40)
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(30, 120))
        d = int(rng.integers(1, 4))
        X = np.concatenate(
            [
                rng.normal(loc=rng.uniform(-3, 3, size=d), scale=0.7, size=(n, d)),
                rng.normal(loc=rng.uniform(-3, 3, size=d), scale=0.7, size=(n, d)),
            ]
        )
        trace: list = []
        gmm_fit(X, 3, seed=trial, loglik_trace=trace)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-10), f"trial {trial}: EM decreased by {diffs.min()}"


def test_gmm_fit_recovers_separated_clusters():
    rng = np.random.default_rng(5)
    X = np.concatenate(
        [
            rng.normal(loc=(-4.0, 0.0), scale=0.5, size=(200, 2)),
            rng.normal(loc=(4.0, 0.0), scale=0.5, size=(200, 2)),
        ]
    )
    model = gmm_fit(X, 2, seed=0)
    order = np.argsort(model.means[:, 0])
    assert np.allclose(model.means[order][:, 0], [-4.0, 4.0], atol=0.2)
    assert np.allclose(model.weights, 0.5, atol=0.05)


def test_gmm_em_deterministic():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(80, 2))
    a = gmm_fit(X, 3, seed=12)
    b = gmm_fit(X, 3, seed=12)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.variances, b.variances)


def test_gmm_degenerate_data_hits_variance_floor():
    X = np.tile(np.array([[1.0, -2.0]]), (30, 1))
    model = gmm_fit(X, 2, seed=0)
    assert np.all(model.variances >= GMM_VARIANCE_FLOOR)
    assert np.all(np.isfinite(model.log_density(X)))


def test_gmm_far_query_floored():
    model = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)) * 0.01)
    assert model.log_density(np.array([1e4, 1e4]))[0] == LOG_DENSITY_FLOOR


def test_gmm_validation():
    with pytest.raises(ValueError):
        GmmModel(np.array([0.5, 0.6]), np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        GmmModel(np.array([1.0]), np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        GmmModel(np.array([1.0]), np.zeros((1, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        gmm_fit(np.zeros((0, 2)), 2)


def test_gmm_params_round_trip():
    rng = np.random.default_rng(7)
    model = GmmModel(
        np.array([0.25, 0.75]), rng.normal(size=(2, 3)), rng.uniform(0.5, 2.0, (2, 3))
    )
    flat = model.params
    clone = GmmModel(model.weights.copy(), model.means.copy(), model.variances.copy())
    set_params(clone, flat)
    assert np.allclose(clone.means, model.means, atol=1e-15)
    assert np.allclose(clone.variances, model.variances, rtol=1e-15)
    assert np.allclose(clone.weights, model.weights, atol=1e-15)


def test_gmm_nll_grad_matches_finite_differences():
    rng = np.random.default_rng(8)
    for trial in range(30):
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        w = rng.random(m) + 0.2
        model = GmmModel(
            w / w.sum(), rng.normal(size=(m, d)), rng.uniform(0.5, 2.0, (m, d))
        )
        X = rng.normal(size=(4, d))
        one = GmmStack([model])
        got = one.nll_grad(one.forward(X)[0])[0]
        flat = model.params
        eps = 1e-6
        fd = np.zeros_like(flat)
        for i in range(len(flat)):
            probe = GmmModel(model.weights.copy(), model.means.copy(), model.variances.copy())
            bump = flat.copy()
            bump[i] += eps
            set_params(probe, bump)
            hi = -probe.log_density(X).sum()
            bump[i] -= 2 * eps
            set_params(probe, bump)
            lo = -probe.log_density(X).sum()
            fd[i] = (hi - lo) / (2 * eps)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(got - fd) / denom < 1e-5, f"trial {trial}"



def reference_nll_grad(model, X):
    """A mixture's NLL gradient, forming every intermediate from X afresh."""
    resp = responsibilities(model, X)
    diff = X[:, None, :] - model.means[None, :, :]
    g_mean = -np.sum(resp[:, :, None] * diff / model.variances[None, :, :], axis=0)
    g_logvar = -0.5 * np.sum(
        resp[:, :, None] * (diff**2 / model.variances[None, :, :] - 1.0), axis=0
    )
    g_logit = X.shape[0] * model.weights - resp.sum(axis=0)
    return np.concatenate([g_mean.ravel(), g_logvar.ravel(), g_logit])


def test_gmm_nll_grad_over_masked_rows_matches_reference_bitwise():
    # a stack of three mixtures, each summing over its own rows of the batch:
    # every row is bitwise the reference over its mixture's rows alone, and a
    # mixture with no rows gets an exact +0.0 block
    rng = np.random.default_rng(9)
    models = []
    for _ in range(3):
        w = rng.random(4) + 0.2
        models.append(
            GmmModel(w / w.sum(), rng.normal(size=(4, 2)), rng.uniform(0.03, 3.0, (4, 2)))
        )
    X = rng.normal(size=(25, 2)) * 2.0
    mask = (rng.random((len(X), 3)) < 0.6).astype(np.float64)
    mask[:, 2] = 0.0
    stack = GmmStack(models)
    state, L = stack.forward(X)
    got = stack.nll_grad(state, mask)
    whole = stack.nll_grad(state)
    for s, model in enumerate(models):
        rows = np.flatnonzero(mask[:, s])
        want = reference_nll_grad(model, X[rows]) if len(rows) else np.zeros(got.shape[1])
        assert got[s].tobytes() == want.tobytes()
        assert whole[s].tobytes() == reference_nll_grad(model, X).tobytes()
        one = GmmStack([model])
        assert one.nll_grad(one.forward(X)[0])[0].tobytes() == whole[s].tobytes()
        assert_bitwise_equal(L[:, s], model.log_density(X))


def head_logsumexp(a):
    """logsumexp over the last axis with numpy's own max and sum."""
    m = np.max(a, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.squeeze(m, axis=-1) + np.log(np.sum(np.exp(a - m), axis=-1))


def head_forward(stack, X):
    """``GmmStack.forward`` written as (n, S, m, d) broadcasts and numpy's
    own reductions over d and over the components."""
    diff = X[:, None, None, :] - stack.means[None]
    scaled = diff**2 / stack.variances[None]
    mahal = np.sum(scaled, axis=3)
    d = stack.means.shape[2]
    log_norm = 0.5 * (d * np.log(2.0 * np.pi) + np.sum(np.log(stack.variances), axis=2))
    logj = (-0.5 * mahal - log_norm[None]) + np.log(stack.weights)
    lse = head_logsumexp(logj)
    return (diff, scaled, logj, lse), np.maximum(lse, LOG_DENSITY_FLOOR)


def head_nll_grad(stack, state, mask):
    """``GmmStack.nll_grad`` with the responsibilities broadcast over d."""
    diff, scaled, logj, lse = state
    resp = np.exp(logj - lse[..., None])
    count = len(resp)
    if mask is not None:
        resp = resp * mask[:, :, None]
        count = np.sum(mask, axis=0)[:, None]
    w = resp[..., None]
    S = len(stack.models)
    grad = np.concatenate(
        [
            -np.sum(w * diff / stack.variances[None], axis=0).reshape(S, -1),
            -0.5 * np.sum(w * (scaled - 1.0), axis=0).reshape(S, -1),
            count * stack.weights - np.sum(resp, axis=0),
        ],
        axis=1,
    )
    if mask is not None:
        grad[count[:, 0] == 0] = 0.0
    return grad


def head_apply_grad(stack, grad, lr):
    """The (weights, means, variances) one ``GmmStack.apply_grad`` step gives."""
    S, m, d = stack.means.shape
    step = lr * grad
    means = stack.means - step[:, : m * d].reshape(S, m, d)
    log_var = np.log(stack.variances) - step[:, m * d : 2 * m * d].reshape(S, m, d)
    variances = np.maximum(np.exp(log_var), GMM_VARIANCE_FLOOR)
    logits = np.log(stack.weights) - step[:, 2 * m * d :]
    return np.exp(logits - head_logsumexp(logits)[:, None]), means, variances


@pytest.mark.parametrize("d", [1, 2, 9])
@pytest.mark.parametrize("m", [1, 4, 9])
def test_gmm_stack_matches_broadcast_formulas_bitwise(m, d):
    # the tiled tables and the chained reductions over d and over the
    # components give the bits of the plain broadcasts and numpy reductions,
    # on either side of the widths the chains cover; two far rows overflow
    # to a -inf table, and the mask leaves the last mixture no rows
    rng = np.random.default_rng(100 * m + d)
    models = []
    for _ in range(3):
        w = rng.random(m) + 0.2
        models.append(
            GmmModel(w / w.sum(), rng.normal(size=(m, d)), rng.uniform(0.03, 3.0, (m, d)))
        )
    stack = GmmStack(models)
    X = rng.normal(size=(40, d)) * 3.0
    far = np.vstack([X, np.full((2, d), 1e200)])
    with np.errstate(over="ignore", divide="ignore"):
        want_state, want_L = head_forward(stack, far)
    state, L = stack.forward(far)
    assert L.tobytes() == want_L.tobytes()
    for got, want in zip(state, want_state):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    state, _ = stack.forward(X)
    mask = (rng.random((len(X), 3)) < 0.6).astype(np.float64)
    mask[:, 2] = 0.0
    for rows in (None, mask):
        want = head_nll_grad(stack, stack.forward(X)[0], rows)
        assert stack.nll_grad(state, rows).tobytes() == want.tobytes()
    grad = rng.normal(size=(3, 2 * m * d + m)) * 40.0
    want = head_apply_grad(stack, grad, 0.1)
    stack.apply_grad(grad, 0.1)
    for got, expected in zip((stack.weights, stack.means, stack.variances), want):
        assert got.tobytes() == expected.tobytes()


def test_gmm_stack_log_density_row_blocks_match_whole_batch_bitwise(monkeypatch):
    # held-out scoring runs in row blocks of bounded size; a block's rows
    # have the bits of the same rows scored in one whole-batch forward pass
    rng = np.random.default_rng(11)
    models = []
    for _ in range(5):
        w = rng.random(3) + 0.2
        models.append(
            GmmModel(w / w.sum(), rng.normal(size=(3, 2)), rng.uniform(0.03, 3.0, (3, 2)))
        )
    stack = GmmStack(models)
    X = rng.normal(size=(5000, 2)) * 3.0
    whole = stack.forward(X)[1]
    rows = []
    forward = GmmStack.forward

    def counted(self, X):
        rows.append(len(X))
        return forward(self, X)

    monkeypatch.setattr(GmmStack, "forward", counted)
    got = stack.log_density(X)
    per_block = density._BLOCK_BYTES // (8 * stack.means.size)
    assert max(rows) == per_block < len(X) and sum(rows) == len(X)
    assert got.tobytes() == whole.tobytes()
    assert stack.log_density(X[:0]).shape == (0, 5)


def test_gmm_model_log_density_is_blocked_stack_of_one_bitwise(monkeypatch):
    # a lone mixture scores through the blocked stack path; across several
    # row blocks its densities keep the bits of one whole-batch forward pass
    rng = np.random.default_rng(12)
    w = rng.random(4) + 0.2
    g = GmmModel(w / w.sum(), rng.normal(size=(4, 2)), rng.uniform(0.03, 3.0, (4, 2)))
    per_block = density._BLOCK_BYTES // (8 * g.means.size)
    X = rng.normal(size=(2 * per_block + 37, 2)) * 3.0
    whole = GmmStack([g]).forward(X)[1][:, 0]
    rows = []
    forward = GmmStack.forward

    def counted(self, X):
        rows.append(len(X))
        return forward(self, X)

    monkeypatch.setattr(GmmStack, "forward", counted)
    got = g.log_density(X)
    assert rows == [per_block, per_block, 37]
    assert got.tobytes() == whole.tobytes()


@pytest.mark.parametrize(
    "make, field, value",
    [
        ("gmm", "weights", np.nan),
        ("gmm", "means", np.nan),
        ("gmm", "means", np.inf),
        ("gmm", "variances", np.nan),
        ("gmm", "variances", np.inf),
        ("kde", "points", np.nan),
        ("kde", "points", -np.inf),
        ("kde", "bandwidth", np.inf),
        ("kde", "bandwidth", np.nan),
    ],
)
def test_estimators_reject_non_finite_parameters(make, field, value):
    if make == "gmm":
        fields = dict(
            weights=np.array([0.5, 0.5]), means=np.zeros((2, 2)), variances=np.ones((2, 2))
        )
        cls = GmmModel
    else:
        fields = dict(points=np.zeros((3, 2)), bandwidth=0.5)
        cls = KdeModel
    if np.ndim(fields[field]):
        fields[field] = fields[field].copy()
        fields[field].flat[1] = value
    else:
        fields[field] = value
    with pytest.raises(ValueError, match="parameters must be finite"):
        cls(**fields)


def test_gmm_apply_grad_matches_set_params_bitwise():
    # the stacked step against params/set_params, with a step that pushes a
    # variance down to the floor; 0.25 and 0.03 do not survive log/exp
    rng = np.random.default_rng(10)
    variances = np.array([[0.03, 1.3, 0.25], [3.7, 0.9, 2.0]])
    model = GmmModel(np.array([0.25, 0.75]), rng.normal(size=(2, 3)), variances)
    g = rng.normal(size=len(model.params))
    g[6 + 2] = 1e4  # the log-variance of variances[0, 2]
    for lr in (0.05, 1.0):
        ref = GmmModel(model.weights.copy(), model.means.copy(), model.variances.copy())
        set_params(ref, model.params - lr * g)
        GmmStack([model]).apply_grad(g[None], lr)
        for name in ("weights", "means", "variances"):
            assert_bitwise_equal(getattr(model, name), getattr(ref, name))
    assert model.variances[0, 2] == GMM_VARIANCE_FLOOR


@pytest.mark.parametrize("workers", [1, 3])
def test_huge_finite_queries_floor_without_warnings(monkeypatch, workers):
    # (1e200)^2 overflows to inf: the row's density is the floor, and numpy
    # must not warn about the overflow or the log of a zero kernel sum, on
    # the calling thread or on a scoring thread
    monkeypatch.setattr(density, "_cpu_count", lambda: workers)
    started = count_threads(monkeypatch)
    rng = np.random.default_rng(11)
    points = rng.normal(size=(300, 2))
    # 218 rows per KDE block at 300 points: 6000 rows are 28 blocks, enough
    # for three workers
    X = rng.normal(size=(6000, 2))
    huge = np.arange(0, len(X), 5)
    X[huge, 0] = 1e200
    X[huge[::2], 1] = -1e300
    plain = np.setdiff1d(np.arange(len(X)), huge)
    for model in (kde_fit(points, 0.1), gmm_fit(points, 3, seed=0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model.log_density(X)
        assert np.all(got[huge] == LOG_DENSITY_FLOOR)
        assert np.array_equal(got[plain], model.log_density(X[plain]))
    assert bool(started) == (workers > 1)
