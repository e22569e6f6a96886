"""Shared test doubles, parameter and loss oracles, artifact readers, fast
experiment configs and JSON mutation helpers."""

import copy
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from densemble.calibration import TraceRow, _batch_scores, _check_label
from densemble.classifiers import SoftmaxRegression, _softmax_upstream_to_logits, _views
from densemble.density import (
    GMM_VARIANCE_FLOOR,
    GmmModel,
    GmmStack,
    _gmm_resp,
    _logsumexp,
    kde_fit,
)
from densemble.ensemble import PartyModel, build_ensemble
from densemble.harness import (
    ExperimentConfig,
    config_from_dict,
    load_config,
    prepare_data,
    stream_seeds,
)
from densemble.serialize import save_ensemble


class ConstantClassifier:
    """Returns the same posterior row for every query; no parameters."""

    def __init__(self, probs, label_space):
        self.probs = np.asarray(probs, dtype=np.float64)
        self.label_space = tuple(sorted(label_space))
        self.dim = 2

    def posterior(self, x):
        P = np.tile(self.probs, (len(np.atleast_2d(x)), 1))
        return P[0] if np.asarray(x).ndim == 1 else P


def set_params(model, flat):
    """Overwrite a model's parameters with the flat vector ``flat`` in its
    ``params`` layout: a classifier's buffer takes a copy, and a mixture is
    rebuilt from its means, log-variances (exp'd and floored) and weight
    logits (softmaxed), as a ``GmmStack`` step would leave it."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != model.params.shape:
        raise ValueError(f"expected {model.params.size} parameters, got {flat.shape}")
    if not isinstance(model, GmmModel):
        model._flat[...] = flat
        return
    m, d = model.means.shape
    model.means = flat[: m * d].reshape(m, d).copy()
    model.variances = np.maximum(np.exp(flat[m * d : 2 * m * d].reshape(m, d)), GMM_VARIANCE_FLOOR)
    logits = flat[2 * m * d :]
    model.weights = np.exp(logits - _logsumexp(logits))


def posterior_grad(model, x, upstream):
    """A classifier's flat gradient of ``sum(upstream * posterior(x))``: the
    family's ``_backward`` of a fresh ``_forward``, run on the classifier's
    own arrays, which have no stack axis, into a new buffer."""
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    U = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
    params = _views(model._flat, model._layout)
    H, P = model._forward(params, X)
    g = np.empty_like(model._flat)
    gz = _softmax_upstream_to_logits(P, U)
    model._backward(params, X, H, gz, _views(g, model._layout))
    return g


def cross_entropy(model, ds) -> float:
    """Mean negative log posterior of the true local class."""
    y_local = model._index.to_local(ds.labels)
    P = model.posterior(ds.features)
    picked = np.maximum(P[np.arange(len(ds)), y_local], 1e-300)
    return float(-np.mean(np.log(picked)))


def accuracy(model, ds) -> float:
    """Fraction of samples whose argmax posterior matches the label."""
    if len(ds) == 0:
        raise ValueError("accuracy of an empty dataset is undefined")
    P = model.posterior(ds.features)
    space = np.array(model.label_space)
    return float(np.mean(space[np.argmax(P, axis=1)] == ds.labels))


@dataclass
class MpceLossValue:
    """Loss value with the per-party weights that produced it."""

    value: float
    weights: np.ndarray


def mpce_loss(ens, x, y: int) -> MpceLossValue:
    """Negative log density-weighted true-class score for one sample."""
    _check_label(ens, y)
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    om, score = _batch_scores(ens, X, np.array([y]))
    return MpceLossValue(float(-np.log(score[0])), om.weights[0])


def decide_with_weights(om, lam) -> np.ndarray:
    """Decision under externally supplied per-query party weights: a
    one-hot at the argmax-density party must reproduce
    ``max_model_decide``."""
    lam = np.atleast_2d(np.asarray(lam, dtype=np.float64))
    return np.argmax(np.einsum("njk,nj->nk", om.posteriors, lam), axis=1)


def responsibilities(model, X):
    """(n, m) posterior component memberships of a mixture, from the
    ``forward`` state of a stack of one."""
    state, _ = GmmStack([model]).forward(X)
    return _gmm_resp(*state[2:])[:, 0]


class LinearDensity:
    """log p(x) = a . x + b; query-dependent but analytically simple."""

    def __init__(self, a, b=0.0):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = float(b)

    def log_density(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return X @ self.a + self.b


class ConstantDensity:
    """Same log-density everywhere."""

    def __init__(self, value):
        self.value = float(value)

    def log_density(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.full(X.shape[0], self.value)


def random_simplex(rng, shape):
    v = rng.random(shape) + 1e-3
    return v / v.sum(axis=-1, keepdims=True)


def read_columns(path, check_header) -> tuple[list[int], list[list]]:
    """Read a CSV the toolkit writes, column by column.

    ``check_header`` gets the stripped header line, raises ValueError if it
    is wrong, and returns one parser per leading column to parse; any later
    columns are counted but not parsed. Lines are stripped and blank ones
    skipped. Returns the data rows' line numbers and, per parser, the list
    of its column's parsed cells. A row whose field count differs from the
    header's, or a parsed cell that its parser rejects or that holds ``_``
    or a non-ASCII character (Python literal syntax, which ``float`` and
    ``int`` accept), raises ValueError naming its line: ``non-integer cell``
    under an ``int`` column, ``non-numeric cell`` under any other.
    """
    with open(path, errors="surrogateescape") as fh:
        header = fh.readline().strip()
        parsers = check_header(header)
        width = len(header.split(","))
        linenos, columns = [], [[] for _ in parsers]
        for lineno, line in enumerate(map(str.strip, fh), 2):
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != width:
                raise ValueError(f"line {lineno}: expected {width} fields, got {len(cells)}")
            for column, parse, cell in zip(columns, parsers, cells):
                try:
                    if not cell.isascii() or "_" in cell:
                        raise ValueError
                    column.append(parse(cell))
                except ValueError:
                    kind = "non-integer" if parse is int else "non-numeric"
                    raise ValueError(f"line {lineno}: {kind} cell in {line!r}") from None
            linenos.append(lineno)
    return linenos, columns


def _predictions_header(header: str) -> list:
    names = header.split(",")
    if names[:2] != ["query_index", "label"]:
        raise ValueError(f"line 1: unexpected predictions header {names}")
    return [int, int]


def read_predictions(path) -> np.ndarray:
    """The label column of a ``write_predictions`` file, whose query indices
    must count up from 0."""
    linenos, (index, labels) = read_columns(path, _predictions_header)
    for lineno, got, want in zip(linenos, index, range(len(index))):
        if got != want:
            raise ValueError(f"line {lineno}: query_index out of order")
    return np.array(labels, dtype=np.int64)


def _trace_step(cell: str) -> int:
    """A step cell. Not ``int`` itself, so a malformed one is reported as a
    ``non-numeric cell``, as every malformed trace cell is."""
    return int(cell)


def _trace_accuracy(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _trace_header(header: str) -> list:
    if header != "step,loss,test_accuracy":
        raise ValueError(f"line 1: unexpected trace header {header!r}")
    return [_trace_step, float, _trace_accuracy]


def read_trace(path) -> list[TraceRow]:
    _, columns = read_columns(path, _trace_header)
    return [TraceRow(*row) for row in zip(*columns)]


def fast_experiment_doc() -> dict:
    """Three-party blob setup small enough for per-test pipeline runs."""
    return {
        "seed": 0,
        "data": {"n": 500, "num_classes": 5, "train_ratio": 0.7},
        "partition": {
            "seed": 0,
            "parties": [
                {"classes": [0, 1], "fraction": 1.0},
                {"classes": [2, 3], "fraction": 0.5},
                {"classes": [3, 4], "fraction": 0.5},
            ],
        },
        "parties": [
            {
                "classifier": {"type": "softmax_regression", "lr": 0.1, "epochs": 60, "batch": 32},
                "estimator": {"type": "kde", "bandwidth": 0.1},
            },
            {
                "classifier": {"type": "mlp", "hidden": 16, "lr": 0.05, "epochs": 60, "batch": 32},
                "estimator": {"type": "kde", "bandwidth": 0.1},
            },
            {
                "classifier": {"type": "mlp", "hidden": 16, "lr": 0.05, "epochs": 60, "batch": 32},
                "estimator": {"type": "kde", "bandwidth": 0.1},
            },
        ],
    }


@pytest.fixture
def fast_config() -> ExperimentConfig:
    return config_from_dict(fast_experiment_doc())


def toy3_untrained_manifest(out_dir) -> str:
    """Manifest of toy3's seed-0 parties: KDEs on their shards and
    softmax classifiers at random initial weights (no training)."""
    cfg = load_config("toy3")
    _, _, shards = prepare_data(cfg, stream_seeds(0, len(cfg.parties)))
    rng = np.random.default_rng(0)
    parties = [
        PartyModel(
            SoftmaxRegression.init_random(2, shard.label_space, rng),
            kde_fit(shard.features, pcfg.estimator.bandwidth),
            len(shard),
        )
        for pcfg, shard in zip(cfg.parties, shards)
    ]
    return save_ensemble(build_ensemble(parties, cfg.data.num_classes), out_dir)


# Run the CLI in a child and print the child's own peak RSS in KiB: Linux's
# VmHWM, because the child's ``ru_maxrss`` starts from the peak of the test
# process that spawned it (a child of a 177 MB process reads 177 MB at once).
MAXRSS_CHILD = (
    "import sys\n"
    "from densemble import cli\n"
    "assert cli.main(sys.argv[1:]) == 0\n"
    "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
)


def cli_peak_rss_mb(argv: list[str]) -> float:
    """Peak RSS in MB of a child process that runs ``densemble argv`` on one
    BLAS thread, which must exit 0."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", MAXRSS_CHILD, *argv],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        check=True,
    )
    return int(proc.stdout.split()[-1]) / 1024


# Each value a mutated key or list element is set to; DELETE removes it.
MUTATION_VALUES = [None, True, False, 0, 1, -1, 2.5, 1e300, 2**64, 10**400, math.nan, "1", [], {}]
DELETE = object()


def json_paths(doc, prefix=()):
    """The path of every object value and array element under ``doc``."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from json_paths(value, prefix + (key,))


def mutated(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` set, or removed for DELETE."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@pytest.fixture
def forks(monkeypatch):
    """The pids each ``os.fork`` call returned to this process."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_reaped(pids):
    """Every pid in ``pids`` has been reaped: none is a child left to wait for."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
