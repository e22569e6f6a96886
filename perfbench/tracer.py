"""Span tracer that instruments densemble from outside the package.

``Tracer.install`` wraps every public function and every public method of
the public classes in the layer modules, and rebinds each name that resolves
to one of them: the module attribute, the class attribute, and the copies
that ``from .x import y`` leaves in other modules (for example
``harness.evaluate_objective`` or ``plotting.decide``). ``uninstall`` puts
every original object back, so traced and untraced operations can alternate
in one process.

Spans (name, start, end, parent, op id) are kept in memory and written out
when the benchmark ends. Self time is a span's duration minus the time its
child spans cover. Work counts (rows, kernel pairs, distinct rows) are taken
at the same call boundaries; the time spent counting is recorded as its own
``perfbench.count`` span, so it is charged to no layer.

Callers must reach densemble through module attributes (``harness.run_experiment``),
never through names they imported before ``install``.
"""

from __future__ import annotations

import csv
import importlib
import inspect
from collections import defaultdict
from functools import wraps
from time import perf_counter

import numpy as np

LAYERS = (
    "datasets",
    "density",
    "classifiers",
    "ensemble",
    "calibration",
    "serialize",
    "plotting",
    "harness",
    "cli",
)

COUNT_SPAN = "perfbench.count"

# Per-layer metric -> the span names whose self times and calls it sums.
SPAN_GROUPS = {
    "density.kde_log_density": ("density.KdeModel.log_density",),
    "density.gmm_log_density": ("density.GmmModel.log_density",),
    "density.gmm_fit": ("density.gmm_fit",),
    "density.gmm_nll_grad": ("density.GmmModel.nll_grad",),
    "density.gmm_set_params": ("density.GmmModel.set_params",),
    "classifiers.train": ("classifiers.train",),
    "classifiers.posterior": (
        "classifiers.SoftmaxRegression.posterior",
        "classifiers.MlpClassifier.posterior",
    ),
    "classifiers.posterior_grad": (
        "classifiers.SoftmaxRegression.posterior_grad",
        "classifiers.MlpClassifier.posterior_grad",
    ),
    "classifiers.apply_grad": (
        "classifiers.SoftmaxRegression.apply_grad",
        "classifiers.MlpClassifier.apply_grad",
    ),
    "ensemble.evaluate_objective": ("ensemble.evaluate_objective",),
    "ensemble.max_model_decide": ("ensemble.max_model_decide",),
    "calibration.calibrate": ("calibration.calibrate",),
    "calibration.ensemble_accuracy": ("calibration.ensemble_accuracy",),
    "serialize.load_ensemble": ("serialize.load_ensemble",),
    "serialize.save_ensemble": ("serialize.save_ensemble",),
    "serialize.write_predictions": ("serialize.write_predictions",),
    "datasets.read_csv": ("datasets.read_csv",),
    "datasets.write_csv": ("datasets.write_csv",),
    "datasets.generate_toy": ("datasets.generate_toy",),
    "datasets.partition": ("datasets.partition",),
    "plotting.plot_decision_boundary": ("plotting.plot_decision_boundary",),
    "plotting.plot_density": ("plotting.plot_density",),
}

# Groups that also report a call count.
CALL_COUNTED = (
    "density.kde_log_density",
    "density.gmm_log_density",
    "density.gmm_nll_grad",
    "classifiers.posterior",
    "classifiers.posterior_grad",
    "classifiers.apply_grad",
    "ensemble.evaluate_objective",
)

STAGES = ("data", "train_local", "eval_zeroshot", "calibrate")

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    **{
        f"{group}.{stat}": unit
        for group in SPAN_GROUPS
        for stat, unit in (("s", "s"), ("calls", "count"))
        if stat == "s" or group in CALL_COUNTED
    },
    "density.kde_pairs": "pairs",
    "density.kde_bytes_computed": "bytes_computed",
    "density.rows_per_distinct_row": "ratio",
    "ensemble.evaluate_objective.rows": "rows",
    "ensemble.objective_evals_per_query": "ratio",
    "calibration.steps": "steps",
    **{f"harness.stage.{stage}_s": "s" for stage in STAGES},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}


def _row_keys(X) -> list:
    """One hashable key per query row (its raw float64 bytes)."""
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
    return X.view(np.dtype((np.void, X.shape[1] * X.itemsize))).ravel().tolist()


def _density_state(est) -> int:
    """Key of an estimator's parameters: equal keys give equal log-densities."""
    if hasattr(est, "points"):
        return hash((type(est).__name__, est.bandwidth, est.points.tobytes()))
    return hash(
        (type(est).__name__, est.weights.tobytes(), est.means.tobytes(), est.variances.tobytes())
    )


class Tracer:
    """In-memory span recorder plus per-operation work counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._query_rows: dict[int, set] = defaultdict(set)
        self._density_rows: dict[int, dict[int, set]] = defaultdict(lambda: defaultdict(set))

    # -- counters, keyed by span name; each gets the call's args and result --

    def _count_kde(self, args, result):
        est, X = args[0], args[1]
        rows = len(result)
        c = self.counts[self.op]
        c["kde_rows"] += rows
        c["kde_pairs"] += rows * est.points.shape[0]
        self._count_density_rows(est, X)

    def _count_gmm(self, args, result):
        self.counts[self.op]["gmm_rows"] += len(result)
        self._count_density_rows(args[0], args[1])

    def _count_density_rows(self, est, X):
        self._density_rows[self.op][_density_state(est)].update(_row_keys(X))

    def _count_objective(self, args, result):
        self.counts[self.op]["objective_rows"] += result.objective.shape[0]
        self._query_rows[self.op].update(_row_keys(args[1]))

    def _count_calibrate(self, args, result):
        self.counts[self.op]["calibration_steps"] += len(result[1])

    def _counter(self, name):
        return {
            "density.KdeModel.log_density": self._count_kde,
            "density.GmmModel.log_density": self._count_gmm,
            "ensemble.evaluate_objective": self._count_objective,
            "calibration.calibrate": self._count_calibrate,
        }.get(name)

    # -- spans --

    def _span(self, name, parent):
        span = [name, perf_counter(), 0.0, parent, self.op]
        self.spans.append(span)
        return span

    def _wrap(self, name, fn):
        count = self._counter(name)
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            stack.append(len(self.spans))
            span = self._span(name, parent)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                cspan = self._span(COUNT_SPAN, parent)
                count(args, result)
                cspan[2] = perf_counter()
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        import densemble

        modules = {name: importlib.import_module(f"densemble.{name}") for name in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for mname, member in list(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        span_name = f"{layer}.{attr}.{mname}"
                        if inspect.isfunction(member):
                            self._patch(obj, mname, self._wrap(span_name, member))
                        elif isinstance(member, classmethod):
                            self._patch(
                                obj, mname, classmethod(self._wrap(span_name, member.__func__))
                            )
        for mod in (densemble, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived numbers --

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its children's durations."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count summed per span name over all ops."""
        secs: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span, s in zip(self.spans, self.self_times()):
            secs[span[0]] += s
            calls[span[0]] += 1
        return secs, calls

    def layer_metrics(self, num_ops: int) -> dict[str, float]:
        """Per-layer metrics from the spans, as means per traced operation.

        Stage timings and ``trace.overhead_s`` come from outside the spans;
        the caller adds them.
        """
        secs, calls = self.totals()
        out: dict[str, float] = {}
        for group, names in SPAN_GROUPS.items():
            out[f"{group}.s"] = sum(secs.get(n, 0.0) for n in names) / num_ops
            if group in CALL_COUNTED:
                out[f"{group}.calls"] = sum(calls.get(n, 0) for n in names) / num_ops
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (
                sum(s for n, s in secs.items() if n.split(".", 1)[0] == layer) / num_ops
            )
        total = defaultdict(float)
        for c in self.counts.values():
            for key, v in c.items():
                total[key] += v
        out["density.kde_pairs"] = total["kde_pairs"] / num_ops
        # bytes of one (queries x shard points) float64 matrix per call
        out["density.kde_bytes_computed"] = 8.0 * total["kde_pairs"] / num_ops
        distinct_density = sum(
            len(rows) for per_op in self._density_rows.values() for rows in per_op.values()
        )
        density_rows = total["kde_rows"] + total["gmm_rows"]
        out["density.rows_per_distinct_row"] = (
            density_rows / distinct_density if distinct_density else 0.0
        )
        out["ensemble.evaluate_objective.rows"] = total["objective_rows"] / num_ops
        distinct_queries = sum(len(rows) for rows in self._query_rows.values())
        out["ensemble.objective_evals_per_query"] = (
            total["objective_rows"] / distinct_queries if distinct_queries else 0.0
        )
        out["calibration.steps"] = total["calibration_steps"] / num_ops
        return out

    def span_table(self) -> dict[str, dict[str, float]]:
        """Self seconds and calls for every span name, summed over all ops."""
        secs, calls = self.totals()
        return {n: {"self_s": secs[n], "calls": calls[n]} for n in sorted(secs)}

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "op", "name", "start", "end", "parent"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                w.writerow([i, op, name, repr(start), repr(end), parent])
